//! # subzero
//!
//! SubZero: a fine-grained lineage capture, storage and query system for
//! scientific array workflows (Wu, Madden, Stonebraker — ICDE 2013).
//!
//! SubZero sits on top of a SciDB-like workflow executor
//! ([`subzero_engine`]) and records *region lineage*: relationships between
//! sets of output cells and sets of input cells of each operator.  Operators
//! expose lineage through the `lwrite()` API and/or mapping functions; the
//! runtime encodes and stores region pairs in per-operator datastores; and a
//! per-run [`QuerySession`] answers backward and forward
//! lineage queries by joining query cells with stored lineage, mapping
//! functions, or operator re-execution — whichever the chosen strategy (and
//! the query-time optimizer) prefers.
//!
//! ## Crate layout
//!
//! * [`model`] — storage strategies: lineage mode × encoding granularity ×
//!   index direction (`FullOne`, `FullMany`, `PayOne`, `PayMany`, forward or
//!   backward optimized), plus workflow-level strategy assignments.
//! * [`encoder`] — byte-level encodings of region-pair entries (Fig. 4 of the
//!   paper).
//! * [`datastore`] — one [`OpDatastore`] per
//!   (operator, strategy): hash entries in a [`subzero_store`] database plus
//!   an R-tree over the key cells for the *Many* encodings.  Lookups are
//!   batch-oriented (`lookup_many`): one call answers many queries,
//!   sharing decoded entries and — on a mismatched index direction — the
//!   single streamed full scan.
//! * [`runtime`] — the [`Runtime`] lineage collector that
//!   plugs into the workflow executor, buffers and encodes region pairs, and
//!   gathers the statistics the optimizer needs.
//! * [`capture`] — the async capture pipeline: a bounded queue and a pool of
//!   background flusher threads that take encode + store off the executor
//!   thread ([`CaptureMode::Async`](capture::CaptureMode)), with a flush
//!   barrier, drain-on-shutdown, and flusher-failure propagation back to the
//!   next engine call.
//! * [`query`] — the [`QuerySession`]: traversals
//!   derived from the workflow DAG (callers name *arrays*, never `(operator,
//!   input)` step vectors), multi-path fan-out at DAG joins, multi-query
//!   batching, streaming [`LineageCursor`]s, the
//!   entire-array optimization, and the query-time fallback to re-execution.
//! * [`reexec`] — turning traced region pairs (from black-box re-execution)
//!   into query answers.
//! * [`system`] — the [`SubZero`] façade: execute workflows
//!   under a lineage strategy, borrow query sessions, report overheads.
//! * [`sync`] — the sanctioned gateway to sync/thread primitives: std
//!   re-exports normally, the loom model-checking shim under `--cfg loom`.
//!   Direct `std::sync`/`std::thread` use elsewhere is banned by
//!   `cargo xtask lint`.
//!
//! ## Quick start
//!
//! ```
//! use std::collections::HashMap;
//! use std::sync::Arc;
//! use subzero::prelude::*;
//! use subzero_engine::ops::{Elementwise1, UnaryKind};
//!
//! // A tiny workflow: threshold(scale(img)).
//! let mut b = Workflow::builder("quickstart");
//! let scale = b.add_source(Arc::new(Elementwise1::new(UnaryKind::Scale(2.0))), "img");
//! let thresh = b.add_unary(Arc::new(Elementwise1::new(UnaryKind::Threshold(4.0))), scale);
//! let wf = Arc::new(b.build().unwrap());
//!
//! // Execute it under SubZero with the default (black-box + mapping) strategy.
//! let mut subzero = SubZero::new();
//! let mut inputs = HashMap::new();
//! inputs.insert("img".to_string(), Array::from_rows(&[vec![1.0, 3.0]]));
//! let run = subzero.execute(&wf, &inputs).unwrap();
//!
//! // Trace the bright output cell back to the input image: the session
//! // derives the thresh -> scale -> "img" traversal from the DAG.
//! let mut session = subzero.session(&run);
//! let result = session
//!     .backward(vec![Coord::d2(0, 1)])
//!     .from(thresh)
//!     .to_source("img")
//!     .unwrap();
//! assert_eq!(result.cells.to_coords(), vec![Coord::d2(0, 1)]);
//!
//! // Which outputs does the bright input pixel influence?
//! let result = session
//!     .forward(vec![Coord::d2(0, 1)])
//!     .from_source("img")
//!     .to(thresh)
//!     .unwrap();
//! assert_eq!(result.cells.to_coords(), vec![Coord::d2(0, 1)]);
//! ```

pub mod capture;
pub mod datastore;
pub mod encoder;
pub mod model;
pub mod parallel;
pub mod query;
pub mod reexec;
pub mod runtime;
pub mod sync;
pub mod system;

pub use capture::{BoundedQueue, CaptureConfig, CaptureMode, OverflowPolicy};
pub use datastore::OpDatastore;
pub use model::{Direction, Granularity, LineageStrategy, StorageStrategy, StrategyError};
pub use query::{
    LineageCursor, QueryCache, QueryCacheStats, QueryError, QueryReport, QueryResult, QuerySession,
    QuerySpec, StepMethod,
};
pub use runtime::{CaptureStats, OperatorLineageStats, Runtime};
pub use subzero_engine::paths::ArrayNode;
pub use system::SubZero;

/// Convenience re-exports for downstream users and examples.
pub mod prelude {
    pub use crate::capture::{CaptureConfig, CaptureMode, OverflowPolicy};
    pub use crate::model::{Direction, Granularity, LineageStrategy, StorageStrategy};
    pub use crate::query::{LineageCursor, QueryResult, QuerySession, QuerySpec};
    pub use crate::system::SubZero;
    pub use subzero_array::{Array, CellSet, Coord, Shape};
    pub use subzero_engine::paths::ArrayNode;
    pub use subzero_engine::{LineageMode, Workflow};
}
