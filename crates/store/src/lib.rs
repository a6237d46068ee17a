//! # subzero-store
//!
//! Storage substrate for the SubZero lineage system.
//!
//! The SubZero prototype stored region lineage "in a collection of BerkeleyDB
//! hashtable instances", with fsync, logging and concurrency control disabled
//! because the lineage store is a cache that can always be rebuilt by
//! re-running operators (§VI-A of the paper).  It also used write-ahead
//! logging to guarantee black-box lineage is recorded before array data, and
//! `libspatialindex` to build an R-tree over the hash keys of the *Many*
//! encodings.
//!
//! This crate provides all three pieces, self-contained:
//!
//! * [`kv`] — an embedded hash-bucket key-value store with an in-memory
//!   backend and an append-only-file backend behind one [`KvBackend`]
//!   trait, one store per operator datastore, with log files named by
//!   [`sanitize_name`].
//! * [`wal`] — the durable write-ahead log: black-box execution records plus
//!   the prepare/commit/checkpoint records of the transactional run-commit
//!   path, with torn-tail-truncating replay and directory recovery.
//! * [`failpoint`] — the crash-point registry the fault-injection tests arm
//!   via `SUBZERO_FAILPOINT` to kill a real process at commit boundaries.
//! * [`codec`] — varint and coordinate bit-packing codecs used by the lineage
//!   encoder.
//! * [`hash`] — the FxHash-style hasher the key-value backends key their
//!   tables with (one-granularity ingest is hash-table bound).
//! * [`rtree`] — an R-tree spatial index over cell bounding boxes.
//! * [`mmap`] — the read-only memory-mapped log view the file backend's scan
//!   path serves zero-copy slices from (the crate's only `unsafe` module).

pub mod codec;
pub mod failpoint;
pub mod hash;
pub mod kv;
pub mod mmap;
pub mod rtree;
pub mod wal;

pub use codec::{Arena, CellRun, ScanFrame, Span};
pub use hash::{FxBuildHasher, FxHashMap, FxHasher};
pub use kv::{sanitize_name, KvBackend};
pub use rtree::RTree;
pub use wal::{
    recover_dir, RecoveryPlan, RecoveryReport, WalEntry, WalFileLen, WalRecord, WriteAheadLog,
    WAL_FILE,
};
