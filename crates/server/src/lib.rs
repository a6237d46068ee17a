//! `subzero-server` — a long-lived, sharded lineage daemon over a unix
//! domain socket.
//!
//! The in-process runtime ties lineage capture and queries to one process's
//! lifetime.  This crate runs the same datastores behind a daemon
//! (`subzero-serverd`) that many clients share:
//!
//! * **Sharding** — operators are hash-partitioned across shard worker
//!   threads ([`shard::shard_of`]); each shard owns its own datastore
//!   directory and [`subzero::datastore::OpDatastore`] handles, so shards
//!   never contend on a store.
//! * **Wire protocol** — length-prefixed binary frames over
//!   `std::os::unix::net` ([`protocol`]); no network crates, no
//!   serialization dependency, defensive decoding throughout.
//! * **Fairness and backpressure** — each client connection gets one
//!   bounded job lane per shard; shard workers sweep lanes round-robin, so
//!   a bulk loader cannot starve interactive clients.  Ingest admission
//!   reuses the capture queue's overflow policies: `Block` for lossless
//!   backpressure, `DropNewest` for shed-and-report.
//! * **Durability** — `FinishSession` (and graceful shutdown) flushes
//!   every store and persists its sidecar spatial index; a restarted
//!   daemon recovers from the sidecar, or rebuilds from the log after a
//!   crash.
//!
//! Client side, [`Client`] speaks the protocol and [`client::RemoteSession`]
//! runs the in-process query walk ([`subzero::query::QueryWalk`]) over a
//! daemon session: stored steps become wire lookups, operators the daemon
//! does not store answer through their mapping functions, and a step that
//! needs re-execution fails with a typed error.  Daemon answers are
//! byte-identical to local ones.

pub mod client;
pub mod protocol;
pub mod server;
pub mod shard;

pub use client::{BatchAck, Client, ClientError, RemoteSession, RetryPolicy};
pub use protocol::{
    LookupStep, OpSpec, ProtocolError, Request, Response, ServerStats, WireOutcome,
};
pub use server::{Server, ServerConfig, COMMIT_WAL};
pub use shard::shard_of;
