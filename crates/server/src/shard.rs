//! Shard workers: each owns a partition of the operator space and a
//! datastore directory, and drains per-client job queues round-robin.
//!
//! The daemon hash-partitions operators across `N` shard workers
//! ([`shard_of`]).  Every client connection registers one *lane* — a
//! [`BoundedQueue`] of `ShardJob`s — with every shard; the worker thread
//! sweeps its registered lanes round-robin with
//! [`try_pop`](BoundedQueue::try_pop), so a bulk loader hammering one lane
//! cannot starve an interactive client on another: between any two of the
//! bulk lane's jobs the worker visits every other lane once.  Jobs within a
//! lane stay FIFO, which is what makes a lookup enqueued after an accepted
//! ingest batch observe that batch.
//!
//! Admission control happens at the lane: ingest jobs are pushed with the
//! server's configured [`OverflowPolicy`](subzero::capture::OverflowPolicy)
//! (shedding is reported to the client, never silent), while control and
//! query jobs are pushed with `Block` so they are never shed.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use subzero::capture::BoundedQueue;
use subzero::datastore::{serving, OpDatastore};
use subzero::model::{Direction, StorageStrategy};
use subzero::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use subzero::sync::{lock_or_recover, wait_or_recover, Condvar, Mutex};
use subzero_array::{Array, ArrayRef, CellSet, Shape};
use subzero_engine::lineage::{LineageSink, RegionPair};
use subzero_engine::workflow::OpId;
use subzero_engine::{LineageMode, OpMeta, Operator};
use subzero_store::kv::{sanitize_name, FileBackend};
use subzero_store::wal::{WalFileLen, WalRecord, WriteAheadLog, WAL_FILE};

use crate::protocol::{LookupStep, OpSpec, WireOutcome};

/// The shard that owns operator `op_id` under an `n`-shard layout.
///
/// A pure function of the operator id (SplitMix64-style mix), so the
/// assignment is stable across daemon restarts — a restarted daemon finds
/// each operator's datastore files in the same shard directory.
pub fn shard_of(op_id: OpId, n: usize) -> usize {
    let mut x = u64::from(op_id).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % n.max(1) as u64) as usize
}

/// Daemon-wide counters shared by shards and the coordinator.
#[derive(Default)]
pub(crate) struct Counters {
    /// `StoreBatch` requests admitted to a shard queue.
    pub store_batches: AtomicU64,
    /// Lookup steps served.
    pub lookup_steps: AtomicU64,
    /// Ingest batches shed by `DropNewest` admission.
    pub shed_batches: AtomicU64,
    /// Transactions committed (durable `FinishSession` publishes).
    pub commits: AtomicU64,
    /// Sessions evicted by the idle-lease sweeper.
    pub evicted_sessions: AtomicU64,
}

/// A one-shot rendezvous a connection handler parks on while the owning
/// shard worker computes the job's result.
pub(crate) struct JobSlot<T> {
    value: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T> JobSlot<T> {
    pub fn new() -> Arc<Self> {
        Arc::new(JobSlot {
            value: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    pub fn fill(&self, v: T) {
        let mut guard = lock_or_recover(&self.value);
        *guard = Some(v);
        drop(guard);
        self.ready.notify_all();
    }

    pub fn wait(&self) -> T {
        let mut guard = lock_or_recover(&self.value);
        loop {
            if let Some(v) = guard.take() {
                return v;
            }
            guard = wait_or_recover(&self.ready, guard);
        }
    }
}

/// One unit of work routed to the shard that owns the target operator.
pub(crate) enum ShardJob {
    /// Create (or reattach to) the datastores of one operator.
    Open {
        session: u64,
        name: String,
        spec: OpSpec,
        done: Arc<JobSlot<Result<(), String>>>,
    },
    /// Ingest a batch of region pairs.  No reply slot: admission was already
    /// acknowledged, lane FIFO makes the write visible to later jobs, and
    /// [`ShardJob::Finish`] is the durability barrier that reports errors.
    Store {
        session: u64,
        op_id: OpId,
        pairs: Vec<RegionPair>,
    },
    /// Answer one traversal step (batched over its queries).
    Lookup {
        session: u64,
        step: LookupStep,
        done: Arc<JobSlot<Result<Vec<WireOutcome>, String>>>,
    },
    /// Phase one of a durable commit: flush, fsync and persist every
    /// datastore of the session on this shard, then log a
    /// [`WalRecord::Prepare`] for transaction `txn` naming the exact
    /// flushed file lengths.  `txn` is 0 for in-memory shards (nothing to
    /// prepare, plain flush semantics).
    Finish {
        session: u64,
        txn: u64,
        done: Arc<JobSlot<Result<(), String>>>,
    },
    /// Phase two, after the coordinator's decision is durable: fold `txn`
    /// into the shard's committed baseline, compact the session's logs, and
    /// rewrite the shard WAL so replay stays bounded.
    Checkpoint {
        session: u64,
        txn: u64,
        done: Arc<JobSlot<Result<(), String>>>,
    },
    /// Drop the session's in-memory state on this shard.
    Close {
        session: u64,
        done: Arc<JobSlot<()>>,
    },
}

/// The reply slot a [`ShardJob`] carries, extracted (cheap `Arc` clones)
/// *before* the job is processed so that a panic inside
/// [`Worker::process`] can still unblock the connection handler parked on
/// the slot — otherwise a panicking job (e.g. a flush failing on a full
/// disk during `Finish`) would leave the handler in [`JobSlot::wait`]
/// forever and make graceful shutdown hang joining it.
pub(crate) enum ReplySlot {
    /// `Open` and `Finish` jobs: acknowledged with `Ok(())` or an error.
    Ack(Arc<JobSlot<Result<(), String>>>),
    /// `Lookup` jobs.
    Lookup(Arc<JobSlot<Result<Vec<WireOutcome>, String>>>),
    /// `Close` jobs (infallible acknowledgement).
    Close(Arc<JobSlot<()>>),
    /// `Store` jobs carry no slot (admission was already acknowledged).
    None,
}

impl ReplySlot {
    /// Fills the slot with the failure so the waiter wakes.  Filling a slot
    /// the job already answered just leaves an unread value behind — the
    /// rendezvous is one-shot, so that is harmless.
    pub(crate) fn fail(self, message: String) {
        match self {
            ReplySlot::Ack(slot) => slot.fill(Err(message)),
            ReplySlot::Lookup(slot) => slot.fill(Err(message)),
            ReplySlot::Close(slot) => slot.fill(()),
            ReplySlot::None => {}
        }
    }
}

impl ShardJob {
    /// Clones the job's reply slot for panic recovery (see [`ReplySlot`]).
    pub(crate) fn reply_slot(&self) -> ReplySlot {
        match self {
            ShardJob::Open { done, .. }
            | ShardJob::Finish { done, .. }
            | ShardJob::Checkpoint { done, .. } => ReplySlot::Ack(Arc::clone(done)),
            ShardJob::Lookup { done, .. } => ReplySlot::Lookup(Arc::clone(done)),
            ShardJob::Close { done, .. } => ReplySlot::Close(Arc::clone(done)),
            ShardJob::Store { .. } => ReplySlot::None,
        }
    }
}

/// A registered per-client job queue.
struct Lane {
    queue: Arc<BoundedQueue<ShardJob>>,
}

struct LaneRegistry {
    lanes: Vec<Lane>,
    /// Round-robin position of the next sweep.
    cursor: usize,
}

/// Shared state of one shard: the lane registry the worker sweeps and the
/// wakeup machinery producers use to rouse it.
pub(crate) struct Shard {
    index: usize,
    dir: Option<PathBuf>,
    lanes: Mutex<LaneRegistry>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Artificial per-ingest-job stall (saturation tests and benchmarks
    /// emulating a slow storage device); zero in production.
    store_stall: Duration,
    counters: Arc<Counters>,
}

impl Shard {
    pub fn new(
        index: usize,
        dir: Option<PathBuf>,
        store_stall: Duration,
        counters: Arc<Counters>,
    ) -> Arc<Self> {
        Arc::new(Shard {
            index,
            dir,
            lanes: Mutex::new(LaneRegistry {
                lanes: Vec::new(),
                cursor: 0,
            }),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            store_stall,
            counters,
        })
    }

    /// Registers a connection's lane with this shard.
    pub fn register_lane(&self, queue: Arc<BoundedQueue<ShardJob>>) {
        let mut reg = lock_or_recover(&self.lanes);
        reg.lanes.push(Lane { queue });
        drop(reg);
        self.wake.notify_all();
    }

    /// Wakes the worker after a push to one of this shard's lanes.
    pub fn notify(&self) {
        let _guard = lock_or_recover(&self.lanes);
        self.wake.notify_all();
    }

    /// Starts shutdown: closes every lane (so producers fail fast instead
    /// of queueing into the void) and tells the worker to drain and exit.
    pub fn initiate_shutdown(&self) {
        let reg = lock_or_recover(&self.lanes);
        for lane in &reg.lanes {
            lane.queue.close();
        }
        drop(reg);
        self.shutdown.store(true, Ordering::Release);
        self.notify();
    }

    /// Takes the next job round-robin across lanes, blocking while every
    /// lane is empty.  Returns `None` once shutdown is initiated and the
    /// lanes are drained.
    fn next_job(&self) -> Option<(ShardJob, Arc<BoundedQueue<ShardJob>>)> {
        let mut reg = lock_or_recover(&self.lanes);
        loop {
            // Closed *and* drained lanes (disconnected clients) leave the
            // rotation; keeping them would only slow the sweep.
            reg.lanes
                .retain(|l| !(l.queue.is_closed() && l.queue.is_empty()));
            let n = reg.lanes.len();
            for i in 0..n {
                let idx = (reg.cursor + i) % n;
                if let Some(job) = reg.lanes[idx].queue.try_pop() {
                    reg.cursor = (idx + 1) % n;
                    let queue = Arc::clone(&reg.lanes[idx].queue);
                    return Some((job, queue));
                }
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            reg = wait_or_recover(&self.wake, reg);
        }
    }
}

/// A stand-in operator for datastore lookups.  `Full`-mode lookups never
/// invoke the operator (only payload/composite lineage calls back into
/// mapping functions, and those strategies are rejected at session open),
/// so the stub's only job is to exist.
struct RemoteOp;

impl Operator for RemoteOp {
    fn name(&self) -> &str {
        "remote"
    }

    fn output_shape(&self, input_shapes: &[Shape]) -> Shape {
        input_shapes
            .first()
            .copied()
            .unwrap_or_else(|| Shape::d1(1))
    }

    fn run(&self, _: &[ArrayRef], _: &[LineageMode], _: &mut dyn LineageSink) -> Array {
        panic!("the lineage daemon never executes operators")
    }
}

/// One operator's state on its owning shard.
struct OpState {
    meta: OpMeta,
    strategies: Vec<StorageStrategy>,
    stores: Vec<OpDatastore>,
}

/// The worker's private state; only the shard's single worker thread
/// touches it, so no locking is needed around the datastores themselves.
struct Worker {
    shard: Arc<Shard>,
    ops: HashMap<(u64, OpId), OpState>,
    /// The shard directory's write-ahead log (`None` for in-memory shards).
    /// The coordinator recovered it before this worker started, so opening
    /// replays at most a checkpoint baseline plus undecided prepares.
    wal: Option<WriteAheadLog>,
    /// Set when a job panicked; the shard then refuses further work instead
    /// of serving from possibly inconsistent stores.
    failed: Option<String>,
}

/// Body of a shard worker thread: drain jobs until shutdown, then harvest
/// (flush + persist the sidecar index of) every remaining datastore.
pub(crate) fn worker_loop(shard: Arc<Shard>) {
    let mut worker = Worker {
        shard: Arc::clone(&shard),
        ops: HashMap::new(),
        wal: None,
        failed: None,
    };
    if let Some(dir) = shard.dir.clone() {
        match WriteAheadLog::open(dir.join(WAL_FILE)) {
            Ok(wal) => worker.wal = Some(wal),
            Err(e) => {
                let what = format!("open shard write-ahead log: {e}");
                eprintln!("subzero-server: shard {}: {what}", shard.index);
                worker.failed = Some(what);
            }
        }
    }
    while let Some((job, queue)) = shard.next_job() {
        let reply = job.reply_slot();
        let outcome = catch_unwind(AssertUnwindSafe(|| worker.process(job)));
        queue.task_done();
        if let Err(panic) = outcome {
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "shard job panicked".to_string());
            eprintln!("subzero-server: shard {} job panicked: {what}", shard.index);
            // Answer the waiter before anything else: a job that dies with
            // its slot unfilled would park its connection handler forever.
            reply.fail(format!("shard {} job panicked: {what}", shard.index));
            worker.failed.get_or_insert(what);
        }
    }
    worker.harvest();
}

impl Worker {
    fn process(&mut self, job: ShardJob) {
        if let Some(why) = self.failed.clone() {
            // A previous panic may have left datastore state inconsistent;
            // answer everything with the failure instead of guessing.
            let msg = format!("shard {} failed: {why}", self.shard.index);
            match job {
                ShardJob::Open { done, .. }
                | ShardJob::Finish { done, .. }
                | ShardJob::Checkpoint { done, .. } => {
                    done.fill(Err(msg));
                }
                ShardJob::Lookup { done, .. } => done.fill(Err(msg)),
                ShardJob::Close { done, .. } => done.fill(()),
                ShardJob::Store { .. } => {}
            }
            return;
        }
        match job {
            ShardJob::Open {
                session,
                name,
                spec,
                done,
            } => done.fill(self.open_op(session, &name, spec)),
            ShardJob::Store {
                session,
                op_id,
                pairs,
            } => self.store(session, op_id, &pairs),
            ShardJob::Lookup {
                session,
                step,
                done,
            } => done.fill(self.lookup(session, &step)),
            ShardJob::Finish { session, txn, done } => done.fill(self.finish(session, txn)),
            ShardJob::Checkpoint { session, txn, done } => {
                done.fill(self.checkpoint(session, txn));
            }
            ShardJob::Close { session, done } => {
                self.ops.retain(|(s, _), _| *s != session);
                done.fill(());
            }
        }
    }

    fn open_op(&mut self, session: u64, name: &str, spec: OpSpec) -> Result<(), String> {
        if spec.strategies.is_empty() {
            return Err(format!("op {} declares no storage strategies", spec.op_id));
        }
        for s in &spec.strategies {
            if s.mode != LineageMode::Full {
                return Err(format!(
                    "op {}: strategy {} is not supported remotely (payload and \
                     composite lookups need the operator's mapping functions, \
                     which cannot travel over the wire)",
                    spec.op_id,
                    s.label()
                ));
            }
        }
        let meta = OpMeta::new(spec.input_shapes.clone(), spec.output_shape);
        if let Some(existing) = self.ops.get(&(session, spec.op_id)) {
            // Reattach: an identical re-open keeps the live state; anything
            // else is a client bug.
            if existing.meta.input_shapes == meta.input_shapes
                && existing.meta.output_shape == meta.output_shape
                && existing.strategies == spec.strategies
            {
                return Ok(());
            }
            return Err(format!(
                "op {} already open in session with a different spec",
                spec.op_id
            ));
        }
        let mut stores = Vec::with_capacity(spec.strategies.len());
        for strategy in &spec.strategies {
            let store_name = format!(
                "{}_op{}_{}",
                sanitize_name(name),
                spec.op_id,
                strategy.db_suffix()
            );
            let store = match &self.shard.dir {
                Some(dir) => {
                    let path = dir.join(format!("{store_name}.kv"));
                    let backend = FileBackend::open(&path)
                        .map_err(|e| format!("open {}: {e}", path.display()))?;
                    OpDatastore::new(store_name, *strategy, &meta, Box::new(backend))
                }
                None => OpDatastore::in_memory(store_name, *strategy, &meta),
            };
            stores.push(store);
        }
        self.ops.insert(
            (session, spec.op_id),
            OpState {
                meta,
                strategies: spec.strategies,
                stores,
            },
        );
        Ok(())
    }

    fn store(&mut self, session: u64, op_id: OpId, pairs: &[RegionPair]) {
        if !self.shard.store_stall.is_zero() {
            subzero::sync::thread::sleep(self.shard.store_stall);
        }
        let Some(state) = self.ops.get_mut(&(session, op_id)) else {
            // The coordinator validated the session/op before admission; an
            // unknown target here means the session raced a close.  The
            // batch is dropped, which Finish-after-close semantics allow.
            return;
        };
        for store in &mut state.stores {
            store.store_batch(pairs, 1);
        }
        self.shard
            .counters
            .store_batches
            .fetch_add(1, Ordering::Relaxed);
    }

    fn lookup(&mut self, session: u64, step: &LookupStep) -> Result<Vec<WireOutcome>, String> {
        let Some(state) = self.ops.get_mut(&(session, step.op_id)) else {
            return Err(format!("unknown op {} in session", step.op_id));
        };
        let input_idx = step.input_idx as usize;
        let Some(&input_shape) = state.meta.input_shapes.get(input_idx) else {
            return Err(format!("op {} has no input {input_idx}", step.op_id));
        };
        let query_shape = match step.direction {
            Direction::Backward => state.meta.output_shape,
            Direction::Forward => input_shape,
        };
        for q in &step.queries {
            if q.shape() != query_shape {
                return Err(format!(
                    "op {}: query shape {:?} does not match {:?}",
                    step.op_id,
                    q.shape(),
                    query_shape
                ));
            }
        }
        // The same store choice the in-process query engine makes, which is
        // what keeps remote answers byte-identical to local ones.
        let Some(store) = serving(&mut state.stores, step.direction) else {
            return Err(format!("op {} stores no lineage", step.op_id));
        };
        let refs: Vec<&CellSet> = step.queries.iter().collect();
        let outcomes = store.lookup_many(step.direction, &refs, input_idx, &RemoteOp, &state.meta);
        self.shard
            .counters
            .lookup_steps
            .fetch_add(1, Ordering::Relaxed);
        Ok(outcomes
            .into_iter()
            .map(|o| {
                // The join only ever promotes containers; re-normalising the
                // answer here lets the wire encoder see (and size) the
                // smallest representation of each set before picking a frame.
                let mut result = o.result;
                let mut covered = o.covered;
                result.optimize();
                covered.optimize();
                WireOutcome {
                    result,
                    covered,
                    entries_fetched: o.entries_fetched as u64,
                    scanned: o.scanned,
                }
            })
            .collect())
    }

    /// Prepare phase of the two-phase commit: flush and fsync every store
    /// the session touched on this shard, then record the committed lengths
    /// in the shard WAL.  `txn == 0` (in-memory serving) skips the durable
    /// part and degrades to a plain flush.
    fn finish(&mut self, session: u64, txn: u64) -> Result<(), String> {
        let mut files: Vec<WalFileLen> = Vec::new();
        for ((s, op), state) in self.ops.iter_mut() {
            if *s == session {
                for store in &mut state.stores {
                    store.finish_ingest();
                    store
                        .sync()
                        .map_err(|e| format!("sync op {op} store: {e}"))?;
                    if let Some((name, len)) = store.commit_file() {
                        files.push((name, len));
                    }
                }
            }
        }
        if txn != 0 {
            if let Some(wal) = self.wal.as_mut() {
                wal.append_record(WalRecord::Prepare { txn, files })
                    .and_then(|_| wal.sync())
                    .map_err(|e| format!("shard wal prepare: {e}"))?;
            }
        }
        Ok(())
    }

    /// Post-decision checkpoint: fold the now-committed transaction into the
    /// shard WAL baseline, opportunistically compact the session's stores
    /// (delta chains fold into dense entries), and rewrite the WAL so replay
    /// stays bounded.  Prepares belonging to other, still-undecided
    /// transactions are retained verbatim.
    fn checkpoint(&mut self, session: u64, txn: u64) -> Result<(), String> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        let mut baseline: std::collections::HashMap<String, u64> =
            wal.fold_committed(&|t| t == txn).into_iter().collect();
        // Compact only stores whose on-disk length matches what the commit
        // published — a store with trailing uncommitted bytes from another
        // in-flight session must keep its log intact.
        for ((s, op), state) in self.ops.iter_mut() {
            if *s != session {
                continue;
            }
            for store in &mut state.stores {
                let Some((name, len)) = store.commit_file() else {
                    continue;
                };
                if baseline.get(&name) != Some(&len) {
                    continue;
                }
                match store.compact() {
                    Ok(reclaimed) => {
                        if reclaimed > 0 {
                            if let Some((name, dense)) = store.commit_file() {
                                baseline.insert(name, dense);
                            }
                        }
                    }
                    Err(e) => return Err(format!("compact op {op} store: {e}")),
                }
            }
        }
        let retain: Vec<WalRecord> = wal
            .records()
            .iter()
            .filter(|r| matches!(r, WalRecord::Prepare { txn: t, .. } if *t != txn))
            .cloned()
            .collect();
        let mut files: Vec<WalFileLen> = baseline.into_iter().collect();
        files.sort();
        let next = wal.next_txn();
        wal.checkpoint(&files, next, retain)
            .map_err(|e| format!("shard wal checkpoint: {e}"))
    }

    /// Graceful-shutdown harvest: flush every remaining datastore, then
    /// write a checkpoint adopting the flushed lengths as the committed
    /// baseline.  A clean shutdown thereby keeps even un-finished sessions'
    /// data (matching the pre-transactional behaviour), while a crash rolls
    /// back to the last committed transaction.
    fn harvest(&mut self) {
        if self.failed.is_some() {
            // Don't persist possibly inconsistent state; the WAL is still
            // intact, and the next open recovers to the last commit.
            return;
        }
        let mut flushed: Vec<WalFileLen> = Vec::new();
        for state in self.ops.values_mut() {
            for store in &mut state.stores {
                store.finish_ingest();
                if store.sync().is_err() {
                    return;
                }
                if let Some((name, len)) = store.commit_file() {
                    flushed.push((name, len));
                }
            }
        }
        if let Some(wal) = self.wal.as_mut() {
            let mut baseline: std::collections::HashMap<String, u64> =
                wal.fold_committed(&|_| true).into_iter().collect();
            for (name, len) in flushed {
                baseline.insert(name, len);
            }
            let mut files: Vec<WalFileLen> = baseline.into_iter().collect();
            files.sort();
            let next = wal.next_txn();
            if let Err(e) = wal.checkpoint(&files, next, Vec::new()) {
                eprintln!(
                    "subzero-server: shard {}: shutdown checkpoint: {e}",
                    self.shard.index
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for n in 1..8 {
            for op in 0..64u32 {
                let s = shard_of(op, n);
                assert!(s < n);
                assert_eq!(s, shard_of(op, n));
            }
        }
        // The mix actually spreads consecutive ids.
        let spread: std::collections::HashSet<usize> =
            (0..32u32).map(|op| shard_of(op, 4)).collect();
        assert_eq!(spread.len(), 4);
    }

    #[test]
    fn distinct_session_names_never_share_a_file_prefix() {
        // The corruption case: "run.1" sanitising into the same prefix as
        // the live session "run_1" would interleave two .kv logs.
        assert_ne!(sanitize_name("run.1"), sanitize_name("run_1"));
        assert_ne!(sanitize_name("run.1"), sanitize_name("run 1"));
        assert_ne!(sanitize_name("run.1"), sanitize_name("run/1"));
    }

    #[test]
    fn job_slot_rendezvous() {
        let slot: Arc<JobSlot<u32>> = JobSlot::new();
        let s2 = Arc::clone(&slot);
        let t = std::thread::spawn(move || s2.wait());
        slot.fill(7);
        assert_eq!(t.join().unwrap(), 7);
    }

    #[test]
    fn panicked_job_still_answers_its_reply_slot() {
        // worker_loop extracts the reply slot before processing; when the
        // job panics (and is consumed by the unwind), failing the extracted
        // slot must still wake the connection handler parked on it.
        let done = JobSlot::new();
        let job = ShardJob::Finish {
            session: 1,
            txn: 0,
            done: Arc::clone(&done),
        };
        let reply = job.reply_slot();
        let waiter = std::thread::spawn(move || done.wait());
        drop(job); // the unwind destroyed the job itself
        reply.fail("shard 0 job panicked: disk full".into());
        let got = waiter.join().unwrap();
        assert!(got.unwrap_err().contains("panicked"));
    }
}
