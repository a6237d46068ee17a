//! The lineage capture runtime.
//!
//! [`Runtime`] is SubZero's implementation of the workflow executor's
//! [`LineageCollector`] hook: as operators run, it receives their region
//! pairs, routes them to one [`OpDatastore`] per assigned storage strategy,
//! and gathers the per-operator statistics (pair counts, fanin/fanout,
//! capture time, bytes) that the optimizer's cost model consumes.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use subzero_engine::executor::{CaptureError, LineageCollector, OpExecution};
use subzero_engine::{LineageMode, OpId, OperatorExt, RegionBatch, RegionPair, Workflow};
use subzero_store::failpoint;
use subzero_store::kv::{sanitize_name, FileBackend, KvBackend, MemBackend};
use subzero_store::wal::{recover_dir, RecoveryReport, WalRecord, WriteAheadLog};

use crate::capture::{CaptureConfig, CaptureMode, CapturePipeline, Shard};
use crate::datastore::OpDatastore;
use crate::model::{LineageStrategy, StorageStrategy};
use crate::parallel;

pub use subzero_engine::operator::OperatorExt as _;

/// Per-operator lineage statistics gathered during capture.
#[derive(Clone, Debug, Default)]
pub struct OperatorLineageStats {
    /// Operator name.
    pub op_name: String,
    /// Number of region pairs emitted.
    pub pairs: u64,
    /// Total output cells across pairs.
    pub out_cells: u64,
    /// Total input cells across pairs (all inputs).
    pub in_cells: u64,
    /// Total payload bytes across payload pairs.
    pub payload_bytes: u64,
    /// Operator execution time (excluding capture).
    pub exec_time: Duration,
    /// Time spent encoding and storing lineage for this operator.
    pub capture_time: Duration,
}

impl OperatorLineageStats {
    /// Average number of input cells per region pair ("fanin").
    pub fn avg_fanin(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.in_cells as f64 / self.pairs as f64
        }
    }

    /// Average number of output cells per region pair ("fanout").
    pub fn avg_fanout(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.out_cells as f64 / self.pairs as f64
        }
    }
}

/// Aggregate capture statistics across a whole run.
#[derive(Clone, Debug, Default)]
pub struct CaptureStats {
    /// Lineage bytes stored (hash entries plus spatial indexes).
    pub bytes: usize,
    /// Total time spent capturing (encoding + storing) lineage.
    pub capture_time: Duration,
    /// Total operator execution time.
    pub exec_time: Duration,
    /// Number of region pairs stored across all operators and strategies.
    pub pairs: u64,
}

/// The SubZero lineage capture runtime.
pub struct Runtime {
    storage_dir: Option<PathBuf>,
    strategy: LineageStrategy,
    /// How captured batches reach the datastores: on the executor thread
    /// ([`CaptureMode::Sync`], the parity reference) or through the bounded
    /// queue and flusher pool ([`CaptureMode::Async`]).
    capture_mode: CaptureMode,
    /// Queue depth, flusher count and overflow policy of the async pipeline.
    capture_config: CaptureConfig,
    /// The running flusher pool (started lazily on the first async capture).
    pipeline: Option<CapturePipeline>,
    /// Shards owned by the flusher side while the pipeline runs; harvested
    /// back into `datastores` by the flush barrier.
    pending: HashMap<(u64, OpId), Arc<Shard>>,
    /// The first flusher failure, kept sticky so every later engine call
    /// reports it instead of silently storing partial lineage.
    capture_failed: Option<CaptureError>,
    /// Batches shed by *retired* pipelines under
    /// [`OverflowPolicy::DropNewest`](crate::capture::OverflowPolicy::DropNewest);
    /// the live pipeline's count is added on read so the total survives
    /// shutdown and reconfiguration.
    dropped_total: u64,
    /// Worker threads available to encode a batch (and to flush independent
    /// datastore shards concurrently).  1 means fully serial.
    workers: usize,
    /// Datastores keyed by `(run_id, op_id)`; one per assigned strategy that
    /// stores pairs.  Each datastore is an independent shard: during a flush
    /// it is owned by exactly one thread, so the hot path takes no locks.
    datastores: HashMap<(u64, OpId), Vec<OpDatastore>>,
    /// Capture statistics keyed by `(run_id, op_id)`.
    stats: HashMap<(u64, OpId), OperatorLineageStats>,
    /// The storage directory's write-ahead log (`None` in memory).  Batches
    /// land in the `.kv` files as *staged* bytes; [`commit_run`]
    /// (Runtime::commit_run) publishes them with a prepare/commit record
    /// pair, and [`on_disk`](Runtime::on_disk) replays the log to roll any
    /// uncommitted staging back.
    wal: Option<WriteAheadLog>,
    /// What [`on_disk`](Runtime::on_disk) recovery had to do (for tests and
    /// operational visibility; `None` in memory).
    recovery: Option<RecoveryReport>,
}

impl Runtime {
    /// A runtime whose datastores live in memory.
    pub fn in_memory() -> Self {
        Runtime {
            storage_dir: None,
            strategy: LineageStrategy::new(),
            capture_mode: CaptureMode::default(),
            capture_config: CaptureConfig::default(),
            pipeline: None,
            pending: HashMap::new(),
            capture_failed: None,
            dropped_total: 0,
            workers: parallel::default_workers(),
            datastores: HashMap::new(),
            stats: HashMap::new(),
            wal: None,
            recovery: None,
        }
    }

    /// A runtime whose datastores persist under `dir`.
    ///
    /// Opening is also recovery: the directory's write-ahead log is replayed
    /// and every `.kv` file rolled back to its last committed length — a run
    /// that was never published by [`commit_run`](Runtime::commit_run)
    /// leaves nothing behind.  A directory without a log (first use, or one
    /// written before the transactional tier) is adopted as-is.
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).expect("create lineage storage directory");
        let (wal, report) = recover_dir(&dir, None).expect("recover lineage storage directory");
        Runtime {
            storage_dir: Some(dir),
            wal: Some(wal),
            recovery: Some(report),
            ..Self::in_memory()
        }
    }

    /// What opening the storage directory had to recover (`None` in memory).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The storage directory's write-ahead log (`None` in memory).
    pub fn wal(&self) -> Option<&WriteAheadLog> {
        self.wal.as_ref()
    }

    /// Replaces the workflow-level lineage strategy.  Takes effect for
    /// subsequent executions (the paper's operators "initially generate
    /// black-box lineage but over time change strategy through
    /// optimization").
    pub fn set_strategy(&mut self, strategy: LineageStrategy) {
        self.strategy = strategy;
    }

    /// The current lineage strategy.
    pub fn strategy(&self) -> &LineageStrategy {
        &self.strategy
    }

    /// Selects whether capture runs on the executor thread or through the
    /// async pipeline.  Switching back to [`CaptureMode::Sync`] drains and
    /// shuts down a running pipeline first (best-effort; a flusher failure
    /// stays sticky and surfaces on the next fallible call).
    pub fn set_capture_mode(&mut self, mode: CaptureMode) {
        if mode == CaptureMode::Sync && self.pipeline.is_some() {
            let _ = self.shutdown_capture();
        }
        self.capture_mode = mode;
    }

    /// The current capture mode.
    pub fn capture_mode(&self) -> CaptureMode {
        self.capture_mode
    }

    /// Replaces the async pipeline configuration (queue depth, flusher
    /// count, overflow policy).  A running pipeline is drained and restarted
    /// lazily with the new configuration on the next async capture.
    pub fn set_capture_config(&mut self, config: CaptureConfig) {
        if self.pipeline.is_some() {
            let _ = self.shutdown_capture();
        }
        self.capture_config = config;
    }

    /// The async pipeline configuration.
    pub fn capture_config(&self) -> CaptureConfig {
        self.capture_config
    }

    /// Batches shed under
    /// [`OverflowPolicy::DropNewest`](crate::capture::OverflowPolicy::DropNewest)
    /// over this runtime's lifetime, across pipeline restarts (0 under the
    /// default blocking policy).  Callers auditing shed lineage — e.g. to decide whether
    /// queries must fall back to re-execution — see the full count even
    /// after the pipeline was shut down or reconfigured.
    pub fn dropped_batches(&self) -> u64 {
        self.dropped_total
            + self
                .pipeline
                .as_ref()
                .map(CapturePipeline::dropped_batches)
                .unwrap_or(0)
    }

    /// Flush barrier: blocks until every batch staged with the async
    /// pipeline has been applied to its datastores, harvests the shards back
    /// into the runtime, and reports any flusher failure.  A no-op in sync
    /// mode (beyond re-reporting a sticky failure).
    pub fn flush_capture(&mut self) -> Result<(), CaptureError> {
        if self.pipeline.is_some() {
            self.quiesce_capture()
        } else {
            match &self.capture_failed {
                Some(e) => Err(e.clone()),
                None => Ok(()),
            }
        }
    }

    /// Drains the async pipeline (flush barrier + harvest) and joins its
    /// flusher threads.  The next async capture starts a fresh pipeline.
    pub fn shutdown_capture(&mut self) -> Result<(), CaptureError> {
        let result = self.flush_capture();
        // Roll the retiring pipeline's shed count into the lifetime total
        // before dropping it, then let Drop close the queue and join the
        // flushers; the barrier above already drained it, so the join is
        // immediate.
        if let Some(pipeline) = &self.pipeline {
            self.dropped_total += pipeline.dropped_batches();
        }
        self.pipeline = None;
        result
    }

    /// Waits for the pipeline to go idle and moves every flusher-side shard
    /// back into `datastores`, charging flusher time to the owning
    /// operator's capture statistics.  Harvests even after a failure so
    /// whatever was stored stays inspectable; the failure is reported and
    /// kept sticky.
    fn quiesce_capture(&mut self) -> Result<(), CaptureError> {
        let result = match &self.pipeline {
            Some(pipeline) => pipeline.flush(),
            None => Ok(()),
        };
        for (key, shard) in self.pending.drain() {
            let mut state = shard.lock();
            let stores = std::mem::take(&mut state.stores);
            let flush_time = std::mem::replace(&mut state.flush_time, Duration::ZERO);
            drop(state);
            if !stores.is_empty() {
                self.datastores.insert(key, stores);
            }
            if let Some(stats) = self.stats.get_mut(&key) {
                stats.capture_time += flush_time;
            }
        }
        if let Err(e) = result {
            self.capture_failed = Some(e.clone());
            return Err(e);
        }
        match &self.capture_failed {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Sets the number of worker threads used to encode batches (clamped to
    /// at least 1; 1 disables threading entirely).  A running async pipeline
    /// is drained and restarted lazily so its flushers pick up the new
    /// per-flusher encode budget, exactly as the capture-config setters do.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
        if self.pipeline.is_some() {
            let _ = self.shutdown_capture();
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The storage strategies assigned to one operator (empty when the
    /// operator runs under the default black-box + mapping behaviour).
    pub fn strategies_for(&self, op_id: OpId) -> Vec<StorageStrategy> {
        self.strategy
            .get(op_id)
            .map(|s| s.to_vec())
            .unwrap_or_default()
    }

    /// The datastores holding lineage captured for `(run_id, op_id)`.
    ///
    /// In async capture mode this first waits for the pipeline to go idle
    /// and harvests the flusher-side shards, so callers always observe fully
    /// applied lineage.
    pub fn datastores(&mut self, run_id: u64, op_id: OpId) -> &mut [OpDatastore] {
        if self.pipeline.is_some() {
            // Failures stay sticky and surface from the next fallible call.
            let _ = self.quiesce_capture();
        }
        self.datastores
            .get_mut(&(run_id, op_id))
            .map(|v| v.as_mut_slice())
            .unwrap_or(&mut [])
    }

    /// Whether any materialised lineage exists for `(run_id, op_id)`
    /// (including lineage still owned by the async pipeline's flushers).
    pub fn has_lineage(&self, run_id: u64, op_id: OpId) -> bool {
        if self
            .datastores
            .get(&(run_id, op_id))
            .is_some_and(|v| !v.is_empty())
        {
            return true;
        }
        self.pending
            .get(&(run_id, op_id))
            .is_some_and(|shard| !shard.lock().stores.is_empty())
    }

    /// Per-operator capture statistics for a run.
    pub fn op_stats(&self, run_id: u64, op_id: OpId) -> Option<&OperatorLineageStats> {
        self.stats.get(&(run_id, op_id))
    }

    /// All per-operator statistics for a run.
    pub fn run_stats(&self, run_id: u64) -> HashMap<OpId, &OperatorLineageStats> {
        self.stats
            .iter()
            .filter(|((r, _), _)| *r == run_id)
            .map(|((_, op), s)| (*op, s))
            .collect()
    }

    /// Aggregate capture statistics for a run.
    ///
    /// Shards still owned by the async pipeline are counted through their
    /// locks; while flushers are actively applying batches those numbers are
    /// a consistent-but-partial snapshot (call
    /// [`flush_capture`](Runtime::flush_capture) first for final figures).
    pub fn capture_stats(&self, run_id: u64) -> CaptureStats {
        let mut agg = CaptureStats::default();
        for ((r, op), stats) in &self.stats {
            if *r != run_id {
                continue;
            }
            agg.capture_time += stats.capture_time;
            agg.exec_time += stats.exec_time;
            if let Some(stores) = self.datastores.get(&(*r, *op)) {
                for ds in stores {
                    agg.bytes += ds.bytes_used();
                    agg.pairs += ds.pairs_stored();
                }
            } else if let Some(shard) = self.pending.get(&(*r, *op)) {
                let state = shard.lock();
                for ds in &state.stores {
                    agg.bytes += ds.bytes_used();
                    agg.pairs += ds.pairs_stored();
                }
                agg.capture_time += state.flush_time;
            }
        }
        agg
    }

    /// Total lineage bytes stored for a run.
    pub fn bytes_for_run(&self, run_id: u64) -> usize {
        self.capture_stats(run_id).bytes
    }

    /// Finishes capture for a run: builds every datastore's deferred spatial
    /// index and flushes its hash database, charging the time to the owning
    /// operator's capture overhead.  Lookups do this lazily, so calling it is
    /// optional — but benchmarks must, or the first query per datastore gets
    /// billed for the index build.  Returns the total time spent.
    pub fn finish_run(&mut self, run_id: u64) -> Duration {
        if self.pipeline.is_some() {
            // Deferred stores must land before the indexes are built;
            // failures stay sticky and surface from the next fallible call.
            let _ = self.quiesce_capture();
        }
        let mut total = Duration::ZERO;
        for ((r, op), stores) in self.datastores.iter_mut() {
            if *r != run_id {
                continue;
            }
            let start = Instant::now();
            for ds in stores.iter_mut() {
                ds.finish_ingest();
            }
            let elapsed = start.elapsed();
            total += elapsed;
            if let Some(stats) = self.stats.get_mut(&(*r, *op)) {
                stats.capture_time += elapsed;
            }
        }
        total
    }

    /// Publishes everything a run has captured: finishes ingest, fsyncs
    /// every touched `.kv` log, and writes the prepare + commit record pair
    /// that makes the run's bytes survive [`on_disk`](Runtime::on_disk)
    /// recovery.  All-or-nothing: a crash anywhere before the commit record
    /// is durable rolls the whole run back on reopen.  Returns the committed
    /// transaction id (0 for in-memory runtimes, which have nothing to
    /// publish).
    pub fn commit_run(&mut self, run_id: u64) -> std::io::Result<u64> {
        self.finish_run(run_id);
        let Some(wal) = self.wal.as_mut() else {
            return Ok(0);
        };
        // fsync is I/O wait, so the run's stores sync in one lane per worker;
        // every lane has joined (every sync has returned) before the prepare
        // record below may name a length as durable.
        let mut stores: Vec<&mut OpDatastore> = self
            .datastores
            .iter_mut()
            .filter(|((r, _), _)| *r == run_id)
            .flat_map(|(_, stores)| stores.iter_mut())
            .collect();
        let lane_len = stores.len().div_ceil(self.workers.max(1)).max(1);
        let mut lanes: Vec<_> = stores
            .chunks_mut(lane_len)
            .map(|lane| (lane, Ok(())))
            .collect();
        parallel::for_each_mut(&mut lanes, self.workers > 1, |_, (lane, result)| {
            *result = lane.iter_mut().try_for_each(|ds| ds.sync());
        });
        for (_, result) in lanes {
            result?;
        }
        let files = stores.iter().filter_map(|ds| ds.commit_file()).collect();
        let txn = wal.next_txn();
        failpoint::crash_if_armed(failpoint::PRE_PREPARE);
        wal.append_record(WalRecord::Prepare { txn, files })?;
        wal.sync()?;
        failpoint::crash_if_armed(failpoint::PRE_COMMIT);
        // The commit record is the publish point (a mid-write crash is
        // injected inside `append_record` when `commit.mid-commit` is armed).
        wal.append_record(WalRecord::Commit { txn })?;
        wal.sync()?;
        failpoint::crash_if_armed(failpoint::POST_COMMIT);
        // Fold the decision into the baseline so replay stays bounded: the
        // log never carries more than one checkpoint record per live file
        // plus the current run's prepare/commit, no matter how many runs
        // this directory has committed.
        let committed = wal.committed_txns();
        let baseline = wal.fold_committed(&|t| committed.contains(&t));
        let next = wal.next_txn();
        wal.checkpoint(&baseline, next, Vec::new())?;
        Ok(txn)
    }

    /// Folds superseded records (e.g. committed `merge_append_batch` delta
    /// chains) out of a run's `.kv` logs and re-checkpoints the write-ahead
    /// log with the dense lengths.  Returns total bytes reclaimed.
    ///
    /// Only fully published stores are touched: a store whose physical log
    /// is longer than its committed length still carries staged bytes, and
    /// compacting it would fold uncommitted data into the committed image.
    pub fn compact_run(&mut self, run_id: u64) -> std::io::Result<u64> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(0);
        };
        let baseline: HashMap<String, u64> = wal.fold_committed(&|_| true).into_iter().collect();
        let mut reclaimed = 0u64;
        let mut compacted: Vec<(String, u64)> = Vec::new();
        for ((r, _), stores) in self.datastores.iter_mut() {
            if *r != run_id {
                continue;
            }
            for ds in stores.iter_mut() {
                let Some((name, len)) = ds.commit_file() else {
                    continue;
                };
                if baseline.get(&name) != Some(&len) {
                    continue;
                }
                let freed = ds.compact()?;
                if freed > 0 {
                    reclaimed += freed;
                    let (name, dense_len) = ds.commit_file().expect("still file-backed");
                    compacted.push((name, dense_len));
                }
            }
        }
        if reclaimed > 0 {
            let mut baseline = baseline;
            for (name, len) in compacted {
                baseline.insert(name, len);
            }
            let mut files: Vec<(String, u64)> = baseline.into_iter().collect();
            files.sort_unstable();
            let next = wal.next_txn();
            wal.checkpoint(&files, next, Vec::new())?;
        }
        Ok(reclaimed)
    }

    /// Drops all lineage stored for a run (used by the benchmark harness to
    /// bound memory between strategy configurations).
    pub fn clear_run(&mut self, run_id: u64) {
        if self.pipeline.is_some() {
            let _ = self.quiesce_capture();
        }
        self.datastores.retain(|(r, _), _| *r != run_id);
        self.stats.retain(|(r, _), _| *r != run_id);
    }

    /// Allocates one datastore per pair-storing strategy of an operator.
    fn make_stores(
        &self,
        exec: &OpExecution<'_>,
        strategies: &[StorageStrategy],
    ) -> Vec<OpDatastore> {
        let mut stores = Vec::with_capacity(strategies.len());
        for s in strategies {
            let name = format!("run{}_op{}_{}", exec.run_id, exec.op_id, s.db_suffix());
            let backend = self.make_backend(&name);
            let mut ds = OpDatastore::new(name, *s, exec.meta, backend);
            // Batched lookups fan out over the same worker budget the
            // capture pipeline was given.
            ds.set_workers(self.workers);
            stores.push(ds);
        }
        stores
    }

    /// The synchronous store path: encode and store on the calling
    /// (executor) thread, exactly as before async capture existed.
    fn store_sync(
        &mut self,
        key: (u64, OpId),
        exec: &OpExecution<'_>,
        strategies: &[StorageStrategy],
        batches: &[RegionBatch],
    ) {
        if !self.datastores.contains_key(&key) {
            let stores = self.make_stores(exec, strategies);
            self.datastores.insert(key, stores);
        }
        let stores = self.datastores.get_mut(&key).expect("just inserted");
        // Each datastore is an independent shard; with spare
        // workers and several shards, flush them concurrently and
        // split the worker budget, otherwise give the single
        // shard all encode workers.
        let shard_parallel = self.workers > 1 && stores.len() > 1;
        let shard_workers = if shard_parallel {
            parallel::split_budget(self.workers, stores.len())
        } else {
            self.workers
        };
        for batch in batches {
            parallel::for_each_mut(stores, shard_parallel, |_, ds| {
                ds.store_batch(&batch.pairs, shard_workers);
            });
        }
    }

    /// The asynchronous hand-off: create the operator's capture shard on
    /// first touch, then stage every batch on the bounded queue.  The
    /// executor thread pays only for backend creation and the enqueue (plus
    /// any backpressure wait); flusher threads do the encode + store.
    fn stage_async(
        &mut self,
        key: (u64, OpId),
        exec: &OpExecution<'_>,
        strategies: &[StorageStrategy],
        batches: Vec<RegionBatch>,
    ) -> Result<(), CaptureError> {
        if self.pipeline.is_none() {
            // Flushers run concurrently with each other; split the encode
            // worker budget so the pool doesn't oversubscribe the host.
            let store_workers =
                parallel::split_budget(self.workers, self.capture_config.flushers.max(1));
            self.pipeline = Some(CapturePipeline::start(self.capture_config, store_workers));
        }
        if !self.pending.contains_key(&key) {
            // A repeated collection for a key whose shard was already
            // harvested resumes capturing into the same datastores (exactly
            // like the sync path reusing its `datastores` entry) instead of
            // allocating a second set that a later harvest would clobber.
            let stores = match self.datastores.remove(&key) {
                Some(stores) => stores,
                None => self.make_stores(exec, strategies),
            };
            self.pending.insert(key, Arc::new(Shard::new(stores)));
        }
        let shard = Arc::clone(self.pending.get(&key).expect("just inserted"));
        let pipeline = self.pipeline.as_ref().expect("pipeline just started");
        for batch in batches {
            // Sequence numbers come from the shard, not this call, so a
            // second collection for the same key continues where the first
            // stopped rather than re-issuing already-applied numbers.
            let seq = shard.ticket();
            if let Err(e) = pipeline.submit(&shard, seq, batch) {
                self.capture_failed = Some(e.clone());
                return Err(e);
            }
        }
        Ok(())
    }

    fn make_backend(&self, name: &str) -> Box<dyn KvBackend> {
        match &self.storage_dir {
            None => Box::new(MemBackend::new()),
            Some(dir) => {
                let file = dir.join(format!("{}.kv", sanitize_name(name)));
                Box::new(FileBackend::open(&file).expect("open lineage database file"))
            }
        }
    }
}

impl LineageCollector for Runtime {
    fn modes_for(&self, workflow: &Workflow, op_id: OpId) -> Vec<LineageMode> {
        let Ok(node) = workflow.node(op_id) else {
            return vec![LineageMode::Blackbox];
        };
        let mut modes: Vec<LineageMode> = self
            .strategies_for(op_id)
            .iter()
            .map(|s| s.mode)
            .filter(|m| m.stores_pairs())
            .filter(|m| node.operator.supports(*m))
            .collect();
        modes.sort_unstable();
        modes.dedup();
        if modes.is_empty() {
            vec![LineageMode::Blackbox]
        } else {
            modes
        }
    }

    fn collect_batches(
        &mut self,
        exec: &OpExecution<'_>,
        batches: Vec<RegionBatch>,
    ) -> Result<(), CaptureError> {
        if let Some(e) = &self.capture_failed {
            // A flusher failed earlier; refuse further capture so the run
            // cannot silently continue with holes in its stored lineage.
            return Err(e.clone());
        }
        let start = Instant::now();
        let key = (exec.run_id, exec.op_id);

        // Record execution statistics even for operators with no pairs;
        // pair statistics are aggregated per batch, not per pair.
        let stats = self
            .stats
            .entry(key)
            .or_insert_with(|| OperatorLineageStats {
                op_name: exec.op_name.to_string(),
                ..Default::default()
            });
        stats.exec_time += exec.elapsed;
        for batch in &batches {
            let mut agg = (0u64, 0u64, 0u64, 0u64); // pairs, out, in, payload
            for pair in &batch.pairs {
                agg.0 += 1;
                agg.1 += pair.outcells().len() as u64;
                match pair {
                    RegionPair::Full { incells, .. } => {
                        agg.2 += incells.iter().map(Vec::len).sum::<usize>() as u64;
                    }
                    RegionPair::Payload { payload, .. } => {
                        agg.3 += payload.len() as u64;
                    }
                }
            }
            stats.pairs += agg.0;
            stats.out_cells += agg.1;
            stats.in_cells += agg.2;
            stats.payload_bytes += agg.3;
        }

        // Route batches to one datastore per pair-storing strategy.
        let strategies: Vec<StorageStrategy> = self
            .strategies_for(exec.op_id)
            .into_iter()
            .filter(|s| s.stores_pairs())
            .collect();
        let total_pairs: usize = batches.iter().map(RegionBatch::len).sum();
        if !strategies.is_empty() && total_pairs > 0 {
            if self.capture_mode == CaptureMode::Async {
                self.stage_async(key, exec, &strategies, batches)?;
            } else {
                self.store_sync(key, exec, &strategies, &batches);
            }
        }

        // Charge the collect time spent on the executor thread (routing +
        // encoding + storing for sync capture; routing + queue hand-off for
        // async capture — that difference is the point of the pipeline) to
        // this operator's capture overhead.
        let elapsed = start.elapsed();
        if let Some(stats) = self.stats.get_mut(&key) {
            stats.capture_time += elapsed;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("datastores", &self.datastores.len())
            .field("storage_dir", &self.storage_dir)
            .field("capture_mode", &self.capture_mode)
            .field("pending_shards", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::OverflowPolicy;
    use std::collections::HashMap as StdHashMap;
    use std::sync::Arc;
    use subzero_array::{Array, Coord, Shape};
    use subzero_engine::ops::{Elementwise1, UnaryKind};
    use subzero_engine::{Engine, Workflow};

    fn workflow() -> Arc<Workflow> {
        let mut b = Workflow::builder("wf");
        let a = b.add_source(Arc::new(Elementwise1::new(UnaryKind::Scale(2.0))), "x");
        let _c = b.add_unary(Arc::new(Elementwise1::new(UnaryKind::Offset(1.0))), a);
        Arc::new(b.build().unwrap())
    }

    fn externals() -> StdHashMap<String, Array> {
        let mut m = StdHashMap::new();
        m.insert("x".to_string(), Array::filled(Shape::d2(4, 4), 1.0));
        m
    }

    #[test]
    fn modes_follow_strategy_and_operator_support() {
        let wf = workflow();
        let mut rt = Runtime::in_memory();
        assert_eq!(
            rt.modes_for(&wf, 0),
            vec![LineageMode::Blackbox],
            "no strategy => black-box"
        );
        let mut strategy = LineageStrategy::new();
        strategy.set(
            0,
            vec![StorageStrategy::full_one(), StorageStrategy::full_many()],
        );
        strategy.set(1, vec![StorageStrategy::pay_one()]);
        rt.set_strategy(strategy);
        assert_eq!(rt.modes_for(&wf, 0), vec![LineageMode::Full]);
        // Elementwise operators do not support Pay, so the mode falls back to
        // black-box rather than asking for something the operator cannot do.
        assert_eq!(rt.modes_for(&wf, 1), vec![LineageMode::Blackbox]);
    }

    #[test]
    fn capture_stores_pairs_per_strategy() {
        let wf = workflow();
        let mut rt = Runtime::in_memory();
        let mut strategy = LineageStrategy::new();
        strategy.set(
            0,
            vec![
                StorageStrategy::full_one(),
                StorageStrategy::full_one_forward(),
            ],
        );
        rt.set_strategy(strategy);

        let mut engine = Engine::new();
        let run = engine.execute(&wf, &externals(), &mut rt).unwrap();

        assert!(rt.has_lineage(run.run_id, 0));
        assert!(!rt.has_lineage(run.run_id, 1));
        assert_eq!(rt.datastores(run.run_id, 0).len(), 2);
        let stats = rt.op_stats(run.run_id, 0).unwrap();
        assert_eq!(stats.pairs, 16, "one identity pair per cell");
        assert_eq!(stats.out_cells, 16);
        assert_eq!(stats.in_cells, 16);
        assert!((stats.avg_fanin() - 1.0).abs() < 1e-9);
        assert!((stats.avg_fanout() - 1.0).abs() < 1e-9);

        let agg = rt.capture_stats(run.run_id);
        assert!(agg.bytes > 0);
        assert_eq!(agg.pairs, 32, "16 pairs stored under each of 2 strategies");
        assert!(rt.bytes_for_run(run.run_id) > 0);
    }

    #[test]
    fn blackbox_strategy_stores_nothing() {
        let wf = workflow();
        let mut rt = Runtime::in_memory();
        let mut engine = Engine::new();
        let run = engine.execute(&wf, &externals(), &mut rt).unwrap();
        assert!(!rt.has_lineage(run.run_id, 0));
        let agg = rt.capture_stats(run.run_id);
        assert_eq!(agg.bytes, 0);
        assert_eq!(agg.pairs, 0);
        // Execution statistics are still recorded.
        assert!(rt.op_stats(run.run_id, 0).is_some());
    }

    #[test]
    fn clear_run_releases_lineage() {
        let wf = workflow();
        let mut rt = Runtime::in_memory();
        let mut strategy = LineageStrategy::new();
        strategy.set(0, vec![StorageStrategy::full_one()]);
        rt.set_strategy(strategy);
        let mut engine = Engine::new();
        let run = engine.execute(&wf, &externals(), &mut rt).unwrap();
        assert!(rt.has_lineage(run.run_id, 0));
        rt.clear_run(run.run_id);
        assert!(!rt.has_lineage(run.run_id, 0));
        assert!(rt.op_stats(run.run_id, 0).is_none());
    }

    #[test]
    fn on_disk_runtime_persists_to_files() {
        let dir = std::env::temp_dir().join(format!("subzero-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wf = workflow();
        let mut rt = Runtime::on_disk(&dir);
        let mut strategy = LineageStrategy::new();
        strategy.set(0, vec![StorageStrategy::full_one()]);
        rt.set_strategy(strategy);
        let mut engine = Engine::new();
        let run = engine.execute(&wf, &externals(), &mut rt).unwrap();
        assert!(rt.has_lineage(run.run_id, 0));
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(!files.is_empty(), "lineage database files were created");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_rolls_back_uncommitted_runs_and_keeps_committed_bytes() {
        let dir = std::env::temp_dir().join(format!("subzero-rt-txn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wf = workflow();
        let committed_run;
        let staged_run;
        {
            let mut rt = Runtime::on_disk(&dir);
            let mut strategy = LineageStrategy::new();
            strategy.set(0, vec![StorageStrategy::full_one()]);
            rt.set_strategy(strategy);
            let mut engine = Engine::new();
            let r1 = engine.execute(&wf, &externals(), &mut rt).unwrap();
            rt.commit_run(r1.run_id).unwrap();
            committed_run = r1.run_id;
            // The checkpoint folded the commit: replay is one baseline
            // record, not a history of the run.
            assert_eq!(rt.wal().unwrap().len(), 1);
            // A second run flushes but never commits — as if the process
            // died after ingest.
            let r2 = engine.execute(&wf, &externals(), &mut rt).unwrap();
            rt.finish_run(r2.run_id);
            staged_run = r2.run_id;
        }
        let committed_files: std::collections::HashMap<String, Vec<u8>> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                let prefix = format!("run{committed_run}_");
                name.starts_with(&prefix)
                    .then(|| (name.clone(), std::fs::read(dir.join(&name)).unwrap()))
            })
            .collect();
        assert!(!committed_files.is_empty());
        let rt = Runtime::on_disk(&dir);
        let report = rt.recovery_report().unwrap();
        assert!(report.deleted > 0, "staged run's files must be rolled back");
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(
                !name.starts_with(&format!("run{staged_run}_")),
                "uncommitted {name} survived recovery"
            );
            if let Some(bytes) = committed_files.get(&name) {
                assert_eq!(
                    &std::fs::read(dir.join(&name)).unwrap(),
                    bytes,
                    "committed {name} must be byte-identical after recovery"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Forwards every batch to the runtime and keeps a copy of each
    /// operator's pairs, so a test can replay what the runtime was given.
    struct Tee<'a> {
        runtime: &'a mut Runtime,
        pairs: StdHashMap<OpId, (subzero_engine::OpMeta, Vec<RegionPair>)>,
    }

    impl LineageCollector for Tee<'_> {
        fn modes_for(&self, workflow: &Workflow, op_id: OpId) -> Vec<LineageMode> {
            self.runtime.modes_for(workflow, op_id)
        }

        fn collect_batches(
            &mut self,
            exec: &OpExecution<'_>,
            batches: Vec<RegionBatch>,
        ) -> Result<(), CaptureError> {
            let (_, pairs) = self
                .pairs
                .entry(exec.op_id)
                .or_insert_with(|| (exec.meta.clone(), Vec::new()));
            for batch in &batches {
                pairs.extend(batch.pairs.iter().cloned());
            }
            self.runtime.collect_batches(exec, batches)
        }
    }

    #[test]
    fn per_pair_and_batched_ingest_store_identical_lineage() {
        // The reference replays the captured pairs one at a time through
        // `store_pair` into fresh datastores.
        let wf = workflow();
        let strategies = [StorageStrategy::full_one(), StorageStrategy::full_many()];
        for batch_size in [1usize, 5, 97, 4096] {
            let mut rt = Runtime::in_memory();
            let mut strategy = LineageStrategy::new();
            strategy.set(0, strategies.to_vec());
            rt.set_strategy(strategy);
            let mut engine = Engine::new();
            engine.set_capture_batch_size(batch_size);
            let mut tee = Tee {
                runtime: &mut rt,
                pairs: StdHashMap::new(),
            };
            let run = engine.execute(&wf, &externals(), &mut tee).unwrap();
            let (meta, pairs) = tee.pairs.remove(&0).expect("op 0 emitted pairs");
            let stats = rt.op_stats(run.run_id, 0).unwrap().clone();
            assert_eq!(stats.pairs, pairs.len() as u64, "batch_size={batch_size}");
            let cells = |side: fn(&RegionPair) -> usize| pairs.iter().map(side).sum::<usize>();
            assert_eq!(stats.out_cells, cells(|p| p.outcells().len()) as u64);
            let in_cells = cells(|p| match p {
                RegionPair::Full { incells, .. } => incells.iter().map(Vec::len).sum(),
                RegionPair::Payload { .. } => 0,
            });
            assert_eq!(stats.in_cells, in_cells as u64);
            let stores = rt.datastores(run.run_id, 0);
            assert_eq!(stores.len(), strategies.len());
            for (ds, s) in stores.iter().zip(strategies) {
                let mut reference = OpDatastore::in_memory("reference", s, &meta);
                for pair in &pairs {
                    reference.store_pair(pair);
                }
                assert_eq!(
                    ds.snapshot(),
                    reference.snapshot(),
                    "batch_size={batch_size}"
                );
                assert_eq!(ds.pairs_stored(), reference.pairs_stored());
            }
        }
    }

    #[test]
    fn finish_run_builds_indexes_and_charges_capture() {
        let wf = workflow();
        let mut rt = Runtime::in_memory();
        let mut strategy = LineageStrategy::new();
        strategy.set(0, vec![StorageStrategy::full_many()]);
        rt.set_strategy(strategy);
        let mut engine = Engine::new();
        let run = engine.execute(&wf, &externals(), &mut rt).unwrap();
        let before = rt.op_stats(run.run_id, 0).unwrap().capture_time;
        let elapsed = rt.finish_run(run.run_id);
        let after = rt.op_stats(run.run_id, 0).unwrap().capture_time;
        assert_eq!(after, before + elapsed, "finish time charged to capture");
        // Idempotent: a second call finds nothing staged.
        rt.finish_run(run.run_id);
        // Unknown runs are a no-op.
        assert_eq!(rt.finish_run(999), Duration::ZERO);
    }

    #[test]
    fn worker_and_mode_knobs() {
        let mut rt = Runtime::in_memory();
        assert!(rt.workers() >= 1);
        rt.set_workers(0);
        assert_eq!(rt.workers(), 1, "worker count clamps to 1");
        rt.set_workers(4);
        assert_eq!(rt.workers(), 4);
    }

    /// Reference snapshots of a sync-capture run of `workflow()` with two
    /// strategies on op 0.
    fn sync_reference() -> Vec<Vec<(Vec<u8>, Vec<u8>)>> {
        let wf = workflow();
        let mut rt = Runtime::in_memory();
        let mut strategy = LineageStrategy::new();
        strategy.set(
            0,
            vec![StorageStrategy::full_one(), StorageStrategy::full_many()],
        );
        rt.set_strategy(strategy);
        let mut engine = Engine::new();
        let run = engine.execute(&wf, &externals(), &mut rt).unwrap();
        rt.datastores(run.run_id, 0)
            .iter()
            .map(|ds| ds.snapshot())
            .collect()
    }

    #[test]
    fn async_capture_matches_sync_byte_for_byte() {
        let reference = sync_reference();
        let wf = workflow();
        let mut rt = Runtime::in_memory();
        rt.set_capture_mode(CaptureMode::Async);
        rt.set_capture_config(CaptureConfig {
            queue_depth: 2,
            flushers: 2,
            policy: OverflowPolicy::Block,
        });
        let mut strategy = LineageStrategy::new();
        strategy.set(
            0,
            vec![StorageStrategy::full_one(), StorageStrategy::full_many()],
        );
        rt.set_strategy(strategy);
        let mut engine = Engine::new();
        // Small batches force several queued jobs per shard.
        engine.set_capture_batch_size(3);
        let run = engine.execute(&wf, &externals(), &mut rt).unwrap();
        rt.flush_capture().unwrap();
        let snapshots: Vec<_> = rt
            .datastores(run.run_id, 0)
            .iter()
            .map(|ds| ds.snapshot())
            .collect();
        assert_eq!(snapshots, reference);
    }

    #[test]
    fn datastore_access_harvests_without_explicit_flush() {
        let reference = sync_reference();
        let wf = workflow();
        let mut rt = Runtime::in_memory();
        rt.set_capture_mode(CaptureMode::Async);
        let mut strategy = LineageStrategy::new();
        strategy.set(
            0,
            vec![StorageStrategy::full_one(), StorageStrategy::full_many()],
        );
        rt.set_strategy(strategy);
        let mut engine = Engine::new();
        let run = engine.execute(&wf, &externals(), &mut rt).unwrap();
        // No flush_capture: the datastore accessor performs the barrier.
        assert!(rt.has_lineage(run.run_id, 0), "pending shards count");
        let snapshots: Vec<_> = rt
            .datastores(run.run_id, 0)
            .iter()
            .map(|ds| ds.snapshot())
            .collect();
        assert_eq!(snapshots, reference);
        let stats = rt.capture_stats(run.run_id);
        assert!(stats.pairs > 0 && stats.bytes > 0);
    }

    #[test]
    fn switching_back_to_sync_drains_the_pipeline() {
        let reference = sync_reference();
        let wf = workflow();
        let mut rt = Runtime::in_memory();
        rt.set_capture_mode(CaptureMode::Async);
        let mut strategy = LineageStrategy::new();
        strategy.set(
            0,
            vec![StorageStrategy::full_one(), StorageStrategy::full_many()],
        );
        rt.set_strategy(strategy);
        let mut engine = Engine::new();
        let run = engine.execute(&wf, &externals(), &mut rt).unwrap();
        // Drain-on-shutdown: switching modes joins the flushers and harvests.
        rt.set_capture_mode(CaptureMode::Sync);
        assert_eq!(rt.capture_mode(), CaptureMode::Sync);
        let snapshots: Vec<_> = rt
            .datastores(run.run_id, 0)
            .iter()
            .map(|ds| ds.snapshot())
            .collect();
        assert_eq!(snapshots, reference);
    }

    /// Claims one input but emits two incell vectors per pair, which makes
    /// the encoder index a missing input shape and panic — on a background
    /// flusher thread under async capture.
    struct BadArity;

    impl subzero_engine::Operator for BadArity {
        fn name(&self) -> &str {
            "bad-arity"
        }
        fn output_shape(&self, input_shapes: &[Shape]) -> Shape {
            input_shapes[0]
        }
        fn supported_modes(&self) -> Vec<LineageMode> {
            vec![LineageMode::Full, LineageMode::Blackbox]
        }
        fn run(
            &self,
            inputs: &[subzero_array::ArrayRef],
            cur_modes: &[LineageMode],
            sink: &mut dyn subzero_engine::LineageSink,
        ) -> Array {
            if cur_modes.contains(&LineageMode::Full) {
                let c = Coord::d2(0, 0);
                sink.lwrite(vec![c], vec![vec![c], vec![c]]);
            }
            (*inputs[0]).clone()
        }
    }

    #[test]
    fn flusher_panic_surfaces_as_error_not_hang() {
        let mut b = Workflow::builder("bad");
        let _op = b.add_source(Arc::new(BadArity), "x");
        let wf = Arc::new(b.build().unwrap());
        let mut rt = Runtime::in_memory();
        rt.set_capture_mode(CaptureMode::Async);
        rt.set_capture_config(CaptureConfig {
            queue_depth: 1,
            flushers: 1,
            policy: OverflowPolicy::Block,
        });
        let mut strategy = LineageStrategy::new();
        strategy.set(0, vec![StorageStrategy::full_many()]);
        rt.set_strategy(strategy);
        let mut engine = Engine::new();
        // The first execution may succeed (the panic happens on the flusher
        // after the hand-off) or already observe the failure while staging.
        let first = engine.execute(&wf, &externals(), &mut rt);
        let flush = rt.flush_capture();
        assert!(
            first.is_err() || flush.is_err(),
            "flusher panic must be reported by the barrier"
        );
        // The failure is sticky: the next engine call errors instead of
        // storing lineage with silent holes.
        let err = engine.execute(&wf, &externals(), &mut rt).unwrap_err();
        assert!(
            matches!(err, subzero_engine::executor::EngineError::Capture(_)),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn repeated_async_collections_for_one_operator_accumulate() {
        // The engine collects once per (run, op), but Runtime is a public
        // collector: a second collection for the same key — even with a
        // harvest in between — must continue the shard's sequence and keep
        // storing into the same datastores, not deadlock or clobber them.
        let mut rt = Runtime::in_memory();
        rt.set_capture_mode(CaptureMode::Async);
        let mut strategy = LineageStrategy::new();
        strategy.set(0, vec![StorageStrategy::full_one()]);
        rt.set_strategy(strategy);
        let shape = Shape::d2(4, 4);
        let meta = subzero_engine::OpMeta::new(vec![shape], shape);
        let pair = |i: u32| RegionPair::Full {
            outcells: vec![Coord::d2(i / 4, i % 4)],
            incells: vec![vec![Coord::d2(i / 4, i % 4)]],
        };
        let exec = OpExecution {
            run_id: 0,
            op_id: 0,
            op_name: "op",
            meta: &meta,
            elapsed: Duration::ZERO,
        };
        rt.collect_batches(&exec, vec![RegionBatch::new((0..8).map(pair).collect())])
            .unwrap();
        // Harvest in between (as a mid-run query would).
        assert_eq!(rt.datastores(0, 0).len(), 1);
        rt.collect_batches(&exec, vec![RegionBatch::new((8..16).map(pair).collect())])
            .unwrap();
        rt.flush_capture().unwrap();
        let stored: u64 = rt.datastores(0, 0).iter().map(|ds| ds.pairs_stored()).sum();
        assert_eq!(stored, 16, "both collections landed in one datastore set");
    }

    #[test]
    fn drop_newest_policy_sheds_instead_of_blocking() {
        let wf = workflow();
        let mut rt = Runtime::in_memory();
        rt.set_capture_mode(CaptureMode::Async);
        rt.set_capture_config(CaptureConfig {
            queue_depth: 1,
            flushers: 1,
            policy: OverflowPolicy::DropNewest,
        });
        let mut strategy = LineageStrategy::new();
        strategy.set(0, vec![StorageStrategy::full_one()]);
        rt.set_strategy(strategy);
        let mut engine = Engine::new();
        engine.set_capture_batch_size(1);
        let run = engine.execute(&wf, &externals(), &mut rt).unwrap();
        let dropped = rt.dropped_batches();
        rt.flush_capture().unwrap();
        let stored: u64 = rt
            .datastores(run.run_id, 0)
            .iter()
            .map(|ds| ds.pairs_stored())
            .sum();
        // Whatever was shed is accounted for; nothing hangs and the stored
        // prefix plus the drop counter covers every emitted pair.
        assert_eq!(stored + dropped, 16, "16 single-pair batches emitted");
        // The shed count survives pipeline shutdown and reconfiguration.
        rt.shutdown_capture().unwrap();
        assert_eq!(rt.dropped_batches(), dropped, "count survives shutdown");
    }

    #[test]
    fn run_stats_filters_by_run() {
        let wf = workflow();
        let mut rt = Runtime::in_memory();
        let mut engine = Engine::new();
        let r1 = engine.execute(&wf, &externals(), &mut rt).unwrap();
        let r2 = engine.execute(&wf, &externals(), &mut rt).unwrap();
        assert_eq!(rt.run_stats(r1.run_id).len(), 2);
        assert_eq!(rt.run_stats(r2.run_id).len(), 2);
        // Lineage query cells: coordinate sanity for the recorded stats.
        assert!(rt.op_stats(r1.run_id, 1).unwrap().exec_time >= Duration::ZERO);
        let _ = Coord::d2(0, 0);
    }
}
