//! The SubZero system façade.
//!
//! [`SubZero`] wires the pieces together the way Figure 3 of the paper does:
//! a workflow executor ([`Engine`]), the lineage capture [`Runtime`] with its
//! operator-specific datastores, and the query surface — a [`QuerySession`]
//! borrowed per run via [`SubZero::session`].  The lineage strategy is
//! supplied either manually or by the `subzero-optimizer` crate.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use subzero_array::Array;
use subzero_engine::executor::{EngineError, WorkflowRun};
use subzero_engine::{Engine, Workflow};

use crate::capture::{CaptureConfig, CaptureMode};
use crate::model::LineageStrategy;
use crate::query::{QueryCache, QueryOptions, QuerySession, QueryTimePolicy};
use crate::runtime::{CaptureStats, Runtime};
use subzero_engine::executor::CaptureError;

/// The SubZero lineage system: workflow execution with lineage capture, plus
/// lineage query execution.
pub struct SubZero {
    engine: Engine,
    runtime: Runtime,
    options: QueryOptions,
    policy: QueryTimePolicy,
    /// Plans + re-execution traces derived at query time, kept across
    /// session borrows (and across runs of equal workflows, for plans).
    query_cache: QueryCache,
}

impl Default for SubZero {
    fn default() -> Self {
        Self::new()
    }
}

impl SubZero {
    /// Creates a system whose lineage datastores live in memory.
    pub fn new() -> Self {
        SubZero {
            engine: Engine::new(),
            runtime: Runtime::in_memory(),
            options: QueryOptions::default(),
            policy: QueryTimePolicy::default(),
            query_cache: QueryCache::new(),
        }
    }

    /// Creates a system whose lineage datastores persist under `dir`.
    pub fn with_storage_dir(dir: impl Into<PathBuf>) -> Self {
        SubZero {
            engine: Engine::new(),
            runtime: Runtime::on_disk(dir),
            options: QueryOptions::default(),
            policy: QueryTimePolicy::default(),
            query_cache: QueryCache::new(),
        }
    }

    /// Replaces the workflow-level lineage strategy (applies to subsequent
    /// executions).
    pub fn set_strategy(&mut self, strategy: LineageStrategy) {
        self.runtime.set_strategy(strategy);
    }

    /// The current lineage strategy.
    pub fn strategy(&self) -> &LineageStrategy {
        self.runtime.strategy()
    }

    /// Sets the number of region pairs per sealed capture batch (1 hands
    /// the runtime one pair at a time).
    pub fn set_capture_batch_size(&mut self, batch_size: usize) {
        self.engine.set_capture_batch_size(batch_size);
    }

    /// Sets the number of worker threads used to encode capture batches.
    pub fn set_capture_workers(&mut self, workers: usize) {
        self.runtime.set_workers(workers);
    }

    /// Selects whether capture runs on the executor thread
    /// ([`CaptureMode::Sync`], the default and parity reference) or through
    /// the bounded queue and background flusher pool
    /// ([`CaptureMode::Async`]), which takes encode + store time out of
    /// operator wall-clock.
    pub fn set_capture_mode(&mut self, mode: CaptureMode) {
        self.runtime.set_capture_mode(mode);
    }

    /// Replaces the async capture pipeline configuration (queue depth,
    /// flusher count, overflow policy).
    pub fn set_capture_config(&mut self, config: CaptureConfig) {
        self.runtime.set_capture_config(config);
    }

    /// Flush barrier for async capture: blocks until every staged batch has
    /// been applied to its datastores and reports any background flusher
    /// failure.  Queries and statistics calls do this implicitly; benchmarks
    /// call it to separate drain time from operator wall-clock.
    pub fn flush_capture(&mut self) -> Result<(), CaptureError> {
        self.runtime.flush_capture()
    }

    /// Overrides the query executor options (entire-array optimization,
    /// query-time optimizer).
    pub fn set_query_options(&mut self, options: QueryOptions) {
        self.options = options;
    }

    /// Overrides the query-time optimizer cost policy.
    pub fn set_query_time_policy(&mut self, policy: QueryTimePolicy) {
        self.policy = policy;
    }

    /// Executes one instance of `workflow` over the given external inputs,
    /// capturing lineage according to the current strategy.
    pub fn execute(
        &mut self,
        workflow: &Arc<Workflow>,
        inputs: &HashMap<String, Array>,
    ) -> Result<WorkflowRun, EngineError> {
        self.engine.execute(workflow, inputs, &mut self.runtime)
    }

    /// Borrows a [`QuerySession`] pinned to one executed run: the primary
    /// query surface.  Sessions derive operator traversals from the workflow
    /// DAG (`session.backward(cells).from(op).to_source("img")`), batch
    /// queries so they share decoded scans and datastore handles
    /// (`session.backward_many(...)`), stream per-step results through a
    /// [`LineageCursor`](crate::query::LineageCursor), and serve derived
    /// plans and traced re-execution pairs from the system's persistent
    /// [`QueryCache`] — so a session borrowed tomorrow reuses what a session
    /// derived today.
    ///
    /// ```
    /// use std::collections::HashMap;
    /// use std::sync::Arc;
    /// use subzero::prelude::*;
    /// use subzero_engine::ops::{Elementwise1, UnaryKind};
    ///
    /// let mut b = Workflow::builder("session-doc");
    /// let scale = b.add_source(Arc::new(Elementwise1::new(UnaryKind::Scale(2.0))), "img");
    /// let wf = Arc::new(b.build().unwrap());
    ///
    /// let mut subzero = SubZero::new();
    /// let mut inputs = HashMap::new();
    /// inputs.insert("img".to_string(), Array::from_rows(&[vec![1.0, 3.0]]));
    /// let run = subzero.execute(&wf, &inputs).unwrap();
    ///
    /// // The session derives the scale -> "img" traversal from the DAG.
    /// let mut session = subzero.session(&run);
    /// let result = session
    ///     .backward(vec![Coord::d2(0, 1)])
    ///     .from(scale)
    ///     .to_source("img")
    ///     .unwrap();
    /// assert_eq!(result.cells.to_coords(), vec![Coord::d2(0, 1)]);
    /// ```
    pub fn session<'a>(&'a mut self, run: &'a WorkflowRun) -> QuerySession<'a> {
        QuerySession::new(&self.engine, &mut self.runtime, run)
            .with_options(self.options)
            .with_policy(self.policy)
            .with_cache(&mut self.query_cache)
    }

    /// The underlying workflow engine (array store, WAL, re-execution).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The lineage capture runtime (datastores and statistics).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Mutable access to the runtime (used by the optimizer to inspect
    /// datastores and by the harness to clear runs).
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.runtime
    }

    /// Finishes capture for a run: builds the deferred spatial indexes and
    /// flushes the datastores, charging the time to capture overhead rather
    /// than to the first query.  Optional — lookups finish lazily — but
    /// benchmarks should call it right after [`execute`](SubZero::execute).
    /// Returns the time spent.
    pub fn finish_capture(&mut self, run_id: u64) -> std::time::Duration {
        self.runtime.finish_run(run_id)
    }

    /// Durably publishes a run's captured lineage: finishes ingest, fsyncs
    /// the datastore logs and writes the run's commit record, so the run
    /// survives a crash + reopen of the storage directory.  A run that is
    /// never committed is rolled back wholesale on reopen.  No-op (returns
    /// transaction id 0) for in-memory systems.
    pub fn commit_capture(&mut self, run_id: u64) -> std::io::Result<u64> {
        self.runtime.commit_run(run_id)
    }

    /// Aggregate lineage capture statistics for a run.
    pub fn capture_stats(&self, run_id: u64) -> CaptureStats {
        self.runtime.capture_stats(run_id)
    }

    /// Lineage bytes stored for a run (hash entries plus spatial indexes).
    pub fn lineage_bytes(&self, run_id: u64) -> usize {
        self.runtime.bytes_for_run(run_id)
    }

    /// Bytes of array data (inputs, intermediates and outputs) persisted by
    /// the no-overwrite store.  The paper compares lineage overhead to this
    /// number.
    pub fn array_bytes(&self) -> usize {
        self.engine.store().bytes_stored()
    }

    /// Drops all lineage stored for a run, along with the run's cached
    /// re-execution traces (derived plans are run-independent and stay).
    pub fn clear_lineage(&mut self, run_id: u64) {
        self.runtime.clear_run(run_id);
        self.query_cache.evict_run(run_id);
    }

    /// The cross-session query cache (plans + re-execution traces) and its
    /// hit/miss counters.
    pub fn query_cache(&self) -> &QueryCache {
        &self.query_cache
    }

    /// Mutable access to the query cache (e.g. to clear it wholesale).
    pub fn query_cache_mut(&mut self) -> &mut QueryCache {
        &mut self.query_cache
    }
}

impl std::fmt::Debug for SubZero {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubZero")
            .field("engine", &self.engine)
            .field("runtime", &self.runtime)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StorageStrategy;
    use crate::query::StepMethod;
    use subzero_array::{Coord, Shape};
    use subzero_engine::ops::{BinaryKind, Convolve, Elementwise1, Elementwise2, UnaryKind};

    /// A small two-exposure pipeline reminiscent of the astronomy workflow:
    /// blur both inputs, average them, then threshold.
    fn workflow() -> Arc<Workflow> {
        let mut b = Workflow::builder("mini-lsst");
        let blur_a = b.add_source(Arc::new(Convolve::box_blur(1)), "exp1");
        let blur_b = b.add_source(Arc::new(Convolve::box_blur(1)), "exp2");
        let merged = b.add_binary(
            Arc::new(Elementwise2::new(BinaryKind::Mean)),
            blur_a,
            blur_b,
        );
        let _detect = b.add_unary(
            Arc::new(Elementwise1::new(UnaryKind::Threshold(0.5))),
            merged,
        );
        Arc::new(b.build().unwrap())
    }

    fn inputs() -> HashMap<String, Array> {
        let mut m = HashMap::new();
        let mut img = Array::zeros(Shape::d2(8, 8));
        img.set(&Coord::d2(4, 4), 10.0);
        m.insert("exp1".to_string(), img.clone());
        m.insert("exp2".to_string(), img);
        m
    }

    #[test]
    fn execute_and_query_end_to_end() {
        let mut sz = SubZero::new();
        let wf = workflow();
        let run = sz.execute(&wf, &inputs()).unwrap();
        // The bright source survives thresholding.
        let out = sz.engine().output_of(&run, 3).unwrap();
        assert_eq!(out.get(&Coord::d2(4, 4)), 1.0);

        // Backward query: the detected pixel traces to the 3x3 neighbourhood
        // in the first exposure.
        let mut session = sz.session(&run);
        let result = session
            .backward(vec![Coord::d2(4, 4)])
            .from(3)
            .to_source("exp1")
            .unwrap();
        assert_eq!(result.cells.len(), 9);
        assert!(result.cells.contains(&Coord::d2(3, 3)));
        assert!(result.cells.contains(&Coord::d2(5, 5)));

        // Forward query: the bright input pixel influences its neighbourhood
        // in the final detection.
        let result = session
            .forward(vec![Coord::d2(4, 4)])
            .from_source("exp1")
            .to(3)
            .unwrap();
        assert_eq!(result.cells.len(), 9);

        // Full-workflow trace: both exposures are reached, symmetrically.
        let traced = session
            .backward(vec![Coord::d2(4, 4)])
            .from(3)
            .to_sources()
            .unwrap();
        assert_eq!(traced.len(), 2);
        assert_eq!(traced[0].1.cells.len(), traced[1].1.cells.len());
    }

    #[test]
    fn strategies_change_query_method_but_not_answers() {
        let wf = workflow();

        // Mapping-only (default).
        let mut sz = SubZero::new();
        let run = sz.execute(&wf, &inputs()).unwrap();
        let mapping_answer = sz
            .session(&run)
            .backward(vec![Coord::d2(4, 4)])
            .from(2)
            .to_source("exp1")
            .unwrap();
        assert!(mapping_answer
            .report
            .steps
            .iter()
            .all(|s| s.method == StepMethod::Mapping));

        // Full lineage stored for every operator.
        let mut sz = SubZero::new();
        let mut strategy = LineageStrategy::new();
        for op in 0..4 {
            strategy.set(op, vec![StorageStrategy::full_many()]);
        }
        sz.set_strategy(strategy);
        let run = sz.execute(&wf, &inputs()).unwrap();
        assert!(sz.lineage_bytes(run.run_id) > 0);
        let stored_answer = sz
            .session(&run)
            .backward(vec![Coord::d2(4, 4)])
            .from(2)
            .to_source("exp1")
            .unwrap();
        assert_eq!(stored_answer.cells, mapping_answer.cells);
        assert!(stored_answer
            .report
            .steps
            .iter()
            .all(|s| s.method == StepMethod::Stored));

        // Chaining the two one-edge queries along the only path gives the
        // same answer as the derived traversal.
        let mut session = sz.session(&run);
        let via_merge = session
            .backward(vec![Coord::d2(4, 4)])
            .from(2)
            .to(0)
            .unwrap();
        let chained = session
            .backward(via_merge.cells.to_coords())
            .from(0)
            .to_source("exp1")
            .unwrap();
        assert_eq!(chained.cells, stored_answer.cells);
    }

    #[test]
    fn query_cache_persists_plans_and_traces_across_sessions() {
        let mut sz = SubZero::new();
        // All-blackbox assignment forces traced re-execution at query time —
        // the expensive artifact the cache exists to keep.
        let mut strategy = LineageStrategy::new();
        for op in 0..4 {
            strategy.set(op, vec![StorageStrategy::blackbox()]);
        }
        sz.set_strategy(strategy);
        let wf = workflow();
        let run = sz.execute(&wf, &inputs()).unwrap();

        let first = sz
            .session(&run)
            .backward(vec![Coord::d2(4, 4)])
            .from(3)
            .to_source("exp1")
            .unwrap();
        let stats = sz.query_cache().stats();
        assert!(stats.plan_misses >= 1, "first session derives the plan");
        assert!(stats.trace_misses >= 1, "first session traces operators");
        assert_eq!(stats.plan_hits, 0);
        let derived = (stats.plan_misses, stats.trace_misses);

        // A later session over the same run re-derives nothing.
        let second = sz
            .session(&run)
            .backward(vec![Coord::d2(4, 4)])
            .from(3)
            .to_source("exp1")
            .unwrap();
        assert_eq!(second.cells, first.cells);
        let stats = sz.query_cache().stats();
        assert_eq!(
            (stats.plan_misses, stats.trace_misses),
            derived,
            "second session must not re-trace or re-plan"
        );
        assert!(stats.plan_hits >= 1);
        assert!(stats.trace_hits >= 1);

        // Clearing the run's lineage evicts its traces; plans depend only on
        // the workflow specification and stay.
        assert!(sz.query_cache().traces_cached() > 0);
        let plans = sz.query_cache().plans_cached();
        assert!(plans > 0);
        sz.clear_lineage(run.run_id);
        assert_eq!(sz.query_cache().traces_cached(), 0);
        assert_eq!(sz.query_cache().plans_cached(), plans);
    }

    #[test]
    fn capture_stats_and_array_bytes_reported() {
        let mut sz = SubZero::new();
        let mut strategy = LineageStrategy::new();
        strategy.set(0, vec![StorageStrategy::full_one()]);
        sz.set_strategy(strategy);
        let wf = workflow();
        let run = sz.execute(&wf, &inputs()).unwrap();
        let stats = sz.capture_stats(run.run_id);
        assert!(stats.pairs > 0);
        assert!(stats.bytes > 0);
        assert!(
            sz.array_bytes() >= 6 * 8 * 8 * 8,
            "inputs + 4 outputs stored"
        );
        sz.clear_lineage(run.run_id);
        assert_eq!(sz.lineage_bytes(run.run_id), 0);
    }
}
