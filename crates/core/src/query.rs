//! The lineage query executor.
//!
//! "The Query Executor iteratively executes each step in the lineage query
//! path by joining the lineage with the coordinates of the query cells, or
//! the intermediate cells generated from the previous step." (§VI-C)
//!
//! The entry point is a [`QuerySession`] borrowed from a
//! [`SubZero`](crate::system::SubZero) run.  A session pins one executed
//! workflow run, derives the operator traversal from the workflow DAG — the
//! caller names *arrays* (`session.backward(cells).from(op).to_source("img")`),
//! never `(operator, input index)` step vectors — and amortises work across
//! queries: traced re-execution pairs are cached per operator, and batched
//! queries ([`QuerySession::backward_many`]) share decoded scans, datastore
//! handles and R-tree lookups at every step.  At a DAG join the derived
//! traversal fans out over every path and unions the per-branch
//! intermediates, which is equivalent to running each path separately and
//! unioning the answers (each step distributes over unions of query cells).
//!
//! Each step is answered by one of:
//!
//! * the operator's **mapping functions** (free — nothing was stored),
//! * **materialised region lineage** from the operator's datastores
//!   (for composite lineage, combined with the default mapping function),
//! * **re-execution** of the operator in tracing mode (black-box lineage),
//! * the **entire-array optimization**: when every cell of the intermediate
//!   is set and the operator is annotated all-to-all, the step's answer is
//!   the entire input/output array without touching any lineage.
//!
//! The **query-time optimizer** (§VII-A) decides between materialised lineage
//! and re-execution using the statistics gathered at capture time, bounding
//! the worst case to roughly the cost of the black-box approach.
//!
//! All of this is one [`QueryWalk`], generic over the [`QueryBackend`] that
//! supplies stored lookups: the runtime's datastores for a session, a daemon
//! session for `subzero_server::RemoteSession`.  There is no second entry
//! point: every traversal is derived from the DAG, so a query cannot skip an
//! operator or cross the wrong input slot.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use subzero_array::{CellSet, Coord, Shape};
use subzero_engine::executor::{EngineError, WorkflowRun};
use subzero_engine::paths::{self, ArrayNode, Edge, PathError};
use subzero_engine::workflow::WorkflowNode;
use subzero_engine::{
    Engine, InputSource, LineageMode, OpId, OpMeta, OperatorExt, RegionPair, Workflow,
};

use crate::datastore::{self, LookupOutcome};
use crate::model::{Direction, StorageStrategy};
use crate::reexec;
use crate::runtime::Runtime;

/// Errors produced while executing a lineage query.
#[derive(Debug)]
pub enum QueryError {
    /// A session query was finished without naming its origin array.
    MissingOrigin,
    /// A path step referenced an input index the operator does not have.
    BadInputIndex {
        /// The operator.
        op: OpId,
        /// The requested input index.
        input_idx: usize,
    },
    /// The traversal could not be derived from the workflow DAG.
    Path(PathError),
    /// A malformed session query (e.g. a backward query starting from an
    /// external array).
    Spec(String),
    /// An engine-level failure (missing run record, missing array version).
    Engine(EngineError),
    /// A step needs operator `op` re-executed in tracing mode, which the
    /// session's backend cannot do (a daemon session stores lineage but
    /// never runs operators).
    NeedsReexecution {
        /// The operator whose step needs re-execution.
        op: OpId,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::MissingOrigin => write!(
                f,
                "query origin not set: call .from(op) / .from_source(name) before finishing"
            ),
            QueryError::BadInputIndex { op, input_idx } => {
                write!(f, "operator {op} has no input {input_idx}")
            }
            QueryError::Path(e) => write!(f, "cannot derive query path: {e}"),
            QueryError::Spec(s) => write!(f, "malformed query: {s}"),
            QueryError::Engine(e) => write!(f, "engine error: {e}"),
            QueryError::NeedsReexecution { op } => write!(
                f,
                "operator {op} has no stored lineage to answer from and needs \
                 re-execution, which this session cannot run"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<EngineError> for QueryError {
    fn from(e: EngineError) -> Self {
        QueryError::Engine(e)
    }
}

impl From<PathError> for QueryError {
    fn from(e: PathError) -> Self {
        QueryError::Path(e)
    }
}

/// A declarative session query: direction, starting cells, and the two
/// endpoint *arrays* — no operator path.  The traversal between the
/// endpoints is derived from the workflow DAG when the spec runs
/// ([`QuerySession::query`]), fanning out over every path at DAG joins.
///
/// This is the storable/cloneable counterpart of the session builder calls,
/// used by benchmark harnesses and the optimizer's sample workloads.
#[derive(Clone, Debug, PartialEq)]
pub struct QuerySpec {
    /// Traversal direction.
    pub direction: Direction,
    /// The starting cells, on the `from` array.
    pub cells: Vec<Coord>,
    /// The array the cells start on.
    pub from: ArrayNode,
    /// The array the answer lands on.
    pub to: ArrayNode,
}

impl QuerySpec {
    /// A backward query: trace output cells of operator `from` back to the
    /// array `to`.
    pub fn backward(cells: Vec<Coord>, from: OpId, to: ArrayNode) -> Self {
        QuerySpec {
            direction: Direction::Backward,
            cells,
            from: ArrayNode::Output(from),
            to,
        }
    }

    /// A backward query ending at the external array `source`.
    pub fn backward_to_source(cells: Vec<Coord>, from: OpId, source: impl Into<String>) -> Self {
        Self::backward(cells, from, ArrayNode::external(source))
    }

    /// A forward query: trace cells of the array `from` to the output of
    /// operator `to`.
    pub fn forward(cells: Vec<Coord>, from: ArrayNode, to: OpId) -> Self {
        QuerySpec {
            direction: Direction::Forward,
            cells,
            from,
            to: ArrayNode::Output(to),
        }
    }

    /// A forward query starting from the external array `source`.
    pub fn forward_from_source(cells: Vec<Coord>, source: impl Into<String>, to: OpId) -> Self {
        Self::forward(cells, ArrayNode::external(source), to)
    }
}

/// How one step of a query was answered.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StepMethod {
    /// Forward/backward mapping functions.
    Mapping,
    /// Materialised region lineage.
    Stored,
    /// Materialised lineage combined with the default mapping function
    /// (composite lineage).
    StoredPlusMapping,
    /// Operator re-execution in tracing mode (black-box lineage).
    Reexecution,
    /// The entire-array optimization short-circuited the step.
    EntireArray,
    /// The step's intermediate was empty, so nothing ran: the result is
    /// empty by construction (no lookup, mapping or re-execution happened).
    Skipped,
}

impl fmt::Display for StepMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StepMethod::Mapping => "mapping",
            StepMethod::Stored => "stored",
            StepMethod::StoredPlusMapping => "stored+mapping",
            StepMethod::Reexecution => "re-execution",
            StepMethod::EntireArray => "entire-array",
            StepMethod::Skipped => "skipped",
        };
        f.write_str(s)
    }
}

/// Per-step execution report.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// The operator traversed.
    pub op_id: OpId,
    /// The input index traversed.
    pub input_idx: usize,
    /// How the step was answered.
    pub method: StepMethod,
    /// Step wall-clock time.  For batched queries the shared step's total
    /// time is reported in every participating query's report (the work was
    /// done once for all of them).
    pub elapsed: Duration,
    /// Number of cells in the step's result.
    pub result_cells: usize,
    /// Whether a stored-lineage lookup had to scan the whole datastore
    /// because the index direction did not match.
    pub scanned: bool,
}

/// Whole-query execution report.
#[derive(Clone, Debug, Default)]
pub struct QueryReport {
    /// Reports for each step, in traversal order.
    pub steps: Vec<StepReport>,
    /// Total query wall-clock time.
    pub total_elapsed: Duration,
}

impl QueryReport {
    /// Number of steps answered by re-execution.
    pub fn reexecutions(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.method == StepMethod::Reexecution)
            .count()
    }

    /// Whether any step required a full datastore scan.
    pub fn any_scan(&self) -> bool {
        self.steps.iter().any(|s| s.scanned)
    }
}

/// The result of a lineage query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The cells of the destination array the query resolved to.
    pub cells: CellSet,
    /// Per-step diagnostics.
    pub report: QueryReport,
}

/// Tuning knobs of the query executor.
#[derive(Clone, Copy, Debug)]
pub struct QueryOptions {
    /// Enable the entire-array optimization (§VI-C).
    pub entire_array_optimization: bool,
    /// Enable the query-time optimizer (§VII-A): fall back to re-execution
    /// when the materialised lineage is predicted (or observed) to be slower.
    pub query_time_optimizer: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            entire_array_optimization: true,
            query_time_optimizer: true,
        }
    }
}

/// The query-time optimizer's cost thresholds.
///
/// The estimates are deliberately coarse — a per-entry fetch cost and a
/// per-cell mapping cost — because all the decision needs is the order of
/// magnitude: indexed lookups touching a handful of entries versus a full
/// scan of a datastore versus re-running the operator.
#[derive(Clone, Copy, Debug)]
pub struct QueryTimePolicy {
    /// Estimated cost of fetching and decoding one hash entry.
    pub entry_cost: Duration,
    /// Estimated cost of applying a mapping function to one cell.
    pub map_cost: Duration,
    /// Stored-lineage access is abandoned in favour of re-execution when its
    /// estimate exceeds this multiple of the re-execution estimate (the paper
    /// bounds the worst case to 2× the black-box approach).
    pub reexec_multiple: f64,
}

impl Default for QueryTimePolicy {
    fn default() -> Self {
        QueryTimePolicy {
            entry_cost: Duration::from_micros(3),
            map_cost: Duration::from_nanos(300),
            reexec_multiple: 2.0,
        }
    }
}

impl QueryTimePolicy {
    /// Estimates the cost of answering a step from stored lineage.
    pub fn stored_estimate(
        &self,
        serving: bool,
        query_cells: usize,
        total_entries: usize,
    ) -> Duration {
        let entries = if serving {
            query_cells.min(total_entries.max(1))
        } else {
            total_entries
        };
        self.entry_cost * entries.max(1) as u32
    }

    /// Whether stored lineage should be used instead of re-execution.
    pub fn prefer_stored(
        &self,
        serving: bool,
        query_cells: usize,
        total_entries: usize,
        reexec_estimate: Duration,
    ) -> bool {
        let stored = self.stored_estimate(serving, query_cells, total_entries);
        stored.as_secs_f64() <= reexec_estimate.as_secs_f64() * self.reexec_multiple
    }
}

// ---------------------------------------------------------------------------
// The walk: one traversal for a batch of queries, over a query backend.
// ---------------------------------------------------------------------------

/// Per-array, per-query intermediates of one traversal (one [`CellSet`]
/// per query of the batch, keyed by the array it lives on).
type Frontier = HashMap<ArrayNode, Vec<CellSet>>;

/// How one query of a step batch will be answered.
#[derive(Copy, Clone, PartialEq, Eq)]
enum StepChoice {
    /// Empty intermediate: the answer is empty without touching anything.
    Empty,
    EntireArray,
    Mapping,
    Stored,
    Reexec,
}

/// Hit/miss counters of one [`QueryCache`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueryCacheStats {
    /// Traversal plans served from the cache.
    pub plan_hits: u64,
    /// Traversal plans derived fresh (and cached).
    pub plan_misses: u64,
    /// Re-execution traces served from the cache.
    pub trace_hits: u64,
    /// Operators re-executed in tracing mode (and cached).
    pub trace_misses: u64,
}

/// Cross-session cache of derived query artifacts.
///
/// A [`QuerySession`] borrows the engine and runtime, so it cannot outlive
/// one query burst; the expensive artifacts it derives can.  This cache owns
/// them, keyed by the workflow's [DAG hash](Workflow::dag_hash):
///
/// * **traversal plans** — the DAG-derived edge list between two arrays,
///   keyed by `(dag hash, direction, from, to)`.  Plans depend only on the
///   workflow wiring, so they are shared across sessions *and* across runs
///   of equal workflow specifications.
/// * **re-execution traces** — the region pairs traced by re-running an
///   operator in tracing mode (the black-box path), keyed by
///   `(dag hash, run id, operator)`.  Traces read the run's recorded arrays,
///   so they are per-run; caching them here means one traced re-execution
///   per `(run, operator)` across every session over that run.
///
/// [`SubZero`](crate::system::SubZero) owns one and threads it through every
/// [`session`](crate::system::SubZero::session); clearing a run's lineage
/// evicts that run's traces.  Sessions built directly from an engine +
/// runtime pair use a private cache unless one is attached with
/// [`QuerySession::with_cache`].
#[derive(Default)]
pub struct QueryCache {
    plans: HashMap<(u64, Direction, ArrayNode, ArrayNode), Arc<Vec<Edge>>>,
    traces: HashMap<(u64, u64, OpId), Arc<Vec<RegionPair>>>,
    stats: QueryCacheStats,
}

impl QueryCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hit/miss counters since creation (or the last [`clear`](Self::clear)).
    pub fn stats(&self) -> QueryCacheStats {
        self.stats
    }

    /// Number of cached traversal plans.
    pub fn plans_cached(&self) -> usize {
        self.plans.len()
    }

    /// Number of cached re-execution traces.
    pub fn traces_cached(&self) -> usize {
        self.traces.len()
    }

    /// Drops every cached artifact and resets the counters.
    pub fn clear(&mut self) {
        self.plans.clear();
        self.traces.clear();
        self.stats = QueryCacheStats::default();
    }

    /// Drops the re-execution traces of one run.  Plans are run-independent
    /// and stay.  Called when a run's lineage is cleared, so a later run
    /// reusing the id cannot see stale traces.
    pub fn evict_run(&mut self, run_id: u64) {
        self.traces.retain(|&(_, rid, _), _| rid != run_id);
    }

    /// The plan under `key`, deriving and caching it on first use.
    /// Derivation errors are returned and not cached.
    fn plan(
        &mut self,
        key: (u64, Direction, ArrayNode, ArrayNode),
        derive: impl FnOnce() -> Result<Vec<Edge>, QueryError>,
    ) -> Result<Arc<Vec<Edge>>, QueryError> {
        if let Some(plan) = self.plans.get(&key) {
            self.stats.plan_hits += 1;
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(derive()?);
        self.stats.plan_misses += 1;
        self.plans.insert(key, Arc::clone(&plan));
        Ok(plan)
    }

    /// The trace under `key`, tracing and caching it on first use.
    /// Trace errors are returned and not cached.
    fn trace(
        &mut self,
        key: (u64, u64, OpId),
        derive: impl FnOnce() -> Result<Vec<RegionPair>, QueryError>,
    ) -> Result<Arc<Vec<RegionPair>>, QueryError> {
        if let Some(pairs) = self.traces.get(&key) {
            self.stats.trace_hits += 1;
            return Ok(Arc::clone(pairs));
        }
        let pairs = Arc::new(derive()?);
        self.stats.trace_misses += 1;
        self.traces.insert(key, Arc::clone(&pairs));
        Ok(pairs)
    }
}

/// The cache a [`QueryWalk`] works against: borrowed from the system façade
/// (cross-session) or owned (session-private fallback).
enum CacheHandle<'a> {
    Owned(QueryCache),
    Shared(&'a mut QueryCache),
}

impl CacheHandle<'_> {
    fn get_mut(&mut self) -> &mut QueryCache {
        match self {
            CacheHandle::Owned(cache) => cache,
            CacheHandle::Shared(cache) => cache,
        }
    }
}

/// What a [`QueryWalk`] needs from the store behind it.
///
/// The walk itself is shared: plan derivation, frontier bookkeeping and the
/// per-query choice between the entire-array shortcut, mapping functions,
/// stored lineage and re-execution.  A backend answers only for what it
/// holds.  [`QuerySession`] runs over an in-process [`Runtime`];
/// `subzero_server::RemoteSession` runs over a daemon session, which stores
/// lineage but cannot re-run operators.
pub trait QueryBackend {
    /// The error a query over this backend reports.
    type Error: From<QueryError>;

    /// The workflow whose DAG the walk traverses.
    fn workflow(&self) -> &Workflow;

    /// The array shapes of operator `op`.
    fn meta(&self, op: OpId) -> Result<&OpMeta, Self::Error>;

    /// The storage strategies assigned to `op` (empty when none are).
    fn strategies(&self, op: OpId) -> &[StorageStrategy];

    /// The entry count of `op`'s largest datastore, or `None` when no
    /// lineage is stored for `op`.
    fn stored_entries(&mut self, op: OpId) -> Option<usize>;

    /// Answers a batch of stored lookups crossing `op` through input
    /// `input_idx`: one outcome per query, in query order.
    fn lookup_many(
        &mut self,
        op: OpId,
        input_idx: usize,
        direction: Direction,
        queries: &[&CellSet],
    ) -> Result<Vec<LookupOutcome>, Self::Error>;

    /// What re-running `op` is estimated to cost, for the query-time
    /// policy.  `None` (the default) where re-execution cannot run, so the
    /// policy never picks it.
    fn reexec_cost(&self, _op: OpId) -> Option<Duration> {
        None
    }

    /// The region pairs traced by re-running `op` in tracing mode, served
    /// from and derived into `cache`.  The default cannot re-execute and
    /// fails with [`QueryError::NeedsReexecution`].
    fn trace(
        &mut self,
        op: OpId,
        _cache: &mut QueryCache,
    ) -> Result<Arc<Vec<RegionPair>>, Self::Error> {
        Err(QueryError::NeedsReexecution { op }.into())
    }
}

/// The in-process backend: one executed run, its records and the runtime's
/// datastores.
struct LocalBackend<'a> {
    engine: &'a Engine,
    runtime: &'a mut Runtime,
    run: &'a WorkflowRun,
}

impl QueryBackend for LocalBackend<'_> {
    type Error = QueryError;

    fn workflow(&self) -> &Workflow {
        &self.run.workflow
    }

    fn meta(&self, op: OpId) -> Result<&OpMeta, QueryError> {
        Ok(&self.run.record(op)?.meta)
    }

    fn strategies(&self, op: OpId) -> &[StorageStrategy] {
        self.runtime.strategy().get(op).unwrap_or_default()
    }

    fn stored_entries(&mut self, op: OpId) -> Option<usize> {
        let run_id = self.run.run_id;
        self.runtime.has_lineage(run_id, op).then(|| {
            self.runtime
                .datastores(run_id, op)
                .iter()
                .map(|d| d.num_entries())
                .max()
                .unwrap_or(0)
        })
    }

    fn lookup_many(
        &mut self,
        op_id: OpId,
        input_idx: usize,
        direction: Direction,
        queries: &[&CellSet],
    ) -> Result<Vec<LookupOutcome>, QueryError> {
        let meta = &self.run.record(op_id)?.meta;
        let node = self
            .run
            .workflow
            .node(op_id)
            .map_err(EngineError::Workflow)?;
        let stores = self.runtime.datastores(self.run.run_id, op_id);
        Ok(match datastore::serving(stores, direction) {
            Some(store) => {
                store.lookup_many(direction, queries, input_idx, node.operator.as_ref(), meta)
            }
            None => queries
                .iter()
                .map(|q| LookupOutcome {
                    result: CellSet::empty(target_shape(meta, input_idx, direction)),
                    covered: CellSet::empty(q.shape()),
                    entries_fetched: 0,
                    scanned: false,
                })
                .collect(),
        })
    }

    fn reexec_cost(&self, op: OpId) -> Option<Duration> {
        self.run.record(op).ok().map(|r| r.elapsed)
    }

    fn trace(
        &mut self,
        op: OpId,
        cache: &mut QueryCache,
    ) -> Result<Arc<Vec<RegionPair>>, QueryError> {
        let (engine, run) = (self.engine, self.run);
        cache.trace((run.workflow.dag_hash(), run.run_id, op), || {
            Ok(engine.rerun_tracing(run, op)?.0)
        })
    }
}

/// One traversal over a [`QueryBackend`]: derives the plan between two
/// arrays, seeds one frontier per query, crosses every planned edge for the
/// whole batch at once, and collects the destination array.
///
/// Each step shares its heavy artifacts across the batch: one stored lookup
/// call (so at most one mismatched-direction scan) and one traced
/// re-execution per operator, cached in the [`QueryCache`] (across sessions
/// when the cache is shared).
pub struct QueryWalk<'c, B> {
    backend: B,
    options: QueryOptions,
    policy: QueryTimePolicy,
    cache: CacheHandle<'c>,
}

impl<B: QueryBackend> QueryWalk<'_, B> {
    /// A walk over `backend` with default options and a private cache.
    pub fn new(backend: B) -> Self {
        QueryWalk {
            backend,
            options: QueryOptions::default(),
            policy: QueryTimePolicy::default(),
            cache: CacheHandle::Owned(QueryCache::new()),
        }
    }

    /// Runs one [`QuerySpec`] shape over several cell batches (the spec's
    /// own `cells` are ignored), sharing every step across the batch.
    pub fn query_many(
        &mut self,
        spec: &QuerySpec,
        batches: &[Vec<Coord>],
    ) -> Result<Vec<QueryResult>, B::Error> {
        let edges = self.plan_for(spec.direction, &spec.from, &spec.to)?;
        let (mut frontier, reports) =
            self.run_edges(spec.direction, &edges, &spec.from, batches)?;
        self.collect_results(&mut frontier, &spec.to, reports, batches.len())
    }

    /// The derived traversal edges between two arrays, in execution order —
    /// served from the [`QueryCache`] when an equal workflow specification
    /// already derived this plan (in this walk or any other sharing the
    /// cache).
    fn plan_for(
        &mut self,
        direction: Direction,
        from: &ArrayNode,
        to: &ArrayNode,
    ) -> Result<Arc<Vec<Edge>>, B::Error> {
        let wf = self.backend.workflow();
        let key = (wf.dag_hash(), direction, from.clone(), to.clone());
        Ok(self.cache.get_mut().plan(key, || match direction {
            Direction::Backward => {
                let ArrayNode::Output(op) = from else {
                    return Err(QueryError::Spec(
                        "backward queries start from an operator's output array".into(),
                    ));
                };
                Ok(paths::backward_plan(wf, *op, to)?.edges)
            }
            Direction::Forward => {
                let ArrayNode::Output(op) = to else {
                    return Err(QueryError::Spec(
                        "forward queries end at an operator's output array".into(),
                    ));
                };
                Ok(paths::forward_plan(wf, from, *op)?.edges)
            }
        })?)
    }

    /// The workflow node of `op`.
    fn node(&self, op: OpId) -> Result<&WorkflowNode, B::Error> {
        let node = self.backend.workflow().node(op);
        Ok(node.map_err(|e| QueryError::Engine(EngineError::Workflow(e)))?)
    }

    /// The shape of an array of the workflow.
    fn array_shape(&self, node: &ArrayNode) -> Result<Shape, B::Error> {
        match node {
            ArrayNode::Output(op) => Ok(self.backend.meta(*op)?.output_shape),
            ArrayNode::External(name) => {
                for n in self.backend.workflow().nodes() {
                    for (idx, src) in n.inputs.iter().enumerate() {
                        if matches!(src, InputSource::External(x) if x == name) {
                            return Ok(self.backend.meta(n.id)?.input_shapes[idx]);
                        }
                    }
                }
                Err(QueryError::Path(PathError::UnknownSource(name.clone())).into())
            }
        }
    }

    /// The starting frontier (each batch's cells on `from`) and one empty
    /// report per query.
    fn seed(
        &self,
        from: &ArrayNode,
        batches: &[Vec<Coord>],
    ) -> Result<(Frontier, Vec<QueryReport>), B::Error> {
        let shape = self.array_shape(from)?;
        let mut frontier = Frontier::new();
        frontier.insert(
            from.clone(),
            batches
                .iter()
                .map(|cells| CellSet::from_coords(shape, cells.iter().copied()))
                .collect(),
        );
        Ok((frontier, vec![QueryReport::default(); batches.len()]))
    }

    /// Executes a derived edge list over per-query frontiers.  Returns the
    /// final frontier (per array, one [`CellSet`] per query) and the
    /// per-query reports.
    fn run_edges(
        &mut self,
        direction: Direction,
        edges: &[Edge],
        from: &ArrayNode,
        batches: &[Vec<Coord>],
    ) -> Result<(Frontier, Vec<QueryReport>), B::Error> {
        let start = Instant::now();
        let (mut frontier, mut reports) = self.seed(from, batches)?;
        for &(op, idx) in edges {
            self.run_edge(direction, op, idx, &mut frontier, &mut reports)?;
        }
        for r in &mut reports {
            r.total_elapsed = start.elapsed();
        }
        Ok((frontier, reports))
    }

    /// Executes one edge of a traversal: reads the per-query intermediates
    /// on the edge's input array, crosses the operator, and unions the
    /// results into the edge's target array.  Returns the step's per-query
    /// results, or `None` when every intermediate was empty and the step was
    /// skipped.
    #[allow(clippy::type_complexity)]
    fn run_edge(
        &mut self,
        direction: Direction,
        op_id: OpId,
        input_idx: usize,
        frontier: &mut Frontier,
        reports: &mut [QueryReport],
    ) -> Result<Option<Vec<(CellSet, StepReport)>>, B::Error> {
        let nq = reports.len();
        let Some(src) = self.node(op_id)?.inputs.get(input_idx) else {
            return Err(QueryError::BadInputIndex {
                op: op_id,
                input_idx,
            }
            .into());
        };
        let side_array = array_node_of(src);
        let (input_node, target_node) = match direction {
            Direction::Backward => (ArrayNode::Output(op_id), side_array),
            Direction::Forward => (side_array, ArrayNode::Output(op_id)),
        };
        let target_shape = self.array_shape(&target_node)?;
        let ensure_target = |frontier: &mut Frontier| {
            frontier
                .entry(target_node.clone())
                .or_insert_with(|| vec![CellSet::empty(target_shape); nq]);
        };
        // The frontier borrow ends once step_many returns (the walk never
        // keeps the frontier), so no per-edge clone is needed.
        let Some(inputs) = frontier.get(&input_node) else {
            // Nothing ever flowed into this edge's input array (possible for
            // merged multi-destination traversals); its contribution is empty.
            ensure_target(frontier);
            return Ok(None);
        };
        if inputs.iter().all(CellSet::is_empty) {
            ensure_target(frontier);
            return Ok(None);
        }
        let results = self.step_many(op_id, input_idx, direction, inputs)?;
        ensure_target(frontier);
        let entry = frontier.get_mut(&target_node).expect("just ensured");
        for ((acc, (cells, report)), query_report) in
            entry.iter_mut().zip(&results).zip(reports.iter_mut())
        {
            acc.union_with(cells);
            query_report.steps.push(report.clone());
        }
        Ok(Some(results))
    }

    /// Extracts per-query results for one destination array.
    fn collect_results(
        &self,
        frontier: &mut Frontier,
        to: &ArrayNode,
        reports: Vec<QueryReport>,
        nq: usize,
    ) -> Result<Vec<QueryResult>, B::Error> {
        let shape = self.array_shape(to)?;
        let cells = frontier
            .remove(to)
            .unwrap_or_else(|| vec![CellSet::empty(shape); nq]);
        Ok(cells
            .into_iter()
            .zip(reports)
            .map(|(cells, report)| QueryResult { cells, report })
            .collect())
    }

    /// Executes one `(operator, input index)` step for every intermediate in
    /// `currents`, returning the per-query results and reports.
    fn step_many(
        &mut self,
        op_id: OpId,
        input_idx: usize,
        direction: Direction,
        currents: &[CellSet],
    ) -> Result<Vec<(CellSet, StepReport)>, B::Error> {
        let step_start = Instant::now();
        let meta = self.backend.meta(op_id)?;
        if input_idx >= meta.input_shapes.len() {
            return Err(QueryError::BadInputIndex {
                op: op_id,
                input_idx,
            }
            .into());
        }
        let target_shape = target_shape(meta, input_idx, direction);
        let stored_entries = self.backend.stored_entries(op_id);
        let op = self.node(op_id)?.operator.as_ref();
        let backward = direction == Direction::Backward;

        // --- Choose the step method per query -----------------------------
        let strategies = self.backend.strategies(op_id);
        let explicit_map = strategies.iter().any(|s| s.mode == LineageMode::Map);
        let is_composite = strategies.iter().any(|s| s.mode == LineageMode::Comp);
        // An explicit all-Blackbox assignment means "re-run this operator at
        // query time even if it has mapping functions" — that is what the
        // paper's BlackBox baseline does for every operator.
        let forced_blackbox =
            !strategies.is_empty() && strategies.iter().all(|s| s.mode == LineageMode::Blackbox);
        let use_mapping_only = if forced_blackbox {
            false
        } else if stored_entries.is_some() {
            explicit_map
        } else {
            // No materialised lineage: a mapping operator answers from its
            // mapping functions; anything else re-executes.
            op.is_mapping()
        };
        let serving = stored_entries.is_some()
            && strategies
                .iter()
                .any(|s| s.stores_pairs() && s.serves(direction));
        let reexec_cost = self.backend.reexec_cost(op_id);

        let choices: Vec<StepChoice> = currents
            .iter()
            .map(|current| {
                // Entire-array optimization, two cases (§VI-C): (a) the
                // operator is all-to-all, so any non-empty intermediate
                // spans the whole target array; (b) the intermediate already
                // covers its whole array and the operator is annotated as
                // safe to span across in this direction.
                let entire = self.options.entire_array_optimization
                    && ((op.all_to_all() && !current.is_empty())
                        || (current.is_full() && op.spans_entire_array(input_idx, backward)));
                if entire {
                    StepChoice::EntireArray
                } else if current.is_empty() {
                    StepChoice::Empty
                } else if forced_blackbox {
                    StepChoice::Reexec
                } else if use_mapping_only {
                    StepChoice::Mapping
                } else if let Some(total_entries) = stored_entries {
                    // The query-time optimizer weighs stored lineage against
                    // re-execution only where re-execution can run.
                    let use_stored = !self.options.query_time_optimizer
                        || reexec_cost.is_none_or(|cost| {
                            self.policy
                                .prefer_stored(serving, current.len(), total_entries, cost)
                        });
                    if use_stored {
                        StepChoice::Stored
                    } else {
                        StepChoice::Reexec
                    }
                } else {
                    StepChoice::Reexec
                }
            })
            .collect();

        // --- Stored lookups: one batched call for the whole group ---------
        let group: Vec<&CellSet> = currents
            .iter()
            .zip(&choices)
            .filter(|(_, &c)| c == StepChoice::Stored)
            .map(|(current, _)| current)
            .collect();
        let mut stored_outcomes = if group.is_empty() {
            Vec::new()
        } else {
            self.backend
                .lookup_many(op_id, input_idx, direction, &group)?
        }
        .into_iter();

        // --- Re-execution: trace the operator once ever per (run, op) -----
        let reexec_pairs: Option<Arc<Vec<RegionPair>>> = if choices.contains(&StepChoice::Reexec) {
            Some(self.backend.trace(op_id, self.cache.get_mut())?)
        } else {
            None
        };

        // --- Assemble per-query results ------------------------------------
        let meta = self.backend.meta(op_id)?;
        let op = self.node(op_id)?.operator.as_ref();
        let mut out = Vec::with_capacity(currents.len());
        for (current, &choice) in currents.iter().zip(&choices) {
            let (mut result, mut method, mut scanned) =
                (CellSet::empty(target_shape), StepMethod::Mapping, false);
            match choice {
                StepChoice::Empty => {
                    // Nothing ran for this query; say so instead of
                    // misattributing the step to a method that never
                    // executed (reexecutions()/any_scan() stay truthful).
                    method = StepMethod::Skipped;
                }
                StepChoice::EntireArray => {
                    result = CellSet::full(target_shape);
                    method = StepMethod::EntireArray;
                }
                StepChoice::Mapping => {
                    result = apply_mapping(op, meta, current, input_idx, direction);
                }
                StepChoice::Reexec => {
                    let pairs = reexec_pairs.as_deref().expect("trace for reexec step");
                    result = match direction {
                        Direction::Backward => {
                            reexec::backward_from_pairs(pairs, current, input_idx, op, meta)
                        }
                        Direction::Forward => {
                            reexec::forward_from_pairs(pairs, current, input_idx, op, meta)
                        }
                    };
                    method = StepMethod::Reexecution;
                }
                StepChoice::Stored => {
                    // Outcomes come back in query order, one per stored query.
                    let outcome = stored_outcomes
                        .next()
                        .expect("one outcome per stored query");
                    scanned = outcome.scanned;
                    result = outcome.result;
                    method = StepMethod::Stored;
                    // Composite lineage: the stored pairs only cover the
                    // exceptional cells; the rest follow the default mapping.
                    if is_composite {
                        let default = match direction {
                            Direction::Backward => {
                                let uncovered: Vec<Coord> = current
                                    .iter()
                                    .filter(|c| !outcome.covered.contains(c))
                                    .collect();
                                let uncovered_set =
                                    CellSet::from_coords(current.shape(), uncovered);
                                apply_mapping(op, meta, &uncovered_set, input_idx, direction)
                            }
                            Direction::Forward => {
                                // Every query cell keeps its default forward
                                // relationship in addition to any stored
                                // overrides.
                                apply_mapping(op, meta, current, input_idx, direction)
                            }
                        };
                        result.union_with(&default);
                        method = StepMethod::StoredPlusMapping;
                    }
                }
            }
            out.push((
                result,
                StepReport {
                    op_id,
                    input_idx,
                    method,
                    elapsed: step_start.elapsed(),
                    result_cells: 0, // patched below (needs the moved set)
                    scanned,
                },
            ));
        }
        for (cells, report) in &mut out {
            report.result_cells = cells.len();
        }
        Ok(out)
    }
}

/// The shape of the array a step lands on.
fn target_shape(meta: &OpMeta, input_idx: usize, direction: Direction) -> Shape {
    match direction {
        Direction::Backward => meta.input_shapes[input_idx],
        Direction::Forward => meta.output_shape,
    }
}

fn apply_mapping(
    op: &dyn subzero_engine::Operator,
    meta: &OpMeta,
    current: &CellSet,
    input_idx: usize,
    direction: Direction,
) -> CellSet {
    let target_shape = target_shape(meta, input_idx, direction);
    let mut result = CellSet::empty(target_shape);
    for cell in current.iter() {
        let mapped = match direction {
            Direction::Backward => op.map_backward(&cell, input_idx, meta),
            Direction::Forward => op.map_forward(&cell, input_idx, meta),
        };
        for c in mapped.unwrap_or_default() {
            if target_shape.contains(&c) {
                result.insert(&c);
            }
        }
        // Saturated intermediates cannot grow further; stop early.
        if result.is_full() {
            break;
        }
    }
    result
}

/// The [`ArrayNode`] an operator input edge reads from.
fn array_node_of(src: &InputSource) -> ArrayNode {
    match src {
        InputSource::Operator(op) => ArrayNode::Output(*op),
        InputSource::External(name) => ArrayNode::External(name.clone()),
    }
}

// ---------------------------------------------------------------------------
// QuerySession: DAG-derived traversals, batching, cursors.
// ---------------------------------------------------------------------------

/// A query session pinned to one executed workflow run.
///
/// Borrow one from [`SubZero::session`](crate::system::SubZero::session) (or
/// construct it from an [`Engine`] + [`Runtime`] pair) and issue queries by
/// naming arrays:
///
/// * `session.backward(cells).from(op).to_source("img")` — trace output
///   cells of `op` back to the external array `img`, through every DAG path
///   between them.
/// * `session.backward(cells).from(op).to(other_op)` — stop at another
///   operator's output array.
/// * `session.backward(cells).from(op).to_sources()` — full-workflow trace:
///   one answer per reachable external array, computed in a single traversal.
/// * `session.backward_many(batches).from(op).to_source("img")` — a batch of
///   queries answered in one pass: every step shares datastore handles,
///   decoded entries and (for mismatched-direction stores) the single full
///   scan across the whole batch.
/// * `session.forward(cells).from_source("img").to(op)` — forward queries,
///   with the same `_many` batching.
/// * `...cursor_to_source("img")` — a [`LineageCursor`] streaming per-step
///   results instead of only the final answer.
///
/// Work is amortised across the queries of one session: traced re-execution
/// pairs are computed once per operator and reused by every later query.
pub struct QuerySession<'a> {
    walk: QueryWalk<'a, LocalBackend<'a>>,
}

impl<'a> QuerySession<'a> {
    /// Creates a session over one executed run.
    pub fn new(engine: &'a Engine, runtime: &'a mut Runtime, run: &'a WorkflowRun) -> Self {
        QuerySession {
            walk: QueryWalk::new(LocalBackend {
                engine,
                runtime,
                run,
            }),
        }
    }

    /// Overrides the executor options.
    pub fn with_options(mut self, options: QueryOptions) -> Self {
        self.walk.options = options;
        self
    }

    /// Overrides the query-time policy.
    pub fn with_policy(mut self, policy: QueryTimePolicy) -> Self {
        self.walk.policy = policy;
        self
    }

    /// Threads a cross-session [`QueryCache`] through this session: plans
    /// and re-execution traces are served from (and derived into) `cache`
    /// instead of a session-private one.  The system façade does this with
    /// the cache it owns, so the artifacts survive the session borrow.
    pub fn with_cache(mut self, cache: &'a mut QueryCache) -> Self {
        self.walk.cache = CacheHandle::Shared(cache);
        self
    }

    /// Replaces the executor options for subsequent queries.
    pub fn set_options(&mut self, options: QueryOptions) {
        self.walk.options = options;
    }

    /// Replaces the query-time policy for subsequent queries.
    pub fn set_policy(&mut self, policy: QueryTimePolicy) {
        self.walk.policy = policy;
    }

    /// The run this session queries.
    pub fn run(&self) -> &WorkflowRun {
        self.walk.backend.run
    }

    /// Starts a backward query over one set of cells.
    pub fn backward(&mut self, cells: Vec<Coord>) -> BackwardQuery<'_, 'a> {
        BackwardQuery(BackwardBatch {
            session: self,
            batches: vec![cells],
            from: None,
        })
    }

    /// Starts a batch of backward queries, answered in one shared pass.
    ///
    /// The batch shares decoded entries, datastore handles and (on a
    /// mismatched index direction) one streamed full scan; results come
    /// back in query order.
    ///
    /// ```
    /// use std::collections::HashMap;
    /// use std::sync::Arc;
    /// use subzero::prelude::*;
    /// use subzero_engine::ops::{Elementwise1, UnaryKind};
    ///
    /// let mut b = Workflow::builder("backward-many-doc");
    /// let scale = b.add_source(Arc::new(Elementwise1::new(UnaryKind::Scale(2.0))), "img");
    /// let wf = Arc::new(b.build().unwrap());
    ///
    /// let mut subzero = SubZero::new();
    /// let mut inputs = HashMap::new();
    /// inputs.insert("img".to_string(), Array::from_rows(&[vec![1.0, 3.0]]));
    /// let run = subzero.execute(&wf, &inputs).unwrap();
    ///
    /// // Two backward queries answered in one shared pass.
    /// let mut session = subzero.session(&run);
    /// let results = session
    ///     .backward_many(vec![vec![Coord::d2(0, 0)], vec![Coord::d2(0, 1)]])
    ///     .from(scale)
    ///     .to_source("img")
    ///     .unwrap();
    /// assert_eq!(results.len(), 2);
    /// assert_eq!(results[0].cells.to_coords(), vec![Coord::d2(0, 0)]);
    /// assert_eq!(results[1].cells.to_coords(), vec![Coord::d2(0, 1)]);
    /// ```
    pub fn backward_many(&mut self, batches: Vec<Vec<Coord>>) -> BackwardBatch<'_, 'a> {
        BackwardBatch {
            session: self,
            batches,
            from: None,
        }
    }

    /// Starts a forward query over one set of cells.
    pub fn forward(&mut self, cells: Vec<Coord>) -> ForwardQuery<'_, 'a> {
        ForwardQuery(ForwardBatch {
            session: self,
            batches: vec![cells],
            from: None,
        })
    }

    /// Starts a batch of forward queries, answered in one shared pass.
    pub fn forward_many(&mut self, batches: Vec<Vec<Coord>>) -> ForwardBatch<'_, 'a> {
        ForwardBatch {
            session: self,
            batches,
            from: None,
        }
    }

    /// Runs one declarative [`QuerySpec`].
    pub fn query(&mut self, spec: &QuerySpec) -> Result<QueryResult, QueryError> {
        self.query_many(spec, std::slice::from_ref(&spec.cells))
            .map(|mut v| v.pop().expect("one result per batch"))
    }

    /// Runs one [`QuerySpec`] shape over several cell batches (the spec's
    /// own `cells` are ignored), sharing every step across the batch.
    pub fn query_many(
        &mut self,
        spec: &QuerySpec,
        batches: &[Vec<Coord>],
    ) -> Result<Vec<QueryResult>, QueryError> {
        self.walk.query_many(spec, batches)
    }

    /// Merged edges of several backward plans, in one valid execution order.
    fn merge_backward_edges(&self, plans: &[(String, paths::TracePlan)]) -> Vec<Edge> {
        let wanted: HashSet<Edge> = plans
            .iter()
            .flat_map(|(_, p)| p.edges.iter().copied())
            .collect();
        let wf: &Workflow = &self.run().workflow;
        let mut edges = Vec::with_capacity(wanted.len());
        for &op in wf.topo_order().iter().rev() {
            let Ok(node) = wf.node(op) else { continue };
            for idx in 0..node.inputs.len() {
                if wanted.contains(&(op, idx)) {
                    edges.push((op, idx));
                }
            }
        }
        edges
    }
}

impl fmt::Debug for QuerySession<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuerySession")
            .field("run_id", &self.run().run_id)
            .finish()
    }
}

/// Builder for a batch of backward queries (see [`QuerySession`]).
pub struct BackwardBatch<'s, 'a> {
    session: &'s mut QuerySession<'a>,
    batches: Vec<Vec<Coord>>,
    from: Option<OpId>,
}

impl<'s, 'a> BackwardBatch<'s, 'a> {
    /// Names the operator whose output array the query cells live on.
    pub fn from(mut self, op: OpId) -> Self {
        self.from = Some(op);
        self
    }

    fn origin(&self) -> Result<ArrayNode, QueryError> {
        self.from
            .map(ArrayNode::Output)
            .ok_or(QueryError::MissingOrigin)
    }

    fn run_to(self, to: ArrayNode) -> Result<Vec<QueryResult>, QueryError> {
        let from = self.origin()?;
        let spec = QuerySpec {
            direction: Direction::Backward,
            cells: Vec::new(),
            from,
            to,
        };
        self.session.query_many(&spec, &self.batches)
    }

    /// Traces every query of the batch back to the output array of `op`.
    pub fn to(self, op: OpId) -> Result<Vec<QueryResult>, QueryError> {
        self.run_to(ArrayNode::Output(op))
    }

    /// Traces every query of the batch back to the external array `source`.
    pub fn to_source(self, source: impl Into<String>) -> Result<Vec<QueryResult>, QueryError> {
        self.run_to(ArrayNode::external(source))
    }
}

/// Builder for one backward query (see [`QuerySession`]).
pub struct BackwardQuery<'s, 'a>(BackwardBatch<'s, 'a>);

impl<'s, 'a> BackwardQuery<'s, 'a> {
    /// Names the operator whose output array the query cells live on.
    pub fn from(self, op: OpId) -> Self {
        BackwardQuery(self.0.from(op))
    }

    /// Traces the cells back to the output array of `op`.
    pub fn to(self, op: OpId) -> Result<QueryResult, QueryError> {
        Ok(self.0.to(op)?.pop().expect("one result"))
    }

    /// Traces the cells back to the external array `source`.
    pub fn to_source(self, source: impl Into<String>) -> Result<QueryResult, QueryError> {
        Ok(self.0.to_source(source)?.pop().expect("one result"))
    }

    /// Full-workflow trace: one answer per external array reachable from the
    /// origin, computed in a *single* traversal of the merged sub-DAG (a
    /// shared prefix step runs once, not once per source).
    pub fn to_sources(self) -> Result<Vec<(String, QueryResult)>, QueryError> {
        let from_op = self.0.from.ok_or(QueryError::MissingOrigin)?;
        let session = self.0.session;
        let plans = paths::backward_source_plans(&session.run().workflow, from_op)?;
        if plans.is_empty() {
            return Ok(Vec::new());
        }
        let edges = session.merge_backward_edges(&plans);
        let from = ArrayNode::Output(from_op);
        let (mut frontier, reports) =
            session
                .walk
                .run_edges(Direction::Backward, &edges, &from, &self.0.batches)?;
        let mut out = Vec::with_capacity(plans.len());
        for (name, _plan) in plans {
            let to = ArrayNode::external(name.clone());
            let results = session
                .walk
                .collect_results(&mut frontier, &to, reports.clone(), 1)?;
            let result = results.into_iter().next().expect("one result");
            out.push((name, result));
        }
        Ok(out)
    }

    /// A [`LineageCursor`] streaming per-step results toward the output
    /// array of `op`.
    pub fn cursor_to(self, op: OpId) -> Result<LineageCursor<'s, 'a>, QueryError> {
        self.cursor(ArrayNode::Output(op))
    }

    /// A [`LineageCursor`] streaming per-step results toward the external
    /// array `source`.
    pub fn cursor_to_source(
        self,
        source: impl Into<String>,
    ) -> Result<LineageCursor<'s, 'a>, QueryError> {
        self.cursor(ArrayNode::external(source))
    }

    fn cursor(self, to: ArrayNode) -> Result<LineageCursor<'s, 'a>, QueryError> {
        let from = self.0.origin()?;
        LineageCursor::new(
            self.0.session,
            Direction::Backward,
            from,
            to,
            self.0.batches,
        )
    }
}

/// Builder for a batch of forward queries (see [`QuerySession`]).
pub struct ForwardBatch<'s, 'a> {
    session: &'s mut QuerySession<'a>,
    batches: Vec<Vec<Coord>>,
    from: Option<ArrayNode>,
}

impl<'s, 'a> ForwardBatch<'s, 'a> {
    /// Names the operator whose *output* array the query cells live on.
    pub fn from(mut self, op: OpId) -> Self {
        self.from = Some(ArrayNode::Output(op));
        self
    }

    /// Names the external array the query cells live on.
    pub fn from_source(mut self, source: impl Into<String>) -> Self {
        self.from = Some(ArrayNode::external(source));
        self
    }

    /// Traces every query of the batch forward to the output array of `op`.
    pub fn to(self, op: OpId) -> Result<Vec<QueryResult>, QueryError> {
        let from = self.from.ok_or(QueryError::MissingOrigin)?;
        let spec = QuerySpec {
            direction: Direction::Forward,
            cells: Vec::new(),
            from,
            to: ArrayNode::Output(op),
        };
        self.session.query_many(&spec, &self.batches)
    }
}

/// Builder for one forward query (see [`QuerySession`]).
pub struct ForwardQuery<'s, 'a>(ForwardBatch<'s, 'a>);

impl<'s, 'a> ForwardQuery<'s, 'a> {
    /// Names the operator whose *output* array the query cells live on.
    pub fn from(self, op: OpId) -> Self {
        ForwardQuery(self.0.from(op))
    }

    /// Names the external array the query cells live on.
    pub fn from_source(self, source: impl Into<String>) -> Self {
        ForwardQuery(self.0.from_source(source))
    }

    /// Traces the cells forward to the output array of `op`.
    pub fn to(self, op: OpId) -> Result<QueryResult, QueryError> {
        Ok(self.0.to(op)?.pop().expect("one result"))
    }

    /// A [`LineageCursor`] streaming per-step results toward the output
    /// array of `op`.
    pub fn cursor_to(self, op: OpId) -> Result<LineageCursor<'s, 'a>, QueryError> {
        let from = self.0.from.clone().ok_or(QueryError::MissingOrigin)?;
        LineageCursor::new(
            self.0.session,
            Direction::Forward,
            from,
            ArrayNode::Output(op),
            self.0.batches,
        )
    }
}

/// One step yielded by a [`LineageCursor`].
#[derive(Clone, Debug)]
pub struct CursorStep {
    /// The operator traversed.
    pub op_id: OpId,
    /// The input index traversed.
    pub input_idx: usize,
    /// The step's result cells (on the edge's target array).
    pub cells: CellSet,
    /// The step's diagnostics.
    pub report: StepReport,
}

/// A streaming lineage query: yields one [`CursorStep`] per traversal edge
/// instead of only the final answer, so callers can render or abort
/// long multi-step traces incrementally.  [`finish`](LineageCursor::finish)
/// drains the remaining steps and returns the final [`QueryResult`].
pub struct LineageCursor<'s, 'a> {
    session: &'s mut QuerySession<'a>,
    direction: Direction,
    edges: Arc<Vec<Edge>>,
    next: usize,
    frontier: Frontier,
    reports: Vec<QueryReport>,
    to: ArrayNode,
    started: Instant,
}

impl<'s, 'a> LineageCursor<'s, 'a> {
    fn new(
        session: &'s mut QuerySession<'a>,
        direction: Direction,
        from: ArrayNode,
        to: ArrayNode,
        batches: Vec<Vec<Coord>>,
    ) -> Result<Self, QueryError> {
        let edges = session.walk.plan_for(direction, &from, &to)?;
        let (frontier, reports) = session.walk.seed(&from, &batches)?;
        Ok(LineageCursor {
            session,
            direction,
            edges,
            next: 0,
            frontier,
            reports,
            to,
            started: Instant::now(),
        })
    }

    /// Remaining traversal edges (including skipped empty ones).
    pub fn remaining_steps(&self) -> usize {
        self.edges.len() - self.next
    }

    /// Executes the next traversal edge, returning its step result.  Edges
    /// whose intermediates are empty are skipped silently.  Returns `None`
    /// when the traversal is complete.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Result<CursorStep, QueryError>> {
        while self.next < self.edges.len() {
            let (op_id, input_idx) = self.edges[self.next];
            self.next += 1;
            match self.session.walk.run_edge(
                self.direction,
                op_id,
                input_idx,
                &mut self.frontier,
                &mut self.reports,
            ) {
                Err(e) => return Some(Err(e)),
                Ok(None) => continue,
                Ok(Some(mut results)) => {
                    let (cells, report) = results.swap_remove(0);
                    return Some(Ok(CursorStep {
                        op_id,
                        input_idx,
                        cells,
                        report,
                    }));
                }
            }
        }
        None
    }

    /// Drains the remaining steps and returns the final result (of the first
    /// query, which is the only one for cursors built from single-query
    /// builders).
    pub fn finish(mut self) -> Result<QueryResult, QueryError> {
        while let Some(step) = self.next() {
            step?;
        }
        let nq = self.reports.len();
        let mut reports = std::mem::take(&mut self.reports);
        for r in &mut reports {
            r.total_elapsed = self.started.elapsed();
        }
        let mut results =
            self.session
                .walk
                .collect_results(&mut self.frontier, &self.to, reports, nq)?;
        Ok(results.swap_remove(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LineageStrategy, StorageStrategy};
    use std::collections::HashMap;
    use std::sync::Arc;
    use subzero_array::{Array, Shape};
    use subzero_engine::ops::{
        AggregateKind, BinaryKind, Convolve, Elementwise1, Elementwise2, GlobalAggregate, UnaryKind,
    };
    use subzero_engine::Workflow;

    /// scale -> convolve(r=1) -> global mean
    fn pipeline() -> Arc<Workflow> {
        let mut b = Workflow::builder("q");
        let a = b.add_source(Arc::new(Elementwise1::new(UnaryKind::Scale(2.0))), "img");
        let c = b.add_unary(Arc::new(Convolve::box_blur(1)), a);
        let _m = b.add_unary(Arc::new(GlobalAggregate::new(AggregateKind::Mean)), c);
        Arc::new(b.build().unwrap())
    }

    fn externals() -> HashMap<String, Array> {
        let mut m = HashMap::new();
        m.insert("img".to_string(), Array::filled(Shape::d2(6, 6), 1.0));
        m
    }

    fn run_pipeline(strategy: LineageStrategy) -> (Engine, Runtime, WorkflowRun) {
        let wf = pipeline();
        let mut rt = Runtime::in_memory();
        rt.set_strategy(strategy);
        let mut engine = Engine::new();
        let run = engine.execute(&wf, &externals(), &mut rt).unwrap();
        (engine, rt, run)
    }

    /// Answers one explicit path by chaining one-edge session queries: each
    /// step is a cursor from the array it starts on to the array across its
    /// edge, read at the step that crosses exactly that edge, and its answer
    /// seeds the next step.
    fn chained_answer(
        session: &mut QuerySession<'_>,
        direction: Direction,
        mut cells: Vec<Coord>,
        path: &[Edge],
    ) -> CellSet {
        let mut answer = None;
        for &(op, idx) in path {
            let side = array_node_of(&session.run().workflow.node(op).unwrap().inputs[idx]);
            let (from, to) = match direction {
                Direction::Backward => (ArrayNode::Output(op), side),
                Direction::Forward => (side, ArrayNode::Output(op)),
            };
            let mut cursor = LineageCursor::new(session, direction, from, to, vec![cells]).unwrap();
            let step = std::iter::from_fn(|| cursor.next())
                .map(Result::unwrap)
                .find(|step| (step.op_id, step.input_idx) == (op, idx))
                .expect("the one-edge query crosses its edge");
            cells = step.cells.to_coords();
            answer = Some(step.cells);
        }
        answer.expect("a non-empty path")
    }

    #[test]
    fn backward_query_through_mapping_operators() {
        let (engine, mut rt, run) = run_pipeline(LineageStrategy::new());
        let mut session = QuerySession::new(&engine, &mut rt, &run);
        // Trace one cell of the convolve output back through convolve and
        // scale: radius-1 neighbourhood, then identity.
        let result = session
            .backward(vec![Coord::d2(3, 3)])
            .from(1)
            .to_source("img")
            .unwrap();
        assert_eq!(result.cells.len(), 9);
        assert!(result.cells.contains(&Coord::d2(2, 2)));
        assert_eq!(result.report.steps.len(), 2);
        assert!(result
            .report
            .steps
            .iter()
            .all(|s| s.method == StepMethod::Mapping));
    }

    #[test]
    fn session_backward_query_infers_the_path() {
        let (engine, mut rt, run) = run_pipeline(LineageStrategy::new());
        let mut session = QuerySession::new(&engine, &mut rt, &run);
        // Same trace as above, but no hand-assembled path: from the convolve
        // output back to the source image.
        let result = session
            .backward(vec![Coord::d2(3, 3)])
            .from(1)
            .to_source("img")
            .unwrap();
        assert_eq!(result.cells.len(), 9);
        assert!(result.cells.contains(&Coord::d2(2, 2)));
        assert_eq!(result.report.steps.len(), 2);
        // Stopping at the scale operator's output instead.
        let result = session
            .backward(vec![Coord::d2(3, 3)])
            .from(1)
            .to(0)
            .unwrap();
        assert_eq!(result.cells.len(), 9);
        assert_eq!(result.report.steps.len(), 1);
    }

    #[test]
    fn session_forward_query_infers_the_path() {
        let (engine, mut rt, run) = run_pipeline(LineageStrategy::new());
        let mut session = QuerySession::new(&engine, &mut rt, &run);
        let result = session
            .forward(vec![Coord::d2(0, 0)])
            .from_source("img")
            .to(2)
            .unwrap();
        assert_eq!(result.cells.to_coords(), vec![Coord::d2(0, 0)]);
        assert_eq!(result.report.steps.len(), 3);
        // From an operator's output array.
        let result = session
            .forward(vec![Coord::d2(0, 0)])
            .from(0)
            .to(1)
            .unwrap();
        assert_eq!(result.report.steps.len(), 1);
        assert_eq!(result.cells.len(), 4, "corner neighbourhood");
    }

    #[test]
    fn session_full_trace_returns_per_source_answers() {
        let (engine, mut rt, run) = run_pipeline(LineageStrategy::new());
        let mut session = QuerySession::new(&engine, &mut rt, &run);
        let traced = session
            .backward(vec![Coord::d2(3, 3)])
            .from(1)
            .to_sources()
            .unwrap();
        assert_eq!(traced.len(), 1);
        assert_eq!(traced[0].0, "img");
        assert_eq!(traced[0].1.cells.len(), 9);
    }

    #[test]
    fn session_missing_origin_and_bad_endpoints_error() {
        let (engine, mut rt, run) = run_pipeline(LineageStrategy::new());
        let mut session = QuerySession::new(&engine, &mut rt, &run);
        assert!(matches!(
            session.backward(vec![Coord::d2(0, 0)]).to_source("img"),
            Err(QueryError::MissingOrigin)
        ));
        assert!(matches!(
            session
                .backward(vec![Coord::d2(0, 0)])
                .from(1)
                .to_source("nope"),
            Err(QueryError::Path(PathError::UnknownSource(_)))
        ));
        assert!(matches!(
            session.backward(vec![Coord::d2(0, 0)]).from(99).to(0),
            Err(QueryError::Path(PathError::UnknownOperator(99)))
        ));
        // Forward from a downstream array to an upstream operator: no path.
        assert!(matches!(
            session.forward(vec![Coord::d2(0, 0)]).from(2).to(0),
            Err(QueryError::Path(PathError::NoPath { .. }))
        ));
    }

    #[test]
    fn batched_queries_match_one_at_a_time() {
        // Across strategies (incl. a mismatched-direction store that scans),
        // backward_many/forward_many return exactly what per-query calls do.
        let strategies = vec![
            LineageStrategy::new(),
            LineageStrategy::uniform([1], vec![StorageStrategy::full_many()]),
            LineageStrategy::uniform([1], vec![StorageStrategy::full_one_forward()]),
        ];
        for strategy in strategies {
            let (engine, mut rt, run) = run_pipeline(strategy);
            let batches: Vec<Vec<Coord>> = (0..5)
                .map(|i| vec![Coord::d2(i, i), Coord::d2(i, 5 - i)])
                .collect();
            let mut session = QuerySession::new(&engine, &mut rt, &run);
            let singles: Vec<QueryResult> = batches
                .iter()
                .map(|cells| {
                    session
                        .backward(cells.clone())
                        .from(1)
                        .to_source("img")
                        .unwrap()
                })
                .collect();
            let batched = session
                .backward_many(batches.clone())
                .from(1)
                .to_source("img")
                .unwrap();
            assert_eq!(batched.len(), singles.len());
            for (b, s) in batched.iter().zip(&singles) {
                assert_eq!(b.cells, s.cells);
                assert_eq!(b.report.steps.len(), s.report.steps.len());
                for (bs, ss) in b.report.steps.iter().zip(&s.report.steps) {
                    assert_eq!(bs.method, ss.method);
                    assert_eq!(bs.scanned, ss.scanned);
                }
            }
            // Forward batches too.
            let fwd_singles: Vec<QueryResult> = batches
                .iter()
                .map(|cells| {
                    session
                        .forward(cells.clone())
                        .from_source("img")
                        .to(1)
                        .unwrap()
                })
                .collect();
            let fwd_batched = session
                .forward_many(batches)
                .from_source("img")
                .to(1)
                .unwrap();
            for (b, s) in fwd_batched.iter().zip(&fwd_singles) {
                assert_eq!(b.cells, s.cells);
            }
        }
    }

    /// A diamond workflow whose two branches have different lineage
    /// footprints: src -> scale -> {blur, shift-free scale} -> mean2.
    fn diamond() -> (Arc<Workflow>, HashMap<String, Array>) {
        let mut b = Workflow::builder("diamond");
        let a = b.add_source(Arc::new(Elementwise1::new(UnaryKind::Scale(2.0))), "ext");
        let blur = b.add_unary(Arc::new(Convolve::box_blur(1)), a);
        let ident = b.add_unary(Arc::new(Elementwise1::new(UnaryKind::Offset(1.0))), a);
        let _join = b.add_binary(Arc::new(Elementwise2::new(BinaryKind::Mean)), blur, ident);
        let wf = Arc::new(b.build().unwrap());
        let mut m = HashMap::new();
        m.insert("ext".to_string(), Array::filled(Shape::d2(6, 6), 1.0));
        (wf, m)
    }

    #[test]
    fn diamond_inference_equals_union_of_per_path_answers() {
        // On a join + fan-out workflow the inferred multi-path answer must
        // equal the union of per-path answers (each chained from one-edge
        // queries), for both the mapping-function strategy and stored
        // lineage.
        let (wf, inputs) = diamond();
        let strategies = vec![
            ("mapping", LineageStrategy::new()),
            (
                "stored",
                LineageStrategy::uniform(0..4, vec![StorageStrategy::full_many()]),
            ),
        ];
        for (label, strategy) in strategies {
            let mut rt = Runtime::in_memory();
            rt.set_strategy(strategy);
            let mut engine = Engine::new();
            let run = engine.execute(&wf, &inputs, &mut rt).unwrap();
            let cells = vec![Coord::d2(2, 2), Coord::d2(3, 4)];

            // Per-path answers through each branch of the join.
            let mut session = QuerySession::new(&engine, &mut rt, &run);
            let back = Direction::Backward;
            let via_blur =
                chained_answer(&mut session, back, cells.clone(), &[(3, 0), (1, 0), (0, 0)]);
            let via_ident =
                chained_answer(&mut session, back, cells.clone(), &[(3, 1), (2, 0), (0, 0)]);
            assert_ne!(via_blur, via_ident, "the branches differ ({label})");
            let mut union = via_blur;
            union.union_with(&via_ident);

            // Forward per-path answers: fan-out then join.
            let fwd_cells = vec![Coord::d2(2, 2)];
            let fwd = Direction::Forward;
            let mut fwd_union = chained_answer(
                &mut session,
                fwd,
                fwd_cells.clone(),
                &[(0, 0), (1, 0), (3, 0)],
            );
            fwd_union.union_with(&chained_answer(
                &mut session,
                fwd,
                fwd_cells.clone(),
                &[(0, 0), (2, 0), (3, 1)],
            ));

            let inferred = session
                .backward(cells.clone())
                .from(3)
                .to_source("ext")
                .unwrap();
            assert_eq!(inferred.cells, union, "backward union differs ({label})");
            let fwd_inferred = session.forward(fwd_cells).from_source("ext").to(3).unwrap();
            assert_eq!(
                fwd_inferred.cells, fwd_union,
                "forward union differs ({label})"
            );
        }
    }

    #[test]
    fn cursor_streams_per_step_results() {
        let (engine, mut rt, run) = run_pipeline(LineageStrategy::new());
        let mut session = QuerySession::new(&engine, &mut rt, &run);
        let mut cursor = session
            .backward(vec![Coord::d2(3, 3)])
            .from(1)
            .cursor_to_source("img")
            .unwrap();
        assert_eq!(cursor.remaining_steps(), 2);
        let first = cursor.next().unwrap().unwrap();
        assert_eq!(first.op_id, 1);
        assert_eq!(first.cells.len(), 9, "blur neighbourhood");
        let second = cursor.next().unwrap().unwrap();
        assert_eq!(second.op_id, 0);
        let final_result = cursor.finish().unwrap();
        assert_eq!(final_result.cells.len(), 9);
        assert_eq!(final_result.report.steps.len(), 2);
    }

    #[test]
    fn forward_query_through_mapping_operators() {
        let (engine, mut rt, run) = run_pipeline(LineageStrategy::new());
        let mut session = QuerySession::new(&engine, &mut rt, &run);
        // A corner input pixel influences its 4-cell neighbourhood after the
        // convolve, and the single mean cell at the end.
        let result = session
            .forward(vec![Coord::d2(0, 0)])
            .from_source("img")
            .to(2)
            .unwrap();
        assert_eq!(result.cells.to_coords(), vec![Coord::d2(0, 0)]);
        assert_eq!(result.report.steps.len(), 3);
    }

    #[test]
    fn entire_array_optimization_short_circuits_all_to_all() {
        let (engine, mut rt, run) = run_pipeline(LineageStrategy::new());
        // Backward from the global mean: its lineage is the whole convolve
        // output, so the step is answered by the entire-array optimization
        // and the remaining steps saturate.
        let mut session = QuerySession::new(&engine, &mut rt, &run);
        let spec = QuerySpec::backward_to_source(vec![Coord::d2(0, 0)], 2, "img");
        let result = session.query(&spec).unwrap();
        assert!(result.cells.is_full());
        // The first step (global mean) saturates via mapping or entire-array;
        // with a full intermediate the later all-to-all steps do not apply
        // (convolve is not all-to-all) but mapping still saturates them.
        assert_eq!(result.report.steps.len(), 3);

        assert_eq!(result.report.steps[0].method, StepMethod::EntireArray);

        // With the optimization disabled the answer is identical, just slower.
        session.set_options(QueryOptions {
            entire_array_optimization: false,
            query_time_optimizer: true,
        });
        let result2 = session.query(&spec).unwrap();
        assert!(result2.cells.is_full());
        assert!(result2
            .report
            .steps
            .iter()
            .all(|s| s.method != StepMethod::EntireArray));
    }

    #[test]
    fn stored_lineage_answers_when_mapping_not_assigned() {
        // Store full lineage for the convolve operator and force its use by
        // assigning only a Full strategy.
        let mut strategy = LineageStrategy::new();
        strategy.set(1, vec![StorageStrategy::full_one()]);
        let (engine, mut rt, run) = run_pipeline(strategy);
        assert!(rt.has_lineage(run.run_id, 1));
        let mut session = QuerySession::new(&engine, &mut rt, &run);
        let result = session
            .backward(vec![Coord::d2(3, 3)])
            .from(1)
            .to(0)
            .unwrap();
        assert_eq!(result.cells.len(), 9);
        assert_eq!(result.report.steps[0].method, StepMethod::Stored);
    }

    #[test]
    fn blackbox_step_reexecutes() {
        // No strategy and a non-mapping operator: force re-execution by
        // wrapping convolve in a black-box-only operator.
        use subzero_array::ArrayRef;
        use subzero_engine::{LineageSink, Operator};

        struct OpaqueBlur;
        impl Operator for OpaqueBlur {
            fn name(&self) -> &str {
                "opaque-blur"
            }
            fn output_shape(&self, s: &[Shape]) -> Shape {
                s[0]
            }
            fn supported_modes(&self) -> Vec<LineageMode> {
                vec![LineageMode::Full, LineageMode::Blackbox]
            }
            fn run(
                &self,
                inputs: &[ArrayRef],
                cur_modes: &[LineageMode],
                sink: &mut dyn LineageSink,
            ) -> Array {
                let input = &inputs[0];
                if cur_modes.contains(&LineageMode::Full) {
                    for (c, _) in input.iter() {
                        sink.lwrite(vec![c], vec![input.shape().neighborhood(&c, 1)]);
                    }
                }
                input.clone().map(|v| v)
            }
        }

        let mut b = Workflow::builder("bb");
        let _x = b.add_source(Arc::new(OpaqueBlur), "img");
        let wf = Arc::new(b.build().unwrap());
        let mut rt = Runtime::in_memory();
        let mut engine = Engine::new();
        let run = engine.execute(&wf, &externals(), &mut rt).unwrap();

        let mut session = QuerySession::new(&engine, &mut rt, &run);
        let a = session
            .backward(vec![Coord::d2(2, 2)])
            .from(0)
            .to_source("img")
            .unwrap();
        assert_eq!(a.cells.len(), 9);
        assert_eq!(a.report.steps[0].method, StepMethod::Reexecution);
        assert_eq!(a.report.reexecutions(), 1);

        // The session caches traced pairs: a second query against the same
        // operator reuses them and gives the same answer.
        let b = session
            .backward(vec![Coord::d2(2, 2)])
            .from(0)
            .to_source("img")
            .unwrap();
        assert_eq!(a.cells, b.cells);
        assert_eq!(b.report.reexecutions(), 1);
    }

    /// A backend whose recorded shapes disagree with the DAG: operator
    /// `short` claims no inputs although the workflow wires one.
    struct ShortMeta<'a> {
        run: &'a WorkflowRun,
        short: OpId,
        short_meta: OpMeta,
    }

    impl QueryBackend for ShortMeta<'_> {
        type Error = QueryError;

        fn workflow(&self) -> &Workflow {
            &self.run.workflow
        }

        fn meta(&self, op: OpId) -> Result<&OpMeta, QueryError> {
            if op == self.short {
                Ok(&self.short_meta)
            } else {
                Ok(&self.run.record(op)?.meta)
            }
        }

        fn strategies(&self, _op: OpId) -> &[StorageStrategy] {
            &[]
        }

        fn stored_entries(&mut self, _op: OpId) -> Option<usize> {
            None
        }

        fn lookup_many(
            &mut self,
            _op: OpId,
            _input_idx: usize,
            _direction: Direction,
            _queries: &[&CellSet],
        ) -> Result<Vec<LookupOutcome>, QueryError> {
            unreachable!("nothing is stored")
        }
    }

    #[test]
    fn errors_for_bad_queries() {
        let (engine, mut rt, run) = run_pipeline(LineageStrategy::new());
        // A step across an input the operator's shapes do not have.
        let short_meta = OpMeta::new(Vec::new(), run.record(1).unwrap().meta.output_shape);
        let mut walk = QueryWalk::new(ShortMeta {
            run: &run,
            short: 1,
            short_meta,
        });
        let spec = QuerySpec::backward(vec![Coord::d2(0, 0)], 1, ArrayNode::Output(0));
        assert!(matches!(
            walk.query_many(&spec, std::slice::from_ref(&spec.cells)),
            Err(QueryError::BadInputIndex {
                op: 1,
                input_idx: 0
            })
        ));
        // A run without a record of the queried operator.
        let mut partial = run.clone();
        partial.records.remove(&1);
        let mut session = QuerySession::new(&engine, &mut rt, &partial);
        assert!(matches!(
            session.query(&spec),
            Err(QueryError::Engine(EngineError::NotExecuted {
                op_id: 1,
                ..
            }))
        ));
    }

    #[test]
    fn query_time_policy_estimates() {
        let policy = QueryTimePolicy::default();
        // Indexed lookups over a few cells are always preferred.
        assert!(policy.prefer_stored(true, 10, 100_000, Duration::from_millis(1)));
        // A full scan of a huge store versus a fast operator prefers re-execution.
        assert!(!policy.prefer_stored(false, 10, 10_000_000, Duration::from_micros(50)));
        // Estimates scale with entry counts.
        assert!(policy.stored_estimate(false, 10, 1000) > policy.stored_estimate(true, 10, 1000));
    }

    #[test]
    fn query_time_optimizer_switches_to_reexecution_on_mismatched_index() {
        // Store only forward-optimized lineage, then run a backward query.
        // With the query-time optimizer the step may fall back to
        // re-execution; without it the step must scan.
        let mut strategy = LineageStrategy::new();
        strategy.set(1, vec![StorageStrategy::full_one_forward()]);
        let (engine, mut rt, run) = run_pipeline(strategy.clone());
        let spec = QuerySpec::backward(vec![Coord::d2(3, 3)], 1, ArrayNode::Output(0));

        let static_result = QuerySession::new(&engine, &mut rt, &run)
            .with_options(QueryOptions {
                entire_array_optimization: true,
                query_time_optimizer: false,
            })
            .query(&spec)
            .unwrap();
        assert_eq!(static_result.report.steps[0].method, StepMethod::Stored);
        assert!(static_result.report.any_scan());

        let (engine, mut rt, run) = run_pipeline(strategy);
        let dynamic_result = QuerySession::new(&engine, &mut rt, &run)
            .with_policy(QueryTimePolicy {
                // Make scans look expensive so the optimizer re-executes.
                entry_cost: Duration::from_millis(10),
                ..QueryTimePolicy::default()
            })
            .query(&spec)
            .unwrap();
        assert_eq!(
            dynamic_result.report.steps[0].method,
            StepMethod::Reexecution
        );
        // Both approaches agree on the answer.
        assert_eq!(static_result.cells, dynamic_result.cells);
    }

    #[test]
    fn spec_round_trips_through_session() {
        let (engine, mut rt, run) = run_pipeline(LineageStrategy::new());
        let mut session = QuerySession::new(&engine, &mut rt, &run);
        let spec = QuerySpec::backward_to_source(vec![Coord::d2(3, 3)], 1, "img");
        let via_spec = session.query(&spec).unwrap();
        let via_builder = session
            .backward(vec![Coord::d2(3, 3)])
            .from(1)
            .to_source("img")
            .unwrap();
        assert_eq!(via_spec.cells, via_builder.cells);
        // Malformed: backward from an external array.
        let bad = QuerySpec {
            direction: Direction::Backward,
            cells: vec![],
            from: ArrayNode::external("img"),
            to: ArrayNode::Output(0),
        };
        assert!(matches!(session.query(&bad), Err(QueryError::Spec(_))));
    }
}
