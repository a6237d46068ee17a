//! Measurement helpers shared by the figure binaries.
//!
//! A benchmark run is: build a workflow and its inputs, install a lineage
//! strategy, execute the workflow (recording capture overheads), then open a
//! query session and execute a set of named lineage queries (recording
//! per-query latency).  The paper's figures are different projections of
//! exactly these measurements.
//!
//! Queries are declarative [`QuerySpec`]s — endpoint arrays, no
//! hand-assembled `(operator, input)` paths; the session derives the
//! traversal from the workflow DAG at execution time.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use subzero::model::LineageStrategy;
use subzero::query::{QueryOptions, QuerySpec};
use subzero::SubZero;
use subzero_array::Array;
use subzero_engine::executor::WorkflowRun;
use subzero_engine::Workflow;

/// A lineage query with a display name and per-query executor options.
#[derive(Clone, Debug)]
pub struct NamedQuery {
    /// Display name, e.g. `BQ 0` or `FQ 0 Slow`.
    pub name: String,
    /// The query itself: endpoint arrays + starting cells.
    pub spec: QuerySpec,
    /// Disable the entire-array optimization for this query (the paper's
    /// `FQ 0 Slow` variant).
    pub disable_entire_array: bool,
}

impl NamedQuery {
    /// A query with default options.
    pub fn new(name: impl Into<String>, spec: QuerySpec) -> Self {
        NamedQuery {
            name: name.into(),
            spec,
            disable_entire_array: false,
        }
    }

    /// The same query with the entire-array optimization disabled.
    pub fn without_entire_array(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self.disable_entire_array = true;
        self
    }
}

/// Latency and diagnostics of one query under one strategy.
#[derive(Clone, Debug)]
pub struct QueryMeasurement {
    /// The query name.
    pub name: String,
    /// Wall-clock latency.
    pub elapsed: Duration,
    /// Number of result cells.
    pub result_cells: usize,
    /// Number of steps answered by operator re-execution.
    pub reexecutions: usize,
    /// Whether any step scanned a mismatched-index datastore.
    pub scanned: bool,
}

/// Everything measured for one `(workload, strategy)` pair.
#[derive(Clone, Debug)]
pub struct BenchmarkMeasurement {
    /// The strategy configuration name (Table II).
    pub strategy_name: String,
    /// Workflow execution time including lineage capture.
    pub workflow_runtime: Duration,
    /// Lineage bytes stored (hash entries + spatial indexes).
    pub lineage_bytes: usize,
    /// Bytes of the workflow's external input arrays (the paper's reference
    /// point for storage overhead).
    pub input_bytes: usize,
    /// Per-query measurements.
    pub queries: Vec<QueryMeasurement>,
}

impl BenchmarkMeasurement {
    /// Lineage storage overhead relative to the input arrays.
    pub fn disk_overhead_ratio(&self) -> f64 {
        if self.input_bytes == 0 {
            0.0
        } else {
            self.lineage_bytes as f64 / self.input_bytes as f64
        }
    }

    /// Mean query latency across all measured queries.
    pub fn mean_query_secs(&self) -> f64 {
        if self.queries.is_empty() {
            0.0
        } else {
            self.queries
                .iter()
                .map(|q| q.elapsed.as_secs_f64())
                .sum::<f64>()
                / self.queries.len() as f64
        }
    }

    /// The latency of one named query, if it was measured.
    pub fn query_secs(&self, name: &str) -> Option<f64> {
        self.queries
            .iter()
            .find(|q| q.name == name)
            .map(|q| q.elapsed.as_secs_f64())
    }
}

/// Runs one benchmark configuration end to end: execute the workflow under
/// `strategy`, then run the queries produced by `queries_for`.
///
/// `queries_for` receives the executed system and run so it can derive query
/// cells from actual outputs (e.g. the coordinates of a detected star).
///
/// Each query runs in its own session so per-query latencies stay
/// independent (a shared session would let one query's cached re-execution
/// pairs speed up the next — good for production, wrong for a benchmark
/// that compares per-query costs across strategies).
pub fn run_benchmark(
    strategy_name: &str,
    workflow: &Arc<Workflow>,
    inputs: &HashMap<String, Array>,
    strategy: LineageStrategy,
    query_time_optimizer: bool,
    queries_for: impl Fn(&mut SubZero, &WorkflowRun) -> Vec<NamedQuery>,
) -> BenchmarkMeasurement {
    let mut sz = SubZero::new();
    sz.set_strategy(strategy);
    let run = sz
        .execute(workflow, inputs)
        .expect("benchmark workflow execution failed");
    // Build the deferred spatial indexes now and charge them to capture:
    // otherwise the first query per datastore would pay for the index build
    // and the per-query latencies would not be comparable.
    let finish_time = sz.finish_capture(run.run_id);
    let input_bytes: usize = inputs.values().map(|a| a.size_bytes()).sum();
    let lineage_bytes = sz.lineage_bytes(run.run_id);
    let workflow_runtime = run.total_elapsed + finish_time;

    let queries = queries_for(&mut sz, &run);
    let mut measurements = Vec::with_capacity(queries.len());
    for nq in queries {
        sz.set_query_options(QueryOptions {
            entire_array_optimization: !nq.disable_entire_array,
            query_time_optimizer,
        });
        let result = sz
            .session(&run)
            .query(&nq.spec)
            .unwrap_or_else(|e| panic!("query '{}' failed: {e}", nq.name));
        measurements.push(QueryMeasurement {
            name: nq.name,
            elapsed: result.report.total_elapsed,
            result_cells: result.cells.len(),
            reexecutions: result.report.reexecutions(),
            scanned: result.report.any_scan(),
        });
    }

    BenchmarkMeasurement {
        strategy_name: strategy_name.to_string(),
        workflow_runtime,
        lineage_bytes,
        input_bytes,
        queries: measurements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subzero_array::{Coord, Shape};
    use subzero_engine::ops::{Elementwise1, UnaryKind};

    #[test]
    fn run_benchmark_measures_workflow_and_queries() {
        let mut b = Workflow::builder("harness-test");
        let a = b.add_source(Arc::new(Elementwise1::new(UnaryKind::Scale(2.0))), "x");
        let c = b.add_unary(Arc::new(Elementwise1::new(UnaryKind::Offset(1.0))), a);
        let wf = Arc::new(b.build().unwrap());
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), Array::filled(Shape::d2(4, 4), 1.0));

        let m = run_benchmark(
            "Default",
            &wf,
            &inputs,
            LineageStrategy::new(),
            true,
            |_sz, _run| {
                vec![
                    NamedQuery::new(
                        "BQ 0",
                        QuerySpec::backward_to_source(vec![Coord::d2(0, 0)], c, "x"),
                    ),
                    NamedQuery::new(
                        "FQ 0",
                        QuerySpec::forward_from_source(vec![Coord::d2(1, 1)], "x", c),
                    ),
                ]
            },
        );
        assert_eq!(m.strategy_name, "Default");
        assert_eq!(m.input_bytes, 4 * 4 * 8);
        assert_eq!(m.lineage_bytes, 0, "default strategy stores nothing");
        assert_eq!(m.queries.len(), 2);
        assert_eq!(m.queries[0].result_cells, 1);
        assert!(m.query_secs("BQ 0").is_some());
        assert!(m.query_secs("missing").is_none());
        assert!(m.mean_query_secs() >= 0.0);
        assert_eq!(m.disk_overhead_ratio(), 0.0);
    }

    #[test]
    fn named_query_without_entire_array() {
        let q = NamedQuery::new(
            "FQ 0",
            QuerySpec::forward_from_source(vec![Coord::d2(0, 0)], "x", 0),
        )
        .without_entire_array("FQ 0 Slow");
        assert_eq!(q.name, "FQ 0 Slow");
        assert!(q.disable_entire_array);
    }
}
