//! Parity between a derived traversal and its paths, one edge at a time.
//!
//! A [`QuerySession`](subzero::QuerySession) derives its traversal from the
//! workflow DAG and fans out over every path at DAG joins.  Because every
//! step distributes over unions of query cells, its answer must equal the
//! *union*, over every path between the same endpoints
//! (`paths::{backward,forward}_paths`), of that path's answer — and a path's
//! answer is built here by chaining one-edge session queries along it, each
//! step's answer seeding the next.  A one-edge query is read from its
//! cursor at the step that crosses exactly that edge, so the reference
//! takes no union of its own inside the walk: when two slots of one step
//! share a producer, the enumeration lists a path through each, and the
//! union over paths is taken here.  This test asserts the equality on
//! the astronomy, genomics and micro benchmarks under every storage
//! strategy, for single-destination queries and for full-workflow traces
//! (`to_sources`).

use subzero::model::{LineageStrategy, StorageStrategy};
use subzero::query::{QueryOptions, QuerySession, QuerySpec};
use subzero::{ArrayNode, Direction, SubZero};
use subzero_array::{CellSet, Coord};
use subzero_bench::astronomy::{AstronomyWorkflow, SkyConfig, SkyGenerator};
use subzero_bench::genomics::{CohortConfig, CohortGenerator, GenomicsWorkflow};
use subzero_bench::harness::NamedQuery;
use subzero_bench::micro::{MicroConfig, MicroWorkflow};
use subzero_engine::executor::WorkflowRun;
use subzero_engine::paths::{self, Edge};
use subzero_engine::InputSource;

/// Every individual path between a spec's endpoints.
fn spec_paths(run: &WorkflowRun, spec: &QuerySpec) -> Vec<Vec<Edge>> {
    let wf = &run.workflow;
    match spec.direction {
        Direction::Backward => {
            let ArrayNode::Output(op) = spec.from else {
                panic!("backward spec starts at an operator output");
            };
            paths::backward_paths(wf, op, &spec.to).expect("paths derivable")
        }
        Direction::Forward => {
            let ArrayNode::Output(op) = spec.to else {
                panic!("forward spec ends at an operator output");
            };
            paths::forward_paths(wf, &spec.from, op).expect("paths derivable")
        }
    }
}

/// The answer of the one-edge session query across `(op, idx)`: a cursor
/// from the array the edge starts on to the array across it, read at the
/// step that crosses exactly that edge.  That step starts from the seed
/// itself, so its cells are this edge's answer alone, even where the
/// cursor's plan also takes a second slot or a longer route.
fn one_edge_answer(
    session: &mut QuerySession<'_>,
    direction: Direction,
    cells: Vec<Coord>,
    (op, idx): Edge,
    label: &str,
) -> CellSet {
    let side = session
        .run()
        .workflow
        .node(op)
        .expect("path operator")
        .inputs[idx]
        .clone();
    let cursor = match (direction, side) {
        (Direction::Backward, InputSource::Operator(p)) => {
            session.backward(cells).from(op).cursor_to(p)
        }
        (Direction::Backward, InputSource::External(name)) => {
            session.backward(cells).from(op).cursor_to_source(name)
        }
        (Direction::Forward, InputSource::Operator(p)) => {
            session.forward(cells).from(p).cursor_to(op)
        }
        (Direction::Forward, InputSource::External(name)) => {
            session.forward(cells).from_source(name).cursor_to(op)
        }
    };
    let what = format!("{label}: one-edge query across ({op}, {idx})");
    let mut cursor = cursor.unwrap_or_else(|e| panic!("{what} failed: {e}"));
    while let Some(step) = cursor.next() {
        let step = step.unwrap_or_else(|e| panic!("{what} failed: {e}"));
        if (step.op_id, step.input_idx) == (op, idx) {
            return step.cells;
        }
    }
    // No step ran: the seed was empty, and so is the answer.
    let answer = cursor
        .finish()
        .unwrap_or_else(|e| panic!("{what} failed: {e}"));
    assert!(answer.cells.is_empty(), "{what} never crossed its edge");
    answer.cells
}

/// One path's answer, chained from one-edge session queries: each step's
/// answer seeds the next.
fn chained_answer(
    session: &mut QuerySession<'_>,
    direction: Direction,
    cells: &[Coord],
    path: &[Edge],
    label: &str,
) -> CellSet {
    let (first, rest) = path.split_first().expect("paths are non-empty");
    let mut answer = one_edge_answer(session, direction, cells.to_vec(), *first, label);
    for &edge in rest {
        answer = one_edge_answer(session, direction, answer.to_coords(), edge, label);
    }
    answer
}

/// The union of the chained per-path answers.
fn union_of_paths(
    session: &mut QuerySession<'_>,
    direction: Direction,
    cells: &[Coord],
    path_list: Vec<Vec<Edge>>,
    label: &str,
) -> CellSet {
    assert!(!path_list.is_empty(), "{label}: no paths");
    let mut union: Option<CellSet> = None;
    for path in path_list {
        let answer = chained_answer(session, direction, cells, &path, label);
        match &mut union {
            None => union = Some(answer),
            Some(u) => u.union_with(&answer),
        }
    }
    union.expect("at least one path")
}

/// Session answer == union over chained per-path answers, for every query;
/// for backward queries also every answer of the full-workflow trace.
fn assert_parity(sz: &mut SubZero, run: &WorkflowRun, queries: &[NamedQuery], label: &str) {
    for nq in queries {
        let label = format!("{label} '{}'", nq.name);
        sz.set_query_options(QueryOptions {
            entire_array_optimization: !nq.disable_entire_array,
            query_time_optimizer: true,
        });
        let mut session = sz.session(run);
        let spec = &nq.spec;
        let answer = session
            .query(spec)
            .unwrap_or_else(|e| panic!("{label}: session query failed: {e}"));
        let union = union_of_paths(
            &mut session,
            spec.direction,
            &spec.cells,
            spec_paths(run, spec),
            &label,
        );
        assert_eq!(
            answer.cells, union,
            "{label}: session answer differs from the union of per-path answers"
        );

        let (Direction::Backward, ArrayNode::Output(from)) = (spec.direction, &spec.from) else {
            continue;
        };
        let traced = session
            .backward(spec.cells.clone())
            .from(*from)
            .to_sources()
            .unwrap_or_else(|e| panic!("{label}: full-workflow trace failed: {e}"));
        for (source, result) in traced {
            let to = ArrayNode::external(source.clone());
            let path_list = paths::backward_paths(&run.workflow, *from, &to).expect("paths");
            let union = union_of_paths(
                &mut session,
                Direction::Backward,
                &spec.cells,
                path_list,
                &label,
            );
            assert_eq!(
                result.cells, union,
                "{label}: traced answer on '{source}' differs from the union of \
                 per-path answers"
            );
        }
    }
}

/// Strategy configurations exercised per workload: nothing stored (mapping +
/// re-execution), full stored lineage, and forward-optimized stored lineage
/// (mismatched-direction scans on backward queries).
fn strategies_for(udfs: &[u32]) -> Vec<(&'static str, LineageStrategy)> {
    let with = |s: StorageStrategy| {
        let mut ls = LineageStrategy::new();
        for &op in udfs {
            ls.set(op, vec![s]);
        }
        ls
    };
    vec![
        ("default", LineageStrategy::new()),
        ("full_one", with(StorageStrategy::full_one())),
        ("fwd_full_one", with(StorageStrategy::full_one_forward())),
    ]
}

#[test]
fn astronomy_session_matches_legacy_path_unions() {
    let cfg = SkyConfig::tiny();
    let (e1, e2) = SkyGenerator::new(cfg).generate();
    let wf = AstronomyWorkflow::build(cfg.shape);
    let inputs = AstronomyWorkflow::inputs(e1, e2);
    for (name, strategy) in strategies_for(&wf.udfs()) {
        let mut sz = SubZero::new();
        sz.set_strategy(strategy);
        let run = sz.execute(&wf.workflow, &inputs).unwrap();
        sz.finish_capture(run.run_id);
        let queries = wf.queries(&mut sz, &run);
        assert_parity(&mut sz, &run, &queries, &format!("astronomy/{name}"));
    }
}

#[test]
fn genomics_session_matches_legacy_path_unions() {
    let cfg = CohortConfig::tiny();
    let (train, test) = CohortGenerator::new(cfg).generate();
    let wf = GenomicsWorkflow::build(&cfg);
    let inputs = GenomicsWorkflow::inputs(train, test);
    for (name, strategy) in strategies_for(&wf.udfs()) {
        let mut sz = SubZero::new();
        sz.set_strategy(strategy);
        let run = sz.execute(&wf.workflow, &inputs).unwrap();
        sz.finish_capture(run.run_id);
        let queries = wf.queries(&mut sz, &run);
        assert_parity(&mut sz, &run, &queries, &format!("genomics/{name}"));
    }
}

#[test]
fn micro_session_matches_legacy_single_path() {
    // The micro workflow has a single operator, so the parity degenerates to
    // strict equality with the one one-edge query — across every strategy
    // the figure binaries sweep, including payload encodings.
    let micro = MicroWorkflow::build(MicroConfig::tiny());
    let strategies = vec![
        ("blackbox", LineageStrategy::new()),
        (
            "full_one",
            LineageStrategy::uniform([micro.op], vec![StorageStrategy::full_one()]),
        ),
        (
            "full_many",
            LineageStrategy::uniform([micro.op], vec![StorageStrategy::full_many()]),
        ),
        (
            "pay_one",
            LineageStrategy::uniform([micro.op], vec![StorageStrategy::pay_one()]),
        ),
        (
            "pay_many",
            LineageStrategy::uniform([micro.op], vec![StorageStrategy::pay_many()]),
        ),
        (
            "fwd_full_one",
            LineageStrategy::uniform([micro.op], vec![StorageStrategy::full_one_forward()]),
        ),
    ];
    for (name, strategy) in strategies {
        let mut sz = SubZero::new();
        sz.set_strategy(strategy);
        let run = sz.execute(&micro.workflow, &micro.inputs()).unwrap();
        sz.finish_capture(run.run_id);
        let queries = vec![micro.backward_query(60), micro.forward_query(60)];
        assert_parity(&mut sz, &run, &queries, &format!("micro/{name}"));
    }
}

#[test]
fn batched_session_queries_match_singles_on_the_micro_workload() {
    // backward_many must return, per batch entry, exactly what a one-at-a-
    // time session query returns — in particular on the mismatched-direction
    // scan workload the batching exists to accelerate.
    let micro = MicroWorkflow::build(MicroConfig::tiny());
    let mut sz = SubZero::new();
    sz.set_strategy(LineageStrategy::uniform(
        [micro.op],
        vec![StorageStrategy::full_one_forward()],
    ));
    let run = sz.execute(&micro.workflow, &micro.inputs()).unwrap();
    sz.finish_capture(run.run_id);
    // Static execution: force the stored (scanning) path so the test pins
    // the shared-scan machinery rather than the re-execution fallback.
    sz.set_query_options(QueryOptions {
        entire_array_optimization: true,
        query_time_optimizer: false,
    });
    let batches = micro.backward_batches(8, 16);
    let mut session = sz.session(&run);
    let singles: Vec<CellSet> = batches
        .iter()
        .map(|cells| {
            session
                .backward(cells.clone())
                .from(micro.op)
                .to_source("input")
                .unwrap()
                .cells
        })
        .collect();
    let batched = session
        .backward_many(batches)
        .from(micro.op)
        .to_source("input")
        .unwrap();
    assert_eq!(batched.len(), singles.len());
    for (b, s) in batched.iter().zip(&singles) {
        assert_eq!(b.cells, *s);
        assert!(b.report.any_scan(), "mismatched direction must scan");
    }
}
