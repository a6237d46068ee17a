//! Cross-crate integration tests: end-to-end correctness of the lineage
//! system on the benchmark workloads.
//!
//! The central invariant is that *every* storage strategy must return the
//! same query answers as black-box re-execution (the trusted oracle), while
//! only their cost profiles differ.  These tests exercise that invariant on
//! the astronomy and genomics workflows, check the optimizer end to end, and
//! verify the paper's qualitative claims at small scale (composite lineage is
//! far smaller than full lineage, the query-time optimizer never loses badly
//! to black-box, the entire-array optimization changes cost but not answers).

use std::collections::HashMap;

use subzero::model::{LineageStrategy, StorageStrategy};
use subzero::query::{QueryOptions, QuerySpec};
use subzero::SubZero;
use subzero_array::{Array, Coord};
use subzero_bench::astronomy::{AstronomyWorkflow, SkyConfig, SkyGenerator};
use subzero_bench::genomics::{CohortConfig, CohortGenerator, GenomicsWorkflow};
use subzero_bench::harness::NamedQuery;
use subzero_bench::micro::{MicroConfig, MicroWorkflow};
use subzero_bench::strategies::{astronomy_strategies, genomics_strategies};
use subzero_engine::Workflow;
use subzero_optimizer::{Optimizer, OptimizerConfig, QueryWorkload};

/// Executes the workflow under `strategy` and returns each query's answer.
fn answers_under(
    workflow: &std::sync::Arc<Workflow>,
    inputs: &HashMap<String, Array>,
    strategy: LineageStrategy,
    queries_for: impl Fn(&mut SubZero, &subzero_engine::executor::WorkflowRun) -> Vec<NamedQuery>,
) -> Vec<(String, Vec<Coord>)> {
    let mut sz = SubZero::new();
    sz.set_strategy(strategy);
    let run = sz.execute(workflow, inputs).expect("workflow executes");
    let queries = queries_for(&mut sz, &run);
    queries
        .into_iter()
        .map(|nq| {
            sz.set_query_options(QueryOptions {
                entire_array_optimization: !nq.disable_entire_array,
                query_time_optimizer: true,
            });
            let result = sz.session(&run).query(&nq.spec).expect("query executes");
            (nq.name, result.cells.to_coords())
        })
        .collect()
}

#[test]
fn astronomy_all_strategies_agree_with_blackbox() {
    let cfg = SkyConfig::tiny();
    let (e1, e2) = SkyGenerator::new(cfg).generate();
    let wf = AstronomyWorkflow::build(cfg.shape);
    let inputs = AstronomyWorkflow::inputs(e1, e2);

    let mut reference: Option<Vec<(String, Vec<Coord>)>> = None;
    for named in astronomy_strategies(&wf) {
        let answers = answers_under(&wf.workflow, &inputs, named.strategy, |sz, run| {
            wf.queries(sz, run)
        });
        match &reference {
            None => reference = Some(answers),
            Some(expected) => {
                for ((name_a, cells_a), (name_b, cells_b)) in expected.iter().zip(&answers) {
                    assert_eq!(name_a, name_b);
                    assert_eq!(
                        cells_a, cells_b,
                        "query {} under strategy {} disagrees with the black-box oracle",
                        name_a, named.name
                    );
                }
            }
        }
    }
}

#[test]
fn genomics_all_strategies_agree_with_blackbox() {
    let cfg = CohortConfig::tiny();
    let (train, test) = CohortGenerator::new(cfg).generate();
    let wf = GenomicsWorkflow::build(&cfg);
    let inputs = GenomicsWorkflow::inputs(train, test);

    let mut reference: Option<Vec<(String, Vec<Coord>)>> = None;
    for named in genomics_strategies(&wf) {
        let answers = answers_under(&wf.workflow, &inputs, named.strategy, |sz, run| {
            wf.queries(sz, run)
        });
        match &reference {
            None => reference = Some(answers),
            Some(expected) => {
                for ((name_a, cells_a), (name_b, cells_b)) in expected.iter().zip(&answers) {
                    assert_eq!(name_a, name_b);
                    assert_eq!(
                        cells_a, cells_b,
                        "query {} under strategy {} disagrees",
                        name_a, named.name
                    );
                }
            }
        }
    }
}

#[test]
fn astronomy_composite_lineage_is_much_smaller_than_full() {
    let cfg = SkyConfig::tiny();
    let (e1, e2) = SkyGenerator::new(cfg).generate();
    let wf = AstronomyWorkflow::build(cfg.shape);
    let inputs = AstronomyWorkflow::inputs(e1, e2);

    let bytes_for = |strategy: LineageStrategy| {
        let mut sz = SubZero::new();
        sz.set_strategy(strategy);
        let run = sz.execute(&wf.workflow, &inputs).unwrap();
        sz.lineage_bytes(run.run_id)
    };

    let mut full = LineageStrategy::new();
    let mut composite = LineageStrategy::new();
    for udf in wf.udfs() {
        full.set(udf, vec![StorageStrategy::full_one()]);
        composite.set(udf, vec![StorageStrategy::composite_one()]);
    }
    let full_bytes = bytes_for(full);
    let composite_bytes = bytes_for(composite);
    assert!(full_bytes > 0 && composite_bytes > 0);
    // The paper reports ~70x; at the tiny test scale the exact factor varies,
    // but composite lineage must be at least an order of magnitude smaller.
    assert!(
        full_bytes as f64 / composite_bytes as f64 > 10.0,
        "full={full_bytes} composite={composite_bytes}"
    );
}

#[test]
fn astronomy_entire_array_optimization_only_changes_cost() {
    let cfg = SkyConfig::tiny();
    let (e1, e2) = SkyGenerator::new(cfg).generate();
    let wf = AstronomyWorkflow::build(cfg.shape);
    let inputs = AstronomyWorkflow::inputs(e1, e2);

    let mut sz = SubZero::new();
    let run = sz.execute(&wf.workflow, &inputs).unwrap();
    let queries = wf.queries(&mut sz, &run);
    let fq0 = queries.iter().find(|q| q.name == "FQ 0").unwrap();
    let fq0_slow = queries.iter().find(|q| q.name == "FQ 0 Slow").unwrap();
    sz.set_query_options(QueryOptions {
        entire_array_optimization: true,
        query_time_optimizer: true,
    });
    let fast = sz.session(&run).query(&fq0.spec).unwrap();
    sz.set_query_options(QueryOptions {
        entire_array_optimization: false,
        query_time_optimizer: true,
    });
    let slow = sz.session(&run).query(&fq0_slow.spec).unwrap();
    assert_eq!(
        fast.cells, slow.cells,
        "optimization must not change the answer"
    );
}

#[test]
fn genomics_query_time_optimizer_limits_mismatched_index_damage() {
    let cfg = CohortConfig::tiny();
    let (train, test) = CohortGenerator::new(cfg).generate();
    let wf = GenomicsWorkflow::build(&cfg);
    let inputs = GenomicsWorkflow::inputs(train, test);

    // Forward-optimized lineage only, then run backward queries: static
    // execution must scan; dynamic execution must avoid scans by falling
    // back to re-execution or at least never produce a different answer.
    let mut strategy = LineageStrategy::new();
    for udf in wf.udfs() {
        strategy.set(udf, vec![StorageStrategy::full_one_forward()]);
    }

    let mut sz = SubZero::new();
    sz.set_strategy(strategy);
    let run = sz.execute(&wf.workflow, &inputs).unwrap();
    let queries = wf.queries(&mut sz, &run);
    let bq0 = queries.iter().find(|q| q.name == "BQ 0").unwrap();

    sz.set_query_options(QueryOptions {
        entire_array_optimization: true,
        query_time_optimizer: false,
    });
    let static_result = sz.session(&run).query(&bq0.spec).unwrap();

    sz.set_query_options(QueryOptions {
        entire_array_optimization: true,
        query_time_optimizer: true,
    });
    let dynamic_result = sz.session(&run).query(&bq0.spec).unwrap();

    assert_eq!(static_result.cells, dynamic_result.cells);
    assert!(
        static_result.report.any_scan(),
        "static execution of a mismatched index should scan"
    );
}

#[test]
fn optimizer_respects_budget_and_improves_query_estimates_end_to_end() {
    let cfg = CohortConfig::tiny();
    let (train, test) = CohortGenerator::new(cfg).generate();
    let wf = GenomicsWorkflow::build(&cfg);
    let inputs = GenomicsWorkflow::inputs(train, test);

    // Profile.
    let mut profiler = SubZero::new();
    profiler.set_strategy(Optimizer::profiling_strategy(&wf.workflow));
    let profile_run = profiler.execute(&wf.workflow, &inputs).unwrap();
    let stats: HashMap<_, _> = profiler
        .runtime()
        .run_stats(profile_run.run_id)
        .into_iter()
        .map(|(op, s)| (op, s.clone()))
        .collect();
    let sample: Vec<(QuerySpec, f64)> = wf
        .queries(&mut profiler, &profile_run)
        .into_iter()
        .map(|nq| (nq.spec, 1.0))
        .collect();
    let workload = QueryWorkload::from_specs(&wf.workflow, &sample);

    // Tiny budget: black-box everywhere; measured lineage stays within it.
    let tiny = Optimizer::new(OptimizerConfig {
        max_disk_bytes: 64.0,
        ..OptimizerConfig::default()
    })
    .optimize(&wf.workflow, &stats, &workload);
    assert!(tiny.feasible);
    assert_eq!(tiny.predicted_disk_bytes, 0.0);

    // Generous budget: the UDFs get materialised lineage and the measured
    // storage is non-zero but still within the budget prediction's order.
    let generous = Optimizer::new(OptimizerConfig::with_disk_budget_mb(64.0)).optimize(
        &wf.workflow,
        &stats,
        &workload,
    );
    assert!(generous.feasible);
    assert!(generous.predicted_query_secs <= tiny.predicted_query_secs);
    assert!(!generous.strategy.assigned_ops().is_empty());

    let mut sz = SubZero::new();
    sz.set_strategy(generous.strategy.clone());
    let run = sz.execute(&wf.workflow, &inputs).unwrap();
    assert!(sz.lineage_bytes(run.run_id) > 0);
    assert!(sz.lineage_bytes(run.run_id) as f64 <= 64.0 * 1024.0 * 1024.0);
    // Queries still work and agree with the default-strategy answers.
    let default_answers =
        answers_under(&wf.workflow, &inputs, LineageStrategy::new(), |sz, run| {
            wf.queries(sz, run)
        });
    let optimized_answers = answers_under(&wf.workflow, &inputs, generous.strategy, |sz, run| {
        wf.queries(sz, run)
    });
    assert_eq!(default_answers, optimized_answers);
}

#[test]
fn micro_benchmark_storage_orderings_match_the_paper() {
    // High fanout: FullMany must be smaller than FullOne; payload lineage
    // must be smaller than both; black-box stores nothing.
    let config = MicroConfig {
        shape: subzero_array::Shape::d2(128, 128),
        fanin: 20,
        fanout: 50,
        coverage: 0.1,
        seed: 3,
    };
    let micro = MicroWorkflow::build(config);
    let inputs = micro.inputs();
    let bytes_for = |strategy: StorageStrategy| {
        let mut sz = SubZero::new();
        sz.set_strategy(LineageStrategy::uniform([micro.op], vec![strategy]));
        let run = sz.execute(&micro.workflow, &inputs).unwrap();
        sz.lineage_bytes(run.run_id)
    };
    let full_one = bytes_for(StorageStrategy::full_one());
    let full_many = bytes_for(StorageStrategy::full_many());
    let pay_many = bytes_for(StorageStrategy::pay_many());
    assert!(
        full_many < full_one,
        "high fanout favours FullMany ({full_many} vs {full_one})"
    );
    assert!(
        pay_many < full_one,
        "payload lineage is smaller than per-cell full lineage ({pay_many} vs {full_one})"
    );

    let mut sz = SubZero::new();
    let run = sz.execute(&micro.workflow, &inputs).unwrap();
    assert_eq!(sz.lineage_bytes(run.run_id), 0, "black-box stores nothing");

    // Low fanout: FullOne avoids the spatial index and wins.
    let config = MicroConfig {
        shape: subzero_array::Shape::d2(128, 128),
        fanin: 3,
        fanout: 1,
        coverage: 0.1,
        seed: 3,
    };
    let micro = MicroWorkflow::build(config);
    let inputs = micro.inputs();
    let bytes_for = |strategy: StorageStrategy| {
        let mut sz = SubZero::new();
        sz.set_strategy(LineageStrategy::uniform([micro.op], vec![strategy]));
        let run = sz.execute(&micro.workflow, &inputs).unwrap();
        sz.lineage_bytes(run.run_id)
    };
    assert!(bytes_for(StorageStrategy::full_one()) < bytes_for(StorageStrategy::full_many()));
}

#[test]
fn astronomy_full_both_capture_keeps_every_index_key_inline() {
    // The kv backends keep a record's key inside its index bucket only while
    // it fits `INLINE_KEY` bytes; a longer one falls back to the heap — one
    // `malloc` per stored record, the cost the capture path was rid of.
    // FullBoth (Table II) emits every key shape the encoder has: entry ids,
    // output cells, tagged input cells.
    let cfg = SkyConfig::tiny();
    let (e1, e2) = SkyGenerator::new(cfg).generate();
    let wf = AstronomyWorkflow::build(cfg.shape);
    let inputs = AstronomyWorkflow::inputs(e1, e2);
    let mut strategy = LineageStrategy::new();
    for node in wf.workflow.nodes() {
        strategy.set(
            node.id,
            vec![
                StorageStrategy::full_one(),
                StorageStrategy::full_one_forward(),
            ],
        );
    }
    let mut sz = SubZero::new();
    sz.set_strategy(strategy);
    let run = sz.execute(&wf.workflow, &inputs).expect("capture");
    let mut keys = 0usize;
    for node in wf.workflow.nodes() {
        for ds in sz.runtime_mut().datastores(run.run_id, node.id) {
            for (key, _) in ds.snapshot() {
                assert!(
                    key.len() <= subzero_store::kv::INLINE_KEY,
                    "a {}-byte key took the heap fallback",
                    key.len()
                );
                keys += 1;
            }
        }
    }
    assert!(keys > 0, "the capture stored nothing");
}
