//! Ingestion parity: the batched capture pipeline must store exactly what
//! the one-pair-at-a-time `store_pair` reference stores — byte-identical
//! datastore contents, equal pair counts and equal lookup outcomes — on
//! real workloads.
//!
//! Runs the small astronomy and genomics workflows (plus the synthetic
//! microbenchmark operator) under every Table II strategy configuration at
//! several capture batch sizes.  A tee collector forwards every batch to the
//! runtime and records each operator's pairs; the reference replays those
//! pairs through [`OpDatastore::store_pair`] into fresh datastores.

use std::collections::HashMap;
use std::sync::Arc;

use subzero::datastore::OpDatastore;
use subzero::model::{Direction, LineageStrategy, StorageStrategy};
use subzero::Runtime;
use subzero_array::{Array, CellSet};
use subzero_bench::astronomy::{AstronomyWorkflow, SkyConfig, SkyGenerator};
use subzero_bench::genomics::{CohortConfig, CohortGenerator, GenomicsWorkflow};
use subzero_bench::micro::{MicroConfig, MicroWorkflow};
use subzero_bench::strategies::{astronomy_strategies, genomics_strategies, micro_strategies};
use subzero_engine::executor::{CaptureError, LineageCollector, OpExecution};
use subzero_engine::{
    Engine, LineageMode, OpId, OpMeta, Operator, RegionBatch, RegionPair, Workflow,
};

/// Forwards every batch to the runtime and keeps a copy of each operator's
/// pairs, in emission order, with the operator's shapes.
struct Tee<'a> {
    runtime: &'a mut Runtime,
    pairs: HashMap<OpId, (OpMeta, Vec<RegionPair>)>,
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

/// One lookup outcome: result cells, covered cells, entries fetched and
/// whether the store was scanned.
type Outcome = (CellSet, CellSet, usize, bool);

/// Both directions' lookups, for every input, over a fixed sample of cells
/// spread across the query-side array.
fn sample_lookups(ds: &mut OpDatastore, op: &dyn Operator, meta: &OpMeta) -> Vec<Outcome> {
    let mut out = Vec::new();
    for direction in [Direction::Backward, Direction::Forward] {
        for input_idx in 0..meta.input_shapes.len() {
            let shape = match direction {
                Direction::Backward => meta.output_shape,
                Direction::Forward => meta.input_shapes[input_idx],
            };
            let n = shape.num_cells();
            let queries: Vec<CellSet> = (1..=6)
                .map(|k| {
                    let mut q = CellSet::empty(shape);
                    for j in 0..k {
                        q.insert_linear((j * 7919 + k * 104_729) % n);
                    }
                    q
                })
                .collect();
            let refs: Vec<&CellSet> = queries.iter().collect();
            for o in ds.lookup_many(direction, &refs, input_idx, op, meta) {
                out.push((o.result, o.covered, o.entries_fetched, o.scanned));
            }
        }
    }
    out
}

/// Asserts that, at every capture batch size, each operator's datastores
/// match the `store_pair` replay of the pairs the runtime was given.
fn assert_parity(
    label: &str,
    workflow: &Arc<Workflow>,
    inputs: &HashMap<String, Array>,
    strategy: &LineageStrategy,
) {
    // Batch size 1 hands pairs over one at a time; 97 puts batch boundaries
    // mid-operator; 4096 is the default.
    for batch_size in [1usize, 97, 4096] {
        let mut rt = Runtime::in_memory();
        rt.set_strategy(strategy.clone());
        let mut engine = Engine::new();
        engine.set_capture_batch_size(batch_size);
        let mut tee = Tee {
            runtime: &mut rt,
            pairs: HashMap::new(),
        };
        let run = engine
            .execute(workflow, inputs, &mut tee)
            .expect("workflow executes");
        let mut recorded = tee.pairs;
        for node in workflow.nodes() {
            let op = node.id;
            let at = format!("{label}: op {op} at batch size {batch_size}");
            let (meta, pairs) = recorded.remove(&op).expect("every operator is collected");
            // The runtime opens datastores only for operators that emitted
            // pairs.
            let mut stored: Vec<StorageStrategy> = rt.strategies_for(op);
            stored.retain(|s| s.stores_pairs() && !pairs.is_empty());
            let datastores = rt.datastores(run.run_id, op);
            assert_eq!(datastores.len(), stored.len(), "{at}: datastore count");
            for (ds, s) in datastores.iter_mut().zip(stored) {
                let mut reference = OpDatastore::in_memory("reference", s, &meta);
                for pair in &pairs {
                    reference.store_pair(pair);
                }
                assert_eq!(ds.strategy().label(), s.label(), "{at}");
                assert_eq!(ds.pairs_stored(), reference.pairs_stored(), "{at}");
                assert!(
                    ds.snapshot() == reference.snapshot(),
                    "{at}: {} contents differ",
                    s.label()
                );
                let operator = node.operator.as_ref();
                assert_eq!(
                    sample_lookups(ds, operator, &meta),
                    sample_lookups(&mut reference, operator, &meta),
                    "{at}: {} lookup outcomes differ",
                    s.label()
                );
            }
        }
    }
}

#[test]
fn astronomy_batched_ingest_matches_per_pair() {
    let cfg = SkyConfig::tiny();
    let (e1, e2) = SkyGenerator::new(cfg).generate();
    let wf = AstronomyWorkflow::build(cfg.shape);
    let inputs = AstronomyWorkflow::inputs(e1, e2);
    for named in astronomy_strategies(&wf) {
        assert_parity(
            &format!("astronomy/{}", named.name),
            &wf.workflow,
            &inputs,
            &named.strategy,
        );
    }
}

#[test]
fn genomics_batched_ingest_matches_per_pair() {
    let cfg = CohortConfig::tiny();
    let (train, test) = CohortGenerator::new(cfg).generate();
    let wf = GenomicsWorkflow::build(&cfg);
    let inputs = GenomicsWorkflow::inputs(train, test);
    for named in genomics_strategies(&wf) {
        assert_parity(
            &format!("genomics/{}", named.name),
            &wf.workflow,
            &inputs,
            &named.strategy,
        );
    }
}

#[test]
fn micro_batched_ingest_matches_per_pair() {
    let micro = MicroWorkflow::build(MicroConfig::tiny());
    let inputs = micro.inputs();
    for named in micro_strategies(&micro) {
        assert_parity(
            &format!("micro/{}", named.name),
            &micro.workflow,
            &inputs,
            &named.strategy,
        );
    }
}
