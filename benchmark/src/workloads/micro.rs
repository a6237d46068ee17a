//! `micro_scan`: the paper's synthetic operator (fanin 10, fanout 1,
//! coverage 0.1) captured forward-only and queried *backward*, so every
//! batch degrades to one shared streamed scan of the whole store.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use subzero::capture::CaptureMode;
use subzero::model::{LineageStrategy, StorageStrategy};
use subzero::query::QuerySpec;
use subzero::SubZero;
use subzero_array::{CellSet, Coord, Shape};
use subzero_bench::micro::{MicroConfig, MicroWorkflow};
use subzero_engine::executor::WorkflowRun;

use super::{answers_checksum, STATIC_PLANS};
use crate::harness::{Client, Config, ProbeInputs, Verification, Workload};
use crate::sys;
use crate::trace::Tracer;

/// Queries per batch and cells per query (the paper's §VIII-C sizes).
const QUERIES: usize = 16;
const CELLS_PER_QUERY: usize = 100;
/// Distinct batches the operations rotate through.
const BATCH_SETS: usize = 8;

pub struct MicroScan {
    micro: MicroWorkflow,
    strategy: LineageStrategy,
    sz: SubZero,
    run: WorkflowRun,
    dir: PathBuf,
    /// `BATCH_SETS` batches of `QUERIES` x `CELLS_PER_QUERY` output cells
    /// known to have lineage.
    batch_sets: Vec<Vec<Vec<Coord>>>,
    /// Answer cell counts per batch set, filled the first time it runs.
    expected: Vec<Option<Vec<usize>>>,
}

impl MicroScan {
    fn scan(&mut self, set: usize, tr: &mut Tracer) -> Result<Vec<CellSet>, String> {
        let batches = self.batch_sets[set].clone();
        let mut session = self.sz.session(&self.run);
        tr.begin("core.query.backward_many");
        let results = session
            .backward_many(batches)
            .from(self.micro.op)
            .to_source("input");
        tr.end();
        let results = results.map_err(|e| format!("backward_many: {e}"))?;
        if !results.iter().all(|r| r.report.any_scan()) {
            return Err("a query of the batch was answered without a scan".into());
        }
        Ok(results.into_iter().map(|r| r.cells).collect())
    }
}

impl Workload for MicroScan {
    const NAME: &'static str = "micro_scan";

    fn setup(cfg: &Config, dir: &Path) -> Self {
        // 500x500 stores 25k pairs in a ~2.5 MB log, well beyond the
        // decoded-entry caches, and makes one batch ~100 ms here.
        let n = if cfg.tiny { 96 } else { 500 };
        let micro = MicroWorkflow::build(MicroConfig {
            shape: Shape::d2(n, n),
            fanin: 10,
            fanout: 1,
            coverage: 0.1,
            seed: cfg.seed,
        });
        let strategy =
            LineageStrategy::uniform([micro.op], vec![StorageStrategy::full_one_forward()]);
        let mut sz = SubZero::with_storage_dir(dir);
        sz.set_capture_workers(cfg.workers);
        sz.set_capture_mode(CaptureMode::Sync);
        sz.set_strategy(strategy.clone());
        sz.set_query_options(STATIC_PLANS);
        let run = sz
            .execute(&micro.workflow, &micro.inputs())
            .expect("set-up capture");
        sz.finish_capture(run.run_id);
        sz.commit_capture(run.run_id).expect("set-up commit");

        let per_set = QUERIES * CELLS_PER_QUERY;
        let cells: Vec<Coord> = micro
            .pairs
            .iter()
            .flat_map(|p| p.outcells.iter().copied())
            .collect();
        let sets = BATCH_SETS.min(cells.len() / per_set).max(1);
        let batch_sets: Vec<Vec<Vec<Coord>>> = (0..sets)
            .map(|s| {
                cells[s * per_set..((s + 1) * per_set).min(cells.len())]
                    .chunks(CELLS_PER_QUERY)
                    .map(<[Coord]>::to_vec)
                    .collect()
            })
            .collect();
        MicroScan {
            micro,
            strategy,
            sz,
            run,
            dir: dir.to_path_buf(),
            expected: vec![None; batch_sets.len()],
            batch_sets,
        }
    }

    fn describe(&self) -> String {
        format!(
            "micro {} fanin 10 fanout 1 coverage 0.1, forward-only store ({} pairs), one op = backward_many of {QUERIES} x {CELLS_PER_QUERY}-cell queries (one shared mmap scan), rotating over {} batches",
            self.micro.config.shape,
            self.micro.pairs.len(),
            self.batch_sets.len()
        )
    }

    fn clients(&mut self) -> Vec<Box<dyn Client + '_>> {
        vec![Box::new(self)]
    }

    fn disk_overhead(&self) -> (u64, u64) {
        let input_bytes: usize = self.micro.inputs().values().map(|a| a.size_bytes()).sum();
        (sys::dir_bytes(&self.dir), input_bytes as u64)
    }

    fn verify(&mut self, _cfg: &Config) -> Verification {
        let mut v = Verification::default();
        let mut tr = Tracer::off();

        // Independent oracle: the generator's own pair list.
        let mut lineage: HashMap<Coord, Vec<Coord>> = HashMap::new();
        for p in &self.micro.pairs {
            for oc in &p.outcells {
                lineage.entry(*oc).or_default().extend(&p.incells);
            }
        }
        let shape = self.micro.config.shape;
        let mut all: Vec<CellSet> = Vec::new();
        let (mut stable, mut oracle_ok) = (true, true);
        for set in 0..self.batch_sets.len() {
            let answers = self.scan(set, &mut tr).expect("verification scan");
            let lens: Vec<usize> = answers.iter().map(CellSet::len).collect();
            stable &= self.expected[set].as_ref().is_none_or(|e| *e == lens);
            for (query, answer) in self.batch_sets[set].iter().zip(&answers) {
                let want = CellSet::from_coords(
                    shape,
                    query.iter().flat_map(|c| lineage[c].iter().copied()),
                );
                oracle_ok &= *answer == want;
            }
            all.extend(answers);
        }
        v.check("answers stable across repetitions", stable);
        v.check("stored answers == generator oracle", oracle_ok);

        // Batched == one-at-a-time on the first batch.
        let mut one_ok = true;
        let mut session = self.sz.session(&self.run);
        for (query, batched) in self.batch_sets[0].iter().zip(&all) {
            let one = session
                .backward(query.clone())
                .from(self.micro.op)
                .to_source("input")
                .expect("single query");
            one_ok &= one.cells == *batched && one.report.any_scan();
        }
        v.check("batched == one-at-a-time", one_ok);

        let (cells, hash) = answers_checksum(&all);
        v.golden("pairs_stored", self.sz.capture_stats(self.run.run_id).pairs);
        v.golden("bytes_on_disk", sys::dir_bytes(&self.dir));
        v.golden("answer_cells", cells);
        v.golden("answer_hash", format!("{hash:016x}"));
        v
    }

    fn probe_inputs(&self) -> ProbeInputs {
        let spec = QuerySpec::backward_to_source(Vec::new(), self.micro.op, "input");
        ProbeInputs {
            workflow: self.micro.workflow.clone(),
            inputs: self.micro.inputs(),
            strategy: self.strategy.clone(),
            query_calls: self
                .batch_sets
                .iter()
                .map(|batches| (spec.clone(), batches.clone()))
                .collect(),
            captures_per_op: 0.0,
            query_calls_per_op: 1.0,
        }
    }
}

impl Client for MicroScan {
    fn op(&mut self, index: u64, tr: &mut Tracer) -> Result<(), String> {
        let set = index as usize % self.batch_sets.len();
        let lens: Vec<usize> = self.scan(set, tr)?.iter().map(CellSet::len).collect();
        let expected = self.expected[set].get_or_insert_with(|| lens.clone());
        if lens != *expected {
            return Err(format!("batch {set}: cells {lens:?} != {expected:?}"));
        }
        Ok(())
    }
}
