//! `astro_capture` and `astro_query`: the 26-operator astronomy workflow of
//! the paper's Fig. 5 under `FullBoth` (`[full_one, full_one_forward]` on
//! every operator), the capture-heaviest assignment of Table II.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use subzero::capture::CaptureMode;
use subzero::model::{LineageStrategy, StorageStrategy};
use subzero::query::QuerySpec;
use subzero::{ArrayNode, SubZero};
use subzero_array::{Array, CellSet, Coord, Shape};
use subzero_bench::astronomy::{AstronomyWorkflow, SkyConfig, SkyGenerator};
use subzero_engine::executor::WorkflowRun;

use super::{answers_checksum, indexed_only, STATIC_PLANS};
use crate::harness::{Client, Config, ProbeInputs, Verification, Workload};
use crate::sys;
use crate::trace::Tracer;

/// Start-cell variants of the query sweep.
const VARIANTS: usize = 64;
/// Query kinds per sweep: BQ 0–4 and FQ 0 of Fig. 5.
const KINDS: usize = 6;
/// The span of each kind, so the traced run's ledger splits a sweep by kind.
const KIND_SPANS: [&str; KINDS] = [
    "core.query.bq0",
    "core.query.bq1",
    "core.query.bq2",
    "core.query.bq3",
    "core.query.bq4",
    "core.query.fq0",
];

/// The workflow, its seeded inputs and the strategy, shared by both
/// workloads.
struct Astro {
    wf: AstronomyWorkflow,
    inputs: HashMap<String, Array>,
    strategy: LineageStrategy,
    workers: usize,
}

impl Astro {
    fn new(cfg: &Config) -> Self {
        // 40x80 makes one capture ~100 ms here, so a 20 s window holds
        // well over the 100 operations a p90 needs.
        let shape = if cfg.tiny {
            Shape::d2(16, 24)
        } else {
            Shape::d2(40, 80)
        };
        let sky = SkyConfig {
            shape,
            num_stars: if cfg.tiny { 3 } else { 8 },
            // ~16 cosmic-ray hits per exposure, enough to vary BQ 3.
            cosmic_ray_rate: if cfg.tiny { 0.02 } else { 0.005 },
            seed: cfg.seed,
            ..SkyConfig::default()
        };
        let wf = AstronomyWorkflow::build(shape);
        let (exp1, exp2) = SkyGenerator::new(sky).generate();
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
        Astro {
            wf,
            inputs: AstronomyWorkflow::inputs(exp1, exp2),
            strategy,
            workers: cfg.workers,
        }
    }

    fn input_bytes(&self) -> u64 {
        self.inputs.values().map(|a| a.size_bytes() as u64).sum()
    }

    /// A system writing file-backed stores under `dir`, every worker count
    /// pinned.
    fn open(&self, dir: &Path) -> SubZero {
        let mut sz = SubZero::with_storage_dir(dir);
        sz.set_capture_workers(self.workers);
        sz.set_capture_mode(CaptureMode::Sync);
        sz.set_strategy(self.strategy.clone());
        sz.set_query_options(STATIC_PLANS);
        sz
    }

    /// One capture: execute, build the deferred indexes, commit durably.
    fn capture(&self, sz: &mut SubZero, tr: &mut Tracer) -> Result<WorkflowRun, String> {
        tr.begin("core.runtime.execute");
        let run = sz.execute(&self.wf.workflow, &self.inputs);
        tr.end();
        let run = run.map_err(|e| format!("execute: {e}"))?;
        tr.begin("core.capture.finish_capture");
        sz.finish_capture(run.run_id);
        tr.end();
        tr.begin("core.capture.commit_capture");
        let txn = sz.commit_capture(run.run_id);
        tr.end();
        match txn {
            Ok(0) => Err("commit returned no transaction".into()),
            Ok(_) => Ok(run),
            Err(e) => Err(format!("commit: {e}")),
        }
    }

    /// Pairs the run must have stored: every operator's emitted pairs, once
    /// per assigned strategy.
    fn expected_pairs(run: &WorkflowRun) -> u64 {
        run.records.values().map(|r| r.pairs_emitted as u64).sum()
    }

    /// The six Fig. 5 queries at `VARIANTS` seeded start cells, derived
    /// from the run's actual outputs (detected stars, flagged cosmic rays).
    fn sweeps(&self, sz: &SubZero, run: &WorkflowRun, seed: u64) -> Vec<[QuerySpec; KINDS]> {
        let wf = &self.wf;
        let output = |op| sz.engine().output_of(run, op).expect("operator output");
        let mut stars = output(wf.star_detect).coords_where(|v| v > 0.0);
        if stars.is_empty() {
            stars.push(Coord::d2(wf.shape.rows() / 2, wf.shape.cols() / 2));
        }
        let mut rays = output(wf.crd[0]).coords_where(|v| v > 0.0);
        if rays.is_empty() {
            rays.push(Coord::d2(0, 0));
        }
        let mut pick = sys::SplitMix::new(seed ^ 0x5157_4545_5053);
        (0..VARIANTS)
            .map(|_| {
                let star = stars[pick.below(stars.len() as u64) as usize];
                let region = wf.shape.neighborhood(&star, 2);
                let first_ray = pick.below(rays.len() as u64) as usize;
                let ray_cells: Vec<Coord> = (0..rays.len().min(16))
                    .map(|i| rays[(first_ray + i) % rays.len()])
                    .collect();
                [
                    QuerySpec::backward_to_source(vec![star], wf.star_detect, "exposure1"),
                    QuerySpec::backward_to_source(region.clone(), wf.cr_remove, "exposure2"),
                    QuerySpec::backward(
                        region.clone(),
                        wf.sharpen,
                        ArrayNode::Output(wf.cr_remove),
                    ),
                    QuerySpec::backward_to_source(ray_cells, wf.crd[0], "exposure1"),
                    QuerySpec::backward_to_source(vec![Coord::d2(0, 0)], wf.mean_qc, "exposure1"),
                    QuerySpec::forward_from_source(region, "exposure1", wf.zscore_threshold),
                ]
            })
            .collect()
    }

    fn probe_inputs(
        &self,
        sweeps: &[[QuerySpec; KINDS]],
        captures: f64,
        calls: f64,
    ) -> ProbeInputs {
        ProbeInputs {
            workflow: self.wf.workflow.clone(),
            inputs: self.inputs.clone(),
            strategy: self.strategy.clone(),
            query_calls: sweeps
                .iter()
                .flatten()
                .map(|q| (q.clone(), vec![q.cells.clone()]))
                .collect(),
            captures_per_op: captures,
            query_calls_per_op: calls,
        }
    }

    /// Answers of every query of the first `n` sweeps from a system that
    /// stores nothing and re-executes every operator in tracing mode: the
    /// independent reference for stored lineage.
    fn blackbox_answers(&self, sweeps: &[[QuerySpec; KINDS]], n: usize) -> Vec<CellSet> {
        let mut sz = SubZero::new();
        let mut strategy = LineageStrategy::new();
        for node in self.wf.workflow.nodes() {
            strategy.set(node.id, vec![StorageStrategy::blackbox()]);
        }
        sz.set_strategy(strategy);
        let run = sz
            .execute(&self.wf.workflow, &self.inputs)
            .expect("black-box execution");
        let mut session = sz.session(&run);
        sweeps[..n]
            .iter()
            .flatten()
            .map(|q| session.query(q).expect("black-box query").cells)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// astro_capture
// ---------------------------------------------------------------------------

pub struct AstroCapture {
    astro: Astro,
    dir: PathBuf,
    seed: u64,
    /// The system, run and directory of the most recent capture, kept for
    /// verification; the next capture deletes it.
    last: Option<(SubZero, WorkflowRun, PathBuf)>,
    /// `(pairs stored, bytes on disk)` of the set-up capture; every
    /// operation must reproduce them.
    reference: (u64, u64),
}

impl AstroCapture {
    /// One capture into the fresh directory `name`; returns `(pairs stored,
    /// bytes on disk)`.
    fn capture_into(&mut self, name: &str, tr: &mut Tracer) -> Result<(u64, u64), String> {
        // The previous capture's store is dropped and deleted first: the
        // caller of a capture owns its directory's lifetime.
        if let Some((sz, _, dir)) = self.last.take() {
            tr.begin("core.runtime.close");
            drop(sz);
            tr.end();
            tr.begin("bench.remove_dir");
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
            tr.end();
        }
        let dir = self.dir.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        tr.begin("core.runtime.open_storage");
        let mut sz = self.astro.open(&dir);
        tr.end();
        let run = self.astro.capture(&mut sz, tr)?;
        tr.begin("bench.count");
        let got = (sz.capture_stats(run.run_id).pairs, sys::dir_bytes(&dir));
        tr.end();
        self.last = Some((sz, run, dir));
        Ok(got)
    }
}

impl Workload for AstroCapture {
    const NAME: &'static str = "astro_capture";

    /// Inputs, workflow, strategy, and one reference capture whose pair
    /// and byte counts every operation must reproduce.
    fn setup(cfg: &Config, dir: &Path) -> Self {
        let mut w = AstroCapture {
            astro: Astro::new(cfg),
            dir: dir.to_path_buf(),
            seed: cfg.seed,
            last: None,
            reference: (0, 0),
        };
        let mut tr = Tracer::off();
        w.reference = w
            .capture_into("reference", &mut tr)
            .expect("reference capture");
        w
    }

    fn describe(&self) -> String {
        format!(
            "astronomy {} x26 operators, FullBoth, CaptureMode::Sync, one op = open fresh dir + execute + finish_capture + commit_capture (fsync only at commit)",
            self.astro.wf.shape
        )
    }

    fn clients(&mut self) -> Vec<Box<dyn Client + '_>> {
        vec![Box::new(self)]
    }

    fn disk_overhead(&self) -> (u64, u64) {
        (self.reference.1, self.astro.input_bytes())
    }

    fn verify(&mut self, cfg: &Config) -> Verification {
        let mut v = Verification::default();
        let (sz, run, _) = self.last.as_mut().expect("at least one capture ran");
        let (pairs, bytes) = self.reference;
        // FullBoth stores every emitted pair twice.
        v.check(
            "pairs stored == 2 x pairs emitted",
            pairs == 2 * Astro::expected_pairs(run),
        );
        let sweeps = self.astro.sweeps(sz, run, self.seed);
        let n = if cfg.tiny { 2 } else { 4 };
        let stored: Vec<CellSet> = {
            let mut session = sz.session(run);
            sweeps[..n]
                .iter()
                .flatten()
                .map(|q| session.query(q).expect("stored query").cells)
                .collect()
        };
        v.check(
            "stored answers == black-box re-execution",
            stored == self.astro.blackbox_answers(&sweeps, n),
        );
        let (cells, hash) = answers_checksum(&stored);
        v.golden("pairs_stored", pairs);
        v.golden("bytes_on_disk", bytes);
        v.golden("answer_cells", cells);
        v.golden("answer_hash", format!("{hash:016x}"));
        v
    }

    fn probe_inputs(&self) -> ProbeInputs {
        let (sz, run, _) = self.last.as_ref().expect("at least one capture ran");
        let sweeps = self.astro.sweeps(sz, run, self.seed);
        self.astro.probe_inputs(&sweeps[..8], 1.0, 0.0)
    }
}

impl Client for AstroCapture {
    fn op(&mut self, index: u64, tr: &mut Tracer) -> Result<(), String> {
        let got = self.capture_into(&format!("op{index}"), tr)?;
        if got != self.reference {
            return Err(format!(
                "(pairs, bytes) {got:?} != reference capture's {:?}",
                self.reference
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// astro_query
// ---------------------------------------------------------------------------

pub struct AstroQuery {
    astro: Astro,
    sz: SubZero,
    run: WorkflowRun,
    dir: PathBuf,
    sweeps: Vec<[QuerySpec; KINDS]>,
    /// Answer cell counts of each sweep, filled the first time it runs.
    expected: Vec<Option<[usize; KINDS]>>,
}

impl AstroQuery {
    fn sweep(&mut self, variant: usize, tr: &mut Tracer) -> Result<[CellSet; KINDS], String> {
        let mut session = self.sz.session(&self.run);
        let mut answers: [CellSet; KINDS] = std::array::from_fn(|_| CellSet::empty(Shape::d1(1)));
        for (kind, spec) in self.sweeps[variant].iter().enumerate() {
            tr.begin(KIND_SPANS[kind]);
            let result = session.query(spec);
            tr.end();
            let result = result.map_err(|e| format!("{}: {e}", KIND_SPANS[kind]))?;
            indexed_only(&result).map_err(|e| format!("{}: {e}", KIND_SPANS[kind]))?;
            answers[kind] = result.cells;
        }
        Ok(answers)
    }
}

impl Workload for AstroQuery {
    const NAME: &'static str = "astro_query";

    /// One capture, the query list, and the first (cold) sweep: plans are
    /// derived and lazy indexes built before the system counts as set up.
    fn setup(cfg: &Config, dir: &Path) -> Self {
        let astro = Astro::new(cfg);
        let mut sz = astro.open(dir);
        let mut tr = Tracer::off();
        let run = astro.capture(&mut sz, &mut tr).expect("set-up capture");
        let sweeps = astro.sweeps(&sz, &run, cfg.seed);
        let mut w = AstroQuery {
            astro,
            sz,
            run,
            dir: dir.to_path_buf(),
            expected: vec![None; sweeps.len()],
            sweeps,
        };
        w.sweep(0, &mut tr).expect("cold sweep");
        w
    }

    fn describe(&self) -> String {
        format!(
            "astronomy {} FullBoth store (fits the entry caches), one op = one sweep of BQ0-4 + FQ0 at start-cell variant (index mod {VARIANTS}), query_time_optimizer off",
            self.astro.wf.shape
        )
    }

    fn clients(&mut self) -> Vec<Box<dyn Client + '_>> {
        vec![Box::new(self)]
    }

    fn disk_overhead(&self) -> (u64, u64) {
        (sys::dir_bytes(&self.dir), self.astro.input_bytes())
    }

    fn verify(&mut self, cfg: &Config) -> Verification {
        let mut v = Verification::default();
        let mut tr = Tracer::off();
        let mut all: Vec<CellSet> = Vec::new();
        let mut stable = true;
        for variant in 0..self.sweeps.len() {
            let answers = self.sweep(variant, &mut tr).expect("verification sweep");
            let lens: [usize; KINDS] = std::array::from_fn(|k| answers[k].len());
            stable &= self.expected[variant].is_none_or(|e| e == lens);
            all.extend(answers);
        }
        v.check("answers stable across repetitions", stable);
        v.check(
            "no query returned an empty answer",
            all.iter().all(|c| !c.is_empty()),
        );

        let n = if cfg.tiny { 2 } else { 8 };
        v.check(
            "stored answers == black-box re-execution",
            all[..n * KINDS] == self.astro.blackbox_answers(&self.sweeps, n)[..],
        );

        // Batched == one-at-a-time, for the deepest backward kind.
        let spec = &self.sweeps[0][0];
        let batches: Vec<Vec<Coord>> = self.sweeps.iter().map(|s| s[0].cells.clone()).collect();
        let batched = self
            .sz
            .session(&self.run)
            .query_many(spec, &batches)
            .expect("batched query");
        v.check(
            "batched == one-at-a-time",
            batched
                .iter()
                .enumerate()
                .all(|(i, r)| r.cells == all[i * KINDS]),
        );

        let (cells, hash) = answers_checksum(&all);
        v.golden("pairs_stored", self.sz.capture_stats(self.run.run_id).pairs);
        v.golden("bytes_on_disk", sys::dir_bytes(&self.dir));
        v.golden("answer_cells", cells);
        v.golden("answer_hash", format!("{hash:016x}"));
        v
    }

    fn probe_inputs(&self) -> ProbeInputs {
        self.astro.probe_inputs(&self.sweeps, 0.0, KINDS as f64)
    }
}

impl Client for AstroQuery {
    fn op(&mut self, index: u64, tr: &mut Tracer) -> Result<(), String> {
        let variant = index as usize % self.sweeps.len();
        let answers = self.sweep(variant, tr)?;
        let lens: [usize; KINDS] = std::array::from_fn(|k| answers[k].len());
        let expected = *self.expected[variant].get_or_insert(lens);
        if lens != expected {
            return Err(format!("variant {variant}: cells {lens:?} != {expected:?}"));
        }
        Ok(())
    }
}
