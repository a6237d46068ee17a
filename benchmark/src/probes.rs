//! Layer probes: each replays inputs recorded from the workload — the
//! region batches its workflow emits, the entries they encode to, the cell
//! sets its queries start from and return, the frames they travel in —
//! through one layer's public API in isolation, so a per-layer number is
//! measured on this workload's data and not on a synthetic stand-in.
//!
//! Every probe is time-boxed; a rate is the median over its repetitions.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use subzero::capture::{CaptureConfig, CaptureMode, OverflowPolicy};
use subzero::datastore::LookupOutcome;
use subzero::encoder::encode_full_entry_into;
use subzero::model::{Direction, LineageStrategy, StorageStrategy};
use subzero::query::{QueryResult, QuerySpec, StepMethod};
use subzero::{ArrayNode, OpDatastore, SubZero};
use subzero_array::{BoundingBox, CellSet, Coord, ReprCounts, Shape};
use subzero_engine::executor::{CaptureError, OpExecution, WorkflowRun};
use subzero_engine::paths::{backward_plan, forward_plan};
use subzero_engine::{
    Engine, LineageCollector, LineageMode, NullCollector, OpId, OpMeta, Operator, OperatorExt,
    RegionBatch, RegionPair, Workflow,
};
use subzero_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use subzero_server::{Client, LookupStep, OpSpec, Server, ServerConfig, WireOutcome};
use subzero_store::codec::{decode_cells_block, encode_cells_into, ScanFrame};
use subzero_store::kv::{FileBackend, KvBackend};
use subzero_store::wal::{recover_dir, WalRecord, WriteAheadLog, WAL_FILE};
use subzero_store::RTree;

use crate::harness::{Config, ProbeInputs};
use crate::stats::{median, percentile};
use crate::sys;
use crate::workloads::STATIC_PLANS;

type Metrics = BTreeMap<&'static str, f64>;

/// Fewest repetitions a probe makes, however slow one is.
const MIN_REPS: usize = 3;
/// Most repetitions kept, however fast one is.
const MAX_REPS: usize = 2000;
/// Pairs per ingest request, as `daemon_mixed` sends them.
const WIRE_BATCH: usize = 64;

/// Whether a probe that has `samples` timings and started at `started`
/// takes another: always up to `MIN_REPS`, then while `budget` lasts.
fn more(samples: usize, started: Instant, budget: Duration) -> bool {
    samples < MIN_REPS || (started.elapsed() < budget && samples < MAX_REPS)
}

/// Repeats `run(setup(rep))` until `budget` has passed, timing `run` only.
/// Returns the durations in seconds and the last result.
fn repeat_with<S, T>(
    budget: Duration,
    mut setup: impl FnMut(usize) -> S,
    mut run: impl FnMut(S) -> T,
) -> (Vec<f64>, T) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let state = setup(times.len());
        let t = Instant::now();
        let out = run(state);
        times.push(t.elapsed().as_secs_f64());
        if !more(times.len(), started, budget) {
            return (times, out);
        }
    }
}

fn repeat<T>(budget: Duration, mut run: impl FnMut() -> T) -> Vec<f64> {
    repeat_with(budget, |_| (), |()| std::hint::black_box(run())).0
}

fn fresh_dir(root: &Path, name: &str) -> std::path::PathBuf {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create probe directory");
    dir
}

// ---------------------------------------------------------------------------
// Recording the workload's layer inputs
// ---------------------------------------------------------------------------

/// The region batches one operator emitted, as the runtime receives them.
struct RecordedOp {
    op_id: OpId,
    meta: OpMeta,
    batches: Vec<RegionBatch>,
}

impl RecordedOp {
    fn pairs(&self) -> impl Iterator<Item = &RegionPair> {
        self.batches.iter().flat_map(|b| b.pairs.iter())
    }
}

fn total_pairs(recorded: &[RecordedOp]) -> usize {
    recorded.iter().map(|r| r.pairs().count()).sum()
}

/// A collector that requests full lineage from every operator the
/// workload's strategy stores pairs for, and keeps the batches.
struct Recorder<'a> {
    strategy: &'a LineageStrategy,
    ops: Vec<RecordedOp>,
}

impl LineageCollector for Recorder<'_> {
    fn modes_for(&self, workflow: &Workflow, op_id: OpId) -> Vec<LineageMode> {
        let full = self.strategy.stores_pairs_for(op_id)
            && workflow
                .node(op_id)
                .is_ok_and(|n| n.operator.supports(LineageMode::Full));
        vec![if full {
            LineageMode::Full
        } else {
            LineageMode::Blackbox
        }]
    }

    fn collect_batches(
        &mut self,
        exec: &OpExecution<'_>,
        batches: Vec<RegionBatch>,
    ) -> Result<(), CaptureError> {
        if !batches.is_empty() {
            self.ops.push(RecordedOp {
                op_id: exec.op_id,
                meta: exec.meta.clone(),
                batches,
            });
        }
        Ok(())
    }
}

/// One batched lookup at the datastore boundary: the first edge of a
/// workload query call.
struct LookupCall {
    /// Index into the recorded operators.
    op: usize,
    direction: Direction,
    input_idx: usize,
    queries: Vec<CellSet>,
}

/// The first traversal edge of every query call whose operator has recorded
/// lineage, with the call's cells as query sets on that edge's array.
fn lookup_calls(inputs: &ProbeInputs, recorded: &[RecordedOp]) -> Result<Vec<LookupCall>, String> {
    let mut calls = Vec::new();
    for (spec, batches) in &inputs.query_calls {
        let (op_id, input_idx) = first_edge(&inputs.workflow, spec)?;
        let Some(op) = recorded.iter().position(|r| r.op_id == op_id) else {
            continue;
        };
        let meta = &recorded[op].meta;
        let shape = match spec.direction {
            Direction::Backward => meta.output_shape,
            Direction::Forward => meta.input_shape(input_idx),
        };
        calls.push(LookupCall {
            op,
            direction: spec.direction,
            input_idx,
            queries: batches
                .iter()
                .map(|cells| CellSet::from_coords(shape, cells.iter().copied()))
                .collect(),
        });
    }
    if calls.is_empty() {
        return Err("no query call starts at an operator with stored lineage".into());
    }
    Ok(calls)
}

fn plan_edges(wf: &Workflow, spec: &QuerySpec) -> Result<Vec<(OpId, usize)>, String> {
    let plan = match (spec.direction, &spec.from, &spec.to) {
        (Direction::Backward, ArrayNode::Output(op), to) => backward_plan(wf, *op, to),
        (Direction::Forward, from, ArrayNode::Output(op)) => forward_plan(wf, from, *op),
        _ => return Err(format!("query spec {spec:?} has no operator endpoint")),
    };
    plan.map(|p| p.edges).map_err(|e| format!("plan: {e}"))
}

fn first_edge(wf: &Workflow, spec: &QuerySpec) -> Result<(OpId, usize), String> {
    plan_edges(wf, spec)?
        .first()
        .copied()
        .ok_or_else(|| "empty traversal plan".to_string())
}

// ---------------------------------------------------------------------------
// The probes
// ---------------------------------------------------------------------------

/// `engine.executor`: the workflow with capture off, and what it emits.
fn probe_engine(inputs: &ProbeInputs, budget: Duration, m: &mut Metrics) -> Vec<RecordedOp> {
    let times = repeat(budget, || {
        Engine::new()
            .execute(&inputs.workflow, &inputs.inputs, &mut NullCollector)
            .expect("no-capture execution")
    });
    m.insert("engine.executor.nocapture_run_ms", median(&times) * 1e3);
    let mut recorder = Recorder {
        strategy: &inputs.strategy,
        ops: Vec::new(),
    };
    Engine::new()
        .execute(&inputs.workflow, &inputs.inputs, &mut recorder)
        .expect("recording execution");
    m.insert(
        "engine.executor.pairs_emitted",
        total_pairs(&recorder.ops) as f64,
    );
    recorder.ops
}

fn new_system(inputs: &ProbeInputs, cfg: &Config, dir: &Path) -> SubZero {
    let mut sz = SubZero::with_storage_dir(dir);
    sz.set_capture_workers(cfg.workers);
    sz.set_strategy(inputs.strategy.clone());
    sz.set_query_options(STATIC_PLANS);
    sz
}

/// `core.runtime` / `core.capture`: the capture phases, synchronous and
/// asynchronous, into file-backed stores.
fn probe_capture(
    inputs: &ProbeInputs,
    cfg: &Config,
    root: &Path,
    budget: Duration,
    m: &mut Metrics,
) {
    let (mut exec, mut finish, mut commit) = (Vec::new(), Vec::new(), Vec::new());
    repeat_with(
        budget / 2,
        |_| new_system(inputs, cfg, &fresh_dir(root, "capture")),
        |mut sz| {
            let t = Instant::now();
            let run = sz
                .execute(&inputs.workflow, &inputs.inputs)
                .expect("sync capture");
            exec.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            sz.finish_capture(run.run_id);
            finish.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            sz.commit_capture(run.run_id).expect("commit");
            commit.push(t.elapsed().as_secs_f64());
        },
    );
    let (exec, finish, commit) = (median(&exec), median(&finish), median(&commit));
    m.insert("core.runtime.execute_ms", exec * 1e3);
    m.insert("core.capture.finish_capture_ms", finish * 1e3);
    m.insert("core.capture.commit_capture_ms", commit * 1e3);
    m.insert(
        "engine.executor.capture_overhead_x",
        (exec + finish + commit) * 1e3 / m["engine.executor.nocapture_run_ms"],
    );

    let (mut run_s, mut drain_s) = (Vec::new(), Vec::new());
    repeat_with(
        budget / 2,
        |_| {
            let mut sz = new_system(inputs, cfg, &fresh_dir(root, "capture"));
            // Deep enough that the executor never waits on the queue.
            sz.set_capture_config(CaptureConfig {
                queue_depth: 512,
                flushers: cfg.workers,
                policy: OverflowPolicy::Block,
            });
            sz.set_capture_mode(CaptureMode::Async);
            sz
        },
        |mut sz| {
            let t = Instant::now();
            sz.execute(&inputs.workflow, &inputs.inputs)
                .expect("async capture");
            run_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            sz.flush_capture().expect("async drain");
            drain_s.push(t.elapsed().as_secs_f64());
        },
    );
    m.insert("core.capture.async_run_ms", median(&run_s) * 1e3);
    m.insert("core.capture.async_drain_ms", median(&drain_s) * 1e3);
}

fn query_call(
    sz: &mut SubZero,
    run: &WorkflowRun,
    (spec, batches): &(QuerySpec, Vec<Vec<Coord>>),
) -> Result<Vec<QueryResult>, String> {
    sz.session(run)
        .query_many(spec, batches)
        .map_err(|e| format!("probe query: {e}"))
}

/// `core.query` + `engine.paths`: the workload's query calls through an
/// in-process session, cold and warm, and what answered each step.
fn probe_query(
    inputs: &ProbeInputs,
    cfg: &Config,
    root: &Path,
    budget: Duration,
    m: &mut Metrics,
) -> Result<(), String> {
    let captured = |name: &str| {
        let mut sz = new_system(inputs, cfg, &fresh_dir(root, name));
        let run = sz
            .execute(&inputs.workflow, &inputs.inputs)
            .expect("query-probe capture");
        sz.commit_capture(run.run_id).expect("query-probe commit");
        (sz, run)
    };
    let call = query_call;

    // Cold: the first call against a freshly captured system pays for plan
    // derivation and for whatever index building capture deferred.
    let (cold, _) = repeat_with(
        budget / 3,
        |_| captured("query-cold"),
        |(mut sz, run)| call(&mut sz, &run, &inputs.query_calls[0]).map(|r| r.len()),
    );
    m.insert("core.query.cold_first_query_ms", median(&cold) * 1e3);

    let (mut sz, run) = captured("query-warm");
    let mut counts = [0u64; 4];
    for qc in &inputs.query_calls {
        for result in call(&mut sz, &run, qc)? {
            for step in &result.report.steps {
                match step.method {
                    StepMethod::Stored | StepMethod::StoredPlusMapping => counts[0] += 1,
                    StepMethod::Mapping => counts[1] += 1,
                    StepMethod::Reexecution => counts[2] += 1,
                    StepMethod::EntireArray | StepMethod::Skipped => {}
                }
                counts[3] += u64::from(step.scanned);
            }
        }
    }
    m.insert("core.query.steps_stored", counts[0] as f64);
    m.insert("core.query.steps_mapping", counts[1] as f64);
    m.insert("core.query.steps_reexec", counts[2] as f64);
    m.insert("core.query.steps_scanned", counts[3] as f64);

    let mut per_call = Vec::new();
    let started = Instant::now();
    while more(per_call.len(), started, budget / 3) {
        for qc in &inputs.query_calls {
            let t = Instant::now();
            std::hint::black_box(call(&mut sz, &run, qc)?);
            per_call.push(t.elapsed().as_secs_f64());
        }
    }
    m.insert("core.query.query_p50_us", median(&per_call) * 1e6);
    let stats = sz.query_cache().stats();
    let hits = stats.plan_hits + stats.trace_hits;
    m.insert(
        "core.query.cache_hit_frac",
        hits as f64 / (hits + stats.plan_misses + stats.trace_misses) as f64,
    );

    // Plan derivation alone, for every distinct endpoint pair.
    let mut specs: Vec<&QuerySpec> = Vec::new();
    for (spec, _) in &inputs.query_calls {
        if !specs
            .iter()
            .any(|s| (s.direction, &s.from, &s.to) == (spec.direction, &spec.from, &spec.to))
        {
            specs.push(spec);
        }
    }
    let times = repeat(budget / 3, || {
        specs
            .iter()
            .map(|s| plan_edges(&inputs.workflow, s).expect("plan").len())
            .sum::<usize>()
    });
    m.insert(
        "engine.paths.plan_us",
        median(&times) * 1e6 / specs.len() as f64,
    );
    Ok(())
}

/// `core.encoder` and `store.codec`: entry bodies and cell blocks.
fn probe_encode(recorded: &[RecordedOp], budget: Duration, m: &mut Metrics) {
    let pairs = total_pairs(recorded);
    let mut buf = Vec::new();
    let times = repeat(budget / 3, || {
        for r in recorded {
            for pair in r.pairs() {
                if let RegionPair::Full { outcells, incells } = pair {
                    buf.clear();
                    encode_full_entry_into(
                        &mut buf,
                        &r.meta.output_shape,
                        &r.meta.input_shapes,
                        outcells,
                        incells,
                        true,
                    );
                }
            }
        }
        buf.len()
    });
    m.insert(
        "core.encoder.encode_pairs_per_s",
        pairs as f64 / median(&times),
    );

    // Every cell list of every pair, with the shape it is packed against.
    let mut lists: Vec<(Shape, &[Coord])> = Vec::new();
    for r in recorded {
        for pair in r.pairs() {
            if let RegionPair::Full { outcells, incells } = pair {
                lists.push((r.meta.output_shape, outcells));
                for (i, cells) in incells.iter().enumerate() {
                    lists.push((r.meta.input_shape(i), cells));
                }
            }
        }
    }
    let cells: usize = lists.iter().map(|(_, c)| c.len()).sum();
    let times = repeat(budget / 3, || {
        for (shape, coords) in &lists {
            buf.clear();
            encode_cells_into(&mut buf, shape, coords);
        }
        buf.len()
    });
    m.insert(
        "store.codec.encode_mcells_per_s",
        cells as f64 / median(&times) / 1e6,
    );

    let blocks: Vec<(u64, Vec<u8>)> = lists
        .iter()
        .map(|(shape, coords)| {
            let mut block = Vec::new();
            encode_cells_into(&mut block, shape, coords);
            (shape.num_cells() as u64, block)
        })
        .collect();
    let mut frame = ScanFrame::new();
    let times = repeat(budget / 3, || {
        let mut decoded = 0usize;
        for (num_cells, block) in &blocks {
            let mut pos = 0usize;
            let run = decode_cells_block(&mut frame, *num_cells, block, &mut pos)
                .expect("decode a block this probe encoded");
            decoded += run.len();
            frame.clear();
        }
        decoded
    });
    // Sorted + de-duplicated on encode, so count what the decoder returns.
    let decoded: usize = blocks
        .iter()
        .map(|(n, b)| {
            let mut pos = 0;
            let len = decode_cells_block(&mut frame, *n, b, &mut pos)
                .expect("decode")
                .len();
            frame.clear();
            len
        })
        .sum();
    m.insert(
        "store.codec.decode_block_mcells_per_s",
        decoded as f64 / median(&times) / 1e6,
    );
}

/// The two file-backed datastores `[backward, forward]` of each recorded
/// operator.
type ProbeStores = Vec<[OpDatastore; 2]>;

const BOTH: [fn() -> StorageStrategy; 2] =
    [StorageStrategy::full_one, StorageStrategy::full_one_forward];

fn open_stores(recorded: &[RecordedOp], dir: &Path, workers: usize) -> ProbeStores {
    recorded
        .iter()
        .map(|r| {
            BOTH.map(|strategy| {
                let name = format!("op{}_{}", r.op_id, strategy().db_suffix());
                let backend =
                    FileBackend::open(&dir.join(format!("{name}.kv"))).expect("open probe store");
                let mut ds = OpDatastore::new(name, strategy(), &r.meta, Box::new(backend));
                ds.set_workers(workers);
                ds
            })
        })
        .collect()
}

/// `core.datastore` ingest: every recorded batch into both stores of its
/// operator.  Returns the last repetition's stores for the lookup probes.
fn probe_ingest(
    recorded: &[RecordedOp],
    cfg: &Config,
    root: &Path,
    budget: Duration,
    m: &mut Metrics,
) -> ProbeStores {
    let pairs = total_pairs(recorded);
    let (mut ingest, mut finish) = (Vec::new(), Vec::new());
    let (_, mut stores) = repeat_with(
        budget,
        |_| open_stores(recorded, &fresh_dir(root, "stores"), cfg.workers),
        |mut stores| {
            let t = Instant::now();
            for (r, pair) in recorded.iter().zip(&mut stores) {
                for batch in &r.batches {
                    for ds in pair.iter_mut() {
                        ds.store_batch(&batch.pairs, cfg.workers);
                    }
                }
            }
            ingest.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            for ds in stores.iter_mut().flatten() {
                ds.finish_ingest();
            }
            finish.push(t.elapsed().as_secs_f64());
            stores
        },
    );
    m.insert(
        "core.datastore.store_batch_pairs_per_s",
        (2 * pairs) as f64 / median(&ingest),
    );
    m.insert("core.datastore.finish_ingest_ms", median(&finish) * 1e3);
    let mut bytes = 0u64;
    for ds in stores.iter_mut().flatten() {
        ds.sync().expect("sync probe store");
        bytes += ds.commit_file().expect("file-backed store").1;
    }
    m.insert(
        "store.kv.bytes_written_per_pair",
        bytes as f64 / (2 * pairs) as f64,
    );
    stores
}

fn lookup(
    stores: &mut ProbeStores,
    call: &LookupCall,
    indexed: bool,
    operator: &dyn Operator,
    meta: &OpMeta,
) -> Vec<LookupOutcome> {
    // The backward store indexes backward lookups; asking the other store
    // the same question forces the scan.
    let serves = (call.direction == Direction::Backward) == indexed;
    let ds = &mut stores[call.op][usize::from(!serves)];
    let refs: Vec<&CellSet> = call.queries.iter().collect();
    match call.direction {
        Direction::Backward => ds.lookup_backward_many(&refs, call.input_idx, operator, meta),
        Direction::Forward => ds.lookup_forward_many(&refs, call.input_idx, operator, meta),
    }
}

/// `core.datastore` lookups: every call against the matching-direction
/// store (indexed) and against the other one (one shared scan per call).
/// Returns the indexed answers.
fn probe_lookups(
    inputs: &ProbeInputs,
    recorded: &[RecordedOp],
    calls: &[LookupCall],
    stores: &mut ProbeStores,
    budget: Duration,
    m: &mut Metrics,
) -> Result<Vec<Vec<LookupOutcome>>, String> {
    let operators: Vec<_> = recorded
        .iter()
        .map(|r| {
            inputs
                .workflow
                .node(r.op_id)
                .expect("recorded op")
                .operator
                .clone()
        })
        .collect();
    let mut answers = Vec::new();
    for (indexed, time_key, count_key) in [
        (
            true,
            "core.datastore.lookup_indexed_us",
            "core.datastore.entries_fetched_per_query",
        ),
        (
            false,
            "core.datastore.lookup_scan_ms",
            "core.datastore.scanned_entries_per_batch",
        ),
    ] {
        let mut per_call = Vec::new();
        let (mut fetched, mut queries) = (0usize, 0usize);
        let started = Instant::now();
        let mut pass = 0usize;
        while more(per_call.len(), started, budget / 2) {
            for call in calls {
                let t = Instant::now();
                let out = lookup(
                    stores,
                    call,
                    indexed,
                    operators[call.op].as_ref(),
                    &recorded[call.op].meta,
                );
                let secs = t.elapsed().as_secs_f64();
                if out.iter().any(|o| o.scanned == indexed) {
                    return Err(format!(
                        "probe lookup on op {} was {} scanned",
                        recorded[call.op].op_id,
                        if indexed { "unexpectedly" } else { "not" }
                    ));
                }
                if indexed {
                    per_call.push(secs * 1e6 / call.queries.len() as f64);
                } else {
                    per_call.push(secs * 1e3);
                }
                if pass == 0 {
                    fetched += out.iter().map(|o| o.entries_fetched).sum::<usize>();
                    queries += call.queries.len();
                    if indexed {
                        answers.push(out);
                    }
                }
            }
            pass += 1;
        }
        m.insert(time_key, median(&per_call));
        let per = if indexed { queries } else { calls.len() };
        m.insert(count_key, fetched as f64 / per as f64);
    }
    Ok(answers)
}

/// `array.cellset`: the operations the query arms perform, on the answers
/// the lookups returned.
fn probe_cellset(answers: &[Vec<LookupOutcome>], budget: Duration, m: &mut Metrics) {
    let sets: Vec<&CellSet> = answers.iter().flatten().map(|o| &o.result).collect();
    let ids: Vec<Vec<u64>> = sets
        .iter()
        .map(|s| s.iter_linear().map(|i| i as u64).collect())
        .collect();
    let cells: usize = ids.iter().map(Vec::len).sum();
    let mcells = |times: &[f64]| cells as f64 / median(times) / 1e6;

    let times = repeat(budget / 4, || {
        let mut added = 0usize;
        for (s, idxs) in sets.iter().zip(&ids) {
            let mut built = CellSet::empty(s.shape());
            added += built.insert_sorted(idxs);
        }
        added
    });
    m.insert("array.cellset.insert_sorted_mcells_per_s", mcells(&times));

    // Union every answer into one accumulator per shape, as a traversal
    // merging the paths of a DAG join does.
    let times = repeat(budget / 4, || {
        let mut accs: Vec<CellSet> = Vec::new();
        for s in &sets {
            match accs.iter_mut().find(|a| a.shape() == s.shape()) {
                Some(acc) => acc.union_with(s),
                None => accs.push((*s).clone()),
            }
        }
        accs.len()
    });
    m.insert("array.cellset.union_mcells_per_s", mcells(&times));

    // Each answer probed with the sorted ids of the next one of its shape,
    // as the scan join probes a query set with a decoded block.
    let times = repeat(budget / 4, || {
        let mut hits = 0u64;
        for (i, s) in sets.iter().enumerate() {
            let other = &ids[(i + 1) % ids.len()];
            if sets[(i + 1) % sets.len()].shape() == s.shape() {
                s.intersect_sorted(other, |_| hits += 1);
            }
        }
        hits
    });
    m.insert(
        "array.cellset.intersect_sorted_mcells_per_s",
        mcells(&times),
    );

    let times = repeat(budget / 4, || {
        for s in &sets {
            let mut dense = (*s).clone();
            dense.densify();
            std::hint::black_box(&dense);
        }
    });
    m.insert(
        "array.cellset.densify_us",
        median(&times) * 1e6 / sets.len() as f64,
    );
    let bytes: usize = sets.iter().map(|s| s.size_bytes()).sum();
    m.insert(
        "array.cellset.answer_bytes_per_cell",
        bytes as f64 / cells.max(1) as f64,
    );
}

/// `store.kv`: the records of the largest probe store through a raw file
/// backend.
fn probe_kv(stores: &ProbeStores, root: &Path, budget: Duration, m: &mut Metrics) {
    let largest = stores
        .iter()
        .flatten()
        .max_by_key(|ds| ds.num_entries())
        .expect("at least one store");
    let records = largest.snapshot();
    let refs: Vec<(&[u8], &[u8])> = records
        .iter()
        .map(|(k, v)| (k.as_slice(), v.as_slice()))
        .collect();
    let mb = |items: &[(&[u8], &[u8])]| {
        items.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>() as f64 / 1e6
    };
    let open = |name: &str| {
        FileBackend::open(&fresh_dir(root, name).join("probe.kv")).expect("open kv probe file")
    };

    let (times, mut backend) = repeat_with(
        budget / 6,
        |_| open("kv"),
        |mut b| {
            b.put_batch_slices(&refs);
            b
        },
    );
    m.insert("store.kv.put_batch_mb_per_s", mb(&refs) / median(&times));

    // Point reads in a seeded order.
    let mut rng = sys::SplitMix::new(records.len() as u64);
    let order: Vec<usize> = (0..1024)
        .map(|_| rng.below(records.len() as u64) as usize)
        .collect();
    let times = repeat(budget / 6, || {
        order
            .iter()
            .map(|&i| backend.get(&records[i].0).map_or(0, |v| v.len()))
            .sum::<usize>()
    });
    m.insert("store.kv.get_us", median(&times) * 1e6 / order.len() as f64);

    let times = repeat(budget / 6, || {
        let mut bytes = 0usize;
        backend.scan_slices(1024, &mut |block| {
            bytes += block.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>();
        });
        bytes
    });
    m.insert("store.kv.scan_mb_per_s", mb(&refs) / median(&times));

    // One small group write, then the fsync a commit pays.
    let small = &refs[..refs.len().min(WIRE_BATCH)];
    let mut times = Vec::new();
    let started = Instant::now();
    while more(times.len(), started, budget / 6) {
        backend.put_batch_slices(small);
        let t = Instant::now();
        backend.sync().expect("sync");
        times.push(t.elapsed().as_secs_f64());
    }
    m.insert("store.kv.sync_ms", median(&times) * 1e3);
    drop(backend);

    // Append-only deltas to every key (what write-side key dedup flushes),
    // then the compaction that folds the delta chains away.
    let deltas: Vec<(&[u8], &[u8])> = records
        .iter()
        .map(|(k, _)| (k.as_slice(), &[0x81u8, 0x01][..]))
        .collect();
    let mut merge = Vec::new();
    let mut folded = 0u64;
    let (times, _) = repeat_with(
        budget / 3,
        |_| {
            let mut b = open("kv-compact");
            b.put_batch_slices(&refs);
            let t = Instant::now();
            b.merge_append_batch(&deltas);
            merge.push(t.elapsed().as_secs_f64());
            b
        },
        |mut b| folded = b.compact().expect("compact"),
    );
    m.insert(
        "store.kv.merge_append_mb_per_s",
        mb(&deltas) / median(&merge),
    );
    m.insert("store.kv.compact_ms", median(&times) * 1e3);
    m.insert("store.kv.compact_bytes_folded", folded as f64);
}

/// `store.rtree`: the spatial index a `full_many` copy of the batches
/// would build over its output-cell bounding boxes.
fn probe_rtree(recorded: &[RecordedOp], budget: Duration, m: &mut Metrics) {
    let op = recorded
        .iter()
        .max_by_key(|r| r.pairs().count())
        .expect("at least one recorded operator");
    let entries: Vec<(BoundingBox, u64)> = op
        .pairs()
        .filter_map(|p| BoundingBox::enclosing(p.outcells()))
        .zip(0u64..)
        .collect();
    let (times, tree) = repeat_with(budget / 2, |_| entries.clone(), RTree::bulk_load);
    m.insert("store.rtree.bulk_load_ms", median(&times) * 1e3);
    let points: Vec<Coord> = op
        .pairs()
        .filter_map(|p| p.outcells().first().copied())
        .take(1024)
        .collect();
    let times = repeat(budget / 2, || {
        points
            .iter()
            .map(|c| tree.query_point(c).len())
            .sum::<usize>()
    });
    m.insert(
        "store.rtree.query_point_us",
        median(&times) * 1e6 / points.len() as f64,
    );
}

/// `store.wal`: the prepare/commit record pair with its two fsyncs, and
/// recovery of a committed capture directory.
fn probe_wal(inputs: &ProbeInputs, cfg: &Config, root: &Path, budget: Duration, m: &mut Metrics) {
    let dir = fresh_dir(root, "wal");
    let mut wal = WriteAheadLog::open(dir.join(WAL_FILE)).expect("open probe log");
    let mut txn = 0u64;
    let times = repeat(budget / 2, || {
        txn += 1;
        wal.append_record(WalRecord::Prepare {
            txn,
            files: vec![("probe.kv".to_string(), 4096 * txn)],
        })
        .and_then(|()| wal.sync())
        .and_then(|()| wal.append_record(WalRecord::Commit { txn }))
        .and_then(|()| wal.sync())
        .expect("append + sync")
    });
    m.insert("store.wal.append_sync_ms", median(&times) * 1e3);

    // A directory holding one committed capture of the workflow.
    let dir = fresh_dir(root, "recover");
    let mut sz = new_system(inputs, cfg, &dir);
    let run = sz
        .execute(&inputs.workflow, &inputs.inputs)
        .expect("recovery-probe capture");
    sz.commit_capture(run.run_id)
        .expect("recovery-probe commit");
    drop(sz);
    let wal_bytes = std::fs::metadata(dir.join(WAL_FILE)).map_or(0, |f| f.len());
    m.insert("store.wal.wal_bytes", wal_bytes as f64);
    let times = repeat(budget / 2, || recover_dir(&dir, None).expect("recover").1);
    m.insert("store.wal.recover_dir_ms", median(&times) * 1e3);
}

/// The ingest requests the recorded batches travel in.
fn store_requests(recorded: &[RecordedOp], session: u64) -> Vec<Request> {
    recorded
        .iter()
        .flat_map(|r| {
            let pairs: Vec<RegionPair> = r.pairs().cloned().collect();
            pairs
                .chunks(WIRE_BATCH)
                .map(|chunk| Request::StoreBatch {
                    session,
                    op_id: r.op_id,
                    pairs: chunk.to_vec(),
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

fn lookup_step(recorded: &[RecordedOp], call: &LookupCall) -> LookupStep {
    LookupStep {
        op_id: recorded[call.op].op_id,
        direction: call.direction,
        input_idx: call.input_idx as u32,
        queries: call.queries.clone(),
    }
}

/// `server.protocol`: the frames of the workload's ingest batches, lookup
/// requests and lookup answers, encoded and decoded.
fn probe_protocol(
    recorded: &[RecordedOp],
    calls: &[LookupCall],
    answers: &[Vec<LookupOutcome>],
    budget: Duration,
    m: &mut Metrics,
) {
    let stores = store_requests(recorded, 1);
    let pairs = total_pairs(recorded);
    let lookups: Vec<Request> = calls
        .iter()
        .map(|c| Request::Lookup {
            session: 1,
            steps: vec![lookup_step(recorded, c)],
        })
        .collect();
    let requests: Vec<&Request> = stores.iter().chain(&lookups).collect();
    let frames: Vec<Vec<u8>> = requests.iter().map(|r| encode_request(r)).collect();
    let frame_mb = |f: &[Vec<u8>]| f.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
    let store_bytes: usize = frames[..stores.len()].iter().map(Vec::len).sum();
    let lookup_bytes: usize = frames[stores.len()..].iter().map(Vec::len).sum();
    let queries: usize = calls.iter().map(|c| c.queries.len()).sum();
    m.insert(
        "server.protocol.bytes_per_pair",
        store_bytes as f64 / pairs as f64,
    );
    m.insert(
        "server.protocol.bytes_per_lookup_query",
        lookup_bytes as f64 / queries as f64,
    );
    let times = repeat(budget / 4, || {
        requests
            .iter()
            .map(|r| encode_request(r).len())
            .sum::<usize>()
    });
    m.insert(
        "server.protocol.encode_request_mb_per_s",
        frame_mb(&frames) / median(&times),
    );
    let times = repeat(budget / 4, || {
        frames
            .iter()
            .map(|f| usize::from(decode_request(f).is_ok()))
            .sum::<usize>()
    });
    m.insert(
        "server.protocol.decode_request_mb_per_s",
        frame_mb(&frames) / median(&times),
    );

    // Answers re-normalised before encoding, as the shard does.
    let mut mix = ReprCounts::default();
    let responses: Vec<Response> = answers
        .iter()
        .map(|outcomes| Response::LookupDone {
            steps: vec![outcomes
                .iter()
                .map(|o| {
                    let (mut result, mut covered) = (o.result.clone(), o.covered.clone());
                    result.optimize();
                    covered.optimize();
                    mix.merge(&result.repr_counts());
                    mix.merge(&covered.repr_counts());
                    WireOutcome {
                        result,
                        covered,
                        entries_fetched: o.entries_fetched as u64,
                        scanned: o.scanned,
                    }
                })
                .collect()],
        })
        .collect();
    m.insert(
        "server.protocol.answer_containers_sparse",
        mix.sparse as f64,
    );
    m.insert("server.protocol.answer_containers_runs", mix.runs as f64);
    m.insert("server.protocol.answer_containers_dense", mix.dense as f64);
    let frames: Vec<Vec<u8>> = responses.iter().map(encode_response).collect();
    let times = repeat(budget / 4, || {
        responses
            .iter()
            .map(|r| encode_response(r).len())
            .sum::<usize>()
    });
    m.insert(
        "server.protocol.encode_response_mb_per_s",
        frame_mb(&frames) / median(&times),
    );
    let times = repeat(budget / 4, || {
        frames
            .iter()
            .map(|f| usize::from(decode_response(f).is_ok()))
            .sum::<usize>()
    });
    m.insert(
        "server.protocol.decode_response_mb_per_s",
        frame_mb(&frames) / median(&times),
    );
}

/// `server.client`: the same batches and lookups through a durable 2-shard
/// daemon over its socket, one session per repetition.
fn probe_server(
    inputs: &ProbeInputs,
    recorded: &[RecordedOp],
    calls: &[LookupCall],
    root: &Path,
    budget: Duration,
    m: &mut Metrics,
) -> Result<(), String> {
    let dir = fresh_dir(root, "daemon");
    let socket = dir.join("p.sock");
    let server = Server::start(
        &socket,
        ServerConfig {
            data_dir: Some(dir.join("data")),
            shards: 2,
            queue_depth: 64,
            ingest_policy: OverflowPolicy::Block,
            store_stall: Duration::ZERO,
            session_ttl: None,
        },
    )
    .map_err(|e| format!("probe daemon: {e}"))?;
    let mut client = Client::connect(&socket).map_err(|e| format!("probe client: {e}"))?;
    let specs: Vec<OpSpec> = recorded
        .iter()
        .map(|r| OpSpec {
            op_id: r.op_id,
            input_shapes: r.meta.input_shapes.clone(),
            output_shape: r.meta.output_shape,
            strategies: inputs
                .strategy
                .get(r.op_id)
                .unwrap_or_default()
                .iter()
                .copied()
                .filter(|s| s.mode == LineageMode::Full)
                .collect(),
        })
        .collect();
    let io = |e| format!("probe daemon call: {e}");

    let (mut store, mut look, mut finish, mut rtt) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut sessions = 0u64;
    while sessions < 2 || started.elapsed() < budget {
        let session = client
            .open_session(&format!("probe-{sessions}"), specs.clone())
            .map_err(io)?;
        for request in store_requests(recorded, session) {
            let Request::StoreBatch { op_id, pairs, .. } = request else {
                unreachable!("store_requests builds StoreBatch only")
            };
            let t = Instant::now();
            let ack = client.store_batch(session, op_id, pairs).map_err(io)?;
            store.push(t.elapsed().as_secs_f64());
            if !ack.accepted {
                return Err("probe batch shed under Block admission".into());
            }
        }
        let t = Instant::now();
        client.finish_session(session).map_err(io)?;
        finish.push(t.elapsed().as_secs_f64());
        for call in calls {
            let step = lookup_step(recorded, call);
            let t = Instant::now();
            client.lookup(session, vec![step]).map_err(io)?;
            look.push(t.elapsed().as_secs_f64());
        }
        // One-query round trips: framing plus the shard rendezvous.
        let call = &calls[0];
        let rtt_started = Instant::now();
        for i in 0..64 {
            if !more(i, rtt_started, budget / 8) {
                break;
            }
            let mut step = lookup_step(recorded, call);
            step.queries.truncate(1);
            let t = Instant::now();
            client.lookup(session, vec![step]).map_err(io)?;
            rtt.push(t.elapsed().as_secs_f64());
        }
        client.close_session(session).map_err(io)?;
        sessions += 1;
    }
    let stats = client.stats().map_err(io)?;
    drop(client);
    server.shutdown_and_wait();

    look.sort_by(f64::total_cmp);
    m.insert("server.client.store_batch_p50_ms", median(&store) * 1e3);
    m.insert("server.client.lookup_p50_ms", percentile(&look, 50.0) * 1e3);
    m.insert("server.client.lookup_p99_ms", percentile(&look, 99.0) * 1e3);
    m.insert("server.client.finish_session_p50_ms", median(&finish) * 1e3);
    m.insert("server.client.single_lookup_rtt_us", median(&rtt) * 1e6);
    m.insert("server.client.shed_batches", stats.shed_batches as f64);
    m.insert("server.client.commits", stats.commits as f64);
    Ok(())
}

/// Runs every probe within `budget_s` seconds in total and prints, per
/// layer, the share of one end-to-end operation (`op_ms`) its isolated
/// time accounts for: the ceiling on what a change to that layer can save.
pub fn run(
    cfg: &Config,
    inputs: &ProbeInputs,
    budget_s: f64,
    op_ms: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let root = cfg.scratch.join("probes");
    let slice = Duration::from_secs_f64(budget_s / 11.0);
    let recorded = probe_engine(inputs, slice, m);
    if recorded.is_empty() {
        return Err("the workload's workflow emitted no region pairs".into());
    }
    let calls = lookup_calls(inputs, &recorded)?;
    probe_capture(inputs, cfg, &root, slice * 2, m);
    probe_query(inputs, cfg, &root, slice, m)?;
    probe_encode(&recorded, slice, m);
    let mut stores = probe_ingest(&recorded, cfg, &root, slice, m);
    let answers = probe_lookups(inputs, &recorded, &calls, &mut stores, slice, m)?;
    probe_cellset(&answers, slice, m);
    probe_kv(&stores, &root, slice, m);
    drop(stores);
    probe_rtree(&recorded, slice / 2, m);
    probe_wal(inputs, cfg, &root, slice / 2, m);
    probe_protocol(&recorded, &calls, &answers, slice, m);
    probe_server(inputs, &recorded, &calls, &root, slice, m)?;
    let _ = std::fs::remove_dir_all(&root);
    estimate_shares(inputs, op_ms, m);
    Ok(())
}

/// Prints what one end-to-end operation spends in each probed layer,
/// estimated from the isolated probe times.
fn estimate_shares(inputs: &ProbeInputs, op_ms: f64, m: &Metrics) {
    println!("layer estimates for one op (p50 {op_ms:.4} ms), from the isolated probes:");
    let row = |layer: &str, ms: f64| {
        println!(
            "  {layer:<44} {ms:>12.4} ms {:>7.1}% of op",
            100.0 * ms / op_ms
        );
    };
    let c = inputs.captures_per_op;
    if c > 0.0 {
        let pairs = m["engine.executor.pairs_emitted"];
        row(
            "engine.executor (run, capture off)",
            c * m["engine.executor.nocapture_run_ms"],
        );
        row(
            "core.runtime.execute beyond the plain run",
            c * (m["core.runtime.execute_ms"] - m["engine.executor.nocapture_run_ms"]),
        );
        row(
            "core.capture.finish_capture",
            c * m["core.capture.finish_capture_ms"],
        );
        row(
            "core.capture.commit_capture",
            c * m["core.capture.commit_capture_ms"],
        );
        row(
            "  of which core.encoder (pairs once)",
            c * 1e3 * pairs / m["core.encoder.encode_pairs_per_s"],
        );
        row(
            "  of which core.datastore.store_batch (one store)",
            c * 1e3 * pairs / m["core.datastore.store_batch_pairs_per_s"],
        );
    }
    let q = inputs.query_calls_per_op;
    if q > 0.0 {
        row(
            "core.query (query calls)",
            q * m["core.query.query_p50_us"] / 1e3,
        );
        if m["core.query.steps_scanned"] > 0.0 {
            row(
                "  of which core.datastore scan (first edge)",
                q * m["core.datastore.lookup_scan_ms"],
            );
        } else {
            let per_call = inputs
                .query_calls
                .iter()
                .map(|(_, b)| b.len())
                .sum::<usize>() as f64
                / inputs.query_calls.len() as f64;
            row(
                "  of which core.datastore indexed (first edge)",
                q * per_call * m["core.datastore.lookup_indexed_us"] / 1e3,
            );
        }
    }
}
