//! The measuring loop shared by every workload: repeated set-up, warm-up,
//! the closed-loop measured window, and the end-to-end metrics derived from
//! it.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use subzero::model::LineageStrategy;
use subzero::query::QuerySpec;
use subzero_array::{Array, Coord};
use subzero_engine::Workflow;

use crate::stats;
use crate::sys;
use crate::trace::{self, Span, Tracer};

/// Everything a run is parameterised by.
#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Length of the warm-up before it (caches fill, lazy indexes build).
    pub warmup: f64,
    /// Fewest times set-up runs; `setup_s` is the median.  Cheap set-ups
    /// repeat further (see [`repeated_setup`]).
    pub setup_reps: usize,
    /// `--check`: shrink every workload so the whole suite takes seconds.
    pub tiny: bool,
    /// Worker threads pinned into the system (`min(nproc, 2)`), so numbers
    /// do not follow `available_parallelism()`.
    pub workers: usize,
    /// Scratch directory of this run; removed when it ends.
    pub scratch: PathBuf,
}

/// One closed-loop client: its next operation starts only when the previous
/// one has completed.
pub trait Client: Send {
    /// Runs operation number `index` of this client, wrapping each call it
    /// makes into a layer in a span.  An `Err` is a failed operation: it
    /// errored, was shed, or its answer failed the in-window check.
    fn op(&mut self, index: u64, tr: &mut Tracer) -> Result<(), String>;
}

impl<C: Client> Client for &mut C {
    fn op(&mut self, index: u64, tr: &mut Tracer) -> Result<(), String> {
        (**self).op(index, tr)
    }
}

/// Answers and counts checked outside the timed window.
#[derive(Default)]
pub struct Verification {
    /// `(what, passed)` for every check made.
    pub checks: Vec<(String, bool)>,
    /// `(key, value)` checksums compared with `golden/` for the default seed.
    pub golden: Vec<(String, String)>,
}

impl Verification {
    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.checks.push((what.into(), passed));
    }

    pub fn golden(&mut self, key: &str, value: impl ToString) {
        self.golden.push((key.to_string(), value.to_string()));
    }
}

/// What the layer probes replay: the workload's own workflow and the calls
/// its operations make, so each layer is timed on this workload's inputs.
pub struct ProbeInputs {
    pub workflow: Arc<Workflow>,
    pub inputs: HashMap<String, Array>,
    /// The workload's own strategy assignment.
    pub strategy: LineageStrategy,
    /// One entry per batched query call: the spec and its cell batches.
    pub query_calls: Vec<(QuerySpec, Vec<Vec<Coord>>)>,
    /// Captures of `workflow` per end-to-end operation (0 when the
    /// operation captures nothing).
    pub captures_per_op: f64,
    /// Entries of `query_calls` per end-to-end operation (0 when the
    /// operation queries nothing).
    pub query_calls_per_op: f64,
}

pub trait Workload: Sized {
    const NAME: &'static str;

    /// Builds everything the first operation needs, under `dir`.  Timed:
    /// the median over its repetitions is `setup_s`.
    fn setup(cfg: &Config, dir: &Path) -> Self;

    /// One line describing shape, operation size and flush policy.
    fn describe(&self) -> String;

    /// The closed-loop clients of the load.
    fn clients(&mut self) -> Vec<Box<dyn Client + '_>>;

    /// `(lineage bytes on disk, bytes of user data)`, both exact counts.
    fn disk_overhead(&self) -> (u64, u64);

    /// Checks answers outside the timed window.
    fn verify(&mut self, cfg: &Config) -> Verification;

    fn probe_inputs(&self) -> ProbeInputs;
}

/// What one window of closed-loop load produced.
pub struct Window {
    /// `(start, end)` of every operation, nanoseconds from window start.
    pub ops: Vec<(u64, u64)>,
    pub failures: Vec<String>,
    pub window_ns: u64,
    /// Process CPU time spent between window start and the last client
    /// finishing.
    pub cpu_ms: f64,
    pub spans: Vec<Span>,
}

/// Runs every client in its own thread until `seconds` have passed.
/// `next_index[c]` carries client `c`'s operation counter across windows.
pub fn run_window(
    clients: &mut [Box<dyn Client + '_>],
    next_index: &mut [u64],
    seconds: f64,
    traced: bool,
) -> Window {
    let start = Instant::now();
    let cpu_start = sys::cpu_ms();
    let window = Duration::from_secs_f64(seconds);
    struct ClientResult {
        ops: Vec<(u64, u64)>,
        failures: Vec<String>,
        spans: Vec<Span>,
    }
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(next_index.iter_mut())
            .enumerate()
            .map(|(c, (client, index))| {
                scope.spawn(move || {
                    let mut tr = Tracer::new(traced, start, c as u32);
                    let mut ops = Vec::new();
                    let mut failures = Vec::new();
                    loop {
                        let begin = start.elapsed();
                        if begin >= window {
                            break;
                        }
                        tr.set_op(*index);
                        tr.begin("op");
                        let outcome = client.op(*index, &mut tr);
                        tr.end();
                        ops.push((begin.as_nanos() as u64, start.elapsed().as_nanos() as u64));
                        if let Err(e) = outcome {
                            failures.push(format!("client {c} op {index}: {e}"));
                        }
                        *index += 1;
                    }
                    ClientResult {
                        ops,
                        failures,
                        spans: tr.into_spans(),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let cpu_ms = sys::cpu_ms() - cpu_start;
    let mut out = Window {
        ops: Vec::new(),
        failures: Vec::new(),
        window_ns: window.as_nanos() as u64,
        cpu_ms,
        spans: Vec::new(),
    };
    let mut span_lists = Vec::new();
    for r in results {
        out.ops.extend(r.ops);
        out.failures.extend(r.failures);
        span_lists.push(r.spans);
    }
    out.spans = trace::merge(span_lists);
    out
}

/// Equal parts the window is cut into for the throughput median.
const SLICES: usize = 10;

impl Window {
    /// Median over the window's slices of operations completed per second.
    pub fn ops_per_s(&self) -> f64 {
        stats::median(&self.slice_rates())
    }

    /// Operations completed per second in each slice of the window.
    pub fn slice_rates(&self) -> Vec<f64> {
        stats::slice_rates(&self.ops, self.window_ns, SLICES)
    }

    /// Operation latencies in milliseconds, ascending.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .ops
            .iter()
            .map(|&(s, e)| (e - s) as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_ms / self.ops.len() as f64
    }
}

/// Seconds of set-up after which no further repetition starts.
const SETUP_BUDGET_S: f64 = 2.0;
/// Most set-up repetitions, however cheap one is.
const MAX_SETUP_REPS: usize = 15;

/// Runs set-up at least `cfg.setup_reps` times — and, while repetitions are
/// cheap, up to `MAX_SETUP_REPS` times within `SETUP_BUDGET_S`, so that a
/// 0.1 s set-up is a median of fifteen and not of five.  Each repetition
/// builds into a fresh directory after the previous instance is dropped.
/// Returns the last instance and the duration of every repetition.
pub fn repeated_setup<W: Workload>(cfg: &Config) -> (W, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last: Option<(W, PathBuf)> = None;
    for rep in 0..MAX_SETUP_REPS {
        let more = cfg.setup_reps > 1 && times.iter().sum::<f64>() < SETUP_BUDGET_S;
        if rep >= cfg.setup_reps && !more {
            break;
        }
        if let Some((w, dir)) = last.take() {
            drop(w);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = cfg.scratch.join(format!("setup{rep}"));
        std::fs::create_dir_all(&dir).expect("create set-up directory");
        let start = Instant::now();
        let w = W::setup(cfg, &dir);
        times.push(start.elapsed().as_secs_f64());
        last = Some((w, dir));
    }
    (last.expect("at least one set-up repetition").0, times)
}
