//! The SubZero benchmark of record.  `README.md` documents the workloads,
//! the metrics and how they relate; `../BENCHMARK.json` is the contract.
//!
//! One invocation measures one workload, untraced (`--trace 0`: the
//! end-to-end metrics) or traced (`--trace 1`: spans around every call into
//! a layer plus the layer probes: the per-layer metrics).  Its last line of
//! standard output is the result as one JSON object.

mod harness;
mod manifest;
mod probes;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Config, Workload};
use manifest::{MetricDecl, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use workloads::astro::{AstroCapture, AstroQuery};
use workloads::daemon::DaemonMixed;
use workloads::micro::MicroScan;

/// The seed `golden/` was recorded with.
const DEFAULT_SEED: u64 = 42;

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    bless: bool,
    tsv: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: subzero-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--check] [--tsv FILE] [--bless]\n       subzero-benchmark --emit-manifest | --check-manifest | --compare A.tsv B.tsv | --spread RUNS.tsv",
        WORKLOADS.map(|w| w.name).join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        check: false,
        bless: false,
        tsv: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => o.workload = value()?,
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--check" => o.check = true,
            "--bless" => o.bless = true,
            "--tsv" => o.tsv = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == o.workload) {
        return Err(format!("unknown workload '{}'\n{}", o.workload, usage()));
    }
    Ok(o)
}

/// Measures one workload and prints the result; `Ok(true)` when every
/// answer verified and no operation failed.
fn run<W: Workload>(o: &Options) -> Result<bool, String> {
    sys::refuse_env_overrides()?;
    let cfg = Config {
        seed: o.seed,
        seconds: if o.check { 0.4 } else { o.seconds },
        warmup: if o.check {
            0.1
        } else {
            (o.seconds / 8.0).clamp(1.0, 5.0)
        },
        // The traced run reports no set-up time, so it sets up once.
        setup_reps: if o.trace || o.check { 1 } else { 5 },
        tiny: o.check,
        workers: sys::nproc().min(2),
        // Relative and short: the daemon's unix socket lives below it.
        scratch: PathBuf::from(format!("benchmark/out/scratch/{}", std::process::id())),
    };
    std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("create scratch: {e}"))?;
    let outcome = measure::<W>(o, &cfg);
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    // Leaves the parent in place while another run is using it.
    let _ = std::fs::remove_dir("benchmark/out/scratch");
    outcome
}

fn measure<W: Workload>(o: &Options, cfg: &Config) -> Result<bool, String> {
    report::environment(W::NAME, o.trace, cfg);
    let (mut w, setup_times) = harness::repeated_setup::<W>(cfg);
    println!("workload: {}", w.describe());

    // Warm-up, then the measured window(s).  The traced run measures two
    // quarter-length windows, tracing off then on (their throughput ratio is
    // the tracing overhead), and leaves the other half to the probes.
    let (plain, traced, warm_failures) = {
        let mut clients = w.clients();
        let mut next = vec![0u64; clients.len()];
        let warm = harness::run_window(&mut clients, &mut next, cfg.warmup, false);
        let len = if o.trace {
            cfg.seconds / 4.0
        } else {
            cfg.seconds
        };
        let plain = harness::run_window(&mut clients, &mut next, len, false);
        let traced = o
            .trace
            .then(|| harness::run_window(&mut clients, &mut next, len, true));
        (plain, traced, warm.failures)
    };
    let peak_rss_mb = sys::peak_rss_mb();
    let (lineage_bytes, user_bytes) = w.disk_overhead();
    let verification = w.verify(cfg);

    let mut failures = warm_failures;
    failures.extend(plain.failures.iter().cloned());
    let mut attempted = plain.ops.len();
    if let Some(t) = &traced {
        failures.extend(t.failures.iter().cloned());
        attempted += t.ops.len();
    }
    for f in failures.iter().take(5) {
        println!("FAILED op: {f}");
    }
    let mut correct = failures.is_empty();
    correct &= report::verification(W::NAME, o, &verification)?;

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let decls: &[MetricDecl] = if let Some(t) = &traced {
        let inputs = w.probe_inputs();
        drop(w);
        report::ledger(t);
        trace::write_json(
            &PathBuf::from(format!("benchmark/out/trace_{}.json", W::NAME)),
            W::NAME,
            o.seed,
            &t.spans,
        )
        .map_err(|e| format!("write trace: {e}"))?;
        metrics.insert(
            "bench.trace_overhead_frac",
            1.0 - t.ops_per_s() / plain.ops_per_s(),
        );
        metrics.insert("bench.harness_self_frac", report::harness_self_frac(t));
        // The probes get the other half of the run's time budget.
        let op_ms = stats::percentile(&t.latencies_ms(), 50.0);
        probes::run(cfg, &inputs, cfg.seconds / 2.0, op_ms, &mut metrics)?;
        &PER_LAYER
    } else {
        let lat = plain.latencies_ms();
        metrics.insert("setup_s", stats::median(&setup_times));
        metrics.insert("ops_per_s", plain.ops_per_s());
        metrics.insert("op_p50_ms", stats::percentile(&lat, 50.0));
        metrics.insert("op_p90_ms", stats::percentile(&lat, 90.0));
        metrics.insert("cpu_ms_per_op", plain.cpu_ms_per_op());
        metrics.insert("peak_rss_mb", peak_rss_mb);
        metrics.insert("disk_overhead_x", lineage_bytes as f64 / user_bytes as f64);
        report::end_to_end(
            &metrics,
            &plain,
            &setup_times,
            (lineage_bytes, user_bytes),
            failures.len(),
        );
        &END_TO_END
    };
    report::result(
        W::NAME,
        o,
        decls,
        &metrics,
        correct,
        attempted,
        failures.len(),
    )?;
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ci_mode = args.iter().any(|a| {
        matches!(
            a.as_str(),
            "--check" | "--check-manifest" | "--compare" | "--spread"
        )
    });
    let outcome = match args.first().map(String::as_str) {
        Some("--emit-manifest") => {
            print!("{}", manifest::benchmark_json());
            Ok(true)
        }
        Some("--check-manifest") => report::check_manifest(),
        Some("--spread") if args.len() == 2 => report::spread(&PathBuf::from(&args[1])),
        Some("--compare") if args.len() == 3 => {
            report::compare(&PathBuf::from(&args[1]), &PathBuf::from(&args[2]))
        }
        _ => parse(&args).and_then(|o| match o.workload.as_str() {
            "astro_capture" => run::<AstroCapture>(&o),
            "astro_query" => run::<AstroQuery>(&o),
            "micro_scan" => run::<MicroScan>(&o),
            _ => run::<DaemonMixed>(&o),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A result line with `"correct": false` was printed: the run itself
        // worked.  Only the CI modes turn a failed check into a failure.
        Ok(false) if !ci_mode => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("subzero-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
