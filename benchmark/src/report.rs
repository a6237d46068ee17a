//! Everything the benchmark prints or writes: the environment stanza, the
//! human-readable metric lines, the result JSON line, the TSV rows
//! `repeat.sh` compares, and the golden-checksum file.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::harness::{Config, Verification, Window};
use crate::manifest::{self, MetricDecl, END_TO_END, EXACT_COUNTS};
use crate::trace::{self, NO_PARENT};
use crate::{stats, sys, Options, DEFAULT_SEED};

const GOLDEN: &str = "benchmark/golden/seed42.tsv";
const MANIFEST: &str = "BENCHMARK.json";

/// Everything two runs must share to be comparable.
pub fn environment(workload: &str, traced: bool, cfg: &Config) {
    println!(
        "== {workload} ({}) ==",
        if traced { "traced" } else { "untraced" }
    );
    println!(
        "env: commit {} | {} | nproc {} | workers pinned {} (capture, datastore lookups), daemon shards 2, clients 2 | scan mode mmap (default), fsync only at commit",
        sys::commit_hash(),
        sys::rustc_version(),
        sys::nproc(),
        cfg.workers,
    );
    println!(
        "run: seed {} | set-up x{}+ | warm-up {:.2} s | window {:.2} s{} | closed loop",
        cfg.seed,
        cfg.setup_reps,
        cfg.warmup,
        cfg.seconds,
        if cfg.tiny { " | --check sizes" } else { "" },
    );
}

/// Prints every check and compares (or, with `--bless`, records) the golden
/// checksums.  Returns whether everything passed.
pub fn verification(workload: &str, o: &Options, v: &Verification) -> Result<bool, String> {
    let mut ok = true;
    for (what, passed) in &v.checks {
        println!(
            "verify: {} ... {what}",
            if *passed { "ok" } else { "FAILED" }
        );
        ok &= passed;
    }
    if o.seed != DEFAULT_SEED || o.check {
        return Ok(ok);
    }
    let text = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if o.bless {
        let mut lines: Vec<String> = text
            .lines()
            .filter(|l| l.split('\t').next() != Some(workload))
            .map(str::to_string)
            .collect();
        lines.extend(
            v.golden
                .iter()
                .map(|(k, val)| format!("{workload}\t{k}\t{val}")),
        );
        lines.sort();
        std::fs::create_dir_all("benchmark/golden").map_err(|e| e.to_string())?;
        std::fs::write(GOLDEN, lines.join("\n") + "\n").map_err(|e| e.to_string())?;
        println!(
            "verify: blessed {} golden values into {GOLDEN}",
            v.golden.len()
        );
        return Ok(ok);
    }
    let golden: BTreeMap<&str, &str> = text
        .lines()
        .filter_map(|l| {
            let mut f = l.split('\t');
            (f.next() == Some(workload)).then(|| Some((f.next()?, f.next()?)))?
        })
        .collect();
    for (key, value) in &v.golden {
        let passed = golden.get(key.as_str()) == Some(&value.as_str());
        if !passed {
            println!(
                "verify: FAILED ... golden {key}: got {value}, recorded {}",
                golden.get(key.as_str()).unwrap_or(&"nothing")
            );
        }
        ok &= passed;
    }
    println!("verify: {} golden checksums compared", v.golden.len());
    Ok(ok)
}

/// The human-readable end-to-end block: every metric by name with its unit
/// and the sample count behind every percentile.
pub fn end_to_end(
    m: &BTreeMap<&'static str, f64>,
    w: &Window,
    setup_times: &[f64],
    (lineage, user): (u64, u64),
    failed: usize,
) {
    let lat = w.latencies_ms();
    let n = lat.len();
    println!(
        "setup_s          {:>12.6} s      (median of {} set-ups, min {:.6}, max {:.6})",
        m["setup_s"],
        setup_times.len(),
        setup_times.iter().copied().fold(f64::INFINITY, f64::min),
        setup_times.iter().copied().fold(0.0, f64::max),
    );
    println!(
        "ops_per_s        {:>12.3} ops/s  (median of 10 window slices; whole window {:.3})",
        m["ops_per_s"],
        n as f64 / (w.window_ns as f64 / 1e9),
    );
    let slices: Vec<String> = w.slice_rates().iter().map(|r| format!("{r:.1}")).collect();
    println!("  slices: {}", slices.join(" "));
    println!("op_p50_ms        {:>12.4} ms     (n = {n})", m["op_p50_ms"]);
    println!("op_p90_ms        {:>12.4} ms     (n = {n})", m["op_p90_ms"]);
    match stats::highest_supported_tail(n) {
        Some(p) => println!(
            "  highest tail with >= 10 samples beyond it: p{p} = {:.4} ms",
            stats::percentile(&lat, p)
        ),
        None => println!("  n = {n} carries no tail percentile (fewer than 10 samples beyond p75)"),
    }
    println!(
        "cpu_ms_per_op    {:>12.4} ms     (process user+sys over {n} ops)",
        m["cpu_ms_per_op"]
    );
    println!(
        "peak_rss_mb      {:>12.3} MiB    (VmHWM when the window ended)",
        m["peak_rss_mb"]
    );
    println!(
        "disk_overhead_x  {:>12.6} x      ({lineage} lineage bytes / {user} user bytes)",
        m["disk_overhead_x"]
    );
    println!(
        "failed_frac      {:>12.6}        ({failed} of {n} ops)",
        failed as f64 / n.max(1) as f64
    );
}

/// Share of the operations' wall time spent outside every wrapped call:
/// the benchmark's own work (building requests, checking answers).
pub fn harness_self_frac(w: &Window) -> f64 {
    let selfs = trace::self_times(&w.spans);
    let (mut total, mut own) = (0u64, 0u64);
    for (s, self_ns) in w.spans.iter().zip(selfs) {
        if s.parent == NO_PARENT {
            total += s.end_ns - s.start_ns;
            own += self_ns;
        }
    }
    own as f64 / total as f64
}

/// The self-time ledger: per span name, how much of an operation it is.
pub fn ledger(w: &Window) {
    let rows = trace::ledger(&w.spans);
    let op_ns: u64 = rows
        .iter()
        .find(|r| r.name == "op")
        .map_or(1, |r| r.total_ns);
    println!("spans: {} recorded over {} ops", w.spans.len(), w.ops.len());
    println!(
        "  {:<34} {:>8} {:>12} {:>12} {:>10}",
        "span", "count", "total ms", "self ms", "self/op"
    );
    for r in &rows {
        println!(
            "  {:<34} {:>8} {:>12.3} {:>12.3} {:>9.1}%",
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            100.0 * r.self_ns as f64 / op_ns as f64,
        );
    }
}

/// Prints the result line (last line of standard output) and appends the
/// TSV rows.  Fails when the metrics measured are not exactly the ones the
/// manifest declares.
pub fn result(
    workload: &str,
    o: &Options,
    decls: &[MetricDecl],
    metrics: &BTreeMap<&'static str, f64>,
    correct: bool,
    attempted: usize,
    failed: usize,
) -> Result<(), String> {
    for name in metrics.keys() {
        if !manifest::valid_name(name) {
            return Err(format!("'{name}' is not a valid metric name"));
        }
        if !decls.iter().any(|d| d.name == *name) {
            return Err(format!(
                "measured {name}, which BENCHMARK.json does not declare"
            ));
        }
    }
    let mut fields = Vec::with_capacity(decls.len());
    let mut rows = String::new();
    for d in decls {
        let value = *metrics
            .get(d.name)
            .ok_or_else(|| format!("{} is declared but was not measured", d.name))?;
        if !value.is_finite() {
            return Err(format!("{} = {value} is not a number", d.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
        rows.push_str(&format!("{workload}\t{}\t{}\t{value}\n", d.name, d.unit));
    }
    if let Some(path) = &o.tsv {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(rows.as_bytes()))
            .map_err(|e| format!("append {}: {e}", path.display()))?;
    }
    if o.trace {
        println!("per-layer metrics:");
        for d in decls {
            println!("  {:<48} {:>16.4} {}", d.name, metrics[d.name], d.unit);
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    Ok(())
}

/// `--check-manifest`: the committed `BENCHMARK.json` must be exactly what
/// the metric tables generate.
pub fn check_manifest() -> Result<bool, String> {
    let committed =
        std::fs::read_to_string(MANIFEST).map_err(|e| format!("read {MANIFEST}: {e}"))?;
    if committed == manifest::benchmark_json() {
        println!("{MANIFEST} matches the benchmark's metric tables");
        return Ok(true);
    }
    println!(
        "{MANIFEST} differs from the benchmark's metric tables; regenerate it with --emit-manifest"
    );
    Ok(false)
}

/// Every value recorded per `(workload, metric)`, in file order.
fn read_tsv(path: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut rows: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for l in text.lines() {
        let f: Vec<&str> = l.split('\t').collect();
        let [workload, name, _unit, value] = f[..] else {
            return Err(format!("{}: malformed row {l}", path.display()));
        };
        let value = value
            .parse()
            .map_err(|e| format!("{}: {l}: {e}", path.display()))?;
        rows.entry((workload.to_string(), name.to_string()))
            .or_default()
            .push(value);
    }
    Ok(rows)
}

/// `--spread FILE`: the TSV rows of several runs (ten seeds, say).  Prints
/// per workload and end-to-end metric the median and the interquartile
/// range as a share of it, the way the driver computes the spread, against
/// the metric's bound.  Passes when every spread but `setup_s`'s is within
/// its bound; spreads above a third of the bound are marked.
pub fn spread(path: &Path) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>3} {:>14} {:>9} {:>7}",
        "workload", "metric", "n", "median", "iqr/med", "bound"
    );
    for ((workload, name), values) in read_tsv(path)? {
        let Some(d) = END_TO_END.iter().find(|d| d.name == name) else {
            continue;
        };
        if values.len() < 2 {
            return Err(format!("{workload} {name}: one run has no spread"));
        }
        let share = stats::iqr_share(&values);
        let mark = if share > d.bound && name != "setup_s" {
            ok = false;
            "EXCEEDS BOUND"
        } else if share > d.bound / 3.0 {
            "above a third of the bound"
        } else {
            ""
        };
        println!(
            "{workload:<14} {name:<16} {:>3} {:>14.6} {:>8.2}% {:>6.0}% {mark}",
            values.len(),
            stats::median(&values),
            100.0 * share,
            100.0 * d.bound,
        );
    }
    Ok(ok)
}

/// `--compare A B`: two sets of runs of the same code and seed (one run
/// each, or several: the medians are compared).  The medians of every
/// end-to-end metric must agree within its bound, and every exact count
/// must be bit-identical in every run of both sets.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (read_tsv(a)?, read_tsv(b)?);
    let mut ok = a.len() == b.len();
    println!(
        "{:<14} {:<46} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "diff", "bound"
    );
    for ((workload, name), all_a) in &a {
        let Some(all_b) = b.get(&(workload.clone(), name.clone())) else {
            println!("{workload} {name}: missing from set B");
            ok = false;
            continue;
        };
        let (va, vb) = (stats::median(all_a), stats::median(all_b));
        let diff = if va == vb { 0.0 } else { (vb - va) / va.abs() };
        let bound = END_TO_END.iter().find(|d| d.name == name);
        let exact = EXACT_COUNTS.contains(&name.as_str());
        let identical = all_a.iter().chain(all_b).all(|v| *v == all_a[0]);
        let verdict = if exact && !identical {
            ok = false;
            "COUNT DIFFERS"
        } else if let Some(d) = bound {
            // Either set may be the worse one, so the size of the
            // difference is what counts.
            if diff.abs() > d.bound {
                ok = false;
                "OUT OF BOUND"
            } else {
                ""
            }
        } else {
            ""
        };
        println!(
            "{workload:<14} {name:<46} {va:>14.6} {vb:>14.6} {:>8.2}% {:>7} {verdict}",
            100.0 * diff,
            match (bound, exact) {
                (Some(d), _) => format!("{:.0}%", 100.0 * d.bound),
                (None, true) => "exact".to_string(),
                (None, false) => "-".to_string(),
            },
        );
    }
    let runs = |set: &BTreeMap<_, Vec<f64>>| set.values().map(Vec::len).max().unwrap_or(0);
    println!(
        "A/A verdict ({} + {} runs per workload and mode): {}",
        runs(&a),
        runs(&b),
        if ok { "agree" } else { "DISAGREE" }
    );
    Ok(ok)
}
