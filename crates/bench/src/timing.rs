//! A minimal benchmark harness used by the `cargo bench` targets.
//!
//! The build environment has no crates.io access, so criterion is not
//! available; this module provides the small slice of it the benches need:
//! auto-calibrated measurement loops, per-iteration times, and a uniform
//! one-line report format that is easy to grep and to parse.

use std::time::{Duration, Instant};

/// One measured benchmark.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Benchmark label, e.g. `capture/full_many/batch64`.
    pub name: String,
    /// Number of iterations measured.
    pub iters: u64,
    /// Total wall-clock time of the measured iterations.
    pub total: Duration,
}

impl Sample {
    /// Mean wall-clock time per iteration.
    pub fn per_iter(&self) -> Duration {
        if self.iters == 0 {
            Duration::ZERO
        } else {
            self.total / self.iters as u32
        }
    }

    /// The standard one-line report.
    pub fn report(&self) -> String {
        format!(
            "bench {:<44} {:>12} /iter  ({} iters)",
            self.name,
            format_duration(self.per_iter()),
            self.iters
        )
    }
}

/// Formats a duration with a unit that keeps 3-4 significant digits.
pub fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 10_000 {
        format!("{nanos} ns")
    } else if nanos < 10_000_000 {
        format!("{:.2} us", nanos as f64 / 1_000.0)
    } else if nanos < 10_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

/// Runs `f` repeatedly for roughly `target` wall-clock time (after one warmup
/// call) and returns the measurement.  The result of `f` is passed through
/// [`std::hint::black_box`] so the compiler cannot elide the work.
pub fn run<R>(name: impl Into<String>, target: Duration, mut f: impl FnMut() -> R) -> Sample {
    // Warmup + calibration: time one call to pick an iteration batch size.
    let start = Instant::now();
    std::hint::black_box(f());
    let once = start.elapsed().max(Duration::from_nanos(50));

    let mut iters: u64 = 0;
    let mut total = Duration::ZERO;
    let batch = (target.as_nanos() / (once.as_nanos() * 20)).clamp(1, 10_000) as u64;
    while total < target {
        let start = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        total += start.elapsed();
        iters += batch;
    }
    Sample {
        name: name.into(),
        iters,
        total,
    }
}

/// Runs and immediately prints a benchmark, returning the sample for further
/// reporting (e.g. throughput lines or JSON emission).
pub fn run_reported<R>(name: impl Into<String>, target: Duration, f: impl FnMut() -> R) -> Sample {
    let sample = run(name, target, f);
    println!("{}", sample.report());
    sample
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_measures_and_counts_iterations() {
        let mut count = 0u64;
        let s = run("t", Duration::from_millis(5), || {
            count += 1;
            // A dependent-multiply chain keeps one iteration above a
            // nanosecond; a sub-nanosecond closure would make per_iter()
            // truncate to Duration::ZERO and flake the assertion below.
            let mut acc = count;
            for i in 0..64 {
                acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i));
            }
            acc
        });
        // One warmup call plus the measured iterations.
        assert_eq!(count, s.iters + 1);
        assert!(s.total >= Duration::from_millis(5));
        assert!(s.per_iter() > Duration::ZERO);
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert!(format_duration(Duration::from_nanos(500)).ends_with("ns"));
        assert!(format_duration(Duration::from_micros(50)).ends_with("us"));
        assert!(format_duration(Duration::from_millis(50)).ends_with("ms"));
        assert!(format_duration(Duration::from_secs(50)).ends_with(" s"));
    }
}
