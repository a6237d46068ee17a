//! The benchmark's own statistics: nearest-rank percentiles, the rule that
//! picks which tail percentile a sample can carry, quartile spread, and the
//! sliced throughput estimate.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// The nearest rank `ceil(p% of n)`; the small slack keeps a product that
/// is a whole number in exact arithmetic (99.9 % of 10 000) from rounding up.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Candidate tail percentiles, ascending.
const TAILS: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest tail percentile with at least ten samples beyond it, or
/// `None` when even p75 has fewer (the sample only carries a median).
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS.iter().copied().rfind(|&p| n - rank(n, p) >= 10)
}

/// Median of an unsorted sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), so spreads printed here match the
/// ones the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let at = |i: usize| {
        // 1-based rank i*m/4, interpolated; ranks outside the sample are
        // extrapolated from the end interval, as Python does.
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Operations completed per second in each of `slices` equal parts of the
/// window `0..window_ns`.  An operation that straddles a slice boundary is
/// credited to each slice by the share of its duration inside it, so the
/// estimate is not quantised by the operation length.
pub fn slice_rates(ops: &[(u64, u64)], window_ns: u64, slices: usize) -> Vec<f64> {
    let slice_ns = window_ns as f64 / slices as f64;
    let mut credit = vec![0.0f64; slices];
    for &(start, end) in ops {
        let (start, end) = (start as f64, (end.min(window_ns)) as f64);
        if end <= start {
            continue;
        }
        let dur = end - start;
        let first = (start / slice_ns) as usize;
        let last = ((end / slice_ns) as usize).min(slices - 1);
        for (s, c) in credit.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = start.max(s as f64 * slice_ns);
            let hi = end.min((s + 1) as f64 * slice_ns);
            if hi > lo {
                *c += (hi - lo) / dur;
            }
        }
    }
    credit.iter().map(|c| c / (slice_ns / 1e9)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_selection_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_tail(10), None);
        assert_eq!(highest_supported_tail(39), None);
        assert_eq!(highest_supported_tail(40), Some(75.0));
        assert_eq!(highest_supported_tail(99), Some(75.0));
        assert_eq!(highest_supported_tail(100), Some(90.0));
        assert_eq!(highest_supported_tail(199), Some(90.0));
        assert_eq!(highest_supported_tail(200), Some(95.0));
        assert_eq!(highest_supported_tail(1000), Some(99.0));
        assert_eq!(highest_supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slice_rates_split_straddling_ops() {
        // Two slices of 1 s; one op fills the first slice, one straddles
        // the boundary evenly, one fills the rest.
        let s = 1_000_000_000u64;
        let ops = [(0, s / 2), (s / 2, 3 * s / 2), (3 * s / 2, 2 * s)];
        let rates = slice_rates(&ops, 2 * s, 2);
        assert!((rates[0] - 1.5).abs() < 1e-9);
        assert!((rates[1] - 1.5).abs() < 1e-9);
        // An op running past the window is clipped, not dropped.
        let rates = slice_rates(&[(0, 4 * s)], 2 * s, 2);
        assert!((rates[0] - 0.5).abs() < 1e-9 && (rates[1] - 0.5).abs() < 1e-9);
    }
}
