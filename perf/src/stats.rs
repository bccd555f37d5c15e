//! Timing a call, and order statistics for the samples.

use std::time::Instant;

/// Run `f`; host seconds it took, and what it returned.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// The median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller samples at least one op.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value at quantile `q` of `xs`, nearest-rank on the sorted samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentiles worth reporting, lowest first.
const TAILS: [f64; 3] = [0.90, 0.99, 0.999];

/// The highest percentile that still has at least ten samples beyond it, or
/// `None` when even p90 does not (fewer than 100 samples): a tail estimated
/// from a handful of points does not repeat.
pub fn tail_quantile(samples: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .rfind(|q| samples as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the "exclusive" method), which is what the acceptance rule
/// for run-to-run spread is written in. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| -> f64 {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.90), 90.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.9), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(14), None);
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(999), Some(0.90));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(spread(&xs), 1.0);
    }
}
