//! Summary statistics used by the experiment harnesses.
//!
//! The paper reports medians with "error bars of half a standard deviation"
//! (Figs. 2 and 3) and net-Δ percentages (Table I). This module provides
//! exactly those aggregations, with well-defined behaviour on empty input.

use impress_json::json_struct;

/// Summary of a sample: count, mean, median, standard deviation, extremes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean (0 for empty input).
    pub mean: f64,
    /// Median (0 for empty input).
    pub median: f64,
    /// Population standard deviation (0 for n < 2).
    pub std_dev: f64,
    /// Minimum (0 for empty input).
    pub min: f64,
    /// Maximum (0 for empty input).
    pub max: f64,
}
json_struct!(Summary {
    n,
    mean,
    median,
    std_dev,
    min,
    max
});

impl Summary {
    /// Summarize a sample. NaNs are filtered out rather than poisoning the
    /// ordering; this matches how the harnesses treat failed trajectories.
    pub fn of(values: &[f64]) -> Summary {
        let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
        if v.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                median: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
        let n = v.len();
        let mean = v.iter().sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        Summary {
            n,
            mean,
            median,
            std_dev: var.sqrt(),
            min: v[0],
            max: v[n - 1],
        }
    }

    /// Half a standard deviation — the paper's error-bar convention.
    pub fn half_std(&self) -> f64 {
        self.std_dev / 2.0
    }
}

/// Relative improvement of `ours` over `baseline`, as a percentage — e.g.
/// Table I reports IM-RP's pTM net Δ as "+14.3%" relative to CONT-V.
///
/// For metrics where lower is better (pAE), callers pass the deltas directly;
/// the sign convention is the caller's responsibility.
pub fn relative_improvement_pct(baseline: f64, ours: f64) -> f64 {
    if baseline.abs() < 1e-12 {
        return 0.0;
    }
    (ours - baseline) / baseline.abs() * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn even_length_median_interpolates() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.median - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_are_defined() {
        let e = Summary::of(&[]);
        assert_eq!(e.n, 0);
        assert_eq!(e.median, 0.0);
        let s = Summary::of(&[7.0]);
        assert_eq!(s.n, 1);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn nans_are_filtered() {
        let s = Summary::of(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.n, 2);
        assert!((s.median - 2.0).abs() < 1e-12);
    }

    #[test]
    fn half_std_matches_paper_convention() {
        let s = Summary::of(&[0.0, 2.0]);
        assert!((s.std_dev - 1.0).abs() < 1e-12);
        assert!((s.half_std() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn relative_improvement_matches_table1_style() {
        // Table I: CONT-V pTM Δ 0.28, IM-RP 0.32 → +14.3%
        let pct = relative_improvement_pct(0.28, 0.32);
        assert!((pct - 14.285714).abs() < 1e-3);
        assert_eq!(relative_improvement_pct(0.0, 1.0), 0.0);
    }
}
