//! Fixed-bin histograms for run statistics (task waits, turnarounds,
//! per-iteration metric distributions).

/// A histogram over `[lo, hi)` with uniform bins; values outside the range
/// land in saturating edge bins so nothing is silently dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// A histogram over `[lo, hi)` with `bins` uniform bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins > 0, "need at least one bin");
        assert!(hi > lo, "range must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Record a value. NaNs are ignored (and not counted).
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        let bins = self.counts.len();
        let idx = if value < self.lo {
            0
        } else if value >= self.hi {
            bins - 1
        } else {
            (((value - self.lo) / (self.hi - self.lo)) * bins as f64) as usize
        };
        self.counts[idx.min(bins - 1)] += 1;
        self.total += 1;
    }

    /// Render as horizontal ASCII bars, `width` characters for the modal bin.
    pub fn render(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = "#".repeat((c as usize * width).div_ceil(max as usize).min(width));
            out.push_str(&format!(
                "{:>10.2} .. {:>10.2} | {bar} {c}\n",
                self.lo + w * i as f64,
                self.lo + w * (i + 1) as f64
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_land_in_the_right_bins() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [0.0, 1.9, 2.0, 5.5, 9.99] {
            h.record(v);
        }
        assert_eq!(h.counts, [2, 1, 1, 0, 1]);
        assert_eq!(h.total, 5);
    }

    #[test]
    fn out_of_range_saturates_at_edges() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.record(-5.0);
        h.record(99.0);
        assert_eq!(h.counts, [1, 1]);
    }

    #[test]
    fn nan_is_ignored() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(f64::NAN);
        assert_eq!(h.total, 0);
    }

    #[test]
    fn render_scales_bars() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        for v in [0.5, 0.6, 1.5] {
            h.record(v);
        }
        let text = h.render(10);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].matches('#').count() > lines[1].matches('#').count());
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
