//! Busy-interval timelines and utilization accounting.
//!
//! The paper's Figures 4 and 5 plot per-device (CPU core / GPU) utilization
//! over the run. [`IntervalTrace`] records `[start, end)` busy intervals for
//! one device; [`UtilizationTracker`] aggregates a set of devices into the
//! percentage figures reported in Table I and a binned time series suitable
//! for plotting.

use crate::time::{SimDuration, SimTime};
use impress_json::json_struct;

/// One busy interval on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyInterval {
    /// Interval start (inclusive).
    pub start: SimTime,
    /// Interval end (exclusive).
    pub end: SimTime,
}
json_struct!(BusyInterval { start, end });

impl BusyInterval {
    /// Length of the interval.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// Overlap between this interval and `[lo, hi)`.
    pub fn overlap(&self, lo: SimTime, hi: SimTime) -> SimDuration {
        let s = self.start.max(lo);
        let e = self.end.min(hi);
        e.since(s)
    }
}

/// Busy-interval record for a single device.
#[derive(Debug, Clone, Default)]
pub struct IntervalTrace {
    intervals: Vec<BusyInterval>,
    open: Option<SimTime>,
}
json_struct!(IntervalTrace { intervals, open });

impl IntervalTrace {
    /// An empty trace, pre-sized so the first few hundred busy intervals of
    /// a campaign never reallocate mid-simulation.
    pub fn new() -> Self {
        IntervalTrace {
            intervals: Vec::with_capacity(256),
            open: None,
        }
    }

    /// Mark the device busy from `at`. Panics if already marked busy —
    /// a device executes one task at a time in both backends.
    pub fn begin(&mut self, at: SimTime) {
        assert!(self.open.is_none(), "device already busy at {at}");
        self.open = Some(at);
    }

    /// Mark the device idle from `at`, closing the open interval.
    pub fn end(&mut self, at: SimTime) {
        let start = self.open.take().expect("end() without begin()");
        assert!(at >= start, "interval ends before it starts");
        if at > start {
            self.intervals.push(BusyInterval { start, end: at });
        }
    }

    /// Close any open interval at `at` (used at simulation shutdown).
    pub fn flush(&mut self, at: SimTime) {
        if self.open.is_some() {
            self.end(at);
        }
    }

    /// All recorded intervals, in begin order.
    pub fn intervals(&self) -> &[BusyInterval] {
        &self.intervals
    }

    /// Total busy time in `[lo, hi)`, including any still-open interval.
    fn busy_within(&self, lo: SimTime, hi: SimTime) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for iv in &self.intervals {
            total += iv.overlap(lo, hi);
        }
        if let Some(start) = self.open {
            total += BusyInterval { start, end: hi }.overlap(lo, hi);
        }
        total
    }

    /// Fraction of `[lo, hi)` the device was busy, in `[0, 1]`.
    pub fn utilization(&self, lo: SimTime, hi: SimTime) -> f64 {
        let span = hi.since(lo);
        if span == SimDuration::ZERO {
            return 0.0;
        }
        self.busy_within(lo, hi).as_secs_f64() / span.as_secs_f64()
    }
}

/// A utilization time series: one value per fixed-width bin.
#[derive(Debug, Clone)]
pub struct UtilizationSeries {
    /// Bin width.
    pub bin: SimDuration,
    /// Mean utilization (0–1) of the device group in each bin.
    pub values: Vec<f64>,
}
json_struct!(UtilizationSeries { bin, values });

/// Aggregates utilization over a named group of devices (e.g. "cpu" × 28,
/// "gpu" × 4).
#[derive(Debug, Clone, Default)]
pub struct UtilizationTracker {
    devices: Vec<IntervalTrace>,
}
json_struct!(UtilizationTracker { devices });

impl UtilizationTracker {
    /// Tracker for `n` devices, all initially idle.
    pub fn new(n: usize) -> Self {
        UtilizationTracker {
            devices: (0..n).map(|_| IntervalTrace::new()).collect(),
        }
    }

    /// Number of devices tracked.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the tracker has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Mark device `idx` busy from `at`.
    pub fn begin(&mut self, idx: usize, at: SimTime) {
        self.devices[idx].begin(at);
    }

    /// Mark device `idx` idle from `at`.
    pub fn end(&mut self, idx: usize, at: SimTime) {
        self.devices[idx].end(at);
    }

    /// Close all open intervals at `at`.
    pub fn flush(&mut self, at: SimTime) {
        for d in &mut self.devices {
            d.flush(at);
        }
    }

    /// Trace for one device.
    pub fn device(&self, idx: usize) -> &IntervalTrace {
        &self.devices[idx]
    }

    /// Group-mean utilization over `[lo, hi)`, in `[0, 1]`.
    pub fn mean_utilization(&self, lo: SimTime, hi: SimTime) -> f64 {
        if self.devices.is_empty() {
            return 0.0;
        }
        self.devices
            .iter()
            .map(|d| d.utilization(lo, hi))
            .sum::<f64>()
            / self.devices.len() as f64
    }

    /// Group-mean utilization binned into a plottable time series over
    /// `[SimTime::ZERO, end)`.
    pub fn series(&self, end: SimTime, bin: SimDuration) -> UtilizationSeries {
        assert!(bin > SimDuration::ZERO, "bin width must be positive");
        let nbins = (end.as_micros() + bin.as_micros() - 1) / bin.as_micros().max(1);
        let values = (0..nbins)
            .map(|i| {
                let lo = SimTime::from_micros(i * bin.as_micros());
                let hi = SimTime::from_micros(((i + 1) * bin.as_micros()).min(end.as_micros()));
                self.mean_utilization(lo, hi)
            })
            .collect();
        UtilizationSeries { bin, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_micros(s * 1_000_000)
    }

    #[test]
    fn single_interval_utilization() {
        let mut tr = IntervalTrace::new();
        tr.begin(t(2));
        tr.end(t(6));
        assert!((tr.utilization(t(0), t(8)) - 0.5).abs() < 1e-12);
        assert!((tr.utilization(t(2), t(6)) - 1.0).abs() < 1e-12);
        assert_eq!(tr.busy_within(t(0), t(2)), SimDuration::ZERO);
    }

    #[test]
    fn open_interval_counts_toward_busy() {
        let mut tr = IntervalTrace::new();
        tr.begin(t(0));
        assert!((tr.utilization(t(0), t(10)) - 1.0).abs() < 1e-12);
        tr.flush(t(10));
        assert_eq!(tr.intervals().len(), 1);
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn double_begin_panics() {
        let mut tr = IntervalTrace::new();
        tr.begin(t(0));
        tr.begin(t(1));
    }

    #[test]
    fn zero_length_interval_is_dropped() {
        let mut tr = IntervalTrace::new();
        tr.begin(t(3));
        tr.end(t(3));
        assert!(tr.intervals().is_empty());
    }

    #[test]
    fn overlap_clips_to_window() {
        let iv = BusyInterval {
            start: t(5),
            end: t(15),
        };
        assert_eq!(iv.overlap(t(0), t(10)), SimDuration::from_secs(5));
        assert_eq!(iv.overlap(t(10), t(20)), SimDuration::from_secs(5));
        assert_eq!(iv.overlap(t(20), t(30)), SimDuration::ZERO);
        assert_eq!(iv.overlap(t(0), t(30)), SimDuration::from_secs(10));
    }

    #[test]
    fn tracker_means_over_devices() {
        let mut tk = UtilizationTracker::new(2);
        tk.begin(0, t(0));
        tk.end(0, t(10)); // device 0: 100%
                          // device 1: idle
        assert!((tk.mean_utilization(t(0), t(10)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn series_bins_are_correct() {
        let mut tk = UtilizationTracker::new(1);
        tk.begin(0, t(0));
        tk.end(0, t(5));
        let s = tk.series(t(10), SimDuration::from_secs(5));
        assert_eq!(s.values.len(), 2);
        assert!((s.values[0] - 1.0).abs() < 1e-12);
        assert!(s.values[1].abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_reports_zero() {
        let tk = UtilizationTracker::new(0);
        assert_eq!(tk.mean_utilization(t(0), t(10)), 0.0);
        assert!(tk.is_empty());
    }
}
