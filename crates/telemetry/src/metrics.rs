//! Live metrics: named counters, gauges and histograms, snapshotted into a
//! deterministic [`MetricsSnapshot`].

use impress_sim::Histogram;
use std::sync::Mutex;

/// One counter at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Metric name (no prefix; exporters add one).
    pub name: String,
    /// Monotonic total.
    pub value: u64,
}

/// One gauge at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Last set value.
    pub value: f64,
}

/// One cumulative histogram bucket: observations `<= le`.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketSample {
    /// Upper bound of the bucket (finite; the implicit `+Inf` bucket is
    /// [`HistogramSample::count`]).
    pub le: f64,
    /// Cumulative count of observations at or below `le`.
    pub count: u64,
}

/// One histogram at snapshot time, in Prometheus cumulative-bucket form.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Total observations (the `+Inf` bucket).
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Cumulative finite buckets, ascending `le`.
    pub buckets: Vec<BucketSample>,
}

/// Point-in-time copy of every live metric, sorted by name — the same
/// run always snapshots in the same order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All counters, name-ascending.
    pub counters: Vec<CounterSample>,
    /// All gauges, name-ascending.
    pub gauges: Vec<GaugeSample>,
    /// All histograms, name-ascending.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Counter value by name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Gauge value by name, if present.
    #[cfg(test)]
    pub(crate) fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Histogram sample by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// A histogram cell tracking the running sum alongside the binned counts
/// (a [`HistogramSample`] carries `sum`, which [`Histogram`] alone does not
/// retain).
///
/// Overflow discipline: `Histogram` saturates out-of-range values into its
/// edge bins, which is right for plotting but wrong for cumulative
/// buckets — a value at or above the top bound must appear *only* in the
/// implicit `+Inf` bucket (`count`), never under a finite `le`. The cell
/// therefore routes such values past the binned histogram and counts them in
/// `count`/`sum` alone. NaN observations are dropped entirely, so `count`,
/// `sum`, and the bucket totals can never drift apart.
#[derive(Debug)]
struct HistCell {
    hist: Histogram,
    /// Bottom bound of the first bin.
    lo: f64,
    /// Top bound of the finite bins; observations `>= hi` bypass them.
    hi: f64,
    sum: f64,
    count: u64,
}

impl HistCell {
    fn new(lo: f64, hi: f64, bins: usize) -> Self {
        HistCell {
            hist: Histogram::new(lo, hi, bins),
            lo,
            hi,
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        if value < self.hi {
            self.hist.record(value);
        }
        self.sum += value;
        self.count += 1;
    }

    /// Cumulative finite buckets. Each bound comes from the cell's own
    /// `lo`/`hi`, and the top one is exactly `hi`.
    fn buckets(&self) -> Vec<BucketSample> {
        let counts = self.hist.counts();
        let width = (self.hi - self.lo) / counts.len() as f64;
        let mut cum = 0u64;
        counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                cum += c;
                let le = if i + 1 == counts.len() {
                    self.hi
                } else {
                    self.lo + width * (i + 1) as f64
                };
                BucketSample { le, count: cum }
            })
            .collect()
    }
}

/// Interior-mutable metric registry shared by all clones of one
/// [`Telemetry`](crate::Telemetry) handle: one lock over three short
/// vectors of `(name, value)` series, kept in first-use order.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    series: Mutex<Series>,
}

#[derive(Debug, Default)]
struct Series {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
    histograms: Vec<(&'static str, HistCell)>,
}

/// The value of `name`'s series, created by `new` on first use. Metric
/// names are literals, so a call site finds its series by the literal's
/// address; the same text at another address (another crate's copy of the
/// literal, a leaked string) is matched by text on a miss and merges into
/// the same series.
fn entry<'a, T>(
    series: &'a mut Vec<(&'static str, T)>,
    name: &'static str,
    new: impl FnOnce() -> T,
) -> &'a mut T {
    let at = series
        .iter()
        .position(|(n, _)| std::ptr::eq(*n, name))
        .or_else(|| series.iter().position(|(n, _)| *n == name))
        .unwrap_or_else(|| {
            series.push((name, new()));
            series.len() - 1
        });
    &mut series[at].1
}

impl Metrics {
    fn lock(&self) -> std::sync::MutexGuard<'_, Series> {
        self.series.lock().expect("metrics lock")
    }

    pub(crate) fn count(&self, name: &'static str, delta: u64) {
        *entry(&mut self.lock().counters, name, || 0) += delta;
    }

    pub(crate) fn gauge(&self, name: &'static str, value: f64) {
        *entry(&mut self.lock().gauges, name, || 0.0) = value;
    }

    pub(crate) fn observe(&self, name: &'static str, lo: f64, hi: f64, bins: usize, value: f64) {
        let mut series = self.lock();
        entry(&mut series.histograms, name, || HistCell::new(lo, hi, bins)).observe(value);
    }

    /// Record a batch of observations into one histogram under a single
    /// lock acquisition. Hot loops (the sharded simulation backend flushes
    /// a placement round's queue-wait samples in one call) pay one stamp
    /// per batch instead of one per value; since bucket totals are
    /// order-independent, the resulting snapshot is identical to N
    /// individual [`Metrics::observe`] calls.
    pub(crate) fn observe_many(
        &self,
        name: &'static str,
        lo: f64,
        hi: f64,
        bins: usize,
        values: &[f64],
    ) {
        if values.is_empty() {
            return;
        }
        let mut series = self.lock();
        let cell = entry(&mut series.histograms, name, || HistCell::new(lo, hi, bins));
        for &value in values {
            cell.observe(value);
        }
    }

    /// Every series, sorted by name: the snapshot does not depend on the
    /// order in which names were first used.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let series = self.lock();
        let mut counters: Vec<CounterSample> = series
            .counters
            .iter()
            .map(|&(name, value)| CounterSample {
                name: name.to_string(),
                value,
            })
            .collect();
        let mut gauges: Vec<GaugeSample> = series
            .gauges
            .iter()
            .map(|&(name, value)| GaugeSample {
                name: name.to_string(),
                value,
            })
            .collect();
        let mut histograms: Vec<HistogramSample> = series
            .histograms
            .iter()
            .map(|(name, cell)| HistogramSample {
                name: name.to_string(),
                count: cell.count,
                sum: cell.sum,
                buckets: cell.buckets(),
            })
            .collect();
        drop(series);
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}
