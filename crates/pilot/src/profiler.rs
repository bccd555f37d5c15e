//! Utilization accounting: the one accountant every driver books into.
//!
//! Occupancy is counted in whole device-microseconds — core-µs, GPU-slot-µs
//! and GPU-hardware-µs, as integers — in a running total and in
//! [`SERIES_BIN`]-wide bins, and becomes a fraction only when read: the
//! Table I CPU%/GPU% cells from the totals, the Fig. 4/5 timelines from
//! the bins. Integer sums do not depend on the order events are booked
//! in, so every driver reports the same bits for the same event stream.
//!
//! Two GPU views are kept, because the paper mixes them:
//!
//! * **slot occupancy** — a GPU counts as used from allocation to release.
//!   This is what a pilot runtime's own profiler reports, and what the
//!   paper's IM-RP numbers (61% GPU) reflect;
//! * **hardware busy** — the GPU counts as used only while kernels actually
//!   run (`gpu_busy_fraction` of the task's running window). This is what
//!   `nvidia-smi` sampling reports, and what the paper's CONT-V numbers
//!   (~1% GPU) reflect, since vanilla AlphaFold leaves the GPU idle during
//!   its CPU-bound phases.
//!
//! CPU slot occupancy and CPU hardware busy coincide in this workload (the
//! CPU phases are genuinely compute/I/O bound), so only one CPU view exists.

use crate::resources::Allocation;
use impress_sim::{SimDuration, SimTime};

/// Width of one utilization-series bin: Figs. 4 and 5 plot ten virtual
/// minutes a point.
pub const SERIES_BIN: SimDuration = SimDuration::from_mins(10);

const BIN_US: u64 = SERIES_BIN.as_micros();

/// Aggregate utilization numbers for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationReport {
    /// Mean CPU-core occupancy over the run, 0–1.
    pub cpu: f64,
    /// Mean GPU slot occupancy over the run, 0–1.
    pub gpu_slot: f64,
    /// Mean GPU hardware-busy fraction over the run, 0–1.
    pub gpu_hardware: f64,
    /// Run makespan.
    pub makespan: SimDuration,
    /// Number of tasks completed.
    pub tasks: usize,
    /// Attempts the pilot resubmitted after a retryable fault.
    pub retries: usize,
    /// Core-seconds burnt by attempts that did not complete (faulted,
    /// timed out, or were evicted by a node crash). The occupancy means
    /// above include these seconds — the slots really were held — so this
    /// field is what separates useful from lost work. Always 0 in
    /// fault-free runs.
    pub wasted_core_seconds: f64,
    /// GPU-slot-seconds burnt by attempts that did not complete.
    pub wasted_gpu_seconds: f64,
    /// Hedged speculative duplicates the backend placed.
    pub hedges: usize,
    /// Core-seconds burnt by hedge losers (the duplicate or original that
    /// lost the race). Kept separate from [`wasted_core_seconds`] — hedge
    /// waste is the *price* of straggler mitigation, retry waste is the
    /// price of faults — so studies can weigh one against the other.
    /// Always 0 with hedging off.
    ///
    /// [`wasted_core_seconds`]: UtilizationReport::wasted_core_seconds
    pub hedge_wasted_core_seconds: f64,
    /// GPU-slot-seconds burnt by hedge losers.
    pub hedge_wasted_gpu_seconds: f64,
}

/// Busy device-microseconds of one device class.
#[derive(Debug)]
struct Meter {
    devices: u64,
    /// Devices busy now; occupancy since the accountant's last tick is
    /// not booked yet. Always 0 for hardware-busy time, which is booked
    /// whole when its attempt ends.
    busy: u64,
    busy_us: u128,
    /// `bins[i]` is the busy device-µs booked in `[i, i + 1) × SERIES_BIN`.
    bins: Vec<u64>,
}

impl Meter {
    fn new(devices: u64) -> Self {
        Meter {
            devices,
            busy: 0,
            busy_us: 0,
            bins: Vec::new(),
        }
    }

    /// Book `n` devices busy over `[lo, hi)` µs.
    fn book(&mut self, n: u64, lo: u64, hi: u64) {
        if n == 0 || hi <= lo {
            return;
        }
        self.busy_us += u128::from(n) * u128::from(hi - lo);
        let last = ((hi - 1) / BIN_US) as usize;
        if self.bins.len() <= last {
            self.bins.resize(last + 1, 0);
        }
        let mut at = lo;
        while at < hi {
            let bin = at / BIN_US;
            let edge = ((bin + 1) * BIN_US).min(hi);
            self.bins[bin as usize] += n * (edge - at);
            at = edge;
        }
    }

    /// `busy_us` over `devices × span_us`; 0 with no devices or no span.
    fn fraction(&self, busy_us: u128, span_us: u64) -> f64 {
        if self.devices == 0 || span_us == 0 {
            0.0
        } else {
            busy_us as f64 / (self.devices as f64 * span_us as f64)
        }
    }
}

/// The accountant: three [`Meter`]s plus run counters.
#[derive(Debug)]
pub(crate) struct Profiler {
    cpu: Meter,
    gpu_slot: Meter,
    gpu_hw: Meter,
    /// Slot occupancy is booked up to here.
    last: SimTime,
    tasks: usize,
    retries: usize,
    wasted_core_seconds: f64,
    wasted_gpu_seconds: f64,
    hedges: usize,
    hedge_wasted_core_seconds: f64,
    hedge_wasted_gpu_seconds: f64,
}

impl Profiler {
    /// An accountant for `cores` CPU cores and `gpus` GPUs in total.
    pub(crate) fn new(cores: u64, gpus: u64) -> Self {
        Profiler {
            cpu: Meter::new(cores),
            gpu_slot: Meter::new(gpus),
            gpu_hw: Meter::new(gpus),
            last: SimTime::ZERO,
            tasks: 0,
            retries: 0,
            wasted_core_seconds: 0.0,
            wasted_gpu_seconds: 0.0,
            hedges: 0,
            hedge_wasted_core_seconds: 0.0,
            hedge_wasted_gpu_seconds: 0.0,
        }
    }

    /// Book slot occupancy up to `now`.
    fn tick(&mut self, now: SimTime) {
        let (lo, hi) = (self.last.as_micros(), now.as_micros());
        if hi > lo {
            self.cpu.book(self.cpu.busy, lo, hi);
            self.gpu_slot.book(self.gpu_slot.busy, lo, hi);
            self.last = now;
        }
    }

    /// An attempt (or hedge duplicate) begins occupying `alloc` at `at`.
    pub(crate) fn started(&mut self, alloc: &Allocation, at: SimTime) {
        self.tick(at);
        for (meter, n) in [
            (&mut self.cpu, alloc.cores),
            (&mut self.gpu_slot, alloc.gpus),
        ] {
            meter.busy += n as u64;
            assert!(
                meter.busy <= meter.devices,
                "more devices busy than exist at {at}"
            );
        }
    }

    /// End `alloc`'s occupancy at `at`; the seconds it lasted.
    fn vacate(&mut self, alloc: &Allocation, started: SimTime, at: SimTime) -> f64 {
        self.tick(at);
        for (meter, n) in [
            (&mut self.cpu, alloc.cores),
            (&mut self.gpu_slot, alloc.gpus),
        ] {
            meter.busy = meter
                .busy
                .checked_sub(n as u64)
                .unwrap_or_else(|| panic!("a device released twice at {at}"));
        }
        at.since(started).as_secs_f64()
    }

    /// A useful execution released `alloc`. `gpu_busy_fraction` of the
    /// occupancy window is booked as hardware-busy GPU time, placed at the
    /// end of the window, where inference kernels actually run.
    pub(crate) fn finished(
        &mut self,
        alloc: &Allocation,
        started: SimTime,
        finished: SimTime,
        gpu_busy_fraction: f64,
    ) {
        self.vacate(alloc, started, finished);
        let busy = finished
            .since(started)
            .mul_f64(gpu_busy_fraction.clamp(0.0, 1.0));
        let end = finished.as_micros();
        self.gpu_hw
            .book(alloc.gpus as u64, end - busy.as_micros(), end);
        self.tasks += 1;
    }

    /// An attempt ended *without* completing its task: its occupancy ends
    /// and its span is booked as wasted work. It completes no task, and no
    /// hardware-busy GPU time is booked — a killed attempt never reached
    /// its inference kernels.
    pub(crate) fn wasted(&mut self, alloc: &Allocation, started: SimTime, at: SimTime) {
        let secs = self.vacate(alloc, started, at);
        self.wasted_core_seconds += secs * alloc.cores as f64;
        self.wasted_gpu_seconds += secs * alloc.gpus as f64;
    }

    /// A hedge *loser* released its slots: its span is booked as hedge
    /// waste — the deliberate price of straggler mitigation, kept apart
    /// from fault/retry waste.
    pub(crate) fn hedge_wasted(&mut self, alloc: &Allocation, started: SimTime, at: SimTime) {
        let secs = self.vacate(alloc, started, at);
        self.hedge_wasted_core_seconds += secs * alloc.cores as f64;
        self.hedge_wasted_gpu_seconds += secs * alloc.gpus as f64;
    }

    /// Note a transparent resubmission.
    pub(crate) fn note_retry(&mut self) {
        self.retries += 1;
    }

    /// Note a hedged speculative duplicate placement.
    pub(crate) fn note_hedge(&mut self) {
        self.hedges += 1;
    }

    /// Aggregate report over `[0, end)`: busy device-µs over
    /// `devices × end`, the devices still busy counted up to `end`.
    pub(crate) fn report(&self, end: SimTime) -> UtilizationReport {
        let end_us = end.as_micros();
        let tail = u128::from(end.since(self.last).as_micros());
        let mean = |m: &Meter| m.fraction(m.busy_us + u128::from(m.busy) * tail, end_us);
        UtilizationReport {
            cpu: mean(&self.cpu),
            gpu_slot: mean(&self.gpu_slot),
            gpu_hardware: mean(&self.gpu_hw),
            makespan: end.since(SimTime::ZERO),
            tasks: self.tasks,
            retries: self.retries,
            wasted_core_seconds: self.wasted_core_seconds,
            wasted_gpu_seconds: self.wasted_gpu_seconds,
            hedges: self.hedges,
            hedge_wasted_core_seconds: self.hedge_wasted_core_seconds,
            hedge_wasted_gpu_seconds: self.hedge_wasted_gpu_seconds,
        }
    }

    /// `meter`'s [`SERIES_BIN`] series over `[0, end)`, a partial last bin
    /// measured over its own width.
    fn series(&self, meter: &Meter, end: SimTime) -> Vec<f64> {
        let (end_us, last) = (end.as_micros(), self.last.as_micros());
        (0..end_us.div_ceil(BIN_US))
            .map(|i| {
                let lo = i * BIN_US;
                let hi = (lo + BIN_US).min(end_us);
                let booked = meter.bins.get(i as usize).copied().unwrap_or(0);
                let open = meter.busy * hi.saturating_sub(last.max(lo));
                meter.fraction(u128::from(booked + open), hi - lo)
            })
            .collect()
    }

    /// CPU occupancy in [`SERIES_BIN`]s up to `end` (Figs. 4–5).
    pub(crate) fn cpu_series(&self, end: SimTime) -> Vec<f64> {
        self.series(&self.cpu, end)
    }

    /// GPU slot occupancy in [`SERIES_BIN`]s up to `end`.
    pub(crate) fn gpu_slot_series(&self, end: SimTime) -> Vec<f64> {
        self.series(&self.gpu_slot, end)
    }

    /// GPU hardware-busy time in [`SERIES_BIN`]s up to `end`.
    pub(crate) fn gpu_hw_series(&self, end: SimTime) -> Vec<f64> {
        self.series(&self.gpu_hw, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_micros(s * 1_000_000)
    }

    fn m(mins: u64) -> SimTime {
        t(mins * 60)
    }

    fn alloc(cores: u32, gpus: u32) -> Allocation {
        Allocation {
            node: 0,
            cores,
            gpus,
        }
    }

    #[test]
    fn slot_occupancy_covers_full_window() {
        let mut p = Profiler::new(4, 2);
        let a = alloc(2, 1);
        p.started(&a, t(10));
        p.finished(&a, t(10), t(20), 1.0);
        let r = p.report(t(20));
        // 2 of 4 cores busy for half the run → 25%.
        assert_eq!(r.cpu, 0.25);
        // 1 of 2 GPUs for half the run → 25%.
        assert_eq!(r.gpu_slot, 0.25);
        assert_eq!(r.gpu_hardware, 0.25);
        assert_eq!(r.tasks, 1);
    }

    #[test]
    fn hardware_busy_respects_fraction() {
        let mut p = Profiler::new(1, 1);
        let a = alloc(1, 1);
        p.started(&a, t(0));
        p.finished(&a, t(0), t(100), 0.25);
        let r = p.report(t(100));
        assert_eq!(r.gpu_slot, 1.0);
        assert_eq!(r.gpu_hardware, 0.25);
    }

    #[test]
    fn hardware_busy_time_sits_at_the_end_of_the_window() {
        // 20 minutes of slot occupancy, the last quarter on the kernels:
        // minutes 15-20, all in the second bin.
        let mut p = Profiler::new(1, 1);
        let a = alloc(1, 1);
        p.started(&a, m(0));
        p.finished(&a, m(0), m(20), 0.25);
        assert_eq!(p.gpu_slot_series(m(20)), [1.0, 1.0]);
        assert_eq!(p.gpu_hw_series(m(20)), [0.0, 0.5]);
    }

    #[test]
    fn sequential_tasks_on_same_device_accumulate() {
        let mut p = Profiler::new(1, 0);
        let a = alloc(1, 0);
        p.started(&a, t(0));
        p.finished(&a, t(0), t(4), 1.0);
        p.started(&a, t(6));
        p.finished(&a, t(6), t(10), 1.0);
        let r = p.report(t(10));
        assert_eq!(r.cpu, 0.8);
    }

    #[test]
    fn series_show_the_load_shape() {
        let mut p = Profiler::new(2, 0);
        let a = alloc(2, 0);
        p.started(&a, m(0));
        p.finished(&a, m(0), m(10), 1.0);
        assert_eq!(p.cpu_series(m(20)), [1.0, 0.0]);
    }

    #[test]
    fn a_single_busy_window_reads_as_its_share_of_the_run() {
        let mut p = Profiler::new(1, 0);
        let a = alloc(1, 0);
        p.started(&a, m(2));
        p.finished(&a, m(2), m(6), 1.0);
        assert_eq!(p.report(m(8)).cpu, 0.5);
        assert_eq!(p.report(m(6)).cpu, 4.0 / 6.0);
        assert_eq!(p.cpu_series(m(8)), [0.5]);
    }

    #[test]
    fn busy_time_is_averaged_over_every_device() {
        // Core 0 busy for the whole run, core 1 idle.
        let mut p = Profiler::new(2, 0);
        let a = alloc(1, 0);
        p.started(&a, t(0));
        p.finished(&a, t(0), t(10), 1.0);
        assert_eq!(p.report(t(10)).cpu, 0.5);
    }

    #[test]
    fn each_bin_reads_its_own_busy_share() {
        let mut p = Profiler::new(1, 0);
        let a = alloc(1, 0);
        p.started(&a, m(0));
        p.finished(&a, m(0), m(15), 1.0);
        let s = p.cpu_series(m(30));
        assert_eq!(s.len(), 3);
        assert_eq!(s, [1.0, 0.5, 0.0]);
    }

    #[test]
    fn no_devices_read_as_idle() {
        let mut p = Profiler::new(2, 0);
        p.started(&alloc(1, 0), m(0));
        let r = p.report(m(20));
        assert_eq!((r.gpu_slot, r.gpu_hardware), (0.0, 0.0));
        assert_eq!(p.gpu_slot_series(m(20)), [0.0, 0.0]);
        assert_eq!(p.gpu_hw_series(m(20)), [0.0, 0.0]);
        assert_eq!(Profiler::new(0, 0).report(m(20)).cpu, 0.0);
    }

    #[test]
    fn an_interval_is_split_across_the_bins_it_spans() {
        let mut p = Profiler::new(1, 0);
        let a = alloc(1, 0);
        p.started(&a, m(5));
        p.finished(&a, m(5), m(25), 1.0);
        assert_eq!(p.cpu_series(m(30)), [0.5, 1.0, 0.5]);
    }

    #[test]
    fn a_partial_last_bin_is_measured_over_its_own_width() {
        let mut p = Profiler::new(2, 0);
        let a = alloc(1, 0);
        p.started(&a, m(10));
        p.finished(&a, m(10), m(13), 1.0);
        // The run ends 4 minutes into the second bin: 1 of 2 cores for
        // 3 of those 4 minutes.
        assert_eq!(p.cpu_series(m(14)), [0.0, 0.375]);
    }

    #[test]
    fn an_open_interval_counts_at_read_time() {
        let mut p = Profiler::new(2, 1);
        p.started(&alloc(1, 1), m(5));
        let r = p.report(m(20));
        assert_eq!(r.cpu, 0.375, "1 of 2 cores for 15 of 20 minutes");
        assert_eq!(r.gpu_slot, 0.75);
        assert_eq!(r.gpu_hardware, 0.0, "kernels are booked at the end");
        assert_eq!(p.cpu_series(m(20)), [0.25, 0.5]);
        // Reading books nothing: a later read extends the tail.
        assert_eq!(p.report(m(25)).gpu_slot, 0.8);
    }

    #[test]
    fn a_zero_length_attempt_books_nothing() {
        let mut p = Profiler::new(1, 1);
        let a = alloc(1, 1);
        p.started(&a, t(3));
        p.finished(&a, t(3), t(3), 1.0);
        let r = p.report(t(10));
        assert_eq!((r.cpu, r.gpu_slot, r.gpu_hardware), (0.0, 0.0, 0.0));
        assert_eq!(r.tasks, 1);
        assert!(p.cpu.bins.is_empty() && p.gpu_hw.bins.is_empty());
    }

    #[test]
    fn the_bins_sum_to_the_total_exactly() {
        let mut p = Profiler::new(8, 4);
        let mut rng = impress_sim::SimRng::from_seed(7).fork("profiler");
        let mut now = 0;
        for _ in 0..200 {
            let cores = 1 + rng.below(8) as u32;
            let gpus = rng.below(5) as u32;
            let a = alloc(cores, gpus);
            let start = now + rng.below(90_000_000) as u64;
            let end = start + rng.below(3_000_000_000) as u64;
            let (start, end) = (SimTime::from_micros(start), SimTime::from_micros(end));
            p.started(&a, start);
            match rng.below(3) {
                0 => p.wasted(&a, start, end),
                1 => p.hedge_wasted(&a, start, end),
                _ => p.finished(&a, start, end, rng.below(101) as f64 / 100.0),
            }
            now = end.as_micros();
        }
        for meter in [&p.cpu, &p.gpu_slot, &p.gpu_hw] {
            let binned: u128 = meter.bins.iter().map(|&b| u128::from(b)).sum();
            assert_eq!(binned, meter.busy_us);
            assert!(meter.busy_us > 0);
        }
    }

    #[test]
    #[should_panic(expected = "more devices busy than exist")]
    fn busy_counts_never_exceed_the_device_totals() {
        let mut p = Profiler::new(2, 0);
        let a = alloc(2, 0);
        p.started(&a, t(0));
        p.started(&a, t(1));
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn busy_counts_never_underflow() {
        let mut p = Profiler::new(2, 0);
        let a = alloc(1, 0);
        p.started(&a, t(0));
        p.finished(&a, t(0), t(1), 1.0);
        p.wasted(&a, t(0), t(2));
    }

    #[test]
    fn wasted_attempts_book_lost_seconds_without_records() {
        let mut p = Profiler::new(4, 2);
        let a = alloc(2, 1);
        p.started(&a, t(0));
        p.wasted(&a, t(0), t(10));
        p.note_retry();
        // The retry occupies the same slots again and succeeds.
        p.started(&a, t(10));
        p.finished(&a, t(10), t(20), 1.0);
        let r = p.report(t(20));
        assert_eq!(r.retries, 1);
        assert_eq!(r.wasted_core_seconds, 20.0, "2 cores × 10 s");
        assert_eq!(r.wasted_gpu_seconds, 10.0, "1 GPU × 10 s");
        assert_eq!(r.tasks, 1, "wasted attempts complete no task");
        // Occupancy still reflects the held slots: 2/4 cores for the whole run.
        assert_eq!(r.cpu, 0.5);
        // Hardware-busy time is booked for the useful attempt only.
        assert_eq!(r.gpu_hardware, 0.25);
    }

    #[test]
    fn hedge_waste_is_booked_apart_from_retry_waste() {
        let mut p = Profiler::new(4, 0);
        let main = alloc(2, 0);
        let dup = alloc(2, 0);
        p.started(&main, t(0));
        // A hedge duplicate launches at t=10 and the original wins at t=15.
        p.note_hedge();
        p.started(&dup, t(10));
        p.hedge_wasted(&dup, t(10), t(15));
        p.finished(&main, t(0), t(15), 0.0);
        let r = p.report(t(15));
        assert_eq!(r.hedges, 1);
        assert_eq!(r.hedge_wasted_core_seconds, 10.0, "2 cores × 5 s");
        assert_eq!(r.hedge_wasted_gpu_seconds, 0.0);
        assert_eq!(r.wasted_core_seconds, 0.0, "hedge waste is not retry waste");
        assert_eq!(r.retries, 0);
        assert_eq!(r.tasks, 1, "the loser completes no task");
        // Both held their slots: (2 × 15 + 2 × 5) of 4 × 15 core-seconds.
        assert_eq!(r.cpu, 40.0 / 60.0);
    }

    #[test]
    fn fault_free_reports_have_zero_waste() {
        let mut p = Profiler::new(1, 0);
        let a = alloc(1, 0);
        p.started(&a, t(0));
        p.finished(&a, t(0), t(4), 1.0);
        let r = p.report(t(4));
        assert_eq!(r.retries, 0);
        assert_eq!(r.wasted_core_seconds, 0.0);
        assert_eq!(r.wasted_gpu_seconds, 0.0);
    }

    #[test]
    fn zero_gpu_fraction_records_no_hw_time() {
        let mut p = Profiler::new(1, 1);
        let a = alloc(1, 1);
        p.started(&a, t(0));
        p.finished(&a, t(0), t(10), 0.0);
        let r = p.report(t(10));
        assert_eq!(r.gpu_hardware, 0.0);
        assert_eq!(r.gpu_slot, 1.0);
    }
}
