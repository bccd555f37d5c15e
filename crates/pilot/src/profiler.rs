//! Utilization profiling.
//!
//! Records, per device, when tasks occupied it — producing the Fig. 4/5
//! utilization timelines and the Table I CPU%/GPU% cells.
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
use crate::task::TaskId;
use impress_json::json_struct;
use impress_sim::{SimDuration, SimTime, UtilizationTracker};

/// Per-task execution record.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// The task.
    pub id: u64,
    /// Task name.
    pub name: String,
    /// Bookkeeping tag.
    pub tag: String,
    /// When the task was submitted.
    pub submitted: SimTime,
    /// When slots were granted.
    pub started: SimTime,
    /// When the task released its slots.
    pub finished: SimTime,
    /// Cores held.
    pub cores: u32,
    /// GPUs held.
    pub gpus: u32,
}
json_struct!(TaskRecord {
    id,
    name,
    tag,
    submitted,
    started,
    finished,
    cores,
    gpus
});

impl TaskRecord {
    /// Queue wait time (submission → slot grant).
    pub fn wait(&self) -> SimDuration {
        self.started.since(self.submitted)
    }

    /// Slot-holding time (grant → release).
    pub fn turnaround(&self) -> SimDuration {
        self.finished.since(self.started)
    }
}

/// Aggregate utilization numbers for one run.
#[derive(Debug, Clone, Copy)]
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
json_struct!(UtilizationReport {
    cpu,
    gpu_slot,
    gpu_hardware,
    makespan,
    tasks,
    retries,
    wasted_core_seconds,
    wasted_gpu_seconds,
    hedges,
    hedge_wasted_core_seconds,
    hedge_wasted_gpu_seconds
});

/// The profiler: device trackers plus per-task records. Multi-node pilots
/// flatten devices into global indices (`node × per-node + local id`).
#[derive(Debug)]
pub struct Profiler {
    cpu: UtilizationTracker,
    gpu_slot: UtilizationTracker,
    gpu_hw: UtilizationTracker,
    cores_per_node: u32,
    gpus_per_node: u32,
    /// Submission instants indexed by task id, until the task finishes.
    /// The profiler sits under one backend, whose ids are dense from 0.
    submitted: Vec<Option<SimTime>>,
    records: Vec<TaskRecord>,
    retries: usize,
    wasted_core_seconds: f64,
    wasted_gpu_seconds: f64,
    hedges: usize,
    hedge_wasted_core_seconds: f64,
    hedge_wasted_gpu_seconds: f64,
}

impl Profiler {
    /// A profiler for a single node with `cores` CPUs and `gpus` GPUs.
    ///
    /// Delegates to [`Profiler::new_cluster`] with `nodes = 1`: the
    /// single-node profiler *is* a one-node cluster, so `cores`/`gpus`
    /// become both the per-node shape (used to index device slots from an
    /// [`Allocation`]'s node-relative ids) and the cluster-wide tracker
    /// capacity. Utilization, per-device busy intervals, and waste
    /// accounting are therefore identical whether a caller builds the
    /// profiler through this shorthand or through `new_cluster(c, g, 1)`.
    pub fn new(cores: u32, gpus: u32) -> Self {
        Self::new_cluster(cores, gpus, 1)
    }

    /// A profiler for `nodes` identical nodes.
    pub fn new_cluster(cores: u32, gpus: u32, nodes: u32) -> Self {
        Profiler {
            cpu: UtilizationTracker::new((cores * nodes) as usize),
            gpu_slot: UtilizationTracker::new((gpus * nodes) as usize),
            gpu_hw: UtilizationTracker::new((gpus * nodes) as usize),
            cores_per_node: cores,
            gpus_per_node: gpus,
            submitted: Vec::new(),
            records: Vec::new(),
            retries: 0,
            wasted_core_seconds: 0.0,
            wasted_gpu_seconds: 0.0,
            hedges: 0,
            hedge_wasted_core_seconds: 0.0,
            hedge_wasted_gpu_seconds: 0.0,
        }
    }

    #[inline]
    fn core_index(&self, alloc_node: u32, id: u32) -> usize {
        (alloc_node * self.cores_per_node + id) as usize
    }

    #[inline]
    fn gpu_index(&self, alloc_node: u32, id: u32) -> usize {
        (alloc_node * self.gpus_per_node + id) as usize
    }

    /// Note a task submission (for wait-time accounting).
    pub fn task_submitted(&mut self, id: TaskId, at: SimTime) {
        let slot = id.0 as usize;
        if self.submitted.len() <= slot {
            self.submitted.resize(slot + 1, None);
        }
        self.submitted[slot] = Some(at);
    }

    /// Note that a task received its allocation and begins occupying slots.
    pub fn task_started(&mut self, alloc: &Allocation, at: SimTime) {
        for &c in &alloc.core_ids {
            self.cpu.begin(self.core_index(alloc.node, c), at);
        }
        for &g in &alloc.gpu_ids {
            self.gpu_slot.begin(self.gpu_index(alloc.node, g), at);
        }
    }

    /// Note that a task released its slots. `gpu_busy_fraction` of the
    /// occupancy window is recorded as hardware-busy GPU time (placed at the
    /// end of the window, where inference kernels actually run).
    #[allow(clippy::too_many_arguments)]
    pub fn task_finished(
        &mut self,
        id: TaskId,
        name: &str,
        tag: &str,
        alloc: &Allocation,
        started: SimTime,
        finished: SimTime,
        gpu_busy_fraction: f64,
    ) {
        for &c in &alloc.core_ids {
            self.cpu.end(self.core_index(alloc.node, c), finished);
        }
        let span = finished.since(started);
        let busy = span.mul_f64(gpu_busy_fraction.clamp(0.0, 1.0));
        for &g in &alloc.gpu_ids {
            let gi = self.gpu_index(alloc.node, g);
            self.gpu_slot.end(gi, finished);
            if busy > SimDuration::ZERO {
                let hw_start = started + (span - busy);
                self.gpu_hw.begin(gi, hw_start);
                self.gpu_hw.end(gi, finished);
            }
        }
        let submitted = self
            .submitted
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .unwrap_or(started);
        self.records.push(TaskRecord {
            id: id.0,
            name: name.to_string(),
            tag: tag.to_string(),
            submitted,
            started,
            finished,
            cores: alloc.core_ids.len() as u32,
            gpus: alloc.gpu_ids.len() as u32,
        });
    }

    /// Note that an attempt ended *without* completing its task: close its
    /// slot-occupancy intervals and book the span as wasted work. No
    /// [`TaskRecord`] is created (records are useful executions) and no
    /// hardware-busy GPU time is booked — a killed attempt never reached
    /// its inference kernels.
    pub fn attempt_wasted(&mut self, alloc: &Allocation, started: SimTime, at: SimTime) {
        for &c in &alloc.core_ids {
            self.cpu.end(self.core_index(alloc.node, c), at);
        }
        for &g in &alloc.gpu_ids {
            self.gpu_slot.end(self.gpu_index(alloc.node, g), at);
        }
        let span = at.since(started).as_secs_f64();
        self.wasted_core_seconds += span * alloc.core_ids.len() as f64;
        self.wasted_gpu_seconds += span * alloc.gpu_ids.len() as f64;
    }

    /// Note a transparent resubmission.
    pub fn note_retry(&mut self) {
        self.retries += 1;
    }

    /// Note a hedged speculative duplicate placement.
    pub fn note_hedge(&mut self) {
        self.hedges += 1;
    }

    /// Note that a hedge *loser* released its slots: close its occupancy
    /// intervals and book the span as hedge waste — the deliberate price
    /// of straggler mitigation, kept apart from fault/retry waste.
    pub fn attempt_hedge_wasted(&mut self, alloc: &Allocation, started: SimTime, at: SimTime) {
        for &c in &alloc.core_ids {
            self.cpu.end(self.core_index(alloc.node, c), at);
        }
        for &g in &alloc.gpu_ids {
            self.gpu_slot.end(self.gpu_index(alloc.node, g), at);
        }
        let span = at.since(started).as_secs_f64();
        self.hedge_wasted_core_seconds += span * alloc.core_ids.len() as f64;
        self.hedge_wasted_gpu_seconds += span * alloc.gpu_ids.len() as f64;
    }

    /// All completed-task records, in completion order.
    pub fn records(&self) -> &[TaskRecord] {
        &self.records
    }

    /// Aggregate report over `[0, end)`.
    pub fn report(&self, end: SimTime) -> UtilizationReport {
        UtilizationReport {
            cpu: self.cpu.mean_utilization(SimTime::ZERO, end),
            gpu_slot: self.gpu_slot.mean_utilization(SimTime::ZERO, end),
            gpu_hardware: self.gpu_hw.mean_utilization(SimTime::ZERO, end),
            makespan: end.since(SimTime::ZERO),
            tasks: self.records.len(),
            retries: self.retries,
            wasted_core_seconds: self.wasted_core_seconds,
            wasted_gpu_seconds: self.wasted_gpu_seconds,
            hedges: self.hedges,
            hedge_wasted_core_seconds: self.hedge_wasted_core_seconds,
            hedge_wasted_gpu_seconds: self.hedge_wasted_gpu_seconds,
        }
    }

    /// Binned CPU-occupancy time series (for plotting Figs. 4–5).
    pub fn cpu_series(&self, end: SimTime, bin: SimDuration) -> Vec<f64> {
        self.cpu.series(end, bin).values
    }

    /// Binned GPU slot-occupancy time series.
    pub fn gpu_slot_series(&self, end: SimTime, bin: SimDuration) -> Vec<f64> {
        self.gpu_slot.series(end, bin).values
    }

    /// Binned GPU hardware-busy time series.
    pub fn gpu_hw_series(&self, end: SimTime, bin: SimDuration) -> Vec<f64> {
        self.gpu_hw.series(end, bin).values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceRequest;

    fn t(s: u64) -> SimTime {
        SimTime::from_micros(s * 1_000_000)
    }

    fn alloc(cores: &[u32], gpus: &[u32]) -> Allocation {
        Allocation {
            node: 0,
            core_ids: cores.to_vec(),
            gpu_ids: gpus.to_vec(),
        }
    }

    #[test]
    fn slot_occupancy_covers_full_window() {
        let mut p = Profiler::new(4, 2);
        let a = alloc(&[0, 1], &[0]);
        p.task_submitted(TaskId(1), t(0));
        p.task_started(&a, t(10));
        p.task_finished(TaskId(1), "x", "", &a, t(10), t(20), 1.0);
        let r = p.report(t(20));
        // 2 of 4 cores busy for half the run → 25%.
        assert!((r.cpu - 0.25).abs() < 1e-9);
        // 1 of 2 GPUs for half the run → 25%.
        assert!((r.gpu_slot - 0.25).abs() < 1e-9);
        assert!((r.gpu_hardware - 0.25).abs() < 1e-9);
        assert_eq!(r.tasks, 1);
    }

    #[test]
    fn hardware_busy_respects_fraction() {
        let mut p = Profiler::new(1, 1);
        let a = alloc(&[0], &[0]);
        p.task_started(&a, t(0));
        p.task_finished(TaskId(1), "af2", "", &a, t(0), t(100), 0.25);
        let r = p.report(t(100));
        assert!((r.gpu_slot - 1.0).abs() < 1e-9);
        assert!((r.gpu_hardware - 0.25).abs() < 1e-9);
    }

    #[test]
    fn wait_and_turnaround_are_recorded() {
        let mut p = Profiler::new(1, 0);
        let a = alloc(&[0], &[]);
        p.task_submitted(TaskId(5), t(2));
        p.task_started(&a, t(7));
        p.task_finished(TaskId(5), "w", "tag", &a, t(7), t(12), 1.0);
        let rec = &p.records()[0];
        assert_eq!(rec.wait(), SimDuration::from_secs(5));
        assert_eq!(rec.turnaround(), SimDuration::from_secs(5));
        assert_eq!(rec.tag, "tag");
    }

    #[test]
    fn sequential_tasks_on_same_device_accumulate() {
        let mut p = Profiler::new(1, 0);
        let a = alloc(&[0], &[]);
        p.task_started(&a, t(0));
        p.task_finished(TaskId(1), "a", "", &a, t(0), t(4), 1.0);
        p.task_started(&a, t(6));
        p.task_finished(TaskId(2), "b", "", &a, t(6), t(10), 1.0);
        let r = p.report(t(10));
        assert!((r.cpu - 0.8).abs() < 1e-9);
    }

    #[test]
    fn series_show_the_load_shape() {
        let mut p = Profiler::new(2, 0);
        let a = alloc(&[0, 1], &[]);
        p.task_started(&a, t(0));
        p.task_finished(TaskId(1), "x", "", &a, t(0), t(5), 1.0);
        let series = p.cpu_series(t(10), SimDuration::from_secs(5));
        assert_eq!(series.len(), 2);
        assert!((series[0] - 1.0).abs() < 1e-9);
        assert!(series[1].abs() < 1e-9);
    }

    #[test]
    fn wasted_attempts_book_lost_seconds_without_records() {
        let mut p = Profiler::new(4, 2);
        let a = alloc(&[0, 1], &[0]);
        p.task_submitted(TaskId(1), t(0));
        p.task_started(&a, t(0));
        p.attempt_wasted(&a, t(0), t(10));
        p.note_retry();
        // The retry occupies the same slots again and succeeds.
        p.task_started(&a, t(10));
        p.task_finished(TaskId(1), "x", "", &a, t(10), t(20), 1.0);
        let r = p.report(t(20));
        assert_eq!(r.retries, 1);
        assert!((r.wasted_core_seconds - 20.0).abs() < 1e-9, "2 cores × 10 s");
        assert!((r.wasted_gpu_seconds - 10.0).abs() < 1e-9, "1 GPU × 10 s");
        assert_eq!(r.tasks, 1, "wasted attempts create no task records");
        // Occupancy still reflects the held slots: 2/4 cores for the whole run.
        assert!((r.cpu - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hedge_waste_is_booked_apart_from_retry_waste() {
        let mut p = Profiler::new(4, 0);
        let main = alloc(&[0, 1], &[]);
        let dup = Allocation {
            node: 0,
            core_ids: vec![2, 3],
            gpu_ids: vec![],
        };
        p.task_submitted(TaskId(1), t(0));
        p.task_started(&main, t(0));
        // A hedge duplicate launches at t=10 and the original wins at t=15.
        p.note_hedge();
        p.task_started(&dup, t(10));
        p.attempt_hedge_wasted(&dup, t(10), t(15));
        p.task_finished(TaskId(1), "x", "", &main, t(0), t(15), 0.0);
        let r = p.report(t(15));
        assert_eq!(r.hedges, 1);
        assert!((r.hedge_wasted_core_seconds - 10.0).abs() < 1e-9, "2 cores × 5 s");
        assert_eq!(r.hedge_wasted_gpu_seconds, 0.0);
        assert_eq!(r.wasted_core_seconds, 0.0, "hedge waste is not retry waste");
        assert_eq!(r.retries, 0);
        assert_eq!(r.tasks, 1, "the loser creates no task record");
    }

    #[test]
    fn fault_free_reports_have_zero_waste() {
        let mut p = Profiler::new(1, 0);
        let a = alloc(&[0], &[]);
        p.task_started(&a, t(0));
        p.task_finished(TaskId(1), "a", "", &a, t(0), t(4), 1.0);
        let r = p.report(t(4));
        assert_eq!(r.retries, 0);
        assert_eq!(r.wasted_core_seconds, 0.0);
        assert_eq!(r.wasted_gpu_seconds, 0.0);
    }

    #[test]
    fn zero_gpu_fraction_records_no_hw_time() {
        let mut p = Profiler::new(1, 1);
        let a = alloc(&[0], &[0]);
        p.task_started(&a, t(0));
        p.task_finished(TaskId(1), "cpu-ish", "", &a, t(0), t(10), 0.0);
        let r = p.report(t(10));
        assert_eq!(r.gpu_hardware, 0.0);
        assert!((r.gpu_slot - 1.0).abs() < 1e-9);
        let _ = ResourceRequest::cores(1);
    }
}
