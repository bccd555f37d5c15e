//! The run report: the computational half of Table I.

use impress_json::json_struct;
use impress_pilot::{PhaseBreakdown, UtilizationReport};
use impress_sim::{SimDuration, SimTime};
use std::fmt;

/// Aggregate outcome of one coordinator run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Root pipelines submitted (Table I `# PL`).
    pub root_pipelines: usize,
    /// Sub-pipelines spawned by the decision engine (Table I `# Sub-PL`).
    pub sub_pipelines: usize,
    /// Pipelines that aborted.
    pub aborted_pipelines: usize,
    /// Tasks submitted across all pipelines.
    pub total_tasks: usize,
    /// Wall-clock (virtual) duration of the whole run.
    pub makespan: SimDuration,
    /// Mean CPU-core occupancy, 0–1 (Table I `CPU %`).
    pub cpu_utilization: f64,
    /// Mean GPU slot occupancy, 0–1 (Table I `GPUs %`, RP semantics).
    pub gpu_slot_utilization: f64,
    /// Mean GPU hardware-busy fraction, 0–1 (`nvidia-smi` semantics).
    pub gpu_hardware_utilization: f64,
    /// Task attempts the pilot resubmitted after a fault (0 on a clean run).
    pub task_retries: usize,
    /// Core-seconds spent on attempts that ultimately failed.
    pub wasted_core_seconds: f64,
    /// GPU-slot-seconds spent on attempts that ultimately failed.
    pub wasted_gpu_seconds: f64,
    /// Hedged duplicate attempts placed (0 when hedging is disabled).
    pub task_hedges: usize,
    /// Core-seconds burned by hedge-race losers (kept separate from
    /// `wasted_core_seconds`, which books only failed attempts).
    pub hedge_wasted_core_seconds: f64,
    /// GPU-slot-seconds burned by hedge-race losers.
    pub hedge_wasted_gpu_seconds: f64,
    /// Pilot phase breakdown (Fig. 5 annotations).
    pub phases: PhaseBreakdown,
}
json_struct!(RunReport {
    root_pipelines,
    sub_pipelines,
    aborted_pipelines,
    total_tasks,
    makespan,
    cpu_utilization,
    gpu_slot_utilization,
    gpu_hardware_utilization,
    task_retries,
    wasted_core_seconds,
    wasted_gpu_seconds,
    task_hedges,
    hedge_wasted_core_seconds,
    hedge_wasted_gpu_seconds,
    phases
});

impl RunReport {
    /// Assemble a report from the coordinator's counts and the backend's
    /// accounting at `now`.
    pub(crate) fn build(
        root_pipelines: usize,
        sub_pipelines: usize,
        aborted_pipelines: usize,
        total_tasks: usize,
        utilization: UtilizationReport,
        phases: PhaseBreakdown,
        now: SimTime,
    ) -> RunReport {
        RunReport {
            root_pipelines,
            sub_pipelines,
            aborted_pipelines,
            total_tasks,
            makespan: now.since(SimTime::ZERO),
            cpu_utilization: utilization.cpu,
            gpu_slot_utilization: utilization.gpu_slot,
            gpu_hardware_utilization: utilization.gpu_hardware,
            task_retries: utilization.retries,
            wasted_core_seconds: utilization.wasted_core_seconds,
            wasted_gpu_seconds: utilization.wasted_gpu_seconds,
            task_hedges: utilization.hedges,
            hedge_wasted_core_seconds: utilization.hedge_wasted_core_seconds,
            hedge_wasted_gpu_seconds: utilization.hedge_wasted_gpu_seconds,
            phases,
        }
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipelines: {} root, {} sub, {} aborted; tasks: {}",
            self.root_pipelines, self.sub_pipelines, self.aborted_pipelines, self.total_tasks
        )?;
        writeln!(
            f,
            "makespan: {} | CPU {:.1}% | GPU {:.1}% (slot) / {:.1}% (hw)",
            self.makespan,
            self.cpu_utilization * 100.0,
            self.gpu_slot_utilization * 100.0,
            self.gpu_hardware_utilization * 100.0
        )?;
        // Only faulted runs print the resilience line, so clean-run report
        // text (PAPER_REPORT.md) is unchanged.
        if self.task_retries > 0 || self.wasted_core_seconds > 0.0 || self.wasted_gpu_seconds > 0.0
        {
            writeln!(
                f,
                "faults: {} retries | wasted {:.0} core-s / {:.0} GPU-s",
                self.task_retries, self.wasted_core_seconds, self.wasted_gpu_seconds
            )?;
        }
        // Likewise, only hedging runs print the hedge line.
        if self.task_hedges > 0 {
            writeln!(
                f,
                "hedges: {} placed | hedge waste {:.0} core-s / {:.0} GPU-s",
                self.task_hedges, self.hedge_wasted_core_seconds, self.hedge_wasted_gpu_seconds
            )?;
        }
        write!(
            f,
            "phases: bootstrap {} | exec setup {} | running {}",
            self.phases.bootstrap, self.phases.exec_setup_total, self.phases.running_total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact_and_percentaged() {
        let report = RunReport::build(
            0,
            0,
            0,
            0,
            UtilizationReport {
                cpu: 0.883,
                gpu_slot: 0.61,
                gpu_hardware: 0.2,
                makespan: SimDuration::from_hours(38),
                tasks: 0,
                retries: 0,
                wasted_core_seconds: 0.0,
                wasted_gpu_seconds: 0.0,
                hedges: 0,
                hedge_wasted_core_seconds: 0.0,
                hedge_wasted_gpu_seconds: 0.0,
            },
            PhaseBreakdown::default(),
            SimTime::ZERO + SimDuration::from_hours(38),
        );
        let s = report.to_string();
        assert!(s.contains("CPU 88.3%"), "{s}");
        assert!(s.contains("GPU 61.0% (slot)"), "{s}");
        assert!(s.contains("38.00h"), "{s}");
        assert!(
            !s.contains("faults:"),
            "clean runs omit the fault line: {s}"
        );
    }

    #[test]
    fn faulted_runs_add_a_resilience_line() {
        let report = RunReport::build(
            0,
            0,
            0,
            0,
            UtilizationReport {
                cpu: 0.5,
                gpu_slot: 0.5,
                gpu_hardware: 0.3,
                makespan: SimDuration::from_hours(1),
                tasks: 10,
                retries: 3,
                wasted_core_seconds: 120.0,
                wasted_gpu_seconds: 60.0,
                hedges: 0,
                hedge_wasted_core_seconds: 0.0,
                hedge_wasted_gpu_seconds: 0.0,
            },
            PhaseBreakdown::default(),
            SimTime::ZERO + SimDuration::from_hours(1),
        );
        let s = report.to_string();
        assert!(s.contains("faults: 3 retries"), "{s}");
        assert!(s.contains("wasted 120 core-s / 60 GPU-s"), "{s}");
    }
}
