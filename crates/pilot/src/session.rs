//! The user-facing session API.
//!
//! A [`Session`] owns an execution backend and offers the ergonomic
//! operations the workflow layer and the examples use: submit, wait and
//! drain-all. It corresponds to RP's `Session`/`TaskManager` pair at the
//! granularity IMPRESS needs.

use crate::backend::{Completion, ExecutionBackend};
use crate::pilot::PhaseBreakdown;
use crate::profiler::UtilizationReport;
use crate::task::{TaskDescription, TaskId};
use impress_sim::SimTime;
use impress_telemetry::{Stamp, Telemetry};

/// A consistent point-in-time view of a running session: time,
/// utilization, phase breakdown and held tasks, every field read at the
/// same backend instant.
#[derive(Debug, Clone)]
pub struct Observation {
    at: SimTime,
    utilization: UtilizationReport,
    phases: PhaseBreakdown,
    held: usize,
}

impl Observation {
    /// Backend time at which this observation was taken.
    pub fn at(&self) -> SimTime {
        self.at
    }

    /// Utilization report up to [`Observation::at`].
    pub fn utilization(&self) -> &UtilizationReport {
        &self.utilization
    }

    /// Pilot phase breakdown so far.
    pub fn phase_breakdown(&self) -> &PhaseBreakdown {
        &self.phases
    }

    /// Tasks held back by the backend's walltime deadline (they will never
    /// launch; a graceful drain is in progress).
    pub fn held_tasks(&self) -> usize {
        self.held
    }
}

/// A pilot session over some backend.
pub struct Session<B: ExecutionBackend> {
    backend: B,
}

impl<B: ExecutionBackend> Session<B> {
    /// Wrap a backend.
    pub fn new(backend: B) -> Self {
        Session { backend }
    }

    /// Submit one task.
    pub fn submit(&mut self, desc: TaskDescription) -> TaskId {
        self.backend.submit(desc)
    }

    /// Wait for the next completion (advancing time), if any task remains.
    pub fn wait_next(&mut self) -> Option<Completion> {
        self.backend.next_completion()
    }

    /// Deliver a completion already available without waiting (see
    /// [`ExecutionBackend::poll_completion`]); `None` if progress would
    /// require a [`Session::wait_next`].
    pub fn poll_next(&mut self) -> Option<Completion> {
        self.backend.poll_completion()
    }

    /// Best-effort cancellation of a queued task (see
    /// [`crate::backend::ExecutionBackend::cancel`]).
    pub fn cancel(&mut self, id: TaskId) -> bool {
        self.backend.cancel(id)
    }

    /// Run every submitted task to completion, returning completions in
    /// completion order.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(c) = self.backend.next_completion() {
            out.push(c);
        }
        out
    }

    /// Current backend time.
    pub fn now(&self) -> SimTime {
        self.backend.now()
    }

    /// A consistent point-in-time snapshot of the session: time,
    /// utilization, phase breakdown and held tasks, all read at the same
    /// backend instant.
    pub fn observe(&self) -> Observation {
        Observation {
            at: self.backend.now(),
            utilization: self.backend.utilization(),
            phases: self.backend.phase_breakdown(),
            held: self.backend.held_tasks(),
        }
    }

    /// The backend's telemetry handle (disabled unless the backend was
    /// built with [`crate::RuntimeConfig::telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        self.backend.telemetry()
    }

    /// Control-plane message statistics (heartbeats, suspicions, lease
    /// expiries, dedup hits). All-zero unless link faults are configured —
    /// see [`crate::ControlStats`].
    pub fn control_stats(&self) -> crate::ControlStats {
        self.backend.control_stats()
    }

    /// A dual-clock stamp at the current instant (virtual time always;
    /// wall time when the backend runs on real threads). Useful for
    /// recording application-level spans against the backend's clocks.
    pub fn stamp(&self) -> Stamp {
        self.backend.stamp()
    }

    /// Borrow the backend (e.g. for simulated-backend-specific series).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutably borrow the backend.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimulatedBackend;
    use crate::pilot::PilotConfig;
    use crate::resources::{NodeSpec, ResourceRequest};
    use crate::scheduler::PlacementPolicy;
    use impress_sim::SimDuration;

    fn session(cores: u32) -> Session<SimulatedBackend> {
        Session::new(SimulatedBackend::new(PilotConfig {
            node: NodeSpec::new(cores, 2, 64),
            nodes: 1,
            policy: PlacementPolicy::Backfill,
            bootstrap: SimDuration::from_secs(10),
            exec_setup_per_task: SimDuration::from_secs(1),
            seed: 0,
        }))
    }

    #[test]
    fn drain_returns_everything() {
        let mut s = session(2);
        for i in 0..5 {
            s.submit(
                TaskDescription::new(
                    format!("t{i}"),
                    ResourceRequest::cores(1),
                    SimDuration::from_secs(i + 1),
                )
                .with_work(move || i),
            );
        }
        let out = s.drain();
        assert_eq!(out.len(), 5);
        assert_eq!(s.backend().in_flight(), 0);
        assert!(s.wait_next().is_none());
    }

    #[test]
    fn session_reports_time_and_utilization() {
        let mut s = session(1);
        s.submit(TaskDescription::new(
            "t",
            ResourceRequest::cores(1),
            SimDuration::from_secs(100),
        ));
        let _ = s.drain();
        assert!(s.now() >= SimTime::from_micros(111_000_000)); // 10+1+100 s
        let obs = s.observe();
        assert_eq!(obs.at(), s.now());
        assert_eq!(obs.utilization().tasks, 1);
        assert!(obs.utilization().cpu > 0.0);
        assert_eq!(obs.phase_breakdown().tasks_executed, 1);
        assert_eq!(obs.held_tasks(), 0);
        // Telemetry is off by default.
        assert!(!s.telemetry().enabled());
    }
}
