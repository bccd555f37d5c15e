//! A point-in-time view of a backend.
//!
//! A [`Session`] owns an execution backend and reads it whole:
//! [`Session::observe`] returns time, utilization, phase breakdown and held
//! tasks, every field read at the same backend instant. Anything that
//! submits or waits drives the backend itself, through
//! [`Session::backend_mut`] or by owning it (the workflow coordinator
//! does). It corresponds to RP's `Session` at the granularity IMPRESS
//! needs.

use crate::backend::ExecutionBackend;
use crate::pilot::PhaseBreakdown;
use crate::profiler::UtilizationReport;
use impress_sim::SimTime;

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

    /// Mutably borrow the backend, to submit to it and drain it.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Completion, SimulatedBackend};
    use crate::pilot::PilotConfig;
    use crate::resources::{NodeSpec, ResourceRequest};
    use crate::scheduler::PlacementPolicy;
    use crate::task::TaskDescription;
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

    /// Drain the session's backend, in completion order.
    fn drain(s: &mut Session<SimulatedBackend>) -> Vec<Completion> {
        std::iter::from_fn(|| s.backend_mut().next_completion()).collect()
    }

    #[test]
    fn drain_returns_everything() {
        let mut s = session(2);
        for i in 0..5 {
            s.backend_mut().submit(
                TaskDescription::new(
                    format!("t{i}"),
                    ResourceRequest::cores(1),
                    SimDuration::from_secs(i + 1),
                )
                .with_work(move || i),
            );
        }
        let out = drain(&mut s);
        assert_eq!(out.len(), 5);
        assert_eq!(s.backend_mut().in_flight(), 0);
        assert!(s.backend_mut().next_completion().is_none());
    }

    #[test]
    fn session_reports_time_and_utilization() {
        let mut s = session(1);
        s.backend_mut().submit(TaskDescription::new(
            "t",
            ResourceRequest::cores(1),
            SimDuration::from_secs(100),
        ));
        let _ = drain(&mut s);
        let obs = s.observe();
        assert!(obs.at() >= SimTime::from_micros(111_000_000)); // 10+1+100 s
        assert_eq!(obs.at(), s.backend_mut().now());
        assert_eq!(obs.utilization().tasks, 1);
        assert!(obs.utilization().cpu > 0.0);
        assert_eq!(obs.phase_breakdown().tasks_executed, 1);
        assert_eq!(obs.held_tasks(), 0);
        // Telemetry is off by default.
        assert!(!s.backend_mut().telemetry().enabled());
    }
}
