//! Pilot lifecycle: configuration and phase accounting.
//!
//! Fig. 5 of the paper decomposes the IM-RP run into three phases:
//! *Bootstrap* (RP startup), *Exec setup* (per-task script creation and
//! sandbox setup, "time varies depending on the file system"), and *Running*
//! (task execution on assigned resources). [`PilotConfig`] carries the
//! timing model for the first two; the backends account all three into a
//! [`PhaseBreakdown`] the Fig. 5 harness prints.

use crate::resources::NodeSpec;
use crate::scheduler::PlacementPolicy;
use impress_json::json_struct;
use impress_sim::SimDuration;

/// Pilot configuration: node shape, placement policy, phase timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PilotConfig {
    /// The node shape the pilot holds.
    pub node: NodeSpec,
    /// Number of identical nodes (1 = the paper's testbed; more for the
    /// scaling studies the paper lists as future work).
    pub nodes: u32,
    /// Scheduling policy.
    pub policy: PlacementPolicy,
    /// One-off runtime startup cost.
    pub bootstrap: SimDuration,
    /// Per-task execution-setup cost (filesystem dependent).
    pub exec_setup_per_task: SimDuration,
    /// Master seed for any stochastic timing jitter in the backends.
    pub seed: u64,
}

impl Default for PilotConfig {
    fn default() -> Self {
        PilotConfig {
            node: NodeSpec::amarel(),
            nodes: 1,
            policy: PlacementPolicy::Backfill,
            // RP bootstrap on Amarel is minutes; exec setup tens of seconds
            // on the shared filesystem.
            bootstrap: SimDuration::from_secs(180),
            exec_setup_per_task: SimDuration::from_secs(25),
            seed: 0,
        }
    }
}

impl PilotConfig {
    /// Default configuration with a specific seed.
    pub fn with_seed(seed: u64) -> Self {
        PilotConfig {
            seed,
            ..Default::default()
        }
    }

    /// The full cluster shape this pilot holds.
    pub(crate) fn cluster(&self) -> crate::resources::ClusterSpec {
        crate::resources::ClusterSpec::homogeneous(self.node, self.nodes)
    }
}

/// Aggregate time spent in each pilot phase (the Fig. 5 breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// One-off bootstrap time.
    pub bootstrap: SimDuration,
    /// Total exec-setup time across all tasks (task-parallel, so this can
    /// exceed the makespan contribution).
    pub exec_setup_total: SimDuration,
    /// Total running time across all tasks (sum of task durations).
    pub running_total: SimDuration,
    /// Number of tasks that reached execution.
    pub tasks_executed: usize,
}
json_struct!(PhaseBreakdown {
    bootstrap,
    exec_setup_total,
    running_total,
    tasks_executed
});

impl PhaseBreakdown {
    /// Record one executed task's setup and run times.
    pub(crate) fn record_task(&mut self, setup: SimDuration, running: SimDuration) {
        self.exec_setup_total += setup;
        self.running_total += running;
        self.tasks_executed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_amarel_and_backfill() {
        let c = PilotConfig::default();
        assert_eq!(c.node, NodeSpec::amarel());
        assert_eq!(c.policy, PlacementPolicy::Backfill);
        assert!(c.bootstrap > SimDuration::ZERO);
        assert!(c.exec_setup_per_task > SimDuration::ZERO);
    }

    #[test]
    fn breakdown_accumulates() {
        let mut b = PhaseBreakdown::default();
        b.record_task(SimDuration::from_secs(20), SimDuration::from_secs(100));
        b.record_task(SimDuration::from_secs(30), SimDuration::from_secs(200));
        assert_eq!(b.exec_setup_total, SimDuration::from_secs(50));
        assert_eq!(b.running_total, SimDuration::from_secs(300));
        assert_eq!(b.tasks_executed, 2);
    }

    #[test]
    fn with_seed_only_changes_seed() {
        let c = PilotConfig::with_seed(7);
        assert_eq!(c.seed, 7);
        assert_eq!(c.node, NodeSpec::amarel());
    }
}
