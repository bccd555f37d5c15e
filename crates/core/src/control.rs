//! CONT-V: the non-adaptive sequential control (§III-A).
//!
//! "We also prepared a control pipeline (CONT-V), which consists of all the
//! IM-RP stages but lacks adaptive decision-making between cycles. … Ten
//! sequences for each complex were generated with ProteinMPNN … One was
//! chosen randomly to have its structure predicted with AlphaFold. The new
//! structure was fed into ProteinMPNN for the next cycle. Performance was
//! not compared between iterations, and trajectories were not pruned."
//!
//! CONT-V does not use the pilot's concurrency: `ContV` is one pipeline
//! that carries each target's non-adaptive [`DesignPipeline`] through its
//! cycles, one target after another. A non-adaptive cycle evaluates one
//! candidate, so one task is in flight at a time — a vanilla sequential
//! script. That is what produces Fig. 4's idle-resource profile.

use crate::config::ProtocolConfig;
use crate::protocol::{DesignOutcome, DesignPipeline};
use crate::toolkit::TargetToolkit;
use impress_pilot::{Completion, ExecutionBackend, Session, TaskError};
use impress_workflow::{Coordinator, NoDecisions, PipelineLogic, Step};
use std::sync::Arc;

/// The CONT-V arm as one pipeline: each target's lineage in turn, then one
/// completion carrying every lineage's outcome, in target order.
pub(crate) struct ContV {
    lineages: Vec<DesignPipeline>,
    /// The finished lineages' outcomes: `lineages[outcomes.len()]` runs.
    outcomes: Vec<DesignOutcome>,
}

impl ContV {
    /// The chain over `toolkits`. `config` must be non-adaptive.
    pub(crate) fn new(toolkits: &[Arc<TargetToolkit>], config: &ProtocolConfig) -> Self {
        assert!(
            !config.adaptive,
            "CONT-V is the non-adaptive control; use ProtocolConfig::cont_v"
        );
        let lineages = toolkits
            .iter()
            .map(|tk| DesignPipeline::cont_v(tk.clone(), config.clone()))
            .collect();
        ContV {
            lineages,
            outcomes: Vec::new(),
        }
    }

    /// Forward the running lineage's step; a finished lineage hands over to
    /// the next.
    fn chain(&mut self, step: Step<DesignOutcome>) -> Step<Vec<DesignOutcome>> {
        match step {
            Step::Submit(tasks) => Step::Submit(tasks),
            Step::Complete(outcome) => {
                self.outcomes.push(outcome);
                self.begin()
            }
            Step::Abort(reason) => unreachable!("a CONT-V lineage aborted: {reason}"),
        }
    }
}

impl PipelineLogic<Vec<DesignOutcome>> for ContV {
    fn name(&self) -> String {
        "cont-v".into()
    }

    fn begin(&mut self) -> Step<Vec<DesignOutcome>> {
        match self.lineages.get_mut(self.outcomes.len()) {
            Some(lineage) => {
                let step = lineage.begin();
                self.chain(step)
            }
            None => Step::Complete(std::mem::take(&mut self.outcomes)),
        }
    }

    fn stage_done(&mut self, completions: Vec<Completion>) -> Step<Vec<DesignOutcome>> {
        let lineage = &mut self.lineages[self.outcomes.len()];
        let step = match completions.iter().find_map(Completion::failure) {
            None => lineage.stage_done(completions),
            // A vanilla sequential script dies with its first
            // unrecoverable task: the lineage keeps the cycles it finished
            // and is recorded as terminated early. Fault outcomes
            // (budget-exhausted retries, quarantine verdicts) are legal
            // terminations; a work panic or a cancellation nobody issued
            // is a bug in the protocol itself. Exhaustive on purpose: a
            // new error variant must pick a side here.
            Some(
                TaskError::TimedOut { .. }
                | TaskError::Injected
                | TaskError::NodeCrashed { .. }
                | TaskError::LeaseExpired { .. }
                | TaskError::Poisoned { .. }
                | TaskError::ShapeCircuitOpen { .. },
            ) => Step::Complete(lineage.outcome(true)),
            Some(e @ (TaskError::Canceled | TaskError::WorkPanicked(_))) => {
                panic!("CONT-V stage died on a non-fault error: {e}")
            }
        };
        self.chain(step)
    }
}

/// Run the CONT-V protocol for `toolkits` over `session`: `ContV` on a
/// coordinator over the session's backend, one outcome per structure. A
/// forward kept under this name for the perf ledger's adapter; new callers
/// use [`CampaignSpec::cont_v`](crate::spec::CampaignSpec::cont_v).
pub fn run_cont_v<B: ExecutionBackend>(
    session: &mut Session<B>,
    toolkits: &[Arc<TargetToolkit>],
    config: &ProtocolConfig,
) -> Vec<DesignOutcome> {
    let mut coordinator = Coordinator::new(session.backend_mut(), NoDecisions);
    coordinator.add_pipeline(Box::new(ContV::new(toolkits, config)));
    coordinator.run();
    coordinator
        .outcomes()
        .iter()
        .flat_map(|(_, o)| o.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_pilot::backend::SimulatedBackend;
    use impress_pilot::PilotConfig;
    use impress_proteins::datasets::named_pdz_domains;

    fn toolkits(n: usize) -> Vec<Arc<TargetToolkit>> {
        named_pdz_domains(42)
            .iter()
            .take(n)
            .map(|t| TargetToolkit::for_target(t, 7))
            .collect()
    }

    #[test]
    fn cont_v_produces_four_iterations_per_structure() {
        let config = ProtocolConfig::cont_v(1);
        let mut session = Session::new(SimulatedBackend::new(PilotConfig::with_seed(1)));
        let outcomes = run_cont_v(&mut session, &toolkits(2), &config);
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert_eq!(o.iterations.len(), 4);
            assert_eq!(o.total_evaluations, 4);
            assert!(!o.terminated_early);
        }
    }

    #[test]
    fn cont_v_is_strictly_sequential() {
        // With one task in flight at a time, CPU occupancy can never exceed
        // the largest single-task request (6 MSA cores of 28 ≈ 21%).
        let config = ProtocolConfig::cont_v(2);
        let mut session = Session::new(SimulatedBackend::new(PilotConfig::with_seed(2)));
        let _ = run_cont_v(&mut session, &toolkits(1), &config);
        let r = *session.observe().utilization();
        assert!(
            r.cpu < 0.25,
            "sequential execution must leave CPUs idle, got {}",
            r.cpu
        );
        assert!(
            r.gpu_hardware < 0.05,
            "vanilla AF2 barely touches the GPUs, got {}",
            r.gpu_hardware
        );
    }

    #[test]
    #[should_panic(expected = "non-adaptive control")]
    fn adaptive_config_is_rejected() {
        let config = ProtocolConfig::imrp(1);
        let mut session = Session::new(SimulatedBackend::new(PilotConfig::with_seed(1)));
        let _ = run_cont_v(&mut session, &toolkits(1), &config);
    }

    #[test]
    fn cont_v_is_deterministic() {
        let run = |seed: u64| {
            let config = ProtocolConfig::cont_v(seed);
            let mut session = Session::new(SimulatedBackend::new(PilotConfig::with_seed(seed)));
            run_cont_v(&mut session, &toolkits(1), &config)
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a[0].final_receptor, b[0].final_receptor);
        assert_eq!(a[0].iterations, b[0].iterations);
    }
}
