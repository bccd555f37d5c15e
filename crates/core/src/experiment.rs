//! What an experiment arm produces, and the pieces
//! [`CampaignSpec::run`] drives either arm with: the shared toolkits, the
//! journal constructor, and the coordinator tail both arms share.

use crate::config::ProtocolConfig;
use crate::protocol::DesignOutcome;
use crate::quality::{IterationSeries, NetDeltas};
use crate::spec::{Arm, CampaignSpec};
use crate::toolkit::TargetToolkit;
use impress_json::json_struct;
use impress_pilot::backend::SimulatedBackend;
use impress_proteins::datasets::DesignTarget;
use impress_proteins::MetricKind;
use impress_workflow::{Coordinator, DecisionEngine, RunReport};
use std::sync::Arc;

/// The complete result of one experiment arm.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Arm label (`"IM-RP"` or `"CONT-V"`).
    pub label: String,
    /// All lineage outcomes (roots then sub-pipelines, completion order).
    pub outcomes: Vec<DesignOutcome>,
    /// Computational run report.
    pub run: RunReport,
    /// Σ accepted design points across lineages (Table I "Trajectories").
    pub trajectories: u32,
    /// Σ AlphaFold evaluations (accepted + declined candidates).
    pub evaluations: u32,
    /// Utilization time series for Figs. 4–5 (bin = 10 virtual minutes):
    /// CPU occupancy per bin.
    pub cpu_series: Vec<f64>,
    /// GPU slot occupancy per bin.
    pub gpu_slot_series: Vec<f64>,
    /// GPU hardware-busy fraction per bin.
    pub gpu_hw_series: Vec<f64>,
}
json_struct!(ExperimentResult {
    label,
    outcomes,
    run,
    trajectories,
    evaluations,
    cpu_series,
    gpu_slot_series,
    gpu_hw_series
});

impl ExperimentResult {
    /// Per-iteration series for one metric (a Fig. 2/3 panel).
    pub fn series(&self, metric: MetricKind) -> IterationSeries {
        IterationSeries::build(&self.outcomes, metric)
    }

    /// Net metric deltas (Table I science columns).
    pub(crate) fn net_deltas(&self) -> NetDeltas {
        NetDeltas::build(&self.outcomes)
    }
}

/// Toolkits for each target, sharing one MSA-database identity per
/// experiment — like one filesystem copy of the genetic databases on the
/// real cluster. Public so integration tests can drive the coordinator
/// directly (e.g. over the threaded backend) with the exact toolkit set
/// the experiment drivers use.
pub fn toolkits(targets: &[DesignTarget], seed: u64) -> Vec<Arc<TargetToolkit>> {
    targets
        .iter()
        .map(|t| TargetToolkit::for_target(t, seed ^ 0xdb))
        .collect()
}

/// Run the sequential CONT-V arm on its own simulated node: a one-call
/// forward to [`CampaignSpec::cont_v`], kept under this name for the perf
/// ledger's adapter.
pub fn run_cont_v_experiment(targets: &[DesignTarget], config: ProtocolConfig) -> ExperimentResult {
    CampaignSpec::cont_v(targets, config)
        .run()
        .expect("a CONT-V config with nothing else set")
        .result
}

/// Drive `coordinator` to its end and package what its pipelines'
/// outcomes hold (`lineages` reads them off one outcome): the one tail of
/// both arms, plain, journaled or resumed, so all of them produce
/// byte-identical artifacts by construction.
pub(crate) fn finish<O: 'static, D: DecisionEngine<O>>(
    coordinator: &mut Coordinator<O, SimulatedBackend, D>,
    arm: Arm,
    lineages: fn(&O) -> &[DesignOutcome],
) -> ExperimentResult {
    let mut run = coordinator.run();
    let outcomes: Vec<DesignOutcome> = (coordinator.outcomes().iter())
        .flat_map(|(_, o)| lineages(o))
        .cloned()
        .collect();
    if let Arm::ContV = arm {
        // CONT-V's one pipeline never aborts: a lineage that died with a
        // task is its aborted pipeline.
        run.aborted_pipelines = outcomes.iter().filter(|o| o.terminated_early).count();
    }
    let backend = coordinator.backend();
    ExperimentResult {
        label: arm.label().to_string(),
        trajectories: outcomes.iter().map(|o| o.trajectories()).sum(),
        evaluations: outcomes.iter().map(|o| o.total_evaluations).sum(),
        outcomes,
        run,
        cpu_series: backend.cpu_series(),
        gpu_slot_series: backend.gpu_slot_series(),
        gpu_hw_series: backend.gpu_hw_series(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptivePolicy;
    use impress_pilot::PilotConfig;
    use impress_proteins::datasets::named_pdz_domains;

    fn small_targets() -> Vec<DesignTarget> {
        named_pdz_domains(42).into_iter().take(2).collect()
    }

    fn cont_v(targets: &[DesignTarget], config: ProtocolConfig) -> ExperimentResult {
        CampaignSpec::cont_v(targets, config).run().unwrap().result
    }

    #[test]
    fn imrp_experiment_end_to_end() {
        let targets = small_targets();
        let result = CampaignSpec::imrp(&targets, ProtocolConfig::imrp(1))
            .policy(AdaptivePolicy { sub_budget: 2 })
            .run()
            .unwrap()
            .result;
        assert_eq!(result.label, "IM-RP");
        assert_eq!(result.run.root_pipelines, 2);
        assert!(result.trajectories >= 4);
        assert!(result.evaluations >= result.trajectories);
        assert!(!result.cpu_series.is_empty());
        assert!(result.run.cpu_utilization > 0.0);
    }

    #[test]
    fn cont_v_experiment_end_to_end() {
        let targets = small_targets();
        let result = cont_v(&targets, ProtocolConfig::cont_v(1));
        assert_eq!(result.label, "CONT-V");
        assert_eq!(result.trajectories, 8); // 2 structures × 4 cycles
        assert_eq!(result.evaluations, 8);
        assert_eq!(result.run.root_pipelines, 1);
        assert_eq!(result.run.sub_pipelines, 0);
    }

    #[test]
    fn imrp_beats_cont_v_on_utilization() {
        // Needs the full 4-target workload — the utilization gap comes from
        // inter-pipeline concurrency.
        let targets = named_pdz_domains(42);
        let imrp = CampaignSpec::imrp(&targets, ProtocolConfig::imrp(3))
            .run()
            .unwrap()
            .result;
        let cont = cont_v(&targets, ProtocolConfig::cont_v(3));
        assert!(
            imrp.run.cpu_utilization > cont.run.cpu_utilization * 1.5,
            "IM-RP CPU {} vs CONT-V {}",
            imrp.run.cpu_utilization,
            cont.run.cpu_utilization
        );
        assert!(
            imrp.run.gpu_slot_utilization > cont.run.gpu_hardware_utilization * 3.0,
            "IM-RP GPU {} vs CONT-V {}",
            imrp.run.gpu_slot_utilization,
            cont.run.gpu_hardware_utilization
        );
    }

    #[test]
    fn journaled_run_is_byte_identical_to_plain_and_resume_replays_it() {
        use impress_workflow::journal::{load_plan, MemoryJournal};
        let targets = small_targets();
        let config = ProtocolConfig::imrp(1);
        let policy = AdaptivePolicy { sub_budget: 2 };
        let pilot = PilotConfig::with_seed(config.seed);
        let spec = || {
            CampaignSpec::imrp(&targets, config.clone())
                .policy(policy)
                .pilot(pilot)
        };
        let plain = spec().run().unwrap().result;
        let store = MemoryJournal::new();
        let base = spec();
        let journal = base.journal_on(Box::new(store.clone())).unwrap();
        let journaled = base.journal(journal).run().unwrap();
        assert!(!journaled.drained);
        assert!(journaled.records > 0);
        assert_eq!(
            impress_json::to_string(&plain),
            impress_json::to_string(&journaled.result),
            "journaling must not perturb the run"
        );
        // Resume from the completed journal: all ghosts, zero real work,
        // byte-identical artifacts.
        let plan = load_plan(&store).unwrap().plan;
        assert_eq!(plan.live_pipelines(), 0);
        let resumed = spec().resume_from(plan).run().unwrap().result;
        assert_eq!(
            impress_json::to_string(&plain),
            impress_json::to_string(&resumed)
        );
    }

    #[test]
    fn series_and_deltas_are_available() {
        let targets = small_targets();
        let result = cont_v(&targets, ProtocolConfig::cont_v(5));
        let series = result.series(MetricKind::Plddt);
        assert_eq!(series.iterations, vec![1, 2, 3, 4]);
        let d = result.net_deltas();
        assert!(d.plddt.is_finite());
    }
}
