//! What an experiment arm produces, and the pieces
//! [`CampaignSpec::run`] drives either arm with: the shared toolkits, the
//! IM-RP coordinator's roots and tail, CONT-V's session tail, and the
//! packaging both arms share.

use crate::adaptive::ImpressDecision;
use crate::config::ProtocolConfig;
use crate::control::run_cont_v;
use crate::protocol::{DesignOutcome, DesignPipeline};
use crate::quality::{IterationSeries, NetDeltas};
use crate::spec::CampaignSpec;
use crate::toolkit::TargetToolkit;
use impress_json::json_struct;
use impress_pilot::backend::SimulatedBackend;
use impress_pilot::Session;
use impress_proteins::datasets::DesignTarget;
use impress_proteins::MetricKind;
use impress_workflow::journal::{Journal, JournalError, JournalStore};
use impress_workflow::{Coordinator, Registry, RunReport};
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
    pub fn net_deltas(&self) -> NetDeltas {
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

/// The IM-RP coordinator type [`CampaignSpec::run`] builds.
pub(crate) type ImrpCoordinator = Coordinator<DesignOutcome, SimulatedBackend, ImpressDecision>;

pub(crate) fn add_imrp_roots(
    coordinator: &mut ImrpCoordinator,
    tks: &[Arc<TargetToolkit>],
    config: &ProtocolConfig,
) {
    for (i, tk) in tks.iter().enumerate() {
        coordinator.add_pipeline(Box::new(DesignPipeline::root(
            tk.clone(),
            config.clone(),
            i as u64,
        )));
    }
}

/// Drive the coordinator to completion and package the result — the one
/// tail of plain, journaled and resumed IM-RP runs, so all three produce
/// byte-identical artifacts by construction.
pub(crate) fn finish_imrp(mut coordinator: ImrpCoordinator) -> (ExperimentResult, ImrpCoordinator) {
    let run = coordinator.run();
    let outcomes: Vec<DesignOutcome> = coordinator
        .outcomes()
        .iter()
        .map(|(_, o)| o.clone())
        .collect();
    let result = package("IM-RP", outcomes, run, coordinator.session().backend());
    (result, coordinator)
}

/// The campaign label journaled IM-RP runs stamp into the journal header;
/// [`CampaignSpec::run`] refuses a resume plan with any other label.
pub(crate) const IMRP_JOURNAL_LABEL: &str = "IM-RP";

/// A write-ahead journal on `store` stamped with the campaign identity
/// (label + protocol seed) that [`CampaignSpec::resume_from`] validates.
pub fn imrp_journal(
    store: Box<dyn JournalStore>,
    config: &ProtocolConfig,
) -> Result<Journal, JournalError> {
    Journal::new(store, IMRP_JOURNAL_LABEL, config.seed)
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

/// Run CONT-V's lineages one task at a time over `backend` and package the
/// result — the CONT-V tail of [`CampaignSpec::run`], as [`finish_imrp`] is
/// IM-RP's. CONT-V has no coordinator, so its report is built directly:
/// one pipeline that submitted every task.
pub(crate) fn finish_cont_v(
    backend: SimulatedBackend,
    tks: &[Arc<TargetToolkit>],
    config: &ProtocolConfig,
) -> ExperimentResult {
    let mut session = Session::new(backend);
    let outcomes = run_cont_v(&mut session, tks, config);
    let obs = session.observe();
    let mut registry = Registry::new();
    let id = registry.register("cont-v".into(), None, impress_sim::SimTime::ZERO);
    registry.note_stage_submitted(id, obs.utilization().tasks);
    let aborted = outcomes.iter().filter(|o| o.terminated_early).count();
    let run = RunReport::build(
        &registry,
        *obs.utilization(),
        *obs.phase_breakdown(),
        obs.at(),
        aborted,
    );
    package("CONT-V", outcomes, run, session.backend())
}

/// One arm's result, its utilization series read off the backend it ran on.
pub(crate) fn package(
    label: &str,
    outcomes: Vec<DesignOutcome>,
    run: RunReport,
    backend: &SimulatedBackend,
) -> ExperimentResult {
    let trajectories = outcomes.iter().map(|o| o.trajectories()).sum();
    let evaluations = outcomes.iter().map(|o| o.total_evaluations).sum();
    ExperimentResult {
        label: label.to_string(),
        outcomes,
        run,
        trajectories,
        evaluations,
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
            .policy(AdaptivePolicy {
                sub_budget: 2,
                ..AdaptivePolicy::default()
            })
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
        let policy = AdaptivePolicy {
            sub_budget: 2,
            ..AdaptivePolicy::default()
        };
        let pilot = PilotConfig::with_seed(config.seed);
        let spec = || {
            CampaignSpec::imrp(&targets, config.clone())
                .policy(policy)
                .pilot(pilot)
        };
        let plain = spec().run().unwrap().result;
        let store = MemoryJournal::new();
        let journaled = spec()
            .journal(imrp_journal(Box::new(store.clone()), &config).unwrap())
            .run()
            .unwrap();
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
