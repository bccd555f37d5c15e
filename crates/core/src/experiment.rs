//! Experiment drivers: run IM-RP and CONT-V end-to-end on the simulated
//! Amarel node and package everything the paper's tables and figures need.

use crate::adaptive::{AdaptivePolicy, ImpressDecision};
use crate::config::ProtocolConfig;
use crate::control::run_cont_v;
use crate::protocol::{DesignOutcome, DesignPipeline};
use crate::quality::{IterationSeries, NetDeltas};
use crate::spec::CampaignSpec;
use crate::toolkit::TargetToolkit;
use impress_pilot::backend::SimulatedBackend;
use impress_pilot::{FaultConfig, FaultPlan, PilotConfig, RetryPolicy, RuntimeConfig, Session};
use impress_proteins::datasets::DesignTarget;
use impress_proteins::MetricKind;
use impress_json::json_struct;
use impress_sim::SimDuration;
use impress_workflow::journal::{Journal, JournalError, JournalStore};
use impress_workflow::{Coordinator, RunReport};
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

/// Time-series bin width used for the utilization figures.
const SERIES_BIN: SimDuration = SimDuration::from_mins(10);

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

/// Run the adaptive IM-RP arm: concurrent pipelines over the pilot
/// coordinator with the quality-ranked sub-pipeline policy, on the paper's
/// single Amarel node. Thin wrapper over [`CampaignSpec::run`].
pub fn run_imrp(
    targets: &[DesignTarget],
    config: ProtocolConfig,
    policy: AdaptivePolicy,
) -> ExperimentResult {
    CampaignSpec::imrp(targets, config)
        .policy(policy)
        .run()
        .expect("no resume plan to reject")
        .result
}

/// The IM-RP coordinator type the experiment drivers build.
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
    let backend = coordinator.session().backend();
    let cpu_series = backend.cpu_series(SERIES_BIN);
    let gpu_slot_series = backend.gpu_slot_series(SERIES_BIN);
    let gpu_hw_series = backend.gpu_hw_series(SERIES_BIN);
    let outcomes: Vec<DesignOutcome> = coordinator
        .outcomes()
        .iter()
        .map(|(_, o)| o.clone())
        .collect();
    let result = package(
        "IM-RP",
        outcomes,
        run,
        cpu_series,
        gpu_slot_series,
        gpu_hw_series,
    );
    (result, coordinator)
}

/// The campaign label journaled IM-RP runs stamp into the journal header;
/// [`CampaignSpec::run`] refuses a resume plan with any other label.
pub const IMRP_JOURNAL_LABEL: &str = "IM-RP";

/// A write-ahead journal on `store` stamped with the campaign identity
/// (label + protocol seed) that [`CampaignSpec::resume_from`] validates.
pub fn imrp_journal(
    store: Box<dyn JournalStore>,
    config: &ProtocolConfig,
) -> Result<Journal, JournalError> {
    Journal::new(store, IMRP_JOURNAL_LABEL, config.seed)
}

/// Run the sequential CONT-V arm on its own simulated node.
pub fn run_cont_v_experiment(targets: &[DesignTarget], config: ProtocolConfig) -> ExperimentResult {
    let backend = SimulatedBackend::new(PilotConfig::with_seed(config.seed));
    run_cont_v_with_backend(targets, config, backend)
}

/// Run CONT-V under an injected fault environment. A lineage whose task
/// exhausts the retry budget terminates early (a vanilla sequential script
/// dies with its first unrecoverable task) and is counted as aborted.
pub fn run_cont_v_resilient(
    targets: &[DesignTarget],
    config: ProtocolConfig,
    pilot: PilotConfig,
    faults: FaultConfig,
    retry: RetryPolicy,
) -> ExperimentResult {
    let plan = FaultPlan::new(faults, pilot.seed);
    let backend = RuntimeConfig::new(pilot).faults(plan, retry).simulated();
    run_cont_v_with_backend(targets, config, backend)
}

fn run_cont_v_with_backend(
    targets: &[DesignTarget],
    config: ProtocolConfig,
    backend: SimulatedBackend,
) -> ExperimentResult {
    assert!(!config.adaptive, "CONT-V is the non-adaptive arm");
    let tks = toolkits(targets, config.seed);
    let mut session = Session::new(backend);
    let outcomes = run_cont_v(&mut session, &tks, &config);
    let backend = session.backend();
    let cpu_series = backend.cpu_series(SERIES_BIN);
    let gpu_slot_series = backend.gpu_slot_series(SERIES_BIN);
    let gpu_hw_series = backend.gpu_hw_series(SERIES_BIN);
    // CONT-V has no coordinator; build the equivalent report directly.
    let obs = session.observe();
    let registry = {
        let mut r = impress_workflow::Registry::new();
        let id = r.register("cont-v".into(), None, impress_sim::SimTime::ZERO);
        r.note_stage_submitted(id, obs.utilization().tasks);
        r
    };
    let aborted = outcomes.iter().filter(|o| o.terminated_early).count();
    let run = RunReport::build(
        &registry,
        *obs.utilization(),
        *obs.phase_breakdown(),
        obs.at(),
        aborted,
    );
    package(
        "CONT-V",
        outcomes,
        run,
        cpu_series,
        gpu_slot_series,
        gpu_hw_series,
    )
}

fn package(
    label: &str,
    outcomes: Vec<DesignOutcome>,
    run: RunReport,
    cpu_series: Vec<f64>,
    gpu_slot_series: Vec<f64>,
    gpu_hw_series: Vec<f64>,
) -> ExperimentResult {
    let trajectories = outcomes.iter().map(|o| o.trajectories()).sum();
    let evaluations = outcomes.iter().map(|o| o.total_evaluations).sum();
    ExperimentResult {
        label: label.to_string(),
        outcomes,
        run,
        trajectories,
        evaluations,
        cpu_series,
        gpu_slot_series,
        gpu_hw_series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_proteins::datasets::named_pdz_domains;
    use impress_workflow::journal::ReplayPlan;

    fn small_targets() -> Vec<DesignTarget> {
        named_pdz_domains(42).into_iter().take(2).collect()
    }

    #[test]
    fn imrp_experiment_end_to_end() {
        let targets = small_targets();
        let result = run_imrp(
            &targets,
            ProtocolConfig::imrp(1),
            AdaptivePolicy {
                sub_budget: 2,
                ..AdaptivePolicy::default()
            },
        );
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
        let result = run_cont_v_experiment(&targets, ProtocolConfig::cont_v(1));
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
        let imrp = run_imrp(&targets, ProtocolConfig::imrp(3), AdaptivePolicy::default());
        let cont = run_cont_v_experiment(&targets, ProtocolConfig::cont_v(3));
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
    fn resume_rejects_a_foreign_campaign_journal() {
        let targets = small_targets();
        let config = ProtocolConfig::imrp(1);
        let plan = ReplayPlan::new("CONT-V", config.seed);
        let err = CampaignSpec::imrp(&targets, config)
            .resume_from(plan)
            .run()
            .err()
            .expect("foreign plan must be refused");
        assert!(matches!(err, JournalError::Corrupt(_)), "{err}");
    }

    #[test]
    fn series_and_deltas_are_available() {
        let targets = small_targets();
        let result = run_cont_v_experiment(&targets, ProtocolConfig::cont_v(5));
        let series = result.series(MetricKind::Plddt);
        assert_eq!(series.iterations, vec![1, 2, 3, 4]);
        let d = result.net_deltas();
        assert!(d.plddt.is_finite());
    }
}
