//! The spec-driven front door for IM-RP campaigns.
//!
//! [`CampaignSpec`] is one typed description of a campaign — targets,
//! protocol, policy, pilot, and the optional fault, telemetry, journal,
//! deadline and resume layers — with a single entry point,
//! [`CampaignSpec::run`]. Every configured IM-RP run in the workspace goes
//! through it, so all variants share one code path by construction and
//! byte-identical artifact regeneration is a structural property rather
//! than parallel promises. [`run_imrp`](crate::experiment::run_imrp) is the
//! paper's named arm over the defaults. The shape deliberately mirrors
//! `impress_workflow::CampaignSpec` — the service-level submission type —
//! so "a campaign" means the same thing at both layers.

use crate::adaptive::{AdaptivePolicy, ImpressDecision};
use crate::config::ProtocolConfig;
use crate::experiment::{add_imrp_roots, finish_imrp, toolkits, ExperimentResult};
use impress_pilot::{FaultConfig, FaultPlan, PilotConfig, RetryPolicy, RuntimeConfig};
use impress_proteins::datasets::DesignTarget;
use impress_sim::SimTime;
use impress_telemetry::Telemetry;
use impress_workflow::journal::{Journal, JournalError, ReplayPlan};
use impress_workflow::Coordinator;

/// A complete typed description of one IM-RP campaign: targets, protocol,
/// adaptive policy, pilot, and the optional cross-cutting layers (faults,
/// telemetry, journal, walltime deadline, resume plan). Build with
/// [`CampaignSpec::imrp`] and the chainable setters, run with
/// [`CampaignSpec::run`].
pub struct CampaignSpec {
    targets: Vec<DesignTarget>,
    config: ProtocolConfig,
    policy: AdaptivePolicy,
    pilot: PilotConfig,
    faults: Option<(FaultConfig, RetryPolicy)>,
    telemetry: Option<Telemetry>,
    journal: Option<Journal>,
    deadline: Option<SimTime>,
    resume: Option<ReplayPlan>,
}

/// What [`CampaignSpec::run`] produced: the packaged experiment result plus
/// the crash-consistency facts (meaningful when a journal and/or deadline
/// was configured; degenerate otherwise).
pub struct CampaignRun {
    /// The experiment result.
    pub result: ExperimentResult,
    /// Whether a walltime deadline forced a graceful drain before the
    /// campaign finished.
    pub drained: bool,
    /// Journal records appended (0 without a journal).
    pub records: u64,
    /// Snapshot compactions performed (0 without a journal).
    pub snapshots: u64,
}

impl CampaignSpec {
    /// An IM-RP campaign over `targets` with the default adaptive policy,
    /// on the paper's single simulated Amarel node seeded from the
    /// protocol config.
    ///
    /// `config.adaptive == false` is allowed: it gives the
    /// concurrent-but-non-selective ablation variant (pipelines still run
    /// under the coordinator, but Stage 6 accepts unconditionally). The
    /// paper's CONT-V additionally removes concurrency — use
    /// [`run_cont_v_experiment`](crate::experiment::run_cont_v_experiment)
    /// for that arm.
    pub fn imrp(targets: &[DesignTarget], config: ProtocolConfig) -> Self {
        let pilot = PilotConfig::with_seed(config.seed);
        CampaignSpec {
            targets: targets.to_vec(),
            config,
            policy: AdaptivePolicy::default(),
            pilot,
            faults: None,
            telemetry: None,
            journal: None,
            deadline: None,
            resume: None,
        }
    }

    /// Override the adaptive policy.
    pub fn policy(mut self, policy: AdaptivePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Override the pilot configuration (e.g. a multi-node cluster).
    pub fn pilot(mut self, pilot: PilotConfig) -> Self {
        self.pilot = pilot;
        self
    }

    /// Inject a fault environment: the pilot realizes `faults` (seeded from
    /// the pilot seed) under `retry`. With [`FaultConfig::none`] and
    /// [`RetryPolicy::none`] the run is bit-identical to a fault-free one.
    pub fn faults(mut self, faults: FaultConfig, retry: RetryPolicy) -> Self {
        self.faults = Some((faults, retry));
        self
    }

    /// Wire a live [`Telemetry`] handle through the pilot. Telemetry never
    /// perturbs the simulation — a disabled handle is bit-identical to no
    /// handle.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Install a write-ahead journal (see
    /// [`imrp_journal`](crate::experiment::imrp_journal)).
    pub fn journal(mut self, journal: Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Set an allocation walltime deadline: the pilot stops launching tasks
    /// that cannot finish by `deadline`, drains in-flight work, and leaves
    /// the journal (if any) as the checkpoint.
    pub fn deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Resume from a replayed journal instead of starting fresh. The plan's
    /// campaign identity (label + seed) must match the protocol config;
    /// [`CampaignSpec::run`] refuses a foreign plan with a typed error.
    pub fn resume_from(mut self, plan: ReplayPlan) -> Self {
        self.resume = Some(plan);
        self
    }

    /// Run the campaign to completion (or to a drained deadline). This is
    /// the single code path every IM-RP run takes: build the
    /// backend from the runtime config, build the decision engine, build or
    /// resume the coordinator, attach the journal, add one root pipeline
    /// per target, and drive to completion.
    pub fn run(self) -> Result<CampaignRun, JournalError> {
        if let Some(plan) = &self.resume {
            if plan.label != crate::experiment::IMRP_JOURNAL_LABEL || plan.seed != self.config.seed
            {
                return Err(JournalError::Corrupt(format!(
                    "journal is for campaign {:?} (seed {}), not {:?} (seed {})",
                    plan.label,
                    plan.seed,
                    crate::experiment::IMRP_JOURNAL_LABEL,
                    self.config.seed
                )));
            }
        }
        let mut runtime = RuntimeConfig::new(self.pilot.clone());
        if let Some((faults, retry)) = self.faults {
            runtime = runtime.faults(FaultPlan::new(faults, self.pilot.seed), retry);
        }
        if let Some(telemetry) = self.telemetry {
            runtime = runtime.telemetry(telemetry);
        }
        if let Some(deadline) = self.deadline {
            runtime = runtime.deadline(deadline);
        }
        let backend = runtime.simulated();
        let tks = toolkits(&self.targets, self.config.seed);
        let decision = ImpressDecision::new(self.config.clone(), self.policy, tks.clone());
        let mut coordinator = match &self.resume {
            Some(plan) => Coordinator::resume(backend, decision, plan)?,
            None => Coordinator::new(backend, decision),
        };
        if let Some(journal) = self.journal {
            coordinator = coordinator.with_journal(journal);
        }
        add_imrp_roots(&mut coordinator, &tks, &self.config);
        let (result, coordinator) = finish_imrp(coordinator);
        let (records, snapshots) = coordinator
            .journal()
            .map(|j| (j.records_written(), j.snapshots_taken()))
            .unwrap_or((0, 0));
        Ok(CampaignRun {
            result,
            drained: coordinator.drained(),
            records,
            snapshots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_imrp;
    use impress_proteins::datasets::named_pdz_domains;

    /// The golden test: the spec-driven path must be byte-identical to a
    /// hand-assembled coordinator run. Everything downstream (fig2–5,
    /// table1) consumes `ExperimentResult` through `run_imrp`, so this pins
    /// the whole artifact chain.
    #[test]
    fn spec_path_is_byte_identical_to_a_hand_assembled_run() {
        let targets: Vec<_> = named_pdz_domains(42).into_iter().take(2).collect();
        let config = ProtocolConfig::imrp(1);
        let policy = AdaptivePolicy {
            sub_budget: 2,
            ..AdaptivePolicy::default()
        };

        // Hand-assembled, the way `CampaignSpec::run` does it.
        let pilot = PilotConfig::with_seed(config.seed);
        let tks = toolkits(&targets, config.seed);
        let decision = ImpressDecision::new(config.clone(), policy.clone(), tks.clone());
        let mut coordinator = Coordinator::new(
            impress_pilot::backend::SimulatedBackend::new(pilot),
            decision,
        );
        add_imrp_roots(&mut coordinator, &tks, &config);
        let (manual, _) = finish_imrp(coordinator);

        // Through the front door, twice: via the builder directly and via
        // the paper's named arm.
        let spec_run = CampaignSpec::imrp(&targets, config.clone())
            .policy(policy.clone())
            .run()
            .unwrap();
        let named = run_imrp(&targets, config, policy);

        let golden = impress_json::to_string(&manual);
        assert_eq!(golden, impress_json::to_string(&spec_run.result));
        assert_eq!(golden, impress_json::to_string(&named));
        assert_eq!(spec_run.records, 0, "no journal configured");
        assert!(!spec_run.drained);
        // Sanity: the run actually did work.
        assert!(spec_run.result.trajectories >= 4);
    }

    #[test]
    fn spec_refuses_a_foreign_resume_plan() {
        let targets: Vec<_> = named_pdz_domains(42).into_iter().take(1).collect();
        let config = ProtocolConfig::imrp(1);
        let Err(err) = CampaignSpec::imrp(&targets, config)
            .resume_from(ReplayPlan::new("CONT-V", 1))
            .run()
        else {
            panic!("foreign plan must be refused");
        };
        assert!(matches!(err, JournalError::Corrupt(_)), "{err}");
    }
}
