//! The one front door for both arms of the paper's comparison.
//!
//! [`CampaignSpec`] is one typed description of a campaign — targets,
//! protocol, pilot, and the optional fault and telemetry layers, plus the
//! IM-RP-only policy, journal, deadline and resume layers — with a single
//! entry point, [`CampaignSpec::run`]. The constructor picks the arm:
//! [`CampaignSpec::imrp`] runs the adaptive pipelines on the coordinator,
//! [`CampaignSpec::cont_v`] runs the sequential control over a bare
//! session. Both arms get their runtime from the same builder, so every
//! configured run in the workspace shares one code path and byte-identical
//! artifact regeneration is a structural property rather than parallel
//! promises. A setter the chosen arm cannot honour is refused with a
//! [`SpecError`], never ignored.
//!
//! `impress_workflow::CampaignSpec` is a different, lower-level type: the
//! multi-tenant service's submission of one coordinator campaign. It keeps
//! its name until the perf ledger's adapter, which names both, can move.

use crate::adaptive::{AdaptivePolicy, ImpressDecision};
use crate::config::ProtocolConfig;
use crate::experiment::{
    add_imrp_roots, finish_cont_v, finish_imrp, toolkits, ExperimentResult, IMRP_JOURNAL_LABEL,
};
use impress_pilot::{
    FaultConfig, FaultPlan, LinkFaultsError, PilotConfig, RetryPolicy, RuntimeConfig,
};
use impress_proteins::datasets::DesignTarget;
use impress_sim::SimTime;
use impress_telemetry::Telemetry;
use impress_workflow::journal::{Journal, JournalError, ReplayPlan};
use impress_workflow::Coordinator;
use std::fmt;

/// Which protocol a spec runs; chosen by its constructor.
enum Arm {
    Imrp,
    ContV,
}

/// A complete typed description of one campaign: targets, protocol,
/// pilot, and the optional cross-cutting layers (faults, telemetry, and
/// for IM-RP the adaptive policy, journal, walltime deadline and resume
/// plan). Build with [`CampaignSpec::imrp`] or [`CampaignSpec::cont_v`]
/// and the chainable setters, run with [`CampaignSpec::run`].
pub struct CampaignSpec {
    arm: Arm,
    targets: Vec<DesignTarget>,
    config: ProtocolConfig,
    policy: Option<AdaptivePolicy>,
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

/// Why [`CampaignSpec::run`] refused a spec or could not finish it.
#[derive(Debug)]
pub enum SpecError {
    /// The fault config's link section cannot be realized.
    LinkFaults(LinkFaultsError),
    /// The resume plan was journaled by another campaign.
    ForeignPlan {
        /// Campaign label the plan's journal was stamped with.
        label: String,
        /// Protocol seed the plan's journal was stamped with.
        seed: u64,
    },
    /// A CONT-V spec was given an adaptive protocol config.
    AdaptiveContV,
    /// A CONT-V spec was given this IM-RP-only setter.
    NotForContV(&'static str),
    /// The journal failed, or its plan does not replay.
    Journal(JournalError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::LinkFaults(e) => write!(f, "invalid link faults: {e}"),
            SpecError::ForeignPlan { label, seed } => write!(
                f,
                "journal is for campaign {label:?} (seed {seed}), not this {IMRP_JOURNAL_LABEL:?} one"
            ),
            SpecError::AdaptiveContV => {
                f.write_str("CONT-V is the non-adaptive control; use ProtocolConfig::cont_v")
            }
            SpecError::NotForContV(setter) => {
                write!(f, "CONT-V has no `{setter}`: it is an IM-RP setting")
            }
            SpecError::Journal(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JournalError> for SpecError {
    fn from(e: JournalError) -> Self {
        SpecError::Journal(e)
    }
}

impl From<LinkFaultsError> for SpecError {
    fn from(e: LinkFaultsError) -> Self {
        SpecError::LinkFaults(e)
    }
}

impl CampaignSpec {
    /// An IM-RP campaign over `targets` with the default adaptive policy,
    /// on the paper's single simulated Amarel node seeded from the
    /// protocol config.
    ///
    /// `config.adaptive == false` is allowed: it gives the
    /// concurrent-but-non-selective ablation variant (pipelines still run
    /// under the coordinator, but Stage 6 accepts unconditionally). The
    /// paper's CONT-V additionally removes concurrency — that arm is
    /// [`CampaignSpec::cont_v`].
    pub fn imrp(targets: &[DesignTarget], config: ProtocolConfig) -> Self {
        Self::new(Arm::Imrp, targets, config)
    }

    /// A CONT-V campaign over `targets`: the same stages run strictly
    /// sequentially, one task at a time, on the paper's single simulated
    /// Amarel node seeded from the protocol config. `config` must be
    /// non-adaptive ([`ProtocolConfig::cont_v`]). A lineage whose task
    /// exhausts the retry budget of injected faults terminates early (a
    /// vanilla sequential script dies with its first unrecoverable task)
    /// and is counted as aborted.
    pub fn cont_v(targets: &[DesignTarget], config: ProtocolConfig) -> Self {
        Self::new(Arm::ContV, targets, config)
    }

    fn new(arm: Arm, targets: &[DesignTarget], config: ProtocolConfig) -> Self {
        let pilot = PilotConfig::with_seed(config.seed);
        CampaignSpec {
            arm,
            targets: targets.to_vec(),
            config,
            policy: None,
            pilot,
            faults: None,
            telemetry: None,
            journal: None,
            deadline: None,
            resume: None,
        }
    }

    /// Override the adaptive policy (IM-RP only).
    pub fn policy(mut self, policy: AdaptivePolicy) -> Self {
        self.policy = Some(policy);
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

    /// Install a write-ahead journal (IM-RP only; see
    /// [`imrp_journal`](crate::experiment::imrp_journal)).
    pub fn journal(mut self, journal: Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Set an allocation walltime deadline (IM-RP only): the pilot stops
    /// launching tasks that cannot finish by `deadline`, drains in-flight
    /// work, and leaves the journal (if any) as the checkpoint.
    pub fn deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Resume from a replayed journal instead of starting fresh (IM-RP
    /// only). The plan's campaign identity (label + seed) must match the
    /// protocol config; [`CampaignSpec::run`] refuses a foreign plan.
    pub fn resume_from(mut self, plan: ReplayPlan) -> Self {
        self.resume = Some(plan);
        self
    }

    /// Run the campaign to completion (or to a drained deadline). This is
    /// the single code path every run of either arm takes: refuse what the
    /// arm cannot honour, build the backend from one runtime config, then
    /// drive the arm. IM-RP builds the decision engine, builds or resumes
    /// the coordinator, attaches the journal and adds one root pipeline
    /// per target; CONT-V runs its lineages one task at a time over a
    /// session.
    pub fn run(self) -> Result<CampaignRun, SpecError> {
        if let Some(refused) = self.refusal() {
            return Err(refused);
        }
        let mut runtime = RuntimeConfig::new(self.pilot);
        if let Some((faults, retry)) = self.faults {
            runtime = runtime.faults(FaultPlan::try_new(faults, self.pilot.seed)?, retry);
        }
        if let Some(telemetry) = self.telemetry {
            runtime = runtime.telemetry(telemetry);
        }
        if let Some(deadline) = self.deadline {
            runtime = runtime.deadline(deadline);
        }
        let backend = runtime.simulated();
        let tks = toolkits(&self.targets, self.config.seed);
        if let Arm::ContV = self.arm {
            return Ok(CampaignRun {
                result: finish_cont_v(backend, &tks, &self.config),
                drained: false,
                records: 0,
                snapshots: 0,
            });
        }
        let policy = self.policy.unwrap_or_default();
        let decision = ImpressDecision::new(self.config.clone(), policy, tks.clone());
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

    /// Why this spec cannot run at all, before anything is built.
    fn refusal(&self) -> Option<SpecError> {
        match self.arm {
            Arm::Imrp => {
                let plan = self.resume.as_ref()?;
                let ours = plan.label == IMRP_JOURNAL_LABEL && plan.seed == self.config.seed;
                (!ours).then(|| SpecError::ForeignPlan {
                    label: plan.label.clone(),
                    seed: plan.seed,
                })
            }
            Arm::ContV if self.config.adaptive => Some(SpecError::AdaptiveContV),
            Arm::ContV => [
                ("policy", self.policy.is_some()),
                ("journal", self.journal.is_some()),
                ("deadline", self.deadline.is_some()),
                ("resume_from", self.resume.is_some()),
            ]
            .into_iter()
            .find_map(|(setter, set)| set.then_some(SpecError::NotForContV(setter))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::run_cont_v;
    use crate::experiment::{imrp_journal, package};
    use impress_pilot::backend::SimulatedBackend;
    use impress_pilot::{LinkFaults, Session};
    use impress_proteins::datasets::named_pdz_domains;
    use impress_sim::SimDuration;
    use impress_workflow::journal::MemoryJournal;
    use impress_workflow::{Registry, RunReport};

    fn targets(n: usize) -> Vec<DesignTarget> {
        named_pdz_domains(42).into_iter().take(n).collect()
    }

    /// The golden test: the spec-driven path must be byte-identical to a
    /// hand-assembled coordinator run. Everything downstream (fig2–5,
    /// table1) consumes `ExperimentResult` through the spec, so this pins
    /// the whole artifact chain.
    #[test]
    fn spec_path_is_byte_identical_to_a_hand_assembled_run() {
        let targets = targets(2);
        let config = ProtocolConfig::imrp(1);
        let policy = AdaptivePolicy {
            sub_budget: 2,
            ..AdaptivePolicy::default()
        };

        // Hand-assembled, the way `CampaignSpec::run` does it.
        let pilot = PilotConfig::with_seed(config.seed);
        let tks = toolkits(&targets, config.seed);
        let decision = ImpressDecision::new(config.clone(), policy, tks.clone());
        let mut coordinator = Coordinator::new(SimulatedBackend::new(pilot), decision);
        add_imrp_roots(&mut coordinator, &tks, &config);
        let (manual, _) = finish_imrp(coordinator);

        let spec_run = CampaignSpec::imrp(&targets, config)
            .policy(policy)
            .run()
            .unwrap();

        assert_eq!(
            impress_json::to_string(&manual),
            impress_json::to_string(&spec_run.result)
        );
        assert_eq!(spec_run.records, 0, "no journal configured");
        assert!(!spec_run.drained);
        // Sanity: the run actually did work.
        assert!(spec_run.result.trajectories >= 4);
    }

    /// CONT-V's golden test: the spec's CONT-V path is `run_cont_v` over a
    /// session, its report built by hand as one pipeline that submitted
    /// every task — fault-free, and under the resilience study's 8 h MTBF,
    /// retry-3 cell.
    #[test]
    fn cont_v_spec_path_is_byte_identical_to_a_hand_assembled_run() {
        let targets = targets(2);
        let config = ProtocolConfig::cont_v(1);
        let pilot = PilotConfig::with_seed(config.seed);
        let by_hand = |backend: SimulatedBackend| {
            let mut session = Session::new(backend);
            let outcomes = run_cont_v(&mut session, &toolkits(&targets, config.seed), &config);
            let obs = session.observe();
            let mut registry = Registry::new();
            let id = registry.register("cont-v".into(), None, SimTime::ZERO);
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
        };
        let spec = || CampaignSpec::cont_v(&targets, config.clone());

        let manual = by_hand(SimulatedBackend::new(pilot));
        let spec_run = spec().run().unwrap();
        assert_eq!(
            impress_json::to_string(&manual),
            impress_json::to_string(&spec_run.result)
        );
        assert_eq!((spec_run.records, spec_run.drained), (0, false));

        let faults = FaultConfig {
            task_failure_rate: 0.02,
            node_mtbf: Some(SimDuration::from_hours(8)),
            node_outage: SimDuration::from_mins(30),
            ..FaultConfig::none()
        };
        let retry = RetryPolicy::retries(3);
        let plan = FaultPlan::try_new(faults.clone(), pilot.seed).unwrap();
        let manual = by_hand(RuntimeConfig::new(pilot).faults(plan, retry).simulated());
        let faulty = spec().faults(faults, retry).run().unwrap().result;
        assert_eq!(
            impress_json::to_string(&manual),
            impress_json::to_string(&faulty)
        );
        assert!(faulty.run.task_retries > 0, "the cell injects faults");
    }

    #[test]
    fn spec_refuses_a_foreign_resume_plan() {
        let Err(err) = CampaignSpec::imrp(&targets(1), ProtocolConfig::imrp(1))
            .resume_from(ReplayPlan::new("CONT-V", 1))
            .run()
        else {
            panic!("foreign plan must be refused");
        };
        assert!(
            matches!(&err, SpecError::ForeignPlan { label, seed: 1 } if label == "CONT-V"),
            "{err}"
        );
    }

    /// A CONT-V spec refuses, by name, every setting only IM-RP reads,
    /// and an adaptive config; nothing is silently ignored.
    #[test]
    fn cont_v_refuses_what_only_imrp_reads() {
        type Case = (&'static str, fn(CampaignSpec) -> CampaignSpec);
        let cases: [Case; 4] = [
            ("policy", |s| s.policy(AdaptivePolicy::default())),
            ("journal", |s| {
                let store = Box::new(MemoryJournal::new());
                s.journal(imrp_journal(store, &ProtocolConfig::cont_v(1)).unwrap())
            }),
            ("deadline", |s| {
                s.deadline(SimTime::ZERO + SimDuration::from_hours(1))
            }),
            ("resume_from", |s| {
                s.resume_from(ReplayPlan::new(IMRP_JOURNAL_LABEL, 1))
            }),
        ];
        let targets = targets(1);
        for (setter, set) in cases {
            let spec = set(CampaignSpec::cont_v(&targets, ProtocolConfig::cont_v(1)));
            match spec.run() {
                Err(SpecError::NotForContV(named)) => assert_eq!(named, setter),
                Err(e) => panic!("`{setter}`: refused for the wrong reason: {e}"),
                Ok(_) => panic!("`{setter}` was ignored"),
            }
        }
        let adaptive = CampaignSpec::cont_v(&targets, ProtocolConfig::imrp(1)).run();
        assert!(matches!(adaptive, Err(SpecError::AdaptiveContV)));
    }

    /// A link section that cannot be realized is an error from either
    /// arm's front door, not a panic inside it.
    #[test]
    fn invalid_link_faults_are_refused_on_both_arms() {
        let faults = FaultConfig {
            link: LinkFaults {
                heartbeat_interval: Some(SimDuration::from_secs(5)),
                ..LinkFaults::none()
            },
            ..FaultConfig::none()
        };
        let targets = targets(1);
        for spec in [
            CampaignSpec::imrp(&targets, ProtocolConfig::imrp(1)),
            CampaignSpec::cont_v(&targets, ProtocolConfig::cont_v(1)),
        ] {
            let run = spec.faults(faults.clone(), RetryPolicy::none()).run();
            assert!(matches!(
                run,
                Err(SpecError::LinkFaults(
                    LinkFaultsError::HeartbeatIntervalWithoutTimeout
                ))
            ));
        }
    }
}
