//! The one front door for both arms of the paper's comparison.
//!
//! [`CampaignSpec`] is one typed description of a campaign — targets,
//! protocol, pilot, and the optional fault, telemetry, journal, deadline
//! and resume layers, plus the IM-RP-only policy — with a single entry
//! point, [`CampaignSpec::run`]. The constructor picks the arm, adaptive
//! pipelines ([`CampaignSpec::imrp`]) or the sequential control as one
//! pipeline ([`CampaignSpec::cont_v`]); both run on one coordinator and
//! share its tail, so byte-identical artifact regeneration is a structural
//! property rather than parallel promises. A setter the chosen arm cannot
//! honour is refused with a [`SpecError`], never ignored.
//!
//! `impress_workflow::CampaignSpec` is a different, lower-level type: the
//! multi-tenant service's submission of one coordinator campaign. It keeps
//! its name until the perf ledger's adapter, which names both, can move.

use crate::adaptive::{AdaptivePolicy, ImpressDecision};
use crate::config::ProtocolConfig;
use crate::control::ContV;
use crate::experiment::{finish, toolkits, ExperimentResult};
use crate::protocol::{DesignOutcome, DesignPipeline};
use impress_json::{FromJsonBuf, ToJsonBuf};
use impress_pilot::backend::SimulatedBackend;
use impress_pilot::{
    FaultConfig, FaultPlan, LinkFaultsError, PilotConfig, RetryPolicy, RuntimeConfig,
};
use impress_proteins::datasets::DesignTarget;
use impress_sim::SimTime;
use impress_telemetry::Telemetry;
use impress_workflow::journal::{Journal, JournalError, JournalStore, ReplayPlan};
use impress_workflow::{BoxedPipeline, Coordinator, DecisionEngine, NoDecisions};
use std::fmt;

/// Which protocol a spec runs; chosen by its constructor.
#[derive(Clone, Copy)]
pub(crate) enum Arm {
    Imrp,
    ContV,
}

impl Arm {
    /// The arm's label: its result's, and its journal's campaign label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Arm::Imrp => "IM-RP",
            Arm::ContV => "CONT-V",
        }
    }
}

/// A complete typed description of one campaign: targets, protocol,
/// pilot, and the optional cross-cutting layers (faults, telemetry,
/// journal, walltime deadline, resume plan, and for IM-RP the adaptive
/// policy). Build with [`CampaignSpec::imrp`] or [`CampaignSpec::cont_v`]
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
    /// The resume plan was journaled by another campaign: another arm, or
    /// another seed.
    ForeignPlan {
        /// Campaign label the plan's journal was stamped with.
        label: String,
        /// Protocol seed the plan's journal was stamped with.
        seed: u64,
    },
    /// A CONT-V spec was given an adaptive protocol config.
    AdaptiveContV,
    /// A CONT-V spec was given this IM-RP-only setter (`policy`).
    NotForContV(&'static str),
    /// Stage 1 cannot sample with this `MpnnConfig` field: it needs at
    /// least one sequence, at a finite and positive temperature.
    Mpnn(&'static str),
    /// The journal failed, or its plan does not replay.
    Journal(JournalError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::LinkFaults(e) => write!(f, "invalid link faults: {e}"),
            SpecError::ForeignPlan { label, seed } => write!(
                f,
                "journal is for campaign {label:?} (seed {seed}), not this one"
            ),
            SpecError::AdaptiveContV => {
                f.write_str("CONT-V is the non-adaptive control; use ProtocolConfig::cont_v")
            }
            SpecError::NotForContV(setter) => {
                write!(f, "CONT-V has no `{setter}`: it is an IM-RP setting")
            }
            SpecError::Mpnn(field) => write!(
                f,
                "invalid MpnnConfig::{field}: Stage 1 samples at least one sequence \
                 at a finite, positive temperature"
            ),
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
    /// sequentially, one task at a time, as one pipeline on the paper's
    /// single simulated Amarel node seeded from the protocol config.
    /// `config` must be non-adaptive ([`ProtocolConfig::cont_v`]). A
    /// lineage whose task exhausts the retry budget of injected faults
    /// terminates early (a vanilla sequential script dies with its first
    /// unrecoverable task) and is counted as aborted.
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

    /// A write-ahead journal on `store` stamped with this spec's campaign
    /// identity, its arm's label and its protocol seed: the identity
    /// [`CampaignSpec::resume_from`] checks. Install it with
    /// [`CampaignSpec::journal`].
    pub fn journal_on(&self, store: Box<dyn JournalStore>) -> Result<Journal, JournalError> {
        Journal::new(store, self.arm.label(), self.config.seed)
    }

    /// Install a write-ahead journal, stamped by
    /// [`CampaignSpec::journal_on`].
    pub fn journal(mut self, journal: Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Set an allocation walltime deadline: the pilot stops launching
    /// tasks that cannot finish by `deadline`, drains in-flight work, and
    /// leaves the journal (if any) as the checkpoint. Only finished
    /// pipelines report outcomes, so a drained CONT-V, whose one pipeline
    /// finishes with the last lineage, reports none.
    pub fn deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Resume from a replayed journal instead of starting fresh. The plan's
    /// campaign identity (label + seed) must be this spec's arm and
    /// protocol seed; [`CampaignSpec::run`] refuses a foreign plan. A
    /// pipeline live at the kill re-runs for real, and CONT-V's one
    /// pipeline is live until its last lineage ends, so a resumed CONT-V
    /// re-runs it whole.
    pub fn resume_from(mut self, plan: ReplayPlan) -> Self {
        self.resume = Some(plan);
        self
    }

    /// Run the campaign to completion (or to a drained deadline). This is
    /// the single code path every run of either arm takes: refuse what the
    /// arm cannot honour, build the backend from one runtime config, then
    /// drive the arm's root pipelines on one coordinator. IM-RP adds one
    /// root per target under its decision engine; CONT-V adds its one
    /// chain of lineages under none.
    pub fn run(mut self) -> Result<CampaignRun, SpecError> {
        if let Some(refused) = self.refusal() {
            return Err(refused);
        }
        let mut runtime = RuntimeConfig::new(self.pilot);
        if let Some((faults, retry)) = self.faults.take() {
            runtime = runtime.faults(FaultPlan::try_new(faults, self.pilot.seed)?, retry);
        }
        if let Some(telemetry) = self.telemetry.take() {
            runtime = runtime.telemetry(telemetry);
        }
        if let Some(deadline) = self.deadline {
            runtime = runtime.deadline(deadline);
        }
        let backend = runtime.simulated();
        let tks = toolkits(&self.targets, self.config.seed);
        match self.arm {
            Arm::Imrp => {
                let policy = self.policy.unwrap_or_default();
                let decision = ImpressDecision::new(self.config.clone(), policy, tks.clone());
                let roots = (tks.iter().enumerate()).map(|(i, tk)| {
                    let root = DesignPipeline::root(tk.clone(), self.config.clone(), i as u64);
                    Box::new(root) as BoxedPipeline<_>
                });
                let roots = roots.collect();
                self.drive(backend, decision, roots, std::slice::from_ref)
            }
            Arm::ContV => {
                let chain = Box::new(ContV::new(&tks, &self.config));
                self.drive(backend, NoDecisions, vec![chain], Vec::as_slice)
            }
        }
    }

    /// Run `roots` on a coordinator over `backend`, resumed and journaled
    /// as set, through the arms' one tail.
    fn drive<O: ToJsonBuf + FromJsonBuf + 'static, D: DecisionEngine<O>>(
        self,
        backend: SimulatedBackend,
        decision: D,
        roots: Vec<BoxedPipeline<O>>,
        lineages: fn(&O) -> &[DesignOutcome],
    ) -> Result<CampaignRun, SpecError> {
        let mut coordinator = match &self.resume {
            Some(plan) => Coordinator::resume(backend, decision, plan)?,
            None => Coordinator::new(backend, decision),
        };
        if let Some(journal) = self.journal {
            coordinator = coordinator.with_journal(journal);
        }
        for root in roots {
            coordinator.add_pipeline(root);
        }
        let result = finish(&mut coordinator, self.arm, lineages);
        let journal = coordinator.journal();
        Ok(CampaignRun {
            result,
            drained: coordinator.drained(),
            records: journal.map_or(0, Journal::records_written),
            snapshots: journal.map_or(0, Journal::snapshots_taken),
        })
    }

    /// Why this spec cannot run at all, before anything is built.
    fn refusal(&self) -> Option<SpecError> {
        let mpnn = &self.config.mpnn;
        if mpnn.num_sequences == 0 {
            return Some(SpecError::Mpnn("num_sequences"));
        }
        if !(mpnn.temperature.is_finite() && mpnn.temperature > 0.0) {
            return Some(SpecError::Mpnn("temperature"));
        }
        if let Arm::ContV = self.arm {
            if self.config.adaptive {
                return Some(SpecError::AdaptiveContV);
            }
            if self.policy.is_some() {
                return Some(SpecError::NotForContV("policy"));
            }
        }
        let plan = self.resume.as_ref()?;
        let ours = plan.label == self.arm.label() && plan.seed == self.config.seed;
        (!ours).then(|| SpecError::ForeignPlan {
            label: plan.label.clone(),
            seed: plan.seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_pilot::LinkFaults;
    use impress_proteins::datasets::named_pdz_domains;
    use impress_sim::SimDuration;
    use impress_workflow::journal::MemoryJournal;

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
        let policy = AdaptivePolicy { sub_budget: 2 };

        // Hand-assembled, the way `CampaignSpec::run` does it.
        let pilot = PilotConfig::with_seed(config.seed);
        let tks = toolkits(&targets, config.seed);
        let decision = ImpressDecision::new(config.clone(), policy, tks.clone());
        let mut coordinator = Coordinator::new(SimulatedBackend::new(pilot), decision);
        for (i, tk) in tks.iter().enumerate() {
            let root = DesignPipeline::root(tk.clone(), config.clone(), i as u64);
            coordinator.add_pipeline(Box::new(root));
        }
        let manual = finish(&mut coordinator, Arm::Imrp, std::slice::from_ref);

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

    /// A plan journaled by one arm is foreign to the other, and to its
    /// own arm at another seed: `journal_on` stamps the spec's own arm.
    #[test]
    fn spec_refuses_a_foreign_resume_plan() {
        let plan_of = |spec: CampaignSpec| {
            let store = Box::new(MemoryJournal::new());
            spec.journal_on(store).unwrap().plan().clone()
        };
        let targets = targets(1);
        let imrp = |seed| CampaignSpec::imrp(&targets, ProtocolConfig::imrp(seed));
        let cont_v = || CampaignSpec::cont_v(&targets, ProtocolConfig::cont_v(1));
        let cases = [
            (imrp(1), plan_of(cont_v())),
            (cont_v(), plan_of(imrp(1))),
            (imrp(1), plan_of(imrp(2))),
        ];
        for (spec, plan) in cases {
            let (label, seed) = (plan.label.clone(), plan.seed);
            match spec.resume_from(plan).run() {
                Err(SpecError::ForeignPlan { label: l, seed: s }) => {
                    assert_eq!((l, s), (label, seed))
                }
                Err(e) => panic!("{label:?} at seed {seed} refused for the wrong reason: {e}"),
                Ok(_) => panic!("{label:?} at seed {seed} was taken"),
            }
        }
    }

    /// A CONT-V spec refuses, by name, the one setting only IM-RP reads
    /// (the adaptive policy), and an adaptive config; nothing is silently
    /// ignored. Journal, deadline and resume plan it takes.
    #[test]
    fn cont_v_refuses_what_only_imrp_reads() {
        let targets = targets(1);
        let spec = || CampaignSpec::cont_v(&targets, ProtocolConfig::cont_v(1));
        let policy = spec().policy(AdaptivePolicy::default()).run();
        assert!(matches!(policy, Err(SpecError::NotForContV("policy"))));
        let adaptive = CampaignSpec::cont_v(&targets, ProtocolConfig::imrp(1)).run();
        assert!(matches!(adaptive, Err(SpecError::AdaptiveContV)));

        let journal = spec().journal_on(Box::new(MemoryJournal::new())).unwrap();
        assert!(spec().journal(journal).run().unwrap().records > 0);
        let deadline = SimTime::ZERO + SimDuration::from_hours(1);
        assert!(spec().deadline(deadline).run().unwrap().drained);
        let plan = ReplayPlan::new("CONT-V", 1);
        let resumed = spec().resume_from(plan).run().unwrap().result;
        assert_eq!(resumed.trajectories, 4, "an empty plan re-runs everything");
    }

    /// A spec of each arm over one target, its protocol config edited.
    fn both_arms(edit: impl Fn(&mut ProtocolConfig)) -> [CampaignSpec; 2] {
        let (mut imrp, mut cont_v) = (ProtocolConfig::imrp(1), ProtocolConfig::cont_v(1));
        edit(&mut imrp);
        edit(&mut cont_v);
        let targets = targets(1);
        [
            CampaignSpec::imrp(&targets, imrp),
            CampaignSpec::cont_v(&targets, cont_v),
        ]
    }

    /// A Stage 1 that samples no sequence is refused by name at the front
    /// door of either arm, not by an assert inside the first MPNN task.
    #[test]
    fn zero_mpnn_sequences_are_refused_on_both_arms() {
        for spec in both_arms(|c| c.mpnn.num_sequences = 0) {
            assert!(matches!(spec.run(), Err(SpecError::Mpnn("num_sequences"))));
        }
    }

    /// A NaN, infinite, zero or negative sampling temperature is refused
    /// by name at the front door of either arm.
    #[test]
    fn a_temperature_that_is_not_finite_and_positive_is_refused_on_both_arms() {
        for temperature in [f64::NAN, f64::INFINITY, 0.0, -0.5] {
            for spec in both_arms(|c| c.mpnn.temperature = temperature) {
                let run = spec.run();
                assert!(
                    matches!(run, Err(SpecError::Mpnn("temperature"))),
                    "{temperature}"
                );
            }
        }
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
