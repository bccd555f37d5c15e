//! The one file that names the measured program's APIs.
//!
//! Everything the benchmark does to the program goes through here, in two
//! wirings of the same seams:
//!
//! * [`FrontDoor`] — the program as a user assembles it, nothing in between.
//!   The end-to-end metrics are measured on this wiring only.
//! * [`Traced`] — the same assembly with a timing decorator at each public
//!   trait the layers already talk through (`ExecutionBackend`, task work
//!   closures, `PipelineLogic`, `DecisionEngine`, `JournalStore`,
//!   `TelemetrySink`). The decorators open [`trace`] spans and forward.
//!
//! Workloads, statistics and the ledger see plain data: generated inputs go
//! in, a [`CellResult`] (counts, simulated statistics, a digest of the
//! program's serialised results) comes out. When a program API changes, this
//! file changes and nothing else in `perf/` does.

use crate::trace::{self, Counter, Span};
use impress_core::adaptive::AdaptivePolicy;
use impress_core::control::run_cont_v;
use impress_core::experiment::{run_cont_v_experiment, toolkits};
use impress_core::spec::CampaignSpec;
use impress_core::{DesignOutcome, DesignPipeline, ImpressDecision, ProtocolConfig};
use impress_json::{json_struct, write_json, FromJson, ToJsonBuf};
use impress_pilot::backend::{Completion, ExecutionBackend};
use impress_pilot::{
    ClusterSpec, ControlStats, FaultConfig, FaultPlan, HedgePolicy, NodeSpec, PhaseBreakdown,
    PilotConfig, PlacementPolicy, QuarantinePolicy, ResourceRequest, RetryPolicy, RuntimeConfig,
    Scheduler, Session, TaskDescription, TaskId, UtilizationReport,
};
use impress_proteins::datasets::{named_pdz_domains, DesignTarget};
use impress_sim::{EventQueue, SimDuration, SimRng, SimTime};
use impress_telemetry::{NullSink, RingSink, Stamp, Telemetry, TelemetryEvent, TelemetrySink};
use impress_workflow::decision::Spawn;
use impress_workflow::service::{
    CampaignService, CampaignSpec as ServiceSpec, CampaignStatus, TenantId, TenantQuota,
};
use impress_workflow::{
    load_plan, BoxedPipeline, Coordinator, CoordinatorView, DecisionEngine, FileJournal, Journal,
    JournalError, JournalStore, NoDecisions, PipelineId, PipelineLogic, ReplayPlan, RunReport,
    Step,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Inputs and results: plain data on the harness side of the seam.
// ---------------------------------------------------------------------------

/// The seed of op `i` of `workload` under run seed `seed`. Forking does not
/// consume the parent stream, so the value depends on nothing but its three
/// arguments.
pub fn op_seed(seed: u64, workload: &str, i: u64) -> u64 {
    SimRng::from_seed(seed)
        .fork(workload)
        .fork_idx("op", i)
        .next_u64()
}

/// Simulated statistics read from the program's own reports. A speed-up must
/// leave every one of them identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Model {
    pub virt_makespan_s: f64,
    pub cpu_util: f64,
    pub gpu_util: f64,
    pub tasks: u64,
    pub sub_pipelines: u64,
    pub p50_campaign_latency_s: f64,
    pub p99_campaign_latency_s: f64,
    pub jain: f64,
}

/// What one run of a cell reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellResult {
    /// Pilot tasks that reached a completion.
    pub tasks: u64,
    /// FNV-1a-64 over the program's serialised results.
    pub digest: u64,
    /// Empty when every submitted task reached a completion and every
    /// campaign a terminal state; otherwise what did not.
    pub failures: Vec<String>,
    pub model: Model,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64, byte-wise; chain calls by passing the previous hash.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The FNV-1a step over one 64-bit word — for the million-completion drains,
/// where hashing byte by byte would show in the measured time.
fn fnv1a_word(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

fn digest_json(h: u64, value: &impl ToJsonBuf, scratch: &mut String) -> u64 {
    scratch.clear();
    write_json(scratch, value);
    fnv1a(h, scratch.as_bytes())
}

// ---------------------------------------------------------------------------
// The two wirings.
// ---------------------------------------------------------------------------

/// How a cell puts the program's seams together.
pub trait Wiring {
    type Backend<B: ExecutionBackend>: ExecutionBackend;
    fn backend<B: ExecutionBackend>(inner: B) -> Self::Backend<B>;
    fn store(inner: FileJournal) -> Box<dyn JournalStore>;
    fn sink(inner: Arc<RingSink>) -> Arc<dyn TelemetrySink>;
}

/// The program as a user assembles it.
pub struct FrontDoor;

impl Wiring for FrontDoor {
    type Backend<B: ExecutionBackend> = B;
    fn backend<B: ExecutionBackend>(inner: B) -> B {
        inner
    }
    fn store(inner: FileJournal) -> Box<dyn JournalStore> {
        Box::new(inner)
    }
    fn sink(inner: Arc<RingSink>) -> Arc<dyn TelemetrySink> {
        inner
    }
}

/// The same assembly with a timing decorator at every seam.
pub struct Traced;

impl Wiring for Traced {
    type Backend<B: ExecutionBackend> = TracedBackend<B>;
    fn backend<B: ExecutionBackend>(inner: B) -> TracedBackend<B> {
        TracedBackend { inner }
    }
    fn store(inner: FileJournal) -> Box<dyn JournalStore> {
        Box::new(TracedStore { inner })
    }
    fn sink(inner: Arc<RingSink>) -> Arc<dyn TelemetrySink> {
        Arc::new(TracedSink { inner })
    }
}

/// `pilot`: every backend call that does work, and the work closures the
/// backend runs (re-attributed to `proteins` by task name).
pub struct TracedBackend<B> {
    inner: B,
}

impl<B> TracedBackend<B> {
    fn note(completion: &Completion) {
        trace::count(&[
            (Counter::TasksCompleted, 1),
            (Counter::Attempts, 1 + u64::from(completion.attempts)),
            (
                Counter::TasksFailedTerminal,
                u64::from(completion.result.is_err()),
            ),
            (Counter::HedgedCompletions, u64::from(completion.hedged)),
        ]);
    }
}

impl<B: ExecutionBackend> ExecutionBackend for TracedBackend<B> {
    fn submit(&mut self, mut desc: TaskDescription) -> TaskId {
        if let Some(span) = Span::for_work(&desc.name) {
            if let Some(work) = desc.work.take() {
                desc.work = Some(Box::new(move || {
                    let _g = trace::enter(span);
                    work()
                }));
            }
        }
        let _g = trace::enter(Span::PilotSubmit);
        self.inner.submit(desc)
    }

    fn next_completion(&mut self) -> Option<Completion> {
        let completion = {
            let _g = trace::enter(Span::PilotNextCompletion);
            self.inner.next_completion()
        };
        if let Some(c) = &completion {
            Self::note(c);
        }
        completion
    }

    fn poll_completion(&mut self) -> Option<Completion> {
        let completion = {
            let _g = trace::enter(Span::PilotPollCompletion);
            self.inner.poll_completion()
        };
        if let Some(c) = &completion {
            Self::note(c);
        }
        completion
    }

    fn cancel(&mut self, id: TaskId) -> bool {
        let _g = trace::enter(Span::PilotControl);
        self.inner.cancel(id)
    }

    fn preempt(&mut self, id: TaskId) -> bool {
        let _g = trace::enter(Span::PilotControl);
        self.inner.preempt(id)
    }

    // Accessors forward untimed: they are field reads, and a span around
    // each would cost more than the call.
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
    fn utilization(&self) -> UtilizationReport {
        self.inner.utilization()
    }
    fn phase_breakdown(&self) -> PhaseBreakdown {
        self.inner.phase_breakdown()
    }
    fn held_tasks(&self) -> usize {
        self.inner.held_tasks()
    }
    fn telemetry(&self) -> &Telemetry {
        self.inner.telemetry()
    }
    fn virtual_now(&self) -> SimTime {
        self.inner.virtual_now()
    }
    fn stamp(&self) -> Stamp {
        self.inner.stamp()
    }
    fn control_stats(&self) -> ControlStats {
        self.inner.control_stats()
    }
}

/// `core`: the protocol state machine. Only the protocol's own pipelines
/// are decorated; the stub pipelines of the synthetic workloads are the
/// benchmark's code, not a layer.
struct TracedPipeline<O> {
    inner: BoxedPipeline<O>,
}

impl<O> PipelineLogic<O> for TracedPipeline<O> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn begin(&mut self) -> Step<O> {
        let _g = trace::enter(Span::CorePipelineLogic);
        self.inner.begin()
    }
    fn stage_done(&mut self, completions: Vec<Completion>) -> Step<O> {
        let _g = trace::enter(Span::CorePipelineLogic);
        self.inner.stage_done(completions)
    }
}

/// `core`: the adaptive policy. Pipelines it spawns are decorated too, so
/// sub-pipelines are attributed like roots.
struct TracedDecision<D> {
    inner: D,
}

impl<D> TracedDecision<D> {
    fn decorate<O: 'static>(spawns: Vec<Spawn<O>>) -> Vec<Spawn<O>> {
        trace::count(&[(Counter::Spawns, spawns.len() as u64)]);
        spawns
            .into_iter()
            .map(|s| Spawn {
                parent: s.parent,
                pipeline: Box::new(TracedPipeline { inner: s.pipeline }),
            })
            .collect()
    }
}

impl<O: 'static, D: DecisionEngine<O>> DecisionEngine<O> for TracedDecision<D> {
    fn on_pipeline_complete(
        &mut self,
        id: PipelineId,
        outcome: &O,
        view: &CoordinatorView<'_>,
    ) -> Vec<Spawn<O>> {
        let _g = trace::enter(Span::CoreDecision);
        Self::decorate(self.inner.on_pipeline_complete(id, outcome, view))
    }
    fn on_pipeline_aborted(
        &mut self,
        id: PipelineId,
        reason: &str,
        view: &CoordinatorView<'_>,
    ) -> Vec<Spawn<O>> {
        let _g = trace::enter(Span::CoreDecision);
        Self::decorate(self.inner.on_pipeline_aborted(id, reason, view))
    }
    fn on_all_idle(&mut self, view: &CoordinatorView<'_>) -> Vec<Spawn<O>> {
        let _g = trace::enter(Span::CoreDecision);
        Self::decorate(self.inner.on_all_idle(view))
    }
    fn on_task_poisoned(
        &mut self,
        id: PipelineId,
        task: u64,
        distinct_nodes: u32,
        view: &CoordinatorView<'_>,
    ) -> Vec<Spawn<O>> {
        let _g = trace::enter(Span::CoreDecision);
        Self::decorate(self.inner.on_task_poisoned(id, task, distinct_nodes, view))
    }
}

/// `workflow::journal` I/O. The writes land in the page cache: the store
/// flushes but does not sync, and neither does this.
struct TracedStore {
    inner: FileJournal,
}

impl JournalStore for TracedStore {
    fn append(&self, line: &str) -> Result<(), JournalError> {
        trace::count(&[
            (Counter::JournalBytes, line.len() as u64 + 1),
            (Counter::JournalRecords, 1),
        ]);
        let _g = trace::enter(Span::JournalStore);
        self.inner.append(line)
    }
    fn append_block(&self, block: &str) -> Result<(), JournalError> {
        trace::count(&[
            (Counter::JournalBytes, block.len() as u64),
            (Counter::JournalRecords, block.lines().count() as u64),
        ]);
        let _g = trace::enter(Span::JournalStore);
        self.inner.append_block(block)
    }
    fn lines(&self) -> Result<Vec<String>, JournalError> {
        let _g = trace::enter(Span::JournalStore);
        self.inner.lines()
    }
    fn read_all(&self) -> Result<String, JournalError> {
        let _g = trace::enter(Span::JournalStore);
        self.inner.read_all()
    }
    fn rewrite(&self, lines: &[String]) -> Result<(), JournalError> {
        let bytes = lines.iter().map(|l| l.len() as u64 + 1).sum();
        trace::count(&[(Counter::JournalBytes, bytes)]);
        let _g = trace::enter(Span::JournalStore);
        self.inner.rewrite(lines)
    }
}

/// `telemetry`: the recording sink.
struct TracedSink {
    inner: Arc<RingSink>,
}

impl TelemetrySink for TracedSink {
    fn is_enabled(&self) -> bool {
        self.inner.is_enabled()
    }
    fn record(&self, event: TelemetryEvent) {
        let _g = trace::enter(Span::TelemetrySink);
        self.inner.record(event)
    }
}

// ---------------------------------------------------------------------------
// paper_campaign: CONT-V and IM-RP over the four named PDZ domains.
// ---------------------------------------------------------------------------

/// The design targets of a run, fabricated from its seed.
pub struct PaperInputs {
    targets: Vec<DesignTarget>,
}

pub fn paper_inputs(seed: u64) -> PaperInputs {
    PaperInputs {
        targets: named_pdz_domains(seed),
    }
}

/// One experiment arm, reduced to what both wirings can report.
struct Arm<'a> {
    outcomes: &'a [DesignOutcome],
    makespan: SimDuration,
    cpu: f64,
    gpu_slot: f64,
    gpu_hardware: f64,
    tasks: usize,
    sub_pipelines: usize,
    aborted: usize,
}

impl<'a> Arm<'a> {
    fn of_report(outcomes: &'a [DesignOutcome], run: &RunReport) -> Self {
        Arm {
            outcomes,
            makespan: run.makespan,
            cpu: run.cpu_utilization,
            gpu_slot: run.gpu_slot_utilization,
            gpu_hardware: run.gpu_hardware_utilization,
            tasks: run.total_tasks,
            sub_pipelines: run.sub_pipelines,
            aborted: run.aborted_pipelines,
        }
    }

    fn digest(&self, mut h: u64, scratch: &mut String) -> u64 {
        for outcome in self.outcomes {
            h = digest_json(h, outcome, scratch);
        }
        for bits in [
            self.makespan.as_secs_f64().to_bits(),
            self.cpu.to_bits(),
            self.gpu_slot.to_bits(),
            self.gpu_hardware.to_bits(),
            self.tasks as u64,
            self.sub_pipelines as u64,
        ] {
            h = fnv1a_word(h, bits);
        }
        h
    }
}

fn paper_result(cont_v: Arm<'_>, imrp: Arm<'_>, roots: usize) -> CellResult {
    let mut scratch = String::new();
    let digest = imrp.digest(cont_v.digest(FNV_OFFSET, &mut scratch), &mut scratch);
    let mut failures = Vec::new();
    if cont_v.outcomes.len() != roots {
        failures.push(format!(
            "CONT-V finished {} of {roots} lineages",
            cont_v.outcomes.len()
        ));
    }
    if imrp.outcomes.len() + imrp.aborted != roots + imrp.sub_pipelines {
        failures.push(format!(
            "IM-RP: {} outcomes + {} aborts for {roots} roots + {} sub-pipelines",
            imrp.outcomes.len(),
            imrp.aborted,
            imrp.sub_pipelines
        ));
    }
    CellResult {
        tasks: (cont_v.tasks + imrp.tasks) as u64,
        digest,
        failures,
        model: Model {
            virt_makespan_s: imrp.makespan.as_secs_f64(),
            cpu_util: imrp.cpu,
            gpu_util: imrp.gpu_slot,
            tasks: (cont_v.tasks + imrp.tasks) as u64,
            sub_pipelines: imrp.sub_pipelines as u64,
            ..Model::default()
        },
    }
}

/// The paper's evaluation the way a reproducer runs it: the CONT-V driver
/// and `CampaignSpec::imrp(..).run()`, defaults throughout.
pub fn paper_front_door(inputs: &PaperInputs, op_seed: u64) -> CellResult {
    let cont_v = run_cont_v_experiment(&inputs.targets, ProtocolConfig::cont_v(op_seed));
    let imrp = CampaignSpec::imrp(&inputs.targets, ProtocolConfig::imrp(op_seed))
        .run()
        .expect("no resume plan to reject")
        .result;
    paper_result(
        Arm::of_report(&cont_v.outcomes, &cont_v.run),
        Arm::of_report(&imrp.outcomes, &imrp.run),
        inputs.targets.len(),
    )
}

/// The same two arms hand-assembled from the public pieces the front door
/// is built of, with a decorator at every seam.
pub fn paper_traced(inputs: &PaperInputs, op_seed: u64) -> CellResult {
    let config = ProtocolConfig::cont_v(op_seed);
    let tks = toolkits(&inputs.targets, config.seed);
    let backend =
        Traced::backend(RuntimeConfig::new(PilotConfig::with_seed(config.seed)).simulated());
    let mut session = Session::new(backend);
    let cont_v_outcomes = run_cont_v(&mut session, &tks, &config);
    let observed = session.observe();
    let util = observed.utilization();
    let cont_v = Arm {
        outcomes: &cont_v_outcomes,
        makespan: observed.at().since(SimTime::ZERO),
        cpu: util.cpu,
        gpu_slot: util.gpu_slot,
        gpu_hardware: util.gpu_hardware,
        tasks: util.tasks,
        sub_pipelines: 0,
        aborted: 0,
    };

    let config = ProtocolConfig::imrp(op_seed);
    let tks = toolkits(&inputs.targets, config.seed);
    let decision = TracedDecision {
        inner: ImpressDecision::new(config.clone(), AdaptivePolicy::default(), tks.clone()),
    };
    let backend =
        Traced::backend(RuntimeConfig::new(PilotConfig::with_seed(config.seed)).simulated());
    let mut coordinator = Coordinator::new(backend, decision);
    for (i, tk) in tks.iter().enumerate() {
        coordinator.add_pipeline(Box::new(TracedPipeline {
            inner: Box::new(DesignPipeline::root(tk.clone(), config.clone(), i as u64)),
        }));
    }
    let run = coordinator.run();
    let imrp_outcomes: Vec<DesignOutcome> = coordinator
        .outcomes()
        .iter()
        .map(|(_, o)| o.clone())
        .collect();
    paper_result(
        cont_v,
        Arm::of_report(&imrp_outcomes, &run),
        inputs.targets.len(),
    )
}

// ---------------------------------------------------------------------------
// journal_resume: a synthetic campaign run bare, journaled, loaded, resumed.
// ---------------------------------------------------------------------------

/// The outcome a synthetic pipeline reports: the size and shape of a real
/// design record (a 40-residue sequence, six scores, ids), about 350 bytes
/// serialised.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignRecord {
    pub target: String,
    pub lineage: u64,
    pub cycle: u32,
    pub sequence: String,
    pub plddt: f64,
    pub ptm: f64,
    pub iptm: f64,
    pub pae: f64,
    pub mpnn_score: f64,
    pub backbone_quality: f64,
    pub accepted: bool,
}
json_struct!(DesignRecord {
    target,
    lineage,
    cycle,
    sequence,
    plddt,
    ptm,
    iptm,
    pae,
    mpnn_score,
    backbone_quality,
    accepted
});

pub struct JournalInputs {
    records: Vec<DesignRecord>,
    stages: u32,
}

impl JournalInputs {
    pub fn tasks_per_campaign(&self) -> u64 {
        self.records.len() as u64 * u64::from(self.stages)
    }
}

pub fn journal_inputs(seed: u64, pipelines: usize, stages: u32) -> JournalInputs {
    const RESIDUES: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";
    let root = SimRng::from_seed(seed).fork("journal-records");
    let records = (0..pipelines as u64)
        .map(|i| {
            let mut rng = root.fork_idx("record", i);
            DesignRecord {
                target: format!("PDZ-{:04}/chain-A", rng.below(10_000)),
                lineage: i,
                cycle: 1 + rng.below(4) as u32,
                sequence: (0..40)
                    .map(|_| RESIDUES[rng.below(RESIDUES.len())] as char)
                    .collect(),
                plddt: rng.uniform_range(40.0, 95.0),
                ptm: rng.uniform(),
                iptm: rng.uniform(),
                pae: rng.uniform_range(2.0, 30.0),
                mpnn_score: rng.uniform_range(0.5, 3.0),
                backbone_quality: rng.uniform(),
                accepted: rng.chance(0.5),
            }
        })
        .collect();
    JournalInputs { records, stages }
}

/// `stages` trivial single-task stages, then the record as the outcome.
struct RecordPipeline {
    remaining: u32,
    record: Option<DesignRecord>,
}

impl RecordPipeline {
    fn next(&mut self) -> Step<DesignRecord> {
        if self.remaining == 0 {
            return Step::Complete(self.record.take().expect("completes once"));
        }
        self.remaining -= 1;
        Step::run(
            TaskDescription::new("null", ResourceRequest::cores(1), SimDuration::from_secs(5))
                .with_work(|| 0u64),
        )
    }
}

impl PipelineLogic<DesignRecord> for RecordPipeline {
    fn name(&self) -> String {
        "record".into()
    }
    fn begin(&mut self) -> Step<DesignRecord> {
        self.next()
    }
    fn stage_done(&mut self, _: Vec<Completion>) -> Step<DesignRecord> {
        self.next()
    }
}

const JOURNAL_LABEL: &str = "perf-journal";

fn journal_pilot(seed: u64) -> PilotConfig {
    PilotConfig {
        nodes: 8,
        bootstrap: SimDuration::from_secs(60),
        exec_setup_per_task: SimDuration::from_secs(1),
        ..PilotConfig::with_seed(seed)
    }
}

fn drive_records<W: Wiring>(
    inputs: &JournalInputs,
    seed: u64,
    journal: Option<Journal>,
    plan: Option<&ReplayPlan>,
) -> Result<CellResult, JournalError> {
    let backend = W::backend(RuntimeConfig::new(journal_pilot(seed)).simulated());
    let mut coordinator = match plan {
        Some(plan) => Coordinator::resume(backend, NoDecisions, plan)?,
        None => Coordinator::new(backend, NoDecisions),
    };
    if let Some(journal) = journal {
        coordinator = coordinator.with_journal(journal);
    }
    for record in &inputs.records {
        coordinator.add_pipeline(Box::new(RecordPipeline {
            remaining: inputs.stages,
            record: Some(record.clone()),
        }));
    }
    let run = coordinator.run();
    let mut scratch = String::new();
    let mut digest = FNV_OFFSET;
    for (id, record) in coordinator.outcomes() {
        digest = fnv1a_word(digest, id.0);
        digest = digest_json(digest, record, &mut scratch);
    }
    digest = digest_json(digest, &run, &mut scratch);
    let mut failures = Vec::new();
    if coordinator.outcomes().len() != inputs.records.len() {
        failures.push(format!(
            "{} of {} pipelines completed",
            coordinator.outcomes().len(),
            inputs.records.len()
        ));
    }
    if run.total_tasks as u64 != inputs.tasks_per_campaign() {
        failures.push(format!(
            "{} of {} tasks ran",
            run.total_tasks,
            inputs.tasks_per_campaign()
        ));
    }
    Ok(CellResult {
        tasks: run.total_tasks as u64,
        digest,
        failures,
        model: Model {
            virt_makespan_s: run.makespan.as_secs_f64(),
            cpu_util: run.cpu_utilization,
            gpu_util: run.gpu_slot_utilization,
            tasks: run.total_tasks as u64,
            ..Model::default()
        },
    })
}

/// Host milliseconds of each phase of one journal op.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalPhases {
    pub bare_ms: f64,
    pub write_ms: f64,
    pub load_ms: f64,
    pub resume_full_ms: f64,
    pub resume_half_ms: f64,
}

pub struct JournalOp {
    /// The bare campaign's result, with the tasks of all four campaigns and
    /// every phase's failures folded in.
    pub result: CellResult,
    pub phases: JournalPhases,
}

/// Host milliseconds of `f`, and what it returned.
fn timed_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let (seconds, out) = crate::stats::timed(f);
    (seconds * 1e3, out)
}

/// One journal op: the campaign (a) bare, (b) journaled to a file with
/// group commit and a snapshot every 1024 records, (c) `load_plan` from
/// that file, (d) resumed from the complete plan — all ghosts — and (e)
/// loaded and resumed from the file cut at half its lines, which is a valid
/// crash image like every line prefix. All four campaigns must agree.
pub fn journal_op<W: Wiring>(inputs: &JournalInputs, op_seed: u64, dir: &Path) -> JournalOp {
    let full_path = dir.join("campaign.journal");
    let half_path = dir.join("campaign-half.journal");
    let mut phases = JournalPhases::default();

    let (ms, bare) = timed_ms(|| drive_records::<W>(inputs, op_seed, None, None));
    phases.bare_ms = ms;
    let mut result = bare.expect("a bare run has no journal to fail");
    // Fold a later campaign into the bare one's result: its tasks, its
    // failures, and whether it agrees with the bare run.
    let fold =
        |result: &mut CellResult, phase: &str, run: Result<CellResult, JournalError>| match run {
            Ok(run) => {
                result.tasks += run.tasks;
                let own = run.failures.into_iter().map(|f| format!("{phase}: {f}"));
                result.failures.extend(own);
                if run.digest != result.digest {
                    result.failures.push(format!(
                        "{phase}: digest {:016x} differs from the bare run's {:016x}",
                        run.digest, result.digest
                    ));
                }
            }
            Err(e) => result.failures.push(format!("{phase}: {e}")),
        };

    let (ms, journaled) = timed_ms(|| {
        let store = W::store(FileJournal::new(&full_path));
        let journal = Journal::new(store, JOURNAL_LABEL, op_seed)?.with_snapshot_interval(1024);
        drive_records::<W>(inputs, op_seed, Some(journal), None)
    });
    phases.write_ms = ms;
    fold(&mut result, "journaled", journaled);

    let (ms, loaded) = timed_ms(|| load_plan(W::store(FileJournal::new(&full_path)).as_ref()));
    phases.load_ms = ms;
    match loaded {
        Ok(loaded) => {
            if loaded.plan.live_pipelines() != 0 || loaded.dropped != 0 {
                result.failures.push(format!(
                    "complete journal loads with {} live pipelines, {} dropped lines",
                    loaded.plan.live_pipelines(),
                    loaded.dropped
                ));
            }
            let (ms, resumed) =
                timed_ms(|| drive_records::<W>(inputs, op_seed, None, Some(&loaded.plan)));
            phases.resume_full_ms = ms;
            fold(&mut result, "resume-full", resumed);
        }
        Err(e) => result.failures.push(format!("load: {e}")),
    }

    // The crash image is cut outside every phase timer: it is input
    // preparation, not something a resuming user does.
    let cut = std::fs::read_to_string(&full_path).map(|text| {
        let lines: Vec<&str> = text.lines().collect();
        let mut half = lines[..lines.len().div_ceil(2)].join("\n");
        half.push('\n');
        half
    });
    match cut.and_then(|half| std::fs::write(&half_path, half)) {
        Ok(()) => {
            let (ms, resumed) = timed_ms(|| {
                let loaded = load_plan(W::store(FileJournal::new(&half_path)).as_ref())?;
                drive_records::<W>(inputs, op_seed, None, Some(&loaded.plan))
            });
            phases.resume_half_ms = ms;
            fold(&mut result, "resume-half", resumed);
        }
        Err(e) => result.failures.push(format!("cutting the journal: {e}")),
    }
    let _ = std::fs::remove_file(&full_path);
    let _ = std::fs::remove_file(&half_path);

    JournalOp { result, phases }
}

/// `(serialise, parse + decode)` nanoseconds per record, on the workload's
/// own records.
pub fn probe_json(inputs: &JournalInputs) -> (f64, f64) {
    const ROUNDS: usize = 200;
    let mut buf = String::new();
    let mut texts = Vec::with_capacity(inputs.records.len());
    for record in &inputs.records {
        buf.clear();
        write_json(&mut buf, record);
        texts.push(buf.clone());
    }
    let n = (ROUNDS * inputs.records.len()) as f64;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for record in &inputs.records {
            buf.clear();
            write_json(&mut buf, std::hint::black_box(record));
            std::hint::black_box(buf.len());
        }
    }
    let ser_ns = start.elapsed().as_nanos() as f64 / n;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for text in &texts {
            let value = impress_json::parse(std::hint::black_box(text)).expect("own output parses");
            std::hint::black_box(DesignRecord::from_json(&value).expect("own output decodes"));
        }
    }
    let de_ns = start.elapsed().as_nanos() as f64 / n;
    (ser_ns, de_ns)
}

// ---------------------------------------------------------------------------
// service_cell: many campaigns, many tenants, one shared cluster.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct ServiceShape {
    pub campaigns: usize,
    pub tenants: usize,
    pub nodes: u32,
}

const SERVICE_CORES_PER_NODE: u32 = 4;
const SERVICE_PIPELINES: u64 = 2;
const SERVICE_STAGES: u32 = 3;

impl ServiceShape {
    pub fn tasks(&self) -> u64 {
        self.campaigns as u64 * SERVICE_PIPELINES * u64::from(SERVICE_STAGES)
    }
}

/// Sequential one-core stages whose durations are a pure function of the
/// pipeline's identity and the op's seed.
struct ServePipeline {
    campaign: u64,
    pipeline: u64,
    salt: u64,
    remaining: u32,
}

impl ServePipeline {
    fn next(&mut self) -> Step<u64> {
        if self.remaining == 0 {
            return Step::Complete(self.campaign);
        }
        self.remaining -= 1;
        let secs = 30
            + (self.campaign * 13 + self.pipeline * 5 + u64::from(self.remaining) * 7 + self.salt)
                % 90;
        Step::run(
            TaskDescription::new(
                "serve",
                ResourceRequest::cores(1),
                SimDuration::from_secs(secs),
            )
            .with_work(|| 0u64),
        )
    }
}

impl PipelineLogic<u64> for ServePipeline {
    fn name(&self) -> String {
        format!("serve-{}-{}", self.campaign, self.pipeline)
    }
    fn begin(&mut self) -> Step<u64> {
        self.next()
    }
    fn stage_done(&mut self, _: Vec<Completion>) -> Step<u64> {
        self.next()
    }
}

pub struct ServiceOp {
    pub result: CellResult,
    /// Host seconds to build the service and submit every campaign.
    pub submit_s: f64,
    /// Host seconds of running the service dry.
    pub run_s: f64,
    /// Host seconds of the whole op: submit, run, take every result.
    pub wall_s: f64,
}

/// Build a service on one shared cluster, submit every campaign round-robin
/// over equal-weight tenants at virtual t = 0, run it dry, take every result.
///
/// `pause` runs every few thousand service steps, outside every timed
/// region: a one-second op is long enough for the machine to change speed
/// under it, and the runner samples its reference kernel there.
pub fn service_op<W: Wiring>(
    shape: ServiceShape,
    op_seed: u64,
    pause: &mut dyn FnMut(),
) -> ServiceOp {
    /// Service steps between pauses: about a tenth of a second of work.
    const STEPS_PER_PAUSE: u32 = 16_384;
    let submit_start = Instant::now();
    let backend = W::backend(
        RuntimeConfig::new(PilotConfig {
            node: NodeSpec::new(SERVICE_CORES_PER_NODE, 0, 16),
            nodes: shape.nodes,
            policy: PlacementPolicy::Backfill,
            bootstrap: SimDuration::from_secs(60),
            exec_setup_per_task: SimDuration::from_secs(1),
            seed: op_seed,
        })
        .simulated(),
    );
    let mut service: CampaignService<u64, _> = CampaignService::new(backend);
    let tenants: Vec<TenantId> = (0..shape.tenants)
        .map(|t| {
            let id = TenantId::new(format!("tenant-{t}"));
            service.register_tenant(id.clone(), TenantQuota::unmetered(shape.campaigns));
            id
        })
        .collect();
    let salt = op_seed % 90;
    let handles: Vec<_> = (0..shape.campaigns)
        .map(|c| {
            let mut spec = ServiceSpec::new(format!("c{c}"));
            for pipeline in 0..SERVICE_PIPELINES {
                spec = spec.root(Box::new(ServePipeline {
                    campaign: c as u64,
                    pipeline,
                    salt,
                    remaining: SERVICE_STAGES,
                }));
            }
            service
                .submit(&tenants[c % shape.tenants], spec)
                .expect("admission under an unmetered quota")
        })
        .collect();
    let submit_s = submit_start.elapsed().as_secs_f64();

    // `CampaignService::run` is this loop without the pauses.
    let run_start = Instant::now();
    let mut paused = std::time::Duration::ZERO;
    let mut steps = 0u32;
    while service.step() {
        steps += 1;
        if steps.is_multiple_of(STEPS_PER_PAUSE) {
            let at = Instant::now();
            pause();
            paused += at.elapsed();
        }
    }
    let run_s = (run_start.elapsed() - paused).as_secs_f64();

    let mut digest = FNV_OFFSET;
    let mut completed = 0usize;
    let mut outcomes = 0usize;
    let mut latencies = Vec::with_capacity(shape.campaigns);
    for handle in &handles {
        let Some(result) = service.take_result(handle) else {
            continue;
        };
        if result.status == CampaignStatus::Completed {
            completed += 1;
        }
        outcomes += result.outcomes.len();
        for (id, outcome) in &result.outcomes {
            digest = fnv1a_word(fnv1a_word(digest, id.0), *outcome);
        }
        let latency = (result.finished_at - result.submitted_at).as_secs_f64();
        digest = fnv1a_word(digest, latency.to_bits());
        latencies.push(latency);
    }
    latencies.sort_by(f64::total_cmp);
    let usage: Vec<f64> = tenants
        .iter()
        .map(|id| service.tenant_usage(id).expect("registered").core_seconds)
        .collect();
    let util = service.utilization();
    let makespan_s = service.now().as_secs_f64();
    digest = fnv1a_word(digest, makespan_s.to_bits());
    digest = fnv1a_word(digest, util.cpu.to_bits());

    let mut failures = Vec::new();
    if completed != shape.campaigns {
        failures.push(format!(
            "{completed} of {} campaigns completed",
            shape.campaigns
        ));
    }
    if util.tasks as u64 != shape.tasks()
        || outcomes as u64 != shape.campaigns as u64 * SERVICE_PIPELINES
    {
        failures.push(format!(
            "{} of {} tasks ran, {outcomes} pipeline outcomes",
            util.tasks,
            shape.tasks()
        ));
    }
    let jain = jain_index(&usage);
    let nearest = |q: f64| match latencies.len() {
        0 => 0.0,
        n => latencies[((n - 1) as f64 * q).round() as usize],
    };
    ServiceOp {
        result: CellResult {
            tasks: util.tasks as u64,
            digest,
            failures,
            model: Model {
                virt_makespan_s: makespan_s,
                cpu_util: util.cpu,
                gpu_util: util.gpu_slot,
                tasks: util.tasks as u64,
                sub_pipelines: 0,
                p50_campaign_latency_s: nearest(0.50),
                p99_campaign_latency_s: nearest(0.99),
                jain,
            },
        },
        submit_s,
        run_s,
        wall_s: (submit_start.elapsed() - paused).as_secs_f64(),
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`; 1.0 is perfectly fair.
fn jain_index(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let squares: f64 = xs.iter().map(|x| x * x).sum();
    if xs.is_empty() || squares == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * squares)
}

// ---------------------------------------------------------------------------
// des_clean / des_faulty: the pilot engines alone.
// ---------------------------------------------------------------------------

/// One task of the heterogeneous mix, as plain input data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpec {
    pub cores: u32,
    pub gpus: u32,
    pub secs: u64,
    pub priority: i32,
}

/// The `sim_bench` mix: 70 % small CPU tasks (1–4 cores), 20 % GPU pairs
/// (2 cores + 1 GPU), 10 % half-node jobs (14 cores); 100–3000 s;
/// priorities −2..=2.
pub fn des_task_mix(seed: u64, tasks: usize) -> Vec<TaskSpec> {
    let mut rng = SimRng::from_seed(seed).fork("des-mix");
    (0..tasks)
        .map(|_| {
            let class = rng.below(100);
            let (cores, gpus) = if class < 70 {
                (1 + rng.below(4) as u32, 0)
            } else if class < 90 {
                (2, 1)
            } else {
                (14, 0)
            };
            TaskSpec {
                cores,
                gpus,
                secs: (100 + rng.below(2900)) as u64,
                priority: rng.below(5) as i32 - 2,
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `RuntimeConfig::sharded()` with its defaults: what a user gets.
    ShardedDefault,
    Simulated,
    Sharded {
        shards: usize,
        parallel: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryMode {
    Disabled,
    /// A handle over `NullSink`: instrumented, nothing retained.
    Null,
    /// A recording ring of 65,536 events.
    Ring,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesCell {
    pub nodes: u32,
    pub engine: Engine,
    /// Task failures and hangs, node crashes and slowdowns, with retries,
    /// hedging and quarantine.
    pub task_faults: bool,
    /// Message drops, duplicates, reordering and delay on the control
    /// plane, with heartbeat failure detection.
    pub link_faults: bool,
    pub telemetry: TelemetryMode,
    pub seed: u64,
}

impl DesCell {
    pub fn clean(nodes: u32, seed: u64) -> Self {
        DesCell {
            nodes,
            engine: Engine::ShardedDefault,
            task_faults: false,
            link_faults: false,
            telemetry: TelemetryMode::Disabled,
            seed,
        }
    }

    /// Composed adversity with a recording telemetry handle.
    pub fn faulty(nodes: u32, seed: u64) -> Self {
        DesCell {
            task_faults: true,
            link_faults: true,
            telemetry: TelemetryMode::Ring,
            ..DesCell::clean(nodes, seed)
        }
    }
}

const TELEMETRY_RING_CAPACITY: usize = 65_536;

/// Counters the control plane keeps; all zero without link faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlCounts {
    pub messages: u64,
    pub retransmits: u64,
    pub heartbeats_sent: u64,
    pub fenced_completions: u64,
    pub dedup_hits: u64,
}

pub struct DesDrain {
    pub result: CellResult,
    /// Host milliseconds of each consecutive block of completions.
    pub block_ms: Vec<f64>,
    /// Host seconds from backend construction to the last completion, less
    /// the time spent in `after_block`.
    pub wall_s: f64,
    pub control: ControlCounts,
    /// Events the telemetry ring evicted because it was full.
    pub telemetry_dropped: u64,
}

fn des_backend(cell: &DesCell, telemetry: Telemetry) -> Box<dyn ExecutionBackend> {
    let pilot = PilotConfig {
        nodes: cell.nodes,
        bootstrap: SimDuration::from_secs(60),
        exec_setup_per_task: SimDuration::from_secs(5),
        ..PilotConfig::with_seed(cell.seed)
    };
    let mut runtime = RuntimeConfig::new(pilot).telemetry(telemetry);
    let mut faults = FaultConfig::none();
    if cell.task_faults {
        faults.task_failure_rate = 0.03;
        faults.task_hang_rate = 0.01;
        faults.node_mtbf = Some(SimDuration::from_hours(6));
        faults.node_slowdown_mtbf = Some(SimDuration::from_hours(4));
        faults.slowdown_factor = 6.0;
        runtime = runtime
            .hedge(HedgePolicy::k(3.0))
            .quarantine(QuarantinePolicy::distinct(3));
    }
    if cell.link_faults {
        faults.link.drop_rate = 0.10;
        faults.link.duplicate_rate = 0.05;
        faults.link.reorder_rate = 0.05;
        faults.link.delay = SimDuration::from_micros(50_000);
        faults.link.jitter = SimDuration::from_micros(100_000);
        faults.link.heartbeat_interval = Some(SimDuration::from_secs(30));
        faults.link.heartbeat_timeout = Some(SimDuration::from_secs(120));
    }
    if cell.task_faults || cell.link_faults {
        runtime = runtime.faults(FaultPlan::new(faults, cell.seed), RetryPolicy::retries(4));
    }
    match cell.engine {
        Engine::ShardedDefault => Box::new(runtime.sharded()),
        Engine::Simulated => Box::new(runtime.simulated()),
        Engine::Sharded { shards, parallel } => {
            Box::new(runtime.shards(shards).parallel_shards(parallel).sharded())
        }
    }
}

/// Submit the whole mix at virtual t = 0 and drain it, timing every
/// `block` consecutive completions. `after_block` runs after each block,
/// outside every timed region.
pub fn des_drain<W: Wiring>(
    cell: &DesCell,
    mix: &[TaskSpec],
    block: usize,
    after_block: &mut dyn FnMut(),
) -> DesDrain {
    let start = Instant::now();
    let mut untimed = std::time::Duration::ZERO;
    let ring = Arc::new(RingSink::new(TELEMETRY_RING_CAPACITY));
    let telemetry = match cell.telemetry {
        TelemetryMode::Disabled => Telemetry::disabled(),
        TelemetryMode::Null => Telemetry::with_sink(Arc::new(NullSink)),
        TelemetryMode::Ring => Telemetry::with_sink(W::sink(ring.clone())),
    };
    let mut backend = W::backend(des_backend(cell, telemetry));
    for task in mix {
        let request = if task.gpus > 0 {
            ResourceRequest::with_gpus(task.cores, task.gpus)
        } else {
            ResourceRequest::cores(task.cores)
        };
        backend.submit(
            TaskDescription::new("t", request, SimDuration::from_secs(task.secs))
                .with_priority(task.priority),
        );
    }
    let mut block_ms = Vec::with_capacity(mix.len() / block.max(1) + 1);
    let mut digest = FNV_OFFSET;
    let mut completed = 0u64;
    let mut block_start = Instant::now();
    while let Some(c) = backend.next_completion() {
        completed += 1;
        digest = fnv1a_word(digest, c.task.0);
        digest = fnv1a_word(digest, c.finished.as_secs_f64().to_bits());
        let flags = u64::from(c.hedged) << 1 | u64::from(c.result.is_ok());
        digest = fnv1a_word(digest, u64::from(c.attempts) << 2 | flags);
        if completed.is_multiple_of(block as u64) {
            let now = Instant::now();
            block_ms.push((now - block_start).as_secs_f64() * 1e3);
            after_block();
            block_start = Instant::now();
            untimed += block_start - now;
        }
    }
    let wall_s = (start.elapsed() - untimed).as_secs_f64();
    let util = backend.utilization();
    let stats = backend.control_stats();
    let mut failures = Vec::new();
    if completed != mix.len() as u64 || backend.in_flight() != 0 {
        failures.push(format!(
            "{completed} of {} tasks reached a completion, {} still in flight",
            mix.len(),
            backend.in_flight()
        ));
    }
    DesDrain {
        result: CellResult {
            tasks: completed,
            digest,
            failures,
            model: Model {
                virt_makespan_s: backend.now().as_secs_f64(),
                cpu_util: util.cpu,
                gpu_util: util.gpu_slot,
                tasks: util.tasks as u64,
                ..Model::default()
            },
        },
        block_ms,
        wall_s,
        telemetry_dropped: ring.dropped(),
        control: ControlCounts {
            messages: stats.messages,
            retransmits: stats.retransmits,
            heartbeats_sent: stats.heartbeats_sent,
            fenced_completions: stats.fenced_completions,
            dedup_hits: stats.dedup_hits,
        },
    }
}

/// Nanoseconds per task of an enqueue → place → release cycle on the
/// scheduler alone: Backfill, a 1,024-deep queue, 32 Amarel nodes.
pub fn probe_scheduler_place_release_ns() -> f64 {
    const DEPTH: usize = 1_024;
    const ROUNDS: usize = 40;
    let stream: Vec<(ResourceRequest, i32)> = (0..DEPTH)
        .map(|i| {
            let request = match i % 5 {
                0 => ResourceRequest::cores(6),
                1 | 2 => ResourceRequest::with_gpus(2, 1),
                _ => ResourceRequest::cores(1),
            };
            (request, (i % 5) as i32 - 2)
        })
        .collect();
    let mut samples = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let cluster = ClusterSpec::homogeneous(NodeSpec::amarel(), 32);
        let mut scheduler = Scheduler::new_cluster(cluster, PlacementPolicy::Backfill);
        for (i, (request, priority)) in stream.iter().enumerate() {
            scheduler.enqueue_with_priority(TaskId(i as u64), *request, *priority);
        }
        let mut running = Vec::new();
        let mut done = 0usize;
        while done < DEPTH {
            running.extend(scheduler.place_ready());
            if let Some((_, allocation)) = running.pop() {
                done += 1;
                scheduler.release_owned(allocation);
            }
        }
        std::hint::black_box(done);
        samples.push(start.elapsed().as_nanos() as f64 / DEPTH as f64);
    }
    crate::stats::median(&samples)
}

/// Nanoseconds per event of a pop + schedule pair on the event queue alone,
/// held at 100,000 pending events.
pub fn probe_event_queue_ns_per_event() -> f64 {
    const PENDING: usize = 100_000;
    const EVENTS: usize = 400_000;
    let mut rng = SimRng::from_seed(7).fork("event-queue-probe");
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..PENDING {
        queue.schedule(
            SimTime::from_micros(rng.below(3_000_000_000) as u64),
            i as u64,
        );
    }
    let start = Instant::now();
    for _ in 0..EVENTS {
        let event = queue.pop().expect("the queue is held at its depth");
        let at = event.at + SimDuration::from_micros(1 + rng.below(3_000_000_000) as u64);
        queue.schedule(at, event.payload);
    }
    std::hint::black_box(queue.len());
    start.elapsed().as_nanos() as f64 / EVENTS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced<R>(f: impl FnOnce() -> R) -> (R, trace::Totals) {
        trace::start(false);
        let out = f();
        (out, trace::stop().0)
    }

    #[test]
    fn op_seeds_are_stable_and_distinct() {
        // Pinned: a change here silently changes every workload's inputs.
        assert_eq!(
            op_seed(2025, "paper_campaign", 0),
            op_seed(2025, "paper_campaign", 0)
        );
        let seeds = [
            op_seed(2025, "paper_campaign", 0),
            op_seed(2025, "paper_campaign", 1),
            op_seed(2025, "journal_resume", 0),
            op_seed(2026, "paper_campaign", 0),
        ];
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(
            op_seed(2025, "paper_campaign", 0),
            4_546_274_172_926_397_366
        );
    }

    #[test]
    fn paper_decorators_are_transparent_and_attribute_work_to_proteins() {
        let inputs = PaperInputs {
            targets: named_pdz_domains(11).into_iter().take(1).collect(),
        };
        let plain = paper_front_door(&inputs, 5);
        let (decorated, totals) = traced(|| paper_traced(&inputs, 5));
        assert_eq!(plain, decorated);
        assert!(plain.failures.is_empty(), "{:?}", plain.failures);
        assert_eq!(totals.of(Span::PilotSubmit).calls, plain.tasks);
        assert_eq!(totals.count(Counter::TasksCompleted), plain.tasks);
        assert!(totals.of(Span::WorkAf2Inference).calls > 0);
        assert!(totals.of(Span::CorePipelineLogic).calls > 0);
        assert!(totals.of(Span::CoreDecision).calls > 0);
        // Work closures run inside `next_completion`, so the drain's self
        // time is what is left after them.
        let drain = totals.of(Span::PilotNextCompletion);
        assert!(drain.self_ns < drain.total_ns);
        assert_eq!(
            totals.layer_calls(trace::Layer::Proteins),
            totals.count(Counter::TasksCompleted)
        );
    }

    #[test]
    fn journal_op_agrees_across_phases_and_wirings() {
        let dir = std::env::temp_dir().join(format!("impress-perf-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inputs = journal_inputs(3, 12, 3);
        let plain = journal_op::<FrontDoor>(&inputs, 9, &dir);
        let (decorated, totals) = traced(|| journal_op::<Traced>(&inputs, 9, &dir));
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(
            plain.result.failures.is_empty(),
            "{:?}",
            plain.result.failures
        );
        assert_eq!(plain.result, decorated.result);
        assert_eq!(plain.result.tasks, 4 * inputs.tasks_per_campaign());
        assert!(totals.count(Counter::JournalRecords) > 0);
        assert!(totals.count(Counter::JournalBytes) > 0);
        assert!(totals.of(Span::JournalStore).calls > 0);
    }

    #[test]
    fn service_decorators_are_transparent() {
        let shape = ServiceShape {
            campaigns: 24,
            tenants: 4,
            nodes: 4,
        };
        let plain = service_op::<FrontDoor>(shape, 17, &mut || {});
        let (decorated, totals) = traced(|| service_op::<Traced>(shape, 17, &mut || {}));
        assert!(
            plain.result.failures.is_empty(),
            "{:?}",
            plain.result.failures
        );
        assert_eq!(plain.result, decorated.result);
        assert_eq!(plain.result.tasks, shape.tasks());
        assert!(plain.result.model.jain > 0.9);
        assert_eq!(totals.count(Counter::TasksCompleted), shape.tasks());
        assert_ne!(
            plain.result.digest,
            service_op::<FrontDoor>(shape, 18, &mut || {}).result.digest
        );
    }

    #[test]
    fn des_decorators_are_transparent_under_adversity() {
        let mix = des_task_mix(5, 600);
        let cell = DesCell::faulty(6, 5);
        let plain = des_drain::<FrontDoor>(&cell, &mix, 100, &mut || {});
        let (decorated, totals) = traced(|| des_drain::<Traced>(&cell, &mix, 100, &mut || {}));
        assert!(
            plain.result.failures.is_empty(),
            "{:?}",
            plain.result.failures
        );
        assert_eq!(plain.result, decorated.result);
        assert_eq!(plain.control, decorated.control);
        assert_eq!(plain.block_ms.len(), 6);
        assert!(plain.control.messages > 0 && plain.control.heartbeats_sent > 0);
        assert!(totals.of(Span::TelemetrySink).calls > 0);
        assert!(totals.count(Counter::Attempts) > totals.count(Counter::TasksCompleted));
        // The clean cell runs none of that machinery.
        let clean = des_drain::<FrontDoor>(&DesCell::clean(6, 5), &mix, 100, &mut || {});
        assert_eq!(clean.control, ControlCounts::default());
        assert_eq!(clean.telemetry_dropped, 0);
    }

    #[test]
    fn engines_agree_on_the_clean_cell() {
        let mix = des_task_mix(8, 400);
        let reference = des_drain::<FrontDoor>(&DesCell::clean(4, 8), &mix, 100, &mut || {}).result;
        for engine in [
            Engine::Simulated,
            Engine::Sharded {
                shards: 1,
                parallel: false,
            },
            Engine::Sharded {
                shards: 2,
                parallel: true,
            },
        ] {
            let cell = DesCell {
                engine,
                ..DesCell::clean(4, 8)
            };
            // Utilisation is summed in another order per engine and differs
            // in the last bit; the completion stream may not.
            let result = des_drain::<FrontDoor>(&cell, &mix, 100, &mut || {}).result;
            assert_eq!(result.digest, reference.digest, "{engine:?}");
            assert_eq!(
                result.model.virt_makespan_s,
                reference.model.virt_makespan_s
            );
        }
    }
}
