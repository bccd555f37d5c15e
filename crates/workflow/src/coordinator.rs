//! The pipelines coordinator.
//!
//! Manages "the concurrent and dynamic submission of pipelines using two
//! communication channels: one to track new pipeline instances that need to
//! be submitted … and the other for completed tasks from each pipeline"
//! (§II-D). In this implementation the completed-task channel is the pilot
//! backend's completion stream, and the new-pipeline channel is the spawn
//! queue fed by the [`crate::decision::DecisionEngine`].
//!
//! The coordinator is backend-agnostic: drive it over the simulated backend
//! for deterministic virtual-time experiments, or over the threaded backend
//! for live runs.

use crate::decision::{DecisionEngine, Spawn};
use crate::journal::{Journal, JournalError, JournalRecord, ReplayPlan, TaskMeta, TerminalRecord};
use crate::pipeline::{BoxedPipeline, PipelineId, PipelineLogic};
use crate::report::RunReport;
use crate::stage::{StageBuffer, Step};
use impress_json::{read_json, FromJsonBuf, RawJson, ToJsonBuf};
use impress_pilot::{Completion, ExecutionBackend, Label, TaskDescription, TaskId};
use impress_telemetry::{track, SpanCat, SpanId, Telemetry};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One pipeline's line in the coordinator's ledger: what a decision may
/// read of it. Parentage tells *root* pipelines (submitted by the
/// experiment) from *sub-pipelines* (spawned by the decision engine), the
/// distinction behind Table I's `# PL` and `# Sub-PL` columns.
#[derive(Debug, PartialEq)]
struct Entry {
    name: String,
    parent: Option<PipelineId>,
    stages_completed: usize,
}

/// A read-only snapshot handed to the decision engine.
///
/// Fields are private by design: the view is the decision engine's *only*
/// window into coordinator state, so its surface is the exact contract of
/// what adaptive policies may observe — each pipeline's name, parent and
/// stages completed. Anything not exposed here (journals, routing tables,
/// the backend) is deliberately out of reach of decision callbacks.
pub struct CoordinatorView<'a> {
    ledger: &'a [Entry],
}

impl<'a> CoordinatorView<'a> {
    /// The pipeline's display name.
    pub fn name(&self, id: PipelineId) -> &'a str {
        &self.ledger[id.0 as usize].name
    }

    /// `None` for a root pipeline; `Some(parent)` for a spawned
    /// sub-pipeline.
    pub fn parent(&self, id: PipelineId) -> Option<PipelineId> {
        self.ledger[id.0 as usize].parent
    }

    /// Stages the pipeline has completed so far.
    pub fn stages_completed(&self, id: PipelineId) -> usize {
        self.ledger[id.0 as usize].stages_completed
    }
}

/// The write-ahead journal plus the outcome encoder the coordinator needs
/// to serialize `Completed` records. Captured as a plain fn pointer so the
/// coordinator itself stays unbounded in `O`.
struct JournalWriter<O> {
    journal: Journal,
    encode: fn(&O) -> RawJson,
}

impl<O> JournalWriter<O> {
    /// Durability is the whole point: if the journal cannot be written, the
    /// coordinator fail-stops rather than silently running unjournaled.
    fn record(&mut self, rec: JournalRecord) {
        if let Err(e) = self.journal.record(rec) {
            panic!("write-ahead journal append failed; refusing to run without durability: {e}");
        }
    }

    /// Journal a stage submission, each task by its shape.
    fn record_stage(&mut self, pipeline: u64, stage: usize, tasks: &[TaskDescription]) {
        let metas = tasks.iter().map(TaskMeta::of);
        if let Err(e) = self.journal.record_stage(pipeline, stage, metas) {
            panic!("write-ahead journal append failed; refusing to run without durability: {e}");
        }
    }

    /// Flush the current group commit; returns the batch size.
    fn commit(&mut self) -> usize {
        match self.journal.commit() {
            Ok(batch) => batch,
            Err(e) => {
                panic!("write-ahead journal commit failed; refusing to run without durability: {e}")
            }
        }
    }
}

/// A work-free replay of a journaled terminal pipeline. It resubmits the
/// exact task metadata the original submitted — so the backend sees the
/// identical load and evolves the identical virtual timeline — but every
/// task carries no work closure, and the terminal step injects the
/// journaled outcome instead of recomputing it.
struct GhostPipeline<O> {
    name: String,
    /// The journal's shape table, shared by every ghost of one resume.
    shapes: Arc<[TaskMeta]>,
    /// Each stage's tasks, as ids into `shapes`.
    stages: VecDeque<Vec<u32>>,
    /// How the journaled pipeline ended — the outcome `resume` decoded, or
    /// the abort reason. Taken at the terminal step (a ghost reaches it
    /// exactly once).
    terminal: Option<Result<O, String>>,
}

impl<O> GhostPipeline<O> {
    fn next(&mut self) -> Step<O> {
        if let Some(stage) = self.stages.pop_front() {
            return Step::Submit(
                stage
                    .iter()
                    .map(|&id| self.shapes[id as usize].to_description())
                    .collect(),
            );
        }
        match self.terminal.take() {
            Some(Ok(outcome)) => Step::Complete(outcome),
            Some(Err(reason)) => Step::Abort(reason),
            None => Step::Abort("ghost pipeline stepped past its terminal record".into()),
        }
    }
}

impl<O> PipelineLogic<O> for GhostPipeline<O> {
    fn name(&self) -> String {
        self.name.clone()
    }
    fn begin(&mut self) -> Step<O> {
        self.next()
    }
    fn stage_done(&mut self, _completions: Vec<Completion>) -> Step<O> {
        self.next()
    }
}

/// Open telemetry spans for one live pipeline: the whole-lifetime pipeline
/// span and the currently in-flight stage span (if any).
#[derive(Clone, Copy)]
struct PipelineSpans {
    pipeline: SpanId,
    stage: SpanId,
}

/// Dense per-pipeline dispatch state. Pipeline ids are assigned densely
/// from 0 and never recycled, so `slots[id]` replaces what used to be
/// three separate `HashMap` lookups (live pipeline, stage buffer, spans)
/// per dispatch with one bounds-checked index.
struct PipelineSlot<O> {
    /// The pipeline logic; `None` once terminal.
    live: Option<BoxedPipeline<O>>,
    /// The stage buffer, reused stage after stage while the pipeline
    /// lives; its storage is freed when the pipeline ends.
    buffer: StageBuffer,
    /// Open telemetry spans; taken when the pipeline span closes.
    spans: Option<PipelineSpans>,
    /// The pipeline's task tag, formatted once at registration straight
    /// into the label — each submission clones it, which copies a `Label`
    /// and never allocates.
    tag: Label,
}

/// Where a task's completion routes, indexed by dense backend task id.
#[derive(Clone, Copy)]
enum RouteState {
    /// Never submitted by this coordinator (or not yet).
    Unknown,
    /// In flight, owned by `pipeline`, at position `at` of its stage.
    Routed { pipeline: PipelineId, at: u32 },
    /// Completion already consumed — an exact replay is deduped.
    Consumed,
}

/// What one [`Coordinator::try_step`] call achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TryStep {
    /// Progress was made without waiting: pipelines started, a completion
    /// routed, or the decision engine spawned a new round.
    Progressed,
    /// Nothing is available at the current instant — every live pipeline
    /// is waiting on in-flight work. Someone must advance the clock (a
    /// blocking [`Coordinator::step`], or the shared cluster's pump).
    Blocked,
    /// The campaign reached a terminal state (finished or drained).
    Terminal,
}

/// The pipelines coordinator. `O` is the pipeline outcome type.
pub struct Coordinator<O, B: ExecutionBackend, D: DecisionEngine<O>> {
    backend: B,
    decision: D,
    /// The pipeline ledger, `ledger[id]`: ids are assigned densely from 0
    /// and entries are never removed, so the vector is registration order.
    ledger: Vec<Entry>,
    /// Sub-pipelines registered (Table I `# Sub-PL`); the rest of the
    /// ledger is root pipelines.
    subs: usize,
    /// Tasks submitted across all pipelines.
    tasks_submitted: usize,
    /// Pipelines registered and not yet terminal.
    live: usize,
    slots: Vec<PipelineSlot<O>>,
    routes: Vec<RouteState>,
    /// Stage submissions produced during the current drain cycle, deferred
    /// to [`flush_effects`](Coordinator::flush_effects) so they apply only
    /// after their `StageSubmitted` records are durable.
    pending_submits: Vec<(PipelineId, Vec<TaskDescription>)>,
    dedup_hits: u64,
    to_start: Vec<PipelineId>,
    outcomes: Vec<(PipelineId, O)>,
    aborts: Vec<(PipelineId, String)>,
    /// Boxed: the writer is most of a coordinator's bytes, and most
    /// coordinators run unjournaled.
    journal: Option<Box<JournalWriter<O>>>,
    /// Resume state: a ready ghost for every journaled pipeline that
    /// reached a terminal state before the kill, its outcome already
    /// decoded. A pipeline registered during a resumed run is swapped for
    /// the ghost under its id. Empty on a fresh run.
    ghosts: HashMap<u64, GhostPipeline<O>>,
    drained: bool,
    telemetry: Telemetry,
}

impl<O: 'static, B: ExecutionBackend, D: DecisionEngine<O>> Coordinator<O, B, D> {
    /// A coordinator driving `backend`, advised by `decision`.
    pub fn new(backend: B, decision: D) -> Self {
        let telemetry = backend.telemetry().clone();
        Coordinator {
            backend,
            decision,
            ledger: Vec::new(),
            subs: 0,
            tasks_submitted: 0,
            live: 0,
            slots: Vec::new(),
            routes: Vec::new(),
            pending_submits: Vec::new(),
            dedup_hits: 0,
            to_start: Vec::new(),
            outcomes: Vec::new(),
            aborts: Vec::new(),
            journal: None,
            ghosts: HashMap::new(),
            drained: false,
            telemetry,
        }
    }

    /// Register a root pipeline. It begins executing when [`Coordinator::run`]
    /// is called (or immediately if the run loop is already active).
    pub fn add_pipeline(&mut self, pipeline: BoxedPipeline<O>) -> PipelineId {
        self.add(None, pipeline)
    }

    fn add(&mut self, parent: Option<PipelineId>, pipeline: BoxedPipeline<O>) -> PipelineId {
        // Write-ahead: the id is the ledger's length, known in advance, so
        // the Registered record lands before the registration applies.
        let id = PipelineId(self.ledger.len() as u64);
        let name = pipeline.name();
        self.journal_append(|| JournalRecord::Registered {
            pipeline: id.0,
            parent: parent.map(|p| p.0),
            name: name.clone(),
        });
        // Resume: a pipeline that already reached a terminal state in the
        // journal replays as a work-free ghost. Live-at-kill pipelines (no
        // terminal record) re-run for real. A name mismatch means the plan
        // does not describe this pipeline — run it for real.
        // Each id registers exactly once, so the ghost moves out.
        let pipeline: BoxedPipeline<O> = match self.ghosts.remove(&id.0) {
            Some(ghost) if ghost.name == name => Box::new(ghost),
            Some(ghost) => {
                debug_assert!(
                    false,
                    "{id}: plan names {:?}, run names {name:?}",
                    ghost.name
                );
                pipeline
            }
            None => pipeline,
        };
        if let Some(p) = parent {
            assert!(p.0 < id.0, "parent {p} is not registered");
            self.subs += 1;
        }
        // Pipeline span: lives from registration to the terminal step,
        // parented under the spawning pipeline's span (if any) so adaptive
        // sub-pipeline trees nest in the trace.
        let parent_span = parent
            .and_then(|p| self.slots[p.0 as usize].spans.as_ref())
            .map(|s| s.pipeline)
            .unwrap_or(SpanId::NONE);
        let span = self.telemetry.span(
            SpanCat::Pipeline,
            &name,
            parent_span,
            track::pipeline(id.0),
            self.backend.stamp(),
            &[("pipeline", id.0 as i64)],
        );
        self.ledger.push(Entry {
            name,
            parent,
            stages_completed: 0,
        });
        self.live += 1;
        debug_assert_eq!(self.slots.len() as u64, id.0, "slot slab diverged from ids");
        self.slots.push(PipelineSlot {
            live: Some(pipeline),
            buffer: StageBuffer::new(),
            spans: Some(PipelineSpans {
                pipeline: span,
                stage: SpanId::NONE,
            }),
            tag: Label::from_fmt(format_args!("{id}")),
        });
        self.to_start.push(id);
        id
    }

    /// Buffer a journal record into the cycle's group commit, building it
    /// lazily so unjournaled runs pay nothing for the hook. Durability
    /// comes at the cycle's [`flush_effects`](Self::flush_effects) barrier.
    fn journal_append(&mut self, make: impl FnOnce() -> JournalRecord) {
        if let Some(writer) = &mut self.journal {
            writer.record(make());
        }
    }

    /// The group-commit barrier that ends a drain cycle: flush every
    /// journal record the cycle produced with one durable append, then
    /// perform the deferred backend submissions those records describe.
    /// The write-ahead contract holds — no externally visible effect
    /// happens before its record is durable — while the per-record flush
    /// collapses to one flush per cycle. Deferring the submissions is
    /// observationally neutral: the simulated backend schedules at
    /// `next_completion`, not at `submit`, and submission order (hence
    /// task id assignment) is preserved.
    fn flush_effects(&mut self) {
        if let Some(writer) = &mut self.journal {
            let batch = writer.commit();
            if batch > 0 {
                // One instant per *commit*, not one per record.
                self.telemetry.instant(
                    SpanCat::Session,
                    "journal-commit",
                    SpanId::NONE,
                    track::SESSION,
                    self.backend.stamp(),
                    &[("records", batch as i64)],
                );
            }
        }
        for i in 0..self.pending_submits.len() {
            let (id, tasks) = {
                let entry = &mut self.pending_submits[i];
                (entry.0, std::mem::take(&mut entry.1))
            };
            let slot = &mut self.slots[id.0 as usize];
            slot.buffer.open(tasks.len());
            for task in tasks {
                let tid = self.backend.submit(task.with_tag(slot.tag.clone()));
                let at = slot.buffer.push(tid) as u32;
                let route = tid.0 as usize;
                if self.routes.len() <= route {
                    self.routes.resize(route + 1, RouteState::Unknown);
                }
                debug_assert!(matches!(self.routes[route], RouteState::Unknown));
                self.routes[route] = RouteState::Routed { pipeline: id, at };
            }
        }
        self.pending_submits.clear();
    }

    fn start_pending(&mut self) {
        while let Some(id) = self.to_start.pop() {
            let step = self.slots[id.0 as usize]
                .live
                .as_mut()
                .expect("pipeline registered")
                .begin();
            self.apply_step(id, step);
        }
        self.flush_effects();
    }

    fn apply_step(&mut self, id: PipelineId, step: Step<O>) {
        match step {
            Step::Submit(tasks) => {
                assert!(!tasks.is_empty(), "{id}: empty stage submission");
                let stage = self.ledger[id.0 as usize].stages_completed;
                if let Some(writer) = &mut self.journal {
                    writer.record_stage(id.0, stage, &tasks);
                }
                self.tasks_submitted += tasks.len();
                if let Some(spans) = self.slots[id.0 as usize].spans.as_mut() {
                    spans.stage = self.telemetry.span(
                        SpanCat::Stage,
                        "stage",
                        spans.pipeline,
                        track::pipeline(id.0),
                        self.backend.stamp(),
                        &[("stage", stage as i64), ("tasks", tasks.len() as i64)],
                    );
                }
                // Effect deferred: the backend submission happens at the
                // cycle's flush barrier, after the StageSubmitted record
                // above is durable.
                self.pending_submits.push((id, tasks));
            }
            Step::Complete(outcome) => {
                if let Some(writer) = &mut self.journal {
                    let rec = JournalRecord::Completed {
                        pipeline: id.0,
                        outcome: (writer.encode)(&outcome),
                    };
                    writer.record(rec);
                }
                self.end_pipeline(id);
                // Decision point: the adaptive engine may spawn sub-pipelines.
                let spawns = self.decide("on-pipeline-complete", |d, view| {
                    d.on_pipeline_complete(id, &outcome, view)
                });
                self.outcomes.push((id, outcome));
                self.apply_spawns(spawns);
            }
            Step::Abort(reason) => {
                self.journal_append(|| JournalRecord::Aborted {
                    pipeline: id.0,
                    reason: reason.clone(),
                });
                self.end_pipeline(id);
                let spawns = self.decide("on-pipeline-aborted", |d, view| {
                    d.on_pipeline_aborted(id, &reason, view)
                });
                self.aborts.push((id, reason));
                self.apply_spawns(spawns);
            }
        }
    }

    fn apply_spawns(&mut self, spawns: Vec<Spawn<O>>) {
        for spawn in spawns {
            self.add(spawn.parent, spawn.pipeline);
        }
    }

    /// The terminal step: drop the pipeline's logic and its stage buffer's
    /// storage, and close its whole-lifetime span.
    fn end_pipeline(&mut self, id: PipelineId) {
        let slot = &mut self.slots[id.0 as usize];
        let was_live = slot.live.take().is_some();
        debug_assert!(was_live, "{id} already finished");
        self.live -= 1;
        slot.buffer = StageBuffer::new();
        if let Some(spans) = slot.spans.take() {
            self.telemetry.end(spans.pipeline, self.backend.stamp());
        }
    }

    /// Run one [`DecisionEngine`] callback on a fresh view, inside a
    /// decision span called `name`, and return the spawns it asks for.
    /// Virtual time does not advance inside the callback, so the span is
    /// zero-width on the virtual clock; on the threaded backend its wall
    /// width is the real decision cost.
    fn decide(
        &mut self,
        name: &str,
        call: impl FnOnce(&mut D, &CoordinatorView<'_>) -> Vec<Spawn<O>>,
    ) -> Vec<Spawn<O>> {
        let span = self.telemetry.span(
            SpanCat::Decision,
            name,
            SpanId::NONE,
            track::SESSION,
            self.backend.stamp(),
            &[],
        );
        let view = CoordinatorView {
            ledger: &self.ledger,
        };
        let spawns = call(&mut self.decision, &view);
        self.telemetry.end(span, self.backend.stamp());
        spawns
    }

    fn route(&mut self, completion: Completion) {
        let route = completion.task.0 as usize;
        let (id, at) = match self
            .routes
            .get(route)
            .copied()
            .unwrap_or(RouteState::Unknown)
        {
            RouteState::Routed { pipeline, at } => (pipeline, at as usize),
            // Idempotent dedup at the coordinator boundary: under
            // at-least-once delivery a completion already consumed can be
            // replayed. Re-applying it would double the pipeline's stage
            // progress (and the decision engine's view of it), so an exact
            // replay is counted and dropped; a completion for a task never
            // routed at all is still a routing bug.
            RouteState::Consumed => {
                self.dedup_hits += 1;
                self.telemetry.instant(
                    SpanCat::Fault,
                    "completion-deduped",
                    SpanId::NONE,
                    track::SESSION,
                    self.backend.stamp(),
                    &[("task", completion.task.0 as i64)],
                );
                return;
            }
            RouteState::Unknown => panic!("{}: completion has no route", completion.task),
        };
        self.routes[route] = RouteState::Consumed;
        if completion.attempts > 0 {
            let span = self.slots[id.0 as usize]
                .spans
                .as_ref()
                .map(|s| s.stage)
                .unwrap_or(SpanId::NONE);
            self.telemetry.instant(
                SpanCat::Fault,
                "task-retried",
                span,
                track::pipeline(id.0),
                self.backend.stamp(),
                &[
                    ("task", completion.task.0 as i64),
                    ("attempts", completion.attempts as i64),
                ],
            );
        }
        // A poison verdict from the backend's quarantine layer: journal it
        // (post-mortems read verdicts off the journal), trace it, and give
        // the decision engine a chance to react before the completion is
        // folded into the stage buffer as an ordinary failure.
        if let Err(impress_pilot::TaskError::Poisoned { distinct_nodes }) = &completion.result {
            let distinct = *distinct_nodes;
            self.journal_append(|| JournalRecord::TaskPoisoned {
                pipeline: id.0,
                task: completion.task.0,
                distinct_nodes: distinct,
            });
            let span = self.slots[id.0 as usize]
                .spans
                .as_ref()
                .map(|s| s.stage)
                .unwrap_or(SpanId::NONE);
            self.telemetry.instant(
                SpanCat::Quarantine,
                "task-poisoned",
                span,
                track::pipeline(id.0),
                self.backend.stamp(),
                &[
                    ("task", completion.task.0 as i64),
                    ("distinct_nodes", distinct as i64),
                ],
            );
            let spawns = self.decide("on-task-poisoned", |d, view| {
                d.on_task_poisoned(id, completion.task.0, distinct, view)
            });
            self.apply_spawns(spawns);
        }
        let batch = self.slots[id.0 as usize].buffer.record(at, completion);
        if let Some(batch) = batch {
            let entry = &mut self.ledger[id.0 as usize];
            let stage = entry.stages_completed;
            entry.stages_completed += 1;
            self.journal_append(|| JournalRecord::StageCompleted {
                pipeline: id.0,
                stage,
            });
            if let Some(spans) = self.slots[id.0 as usize].spans.as_mut() {
                let done = std::mem::replace(&mut spans.stage, SpanId::NONE);
                self.telemetry.end(done, self.backend.stamp());
            }
            let step = self.slots[id.0 as usize]
                .live
                .as_mut()
                .expect("live pipeline")
                .stage_done(batch);
            self.apply_step(id, step);
        }
        // End-of-cycle barrier: commit the records this routing produced
        // and perform the submissions they describe.
        self.flush_effects();
    }

    /// Advance the campaign by one coordinator drain cycle: start pending
    /// pipelines, wait for the next completion, and route it (applying
    /// every transition it triggers). Returns `false` once the campaign
    /// has reached a terminal state — either finished or drained by a
    /// walltime deadline.
    ///
    /// [`Coordinator::run`] is `while self.step() {}`; calling `step`
    /// directly lets a multi-tenant driver interleave many independent
    /// campaigns on one thread
    /// (`interleaved_journaled_coordinators_each_match_their_solo_run` in
    /// `tests/campaign_service.rs`).
    pub fn step(&mut self) -> bool {
        self.start_pending();
        match self.backend.next_completion() {
            Some(c) => {
                self.route(c);
                true
            }
            None => self.idle_transition(),
        }
    }

    /// The backend-has-nothing transition shared by [`Coordinator::step`]
    /// and [`Coordinator::try_step`]. Returns whether the campaign is
    /// still alive.
    fn idle_transition(&mut self) -> bool {
        // A walltime deadline made the backend hold tasks it could not
        // finish in time: the backend has drained its in-flight work and
        // will launch nothing further. Stop here — the journal holds
        // everything a resume needs.
        if self.backend.held_tasks() > 0 {
            self.drained = true;
            return false;
        }
        // Workload drained. Give the engine a chance to start another
        // round; otherwise we are done.
        let spawns = self.decide("on-all-idle", |d, view| d.on_all_idle(view));
        if spawns.is_empty() && self.to_start.is_empty() {
            assert_eq!(
                self.live, 0,
                "drained backend but pipelines still live (stuck stage?)"
            );
            return false;
        }
        self.apply_spawns(spawns);
        true
    }

    /// Advance the campaign as far as it can go *without waiting*: start
    /// pending pipelines, then route one completion the backend already
    /// has available ([`ExecutionBackend::poll_completion`]). Unlike
    /// [`Coordinator::step`], this never advances the backend clock — the
    /// primitive a multiplexing driver needs to keep many campaigns on one
    /// shared cluster maximally concurrent: every campaign with progress
    /// to make at the current instant is stepped before anyone waits.
    pub(crate) fn try_step(&mut self) -> TryStep {
        let started = !self.to_start.is_empty();
        self.start_pending();
        if let Some(c) = self.backend.poll_completion() {
            self.route(c);
            return TryStep::Progressed;
        }
        if started {
            return TryStep::Progressed;
        }
        if self.backend.in_flight() > 0 {
            return TryStep::Blocked;
        }
        if self.idle_transition() {
            TryStep::Progressed
        } else {
            TryStep::Terminal
        }
    }

    /// Read what routing the completion of `task` will read first — its
    /// route, its stage slot and its pipeline's ledger entry — for a
    /// read-ahead pass: a word of what was read, and nothing changed.
    pub(crate) fn read_ahead(&self, task: TaskId) -> u64 {
        let Some(&RouteState::Routed { pipeline, at }) = self.routes.get(task.0 as usize) else {
            return 0;
        };
        let id = pipeline.0 as usize;
        let slot = self
            .slots
            .get(id)
            .map_or(0, |s| s.buffer.read_ahead(at as usize));
        let entry = self.ledger.get(id).map_or(0, |e| e.stages_completed as u64);
        slot.wrapping_add(entry)
    }

    /// Whether pipelines are queued to begin on the next step (roots added
    /// since the last one, or decision-engine spawns not yet started) —
    /// i.e. [`Coordinator::try_step`] is guaranteed to make progress.
    pub(crate) fn has_pending_starts(&self) -> bool {
        !self.to_start.is_empty()
    }

    /// Drive every pipeline (and everything the decision engine spawns) to
    /// a terminal state, then return the run report.
    pub fn run(&mut self) -> RunReport {
        while self.step() {}
        self.report()
    }

    /// Build the run report for everything finished so far.
    pub fn report(&self) -> RunReport {
        RunReport::build(
            self.ledger.len() - self.subs,
            self.subs,
            self.aborts.len(),
            self.tasks_submitted,
            self.backend.utilization(),
            self.backend.phase_breakdown(),
            self.backend.now(),
        )
    }

    /// Completed pipeline outcomes, in completion order.
    pub fn outcomes(&self) -> &[(PipelineId, O)] {
        &self.outcomes
    }

    /// Aborted pipelines and their reasons.
    pub fn aborts(&self) -> &[(PipelineId, String)] {
        &self.aborts
    }

    /// The pipeline ledger, as the decision engine sees it.
    pub fn view(&self) -> CoordinatorView<'_> {
        CoordinatorView {
            ledger: &self.ledger,
        }
    }

    /// Whether [`run`](Self::run) stopped because the backend's walltime
    /// deadline forced a graceful drain (tasks held, work checkpointed)
    /// rather than because the campaign finished.
    pub fn drained(&self) -> bool {
        self.drained
    }

    /// Replayed completions dropped by the coordinator-boundary dedup
    /// (at-least-once delivery made exactly-once effects).
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// The write-ahead journal, if one is installed.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref().map(|w| &w.journal)
    }

    /// The backend the coordinator drives (for backend-specific
    /// inspection).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Consume the coordinator, handing ownership of its results and its
    /// backend back to the caller.
    ///
    /// Ownership handoff contract: after this call the coordinator is gone
    /// — its ledger, journal handle, and routing state are dropped. What
    /// survives is exactly what a *caller that owns the campaign's
    /// aftermath* needs: the terminal outcomes, the aborts, and the live
    /// backend (which keeps its full utilization and phase history, so
    /// post-run accounting still works). The backend is returned *hot*:
    /// any tasks the campaign left in flight are still in flight, which is
    /// what lets a service layer recycle it for the next campaign or drain
    /// it on its own schedule. Callers that need the ledger must read it
    /// *before* consuming the coordinator.
    pub(crate) fn into_parts(self) -> CoordinatorParts<O, B> {
        CoordinatorParts {
            outcomes: self.outcomes,
            aborts: self.aborts,
            backend: self.backend,
        }
    }
}

impl<O: ToJsonBuf, B: ExecutionBackend, D: DecisionEngine<O>> Coordinator<O, B, D> {
    /// Install a write-ahead journal: every state transition's record is
    /// durable *before* the transition's effects apply, so a crash at any
    /// instant leaves a journal describing a consistent prefix of the run.
    /// Records buffer across one drain cycle and flush as a single group
    /// commit at the cycle barrier — losing a buffered, unflushed suffix is
    /// indistinguishable from crashing a moment earlier, so batching does
    /// not weaken crash consistency while collapsing per-record flushes to
    /// one per cycle.
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = Some(Box::new(JournalWriter {
            journal,
            encode: |outcome| RawJson::new(outcome),
        }));
        self
    }
}

impl<O: FromJsonBuf + 'static, B: ExecutionBackend, D: DecisionEngine<O>> Coordinator<O, B, D> {
    /// A coordinator that resumes an interrupted campaign from a replayed
    /// journal ([`crate::journal::load_plan`]).
    ///
    /// Resume is a deterministic re-simulation on a fresh backend: the
    /// caller re-adds the same root pipelines in the same order, and the
    /// coordinator swaps any pipeline whose journaled script reached a
    /// terminal state for a work-free ghost that replays the recorded task
    /// metadata and injects the recorded outcome. Pipelines live at the
    /// kill re-run for real; sub-pipelines re-spawn through the (seeded,
    /// deterministic) decision engine fed the identical outcome sequence.
    /// The resumed run therefore regenerates every artifact byte-for-byte.
    ///
    /// Fails with [`JournalError::Corrupt`] if any journaled outcome does
    /// not decode as `O`, or a stage names a task shape the plan does not
    /// define — a corrupt checkpoint is a diagnostic, never a panic.
    pub fn resume(backend: B, decision: D, plan: &ReplayPlan) -> Result<Self, JournalError> {
        if !plan.shapes_resolve() {
            return Err(JournalError::Corrupt(
                "a journaled stage names an undefined task shape".into(),
            ));
        }
        let shapes: Arc<[TaskMeta]> = plan.shapes.as_slice().into();
        let mut ghosts = HashMap::new();
        for script in &plan.pipelines {
            let terminal = match &script.terminal {
                None => continue,
                Some(TerminalRecord::Aborted(reason)) => Err(reason.clone()),
                Some(TerminalRecord::Completed(raw)) => {
                    Ok(read_json(raw.as_str()).map_err(|e| {
                        JournalError::Corrupt(format!(
                            "pipeline {} ({}): journaled outcome does not decode: {e}",
                            script.id, script.name
                        ))
                    })?)
                }
            };
            ghosts.insert(
                script.id,
                GhostPipeline {
                    name: script.name.clone(),
                    shapes: Arc::clone(&shapes),
                    stages: script.stages.iter().cloned().collect(),
                    terminal: Some(terminal),
                },
            );
        }
        let mut coordinator = Coordinator::new(backend, decision);
        coordinator.ghosts = ghosts;
        Ok(coordinator)
    }
}

/// What [`Coordinator::into_parts`] returns — see that method's rustdoc
/// for the ownership handoff contract.
pub(crate) struct CoordinatorParts<O, B: ExecutionBackend> {
    /// Completed pipeline outcomes, in completion order.
    pub outcomes: Vec<(PipelineId, O)>,
    /// Aborted pipelines and their reasons.
    pub aborts: Vec<(PipelineId, String)>,
    /// The backend, with any in-flight work.
    pub backend: B,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::NoDecisions;
    use crate::pipeline::PipelineLogic;
    use impress_pilot::backend::SimulatedBackend;
    use impress_pilot::{PilotConfig, ResourceRequest, RuntimeConfig, TaskDescription, TaskId};
    use impress_sim::{SimDuration, SimTime};

    fn pilot_config() -> PilotConfig {
        PilotConfig {
            node: impress_pilot::NodeSpec::new(4, 1, 64),
            bootstrap: SimDuration::from_secs(10),
            exec_setup_per_task: SimDuration::from_secs(1),
            ..PilotConfig::default()
        }
    }

    fn backend() -> SimulatedBackend {
        SimulatedBackend::new(pilot_config())
    }

    /// Counts down `stages` single-task stages, then completes with the sum
    /// of its tasks' outputs.
    struct Counter {
        label: String,
        stages: u32,
        acc: u64,
    }

    impl PipelineLogic<u64> for Counter {
        fn name(&self) -> String {
            self.label.clone()
        }
        fn begin(&mut self) -> Step<u64> {
            self.next_stage()
        }
        fn stage_done(&mut self, completions: Vec<Completion>) -> Step<u64> {
            for c in completions {
                self.acc += c.output::<u64>();
            }
            self.next_stage()
        }
    }

    impl Counter {
        fn next_stage(&mut self) -> Step<u64> {
            if self.stages == 0 {
                return Step::Complete(self.acc);
            }
            self.stages -= 1;
            // Formatted inline: a stage allocates only what the API hands
            // over, which the allocation pin below counts on.
            Step::run(
                TaskDescription::new(
                    Label::from_fmt(format_args!("{}-stage", self.label)),
                    ResourceRequest::cores(1),
                    SimDuration::from_secs(5),
                )
                .with_work(|| 1u64),
            )
        }
    }

    #[test]
    fn single_pipeline_runs_all_stages() {
        let mut c = Coordinator::new(backend(), NoDecisions);
        let id = c.add_pipeline(Box::new(Counter {
            label: "p".into(),
            stages: 3,
            acc: 0,
        }));
        let report = c.run();
        assert_eq!(c.outcomes().len(), 1);
        assert_eq!(c.outcomes()[0], (id, 3));
        assert_eq!(report.root_pipelines, 1);
        assert_eq!(report.total_tasks, 3);
        assert_eq!(c.view().stages_completed(id), 3);
    }

    #[test]
    fn concurrent_pipelines_interleave() {
        let mut c = Coordinator::new(backend(), NoDecisions);
        for i in 0..4 {
            c.add_pipeline(Box::new(Counter {
                label: format!("p{i}"),
                stages: 2,
                acc: 0,
            }));
        }
        let report = c.run();
        assert_eq!(c.outcomes().len(), 4);
        assert!(c.outcomes().iter().all(|(_, v)| *v == 2));
        assert_eq!(report.total_tasks, 8);
        // 8 × 5s tasks on 4 cores with bootstrap 10 + setups: concurrent
        // execution must beat the 8 × 6 = 48s sequential floor.
        assert!(
            report.makespan.as_secs_f64() < 40.0,
            "no concurrency: {}",
            report.makespan
        );
    }

    /// One 64-task stage in which the later a task is submitted, the
    /// sooner it finishes; completes with each task's output and finish
    /// instant, in the order `stage_done` was handed them.
    struct Reversed;

    impl PipelineLogic<Vec<(u64, SimTime)>> for Reversed {
        fn name(&self) -> String {
            "reversed".into()
        }
        fn begin(&mut self) -> Step<Vec<(u64, SimTime)>> {
            Step::Submit(
                (0..64u64)
                    .map(|i| {
                        let run = SimDuration::from_secs(64 - i);
                        TaskDescription::new("r", ResourceRequest::cores(1), run)
                            .with_work(move || i)
                    })
                    .collect(),
            )
        }
        fn stage_done(&mut self, completions: Vec<Completion>) -> Step<Vec<(u64, SimTime)>> {
            Step::Complete(
                completions
                    .into_iter()
                    .map(|c| {
                        let finished = c.finished;
                        (c.output::<u64>(), finished)
                    })
                    .collect(),
            )
        }
    }

    #[test]
    fn a_stage_completing_in_reverse_is_handed_over_in_submission_order() {
        let wide = SimulatedBackend::new(PilotConfig {
            node: impress_pilot::NodeSpec::new(64, 0, 256),
            ..pilot_config()
        });
        let mut c = Coordinator::new(wide, NoDecisions);
        c.add_pipeline(Box::new(Reversed));
        c.run();
        let (_, batch) = &c.outcomes()[0];
        let outputs: Vec<u64> = batch.iter().map(|&(i, _)| i).collect();
        assert_eq!(outputs, (0..64).collect::<Vec<_>>(), "submission order");
        assert!(
            batch.windows(2).all(|w| w[0].1 > w[1].1),
            "every task finished before the one submitted ahead of it"
        );
    }

    /// Spawns one sub-pipeline for each completed root pipeline, once.
    struct SpawnOnce {
        spawned: usize,
    }

    impl DecisionEngine<u64> for SpawnOnce {
        fn on_pipeline_complete(
            &mut self,
            id: PipelineId,
            _outcome: &u64,
            view: &CoordinatorView<'_>,
        ) -> Vec<Spawn<u64>> {
            if view.parent(id).is_some() || self.spawned >= 2 {
                return Vec::new();
            }
            self.spawned += 1;
            vec![Spawn::sub_of(
                id,
                Box::new(Counter {
                    label: format!("sub-of-{id}"),
                    stages: 1,
                    acc: 100,
                }),
            )]
        }
    }

    #[test]
    fn decision_engine_spawns_sub_pipelines() {
        let mut c = Coordinator::new(backend(), SpawnOnce { spawned: 0 });
        for i in 0..2 {
            c.add_pipeline(Box::new(Counter {
                label: format!("root{i}"),
                stages: 1,
                acc: 0,
            }));
        }
        let report = c.run();
        assert_eq!(report.root_pipelines, 2);
        assert_eq!(report.sub_pipelines, 2);
        assert_eq!(c.outcomes().len(), 4);
        let sub_outcomes: Vec<u64> = c
            .outcomes()
            .iter()
            .filter(|(id, _)| c.view().parent(*id).is_some())
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(sub_outcomes, vec![101, 101]);
    }

    /// Aborts at its only stage.
    struct Aborter;

    impl PipelineLogic<u64> for Aborter {
        fn name(&self) -> String {
            "aborter".into()
        }
        fn begin(&mut self) -> Step<u64> {
            Step::run(
                TaskDescription::new("a", ResourceRequest::cores(1), SimDuration::from_secs(1))
                    .with_work(|| 0u64),
            )
        }
        fn stage_done(&mut self, _completions: Vec<Completion>) -> Step<u64> {
            Step::Abort("quality floor breached".into())
        }
    }

    #[test]
    fn aborts_are_recorded_and_run_terminates() {
        let mut c = Coordinator::new(backend(), NoDecisions);
        c.add_pipeline(Box::new(Aborter));
        let report = c.run();
        assert_eq!(c.aborts().len(), 1);
        assert!(c.aborts()[0].1.contains("quality floor"));
        assert_eq!(report.aborted_pipelines, 1);
        assert!(c.outcomes().is_empty());
    }

    #[test]
    #[should_panic(expected = "parent pl.0099 is not registered")]
    fn a_sub_pipeline_of_an_unregistered_parent_is_refused() {
        let mut c: Coordinator<u64, _, _> = Coordinator::new(backend(), NoDecisions);
        c.add(Some(PipelineId(99)), Box::new(Immediate));
    }

    /// Completes without ever submitting a task.
    struct Immediate;

    impl PipelineLogic<u64> for Immediate {
        fn name(&self) -> String {
            "immediate".into()
        }
        fn begin(&mut self) -> Step<u64> {
            Step::Complete(7)
        }
        fn stage_done(&mut self, _: Vec<Completion>) -> Step<u64> {
            unreachable!()
        }
    }

    #[test]
    fn immediately_completing_pipeline_is_fine() {
        let mut c = Coordinator::new(backend(), NoDecisions);
        c.add_pipeline(Box::new(Immediate));
        let report = c.run();
        assert_eq!(c.outcomes().len(), 1);
        assert_eq!(report.total_tasks, 0);
    }

    /// An engine that runs a second round from on_all_idle.
    struct TwoRounds {
        rounds: usize,
    }

    impl DecisionEngine<u64> for TwoRounds {
        fn on_pipeline_complete(
            &mut self,
            _id: PipelineId,
            _outcome: &u64,
            _view: &CoordinatorView<'_>,
        ) -> Vec<Spawn<u64>> {
            Vec::new()
        }
        fn on_all_idle(&mut self, _view: &CoordinatorView<'_>) -> Vec<Spawn<u64>> {
            if self.rounds >= 2 {
                return Vec::new();
            }
            self.rounds += 1;
            vec![Spawn::root(Box::new(Counter {
                label: format!("round{}", self.rounds),
                stages: 1,
                acc: 0,
            }))]
        }
    }

    #[test]
    fn the_ledger_records_the_full_lifecycle() {
        let mut c = Coordinator::new(backend(), NoDecisions);
        let id = c.add_pipeline(Box::new(Counter {
            label: "p".into(),
            stages: 2,
            acc: 0,
        }));
        assert_eq!(c.live, 1);
        let report = c.run();
        let view = c.view();
        assert_eq!((view.name(id), view.parent(id)), ("p", None));
        assert_eq!(view.stages_completed(id), 2);
        assert_eq!(report.total_tasks, 2);
        assert_eq!(c.live, 0, "a finished pipeline leaves the live count");
    }

    /// Spawns a sub-pipeline off each finished pipeline its script says
    /// to, and records what the view showed of that pipeline at decision
    /// time.
    struct Scripted {
        spawn: std::vec::IntoIter<u8>,
        seen: Vec<(PipelineId, Option<PipelineId>, String)>,
    }

    impl Scripted {
        fn finished(&mut self, id: PipelineId, view: &CoordinatorView<'_>) -> Vec<Spawn<u64>> {
            self.seen
                .push((id, view.parent(id), view.name(id).to_string()));
            match self.spawn.next() {
                Some(stages @ 1..) => vec![Spawn::sub_of(
                    id,
                    Box::new(Counter {
                        label: format!("sub-of-{id}"),
                        stages: u32::from(stages - 1),
                        acc: 0,
                    }),
                )],
                _ => Vec::new(),
            }
        }
    }

    impl DecisionEngine<u64> for Scripted {
        fn on_pipeline_complete(
            &mut self,
            id: PipelineId,
            _outcome: &u64,
            view: &CoordinatorView<'_>,
        ) -> Vec<Spawn<u64>> {
            self.finished(id, view)
        }
        fn on_pipeline_aborted(
            &mut self,
            id: PipelineId,
            _reason: &str,
            view: &CoordinatorView<'_>,
        ) -> Vec<Spawn<u64>> {
            self.finished(id, view)
        }
    }

    impress_sim::props! {
        /// Under random roots (chains and aborters) and random spawns, the
        /// run report's counts are what the view shows, and every
        /// sub-pipeline's parent and name read back at decision time as
        /// they were spawned.
        fn the_report_counts_what_the_view_shows(rng, cases = 64) {
            let roots = 1 + rng.below(5);
            let script: Vec<u8> = (0..24).map(|_| rng.below(4) as u8).collect();
            let engine = Scripted {
                spawn: script.into_iter(),
                seen: Vec::new(),
            };
            let mut c = Coordinator::new(backend(), engine);
            for i in 0..roots {
                if rng.below(3) == 0 {
                    c.add_pipeline(Box::new(Aborter));
                } else {
                    c.add_pipeline(Box::new(Counter {
                        label: format!("root{i}"),
                        stages: rng.below(3) as u32,
                        acc: 0,
                    }));
                }
            }
            let report = c.run();
            let seen = &c.decision.seen;
            let pipelines = c.outcomes().len() + c.aborts().len();
            assert_eq!(seen.len(), pipelines, "one decision per finished pipeline");
            let subs = seen.iter().filter(|s| s.1.is_some()).count();
            assert_eq!(report.root_pipelines, roots);
            assert_eq!(report.root_pipelines + report.sub_pipelines, pipelines);
            assert_eq!(report.sub_pipelines, subs);
            assert_eq!(report.aborted_pipelines, c.aborts().len());
            // Every stage is one task, and every stage completes.
            let view = c.view();
            let stages: usize = (0..pipelines as u64)
                .map(|id| view.stages_completed(PipelineId(id)))
                .sum();
            assert_eq!(report.total_tasks, stages);
            for (id, parent, name) in seen {
                match parent {
                    Some(p) => {
                        assert!(p < id, "{id}: parent {p} registered later");
                        assert_eq!(*name, format!("sub-of-{p}"));
                    }
                    None => assert!(name.starts_with("root") || name == "aborter", "{name}"),
                }
            }
            assert_eq!(c.live, 0);
        }
    }

    #[test]
    fn on_all_idle_can_run_additional_rounds() {
        let mut c = Coordinator::new(backend(), TwoRounds { rounds: 0 });
        c.add_pipeline(Box::new(Counter {
            label: "initial".into(),
            stages: 1,
            acc: 0,
        }));
        let report = c.run();
        assert_eq!(c.outcomes().len(), 3); // initial + 2 idle rounds
        assert_eq!(report.root_pipelines, 3);
    }

    #[test]
    fn replayed_completion_is_deduped_not_reapplied() {
        let mut c = Coordinator::new(backend(), NoDecisions);
        c.add_pipeline(Box::new(Counter {
            label: "p".into(),
            stages: 2,
            acc: 0,
        }));
        // Drive the first stage by hand so its completion can be replayed
        // (at-least-once delivery) after the coordinator consumed it.
        c.start_pending();
        let first = c.backend.next_completion().unwrap();
        let replay = Completion {
            task: first.task,
            name: first.name.clone(),
            tag: first.tag.clone(),
            result: Ok(None),
            started: first.started,
            finished: first.finished,
            attempts: first.attempts,
            hedged: first.hedged,
        };
        c.route(first);
        assert_eq!(c.dedup_hits(), 0);
        c.route(replay);
        assert_eq!(c.dedup_hits(), 1, "replay must be dropped, not re-applied");
        let report = c.run();
        assert_eq!(c.outcomes().len(), 1);
        assert_eq!(c.outcomes()[0].1, 2, "stage progress must not double");
        assert_eq!(report.total_tasks, 2);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn completion_for_a_never_routed_task_is_still_a_bug() {
        let mut c: Coordinator<u64, _, NoDecisions> = Coordinator::new(backend(), NoDecisions);
        c.route(Completion {
            task: TaskId(999),
            name: "ghost".into(),
            tag: Label::default(),
            result: Ok(None),
            started: SimTime::ZERO,
            finished: SimTime::ZERO,
            attempts: 0,
            hedged: false,
        });
    }

    use crate::journal::{load_plan, Journal, MemoryJournal, TerminalRecord};

    /// A journaled campaign: two Counter roots and an Aborter, with a
    /// decision engine spawning subs — enough shape to exercise every
    /// record type.
    fn run_campaign(
        journal: Option<Journal>,
        plan: Option<&ReplayPlan>,
    ) -> Coordinator<u64, SimulatedBackend, SpawnOnce> {
        let mut c = match plan {
            Some(p) => Coordinator::resume(backend(), SpawnOnce { spawned: 0 }, p).unwrap(),
            None => Coordinator::new(backend(), SpawnOnce { spawned: 0 }),
        };
        if let Some(j) = journal {
            c = c.with_journal(j);
        }
        for i in 0..2 {
            c.add_pipeline(Box::new(Counter {
                label: format!("root{i}"),
                stages: 2,
                acc: 0,
            }));
        }
        c.add_pipeline(Box::new(Aborter));
        c.run();
        c
    }

    #[test]
    fn journal_records_the_full_campaign() {
        let store = MemoryJournal::new();
        let journal = Journal::new(Box::new(store.clone()), "camp", 7).unwrap();
        let c = run_campaign(Some(journal), None);
        let loaded = load_plan(&store).unwrap();
        assert_eq!(loaded.dropped, 0);
        assert_eq!(loaded.plan.label, "camp");
        // 2 roots + aborter + 2 spawned subs, all terminal.
        assert_eq!(loaded.plan.pipelines.len(), 5);
        assert_eq!(loaded.plan.live_pipelines(), 0);
        let completed = loaded
            .plan
            .pipelines
            .iter()
            .filter(|s| matches!(s.terminal, Some(TerminalRecord::Completed(_))))
            .count();
        assert_eq!(completed, c.outcomes().len());
        // The journal's in-memory plan agrees with what the store replays.
        assert_eq!(*c.journal().unwrap().plan(), loaded.plan);
    }

    #[test]
    fn resume_from_a_complete_journal_replays_byte_identically_without_work() {
        let store = MemoryJournal::new();
        let journal = Journal::new(Box::new(store.clone()), "camp", 7).unwrap();
        let live = run_campaign(Some(journal), None);
        let plan = load_plan(&store).unwrap().plan;
        let resumed = run_campaign(None, Some(&plan));
        assert_eq!(live.outcomes(), resumed.outcomes());
        assert_eq!(live.aborts(), resumed.aborts());
        assert_eq!(live.ledger, resumed.ledger);
        assert_eq!(
            impress_json::to_string(&live.report()),
            impress_json::to_string(&resumed.report()),
            "ghost replay must evolve the identical virtual timeline"
        );
    }

    #[test]
    fn resume_after_a_mid_run_kill_completes_the_campaign_identically() {
        let reference = run_campaign(None, None);
        // Kill after the 8th journal append — mid-campaign, with pipelines
        // both terminal and live at the point of death.
        let store = MemoryJournal::new();
        let journal = Journal::new(Box::new(store.clone()), "camp", 7)
            .unwrap()
            .with_kill_after(8);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_campaign(Some(journal), None);
        }));
        assert!(died.is_err(), "kill switch must fire");
        let loaded = load_plan(&store).unwrap();
        assert!(loaded.plan.live_pipelines() > 0 || loaded.plan.pipelines.len() < 5);
        let resumed = run_campaign(None, Some(&loaded.plan));
        assert_eq!(reference.outcomes(), resumed.outcomes());
        assert_eq!(reference.aborts(), resumed.aborts());
        assert_eq!(
            impress_json::to_string(&reference.report()),
            impress_json::to_string(&resumed.report())
        );
    }

    #[test]
    fn resume_rejects_an_undecodable_outcome_with_a_diagnostic() {
        let plan = |stages: Vec<Vec<u32>>, outcome: RawJson| ReplayPlan {
            label: "x".into(),
            seed: 0,
            shapes: Vec::new(),
            pipelines: vec![crate::journal::PipelineScript {
                id: 0,
                name: "p".into(),
                parent: None,
                stages_completed: stages.len(),
                stages,
                terminal: Some(TerminalRecord::Completed(outcome)),
            }],
        };
        // An outcome that is not an `O`, and a stage naming a task shape
        // the plan does not define.
        for plan in [
            plan(Vec::new(), RawJson::new(&"not a u64")),
            plan(vec![vec![0]], RawJson::new(&7u64)),
        ] {
            let err = match Coordinator::<u64, _, _>::resume(backend(), NoDecisions, &plan) {
                Ok(_) => panic!("a corrupt plan must be rejected"),
                Err(e) => e,
            };
            assert!(matches!(err, JournalError::Corrupt(_)), "{err}");
        }
    }

    /// An outcome whose text has escapes, non-ASCII characters, nested
    /// arrays and non-integral floats.
    #[derive(Debug, Clone, PartialEq)]
    struct Design {
        name: String,
        scores: Vec<Vec<f64>>,
        note: Option<String>,
    }
    impress_json::json_struct!(Design { name, scores, note });

    /// One stage, then a `Design` holding the stage's output.
    struct Designer;

    impl PipelineLogic<Design> for Designer {
        fn name(&self) -> String {
            "designer".into()
        }
        fn begin(&mut self) -> Step<Design> {
            Step::run(
                TaskDescription::new("fold", ResourceRequest::cores(1), SimDuration::from_secs(3))
                    .with_work(|| 0.1875f64),
            )
        }
        fn stage_done(&mut self, done: Vec<Completion>) -> Step<Design> {
            let x: f64 = done.into_iter().map(Completion::output::<f64>).sum();
            Step::Complete(Design {
                name: "pdz \"α\"\tβ-日本\\n".into(),
                scores: vec![vec![x, -1.0 / 3.0], vec![], vec![2.5e-300, 1e21]],
                note: Some("µ\u{1}".into()),
            })
        }
    }

    fn run_designer(
        journal: Option<Journal>,
        plan: Option<&ReplayPlan>,
    ) -> Coordinator<Design, SimulatedBackend, NoDecisions> {
        let mut c = match plan {
            Some(p) => Coordinator::resume(backend(), NoDecisions, p).unwrap(),
            None => Coordinator::new(backend(), NoDecisions),
        };
        if let Some(j) = journal {
            c = c.with_journal(j);
        }
        c.add_pipeline(Box::new(Designer));
        c.run();
        c
    }

    /// The one `Completed` outcome of a plan, as its journaled text.
    fn outcome_text(plan: &ReplayPlan) -> &str {
        match &plan.pipelines[0].terminal {
            Some(TerminalRecord::Completed(raw)) => raw.as_str(),
            other => panic!("expected a completed pipeline, got {other:?}"),
        }
    }

    #[test]
    fn a_journaled_outcome_keeps_its_bytes_through_load_compaction_and_resume() {
        let store = MemoryJournal::new();
        let live = run_designer(
            Some(Journal::new(Box::new(store.clone()), "raw", 3).unwrap()),
            None,
        );
        let want = impress_json::to_string(&live.outcomes()[0].1);
        let first = load_plan(&store).unwrap().plan;
        assert_eq!(outcome_text(&first), want);

        // A resume from that plan, journaled with a snapshot after every
        // commit: the ghost's outcome is decoded, re-encoded and compacted
        // into the store's `[Begin, Snapshot]` pair.
        let compacted = MemoryJournal::new();
        let journal = Journal::new(Box::new(compacted.clone()), "raw", 3)
            .unwrap()
            .with_snapshot_interval(1);
        let resumed = run_designer(Some(journal), Some(&first));
        assert_eq!(compacted.line_count(), 2, "the store is one snapshot");
        let second = load_plan(&compacted).unwrap().plan;
        assert_eq!(outcome_text(&second), want);
        assert_eq!(second, first);

        let again = run_designer(None, Some(&second));
        assert_eq!(resumed.outcomes(), live.outcomes());
        assert_eq!(again.outcomes(), live.outcomes());
    }

    #[test]
    fn deadline_drain_checkpoints_and_resume_finishes_the_campaign() {
        let reference = run_campaign(None, None);
        // 20s in: bootstrap (10s) + the first 6s stage wave fits, but the
        // second wave (finishing at 22s) and everything after it does not.
        let deadline = SimTime::from_micros(20 * 1_000_000);
        let store = MemoryJournal::new();
        let drained = {
            let deadlined = RuntimeConfig::new(pilot_config())
                .deadline(deadline)
                .simulated();
            let mut c = Coordinator::new(deadlined, SpawnOnce { spawned: 0 })
                .with_journal(Journal::new(Box::new(store.clone()), "camp", 7).unwrap());
            for i in 0..2 {
                c.add_pipeline(Box::new(Counter {
                    label: format!("root{i}"),
                    stages: 2,
                    acc: 0,
                }));
            }
            c.add_pipeline(Box::new(Aborter));
            c.run();
            c
        };
        assert!(drained.drained(), "deadline must force a drain");
        assert!(drained.backend().held_tasks() > 0);
        assert!(drained.outcomes().len() < reference.outcomes().len());
        // Resume on a fresh, deadline-free backend.
        let plan = load_plan(&store).unwrap().plan;
        let resumed = run_campaign(None, Some(&plan));
        assert_eq!(reference.outcomes(), resumed.outcomes());
        assert_eq!(
            impress_json::to_string(&reference.report()),
            impress_json::to_string(&resumed.report())
        );
    }

    /// A store that keeps nothing, so a window counts the journal's own
    /// allocations and not a medium's.
    struct Discard;

    impl crate::journal::JournalStore for Discard {
        fn append(&self, _: &str) -> Result<(), JournalError> {
            Ok(())
        }
        fn lines(&self) -> Result<Vec<String>, JournalError> {
            Ok(Vec::new())
        }
        fn rewrite(&self, _: &[String]) -> Result<(), JournalError> {
            Ok(())
        }
    }

    /// A warm single-task stage costs at most 3 allocations a task: what
    /// the API hands over, namely the `Vec` of `Step::run`, the work
    /// output box and the batch given to `stage_done` (which the stage
    /// buffer allocates when the stage opens and hands over in place).
    /// The amortized growth of the run's logs rounds to nothing, and the
    /// placement list and the profiler's task record allocate nothing of
    /// their own. Journaling adds at most one a task: with a write-ahead
    /// journal that compacts every 64 records, a stage whose task shape is
    /// already in the journal's table costs its record one list of ids,
    /// which the replay plan keeps; the framing buffers and the two
    /// compaction lines are reused.
    #[test]
    fn a_warm_stage_allocates_only_what_the_api_hands_over() {
        const WARM: u32 = 2_000;
        const MEASURED: u32 = 2_000;
        let per_task = |journal: Option<Journal>| {
            let mut c = Coordinator::new(backend(), NoDecisions);
            if let Some(journal) = journal {
                c = c.with_journal(journal);
            }
            c.add_pipeline(Box::new(Counter {
                label: "chain".into(),
                stages: WARM + MEASURED,
                acc: 0,
            }));
            // Each step routes one completion: one task, one stage.
            for _ in 0..WARM {
                assert!(c.step());
            }
            let (allocs, ()) = crate::ALLOC.measure(|| {
                for _ in 0..MEASURED {
                    assert!(c.step());
                }
            });
            assert!(!c.step(), "the chain ends after its last stage");
            assert_eq!(c.outcomes().len(), 1);
            let snapshots = c.journal().map_or(0, Journal::snapshots_taken);
            (allocs as f64 / f64::from(MEASURED), snapshots)
        };
        let (bare, _) = per_task(None);
        assert!(
            bare < 3.005,
            "a warm single-task stage allocates {bare:.3} times a task, more than 3.00"
        );
        let journal = Journal::new(Box::new(Discard), "chain", 0)
            .unwrap()
            .with_snapshot_interval(64);
        let (journaled, snapshots) = per_task(Some(journal));
        assert!(
            journaled <= bare + 1.05,
            "journaling a known shape costs {:.2} allocations a task, more than 1",
            journaled - bare
        );
        assert!(snapshots >= 60);
    }
}
