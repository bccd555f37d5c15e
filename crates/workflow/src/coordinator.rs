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
use crate::events::{EventKind, EventLog};
use crate::journal::{Journal, JournalError, JournalRecord, ReplayPlan, TaskMeta, TerminalRecord};
use crate::pipeline::{BoxedPipeline, PipelineId, PipelineLogic, PipelineState};
use crate::registry::Registry;
use crate::report::RunReport;
use crate::stage::{StageBuffer, Step};
use impress_json::{FromJson, Json, ToJson};
use impress_pilot::{Completion, ExecutionBackend, Label, Session, TaskDescription};
use impress_sim::SimTime;
use impress_telemetry::{track, SpanCat, SpanId, Telemetry};
use std::collections::{HashMap, VecDeque};

/// A read-only snapshot handed to the decision engine.
///
/// Fields are private by design: the view is the decision engine's *only*
/// window into coordinator state, so its surface is the exact contract of
/// what adaptive policies may observe — time, the pipeline ledger, and
/// utilization. Anything not exposed here (journals, routing tables, the
/// session) is deliberately out of reach of decision callbacks.
pub struct CoordinatorView<'a> {
    now: SimTime,
    registry: &'a Registry,
    util: &'a dyn UtilSource,
    cached_util: std::cell::OnceCell<impress_pilot::UtilizationReport>,
}

/// Object-safe utilization access, so the type-erased view can read it
/// lazily without growing a backend type parameter.
trait UtilSource {
    fn utilization(&self) -> impress_pilot::UtilizationReport;
}

impl<B: ExecutionBackend> UtilSource for Session<B> {
    fn utilization(&self) -> impress_pilot::UtilizationReport {
        self.backend().utilization()
    }
}

impl<'a> CoordinatorView<'a> {
    /// Current backend time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The pipeline ledger.
    pub fn registry(&self) -> &'a Registry {
        self.registry
    }

    /// Utilization so far.
    ///
    /// Computed on first read and cached for the view's lifetime. The
    /// report walks every device's busy intervals, so engines that never
    /// look at utilization pay nothing — at service scale (thousands of
    /// campaigns sharing one big cluster, one view per terminal event)
    /// an eager report here dominated the whole run's wall time.
    pub fn utilization(&self) -> &impress_pilot::UtilizationReport {
        self.cached_util.get_or_init(|| self.util.utilization())
    }
}

/// The write-ahead journal plus the outcome encoder the coordinator needs
/// to serialize `Completed` records. Captured as a plain fn pointer so the
/// coordinator itself stays unbounded in `O`.
struct JournalWriter<O> {
    journal: Journal,
    encode: fn(&O) -> Json,
}

impl<O> JournalWriter<O> {
    /// Durability is the whole point: if the journal cannot be written, the
    /// coordinator fail-stops rather than silently running unjournaled.
    fn record(&mut self, rec: JournalRecord) {
        if let Err(e) = self.journal.record(rec) {
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
    stages: VecDeque<Vec<TaskMeta>>,
    /// How the journaled pipeline ended — the outcome `resume` decoded, or
    /// the abort reason. Taken at the terminal step (a ghost reaches it
    /// exactly once).
    terminal: Option<Result<O, String>>,
}

impl<O> GhostPipeline<O> {
    fn next(&mut self) -> Step<O> {
        if let Some(stage) = self.stages.pop_front() {
            return Step::Submit(stage.iter().map(TaskMeta::to_description).collect());
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
    /// The in-flight stage's completion buffer, if a stage is in flight.
    buffer: Option<StageBuffer>,
    /// Open telemetry spans; taken when the pipeline span closes.
    spans: Option<PipelineSpans>,
    /// The pipeline's task tag, formatted once at registration — each
    /// submission clones it, which copies a `Label` and never allocates.
    tag: Label,
}

/// Where a task's completion routes, indexed by dense backend task id.
#[derive(Clone, Copy)]
enum RouteState {
    /// Never submitted by this coordinator (or not yet).
    Unknown,
    /// In flight, owned by this pipeline.
    Routed(PipelineId),
    /// Completion already consumed — an exact replay is deduped.
    Consumed,
}

/// What one [`Coordinator::try_step`] call achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryStep {
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
    session: Session<B>,
    decision: D,
    registry: Registry,
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
    events: EventLog,
    journal: Option<JournalWriter<O>>,
    /// Resume state: a ready ghost for every journaled pipeline that
    /// reached a terminal state before the kill, its outcome already
    /// decoded. A pipeline registered during a resumed run is swapped for
    /// the ghost under its id. Empty on a fresh run.
    ghosts: HashMap<u64, GhostPipeline<O>>,
    drained: bool,
    telemetry: Telemetry,
}

impl<O: 'static, B: ExecutionBackend, D: DecisionEngine<O>> Coordinator<O, B, D> {
    /// A coordinator over a fresh session on `backend`, advised by
    /// `decision`.
    pub fn new(backend: B, decision: D) -> Self {
        let session = Session::new(backend);
        let telemetry = session.telemetry().clone();
        Coordinator {
            session,
            decision,
            registry: Registry::new(),
            slots: Vec::new(),
            routes: Vec::new(),
            pending_submits: Vec::new(),
            dedup_hits: 0,
            to_start: Vec::new(),
            outcomes: Vec::new(),
            aborts: Vec::new(),
            events: EventLog::new(),
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
        // Write-ahead: the id the registry will assign is known in advance,
        // so the Registered record lands before the registration applies.
        let id = PipelineId(self.registry.peek_next_id());
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
                debug_assert!(false, "{id}: plan names {:?}, run names {name:?}", ghost.name);
                pipeline
            }
            None => pipeline,
        };
        let assigned = self.registry.register(name, parent, self.session.now());
        debug_assert_eq!(assigned, id, "peeked id diverged from assigned id");
        self.events
            .push(self.session.now(), id, EventKind::Registered { parent });
        // Pipeline span: lives from registration to the terminal step,
        // parented under the spawning pipeline's span (if any) so adaptive
        // sub-pipeline trees nest in the trace.
        let parent_span = parent
            .and_then(|p| self.slots[p.0 as usize].spans.as_ref())
            .map(|s| s.pipeline)
            .unwrap_or(SpanId::NONE);
        let span = self.telemetry.span(
            SpanCat::Pipeline,
            &self.registry.get(id).name,
            parent_span,
            track::pipeline(id.0),
            self.session.stamp(),
            &[("pipeline", id.0 as i64)],
        );
        debug_assert_eq!(self.slots.len() as u64, id.0, "slot slab diverged from ids");
        self.slots.push(PipelineSlot {
            live: Some(pipeline),
            buffer: None,
            spans: Some(PipelineSpans {
                pipeline: span,
                stage: SpanId::NONE,
            }),
            tag: id.to_string().into(),
        });
        self.telemetry.count("pipelines_registered", 1);
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
    /// `wait_next`, not at `submit`, and submission order (hence task id
    /// assignment) is preserved.
    fn flush_effects(&mut self) {
        if let Some(writer) = &mut self.journal {
            let batch = writer.commit();
            if batch > 0 {
                // One instant per *commit* (the old code stamped one per
                // record); counters keep per-record visibility and the
                // histogram shows how well the cycle batches.
                self.telemetry.count("journal_batches", 1);
                self.telemetry.count("journal_records", batch as u64);
                self.telemetry
                    .observe("journal_batch_records", 0.0, 64.0, 16, batch as f64);
                self.telemetry.instant(
                    SpanCat::Session,
                    "journal-commit",
                    SpanId::NONE,
                    track::SESSION,
                    self.session.stamp(),
                    &[("records", batch as i64)],
                );
            }
        }
        for i in 0..self.pending_submits.len() {
            let (id, tasks) = {
                let entry = &mut self.pending_submits[i];
                (entry.0, std::mem::take(&mut entry.1))
            };
            let mut ids = Vec::with_capacity(tasks.len());
            for task in tasks {
                let tid = self
                    .session
                    .submit(task.with_tag(self.slots[id.0 as usize].tag.clone()));
                let at = tid.0 as usize;
                if self.routes.len() <= at {
                    self.routes.resize(at + 1, RouteState::Unknown);
                }
                debug_assert!(matches!(self.routes[at], RouteState::Unknown));
                self.routes[at] = RouteState::Routed(id);
                ids.push(tid);
            }
            let slot = &mut self.slots[id.0 as usize];
            assert!(
                slot.buffer.is_none(),
                "{id}: submitted a stage while one is in flight"
            );
            slot.buffer = Some(StageBuffer::new(ids));
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
                let stage = self.registry.get(id).stages_completed;
                self.journal_append(|| JournalRecord::StageSubmitted {
                    pipeline: id.0,
                    stage,
                    tasks: tasks.iter().map(TaskMeta::of).collect(),
                });
                self.events.push(
                    self.session.now(),
                    id,
                    EventKind::StageSubmitted {
                        stage,
                        n_tasks: tasks.len(),
                    },
                );
                self.registry.note_stage_submitted(id, tasks.len());
                if let Some(spans) = self.slots[id.0 as usize].spans.as_mut() {
                    spans.stage = self.telemetry.span(
                        SpanCat::Stage,
                        "stage",
                        spans.pipeline,
                        track::pipeline(id.0),
                        self.session.stamp(),
                        &[("stage", stage as i64), ("tasks", tasks.len() as i64)],
                    );
                }
                self.telemetry.count("stages_submitted", 1);
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
                self.events
                    .push(self.session.now(), id, EventKind::Completed);
                self.registry
                    .finish(id, PipelineState::Completed, self.session.now());
                self.slots[id.0 as usize].live = None;
                self.end_pipeline_span(id);
                self.telemetry.count("pipelines_completed", 1);
                // Decision point: the adaptive engine may spawn sub-pipelines.
                let spawns = {
                    let d = self.decision_span("on-pipeline-complete");
                    let view = CoordinatorView {
                        now: self.session.now(),
                        registry: &self.registry,
                        util: &self.session,
                        cached_util: std::cell::OnceCell::new(),
                    };
                    let spawns = self.decision.on_pipeline_complete(id, &outcome, &view);
                    self.telemetry.end(d, self.session.stamp());
                    spawns
                };
                self.outcomes.push((id, outcome));
                self.apply_spawns(spawns);
            }
            Step::Abort(reason) => {
                self.journal_append(|| JournalRecord::Aborted {
                    pipeline: id.0,
                    reason: reason.clone(),
                });
                self.events.push(
                    self.session.now(),
                    id,
                    EventKind::Aborted {
                        reason: reason.clone(),
                    },
                );
                self.registry
                    .finish(id, PipelineState::Aborted, self.session.now());
                self.slots[id.0 as usize].live = None;
                self.end_pipeline_span(id);
                self.telemetry.count("pipelines_aborted", 1);
                let spawns = {
                    let d = self.decision_span("on-pipeline-aborted");
                    let view = CoordinatorView {
                        now: self.session.now(),
                        registry: &self.registry,
                        util: &self.session,
                        cached_util: std::cell::OnceCell::new(),
                    };
                    let spawns = self.decision.on_pipeline_aborted(id, &reason, &view);
                    self.telemetry.end(d, self.session.stamp());
                    spawns
                };
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

    /// Close a pipeline's whole-lifetime span at the terminal step.
    fn end_pipeline_span(&mut self, id: PipelineId) {
        if let Some(spans) = self.slots[id.0 as usize].spans.take() {
            self.telemetry.end(spans.pipeline, self.session.stamp());
        }
    }

    /// Open a zero-or-more-spawns decision span around a
    /// [`DecisionEngine`] callback. Virtual time does not advance inside
    /// the callback, so the span is zero-width on the virtual clock; on
    /// the threaded backend its wall width is the real decision cost.
    fn decision_span(&self, name: &str) -> SpanId {
        self.telemetry.span(
            SpanCat::Decision,
            name,
            SpanId::NONE,
            track::SESSION,
            self.session.stamp(),
            &[],
        )
    }

    fn route(&mut self, completion: Completion) {
        let at = completion.task.0 as usize;
        let id = match self.routes.get(at).copied().unwrap_or(RouteState::Unknown) {
            RouteState::Routed(id) => id,
            // Idempotent dedup at the coordinator boundary: under
            // at-least-once delivery a completion already consumed can be
            // replayed. Re-applying it would double the pipeline's stage
            // progress (and the decision engine's view of it), so an exact
            // replay is counted and dropped; a completion for a task never
            // routed at all is still a routing bug.
            RouteState::Consumed => {
                self.dedup_hits += 1;
                self.telemetry.count("coordinator_dedup_hits", 1);
                self.telemetry.instant(
                    SpanCat::Fault,
                    "completion-deduped",
                    SpanId::NONE,
                    track::SESSION,
                    self.session.stamp(),
                    &[("task", completion.task.0 as i64)],
                );
                return;
            }
            RouteState::Unknown => panic!("{}: completion has no route", completion.task),
        };
        self.routes[at] = RouteState::Consumed;
        if completion.attempts > 0 {
            self.events.push(
                self.session.now(),
                id,
                EventKind::TaskRetried {
                    task: completion.task.0,
                    attempts: completion.attempts,
                },
            );
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
                self.session.stamp(),
                &[
                    ("task", completion.task.0 as i64),
                    ("attempts", completion.attempts as i64),
                ],
            );
        }
        // A poison verdict from the backend's quarantine layer: journal it
        // (post-mortems read verdicts off the journal), log it, and give
        // the decision engine a chance to react before the completion is
        // folded into the stage buffer as an ordinary failure.
        if let Err(impress_pilot::TaskError::Poisoned { distinct_nodes }) = &completion.result {
            let distinct = *distinct_nodes;
            self.journal_append(|| JournalRecord::TaskPoisoned {
                pipeline: id.0,
                task: completion.task.0,
                distinct_nodes: distinct,
            });
            self.events.push(
                self.session.now(),
                id,
                EventKind::TaskPoisoned {
                    task: completion.task.0,
                    distinct_nodes: distinct,
                },
            );
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
                self.session.stamp(),
                &[
                    ("task", completion.task.0 as i64),
                    ("distinct_nodes", distinct as i64),
                ],
            );
            let spawns = {
                let d = self.decision_span("on-task-poisoned");
                let view = CoordinatorView {
                    now: self.session.now(),
                    registry: &self.registry,
                    util: &self.session,
                    cached_util: std::cell::OnceCell::new(),
                };
                let spawns =
                    self.decision
                        .on_task_poisoned(id, completion.task.0, distinct, &view);
                self.telemetry.end(d, self.session.stamp());
                spawns
            };
            self.apply_spawns(spawns);
        }
        let batch = self.slots[id.0 as usize]
            .buffer
            .as_mut()
            .unwrap_or_else(|| panic!("{id}: completion but no in-flight stage"))
            .record(completion);
        if let Some(batch) = batch {
            self.slots[id.0 as usize].buffer = None;
            let stage = self.registry.get(id).stages_completed;
            self.journal_append(|| JournalRecord::StageCompleted {
                pipeline: id.0,
                stage,
            });
            self.events
                .push(self.session.now(), id, EventKind::StageCompleted { stage });
            self.registry.note_stage_completed(id);
            if let Some(spans) = self.slots[id.0 as usize].spans.as_mut() {
                let done = std::mem::replace(&mut spans.stage, SpanId::NONE);
                self.telemetry.end(done, self.session.stamp());
            }
            self.telemetry.count("stages_completed", 1);
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
        match self.session.wait_next() {
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
        // finish in time: the session has drained its in-flight work and
        // will launch nothing further. Stop here — the journal holds
        // everything a resume needs.
        if self.session.backend().held_tasks() > 0 {
            self.drained = true;
            return false;
        }
        // Workload drained. Give the engine a chance to start another
        // round; otherwise we are done.
        let spawns = {
            let d = self.decision_span("on-all-idle");
            let view = CoordinatorView {
                now: self.session.now(),
                registry: &self.registry,
                util: &self.session,
                cached_util: std::cell::OnceCell::new(),
            };
            let spawns = self.decision.on_all_idle(&view);
            self.telemetry.end(d, self.session.stamp());
            spawns
        };
        if spawns.is_empty() && self.to_start.is_empty() {
            assert_eq!(
                self.registry.live_count(),
                0,
                "drained backend but pipelines still live (stuck stage?)"
            );
            return false;
        }
        self.apply_spawns(spawns);
        true
    }

    /// Advance the campaign as far as it can go *without waiting*: start
    /// pending pipelines, then route one completion the backend already
    /// has available ([`Session::poll_next`]). Unlike
    /// [`Coordinator::step`], this never advances the backend clock — the
    /// primitive a multiplexing driver needs to keep many campaigns on one
    /// shared cluster maximally concurrent: every campaign with progress
    /// to make at the current instant is stepped before anyone waits.
    ///
    /// [`Session::poll_next`]: impress_pilot::Session::poll_next
    pub fn try_step(&mut self) -> TryStep {
        let started = !self.to_start.is_empty();
        self.start_pending();
        if let Some(c) = self.session.poll_next() {
            self.route(c);
            return TryStep::Progressed;
        }
        if started {
            return TryStep::Progressed;
        }
        if self.session.backend().in_flight() > 0 {
            return TryStep::Blocked;
        }
        if self.idle_transition() {
            TryStep::Progressed
        } else {
            TryStep::Terminal
        }
    }

    /// Whether pipelines are queued to begin on the next step (roots added
    /// since the last one, or decision-engine spawns not yet started) —
    /// i.e. [`Coordinator::try_step`] is guaranteed to make progress.
    pub fn has_pending_starts(&self) -> bool {
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
        let obs = self.session.observe();
        RunReport::build(
            &self.registry,
            *obs.utilization(),
            *obs.phase_breakdown(),
            obs.at(),
            self.aborts.len(),
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

    /// The pipeline ledger.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The structured event log of everything that happened this run.
    pub fn events(&self) -> &EventLog {
        &self.events
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

    /// The underlying session (for backend-specific inspection).
    pub fn session(&self) -> &Session<B> {
        &self.session
    }

    /// Consume the coordinator, handing ownership of its results and its
    /// session back to the caller.
    ///
    /// Ownership handoff contract: after this call the coordinator is gone
    /// — its registry, event log, journal handle, and routing state are
    /// dropped. What survives is exactly what a *caller that owns the
    /// campaign's aftermath* needs: the terminal outcomes, the aborts, and
    /// the live [`Session`] (whose backend keeps its full utilization and
    /// phase history, so post-run accounting still works). The session is
    /// returned *hot*: any tasks the campaign left in flight are still in
    /// flight, which is what lets a service layer recycle the backend for
    /// the next campaign or drain it on its own schedule. Callers that
    /// need the event log or registry must read them (or clone what they
    /// need) *before* consuming the coordinator.
    pub fn into_parts(self) -> CoordinatorParts<O, B> {
        CoordinatorParts {
            outcomes: self.outcomes,
            aborts: self.aborts,
            session: self.session,
        }
    }
}

impl<O: ToJson, B: ExecutionBackend, D: DecisionEngine<O>> Coordinator<O, B, D> {
    /// Install a write-ahead journal: every state transition's record is
    /// durable *before* the transition's effects apply, so a crash at any
    /// instant leaves a journal describing a consistent prefix of the run.
    /// Records buffer across one drain cycle and flush as a single group
    /// commit at the cycle barrier — losing a buffered, unflushed suffix is
    /// indistinguishable from crashing a moment earlier, so batching does
    /// not weaken crash consistency while collapsing per-record flushes to
    /// one per cycle.
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = Some(JournalWriter {
            journal,
            encode: |outcome| outcome.to_json(),
        });
        self
    }
}

impl<O: FromJson + 'static, B: ExecutionBackend, D: DecisionEngine<O>> Coordinator<O, B, D> {
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
    /// not decode as `O` — a corrupt checkpoint is a diagnostic, never a
    /// panic.
    pub fn resume(backend: B, decision: D, plan: &ReplayPlan) -> Result<Self, JournalError> {
        let mut ghosts = HashMap::new();
        for script in &plan.pipelines {
            let terminal = match &script.terminal {
                None => continue,
                Some(TerminalRecord::Aborted(reason)) => Err(reason.clone()),
                Some(TerminalRecord::Completed(json)) => Ok(O::from_json(json).map_err(|e| {
                    JournalError::Corrupt(format!(
                        "pipeline {} ({}): journaled outcome does not decode: {e}",
                        script.id, script.name
                    ))
                })?),
            };
            ghosts.insert(
                script.id,
                GhostPipeline {
                    name: script.name.clone(),
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
pub struct CoordinatorParts<O, B: ExecutionBackend> {
    /// Completed pipeline outcomes, in completion order.
    pub outcomes: Vec<(PipelineId, O)>,
    /// Aborted pipelines and their reasons.
    pub aborts: Vec<(PipelineId, String)>,
    /// The session, still owning the backend (and any in-flight work).
    pub session: Session<B>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::NoDecisions;
    use crate::pipeline::PipelineLogic;
    use impress_pilot::backend::SimulatedBackend;
    use impress_pilot::{PilotConfig, ResourceRequest, RuntimeConfig, TaskDescription, TaskId};
    use impress_sim::SimDuration;

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
            Step::run(
                TaskDescription::new(
                    format!("{}-stage", self.label),
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
        assert_eq!(c.registry().get(id).stages_completed, 3);
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
            if view.registry().get(id).parent.is_some() || self.spawned >= 2 {
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
            .filter(|(id, _)| c.registry().get(*id).parent.is_some())
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
    fn event_log_captures_the_full_lifecycle() {
        let mut c = Coordinator::new(backend(), NoDecisions);
        let id = c.add_pipeline(Box::new(Counter {
            label: "p".into(),
            stages: 2,
            acc: 0,
        }));
        c.run();
        let events = c.events().for_pipeline(id);
        use crate::events::EventKind as K;
        assert!(matches!(events[0].kind, K::Registered { parent: None }));
        let submitted = c
            .events()
            .count(|e| matches!(e.kind, K::StageSubmitted { .. }));
        let completed = c
            .events()
            .count(|e| matches!(e.kind, K::StageCompleted { .. }));
        assert_eq!(submitted, 2);
        assert_eq!(completed, 2);
        assert!(matches!(events.last().unwrap().kind, K::Completed));
        let (start, end) = c.events().pipeline_span(id).unwrap();
        assert!(end > start);
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
        let first = c.session.wait_next().unwrap();
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
        assert_eq!(live.events().events(), resumed.events().events());
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
        let plan = ReplayPlan {
            label: "x".into(),
            seed: 0,
            pipelines: vec![crate::journal::PipelineScript {
                id: 0,
                name: "p".into(),
                parent: None,
                stages: Vec::new(),
                stages_completed: 0,
                terminal: Some(TerminalRecord::Completed("not a u64".to_json())),
            }],
        };
        let err = match Coordinator::<u64, _, _>::resume(backend(), NoDecisions, &plan) {
            Ok(_) => panic!("undecodable outcome must be rejected"),
            Err(e) => e,
        };
        assert!(matches!(err, JournalError::Corrupt(_)), "{err}");
    }

    #[test]
    fn deadline_drain_checkpoints_and_resume_finishes_the_campaign() {
        let reference = run_campaign(None, None);
        // 20s in: bootstrap (10s) + the first 6s stage wave fits, but the
        // second wave (finishing at 22s) and everything after it does not.
        let deadline = SimTime::from_micros(20 * 1_000_000);
        let store = MemoryJournal::new();
        let drained = {
            let deadlined = RuntimeConfig::new(pilot_config()).deadline(deadline).simulated();
            let mut c = Coordinator::new(deadlined, SpawnOnce {
                spawned: 0,
            })
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
        assert!(drained.session().observe().held_tasks() > 0);
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
}
