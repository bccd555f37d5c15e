//! The deterministic virtual-time backend.
//!
//! Runs the pilot on the `impress-sim` engine. Submissions enqueue into the
//! scheduler; placements, exec-setup delays, and completions are engine
//! events; work closures execute at their task's completion instant. The
//! whole 27-hour CONT-V run replays in milliseconds, bit-identically for a
//! given seed.
//!
//! Fault injection (via [`crate::RuntimeConfig::faults`]) weaves a
//! [`FaultPlan`] into the same event stream: injected transient failures
//! and walltime expiries end an attempt's occupancy early (or late, for
//! hangs) without running its work, node crash/recover windows become
//! engine events that drain/re-admit scheduler nodes and requeue resident
//! tasks, and a [`RetryPolicy`] resubmits faulted attempts after a
//! (virtual-time) backoff. A [`FaultPlan::none`] plan schedules no extra
//! events and draws no randomness — the zero-fault backend is
//! event-for-event identical to one built with [`SimulatedBackend::new`].
//!
//! Telemetry (via [`crate::RuntimeConfig::telemetry`]) records task /
//! queue / attempt spans, placement-round spans and fault instants with
//! virtual-time stamps, entirely outside the engine: no events are
//! scheduled and no randomness is drawn, so an instrumented run is
//! event-for-event identical to an uninstrumented one.

use crate::backend::{Completion, ExecutionBackend, TaskError};
use crate::control::{ControlPlane, ControlStats};
use crate::fault::{
    dilate_span, AttemptFault, FaultPlan, HedgePolicy, QuarantinePolicy, RetryPolicy, SlowWindow,
};
use crate::pilot::{PhaseBreakdown, PilotConfig};
use crate::profiler::{Profiler, UtilizationReport};
use crate::resources::{Allocation, ResourceRequest};
use crate::runtime::RuntimeConfig;
use crate::scheduler::Scheduler;
use crate::states::{StateCell, TaskState};
use crate::task::{TaskDescription, TaskId, TaskWork};
use impress_sim::{Engine, ProcessHandle, SimDuration, SimRng, SimTime};
use impress_telemetry::{track, SpanCat, SpanId, Stamp, Telemetry};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Span bookkeeping for one in-flight task.
#[derive(Clone, Copy)]
struct TaskSpans {
    /// Whole-lifetime span (submit → terminal).
    task: SpanId,
    /// Current queue-wait span (submit/requeue → placement).
    queue: SpanId,
    /// Current attempt span (placement → completion/failure).
    attempt: SpanId,
    /// When the current queue wait began.
    queued_at: SimTime,
}

struct PendingTask {
    name: String,
    tag: String,
    request: ResourceRequest,
    priority: i32,
    duration: SimDuration,
    gpu_busy_fraction: f64,
    kind: crate::task::TaskKind,
    walltime: Option<SimDuration>,
    attempts: u32,
    work: Option<TaskWork>,
    state: StateCell,
    /// Whether a hedged duplicate was ever placed for this task.
    hedged: bool,
}

/// A placed attempt: enough to evict it when its node crashes.
struct RunningAttempt {
    handle: ProcessHandle,
    alloc: Allocation,
    started: SimTime,
    /// Lease epoch: the task's attempt number when this placement was
    /// granted. Under the control plane a completion report only settles
    /// if its epoch still matches — late reports from evicted (suspected)
    /// lease-holders are fenced out.
    attempt: u32,
}

use super::{msg_key, MSG_CANCEL, MSG_DONE, MSG_HEDGE, MSG_RETRY, MSG_SUBMIT};

struct Shared {
    scheduler: Scheduler,
    profiler: Profiler,
    breakdown: PhaseBreakdown,
    pending: HashMap<u64, PendingTask>,
    running: HashMap<u64, RunningAttempt>,
    completions: VecDeque<Completion>,
    in_flight: usize,
    exec_setup: SimDuration,
    bootstrapped: bool,
    faults: FaultPlan,
    retry: RetryPolicy,
    backoff_rng: SimRng,
    /// Allocation walltime: placements whose modeled span would overrun it
    /// are held instead of launched (graceful drain).
    deadline: Option<SimTime>,
    /// Tasks held by the deadline, in hold order. They stay `pending` and
    /// in flight but will never launch.
    held: Vec<u64>,
    /// A submit-triggered placement scan is already scheduled at the current
    /// instant; further submissions coalesce into it instead of scheduling
    /// their own. All submissions between engine steps are enqueued before
    /// the one scan fires, so placement order is unchanged.
    place_event_pending: bool,
    telemetry: Telemetry,
    spans: HashMap<u64, TaskSpans>,
    /// Hedged speculative execution policy (`None` = off, a strict no-op).
    hedge: Option<HedgePolicy>,
    /// Poison-task quarantine policy (`None` = off, a strict no-op).
    quarantine: Option<QuarantinePolicy>,
    /// Per-node slowdown windows; empty when no slowdowns are configured.
    slow: Vec<Vec<SlowWindow>>,
    /// Shape-class runtime estimates from useful completions:
    /// `(cores, gpus) → (completions, total span micros)`. Only maintained
    /// while hedging is on.
    estimates: HashMap<(u32, u32), (u64, u128)>,
    /// Live hedge duplicates, keyed by task id (at most one per task).
    hedge_running: HashMap<u64, RunningAttempt>,
    /// Distinct nodes each task has failed on (quarantine only).
    failed_nodes: HashMap<u64, Vec<u32>>,
    /// Poisoned lineage count per shape class (quarantine breaker).
    shape_poison: HashMap<(u32, u32), u32>,
    /// The seeded control plane (`None` = link faults off, a strict
    /// no-op: no extra events, no randomness, no routing).
    control: Option<ControlPlane>,
    /// Control-plane resilience counters (all zero while `control` is
    /// `None`).
    cstats: ControlStats,
    /// Failure detector: last heartbeat arrival per node.
    last_heard: Vec<SimTime>,
    /// Nodes currently declared suspect by the detector.
    suspected: Vec<bool>,
    /// Ground-truth node health (set by crash/recover events); a crashed
    /// node emits no heartbeats and cannot be resynced by one.
    crashed: Vec<bool>,
    /// Per-node heartbeat sequence numbers (message identity).
    hb_seq: Vec<u64>,
    /// Whether heartbeat chains are currently ticking. Chains retire
    /// themselves when the coordinator goes idle and restart on submit,
    /// so a drained run still exhausts its event queue.
    hb_live: bool,
    /// Idempotent-dedup set: message identities whose effects have been
    /// applied. A second arrival of the same identity is absorbed.
    seen: HashSet<(u64, u32, u8)>,
}

impl Shared {
    /// The hedging threshold base for a shape class: the running mean of
    /// useful completion spans once `min_samples` have been observed, the
    /// attempt's own modeled span until then. Integer-microsecond mean, so
    /// both deterministic engines agree bit-for-bit.
    fn hedge_estimate(&self, shape: (u32, u32), fallback: SimDuration, min_samples: u32) -> SimDuration {
        match self.estimates.get(&shape) {
            Some(&(n, total)) if n >= min_samples as u64 => {
                SimDuration::from_micros((total / n as u128) as u64)
            }
            _ => fallback,
        }
    }

    fn finish_task(
        &mut self,
        id: TaskId,
        alloc: Allocation,
        started: SimTime,
        now: SimTime,
        setup: SimDuration,
    ) -> Option<(u32, u32)> {
        let mut task = self.pending.remove(&id.0).expect("task record exists");
        task.state.advance(TaskState::Executing);
        let result = match task.work.take() {
            Some(work) => match catch_unwind(AssertUnwindSafe(work)) {
                Ok(out) => {
                    task.state.advance(TaskState::Done);
                    Ok(Some(out))
                }
                Err(payload) => {
                    task.state.advance(TaskState::Failed);
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<non-string panic>".to_string());
                    Err(TaskError::WorkPanicked(msg))
                }
            },
            None => {
                task.state.advance(TaskState::Done);
                Ok(None)
            }
        };
        self.profiler.task_finished(
            id,
            &task.name,
            &task.tag,
            &alloc,
            started,
            now,
            task.gpu_busy_fraction,
        );
        let mut warmed = None;
        if let Some(policy) = self.hedge {
            let shape = (task.request.cores, task.request.gpus);
            let e = self.estimates.entry(shape).or_insert((0, 0));
            e.0 += 1;
            e.1 += now.since(started).as_micros() as u128;
            // Exactly the completion that makes the estimate usable:
            // attempts of this shape placed while it was cold were never
            // armed for a hedge check, so the caller arms them now.
            if e.0 == (policy.min_samples as u64).max(1) {
                warmed = Some(shape);
            }
        }
        if self.quarantine.is_some() {
            self.failed_nodes.remove(&id.0);
        }
        self.scheduler.release_owned(alloc);
        self.breakdown
            .record_task(setup, now.since(started + setup));
        self.in_flight -= 1;
        if self.telemetry.enabled() {
            let tele = self.telemetry.clone();
            let at = Stamp::virt(now);
            if let Some(spans) = self.spans.remove(&id.0) {
                tele.end(spans.attempt, at);
                tele.end(spans.task, at);
            }
            tele.count(
                if result.is_ok() {
                    "tasks_completed"
                } else {
                    "tasks_failed"
                },
                1,
            );
            tele.gauge("in_flight", self.in_flight as f64);
            tele.observe(
                "task_run_seconds",
                0.0,
                14_400.0,
                48,
                now.since(started).as_secs_f64(),
            );
        }
        self.completions.push_back(Completion {
            task: id,
            name: task.name,
            tag: task.tag,
            result,
            started,
            finished: now,
            attempts: task.attempts,
            hedged: task.hedged,
        });
        warmed
    }
}

/// The virtual-time pilot backend.
pub struct SimulatedBackend {
    engine: Engine,
    shared: Rc<RefCell<Shared>>,
    config: PilotConfig,
    next_id: u64,
    /// Same handle as `shared.telemetry` (they share one sink); kept
    /// outside the `RefCell` so [`ExecutionBackend::telemetry`] can hand
    /// out a plain reference.
    telemetry: Telemetry,
}

impl SimulatedBackend {
    /// Start a pilot on a simulated node. Bootstrap begins at `t = 0`; no
    /// task can start before `config.bootstrap` has elapsed.
    pub fn new(config: PilotConfig) -> Self {
        Self::from_config(RuntimeConfig::new(config))
    }

    /// Start a pilot under a full [`RuntimeConfig`]: fault plan + retry
    /// policy, walltime deadline and telemetry in one value. The default
    /// config (`RuntimeConfig::new(pilot)`) is exactly
    /// [`SimulatedBackend::new`]: no extra events, no extra randomness.
    /// (`time_scale` is threaded-only and ignored here — virtual time is
    /// already this backend's clock.)
    pub fn from_config(runtime: RuntimeConfig) -> Self {
        let RuntimeConfig {
            pilot: config,
            faults,
            retry,
            deadline,
            telemetry,
            hedge,
            quarantine,
            ..
        } = runtime;
        // Per-node slowdown schedules, realized once. Without configured
        // slowdowns every schedule is empty and `dilate_span` is an exact
        // identity — no events, no randomness, no arithmetic change.
        let slow: Vec<Vec<SlowWindow>> = (0..config.nodes)
            .map(|n| faults.slowdown_windows(n))
            .collect();
        let backoff_rng = SimRng::from_seed(config.seed).fork("retry-backoff");
        // The control plane exists exactly when the plan's link section
        // models anything; `None` keeps every code path below identical to
        // the pre-control-plane backend.
        let control = ControlPlane::from_plan(&faults);
        // The bootstrap phase completes at a known virtual instant, so its
        // span can be recorded up front, before the engine even starts.
        let boot = telemetry.span(
            SpanCat::Pilot,
            "bootstrap",
            SpanId::NONE,
            track::PILOT,
            Stamp::virt(SimTime::ZERO),
            &[],
        );
        telemetry.end(boot, Stamp::virt(SimTime::ZERO + config.bootstrap));
        let telemetry_handle = telemetry.clone();
        let shared = Rc::new(RefCell::new(Shared {
            scheduler: Scheduler::new_cluster(config.cluster(), config.policy),
            profiler: Profiler::new_cluster(config.node.cores, config.node.gpus, config.nodes),
            breakdown: PhaseBreakdown {
                bootstrap: config.bootstrap,
                ..Default::default()
            },
            pending: HashMap::new(),
            running: HashMap::new(),
            completions: VecDeque::new(),
            in_flight: 0,
            exec_setup: config.exec_setup_per_task,
            bootstrapped: false,
            faults,
            retry,
            backoff_rng,
            deadline,
            held: Vec::new(),
            place_event_pending: false,
            telemetry,
            spans: HashMap::new(),
            hedge,
            quarantine,
            slow,
            estimates: HashMap::new(),
            hedge_running: HashMap::new(),
            failed_nodes: HashMap::new(),
            shape_poison: HashMap::new(),
            control,
            cstats: ControlStats::default(),
            last_heard: vec![SimTime::ZERO; config.nodes as usize],
            suspected: vec![false; config.nodes as usize],
            crashed: vec![false; config.nodes as usize],
            hb_seq: vec![0; config.nodes as usize],
            hb_live: false,
            seen: HashSet::new(),
        }));
        let mut engine = Engine::new();
        // Bootstrap completion event: mark ready and place anything queued.
        let s = shared.clone();
        engine.schedule_in(config.bootstrap, move |eng| {
            s.borrow_mut().bootstrapped = true;
            Self::place_ready(&s, eng);
        });
        // Realize the node crash/recover schedule as engine events. The
        // fault-free plan yields no windows, so this adds nothing.
        for node in 0..config.nodes {
            let windows = shared.borrow().faults.crash_windows(node);
            for (crash_at, recover_at) in windows {
                let s = shared.clone();
                engine.schedule_at(crash_at, move |eng| Self::node_crash(&s, eng, node));
                let s = shared.clone();
                engine.schedule_at(recover_at, move |eng| Self::node_recover(&s, eng, node));
            }
        }
        SimulatedBackend {
            engine,
            shared,
            config,
            next_id: 0,
            telemetry: telemetry_handle,
        }
    }

    /// Test support: run what is left of the current instant. This engine
    /// hands a completion back between two events of one instant, the
    /// sharded engine only between instants; a differential test calls
    /// this on a drained backend before it submits into it or reads its
    /// counters, so that both are observed at the same boundary.
    #[cfg(test)]
    pub(crate) fn finish_instant(&mut self) {
        let now = self.engine.now();
        self.engine.run_until(now);
    }

    /// The pilot configuration this backend runs.
    pub fn config(&self) -> &PilotConfig {
        &self.config
    }

    /// Place every task the scheduler allows, wiring up setup + completion
    /// events for each placement. The fault plan decides each attempt's
    /// outcome *at placement*: the single scheduled event either finishes
    /// the task (running its work) or ends a doomed attempt early/late.
    fn place_ready(shared: &Rc<RefCell<Shared>>, engine: &mut Engine) {
        let placements = {
            let mut sh = shared.borrow_mut();
            if !sh.bootstrapped {
                return;
            }
            let queued = sh.scheduler.queue_len();
            let placements = sh.scheduler.place_ready();
            if sh.telemetry.enabled() && queued > 0 {
                let tele = sh.telemetry.clone();
                let at = Stamp::virt(engine.now());
                let round = tele.span(
                    SpanCat::Scheduler,
                    "placement-round",
                    SpanId::NONE,
                    track::SCHED,
                    at,
                    &[
                        ("queued", queued as i64),
                        ("placed", placements.len() as i64),
                    ],
                );
                tele.end(round, at);
                tele.count("placement_rounds", 1);
                tele.gauge("queue_depth", sh.scheduler.queue_len() as f64);
            }
            placements
        };
        // Placements that hand their slots straight back mid-round (deadline
        // holds, shape sheds) can strand later queue entries: the freed
        // frontier is never re-scanned. Without the control plane that gap
        // is benign — the event queue drains and the run ends — and fixing
        // it would break byte-identity with the pre-control engine. With
        // the plane on, the heartbeat chain keeps the queue alive forever,
        // so a stranded entry would livelock termination; re-scan below.
        let mut stranded = false;
        for (id, mut alloc) in placements {
            let now = engine.now();
            // Quarantine: an open shape circuit breaker sheds the whole
            // shape class at the placement grant — the slots go straight
            // back and the lineage ends with a typed error instead of
            // burning a retry ladder on a poisoned shape.
            {
                let mut sh = shared.borrow_mut();
                let request = sh.pending.get(&id.0).expect("placed task exists").request;
                let shape = (request.cores, request.gpus);
                let tripped = match sh.quarantine {
                    Some(q) if q.shape_trip > 0 => {
                        sh.shape_poison.get(&shape).copied().unwrap_or(0) >= q.shape_trip
                    }
                    _ => false,
                };
                if tripped {
                    stranded = true;
                    sh.scheduler.release_owned(alloc);
                    let mut task = sh.pending.remove(&id.0).expect("placed task exists");
                    task.state.advance(TaskState::Failed);
                    sh.in_flight -= 1;
                    if sh.telemetry.enabled() {
                        let tele = sh.telemetry.clone();
                        let at = Stamp::virt(now);
                        if let Some(spans) = sh.spans.remove(&id.0) {
                            tele.end(spans.queue, at);
                            tele.instant(
                                SpanCat::Quarantine,
                                "shape-shed",
                                spans.task,
                                track::task(id.0),
                                at,
                                &[
                                    ("cores", request.cores as i64),
                                    ("gpus", request.gpus as i64),
                                ],
                            );
                            tele.end(spans.task, at);
                        }
                        tele.count("tasks_shed", 1);
                        tele.gauge("in_flight", sh.in_flight as f64);
                    }
                    let attempts = task.attempts;
                    sh.completions.push_back(Completion {
                        task: id,
                        name: task.name,
                        tag: task.tag,
                        result: Err(TaskError::ShapeCircuitOpen {
                            cores: request.cores,
                            gpus: request.gpus,
                        }),
                        started: now,
                        finished: now,
                        attempts,
                        hedged: task.hedged,
                    });
                    continue;
                }
                // Retry steering: a retried attempt granted a node the task
                // already failed on is re-homed when any other node has
                // capacity. The alternative is claimed *before* the original
                // grant is released, so the two can never alias; with no
                // alternative the original grant is kept (a suspect node
                // beats no node).
                if sh.quarantine.is_some() {
                    let avoid = sh.failed_nodes.get(&id.0).cloned().unwrap_or_default();
                    if avoid.contains(&alloc.node) {
                        if let Some(alt) = sh.scheduler.alloc_avoiding(&request, &avoid) {
                            let original = std::mem::replace(&mut alloc, alt);
                            sh.scheduler.release_owned(original);
                        }
                    }
                }
            }
            let (outcome, span, setup, attempt) = {
                let mut sh = shared.borrow_mut();
                let base_setup = sh.exec_setup;
                let attempts = sh
                    .pending
                    .get(&id.0)
                    .map(|t| t.attempts)
                    .expect("placed task exists");
                let fault = sh.faults.attempt_fault(id.0, attempts);
                let hang_factor = sh.faults.config().hang_factor;
                // The span is modeled before any state is mutated, so a
                // deadline hold leaves the task untouched.
                let (kind, duration, task_walltime) = {
                    let task = sh.pending.get(&id.0).expect("placed task exists");
                    (task.kind, task.duration, task.walltime)
                };
                let setup = base_setup.saturating_add(kind.launch_overhead());
                let mut run = duration;
                if fault == AttemptFault::Hang {
                    run = run.mul_f64(hang_factor);
                }
                let total = setup.saturating_add(run);
                // Degraded-node dilation: work overlapping one of the node's
                // slowdown windows takes `factor`× longer while inside it.
                // Without configured slowdowns every schedule is empty and
                // this is an exact identity.
                let total = dilate_span(&sh.slow[alloc.node as usize], now, total);
                // Walltime counts from slot grant and wins over other faults.
                let (outcome, span) = match task_walltime {
                    Some(limit) if limit < total => (Err(TaskError::TimedOut { limit }), limit),
                    _ => match fault {
                        AttemptFault::Transient => (Err(TaskError::Injected), total),
                        _ => (Ok(()), total),
                    },
                };
                // Walltime-aware drain: an attempt that cannot finish inside
                // the allocation deadline is held, not launched. Its slots go
                // back to the pool (in-flight peers may still use them) and it
                // stays pending — held, never re-placed, never completed.
                if sh.deadline.is_some_and(|d| now + span > d) {
                    stranded = true;
                    sh.scheduler.release_owned(alloc);
                    sh.held.push(id.0);
                    if sh.telemetry.enabled() {
                        let tele = sh.telemetry.clone();
                        let at = Stamp::virt(now);
                        if let Some(spans) = sh.spans.get(&id.0).copied() {
                            tele.end(spans.queue, at);
                            tele.instant(
                                SpanCat::Task,
                                "held",
                                spans.task,
                                track::task(id.0),
                                at,
                                &[],
                            );
                        }
                        tele.count("tasks_held", 1);
                    }
                    continue;
                }
                sh.pending
                    .get_mut(&id.0)
                    .expect("placed task exists")
                    .state
                    .advance(TaskState::ExecSetup);
                sh.profiler.task_started(&alloc, now);
                if sh.telemetry.enabled() {
                    let tele = sh.telemetry.clone();
                    let at = Stamp::virt(now);
                    if let Some(spans) = sh.spans.get(&id.0).copied() {
                        tele.end(spans.queue, at);
                        tele.observe(
                            "queue_wait_seconds",
                            0.0,
                            14_400.0,
                            48,
                            now.since(spans.queued_at).as_secs_f64(),
                        );
                        let attempt_span = tele.span(
                            SpanCat::Attempt,
                            "attempt",
                            spans.task,
                            track::task(id.0),
                            at,
                            &[("attempt", attempts as i64), ("node", alloc.node as i64)],
                        );
                        sh.spans.get_mut(&id.0).expect("span entry").attempt = attempt_span;
                    }
                    tele.count("placements", 1);
                }
                (outcome, span, setup, attempts)
            };
            // Under the control plane the node's completion report is sent
            // at the attempt's modeled finish and *routed*: it settles at
            // its (at-least-once) delivery instant, where the lease fence
            // and dedup set decide whether its effects apply. Without the
            // plane the report is the completion — the event fires at the
            // finish instant exactly as before.
            let routed = {
                let mut sh = shared.borrow_mut();
                Self::route(
                    &mut sh,
                    "done",
                    msg_key(id.0, attempt),
                    Some(alloc.node),
                    now + span,
                )
            };
            let handle = match routed {
                Some((primary, duplicate)) => {
                    let s = shared.clone();
                    let out = outcome.clone();
                    let handle = engine.schedule_at(primary, move |eng| {
                        Self::deliver_done(&s, eng, id, attempt, out, setup)
                    });
                    if let Some(dup_at) = duplicate {
                        let s = shared.clone();
                        let out = outcome.clone();
                        engine.schedule_at(dup_at, move |eng| {
                            Self::deliver_done(&s, eng, id, attempt, out, setup)
                        });
                    }
                    handle
                }
                None => {
                    let s = shared.clone();
                    engine.schedule_in(span, move |eng| {
                        let at = eng.now();
                        // The record always exists when this event fires: eviction
                        // (node crash) cancels the handle before removing it, so a
                        // fired completion implies a live RunningAttempt. Taking it
                        // back here lets the allocation's id buffers be recycled
                        // instead of cloned per event.
                        let run = s
                            .borrow_mut()
                            .running
                            .remove(&id.0)
                            .expect("completion fired for a task no longer running");
                        // A live hedge duplicate lost the race to this settlement
                        // (or shares the attempt's failure): cancel it first.
                        Self::settle_hedge_loser(&s, eng, id, true);
                        match outcome {
                            Ok(()) => {
                                let warmed =
                                    s.borrow_mut().finish_task(id, run.alloc, now, at, setup);
                                if let Some(shape) = warmed {
                                    Self::arm_warm_hedges(&s, eng, shape);
                                }
                            }
                            Err(err) => {
                                let node = run.alloc.node;
                                {
                                    let mut sh = s.borrow_mut();
                                    sh.profiler.attempt_wasted(&run.alloc, now, at);
                                    sh.scheduler.release_owned(run.alloc);
                                }
                                Self::fail_attempt(&s, eng, id, err, now, node);
                            }
                        }
                        Self::place_ready(&s, eng);
                    })
                }
            };
            shared.borrow_mut().running.insert(
                id.0,
                RunningAttempt {
                    handle,
                    alloc,
                    started: now,
                    attempt,
                },
            );
            // Hedge arming: once the shape class has a runtime estimate, an
            // attempt still running past k× that estimate gets a duplicate.
            // The check is armed only when it could fire before the modeled
            // completion — estimate-free shapes fall back to the attempt's
            // own span (threshold = k × span ≥ span), so they never arm and
            // the hedging-off path schedules nothing at all.
            let hedge_arm = {
                let sh = shared.borrow();
                sh.hedge.and_then(|policy| {
                    let task = sh.pending.get(&id.0).expect("placed task exists");
                    let shape = (task.request.cores, task.request.gpus);
                    let threshold = sh
                        .hedge_estimate(shape, span, policy.min_samples)
                        .mul_f64(policy.threshold);
                    (threshold < span).then(|| (threshold, task.attempts))
                })
            };
            if let Some((delay, attempt)) = hedge_arm {
                let s = shared.clone();
                engine.schedule_in(delay, move |eng| Self::hedge_check(&s, eng, id, attempt));
            }
        }
        // See `stranded` above: each recursion either holds, sheds or
        // places at least one queued task, so the depth is bounded by the
        // queue length.
        if stranded && shared.borrow().control.is_some() {
            Self::place_ready(shared, engine);
        }
    }

    /// Route a control message through the plane: `Some((primary,
    /// duplicate))` arrival instants with delivery stats booked, or `None`
    /// when the plane is off and the caller must take its direct
    /// (pre-control-plane) path.
    fn route(
        sh: &mut Shared,
        label: &str,
        key: u64,
        node: Option<u32>,
        sent: SimTime,
    ) -> Option<(SimTime, Option<SimTime>)> {
        let cp = sh.control.as_ref()?;
        let d = cp.deliveries(label, key, node, sent);
        sh.cstats.messages += 1;
        sh.cstats.retransmits += u64::from(d.transmissions.saturating_sub(1));
        if d.duplicate.is_some() {
            sh.cstats.duplicates += 1;
        }
        Some((d.primary, d.duplicate))
    }

    /// At-least-once meets exactly-once: the first arrival of a message
    /// identity claims it and applies; a repeat arrival is absorbed here.
    /// Returns true when this arrival is the duplicate.
    fn dedup(shared: &Rc<RefCell<Shared>>, id: TaskId, attempt: u32, kind: u8, at: SimTime) -> bool {
        let mut sh = shared.borrow_mut();
        if sh.seen.insert((id.0, attempt, kind)) {
            return false;
        }
        sh.cstats.dedup_hits += 1;
        if sh.telemetry.enabled() {
            let owner = sh.spans.get(&id.0).map(|s| s.task).unwrap_or(SpanId::NONE);
            sh.telemetry.instant(
                SpanCat::Control,
                "dedup-hit",
                owner,
                track::task(id.0),
                Stamp::virt(at),
                &[("attempt", attempt as i64), ("kind", kind as i64)],
            );
            sh.telemetry.count("dedup_hits", 1);
        }
        true
    }

    /// Book a fenced completion: a report whose lease epoch no longer
    /// matches the coordinator's record (the attempt was evicted and
    /// superseded). Its effects are discarded — the core of the
    /// no-split-brain guarantee.
    fn fence(sh: &mut Shared, id: TaskId, attempt: u32, at: SimTime) {
        sh.cstats.fenced_completions += 1;
        if sh.telemetry.enabled() {
            let owner = sh.spans.get(&id.0).map(|s| s.task).unwrap_or(SpanId::NONE);
            sh.telemetry.instant(
                SpanCat::Control,
                "fenced-completion",
                owner,
                track::task(id.0),
                Stamp::virt(at),
                &[("attempt", attempt as i64)],
            );
            sh.telemetry.count("fenced_completions", 1);
        }
    }

    /// Arrival of a completion report at the coordinator (control plane
    /// on). The dedup set makes duplicated reports apply once; the lease
    /// fence turns away reports whose epoch was superseded by a
    /// suspicion eviction.
    fn deliver_done(
        shared: &Rc<RefCell<Shared>>,
        engine: &mut Engine,
        id: TaskId,
        attempt: u32,
        outcome: Result<(), TaskError>,
        setup: SimDuration,
    ) {
        let at = engine.now();
        if Self::dedup(shared, id, attempt, MSG_DONE, at) {
            return;
        }
        let run = {
            let mut sh = shared.borrow_mut();
            if sh.running.get(&id.0).is_some_and(|r| r.attempt == attempt) {
                sh.running.remove(&id.0)
            } else {
                Self::fence(&mut sh, id, attempt, at);
                None
            }
        };
        let Some(run) = run else {
            return;
        };
        // A live hedge duplicate lost the race to this settlement.
        Self::settle_hedge_loser(shared, engine, id, true);
        match outcome {
            Ok(()) => {
                let warmed = shared
                    .borrow_mut()
                    .finish_task(id, run.alloc, run.started, at, setup);
                if let Some(shape) = warmed {
                    Self::arm_warm_hedges(shared, engine, shape);
                }
            }
            Err(err) => {
                let node = run.alloc.node;
                {
                    let mut sh = shared.borrow_mut();
                    sh.profiler.attempt_wasted(&run.alloc, run.started, at);
                    sh.scheduler.release_owned(run.alloc);
                }
                Self::fail_attempt(shared, engine, id, err, run.started, node);
            }
        }
        Self::place_ready(shared, engine);
    }

    /// Arrival of a submit command at the coordinator (control plane on):
    /// the task enters the scheduler queue here, not at the client call.
    fn deliver_submit(
        shared: &Rc<RefCell<Shared>>,
        engine: &mut Engine,
        id: TaskId,
        request: ResourceRequest,
        priority: i32,
    ) {
        if Self::dedup(shared, id, 0, MSG_SUBMIT, engine.now()) {
            return;
        }
        {
            let mut sh = shared.borrow_mut();
            sh.scheduler.enqueue_with_priority(id, request, priority);
            if sh.telemetry.enabled() {
                sh.telemetry
                    .gauge("queue_depth", sh.scheduler.queue_len() as f64);
            }
        }
        Self::place_ready(shared, engine);
    }

    /// Arrival of a retry verdict (control plane on): requeue the task for
    /// its next attempt. Duplicated verdicts requeue once.
    fn deliver_retry(
        shared: &Rc<RefCell<Shared>>,
        engine: &mut Engine,
        id: TaskId,
        attempt: u32,
        request: ResourceRequest,
        priority: i32,
    ) {
        if Self::dedup(shared, id, attempt, MSG_RETRY, engine.now()) {
            return;
        }
        {
            let mut sh = shared.borrow_mut();
            sh.scheduler.enqueue_with_priority(id, request, priority);
            if sh.telemetry.enabled() {
                let tele = sh.telemetry.clone();
                let at = Stamp::virt(engine.now());
                if let Some(spans) = sh.spans.get(&id.0).copied() {
                    let queue = tele.span(
                        SpanCat::Queue,
                        "queue",
                        spans.task,
                        track::task(id.0),
                        at,
                        &[("attempt", attempt as i64)],
                    );
                    let entry = sh.spans.get_mut(&id.0).expect("span entry");
                    entry.queue = queue;
                    entry.queued_at = engine.now();
                }
                tele.gauge("queue_depth", sh.scheduler.queue_len() as f64);
            }
        }
        Self::place_ready(shared, engine);
    }

    /// Arrival of a cancel acknowledgment at the client (control plane
    /// on): the terminal `Canceled` completion surfaces here.
    #[allow(clippy::too_many_arguments)]
    fn deliver_cancel(
        shared: &Rc<RefCell<Shared>>,
        engine: &mut Engine,
        id: TaskId,
        attempts: u32,
        name: String,
        tag: String,
        hedged: bool,
    ) {
        let at = engine.now();
        if Self::dedup(shared, id, attempts, MSG_CANCEL, at) {
            return;
        }
        let mut sh = shared.borrow_mut();
        sh.in_flight -= 1;
        if sh.telemetry.enabled() {
            sh.telemetry.gauge("in_flight", sh.in_flight as f64);
        }
        sh.completions.push_back(Completion {
            task: id,
            name,
            tag,
            result: Err(TaskError::Canceled),
            started: at,
            finished: at,
            attempts,
            hedged,
        });
    }

    /// Arrival of a hedge duplicate's completion report (control plane
    /// on): the routed twin of [`SimulatedBackend::hedge_win`], with the
    /// same dedup/fence discipline as main-attempt reports.
    fn deliver_hedge(
        shared: &Rc<RefCell<Shared>>,
        engine: &mut Engine,
        id: TaskId,
        attempt: u32,
        setup: SimDuration,
    ) {
        let at = engine.now();
        if Self::dedup(shared, id, attempt, MSG_HEDGE, at) {
            return;
        }
        let hedge = {
            let mut sh = shared.borrow_mut();
            if sh
                .hedge_running
                .get(&id.0)
                .is_some_and(|h| h.attempt == attempt)
            {
                sh.hedge_running.remove(&id.0)
            } else {
                Self::fence(&mut sh, id, attempt, at);
                None
            }
        };
        let Some(hedge) = hedge else {
            return;
        };
        let main = shared.borrow_mut().running.remove(&id.0);
        let Some(main) = main else {
            // No live main to rescue (it was evicted between the hedge's
            // finish and this delivery): book the duplicate as waste. The
            // freed slots can admit queued work, so re-scan.
            {
                let mut sh = shared.borrow_mut();
                sh.profiler.attempt_hedge_wasted(&hedge.alloc, hedge.started, at);
                sh.scheduler.release_owned(hedge.alloc);
                Self::fence(&mut sh, id, attempt, at);
            }
            Self::place_ready(shared, engine);
            return;
        };
        engine.cancel(main.handle);
        {
            let mut sh = shared.borrow_mut();
            sh.profiler.attempt_hedge_wasted(&main.alloc, main.started, at);
            sh.scheduler.release_owned(main.alloc);
            if sh.telemetry.enabled() {
                let tele = sh.telemetry.clone();
                let owner = sh.spans.get(&id.0).map(|s| s.attempt).unwrap_or(SpanId::NONE);
                tele.instant(
                    SpanCat::Hedge,
                    "hedge-win",
                    owner,
                    track::task(id.0),
                    Stamp::virt(at),
                    &[("node", hedge.alloc.node as i64)],
                );
                tele.count("hedge_wins", 1);
            }
        }
        let warmed = shared
            .borrow_mut()
            .finish_task(id, hedge.alloc, hedge.started, at, setup);
        if let Some(shape) = warmed {
            Self::arm_warm_hedges(shared, engine, shape);
        }
        Self::place_ready(shared, engine);
    }

    /// (Re)start heartbeat chains under an active failure detector.
    /// Chains run only while work is in flight — each node's chain retires
    /// itself at the first tick with an idle coordinator — so a drained
    /// run still exhausts its event queue.
    fn ensure_heartbeats(shared: &Rc<RefCell<Shared>>, engine: &mut Engine) {
        let start = {
            let mut sh = shared.borrow_mut();
            let Some(cp) = &sh.control else {
                return;
            };
            let link = cp.link();
            let (Some(interval), Some(_)) = (link.heartbeat_interval, link.heartbeat_timeout)
            else {
                return;
            };
            if sh.hb_live {
                return;
            }
            sh.hb_live = true;
            let now = engine.now();
            // A (re)started detector grants every node a fresh grace
            // period — nothing can be suspected for silence that predates
            // the detector.
            for t in sh.last_heard.iter_mut() {
                *t = now;
            }
            (interval, sh.last_heard.len() as u32)
        };
        let (interval, nodes) = start;
        for node in 0..nodes {
            let s = shared.clone();
            engine.schedule_in(interval, move |eng| Self::heartbeat_send(&s, eng, node));
        }
    }

    /// One heartbeat tick for `node`: draw the seeded delivery verdict,
    /// schedule the arrival (if any), the suspicion check one timeout out,
    /// and the next tick one interval out — in that order on both
    /// deterministic engines.
    fn heartbeat_send(shared: &Rc<RefCell<Shared>>, engine: &mut Engine, node: u32) {
        let now = engine.now();
        let tick = {
            let mut sh = shared.borrow_mut();
            if sh.in_flight == 0 {
                sh.hb_live = false;
                return;
            }
            let Some(cp) = &sh.control else {
                return;
            };
            let link = cp.link();
            let (Some(interval), Some(timeout)) = (link.heartbeat_interval, link.heartbeat_timeout)
            else {
                return;
            };
            let seq = sh.hb_seq[node as usize];
            // A crashed node emits nothing this tick; the schedule keeps
            // ticking so heartbeats resume the instant it recovers.
            let sent = !sh.crashed[node as usize];
            let arrive = if sent {
                cp.best_effort("hb", (u64::from(node) << 32) | seq, node, now)
            } else {
                None
            };
            sh.hb_seq[node as usize] += 1;
            if sent {
                sh.cstats.heartbeats_sent += 1;
                if arrive.is_some() {
                    sh.cstats.heartbeats_delivered += 1;
                }
            }
            (arrive, interval, timeout)
        };
        let (arrive, interval, timeout) = tick;
        if let Some(at) = arrive {
            let s = shared.clone();
            engine.schedule_at(at, move |eng| Self::heartbeat_arrive(&s, eng, node));
        }
        let s = shared.clone();
        engine.schedule_in(timeout, move |eng| Self::suspect_check(&s, eng, node));
        let s = shared.clone();
        engine.schedule_in(interval, move |eng| Self::heartbeat_send(&s, eng, node));
    }

    /// A heartbeat reached the coordinator: refresh the node's liveness
    /// and, if it was falsely suspected (partition, dropped heartbeats),
    /// resync — re-admit the node to placement.
    fn heartbeat_arrive(shared: &Rc<RefCell<Shared>>, engine: &mut Engine, node: u32) {
        let now = engine.now();
        let resynced = {
            let mut sh = shared.borrow_mut();
            sh.last_heard[node as usize] = now;
            if sh.suspected[node as usize] && !sh.crashed[node as usize] {
                sh.suspected[node as usize] = false;
                sh.cstats.resyncs += 1;
                sh.scheduler.recover_node(node);
                if sh.telemetry.enabled() {
                    sh.telemetry.instant(
                        SpanCat::Control,
                        "resync",
                        SpanId::NONE,
                        track::FAULT,
                        Stamp::virt(now),
                        &[("node", node as i64)],
                    );
                    sh.telemetry.count("resyncs", 1);
                }
                true
            } else {
                false
            }
        };
        if resynced {
            Self::place_ready(shared, engine);
        }
    }

    /// Timeout check armed one heartbeat-timeout after each send: if the
    /// node has been silent for a full timeout, declare it suspect.
    fn suspect_check(shared: &Rc<RefCell<Shared>>, engine: &mut Engine, node: u32) {
        let now = engine.now();
        let fire = {
            let sh = shared.borrow();
            let Some(cp) = &sh.control else {
                return;
            };
            let Some(timeout) = cp.link().heartbeat_timeout else {
                return;
            };
            sh.in_flight > 0
                && !sh.suspected[node as usize]
                && sh.scheduler.node_is_up(node)
                && sh.last_heard[node as usize] + timeout <= now
        };
        if fire {
            Self::suspect_node(shared, engine, node);
        }
    }

    /// Declare `node` suspect: stop placing on it, and evict its resident
    /// attempts — their leases are expired, so each requeues (consuming a
    /// retry) while its eventual late report is fenced out by epoch. The
    /// node-side events are *not* canceled: a falsely suspected node is
    /// healthy and its reports genuinely arrive.
    fn suspect_node(shared: &Rc<RefCell<Shared>>, engine: &mut Engine, node: u32) {
        let now = engine.now();
        let victims: Vec<(u64, RunningAttempt)> = {
            let mut sh = shared.borrow_mut();
            sh.suspected[node as usize] = true;
            sh.cstats.suspicions += 1;
            let mut ids: Vec<u64> = sh
                .running
                .iter()
                .filter(|(_, r)| r.alloc.node == node)
                .map(|(&i, _)| i)
                .collect();
            ids.sort_unstable();
            sh.scheduler.drain_node(node);
            if sh.telemetry.enabled() {
                sh.telemetry.instant(
                    SpanCat::Control,
                    "suspect",
                    SpanId::NONE,
                    track::FAULT,
                    Stamp::virt(now),
                    &[("node", node as i64)],
                );
                sh.telemetry.count("suspicions", 1);
            }
            ids.into_iter()
                .map(|i| {
                    let r = sh.running.remove(&i).expect("victim is running");
                    (i, r)
                })
                .collect()
        };
        // Hedge duplicates resident on the suspected node forfeit their
        // slots exactly as under a crash (the drained pool is rebuilt).
        {
            let mut hedge_ids: Vec<u64> = shared
                .borrow()
                .hedge_running
                .iter()
                .filter(|(_, r)| r.alloc.node == node)
                .map(|(&i, _)| i)
                .collect();
            hedge_ids.sort_unstable();
            for i in hedge_ids {
                Self::settle_hedge_loser(shared, engine, TaskId(i), false);
            }
        }
        for (id, run) in victims {
            Self::settle_hedge_loser(shared, engine, TaskId(id), true);
            {
                let mut sh = shared.borrow_mut();
                sh.cstats.lease_expiries += 1;
                sh.profiler.attempt_wasted(&run.alloc, run.started, now);
                if sh.telemetry.enabled() {
                    let owner = sh.spans.get(&id).map(|s| s.attempt).unwrap_or(SpanId::NONE);
                    sh.telemetry.instant(
                        SpanCat::Control,
                        "lease-expired",
                        owner,
                        track::task(id),
                        Stamp::virt(now),
                        &[("node", node as i64), ("attempt", run.attempt as i64)],
                    );
                    sh.telemetry.count("lease_expiries", 1);
                }
            }
            Self::fail_attempt(
                shared,
                engine,
                TaskId(id),
                TaskError::LeaseExpired { node },
                run.started,
                node,
            );
        }
    }

    /// A shape class's runtime estimate just became usable: attempts of
    /// the shape placed while it was cold fell back to their own span
    /// (threshold ≥ span) and were never armed, so a first-wave straggler
    /// would otherwise run unhedged forever. Arm a check for every running
    /// attempt of the shape at the instant its elapsed time crosses the
    /// threshold. Checks re-validate at fire time, so arming is idempotent;
    /// ids are sorted for a deterministic event order across engines.
    fn arm_warm_hedges(shared: &Rc<RefCell<Shared>>, engine: &mut Engine, shape: (u32, u32)) {
        let now = engine.now();
        let arms = {
            let sh = shared.borrow();
            let Some(policy) = sh.hedge else {
                return;
            };
            let threshold = sh
                .hedge_estimate(shape, SimDuration::ZERO, policy.min_samples)
                .mul_f64(policy.threshold);
            if threshold == SimDuration::ZERO {
                return;
            }
            let mut arms: Vec<(u64, SimDuration, u32)> = sh
                .running
                .iter()
                .filter_map(|(&id, run)| {
                    let task = sh.pending.get(&id)?;
                    if (task.request.cores, task.request.gpus) != shape
                        || sh.hedge_running.contains_key(&id)
                    {
                        return None;
                    }
                    let elapsed = now.since(run.started);
                    let wait = threshold.as_micros().saturating_sub(elapsed.as_micros());
                    Some((id, SimDuration::from_micros(wait.max(1)), task.attempts))
                })
                .collect();
            arms.sort_unstable_by_key(|&(id, _, _)| id);
            arms
        };
        for (id, delay, attempt) in arms {
            let s = shared.clone();
            engine.schedule_in(delay, move |eng| Self::hedge_check(&s, eng, TaskId(id), attempt));
        }
    }

    /// A hedge-check event: if the attempt it was armed for is still
    /// running, place a speculative duplicate on a different node. The
    /// duplicate models a clean run — it draws *no* randomness, so the
    /// fault stream is identical with and without hedging — and whichever
    /// copy settles first wins; the loser's occupancy is booked as hedge
    /// waste.
    fn hedge_check(shared: &Rc<RefCell<Shared>>, engine: &mut Engine, id: TaskId, attempt: u32) {
        let now = engine.now();
        let Some(policy) = shared.borrow().hedge else {
            return;
        };
        // Re-validate: the attempt may have settled or been superseded by a
        // retry since the check was armed, or an earlier re-arm already
        // placed a duplicate.
        let probe = {
            let sh = shared.borrow();
            match (sh.running.get(&id.0), sh.pending.get(&id.0)) {
                (Some(run), Some(task))
                    if task.attempts == attempt && !sh.hedge_running.contains_key(&id.0) =>
                {
                    Some((task.request, run.alloc.node, task.kind, task.duration, task.walltime))
                }
                _ => None,
            }
        };
        let Some((request, main_node, kind, duration, walltime)) = probe else {
            return;
        };
        let setup = shared
            .borrow()
            .exec_setup
            .saturating_add(kind.launch_overhead());
        // A node where the duplicate's own modeled span would cross the
        // straggler threshold cannot rescue anyone — a copy racing at the
        // same degraded pace loses to its head start. Skip such nodes (the
        // freed cores of an already-rescued straggler's node are the common
        // case) and keep probing the next-best allocation.
        let threshold = shared
            .borrow()
            .hedge_estimate(
                (request.cores, request.gpus),
                setup.saturating_add(duration),
                policy.min_samples,
            )
            .mul_f64(policy.threshold);
        let mut avoid = vec![main_node];
        let (alloc, span) = loop {
            let alloc = shared
                .borrow_mut()
                .scheduler
                .alloc_avoiding(&request, &avoid);
            let Some(alloc) = alloc else {
                // No useful capacity off the straggler's node: re-arm after
                // roughly one estimated runtime instead of polling every
                // event.
                let est = shared.borrow().hedge_estimate(
                    (request.cores, request.gpus),
                    SimDuration::from_micros(1),
                    policy.min_samples,
                );
                let delay = std::cmp::max(est, SimDuration::from_micros(1));
                let s = shared.clone();
                engine.schedule_in(delay, move |eng| Self::hedge_check(&s, eng, id, attempt));
                return;
            };
            let span = {
                let sh = shared.borrow();
                dilate_span(&sh.slow[alloc.node as usize], now, setup.saturating_add(duration))
            };
            if span > threshold {
                avoid.push(alloc.node);
                shared.borrow_mut().scheduler.release_owned(alloc);
                continue;
            }
            break (alloc, span);
        };
        if walltime.is_some_and(|limit| limit < span) {
            // The duplicate could only time out on its own walltime — not a
            // useful hedge. Give the slots back and stand down.
            shared.borrow_mut().scheduler.release_owned(alloc);
            return;
        }
        {
            let mut sh = shared.borrow_mut();
            sh.pending
                .get_mut(&id.0)
                .expect("hedged task has a record")
                .hedged = true;
            sh.profiler.note_hedge();
            sh.profiler.task_started(&alloc, now);
            if sh.telemetry.enabled() {
                let tele = sh.telemetry.clone();
                let owner = sh.spans.get(&id.0).map(|s| s.attempt).unwrap_or(SpanId::NONE);
                tele.instant(
                    SpanCat::Hedge,
                    "hedge-place",
                    owner,
                    track::task(id.0),
                    Stamp::virt(now),
                    &[("attempt", attempt as i64), ("node", alloc.node as i64)],
                );
                tele.count("hedges", 1);
            }
        }
        // The hedge's completion report routes exactly like the main
        // attempt's (same link, same fence/dedup discipline).
        let routed = {
            let mut sh = shared.borrow_mut();
            Self::route(
                &mut sh,
                "hedge",
                msg_key(id.0, attempt),
                Some(alloc.node),
                now + span,
            )
        };
        let handle = match routed {
            Some((primary, duplicate)) => {
                let s = shared.clone();
                let handle = engine.schedule_at(primary, move |eng| {
                    Self::deliver_hedge(&s, eng, id, attempt, setup)
                });
                if let Some(dup_at) = duplicate {
                    let s = shared.clone();
                    engine.schedule_at(dup_at, move |eng| {
                        Self::deliver_hedge(&s, eng, id, attempt, setup)
                    });
                }
                handle
            }
            None => {
                let s = shared.clone();
                engine.schedule_in(span, move |eng| Self::hedge_win(&s, eng, id, setup))
            }
        };
        shared.borrow_mut().hedge_running.insert(
            id.0,
            RunningAttempt {
                handle,
                alloc,
                started: now,
                attempt,
            },
        );
    }

    /// A hedge duplicate finished first: cancel the straggling main
    /// attempt, book its occupancy as hedge waste, and complete the task
    /// from the duplicate's allocation.
    fn hedge_win(shared: &Rc<RefCell<Shared>>, engine: &mut Engine, id: TaskId, setup: SimDuration) {
        let at = engine.now();
        let hedge = shared
            .borrow_mut()
            .hedge_running
            .remove(&id.0)
            .expect("hedge completion fired for a live hedge");
        let main = shared
            .borrow_mut()
            .running
            .remove(&id.0)
            .expect("hedge won over a running main attempt");
        engine.cancel(main.handle);
        {
            let mut sh = shared.borrow_mut();
            sh.profiler.attempt_hedge_wasted(&main.alloc, main.started, at);
            sh.scheduler.release_owned(main.alloc);
            if sh.telemetry.enabled() {
                let tele = sh.telemetry.clone();
                let owner = sh.spans.get(&id.0).map(|s| s.attempt).unwrap_or(SpanId::NONE);
                tele.instant(
                    SpanCat::Hedge,
                    "hedge-win",
                    owner,
                    track::task(id.0),
                    Stamp::virt(at),
                    &[("node", hedge.alloc.node as i64)],
                );
                tele.count("hedge_wins", 1);
            }
        }
        let warmed = shared
            .borrow_mut()
            .finish_task(id, hedge.alloc, hedge.started, at, setup);
        if let Some(shape) = warmed {
            Self::arm_warm_hedges(shared, engine, shape);
        }
        Self::place_ready(shared, engine);
    }

    /// The main attempt settled (completed, failed, or was evicted) while a
    /// hedge duplicate was still in flight: cancel the duplicate and book
    /// its occupancy as hedge waste. `release` is false when the hedge's
    /// own node just crashed — the drained pool is rebuilt, so forfeited
    /// slots must not be released back into it.
    fn settle_hedge_loser(
        shared: &Rc<RefCell<Shared>>,
        engine: &mut Engine,
        id: TaskId,
        release: bool,
    ) {
        let hedge = shared.borrow_mut().hedge_running.remove(&id.0);
        let Some(hedge) = hedge else {
            return;
        };
        let at = engine.now();
        engine.cancel(hedge.handle);
        let node = hedge.alloc.node;
        let mut sh = shared.borrow_mut();
        sh.profiler.attempt_hedge_wasted(&hedge.alloc, hedge.started, at);
        if release {
            sh.scheduler.release_owned(hedge.alloc);
        }
        if sh.telemetry.enabled() {
            let tele = sh.telemetry.clone();
            let owner = sh.spans.get(&id.0).map(|s| s.attempt).unwrap_or(SpanId::NONE);
            tele.instant(
                SpanCat::Hedge,
                "hedge-lose",
                owner,
                track::task(id.0),
                Stamp::virt(at),
                &[("node", node as i64)],
            );
            tele.count("hedge_losses", 1);
        }
    }

    /// End a failed attempt: retry within budget (after backoff, via the
    /// requeue transition), or surface the error as a terminal completion.
    /// `node` is where the attempt failed (quarantine tracks distinct
    /// failing nodes per task). The attempt's slots must already be
    /// released/forfeited and its waste booked by the caller.
    fn fail_attempt(
        shared: &Rc<RefCell<Shared>>,
        engine: &mut Engine,
        id: TaskId,
        err: TaskError,
        started: SimTime,
        node: u32,
    ) {
        let now = engine.now();
        let mut sh = shared.borrow_mut();
        if sh.telemetry.enabled() {
            let tele = sh.telemetry.clone();
            let at = Stamp::virt(now);
            if let Some(spans) = sh.spans.get(&id.0).copied() {
                let fault = match &err {
                    TaskError::Injected => "fault-injected",
                    TaskError::TimedOut { .. } => "fault-timeout",
                    TaskError::NodeCrashed { .. } => "fault-crash",
                    TaskError::LeaseExpired { .. } => "fault-lease",
                    TaskError::WorkPanicked(_)
                    | TaskError::Canceled
                    | TaskError::Poisoned { .. }
                    | TaskError::ShapeCircuitOpen { .. } => "fault",
                };
                tele.instant(
                    SpanCat::Fault,
                    fault,
                    spans.attempt,
                    track::task(id.0),
                    at,
                    &[],
                );
                tele.end(spans.attempt, at);
            }
        }
        let retry = sh.retry;
        // Quarantine: record the failing node. A task failing on enough
        // *distinct* nodes is poisoned — the input, not the hardware, is
        // the likely culprit, and retrying it elsewhere is pure waste.
        let poisoned = match sh.quarantine {
            Some(q) => {
                let nodes = sh.failed_nodes.entry(id.0).or_default();
                if !nodes.contains(&node) {
                    nodes.push(node);
                }
                nodes.len() as u32 >= q.distinct_nodes
            }
            None => false,
        };
        let task = sh.pending.get_mut(&id.0).expect("failed task has a record");
        task.state.advance(TaskState::Executing);
        if !poisoned && task.attempts < retry.max_retries {
            task.attempts += 1;
            let attempt = task.attempts;
            task.state.advance(TaskState::Scheduling);
            let request = task.request;
            let priority = task.priority;
            sh.profiler.note_retry();
            sh.telemetry.count("retries", 1);
            let delay = retry.backoff(attempt, &mut sh.backoff_rng);
            // The retry verdict is a hub message sent once the backoff
            // elapses; under the control plane the requeue happens at its
            // delivery (duplicated verdicts requeue once via dedup).
            let routed = Self::route(&mut sh, "retry", msg_key(id.0, attempt), None, now + delay);
            drop(sh);
            match routed {
                Some((primary, duplicate)) => {
                    let s = shared.clone();
                    engine.schedule_at(primary, move |eng| {
                        Self::deliver_retry(&s, eng, id, attempt, request, priority)
                    });
                    if let Some(dup_at) = duplicate {
                        let s = shared.clone();
                        engine.schedule_at(dup_at, move |eng| {
                            Self::deliver_retry(&s, eng, id, attempt, request, priority)
                        });
                    }
                }
                None => {
                    let s = shared.clone();
                    engine.schedule_in(delay, move |eng| {
                        {
                            let mut sh = s.borrow_mut();
                            sh.scheduler.enqueue_with_priority(id, request, priority);
                            if sh.telemetry.enabled() {
                                let tele = sh.telemetry.clone();
                                let at = Stamp::virt(eng.now());
                                if let Some(spans) = sh.spans.get(&id.0).copied() {
                                    let queue = tele.span(
                                        SpanCat::Queue,
                                        "queue",
                                        spans.task,
                                        track::task(id.0),
                                        at,
                                        &[("attempt", attempt as i64)],
                                    );
                                    let entry = sh.spans.get_mut(&id.0).expect("span entry");
                                    entry.queue = queue;
                                    entry.queued_at = eng.now();
                                }
                                tele.gauge("queue_depth", sh.scheduler.queue_len() as f64);
                            }
                        }
                        Self::place_ready(&s, eng);
                    });
                }
            }
        } else {
            let mut task = sh.pending.remove(&id.0).expect("failed task has a record");
            task.state.advance(TaskState::Failed);
            sh.in_flight -= 1;
            let distinct = sh
                .failed_nodes
                .remove(&id.0)
                .map(|v| v.len() as u32)
                .unwrap_or(0);
            let err = if poisoned {
                // Poison verdict: bump the shape class's breaker count and
                // surface a typed terminal error.
                let shape = (task.request.cores, task.request.gpus);
                let count = {
                    let c = sh.shape_poison.entry(shape).or_insert(0);
                    *c += 1;
                    *c
                };
                if sh.telemetry.enabled() {
                    let tele = sh.telemetry.clone();
                    let at = Stamp::virt(now);
                    let owner = sh.spans.get(&id.0).map(|s| s.task).unwrap_or(SpanId::NONE);
                    tele.instant(
                        SpanCat::Quarantine,
                        "poisoned",
                        owner,
                        track::task(id.0),
                        at,
                        &[("distinct_nodes", distinct as i64)],
                    );
                    if sh
                        .quarantine
                        .is_some_and(|q| q.shape_trip > 0 && count == q.shape_trip)
                    {
                        tele.instant(
                            SpanCat::Quarantine,
                            "circuit-open",
                            SpanId::NONE,
                            track::FAULT,
                            at,
                            &[("cores", shape.0 as i64), ("gpus", shape.1 as i64)],
                        );
                    }
                    tele.count("tasks_poisoned", 1);
                }
                TaskError::Poisoned {
                    distinct_nodes: distinct,
                }
            } else {
                err
            };
            if sh.telemetry.enabled() {
                let tele = sh.telemetry.clone();
                let at = Stamp::virt(now);
                if let Some(spans) = sh.spans.remove(&id.0) {
                    tele.end(spans.task, at);
                }
                tele.count("tasks_failed", 1);
                tele.gauge("in_flight", sh.in_flight as f64);
            }
            sh.completions.push_back(Completion {
                task: id,
                name: task.name,
                tag: task.tag,
                result: Err(err),
                started,
                finished: now,
                attempts: task.attempts,
                hedged: task.hedged,
            });
        }
    }

    /// A node crash event: drain the node and evict its resident attempts.
    /// Victims forfeit their allocations (the drained pool is rebuilt, so
    /// nothing is released) and consume a retry attempt each.
    fn node_crash(shared: &Rc<RefCell<Shared>>, engine: &mut Engine, node: u32) {
        let victims: Vec<(u64, RunningAttempt)> = {
            let mut sh = shared.borrow_mut();
            // Sort victim ids: HashMap iteration order must not leak into
            // the deterministic event stream.
            let mut ids: Vec<u64> = sh
                .running
                .iter()
                .filter(|(_, r)| r.alloc.node == node)
                .map(|(&i, _)| i)
                .collect();
            ids.sort_unstable();
            sh.crashed[node as usize] = true;
            // A node already drained by a suspicion verdict stays drained;
            // draining twice would corrupt the pool.
            if !sh.suspected[node as usize] {
                sh.scheduler.drain_node(node);
            }
            ids.into_iter()
                .map(|i| {
                    let r = sh.running.remove(&i).expect("victim is running");
                    (i, r)
                })
                .collect()
        };
        let now = engine.now();
        {
            let sh = shared.borrow();
            if sh.telemetry.enabled() {
                sh.telemetry.instant(
                    SpanCat::Fault,
                    "node-crash",
                    SpanId::NONE,
                    track::FAULT,
                    Stamp::virt(now),
                    &[("node", node as i64)],
                );
                sh.telemetry.count("node_crashes", 1);
            }
        }
        // Hedge duplicates resident on the crashed node forfeit their
        // slots (the drained pool is rebuilt, so nothing is released), no
        // matter where their main attempt runs — the main keeps going.
        {
            let mut hedge_ids: Vec<u64> = shared
                .borrow()
                .hedge_running
                .iter()
                .filter(|(_, r)| r.alloc.node == node)
                .map(|(&i, _)| i)
                .collect();
            hedge_ids.sort_unstable();
            for i in hedge_ids {
                Self::settle_hedge_loser(shared, engine, TaskId(i), false);
            }
        }
        for (id, attempt) in victims {
            engine.cancel(attempt.handle);
            // A victim's surviving hedge (on a different node by
            // construction) is settled normally before the attempt fails.
            Self::settle_hedge_loser(shared, engine, TaskId(id), true);
            shared
                .borrow_mut()
                .profiler
                .attempt_wasted(&attempt.alloc, attempt.started, now);
            Self::fail_attempt(
                shared,
                engine,
                TaskId(id),
                TaskError::NodeCrashed { node },
                attempt.started,
                node,
            );
        }
    }

    /// A node recover event: re-admit the node and place waiting tasks.
    fn node_recover(shared: &Rc<RefCell<Shared>>, engine: &mut Engine, node: u32) {
        {
            let mut sh = shared.borrow_mut();
            sh.crashed[node as usize] = false;
            // The healed node gets a fresh liveness grace period, and any
            // standing suspicion is cleared by this ground-truth recovery.
            sh.suspected[node as usize] = false;
            sh.last_heard[node as usize] = engine.now();
            sh.scheduler.recover_node(node);
            if sh.telemetry.enabled() {
                sh.telemetry.instant(
                    SpanCat::Fault,
                    "node-recover",
                    SpanId::NONE,
                    track::FAULT,
                    Stamp::virt(engine.now()),
                    &[("node", node as i64)],
                );
            }
        }
        Self::place_ready(shared, engine);
    }

    /// Binned CPU-occupancy series up to the current time (Fig. 4/5 data).
    pub fn cpu_series(&self, bin: SimDuration) -> Vec<f64> {
        self.shared.borrow().profiler.cpu_series(self.now(), bin)
    }

    /// Binned GPU slot-occupancy series up to the current time.
    pub fn gpu_slot_series(&self, bin: SimDuration) -> Vec<f64> {
        self.shared
            .borrow()
            .profiler
            .gpu_slot_series(self.now(), bin)
    }

    /// Binned GPU hardware-busy series up to the current time.
    pub fn gpu_hw_series(&self, bin: SimDuration) -> Vec<f64> {
        self.shared.borrow().profiler.gpu_hw_series(self.now(), bin)
    }

    /// Per-task records completed so far (cloned snapshot).
    pub fn task_records(&self) -> Vec<crate::profiler::TaskRecord> {
        self.shared.borrow().profiler.records().to_vec()
    }
}

impl ExecutionBackend for SimulatedBackend {
    fn submit(&mut self, desc: TaskDescription) -> TaskId {
        let id = TaskId(self.next_id);
        self.next_id += 1;
        let now = self.engine.now();
        {
            let mut sh = self.shared.borrow_mut();
            assert!(
                desc.request.fits_node(sh.scheduler.node()),
                "{id}: request {} can never fit the pilot's node",
                desc.request
            );
            if sh.telemetry.enabled() {
                let tele = sh.telemetry.clone();
                let at = Stamp::virt(now);
                let tr = track::task(id.0);
                let task_span = tele.span(
                    SpanCat::Task,
                    &desc.name,
                    SpanId::NONE,
                    tr,
                    at,
                    &[("task", id.0 as i64), ("priority", desc.priority as i64)],
                );
                let queue_span =
                    tele.span(SpanCat::Queue, "queue", task_span, tr, at, &[("attempt", 0)]);
                sh.spans.insert(
                    id.0,
                    TaskSpans {
                        task: task_span,
                        queue: queue_span,
                        attempt: SpanId::NONE,
                        queued_at: now,
                    },
                );
                tele.count("tasks_submitted", 1);
            }
            let mut state = StateCell::new();
            state.advance(TaskState::Scheduling);
            sh.pending.insert(
                id.0,
                PendingTask {
                    name: desc.name,
                    tag: desc.tag,
                    request: desc.request,
                    priority: desc.priority,
                    duration: desc.duration,
                    gpu_busy_fraction: desc.gpu_busy_fraction,
                    kind: desc.kind,
                    walltime: desc.walltime,
                    attempts: 0,
                    work: desc.work,
                    state,
                    hedged: false,
                },
            );
            sh.profiler.task_submitted(id, now);
            sh.in_flight += 1;
            // Under the control plane the submit command itself is routed:
            // the task enters the scheduler queue at the command's hub
            // delivery, not at the client call.
            let routed = Self::route(&mut sh, "submit", msg_key(id.0, 0), None, now);
            if let Some((primary, duplicate)) = routed {
                if sh.telemetry.enabled() {
                    sh.telemetry.gauge("in_flight", sh.in_flight as f64);
                }
                let request = desc.request;
                let priority = desc.priority;
                drop(sh);
                let s = self.shared.clone();
                self.engine.schedule_at(primary, move |eng| {
                    Self::deliver_submit(&s, eng, id, request, priority)
                });
                if let Some(dup_at) = duplicate {
                    let s = self.shared.clone();
                    self.engine.schedule_at(dup_at, move |eng| {
                        Self::deliver_submit(&s, eng, id, request, priority)
                    });
                }
                Self::ensure_heartbeats(&self.shared, &mut self.engine);
                return id;
            }
            sh.scheduler
                .enqueue_with_priority(id, desc.request, desc.priority);
            if sh.telemetry.enabled() {
                sh.telemetry
                    .gauge("queue_depth", sh.scheduler.queue_len() as f64);
                sh.telemetry.gauge("in_flight", sh.in_flight as f64);
            }
            // Try placement via the queue so ordering with same-instant
            // events stays deterministic — but coalesce: one scan event per
            // burst of submissions. Every submission before the next engine
            // step is already enqueued when the scan fires, so the placement
            // sequence is identical to one scan per submit.
            if std::mem::replace(&mut sh.place_event_pending, true) {
                return id;
            }
        }
        let s = self.shared.clone();
        self.engine.schedule_at(now, move |eng| {
            s.borrow_mut().place_event_pending = false;
            Self::place_ready(&s, eng);
        });
        id
    }

    fn next_completion(&mut self) -> Option<Completion> {
        loop {
            if let Some(c) = self.shared.borrow_mut().completions.pop_front() {
                return Some(c);
            }
            // Nothing in flight ⇒ no completion can materialize. Do not
            // drain the remaining event queue: under fault injection it
            // holds far-future crash/recover events whose processing would
            // pointlessly advance virtual time past the workload's end.
            {
                let sh = self.shared.borrow();
                if sh.in_flight == 0 {
                    return None;
                }
                // With a live detector the heartbeat chain keeps the event
                // queue nonempty forever; a workload reduced to held tasks
                // can never complete, so stop instead of ticking heartbeats
                // until the end of time.
                if sh.control.is_some() && sh.in_flight == sh.held.len() {
                    return None;
                }
            }
            if !self.engine.step() {
                return None;
            }
        }
    }

    fn now(&self) -> SimTime {
        self.engine.now()
    }

    fn in_flight(&self) -> usize {
        self.shared.borrow().in_flight
    }

    fn utilization(&self) -> UtilizationReport {
        self.shared.borrow().profiler.report(self.now())
    }

    fn phase_breakdown(&self) -> PhaseBreakdown {
        self.shared.borrow().breakdown
    }

    fn held_tasks(&self) -> usize {
        self.shared.borrow().held.len()
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn cancel(&mut self, id: TaskId) -> bool {
        let mut sh = self.shared.borrow_mut();
        if !sh.scheduler.cancel_queued(id) {
            // Already placed, finished, unknown — or requeued but waiting
            // out a retry backoff (best-effort: such a task re-enters the
            // queue when its backoff fires).
            return false;
        }
        let mut task = sh.pending.remove(&id.0).expect("queued task has a record");
        task.state.advance(TaskState::Canceled);
        sh.in_flight -= 1;
        if sh.telemetry.enabled() {
            let tele = sh.telemetry.clone();
            let at = Stamp::virt(self.engine.now());
            if let Some(spans) = sh.spans.remove(&id.0) {
                tele.end(spans.queue, at);
                tele.instant(
                    SpanCat::Task,
                    "canceled",
                    spans.task,
                    track::task(id.0),
                    at,
                    &[],
                );
                tele.end(spans.task, at);
            }
            tele.count("tasks_canceled", 1);
            tele.gauge("in_flight", sh.in_flight as f64);
        }
        let attempts = task.attempts;
        // Under the control plane the cancel takes effect at the
        // (coordinator-local) queue immediately, but its acknowledgment —
        // the terminal `Canceled` completion — routes back over the hub
        // link and surfaces at delivery.
        let routed = Self::route(
            &mut sh,
            "cancel",
            msg_key(id.0, attempts),
            None,
            self.engine.now(),
        );
        if let Some((primary, duplicate)) = routed {
            // The deferred ack keeps the task in flight until delivery so
            // the completion pump knows to keep stepping.
            sh.in_flight += 1;
            drop(sh);
            for at in std::iter::once(primary).chain(duplicate) {
                let s = self.shared.clone();
                let name = task.name.clone();
                let tag = task.tag.clone();
                let hedged = task.hedged;
                self.engine.schedule_at(at, move |eng| {
                    Self::deliver_cancel(&s, eng, id, attempts, name, tag, hedged)
                });
            }
            return true;
        }
        sh.completions.push_back(Completion {
            task: id,
            name: task.name,
            tag: task.tag,
            result: Err(TaskError::Canceled),
            started: self.engine.now(),
            finished: self.engine.now(),
            attempts,
            hedged: task.hedged,
        });
        true
    }

    /// Preemption: evict a running attempt through the same requeue
    /// transition a node crash uses (`Executing → Scheduling`), but on a
    /// healthy node — the attempt's slots are *released* back into the
    /// pool (a crash forfeits them), its occupancy is booked as waste, and
    /// the task immediately re-enters the priority queue under its stored
    /// priority. Unlike a crash eviction the requeue is unconditional: a
    /// preempted task never surfaces a terminal error, whatever the retry
    /// budget. The attempt counter still advances — it doubles as the
    /// lease epoch, so any late completion report from the evicted attempt
    /// (a duplicated delivery under the control plane) is fenced out by
    /// the epoch check exactly like a suspicion eviction's.
    fn preempt(&mut self, id: TaskId) -> bool {
        let run = {
            let mut sh = self.shared.borrow_mut();
            match sh.running.remove(&id.0) {
                Some(r) => r,
                None => return false,
            }
        };
        let now = self.engine.now();
        self.engine.cancel(run.handle);
        // A live hedge duplicate lost with its main attempt.
        Self::settle_hedge_loser(&self.shared, &mut self.engine, id, true);
        {
            let mut sh = self.shared.borrow_mut();
            sh.profiler.attempt_wasted(&run.alloc, run.started, now);
            let node = run.alloc.node;
            sh.scheduler.release_owned(run.alloc);
            let task = sh
                .pending
                .get_mut(&id.0)
                .expect("preempted task has a record");
            task.state.advance(TaskState::Executing);
            task.state.advance(TaskState::Scheduling);
            task.attempts += 1;
            let attempt = task.attempts;
            let request = task.request;
            let priority = task.priority;
            sh.scheduler.enqueue_with_priority(id, request, priority);
            if sh.telemetry.enabled() {
                let tele = sh.telemetry.clone();
                let at = Stamp::virt(now);
                if let Some(spans) = sh.spans.get(&id.0).copied() {
                    tele.instant(
                        SpanCat::Scheduler,
                        "preempted",
                        spans.attempt,
                        track::task(id.0),
                        at,
                        &[("node", node as i64), ("attempt", attempt as i64)],
                    );
                    tele.end(spans.attempt, at);
                    let queue = tele.span(
                        SpanCat::Queue,
                        "queue",
                        spans.task,
                        track::task(id.0),
                        at,
                        &[("attempt", attempt as i64)],
                    );
                    let entry = sh.spans.get_mut(&id.0).expect("span entry");
                    entry.queue = queue;
                    entry.queued_at = now;
                }
                tele.count("preemptions", 1);
                tele.gauge("queue_depth", sh.scheduler.queue_len() as f64);
            }
        }
        // The freed slots can admit queued (higher-priority) work at this
        // very instant.
        Self::place_ready(&self.shared, &mut self.engine);
        true
    }

    fn control_stats(&self) -> ControlStats {
        self.shared.borrow().cstats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::{NodeSpec, ResourceRequest};
    use crate::scheduler::PlacementPolicy;

    fn config(cores: u32, gpus: u32) -> PilotConfig {
        PilotConfig {
            node: NodeSpec::new(cores, gpus, 64),
            nodes: 1,
            policy: PlacementPolicy::Backfill,
            bootstrap: SimDuration::from_secs(100),
            exec_setup_per_task: SimDuration::from_secs(10),
            seed: 0,
        }
    }

    fn task(name: &str, cores: u32, gpus: u32, secs: u64) -> TaskDescription {
        TaskDescription::new(
            name,
            ResourceRequest::with_gpus(cores, gpus),
            SimDuration::from_secs(secs),
        )
    }

    #[test]
    fn nothing_starts_before_bootstrap() {
        let mut b = SimulatedBackend::new(config(4, 0));
        b.submit(task("t", 1, 0, 50));
        let c = b.next_completion().unwrap();
        // bootstrap 100 + setup 10 + run 50
        assert_eq!(c.started, SimTime::from_micros(100_000_000));
        assert_eq!(c.finished, SimTime::from_micros(160_000_000));
    }

    #[test]
    fn independent_tasks_run_concurrently() {
        let mut b = SimulatedBackend::new(config(4, 0));
        for i in 0..4 {
            b.submit(task(&format!("t{i}"), 1, 0, 100));
        }
        let mut finishes = Vec::new();
        while let Some(c) = b.next_completion() {
            finishes.push(c.finished);
        }
        assert_eq!(finishes.len(), 4);
        // All four fit at once → all finish at the same virtual instant.
        assert!(finishes.iter().all(|&f| f == finishes[0]));
    }

    #[test]
    fn oversubscription_serializes() {
        let mut b = SimulatedBackend::new(config(1, 0));
        b.submit(task("a", 1, 0, 100));
        b.submit(task("b", 1, 0, 100));
        let c1 = b.next_completion().unwrap();
        let c2 = b.next_completion().unwrap();
        assert!(c2.started >= c1.finished, "second task must wait");
    }

    #[test]
    fn work_closures_run_and_outputs_flow_back() {
        let mut b = SimulatedBackend::new(config(2, 0));
        b.submit(task("compute", 1, 0, 10).with_work(|| vec![1u32, 2, 3]));
        let c = b.next_completion().unwrap();
        assert_eq!(c.output::<Vec<u32>>(), vec![1, 2, 3]);
    }

    #[test]
    fn panicking_work_reports_failure_and_frees_slots() {
        let mut b = SimulatedBackend::new(config(1, 0));
        b.submit(task("boom", 1, 0, 10).with_work(|| -> u32 { panic!("kaboom") }));
        b.submit(task("after", 1, 0, 10).with_work(|| 1u32));
        let c1 = b.next_completion().unwrap();
        match c1.result {
            Err(TaskError::WorkPanicked(msg)) => assert!(msg.contains("kaboom")),
            other => panic!("expected panic error, got {other:?}"),
        }
        // The slot must have been released so the next task completes.
        let c2 = b.next_completion().unwrap();
        assert!(c2.result.is_ok());
    }

    #[test]
    fn gpu_contention_is_respected() {
        let mut b = SimulatedBackend::new(config(8, 1));
        b.submit(task("g1", 1, 1, 100));
        b.submit(task("g2", 1, 1, 100));
        let c1 = b.next_completion().unwrap();
        let c2 = b.next_completion().unwrap();
        assert!(c2.started >= c1.finished, "single GPU must serialize");
    }

    #[test]
    fn utilization_report_reflects_load() {
        let mut b = SimulatedBackend::new(config(2, 0));
        b.submit(task("t", 2, 0, 1000));
        while b.next_completion().is_some() {}
        let r = b.utilization();
        // 1000s busy on both cores out of 1110s total → ~90%.
        assert!(r.cpu > 0.85 && r.cpu < 0.95, "cpu {}", r.cpu);
        assert_eq!(r.tasks, 1);
    }

    #[test]
    fn phase_breakdown_accounts_all_tasks() {
        let mut b = SimulatedBackend::new(config(4, 0));
        for _ in 0..3 {
            b.submit(task("t", 1, 0, 50));
        }
        while b.next_completion().is_some() {}
        let pb = b.phase_breakdown();
        assert_eq!(pb.tasks_executed, 3);
        assert_eq!(pb.bootstrap, SimDuration::from_secs(100));
        assert_eq!(pb.exec_setup_total, SimDuration::from_secs(30));
        assert_eq!(pb.running_total, SimDuration::from_secs(150));
    }

    #[test]
    fn adaptive_submission_after_completion_works() {
        // Submit a follow-up task from the driver loop after observing a
        // completion — the coordinator's core interaction pattern.
        let mut b = SimulatedBackend::new(config(2, 0));
        b.submit(task("first", 1, 0, 10).with_work(|| 1u32));
        let c = b.next_completion().unwrap();
        let v = c.output::<u32>();
        b.submit(task("second", 1, 0, 10).with_work(move || v + 1));
        let c2 = b.next_completion().unwrap();
        assert_eq!(c2.output::<u32>(), 2);
        assert!(b.next_completion().is_none());
        assert_eq!(b.in_flight(), 0);
    }

    #[test]
    fn multi_node_pilot_doubles_throughput() {
        let run = |nodes: u32| -> f64 {
            let mut b = SimulatedBackend::new(PilotConfig {
                nodes,
                ..config(4, 0)
            });
            for i in 0..8 {
                b.submit(task(&format!("t{i}"), 4, 0, 100));
            }
            while b.next_completion().is_some() {}
            b.now().as_secs_f64()
        };
        let one = run(1);
        let two = run(2);
        assert!(
            two < one * 0.65,
            "two nodes should nearly halve the makespan: {one}s → {two}s"
        );
    }

    #[test]
    fn queued_tasks_can_be_cancelled_running_ones_cannot() {
        let mut b = SimulatedBackend::new(config(1, 0));
        let _running = b.submit(task("running", 1, 0, 100));
        let queued = b.submit(task("queued", 1, 0, 100));
        // Both tasks are still pre-bootstrap; the second is queued behind
        // the first on the single core, so it is cancellable.
        assert!(b.cancel(queued), "queued task is cancellable");
        assert!(!b.cancel(queued), "double cancel is a no-op");
        let mut saw_cancelled = false;
        let mut saw_done = false;
        while let Some(c) = b.next_completion() {
            match c.result {
                Err(TaskError::Canceled) => {
                    assert_eq!(c.name, "queued");
                    saw_cancelled = true;
                }
                _ => saw_done = true,
            }
        }
        assert!(saw_cancelled && saw_done);
        assert_eq!(b.in_flight(), 0);
    }

    #[test]
    fn determinism_across_identical_runs() {
        let run = || -> Vec<(u64, u64)> {
            let mut b = SimulatedBackend::new(config(3, 1));
            for i in 0..6 {
                b.submit(task(&format!("t{i}"), 1 + (i % 2), i % 2, 40 + i as u64));
            }
            let mut log = Vec::new();
            while let Some(c) = b.next_completion() {
                log.push((c.task.0, c.finished.as_micros()));
            }
            log
        };
        assert_eq!(run(), run());
    }

    use crate::fault::{FaultConfig, ScriptedCrash, ScriptedSlowdown};

    fn no_backoff(retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries: retries,
            ..RetryPolicy::none()
        }
    }

    #[test]
    fn preempt_requeues_a_running_attempt_without_a_terminal_error() {
        // Zero retry budget: a preempted attempt must requeue and finish
        // anyway — preemption is never a terminal error and never consumes
        // a retry.
        let mut b = SimulatedBackend::new(config(2, 0));
        let t0 = b.submit(task("t0", 1, 0, 100).with_work(|| 0u64));
        let short = b.submit(task("short", 1, 0, 5).with_work(|| 2u64));
        // Nothing has been placed yet, so nothing is preemptible.
        assert!(!b.preempt(t0), "queued tasks are not preemptible");
        assert!(!b.preempt(TaskId(99)), "unknown tasks are not preemptible");
        // Pump to the short task's completion: t0 is now mid-attempt with
        // nonzero occupancy behind it.
        let c = b.next_completion().expect("short task finishes first");
        assert_eq!(c.task, short);
        assert!(b.preempt(t0), "t0 must be running and preemptible");
        assert!(!b.preempt(short), "finished tasks are not preemptible");
        let mut finished = Vec::new();
        while let Some(c) = b.next_completion() {
            assert!(c.result.is_ok(), "preemption must not surface an error");
            finished.push(c.task);
        }
        assert_eq!(finished, vec![t0]);
        // The evicted attempt's partial occupancy is booked as waste.
        assert!(b.utilization().wasted_core_seconds > 0.0);
    }

    #[test]
    fn explicit_none_plan_matches_the_plain_constructor() {
        let run = |mut b: SimulatedBackend| -> (Vec<(u64, u64, bool)>, u64, f64) {
            for i in 0..6 {
                b.submit(task(&format!("t{i}"), 1 + (i % 2), i % 2, 40 + i as u64));
            }
            let mut log = Vec::new();
            while let Some(c) = b.next_completion() {
                log.push((c.task.0, c.finished.as_micros(), c.result.is_ok()));
                assert_eq!(c.attempts, 0, "fault-free runs never retry");
            }
            (log, b.now().as_micros(), b.utilization().cpu)
        };
        let plain = run(SimulatedBackend::new(config(3, 1)));
        let faulted = run(RuntimeConfig::new(config(3, 1))
            .faults(FaultPlan::none(), RetryPolicy::none())
            .simulated());
        assert_eq!(plain, faulted, "zero-fault plan must be a true no-op");
    }

    #[test]
    fn transient_fault_with_zero_budget_surfaces_injected_error() {
        let plan = FaultPlan::new(
            FaultConfig {
                task_failure_rate: 1.0,
                ..FaultConfig::none()
            },
            1,
        );
        let mut b = RuntimeConfig::new(config(2, 0)).faults(plan, RetryPolicy::none()).simulated();
        b.submit(task("doomed", 1, 0, 50).with_work(|| 1u32));
        let c = b.next_completion().unwrap();
        assert_eq!(c.result.unwrap_err(), TaskError::Injected);
        assert_eq!(c.attempts, 0);
        let r = b.utilization();
        assert_eq!(r.retries, 0);
        assert!(r.wasted_core_seconds > 0.0, "the doomed attempt held a core");
        assert_eq!(r.tasks, 0, "no useful execution happened");
    }

    #[test]
    fn retry_budget_exhaustion_caps_attempts() {
        let plan = FaultPlan::new(
            FaultConfig {
                task_failure_rate: 1.0,
                ..FaultConfig::none()
            },
            1,
        );
        let mut b = RuntimeConfig::new(config(2, 0)).faults(plan, no_backoff(3)).simulated();
        b.submit(task("doomed", 1, 0, 50));
        let c = b.next_completion().unwrap();
        assert_eq!(c.attempts, 3, "budget fully spent");
        assert_eq!(c.result.unwrap_err(), TaskError::Injected);
        assert_eq!(b.utilization().retries, 3);
        assert_eq!(b.in_flight(), 0);
    }

    #[test]
    fn retries_eventually_succeed_under_partial_fault_rates() {
        let plan = FaultPlan::new(
            FaultConfig {
                task_failure_rate: 0.5,
                ..FaultConfig::none()
            },
            11,
        );
        let mut b = RuntimeConfig::new(config(4, 0)).faults(plan, no_backoff(8)).simulated();
        for i in 0..12 {
            b.submit(task(&format!("t{i}"), 1, 0, 30).with_work(move || i as u32));
        }
        let mut oks = 0;
        let mut retried = 0;
        while let Some(c) = b.next_completion() {
            if c.result.is_ok() {
                oks += 1;
            }
            assert!(c.attempts <= 8, "attempts never exceed the budget");
            if c.attempts > 0 {
                retried += 1;
            }
        }
        assert_eq!(oks, 12, "8 retries at p=0.5 lose less than 1 in 256 tasks");
        assert!(retried > 0, "at p=0.5 some task must have retried");
        let r = b.utilization();
        assert!(r.retries > 0);
        assert!(r.wasted_core_seconds > 0.0);
    }

    #[test]
    fn walltime_limit_times_out_long_tasks() {
        let mut b = SimulatedBackend::new(config(2, 0));
        b.submit(
            task("straggler", 1, 0, 1000)
                .with_walltime(SimDuration::from_secs(50))
                .with_work(|| 1u32),
        );
        let c = b.next_completion().unwrap();
        assert_eq!(
            c.result.unwrap_err(),
            TaskError::TimedOut {
                limit: SimDuration::from_secs(50)
            }
        );
        // The attempt occupied its slots for exactly the limit.
        assert_eq!(c.finished.since(c.started), SimDuration::from_secs(50));
    }

    #[test]
    fn hang_faults_dilate_runtimes_into_walltime_kills() {
        let plan = FaultPlan::new(
            FaultConfig {
                task_hang_rate: 1.0,
                hang_factor: 8.0,
                ..FaultConfig::none()
            },
            2,
        );
        // Base run (10 + 100 s) fits the 200 s walltime; the ×8 hang does not.
        let mut b = RuntimeConfig::new(config(2, 0)).faults(plan, RetryPolicy::none()).simulated();
        b.submit(task("hung", 1, 0, 100).with_walltime(SimDuration::from_secs(200)));
        let c = b.next_completion().unwrap();
        assert!(matches!(c.result, Err(TaskError::TimedOut { .. })));
        assert_eq!(c.finished.since(c.started), SimDuration::from_secs(200));
    }

    #[test]
    fn scripted_node_crash_requeues_residents_and_completes_the_run() {
        let plan = FaultPlan::new(
            FaultConfig {
                scripted_crashes: vec![ScriptedCrash {
                    node: 0,
                    at: SimTime::from_micros(500_000_000),
                    outage: SimDuration::from_secs(300),
                }],
                ..FaultConfig::none()
            },
            0,
        );
        let mut b = RuntimeConfig::new(PilotConfig {
            nodes: 2,
            ..config(4, 0)
        })
        .faults(plan, no_backoff(3))
        .simulated();
        for i in 0..4 {
            b.submit(task(&format!("t{i}"), 4, 0, 1000).with_work(move || i as u32));
        }
        let mut completions = Vec::new();
        while let Some(c) = b.next_completion() {
            completions.push(c);
        }
        assert_eq!(completions.len(), 4);
        assert!(completions.iter().all(|c| c.result.is_ok()), "no lineage lost");
        let evicted: Vec<_> = completions.iter().filter(|c| c.attempts > 0).collect();
        assert_eq!(evicted.len(), 1, "exactly the node-0 resident was evicted");
        let r = b.utilization();
        assert_eq!(r.retries, 1);
        // The victim started at t=100 (bootstrap) and was evicted at t=500,
        // holding 4 cores: 1600 wasted core-seconds.
        assert!((r.wasted_core_seconds - 1600.0).abs() < 1e-6, "{}", r.wasted_core_seconds);
        assert_eq!(b.in_flight(), 0);
    }

    #[test]
    fn node_crash_beyond_the_budget_reports_node_crashed() {
        let plan = FaultPlan::new(
            FaultConfig {
                scripted_crashes: vec![ScriptedCrash {
                    node: 0,
                    at: SimTime::from_micros(500_000_000),
                    outage: SimDuration::from_secs(60),
                }],
                ..FaultConfig::none()
            },
            0,
        );
        let mut b = RuntimeConfig::new(config(4, 0)).faults(plan, RetryPolicy::none()).simulated();
        b.submit(task("victim", 4, 0, 1000));
        let c = b.next_completion().unwrap();
        assert_eq!(c.result.unwrap_err(), TaskError::NodeCrashed { node: 0 });
        assert_eq!(c.attempts, 0);
    }

    #[test]
    fn faulted_runs_are_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<(u64, u64, bool, u32)> {
            let plan = FaultPlan::new(
                FaultConfig {
                    task_failure_rate: 0.3,
                    task_hang_rate: 0.1,
                    node_mtbf: Some(SimDuration::from_secs(2000)),
                    node_outage: SimDuration::from_secs(120),
                    ..FaultConfig::none()
                },
                seed,
            );
            let mut b = RuntimeConfig::new(PilotConfig {
                nodes: 2,
                ..config(3, 1)
            })
            .faults(plan, RetryPolicy::retries(4))
            .simulated();
            for i in 0..10 {
                b.submit(
                    task(&format!("t{i}"), 1 + (i % 2), i % 2, 200 + 10 * i as u64)
                        .with_walltime(SimDuration::from_secs(4000)),
                );
            }
            let mut log = Vec::new();
            while let Some(c) = b.next_completion() {
                log.push((c.task.0, c.finished.as_micros(), c.result.is_ok(), c.attempts));
            }
            log
        };
        assert_eq!(run(5), run(5), "same seed, same fault history");
        assert_ne!(run(5), run(6), "different seeds diverge");
    }

    #[test]
    fn deadline_holds_overrunning_tasks_and_drains_in_flight_work() {
        // Bootstrap 100s + setup 10s; node has 2 cores. Two 50s tasks fit a
        // 300s allocation; the third is submitted too late to finish.
        let mut b = RuntimeConfig::new(config(2, 0))
            .deadline(SimTime::from_micros(300 * 1_000_000))
            .simulated();
        b.submit(task("fits-a", 1, 0, 50));
        b.submit(task("fits-b", 1, 0, 50));
        b.submit(task("too-big", 2, 0, 100_000));
        let mut finished = Vec::new();
        while let Some(c) = b.next_completion() {
            assert!(c.result.is_ok());
            finished.push(c.name);
        }
        // In-flight work drained; the overrunning task was held, not run.
        assert_eq!(finished, vec!["fits-a".to_string(), "fits-b".into()]);
        assert_eq!(b.held_tasks(), 1);
        assert_eq!(b.in_flight(), 1, "held tasks stay in flight");
        assert!(
            b.now() <= SimTime::from_micros(300 * 1_000_000),
            "nothing may run past the deadline: now = {}",
            b.now()
        );
    }

    #[test]
    fn without_a_deadline_nothing_is_held() {
        let mut b = SimulatedBackend::new(config(2, 0));
        b.submit(task("t", 2, 0, 100_000));
        assert!(b.next_completion().is_some());
        assert_eq!(b.held_tasks(), 0);
    }

    #[test]
    fn scripted_slowdown_dilates_the_modeled_clock() {
        // A factor-3 window covering the whole run stretches setup + work
        // (10 s + 50 s) to 180 s; bootstrap is unaffected.
        let plan = FaultPlan::new(
            FaultConfig {
                scripted_slowdowns: vec![ScriptedSlowdown {
                    node: 0,
                    at: SimTime::ZERO,
                    duration: SimDuration::from_secs(1_000_000),
                    factor: 3.0,
                }],
                ..FaultConfig::none()
            },
            0,
        );
        let mut b = RuntimeConfig::new(config(1, 0))
            .faults(plan, RetryPolicy::none())
            .simulated();
        b.submit(task("t", 1, 0, 50));
        let c = b.next_completion().unwrap();
        assert!(c.result.is_ok());
        assert_eq!(c.started, SimTime::from_micros(100_000_000));
        assert_eq!(c.finished, SimTime::from_micros(280_000_000));
    }

    #[test]
    fn hedged_duplicate_rescues_a_straggler_and_books_waste() {
        // Two 1-core nodes. Two warmups prime the (1,0) estimate at 60 s
        // (setup 10 + run 50); then node 0 degrades 20× from t=200 s. The
        // victim placed on node 0 dilates to a 440 s span, crosses the
        // 2×60 s hedge threshold at t=280 s, and the duplicate on node 1
        // finishes at t=340 s — rescuing 420 s of straggler tail.
        let plan = FaultPlan::new(
            FaultConfig {
                scripted_slowdowns: vec![ScriptedSlowdown {
                    node: 0,
                    at: SimTime::from_micros(200_000_000),
                    duration: SimDuration::from_secs(1_000_000),
                    factor: 20.0,
                }],
                ..FaultConfig::none()
            },
            0,
        );
        let mut b = RuntimeConfig::new(PilotConfig {
            nodes: 2,
            ..config(1, 0)
        })
        .faults(plan, RetryPolicy::none())
        .hedge(HedgePolicy {
            threshold: 2.0,
            min_samples: 1,
        })
        .simulated();
        b.submit(task("warm-a", 1, 0, 50));
        b.submit(task("warm-b", 1, 0, 50));
        while b.in_flight() > 0 {
            assert!(b.next_completion().unwrap().result.is_ok());
        }
        b.submit(task("victim-a", 1, 0, 50));
        b.submit(task("victim-b", 1, 0, 50));
        let mut done = Vec::new();
        while let Some(c) = b.next_completion() {
            assert!(c.result.is_ok());
            done.push(c);
        }
        assert_eq!(done.len(), 2);
        let rescued = done.iter().find(|c| c.hedged).expect("one hedged task");
        assert_eq!(rescued.finished, SimTime::from_micros(340_000_000));
        let unhedged = done.iter().find(|c| !c.hedged).unwrap();
        assert_eq!(unhedged.finished, SimTime::from_micros(220_000_000));
        let util = b.utilization();
        assert_eq!(util.hedges, 1);
        // The losing main attempt occupied node 0 from 160 s to the 340 s
        // hedge win: 180 core-seconds of hedge waste, no retry waste.
        assert!((util.hedge_wasted_core_seconds - 180.0).abs() < 1e-9);
        assert_eq!(util.retries, 0);
        assert_eq!(util.wasted_core_seconds, 0.0);
    }

    #[test]
    fn quarantine_poisons_after_distinct_node_failures() {
        // Every attempt fails; quarantine cuts the 5-retry budget short the
        // moment the lineage has failed on 2 distinct nodes.
        let plan = FaultPlan::new(
            FaultConfig {
                task_failure_rate: 1.0,
                ..FaultConfig::none()
            },
            0,
        );
        let mut b = RuntimeConfig::new(PilotConfig {
            nodes: 2,
            ..config(1, 0)
        })
        .faults(plan, no_backoff(5))
        .quarantine(QuarantinePolicy::distinct(2))
        .simulated();
        b.submit(task("poison", 1, 0, 50));
        let c = b.next_completion().unwrap();
        match c.result {
            Err(TaskError::Poisoned { distinct_nodes }) => assert_eq!(distinct_nodes, 2),
            ref other => panic!("expected a poison verdict, got {other:?}"),
        }
        assert_eq!(c.attempts, 1, "verdict after exactly distinct_nodes attempts");
    }

    #[test]
    fn shape_circuit_breaker_sheds_the_shape_class() {
        // One poisoned (1,0) lineage trips the breaker; the next (1,0) task
        // is shed at the placement grant with a typed error and zero span.
        let plan = FaultPlan::new(
            FaultConfig {
                task_failure_rate: 1.0,
                ..FaultConfig::none()
            },
            0,
        );
        let mut b = RuntimeConfig::new(PilotConfig {
            nodes: 2,
            ..config(1, 0)
        })
        .faults(plan, no_backoff(5))
        .quarantine(QuarantinePolicy::distinct(2).with_shape_trip(1))
        .simulated();
        b.submit(task("poison", 1, 0, 50));
        let first = b.next_completion().unwrap();
        assert!(matches!(first.result, Err(TaskError::Poisoned { .. })));
        b.submit(task("shed", 1, 0, 50));
        let second = b.next_completion().unwrap();
        match second.result {
            Err(TaskError::ShapeCircuitOpen { cores, gpus }) => {
                assert_eq!((cores, gpus), (1, 0));
            }
            ref other => panic!("expected the breaker to shed, got {other:?}"),
        }
        assert_eq!(second.started, second.finished, "shed tasks never run");
    }
}

#[cfg(test)]
mod control_tests {
    use super::*;
    use crate::fault::{FaultConfig, ScriptedPartition};
    use crate::resources::{NodeSpec, ResourceRequest};
    use crate::scheduler::PlacementPolicy;

    fn pconfig(nodes: u32, cores: u32) -> PilotConfig {
        PilotConfig {
            node: NodeSpec::new(cores, 0, 64),
            nodes,
            policy: PlacementPolicy::Backfill,
            bootstrap: SimDuration::from_secs(10),
            exec_setup_per_task: SimDuration::from_secs(1),
            seed: 42,
        }
    }

    fn task(name: &str, secs: u64) -> TaskDescription {
        TaskDescription::new(name, ResourceRequest::cores(1), SimDuration::from_secs(secs))
    }

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn disabled_link_keeps_stats_zero() {
        let mut b = SimulatedBackend::new(pconfig(1, 2));
        b.submit(task("t", 5));
        while b.next_completion().is_some() {}
        assert_eq!(b.control_stats(), ControlStats::default());
    }

    #[test]
    fn link_delay_defers_submit_and_completion_reports() {
        let mut cfg = FaultConfig::none();
        cfg.link.delay = secs(2);
        let mut b = SimulatedBackend::from_config(
            RuntimeConfig::new(pconfig(1, 4)).faults(FaultPlan::new(cfg, 1), RetryPolicy::none()),
        );
        b.submit(task("t", 50));
        let c = b.next_completion().expect("task completes");
        assert!(c.result.is_ok());
        // Submit arrives at 2 s (before bootstrap ends at 10 s), so the
        // start is unchanged; the finish report of 10 + 1 + 50 = 61 s
        // arrives 2 s later.
        assert_eq!(c.started, SimTime::from_micros(10_000_000));
        assert_eq!(c.finished, SimTime::from_micros(63_000_000));
        let st = b.control_stats();
        assert_eq!(st.messages, 2, "one submit, one completion report");
        assert_eq!(st.dedup_hits, 0);
        assert_eq!(st.fenced_completions, 0);
    }

    #[test]
    fn duplicated_reports_apply_exactly_once() {
        let mut cfg = FaultConfig::none();
        cfg.link.duplicate_rate = 1.0;
        cfg.link.delay = SimDuration::from_micros(1_000);
        let retry = RetryPolicy {
            max_retries: 2,
            backoff_base: secs(1),
            ..RetryPolicy::none()
        };
        let mut b = SimulatedBackend::from_config(
            RuntimeConfig::new(pconfig(2, 2)).faults(FaultPlan::new(cfg, 7), retry),
        );
        for i in 0..8 {
            b.submit(task(&format!("t{i}"), 20));
        }
        let mut done = std::collections::HashSet::new();
        while let Some(c) = b.next_completion() {
            assert!(c.result.is_ok(), "unexpected failure: {:?}", c.result);
            assert!(done.insert(c.task), "{} completed twice", c.task);
        }
        assert_eq!(done.len(), 8, "every task settles exactly once");
        let st = b.control_stats();
        assert!(st.duplicates > 0, "saturated duplicate rate duplicates");
        assert!(st.dedup_hits > 0, "duplicates were absorbed by dedup");
        assert_eq!(st.fenced_completions, 0);
    }

    #[test]
    fn partition_triggers_suspicion_eviction_and_fencing() {
        let mut cfg = FaultConfig::none();
        cfg.link.delay = SimDuration::from_micros(100_000);
        cfg.link.retransmit_timeout = secs(1);
        cfg.link.heartbeat_interval = Some(secs(2));
        cfg.link.heartbeat_timeout = Some(secs(8));
        // Sever node 1 from the coordinator for 60 s starting the moment
        // bootstrap completes.
        cfg.link.partitions = vec![ScriptedPartition {
            first_node: 1,
            last_node: 1,
            at: SimTime::from_micros(10_000_000),
            duration: secs(60),
        }];
        let retry = RetryPolicy {
            max_retries: 2,
            backoff_base: secs(1),
            ..RetryPolicy::none()
        };
        let mut b = SimulatedBackend::from_config(
            RuntimeConfig::new(pconfig(2, 2)).faults(FaultPlan::new(cfg, 3), retry),
        );
        for i in 0..4 {
            b.submit(task(&format!("t{i}"), 30));
        }
        let mut done = std::collections::HashSet::new();
        while let Some(c) = b.next_completion() {
            assert!(c.result.is_ok(), "unexpected failure: {:?}", c.result);
            assert!(done.insert(c.task), "{} completed twice", c.task);
        }
        assert_eq!(done.len(), 4, "every task settles exactly once");
        let st = b.control_stats();
        assert!(st.suspicions >= 1, "partitioned node must be suspected");
        assert_eq!(st.lease_expiries, 2, "both residents of node 1 evicted");
        assert_eq!(
            st.fenced_completions, 2,
            "the healed partition delivers both stale reports, fenced by epoch"
        );
        assert!(st.resyncs >= 1, "post-heal heartbeat clears the suspicion");
        // Detection recovered the work without waiting for the heal +
        // stalled reports alone (~70 s + redelivery).
        assert!(
            b.now() < SimTime::from_micros(100_000_000),
            "makespan {:?} should beat partition-bound completion",
            b.now()
        );
    }

    #[test]
    fn lossy_hub_still_delivers_every_task() {
        let mut cfg = FaultConfig::none();
        cfg.link.drop_rate = 0.4;
        cfg.link.duplicate_rate = 0.3;
        cfg.link.delay = SimDuration::from_micros(50_000);
        cfg.link.jitter = SimDuration::from_micros(30_000);
        cfg.link.reorder_rate = 0.2;
        cfg.link.retransmit_timeout = secs(1);
        let retry = RetryPolicy {
            max_retries: 2,
            backoff_base: secs(1),
            ..RetryPolicy::none()
        };
        let mut b = SimulatedBackend::from_config(
            RuntimeConfig::new(pconfig(2, 2)).faults(FaultPlan::new(cfg, 11), retry),
        );
        for i in 0..12 {
            b.submit(task(&format!("t{i}"), 15));
        }
        let mut done = std::collections::HashSet::new();
        while let Some(c) = b.next_completion() {
            assert!(c.result.is_ok(), "unexpected failure: {:?}", c.result);
            assert!(done.insert(c.task), "{} completed twice", c.task);
        }
        assert_eq!(done.len(), 12, "at-least-once delivery loses nothing");
        let st = b.control_stats();
        assert!(st.retransmits > 0, "drops forced retransmissions");
    }
}
