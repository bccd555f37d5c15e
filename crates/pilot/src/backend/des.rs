//! The one discrete-event core under all three backends.
//!
//! Everything that decides what happens to an attempt lives here, once:
//! placement, the fault plan's verdict at the grant, retry backoff,
//! walltime and deadline holds, hedged duplicates, quarantine and the
//! shape breaker, node crashes, the control plane's routed messages with
//! their dedup set and lease fence, suspicion evictions, cancel and
//! preempt. State is flat, and split by who touches it:
//!
//! * a dense task table indexed by task id, whose 56-byte records hold
//!   only what the event loop reads and writes — shape, duration,
//!   priority, attempt count, work closure, lifecycle state, seat, the
//!   hedged flag — and a [`SlotId`] into
//! * a [`Slab`] of shared descriptors: what a task is merely *described*
//!   as (name, tag, kind, walltime, GPU busy fraction). Consecutive
//!   submissions that describe alike share one, counted; the last lineage
//!   to end frees it;
//! * a [`Slab`] of running attempts;
//! * span ids, in a table of their own indexed by task id and filled only
//!   while telemetry is enabled.
//!
//! Events are a small `Copy` enum, [`Ev`]. Names and tags are
//! [`Label`]s — inline up to 22 bytes, a shared `Arc<str>` past that — so
//! neither describing a task nor completing it copies text to the heap.
//!
//! What the core does *not* own is time. A driver owns the clock and
//! lends the core three seams:
//!
//! * a [`Transport`] — where a scheduled event waits until it is due, and
//!   how a scheduled event is taken back. [`SimulatedBackend`] lends one
//!   [`EventQueue`], popped one event per step with immediate cancel;
//!   [`ShardedBackend`] lends its shard queues, outboxes and sequence
//!   merge, and processes an instant at a time. The transport is also
//!   where a driver with a wall clock says so: [`ThreadedBackend`] (the
//!   sequential driver again, paced) starts work closures on OS threads
//!   at [`Transport::launch`] and dual-stamps telemetry at
//!   [`Transport::stamp`]; the other two leave both at their defaults.
//! * a [`UtilSink`] — where occupancy is booked: the per-device
//!   [`Profiler`](crate::profiler::Profiler) behind the figure series, or
//!   the sharded driver's O(1) occupancy integral.
//! * the heartbeat clock — [`Ev::HeartbeatSend`] chains (three queue
//!   events per node per tick) or one [`Ev::HeartbeatRound`] per tick for
//!   the `FailureDetector` lane. The driver handles those two events
//!   itself; what a heartbeat *means* ([`Ev::HeartbeatArrive`],
//!   [`Ev::SuspectCheck`], the eviction) is the core's.
//!
//! The handlers are generic over the seams and monomorphise per driver:
//! there is no `dyn` in the event loop.
//!
//! [`SimulatedBackend`]: crate::backend::SimulatedBackend
//! [`ShardedBackend`]: crate::backend::ShardedBackend
//! [`ThreadedBackend`]: crate::backend::ThreadedBackend
//! [`EventQueue`]: impress_sim::EventQueue

use super::{msg_key, Completion, TaskError};
use super::{MSG_CANCEL, MSG_DONE, MSG_HEDGE, MSG_RETRY, MSG_SUBMIT};
use crate::control::{ControlPlane, ControlStats, FailureDetector};
use crate::fault::{
    dilate_span, AttemptFault, FaultPlan, HedgePolicy, QuarantinePolicy, RetryPolicy, SlowWindow,
};
use crate::pilot::{PhaseBreakdown, PilotConfig};
use crate::profiler::UtilizationReport;
use crate::resources::{Allocation, ResourceRequest};
use crate::runtime::RuntimeConfig;
use crate::scheduler::Scheduler;
use crate::states::{StateCell, TaskState};
use crate::task::{TaskDescription, TaskId, TaskKind, TaskWork};
use impress_sim::{EventId, SimDuration, SimRng, SimTime, Slab, SlotId};
use impress_telemetry::{track, Label, SpanCat, SpanId, Stamp, Telemetry};
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A simulation event. `Copy`, two machine words: scheduling one never
/// allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Ev {
    /// Pilot bootstrap completes; placement may begin.
    Bootstrap,
    /// Coalesced submit-triggered placement scan.
    PlaceScan,
    /// A placed attempt reaches its modeled end. A delivery made stale by
    /// an eviction the transport could not cancel in time is suppressed by
    /// the `attempt` check against the running record.
    Complete { task: u64, attempt: u32 },
    /// A faulted task's retry backoff expires; re-enqueue it.
    Requeue { task: u64 },
    /// A node crashes: drain it and evict resident attempts.
    Crash { node: u32 },
    /// A crashed node recovers.
    Recover { node: u32 },
    /// A hedge check: if the armed attempt is still running, place a
    /// speculative duplicate. Stale deliveries are suppressed by the
    /// `attempt` comparison, exactly like [`Ev::Complete`].
    HedgeCheck { task: u64, attempt: u32 },
    /// A hedge duplicate reaches its modeled end and wins the race.
    HedgeWin { task: u64, attempt: u32 },
    /// Control plane on: a routed submit command arrives at the
    /// coordinator — the task enters the queue here, not at the client
    /// call. Duplicated arrivals are absorbed by the dedup set.
    SubmitArrive { task: u64 },
    /// Control plane on: a routed completion report arrives. The dedup
    /// set makes duplicated reports apply once; the lease fence (attempt
    /// epoch vs the running record) turns away reports superseded by an
    /// eviction.
    DeliverDone { task: u64, attempt: u32 },
    /// Control plane on: a routed hedge-completion report arrives, with
    /// the same dedup/fence discipline as [`Ev::DeliverDone`].
    DeliverHedge { task: u64, attempt: u32 },
    /// Control plane on: a routed retry verdict arrives; requeue the task
    /// (duplicated verdicts requeue once via dedup).
    RetryArrive { task: u64, attempt: u32 },
    /// Control plane on: a cancel acknowledgment arrives at the client;
    /// the terminal `Canceled` completion surfaces here.
    CancelAck { task: u64, attempt: u32 },
    /// Heartbeat clock of the sharded driver: one tick for every node,
    /// the [`FailureDetector`] lane's round. Never reaches the core.
    HeartbeatRound,
    /// Heartbeat clock of the sequential driver: one node's tick, which
    /// schedules its arrival, its check and its next tick. Never reaches
    /// the core.
    HeartbeatSend { node: u32 },
    /// A heartbeat reaches the coordinator and may resync its node.
    HeartbeatArrive { node: u32 },
    /// A suspicion check, one timeout after the tick that armed it.
    SuspectCheck { node: u32 },
}

/// Where a scheduled event waits, for taking it back: the transport's
/// lane (a shard; always 0 on a single queue) and the id that lane's
/// queue gave it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Handle {
    pub(super) lane: usize,
    pub(super) event: EventId,
}

/// Event transport: the seam between the handlers and a driver's queues.
pub(super) trait Transport {
    /// Schedule `ev` at `at`.
    fn schedule(&mut self, at: SimTime, ev: Ev) -> Handle;

    /// Schedule a completion report sent by `node`: transports that
    /// partition events by node home it with its sender.
    fn schedule_report(&mut self, node: u32, at: SimTime, ev: Ev) -> Handle;

    /// Schedule `ev` under an order key the failure-detector lane
    /// reserved when it folded the event away. Only a driver whose
    /// heartbeat clock folds is ever asked to.
    fn schedule_keyed(&mut self, at: SimTime, key: u64, ev: Ev);

    /// Take a scheduled event back. Whether that is immediate is the
    /// transport's business: handlers re-validate what a late event
    /// finds.
    fn cancel(&mut self, handle: Handle);

    /// An attempt of `task` that the fault plan lets finish was placed. A
    /// driver that executes work off the event loop takes the closure out
    /// of `work` here and leaves one that waits for its result; the
    /// default leaves it alone and `finish_task` runs it at the
    /// completion instant. Either way what is in `work` stays with the
    /// task record, so it runs at most once per task: an evicted
    /// attempt's result is there for whichever attempt completes, and an
    /// attempt planned to fail or time out never gets here.
    fn launch(&mut self, _task: u64, _work: &mut Option<TaskWork>) {}

    /// The telemetry stamp for an event at virtual instant `at`.
    fn stamp(&self, at: SimTime) -> Stamp {
        Stamp::virt(at)
    }
}

/// Occupancy accounting: the seam between the handlers and whoever
/// answers [`ExecutionBackend::utilization`](super::ExecutionBackend).
pub(super) trait UtilSink {
    /// A task was submitted (wait-time accounting).
    fn submitted(&mut self, id: TaskId, at: SimTime);
    /// An attempt (or hedge duplicate) begins occupying `alloc`.
    fn started(&mut self, alloc: &Allocation, at: SimTime);
    /// A useful execution released `alloc`.
    #[allow(clippy::too_many_arguments)]
    fn finished(
        &mut self,
        id: TaskId,
        name: &str,
        tag: &str,
        alloc: &Allocation,
        started: SimTime,
        at: SimTime,
        gpu_busy_fraction: f64,
    );
    /// An attempt ended without completing its task: retry waste.
    fn wasted(&mut self, alloc: &Allocation, started: SimTime, at: SimTime);
    /// A hedge loser released its slots: hedge waste, kept apart.
    fn hedge_wasted(&mut self, alloc: &Allocation, started: SimTime, at: SimTime);
    /// A transparent resubmission.
    fn note_retry(&mut self);
    /// A hedged duplicate placement.
    fn note_hedge(&mut self);
    /// Aggregate report over `[0, end)`.
    fn report(&self, end: SimTime) -> UtilizationReport;
}

/// Attempt outcome decided at placement, held in the running record so
/// the completion event itself stays `Copy`.
#[derive(Debug, Clone, Copy)]
enum Planned {
    /// Runs to completion; execute the work closure at the end.
    Finish,
    /// Injected transient fault after full occupancy.
    Injected,
    /// Walltime expiry at the stored limit.
    TimedOut(SimDuration),
}

/// Span bookkeeping for one task, kept in `Core.spans` while telemetry is
/// enabled.
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

/// Where a live task sits. The two places exclude each other — a task is
/// dequeued at its grant and requeued only after its attempt is gone — so
/// the queue ticket costs the task record no room of its own.
#[derive(Clone, Copy)]
enum Seat {
    /// Neither: waiting out a backoff or a routed message, or held.
    None,
    /// In the scheduler queue, under the ticket its enqueue returned.
    Queued(u32),
    /// Placed: the slab handle of the current running attempt.
    Running(SlotId),
}

impl Seat {
    fn running(self) -> Option<SlotId> {
        match self {
            Seat::Running(slot) => Some(slot),
            _ => None,
        }
    }

    /// Vacate a running seat, returning its slot.
    fn take_running(&mut self) -> Option<SlotId> {
        let slot = self.running()?;
        *self = Seat::None;
        Some(slot)
    }
}

/// One submitted task, indexed by its id in the flat task table: what the
/// event loop reads and writes, and nothing it does not.
struct Task {
    request: ResourceRequest,
    duration: SimDuration,
    priority: i32,
    /// Attempts so far. Doubles as the lease epoch: a completion report
    /// settles only if its attempt number still matches.
    attempts: u32,
    work: Option<TaskWork>,
    state: StateCell,
    seat: Seat,
    /// Whether a hedged duplicate was ever placed for this task.
    hedged: bool,
    /// What the task is described as, in `Core.descriptors`.
    desc: SlotId,
}

/// What a task is described as — read at placement, a hedge check and
/// completion, never written. Shared by consecutive submissions that
/// describe alike.
struct Descriptor {
    name: Label,
    tag: Label,
    kind: TaskKind,
    walltime: Option<SimDuration>,
    gpu_busy_fraction: f64,
    /// Live lineages described by this; the last to end frees it.
    live: u32,
}

impl Descriptor {
    /// Whether `other` describes a task as this does. The fraction
    /// compares by its bits.
    fn alike(&self, other: &Descriptor) -> bool {
        self.name == other.name
            && self.tag == other.tag
            && self.kind == other.kind
            && self.walltime == other.walltime
            && self.gpu_busy_fraction.to_bits() == other.gpu_busy_fraction.to_bits()
    }
}

const DESCRIBED: &str = "a live task's descriptor is live";

/// A placed attempt: everything needed to complete, evict, or waste it.
struct Running {
    task: u64,
    attempt: u32,
    alloc: Allocation,
    started: SimTime,
    setup: SimDuration,
    outcome: Planned,
    /// The completion event (or primary report), for eviction.
    event: Handle,
}

/// A live hedge duplicate (at most one per task).
struct HedgeRun {
    /// The main attempt number this duplicate shadows.
    attempt: u32,
    alloc: Allocation,
    started: SimTime,
    setup: SimDuration,
    /// The [`Ev::HedgeWin`] event (or primary report), for cancellation
    /// when the main attempt settles first.
    event: Handle,
}

/// The attempt-lifecycle machine, generic over a driver's seams.
pub(super) struct Core<T, U> {
    pub(super) transport: T,
    pub(super) util: U,
    /// The instant of the event being applied; the driver advances it.
    pub(super) now: SimTime,
    scheduler: Scheduler,
    breakdown: PhaseBreakdown,
    /// Task records indexed by task id (ids are assigned densely from 0);
    /// `None` once the lineage has ended.
    tasks: Vec<Option<Task>>,
    /// What the live tasks are described as; a record's `desc` points in.
    descriptors: Slab<Descriptor>,
    /// Span ids indexed by task id; empty while telemetry is disabled.
    spans: Vec<TaskSpans>,
    running: Slab<Running>,
    completions: VecDeque<Completion>,
    pub(super) in_flight: usize,
    bootstrapped: bool,
    faults: FaultPlan,
    retry: RetryPolicy,
    backoff_rng: SimRng,
    /// Allocation walltime: placements whose modeled span would overrun it
    /// are held instead of launched (graceful drain).
    deadline: Option<SimTime>,
    /// Tasks held by the deadline, in hold order. They keep their record
    /// and stay in flight but will never launch.
    held: Vec<u64>,
    /// A submit-triggered placement scan is already scheduled at the
    /// current instant; further submissions coalesce into it. Every
    /// submission before the scan fires is already enqueued by then, so
    /// placement order is that of one scan per submit.
    place_event_pending: bool,
    telemetry: Telemetry,
    config: PilotConfig,
    /// Scratch: queue-wait samples for one placement round, flushed via
    /// a single batched histogram observation.
    queue_waits: Vec<f64>,
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
    hedge_running: HashMap<u64, HedgeRun>,
    /// Distinct nodes each task has failed on (quarantine only).
    failed_nodes: HashMap<u64, Vec<u32>>,
    /// Poisoned lineage count per shape class (quarantine breaker).
    shape_poison: HashMap<(u32, u32), u32>,
    /// The seeded control plane (`None` = link faults off, a strict
    /// no-op: no extra events, no randomness, no routing).
    pub(super) control: Option<ControlPlane>,
    /// Control-plane resilience counters (all zero while `control` is
    /// `None`).
    pub(super) cstats: ControlStats,
    /// Liveness under a configured heartbeat (`None` = no heartbeats).
    /// The core reads it (`heard`/`silent`/`unfold`); the driver's
    /// heartbeat clock ticks it.
    pub(super) detector: Option<FailureDetector>,
    /// Nodes currently declared suspect by the detector.
    pub(super) suspected: Vec<bool>,
    /// Ground-truth node health (set by crash/recover events); a crashed
    /// node emits no heartbeats and cannot be resynced by one.
    pub(super) crashed: Vec<bool>,
    /// Idempotent-dedup set: message identities whose effects have been
    /// applied. A second arrival of the same identity is absorbed.
    seen: HashSet<(u64, u32, u8)>,
    /// Cancel acks in flight: `Ev` is `Copy`, so the completion's name,
    /// tag and hedged flag are stashed here between the cancel call and
    /// the ack's delivery. The lineage ends at the stash.
    canceled_acks: HashMap<u64, (Label, Label, bool)>,
}

impl<T: Transport, U: UtilSink> Core<T, U> {
    /// A pilot under `runtime` on the driver's seams. Bootstrap begins at
    /// `t = 0`; it and every node's crash/recover windows are scheduled
    /// here, in that order. A [`FaultPlan::none`] plan schedules nothing
    /// more and draws no randomness.
    pub(super) fn new(runtime: RuntimeConfig, transport: T, util: U) -> Self {
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
        let slow = (0..config.nodes)
            .map(|n| faults.slowdown_windows(n))
            .collect();
        let control = ControlPlane::from_plan(&faults);
        let nodes = config.nodes as usize;
        let detector = control
            .as_ref()
            .and_then(|cp| FailureDetector::new(cp.link(), nodes));
        // Bootstrap completes at a known instant: record its span up front.
        let boot = telemetry.span(
            SpanCat::Pilot,
            "bootstrap",
            SpanId::NONE,
            track::PILOT,
            transport.stamp(SimTime::ZERO),
            &[],
        );
        telemetry.end(boot, transport.stamp(SimTime::ZERO + config.bootstrap));
        let mut core = Core {
            transport,
            util,
            now: SimTime::ZERO,
            scheduler: Scheduler::new_cluster(config.cluster(), config.policy),
            breakdown: PhaseBreakdown {
                bootstrap: config.bootstrap,
                ..Default::default()
            },
            tasks: Vec::new(),
            descriptors: Slab::new(),
            spans: Vec::new(),
            running: Slab::new(),
            completions: VecDeque::new(),
            in_flight: 0,
            bootstrapped: false,
            retry,
            backoff_rng: SimRng::from_seed(config.seed).fork("retry-backoff"),
            deadline,
            held: Vec::new(),
            place_event_pending: false,
            telemetry,
            queue_waits: Vec::new(),
            hedge,
            quarantine,
            slow,
            estimates: HashMap::new(),
            hedge_running: HashMap::new(),
            failed_nodes: HashMap::new(),
            shape_poison: HashMap::new(),
            control,
            cstats: ControlStats::default(),
            detector,
            suspected: vec![false; nodes],
            crashed: vec![false; nodes],
            seen: HashSet::new(),
            canceled_acks: HashMap::new(),
            faults,
            config,
        };
        let bootstrap = SimTime::ZERO + core.config.bootstrap;
        core.transport.schedule(bootstrap, Ev::Bootstrap);
        for node in 0..core.config.nodes {
            for (crash_at, recover_at) in core.faults.crash_windows(node) {
                core.transport.schedule(crash_at, Ev::Crash { node });
                core.transport.schedule(recover_at, Ev::Recover { node });
            }
        }
        core
    }

    pub(super) fn config(&self) -> &PilotConfig {
        &self.config
    }

    pub(super) fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    pub(super) fn utilization(&self) -> UtilizationReport {
        self.util.report(self.now)
    }

    pub(super) fn phase_breakdown(&self) -> PhaseBreakdown {
        self.breakdown
    }

    pub(super) fn held_tasks(&self) -> usize {
        self.held.len()
    }

    /// Test support: the descriptors in use, once checked against the
    /// live records — each is described by one, and counted once.
    #[cfg(test)]
    pub(super) fn live_descriptors(&self) -> usize {
        let lineages: usize = self.descriptors.iter().map(|(_, d)| d.live as usize).sum();
        assert_eq!(lineages, self.tasks.iter().flatten().count());
        self.descriptors.len()
    }

    /// The next completion already surfaced, if any.
    pub(super) fn take_completion(&mut self) -> Option<Completion> {
        self.completions.pop_front()
    }

    /// Whether advancing the clock cannot produce a completion. Nothing
    /// in flight: the remaining horizon holds only far-future crash and
    /// recover events whose processing would pointlessly advance virtual
    /// time past the workload's end. Or, with the control plane on, a
    /// workload reduced to held tasks: heartbeats re-arm themselves while
    /// anything is in flight, and would tick until the end of time.
    pub(super) fn stalled(&self) -> bool {
        self.in_flight == 0 || (self.control.is_some() && self.in_flight == self.held.len())
    }

    /// Dispatch one event at `self.now`.
    pub(super) fn apply(&mut self, ev: Ev) {
        let now = self.now;
        match ev {
            Ev::Bootstrap => {
                self.bootstrapped = true;
                self.place_ready(now);
            }
            Ev::PlaceScan => {
                self.place_event_pending = false;
                self.place_ready(now);
            }
            Ev::Complete { task, attempt } => {
                if let Some(slot) = self.live_attempt(task, attempt) {
                    self.settle(task, slot, now);
                }
            }
            Ev::Requeue { task } => {
                let attempt = self.record(task).attempts;
                self.requeue(task, attempt, now);
            }
            Ev::Crash { node } => self.crash(node, now),
            Ev::Recover { node } => self.recover(node, now),
            Ev::HedgeCheck { task, attempt } => self.hedge_check(task, attempt, now),
            Ev::HedgeWin { task, attempt } => self.hedge_win(task, attempt, now),
            Ev::SubmitArrive { task } => self.deliver_submit(task, now),
            Ev::DeliverDone { task, attempt } => self.deliver_done(task, attempt, now),
            Ev::DeliverHedge { task, attempt } => self.deliver_hedge(task, attempt, now),
            Ev::RetryArrive { task, attempt } => {
                if !self.dedup(task, attempt, MSG_RETRY, now) {
                    self.requeue(task, attempt, now);
                }
            }
            Ev::CancelAck { task, attempt } => self.deliver_cancel(task, attempt, now),
            Ev::HeartbeatArrive { node } => self.heartbeat_arrive(node, now),
            Ev::SuspectCheck { node } => self.suspect_check(node, now),
            Ev::HeartbeatRound | Ev::HeartbeatSend { .. } => {
                unreachable!("the driver's heartbeat clock handles {ev:?}")
            }
        }
    }

    /// `task`'s record, while its lineage is live.
    fn get(&self, task: u64) -> Option<&Task> {
        self.tasks.get(task as usize)?.as_ref()
    }

    fn record(&mut self, task: u64) -> &mut Task {
        self.tasks[task as usize]
            .as_mut()
            .expect("an in-flight task has a record")
    }

    /// End `task`'s lineage: take its record out of the table.
    fn take_record(&mut self, task: u64) -> Task {
        self.tasks[task as usize]
            .take()
            .expect("an in-flight task has a record")
    }

    /// `task`'s spans, while its lineage is live and telemetry enabled.
    fn spans(&self, task: u64) -> Option<TaskSpans> {
        self.get(task)?;
        self.spans.get(task as usize).copied()
    }

    fn task_span(&self, task: u64) -> SpanId {
        self.spans(task).map_or(SpanId::NONE, |s| s.task)
    }

    fn attempt_span(&self, task: u64) -> SpanId {
        self.spans(task).map_or(SpanId::NONE, |s| s.attempt)
    }

    /// The slab slot of `task`'s running attempt, if that is `attempt`.
    fn live_attempt(&self, task: u64, attempt: u32) -> Option<SlotId> {
        let slot = self.get(task)?.seat.running()?;
        (self.running.get(slot)?.attempt == attempt).then_some(slot)
    }

    /// The lineage of a task described by `slot` ended: the name and tag
    /// its completion carries. The last lineage a descriptor describes
    /// frees it and hands its labels over.
    fn release(&mut self, slot: SlotId) -> (Label, Label) {
        let d = self.descriptors.get_mut(slot).expect(DESCRIBED);
        d.live -= 1;
        if d.live > 0 {
            return (d.name.clone(), d.tag.clone());
        }
        let d = self.descriptors.remove(slot);
        (d.name, d.tag)
    }

    /// Surface `task`'s terminal completion.
    fn surface(
        &mut self,
        id: TaskId,
        task: Task,
        result: Result<Option<crate::task::TaskOutput>, TaskError>,
        started: SimTime,
        finished: SimTime,
    ) {
        let (name, tag) = self.release(task.desc);
        self.completions.push_back(Completion {
            task: id,
            name,
            tag,
            result,
            started,
            finished,
            attempts: task.attempts,
            hedged: task.hedged,
        });
    }

    /// Send a control message whose arrival is `ev`. With the plane on,
    /// book its delivery stats, schedule `ev` at its arrival instant —
    /// and again at its duplicate's, if the link duplicated it — and
    /// return the first one's handle. `None` when the plane is off and
    /// the caller must take its direct (pre-control-plane) path. A
    /// message from a `node` is a completion report.
    fn send(
        &mut self,
        label: &str,
        key: u64,
        node: Option<u32>,
        sent: SimTime,
        ev: Ev,
    ) -> Option<Handle> {
        let d = self.control.as_ref()?.deliveries(label, key, node, sent);
        self.cstats.messages += 1;
        self.cstats.retransmits += u64::from(d.transmissions.saturating_sub(1));
        if d.duplicate.is_some() {
            self.cstats.duplicates += 1;
        }
        let transport = &mut self.transport;
        let mut arrive = |at| match node {
            Some(node) => transport.schedule_report(node, at, ev),
            None => transport.schedule(at, ev),
        };
        let handle = arrive(d.primary);
        if let Some(dup) = d.duplicate {
            arrive(dup);
        }
        Some(handle)
    }

    /// Schedule the end of an attempt placed on `node`, modeled at `end`.
    /// Under the control plane the node's completion report is sent then
    /// and *routed*: `report` fires at its (at-least-once) delivery
    /// instant, where the lease fence and dedup set decide whether its
    /// effects apply. Without the plane the report is the completion —
    /// `direct` fires at `end` itself. The handle is what an eviction
    /// cancels.
    fn send_report(
        &mut self,
        label: &str,
        key: u64,
        node: u32,
        end: SimTime,
        report: Ev,
        direct: Ev,
    ) -> Handle {
        match self.send(label, key, Some(node), end, report) {
            Some(handle) => handle,
            None => self.transport.schedule_report(node, end, direct),
        }
    }

    /// Put `task` in the scheduler queue under its stored shape and
    /// priority.
    fn enqueue(&mut self, task: u64) {
        let t = self.record(task);
        assert!(
            matches!(t.seat, Seat::None),
            "{} enqueued while already queued or running",
            TaskId(task)
        );
        let (request, priority) = (t.request, t.priority);
        let ticket = self
            .scheduler
            .enqueue_with_priority(TaskId(task), request, priority);
        self.record(task).seat = Seat::Queued(ticket);
    }

    /// At-least-once meets exactly-once: the first arrival of a message
    /// identity claims it and applies; a repeat arrival is absorbed here.
    /// Returns true when this arrival is the duplicate.
    fn dedup(&mut self, task: u64, attempt: u32, kind: u8, at: SimTime) -> bool {
        if self.seen.insert((task, attempt, kind)) {
            return false;
        }
        self.cstats.dedup_hits += 1;
        if self.telemetry.enabled() {
            self.telemetry.instant(
                SpanCat::Control,
                "dedup-hit",
                self.task_span(task),
                track::task(task),
                self.transport.stamp(at),
                &[("attempt", attempt as i64), ("kind", kind as i64)],
            );
            self.telemetry.count("dedup_hits", 1);
        }
        true
    }

    /// Book a fenced completion: a report whose lease epoch no longer
    /// matches the coordinator's record (the attempt was evicted and
    /// superseded). Its effects are discarded — the core of the
    /// no-split-brain guarantee.
    fn fence(&mut self, task: u64, attempt: u32, at: SimTime) {
        self.cstats.fenced_completions += 1;
        if self.telemetry.enabled() {
            self.telemetry.instant(
                SpanCat::Control,
                "fenced-completion",
                self.task_span(task),
                track::task(task),
                self.transport.stamp(at),
                &[("attempt", attempt as i64)],
            );
            self.telemetry.count("fenced_completions", 1);
        }
    }

    /// A running attempt reached its end (its completion event fired, or
    /// its report was delivered and passed the fence): finish the task,
    /// running its work, or end a doomed attempt.
    fn settle(&mut self, task: u64, slot: SlotId, now: SimTime) {
        let run = self.running.remove(slot);
        self.record(task).seat = Seat::None;
        // A live hedge duplicate lost the race to this settlement (or
        // shares the attempt's failure): cancel it first.
        self.settle_hedge_loser(task, true, now);
        let err = match run.outcome {
            Planned::Finish => None,
            Planned::Injected => Some(TaskError::Injected),
            Planned::TimedOut(limit) => Some(TaskError::TimedOut { limit }),
        };
        match err {
            None => self.finish_task(TaskId(task), run.alloc, run.started, now, run.setup),
            Some(err) => {
                let node = run.alloc.node;
                self.util.wasted(&run.alloc, run.started, now);
                self.scheduler.release_owned(run.alloc);
                self.fail_attempt(TaskId(task), err, run.started, now, node);
            }
        }
        self.place_ready(now);
    }

    /// Arrival of a completion report at the coordinator (control plane
    /// on), with dedup and the lease fence in front of the settlement.
    fn deliver_done(&mut self, task: u64, attempt: u32, now: SimTime) {
        if self.dedup(task, attempt, MSG_DONE, now) {
            return;
        }
        match self.live_attempt(task, attempt) {
            Some(slot) => self.settle(task, slot, now),
            None => self.fence(task, attempt, now),
        }
    }

    /// Arrival of a submit command at the coordinator (control plane on):
    /// the task enters the scheduler queue here, not at the client call.
    fn deliver_submit(&mut self, task: u64, now: SimTime) {
        if self.dedup(task, 0, MSG_SUBMIT, now) {
            return;
        }
        self.enqueue(task);
        if self.telemetry.enabled() {
            self.telemetry
                .gauge("queue_depth", self.scheduler.queue_len() as f64);
        }
        self.place_ready(now);
    }

    /// Put `task` back in the scheduler queue for `attempt` — a retry
    /// backoff expired, its routed verdict arrived, or the attempt before
    /// it was preempted — open its queue-wait span, and scan.
    fn requeue(&mut self, task: u64, attempt: u32, now: SimTime) {
        self.enqueue(task);
        if self.telemetry.enabled() {
            let tele = &self.telemetry;
            let at = self.transport.stamp(now);
            let spans = &mut self.spans[task as usize];
            spans.queue = tele.span(
                SpanCat::Queue,
                "queue",
                spans.task,
                track::task(task),
                at,
                &[("attempt", attempt as i64)],
            );
            spans.queued_at = now;
            tele.gauge("queue_depth", self.scheduler.queue_len() as f64);
        }
        self.place_ready(now);
    }

    /// Arrival of a cancel acknowledgment at the client (control plane
    /// on): the terminal `Canceled` completion surfaces here.
    fn deliver_cancel(&mut self, task: u64, attempt: u32, now: SimTime) {
        if self.dedup(task, attempt, MSG_CANCEL, now) {
            return;
        }
        let (name, tag, hedged) = self
            .canceled_acks
            .remove(&task)
            .expect("ack delivery has a stashed cancel");
        self.in_flight -= 1;
        if self.telemetry.enabled() {
            self.telemetry.gauge("in_flight", self.in_flight as f64);
        }
        self.completions.push_back(Completion {
            task: TaskId(task),
            name,
            tag,
            result: Err(TaskError::Canceled),
            started: now,
            finished: now,
            attempts: attempt,
            hedged,
        });
    }

    /// A heartbeat reached the coordinator: refresh the node's liveness
    /// and, if it was falsely suspected (partition, dropped heartbeats),
    /// resync — re-admit the node to placement.
    fn heartbeat_arrive(&mut self, node: u32, now: SimTime) {
        let Some(fd) = &mut self.detector else {
            return;
        };
        fd.heard(node, now);
        if self.suspected[node as usize] && !self.crashed[node as usize] {
            self.suspected[node as usize] = false;
            self.cstats.resyncs += 1;
            self.scheduler.recover_node(node);
            if self.telemetry.enabled() {
                self.telemetry.instant(
                    SpanCat::Control,
                    "resync",
                    SpanId::NONE,
                    track::FAULT,
                    self.transport.stamp(now),
                    &[("node", node as i64)],
                );
                self.telemetry.count("resyncs", 1);
            }
            self.place_ready(now);
        }
    }

    /// A timeout check: if the node has been silent for a full timeout,
    /// declare it suspect.
    fn suspect_check(&mut self, node: u32, now: SimTime) {
        let Some(fd) = &self.detector else {
            return;
        };
        if self.in_flight > 0
            && !self.suspected[node as usize]
            && self.scheduler.node_is_up(node)
            && fd.silent(node, now)
        {
            self.suspect_node(node, now);
        }
    }

    /// The attempts resident on `node`, in task-id order: slab iteration
    /// order must not leak into the deterministic event stream.
    fn residents(&self, node: u32) -> Vec<(u64, SlotId)> {
        let mut victims: Vec<(u64, SlotId)> = self
            .running
            .iter()
            .filter(|(_, r)| r.alloc.node == node)
            .map(|(slot, r)| (r.task, slot))
            .collect();
        victims.sort_unstable_by_key(|&(task, _)| task);
        victims
    }

    /// Hedge duplicates resident on a node that just went away forfeit
    /// their slots (the drained pool is rebuilt, so nothing is released),
    /// no matter where their main attempt runs — the main keeps going.
    fn forfeit_hedges_on(&mut self, node: u32, now: SimTime) {
        let mut hedged: Vec<u64> = self
            .hedge_running
            .iter()
            .filter(|(_, r)| r.alloc.node == node)
            .map(|(&task, _)| task)
            .collect();
        hedged.sort_unstable();
        for task in hedged {
            self.settle_hedge_loser(task, false, now);
        }
    }

    /// Declare `node` suspect: stop placing on it, and evict its resident
    /// attempts — their leases are expired, so each requeues (consuming a
    /// retry) while its eventual late report is fenced out by epoch. The
    /// node-side events are *not* canceled: a falsely suspected node is
    /// healthy and its reports genuinely arrive.
    fn suspect_node(&mut self, node: u32, now: SimTime) {
        self.suspected[node as usize] = true;
        self.cstats.suspicions += 1;
        // A heartbeat the lane folded is now a resync in waiting.
        if let Some(wake) = self.detector.as_mut().and_then(|fd| fd.unfold(node, now)) {
            self.transport
                .schedule_keyed(wake.at, wake.key, Ev::HeartbeatArrive { node });
        }
        let victims = self.residents(node);
        self.scheduler.drain_node(node);
        if self.telemetry.enabled() {
            self.telemetry.instant(
                SpanCat::Control,
                "suspect",
                SpanId::NONE,
                track::FAULT,
                self.transport.stamp(now),
                &[("node", node as i64)],
            );
            self.telemetry.count("suspicions", 1);
        }
        self.forfeit_hedges_on(node, now);
        for (task, slot) in victims {
            let run = self.running.remove(slot);
            self.record(task).seat = Seat::None;
            self.settle_hedge_loser(task, true, now);
            self.cstats.lease_expiries += 1;
            self.util.wasted(&run.alloc, run.started, now);
            if self.telemetry.enabled() {
                self.telemetry.instant(
                    SpanCat::Control,
                    "lease-expired",
                    self.attempt_span(task),
                    track::task(task),
                    self.transport.stamp(now),
                    &[("node", node as i64), ("attempt", run.attempt as i64)],
                );
                self.telemetry.count("lease_expiries", 1);
            }
            let err = TaskError::LeaseExpired { node };
            self.fail_attempt(TaskId(task), err, run.started, now, node);
        }
    }

    /// Complete a successful attempt: run the work closure, free slots,
    /// book the phases, surface the completion.
    fn finish_task(
        &mut self,
        id: TaskId,
        alloc: Allocation,
        started: SimTime,
        now: SimTime,
        setup: SimDuration,
    ) {
        let mut task = self.take_record(id.0);
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
        let d = self.descriptors.get(task.desc).expect(DESCRIBED);
        let busy = d.gpu_busy_fraction;
        self.util
            .finished(id, &d.name, &d.tag, &alloc, started, now, busy);
        let mut warmed = None;
        if let Some(policy) = self.hedge {
            let shape = (task.request.cores, task.request.gpus);
            let e = self.estimates.entry(shape).or_insert((0, 0));
            e.0 += 1;
            e.1 += now.since(started).as_micros() as u128;
            // Exactly the completion that makes the estimate usable:
            // attempts of this shape placed while it was cold were never
            // armed for a hedge check, so arm them below.
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
            let tele = &self.telemetry;
            let at = self.transport.stamp(now);
            let spans = self.spans[id.0 as usize];
            tele.end(spans.attempt, at);
            tele.end(spans.task, at);
            let outcome = if result.is_ok() {
                "tasks_completed"
            } else {
                "tasks_failed"
            };
            tele.count(outcome, 1);
            tele.gauge("in_flight", self.in_flight as f64);
            let ran = now.since(started).as_secs_f64();
            tele.observe("task_run_seconds", 0.0, 14_400.0, 48, ran);
        }
        self.surface(id, task, result, started, now);
        if let Some(shape) = warmed {
            self.arm_warm_hedges(shape, now);
        }
    }

    /// A shape class's runtime estimate just became usable: attempts of
    /// the shape placed while it was cold fell back to their own span
    /// (threshold ≥ span) and were never armed, so a first-wave straggler
    /// would otherwise run unhedged forever. Arm a check for every running
    /// attempt of the shape at the instant its elapsed time crosses the
    /// threshold. Checks re-validate at fire time, so arming is idempotent;
    /// ids are sorted for a deterministic event order.
    fn arm_warm_hedges(&mut self, shape: (u32, u32), now: SimTime) {
        let Some(policy) = self.hedge else {
            return;
        };
        let threshold = self
            .hedge_estimate(shape, SimDuration::ZERO, policy.min_samples)
            .mul_f64(policy.threshold);
        if threshold == SimDuration::ZERO {
            return;
        }
        let mut arms: Vec<(u64, SimDuration, u32)> = self
            .running
            .iter()
            .filter_map(|(_, run)| {
                let task = self.get(run.task)?;
                if (task.request.cores, task.request.gpus) != shape
                    || self.hedge_running.contains_key(&run.task)
                {
                    return None;
                }
                let elapsed = now.since(run.started);
                let wait = threshold.as_micros().saturating_sub(elapsed.as_micros());
                let delay = SimDuration::from_micros(wait.max(1));
                Some((run.task, delay, task.attempts))
            })
            .collect();
        arms.sort_unstable_by_key(|&(id, _, _)| id);
        for (task, delay, attempt) in arms {
            self.transport
                .schedule(now + delay, Ev::HedgeCheck { task, attempt });
        }
    }

    /// End a failed attempt: retry within budget (after backoff, via a
    /// requeue event), or surface the error as a terminal completion.
    /// `node` is where the attempt failed (quarantine tracks distinct
    /// failing nodes per task). The attempt's slots must already be
    /// released/forfeited and its waste booked by the caller.
    fn fail_attempt(
        &mut self,
        id: TaskId,
        err: TaskError,
        started: SimTime,
        now: SimTime,
        node: u32,
    ) {
        if self.telemetry.enabled() {
            let at = self.transport.stamp(now);
            let attempt = self.attempt_span(id.0);
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
            let tr = track::task(id.0);
            self.telemetry
                .instant(SpanCat::Fault, fault, attempt, tr, at, &[]);
            self.telemetry.end(attempt, at);
        }
        let retry = self.retry;
        // Quarantine: record the failing node. A task failing on enough
        // *distinct* nodes is poisoned — the input, not the hardware, is
        // the likely culprit, and retrying it elsewhere is pure waste.
        let poisoned = match self.quarantine {
            Some(q) => {
                let nodes = self.failed_nodes.entry(id.0).or_default();
                if !nodes.contains(&node) {
                    nodes.push(node);
                }
                nodes.len() as u32 >= q.distinct_nodes
            }
            None => false,
        };
        let task = self.record(id.0);
        task.state.advance(TaskState::Executing);
        if !poisoned && task.attempts < retry.max_retries {
            task.attempts += 1;
            task.state.advance(TaskState::Scheduling);
            let n = task.attempts;
            self.util.note_retry();
            self.telemetry.count("retries", 1);
            let due = now + retry.backoff(n, &mut self.backoff_rng);
            // The retry verdict is a hub message sent once the backoff
            // elapses; under the control plane the requeue happens at its
            // delivery (duplicated verdicts requeue once via dedup).
            let verdict = Ev::RetryArrive {
                task: id.0,
                attempt: n,
            };
            if self
                .send("retry", msg_key(id.0, n), None, due, verdict)
                .is_none()
            {
                self.transport.schedule(due, Ev::Requeue { task: id.0 });
            }
            return;
        }
        let mut task = self.take_record(id.0);
        task.state.advance(TaskState::Failed);
        self.in_flight -= 1;
        let distinct = self
            .failed_nodes
            .remove(&id.0)
            .map_or(0, |v| v.len() as u32);
        let err = if poisoned {
            // Poison verdict: bump the shape class's breaker count and
            // surface a typed terminal error.
            let shape = (task.request.cores, task.request.gpus);
            let count = {
                let c = self.shape_poison.entry(shape).or_insert(0);
                *c += 1;
                *c
            };
            if self.telemetry.enabled() {
                let tele = &self.telemetry;
                let at = self.transport.stamp(now);
                tele.instant(
                    SpanCat::Quarantine,
                    "poisoned",
                    self.spans[id.0 as usize].task,
                    track::task(id.0),
                    at,
                    &[("distinct_nodes", distinct as i64)],
                );
                if self
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
        if self.telemetry.enabled() {
            let span = self.spans[id.0 as usize].task;
            self.telemetry.end(span, self.transport.stamp(now));
            self.telemetry.count("tasks_failed", 1);
            self.telemetry.gauge("in_flight", self.in_flight as f64);
        }
        self.surface(id, task, Err(err), started, now);
    }

    /// The hedging threshold base for a shape class: the running mean of
    /// useful completion spans once `min_samples` have been observed, the
    /// attempt's own modeled span until then. Integer-microsecond mean, so
    /// every driver agrees bit-for-bit.
    fn hedge_estimate(
        &self,
        shape: (u32, u32),
        fallback: SimDuration,
        min_samples: u32,
    ) -> SimDuration {
        match self.estimates.get(&shape) {
            Some(&(n, total)) if n >= min_samples as u64 => {
                SimDuration::from_micros((total / n as u128) as u64)
            }
            _ => fallback,
        }
    }

    /// A hedge-check event: if the attempt it was armed for is still
    /// running, place a speculative duplicate on a different node. The
    /// duplicate models a clean run — it draws *no* randomness, so the
    /// fault stream is identical with and without hedging — and whichever
    /// copy settles first wins; the loser's occupancy is booked as hedge
    /// waste.
    fn hedge_check(&mut self, task: u64, attempt: u32, now: SimTime) {
        let Some(policy) = self.hedge else {
            return;
        };
        // Re-validate: the attempt may have settled or been superseded by a
        // retry since the check was armed, or an earlier re-arm already
        // placed a duplicate.
        let probe = match self.get(task) {
            Some(t) if t.attempts == attempt && !self.hedge_running.contains_key(&task) => t
                .seat
                .running()
                .and_then(|slot| self.running.get(slot))
                .map(|run| (t.request, run.alloc.node, t.desc, t.duration)),
            _ => None,
        };
        let Some((request, main_node, desc, duration)) = probe else {
            return;
        };
        let d = self.descriptors.get(desc).expect(DESCRIBED);
        let (kind, walltime) = (d.kind, d.walltime);
        let shape = (request.cores, request.gpus);
        let setup = self
            .config
            .exec_setup_per_task
            .saturating_add(kind.launch_overhead());
        let clean = setup.saturating_add(duration);
        // A node where the duplicate's own modeled span would cross the
        // straggler threshold cannot rescue anyone — a copy racing at the
        // same degraded pace loses to its head start. Skip such nodes (the
        // freed cores of an already-rescued straggler's node are the common
        // case) and keep probing the next-best allocation.
        let threshold = self
            .hedge_estimate(shape, clean, policy.min_samples)
            .mul_f64(policy.threshold);
        let mut avoid = vec![main_node];
        let (alloc, span) = loop {
            let Some(alloc) = self.scheduler.alloc_avoiding(&request, &avoid) else {
                // No useful capacity off the straggler's node: re-arm after
                // roughly one estimated runtime instead of polling every
                // event.
                let tick = SimDuration::from_micros(1);
                let delay = self
                    .hedge_estimate(shape, tick, policy.min_samples)
                    .max(tick);
                self.transport
                    .schedule(now + delay, Ev::HedgeCheck { task, attempt });
                return;
            };
            let span = dilate_span(&self.slow[alloc.node as usize], now, clean);
            if span > threshold {
                avoid.push(alloc.node);
                self.scheduler.release_owned(alloc);
                continue;
            }
            break (alloc, span);
        };
        if walltime.is_some_and(|limit| limit < span) {
            // The duplicate could only time out on its own walltime — not a
            // useful hedge. Give the slots back and stand down.
            self.scheduler.release_owned(alloc);
            return;
        }
        self.record(task).hedged = true;
        self.util.note_hedge();
        self.util.started(&alloc, now);
        if self.telemetry.enabled() {
            self.telemetry.instant(
                SpanCat::Hedge,
                "hedge-place",
                self.attempt_span(task),
                track::task(task),
                self.transport.stamp(now),
                &[("attempt", attempt as i64), ("node", alloc.node as i64)],
            );
            self.telemetry.count("hedges", 1);
        }
        // The hedge's completion report routes exactly like the main
        // attempt's (same link, same fence/dedup discipline).
        let (report, win) = (
            Ev::DeliverHedge { task, attempt },
            Ev::HedgeWin { task, attempt },
        );
        let key = msg_key(task, attempt);
        let event = self.send_report("hedge", key, alloc.node, now + span, report, win);
        let hedge = HedgeRun {
            attempt,
            alloc,
            started: now,
            setup,
            event,
        };
        self.hedge_running.insert(task, hedge);
    }

    /// The live hedge duplicate of `task`, taken, if it shadows `attempt`.
    fn take_hedge(&mut self, task: u64, attempt: u32) -> Option<HedgeRun> {
        match self.hedge_running.get(&task) {
            Some(h) if h.attempt == attempt => self.hedge_running.remove(&task),
            _ => None,
        }
    }

    /// A hedge duplicate finished first. A delivery made stale — the main
    /// settled first and removed the hedge record, and the transport could
    /// not cancel this event in time — is dropped here.
    fn hedge_win(&mut self, task: u64, attempt: u32, now: SimTime) {
        let Some(hedge) = self.take_hedge(task, attempt) else {
            return;
        };
        let slot = self
            .record(task)
            .seat
            .take_running()
            .expect("hedge won over a running main attempt");
        self.rescue(task, slot, hedge, now);
    }

    /// Arrival of a hedge duplicate's completion report (control plane
    /// on): the routed twin of [`Core::hedge_win`], with the same
    /// dedup/fence discipline as main-attempt reports.
    fn deliver_hedge(&mut self, task: u64, attempt: u32, now: SimTime) {
        if self.dedup(task, attempt, MSG_HEDGE, now) {
            return;
        }
        let Some(hedge) = self.take_hedge(task, attempt) else {
            self.fence(task, attempt, now);
            return;
        };
        let Some(slot) = self.record(task).seat.take_running() else {
            // No live main to rescue (it was evicted between the hedge's
            // finish and this delivery): book the duplicate as waste. The
            // freed slots can admit queued work, so re-scan.
            self.util.hedge_wasted(&hedge.alloc, hedge.started, now);
            self.scheduler.release_owned(hedge.alloc);
            self.fence(task, attempt, now);
            self.place_ready(now);
            return;
        };
        self.rescue(task, slot, hedge, now);
    }

    /// Cancel the straggling main attempt in `slot`, book its occupancy as
    /// hedge waste, and complete the task from the duplicate's allocation.
    fn rescue(&mut self, task: u64, slot: SlotId, hedge: HedgeRun, now: SimTime) {
        let run = self.running.remove(slot);
        self.transport.cancel(run.event);
        self.util.hedge_wasted(&run.alloc, run.started, now);
        self.scheduler.release_owned(run.alloc);
        if self.telemetry.enabled() {
            self.telemetry.instant(
                SpanCat::Hedge,
                "hedge-win",
                self.attempt_span(task),
                track::task(task),
                self.transport.stamp(now),
                &[("node", hedge.alloc.node as i64)],
            );
            self.telemetry.count("hedge_wins", 1);
        }
        self.finish_task(TaskId(task), hedge.alloc, hedge.started, now, hedge.setup);
        self.place_ready(now);
    }

    /// The main attempt settled (completed, failed, or was evicted) while a
    /// hedge duplicate was still in flight: cancel the duplicate and book
    /// its occupancy as hedge waste. `release` is false when the hedge's
    /// own node just crashed — the drained pool is rebuilt, so forfeited
    /// slots must not be released back into it.
    fn settle_hedge_loser(&mut self, task: u64, release: bool, now: SimTime) {
        // Every settlement asks; without hedging the map stays empty, and
        // even an empty map hashes the key before it looks.
        if self.hedge_running.is_empty() {
            return;
        }
        let Some(hedge) = self.hedge_running.remove(&task) else {
            return;
        };
        self.transport.cancel(hedge.event);
        let node = hedge.alloc.node;
        self.util.hedge_wasted(&hedge.alloc, hedge.started, now);
        if release {
            self.scheduler.release_owned(hedge.alloc);
        }
        if self.telemetry.enabled() {
            self.telemetry.instant(
                SpanCat::Hedge,
                "hedge-lose",
                self.attempt_span(task),
                track::task(task),
                self.transport.stamp(now),
                &[("node", node as i64)],
            );
            self.telemetry.count("hedge_losses", 1);
        }
    }

    /// A node crash event: drain the node and evict its resident
    /// attempts. Victims forfeit their allocations (the drained pool is
    /// rebuilt, so nothing is released) and consume a retry attempt each.
    fn crash(&mut self, node: u32, now: SimTime) {
        let victims = self.residents(node);
        self.crashed[node as usize] = true;
        // A node already drained by a suspicion verdict stays drained;
        // draining twice would corrupt the pool.
        if !self.suspected[node as usize] {
            self.scheduler.drain_node(node);
        }
        if self.telemetry.enabled() {
            self.telemetry.instant(
                SpanCat::Fault,
                "node-crash",
                SpanId::NONE,
                track::FAULT,
                self.transport.stamp(now),
                &[("node", node as i64)],
            );
            self.telemetry.count("node_crashes", 1);
        }
        self.forfeit_hedges_on(node, now);
        for (task, slot) in victims {
            let run = self.running.remove(slot);
            self.record(task).seat = Seat::None;
            self.transport.cancel(run.event);
            // A victim's surviving hedge (on a different node by
            // construction) is settled normally before the attempt fails.
            self.settle_hedge_loser(task, true, now);
            self.util.wasted(&run.alloc, run.started, now);
            let err = TaskError::NodeCrashed { node };
            self.fail_attempt(TaskId(task), err, run.started, now, node);
        }
    }

    /// A node recover event: re-admit the node and place waiting tasks.
    fn recover(&mut self, node: u32, now: SimTime) {
        self.crashed[node as usize] = false;
        // The healed node gets a fresh liveness grace period, and any
        // standing suspicion is cleared by this ground-truth recovery.
        self.suspected[node as usize] = false;
        if let Some(fd) = &mut self.detector {
            fd.heard(node, now);
        }
        self.scheduler.recover_node(node);
        if self.telemetry.enabled() {
            self.telemetry.instant(
                SpanCat::Fault,
                "node-recover",
                SpanId::NONE,
                track::FAULT,
                self.transport.stamp(now),
                &[("node", node as i64)],
            );
        }
        self.place_ready(now);
    }

    /// Place every task the scheduler allows, scheduling a completion
    /// event per placement. The fault plan decides each attempt's outcome
    /// *at placement*; the single event either finishes the task or ends a
    /// doomed attempt early/late.
    fn place_ready(&mut self, now: SimTime) {
        if !self.bootstrapped {
            return;
        }
        let queued = self.scheduler.queue_len();
        let placements = self.scheduler.place_ready();
        if self.telemetry.enabled() && queued > 0 {
            let tele = &self.telemetry;
            let at = self.transport.stamp(now);
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
            tele.gauge("queue_depth", self.scheduler.queue_len() as f64);
        }
        let mut launched = 0u64;
        debug_assert!(self.queue_waits.is_empty());
        // Placements that hand their slots straight back mid-round (deadline
        // holds, shape sheds) can strand later queue entries: the freed
        // frontier is never re-scanned. Without the control plane that gap
        // is benign — the event queue drains and the run ends — and fixing
        // it would break byte-identity with the pre-control engine. With
        // the plane on, heartbeats re-arm themselves for as long as
        // anything is in flight, so a stranded entry would livelock
        // termination; re-scan below.
        let mut stranded = false;
        for (id, mut alloc) in placements {
            // Quarantine: an open shape circuit breaker sheds the whole
            // shape class at the placement grant — the slots go straight
            // back and the lineage ends with a typed error instead of
            // burning a retry ladder on a poisoned shape.
            let granted = self.record(id.0);
            debug_assert!(matches!(granted.seat, Seat::Queued(_)));
            granted.seat = Seat::None;
            let request = granted.request;
            let shape = (request.cores, request.gpus);
            let tripped = match self.quarantine {
                Some(q) if q.shape_trip > 0 => {
                    self.shape_poison.get(&shape).copied().unwrap_or(0) >= q.shape_trip
                }
                _ => false,
            };
            if tripped {
                stranded = true;
                self.scheduler.release_owned(alloc);
                let mut task = self.take_record(id.0);
                task.state.advance(TaskState::Failed);
                self.in_flight -= 1;
                if self.telemetry.enabled() {
                    let tele = &self.telemetry;
                    let at = self.transport.stamp(now);
                    let spans = self.spans[id.0 as usize];
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
                    tele.count("tasks_shed", 1);
                    tele.gauge("in_flight", self.in_flight as f64);
                }
                let err = TaskError::ShapeCircuitOpen {
                    cores: request.cores,
                    gpus: request.gpus,
                };
                self.surface(id, task, Err(err), now, now);
                continue;
            }
            // Retry steering: a retried attempt granted a node the task
            // already failed on is re-homed when any other node has
            // capacity. The alternative is claimed *before* the original
            // grant is released, so the two can never alias; with no
            // alternative the original grant is kept (a suspect node
            // beats no node).
            if self.quarantine.is_some() {
                let avoid = self.failed_nodes.get(&id.0).cloned().unwrap_or_default();
                if avoid.contains(&alloc.node) {
                    if let Some(alt) = self.scheduler.alloc_avoiding(&request, &avoid) {
                        let original = std::mem::replace(&mut alloc, alt);
                        self.scheduler.release_owned(original);
                    }
                }
            }
            let (desc, duration, attempts) = {
                let t = self.record(id.0);
                (t.desc, t.duration, t.attempts)
            };
            let d = self.descriptors.get(desc).expect(DESCRIBED);
            let (kind, task_walltime) = (d.kind, d.walltime);
            let fault = self.faults.attempt_fault(id.0, attempts);
            let hang_factor = self.faults.config().hang_factor;
            let setup = self
                .config
                .exec_setup_per_task
                .saturating_add(kind.launch_overhead());
            let mut run = duration;
            if fault == AttemptFault::Hang {
                run = run.mul_f64(hang_factor);
            }
            let total = setup.saturating_add(run);
            // Degraded-node dilation: work overlapping one of the node's
            // slowdown windows takes `factor`× longer while inside it.
            // Without configured slowdowns every schedule is empty and
            // this is an exact identity.
            let total = dilate_span(&self.slow[alloc.node as usize], now, total);
            // Walltime counts from slot grant and wins over other faults.
            let (outcome, span) = match task_walltime {
                Some(limit) if limit < total => (Planned::TimedOut(limit), limit),
                _ => match fault {
                    AttemptFault::Transient => (Planned::Injected, total),
                    _ => (Planned::Finish, total),
                },
            };
            // Walltime-aware drain: an attempt that cannot finish inside
            // the allocation deadline is held, not launched. Its slots go
            // back to the pool (in-flight peers may still use them) and it
            // keeps its record — held, never re-placed, never completed.
            if self.deadline.is_some_and(|d| now + span > d) {
                stranded = true;
                self.scheduler.release_owned(alloc);
                self.held.push(id.0);
                if self.telemetry.enabled() {
                    let tele = &self.telemetry;
                    let at = self.transport.stamp(now);
                    let spans = self.spans(id.0).expect("held task exists");
                    tele.end(spans.queue, at);
                    tele.instant(
                        SpanCat::Task,
                        "held",
                        spans.task,
                        track::task(id.0),
                        at,
                        &[],
                    );
                    tele.count("tasks_held", 1);
                }
                continue;
            }
            self.record(id.0).state.advance(TaskState::ExecSetup);
            self.util.started(&alloc, now);
            launched += 1;
            if self.telemetry.enabled() {
                let tele = &self.telemetry;
                let at = self.transport.stamp(now);
                let spans = &mut self.spans[id.0 as usize];
                tele.end(spans.queue, at);
                let waited = now.since(spans.queued_at).as_secs_f64();
                spans.attempt = tele.span(
                    SpanCat::Attempt,
                    "attempt",
                    spans.task,
                    track::task(id.0),
                    at,
                    &[("attempt", attempts as i64), ("node", alloc.node as i64)],
                );
                self.queue_waits.push(waited);
            }
            let (task, attempt) = (id.0, attempts);
            let (report, done) = (
                Ev::DeliverDone { task, attempt },
                Ev::Complete { task, attempt },
            );
            let key = msg_key(task, attempt);
            let event = self.send_report("done", key, alloc.node, now + span, report, done);
            let slot = self.running.insert(Running {
                task,
                attempt,
                alloc,
                started: now,
                setup,
                outcome,
                event,
            });
            let record = self.tasks[task as usize]
                .as_mut()
                .expect("an in-flight task has a record");
            record.seat = Seat::Running(slot);
            if matches!(outcome, Planned::Finish) {
                self.transport.launch(task, &mut record.work);
            }
            // Hedge arming: once the shape class has a runtime estimate, an
            // attempt still running past k× that estimate gets a duplicate.
            // The check is armed only when it could fire before the modeled
            // completion — estimate-free shapes fall back to the attempt's
            // own span (threshold = k × span ≥ span), so they never arm and
            // the hedging-off path schedules nothing at all.
            if let Some(policy) = self.hedge {
                let threshold = self
                    .hedge_estimate(shape, span, policy.min_samples)
                    .mul_f64(policy.threshold);
                if threshold < span {
                    self.transport
                        .schedule(now + threshold, Ev::HedgeCheck { task, attempt });
                }
            }
        }
        if launched > 0 {
            self.telemetry.count("placements", launched);
        }
        self.telemetry
            .observe_many("queue_wait_seconds", 0.0, 14_400.0, 48, &self.queue_waits);
        self.queue_waits.clear();
        // See `stranded` above: each recursion either holds, sheds or
        // places at least one queued task, so the depth is bounded by the
        // queue length.
        if stranded && self.control.is_some() {
            self.place_ready(now);
        }
    }

    /// [`ExecutionBackend::submit`](super::ExecutionBackend::submit). The
    /// driver arms its heartbeat clock afterwards.
    pub(super) fn submit(&mut self, desc: TaskDescription) -> TaskId {
        let id = TaskId(self.tasks.len() as u64);
        let now = self.now;
        assert!(
            desc.request.fits_node(self.scheduler.node()),
            "{id}: request {} can never fit the pilot's node",
            desc.request
        );
        if self.telemetry.enabled() {
            let tele = &self.telemetry;
            let at = self.transport.stamp(now);
            let tr = track::task(id.0);
            let task = tele.span(
                SpanCat::Task,
                &desc.name,
                SpanId::NONE,
                tr,
                at,
                &[("task", id.0 as i64), ("priority", desc.priority as i64)],
            );
            let queue = tele.span(SpanCat::Queue, "queue", task, tr, at, &[("attempt", 0)]);
            tele.count("tasks_submitted", 1);
            debug_assert_eq!(self.spans.len(), id.0 as usize);
            self.spans.push(TaskSpans {
                task,
                queue,
                attempt: SpanId::NONE,
                queued_at: now,
            });
        }
        let mut state = StateCell::new();
        state.advance(TaskState::Scheduling);
        let TaskDescription {
            name,
            tag,
            request,
            duration,
            gpu_busy_fraction,
            priority,
            kind,
            walltime,
            work,
        } = desc;
        let desc = self.describe(Descriptor {
            name,
            tag,
            kind,
            walltime,
            gpu_busy_fraction,
            live: 1,
        });
        self.tasks.push(Some(Task {
            request,
            duration,
            priority,
            attempts: 0,
            work,
            state,
            seat: Seat::None,
            hedged: false,
            desc,
        }));
        self.util.submitted(id, now);
        self.in_flight += 1;
        // Under the control plane the submit command itself is routed:
        // the task enters the scheduler queue at the command's hub
        // delivery, not at the client call.
        let arrive = Ev::SubmitArrive { task: id.0 };
        if self
            .send("submit", msg_key(id.0, 0), None, now, arrive)
            .is_some()
        {
            if self.telemetry.enabled() {
                self.telemetry.gauge("in_flight", self.in_flight as f64);
            }
            return id;
        }
        self.enqueue(id.0);
        if self.telemetry.enabled() {
            self.telemetry
                .gauge("queue_depth", self.scheduler.queue_len() as f64);
            self.telemetry.gauge("in_flight", self.in_flight as f64);
        }
        // Placement goes through the queue so ordering with same-instant
        // events stays deterministic — one coalesced scan per burst.
        if !std::mem::replace(&mut self.place_event_pending, true) {
            self.transport.schedule(now, Ev::PlaceScan);
        }
        id
    }

    /// Where a task about to be submitted is described: with the previous
    /// submission, if that is still live and described alike, otherwise
    /// in a slot of its own.
    fn describe(&mut self, described: Descriptor) -> SlotId {
        if let Some(Some(prev)) = self.tasks.last() {
            let d = self.descriptors.get_mut(prev.desc).expect(DESCRIBED);
            if d.alike(&described) {
                d.live += 1;
                return prev.desc;
            }
        }
        self.descriptors.insert(described)
    }

    /// [`ExecutionBackend::cancel`](super::ExecutionBackend::cancel).
    pub(super) fn cancel(&mut self, id: TaskId) -> bool {
        let Some(Seat::Queued(ticket)) = self.get(id.0).map(|t| t.seat) else {
            // Already placed, finished, unknown — or requeued but waiting
            // out a retry backoff (best-effort: such a task re-enters the
            // queue when its backoff fires).
            return false;
        };
        let dequeued = self.scheduler.cancel_queued(id, ticket);
        assert!(dequeued, "{id} holds a ticket the queue does not know");
        let now = self.now;
        let mut task = self.take_record(id.0);
        task.state.advance(TaskState::Canceled);
        self.in_flight -= 1;
        if self.telemetry.enabled() {
            let tele = &self.telemetry;
            let at = self.transport.stamp(now);
            let tr = track::task(id.0);
            let spans = self.spans[id.0 as usize];
            tele.end(spans.queue, at);
            tele.instant(SpanCat::Task, "canceled", spans.task, tr, at, &[]);
            tele.end(spans.task, at);
            tele.count("tasks_canceled", 1);
            tele.gauge("in_flight", self.in_flight as f64);
        }
        // Under the control plane the cancel takes effect at the
        // (coordinator-local) queue immediately, but its acknowledgment —
        // the terminal `Canceled` completion — routes back over the hub
        // link and surfaces at delivery.
        let ack = Ev::CancelAck {
            task: id.0,
            attempt: task.attempts,
        };
        let key = msg_key(id.0, task.attempts);
        if self.send("cancel", key, None, now, ack).is_some() {
            // The deferred ack keeps the task in flight until delivery so
            // the completion pump knows to keep stepping.
            self.in_flight += 1;
            let (name, tag) = self.release(task.desc);
            self.canceled_acks.insert(id.0, (name, tag, task.hedged));
            return true;
        }
        self.surface(id, task, Err(TaskError::Canceled), now, now);
        true
    }

    /// [`ExecutionBackend::preempt`](super::ExecutionBackend::preempt):
    /// evict a running attempt through the same requeue transition a node
    /// crash uses (`Executing → Scheduling`), but on a healthy node — the
    /// attempt's slots are *released* back into the pool (a crash forfeits
    /// them), its occupancy is booked as waste, and the task immediately
    /// re-enters the priority queue under its stored priority. Unlike a
    /// crash eviction the requeue is unconditional: a preempted task never
    /// surfaces a terminal error, whatever the retry budget. The attempt
    /// counter still advances — it doubles as the lease epoch, so any late
    /// completion report from the evicted attempt (a duplicated delivery
    /// under the control plane) is fenced out by the epoch check exactly
    /// like a suspicion eviction's.
    pub(super) fn preempt(&mut self, id: TaskId) -> bool {
        let now = self.now;
        let Some(slot) = self.get(id.0).and_then(|t| t.seat.running()) else {
            return false;
        };
        self.record(id.0).seat = Seat::None;
        let run = self.running.remove(slot);
        self.transport.cancel(run.event);
        // A live hedge duplicate lost with its main attempt.
        self.settle_hedge_loser(id.0, true, now);
        self.util.wasted(&run.alloc, run.started, now);
        let node = run.alloc.node;
        self.scheduler.release_owned(run.alloc);
        let task = self.record(id.0);
        task.state.advance(TaskState::Executing);
        task.state.advance(TaskState::Scheduling);
        task.attempts += 1;
        let attempt = task.attempts;
        if self.telemetry.enabled() {
            let at = self.transport.stamp(now);
            let evicted = self.attempt_span(id.0);
            self.telemetry.instant(
                SpanCat::Scheduler,
                "preempted",
                evicted,
                track::task(id.0),
                at,
                &[("node", node as i64), ("attempt", attempt as i64)],
            );
            self.telemetry.end(evicted, at);
            self.telemetry.count("preemptions", 1);
        }
        // The freed slots can admit queued (higher-priority) work at this
        // very instant: requeueing scans.
        self.requeue(id.0, attempt, now);
        true
    }
}

/// The seam is real: these tests drive the handlers with a transport that
/// only records — no queue, no clock, no driver.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExecutionBackend, ShardedBackend, SimulatedBackend, ThreadedBackend};
    use crate::fault::{FaultConfig, ScriptedCrash, ScriptedSlowdown};
    use crate::profiler::Profiler;
    use crate::resources::NodeSpec;
    use crate::scheduler::PlacementPolicy;

    #[derive(Default)]
    struct Recorder {
        scheduled: Vec<(SimTime, Ev)>,
        cancelled: Vec<Handle>,
    }

    impl Transport for Recorder {
        fn schedule(&mut self, at: SimTime, ev: Ev) -> Handle {
            self.scheduled.push((at, ev));
            Handle {
                lane: 0,
                event: EventId(self.scheduled.len() as u64 - 1),
            }
        }

        fn schedule_report(&mut self, _node: u32, at: SimTime, ev: Ev) -> Handle {
            self.schedule(at, ev)
        }

        fn schedule_keyed(&mut self, at: SimTime, _key: u64, ev: Ev) {
            self.schedule(at, ev);
        }

        fn cancel(&mut self, handle: Handle) {
            self.cancelled.push(handle);
        }
    }

    type Rig = Core<Recorder, Profiler>;

    /// `nodes` one-core nodes, bootstrap 10 s, setup 1 s.
    fn rig(nodes: u32, tune: impl FnOnce(RuntimeConfig) -> RuntimeConfig) -> Rig {
        let pilot = PilotConfig {
            node: NodeSpec::new(1, 0, 64),
            nodes,
            policy: PlacementPolicy::Backfill,
            bootstrap: secs(10),
            exec_setup_per_task: secs(1),
            seed: 0,
        };
        let runtime = tune(RuntimeConfig::new(pilot));
        Core::new(
            runtime,
            Recorder::default(),
            Profiler::new_cluster(1, 0, nodes),
        )
    }

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn at(s: u64) -> SimTime {
        SimTime::ZERO + secs(s)
    }

    fn task(run: u64) -> TaskDescription {
        TaskDescription::new("t", ResourceRequest::cores(1), secs(run))
    }

    fn fire(core: &mut Rig, when: SimTime, ev: Ev) {
        core.now = when;
        core.apply(ev);
    }

    /// Fire the event scheduled last, at its instant; what it was.
    fn fire_last(core: &mut Rig) -> (SimTime, Ev) {
        let (when, ev) = *core
            .transport
            .scheduled
            .last()
            .expect("something is scheduled");
        fire(core, when, ev);
        (when, ev)
    }

    fn always_failing() -> FaultConfig {
        FaultConfig {
            task_failure_rate: 1.0,
            ..FaultConfig::none()
        }
    }

    fn one_retry_after(backoff: u64) -> RetryPolicy {
        RetryPolicy {
            max_retries: 1,
            backoff_base: secs(backoff),
            ..RetryPolicy::none()
        }
    }

    #[test]
    fn a_transient_fault_stages_one_requeue_and_the_budget_ends_the_lineage() {
        let plan = FaultPlan::new(always_failing(), 1);
        let mut core = rig(1, |rt| rt.faults(plan, one_retry_after(5)));
        core.submit(task(50));
        fire(&mut core, at(10), Ev::Bootstrap);
        let done = (
            at(61),
            Ev::Complete {
                task: 0,
                attempt: 0,
            },
        );
        assert_eq!(core.transport.scheduled.last(), Some(&done));

        let before = core.transport.scheduled.len();
        fire_last(&mut core);
        let staged = &core.transport.scheduled[before..];
        assert_eq!(staged, [(at(66), Ev::Requeue { task: 0 })], "now + backoff");
        assert!(core.take_completion().is_none(), "inside the budget");

        fire_last(&mut core);
        let retried = (
            at(117),
            Ev::Complete {
                task: 0,
                attempt: 1,
            },
        );
        assert_eq!(core.transport.scheduled.last(), Some(&retried));
        let before = core.transport.scheduled.len();
        fire_last(&mut core);
        assert_eq!(
            core.transport.scheduled.len(),
            before,
            "nothing left to arm"
        );
        let c = core.take_completion().expect("past the budget");
        assert_eq!(c.result.unwrap_err(), TaskError::Injected);
        assert_eq!((c.attempts, c.finished), (1, at(117)));
        assert!(
            core.take_completion().is_none(),
            "exactly one terminal completion"
        );
        assert_eq!(core.in_flight, 0);
    }

    #[test]
    fn under_the_control_plane_the_retry_verdict_is_routed() {
        let mut fc = always_failing();
        fc.link.delay = secs(2);
        let plan = FaultPlan::new(fc, 1);
        let mut core = rig(1, |rt| rt.faults(plan, one_retry_after(5)));
        core.submit(task(50));
        let arrive = (at(2), Ev::SubmitArrive { task: 0 });
        assert_eq!(core.transport.scheduled.last(), Some(&arrive));
        fire_last(&mut core);
        fire(&mut core, at(10), Ev::Bootstrap);
        // The report of the attempt's end at 61 s takes the link's 2 s.
        let report = (
            at(63),
            Ev::DeliverDone {
                task: 0,
                attempt: 0,
            },
        );
        assert_eq!(core.transport.scheduled.last(), Some(&report));
        let before = core.transport.scheduled.len();
        fire_last(&mut core);
        // Sent when the backoff elapses (68 s), delivered 2 s later.
        let verdict = (
            at(70),
            Ev::RetryArrive {
                task: 0,
                attempt: 1,
            },
        );
        assert_eq!(&core.transport.scheduled[before..], [verdict]);
    }

    #[test]
    fn a_duplicate_report_is_absorbed_and_a_superseded_one_is_fenced() {
        let mut fc = FaultConfig::none();
        fc.link.delay = secs(1);
        let plan = FaultPlan::new(fc, 1);
        let mut core = rig(2, |rt| rt.faults(plan, RetryPolicy::none()));
        core.submit(task(50));
        core.submit(task(50));
        fire(&mut core, at(1), Ev::SubmitArrive { task: 0 });
        fire(&mut core, at(1), Ev::SubmitArrive { task: 1 });
        fire(&mut core, at(10), Ev::Bootstrap);

        let report = Ev::DeliverDone {
            task: 0,
            attempt: 0,
        };
        fire(&mut core, at(62), report);
        assert!(core
            .take_completion()
            .expect("first arrival applies")
            .result
            .is_ok());
        fire(&mut core, at(63), report);
        assert!(
            core.take_completion().is_none(),
            "second arrival is absorbed"
        );
        assert_eq!(
            (core.cstats.dedup_hits, core.cstats.fenced_completions),
            (1, 0)
        );

        // Evicting task 1 bumps its epoch; attempt 0's report comes late.
        core.now = at(30);
        assert!(core.preempt(TaskId(1)));
        fire(
            &mut core,
            at(62),
            Ev::DeliverDone {
                task: 1,
                attempt: 0,
            },
        );
        assert!(
            core.take_completion().is_none(),
            "a fenced report has no effect"
        );
        assert_eq!(
            (core.cstats.dedup_hits, core.cstats.fenced_completions),
            (1, 1)
        );
        // Attempt 1 ran 30 + 1 + 50 s and reports over the same link.
        fire(
            &mut core,
            at(82),
            Ev::DeliverDone {
                task: 1,
                attempt: 1,
            },
        );
        let c = core.take_completion().expect("the live epoch settles");
        assert!(c.result.is_ok());
        assert_eq!(c.attempts, 1);
    }

    #[test]
    fn the_third_failing_node_poisons_and_the_tripped_shape_is_shed_at_the_grant() {
        let plan = FaultPlan::new(always_failing(), 1);
        let retry = RetryPolicy {
            max_retries: 9,
            ..RetryPolicy::none()
        };
        let quarantine = QuarantinePolicy::distinct(3).with_shape_trip(1);
        let mut core = rig(3, |rt| rt.faults(plan, retry).quarantine(quarantine));
        core.submit(task(50));
        assert_eq!(
            fire_last(&mut core).1,
            Ev::PlaceScan,
            "before bootstrap: a no-op"
        );
        fire(&mut core, at(10), Ev::Bootstrap);
        // Fail, requeue (no backoff), re-place on a node not failed on yet.
        for attempt in 0..2 {
            let (_, done) = fire_last(&mut core);
            assert_eq!(done, Ev::Complete { task: 0, attempt });
            assert!(
                core.take_completion().is_none(),
                "two distinct nodes: retry"
            );
            assert_eq!(fire_last(&mut core).1, Ev::Requeue { task: 0 });
        }
        fire_last(&mut core);
        let c = core.take_completion().expect("third distinct node");
        let poisoned = TaskError::Poisoned { distinct_nodes: 3 };
        assert_eq!(c.result.unwrap_err(), poisoned);
        assert_eq!(c.attempts, 2, "seven retries of the budget left unspent");

        // One poisoned lineage trips the (1, 0) breaker.
        let before = core.transport.scheduled.len();
        core.submit(task(50));
        assert_eq!(fire_last(&mut core).1, Ev::PlaceScan);
        let shed = core.take_completion().expect("shed at the grant");
        let open = TaskError::ShapeCircuitOpen { cores: 1, gpus: 0 };
        assert_eq!(shed.result.unwrap_err(), open);
        assert_eq!(shed.started, shed.finished);
        assert_eq!(core.transport.scheduled.len(), before + 1, "never launched");
        assert_eq!(core.in_flight, 0);
    }

    #[test]
    fn preempt_frees_the_slot_bumps_the_epoch_and_spends_no_retry() {
        // One core, zero retry budget.
        let mut core = rig(1, |rt| rt);
        let id = core.submit(task(100));
        assert!(!core.preempt(id), "queued, not running");
        fire(&mut core, at(10), Ev::Bootstrap);
        let first = Ev::Complete {
            task: 0,
            attempt: 0,
        };
        assert_eq!(core.transport.scheduled.last(), Some(&(at(111), first)));
        let first_handle = Handle {
            lane: 0,
            event: EventId(core.transport.scheduled.len() as u64 - 1),
        };

        core.now = at(50);
        assert!(core.preempt(id));
        assert_eq!(core.transport.cancelled, [first_handle]);
        // Re-placed at once on the only core there is: it was released.
        let second = Ev::Complete {
            task: 0,
            attempt: 1,
        };
        assert_eq!(core.transport.scheduled.last(), Some(&(at(151), second)));
        let util = core.utilization();
        assert_eq!(util.wasted_core_seconds, 40.0);
        assert_eq!(util.retries, 0);
        assert!(!core.preempt(TaskId(7)), "unknown task");

        // A transport that could not take the first event back in time.
        fire(&mut core, at(111), first);
        assert!(core.take_completion().is_none(), "stale epoch");
        fire(&mut core, at(151), second);
        let c = core
            .take_completion()
            .expect("the requeued attempt finishes");
        assert!(
            c.result.is_ok(),
            "never a terminal error, whatever the budget"
        );
        assert_eq!(c.attempts, 1);
        assert!(!core.preempt(id), "finished");
    }

    /// Consecutive submissions described alike share one descriptor;
    /// any one of the five fields differing — the fraction by its bits —
    /// starts a new one, and so does a previous submission whose lineage
    /// has ended.
    #[test]
    fn alike_submissions_share_a_descriptor_and_unlike_ones_do_not() {
        let long = "a-task-name-of-forty-bytes-for-the-pins.";
        assert_eq!(long.len(), 40);
        let described = |name: &str, tag: &str| {
            TaskDescription::new(name, ResourceRequest::cores(1), secs(50)).with_tag(tag)
        };
        let ml = |name, tag| described(name, tag).with_kind(TaskKind::Ml);
        let capped = |name, tag| ml(name, tag).with_walltime(secs(60));
        let steps = [
            (described("a", ""), 1, "a first submission"),
            (described("a", ""), 1, "alike: shared"),
            (described("b", ""), 2, "another name"),
            (
                described("a", ""),
                3,
                "only the previous submission is asked",
            ),
            (described(long, ""), 4, "a long name"),
            (described(long, ""), 4, "a long name shares too"),
            (described(long, "pl.2"), 5, "another tag"),
            (ml(long, "pl.2"), 6, "another kind"),
            (capped(long, "pl.2"), 7, "a walltime"),
            (
                capped(long, "pl.2").with_gpu_busy_fraction(0.0),
                8,
                "a fraction",
            ),
            (
                capped(long, "pl.2").with_gpu_busy_fraction(-0.0),
                9,
                "its bits",
            ),
        ];
        let mut core = rig(1, |rt| rt);
        for (desc, live, why) in steps {
            core.submit(desc);
            assert_eq!(core.live_descriptors(), live, "{why}");
        }
        let shared = core.descriptors.iter().map(|(_, d)| d.live).max();
        assert_eq!(shared, Some(2));

        // Canceling the last submission ends its lineage: the next one,
        // alike as it is, cannot share.
        assert!(core.cancel(TaskId(10)));
        assert_eq!(core.live_descriptors(), 8);
        core.submit(capped(long, "pl.2").with_gpu_busy_fraction(-0.0));
        assert_eq!(core.live_descriptors(), 9);
    }

    /// A task as the descriptor cases describe it: name, tag, run
    /// seconds, walltime seconds, GPU busy fraction.
    type Spec = (&'static str, &'static str, u64, Option<u64>, f64);

    /// What one engine surfaced, per completion: task, name, tag, and the
    /// outcome with its attempts and hedge flag.
    type Surfaced = Vec<(u64, String, String, String)>;

    /// What a case leaves behind on one engine: what surfaced, the
    /// descriptors still live once drained, and the GPU hardware-busy
    /// seconds booked.
    type Drained = (Surfaced, usize, u64);

    const FORTY: &str = "a-task-name-of-forty-bytes-for-the-cases";

    /// Nodes of one core and one GPU each, under the descriptor cases.
    const NODES: u32 = 2;

    /// Submit `specs`, cancel `cancel` once the first completion is back,
    /// and drain.
    fn drain<B: ExecutionBackend>(
        mut b: B,
        specs: &[Spec],
        cancel: &[u64],
        live: impl Fn(&B) -> usize,
    ) -> Drained {
        for &(name, tag, run, walltime, fraction) in specs {
            let request = ResourceRequest::with_gpus(1, 1);
            let d = TaskDescription::new(name, request, secs(run))
                .with_tag(tag)
                .with_gpu_busy_fraction(fraction);
            b.submit(match walltime {
                Some(limit) => d.with_walltime(secs(limit)),
                None => d,
            });
        }
        let mut surfaced = Vec::new();
        while let Some(c) = b.next_completion() {
            let outcome = match &c.result {
                Ok(_) => "ok".to_string(),
                Err(e) => e.to_string(),
            };
            let outcome = format!("{outcome} after {}, hedged {}", c.attempts, c.hedged);
            surfaced.push((c.task.0, c.name.to_string(), c.tag.to_string(), outcome));
            if surfaced.len() == 1 {
                for &id in cancel {
                    assert!(b.cancel(TaskId(id)), "{} is queued", TaskId(id));
                }
            }
        }
        let util = b.utilization();
        let gpu_seconds = util.makespan.as_secs_f64() * f64::from(NODES);
        (
            surfaced,
            live(&b),
            (util.gpu_hardware * gpu_seconds).round() as u64,
        )
    }

    /// `specs` on every engine, which must agree; what they surfaced.
    fn on_every_engine(
        tune: impl Fn(RuntimeConfig) -> RuntimeConfig,
        specs: &[Spec],
        cancel: &[u64],
    ) -> Drained {
        let runtime = || {
            tune(RuntimeConfig::new(PilotConfig {
                node: NodeSpec::new(1, 1, 64),
                nodes: NODES,
                policy: PlacementPolicy::Backfill,
                bootstrap: secs(100),
                exec_setup_per_task: secs(10),
                seed: 0,
            }))
        };
        let simulated = drain(
            runtime().simulated(),
            specs,
            cancel,
            SimulatedBackend::live_descriptors,
        );
        let sharded = drain(
            runtime().sharded(),
            specs,
            cancel,
            ShardedBackend::live_descriptors,
        );
        let threaded = drain(
            runtime().threaded(),
            specs,
            cancel,
            ThreadedBackend::live_descriptors,
        );
        assert_eq!(simulated, sharded, "sharded");
        assert_eq!(simulated, threaded, "threaded");
        simulated
    }

    /// The names and tags `specs` describe, in task order.
    fn labels(specs: &[Spec]) -> Vec<(u64, String, String)> {
        let named = specs.iter().enumerate();
        named
            .map(|(id, &(name, tag, ..))| (id as u64, name.into(), tag.into()))
            .collect()
    }

    /// What surfaced, without the outcomes, in task order.
    fn surfaced_labels(mut surfaced: Surfaced) -> Vec<(u64, String, String)> {
        surfaced.sort_unstable();
        surfaced
            .into_iter()
            .map(|(id, n, t, _)| (id, n, t))
            .collect()
    }

    #[test]
    fn alternating_and_long_names_surface_as_described_and_free_their_descriptors() {
        let specs: [Spec; 7] = [
            ("a", "pl.1", 50, None, 1.0),
            ("b", "pl.1", 50, None, 1.0),
            ("a", "pl.1", 50, None, 1.0),
            ("b", "pl.2", 50, None, 1.0),
            (FORTY, "pl.2", 50, None, 1.0),
            (FORTY, "pl.2", 50, None, 1.0),
            ("a", FORTY, 50, None, 1.0),
        ];
        let (surfaced, live, _) = on_every_engine(|rt| rt, &specs, &[]);
        assert_eq!(surfaced_labels(surfaced), labels(&specs));
        assert_eq!(live, 0);
    }

    /// Equal names, unequal walltimes or fractions: each task runs under
    /// its own.
    #[test]
    fn equal_names_keep_their_own_walltime_and_fraction() {
        let specs: [Spec; 2] = [("same", "", 50, Some(30), 1.0), ("same", "", 50, None, 1.0)];
        let (surfaced, live, _) = on_every_engine(|rt| rt, &specs, &[]);
        let outcomes: Vec<&str> = surfaced.iter().map(|s| s.3.as_str()).collect();
        assert_eq!(
            outcomes,
            [
                "task exceeded its walltime limit of 30.000s after 0, hedged false",
                "ok after 0, hedged false"
            ]
        );
        assert_eq!(live, 0);

        // One node's GPU busy for the first task's whole 60 s span only.
        let specs: [Spec; 2] = [("same", "", 50, None, 1.0), ("same", "", 50, None, 0.0)];
        let (surfaced, live, gpu_busy) = on_every_engine(|rt| rt, &specs, &[]);
        assert_eq!(surfaced_labels(surfaced), labels(&specs));
        assert_eq!((live, gpu_busy), (0, 60));
    }

    /// Under link faults the canceled task's lineage ends when its ack is
    /// stashed, and the ack carries its name and tag.
    #[test]
    fn a_cancel_ack_under_link_faults_carries_its_labels() {
        let mut faults = FaultConfig::none();
        faults.link.delay = secs(1);
        let plan = FaultPlan::new(faults, 1);
        let specs: [Spec; 4] = [
            ("first", "pl.1", 50, None, 1.0),
            ("second", "pl.1", 500, None, 1.0),
            (FORTY, FORTY, 50, None, 1.0),
            (FORTY, FORTY, 50, None, 1.0),
        ];
        let tune = |rt: RuntimeConfig| rt.faults(plan.clone(), RetryPolicy::none());
        let (surfaced, live, _) = on_every_engine(tune, &specs, &[3]);
        assert_eq!(surfaced_labels(surfaced.clone()), labels(&specs));
        let canceled = surfaced.iter().find(|s| s.0 == 3).expect("task 3 surfaced");
        assert_eq!(canceled.3, "task canceled after 0, hedged false");
        assert_eq!(live, 0);
    }

    /// A straggler on a degraded node is rescued by its duplicate; then
    /// a crash evicts a running attempt and its retry finishes.
    #[test]
    fn a_hedged_winner_and_a_retried_task_surface_their_labels() {
        // Node 0 runs 20x slow from the start. "fast" on node 1 primes the
        // estimate at 60 s, so "slow" is hedged onto node 1 at 220 s.
        let plan = FaultPlan::new(
            FaultConfig {
                scripted_slowdowns: vec![ScriptedSlowdown {
                    node: 0,
                    at: SimTime::ZERO,
                    duration: secs(1_000_000),
                    factor: 20.0,
                }],
                ..FaultConfig::none()
            },
            0,
        );
        let hedge = HedgePolicy {
            threshold: 2.0,
            min_samples: 1,
        };
        let specs: [Spec; 2] = [
            (FORTY, "slow", 50, None, 1.0),
            ("fast", FORTY, 50, None, 1.0),
        ];
        let tune = |rt: RuntimeConfig| rt.faults(plan.clone(), RetryPolicy::none()).hedge(hedge);
        let (surfaced, live, _) = on_every_engine(tune, &specs, &[]);
        assert_eq!(surfaced_labels(surfaced.clone()), labels(&specs));
        assert_eq!(surfaced[1].3, "ok after 0, hedged true");
        assert_eq!(live, 0);

        // Node 0 crashes 20 s into its task, which retries after recovery.
        let plan = FaultPlan::new(
            FaultConfig {
                scripted_crashes: vec![ScriptedCrash {
                    node: 0,
                    at: at(130),
                    outage: secs(10),
                }],
                ..FaultConfig::none()
            },
            0,
        );
        let specs: [Spec; 2] = [
            (FORTY, "crashed", 50, None, 1.0),
            (FORTY, "crashed", 50, None, 1.0),
        ];
        let tune = |rt: RuntimeConfig| rt.faults(plan.clone(), RetryPolicy::retries(1));
        let (surfaced, live, _) = on_every_engine(tune, &specs, &[]);
        assert_eq!(surfaced_labels(surfaced.clone()), labels(&specs));
        let retried = surfaced.iter().find(|s| s.0 == 0).expect("task 0 surfaced");
        assert_eq!(retried.3, "ok after 1, hedged false");
        assert_eq!(live, 0);
    }

    /// A held task keeps its record, so its descriptor outlives the drain
    /// — and only its.
    #[test]
    fn a_held_task_keeps_its_descriptor_and_no_other() {
        let specs: [Spec; 3] = [
            ("fits", "pl.1", 50, None, 1.0),
            ("held", "pl.1", 100_000, None, 1.0),
            ("fits", "pl.1", 50, None, 1.0),
        ];
        let tune = |rt: RuntimeConfig| rt.deadline(at(300));
        let (surfaced, live, _) = on_every_engine(tune, &specs, &[]);
        let names: Vec<&str> = surfaced.iter().map(|s| s.1.as_str()).collect();
        assert_eq!(names, ["fits", "fits"]);
        assert_eq!(live, 1);
    }

    /// `des_clean` holds a million of each. The queue ticket rides in
    /// the seat, where the running slot already was; what a task is
    /// described as sits in a shared descriptor, its spans in a table of
    /// their own.
    #[test]
    fn events_and_task_records_stay_small() {
        assert!(std::mem::size_of::<Ev>() <= 16);
        assert_eq!(std::mem::size_of::<Task>(), 56);
        assert_eq!(std::mem::size_of::<Option<Task>>(), 56);
        assert_eq!(std::mem::size_of::<TaskSpans>(), 32);
        assert_eq!(std::mem::size_of::<Completion>(), 104);
    }
}
