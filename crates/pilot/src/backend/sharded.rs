//! The sharded parallel-DES backend: virtual-time execution for
//! 10k-node campaigns.
//!
//! [`SimulatedBackend`](crate::backend::SimulatedBackend) drives one
//! engine whose events are boxed closures capturing an `Rc<RefCell<…>>`
//! of the whole backend state — perfectly fine at workstation scale, but
//! at 10k nodes and a million tasks the per-event allocation, the
//! refcount churn, and the single monolithic priority queue dominate the
//! run. This backend keeps the *semantics* and changes the engine
//! underneath:
//!
//! * **Typed events, slab state.** Events are a small `Copy` enum; all
//!   mutable state lives in flat storage (`Vec`-indexed task records, a
//!   [`Slab`] of running attempts) addressed by integer handles. No
//!   closure boxing, no `Rc`, no per-event allocation on the hot path.
//! * **Sharded event queues.** The event set is partitioned across
//!   `shards` independent [`EventQueue`]s — completion, crash, and
//!   recover events hash to their node's shard; global events (bootstrap,
//!   placement scans, retry requeues) live on shard 0. The driver
//!   advances all shards to a conservative lookahead horizon (the minimum
//!   head time across shards), drains every event at that instant, and
//!   applies them in global sequence order.
//! * **Deterministic merge.** Every scheduled event carries a global
//!   sequence number assigned in scheduling order — the same order the
//!   sequential engine assigns its `EventId`s. Sorting each instant's
//!   batch by sequence therefore replays the sequential engine's event
//!   order *exactly*: the sharded backend is bit-identical to
//!   [`SimulatedBackend`](crate::backend::SimulatedBackend) (completions,
//!   virtual clocks, metrics, and the full telemetry trace), which the
//!   256-case differential test below proves on random campaigns.
//! * **One heartbeat round per tick.** The one place the event streams
//!   differ: the sequential engine schedules every heartbeat send,
//!   arrival and timeout check as an event of its own and stays the
//!   oracle; this engine drives the `FailureDetector` lane of
//!   [`crate::control`] with one event per tick and stages an arrival or
//!   a check only where it can be observed, under the sequence number the
//!   oracle's event would have carried — so what is observable still
//!   merges identically.
//! * **Optional parallel drive.** With
//!   [`RuntimeConfig::parallel_shards`](crate::RuntimeConfig), each shard
//!   queue is owned by a worker thread (on the same `crate::sync` channel
//!   substrate as the threaded backend) and the per-horizon queue
//!   operations — batched inserts, cancellations, drains — run
//!   concurrently. Both drive modes execute the same `sync_queue`
//!   routine, so the event stream is identical; only queue ownership
//!   changes.
//!
//! Granularity caveat: the sequential engine interleaves driver calls
//! (submit/cancel between `next_completion`s) *between* same-instant
//! events; this backend delivers a whole instant's completions before the
//! driver runs again. Drivers that submit in reaction to a completion see
//! identical placements as long as they do not race other events at that
//! exact microsecond — the standard submit-then-drain protocols (and all
//! repo workloads) satisfy this.

use crate::backend::{Completion, ExecutionBackend, TaskError};
use crate::control::{ControlPlane, ControlStats, FailureDetector, Wake, WakeKind};
use crate::fault::{
    dilate_span, AttemptFault, FaultPlan, HedgePolicy, QuarantinePolicy, RetryPolicy, SlowWindow,
};
use crate::pilot::{PhaseBreakdown, PilotConfig};
use crate::profiler::UtilizationReport;
use crate::resources::Allocation;
use crate::runtime::RuntimeConfig;
use crate::scheduler::Scheduler;
use crate::states::{StateCell, TaskState};
use crate::task::{TaskDescription, TaskId, TaskWork};
use impress_sim::{EventId, EventQueue, SimDuration, SimRng, SimTime, Slab, SlotId};
use impress_telemetry::{track, SpanCat, SpanId, Stamp, Telemetry};
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use super::{msg_key, MSG_CANCEL, MSG_DONE, MSG_HEDGE, MSG_RETRY, MSG_SUBMIT};

/// A simulation event. `Copy`, six machine words: scheduling one costs a
/// heap-free push into a shard's outbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Pilot bootstrap completes; placement may begin.
    Bootstrap,
    /// Coalesced submit-triggered placement scan.
    PlaceScan,
    /// A placed attempt reaches its modeled end. Stale deliveries (the
    /// attempt was evicted in the same instant's batch) are suppressed by
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
    /// epoch vs the running record) turns away reports superseded by a
    /// suspicion eviction.
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
    /// Failure detector on: one heartbeat tick for every node — the
    /// [`FailureDetector`] lane's round.
    HeartbeatRound,
    /// Failure detector on: a heartbeat arrival the lane could not fold
    /// (its node is suspected, so it may resync).
    HeartbeatArrive { node: u32 },
    /// Failure detector on: a suspicion check the lane could not rule
    /// out, one timeout after the heartbeat round that armed it.
    SuspectCheck { node: u32 },
}

/// Queue payload: global sequence number (the deterministic merge key,
/// mirroring the sequential engine's `EventId` order) plus the event.
type Item = (u64, Ev);

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

/// Span bookkeeping for one in-flight task (all `SpanId::NONE` when
/// telemetry is disabled).
#[derive(Clone, Copy)]
struct TaskSpans {
    task: SpanId,
    queue: SpanId,
    attempt: SpanId,
    queued_at: SimTime,
}

/// One submitted task, indexed by its id in the flat task table.
struct Task {
    name: String,
    tag: String,
    request: crate::resources::ResourceRequest,
    priority: i32,
    duration: SimDuration,
    gpu_busy_fraction: f64,
    kind: crate::task::TaskKind,
    walltime: Option<SimDuration>,
    attempts: u32,
    work: Option<TaskWork>,
    state: StateCell,
    spans: TaskSpans,
    /// Slab handle of the current running attempt, if placed.
    running: Option<SlotId>,
    /// Whether a hedged duplicate was ever placed for this task.
    hedged: bool,
}

/// A placed attempt: everything needed to complete, evict, or waste it.
struct Running {
    task: u64,
    attempt: u32,
    alloc: Allocation,
    started: SimTime,
    setup: SimDuration,
    outcome: Planned,
    /// Where the completion event lives, for cancellation on eviction.
    shard: usize,
    event: EventId,
}

/// A live hedge duplicate (at most one per task).
struct HedgeRun {
    /// The main attempt number this duplicate shadows.
    attempt: u32,
    alloc: Allocation,
    started: SimTime,
    setup: SimDuration,
    /// Where the [`Ev::HedgeWin`] event lives, for cancellation when the
    /// main attempt settles first.
    shard: usize,
    event: EventId,
}

/// Aggregate utilization accounting. The per-device
/// [`Profiler`](crate::profiler::Profiler) keeps a busy-interval list per
/// core and per GPU — ~1.3 GB of trackers at 10k nodes. Campaign reports
/// only need cluster-wide means, which a running occupancy integral
/// (`Σ busy_devices × dt`) computes in O(1) per placement/completion:
/// mathematically identical to the mean over per-device ratios, since
/// every device shares the same `[0, end]` window.
struct AggregateUtil {
    cores_total: u64,
    gpus_total: u64,
    busy_cores: u64,
    busy_gpus: u64,
    last: SimTime,
    core_busy_us: u128,
    gpu_slot_busy_us: u128,
    /// GPU hardware-busy device-microseconds (fraction-weighted).
    gpu_hw_us: f64,
    tasks: usize,
    retries: usize,
    wasted_core_seconds: f64,
    wasted_gpu_seconds: f64,
    hedges: usize,
    hedge_wasted_core_seconds: f64,
    hedge_wasted_gpu_seconds: f64,
}

impl AggregateUtil {
    fn new(cores: u32, gpus: u32, nodes: u32) -> Self {
        AggregateUtil {
            cores_total: cores as u64 * nodes as u64,
            gpus_total: gpus as u64 * nodes as u64,
            busy_cores: 0,
            busy_gpus: 0,
            last: SimTime::ZERO,
            core_busy_us: 0,
            gpu_slot_busy_us: 0,
            gpu_hw_us: 0.0,
            tasks: 0,
            retries: 0,
            wasted_core_seconds: 0.0,
            wasted_gpu_seconds: 0.0,
            hedges: 0,
            hedge_wasted_core_seconds: 0.0,
            hedge_wasted_gpu_seconds: 0.0,
        }
    }

    /// Integrate occupancy up to `now`.
    fn tick(&mut self, now: SimTime) {
        let dt = now.since(self.last).as_micros() as u128;
        self.core_busy_us += self.busy_cores as u128 * dt;
        self.gpu_slot_busy_us += self.busy_gpus as u128 * dt;
        self.last = now;
    }

    fn place(&mut self, alloc: &Allocation, now: SimTime) {
        self.tick(now);
        self.busy_cores += alloc.core_ids.len() as u64;
        self.busy_gpus += alloc.gpu_ids.len() as u64;
    }

    fn finish(&mut self, alloc: &Allocation, started: SimTime, now: SimTime, fraction: f64) {
        self.tick(now);
        self.busy_cores -= alloc.core_ids.len() as u64;
        self.busy_gpus -= alloc.gpu_ids.len() as u64;
        let busy = now.since(started).mul_f64(fraction.clamp(0.0, 1.0));
        self.gpu_hw_us += busy.as_micros() as f64 * alloc.gpu_ids.len() as f64;
        self.tasks += 1;
    }

    fn waste(&mut self, alloc: &Allocation, started: SimTime, at: SimTime) {
        self.tick(at);
        self.busy_cores -= alloc.core_ids.len() as u64;
        self.busy_gpus -= alloc.gpu_ids.len() as u64;
        let secs = at.since(started).as_secs_f64();
        self.wasted_core_seconds += secs * alloc.core_ids.len() as f64;
        self.wasted_gpu_seconds += secs * alloc.gpu_ids.len() as f64;
    }

    fn note_retry(&mut self) {
        self.retries += 1;
    }

    fn note_hedge(&mut self) {
        self.hedges += 1;
    }

    /// End a hedge loser's occupancy, booking it into the hedge-waste
    /// pools (kept apart from retry waste in the report).
    fn hedge_waste(&mut self, alloc: &Allocation, started: SimTime, at: SimTime) {
        self.tick(at);
        self.busy_cores -= alloc.core_ids.len() as u64;
        self.busy_gpus -= alloc.gpu_ids.len() as u64;
        let secs = at.since(started).as_secs_f64();
        self.hedge_wasted_core_seconds += secs * alloc.core_ids.len() as f64;
        self.hedge_wasted_gpu_seconds += secs * alloc.gpu_ids.len() as f64;
    }

    fn report(&self, end: SimTime) -> UtilizationReport {
        let end_us = end.as_micros() as f64;
        let tail = end.since(self.last).as_micros() as u128;
        let core_us = (self.core_busy_us + self.busy_cores as u128 * tail) as f64;
        let gpu_us = (self.gpu_slot_busy_us + self.busy_gpus as u128 * tail) as f64;
        let frac = |busy_us: f64, devices: u64| {
            if devices == 0 || end_us == 0.0 {
                0.0
            } else {
                busy_us / (devices as f64 * end_us)
            }
        };
        UtilizationReport {
            cpu: frac(core_us, self.cores_total),
            gpu_slot: frac(gpu_us, self.gpus_total),
            gpu_hardware: frac(self.gpu_hw_us, self.gpus_total),
            makespan: end.since(SimTime::ZERO),
            tasks: self.tasks,
            retries: self.retries,
            wasted_core_seconds: self.wasted_core_seconds,
            wasted_gpu_seconds: self.wasted_gpu_seconds,
            hedges: self.hedges,
            hedge_wasted_core_seconds: self.hedge_wasted_core_seconds,
            hedge_wasted_gpu_seconds: self.hedge_wasted_gpu_seconds,
        }
    }
}

/// One shard queue sync: apply staged inserts, then cancellations (so a
/// cancel may target an id staged in the same sync), then optionally
/// drain every event at exactly `drain`. Returns the drained events and
/// the queue's next head time. Both drive modes — in-process and worker
/// thread — run exactly this routine, which is what makes them
/// event-identical.
fn sync_queue(
    q: &mut EventQueue<Item>,
    pushes: Vec<(SimTime, Item)>,
    cancels: Vec<EventId>,
    drain: Option<SimTime>,
) -> Reply {
    let _ = q.schedule_batch(pushes);
    for id in cancels {
        // A cancel may race an event already delivered in this instant's
        // batch; the queue's exact-cancel contract makes that a clean no-op.
        let _ = q.cancel(id);
    }
    let mut events = Vec::new();
    if let Some(t) = drain {
        while q.peek_time() == Some(t) {
            events.push(q.pop().expect("peeked event pops").payload);
        }
    }
    Reply {
        events,
        next: q.peek_time(),
    }
}

/// Command to a shard (worker thread mode).
enum Cmd {
    Sync {
        pushes: Vec<(SimTime, Item)>,
        cancels: Vec<EventId>,
        drain: Option<SimTime>,
    },
    Shutdown,
}

/// A shard's answer to [`Cmd::Sync`].
struct Reply {
    events: Vec<Item>,
    next: Option<SimTime>,
}

/// Worker threads owning the shard queues (parallel drive mode).
struct WorkerPool {
    txs: Vec<crate::sync::Sender<Cmd>>,
    rxs: Vec<crate::sync::Receiver<Reply>>,
    joins: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn spawn(n: usize) -> Self {
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        let mut joins = Vec::with_capacity(n);
        for _ in 0..n {
            let (ctx, crx) = crate::sync::channel::<Cmd>();
            let (rtx, rrx) = crate::sync::channel::<Reply>();
            joins.push(std::thread::spawn(move || {
                let mut q: EventQueue<Item> = EventQueue::new();
                while let Ok(cmd) = crx.recv() {
                    match cmd {
                        Cmd::Sync {
                            pushes,
                            cancels,
                            drain,
                        } => {
                            if rtx.send(sync_queue(&mut q, pushes, cancels, drain)).is_err() {
                                break;
                            }
                        }
                        Cmd::Shutdown => break,
                    }
                }
            }));
            txs.push(ctx);
            rxs.push(rrx);
        }
        WorkerPool { txs, rxs, joins }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for tx in &self.txs {
            let _ = tx.send(Cmd::Shutdown);
        }
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

/// Who owns the shard queues.
enum ShardStore {
    /// In-process: the driver syncs each queue inline.
    Serial(Vec<EventQueue<Item>>),
    /// Worker threads: syncs for all selected shards run concurrently.
    Parallel(WorkerPool),
}

/// Driver-side bookkeeping for one shard.
#[derive(Default)]
struct ShardMeta {
    /// Events staged since the last sync.
    outbox: Vec<(SimTime, Item)>,
    /// Cancellations staged since the last sync.
    cancels: Vec<EventId>,
    /// Mirror of the queue's id counter: ids are assigned in push order,
    /// so the driver predicts each staged event's [`EventId`] without a
    /// round trip.
    next_id: u64,
    /// Head time after the last sync (the shard's lookahead bound).
    peek: Option<SimTime>,
    /// Whether `outbox`/`cancels` hold anything.
    dirty: bool,
}

/// The sharded virtual-time pilot backend. Behavior (and, for a given
/// seed, the exact event stream) matches
/// [`SimulatedBackend`](crate::backend::SimulatedBackend); see the module
/// docs for what differs underneath.
pub struct ShardedBackend {
    nshards: usize,
    store: ShardStore,
    shards: Vec<ShardMeta>,
    now: SimTime,
    /// Global scheduling sequence — the deterministic merge key.
    next_seq: u64,
    scheduler: Scheduler,
    util: AggregateUtil,
    breakdown: PhaseBreakdown,
    /// Task records indexed by task id (ids are assigned densely from 0).
    tasks: Vec<Option<Task>>,
    running: Slab<Running>,
    completions: VecDeque<Completion>,
    in_flight: usize,
    exec_setup: SimDuration,
    bootstrapped: bool,
    faults: FaultPlan,
    retry: RetryPolicy,
    backoff_rng: SimRng,
    deadline: Option<SimTime>,
    held: Vec<u64>,
    place_event_pending: bool,
    telemetry: Telemetry,
    config: PilotConfig,
    /// Scratch: the current instant's merged event batch.
    batch: Vec<Item>,
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
    /// `(cores, gpus) → (completions, total span micros)`.
    estimates: HashMap<(u32, u32), (u64, u128)>,
    /// Live hedge duplicates, keyed by task id (at most one per task).
    hedge_running: HashMap<u64, HedgeRun>,
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
    /// The heartbeat failure detector (`None` = no heartbeats configured).
    detector: Option<FailureDetector>,
    /// Scratch: what one heartbeat round asks to have scheduled.
    wakes: Vec<Wake>,
    /// Nodes currently declared suspect by the detector.
    suspected: Vec<bool>,
    /// Ground-truth node health (set by crash/recover events); a crashed
    /// node emits no heartbeats and cannot be resynced by one.
    crashed: Vec<bool>,
    /// Idempotent-dedup set: message identities whose effects have been
    /// applied. A second arrival of the same identity is absorbed.
    seen: HashSet<(u64, u32, u8)>,
    /// Cancel acks in flight: `Ev` is `Copy`, so the completion's strings
    /// are stashed here between the cancel call and the ack's delivery.
    canceled_acks: HashMap<u64, (String, String, bool)>,
}

impl ShardedBackend {
    /// Start a pilot with default sharding (8 shards, in-process drive).
    /// Bootstrap begins at `t = 0`; no task can start before
    /// `config.bootstrap` has elapsed.
    pub fn new(config: PilotConfig) -> Self {
        Self::from_config(RuntimeConfig::new(config))
    }

    /// Start a pilot under a full [`RuntimeConfig`] — fault plan + retry
    /// policy, walltime deadline, telemetry, shard count, and drive mode.
    pub fn from_config(runtime: RuntimeConfig) -> Self {
        let RuntimeConfig {
            pilot: config,
            faults,
            retry,
            deadline,
            telemetry,
            shards,
            parallel_shards,
            hedge,
            quarantine,
            ..
        } = runtime;
        let nshards = shards.max(1);
        // Per-node slowdown schedules, realized once — the same
        // `fork_idx("node-slow", n)` draws as the sequential backend, so
        // both engines see identical windows.
        let slow: Vec<Vec<SlowWindow>> = (0..config.nodes)
            .map(|n| faults.slowdown_windows(n))
            .collect();
        let backoff_rng = SimRng::from_seed(config.seed).fork("retry-backoff");
        let control = ControlPlane::from_plan(&faults);
        let node_count = config.nodes as usize;
        let detector = control
            .as_ref()
            .and_then(|cp| FailureDetector::new(cp.link(), node_count));
        // Bootstrap completes at a known instant: record its span up front.
        let boot = telemetry.span(
            SpanCat::Pilot,
            "bootstrap",
            SpanId::NONE,
            track::PILOT,
            Stamp::virt(SimTime::ZERO),
            &[],
        );
        telemetry.end(boot, Stamp::virt(SimTime::ZERO + config.bootstrap));
        let store = if parallel_shards {
            ShardStore::Parallel(WorkerPool::spawn(nshards))
        } else {
            ShardStore::Serial((0..nshards).map(|_| EventQueue::new()).collect())
        };
        let mut backend = ShardedBackend {
            nshards,
            store,
            shards: (0..nshards).map(|_| ShardMeta::default()).collect(),
            now: SimTime::ZERO,
            next_seq: 0,
            scheduler: Scheduler::new_cluster(config.cluster(), config.policy),
            util: AggregateUtil::new(config.node.cores, config.node.gpus, config.nodes),
            breakdown: PhaseBreakdown {
                bootstrap: config.bootstrap,
                ..Default::default()
            },
            tasks: Vec::new(),
            running: Slab::new(),
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
            config,
            batch: Vec::new(),
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
            wakes: Vec::new(),
            suspected: vec![false; node_count],
            crashed: vec![false; node_count],
            seen: HashSet::new(),
            canceled_acks: HashMap::new(),
        };
        // Event construction order mirrors the sequential engine exactly:
        // bootstrap first, then each node's crash/recover windows — so
        // global sequence numbers coincide with its EventIds.
        backend.schedule(SimTime::ZERO + backend.config.bootstrap, Ev::Bootstrap);
        for node in 0..backend.config.nodes {
            let windows = backend.faults.crash_windows(node);
            for (crash_at, recover_at) in windows {
                backend.schedule(crash_at, Ev::Crash { node });
                backend.schedule(recover_at, Ev::Recover { node });
            }
        }
        backend
    }

    /// The pilot configuration this backend runs.
    pub fn config(&self) -> &PilotConfig {
        &self.config
    }

    /// Number of event-queue shards.
    pub fn shard_count(&self) -> usize {
        self.nshards
    }

    /// Stage an event on `shard`, returning its predicted queue id.
    fn schedule_on(&mut self, shard: usize, at: SimTime, ev: Ev) -> (usize, EventId) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stage(shard, at, seq, ev)
    }

    /// Stage an event on `shard` under a sequence number of the caller's:
    /// the failure-detector lane reserves a range per heartbeat round and
    /// stages what it has to, later, under the numbers the sequential
    /// engine's events would have had.
    fn stage(&mut self, shard: usize, at: SimTime, seq: u64, ev: Ev) -> (usize, EventId) {
        let meta = &mut self.shards[shard];
        let id = EventId(meta.next_id);
        meta.next_id += 1;
        meta.outbox.push((at, (seq, ev)));
        meta.dirty = true;
        (shard, id)
    }

    /// An event's home shard: node-owned events hash to their node,
    /// global (hub-link) events live on shard 0.
    fn home_shard(&self, ev: Ev) -> usize {
        match ev {
            Ev::Crash { node }
            | Ev::Recover { node }
            | Ev::HeartbeatArrive { node }
            | Ev::SuspectCheck { node } => node as usize % self.nshards,
            _ => 0,
        }
    }

    /// Stage an event on its home shard.
    fn schedule(&mut self, at: SimTime, ev: Ev) -> (usize, EventId) {
        self.schedule_on(self.home_shard(ev), at, ev)
    }

    /// Stage what the failure-detector lane asked for, under the sequence
    /// number the lane reserved for it.
    fn schedule_wake(&mut self, wake: Wake) {
        let ev = match wake.kind {
            WakeKind::Arrive => Ev::HeartbeatArrive { node: wake.node },
            WakeKind::Check => Ev::SuspectCheck { node: wake.node },
        };
        self.stage(self.home_shard(ev), wake.at, wake.key, ev);
    }

    /// Stage a cancellation for the next sync of `shard`.
    fn cancel_event(&mut self, shard: usize, id: EventId) {
        let meta = &mut self.shards[shard];
        meta.cancels.push(id);
        meta.dirty = true;
    }

    /// Sync shard queues. With `drain = None` this flushes staged work on
    /// dirty shards and refreshes their head times. With `drain = Some(t)`
    /// it additionally selects shards whose head is at `t` and pulls every
    /// event at that instant into `self.batch`. In parallel mode all
    /// selected shards sync concurrently (fan out, then collect).
    fn sync_shards(&mut self, drain: Option<SimTime>) {
        match &mut self.store {
            ShardStore::Serial(queues) => {
                for (meta, q) in self.shards.iter_mut().zip(queues.iter_mut()) {
                    if !meta.dirty && !(drain.is_some() && meta.peek == drain) {
                        continue;
                    }
                    let reply = sync_queue(
                        q,
                        std::mem::take(&mut meta.outbox),
                        std::mem::take(&mut meta.cancels),
                        drain,
                    );
                    meta.dirty = false;
                    meta.peek = reply.next;
                    self.batch.extend(reply.events);
                }
            }
            ShardStore::Parallel(pool) => {
                let mut sent: Vec<usize> = Vec::new();
                for (i, meta) in self.shards.iter_mut().enumerate() {
                    if !meta.dirty && !(drain.is_some() && meta.peek == drain) {
                        continue;
                    }
                    pool.txs[i]
                        .send(Cmd::Sync {
                            pushes: std::mem::take(&mut meta.outbox),
                            cancels: std::mem::take(&mut meta.cancels),
                            drain,
                        })
                        .expect("shard worker alive");
                    sent.push(i);
                }
                for i in sent {
                    let reply = pool.rxs[i].recv().expect("shard worker replies");
                    let meta = &mut self.shards[i];
                    meta.dirty = false;
                    meta.peek = reply.next;
                    self.batch.extend(reply.events);
                }
            }
        }
    }

    /// The conservative lookahead horizon: flush staged work, then take
    /// the earliest head time across shards. No shard can hold an event
    /// earlier than this, so the whole instant is safe to process.
    fn horizon(&mut self) -> Option<SimTime> {
        self.sync_shards(None);
        self.shards.iter().filter_map(|m| m.peek).min()
    }

    /// Advance to the next event instant and process *all* of it: drain
    /// every shard's events at the horizon, sort by global sequence, and
    /// apply — repeating while handlers schedule more work at the same
    /// instant. Returns `false` when no events remain anywhere.
    fn pump(&mut self) -> bool {
        let Some(t) = self.horizon() else {
            return false;
        };
        self.now = t;
        loop {
            self.sync_shards(Some(t));
            let mut batch = std::mem::take(&mut self.batch);
            if batch.is_empty() {
                self.batch = batch;
                return true;
            }
            batch.sort_unstable_by_key(|&(seq, _)| seq);
            for &(_, ev) in &batch {
                self.apply(ev, t);
            }
            batch.clear();
            self.batch = batch;
        }
    }

    /// Dispatch one event. Apart from the heartbeat lane (one round
    /// event where the sequential backend has three events per node) the
    /// bodies mirror the sequential backend's event closures statement
    /// for statement.
    fn apply(&mut self, ev: Ev, now: SimTime) {
        match ev {
            Ev::Bootstrap => {
                self.bootstrapped = true;
                self.place_ready(now);
            }
            Ev::PlaceScan => {
                self.place_event_pending = false;
                self.place_ready(now);
            }
            Ev::Complete { task, attempt } => self.complete(task, attempt, now),
            Ev::Requeue { task } => self.requeue(task, now),
            Ev::Crash { node } => self.crash(node, now),
            Ev::Recover { node } => self.recover(node, now),
            Ev::HedgeCheck { task, attempt } => self.hedge_check(task, attempt, now),
            Ev::HedgeWin { task, attempt } => self.hedge_win(task, attempt, now),
            Ev::SubmitArrive { task } => self.deliver_submit(task, now),
            Ev::DeliverDone { task, attempt } => self.deliver_done(task, attempt, now),
            Ev::DeliverHedge { task, attempt } => self.deliver_hedge(task, attempt, now),
            Ev::RetryArrive { task, attempt } => self.deliver_retry(task, attempt, now),
            Ev::CancelAck { task, attempt } => self.deliver_cancel(task, attempt, now),
            Ev::HeartbeatRound => self.heartbeat_round(now),
            Ev::HeartbeatArrive { node } => self.heartbeat_arrive(node, now),
            Ev::SuspectCheck { node } => self.suspect_check(node, now),
        }
    }

    /// A completion event fires: finish the attempt (running its work) or
    /// end a doomed one. Stale deliveries — the attempt was evicted by a
    /// crash earlier in this same instant's batch — are dropped here,
    /// exactly where the sequential engine's `cancel` would have
    /// suppressed them.
    fn complete(&mut self, task: u64, attempt: u32, now: SimTime) {
        let slot = match self.tasks[task as usize].as_ref().and_then(|t| t.running) {
            Some(slot) if self.running.get(slot).is_some_and(|r| r.attempt == attempt) => slot,
            _ => return,
        };
        let run = self.running.remove(slot);
        self.tasks[task as usize]
            .as_mut()
            .expect("running task has a record")
            .running = None;
        // A live hedge duplicate lost the race to this settlement (or
        // shares the attempt's failure): cancel it first.
        self.settle_hedge_loser(task, true, now);
        match run.outcome {
            Planned::Finish => {
                self.finish_task(TaskId(task), run.alloc, run.started, now, run.setup);
            }
            Planned::Injected | Planned::TimedOut(_) => {
                let err = match run.outcome {
                    Planned::Injected => TaskError::Injected,
                    Planned::TimedOut(limit) => TaskError::TimedOut { limit },
                    Planned::Finish => unreachable!("finish handled above"),
                };
                let node = run.alloc.node;
                self.util.waste(&run.alloc, run.started, now);
                self.scheduler.release_owned(run.alloc);
                self.fail_attempt(TaskId(task), err, run.started, now, node);
            }
        }
        self.place_ready(now);
    }

    /// Route a control message through the plane: `Some((primary,
    /// duplicate))` arrival instants with delivery stats booked, or `None`
    /// when the plane is off and the caller must take its direct
    /// (pre-control-plane) path.
    fn route(
        &mut self,
        label: &str,
        key: u64,
        node: Option<u32>,
        sent: SimTime,
    ) -> Option<(SimTime, Option<SimTime>)> {
        let cp = self.control.as_ref()?;
        let d = cp.deliveries(label, key, node, sent);
        self.cstats.messages += 1;
        self.cstats.retransmits += u64::from(d.transmissions.saturating_sub(1));
        if d.duplicate.is_some() {
            self.cstats.duplicates += 1;
        }
        Some((d.primary, d.duplicate))
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
            let owner = self.tasks[task as usize]
                .as_ref()
                .map(|t| t.spans.task)
                .unwrap_or(SpanId::NONE);
            self.telemetry.instant(
                SpanCat::Control,
                "dedup-hit",
                owner,
                track::task(task),
                Stamp::virt(at),
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
            let owner = self.tasks[task as usize]
                .as_ref()
                .map(|t| t.spans.task)
                .unwrap_or(SpanId::NONE);
            self.telemetry.instant(
                SpanCat::Control,
                "fenced-completion",
                owner,
                track::task(task),
                Stamp::virt(at),
                &[("attempt", attempt as i64)],
            );
            self.telemetry.count("fenced_completions", 1);
        }
    }

    /// Arrival of a completion report at the coordinator (control plane
    /// on): the routed twin of [`ShardedBackend::complete`], with dedup
    /// and the lease fence in front of the settlement.
    fn deliver_done(&mut self, task: u64, attempt: u32, now: SimTime) {
        if self.dedup(task, attempt, MSG_DONE, now) {
            return;
        }
        let slot = match self.tasks[task as usize].as_ref().and_then(|t| t.running) {
            Some(slot) if self.running.get(slot).is_some_and(|r| r.attempt == attempt) => slot,
            _ => {
                self.fence(task, attempt, now);
                return;
            }
        };
        let run = self.running.remove(slot);
        self.tasks[task as usize]
            .as_mut()
            .expect("running task has a record")
            .running = None;
        // A live hedge duplicate lost the race to this settlement.
        self.settle_hedge_loser(task, true, now);
        match run.outcome {
            Planned::Finish => {
                self.finish_task(TaskId(task), run.alloc, run.started, now, run.setup);
            }
            Planned::Injected | Planned::TimedOut(_) => {
                let err = match run.outcome {
                    Planned::Injected => TaskError::Injected,
                    Planned::TimedOut(limit) => TaskError::TimedOut { limit },
                    Planned::Finish => unreachable!("finish handled above"),
                };
                let node = run.alloc.node;
                self.util.waste(&run.alloc, run.started, now);
                self.scheduler.release_owned(run.alloc);
                self.fail_attempt(TaskId(task), err, run.started, now, node);
            }
        }
        self.place_ready(now);
    }

    /// Arrival of a submit command at the coordinator (control plane on):
    /// the task enters the scheduler queue here, not at the client call.
    fn deliver_submit(&mut self, task: u64, now: SimTime) {
        if self.dedup(task, 0, MSG_SUBMIT, now) {
            return;
        }
        let (request, priority) = {
            let t = self.tasks[task as usize]
                .as_ref()
                .expect("submitted task has a record");
            (t.request, t.priority)
        };
        self.scheduler
            .enqueue_with_priority(TaskId(task), request, priority);
        if self.telemetry.enabled() {
            self.telemetry
                .gauge("queue_depth", self.scheduler.queue_len() as f64);
        }
        self.place_ready(now);
    }

    /// Arrival of a retry verdict (control plane on): requeue the task for
    /// its next attempt. Duplicated verdicts requeue once.
    fn deliver_retry(&mut self, task: u64, attempt: u32, now: SimTime) {
        if self.dedup(task, attempt, MSG_RETRY, now) {
            return;
        }
        let (request, priority) = {
            let t = self.tasks[task as usize]
                .as_ref()
                .expect("requeued task has a record");
            (t.request, t.priority)
        };
        self.scheduler
            .enqueue_with_priority(TaskId(task), request, priority);
        if self.telemetry.enabled() {
            let tele = self.telemetry.clone();
            let at = Stamp::virt(now);
            let t = self.tasks[task as usize]
                .as_mut()
                .expect("requeued task has a record");
            let queue = tele.span(
                SpanCat::Queue,
                "queue",
                t.spans.task,
                track::task(task),
                at,
                &[("attempt", attempt as i64)],
            );
            t.spans.queue = queue;
            t.spans.queued_at = now;
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

    /// Arrival of a hedge duplicate's completion report (control plane
    /// on): the routed twin of [`ShardedBackend::hedge_win`], with the
    /// same dedup/fence discipline as main-attempt reports.
    fn deliver_hedge(&mut self, task: u64, attempt: u32, now: SimTime) {
        if self.dedup(task, attempt, MSG_HEDGE, now) {
            return;
        }
        let hedge = match self.hedge_running.get(&task) {
            Some(h) if h.attempt == attempt => {
                self.hedge_running.remove(&task).expect("probed just above")
            }
            _ => {
                self.fence(task, attempt, now);
                return;
            }
        };
        let slot = self.tasks[task as usize].as_mut().and_then(|t| t.running.take());
        let Some(slot) = slot else {
            // No live main to rescue (it was evicted between the hedge's
            // finish and this delivery): book the duplicate as waste. The
            // freed slots can admit queued work, so re-scan.
            self.util.hedge_waste(&hedge.alloc, hedge.started, now);
            self.scheduler.release_owned(hedge.alloc);
            self.fence(task, attempt, now);
            self.place_ready(now);
            return;
        };
        let run = self.running.remove(slot);
        self.cancel_event(run.shard, run.event);
        self.util.hedge_waste(&run.alloc, run.started, now);
        self.scheduler.release_owned(run.alloc);
        if self.telemetry.enabled() {
            let tele = self.telemetry.clone();
            let owner = self.tasks[task as usize]
                .as_ref()
                .map(|t| t.spans.attempt)
                .unwrap_or(SpanId::NONE);
            tele.instant(
                SpanCat::Hedge,
                "hedge-win",
                owner,
                track::task(task),
                Stamp::virt(now),
                &[("node", hedge.alloc.node as i64)],
            );
            tele.count("hedge_wins", 1);
        }
        self.finish_task(TaskId(task), hedge.alloc, hedge.started, now, hedge.setup);
        self.place_ready(now);
    }

    /// (Re)start heartbeat rounds under a configured failure detector.
    /// Rounds run only while work is in flight — the first round that
    /// finds the coordinator idle retires the detector — so a drained run
    /// still exhausts its event queues.
    fn ensure_heartbeats(&mut self, now: SimTime) {
        let Some(fd) = self.detector.as_mut().filter(|fd| !fd.live()) else {
            return;
        };
        let base = self.next_seq;
        self.next_seq += fd.keys_per_start();
        let (at, seq) = fd.start(now, base);
        self.stage(0, at, seq, Ev::HeartbeatRound);
    }

    /// One heartbeat tick for all nodes: the lane draws every uncrashed
    /// node's seeded delivery verdict and asks for queue events only where
    /// an arrival or a check can be observed (see [`FailureDetector`]).
    fn heartbeat_round(&mut self, now: SimTime) {
        let (Some(cp), Some(fd)) = (&self.control, &mut self.detector) else {
            return;
        };
        if self.in_flight == 0 {
            fd.retire();
            return;
        }
        let base = self.next_seq;
        self.next_seq += fd.keys_per_round();
        let mut wakes = std::mem::take(&mut self.wakes);
        let round = fd.round(
            now,
            base,
            &self.crashed,
            &self.suspected,
            |node, key| cp.best_effort("hb", key, node, now),
            &mut wakes,
        );
        self.cstats.heartbeats_sent += round.sent;
        self.cstats.heartbeats_delivered += round.delivered;
        for wake in wakes.drain(..) {
            self.schedule_wake(wake);
        }
        self.wakes = wakes;
        let (at, seq) = round.next;
        self.stage(0, at, seq, Ev::HeartbeatRound);
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
                    Stamp::virt(now),
                    &[("node", node as i64)],
                );
                self.telemetry.count("resyncs", 1);
            }
            self.place_ready(now);
        }
    }

    /// A timeout check the lane could not rule out when it decided it: if
    /// the node has been silent for a full timeout, declare it suspect.
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
            self.schedule_wake(wake);
        }
        // Victims in task-id order: slab iteration order must not leak
        // into the deterministic event stream.
        let mut victims: Vec<(u64, SlotId)> = self
            .running
            .iter()
            .filter(|(_, r)| r.alloc.node == node)
            .map(|(slot, r)| (r.task, slot))
            .collect();
        victims.sort_unstable_by_key(|&(task, _)| task);
        self.scheduler.drain_node(node);
        if self.telemetry.enabled() {
            self.telemetry.instant(
                SpanCat::Control,
                "suspect",
                SpanId::NONE,
                track::FAULT,
                Stamp::virt(now),
                &[("node", node as i64)],
            );
            self.telemetry.count("suspicions", 1);
        }
        // Hedge duplicates resident on the suspected node forfeit their
        // slots exactly as under a crash (the drained pool is rebuilt).
        {
            let mut hedge_ids: Vec<u64> = self
                .hedge_running
                .iter()
                .filter(|(_, r)| r.alloc.node == node)
                .map(|(&i, _)| i)
                .collect();
            hedge_ids.sort_unstable();
            for i in hedge_ids {
                self.settle_hedge_loser(i, false, now);
            }
        }
        for (task, slot) in victims {
            let run = self.running.remove(slot);
            self.tasks[task as usize]
                .as_mut()
                .expect("victim has a record")
                .running = None;
            // The completion-report event stays live: the report genuinely
            // arrives later and is turned away by the lease fence.
            self.settle_hedge_loser(task, true, now);
            self.cstats.lease_expiries += 1;
            self.util.waste(&run.alloc, run.started, now);
            if self.telemetry.enabled() {
                let owner = self.tasks[task as usize]
                    .as_ref()
                    .map(|t| t.spans.attempt)
                    .unwrap_or(SpanId::NONE);
                self.telemetry.instant(
                    SpanCat::Control,
                    "lease-expired",
                    owner,
                    track::task(task),
                    Stamp::virt(now),
                    &[("node", node as i64), ("attempt", run.attempt as i64)],
                );
                self.telemetry.count("lease_expiries", 1);
            }
            self.fail_attempt(
                TaskId(task),
                TaskError::LeaseExpired { node },
                run.started,
                now,
                node,
            );
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
        let mut task = self.tasks[id.0 as usize].take().expect("task record exists");
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
        self.util
            .finish(&alloc, started, now, task.gpu_busy_fraction);
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
            let tele = self.telemetry.clone();
            let at = Stamp::virt(now);
            tele.end(task.spans.attempt, at);
            tele.end(task.spans.task, at);
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
    /// ids are sorted for a deterministic event order across engines.
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
                let task = self.tasks[run.task as usize].as_ref()?;
                if (task.request.cores, task.request.gpus) != shape
                    || self.hedge_running.contains_key(&run.task)
                {
                    return None;
                }
                let elapsed = now.since(run.started);
                let wait = threshold.as_micros().saturating_sub(elapsed.as_micros());
                Some((run.task, SimDuration::from_micros(wait.max(1)), task.attempts))
            })
            .collect();
        arms.sort_unstable_by_key(|&(id, _, _)| id);
        for (task, delay, attempt) in arms {
            self.schedule(now + delay, Ev::HedgeCheck { task, attempt });
        }
    }

    /// End a failed attempt: retry within budget (after backoff, via a
    /// requeue event), or surface the error as a terminal completion.
    /// `node` is where the attempt failed (quarantine tracks distinct
    /// failing nodes per task). The attempt's slots must already be
    /// released/forfeited and its waste booked by the caller.
    fn fail_attempt(&mut self, id: TaskId, err: TaskError, started: SimTime, now: SimTime, node: u32) {
        if self.telemetry.enabled() {
            let tele = self.telemetry.clone();
            let at = Stamp::virt(now);
            let spans = self.tasks[id.0 as usize]
                .as_ref()
                .expect("failed task has a record")
                .spans;
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
            tele.instant(SpanCat::Fault, fault, spans.attempt, track::task(id.0), at, &[]);
            tele.end(spans.attempt, at);
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
        let attempt = {
            let task = self.tasks[id.0 as usize]
                .as_mut()
                .expect("failed task has a record");
            task.state.advance(TaskState::Executing);
            if !poisoned && task.attempts < retry.max_retries {
                task.attempts += 1;
                task.state.advance(TaskState::Scheduling);
                Some(task.attempts)
            } else {
                None
            }
        };
        match attempt {
            Some(n) => {
                self.util.note_retry();
                self.telemetry.count("retries", 1);
                let delay = retry.backoff(n, &mut self.backoff_rng);
                // The retry verdict is a hub message sent once the backoff
                // elapses; under the control plane the requeue happens at
                // its delivery (duplicated verdicts requeue once via dedup).
                match self.route("retry", msg_key(id.0, n), None, now + delay) {
                    Some((primary, duplicate)) => {
                        self.schedule(
                            primary,
                            Ev::RetryArrive {
                                task: id.0,
                                attempt: n,
                            },
                        );
                        if let Some(dup) = duplicate {
                            self.schedule(
                                dup,
                                Ev::RetryArrive {
                                    task: id.0,
                                    attempt: n,
                                },
                            );
                        }
                    }
                    None => {
                        self.schedule(now + delay, Ev::Requeue { task: id.0 });
                    }
                }
            }
            None => {
                let mut task = self.tasks[id.0 as usize]
                    .take()
                    .expect("failed task has a record");
                task.state.advance(TaskState::Failed);
                self.in_flight -= 1;
                let distinct = self
                    .failed_nodes
                    .remove(&id.0)
                    .map(|v| v.len() as u32)
                    .unwrap_or(0);
                let err = if poisoned {
                    // Poison verdict: bump the shape class's breaker count
                    // and surface a typed terminal error.
                    let shape = (task.request.cores, task.request.gpus);
                    let count = {
                        let c = self.shape_poison.entry(shape).or_insert(0);
                        *c += 1;
                        *c
                    };
                    if self.telemetry.enabled() {
                        let tele = self.telemetry.clone();
                        let at = Stamp::virt(now);
                        tele.instant(
                            SpanCat::Quarantine,
                            "poisoned",
                            task.spans.task,
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
                    let tele = self.telemetry.clone();
                    let at = Stamp::virt(now);
                    tele.end(task.spans.task, at);
                    tele.count("tasks_failed", 1);
                    tele.gauge("in_flight", self.in_flight as f64);
                }
                self.completions.push_back(Completion {
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
    }

    /// The hedging threshold base for a shape class: the running mean of
    /// useful completion spans once `min_samples` have been observed, the
    /// attempt's own modeled span until then. Integer-microsecond mean, so
    /// both deterministic engines agree bit-for-bit.
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
    /// waste. Mirrors the sequential engine statement for statement.
    fn hedge_check(&mut self, task: u64, attempt: u32, now: SimTime) {
        let Some(policy) = self.hedge else {
            return;
        };
        // Re-validate: the attempt may have settled or been superseded by a
        // retry since the check was armed, or an earlier re-arm already
        // placed a duplicate.
        let probe = match self.tasks[task as usize].as_ref() {
            Some(t) if t.attempts == attempt && !self.hedge_running.contains_key(&task) => t
                .running
                .and_then(|slot| self.running.get(slot))
                .map(|run| (t.request, run.alloc.node, t.kind, t.duration, t.walltime)),
            _ => None,
        };
        let Some((request, main_node, kind, duration, walltime)) = probe else {
            return;
        };
        let setup = self.exec_setup.saturating_add(kind.launch_overhead());
        // A node where the duplicate's own modeled span would cross the
        // straggler threshold cannot rescue anyone — a copy racing at the
        // same degraded pace loses to its head start. Skip such nodes (the
        // freed cores of an already-rescued straggler's node are the common
        // case) and keep probing the next-best allocation.
        let threshold = self
            .hedge_estimate(
                (request.cores, request.gpus),
                setup.saturating_add(duration),
                policy.min_samples,
            )
            .mul_f64(policy.threshold);
        let mut avoid = vec![main_node];
        let (alloc, span) = loop {
            let Some(alloc) = self.scheduler.alloc_avoiding(&request, &avoid) else {
                // No useful capacity off the straggler's node: re-arm after
                // roughly one estimated runtime instead of polling every
                // event.
                let est = self.hedge_estimate(
                    (request.cores, request.gpus),
                    SimDuration::from_micros(1),
                    policy.min_samples,
                );
                let delay = std::cmp::max(est, SimDuration::from_micros(1));
                self.schedule(now + delay, Ev::HedgeCheck { task, attempt });
                return;
            };
            let span = dilate_span(
                &self.slow[alloc.node as usize],
                now,
                setup.saturating_add(duration),
            );
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
        self.tasks[task as usize]
            .as_mut()
            .expect("hedged task has a record")
            .hedged = true;
        self.util.note_hedge();
        self.util.place(&alloc, now);
        if self.telemetry.enabled() {
            let tele = self.telemetry.clone();
            let owner = self.tasks[task as usize]
                .as_ref()
                .map(|t| t.spans.attempt)
                .unwrap_or(SpanId::NONE);
            tele.instant(
                SpanCat::Hedge,
                "hedge-place",
                owner,
                track::task(task),
                Stamp::virt(now),
                &[("attempt", attempt as i64), ("node", alloc.node as i64)],
            );
            tele.count("hedges", 1);
        }
        // The hedge's completion report routes exactly like the main
        // attempt's (same link, same fence/dedup discipline).
        let home = alloc.node as usize % self.nshards;
        let (shard, event) = match self.route(
            "hedge",
            msg_key(task, attempt),
            Some(alloc.node),
            now + span,
        ) {
            Some((primary, duplicate)) => {
                let placed = self.schedule_on(home, primary, Ev::DeliverHedge { task, attempt });
                if let Some(dup) = duplicate {
                    self.schedule_on(home, dup, Ev::DeliverHedge { task, attempt });
                }
                placed
            }
            None => self.schedule_on(home, now + span, Ev::HedgeWin { task, attempt }),
        };
        self.hedge_running.insert(
            task,
            HedgeRun {
                attempt,
                alloc,
                started: now,
                setup,
                shard,
                event,
            },
        );
    }

    /// A hedge duplicate finished first: cancel the straggling main
    /// attempt, book its occupancy as hedge waste, and complete the task
    /// from the duplicate's allocation. Stale deliveries — the main
    /// settled earlier in this same instant's batch and removed the hedge
    /// record — are dropped here, exactly where the sequential engine's
    /// `cancel` would have suppressed them.
    fn hedge_win(&mut self, task: u64, attempt: u32, now: SimTime) {
        let hedge = match self.hedge_running.get(&task) {
            Some(h) if h.attempt == attempt => {
                self.hedge_running.remove(&task).expect("probed just above")
            }
            _ => return,
        };
        let slot = self.tasks[task as usize]
            .as_mut()
            .expect("hedge won for a live task")
            .running
            .take()
            .expect("hedge won over a running main attempt");
        let run = self.running.remove(slot);
        self.cancel_event(run.shard, run.event);
        self.util.hedge_waste(&run.alloc, run.started, now);
        self.scheduler.release_owned(run.alloc);
        if self.telemetry.enabled() {
            let tele = self.telemetry.clone();
            let owner = self.tasks[task as usize]
                .as_ref()
                .map(|t| t.spans.attempt)
                .unwrap_or(SpanId::NONE);
            tele.instant(
                SpanCat::Hedge,
                "hedge-win",
                owner,
                track::task(task),
                Stamp::virt(now),
                &[("node", hedge.alloc.node as i64)],
            );
            tele.count("hedge_wins", 1);
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
        let Some(hedge) = self.hedge_running.remove(&task) else {
            return;
        };
        self.cancel_event(hedge.shard, hedge.event);
        let node = hedge.alloc.node;
        self.util.hedge_waste(&hedge.alloc, hedge.started, now);
        if release {
            self.scheduler.release_owned(hedge.alloc);
        }
        if self.telemetry.enabled() {
            let tele = self.telemetry.clone();
            let owner = self.tasks[task as usize]
                .as_ref()
                .map(|t| t.spans.attempt)
                .unwrap_or(SpanId::NONE);
            tele.instant(
                SpanCat::Hedge,
                "hedge-lose",
                owner,
                track::task(task),
                Stamp::virt(now),
                &[("node", node as i64)],
            );
            tele.count("hedge_losses", 1);
        }
    }

    /// A retry backoff expires: re-enqueue the task and scan.
    fn requeue(&mut self, task: u64, now: SimTime) {
        let (request, priority, attempt) = {
            let t = self.tasks[task as usize]
                .as_ref()
                .expect("requeued task has a record");
            (t.request, t.priority, t.attempts)
        };
        self.scheduler
            .enqueue_with_priority(TaskId(task), request, priority);
        if self.telemetry.enabled() {
            let tele = self.telemetry.clone();
            let at = Stamp::virt(now);
            let t = self.tasks[task as usize]
                .as_mut()
                .expect("requeued task has a record");
            let queue = tele.span(
                SpanCat::Queue,
                "queue",
                t.spans.task,
                track::task(task),
                at,
                &[("attempt", attempt as i64)],
            );
            t.spans.queue = queue;
            t.spans.queued_at = now;
            tele.gauge("queue_depth", self.scheduler.queue_len() as f64);
        }
        self.place_ready(now);
    }

    /// A node crash event: drain the node and evict its resident
    /// attempts. Victims forfeit their allocations (the drained pool is
    /// rebuilt, so nothing is released) and consume a retry attempt each.
    fn crash(&mut self, node: u32, now: SimTime) {
        // Victims in task-id order: slab iteration order must not leak
        // into the deterministic event stream.
        let mut victims: Vec<(u64, SlotId)> = self
            .running
            .iter()
            .filter(|(_, r)| r.alloc.node == node)
            .map(|(slot, r)| (r.task, slot))
            .collect();
        victims.sort_unstable_by_key(|&(task, _)| task);
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
                Stamp::virt(now),
                &[("node", node as i64)],
            );
            self.telemetry.count("node_crashes", 1);
        }
        // Hedge duplicates resident on the crashed node forfeit their
        // slots (the drained pool is rebuilt, so nothing is released), no
        // matter where their main attempt runs — the main keeps going.
        {
            let mut hedge_ids: Vec<u64> = self
                .hedge_running
                .iter()
                .filter(|(_, r)| r.alloc.node == node)
                .map(|(&i, _)| i)
                .collect();
            hedge_ids.sort_unstable();
            for i in hedge_ids {
                self.settle_hedge_loser(i, false, now);
            }
        }
        for (task, slot) in victims {
            let run = self.running.remove(slot);
            self.tasks[task as usize]
                .as_mut()
                .expect("victim has a record")
                .running = None;
            self.cancel_event(run.shard, run.event);
            // A victim's surviving hedge (on a different node by
            // construction) is settled normally before the attempt fails.
            self.settle_hedge_loser(task, true, now);
            self.util.waste(&run.alloc, run.started, now);
            self.fail_attempt(TaskId(task), TaskError::NodeCrashed { node }, run.started, now, node);
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
                Stamp::virt(now),
                &[("node", node as i64)],
            );
        }
        self.place_ready(now);
    }

    /// Place every task the scheduler allows, staging a completion event
    /// per placement. The fault plan decides each attempt's outcome *at
    /// placement*; the single event either finishes the task or ends a
    /// doomed attempt early/late.
    fn place_ready(&mut self, now: SimTime) {
        if !self.bootstrapped {
            return;
        }
        let queued = self.scheduler.queue_len();
        let placements = self.scheduler.place_ready();
        if self.telemetry.enabled() && queued > 0 {
            let tele = self.telemetry.clone();
            let at = Stamp::virt(now);
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
        // the plane on, heartbeat rounds keep the queue alive for as long
        // as anything is in flight, so a stranded entry would livelock
        // termination; re-scan below.
        let mut stranded = false;
        for (id, mut alloc) in placements {
            let idx = id.0 as usize;
            // Quarantine: an open shape circuit breaker sheds the whole
            // shape class at the placement grant — the slots go straight
            // back and the lineage ends with a typed error instead of
            // burning a retry ladder on a poisoned shape.
            let request = self.tasks[idx].as_ref().expect("placed task exists").request;
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
                let mut task = self.tasks[idx].take().expect("placed task exists");
                task.state.advance(TaskState::Failed);
                self.in_flight -= 1;
                if self.telemetry.enabled() {
                    let tele = self.telemetry.clone();
                    let at = Stamp::virt(now);
                    tele.end(task.spans.queue, at);
                    tele.instant(
                        SpanCat::Quarantine,
                        "shape-shed",
                        task.spans.task,
                        track::task(id.0),
                        at,
                        &[
                            ("cores", request.cores as i64),
                            ("gpus", request.gpus as i64),
                        ],
                    );
                    tele.end(task.spans.task, at);
                    tele.count("tasks_shed", 1);
                    tele.gauge("in_flight", self.in_flight as f64);
                }
                self.completions.push_back(Completion {
                    task: id,
                    name: task.name,
                    tag: task.tag,
                    result: Err(TaskError::ShapeCircuitOpen {
                        cores: request.cores,
                        gpus: request.gpus,
                    }),
                    started: now,
                    finished: now,
                    attempts: task.attempts,
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
            if self.quarantine.is_some() {
                let avoid = self.failed_nodes.get(&id.0).cloned().unwrap_or_default();
                if avoid.contains(&alloc.node) {
                    if let Some(alt) = self.scheduler.alloc_avoiding(&request, &avoid) {
                        let original = std::mem::replace(&mut alloc, alt);
                        self.scheduler.release_owned(original);
                    }
                }
            }
            let (kind, duration, task_walltime, attempts) = {
                let t = self.tasks[idx].as_ref().expect("placed task exists");
                (t.kind, t.duration, t.walltime, t.attempts)
            };
            let fault = self.faults.attempt_fault(id.0, attempts);
            let hang_factor = self.faults.config().hang_factor;
            let setup = self.exec_setup.saturating_add(kind.launch_overhead());
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
            // the allocation deadline is held, not launched.
            if self.deadline.is_some_and(|d| now + span > d) {
                stranded = true;
                self.scheduler.release_owned(alloc);
                self.held.push(id.0);
                if self.telemetry.enabled() {
                    let tele = self.telemetry.clone();
                    let at = Stamp::virt(now);
                    let spans = self.tasks[idx].as_ref().expect("held task exists").spans;
                    tele.end(spans.queue, at);
                    tele.instant(SpanCat::Task, "held", spans.task, track::task(id.0), at, &[]);
                    tele.count("tasks_held", 1);
                }
                continue;
            }
            self.tasks[idx]
                .as_mut()
                .expect("placed task exists")
                .state
                .advance(TaskState::ExecSetup);
            self.util.place(&alloc, now);
            launched += 1;
            if self.telemetry.enabled() {
                let tele = self.telemetry.clone();
                let at = Stamp::virt(now);
                let spans = self.tasks[idx].as_ref().expect("placed task exists").spans;
                tele.end(spans.queue, at);
                self.queue_waits
                    .push(now.since(spans.queued_at).as_secs_f64());
                let attempt_span = tele.span(
                    SpanCat::Attempt,
                    "attempt",
                    spans.task,
                    track::task(id.0),
                    at,
                    &[("attempt", attempts as i64), ("node", alloc.node as i64)],
                );
                self.tasks[idx]
                    .as_mut()
                    .expect("placed task exists")
                    .spans
                    .attempt = attempt_span;
            }
            // Under the control plane the node's completion report is sent
            // at the attempt's modeled finish and *routed*: it settles at
            // its (at-least-once) delivery instant, where the lease fence
            // and dedup set decide whether its effects apply. Without the
            // plane the report is the completion — the event fires at the
            // finish instant exactly as before.
            let home = alloc.node as usize % self.nshards;
            let (shard, event) = match self.route(
                "done",
                msg_key(id.0, attempts),
                Some(alloc.node),
                now + span,
            ) {
                Some((primary, duplicate)) => {
                    let placed = self.schedule_on(
                        home,
                        primary,
                        Ev::DeliverDone {
                            task: id.0,
                            attempt: attempts,
                        },
                    );
                    if let Some(dup) = duplicate {
                        self.schedule_on(
                            home,
                            dup,
                            Ev::DeliverDone {
                                task: id.0,
                                attempt: attempts,
                            },
                        );
                    }
                    placed
                }
                None => self.schedule_on(
                    home,
                    now + span,
                    Ev::Complete {
                        task: id.0,
                        attempt: attempts,
                    },
                ),
            };
            let slot = self.running.insert(Running {
                task: id.0,
                attempt: attempts,
                alloc,
                started: now,
                setup,
                outcome,
                shard,
                event,
            });
            self.tasks[idx]
                .as_mut()
                .expect("placed task exists")
                .running = Some(slot);
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
                    self.schedule(
                        now + threshold,
                        Ev::HedgeCheck {
                            task: id.0,
                            attempt: attempts,
                        },
                    );
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
}

impl ExecutionBackend for ShardedBackend {
    fn submit(&mut self, desc: TaskDescription) -> TaskId {
        let id = TaskId(self.tasks.len() as u64);
        let now = self.now;
        assert!(
            desc.request.fits_node(self.scheduler.node()),
            "{id}: request {} can never fit the pilot's node",
            desc.request
        );
        let mut spans = TaskSpans {
            task: SpanId::NONE,
            queue: SpanId::NONE,
            attempt: SpanId::NONE,
            queued_at: now,
        };
        if self.telemetry.enabled() {
            let tele = self.telemetry.clone();
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
            let queue_span = tele.span(SpanCat::Queue, "queue", task_span, tr, at, &[("attempt", 0)]);
            spans.task = task_span;
            spans.queue = queue_span;
            tele.count("tasks_submitted", 1);
        }
        let mut state = StateCell::new();
        state.advance(TaskState::Scheduling);
        let request = desc.request;
        let priority = desc.priority;
        self.tasks.push(Some(Task {
            name: desc.name,
            tag: desc.tag,
            request,
            priority,
            duration: desc.duration,
            gpu_busy_fraction: desc.gpu_busy_fraction,
            kind: desc.kind,
            walltime: desc.walltime,
            attempts: 0,
            work: desc.work,
            state,
            spans,
            running: None,
            hedged: false,
        }));
        self.in_flight += 1;
        // Under the control plane the submit command itself is routed:
        // the task enters the scheduler queue at the command's hub
        // delivery, not at the client call.
        if let Some((primary, duplicate)) = self.route("submit", msg_key(id.0, 0), None, now) {
            if self.telemetry.enabled() {
                self.telemetry.gauge("in_flight", self.in_flight as f64);
            }
            self.schedule(primary, Ev::SubmitArrive { task: id.0 });
            if let Some(dup) = duplicate {
                self.schedule(dup, Ev::SubmitArrive { task: id.0 });
            }
            self.ensure_heartbeats(now);
            return id;
        }
        self.scheduler.enqueue_with_priority(id, request, priority);
        if self.telemetry.enabled() {
            self.telemetry
                .gauge("queue_depth", self.scheduler.queue_len() as f64);
            self.telemetry.gauge("in_flight", self.in_flight as f64);
        }
        // One coalesced placement scan per submission burst, exactly like
        // the sequential backend: every submission before the next pump is
        // already enqueued when the scan fires.
        if !std::mem::replace(&mut self.place_event_pending, true) {
            self.schedule(now, Ev::PlaceScan);
        }
        id
    }

    fn next_completion(&mut self) -> Option<Completion> {
        loop {
            if let Some(c) = self.completions.pop_front() {
                return Some(c);
            }
            // Nothing in flight ⇒ no completion can materialize. Do not
            // drain the remaining event horizon: under fault injection it
            // holds far-future crash/recover events whose processing would
            // pointlessly advance virtual time past the workload's end.
            if self.in_flight == 0 {
                return None;
            }
            // With a live detector a heartbeat round reschedules itself
            // while anything is in flight; a workload reduced to held
            // tasks can never complete, so stop instead of ticking
            // heartbeats until the end of time.
            if self.control.is_some() && self.in_flight == self.held.len() {
                return None;
            }
            if !self.pump() {
                return None;
            }
        }
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn in_flight(&self) -> usize {
        self.in_flight
    }

    fn utilization(&self) -> UtilizationReport {
        self.util.report(self.now)
    }

    fn phase_breakdown(&self) -> PhaseBreakdown {
        self.breakdown
    }

    fn held_tasks(&self) -> usize {
        self.held.len()
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn cancel(&mut self, id: TaskId) -> bool {
        if !self.scheduler.cancel_queued(id) {
            // Already placed, finished, unknown — or requeued but waiting
            // out a retry backoff (best-effort: such a task re-enters the
            // queue when its backoff fires).
            return false;
        }
        let mut task = self.tasks[id.0 as usize]
            .take()
            .expect("queued task has a record");
        task.state.advance(TaskState::Canceled);
        self.in_flight -= 1;
        if self.telemetry.enabled() {
            let tele = self.telemetry.clone();
            let at = Stamp::virt(self.now);
            tele.end(task.spans.queue, at);
            tele.instant(
                SpanCat::Task,
                "canceled",
                task.spans.task,
                track::task(id.0),
                at,
                &[],
            );
            tele.end(task.spans.task, at);
            tele.count("tasks_canceled", 1);
            tele.gauge("in_flight", self.in_flight as f64);
        }
        let attempts = task.attempts;
        // Under the control plane the cancel takes effect at the
        // (coordinator-local) queue immediately, but its acknowledgment —
        // the terminal `Canceled` completion — routes back over the hub
        // link and surfaces at delivery.
        if let Some((primary, duplicate)) =
            self.route("cancel", msg_key(id.0, attempts), None, self.now)
        {
            // The deferred ack keeps the task in flight until delivery so
            // the completion pump knows to keep stepping.
            self.in_flight += 1;
            self.canceled_acks
                .insert(id.0, (task.name, task.tag, task.hedged));
            self.schedule(
                primary,
                Ev::CancelAck {
                    task: id.0,
                    attempt: attempts,
                },
            );
            if let Some(dup) = duplicate {
                self.schedule(
                    dup,
                    Ev::CancelAck {
                        task: id.0,
                        attempt: attempts,
                    },
                );
            }
            return true;
        }
        self.completions.push_back(Completion {
            task: id,
            name: task.name,
            tag: task.tag,
            result: Err(TaskError::Canceled),
            started: self.now,
            finished: self.now,
            attempts,
            hedged: task.hedged,
        });
        true
    }

    fn control_stats(&self) -> ControlStats {
        self.cstats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, ScriptedCrash, ScriptedPartition, ScriptedSlowdown};
    use crate::resources::{NodeSpec, ResourceRequest};
    use crate::scheduler::PlacementPolicy;
    use impress_sim::props;

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
        let mut b = ShardedBackend::new(config(4, 0));
        b.submit(task("t", 1, 0, 50));
        let c = b.next_completion().unwrap();
        // bootstrap 100 + setup 10 + run 50
        assert_eq!(c.started, SimTime::from_micros(100_000_000));
        assert_eq!(c.finished, SimTime::from_micros(160_000_000));
    }

    #[test]
    fn oversubscription_serializes_and_outputs_flow_back() {
        let mut b = ShardedBackend::new(config(1, 0));
        b.submit(task("a", 1, 0, 100).with_work(|| 7u32));
        b.submit(task("b", 1, 0, 100));
        let c1 = b.next_completion().unwrap();
        let first_finished = c1.finished;
        assert_eq!(c1.output::<u32>(), 7);
        let c2 = b.next_completion().unwrap();
        assert!(c2.started >= first_finished, "second task must wait");
        assert!(b.next_completion().is_none());
        assert_eq!(b.in_flight(), 0);
    }

    #[test]
    fn queued_tasks_can_be_cancelled_running_ones_cannot() {
        let mut b = ShardedBackend::new(config(1, 0));
        let _running = b.submit(task("running", 1, 0, 100));
        let queued = b.submit(task("queued", 1, 0, 100));
        assert!(b.cancel(queued), "queued task is cancellable");
        assert!(!b.cancel(queued), "double cancel is a no-op");
        let mut results = Vec::new();
        while let Some(c) = b.next_completion() {
            results.push((c.name, c.result.is_ok()));
        }
        assert_eq!(results.len(), 2);
        assert!(results.iter().any(|(n, ok)| n == "queued" && !ok));
        assert!(results.iter().any(|(n, ok)| n == "running" && *ok));
    }

    #[test]
    fn parallel_drive_matches_serial_drive() {
        let run = |parallel: bool| -> Vec<(u64, u64, u64)> {
            let mut b = RuntimeConfig::new(config(3, 1))
                .shards(3)
                .parallel_shards(parallel)
                .sharded();
            for i in 0..10 {
                b.submit(task(&format!("t{i}"), 1 + (i % 2), i % 2, 40 + i as u64));
            }
            let mut log = Vec::new();
            while let Some(c) = b.next_completion() {
                log.push((c.task.0, c.started.as_micros(), c.finished.as_micros()));
            }
            log
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn deadline_holds_tasks_instead_of_launching() {
        let mut b = RuntimeConfig::new(config(1, 0))
            .deadline(SimTime::from_micros(200_000_000))
            .sharded();
        b.submit(task("fits", 1, 0, 50));
        b.submit(task("held", 1, 0, 500));
        let c = b.next_completion().unwrap();
        assert_eq!(c.name, "fits");
        assert!(b.next_completion().is_none(), "held task never completes");
        assert_eq!(b.held_tasks(), 1);
        assert_eq!(b.in_flight(), 1);
    }

    /// A 64-node cell with a heartbeat every second, on a link that loses
    /// nothing. `scheduled` is every event the engine ever staged.
    fn heartbeat_cell(heartbeats: bool) -> (u64, ControlStats) {
        let mut fc = FaultConfig::none();
        fc.link.delay = SimDuration::from_millis(50);
        if heartbeats {
            fc.link.heartbeat_interval = Some(SimDuration::from_secs(1));
            fc.link.heartbeat_timeout = Some(SimDuration::from_secs(4));
        }
        let mut b = RuntimeConfig::new(PilotConfig {
            nodes: 64,
            ..config(4, 0)
        })
        .faults(FaultPlan::new(fc, 7), RetryPolicy::none())
        .sharded();
        for i in 0..128 {
            b.submit(task("t", 1, 0, 400 + i));
        }
        let mut done = 0;
        while let Some(c) = b.next_completion() {
            assert!(c.result.is_ok());
            done += 1;
        }
        assert_eq!(done, 128);
        let scheduled = b.shards.iter().map(|m| m.next_id).sum();
        (scheduled, b.control_stats())
    }

    /// The point of the failure-detector lane, as a count that repeats
    /// exactly: a tick costs the event queue one round, not three events
    /// per node, as long as nothing observable happens. (Counted from the
    /// shard queues' ids; `next_seq` also moves by the numbers a round
    /// reserves and never stages.)
    #[test]
    fn a_quiet_heartbeat_tick_is_one_queue_event() {
        let (with, stats) = heartbeat_cell(true);
        let (without, off) = heartbeat_cell(false);
        assert_eq!(off.heartbeats_sent, 0);
        let ticks = stats.heartbeats_sent / 64;
        assert!(ticks >= 500, "{ticks} ticks");
        assert_eq!(stats.heartbeats_sent, stats.heartbeats_delivered);
        assert_eq!((stats.suspicions, stats.resyncs), (0, 0));
        // The round that `start` arms and one more per tick, where the
        // event-per-heartbeat form stages 3 × 64 per tick.
        assert_eq!(with - without, ticks + 1);
    }

    /// A round that shares its instant with the last report and runs
    /// after it finds nothing in flight and retires the detector; the next
    /// submit restarts it with a fresh grace period, one interval out.
    #[test]
    fn detector_retires_when_idle_and_restarts_on_submit() {
        let mut fc = FaultConfig::none();
        fc.link.delay = SimDuration::from_secs(1);
        fc.link.heartbeat_interval = Some(SimDuration::from_secs(1));
        fc.link.heartbeat_timeout = Some(SimDuration::from_secs(3));
        let mut b = RuntimeConfig::new(config(4, 0))
            .faults(FaultPlan::new(fc, 1), RetryPolicy::none())
            .sharded();
        // Bootstrap 100 s + setup 10 s + run 50 s, reported over a 1 s
        // link: done at 161 s, in the same instant as a round scheduled
        // after the report was.
        b.submit(task("first", 1, 0, 50));
        let first = b.next_completion().unwrap();
        assert_eq!(first.finished, SimTime::from_micros(161_000_000));
        assert!(b.next_completion().is_none());
        // Rounds at 1..=160 s sent; the one at 161 s retired.
        assert_eq!(b.control_stats().heartbeats_sent, 160);
        assert!(!b.detector.as_ref().unwrap().live());
        // Resubmitted at 161 s: arrives 162 s, runs 10 + 50 s, reported at
        // 223 s. Restarted rounds tick at 162..=222 s — a detector that had
        // merely carried on would also have sent at 161 s.
        b.submit(task("second", 1, 0, 50));
        let second = b.next_completion().unwrap();
        assert_eq!(second.finished, SimTime::from_micros(223_000_000));
        assert!(second.result.is_ok());
        let stats = b.control_stats();
        assert_eq!(stats.heartbeats_sent, 160 + 61);
        assert_eq!((stats.suspicions, stats.lease_expiries), (0, 0));
    }

    /// The tentpole's differential proof: on random campaigns — random
    /// cluster shapes, workloads, fault environments, deadlines, shard
    /// counts, pre-drain cancellations — the sharded engine replays the
    /// sequential backend *bit-for-bit*: completion streams, virtual
    /// clocks, the full metrics snapshot, and the byte-exact Chrome
    /// trace. The parallel drive mode must match its own serial drive the
    /// same way.
    mod differential {
        use super::*;
        use impress_telemetry::{chrome_trace, MetricsSnapshot, Telemetry, TraceClock};

        struct Campaign {
            config: PilotConfig,
            faults: FaultPlan,
            retry: RetryPolicy,
            deadline: Option<SimTime>,
            hedge: Option<HedgePolicy>,
            quarantine: Option<QuarantinePolicy>,
            descs: Vec<Desc>,
            cancels: Vec<usize>,
            /// Submitted once the first wave has drained to idle.
            second_wave: Vec<Desc>,
        }

        /// (cores, gpus, duration, priority, walltime_secs)
        type Desc = (u32, u32, SimDuration, i32, Option<u64>);

        fn describe(&(cores, gpus, duration, priority, walltime): &Desc) -> TaskDescription {
            let request = ResourceRequest::with_gpus(cores, gpus);
            let d = TaskDescription::new("t", request, duration).with_priority(priority);
            match walltime {
                Some(w) => d.with_walltime(SimDuration::from_secs(w)),
                None => d,
            }
        }

        struct Outcome {
            completions: Vec<(u64, String, u64, u64, u32, bool, String)>,
            end: u64,
            held: usize,
            snapshot: MetricsSnapshot,
            trace: String,
            breakdown: PhaseBreakdown,
            util: UtilizationReport,
            cstats: ControlStats,
        }

        /// Submit, cancel, drain; then the second wave, and drain again.
        /// `settle` runs whenever the backend reports itself drained: the
        /// sequential engine stops between two events of one instant, the
        /// sharded one only between instants (the module docs' granularity
        /// caveat), so the oracle finishes its instant there before anyone
        /// submits into it or reads its counters.
        fn drive<B: ExecutionBackend>(
            backend: &mut B,
            c: &Campaign,
            settle: impl Fn(&mut B),
        ) -> Vec<(u64, String, u64, u64, u32, bool, String)> {
            let ids: Vec<TaskId> = c
                .descs
                .iter()
                .map(|d| backend.submit(describe(d)))
                .collect();
            for &i in &c.cancels {
                backend.cancel(ids[i]);
            }
            let mut log = Vec::new();
            for wave in [&[][..], &c.second_wave[..]] {
                for d in wave {
                    backend.submit(describe(d));
                }
                while let Some(done) = backend.next_completion() {
                    log.push((
                        done.task.0,
                        done.name,
                        done.started.as_micros(),
                        done.finished.as_micros(),
                        done.attempts,
                        done.hedged,
                        format!("{:?}", done.result.map(|_| ())),
                    ));
                }
                settle(backend);
            }
            log
        }

        fn run<B: ExecutionBackend>(
            c: &Campaign,
            make: impl FnOnce(RuntimeConfig) -> B,
            settle: impl Fn(&mut B),
        ) -> Outcome {
            let (telemetry, recorder) = Telemetry::recording(1 << 16);
            let mut rt = RuntimeConfig::new(c.config.clone())
                .faults(c.faults.clone(), c.retry)
                .telemetry(telemetry.clone());
            if let Some(d) = c.deadline {
                rt = rt.deadline(d);
            }
            if let Some(h) = c.hedge {
                rt = rt.hedge(h);
            }
            if let Some(q) = c.quarantine {
                rt = rt.quarantine(q);
            }
            let mut backend = make(rt);
            let completions = drive(&mut backend, c, settle);
            Outcome {
                completions,
                cstats: backend.control_stats(),
                end: backend.now().as_micros(),
                held: backend.held_tasks(),
                snapshot: telemetry.snapshot(),
                trace: impress_json::to_string(&chrome_trace(
                    &recorder.events(),
                    TraceClock::Virtual,
                )),
                breakdown: backend.phase_breakdown(),
                util: backend.utilization(),
            }
        }

        fn draw_desc(rng: &mut SimRng, cores: u32, gpus: u32) -> Desc {
            (
                1 + rng.below(cores as usize) as u32,
                rng.below(gpus as usize + 1) as u32,
                SimDuration::from_secs(5 + rng.below(900) as u64),
                rng.below(5) as i32 - 2,
                if rng.below(5) == 0 { Some(1 + rng.below(400) as u64) } else { None },
            )
        }

        props! {
            /// 256 random campaigns, three engines each: sequential oracle,
            /// sharded (serial drive), sharded (parallel drive).
            fn sharded_engine_matches_sequential_oracle(rng, cases = 256) {
                let nodes = 1 + rng.below(6) as u32;
                let cores = 2 + rng.below(7) as u32;
                let gpus = rng.below(3) as u32;
                let seed = rng.next_u64();
                let nshards = 1 + rng.below(5);

                let mut fc = FaultConfig::none();
                let mut second_wave = Vec::new();
                if rng.below(2) == 1 {
                    fc.task_failure_rate = rng.below(30) as f64 / 100.0;
                    fc.task_hang_rate = rng.below(20) as f64 / 100.0;
                    fc.hang_factor = 2.0 + rng.below(6) as f64;
                }
                if rng.below(3) == 0 {
                    for _ in 0..1 + rng.below(3) {
                        fc.scripted_crashes.push(ScriptedCrash {
                            node: rng.below(nodes as usize) as u32,
                            at: SimTime::from_micros((60 + rng.below(2000) as u64) * 1_000_000),
                            outage: SimDuration::from_secs(30 + rng.below(600) as u64),
                        });
                    }
                }
                // Gray failures: scripted and stochastic slowdown windows.
                if rng.below(3) == 0 {
                    for _ in 0..1 + rng.below(2) {
                        fc.scripted_slowdowns.push(ScriptedSlowdown {
                            node: rng.below(nodes as usize) as u32,
                            at: SimTime::from_micros((30 + rng.below(1500) as u64) * 1_000_000),
                            duration: SimDuration::from_secs(60 + rng.below(900) as u64),
                            factor: 2.0 + rng.below(18) as f64,
                        });
                    }
                }
                if rng.below(4) == 0 {
                    fc.node_slowdown_mtbf = Some(SimDuration::from_secs(600 + rng.below(3600) as u64));
                    fc.slowdown_duration = SimDuration::from_secs(60 + rng.below(600) as u64);
                    fc.slowdown_factor = 2.0 + rng.below(10) as f64;
                    fc.max_slowdowns_per_node = 1 + rng.below(3) as u32;
                }
                // Control-plane link faults on about a third of campaigns:
                // drops, duplicates, latency/jitter/reorder, scripted
                // partitions, heartbeat failure detection. The other two
                // thirds keep proving the strict no-op path stays
                // byte-identical to the pre-control-plane engine.
                if rng.below(3) == 0 {
                    fc.link.drop_rate = rng.below(25) as f64 / 100.0;
                    fc.link.duplicate_rate = rng.below(30) as f64 / 100.0;
                    fc.link.delay = SimDuration::from_micros(1_000 + rng.below(150_000) as u64);
                    fc.link.jitter = SimDuration::from_micros(rng.below(80_000) as u64);
                    fc.link.reorder_rate = rng.below(20) as f64 / 100.0;
                    fc.link.retransmit_timeout = SimDuration::from_secs(1 + rng.below(4) as u64);
                    if rng.below(2) == 0 {
                        fc.link.partitions.push(ScriptedPartition {
                            first_node: 0,
                            last_node: rng.below(nodes as usize) as u32,
                            at: SimTime::from_micros((30 + rng.below(900) as u64) * 1_000_000),
                            duration: SimDuration::from_secs(20 + rng.below(180) as u64),
                        });
                    }
                    if rng.below(2) == 0 {
                        let interval = (1 + rng.below(5) as u64) * 1_000_000;
                        fc.link.heartbeat_interval = Some(SimDuration::from_micros(interval));
                        // Any timeout is legal — too-tight ones just produce
                        // false suspicions, which resync. Both sides of that
                        // coin must replay identically: whole multiples of
                        // the interval (checks land on round instants),
                        // off-grid ones, and ones shorter than the interval
                        // (a check is decided by the round that arms it).
                        // Never the interval itself: every check would sit
                        // between two nodes' sends of the next tick, and
                        // one that fails the last task there retires the
                        // oracle's chains for the nodes after it only.
                        let timeout = match rng.below(4) {
                            0 | 1 => interval * (2 + rng.below(7) as u64),
                            2 => interval * (1 + rng.below(4) as u64)
                                + 1 + rng.below(interval as usize - 1) as u64,
                            _ => 1 + rng.below(interval as usize - 1) as u64,
                        };
                        fc.link.heartbeat_timeout = Some(SimDuration::from_micros(timeout));
                        match rng.below(5) {
                            // Latency beyond the interval: two heartbeats in
                            // flight per node.
                            0 => {
                                fc.link.delay = SimDuration::from_micros(
                                    interval + rng.below(2 * interval as usize) as u64,
                                );
                            }
                            // A whole-second link, instantaneous half of
                            // the time: arrivals, checks and rounds share
                            // instants with each other and with reports
                            // and retry verdicts — order alone decides.
                            // Without scripted crashes: a crash in the very
                            // instant its victim's report arrives cancels
                            // the report on the oracle and fences it
                            // (`fenced_completions`) here — a gap between
                            // the engines that is older than the lane and
                            // that only a whole-second link can reach.
                            // And never the interval itself, for the
                            // timeout's reason: the previous tick's
                            // arrivals would sit between this tick's sends.
                            1 | 2 => {
                                let mut delay = rng.below(2) as u64
                                    * (1 + rng.below(2 * interval as usize / 1_000_000) as u64)
                                    * 1_000_000;
                                if delay == interval {
                                    delay += 1_000_000;
                                }
                                fc.link.delay = SimDuration::from_micros(delay);
                                fc.link.jitter = SimDuration::ZERO;
                                fc.scripted_crashes.clear();
                            }
                            _ => {}
                        }
                        // Drain to idle, then resubmit: the detector carries
                        // on across the gap, or — when a round shared the
                        // last report's instant and found nothing in
                        // flight — retires and restarts.
                        if rng.below(2) == 0 {
                            for _ in 0..1 + rng.below(6) {
                                second_wave.push(draw_desc(rng, cores, gpus));
                            }
                        }
                    }
                }
                let mut descs = Vec::new();
                for _ in 0..1 + rng.below(25) {
                    descs.push(draw_desc(rng, cores, gpus));
                }
                let mut cancels = Vec::new();
                for i in 0..descs.len() {
                    if rng.below(8) == 0 {
                        cancels.push(i);
                    }
                }
                let campaign = Campaign {
                    config: PilotConfig {
                        node: NodeSpec::new(cores, gpus, 64),
                        nodes,
                        policy: PlacementPolicy::Backfill,
                        bootstrap: SimDuration::from_secs(10 + rng.below(120) as u64),
                        exec_setup_per_task: SimDuration::from_secs(rng.below(12) as u64),
                        seed,
                    },
                    faults: FaultPlan::new(fc, seed ^ 0xfa),
                    retry: RetryPolicy {
                        max_retries: rng.below(3) as u32,
                        ..RetryPolicy::retries(2)
                    },
                    deadline: if rng.below(4) == 0 {
                        Some(SimTime::from_micros((500 + rng.below(3000) as u64) * 1_000_000))
                    } else {
                        None
                    },
                    hedge: if rng.below(2) == 0 {
                        Some(HedgePolicy {
                            threshold: 1.5 + rng.below(4) as f64 * 0.5,
                            min_samples: 1 + rng.below(4) as u32,
                        })
                    } else {
                        None
                    },
                    quarantine: if rng.below(2) == 0 {
                        Some(
                            QuarantinePolicy::distinct(2 + rng.below(2) as u32)
                                .with_shape_trip(rng.below(3) as u32),
                        )
                    } else {
                        None
                    },
                    descs,
                    cancels,
                    second_wave,
                };

                let oracle = run(&campaign, |rt| rt.simulated(), |b| b.finish_instant());
                let serial = run(
                    &campaign,
                    |rt| rt.shards(nshards).parallel_shards(false).sharded(),
                    |_| {},
                );
                let parallel = run(
                    &campaign,
                    |rt| rt.shards(nshards).parallel_shards(true).sharded(),
                    |_| {},
                );

                assert_eq!(oracle.completions, serial.completions, "completion stream diverged");
                assert_eq!(oracle.end, serial.end, "final virtual clock diverged");
                assert_eq!(oracle.held, serial.held, "held-task count diverged");
                assert_eq!(oracle.snapshot, serial.snapshot, "metrics snapshot diverged");
                assert_eq!(oracle.trace, serial.trace, "chrome trace diverged");
                assert_eq!(oracle.breakdown, serial.breakdown, "phase breakdown diverged");
                assert_eq!(oracle.cstats, serial.cstats, "control-plane stats diverged");

                // Utilization: same math, different (aggregate vs per-device)
                // summation order — equal to float round-off.
                let (a, b) = (&oracle.util, &serial.util);
                assert!((a.cpu - b.cpu).abs() < 1e-8, "cpu {} vs {}", a.cpu, b.cpu);
                assert!((a.gpu_slot - b.gpu_slot).abs() < 1e-8, "gpu_slot {} vs {}", a.gpu_slot, b.gpu_slot);
                assert!(
                    (a.gpu_hardware - b.gpu_hardware).abs() < 1e-8,
                    "gpu_hw {} vs {}", a.gpu_hardware, b.gpu_hardware
                );
                assert_eq!(a.makespan, b.makespan);
                assert_eq!(a.tasks, b.tasks);
                assert_eq!(a.retries, b.retries);
                assert!((a.wasted_core_seconds - b.wasted_core_seconds).abs() < 1e-6);
                assert!((a.wasted_gpu_seconds - b.wasted_gpu_seconds).abs() < 1e-6);
                assert_eq!(a.hedges, b.hedges, "hedge count diverged");
                assert!((a.hedge_wasted_core_seconds - b.hedge_wasted_core_seconds).abs() < 1e-6);
                assert!((a.hedge_wasted_gpu_seconds - b.hedge_wasted_gpu_seconds).abs() < 1e-6);

                // Parallel drive: same routine on worker threads ⇒ identical
                // in every observable, bit for bit.
                assert_eq!(serial.completions, parallel.completions, "parallel drive diverged");
                assert_eq!(serial.end, parallel.end);
                assert_eq!(serial.held, parallel.held);
                assert_eq!(serial.snapshot, parallel.snapshot);
                assert_eq!(serial.trace, parallel.trace);
                assert_eq!(serial.cstats, parallel.cstats);
            }
        }
    }
}
