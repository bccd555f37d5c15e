//! The sharded parallel-DES backend: virtual-time execution for
//! 10k-node campaigns.
//!
//! The attempt lifecycle is the shared core's (`backend/des.rs`); this
//! module is the driver that makes it scale. What it owns:
//!
//! * **Sharded event queues.** The event set is partitioned across
//!   `shards` independent [`EventQueue`]s — completion reports, crash,
//!   recover and liveness events hash to their node's shard; global
//!   events (bootstrap, placement scans, retry requeues) live on shard 0.
//!   The driver advances all shards to a conservative lookahead horizon
//!   (the minimum head time across shards), drains every event at that
//!   instant, and applies them in global sequence order.
//! * **Deterministic merge.** Every scheduled event carries a global
//!   sequence number assigned in scheduling order — the order in which
//!   [`SimulatedBackend`](crate::backend::SimulatedBackend)'s single queue
//!   assigns its `EventId`s. Sorting each instant's batch by sequence
//!   therefore replays the sequential driver's event order *exactly*:
//!   completions, virtual clocks, metrics and the full telemetry trace
//!   are bit-identical, which the 256-case differential test below
//!   checks on random campaigns.
//! * **Staged cancellation.** A cancel joins its shard's next sync. One
//!   that targets an event already drained into the current instant's
//!   batch comes too late; the core's handlers re-validate what such an
//!   event finds (attempt epoch, hedge record) and drop it.
//! * **One heartbeat round per tick.** The sequential driver schedules
//!   every heartbeat send, arrival and timeout check as an event of its
//!   own and stays the reference; this driver ticks the `FailureDetector`
//!   lane of [`crate::control`] with one event per tick and stages an
//!   arrival or a check only where it can be observed, under the sequence
//!   number the reference's event would have carried — so what is
//!   observable still merges identically.
//! * **Aggregate utilization.** A running occupancy integral instead of
//!   per-device interval lists (see `AggregateUtil`).
//! * **Optional parallel drive.** With
//!   [`RuntimeConfig::parallel_shards`](crate::RuntimeConfig), each shard
//!   queue is owned by a worker thread (on the same `crate::sync` channel
//!   substrate as the threaded backend) and the per-horizon queue
//!   operations — batched inserts, cancellations, drains — run
//!   concurrently. Both drive modes execute the same `sync_queue`
//!   routine, so the event stream is identical; only queue ownership
//!   changes.
//!
//! Granularity caveat: the sequential driver interleaves driver calls
//! (submit/cancel between `next_completion`s) *between* same-instant
//! events; this backend delivers a whole instant's completions before the
//! driver runs again. Drivers that submit in reaction to a completion see
//! identical placements as long as they do not race other events at that
//! exact microsecond — the standard submit-then-drain protocols satisfy
//! this; the multi-tenant service cell does not, and schedules slightly
//! differently here.

use super::des::{Core, Ev, Handle, Transport, UtilSink};
use crate::backend::{Completion, ExecutionBackend};
use crate::control::{ControlStats, Wake, WakeKind};
use crate::pilot::{PhaseBreakdown, PilotConfig};
use crate::profiler::UtilizationReport;
use crate::resources::Allocation;
use crate::runtime::RuntimeConfig;
use crate::task::{TaskDescription, TaskId};
use impress_sim::{EventId, EventQueue, SimTime};
use impress_telemetry::Telemetry;

/// Queue payload: global sequence number (the deterministic merge key,
/// mirroring the sequential driver's `EventId` order) plus the event.
type Item = (u64, Ev);

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

    /// End `alloc`'s occupancy at `at`; the seconds it lasted.
    fn vacate(&mut self, alloc: &Allocation, started: SimTime, at: SimTime) -> f64 {
        self.tick(at);
        self.busy_cores -= alloc.core_ids.len() as u64;
        self.busy_gpus -= alloc.gpu_ids.len() as u64;
        at.since(started).as_secs_f64()
    }
}

impl UtilSink for AggregateUtil {
    fn submitted(&mut self, _id: TaskId, _at: SimTime) {}

    fn started(&mut self, alloc: &Allocation, now: SimTime) {
        self.tick(now);
        self.busy_cores += alloc.core_ids.len() as u64;
        self.busy_gpus += alloc.gpu_ids.len() as u64;
    }

    fn finished(
        &mut self,
        _id: TaskId,
        _name: &str,
        _tag: &str,
        alloc: &Allocation,
        started: SimTime,
        now: SimTime,
        fraction: f64,
    ) {
        self.vacate(alloc, started, now);
        let busy = now.since(started).mul_f64(fraction.clamp(0.0, 1.0));
        self.gpu_hw_us += busy.as_micros() as f64 * alloc.gpu_ids.len() as f64;
        self.tasks += 1;
    }

    fn wasted(&mut self, alloc: &Allocation, started: SimTime, at: SimTime) {
        let secs = self.vacate(alloc, started, at);
        self.wasted_core_seconds += secs * alloc.core_ids.len() as f64;
        self.wasted_gpu_seconds += secs * alloc.gpu_ids.len() as f64;
    }

    fn hedge_wasted(&mut self, alloc: &Allocation, started: SimTime, at: SimTime) {
        let secs = self.vacate(alloc, started, at);
        self.hedge_wasted_core_seconds += secs * alloc.core_ids.len() as f64;
        self.hedge_wasted_gpu_seconds += secs * alloc.gpu_ids.len() as f64;
    }

    fn note_retry(&mut self) {
        self.retries += 1;
    }

    fn note_hedge(&mut self) {
        self.hedges += 1;
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

/// The sharded event transport: queues, outboxes and the sequence merge.
struct Shards {
    store: ShardStore,
    shards: Vec<ShardMeta>,
    /// Global scheduling sequence — the deterministic merge key.
    next_seq: u64,
    /// Scratch: the current instant's merged event batch.
    batch: Vec<Item>,
}

impl Shards {
    fn new(n: usize, parallel: bool) -> Self {
        Shards {
            store: if parallel {
                ShardStore::Parallel(WorkerPool::spawn(n))
            } else {
                ShardStore::Serial((0..n).map(|_| EventQueue::new()).collect())
            },
            shards: (0..n).map(|_| ShardMeta::default()).collect(),
            next_seq: 0,
            batch: Vec::new(),
        }
    }

    /// Reserve `n` consecutive sequence numbers; the first of them.
    fn reserve(&mut self, n: u64) -> u64 {
        let base = self.next_seq;
        self.next_seq += n;
        base
    }

    /// Stage an event on `shard` under sequence number `seq`, returning
    /// its predicted queue id. Every event takes the next number, except
    /// that the failure-detector lane reserves a range per heartbeat round
    /// and stages what it has to, later, under the numbers the sequential
    /// driver's events would have had.
    fn stage(&mut self, shard: usize, at: SimTime, seq: u64, ev: Ev) -> Handle {
        let meta = &mut self.shards[shard];
        let event = EventId(meta.next_id);
        meta.next_id += 1;
        meta.outbox.push((at, (seq, ev)));
        meta.dirty = true;
        Handle { lane: shard, event }
    }

    /// An event's home shard: node-owned events hash to their node,
    /// global (hub-link) events live on shard 0.
    fn home_shard(&self, ev: Ev) -> usize {
        match ev {
            Ev::Crash { node }
            | Ev::Recover { node }
            | Ev::HeartbeatArrive { node }
            | Ev::SuspectCheck { node } => node as usize % self.shards.len(),
            _ => 0,
        }
    }

    /// Stage what the failure-detector lane asked for, under the sequence
    /// number the lane reserved for it.
    fn stage_wake(&mut self, wake: Wake) {
        let ev = match wake.kind {
            WakeKind::Arrive => Ev::HeartbeatArrive { node: wake.node },
            WakeKind::Check => Ev::SuspectCheck { node: wake.node },
        };
        self.schedule_keyed(wake.at, wake.key, ev);
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
}

impl Transport for Shards {
    fn schedule(&mut self, at: SimTime, ev: Ev) -> Handle {
        let seq = self.reserve(1);
        self.stage(self.home_shard(ev), at, seq, ev)
    }

    fn schedule_report(&mut self, node: u32, at: SimTime, ev: Ev) -> Handle {
        let seq = self.reserve(1);
        self.stage(node as usize % self.shards.len(), at, seq, ev)
    }

    fn schedule_keyed(&mut self, at: SimTime, key: u64, ev: Ev) {
        self.stage(self.home_shard(ev), at, key, ev);
    }

    /// Stage a cancellation for the next sync of the event's shard.
    fn cancel(&mut self, handle: Handle) {
        let meta = &mut self.shards[handle.lane];
        meta.cancels.push(handle.event);
        meta.dirty = true;
    }
}

/// The sharded virtual-time pilot backend. Behavior (and, for a given
/// seed, the exact event stream) matches
/// [`SimulatedBackend`](crate::backend::SimulatedBackend); see the module
/// docs for what differs underneath.
pub struct ShardedBackend {
    core: Core<Shards, AggregateUtil>,
    /// Scratch: what one heartbeat round asks to have scheduled.
    wakes: Vec<Wake>,
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
        let shards = Shards::new(runtime.shards.max(1), runtime.parallel_shards);
        let pilot = &runtime.pilot;
        let util = AggregateUtil::new(pilot.node.cores, pilot.node.gpus, pilot.nodes);
        ShardedBackend {
            core: Core::new(runtime, shards, util),
            wakes: Vec::new(),
        }
    }

    /// The pilot configuration this backend runs.
    pub fn config(&self) -> &PilotConfig {
        self.core.config()
    }

    /// Test support: [`Core::live_descriptors`].
    #[cfg(test)]
    pub(crate) fn live_descriptors(&self) -> usize {
        self.core.live_descriptors()
    }

    /// Advance to the next event instant and process *all* of it: drain
    /// every shard's events at the horizon, sort by global sequence, and
    /// apply — repeating while handlers schedule more work at the same
    /// instant. Returns `false` when no events remain anywhere.
    fn pump(&mut self) -> bool {
        let Some(t) = self.core.transport.horizon() else {
            return false;
        };
        self.core.now = t;
        loop {
            self.core.transport.sync_shards(Some(t));
            let mut batch = std::mem::take(&mut self.core.transport.batch);
            if batch.is_empty() {
                self.core.transport.batch = batch;
                return true;
            }
            batch.sort_unstable_by_key(|&(seq, _)| seq);
            for &(_, ev) in &batch {
                match ev {
                    Ev::HeartbeatRound => self.heartbeat_round(t),
                    ev => self.core.apply(ev),
                }
            }
            batch.clear();
            self.core.transport.batch = batch;
        }
    }

    /// (Re)start heartbeat rounds under a configured failure detector.
    /// Rounds run only while work is in flight — the first round that
    /// finds the coordinator idle retires the detector — so a drained run
    /// still exhausts its event queues.
    fn ensure_heartbeats(&mut self) {
        let core = &mut self.core;
        let Some(fd) = core.detector.as_mut().filter(|fd| !fd.live()) else {
            return;
        };
        let base = core.transport.reserve(fd.keys_per_start());
        let (at, seq) = fd.start(core.now, base);
        core.transport.stage(0, at, seq, Ev::HeartbeatRound);
    }

    /// One heartbeat tick for all nodes: the lane draws every uncrashed
    /// node's seeded delivery verdict and asks for queue events only where
    /// an arrival or a check can be observed (see
    /// [`FailureDetector`](crate::control::FailureDetector)).
    fn heartbeat_round(&mut self, now: SimTime) {
        let core = &mut self.core;
        let (Some(cp), Some(fd)) = (&core.control, &mut core.detector) else {
            return;
        };
        if core.in_flight == 0 {
            fd.retire();
            return;
        }
        let base = core.transport.reserve(fd.keys_per_round());
        let round = fd.round(
            now,
            base,
            &core.crashed,
            &core.suspected,
            |node, key| cp.best_effort("hb", key, node, now),
            &mut self.wakes,
        );
        core.cstats.heartbeats_sent += round.sent;
        core.cstats.heartbeats_delivered += round.delivered;
        for wake in self.wakes.drain(..) {
            core.transport.stage_wake(wake);
        }
        let (at, seq) = round.next;
        core.transport.stage(0, at, seq, Ev::HeartbeatRound);
    }
}

impl ExecutionBackend for ShardedBackend {
    fn submit(&mut self, desc: TaskDescription) -> TaskId {
        let id = self.core.submit(desc);
        self.ensure_heartbeats();
        id
    }

    fn next_completion(&mut self) -> Option<Completion> {
        loop {
            if let Some(c) = self.core.take_completion() {
                return Some(c);
            }
            if self.core.stalled() || !self.pump() {
                return None;
            }
        }
    }

    fn now(&self) -> SimTime {
        self.core.now
    }

    fn in_flight(&self) -> usize {
        self.core.in_flight
    }

    fn utilization(&self) -> UtilizationReport {
        self.core.utilization()
    }

    fn phase_breakdown(&self) -> PhaseBreakdown {
        self.core.phase_breakdown()
    }

    fn held_tasks(&self) -> usize {
        self.core.held_tasks()
    }

    fn telemetry(&self) -> &Telemetry {
        self.core.telemetry()
    }

    fn cancel(&mut self, id: TaskId) -> bool {
        self.core.cancel(id)
    }

    fn preempt(&mut self, id: TaskId) -> bool {
        self.core.preempt(id)
    }

    fn control_stats(&self) -> ControlStats {
        self.core.cstats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{
        FaultConfig, FaultPlan, HedgePolicy, QuarantinePolicy, RetryPolicy, ScriptedCrash,
        ScriptedPartition, ScriptedSlowdown,
    };
    use crate::resources::{NodeSpec, ResourceRequest};
    use crate::scheduler::PlacementPolicy;
    use impress_sim::{props, SimDuration, SimRng};

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
        let scheduled = b.core.transport.shards.iter().map(|m| m.next_id).sum();
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
        assert!(!b.core.detector.as_ref().unwrap().live());
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

    /// The differential proof: on random campaigns — random cluster
    /// shapes, workloads, fault environments, deadlines, shard counts,
    /// cancellations before the drain, cancels and preempts in the middle
    /// of it — the sharded driver replays the sequential one
    /// *bit-for-bit*: completion streams (names and tags included, drawn
    /// so that some runs of submissions share a descriptor and some names
    /// are too long to inline), virtual clocks, the full metrics
    /// snapshot, and the byte-exact Chrome trace. The handlers are one
    /// program now, so what this checks is the two transports and the two
    /// heartbeat clocks. The parallel drive mode must match its own
    /// serial drive the same way, and so must the threaded backend — the
    /// oracle's own driver with every work closure on an OS thread.
    mod differential {
        use super::*;
        use impress_telemetry::{chrome_trace, Label, MetricsSnapshot, Telemetry, TraceClock};

        struct Campaign {
            config: PilotConfig,
            faults: FaultPlan,
            retry: RetryPolicy,
            deadline: Option<SimTime>,
            hedge: Option<HedgePolicy>,
            quarantine: Option<QuarantinePolicy>,
            descs: Vec<Desc>,
            cancels: Vec<usize>,
            mid: Vec<MidDrain>,
            /// Submitted once the first wave has drained to idle.
            second_wave: Vec<Desc>,
        }

        /// (cores, gpus, duration, priority, walltime_secs, name, tag);
        /// the last two index [`NAMES`] and [`TAGS`].
        type Desc = (u32, u32, SimDuration, i32, Option<u64>, usize, usize);

        /// Names and tags are drawn from these in random order, so runs of
        /// alike submissions share a descriptor and runs of unlike ones do
        /// not. Each pool has one entry past the inline limit.
        const NAMES: [&str; 3] = ["t", "af2-inference", "mpnn-generate-over-22-bytes"];
        const TAGS: [&str; 3] = ["", "pl.000001", "pipeline.000002/stage.04"];

        /// One line of a completion stream: task, name, tag, started,
        /// finished, attempts, hedged, result.
        type Line = (u64, Label, Label, u64, u64, u32, bool, String);

        /// Calls made in the middle of the first drain, once `after`
        /// completions have come back: preempt, then cancel, these tasks
        /// (indices into `descs`). Whichever of them is running (queued)
        /// at that point accepts, and both engines must agree which.
        struct MidDrain {
            after: usize,
            preempt: Vec<usize>,
            cancel: Vec<usize>,
        }

        fn describe(
            &(cores, gpus, duration, priority, walltime, name, tag): &Desc,
        ) -> TaskDescription {
            let request = ResourceRequest::with_gpus(cores, gpus);
            // Work, so that the threaded arm really spawns.
            let d = TaskDescription::new(NAMES[name], request, duration)
                .with_tag(TAGS[tag])
                .with_priority(priority)
                .with_work(move || cores);
            match walltime {
                Some(w) => d.with_walltime(SimDuration::from_secs(w)),
                None => d,
            }
        }

        struct Outcome {
            completions: Vec<Line>,
            end: u64,
            held: usize,
            snapshot: MetricsSnapshot,
            trace: String,
            breakdown: PhaseBreakdown,
            util: UtilizationReport,
            cstats: ControlStats,
        }

        /// Submit, cancel, drain with the mid-drain calls; then the second
        /// wave, and drain again. `settle` runs before anyone calls into a
        /// backend that has handed a completion back or reports itself
        /// drained: the sequential driver stops between two events of one
        /// instant, the sharded one only between instants (the module docs'
        /// granularity caveat), so the oracle finishes its instant there
        /// before anyone submits into it, evicts from it or reads its
        /// counters.
        fn drive<B: ExecutionBackend>(
            backend: &mut B,
            c: &Campaign,
            settle: impl Fn(&mut B),
        ) -> Vec<Line> {
            let ids: Vec<TaskId> = c
                .descs
                .iter()
                .map(|d| backend.submit(describe(d)))
                .collect();
            for &i in &c.cancels {
                backend.cancel(ids[i]);
            }
            let mut log = Vec::new();
            let mut returned = 0;
            for wave in [&[][..], &c.second_wave[..]] {
                for d in wave {
                    backend.submit(describe(d));
                }
                while let Some(done) = backend.next_completion() {
                    log.push((
                        done.task.0,
                        done.name,
                        done.tag,
                        done.started.as_micros(),
                        done.finished.as_micros(),
                        done.attempts,
                        done.hedged,
                        format!("{:?}", done.result.map(|_| ())),
                    ));
                    returned += 1;
                    for m in c.mid.iter().filter(|m| m.after == returned) {
                        settle(backend);
                        let now = backend.now().as_micros();
                        let calls = m.preempt.iter().map(|&i| ("<preempt>", i));
                        for (call, i) in calls.chain(m.cancel.iter().map(|&i| ("<cancel>", i))) {
                            let accepted = match call {
                                "<preempt>" => backend.preempt(ids[i]),
                                _ => backend.cancel(ids[i]),
                            };
                            log.push((
                                ids[i].0,
                                call.into(),
                                Label::default(),
                                now,
                                now,
                                0,
                                accepted,
                                String::new(),
                            ));
                        }
                    }
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
                rng.below(NAMES.len()),
                rng.below(TAGS.len()),
            )
        }

        props! {
            /// 256 random campaigns, four engines each: sequential oracle,
            /// sharded (serial drive), sharded (parallel drive), threaded.
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
                let mut mid = Vec::new();
                if rng.below(2) == 0 {
                    for _ in 0..1 + rng.below(2) {
                        let draw = |rng: &mut SimRng| -> Vec<usize> {
                            (0..rng.below(4)).map(|_| rng.below(descs.len())).collect()
                        };
                        mid.push(MidDrain {
                            after: 1 + rng.below(descs.len()),
                            preempt: draw(rng),
                            cancel: draw(rng),
                        });
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
                    mid,
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

                // Threads: the oracle's driver and accounting, so equal in
                // everything, utilization included.
                let threaded = run(&campaign, |rt| rt.threaded(), |b| b.finish_instant());
                assert_eq!(oracle.completions, threaded.completions, "threaded stream diverged");
                assert_eq!(oracle.end, threaded.end);
                assert_eq!(oracle.held, threaded.held);
                assert_eq!(oracle.snapshot, threaded.snapshot);
                assert_eq!(oracle.trace, threaded.trace);
                assert_eq!(oracle.breakdown, threaded.breakdown);
                assert_eq!(oracle.cstats, threaded.cstats);
                assert_eq!(format!("{:?}", oracle.util), format!("{:?}", threaded.util));
            }
        }
    }
}
