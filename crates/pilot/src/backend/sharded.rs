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
//!   sequence number assigned in scheduling order — the numbering
//!   [`SimulatedBackend`](crate::backend::SimulatedBackend)'s single queue
//!   fires each instant in. Sorting each instant's batch by sequence
//!   therefore replays the sequential driver's event order *exactly*:
//!   completions, virtual clocks, utilization and the full telemetry
//!   trace are bit-identical, which the 256-case differential
//!   test below checks on random campaigns.
//! * **Staged cancellation.** A cancel joins its shard's next sync. One
//!   that targets an event already drained into the current instant's
//!   batch comes too late; the core's handlers re-validate what such an
//!   event finds (attempt epoch, hedge record) and drop it.
//! * **Reserved sequence numbers.** The core's heartbeat round reserves a
//!   range of sequence numbers per tick and stages an arrival or a check,
//!   later, under the number its event-per-heartbeat twin would have had
//!   ([`Transport::reserve`], [`Transport::schedule_keyed`]); the merge
//!   sorts them like any other event.
//! * **Optional parallel drive.** With
//!   [`RuntimeConfig::parallel_shards`](crate::RuntimeConfig), each shard
//!   queue is owned by a worker thread (fed over `std::sync::mpsc`
//!   channels) and the per-horizon queue operations — batched inserts,
//!   cancellations, drains — run concurrently. Both drive modes execute the same `sync_queue`
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

use super::des::{Core, Ev, Handle, Transport};
use crate::backend::{Completion, ExecutionBackend};
use crate::control::ControlStats;
use crate::pilot::{PhaseBreakdown, PilotConfig};
use crate::profiler::UtilizationReport;
use crate::runtime::RuntimeConfig;
use crate::task::{TaskDescription, TaskId};
use impress_sim::{EventId, EventQueue, SimTime};
use impress_telemetry::Telemetry;
use std::sync::mpsc;

/// Queue payload: global sequence number (the deterministic merge key,
/// mirroring the sequential driver's `EventId` order) plus the event.
type Item = (u64, Ev);

/// One shard queue sync: apply staged inserts, then cancellations (so a
/// cancel may target an id staged in the same sync), then optionally
/// drain every event at exactly `drain` onto `events`. Returns the queue's
/// next head time. The staged buffers are emptied in place and keep their
/// storage for the next sync. Both drive modes — in-process and worker
/// thread — run exactly this routine, which is what makes them
/// event-identical.
fn sync_queue(
    q: &mut EventQueue<Item>,
    pushes: &mut Vec<(SimTime, Item)>,
    cancels: &mut Vec<EventId>,
    drain: Option<SimTime>,
    events: &mut Vec<Item>,
) -> Option<SimTime> {
    let _ = q.schedule_batch(pushes.drain(..));
    for id in cancels.drain(..) {
        // A cancel may race an event already delivered in this instant's
        // batch; the queue's exact-cancel contract makes that a clean no-op.
        let _ = q.cancel(id);
    }
    if let Some(t) = drain {
        while q.peek_time() == Some(t) {
            events.push(q.pop().expect("peeked event pops").payload);
        }
    }
    q.peek_time()
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
    txs: Vec<mpsc::Sender<Cmd>>,
    rxs: Vec<mpsc::Receiver<Reply>>,
    joins: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn spawn(n: usize) -> Self {
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        let mut joins = Vec::with_capacity(n);
        for _ in 0..n {
            let (ctx, crx) = mpsc::channel::<Cmd>();
            let (rtx, rrx) = mpsc::channel::<Reply>();
            joins.push(std::thread::spawn(move || {
                let mut q: EventQueue<Item> = EventQueue::new();
                while let Ok(cmd) = crx.recv() {
                    match cmd {
                        Cmd::Sync {
                            mut pushes,
                            mut cancels,
                            drain,
                        } => {
                            let mut events = Vec::new();
                            let next =
                                sync_queue(&mut q, &mut pushes, &mut cancels, drain, &mut events);
                            if rtx.send(Reply { events, next }).is_err() {
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

    /// Stage an event on `shard` under sequence number `seq`, returning
    /// its predicted queue id.
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

    /// Sync shard queues. With `drain = None` this flushes staged work on
    /// dirty shards and refreshes their head times. With `drain = Some(t)`
    /// it additionally selects shards whose head is at `t` and pulls every
    /// event at that instant into `self.batch`. In parallel mode all
    /// selected shards sync concurrently (fan out, then collect).
    fn sync_shards(&mut self, drain: Option<SimTime>) {
        match &mut self.store {
            ShardStore::Serial(queues) => {
                for (meta, q) in self.shards.iter_mut().zip(queues.iter_mut()) {
                    if !(meta.dirty || (drain.is_some() && meta.peek == drain)) {
                        continue;
                    }
                    meta.peek = sync_queue(
                        q,
                        &mut meta.outbox,
                        &mut meta.cancels,
                        drain,
                        &mut self.batch,
                    );
                    meta.dirty = false;
                }
            }
            ShardStore::Parallel(pool) => {
                let mut sent: Vec<usize> = Vec::new();
                for (i, meta) in self.shards.iter_mut().enumerate() {
                    if !(meta.dirty || (drain.is_some() && meta.peek == drain)) {
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

    /// Drop the staging buffers' storage once they are flushed. The
    /// bootstrap round stages a completion for everything it places; later
    /// instants stage a few events a shard, so its buffers are not kept
    /// for them.
    fn release_staging(&mut self) {
        for meta in &mut self.shards {
            debug_assert!(meta.outbox.is_empty() && meta.cancels.is_empty());
            meta.outbox = Vec::new();
            meta.cancels = Vec::new();
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
    fn reserve(&mut self, n: u64) -> u64 {
        let base = self.next_seq;
        self.next_seq += n;
        base
    }

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
    core: Core<Shards>,
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
    pub(crate) fn from_config(runtime: RuntimeConfig) -> Self {
        let shards = Shards::new(runtime.shards.max(1), runtime.parallel_shards);
        ShardedBackend {
            core: Core::new(runtime, shards),
        }
    }

    /// Test support: [`Core::live_descriptors`].
    #[cfg(test)]
    pub(crate) fn live_descriptors(&self) -> usize {
        self.core.live_descriptors()
    }

    /// Test support: [`Core::prefetched`].
    #[cfg(test)]
    pub(crate) fn prefetched(&self) -> (u64, u64) {
        self.core.prefetched()
    }

    /// Test support: how many events the shard queues were ever handed —
    /// the sum of their id counters.
    #[cfg(test)]
    pub(crate) fn events_scheduled(&self) -> u64 {
        self.core.transport.shards.iter().map(|m| m.next_id).sum()
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
        let mut bootstrapped = false;
        loop {
            self.core.transport.sync_shards(Some(t));
            if std::mem::take(&mut bootstrapped) {
                self.core.transport.release_staging();
            }
            let mut batch = std::mem::take(&mut self.core.transport.batch);
            if batch.is_empty() {
                self.core.transport.batch = batch;
                return true;
            }
            batch.sort_unstable_by_key(|&(seq, _)| seq);
            self.core.prefetch_instant(batch.iter().map(|&(_, ev)| ev));
            for &(_, ev) in &batch {
                bootstrapped |= matches!(ev, Ev::Bootstrap);
                self.core.apply(ev);
            }
            batch.clear();
            self.core.transport.batch = batch;
        }
    }
}

impl ExecutionBackend for ShardedBackend {
    fn submit(&mut self, desc: TaskDescription) -> TaskId {
        self.core.submit(desc)
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
    /// are too long to inline), virtual clocks, utilization, the phase
    /// breakdown, the control stats and the byte-exact Chrome trace. The handlers and the
    /// heartbeat clock are one program now, so what this checks is the
    /// two transports. The parallel drive mode must match its own serial
    /// drive the same way, and so must the threaded backend — the oracle's
    /// own driver with every work closure on an OS thread.
    mod differential {
        use super::*;
        use impress_telemetry::{write_chrome_trace, Label, Telemetry, TraceClock};

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
            let mut rt = RuntimeConfig::new(c.config)
                .faults(c.faults.clone(), c.retry)
                .telemetry(telemetry);
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
            let mut trace = String::new();
            write_chrome_trace(&mut trace, &recorder.events(), TraceClock::Virtual);
            Outcome {
                completions,
                cstats: backend.control_stats(),
                end: backend.now().as_micros(),
                held: backend.held_tasks(),
                trace,
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
                if rng.below(5) == 0 {
                    Some(1 + rng.below(400) as u64)
                } else {
                    None
                },
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
                    fc.slowdown_factor = 2.0 + rng.below(10) as f64;
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
                        // the interval, the interval itself included (checks
                        // land on round instants), off-grid ones, and ones
                        // shorter than the interval (a check is decided by
                        // the round that arms it).
                        let timeout = match rng.below(4) {
                            0 | 1 => interval * (1 + rng.below(8) as u64),
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
                            1 | 2 => {
                                let delay = rng.below(2) as u64
                                    * (1 + rng.below(2 * interval as usize / 1_000_000) as u64)
                                    * 1_000_000;
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
                        Some(HedgePolicy::k(1.5 + rng.below(4) as f64 * 0.5))
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
                assert_eq!(oracle.trace, serial.trace, "chrome trace diverged");
                assert_eq!(oracle.breakdown, serial.breakdown, "phase breakdown diverged");
                assert_eq!(oracle.cstats, serial.cstats, "control-plane stats diverged");

                assert_eq!(oracle.util, serial.util, "utilization diverged");

                // Parallel drive: same routine on worker threads ⇒ identical
                // in every observable, bit for bit.
                assert_eq!(serial.completions, parallel.completions, "parallel drive diverged");
                assert_eq!(serial.end, parallel.end);
                assert_eq!(serial.held, parallel.held);
                assert_eq!(serial.trace, parallel.trace);
                assert_eq!(serial.cstats, parallel.cstats);
                assert_eq!(serial.util, parallel.util);

                // Threads: the oracle's driver and accounting, so equal in
                // everything, utilization included.
                let threaded = run(&campaign, |rt| rt.threaded(), |b| b.finish_instant());
                assert_eq!(oracle.completions, threaded.completions, "threaded stream diverged");
                assert_eq!(oracle.end, threaded.end);
                assert_eq!(oracle.held, threaded.held);
                assert_eq!(oracle.trace, threaded.trace);
                assert_eq!(oracle.breakdown, threaded.breakdown);
                assert_eq!(oracle.cstats, threaded.cstats);
                assert_eq!(oracle.util, threaded.util);
            }
        }
    }
}
