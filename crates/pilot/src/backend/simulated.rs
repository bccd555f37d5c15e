//! The deterministic virtual-time backend, and the sequential driver of
//! the shared DES core.
//!
//! Submissions enqueue into the scheduler; placements, exec-setup delays
//! and completions are events of the shared core (`backend/des.rs`); work
//! closures execute at their task's completion instant. The whole 27-hour
//! CONT-V run replays in milliseconds, bit-identically for a given seed.
//!
//! The driver (`Sequential`, private to `backend/`) is the plain one,
//! kept plain because the sharded driver is checked against it:
//!
//! * **One queue, one event per step.** A single [`EventQueue`]; the
//!   events of one instant fire in the order of the transport's sequence
//!   number — scheduling order, except that the core's heartbeat round
//!   reserves a range of numbers and schedules into it later.
//!   [`ExecutionBackend::next_completion`] pops exactly one event at a
//!   time, so a caller reacting to a completion acts *between* two events
//!   of the same instant (the multi-tenant service depends on that
//!   granularity).
//! * **Immediate cancel.** An evicted attempt's completion event is gone
//!   the moment it is cancelled, even within its own instant.
//!
//! It is generic over one seam, `Exec`: what real time has to do with
//! the run. [`SimulatedBackend`] is the driver over `Inline` — nothing:
//! work runs inside the event loop, the clock is never paced, stamps are
//! virtual — and monomorphises to exactly the loop above.
//! [`ThreadedBackend`](super::ThreadedBackend) is the same driver over OS
//! threads and a paced clock (`backend/threaded.rs`).
//!
//! Fault injection (via [`crate::RuntimeConfig::faults`]) weaves a
//! [`FaultPlan`](crate::FaultPlan) into the same event stream: injected
//! transient failures and walltime expiries end an attempt's occupancy
//! early (or late, for hangs) without running its work, node
//! crash/recover windows become events that drain/re-admit scheduler
//! nodes and requeue resident tasks, and a
//! [`RetryPolicy`](crate::RetryPolicy) resubmits faulted attempts after a
//! (virtual-time) backoff. A `FaultPlan::none` plan schedules no extra
//! events and draws no randomness — the zero-fault backend is
//! event-for-event identical to one built with [`SimulatedBackend::new`].
//!
//! Telemetry (via [`crate::RuntimeConfig::telemetry`]) records task /
//! queue / attempt spans, placement-round spans and fault instants with
//! virtual-time stamps, entirely outside the event stream: no events are
//! scheduled and no randomness is drawn, so an instrumented run is
//! event-for-event identical to an uninstrumented one.

use super::des::{Core, Ev, Handle, Transport};
use crate::backend::{Completion, ExecutionBackend};
use crate::control::ControlStats;
use crate::pilot::{PhaseBreakdown, PilotConfig};
use crate::profiler::UtilizationReport;
use crate::runtime::RuntimeConfig;
use crate::task::{TaskDescription, TaskId, TaskWork};
use impress_sim::{EventQueue, ScheduledEvent, SimTime};
use impress_telemetry::{Stamp, Telemetry};
use std::cmp::Reverse;

/// What real time has to do with a sequentially driven run. The defaults
/// are "nothing", which is [`Inline`].
pub(super) trait Exec {
    /// [`Transport::launch`]: an attempt that will finish was placed.
    fn launch(&mut self, _task: u64, _work: &mut Option<TaskWork>) {}

    /// The event at virtual instant `at` is next: wait until it is due.
    fn pace(&mut self, _at: SimTime) {}

    /// [`Transport::stamp`].
    fn stamp(&self, at: SimTime) -> Stamp {
        Stamp::virt(at)
    }
}

/// Pure virtual time: work runs at its completion instant inside the
/// event loop and the clock jumps from event to event.
pub(super) struct Inline;

impl Exec for Inline {}

/// Queue payload: the order key among same-instant events, and the event.
type Item = (u64, Ev);

/// The single queue is the whole transport. Same-instant events fire in
/// key order, and a cancel takes effect at once.
struct SingleQueue<X> {
    queue: EventQueue<Item>,
    /// The key the next [`Transport::schedule`] takes.
    next_seq: u64,
    /// What is left of the current instant, popped from `queue` and
    /// sorted by key, the next to fire last. Whatever the instant's
    /// events schedule for the instant itself takes a key above all of
    /// these, so it waits in `queue` until they have fired.
    instant: Vec<ScheduledEvent<Item>>,
    exec: X,
}

impl<X> SingleQueue<X> {
    /// Once the current instant has fired, take the earliest one off the
    /// queue and sort it by key; whether it did.
    fn refill(&mut self) -> bool {
        if !self.instant.is_empty() {
            return false;
        }
        let Some(t) = self.queue.peek_time() else {
            return false;
        };
        while self.queue.peek_time() == Some(t) {
            let next = self.queue.pop().expect("peeked event pops");
            self.instant.push(next);
        }
        self.instant
            .sort_unstable_by_key(|ev| Reverse(ev.payload.0));
        true
    }

    /// The next event of the current instant to fire: its lowest key.
    fn pop(&mut self) -> Option<(SimTime, Ev)> {
        let next = self.instant.pop()?;
        Some((next.at, next.payload.1))
    }

    /// When the next event fires.
    #[cfg(test)]
    fn peek_time(&mut self) -> Option<SimTime> {
        match self.instant.last() {
            Some(next) => Some(next.at),
            None => self.queue.peek_time(),
        }
    }
}

impl<X: Exec> Transport for SingleQueue<X> {
    fn reserve(&mut self, n: u64) -> u64 {
        let base = self.next_seq;
        self.next_seq += n;
        base
    }

    fn schedule(&mut self, at: SimTime, ev: Ev) -> Handle {
        let key = self.reserve(1);
        Handle {
            lane: 0,
            event: self.queue.schedule(at, (key, ev)),
        }
    }

    fn schedule_report(&mut self, _node: u32, at: SimTime, ev: Ev) -> Handle {
        self.schedule(at, ev)
    }

    fn schedule_keyed(&mut self, at: SimTime, key: u64, ev: Ev) {
        self.queue.schedule(at, (key, ev));
    }

    fn cancel(&mut self, handle: Handle) {
        if !self.queue.cancel(handle.event) {
            // Popped already: gone, unless its instant is still firing.
            self.instant.retain(|ev| ev.id != handle.event);
        }
    }

    fn launch(&mut self, task: u64, work: &mut Option<TaskWork>) {
        self.exec.launch(task, work);
    }

    fn stamp(&self, at: SimTime) -> Stamp {
        self.exec.stamp(at)
    }
}

/// The sequential driver: the core on one queue, one event per step.
pub(super) struct Sequential<X: Exec> {
    core: Core<SingleQueue<X>>,
}

impl<X: Exec> Sequential<X> {
    /// Start a pilot under `runtime`, executing through `exec`. Bootstrap
    /// begins at `t = 0`.
    pub(super) fn new(runtime: RuntimeConfig, exec: X) -> Self {
        let queue = SingleQueue {
            queue: EventQueue::new(),
            next_seq: 0,
            instant: Vec::new(),
            exec,
        };
        Sequential {
            core: Core::new(runtime, queue),
        }
    }

    /// Dispatch the next event, if any, once it is due. Returns `false`
    /// when the queue is exhausted.
    fn step(&mut self) -> bool {
        if self.core.transport.refill() {
            let instant = self.core.transport.instant.iter();
            self.core.prefetch_instant(instant.map(|ev| ev.payload.1));
        }
        let Some((at, ev)) = self.core.transport.pop() else {
            return false;
        };
        debug_assert!(at >= self.core.now, "event queue went backwards");
        self.core.transport.exec.pace(at);
        self.core.now = at;
        self.core.apply(ev);
        true
    }

    /// Test support: run what is left of the current instant. This driver
    /// hands a completion back between two events of one instant, the
    /// sharded driver only between instants; a differential test calls
    /// this on a drained backend before it submits into it or reads its
    /// counters, so that both are observed at the same boundary.
    #[cfg(test)]
    pub(super) fn finish_instant(&mut self) {
        while self.core.transport.peek_time() == Some(self.core.now) {
            self.step();
        }
    }

    /// Test support: [`Core::live_descriptors`].
    #[cfg(test)]
    pub(super) fn live_descriptors(&self) -> usize {
        self.core.live_descriptors()
    }

    /// Test support: [`Core::prefetched`].
    #[cfg(test)]
    pub(super) fn prefetched(&self) -> (u64, u64) {
        self.core.prefetched()
    }
}

impl<X: Exec> ExecutionBackend for Sequential<X> {
    fn submit(&mut self, desc: TaskDescription) -> TaskId {
        self.core.submit(desc)
    }

    fn next_completion(&mut self) -> Option<Completion> {
        loop {
            if let Some(c) = self.core.take_completion() {
                return Some(c);
            }
            if self.core.stalled() || !self.step() {
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

    fn stamp(&self) -> Stamp {
        self.core.transport.stamp(self.core.now)
    }

    /// The completion events left in the current instant, in firing
    /// order (the instant is sorted next-to-fire last).
    fn upcoming_completions(&self, each: &mut dyn FnMut(TaskId)) {
        for ev in self.core.transport.instant.iter().rev() {
            if let Ev::Complete { task, .. } = ev.payload.1 {
                each(TaskId(task));
            }
        }
    }

    fn control_stats(&self) -> ControlStats {
        self.core.cstats
    }
}

/// [`ExecutionBackend`] for a public newtype over a [`Sequential`]: the
/// driver is generic and private, the backends are neither.
macro_rules! drive_sequential {
    ($backend:ty) => {
        impl $crate::backend::ExecutionBackend for $backend {
            fn submit(&mut self, desc: $crate::task::TaskDescription) -> $crate::task::TaskId {
                self.0.submit(desc)
            }
            fn next_completion(&mut self) -> Option<$crate::backend::Completion> {
                self.0.next_completion()
            }
            fn now(&self) -> impress_sim::SimTime {
                self.0.now()
            }
            fn in_flight(&self) -> usize {
                self.0.in_flight()
            }
            fn utilization(&self) -> $crate::profiler::UtilizationReport {
                self.0.utilization()
            }
            fn phase_breakdown(&self) -> $crate::pilot::PhaseBreakdown {
                self.0.phase_breakdown()
            }
            fn held_tasks(&self) -> usize {
                self.0.held_tasks()
            }
            fn telemetry(&self) -> &impress_telemetry::Telemetry {
                self.0.telemetry()
            }
            fn cancel(&mut self, id: $crate::task::TaskId) -> bool {
                self.0.cancel(id)
            }
            fn preempt(&mut self, id: $crate::task::TaskId) -> bool {
                self.0.preempt(id)
            }
            fn stamp(&self) -> impress_telemetry::Stamp {
                self.0.stamp()
            }
            fn upcoming_completions(&self, each: &mut dyn FnMut($crate::task::TaskId)) {
                self.0.upcoming_completions(each)
            }
            fn control_stats(&self) -> $crate::control::ControlStats {
                self.0.control_stats()
            }
        }
    };
}
pub(super) use drive_sequential;

/// The virtual-time pilot backend.
pub struct SimulatedBackend(Sequential<Inline>);

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
    /// (`time_scale` paces the threaded backend's clock and is ignored
    /// here — this backend never waits for one.)
    pub(crate) fn from_config(runtime: RuntimeConfig) -> Self {
        SimulatedBackend(Sequential::new(runtime, Inline))
    }

    /// Test support: [`Sequential::finish_instant`].
    #[cfg(test)]
    pub(crate) fn finish_instant(&mut self) {
        self.0.finish_instant();
    }

    /// Test support: [`Sequential::live_descriptors`].
    #[cfg(test)]
    pub(crate) fn live_descriptors(&self) -> usize {
        self.0.live_descriptors()
    }

    /// Test support: [`Sequential::prefetched`].
    #[cfg(test)]
    pub(crate) fn prefetched(&self) -> (u64, u64) {
        self.0.prefetched()
    }

    /// Test support: how many events the queue was ever handed — the id
    /// it gives the next one, read off a probe it takes straight back.
    #[cfg(test)]
    pub(crate) fn events_scheduled(&mut self) -> u64 {
        let queue = &mut self.0.core.transport.queue;
        let probe = queue.schedule(SimTime::MAX, (u64::MAX, Ev::PlaceScan));
        queue.cancel(probe);
        probe.0
    }

    /// CPU occupancy up to the current time, one value per
    /// [`SERIES_BIN`](crate::profiler::SERIES_BIN) (Fig. 4/5 data).
    pub fn cpu_series(&self) -> Vec<f64> {
        self.0.core.util.cpu_series(self.0.core.now)
    }

    /// GPU slot occupancy up to the current time, one value per bin.
    pub fn gpu_slot_series(&self) -> Vec<f64> {
        self.0.core.util.gpu_slot_series(self.0.core.now)
    }

    /// GPU hardware-busy time up to the current time, one value per bin.
    pub fn gpu_hw_series(&self) -> Vec<f64> {
        self.0.core.util.gpu_hw_series(self.0.core.now)
    }
}

drive_sequential!(SimulatedBackend);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::TaskError;
    use crate::fault::{FaultPlan, HedgePolicy, QuarantinePolicy, RetryPolicy};
    use crate::resources::{NodeSpec, ResourceRequest};
    use crate::scheduler::PlacementPolicy;
    use impress_sim::SimDuration;

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

    /// The reference driver's stepping granularity: a completion comes
    /// back between two events of one instant (the sharded driver would
    /// have applied both before returning). The campaign service's
    /// schedule depends on it.
    #[test]
    fn a_completion_comes_back_between_two_events_of_one_instant() {
        let mut b = SimulatedBackend::new(config(2, 0));
        b.submit(task("a", 1, 0, 50));
        b.submit(task("b", 1, 0, 50));
        let first = b.next_completion().expect("first of two at 160 s");
        assert_eq!(first.finished, SimTime::from_micros(160_000_000));
        assert_eq!(
            b.in_flight(),
            1,
            "the twin's event has not been applied yet"
        );
        let second = b.next_completion().expect("second");
        assert_eq!((second.finished, b.now()), (first.finished, first.finished));
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
        let mut b = RuntimeConfig::new(config(2, 0))
            .faults(plan, RetryPolicy::none())
            .simulated();
        b.submit(task("doomed", 1, 0, 50).with_work(|| 1u32));
        let c = b.next_completion().unwrap();
        assert_eq!(c.result.unwrap_err(), TaskError::Injected);
        assert_eq!(c.attempts, 0);
        let r = b.utilization();
        assert_eq!(r.retries, 0);
        assert!(
            r.wasted_core_seconds > 0.0,
            "the doomed attempt held a core"
        );
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
        let mut b = RuntimeConfig::new(config(2, 0))
            .faults(plan, no_backoff(3))
            .simulated();
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
        let mut b = RuntimeConfig::new(config(4, 0))
            .faults(plan, no_backoff(8))
            .simulated();
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
                ..FaultConfig::none()
            },
            2,
        );
        // Base run (10 + 100 s) fits the 200 s walltime; the ×8 hang does not.
        let mut b = RuntimeConfig::new(config(2, 0))
            .faults(plan, RetryPolicy::none())
            .simulated();
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
        assert!(
            completions.iter().all(|c| c.result.is_ok()),
            "no lineage lost"
        );
        let evicted: Vec<_> = completions.iter().filter(|c| c.attempts > 0).collect();
        assert_eq!(evicted.len(), 1, "exactly the node-0 resident was evicted");
        let r = b.utilization();
        assert_eq!(r.retries, 1);
        // The victim started at t=100 (bootstrap) and was evicted at t=500,
        // holding 4 cores: 1600 wasted core-seconds.
        assert!(
            (r.wasted_core_seconds - 1600.0).abs() < 1e-6,
            "{}",
            r.wasted_core_seconds
        );
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
        let mut b = RuntimeConfig::new(config(4, 0))
            .faults(plan, RetryPolicy::none())
            .simulated();
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
                log.push((
                    c.task.0,
                    c.finished.as_micros(),
                    c.result.is_ok(),
                    c.attempts,
                ));
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
        assert_eq!(finished, ["fits-a", "fits-b"]);
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
        // Two 1-core nodes. Four warmups, two at a time, prime the (1,0)
        // estimate at 60 s (setup 10 + run 50) by t=220 s; then node 0
        // degrades 20× from t=260 s. The victim placed on node 0 dilates to
        // a 440 s span, crosses the 2×60 s hedge threshold at t=340 s, and
        // the duplicate on node 1 finishes at t=400 s — rescuing 420 s of
        // straggler tail.
        let plan = FaultPlan::new(
            FaultConfig {
                scripted_slowdowns: vec![ScriptedSlowdown {
                    node: 0,
                    at: SimTime::from_micros(260_000_000),
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
        .hedge(HedgePolicy::k(2.0))
        .simulated();
        for name in ["warm-a", "warm-b", "warm-c", "warm-d"] {
            b.submit(task(name, 1, 0, 50));
        }
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
        assert_eq!(rescued.finished, SimTime::from_micros(400_000_000));
        let unhedged = done.iter().find(|c| !c.hedged).unwrap();
        assert_eq!(unhedged.finished, SimTime::from_micros(280_000_000));
        let util = b.utilization();
        assert_eq!(util.hedges, 1);
        // The losing main attempt occupied node 0 from 220 s to the 400 s
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
        assert_eq!(
            c.attempts, 1,
            "verdict after exactly distinct_nodes attempts"
        );
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
    use crate::backend::TaskError;
    use crate::fault::{FaultConfig, FaultPlan, RetryPolicy, ScriptedPartition};
    use crate::resources::{NodeSpec, ResourceRequest};
    use crate::scheduler::PlacementPolicy;
    use impress_sim::SimDuration;

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
        TaskDescription::new(
            name,
            ResourceRequest::cores(1),
            SimDuration::from_secs(secs),
        )
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

    /// The reference driver's cancel is immediate: a node that crashes in
    /// the very instant its victim's routed report arrives takes the report
    /// back before it fires, so nothing is left for the lease fence. (On
    /// the sharded driver's staged cancel that report is delivered and
    /// fenced; the differential generator steps around the case.)
    #[test]
    fn a_crash_in_the_instant_of_the_report_takes_the_report_back() {
        let mut cfg = FaultConfig::none();
        cfg.link.delay = secs(1);
        // Bootstrap 10 s + setup 1 s + run 5 s, reported at 17 s.
        cfg.scripted_crashes = vec![crate::fault::ScriptedCrash {
            node: 0,
            at: SimTime::from_micros(17_000_000),
            outage: secs(30),
        }];
        let mut b = SimulatedBackend::from_config(
            RuntimeConfig::new(pconfig(1, 2)).faults(FaultPlan::new(cfg, 1), RetryPolicy::none()),
        );
        b.submit(task("victim", 5));
        let c = b.next_completion().expect("terminal");
        assert_eq!(c.finished, SimTime::from_micros(17_000_000));
        assert_eq!(c.result.unwrap_err(), TaskError::NodeCrashed { node: 0 });
        assert!(b.next_completion().is_none());
        assert_eq!(b.control_stats().fenced_completions, 0);
    }

    #[test]
    fn lossy_hub_still_delivers_every_task() {
        let mut cfg = FaultConfig::none();
        cfg.link.drop_rate = 0.4;
        cfg.link.duplicate_rate = 0.3;
        cfg.link.delay = SimDuration::from_micros(50_000);
        cfg.link.jitter = SimDuration::from_micros(30_000);
        cfg.link.reorder_rate = 0.2;
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
