//! The real-thread backend: the sequential driver of the shared DES core,
//! with work on OS threads and a paced clock.
//!
//! Everything that decides what happens to an attempt — placement, fault
//! verdicts, retries, walltime, the deadline hold, hedging, quarantine,
//! node crashes, the control plane, cancel and preempt — is the one core
//! in `backend/des.rs`, driven by the one sequential driver in
//! `backend/simulated.rs`. This file adds the two things a live run has
//! that a replay does not (`Threads`, the driver's execution seam):
//!
//! * **Work runs on real threads.** When the first attempt of a task that
//!   the fault plan lets finish is placed, its work closure moves to an
//!   OS thread of its own; the attempt's completion joins it. Attempts
//!   that hold slots at the same virtual time therefore overlap in real
//!   time, and slot limits serialise real work exactly as they serialise
//!   modeled work. A closure runs at most once per task: an attempt
//!   evicted by a crash, a suspicion or a preemption leaves the running
//!   (or finished) thread with the task, and whichever attempt completes
//!   — the retry, or a winning hedge duplicate — joins it and surfaces
//!   its output. Attempts planned to fail (`Injected`, `TimedOut`) never
//!   start it. A panic in the closure is re-raised at the join and
//!   surfaces as [`TaskError::WorkPanicked`](super::TaskError) like
//!   everywhere else.
//! * **The virtual clock is paced.** Before an event at virtual instant
//!   `t` is applied the driver sleeps until `t ×`
//!   [`time_scale`](crate::RuntimeConfig::time_scale) seconds of real time
//!   have passed since the backend was built — a scale of `1e-4` replays
//!   a 28-hour CONT-V run in about ten real seconds with faithful overlap
//!   structure. At the default scale of `0.0` nothing sleeps and the run
//!   takes as long as its work does.
//!
//! Virtual time is authoritative, as on the other two backends: `now()`,
//! completion stamps, utilization, the phase breakdown and
//! [`RuntimeConfig::deadline`](crate::RuntimeConfig::deadline) are all on
//! the modeled clock, and the completion stream is deterministic for a
//! seed. Progress happens inside
//! [`next_completion`](super::ExecutionBackend::next_completion);
//! `cancel` accepts queued tasks and `preempt` evicts running ones, as on
//! the other two. Telemetry events carry both clocks
//! ([`Stamp::dual`]): the virtual instant, and wall-clock microseconds
//! since the backend's epoch, so `TraceClock::Wall` exports show real
//! execution.
//!
//! Dropping the backend detaches workers that have not been joined; they
//! run to the end of their closure and their output is discarded.

use super::simulated::{drive_sequential, Exec, Sequential};
use crate::pilot::PilotConfig;
use crate::runtime::RuntimeConfig;
use crate::task::TaskWork;
use impress_sim::SimTime;
use impress_telemetry::Stamp;
use std::collections::HashSet;
use std::panic::resume_unwind;
use std::time::{Duration, Instant};

/// Real time for the sequential driver: worker threads and a paced clock.
struct Threads {
    /// When the backend was built: virtual zero on the wall clock.
    epoch: Instant,
    /// Wall seconds per virtual second.
    time_scale: f64,
    /// Tasks whose closure is already on a thread.
    launched: HashSet<u64>,
}

impl Threads {
    /// How long after the epoch virtual instant `at` is due. A scale that
    /// is not a usable factor (negative, NaN, overflowing) paces nothing.
    fn due(&self, at: SimTime) -> Duration {
        Duration::try_from_secs_f64(at.as_secs_f64() * self.time_scale).unwrap_or(Duration::ZERO)
    }
}

impl Exec for Threads {
    fn launch(&mut self, task: u64, work: &mut Option<TaskWork>) {
        // A retry of a task already on its thread has nothing to start.
        let Some(run) = work.take_if(|_| self.launched.insert(task)) else {
            return;
        };
        let worker = std::thread::Builder::new()
            .name(format!("pilot-task-{task}"))
            .spawn(run)
            .expect("spawn a worker thread");
        *work = Some(Box::new(move || {
            worker.join().unwrap_or_else(|panic| resume_unwind(panic))
        }));
    }

    fn pace(&mut self, at: SimTime) {
        if let Some(wait) = self.due(at).checked_sub(self.epoch.elapsed()) {
            std::thread::sleep(wait);
        }
    }

    /// Both clocks. An instant stamped ahead of the clock (the bootstrap
    /// span's end, recorded up front) gets the wall time it is due at.
    fn stamp(&self, at: SimTime) -> Stamp {
        let wall = self.epoch.elapsed().max(self.due(at));
        Stamp::dual(at, wall.as_micros() as u64)
    }
}

/// The real-thread pilot backend.
pub struct ThreadedBackend(Sequential<Threads>);

impl ThreadedBackend {
    /// Start a pilot over real threads, unpaced (`time_scale = 0`).
    pub fn new(config: PilotConfig) -> Self {
        Self::from_config(RuntimeConfig::new(config))
    }

    /// Start a pilot under a full [`RuntimeConfig`]: time scale, fault
    /// plan + retry policy, walltime deadline, hedging, quarantine and
    /// telemetry in one value. Everything but `time_scale` means what it
    /// means on [`SimulatedBackend`](super::SimulatedBackend), at any
    /// time scale.
    pub(crate) fn from_config(runtime: RuntimeConfig) -> Self {
        let exec = Threads {
            epoch: Instant::now(),
            time_scale: runtime.time_scale,
            launched: HashSet::new(),
        };
        ThreadedBackend(Sequential::new(runtime, exec))
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
}

drive_sequential!(ThreadedBackend);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExecutionBackend, TaskError};
    use crate::control::ControlStats;
    use crate::fault::{FaultConfig, FaultPlan, RetryPolicy, ScriptedCrash};
    use crate::resources::{NodeSpec, ResourceRequest};
    use crate::scheduler::PlacementPolicy;
    use crate::task::{TaskDescription, TaskId};
    use impress_sim::SimDuration;
    use impress_telemetry::Label;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn config(cores: u32, gpus: u32) -> PilotConfig {
        PilotConfig {
            node: NodeSpec::new(cores, gpus, 64),
            nodes: 1,
            policy: PlacementPolicy::Backfill,
            bootstrap: SimDuration::from_secs(1),
            exec_setup_per_task: SimDuration::ZERO,
            seed: 0,
        }
    }

    fn task(name: &str, cores: u32) -> TaskDescription {
        TaskDescription::new(
            name,
            ResourceRequest::cores(cores),
            SimDuration::from_secs(1),
        )
    }

    fn no_backoff(retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries: retries,
            ..RetryPolicy::none()
        }
    }

    #[test]
    fn work_actually_executes_and_returns() {
        let mut b = ThreadedBackend::new(config(2, 0));
        b.submit(task("t", 1).with_work(|| 6 * 7));
        let c = b.next_completion().unwrap();
        assert_eq!(c.output::<i32>(), 42);
        assert!(b.next_completion().is_none());
    }

    #[test]
    fn all_submissions_complete() {
        let mut b = ThreadedBackend::new(config(4, 0));
        for i in 0..20u64 {
            b.submit(task(&format!("t{i}"), 1).with_work(move || i * 2));
        }
        let mut outs: Vec<u64> = Vec::new();
        while let Some(c) = b.next_completion() {
            outs.push(c.output::<u64>());
        }
        outs.sort_unstable();
        assert_eq!(outs, (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn concurrency_is_real() {
        // Two 1-core tasks on a 2-core node, each sleeping 200ms, should
        // overlap: total elapsed well under 400ms.
        let mut b = ThreadedBackend::new(config(2, 0));
        let t0 = Instant::now();
        for _ in 0..2 {
            b.submit(task("sleep", 1).with_work(|| {
                std::thread::sleep(Duration::from_millis(200));
            }));
        }
        while b.next_completion().is_some() {}
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(380),
            "tasks did not overlap: {elapsed:?}"
        );
    }

    #[test]
    fn slot_limits_are_enforced() {
        // Two 1-core sleep tasks on a ONE-core node must serialize.
        let mut b = ThreadedBackend::new(config(1, 0));
        let t0 = Instant::now();
        for _ in 0..2 {
            b.submit(task("sleep", 1).with_work(|| {
                std::thread::sleep(Duration::from_millis(150));
            }));
        }
        while b.next_completion().is_some() {}
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(290),
            "tasks overlapped on one core: {elapsed:?}"
        );
    }

    #[test]
    fn panicking_task_does_not_poison_the_backend() {
        let mut b = ThreadedBackend::new(config(1, 0));
        b.submit(task("boom", 1).with_work(|| -> i32 { panic!("threaded kaboom") }));
        b.submit(task("ok", 1).with_work(|| 5i32));
        let mut saw_err = false;
        let mut saw_ok = false;
        while let Some(c) = b.next_completion() {
            match c.result {
                Err(TaskError::WorkPanicked(ref m)) => {
                    assert!(m.contains("threaded kaboom"));
                    saw_err = true;
                }
                Ok(_) => saw_ok = true,
                Err(ref e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_err && saw_ok);
    }

    #[test]
    fn time_scale_dilates_durations() {
        let cfg = PilotConfig {
            bootstrap: SimDuration::from_secs(1),
            ..config(1, 0)
        };
        let mut b = RuntimeConfig::new(cfg).time_scale(0.05).threaded();
        let t0 = Instant::now();
        b.submit(TaskDescription::new(
            "timed",
            ResourceRequest::cores(1),
            SimDuration::from_secs(2),
        ));
        while b.next_completion().is_some() {}
        // bootstrap 1s + task 2s at 5% scale ≈ 150ms.
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(120), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(600), "{elapsed:?}");
    }

    #[test]
    fn deadline_holds_overrunning_tasks_and_drains() {
        // One core, bootstrap 1 s: the short tasks run 1–2 s and 2–3 s; the
        // long one would hold the core from 3 s to 103 s. A 50 s allocation
        // (virtual, like every deadline) fits the first two and strands
        // the third.
        let cfg = PilotConfig {
            bootstrap: SimDuration::from_secs(1),
            ..config(1, 0)
        };
        let mut b = RuntimeConfig::new(cfg)
            .time_scale(0.01)
            .deadline(SimTime::from_micros(50_000_000))
            .threaded();
        b.submit(task("short-a", 1).with_work(|| 1u64));
        b.submit(task("short-b", 1).with_work(|| 2u64));
        b.submit(
            TaskDescription::new(
                "long",
                ResourceRequest::cores(1),
                SimDuration::from_secs(100),
            )
            .with_work(|| 3u64),
        );
        let mut done = Vec::new();
        while let Some(c) = b.next_completion() {
            assert!(c.result.is_ok());
            done.push(c.name);
        }
        assert_eq!(done, ["short-a", "short-b"]);
        assert_eq!(b.held_tasks(), 1);
        assert_eq!(b.in_flight(), 1, "held tasks stay in flight");
        assert_eq!(b.now(), SimTime::from_micros(3_000_000));
    }

    #[test]
    fn expired_deadline_at_zero_time_scale_holds_everything() {
        let mut b = RuntimeConfig::new(config(2, 0))
            .deadline(SimTime::ZERO)
            .threaded();
        b.submit(task("a", 1).with_work(|| 1u64));
        b.submit(task("b", 1).with_work(|| 2u64));
        assert!(b.next_completion().is_none());
        assert_eq!(b.held_tasks(), 2);
    }

    #[test]
    fn cancel_of_queued_task_delivers_cancelled_completion() {
        // One core: first task occupies it (sleeping), second queues.
        let mut b = ThreadedBackend::new(config(1, 0));
        b.submit(task("holder", 1).with_work(|| {
            std::thread::sleep(Duration::from_millis(150));
        }));
        // Give the scheduler a moment to place the holder.
        std::thread::sleep(Duration::from_millis(30));
        let queued = b.submit(task("victim", 1).with_work(|| ()));
        std::thread::sleep(Duration::from_millis(30));
        assert!(b.cancel(queued));
        let mut cancelled = 0;
        let mut finished = 0;
        while let Some(c) = b.next_completion() {
            match c.result {
                Err(TaskError::Canceled) => {
                    assert_eq!(c.name, "victim");
                    cancelled += 1;
                }
                Ok(_) => finished += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!((cancelled, finished), (1, 1));
        assert_eq!(b.in_flight(), 0);
    }

    #[test]
    fn utilization_is_tracked() {
        let mut b = ThreadedBackend::new(config(2, 0));
        b.submit(task("t", 2).with_work(|| {
            std::thread::sleep(Duration::from_millis(100));
        }));
        while b.next_completion().is_some() {}
        let r = b.utilization();
        assert_eq!(r.tasks, 1);
        assert!(r.cpu > 0.0, "some busy time must be recorded");
    }

    #[test]
    fn acknowledged_cancel_never_yields_an_ok_completion() {
        // Hammer the former race: submit + immediate cancel, many rounds.
        // Whenever cancel() acknowledges with `true`, the task's completion
        // must NOT be Ok — the commit-point flag makes this a guarantee.
        for round in 0..60u64 {
            let mut b = ThreadedBackend::new(config(1, 0));
            let id = b.submit(task("racy", 1).with_work(move || round));
            let acknowledged = b.cancel(id);
            let c = b.next_completion().unwrap();
            assert_eq!(c.task, id);
            if acknowledged {
                assert!(
                    matches!(c.result, Err(TaskError::Canceled)),
                    "round {round}: acknowledged cancel produced {:?}",
                    c.result
                );
            }
            assert!(b.next_completion().is_none());
            assert_eq!(b.in_flight(), 0);
        }
    }

    #[test]
    fn cancel_after_completion_is_refused() {
        let mut b = ThreadedBackend::new(config(1, 0));
        let id = b.submit(task("t", 1).with_work(|| 1u32));
        let c = b.next_completion().unwrap();
        assert!(c.result.is_ok());
        assert!(!b.cancel(id), "terminal task cannot be cancelled");
        assert!(!b.cancel(TaskId(999)), "unknown task cannot be cancelled");
    }

    #[test]
    fn injected_transient_faults_exhaust_the_budget() {
        let plan = FaultPlan::new(
            FaultConfig {
                task_failure_rate: 1.0,
                ..FaultConfig::none()
            },
            1,
        );
        let mut b = RuntimeConfig::new(config(2, 0))
            .faults(plan, no_backoff(2))
            .threaded();
        b.submit(task("doomed", 1).with_work(|| 1u32));
        let c = b.next_completion().unwrap();
        assert_eq!(c.attempts, 2);
        assert!(matches!(c.result, Err(TaskError::Injected)));
        let r = b.utilization();
        assert_eq!(r.retries, 2);
        assert_eq!(r.tasks, 0, "no useful execution");
        assert_eq!(b.in_flight(), 0);
    }

    #[test]
    fn retries_recover_partial_fault_rates() {
        let plan = FaultPlan::new(
            FaultConfig {
                task_failure_rate: 0.5,
                ..FaultConfig::none()
            },
            11,
        );
        let mut b = RuntimeConfig::new(config(4, 0))
            .faults(plan, no_backoff(8))
            .threaded();
        for i in 0..12u64 {
            b.submit(task(&format!("t{i}"), 1).with_work(move || i));
        }
        let mut oks = 0;
        let mut retried = 0;
        while let Some(c) = b.next_completion() {
            assert!(c.attempts <= 8);
            if c.attempts > 0 {
                retried += 1;
            }
            if c.result.is_ok() {
                oks += 1;
            }
        }
        assert_eq!(oks, 12);
        assert!(retried > 0);
    }

    #[test]
    fn walltime_expiry_times_out_without_running_work() {
        let mut b = ThreadedBackend::new(config(2, 0));
        b.submit(
            TaskDescription::new(
                "straggler",
                ResourceRequest::cores(1),
                SimDuration::from_secs(100),
            )
            .with_walltime(SimDuration::from_secs(50))
            .with_work(|| panic!("work must not run on a timed-out attempt")),
        );
        let c = b.next_completion().unwrap();
        assert_eq!(
            c.result.unwrap_err(),
            TaskError::TimedOut {
                limit: SimDuration::from_secs(50)
            }
        );
    }

    /// 2 nodes × 4 cores, no retry backoff. Node 0 crashes 30 (virtual)
    /// seconds in — in the middle of a full-node task's attempt, whose
    /// closure is already on a thread — and recovers after 40 s.
    fn crash_cell(time_scale: f64) -> ThreadedBackend {
        let plan = FaultPlan::new(
            FaultConfig {
                scripted_crashes: vec![ScriptedCrash {
                    node: 0,
                    at: SimTime::from_micros(30_000_000),
                    outage: SimDuration::from_secs(40),
                }],
                ..FaultConfig::none()
            },
            0,
        );
        let cfg = PilotConfig {
            nodes: 2,
            bootstrap: SimDuration::from_secs(1),
            ..config(4, 0)
        };
        RuntimeConfig::new(cfg)
            .time_scale(time_scale)
            .faults(plan, no_backoff(3))
            .threaded()
    }

    fn full_node(name: impl Into<Label>) -> TaskDescription {
        TaskDescription::new(name, ResourceRequest::cores(4), SimDuration::from_secs(100))
    }

    /// The evicted task retries and the whole workload completes, paced
    /// or not.
    #[test]
    fn scripted_node_crash_requeues_and_completes() {
        for time_scale in [0.01, 0.0] {
            let mut b = crash_cell(time_scale);
            for i in 0..2u64 {
                b.submit(full_node(format!("t{i}")).with_work(move || i));
            }
            let mut completions = Vec::new();
            while let Some(c) = b.next_completion() {
                completions.push(c);
            }
            assert_eq!(completions.len(), 2);
            assert!(
                completions.iter().all(|c| c.result.is_ok()),
                "requeued task must finish: {completions:?}"
            );
            let evicted = completions.iter().filter(|c| c.attempts > 0).count();
            assert_eq!(evicted, 1, "exactly the node-0 resident was evicted");
            let r = b.utilization();
            assert_eq!(r.retries, 1);
            assert!(r.wasted_core_seconds > 0.0);
            assert_eq!(b.in_flight(), 0);
        }
    }

    #[test]
    fn telemetry_records_spans_and_models_the_virtual_clock() {
        use impress_telemetry::{check_nesting, SpanCat, Telemetry, TelemetryEvent};
        let (tele, rec) = Telemetry::recording(4096);
        let cfg = PilotConfig {
            exec_setup_per_task: SimDuration::from_secs(2),
            ..config(1, 0)
        };
        // One core: the two tasks serialize, so the modeled virtual clock
        // is fully determined: bootstrap 1s, then two (2s setup + 5s run)
        // attempts back to back → watermark 15s.
        let mut b = RuntimeConfig::new(cfg).telemetry(tele).threaded();
        for i in 0..2u64 {
            b.submit(
                TaskDescription::new(
                    format!("t{i}"),
                    ResourceRequest::cores(1),
                    SimDuration::from_secs(5),
                )
                .with_work(move || i),
            );
        }
        while b.next_completion().is_some() {}
        assert_eq!(b.virtual_now(), SimTime::from_micros(15_000_000));
        let stamp = b.stamp();
        assert_eq!(stamp.virt, SimTime::from_micros(15_000_000));
        assert!(stamp.wall.is_some(), "threaded stamps carry a wall clock");
        let events = rec.events();
        check_nesting(&events).expect("spans nest");
        assert!(
            events.iter().all(|e| e.stamp().wall.is_some()),
            "every threaded event is dual-stamped"
        );
        let begins = |cat: SpanCat| {
            events
                .iter()
                .filter(|e| matches!(e, TelemetryEvent::Begin { cat: c, .. } if *c == cat))
                .count()
        };
        assert_eq!(begins(SpanCat::Task), 2);
        assert_eq!(begins(SpanCat::Attempt), 2);
        // Each attempt span is as wide as its modeled attempt on the
        // virtual clock.
        let widths: Vec<SimDuration> = events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Begin {
                    id,
                    cat: SpanCat::Attempt,
                    at,
                    ..
                } => events.iter().find_map(|end| match end {
                    TelemetryEvent::End { id: closed, at: to } if closed == id => {
                        Some(to.virt.since(at.virt))
                    }
                    _ => None,
                }),
                _ => None,
            })
            .collect();
        assert_eq!(
            widths,
            [SimDuration::from_secs(7); 2],
            "two modeled 7s (setup+run) attempts"
        );
    }

    #[test]
    fn scripted_slowdowns_dilate_the_modeled_clock() {
        use crate::fault::ScriptedSlowdown;
        let fc = FaultConfig {
            scripted_slowdowns: vec![ScriptedSlowdown {
                node: 0,
                at: SimTime::ZERO,
                duration: SimDuration::from_secs(1_000),
                factor: 3.0,
            }],
            ..FaultConfig::none()
        };
        let mut b = RuntimeConfig::new(config(1, 0))
            .faults(FaultPlan::new(fc, 0), RetryPolicy::none())
            .threaded();
        b.submit(task("slow", 1).with_work(|| ()));
        assert!(b.next_completion().unwrap().result.is_ok());
        // Bootstrap 1s, then the 1s nominal span runs 3x slower inside the
        // window: the modeled clock lands on exactly 4s.
        assert_eq!(b.virtual_now(), SimTime::from_micros(4_000_000));
    }

    #[test]
    fn hedged_duplicate_rescues_a_straggler() {
        use crate::fault::{HedgePolicy, ScriptedSlowdown};
        // Two nodes; node 0 degrades 20x right as the warmups finish (v=3s).
        // The victim placed there would run 20s virtual; with k=2 hedging
        // the duplicate lands on the healthy node and wins.
        let fc = FaultConfig {
            scripted_slowdowns: vec![ScriptedSlowdown {
                node: 0,
                at: SimTime::from_micros(3_000_000),
                duration: SimDuration::from_secs(10_000),
                factor: 20.0,
            }],
            ..FaultConfig::none()
        };
        let cfg = PilotConfig {
            nodes: 2,
            ..config(1, 0)
        };
        let mut b = RuntimeConfig::new(cfg)
            .faults(FaultPlan::new(fc, 1), RetryPolicy::none())
            .hedge(HedgePolicy::k(2.0))
            .time_scale(0.01)
            .threaded();
        // Four warmups, two at a time, prime the (1 core, 0 gpu) shape
        // estimate at ~1s.
        for i in 0..4u64 {
            b.submit(task(&format!("w{i}"), 1).with_work(move || i));
        }
        for _ in 0..4 {
            assert!(b.next_completion().unwrap().result.is_ok());
        }
        // Two victims, one per node: only the one on the degraded node
        // exceeds 2x the estimate and gets a duplicate.
        for i in 0..2u64 {
            b.submit(task(&format!("v{i}"), 1).with_work(move || i));
        }
        let mut hedged = 0u32;
        for _ in 0..2 {
            let c = b.next_completion().unwrap();
            assert!(c.result.is_ok());
            hedged += c.hedged as u32;
        }
        assert_eq!(hedged, 1, "exactly the straggler is rescued by its hedge");
        assert!(b.next_completion().is_none());
        // The victim held node 0 from 3 s until its duplicate (placed at
        // the 2 × 1 s threshold, 5 s) won at 6 s: three core-seconds of
        // hedge waste, booked by the time the winner's completion is out.
        let util = b.utilization();
        assert_eq!(util.hedges, 1);
        assert_eq!(util.hedge_wasted_core_seconds, 3.0);
    }

    #[test]
    fn quarantine_poisons_after_distinct_node_failures() {
        use crate::fault::QuarantinePolicy;
        let fc = FaultConfig {
            task_failure_rate: 1.0,
            ..FaultConfig::none()
        };
        let cfg = PilotConfig {
            nodes: 2,
            ..config(1, 0)
        };
        let mut b = RuntimeConfig::new(cfg)
            .faults(FaultPlan::new(fc, 7), no_backoff(5))
            .quarantine(QuarantinePolicy::distinct(2))
            .threaded();
        b.submit(task("poison", 1).with_work(|| ()));
        let c = b.next_completion().unwrap();
        match &c.result {
            Err(TaskError::Poisoned { distinct_nodes }) => assert_eq!(*distinct_nodes, 2),
            Err(e) => panic!("expected a poison verdict, got {e:?}"),
            Ok(_) => panic!("expected a poison verdict, got Ok"),
        }
        assert_eq!(
            c.attempts, 1,
            "retry steering reaches the verdict in exactly 2 attempts, \
             not the full retry budget"
        );
        assert!(b.next_completion().is_none());
    }

    #[test]
    fn partition_triggers_suspicion_lease_expiry_and_resync() {
        use crate::fault::ScriptedPartition;
        // Both nodes are partitioned from the coordinator for 8 virtual
        // seconds: their heartbeats vanish, the detector suspects them
        // (timeout 3 s), the running attempt's lease expires and it
        // requeues. The heal delivers heartbeats again, both nodes
        // resync, and the retried attempt completes.
        let fc = FaultConfig {
            link: crate::fault::LinkFaults {
                heartbeat_interval: Some(SimDuration::from_secs(1)),
                heartbeat_timeout: Some(SimDuration::from_secs(3)),
                partitions: vec![ScriptedPartition {
                    first_node: 0,
                    last_node: 1,
                    at: SimTime::ZERO,
                    duration: SimDuration::from_secs(8),
                }],
                ..crate::fault::LinkFaults::none()
            },
            ..FaultConfig::none()
        };
        let cfg = PilotConfig {
            nodes: 2,
            ..config(2, 0)
        };
        let runtime =
            || RuntimeConfig::new(cfg).faults(FaultPlan::new(fc.clone(), 3), no_backoff(3));
        let long = || {
            TaskDescription::new(
                "long",
                ResourceRequest::cores(2),
                SimDuration::from_secs(100),
            )
            .with_work(|| 7i32)
        };
        let mut b = runtime().time_scale(1e-3).threaded();
        b.submit(long());
        let c = b.next_completion().unwrap();
        assert_eq!(c.attempts, 1, "the lease expiry consumed one retry");
        assert_eq!(c.output::<i32>(), 7);
        assert!(b.next_completion().is_none());
        let cs = b.control_stats();
        assert!(
            cs.suspicions > 0 && cs.resyncs > 0,
            "no partition bit: {cs:?}"
        );
        // One core, one heartbeat clock: the replay counts the same.
        let mut sim = runtime().simulated();
        sim.submit(long());
        while sim.next_completion().is_some() {}
        assert_eq!(cs, sim.control_stats());
    }

    #[test]
    fn control_stats_stay_zero_without_link_faults() {
        let mut b = RuntimeConfig::new(config(2, 0)).time_scale(1e-3).threaded();
        b.submit(task("t", 1).with_work(|| 1i32));
        while b.next_completion().is_some() {}
        assert_eq!(b.control_stats(), ControlStats::default());
    }

    #[test]
    fn repeated_create_drop_with_live_timers_shuts_down_cleanly() {
        use crate::fault::{HedgePolicy, HEDGE_MIN_SAMPLES};
        // A backend dropped with heartbeat rounds ticking, retry backoffs
        // pending and hedge checks armed must go away promptly instead of
        // hanging or panicking. The in-flight completions are simply
        // never popped.
        for round in 0..12u64 {
            let fc = FaultConfig {
                task_failure_rate: 0.5,
                link: crate::fault::LinkFaults {
                    heartbeat_interval: Some(SimDuration::from_micros(50_000)),
                    heartbeat_timeout: Some(SimDuration::from_micros(200_000)),
                    ..crate::fault::LinkFaults::none()
                },
                ..FaultConfig::none()
            };
            let cfg = PilotConfig {
                nodes: 2,
                seed: round,
                ..config(2, 0)
            };
            let mut b = RuntimeConfig::new(cfg)
                .faults(FaultPlan::new(fc, round), RetryPolicy::retries(3))
                .hedge(HedgePolicy::k(1.2))
                .time_scale(1e-3)
                .threaded();
            // Four successes warm the shape, so later attempts arm hedge
            // checks.
            let (mut warm, mut i) = (0, 6u64);
            while warm < HEDGE_MIN_SAMPLES {
                b.submit(task(&format!("w{i}"), 1).with_work(move || i));
                warm += b.next_completion().unwrap().result.is_ok() as u32;
                i += 1;
            }
            for i in 0..6u64 {
                b.submit(task(&format!("t{i}"), 1).with_work(move || i));
            }
            if round % 3 == 0 {
                // Sometimes pop one completion first, sometimes drop with
                // everything still in flight.
                let _ = b.next_completion();
            }
            drop(b);
        }
    }

    #[test]
    fn an_evicted_attempts_closure_runs_once_and_its_output_surfaces_with_the_retry() {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut b = crash_cell(0.0);
        for name in ["on-node-0", "on-node-1"] {
            let runs = runs.clone();
            b.submit(full_node(name).with_work(move || {
                runs.fetch_add(1, Ordering::SeqCst);
                name
            }));
        }
        let mut retried = 0;
        while let Some(c) = b.next_completion() {
            retried += c.attempts;
            let name = c.name.clone();
            assert_eq!(name, c.output::<&str>(), "each task gets its own output");
        }
        assert_eq!(retried, 1, "the node-0 resident was evicted once");
        assert_eq!(
            runs.load(Ordering::SeqCst),
            2,
            "one run per task, not per attempt"
        );
    }

    #[test]
    fn preempt_evicts_a_running_attempt_and_requeues_it() {
        let mut b = ThreadedBackend::new(config(2, 0));
        let long = b.submit(
            TaskDescription::new(
                "long",
                ResourceRequest::cores(1),
                SimDuration::from_secs(100),
            )
            .with_work(|| 1u32),
        );
        let short = b.submit(task("short", 1).with_work(|| 2u32));
        assert!(!b.preempt(long), "queued, not running");
        assert_eq!(b.next_completion().unwrap().task, short);
        assert!(b.preempt(long));
        let c = b.next_completion().unwrap();
        assert_eq!((c.task, c.attempts), (long, 1));
        assert_eq!(c.output::<u32>(), 1);
        // Held one core from bootstrap (1 s) to the eviction at 2 s.
        assert_eq!(b.utilization().wasted_core_seconds, 1.0);
    }

    #[test]
    fn the_control_plane_routes_submits_and_reports() {
        let mut fc = FaultConfig::none();
        fc.link.delay = SimDuration::from_secs(2);
        let mut b = RuntimeConfig::new(config(1, 0))
            .faults(FaultPlan::new(fc, 1), RetryPolicy::none())
            .threaded();
        b.submit(task("t", 1).with_work(|| ()));
        let c = b.next_completion().unwrap();
        // The submit arrives at 2 s (bootstrap ended at 1 s), the attempt
        // runs to 3 s and its report takes the link's 2 s.
        assert_eq!(c.started, SimTime::from_micros(2_000_000));
        assert_eq!(c.finished, SimTime::from_micros(5_000_000));
        assert_eq!(b.control_stats().messages, 2, "one submit, one report");
    }

    #[test]
    fn the_completion_stream_is_deterministic() {
        let run = || {
            let plan = FaultPlan::new(
                FaultConfig {
                    task_failure_rate: 0.3,
                    ..FaultConfig::none()
                },
                5,
            );
            let mut b = RuntimeConfig::new(config(3, 0))
                .faults(plan, RetryPolicy::retries(4))
                .threaded();
            for i in 0..10u64 {
                b.submit(task(&format!("t{i}"), 1 + (i % 2) as u32).with_work(move || i));
            }
            let mut log = Vec::new();
            while let Some(c) = b.next_completion() {
                log.push((c.task, c.started, c.finished, c.attempts, c.result.is_ok()));
            }
            (log, b.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dropping_a_backend_with_unjoined_workers_neither_hangs_nor_panics() {
        // The slow worker is parked on a channel until after the drop (or
        // two seconds, so that a drop that joined would fail, not hang).
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let mut b = ThreadedBackend::new(config(2, 0));
        b.submit(task("fast", 1).with_work(|| ()));
        b.submit(
            TaskDescription::new(
                "slow",
                ResourceRequest::cores(1),
                SimDuration::from_secs(100),
            )
            .with_work(move || parked.recv_timeout(Duration::from_secs(2)).is_ok()),
        );
        assert_eq!(b.next_completion().unwrap().name, "fast");
        assert_eq!(b.in_flight(), 1, "the slow worker is launched, not joined");
        let t0 = Instant::now();
        drop(b);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "drop waited for a worker"
        );
        release
            .send(())
            .expect("the detached worker is still parked");
    }
}
