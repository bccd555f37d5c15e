//! Execution backends.
//!
//! One trait, three backends — all of them drivers of one core:
//!
//! * `des` (private) — the discrete-event core every backend runs: typed
//!   `Copy` events, a dense task table, and every attempt-lifecycle
//!   handler (placement, retry, hedge, quarantine, crash, control-plane
//!   delivery, cancel, preempt) written once, generic over an event
//!   transport and a utilization sink. Virtual time is authoritative on
//!   all three: `now()`, completion stamps, utilization, the phase
//!   breakdown and the deadline are on the modeled clock.
//! * [`SimulatedBackend`] — the core on one event queue, popped one event
//!   per step, with per-device utilization. Tasks cost their declared
//!   [`crate::task::TaskDescription::duration`]; work closures run at the
//!   completion instant. Every paper figure is regenerated on this
//!   backend, because the original experiments take 27–38 wall-clock
//!   hours, and the other two drivers are checked against it.
//! * [`ShardedBackend`] — the core on per-node-group event-queue shards
//!   advanced to a conservative lookahead horizon and merged by a global
//!   sequence number, with one heartbeat round per tick and an optional
//!   worker-thread drive mode. Bit-identical to the simulated backend (a
//!   256-case differential test checks the two transports against each
//!   other) and the backend of choice for 10k-node campaign studies.
//! * [`ThreadedBackend`] — the simulated backend's sequential driver
//!   again, with each work closure on an OS thread of its own (started
//!   when an attempt that will finish is placed, joined at its
//!   completion, run at most once per task) and the virtual clock paced
//!   to `time_scale` wall seconds per virtual second. Same event stream,
//!   same completions; attempts that overlap in virtual time overlap in
//!   real time. Used by the examples and by tests that exercise actual
//!   concurrency.
//!
//! The coordinator (in `impress-workflow`) drives any of them through
//! [`ExecutionBackend`], so protocol logic is backend-agnostic.

mod des;
pub mod sharded;
pub mod simulated;
pub mod threaded;

pub use sharded::ShardedBackend;
pub use simulated::SimulatedBackend;
pub use threaded::ThreadedBackend;

use crate::pilot::PhaseBreakdown;
use crate::profiler::UtilizationReport;
use crate::task::{TaskDescription, TaskId, TaskOutput};
use impress_sim::{SimDuration, SimTime};
use impress_telemetry::Label;
use std::fmt;

/// Message-kind discriminants for the control plane's idempotent dedup
/// set: a message identity is `(task, attempt, kind)`, so a retry verdict
/// and a completion report for the same attempt dedup independently. The
/// same constants key the seeded per-message RNG on both deterministic
/// engines, which is what keeps their delivery verdicts identical.
pub(crate) const MSG_DONE: u8 = 0;
pub(crate) const MSG_SUBMIT: u8 = 1;
pub(crate) const MSG_RETRY: u8 = 2;
pub(crate) const MSG_CANCEL: u8 = 3;
pub(crate) const MSG_HEDGE: u8 = 4;

/// The numeric message key for `(task, attempt)` traffic: attempts are
/// folded into the low byte so every attempt of a task gets a distinct
/// delivery verdict without colliding with other tasks' keys.
pub(crate) fn msg_key(task: u64, attempt: u32) -> u64 {
    (task << 8) | u64::from(attempt & 0xff)
}

/// Why a task did not complete successfully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The work closure panicked; the payload's message if it was a string.
    WorkPanicked(String),
    /// The task was cancelled before completion.
    Canceled,
    /// The task exceeded its walltime limit and was killed.
    TimedOut {
        /// The limit that was exceeded.
        limit: SimDuration,
    },
    /// An injected transient fault (models OOM kills, flaky filesystems).
    Injected,
    /// The node hosting the task crashed; delivered only when the retry
    /// budget is exhausted — crashes inside the budget requeue silently.
    NodeCrashed {
        /// The node that crashed.
        node: u32,
    },
    /// The attempt's lease expired: the failure detector suspected its
    /// node (heartbeats stopped arriving inside the timeout) and evicted
    /// the attempt so it could requeue elsewhere. Like a crash, delivered
    /// only when the retry budget is exhausted. A late completion from the
    /// old lease-holder is fenced out by the attempt's lease epoch, so an
    /// evicted attempt can never double-execute its effects.
    LeaseExpired {
        /// The suspected node that held the expired lease.
        node: u32,
    },
    /// The task was classified poisoned by the quarantine policy: its
    /// retryable attempts failed on this many *distinct* nodes, which
    /// rules out a node-local fault. Remaining retry budget is not spent.
    Poisoned {
        /// Distinct nodes the task failed on.
        distinct_nodes: u32,
    },
    /// The task was shed by an open per-shape quarantine circuit breaker:
    /// too many lineages of this `(cores, gpus)` shape class were already
    /// classified poisoned, so the backend fails the class fast instead of
    /// wedging the queue behind it.
    ShapeCircuitOpen {
        /// Cores in the shed shape class.
        cores: u32,
        /// GPUs in the shed shape class.
        gpus: u32,
    },
}

impl TaskError {
    /// Whether the pilot may transparently resubmit an attempt that failed
    /// this way: only failures striking *before* the work closure ran are
    /// retryable. A panicked closure is consumed and a deterministic panic
    /// would recur; a cancellation is a caller decision, not a fault; a
    /// poisoned or circuit-broken task is quarantined precisely so it is
    /// *not* retried.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            TaskError::TimedOut { .. }
                | TaskError::Injected
                | TaskError::NodeCrashed { .. }
                | TaskError::LeaseExpired { .. }
        )
    }

    /// Whether the quarantine layer produced this error (poison verdict or
    /// shape circuit breaker) — the campaign should prune the lineage.
    pub fn is_quarantined(&self) -> bool {
        matches!(
            self,
            TaskError::Poisoned { .. } | TaskError::ShapeCircuitOpen { .. }
        )
    }
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::WorkPanicked(msg) => write!(f, "task work panicked: {msg}"),
            TaskError::Canceled => write!(f, "task canceled"),
            TaskError::TimedOut { limit } => {
                write!(f, "task exceeded its walltime limit of {limit}")
            }
            TaskError::Injected => write!(f, "task hit an injected transient fault"),
            TaskError::NodeCrashed { node } => {
                write!(f, "node {node} crashed while hosting the task")
            }
            TaskError::LeaseExpired { node } => {
                write!(f, "attempt's lease on suspected node {node} expired")
            }
            TaskError::Poisoned { distinct_nodes } => {
                write!(f, "task quarantined as poisoned after failing on {distinct_nodes} distinct nodes")
            }
            TaskError::ShapeCircuitOpen { cores, gpus } => {
                write!(f, "shape class {cores}c/{gpus}g shed by an open quarantine circuit breaker")
            }
        }
    }
}

impl std::error::Error for TaskError {}

/// Delivered when a task reaches a terminal state.
pub struct Completion {
    /// The task.
    pub task: TaskId,
    /// Task name, as described. A [`Label`]: handing it over never
    /// allocates, however long it is.
    pub name: Label,
    /// Bookkeeping tag, as described.
    pub tag: Label,
    /// The work closure's output (`Ok(None)` for tasks without work), or
    /// the failure reason.
    pub result: Result<Option<TaskOutput>, TaskError>,
    /// When slots were granted.
    pub started: SimTime,
    /// When slots were released.
    pub finished: SimTime,
    /// How many failed attempts preceded this terminal result (0 = the
    /// first attempt concluded the task; fault-free runs always report 0).
    pub attempts: u32,
    /// Whether a hedged speculative duplicate was placed for this task at
    /// any point (regardless of which attempt won). The loser's occupancy
    /// is booked in [`UtilizationReport::hedge_wasted_core_seconds`],
    /// separately from retry waste. Hedging-off runs always report
    /// `false`.
    pub hedged: bool,
}

impl Completion {
    /// Downcast the work output to its concrete type. Panics with a clear
    /// message on failure/missing output — stage plumbing bugs should be
    /// loud.
    pub fn output<T: 'static>(self) -> T {
        match self.result {
            Ok(Some(out)) => *out
                .downcast::<T>()
                .unwrap_or_else(|_| panic!("{}: output has unexpected type", self.task)),
            Ok(None) => panic!("{}: task had no work output", self.task),
            Err(e) => panic!("{}: task failed: {e}", self.task),
        }
    }

    /// Borrow the work output without consuming the completion — for
    /// consumers that share one completion between several dependents
    /// (e.g. DAG fan-out). Panics like [`Completion::output`] on
    /// failure/missing/mistyped output.
    pub fn peek<T: 'static>(&self) -> &T {
        match &self.result {
            Ok(Some(out)) => out
                .downcast_ref::<T>()
                .unwrap_or_else(|| panic!("{}: output has unexpected type", self.task)),
            Ok(None) => panic!("{}: task had no work output", self.task),
            Err(e) => panic!("{}: task failed: {e}", self.task),
        }
    }

    /// Downcast the work output, surfacing task failure as an `Err` instead
    /// of a panic — the accessor for layers with retry/abort logic of their
    /// own. A *successful* completion with missing or mistyped output still
    /// panics: that is a stage-plumbing bug, not a runtime fault.
    pub fn try_output<T: 'static>(self) -> Result<T, TaskError> {
        match self.result {
            Ok(Some(out)) => Ok(*out
                .downcast::<T>()
                .unwrap_or_else(|_| panic!("{}: output has unexpected type", self.task))),
            Ok(None) => panic!("{}: task had no work output", self.task),
            Err(e) => Err(e),
        }
    }

    /// Borrowing variant of [`Completion::try_output`].
    pub fn try_peek<T: 'static>(&self) -> Result<&T, &TaskError> {
        match &self.result {
            Ok(Some(out)) => Ok(out
                .downcast_ref::<T>()
                .unwrap_or_else(|| panic!("{}: output has unexpected type", self.task))),
            Ok(None) => panic!("{}: task had no work output", self.task),
            Err(e) => Err(e),
        }
    }

    /// The failure reason, if the task failed.
    pub fn failure(&self) -> Option<&TaskError> {
        self.result.as_ref().err()
    }
}

impl fmt::Debug for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Completion")
            .field("task", &self.task)
            .field("name", &self.name)
            .field("ok", &self.result.is_ok())
            .field("started", &self.started.to_string())
            .field("finished", &self.finished.to_string())
            .finish()
    }
}

/// A pilot execution backend.
pub trait ExecutionBackend {
    /// Submit a task; returns its id immediately.
    ///
    /// Ids are dense per backend instance: the first submission gets 0 and
    /// each later one the next integer, in submission order, whatever
    /// became of the tasks before it. Consumers index arrays by them — the
    /// coordinator's routes, the DES core's task table, the shared
    /// cluster's routes — so an implementation must not skip or reuse ids,
    /// nor derive them from anything but its own submission count.
    fn submit(&mut self, desc: TaskDescription) -> TaskId;

    /// Deliver the next completion, advancing virtual time (and, on the
    /// threaded backend, waiting for real work and the paced clock) as
    /// needed. All progress happens here. Returns `None` when no
    /// submitted task remains unfinished.
    fn next_completion(&mut self) -> Option<Completion>;

    /// Current backend time: the virtual clock, on every backend.
    fn now(&self) -> SimTime;

    /// Tasks submitted but not yet completed.
    fn in_flight(&self) -> usize;

    /// Utilization report up to the current time.
    fn utilization(&self) -> UtilizationReport;

    /// Pilot phase breakdown so far.
    fn phase_breakdown(&self) -> PhaseBreakdown;

    /// Best-effort cancellation of a task that is still queued. On
    /// success a completion with [`TaskError::Canceled`] is delivered
    /// through the normal stream, and a `true` acknowledgement guarantees
    /// the task will never produce an `Ok` completion. Returns `false` if
    /// the task was already placed, finished, is unknown, or
    /// (best-effort) is waiting out a retry backoff.
    fn cancel(&mut self, _id: TaskId) -> bool {
        false
    }

    /// Preempt a *running* attempt of `id`: evict it from its node and
    /// requeue the task through the same requeue transition a node crash
    /// uses (`Executing → Scheduling`), without consuming retry budget.
    /// The evicted attempt's occupancy is booked as waste, its lease epoch
    /// is bumped so any late completion report is fenced out, and the task
    /// re-enters the priority queue to be placed again — typically after
    /// higher-priority work. Returns `false` if the task is not currently
    /// running (queued, held, finished, unknown) or the backend does not
    /// support preemption (the default).
    fn preempt(&mut self, _id: TaskId) -> bool {
        false
    }

    /// Tasks the backend is holding back because its walltime deadline
    /// leaves too little allocation for their modeled duration. Held tasks
    /// count as [`in_flight`](Self::in_flight) but will never launch;
    /// [`next_completion`](Self::next_completion) returns `None` once only
    /// held tasks remain, signalling a graceful drain. Backends without a
    /// deadline hold nothing.
    fn held_tasks(&self) -> usize {
        0
    }

    /// Deliver a completion that is *already available* without advancing
    /// time or waiting, or `None` if making progress would require a
    /// [`next_completion`](Self::next_completion) wait. Multiplexing
    /// drivers (the multi-tenant campaign service) use this to step every
    /// consumer that can make progress at the current instant before
    /// letting anyone advance the shared clock. The default — `None`
    /// always — is correct for exclusively-owned backends, whose callers
    /// have nobody to yield to and simply wait.
    fn poll_completion(&mut self) -> Option<Completion> {
        None
    }

    /// The backend's telemetry handle (disabled by default). Layers above
    /// the backend — session, coordinator — record their spans through
    /// this, so one [`crate::RuntimeConfig::telemetry`] hookup instruments
    /// the whole stack.
    fn telemetry(&self) -> &impress_telemetry::Telemetry {
        impress_telemetry::disabled_ref()
    }

    /// Current *virtual* time. Every backend in this crate keeps its
    /// clock virtual, so this is [`now`](Self::now); it stays in the
    /// trait for backends outside it whose `now` is not.
    fn virtual_now(&self) -> SimTime {
        self.now()
    }

    /// A dual-clock telemetry stamp for "here and now": virtual time from
    /// [`virtual_now`](Self::virtual_now), plus wall-clock micros on
    /// backends that have a wall clock (the threaded backend).
    fn stamp(&self) -> impress_telemetry::Stamp {
        impress_telemetry::Stamp::virt(self.virtual_now())
    }

    /// Control-plane resilience counters: heartbeats, suspicions, lease
    /// expiries, fenced completions, dedup hits. All-zero on backends
    /// without a control plane or with link faults disabled.
    fn control_stats(&self) -> crate::control::ControlStats {
        crate::control::ControlStats::default()
    }
}

impl ExecutionBackend for Box<dyn ExecutionBackend> {
    fn submit(&mut self, desc: TaskDescription) -> TaskId {
        (**self).submit(desc)
    }
    fn next_completion(&mut self) -> Option<Completion> {
        (**self).next_completion()
    }
    fn now(&self) -> SimTime {
        (**self).now()
    }
    fn in_flight(&self) -> usize {
        (**self).in_flight()
    }
    fn utilization(&self) -> UtilizationReport {
        (**self).utilization()
    }
    fn phase_breakdown(&self) -> PhaseBreakdown {
        (**self).phase_breakdown()
    }
    fn cancel(&mut self, id: TaskId) -> bool {
        (**self).cancel(id)
    }
    fn preempt(&mut self, id: TaskId) -> bool {
        (**self).preempt(id)
    }
    fn held_tasks(&self) -> usize {
        (**self).held_tasks()
    }
    fn poll_completion(&mut self) -> Option<Completion> {
        (**self).poll_completion()
    }
    fn telemetry(&self) -> &impress_telemetry::Telemetry {
        (**self).telemetry()
    }
    fn virtual_now(&self) -> SimTime {
        (**self).virtual_now()
    }
    fn stamp(&self) -> impress_telemetry::Stamp {
        (**self).stamp()
    }
    fn control_stats(&self) -> crate::control::ControlStats {
        (**self).control_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_output_downcasts() {
        let c = Completion {
            task: TaskId(1),
            name: "t".into(),
            tag: Label::default(),
            result: Ok(Some(Box::new(7u32))),
            started: SimTime::ZERO,
            finished: SimTime::ZERO,
            attempts: 0,
            hedged: false,
        };
        assert_eq!(c.output::<u32>(), 7);
    }

    #[test]
    #[should_panic(expected = "unexpected type")]
    fn wrong_downcast_panics_loudly() {
        let c = Completion {
            task: TaskId(1),
            name: "t".into(),
            tag: Label::default(),
            result: Ok(Some(Box::new(7u32))),
            started: SimTime::ZERO,
            finished: SimTime::ZERO,
            attempts: 0,
            hedged: false,
        };
        let _ = c.output::<String>();
    }

    #[test]
    fn peek_borrows_without_consuming() {
        let c = Completion {
            task: TaskId(2),
            name: "t".into(),
            tag: Label::default(),
            result: Ok(Some(Box::new(vec![1u8, 2, 3]))),
            started: SimTime::ZERO,
            finished: SimTime::ZERO,
            attempts: 0,
            hedged: false,
        };
        assert_eq!(c.peek::<Vec<u8>>().len(), 3);
        assert_eq!(c.peek::<Vec<u8>>()[0], 1, "still available");
        assert_eq!(c.output::<Vec<u8>>(), vec![1, 2, 3]);
    }

    #[test]
    fn task_error_displays() {
        assert_eq!(
            TaskError::WorkPanicked("boom".into()).to_string(),
            "task work panicked: boom"
        );
        assert_eq!(TaskError::Canceled.to_string(), "task canceled");
        assert_eq!(
            TaskError::TimedOut {
                limit: SimDuration::from_secs(90)
            }
            .to_string(),
            "task exceeded its walltime limit of 1.50m"
        );
        assert_eq!(
            TaskError::NodeCrashed { node: 3 }.to_string(),
            "node 3 crashed while hosting the task"
        );
        assert_eq!(
            TaskError::LeaseExpired { node: 5 }.to_string(),
            "attempt's lease on suspected node 5 expired"
        );
        assert_eq!(
            TaskError::Poisoned { distinct_nodes: 3 }.to_string(),
            "task quarantined as poisoned after failing on 3 distinct nodes"
        );
        assert_eq!(
            TaskError::ShapeCircuitOpen { cores: 4, gpus: 1 }.to_string(),
            "shape class 4c/1g shed by an open quarantine circuit breaker"
        );
    }

    #[test]
    fn only_pre_work_failures_are_retryable() {
        assert!(TaskError::Injected.is_retryable());
        assert!(TaskError::TimedOut {
            limit: SimDuration::ZERO
        }
        .is_retryable());
        assert!(TaskError::NodeCrashed { node: 0 }.is_retryable());
        assert!(TaskError::LeaseExpired { node: 0 }.is_retryable());
        assert!(!TaskError::LeaseExpired { node: 0 }.is_quarantined());
        assert!(!TaskError::WorkPanicked("boom".into()).is_retryable());
        assert!(!TaskError::Canceled.is_retryable());
        assert!(!TaskError::Poisoned { distinct_nodes: 3 }.is_retryable());
        assert!(!TaskError::ShapeCircuitOpen { cores: 1, gpus: 0 }.is_retryable());
        assert!(TaskError::Poisoned { distinct_nodes: 3 }.is_quarantined());
        assert!(TaskError::ShapeCircuitOpen { cores: 1, gpus: 0 }.is_quarantined());
        assert!(!TaskError::Injected.is_quarantined());
    }

    #[test]
    fn try_output_surfaces_failure_without_panicking() {
        let ok = Completion {
            task: TaskId(1),
            name: "t".into(),
            tag: Label::default(),
            result: Ok(Some(Box::new(11u32))),
            started: SimTime::ZERO,
            finished: SimTime::ZERO,
            attempts: 2,
            hedged: false,
        };
        assert_eq!(ok.try_peek::<u32>(), Ok(&11));
        assert!(ok.failure().is_none());
        assert_eq!(ok.try_output::<u32>(), Ok(11));

        let failed = Completion {
            task: TaskId(2),
            name: "t".into(),
            tag: Label::default(),
            result: Err(TaskError::Injected),
            started: SimTime::ZERO,
            finished: SimTime::ZERO,
            attempts: 0,
            hedged: false,
        };
        assert_eq!(failed.try_peek::<u32>(), Err(&TaskError::Injected));
        assert_eq!(failed.failure(), Some(&TaskError::Injected));
        assert_eq!(failed.try_output::<u32>(), Err(TaskError::Injected));
    }

    #[test]
    #[should_panic(expected = "unexpected type")]
    fn try_output_still_panics_on_plumbing_bugs() {
        let c = Completion {
            task: TaskId(1),
            name: "t".into(),
            tag: Label::default(),
            result: Ok(Some(Box::new(7u32))),
            started: SimTime::ZERO,
            finished: SimTime::ZERO,
            attempts: 0,
            hedged: false,
        };
        let _ = c.try_output::<String>();
    }
}
