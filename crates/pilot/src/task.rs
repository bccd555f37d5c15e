//! Task descriptions and identities.
//!
//! A task is the pilot's unit of work: a resource request, a *virtual cost*
//! (how long it occupies its slots in simulated time), an optional *work
//! closure* (the actual computation — surrogate model calls in this
//! reproduction), and bookkeeping tags linking it back to the pipeline and
//! stage that created it.
//!
//! Every backend uses the same description: virtual time advances by the
//! cost; the virtual-time backends run the closure at the completion
//! instant, the threaded backend runs it on a real thread while the
//! attempt holds its slots and joins it there.

use crate::resources::ResourceRequest;
use impress_json::{json_enum, json_struct};
use impress_sim::SimDuration;
use impress_telemetry::Label;
use std::any::Any;
use std::fmt;

/// Unique task identifier within a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);
json_struct!(TaskId(u64));

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task.{:06}", self.0)
    }
}

/// What kind of executable the task launches. The paper's runtime "supports
/// different types of tasks, including OpenMP, MPI, and ML tasks"; the kind
/// determines the extra launch overhead the agent pays on top of the
/// per-task exec setup (environment activation, rank wire-up, model
/// loading).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TaskKind {
    /// Single-process executable (scripts, bookkeeping).
    #[default]
    Serial,
    /// Threaded executable pinned to its cores.
    OpenMp,
    /// Multi-rank MPI launch.
    Mpi,
    /// ML inference/training: pays model-load time at launch.
    Ml,
}
json_enum!(TaskKind {
    Serial,
    OpenMp,
    Mpi,
    Ml
});

impl TaskKind {
    /// Additional launch overhead beyond the generic exec setup.
    pub fn launch_overhead(self) -> SimDuration {
        match self {
            TaskKind::Serial => SimDuration::ZERO,
            TaskKind::OpenMp => SimDuration::from_secs(5),
            TaskKind::Mpi => SimDuration::from_secs(30),
            TaskKind::Ml => SimDuration::from_secs(60),
        }
    }
}

/// The output of a task's work closure: any sendable value, downcast by the
/// layer that submitted the task (the workflow stages know their own types).
pub type TaskOutput = Box<dyn Any + Send>;

/// A task's computation.
pub type TaskWork = Box<dyn FnOnce() -> TaskOutput + Send>;

/// Everything needed to schedule and execute one task.
///
/// The name and tag are [`Label`]s: up to
/// [`LABEL_INLINE`](impress_telemetry::LABEL_INLINE) bytes they are held
/// inline, so describing a task allocates nothing for either, and a longer
/// one is shared, so copying it into the task's [`Completion`] never
/// allocates.
///
/// [`Completion`]: crate::backend::Completion
pub struct TaskDescription {
    /// Human-readable name (e.g. `"af2-inference"`).
    pub name: Label,
    /// Pipeline/stage tag for bookkeeping and reports.
    pub tag: Label,
    /// Slots required.
    pub request: ResourceRequest,
    /// Virtual time the task holds its slots.
    pub duration: SimDuration,
    /// Fraction of `duration` during which GPUs are *actually computing*
    /// (hardware utilization), as opposed to merely allocated. 1.0 for pure
    /// GPU kernels; ≈ 0.33 for AlphaFold inference with its I/O and feature
    /// processing; irrelevant when `request.gpus == 0`.
    pub gpu_busy_fraction: f64,
    /// Scheduling priority: higher places first when slots free up; ties
    /// keep submission order. The protocol uses this to keep speculative
    /// prefetch work from delaying the critical path.
    pub priority: i32,
    /// Executable kind; adds [`TaskKind::launch_overhead`] to exec setup.
    pub kind: TaskKind,
    /// Walltime limit: an attempt still running this long after its slots
    /// were granted is killed with [`crate::backend::TaskError::TimedOut`]
    /// (and retried if the pilot's retry budget allows). `None` = unlimited.
    pub walltime: Option<SimDuration>,
    /// The computation to run, if any. `None` models a pure time cost.
    pub work: Option<TaskWork>,
}

impl fmt::Debug for TaskDescription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskDescription")
            .field("name", &self.name)
            .field("tag", &self.tag)
            .field("request", &self.request)
            .field("duration", &self.duration.to_string())
            .field("gpu_busy_fraction", &self.gpu_busy_fraction)
            .field("priority", &self.priority)
            .field("has_work", &self.work.is_some())
            .finish()
    }
}

impl TaskDescription {
    /// A task with a name, request and virtual duration (no work closure).
    pub fn new(name: impl Into<Label>, request: ResourceRequest, duration: SimDuration) -> Self {
        TaskDescription {
            name: name.into(),
            tag: Label::default(),
            request,
            duration,
            gpu_busy_fraction: 1.0,
            priority: 0,
            kind: TaskKind::Serial,
            walltime: None,
            work: None,
        }
    }

    /// Attach a bookkeeping tag (pipeline id, stage number, …).
    pub fn with_tag(mut self, tag: impl Into<Label>) -> Self {
        self.tag = tag.into();
        self
    }

    /// Attach the computation the task performs.
    pub fn with_work<F, T>(mut self, work: F) -> Self
    where
        F: FnOnce() -> T + Send + 'static,
        T: Any + Send,
    {
        self.work = Some(Box::new(move || Box::new(work()) as TaskOutput));
        self
    }

    /// Set the GPU hardware-busy fraction (clamped to `[0, 1]`).
    ///
    /// # Panics
    /// On NaN, which `clamp` would pass through and the utilization sinks
    /// would then book as no busy time at all.
    pub fn with_gpu_busy_fraction(mut self, f: f64) -> Self {
        assert!(
            !f.is_nan(),
            "TaskDescription::gpu_busy_fraction must be a number, got NaN"
        );
        self.gpu_busy_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Set the scheduling priority (default 0; higher schedules first).
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Set the executable kind (default [`TaskKind::Serial`]).
    pub fn with_kind(mut self, kind: TaskKind) -> Self {
        self.kind = kind;
        self
    }

    /// Set a walltime limit (default: unlimited).
    pub fn with_walltime(mut self, limit: SimDuration) -> Self {
        self.walltime = Some(limit);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let d = TaskDescription::new(
            "af2-msa",
            ResourceRequest::cores(6),
            SimDuration::from_hours(1),
        )
        .with_tag("pl.0/stage.4")
        .with_gpu_busy_fraction(2.0);
        assert_eq!(d.name, "af2-msa");
        assert_eq!(d.tag, "pl.0/stage.4");
        assert_eq!(d.request.cores, 6);
        assert_eq!(d.gpu_busy_fraction, 1.0, "clamped");
        assert!(d.work.is_none());
    }

    #[test]
    #[should_panic(expected = "gpu_busy_fraction must be a number, got NaN")]
    fn a_nan_gpu_busy_fraction_is_rejected_by_name() {
        let _ = TaskDescription::new("af2", ResourceRequest::with_gpus(1, 1), SimDuration::ZERO)
            .with_gpu_busy_fraction(f64::NAN);
    }

    #[test]
    fn work_closure_output_downcasts() {
        let d = TaskDescription::new(
            "compute",
            ResourceRequest::cores(1),
            SimDuration::from_secs(1),
        )
        .with_work(|| 41 + 1);
        let out = (d.work.unwrap())();
        assert_eq!(*out.downcast::<i32>().unwrap(), 42);
    }

    #[test]
    fn kinds_have_ordered_launch_overheads() {
        assert_eq!(TaskKind::Serial.launch_overhead(), SimDuration::ZERO);
        assert!(TaskKind::OpenMp.launch_overhead() < TaskKind::Mpi.launch_overhead());
        assert!(TaskKind::Mpi.launch_overhead() < TaskKind::Ml.launch_overhead());
        let d = TaskDescription::new("t", ResourceRequest::cores(1), SimDuration::from_secs(1))
            .with_kind(TaskKind::Ml);
        assert_eq!(d.kind, TaskKind::Ml);
    }

    #[test]
    fn walltime_defaults_to_unlimited() {
        let d = TaskDescription::new("t", ResourceRequest::cores(1), SimDuration::from_secs(1));
        assert!(d.walltime.is_none());
        let d = d.with_walltime(SimDuration::from_mins(5));
        assert_eq!(d.walltime, Some(SimDuration::from_mins(5)));
    }

    #[test]
    fn task_id_displays_padded() {
        assert_eq!(TaskId(7).to_string(), "task.000007");
    }

    #[test]
    fn debug_omits_work_internals() {
        let d = TaskDescription::new("x", ResourceRequest::cores(1), SimDuration::from_secs(1))
            .with_work(|| ());
        let dbg = format!("{d:?}");
        assert!(dbg.contains("has_work: true"));
    }
}
