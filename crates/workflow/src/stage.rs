//! The step protocol between a pipeline and the coordinator, and the buffer
//! that collects a stage's in-flight task completions.

use impress_pilot::{Completion, TaskDescription, TaskId};

/// What a pipeline asks the coordinator to do next.
pub enum Step<O> {
    /// Submit these tasks as the next stage; call back when *all* complete.
    /// A stage is "a series of … one or more computing tasks" (§II-C).
    Submit(Vec<TaskDescription>),
    /// The pipeline is finished with this outcome.
    Complete(O),
    /// The pipeline terminated abnormally (e.g. retry budget exhausted with
    /// no viable candidate).
    Abort(String),
}

impl<O> Step<O> {
    /// Convenience: a single-task stage.
    pub fn run(task: TaskDescription) -> Self {
        Step::Submit(vec![task])
    }
}

impl<O> std::fmt::Debug for Step<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Submit(tasks) => f
                .debug_struct("Step::Submit")
                .field("tasks", &tasks.len())
                .finish(),
            Step::Complete(_) => f.write_str("Step::Complete(..)"),
            Step::Abort(msg) => f.debug_tuple("Step::Abort").field(msg).finish(),
        }
    }
}

/// Collects completions for one in-flight stage until all of its tasks have
/// reported, preserving **submission order** regardless of completion order
/// (stages must see deterministic inputs even on the threaded backend).
pub struct StageBuffer {
    expected: Vec<TaskId>,
    received: Vec<Option<Completion>>,
}

impl StageBuffer {
    /// A buffer expecting completions for exactly `expected`.
    pub fn new(expected: Vec<TaskId>) -> Self {
        assert!(!expected.is_empty(), "a stage needs at least one task");
        let n = expected.len();
        StageBuffer {
            expected,
            received: (0..n).map(|_| None).collect(),
        }
    }

    /// Record a completion. Returns the full, submission-ordered batch once
    /// the last task reports; `None` while tasks are still outstanding.
    /// Panics on a completion for a task this stage never submitted, or on
    /// a duplicate.
    pub fn record(&mut self, c: Completion) -> Option<Vec<Completion>> {
        let idx = self
            .expected
            .iter()
            .position(|&t| t == c.task)
            .unwrap_or_else(|| panic!("{}: completion does not belong to this stage", c.task));
        assert!(
            self.received[idx].is_none(),
            "{}: duplicate completion",
            c.task
        );
        self.received[idx] = Some(c);
        if self.received.iter().all(Option::is_some) {
            Some(
                self.received
                    .drain(..)
                    .map(|o| o.expect("all present"))
                    .collect(),
            )
        } else {
            None
        }
    }

    /// Tasks still outstanding.
    pub fn outstanding(&self) -> usize {
        self.received.iter().filter(|o| o.is_none()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_pilot::Label;
    use impress_sim::SimTime;

    fn completion(id: u64) -> Completion {
        Completion {
            task: TaskId(id),
            name: format!("t{id}").into(),
            tag: Label::default(),
            result: Ok(None),
            started: SimTime::ZERO,
            finished: SimTime::ZERO,
            attempts: 0,
            hedged: false,
        }
    }

    #[test]
    fn batch_released_only_when_full_in_submission_order() {
        let mut b = StageBuffer::new(vec![TaskId(1), TaskId(2), TaskId(3)]);
        assert!(b.record(completion(3)).is_none());
        assert_eq!(b.outstanding(), 2);
        assert!(b.record(completion(1)).is_none());
        let batch = b.record(completion(2)).expect("complete");
        let ids: Vec<u64> = batch.iter().map(|c| c.task.0).collect();
        assert_eq!(ids, vec![1, 2, 3], "submission order, not completion order");
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_completion_panics() {
        let mut b = StageBuffer::new(vec![TaskId(1)]);
        let _ = b.record(completion(9));
    }

    #[test]
    #[should_panic(expected = "duplicate completion")]
    fn duplicate_completion_panics() {
        let mut b = StageBuffer::new(vec![TaskId(1), TaskId(2)]);
        let _ = b.record(completion(1));
        let _ = b.record(completion(1));
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_stage_rejected() {
        let _ = StageBuffer::new(vec![]);
    }
}
