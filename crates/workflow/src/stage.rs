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

/// Collects completions for one pipeline's in-flight stage until all of its
/// tasks have reported, preserving **submission order** regardless of
/// completion order (stages must see deterministic inputs even on the
/// threaded backend).
///
/// One buffer serves stage after stage: [`open`](Self::open) reuses the
/// storage the last stage left behind — one slot per task, holding its id
/// and, once it reports, its completion — so once warm the only allocation
/// a stage costs is the batch [`record`](Self::record) hands over.
/// [`push`](Self::push) gives each task its position, which its completion
/// brings back, and a count of the tasks still out says when the stage is
/// done: no completion scans the stage.
#[derive(Default)]
pub(crate) struct StageBuffer {
    /// The in-flight stage's tasks in submission order, each with its
    /// completion once it has arrived; empty between stages.
    slots: Vec<(TaskId, Option<Completion>)>,
    /// Tasks that have not reported yet.
    outstanding: usize,
}

impl StageBuffer {
    /// An empty buffer: no stage in flight.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Open a stage of `tasks` tasks, then [`push`](Self::push) each in
    /// submission order. Panics on an empty stage, or while the previous
    /// stage is still in flight.
    pub(crate) fn open(&mut self, tasks: usize) {
        assert!(tasks > 0, "a stage needs at least one task");
        assert_eq!(self.outstanding, 0, "a stage is already in flight");
        // Exactly: a pipeline holds its buffer for life, and `reserve`
        // would round a one-task stage up to four slots.
        self.slots.reserve_exact(tasks);
    }

    /// Add the open stage's next task. Returns its position, which
    /// [`record`](Self::record) takes back with its completion.
    pub(crate) fn push(&mut self, id: TaskId) -> usize {
        self.slots.push((id, None));
        self.outstanding += 1;
        self.slots.len() - 1
    }

    /// Record the completion of the task [`push`](Self::push) placed at
    /// `at`. Returns the full, submission-ordered batch once the last task
    /// reports; `None` while tasks are still outstanding. Panics on a
    /// completion for a task the stage does not hold there, or on a
    /// duplicate.
    pub(crate) fn record(&mut self, at: usize, c: Completion) -> Option<Vec<Completion>> {
        let slot = match self.slots.get_mut(at) {
            Some((id, slot)) if *id == c.task => slot,
            _ => panic!("{}: completion does not belong to this stage", c.task),
        };
        assert!(slot.is_none(), "{}: duplicate completion", c.task);
        *slot = Some(c);
        self.outstanding -= 1;
        if self.outstanding > 0 {
            return None;
        }
        Some(
            self.slots
                .drain(..)
                .map(|(_, c)| c.expect("every task reported"))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_pilot::Label;
    use impress_sim::{props, SimTime};

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

    /// A buffer holding one open stage of `ids`.
    fn stage(ids: &[u64]) -> StageBuffer {
        let mut b = StageBuffer::new();
        b.open(ids.len());
        for (at, &id) in ids.iter().enumerate() {
            assert_eq!(b.push(TaskId(id)), at);
        }
        b
    }

    #[test]
    fn batch_released_only_when_full_in_submission_order() {
        let mut b = stage(&[1, 2, 3]);
        assert!(b.record(2, completion(3)).is_none());
        assert_eq!(b.outstanding, 2);
        assert!(b.record(0, completion(1)).is_none());
        let batch = b.record(1, completion(2)).expect("complete");
        let ids: Vec<u64> = batch.iter().map(|c| c.task.0).collect();
        assert_eq!(ids, vec![1, 2, 3], "submission order, not completion order");
        assert_eq!(b.outstanding, 0);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_completion_panics() {
        let mut b = stage(&[1]);
        let _ = b.record(0, completion(9));
    }

    #[test]
    #[should_panic(expected = "duplicate completion")]
    fn duplicate_completion_panics() {
        let mut b = stage(&[1, 2]);
        let _ = b.record(0, completion(1));
        let _ = b.record(0, completion(1));
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_stage_rejected() {
        StageBuffer::new().open(0);
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn a_stage_cannot_open_over_one_in_flight() {
        let mut b = stage(&[1, 2]);
        let _ = b.record(0, completion(1));
        b.open(1);
    }

    props! {
        /// Whatever order completions arrive in, the buffer releases exactly
        /// once, with the batch in submission order.
        fn stage_buffer_orders_any_arrival(rng) {
            let n = 1 + rng.below(39);
            let mut buffer = stage(&(0..n as u64).collect::<Vec<_>>());
            let mut order: Vec<u64> = (0..n as u64).collect();
            rng.shuffle(&mut order);
            let mut released = None;
            for (i, id) in order.iter().enumerate() {
                let out = buffer.record(*id as usize, completion(*id));
                if i + 1 < n {
                    assert!(out.is_none(), "released early");
                } else {
                    released = out;
                }
            }
            let batch = released.expect("released at the last completion");
            let got: Vec<u64> = batch.iter().map(|c| c.task.0).collect();
            assert_eq!(got, (0..n as u64).collect::<Vec<_>>());
        }
    }
}
