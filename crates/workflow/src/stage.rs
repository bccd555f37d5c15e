//! The step protocol between a pipeline and the coordinator, and the buffer
//! that collects a stage's in-flight task completions.
//!
//! **The hand-over.** A `StageBuffer` allocates a stage's batch when the
//! stage opens — one empty `Option<Completion>` slot per task — and, when
//! the last task reports, hands that same storage to `stage_done` as the
//! `Vec<Completion>`: an `Option<Completion>` is the size of a
//! `Completion` (104 B, asserted below), so the `collect` that unwraps the
//! slots runs in place. A stage allocates once, at `open`, and a pipeline
//! nothing more.
//!
//! **The `first + at` check.** A slot holds no task id. A stage's tasks
//! are submitted back to back on one backend, whose ids are dense
//! ([`ExecutionBackend::submit`]), so the buffer keeps the stage's first
//! id, `push` checks that each later one follows it, and slot `at`
//! belongs to task `first + at`. A completion recorded at a position its
//! task does not hold is refused exactly as if every slot had kept its id.
//!
//! [`ExecutionBackend::submit`]: impress_pilot::ExecutionBackend::submit

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
/// [`open`](Self::open) allocates the stage's batch, [`push`](Self::push)
/// gives each task its position, which its completion brings back, and a
/// count of the tasks still out says when the stage is done: no completion
/// scans the stage. [`record`](Self::record) hands the storage over as the
/// batch (see the module docs).
#[derive(Default)]
pub(crate) struct StageBuffer {
    /// The in-flight stage's completions in submission order, each `None`
    /// until its task reports; empty between stages.
    slots: Vec<Option<Completion>>,
    /// The id of the stage's first task: slot `at` is task `first + at`.
    first: u64,
    /// Tasks that have not reported yet.
    outstanding: usize,
}

// The in-place hand-over needs the slot and the completion to share a
// layout: `None` lives in a niche of `Completion`, so both are 104 B.
const _: () = {
    use std::mem::{align_of, size_of};
    assert!(size_of::<Option<Completion>>() == 104 && size_of::<Completion>() == 104);
    assert!(align_of::<Option<Completion>>() == align_of::<Completion>());
};

impl StageBuffer {
    /// An empty buffer: no stage in flight.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Open a stage of `tasks` tasks, allocating its batch, then
    /// [`push`](Self::push) each in submission order. Panics on an empty
    /// stage, or while the previous stage is still in flight.
    pub(crate) fn open(&mut self, tasks: usize) {
        assert!(tasks > 0, "a stage needs at least one task");
        assert_eq!(self.outstanding, 0, "a stage is already in flight");
        // Exactly: the storage becomes the batch, and `reserve` would
        // round a one-task stage up to four slots.
        self.slots = Vec::with_capacity(tasks);
    }

    /// Add the open stage's next task. Returns its position, which
    /// [`record`](Self::record) takes back with its completion. Panics
    /// unless `id` follows the stage's previous task's id.
    pub(crate) fn push(&mut self, id: TaskId) -> usize {
        let at = self.slots.len();
        if at == 0 {
            self.first = id.0;
        } else {
            assert_eq!(
                id.0,
                self.first + at as u64,
                "{id}: a stage's tasks take consecutive ids"
            );
        }
        self.slots.push(None);
        self.outstanding += 1;
        at
    }

    /// Record the completion of the task [`push`](Self::push) placed at
    /// `at`. Returns the full, submission-ordered batch once the last task
    /// reports; `None` while tasks are still outstanding. Panics on a
    /// completion for a task the stage does not hold there, or on a
    /// duplicate.
    pub(crate) fn record(&mut self, at: usize, c: Completion) -> Option<Vec<Completion>> {
        let slot = match self.slots.get_mut(at) {
            Some(slot) if c.task.0 == self.first + at as u64 => slot,
            _ => panic!("{}: completion does not belong to this stage", c.task),
        };
        assert!(slot.is_none(), "{}: duplicate completion", c.task);
        *slot = Some(c);
        self.outstanding -= 1;
        if self.outstanding > 0 {
            return None;
        }
        Some(
            std::mem::take(&mut self.slots)
                .into_iter()
                .map(|c| c.expect("every task reported"))
                .collect(),
        )
    }

    /// Read the slot a completion recorded at `at` will write, for a
    /// read-ahead pass: a word of what was read, and nothing changed.
    pub(crate) fn read_ahead(&self, at: usize) -> u64 {
        self.slots
            .get(at)
            .map_or(0, |slot| u64::from(slot.is_some()))
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
    #[should_panic(expected = "does not belong")]
    fn a_completion_at_another_tasks_position_panics() {
        let mut b = stage(&[4, 5, 6]);
        let _ = b.record(1, completion(6));
    }

    #[test]
    #[should_panic(expected = "consecutive ids")]
    fn a_stage_with_a_gap_in_its_ids_is_refused() {
        stage(&[4, 6]);
    }

    #[test]
    fn the_batch_is_the_storage_open_allocated() {
        let mut b = stage(&[7, 8, 9]);
        let storage = b.slots.as_ptr() as usize;
        assert!(b.record(1, completion(8)).is_none());
        assert!(b.record(0, completion(7)).is_none());
        let batch = b.record(2, completion(9)).expect("complete");
        assert_eq!(batch.as_ptr() as usize, storage, "handed over in place");
        assert_eq!(batch.capacity(), 3);
        assert_eq!(b.slots.capacity(), 0, "the buffer keeps nothing");
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
