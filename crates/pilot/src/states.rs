//! The task state model.
//!
//! Mirrors RADICAL-Pilot's task lifecycle at the granularity the IMPRESS
//! coordinator observes: a task is created (`New`), waits for slots
//! (`Scheduling`), has its execution environment prepared (`ExecSetup` —
//! the per-task sandbox/script phase Fig. 5 itemizes), runs (`Executing`),
//! and ends in exactly one terminal state. The transition table is enforced:
//! an illegal transition is a runtime-bug panic, never silent state
//! corruption.

use std::fmt;

/// Lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskState {
    /// Created, not yet submitted to the scheduler.
    New,
    /// Waiting for resource slots.
    Scheduling,
    /// Slots granted; execution environment being prepared.
    ExecSetup,
    /// Running on its allocation.
    Executing,
    /// Finished successfully.
    Done,
    /// Finished with an error (work panicked or reported failure).
    Failed,
    /// Cancelled before completion.
    Canceled,
}

impl TaskState {
    /// Whether the state is terminal.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            TaskState::Done | TaskState::Failed | TaskState::Canceled
        )
    }

    /// Whether `self → next` is a legal transition.
    fn can_transition_to(self, next: TaskState) -> bool {
        use TaskState::*;
        matches!(
            (self, next),
            (New, Scheduling)
                | (New, Canceled)
                | (Scheduling, ExecSetup)
                | (Scheduling, Canceled)
                | (ExecSetup, Executing)
                | (ExecSetup, Canceled)
                | (Executing, Done)
                | (Executing, Failed)
                | (Executing, Canceled)
                // Requeue: a node crash or injected fault evicts a resident
                // task back to the scheduler queue for another attempt.
                | (Executing, Scheduling)
                // Shed: an open shape circuit breaker fails a task at the
                // placement grant, before its environment is prepared.
                | (Scheduling, Failed)
        )
    }

    /// The canonical forward path, for documentation and tests.
    pub const HAPPY_PATH: [TaskState; 5] = [
        TaskState::New,
        TaskState::Scheduling,
        TaskState::ExecSetup,
        TaskState::Executing,
        TaskState::Done,
    ];
}

impl fmt::Display for TaskState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TaskState::New => "NEW",
            TaskState::Scheduling => "SCHEDULING",
            TaskState::ExecSetup => "EXEC_SETUP",
            TaskState::Executing => "EXECUTING",
            TaskState::Done => "DONE",
            TaskState::Failed => "FAILED",
            TaskState::Canceled => "CANCELED",
        };
        f.write_str(s)
    }
}

/// A state cell that enforces the transition table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateCell {
    state: TaskState,
}

impl Default for StateCell {
    fn default() -> Self {
        StateCell {
            state: TaskState::New,
        }
    }
}

impl StateCell {
    /// A cell in the `New` state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance to `next`, panicking on an illegal transition.
    pub fn advance(&mut self, next: TaskState) {
        assert!(
            self.state.can_transition_to(next),
            "illegal task state transition {} → {}",
            self.state,
            next
        );
        self.state = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_is_legal() {
        let mut cell = StateCell::new();
        for &next in &TaskState::HAPPY_PATH[1..] {
            cell.advance(next);
        }
        assert_eq!(cell.state, TaskState::Done);
    }

    #[test]
    fn terminal_states_are_terminal() {
        use TaskState::*;
        for t in [Done, Failed, Canceled] {
            assert!(t.is_terminal());
            for n in [
                New, Scheduling, ExecSetup, Executing, Done, Failed, Canceled,
            ] {
                assert!(!t.can_transition_to(n), "{t} must not move to {n}");
            }
        }
        for t in [New, Scheduling, ExecSetup, Executing] {
            assert!(!t.is_terminal());
        }
    }

    #[test]
    fn cancellation_is_possible_from_every_live_state() {
        use TaskState::*;
        for t in [New, Scheduling, ExecSetup, Executing] {
            assert!(t.can_transition_to(Canceled), "{t} must be cancellable");
        }
    }

    #[test]
    fn no_skipping_states() {
        use TaskState::*;
        assert!(!New.can_transition_to(Executing));
        assert!(!New.can_transition_to(Done));
        assert!(!Scheduling.can_transition_to(Done));
        assert!(!Scheduling.can_transition_to(Executing));
        assert!(!ExecSetup.can_transition_to(Done));
    }

    #[test]
    fn failure_only_from_executing_or_breaker_shed() {
        use TaskState::*;
        assert!(Executing.can_transition_to(Failed));
        // Quarantine's circuit breaker sheds queued tasks at the placement
        // grant, so Scheduling may fail directly; earlier states cannot.
        assert!(Scheduling.can_transition_to(Failed));
        for t in [New, ExecSetup] {
            assert!(!t.can_transition_to(Failed));
        }
    }

    #[test]
    fn requeue_loops_through_scheduling() {
        use TaskState::*;
        // A crashed-node eviction sends Executing back to Scheduling, and the
        // requeued task can run the normal path again — possibly several times.
        let mut cell = StateCell::new();
        cell.advance(Scheduling);
        for _ in 0..3 {
            cell.advance(ExecSetup);
            cell.advance(Executing);
            cell.advance(Scheduling);
        }
        cell.advance(ExecSetup);
        cell.advance(Executing);
        cell.advance(Done);
        // Requeue is only legal from Executing: ExecSetup has not occupied a
        // node yet, so it has nothing to requeue.
        assert!(!ExecSetup.can_transition_to(Scheduling));
    }

    #[test]
    #[should_panic(expected = "illegal task state transition")]
    fn illegal_transition_panics() {
        let mut cell = StateCell::new();
        cell.advance(TaskState::Done);
    }

    #[test]
    fn display_matches_rp_style() {
        assert_eq!(TaskState::ExecSetup.to_string(), "EXEC_SETUP");
        assert_eq!(TaskState::Done.to_string(), "DONE");
    }
}
