//! The pipeline abstraction.
//!
//! A pipeline is a state machine: the coordinator calls
//! [`PipelineLogic::begin`] once, submits the returned stage, and feeds the
//! stage's completions back through [`PipelineLogic::stage_done`]; the
//! pipeline answers with the next stage or a terminal step. Iteration
//! (Stage 6M+7 of the paper: cycle back to Stage 4 / start the next design
//! cycle) is expressed by simply emitting earlier-stage task groups again.

use crate::stage::Step;
use impress_json::{json_enum, json_struct};
use impress_pilot::Completion;
use std::fmt;

/// Unique pipeline identifier within a coordinator run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PipelineId(pub u64);
json_struct!(PipelineId(u64));

impl fmt::Display for PipelineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pl.{:04}", self.0)
    }
}

/// Lifecycle state of a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineState {
    /// Registered but not yet begun.
    Created,
    /// At least one stage submitted; not yet terminal.
    Running,
    /// Completed with an outcome.
    Completed,
    /// Aborted with a reason.
    Aborted,
}
json_enum!(PipelineState {
    Created,
    Running,
    Completed,
    Aborted
});

impl PipelineState {
    /// Whether the state is terminal.
    pub fn is_terminal(self) -> bool {
        matches!(self, PipelineState::Completed | PipelineState::Aborted)
    }
}

/// A pipeline's behaviour. `O` is the outcome type delivered to the decision
/// engine on completion.
pub trait PipelineLogic<O> {
    /// Human-readable pipeline name (for reports).
    fn name(&self) -> String;

    /// Produce the first stage (or complete immediately).
    fn begin(&mut self) -> Step<O>;

    /// Consume a finished stage's completions (in submission order) and
    /// produce the next step.
    fn stage_done(&mut self, completions: Vec<Completion>) -> Step<O>;
}

/// A boxed pipeline, as stored by the coordinator.
pub type BoxedPipeline<O> = Box<dyn PipelineLogic<O>>;

#[cfg(test)]
mod tests {
    use super::*;
    use impress_pilot::{Label, ResourceRequest, TaskDescription};
    use impress_sim::SimDuration;

    /// A trivial two-stage pipeline used to exercise the trait machinery.
    struct TwoStage {
        stage: u32,
    }

    impl PipelineLogic<u32> for TwoStage {
        fn name(&self) -> String {
            "two-stage".into()
        }
        fn begin(&mut self) -> Step<u32> {
            self.stage = 1;
            Step::run(TaskDescription::new(
                "s1",
                ResourceRequest::cores(1),
                SimDuration::from_secs(1),
            ))
        }
        fn stage_done(&mut self, completions: Vec<Completion>) -> Step<u32> {
            assert_eq!(completions.len(), 1);
            match self.stage {
                1 => {
                    self.stage = 2;
                    Step::run(TaskDescription::new(
                        "s2",
                        ResourceRequest::cores(1),
                        SimDuration::from_secs(1),
                    ))
                }
                2 => Step::Complete(42),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn pipeline_state_machine_walks_stages() {
        let mut p = TwoStage { stage: 0 };
        match p.begin() {
            Step::Submit(tasks) => assert_eq!(tasks[0].name, "s1"),
            other => panic!("unexpected {other:?}"),
        }
        let fake = |name: &str| Completion {
            task: impress_pilot::TaskId(0),
            name: name.into(),
            tag: Label::default(),
            result: Ok(None),
            started: impress_sim::SimTime::ZERO,
            finished: impress_sim::SimTime::ZERO,
            attempts: 0,
            hedged: false,
        };
        match p.stage_done(vec![fake("s1")]) {
            Step::Submit(tasks) => assert_eq!(tasks[0].name, "s2"),
            other => panic!("unexpected {other:?}"),
        }
        match p.stage_done(vec![fake("s2")]) {
            Step::Complete(v) => assert_eq!(v, 42),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn terminal_states() {
        assert!(PipelineState::Completed.is_terminal());
        assert!(PipelineState::Aborted.is_terminal());
        assert!(!PipelineState::Running.is_terminal());
        assert!(!PipelineState::Created.is_terminal());
    }

    #[test]
    fn id_display() {
        assert_eq!(PipelineId(3).to_string(), "pl.0003");
    }
}
