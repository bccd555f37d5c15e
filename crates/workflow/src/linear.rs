//! Linear pipeline builder: the common case without a custom state machine.
//!
//! Most workflows are a fixed chain of stages where each stage's tasks are
//! built from the previous stage's outputs. [`LinearPipeline`] captures that
//! pattern so users of this crate don't have to hand-write a
//! [`crate::pipeline::PipelineLogic`] impl for simple cases (the IMPRESS
//! design pipeline needs the full trait because Stage 6 loops).
//!
//! ```
//! use impress_workflow::linear::LinearPipeline;
//! use impress_workflow::{Coordinator, NoDecisions};
//! use impress_pilot::backend::SimulatedBackend;
//! use impress_pilot::{Completion, PilotConfig, ResourceRequest, TaskDescription};
//! use impress_sim::SimDuration;
//!
//! let pipeline = LinearPipeline::named("etl")
//!     .stage(|_prev: &[Completion]| {
//!         vec![TaskDescription::new("extract", ResourceRequest::cores(1),
//!              SimDuration::from_secs(5)).with_work(|| 21u64)]
//!     })
//!     .stage(|prev: &[Completion]| {
//!         // one transform per extract output
//!         (0..prev.len())
//!             .map(|i| TaskDescription::new(format!("transform{i}"),
//!                  ResourceRequest::cores(1), SimDuration::from_secs(5))
//!                  .with_work(|| 2u64))
//!             .collect()
//!     })
//!     .finish(|prev: &[Completion]| prev.len() as u64);
//!
//! let mut c = Coordinator::new(SimulatedBackend::new(PilotConfig::default()), NoDecisions);
//! c.add_pipeline(Box::new(pipeline));
//! c.run();
//! assert_eq!(c.outcomes()[0].1, 1);
//! ```

use crate::pipeline::PipelineLogic;
use crate::stage::Step;
use impress_pilot::{Completion, TaskDescription};

/// Builds a stage's tasks from the previous stage's completions (empty for
/// the first stage).
pub(crate) type StageFn = Box<dyn FnMut(&[Completion]) -> Vec<TaskDescription>>;

/// Builds the outcome from the final stage's completions.
pub(crate) type FinishFn<O> = Box<dyn FnMut(&[Completion]) -> O>;

/// A pipeline that runs a fixed chain of stages.
pub struct LinearPipeline<O> {
    name: String,
    stages: Vec<StageFn>,
    finish: Option<FinishFn<O>>,
    cursor: usize,
}

impl LinearPipeline<()> {
    /// Start building a named linear pipeline.
    pub fn named(name: impl Into<String>) -> LinearBuilder {
        LinearBuilder {
            name: name.into(),
            stages: Vec::new(),
        }
    }
}

/// Builder for [`LinearPipeline`].
pub struct LinearBuilder {
    name: String,
    stages: Vec<StageFn>,
}

impl LinearBuilder {
    /// Append a stage.
    pub fn stage<F>(mut self, f: F) -> Self
    where
        F: FnMut(&[Completion]) -> Vec<TaskDescription> + 'static,
    {
        self.stages.push(Box::new(f));
        self
    }

    /// Finish with an outcome builder over the last stage's completions.
    /// Panics if no stage was added — an empty pipeline is a bug.
    pub fn finish<O, F>(self, f: F) -> LinearPipeline<O>
    where
        F: FnMut(&[Completion]) -> O + 'static,
    {
        assert!(!self.stages.is_empty(), "linear pipeline needs ≥ 1 stage");
        LinearPipeline {
            name: self.name,
            stages: self.stages,
            finish: Some(Box::new(f)),
            cursor: 0,
        }
    }
}

impl<O> PipelineLogic<O> for LinearPipeline<O> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn begin(&mut self) -> Step<O> {
        self.cursor = 0;
        let tasks = (self.stages[0])(&[]);
        assert!(!tasks.is_empty(), "{}: stage 0 built no tasks", self.name);
        self.cursor = 1;
        Step::Submit(tasks)
    }

    fn stage_done(&mut self, completions: Vec<Completion>) -> Step<O> {
        if self.cursor < self.stages.len() {
            let tasks = (self.stages[self.cursor])(&completions);
            assert!(
                !tasks.is_empty(),
                "{}: stage {} built no tasks",
                self.name,
                self.cursor
            );
            self.cursor += 1;
            Step::Submit(tasks)
        } else {
            let finish = self.finish.as_mut().expect("finish set by builder");
            Step::Complete(finish(&completions))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Coordinator, NoDecisions};
    use impress_pilot::backend::SimulatedBackend;
    use impress_pilot::{PilotConfig, ResourceRequest};
    use impress_sim::SimDuration;

    fn task(name: &str, out: u64) -> TaskDescription {
        TaskDescription::new(name, ResourceRequest::cores(1), SimDuration::from_secs(1))
            .with_work(move || out)
    }

    #[test]
    fn three_stage_chain_threads_outputs() {
        let pipeline = LinearPipeline::named("chain")
            .stage(|_| vec![task("a", 5)])
            .stage(|prev| {
                let v = prev[0].result.as_ref().unwrap().is_some();
                assert!(v);
                vec![task("b1", 1), task("b2", 2)]
            })
            .stage(|prev| {
                assert_eq!(prev.len(), 2, "fan-out reached stage 3");
                vec![task("c", 9)]
            })
            .finish(|prev| prev.len() as u64 * 100);
        let mut c = Coordinator::new(SimulatedBackend::new(PilotConfig::default()), NoDecisions);
        c.add_pipeline(Box::new(pipeline));
        let report = c.run();
        assert_eq!(c.outcomes()[0].1, 100);
        assert_eq!(report.total_tasks, 4);
    }

    #[test]
    fn fan_out_counts_drive_next_stage() {
        let pipeline = LinearPipeline::named("fan")
            .stage(|_| (0..5).map(|i| task(&format!("t{i}"), i)).collect())
            .finish(|prev| prev.len());
        let mut c = Coordinator::new(SimulatedBackend::new(PilotConfig::default()), NoDecisions);
        c.add_pipeline(Box::new(pipeline));
        c.run();
        assert_eq!(c.outcomes()[0].1, 5);
    }

    #[test]
    #[should_panic(expected = "needs ≥ 1 stage")]
    fn empty_pipeline_rejected() {
        let _ = LinearPipeline::named("empty").finish(|_| ());
    }
}
