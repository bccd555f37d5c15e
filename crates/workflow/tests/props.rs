//! Property tests for the workflow layer: coordinator runs over arbitrary
//! pipeline shapes. Runs on the in-repo `props!` harness; the stage buffer's
//! ordering property is a unit test of `stage.rs`.

use impress_pilot::backend::SimulatedBackend;
use impress_pilot::{Completion, PilotConfig, ResourceRequest, TaskDescription};
use impress_sim::{props, SimDuration};
use impress_workflow::{Coordinator, NoDecisions, PipelineLogic, Step};

props! {
    /// A coordinator over arbitrary pipeline shapes (stage counts, fan-outs)
    /// always terminates with every pipeline completed and the task ledger
    /// matching the shapes.
    fn coordinator_terminates_for_arbitrary_shapes(rng) {
        let shapes: Vec<Vec<usize>> = {
            let n_pipelines = 1 + rng.below(5);
            (0..n_pipelines)
                .map(|_| {
                    let n_stages = 1 + rng.below(4);
                    (0..n_stages).map(|_| 1 + rng.below(3)).collect()
                })
                .collect()
        };

        struct Shaped {
            stages: Vec<usize>,
            cursor: usize,
        }
        impl Shaped {
            fn next(&mut self) -> Step<usize> {
                if self.cursor >= self.stages.len() {
                    return Step::Complete(self.cursor);
                }
                let n = self.stages[self.cursor];
                self.cursor += 1;
                Step::Submit(
                    (0..n)
                        .map(|i| {
                            TaskDescription::new(
                                format!("s{}-{i}", self.cursor),
                                ResourceRequest::cores(1),
                                SimDuration::from_secs(1 + i as u64),
                            )
                            .with_work(|| ())
                        })
                        .collect(),
                )
            }
        }
        impl PipelineLogic<usize> for Shaped {
            fn name(&self) -> String {
                "shaped".into()
            }
            fn begin(&mut self) -> Step<usize> {
                self.next()
            }
            fn stage_done(&mut self, _: Vec<Completion>) -> Step<usize> {
                self.next()
            }
        }

        let expected_tasks: usize = shapes.iter().flatten().sum();
        let backend = SimulatedBackend::new(PilotConfig {
            bootstrap: SimDuration::from_secs(1),
            exec_setup_per_task: SimDuration::ZERO,
            ..PilotConfig::default()
        });
        let mut coord = Coordinator::new(backend, NoDecisions);
        for stages in &shapes {
            coord.add_pipeline(Box::new(Shaped {
                stages: stages.clone(),
                cursor: 0,
            }));
        }
        let report = coord.run();
        assert_eq!(coord.outcomes().len(), shapes.len());
        assert_eq!(report.total_tasks, expected_tasks);
        assert_eq!(report.root_pipelines, shapes.len());
        // Every outcome reports its own stage count.
        for (_, stages_done) in coord.outcomes() {
            assert!(*stages_done <= 5);
        }
    }
}
