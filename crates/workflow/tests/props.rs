//! Property tests for the workflow layer: stage buffers under arbitrary
//! completion orders, registry accounting, and coordinator runs over
//! arbitrary pipeline shapes. Runs on the in-repo `props!` harness.

use impress_pilot::backend::SimulatedBackend;
use impress_pilot::{Completion, Label, PilotConfig, ResourceRequest, TaskDescription, TaskId};
use impress_sim::{props, SimDuration, SimTime};
use impress_workflow::stage::StageBuffer;
use impress_workflow::{Coordinator, NoDecisions, PipelineLogic, Registry, Step};

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

props! {
    /// Whatever order completions arrive in, the buffer releases exactly
    /// once, with the batch in submission order.
    fn stage_buffer_orders_any_arrival(rng) {
        let n = 1 + rng.below(39);
        let ids: Vec<TaskId> = (0..n as u64).map(TaskId).collect();
        let mut buffer = StageBuffer::new(ids.clone());
        let mut order: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut order);
        let mut released = None;
        for (i, id) in order.iter().enumerate() {
            let out = buffer.record(completion(*id));
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

    /// Registry counters are consistent under arbitrary interleavings of
    /// registrations, stages and finishes.
    fn registry_accounting_is_consistent(rng) {
        let script: Vec<(u8, usize)> = {
            let len = 1 + rng.below(59);
            (0..len)
                .map(|_| (rng.below(3) as u8, rng.below(8)))
                .collect()
        };
        let mut reg = Registry::new();
        let mut live: Vec<impress_workflow::PipelineId> = Vec::new();
        let mut total_tasks = 0usize;
        let mut roots = 0usize;
        let mut subs = 0usize;
        for (op, arg) in script {
            match op {
                0 => {
                    // register (sub of a live pipeline when one exists and
                    // arg is odd)
                    let parent = if arg % 2 == 1 && !live.is_empty() {
                        Some(live[arg % live.len()])
                    } else {
                        None
                    };
                    if parent.is_some() { subs += 1 } else { roots += 1 }
                    let id = reg.register(format!("p{arg}"), parent, SimTime::ZERO);
                    live.push(id);
                }
                1 => {
                    if let Some(&id) = live.get(arg % live.len().max(1)) {
                        let n = arg + 1;
                        reg.note_stage_submitted(id, n);
                        total_tasks += n;
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let id = live.remove(arg % live.len());
                        reg.finish(id, impress_workflow::PipelineState::Completed, SimTime::ZERO);
                    }
                }
            }
        }
        assert_eq!(reg.root_count(), roots);
        assert_eq!(reg.sub_count(), subs);
        assert_eq!(reg.total_tasks(), total_tasks);
        assert_eq!(reg.live_count(), live.len());
    }

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
