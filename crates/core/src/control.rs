//! CONT-V: the non-adaptive sequential control (§III-A).
//!
//! "We also prepared a control pipeline (CONT-V), which consists of all the
//! IM-RP stages but lacks adaptive decision-making between cycles. … Ten
//! sequences for each complex were generated with ProteinMPNN … One was
//! chosen randomly to have its structure predicted with AlphaFold. The new
//! structure was fed into ProteinMPNN for the next cycle. Performance was
//! not compared between iterations, and trajectories were not pruned."
//!
//! CONT-V does not use the pilot's concurrency: it submits exactly one task
//! at a time and waits for it — a vanilla sequential script. That is what
//! produces Fig. 4's idle-resource profile.

use crate::config::ProtocolConfig;
use crate::protocol::{DesignOutcome, IterationRecord};
use crate::stages::{stage1_mpnn, stage2_3_select, stage4_inference, stage4_msa, stage5_6_assess};
use crate::toolkit::TargetToolkit;
use impress_pilot::{ExecutionBackend, Session, TaskDescription, TaskError};
use impress_proteins::msa::Msa;
use impress_proteins::{Prediction, ScoredSequence};
use impress_sim::SimRng;
use std::sync::Arc;

/// Run one task and wait for it — the sequential execution model. A task
/// that fails terminally (retry budget exhausted under fault injection)
/// surfaces as `Err` instead of panicking, so the lineage can abort cleanly.
fn run_blocking<B: ExecutionBackend, T: 'static>(
    session: &mut Session<B>,
    desc: TaskDescription,
) -> Result<T, TaskError> {
    let id = session.submit(desc);
    loop {
        let c = session.wait_next().expect("submitted task must complete");
        if c.task == id {
            return c.try_output::<T>();
        }
    }
}

/// Run the CONT-V protocol for `toolkits` over `session`, strictly
/// sequentially. Returns one outcome per structure.
pub fn run_cont_v<B: ExecutionBackend>(
    session: &mut Session<B>,
    toolkits: &[Arc<TargetToolkit>],
    config: &ProtocolConfig,
) -> Vec<DesignOutcome> {
    assert!(
        !config.adaptive,
        "CONT-V is the non-adaptive control; use ProtocolConfig::cont_v"
    );
    let root_rng = SimRng::from_seed(config.seed).fork("cont-v");
    toolkits
        .iter()
        .map(|tk| {
            let rng = root_rng.fork(&tk.name);
            run_lineage(session, tk, config, rng)
        })
        .collect()
}

fn run_lineage<B: ExecutionBackend>(
    session: &mut Session<B>,
    tk: &Arc<TargetToolkit>,
    config: &ProtocolConfig,
    rng: SimRng,
) -> DesignOutcome {
    let mut current = tk.start.clone();
    let baseline_report = tk.baseline_report();
    let mut records = Vec::new();
    let mut aborted = false;
    'cycles: for cycle in 1..=config.cycles {
        // A vanilla sequential script dies with its first unrecoverable
        // task: record the lineage as terminated early and keep whatever
        // cycles already finished.
        macro_rules! try_stage {
            ($expr:expr) => {
                match $expr {
                    Ok(v) => v,
                    // Fault outcomes (budget-exhausted retries, quarantine
                    // verdicts) are legal lineage terminations. A work
                    // panic or a cancellation nobody issued is a bug in
                    // the protocol itself — surface it instead of filing
                    // it under "aborted". Exhaustive on purpose: a new
                    // error variant must pick a side here.
                    Err(
                        TaskError::TimedOut { .. }
                        | TaskError::Injected
                        | TaskError::NodeCrashed { .. }
                        | TaskError::LeaseExpired { .. }
                        | TaskError::Poisoned { .. }
                        | TaskError::ShapeCircuitOpen { .. },
                    ) => {
                        aborted = true;
                        break 'cycles;
                    }
                    Err(e @ (TaskError::Canceled | TaskError::WorkPanicked(_))) => {
                        panic!("CONT-V stage died on a non-fault error: {e}")
                    }
                }
            };
        }
        // Stage 1: generate.
        let proposals: Vec<ScoredSequence> = try_stage!(run_blocking(
            session,
            stage1_mpnn(
                tk,
                current.clone(),
                config.mpnn.clone(),
                config.mpnn_gpus,
                rng.fork_idx("mpnn", cycle as u64),
            ),
        ));
        // Stages 2+3: random (unranked) choice.
        let ordered: Vec<ScoredSequence> = try_stage!(run_blocking(
            session,
            stage2_3_select(proposals, false, rng.fork_idx("select", cycle as u64),),
        ));
        let candidate = ordered[0].sequence.clone();
        // Stage 4: MSA then inference.
        let msa: Msa = try_stage!(run_blocking(
            session,
            stage4_msa(
                tk,
                candidate.clone(),
                config.alphafold.msa_mode,
                rng.fork_idx("msa", cycle as u64),
            ),
        ));
        let prediction: Prediction = try_stage!(run_blocking(
            session,
            stage4_inference(
                tk,
                candidate,
                msa,
                config.alphafold,
                cycle,
                rng.fork_idx("fold", cycle as u64),
            ),
        ));
        // Stages 5+6: metrics gathered; no comparison, no pruning.
        let prediction: Prediction = try_stage!(run_blocking(session, stage5_6_assess(prediction)));
        let truth = tk
            .landscape
            .fitness(&prediction.structure.complex.receptor.sequence);
        records.push(IterationRecord {
            iteration: cycle,
            report: prediction.report,
            true_quality: truth.quality,
            bind_quality: truth.bind_quality,
            evaluations: 1,
            accepted_rank: 0,
        });
        current = prediction.structure;
    }
    let completed = records.len() as u32;
    DesignOutcome {
        target: tk.name.clone(),
        label: format!("{}/cont-v", tk.name),
        iterations: records,
        final_receptor: current.complex.receptor.sequence.clone(),
        final_backbone_quality: current.backbone_quality,
        total_evaluations: completed,
        terminated_early: aborted,
        baseline_report,
        start_iteration: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_pilot::backend::SimulatedBackend;
    use impress_pilot::PilotConfig;
    use impress_proteins::datasets::named_pdz_domains;

    fn toolkits(n: usize) -> Vec<Arc<TargetToolkit>> {
        named_pdz_domains(42)
            .iter()
            .take(n)
            .map(|t| TargetToolkit::for_target(t, 7))
            .collect()
    }

    #[test]
    fn cont_v_produces_four_iterations_per_structure() {
        let config = ProtocolConfig::cont_v(1);
        let mut session = Session::new(SimulatedBackend::new(PilotConfig::with_seed(1)));
        let outcomes = run_cont_v(&mut session, &toolkits(2), &config);
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert_eq!(o.iterations.len(), 4);
            assert_eq!(o.total_evaluations, 4);
            assert!(!o.terminated_early);
        }
    }

    #[test]
    fn cont_v_is_strictly_sequential() {
        // With one task in flight at a time, CPU occupancy can never exceed
        // the largest single-task request (6 MSA cores of 28 ≈ 21%).
        let config = ProtocolConfig::cont_v(2);
        let mut session = Session::new(SimulatedBackend::new(PilotConfig::with_seed(2)));
        let _ = run_cont_v(&mut session, &toolkits(1), &config);
        let r = *session.observe().utilization();
        assert!(
            r.cpu < 0.25,
            "sequential execution must leave CPUs idle, got {}",
            r.cpu
        );
        assert!(
            r.gpu_hardware < 0.05,
            "vanilla AF2 barely touches the GPUs, got {}",
            r.gpu_hardware
        );
    }

    #[test]
    #[should_panic(expected = "non-adaptive control")]
    fn adaptive_config_is_rejected() {
        let config = ProtocolConfig::imrp(1);
        let mut session = Session::new(SimulatedBackend::new(PilotConfig::with_seed(1)));
        let _ = run_cont_v(&mut session, &toolkits(1), &config);
    }

    #[test]
    fn cont_v_is_deterministic() {
        let run = |seed: u64| {
            let config = ProtocolConfig::cont_v(seed);
            let mut session = Session::new(SimulatedBackend::new(PilotConfig::with_seed(seed)));
            run_cont_v(&mut session, &toolkits(1), &config)
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a[0].final_receptor, b[0].final_receptor);
        assert_eq!(a[0].iterations, b[0].iterations);
    }
}
