//! Task builders for the seven pipeline stages (§II-C).
//!
//! Each builder produces a [`TaskDescription`] whose work closure performs
//! the stage's computation against the target's toolkit and whose resource
//! request / duration are the constants below. The same builders serve the
//! adaptive pipeline (IM-RP) and the sequential control (CONT-V), so the two
//! protocols differ *only* in orchestration and selection policy — exactly
//! the comparison the paper makes — and in whether ProteinMPNN holds a GPU
//! ([`crate::ProtocolConfig::mpnn_gpus`]).
//!
//! The task shapes are calibrated against the paper's testbed
//! observations: MSA construction is the CPU-hours elephant; inference
//! holds a GPU slot for ~12 min per candidate model of which roughly a
//! third is actual kernel time; everything else is small.

use crate::toolkit::TargetToolkit;
use impress_pilot::task::TaskKind;
use impress_pilot::{ResourceRequest, TaskDescription};
use impress_proteins::alphafold::calibration::GPU_BUSY_FRACTION;
use impress_proteins::msa::{Msa, MsaMode};
use impress_proteins::{
    AlphaFoldConfig, MpnnConfig, Prediction, ScoredSequence, Sequence, Structure,
};
use impress_sim::{SimDuration, SimRng};
use std::sync::Arc;

/// Cores per ProteinMPNN task.
const MPNN_CORES: u32 = 2;
/// ProteinMPNN wall time.
const MPNN_DURATION: SimDuration = SimDuration::from_mins(6);
/// Fraction of the MPNN window its GPU is busy, when it runs on one.
const MPNN_GPU_BUSY: f64 = 0.9;
/// Cores per MSA-construction task.
const MSA_CORES: u32 = 6;
/// Cores per inference task.
const INFERENCE_CORES: u32 = 2;
/// GPUs per inference task; the GPU is busy for [`GPU_BUSY_FRACTION`] of
/// the window (`nvidia-smi` semantics; see `impress_proteins::alphafold`).
const INFERENCE_GPUS: u32 = 1;
/// Duration of each small bookkeeping task (select / fasta / compare).
const SMALL_TASK: SimDuration = SimDuration::from_secs(15);

// MSA construction is the CPU-heavy stage, and bookkeeping is small.
const _: () = assert!(MSA_CORES > INFERENCE_CORES);
const _: () = assert!(SMALL_TASK.as_micros() < SimDuration::from_mins(1).as_micros());

/// Stage 1: sequence generation conditioned on `structure` (ProteinMPNN by
/// default; whatever [`crate::generator::SequenceGenerator`] the toolkit
/// carries).
pub(crate) fn stage1_mpnn(
    tk: &Arc<TargetToolkit>,
    structure: Structure,
    mpnn: MpnnConfig,
    gpus: u32,
    rng: SimRng,
) -> TaskDescription {
    let tk = tk.clone();
    let gpu_busy = if gpus > 0 { MPNN_GPU_BUSY } else { 0.0 };
    TaskDescription::new(
        "mpnn-generate",
        ResourceRequest::with_gpus(MPNN_CORES, gpus),
        MPNN_DURATION,
    )
    .with_gpu_busy_fraction(gpu_busy)
    .with_kind(TaskKind::Ml)
    .with_work(move || {
        let mut rng = rng;
        tk.generator.generate(&structure, &mpnn, &mut rng)
    })
}

/// Stages 2+3: sort candidates (by log-likelihood when `ranked`, by a
/// uniformly random shuffle otherwise — the CONT-V selection). The task's
/// output is the candidates in the order they should be evaluated.
pub(crate) fn stage2_3_select(
    proposals: Vec<ScoredSequence>,
    ranked: bool,
    rng: SimRng,
) -> TaskDescription {
    TaskDescription::new("select-compile", ResourceRequest::cores(1), SMALL_TASK).with_work(
        move || {
            let mut rng = rng;
            if ranked {
                impress_proteins::mpnn::rank_by_log_likelihood(proposals)
            } else {
                let mut p = proposals;
                rng.shuffle(&mut p);
                p
            }
        },
    )
}

/// Stage 4a: MSA construction for a candidate receptor sequence. CPU-bound;
/// duration comes from the database's cost model (virtual hours).
pub(crate) fn stage4_msa(
    tk: &Arc<TargetToolkit>,
    receptor: Sequence,
    mode: MsaMode,
    mut rng: SimRng,
) -> TaskDescription {
    let duration = tk.alphafold.msa_duration(&receptor, mode, &mut rng);
    let tk = tk.clone();
    TaskDescription::new("af2-msa", ResourceRequest::cores(MSA_CORES), duration)
        .with_kind(TaskKind::OpenMp)
        .with_work(move || tk.alphafold.build_msa(&receptor, mode))
}

/// Stage 4b: AlphaFold inference — predict the complex, rank candidate
/// models by pTM, return the best (Stage 5's metrics ride along in the
/// prediction report).
pub(crate) fn stage4_inference(
    tk: &Arc<TargetToolkit>,
    receptor: Sequence,
    msa: Msa,
    config: AlphaFoldConfig,
    iteration: u32,
    mut rng: SimRng,
) -> TaskDescription {
    let duration = tk.alphafold.inference_duration(&config, &mut rng);
    let tk = tk.clone();
    TaskDescription::new(
        "af2-inference",
        ResourceRequest::with_gpus(INFERENCE_CORES, INFERENCE_GPUS),
        duration,
    )
    .with_gpu_busy_fraction(GPU_BUSY_FRACTION)
    .with_kind(TaskKind::Ml)
    .with_work(move || {
        let mut rng = rng;
        let complex = tk.start.complex.with_receptor_sequence(receptor);
        tk.alphafold
            .predict(&complex, &msa, &config, iteration, &mut rng)
    })
}

/// Stages 5+6: gather metrics and compare with the previous iteration. The
/// comparison logic itself lives in the pipeline state machine (it needs
/// lineage state); this task models the stage's compute cost and carries
/// the prediction through.
pub(crate) fn stage5_6_assess(prediction: Prediction) -> TaskDescription {
    TaskDescription::new("assess", ResourceRequest::cores(1), SMALL_TASK)
        .with_work(move || prediction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_pilot::backend::SimulatedBackend;
    use impress_pilot::{ExecutionBackend, PilotConfig};
    use impress_proteins::datasets::named_pdz_domains;

    fn toolkit() -> Arc<TargetToolkit> {
        TargetToolkit::for_target(&named_pdz_domains(42)[0], 7)
    }

    fn run_one(desc: TaskDescription) -> impress_pilot::Completion {
        let mut b = SimulatedBackend::new(PilotConfig::default());
        b.submit(desc);
        b.next_completion().expect("task completes")
    }

    #[test]
    fn stage1_produces_ten_scored_sequences() {
        let tk = toolkit();
        let desc = stage1_mpnn(
            &tk,
            tk.start.clone(),
            MpnnConfig::default(),
            1,
            SimRng::from_seed(1),
        );
        assert_eq!(desc.request.gpus, 1);
        let out = run_one(desc).output::<Vec<ScoredSequence>>();
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn stage2_3_ranked_orders_by_log_likelihood() {
        let tk = toolkit();
        let mut rng = SimRng::from_seed(2);
        let proposals = tk
            .generator
            .generate(&tk.start, &MpnnConfig::default(), &mut rng);
        let out = run_one(stage2_3_select(proposals, true, SimRng::from_seed(3)))
            .output::<Vec<ScoredSequence>>();
        for w in out.windows(2) {
            assert!(w[0].log_likelihood >= w[1].log_likelihood);
        }
    }

    #[test]
    fn stage2_3_unranked_is_a_permutation_not_a_sort() {
        let tk = toolkit();
        let mut rng = SimRng::from_seed(4);
        let proposals = tk
            .generator
            .generate(&tk.start, &MpnnConfig::default(), &mut rng);
        let lls: Vec<f64> = proposals.iter().map(|p| p.log_likelihood).collect();
        let out = run_one(stage2_3_select(proposals, false, SimRng::from_seed(5)))
            .output::<Vec<ScoredSequence>>();
        let mut out_lls: Vec<f64> = out.iter().map(|p| p.log_likelihood).collect();
        let mut orig = lls.clone();
        orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        out_lls.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(orig, out_lls, "same multiset of candidates");
    }

    #[test]
    fn stage4_pair_runs_msa_then_inference() {
        let tk = toolkit();
        let receptor = tk.start.complex.receptor.sequence.clone();
        let msa_task = stage4_msa(&tk, receptor.clone(), MsaMode::Full, SimRng::from_seed(6));
        assert!(msa_task.duration.as_hours_f64() > 0.3, "MSA takes hours");
        assert_eq!(msa_task.request.cores, 6);
        let msa = run_one(msa_task).output::<Msa>();
        assert!(msa.depth > 0);
        let inf = stage4_inference(
            &tk,
            receptor,
            msa,
            AlphaFoldConfig::default(),
            1,
            SimRng::from_seed(7),
        );
        assert_eq!(inf.request.gpus, 1);
        let pred = run_one(inf).output::<Prediction>();
        assert_eq!(pred.candidates.len(), 5);
        assert_eq!(pred.structure.iteration, 1);
    }

    #[test]
    fn assess_carries_the_prediction_through() {
        let tk = toolkit();
        let mut rng = SimRng::from_seed(8);
        let msa = tk
            .alphafold
            .build_msa(&tk.start.complex.receptor.sequence, MsaMode::Full);
        let pred = tk.alphafold.predict(
            &tk.start.complex,
            &msa,
            &AlphaFoldConfig::default(),
            0,
            &mut rng,
        );
        let out = run_one(stage5_6_assess(pred.clone())).output::<Prediction>();
        assert_eq!(out, pred);
    }
}
