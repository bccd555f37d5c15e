//! Protocol and cost-model configuration.

use impress_json::json_struct;
use impress_proteins::msa::MsaMode;
use impress_proteins::{AlphaFoldConfig, MpnnConfig};
use impress_sim::SimDuration;

/// Resource shapes and durations of the pipeline's tasks on the simulated
/// node. Calibrated against the paper's testbed observations: MSA
/// construction is the CPU-hours elephant; inference holds a GPU slot for
/// ~12 min per candidate model of which roughly a third is actual kernel
/// time; everything else is small.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cores per ProteinMPNN task.
    pub mpnn_cores: u32,
    /// GPUs per ProteinMPNN task (IM-RP runs it on GPU; CONT-V on CPU).
    pub mpnn_gpus: u32,
    /// ProteinMPNN wall time.
    pub mpnn_duration: SimDuration,
    /// Fraction of the MPNN window the GPU is actually busy.
    pub mpnn_gpu_busy: f64,
    /// Cores per MSA-construction task.
    pub msa_cores: u32,
    /// Cores per inference task.
    pub inference_cores: u32,
    /// GPUs per inference task.
    pub inference_gpus: u32,
    /// Fraction of the inference window the GPU is actually busy
    /// (`nvidia-smi` semantics; see `impress_proteins::alphafold`).
    pub inference_gpu_busy: f64,
    /// Duration of each small bookkeeping task (select / fasta / compare).
    pub small_task: SimDuration,
}
json_struct!(CostModel {
    mpnn_cores,
    mpnn_gpus,
    mpnn_duration,
    mpnn_gpu_busy,
    msa_cores,
    inference_cores,
    inference_gpus,
    inference_gpu_busy,
    small_task
});

impl CostModel {
    /// The IM-RP cost model: MPNN on GPU, everything pilot-scheduled.
    pub(crate) fn imrp() -> CostModel {
        CostModel {
            mpnn_cores: 2,
            mpnn_gpus: 1,
            mpnn_duration: SimDuration::from_mins(6),
            mpnn_gpu_busy: 0.9,
            msa_cores: 6,
            inference_cores: 2,
            inference_gpus: 1,
            inference_gpu_busy: impress_proteins::alphafold::calibration::GPU_BUSY_FRACTION,
            small_task: SimDuration::from_secs(15),
        }
    }

    /// The CONT-V cost model: vanilla scripts, MPNN on CPU.
    pub(crate) fn cont_v() -> CostModel {
        CostModel {
            mpnn_gpus: 0,
            mpnn_gpu_busy: 0.0,
            ..Self::imrp()
        }
    }
}

/// Full protocol configuration for one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Design cycles per lineage (paper: `M = 4`).
    pub cycles: u32,
    /// Alternate-candidate retries per cycle before the lineage terminates
    /// (paper: "up to 10 times").
    pub retry_budget: u32,
    /// ProteinMPNN sampling settings (10 sequences, temperature, fixed
    /// positions).
    pub mpnn: MpnnConfig,
    /// AlphaFold settings (models per prediction, MSA mode).
    pub alphafold: AlphaFoldConfig,
    /// Whether Stage 6 adaptive selection is active (IM-RP `true`;
    /// CONT-V `false`).
    pub adaptive: bool,
    /// Whether adaptivity is enforced in the *final* cycle. The paper's
    /// expanded experiment (Fig. 3) disabled it there, producing the
    /// quality dip in iteration 4.
    pub adaptive_final_cycle: bool,
    /// Speculative evaluation width: how many ranked candidates Stage 4
    /// evaluates concurrently per decision round. Acceptance semantics are
    /// unchanged (candidates are still considered strictly in rank order);
    /// widths > 1 prefetch likely retries onto idle resources — the
    /// runtime-level optimization behind IM-RP "evaluating more
    /// trajectories" while keeping devices busy. CONT-V uses 1.
    pub speculation: u32,
    /// Submit speculative alternates at reduced scheduler priority so they
    /// never delay primary (critical-path) tasks when slots are scarce.
    /// Off by default: on the paper's single saturated node, strict
    /// prioritization serializes the retry rounds and *lowers* utilization;
    /// it pays off on larger clusters (see the `ablations` bench).
    pub deprioritize_speculation: bool,
    /// Task cost model.
    pub cost: CostModel,
    /// Master seed; every stochastic choice forks deterministically from it.
    pub seed: u64,
}
json_struct!(ProtocolConfig {
    cycles,
    retry_budget,
    mpnn,
    alphafold,
    adaptive,
    adaptive_final_cycle,
    speculation,
    deprioritize_speculation,
    cost,
    seed
});

impl ProtocolConfig {
    /// The paper's IM-RP configuration.
    pub fn imrp(seed: u64) -> ProtocolConfig {
        ProtocolConfig {
            cycles: 4,
            retry_budget: 10,
            mpnn: MpnnConfig::default(),
            alphafold: AlphaFoldConfig::default(),
            adaptive: true,
            adaptive_final_cycle: true,
            speculation: 3,
            deprioritize_speculation: false,
            cost: CostModel::imrp(),
            seed,
        }
    }

    /// The paper's CONT-V configuration: same stages, no adaptivity, one
    /// (randomly chosen) candidate predicted per cycle with a single model.
    pub fn cont_v(seed: u64) -> ProtocolConfig {
        ProtocolConfig {
            adaptive: false,
            adaptive_final_cycle: false,
            speculation: 1,
            deprioritize_speculation: false,
            alphafold: AlphaFoldConfig {
                num_models: 1,
                msa_mode: MsaMode::Full,
                mode: impress_proteins::alphafold::PredictionMode::Multimer,
            },
            cost: CostModel::cont_v(),
            ..Self::imrp(seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imrp_defaults_match_paper() {
        let c = ProtocolConfig::imrp(1);
        assert_eq!(c.cycles, 4);
        assert_eq!(c.retry_budget, 10);
        assert_eq!(c.mpnn.num_sequences, 10);
        assert_eq!(c.alphafold.num_models, 5);
        assert!(c.adaptive);
        assert!(c.adaptive_final_cycle);
        assert_eq!(c.cost.mpnn_gpus, 1);
    }

    #[test]
    fn cont_v_strips_adaptivity_and_gpu_mpnn() {
        let c = ProtocolConfig::cont_v(1);
        assert!(!c.adaptive);
        assert_eq!(c.alphafold.num_models, 1);
        assert_eq!(c.cost.mpnn_gpus, 0);
        assert_eq!(c.cycles, 4, "same cycle count as IM-RP");
        assert_eq!(c.mpnn.num_sequences, 10, "same generation budget");
    }

    #[test]
    fn cost_models_are_cpu_heavy_on_msa() {
        for cm in [CostModel::imrp(), CostModel::cont_v()] {
            assert!(cm.msa_cores > cm.inference_cores);
            assert!(cm.small_task < SimDuration::from_mins(1));
        }
    }
}
