//! Protocol configuration.

use impress_proteins::msa::MsaMode;
use impress_proteins::{AlphaFoldConfig, MpnnConfig};

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
    /// GPUs per ProteinMPNN task: IM-RP runs it on one (1), CONT-V on
    /// CPU (0). The task shapes are otherwise the same in both arms (see
    /// the constants in `stages.rs`).
    pub mpnn_gpus: u32,
    /// Master seed; every stochastic choice forks deterministically from it.
    pub seed: u64,
}

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
            mpnn_gpus: 1,
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
            mpnn_gpus: 0,
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
        assert_eq!(c.mpnn_gpus, 1);
    }

    #[test]
    fn cont_v_strips_adaptivity_and_gpu_mpnn() {
        let c = ProtocolConfig::cont_v(1);
        assert!(!c.adaptive);
        assert_eq!(c.alphafold.num_models, 1);
        assert_eq!(c.mpnn_gpus, 0);
        assert_eq!(c.cycles, 4, "same cycle count as IM-RP");
        assert_eq!(c.mpnn.num_sequences, 10, "same generation budget");
    }
}
