//! Protocol-level property tests: invariants of the adaptive pipeline under
//! arbitrary (but valid) configurations, on the in-repo
//! [`props!`](impress_sim::props) harness.

use impress_core::adaptive::AdaptivePolicy;
use impress_core::{CampaignSpec, ExperimentResult, ProtocolConfig};
use impress_proteins::datasets::{named_pdz_domains, DesignTarget};
use impress_sim::{props, SimRng};

/// IM-RP on `targets` under `config`, with no sub-pipelines.
fn roots_only(targets: &[DesignTarget], config: ProtocolConfig) -> ExperimentResult {
    let policy = AdaptivePolicy { sub_budget: 0 };
    let spec = CampaignSpec::imrp(targets, config).policy(policy);
    spec.run().unwrap().result
}

fn arb_config(rng: &mut SimRng, seed: u64) -> ProtocolConfig {
    let mut c = ProtocolConfig::imrp(seed);
    c.cycles = 1 + rng.below(4) as u32;
    c.retry_budget = 1 + rng.below(10) as u32;
    c.speculation = 1 + rng.below(4) as u32;
    c.mpnn.num_sequences = 1 + rng.below(12);
    c.mpnn.temperature = rng.uniform_range(0.5, 2.0);
    c.adaptive_final_cycle = rng.chance(0.5);
    c
}

props! {
    /// Whatever the configuration, a lineage's outcome satisfies the
    /// protocol's structural invariants.
    fn outcome_invariants_hold(rng, cases = 12) {
        let config = arb_config(rng, 77);
        let target_idx = rng.below(4);
        let targets = named_pdz_domains(77);
        let target = &targets[target_idx..=target_idx];
        let result = roots_only(target, config.clone());
        assert_eq!(result.outcomes.len(), 1);
        let o = &result.outcomes[0];

        // At most `cycles` accepted iterations, numbered 1..=k contiguously.
        assert!(o.iterations.len() <= config.cycles as usize);
        for (i, rec) in o.iterations.iter().enumerate() {
            assert_eq!(rec.iteration, i as u32 + 1);
            // The accepted candidate's rank is within the candidate pool.
            assert!((rec.accepted_rank as usize) < config.mpnn.num_sequences);
            assert!(rec.evaluations >= 1);
            // Metrics in physical ranges.
            assert!((0.0..=100.0).contains(&rec.report.plddt));
            assert!((0.0..=1.0).contains(&rec.report.ptm));
            assert!((0.0..=35.0).contains(&rec.report.inter_chain_pae));
        }

        // Executed evaluations at least cover accepted iterations, and are
        // bounded by cycles × retry-ceiling (speculation can overshoot one
        // round by at most `speculation − 1`).
        let ceiling = config.cycles
            * (config.retry_budget.min(config.mpnn.num_sequences as u32)
                + config.speculation.saturating_sub(1));
        assert!(o.total_evaluations >= o.iterations.len() as u32);
        assert!(
            o.total_evaluations <= ceiling,
            "evaluations {} > ceiling {}",
            o.total_evaluations,
            ceiling
        );

        // Early termination implies fewer accepted iterations than cycles.
        if o.terminated_early {
            assert!(o.iterations.len() < config.cycles as usize);
        }

        // The final receptor has the right length.
        assert_eq!(
            o.final_receptor.len(),
            targets[target_idx].start.complex.receptor.len()
        );
    }

    /// The non-adaptive control accepts every cycle exactly once, whatever
    /// the sampling configuration.
    fn cont_v_always_accepts(rng, cases = 12) {
        let num_sequences = 1 + rng.below(12);
        let temperature = rng.uniform_range(0.5, 2.0);
        let targets: Vec<_> = named_pdz_domains(7).into_iter().take(1).collect();
        let mut config = ProtocolConfig::cont_v(7);
        config.mpnn.num_sequences = num_sequences;
        config.mpnn.temperature = temperature;
        let result = CampaignSpec::cont_v(&targets, config.clone()).run().unwrap().result;
        let o = &result.outcomes[0];
        assert_eq!(o.iterations.len(), config.cycles as usize);
        assert_eq!(o.total_evaluations, config.cycles);
        assert!(!o.terminated_early);
    }

    /// Fixed positions survive any configuration.
    fn fixed_positions_always_respected(rng, cases = 12) {
        let mut config = arb_config(rng, 31);
        let targets: Vec<_> = named_pdz_domains(31).into_iter().take(1).collect();
        let fixed = vec![0usize, 10, 20, 40];
        config.mpnn.fixed_positions = fixed.clone();
        let result = roots_only(&targets, config);
        let start = &targets[0].start.complex.receptor.sequence;
        let end = &result.outcomes[0].final_receptor;
        for &p in &fixed {
            assert_eq!(start.at(p), end.at(p), "fixed position {} mutated", p);
        }
    }
}
