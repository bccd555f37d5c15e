//! Programmatic ablation studies over the protocol's design choices.
//!
//! Run a named set of protocol variants on the same targets and collect
//! comparable quality/cost rows: a quick "did my change help" table for
//! anyone extending the protocol. [`standard_suite`] is the `ablations`
//! row of the study table (`study -- ablations` writes `ablations.json`).

use crate::config::ProtocolConfig;
use crate::experiment::ExperimentResult;
use crate::spec::CampaignSpec;
use impress_json::json_struct;
use impress_proteins::datasets::DesignTarget;
use impress_sim::Summary;
use std::fmt;

/// One ablation variant's outcome.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label (e.g. `"retry_budget=5"`).
    pub variant: String,
    /// Median final design score across lineages (0–1; see
    /// `ConfidenceReport::score`).
    pub median_final_score: f64,
    /// Total AlphaFold evaluations executed.
    pub evaluations: u32,
    /// Virtual makespan in hours.
    pub makespan_hours: f64,
    /// Mean CPU occupancy (0–1).
    pub cpu: f64,
    /// Mean GPU slot occupancy (0–1).
    pub gpu_slot: f64,
    /// Lineages that terminated early.
    pub early_terminations: usize,
}
json_struct!(AblationRow {
    variant,
    median_final_score,
    evaluations,
    makespan_hours,
    cpu,
    gpu_slot,
    early_terminations
});

impl AblationRow {
    /// Summarize one experiment result under a label.
    pub fn from_result(variant: impl Into<String>, result: &ExperimentResult) -> AblationRow {
        let scores: Vec<f64> = result
            .outcomes
            .iter()
            .filter_map(|o| o.final_report().map(|r| r.score()))
            .collect();
        AblationRow {
            variant: variant.into(),
            median_final_score: Summary::of(&scores).median,
            evaluations: result.evaluations,
            makespan_hours: result.run.makespan.as_hours_f64(),
            cpu: result.run.cpu_utilization,
            gpu_slot: result.run.gpu_slot_utilization,
            early_terminations: result
                .outcomes
                .iter()
                .filter(|o| o.terminated_early)
                .count(),
        }
    }
}

impl fmt::Display for AblationRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} score {:.4} | {:>4} evals | {:>6.1} h | CPU {:>4.0}% | GPU {:>4.0}% | {} early",
            self.variant,
            self.median_final_score,
            self.evaluations,
            self.makespan_hours,
            self.cpu * 100.0,
            self.gpu_slot * 100.0,
            self.early_terminations
        )
    }
}

/// The standard ablation suite from DESIGN.md: adaptivity, retry budget,
/// MSA mode, speculation width. Each row is one IM-RP spec over `targets`
/// with the default policy and one mutation of the base protocol config;
/// rows come back in suite order.
pub fn standard_suite(targets: &[DesignTarget], seed: u64) -> Vec<AblationRow> {
    use impress_proteins::msa::MsaMode;
    type Mutation = fn(&mut ProtocolConfig);
    let variants: [(&str, Mutation); 8] = [
        ("baseline (IM-RP defaults)", |_| {}),
        ("adaptive=off", |c| c.adaptive = false),
        ("retry_budget=1", |c| c.retry_budget = 1),
        ("retry_budget=5", |c| c.retry_budget = 5),
        ("msa=single-sequence", |c| {
            c.alphafold.msa_mode = MsaMode::SingleSequence
        }),
        ("speculation=1", |c| c.speculation = 1),
        ("speculation=4", |c| c.speculation = 4),
        ("deprioritized-speculation", |c| {
            c.deprioritize_speculation = true
        }),
    ];
    variants
        .into_iter()
        .map(|(label, mutate)| {
            let mut config = ProtocolConfig::imrp(seed);
            mutate(&mut config);
            let run = CampaignSpec::imrp(targets, config).run();
            AblationRow::from_result(label, &run.expect("no resume plan to reject").result)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_proteins::datasets::named_pdz_domains;

    #[test]
    fn standard_suite_produces_ordered_rows() {
        let targets: Vec<_> = named_pdz_domains(11).into_iter().take(2).collect();
        let rows = standard_suite(&targets, 11);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].variant, "baseline (IM-RP defaults)");
        for row in &rows {
            assert!(row.median_final_score > 0.0 && row.median_final_score <= 1.0);
            assert!(row.makespan_hours > 0.0);
            assert!(!row.to_string().is_empty());
        }
    }

    #[test]
    fn adaptivity_off_scores_below_baseline() {
        let targets: Vec<_> = named_pdz_domains(13).into_iter().take(3).collect();
        let rows = standard_suite(&targets, 13);
        let score = |label: &str| {
            rows.iter()
                .find(|r| r.variant.starts_with(label))
                .unwrap()
                .median_final_score
        };
        assert!(
            score("baseline") > score("adaptive=off"),
            "adaptive selection must help: {} vs {}",
            score("baseline"),
            score("adaptive=off")
        );
    }

    #[test]
    fn single_sequence_mode_is_much_faster_in_virtual_time() {
        let targets: Vec<_> = named_pdz_domains(17).into_iter().take(2).collect();
        let rows = standard_suite(&targets, 17);
        let hours = |label: &str| {
            rows.iter()
                .find(|r| r.variant.starts_with(label))
                .unwrap()
                .makespan_hours
        };
        // Not a full collapse: the noisier single-sequence metrics trigger
        // many more retries, so GPU inference hours partially replace the
        // saved CPU MSA hours — the same accuracy/throughput tension the
        // paper raises about EvoPro (§IV).
        assert!(
            hours("msa=single-sequence") < hours("baseline") / 2.0,
            "skipping the MSA must still shorten the makespan substantially: {} vs {}",
            hours("msa=single-sequence"),
            hours("baseline")
        );
    }

    #[test]
    fn wider_speculation_never_reduces_evaluations() {
        let targets: Vec<_> = named_pdz_domains(19).into_iter().take(2).collect();
        let rows = standard_suite(&targets, 19);
        let evals = |label: &str| {
            rows.iter()
                .find(|r| r.variant.starts_with(label))
                .unwrap()
                .evaluations
        };
        assert!(evals("speculation=4") >= evals("speculation=1"));
    }
}
