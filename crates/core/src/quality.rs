//! Scientific aggregation: per-iteration metric series (Figs. 2–3) and
//! net-Δ statistics (Table I).

use crate::protocol::DesignOutcome;
use impress_json::json_struct;
use impress_proteins::MetricKind;
use impress_sim::Summary;
use std::collections::BTreeMap;

/// Per-iteration summaries of one metric across many lineages: the data
/// behind one panel of Fig. 2 / Fig. 3 (bars = medians, error bars = σ/2).
#[derive(Debug, Clone)]
pub struct IterationSeries {
    /// The metric summarized.
    pub metric: MetricKind,
    /// Iteration numbers present (1-based, ascending).
    pub iterations: Vec<u32>,
    /// Summary of the metric across lineages at each iteration.
    pub summaries: Vec<Summary>,
}
json_struct!(IterationSeries {
    metric,
    iterations,
    summaries
});

impl IterationSeries {
    /// Build the series for `metric` from outcomes. Iterations are grouped
    /// by their global number, so sub-pipeline records extend their
    /// parents' series rather than restarting at 1.
    pub(crate) fn build(outcomes: &[DesignOutcome], metric: MetricKind) -> IterationSeries {
        let mut by_iter: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for o in outcomes {
            for rec in &o.iterations {
                by_iter
                    .entry(rec.iteration)
                    .or_default()
                    .push(rec.report.get(metric));
            }
        }
        let (iterations, summaries) = by_iter
            .into_iter()
            .map(|(it, vals)| (it, Summary::of(&vals)))
            .unzip();
        IterationSeries {
            metric,
            iterations,
            summaries,
        }
    }

    /// Median values per iteration (bar heights).
    pub fn medians(&self) -> Vec<f64> {
        self.summaries.iter().map(|s| s.median).collect()
    }
}

/// Net change per metric from the first to the last iteration (the Table I
/// "Net Δ" columns), aggregated as the mean over targets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NetDeltas {
    /// Δ pTM (positive = improvement).
    pub ptm: f64,
    /// Δ pLDDT (positive = improvement).
    pub plddt: f64,
    /// Δ inter-chain pAE (negative = improvement).
    pub pae: f64,
}

impl NetDeltas {
    /// Compute the deltas from outcomes, grouping lineages by target so a
    /// sub-pipeline's final iteration extends its target's trajectory. The
    /// "first" point is the iteration-0 baseline (the starting structure's
    /// known metrics), so the delta spans the whole design campaign.
    pub fn build(outcomes: &[DesignOutcome]) -> NetDeltas {
        // (iteration, pTM, pLDDT, pAE) at a trajectory endpoint.
        type Point = (u32, f64, f64, f64);
        let mut per_target: BTreeMap<&str, (Option<Point>, Option<Point>)> = BTreeMap::new();
        for o in outcomes {
            let entry = per_target.entry(o.target.as_str()).or_insert((None, None));
            let baseline = (
                0,
                o.baseline_report.ptm,
                o.baseline_report.plddt,
                o.baseline_report.inter_chain_pae,
            );
            if entry.0.is_none() {
                entry.0 = Some(baseline);
            }
            for rec in &o.iterations {
                let tuple = (
                    rec.iteration,
                    rec.report.ptm,
                    rec.report.plddt,
                    rec.report.inter_chain_pae,
                );
                match &mut entry.1 {
                    Some(last) if last.0 >= rec.iteration => {}
                    slot => *slot = Some(tuple),
                }
            }
        }
        let mut dptm = Vec::new();
        let mut dplddt = Vec::new();
        let mut dpae = Vec::new();
        for (first, last) in per_target.values() {
            if let (Some(f), Some(l)) = (first, last) {
                dptm.push(l.1 - f.1);
                dplddt.push(l.2 - f.2);
                dpae.push(l.3 - f.3);
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        NetDeltas {
            ptm: mean(&dptm),
            plddt: mean(&dplddt),
            pae: mean(&dpae),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::IterationRecord;
    use impress_proteins::ConfidenceReport;

    fn outcome(target: &str, label: &str, recs: Vec<(u32, f64, f64, f64)>) -> DesignOutcome {
        DesignOutcome {
            target: target.into(),
            label: label.into(),
            iterations: recs
                .into_iter()
                .map(|(it, plddt, ptm, pae)| IterationRecord {
                    iteration: it,
                    report: ConfidenceReport::new(plddt, ptm, pae),
                    true_quality: 0.0,
                    bind_quality: 0.0,
                    evaluations: 1,
                    accepted_rank: 0,
                })
                .collect(),
            final_receptor: impress_proteins::Sequence::parse("AA").unwrap(),
            final_backbone_quality: 0.5,
            total_evaluations: 1,
            terminated_early: false,
            baseline_report: ConfidenceReport::new(58.0, 0.38, 21.0),
            start_iteration: 1,
        }
    }

    #[test]
    fn series_groups_by_global_iteration() {
        let outcomes = vec![
            outcome(
                "A",
                "A/root",
                vec![(1, 60.0, 0.4, 20.0), (2, 65.0, 0.5, 18.0)],
            ),
            outcome(
                "B",
                "B/root",
                vec![(1, 62.0, 0.42, 19.0), (2, 67.0, 0.52, 17.0)],
            ),
            // Sub-pipeline extends to iteration 3.
            outcome("A", "A/root/sub0", vec![(3, 70.0, 0.6, 15.0)]),
        ];
        let s = IterationSeries::build(&outcomes, MetricKind::Plddt);
        assert_eq!(s.iterations, vec![1, 2, 3]);
        assert_eq!(s.summaries[0].n, 2);
        assert_eq!(s.summaries[2].n, 1);
        assert!((s.medians()[0] - 61.0).abs() < 1e-9);
        assert!((s.medians()[2] - 70.0).abs() < 1e-9);
    }

    #[test]
    fn net_deltas_span_baseline_to_last_across_lineages() {
        let outcomes = vec![
            outcome(
                "A",
                "A/root",
                vec![(1, 60.0, 0.40, 20.0), (4, 66.0, 0.70, 14.0)],
            ),
            outcome("A", "A/root/sub0", vec![(5, 68.0, 0.72, 13.0)]),
            outcome(
                "B",
                "B/root",
                vec![(1, 61.0, 0.45, 19.0), (4, 65.0, 0.71, 12.0)],
            ),
        ];
        let d = NetDeltas::build(&outcomes);
        // Baseline for every target: (58.0 pLDDT, 0.38 pTM, 21.0 pAE).
        // Target A ends at iteration 5: +10, +0.34, −8.
        // Target B ends at iteration 4: +7, +0.33, −9. Means: +8.5, +0.335, −8.5.
        assert!((d.plddt - 8.5).abs() < 1e-9, "{}", d.plddt);
        assert!((d.ptm - 0.335).abs() < 1e-9, "{}", d.ptm);
        assert!((d.pae + 8.5).abs() < 1e-9, "{}", d.pae);
    }

    #[test]
    fn empty_outcomes_are_defined() {
        let s = IterationSeries::build(&[], MetricKind::Ptm);
        assert!(s.iterations.is_empty());
        let d = NetDeltas::build(&[]);
        assert_eq!(d.ptm, 0.0);
    }

    #[test]
    fn half_stds_match_summary() {
        let outcomes = vec![
            outcome("A", "a", vec![(1, 60.0, 0.4, 20.0)]),
            outcome("B", "b", vec![(1, 64.0, 0.5, 18.0)]),
        ];
        let s = IterationSeries::build(&outcomes, MetricKind::Plddt);
        assert!((s.summaries[0].half_std() - 1.0).abs() < 1e-9); // σ=2 → σ/2=1
    }
}
