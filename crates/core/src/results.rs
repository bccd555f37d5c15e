//! Paper-shaped result rows: the exact cells of Table I, serializable and
//! printable, so the bench harness and downstream tooling share one format.

use crate::experiment::ExperimentResult;
use impress_json::json_struct;
use impress_sim::stats::relative_improvement_pct;
use std::fmt;

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Approach label (`CONT-V` / `IM-RP`).
    pub approach: String,
    /// Root pipelines.
    pub pipelines: usize,
    /// Spawned sub-pipelines (`None` renders as "N/A").
    pub sub_pipelines: Option<usize>,
    /// Structures handled per root pipeline.
    pub structures_per_pipeline: usize,
    /// Accepted design points.
    pub trajectories: u32,
    /// Mean CPU occupancy, percent.
    pub cpu_pct: f64,
    /// GPU utilization, percent — slot semantics for the pilot-run arm,
    /// hardware semantics for the vanilla arm (see `impress-pilot`'s
    /// profiler docs; this mirrors how the paper's two numbers were
    /// measured).
    pub gpu_pct: f64,
    /// Makespan in hours.
    pub time_h: f64,
    /// Net Δ pTM over the run.
    pub ptm_delta: f64,
    /// Net Δ pLDDT over the run.
    pub plddt_delta: f64,
    /// Net Δ inter-chain pAE over the run.
    pub pae_delta: f64,
}
json_struct!(Table1Row {
    approach,
    pipelines,
    sub_pipelines,
    structures_per_pipeline,
    trajectories,
    cpu_pct,
    gpu_pct,
    time_h,
    ptm_delta,
    plddt_delta,
    pae_delta
});

impl Table1Row {
    /// Build a row from an experiment result. `structures` is the number of
    /// design targets in the run.
    pub fn from_result(result: &ExperimentResult, structures: usize) -> Table1Row {
        let d = result.net_deltas();
        let pilot_run = result.label == "IM-RP";
        Table1Row {
            approach: result.label.clone(),
            pipelines: result.run.root_pipelines,
            sub_pipelines: pilot_run.then_some(result.run.sub_pipelines),
            structures_per_pipeline: structures
                .checked_div(result.run.root_pipelines)
                .unwrap_or(0),
            trajectories: result.trajectories,
            cpu_pct: result.run.cpu_utilization * 100.0,
            gpu_pct: if pilot_run {
                result.run.gpu_slot_utilization * 100.0
            } else {
                result.run.gpu_hardware_utilization * 100.0
            },
            time_h: result.run.makespan.as_hours_f64(),
            ptm_delta: d.ptm,
            plddt_delta: d.plddt,
            pae_delta: d.pae,
        }
    }

    /// Relative improvements of `self` over `baseline`, as percentages in
    /// the order (pTM, pLDDT, pAE) — the parenthesized Table I numbers.
    pub fn improvement_over(&self, baseline: &Table1Row) -> (f64, f64, f64) {
        (
            relative_improvement_pct(baseline.ptm_delta, self.ptm_delta),
            relative_improvement_pct(baseline.plddt_delta, self.plddt_delta),
            // pAE is lower-better; improvement = reduction relative to the
            // baseline's (negative) delta magnitude.
            relative_improvement_pct(-baseline.pae_delta, -self.pae_delta),
        )
    }
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} | {:>4} | {:>6} | {:>13} | {:>12} | {:>6.1}% | {:>6.1}% | {:>8.1} | {:>7.2} | {:>8.1} | {:>7.2}",
            self.approach,
            self.pipelines,
            self.sub_pipelines
                .map(|s| s.to_string())
                .unwrap_or_else(|| "N/A".into()),
            self.structures_per_pipeline,
            self.trajectories,
            self.cpu_pct,
            self.gpu_pct,
            self.time_h,
            self.ptm_delta,
            self.plddt_delta,
            self.pae_delta,
        )
    }
}

/// Header matching [`Table1Row`]'s `Display` columns.
pub const TABLE1_HEADER: &str = "Approach |  #PL | #SubPL | #Structures/PL | Trajectories |   CPU %  |  GPU %  | Time (h) | ΔpTM | ΔpLDDT | ΔpAE";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CampaignSpec, ProtocolConfig};
    use impress_proteins::datasets::named_pdz_domains;

    #[test]
    fn row_from_cont_v_result() {
        let targets: Vec<_> = named_pdz_domains(42).into_iter().take(2).collect();
        let spec = CampaignSpec::cont_v(&targets, ProtocolConfig::cont_v(1));
        let result = spec.run().unwrap().result;
        let row = Table1Row::from_result(&result, 2);
        assert_eq!(row.approach, "CONT-V");
        assert_eq!(row.pipelines, 1);
        assert_eq!(row.sub_pipelines, None);
        assert_eq!(row.structures_per_pipeline, 2);
        assert_eq!(row.trajectories, 8);
        let s = row.to_string();
        assert!(s.contains("N/A"), "{s}");
    }

    #[test]
    fn improvements_match_paper_arithmetic() {
        let base = Table1Row {
            approach: "CONT-V".into(),
            pipelines: 1,
            sub_pipelines: None,
            structures_per_pipeline: 4,
            trajectories: 16,
            cpu_pct: 18.3,
            gpu_pct: 1.0,
            time_h: 27.7,
            ptm_delta: 0.28,
            plddt_delta: 5.8,
            pae_delta: -6.7,
        };
        let ours = Table1Row {
            approach: "IM-RP".into(),
            ptm_delta: 0.32,
            plddt_delta: 7.7,
            pae_delta: -6.61,
            sub_pipelines: Some(7),
            ..base.clone()
        };
        let (ptm, plddt, pae) = ours.improvement_over(&base);
        assert!((ptm - 14.29).abs() < 0.1, "{ptm}");
        assert!((plddt - 32.76).abs() < 0.1, "{plddt}");
        assert!((pae + 1.34).abs() < 0.1, "{pae}"); // paper: +1.3% (sign: less reduction)
    }
}
