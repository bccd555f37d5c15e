//! One-shot reproduction report: runs every paper artifact (Table I,
//! Figs. 2–5) plus the scaling extension and writes `PAPER_REPORT.md`
//! with paper-vs-measured values side by side.
//!
//! Usage: `cargo run --release -p impress-bench --bin report [--complexes N]`
//! (N scales the Fig. 3 cohort; default 70, the paper's size).

use impress_bench::harness::{
    downsample, expanded_experiment, master_seed, paper_experiment, sparkline,
};
use impress_core::Table1Row;
use impress_proteins::MetricKind;
use std::fmt::Write as _;

fn main() {
    let n = std::env::args()
        .skip_while(|a| a != "--complexes")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(70);
    let seed = master_seed();
    let mut md = String::new();

    writeln!(md, "# IMPRESS reproduction report\n").unwrap();
    writeln!(
        md,
        "Generated by `cargo run --release -p impress-bench --bin report` \
         (seed {seed}, Fig. 3 cohort {n}). All runs on the simulated Amarel \
         node (28 cores, 4 GPUs) with surrogate models; see DESIGN.md.\n"
    )
    .unwrap();

    // ---- Table I -------------------------------------------------------
    eprintln!("[1/4] Table I + Figs. 2/4/5 experiment…");
    let exp = paper_experiment(seed);
    let (cont, imrp) = (
        Table1Row::from_result(&exp.cont_v, exp.structures),
        Table1Row::from_result(&exp.imrp, exp.structures),
    );
    writeln!(md, "## Table I\n").unwrap();
    writeln!(
        md,
        "| Approach | #PL | #Sub-PL | Traj. | CPU % | GPU % | Time (h) | ΔpTM | ΔpLDDT | ΔpAE |"
    )
    .unwrap();
    writeln!(md, "|---|---|---|---|---|---|---|---|---|---|").unwrap();
    writeln!(
        md,
        "| CONT-V (paper) | 1 | N/A | 16 | 18.3 | 1 | 27.7 | 0.28 | 5.8 | −6.7 |"
    )
    .unwrap();
    for row in [&cont, &imrp] {
        writeln!(
            md,
            "| {} (measured) | {} | {} | {} | {:.1} | {:.1} | {:.1} | {:.2} | {:.1} | {:.2} |",
            row.approach,
            row.pipelines,
            row.sub_pipelines
                .map(|s| s.to_string())
                .unwrap_or_else(|| "N/A".into()),
            row.trajectories,
            row.cpu_pct,
            row.gpu_pct,
            row.time_h,
            row.ptm_delta,
            row.plddt_delta,
            row.pae_delta
        )
        .unwrap();
    }
    writeln!(
        md,
        "| IM-RP (paper) | 2 | 7 | 23 | 88 | 61 | 38.3 | 0.32 | 7.7 | −6.61 |\n"
    )
    .unwrap();

    // ---- Fig. 2 --------------------------------------------------------
    writeln!(md, "## Fig. 2 — metrics per iteration (4 PDZ domains)\n").unwrap();
    writeln!(
        md,
        "| Metric | Iter | CONT-V median ± σ/2 | IM-RP median ± σ/2 |"
    )
    .unwrap();
    writeln!(md, "|---|---|---|---|").unwrap();
    for metric in MetricKind::ALL {
        let c = exp.cont_v.series(metric);
        let i = exp.imrp.series(metric);
        for (pos, it) in c.iterations.iter().enumerate() {
            let Some(ipos) = i.iterations.iter().position(|x| x == it) else {
                continue;
            };
            writeln!(
                md,
                "| {} | {} | {:.2} ± {:.2} | {:.2} ± {:.2} |",
                metric.label(),
                it,
                c.summaries[pos].median,
                c.summaries[pos].half_std(),
                i.summaries[ipos].median,
                i.summaries[ipos].half_std()
            )
            .unwrap();
        }
    }
    writeln!(md).unwrap();

    // ---- Figs. 4 & 5 ---------------------------------------------------
    writeln!(md, "## Figs. 4–5 — resource utilization\n").unwrap();
    writeln!(md, "```text").unwrap();
    writeln!(
        md,
        "CONT-V CPU |{}|  avg {:.1}% (paper ~18.3%)",
        sparkline(&downsample(&exp.cont_v.cpu_series, 64)),
        exp.cont_v.run.cpu_utilization * 100.0
    )
    .unwrap();
    writeln!(
        md,
        "CONT-V GPU |{}|  avg {:.1}% (paper ~1%)",
        sparkline(&downsample(&exp.cont_v.gpu_hw_series, 64)),
        exp.cont_v.run.gpu_hardware_utilization * 100.0
    )
    .unwrap();
    writeln!(
        md,
        "IM-RP  CPU |{}|  avg {:.1}% (paper ~88%)",
        sparkline(&downsample(&exp.imrp.cpu_series, 64)),
        exp.imrp.run.cpu_utilization * 100.0
    )
    .unwrap();
    writeln!(
        md,
        "IM-RP  GPU |{}|  avg {:.1}% (paper ~61%)",
        sparkline(&downsample(&exp.imrp.gpu_slot_series, 64)),
        exp.imrp.run.gpu_slot_utilization * 100.0
    )
    .unwrap();
    writeln!(md, "```").unwrap();
    writeln!(
        md,
        "\nMakespans: CONT-V {:.1} h (paper 27.7), IM-RP {:.1} h (paper 38.3).\n",
        exp.cont_v.run.makespan.as_hours_f64(),
        exp.imrp.run.makespan.as_hours_f64()
    )
    .unwrap();

    // ---- Fig. 3 --------------------------------------------------------
    eprintln!("[2/4] Fig. 3 expanded experiment ({n} complexes)…");
    let expanded = expanded_experiment(seed, n);
    writeln!(md, "## Fig. 3 — expanded IM-RP ({n} complexes)\n").unwrap();
    writeln!(
        md,
        "Scale: {} trajectories across {} sub-pipelines (paper: 354 / 96).\n",
        expanded.trajectories, expanded.run.sub_pipelines
    )
    .unwrap();
    writeln!(md, "| Metric | i1 | i2 | i3 | i4 | i4 vs i3 |").unwrap();
    writeln!(md, "|---|---|---|---|---|---|").unwrap();
    for metric in MetricKind::ALL {
        let s = expanded.series(metric);
        let med = |it: u32| -> Option<f64> {
            s.iterations
                .iter()
                .position(|&x| x == it)
                .map(|p| s.summaries[p].median)
        };
        let (m1, m2, m3, m4) = (med(1), med(2), med(3), med(4));
        let verdict = match (m3, m4) {
            (Some(a), Some(b)) => {
                let worse = if metric.higher_is_better() {
                    b < a
                } else {
                    b > a
                };
                if worse {
                    "deteriorated ✓"
                } else {
                    "held"
                }
            }
            _ => "–",
        };
        writeln!(
            md,
            "| {} | {} | {} | {} | {} | {} |",
            metric.label(),
            m1.map(|v| format!("{v:.2}")).unwrap_or_default(),
            m2.map(|v| format!("{v:.2}")).unwrap_or_default(),
            m3.map(|v| format!("{v:.2}")).unwrap_or_default(),
            m4.map(|v| format!("{v:.2}")).unwrap_or_default(),
            verdict
        )
        .unwrap();
    }
    writeln!(md).unwrap();

    // ---- Ablations ------------------------------------------------------
    eprintln!("[3/4] ablation suite…");
    let targets = impress_proteins::datasets::named_pdz_domains(seed);
    let rows = impress_core::standard_suite(&targets, seed);
    writeln!(md, "## Ablations (4-domain workload)\n").unwrap();
    writeln!(
        md,
        "| Variant | Median final score | Evals | Hours | CPU % | GPU % |"
    )
    .unwrap();
    writeln!(md, "|---|---|---|---|---|---|").unwrap();
    for row in &rows {
        writeln!(
            md,
            "| {} | {:.4} | {} | {:.1} | {:.0} | {:.0} |",
            row.variant,
            row.median_final_score,
            row.evaluations,
            row.makespan_hours,
            row.cpu * 100.0,
            row.gpu_slot * 100.0
        )
        .unwrap();
    }
    writeln!(md).unwrap();

    // ---- Scaling ---------------------------------------------------------
    eprintln!("[4/4] strong-scaling study…");
    writeln!(md, "## Strong scaling (extension; 24-complex cohort)\n").unwrap();
    writeln!(md, "| Nodes | Makespan (h) | Speedup | Efficiency |").unwrap();
    writeln!(md, "|---|---|---|---|").unwrap();
    let scale_targets = impress_proteins::datasets::mined_pdz_complexes(seed, 24);
    let mut base_h = None;
    for nodes in [1u32, 2, 4, 8] {
        let result = impress_core::CampaignSpec::imrp(
            &scale_targets,
            impress_core::ProtocolConfig::imrp(seed),
        )
        .policy(impress_core::adaptive::AdaptivePolicy {
            sub_budget: 8,
            ..Default::default()
        })
        .pilot(impress_pilot::PilotConfig {
            nodes,
            ..impress_pilot::PilotConfig::with_seed(seed)
        })
        .run()
        .expect("no resume plan to reject")
        .result;
        let h = result.run.makespan.as_hours_f64();
        let base = *base_h.get_or_insert(h);
        writeln!(
            md,
            "| {nodes} | {h:.1} | {:.2} | {:.2} |",
            base / h,
            base / h / nodes as f64
        )
        .unwrap();
    }

    std::fs::write("PAPER_REPORT.md", &md).expect("write PAPER_REPORT.md");
    println!("{md}");
    eprintln!("\nwrote PAPER_REPORT.md");
}
