//! Regenerates **Fig. 3**: the expanded IM-RP workflow — 70 PDB-mined
//! PDZ–peptide complexes targeting the α-synuclein 4-mer (EPEA), four design
//! cycles, with adaptivity *not enforced in the final cycle*.
//!
//! Expected shape: all three metrics improve over iterations 1→3, then the
//! median quality of iteration 4 deteriorates — "the pipelines failed to
//! resume established positive metric trends in its absence."
//!
//! Paper scale reference: 354 trajectories across 96 sub-pipelines.
//! Use `--complexes N` (default 70) to run a scaled-down version.

use impress_bench::harness::{bar_panel, expanded_experiment, master_seed, print_metric_panel};
use impress_proteins::MetricKind;

fn main() {
    let n = std::env::args()
        .skip_while(|a| a != "--complexes")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(70);
    let seed = master_seed();
    eprintln!("running Fig. 3 experiment: {n} complexes (seed {seed})…");
    let result = expanded_experiment(seed, n);

    println!("\nFig. 3 — expanded IM-RP workflow ({n} PDZ–peptide complexes, α-syn 4-mer)\n");
    for metric in MetricKind::ALL {
        print_metric_panel(&result, metric);
    }
    for metric in MetricKind::ALL {
        let s = result.series(metric);
        // Paper shows iterations 1–4; later sub-pipeline iterations exist
        // but are sparse, so clip to the paper's range for the bars.
        let iters: Vec<u32> = s.iterations.iter().copied().filter(|&i| i <= 4).collect();
        let meds: Vec<f64> = iters
            .iter()
            .map(|it| {
                let p = s.iterations.iter().position(|x| x == it).unwrap();
                s.summaries[p].median
            })
            .collect();
        let errs: Vec<f64> = iters
            .iter()
            .map(|it| {
                let p = s.iterations.iter().position(|x| x == it).unwrap();
                s.summaries[p].half_std()
            })
            .collect();
        println!(
            "{}",
            bar_panel(metric, &iters, &[("IM-RP", meds, errs)], 12)
        );
    }
    println!(
        "\nscale: {} trajectories across {} sub-pipelines ({} root pipelines) — paper: 354 / 96 / 70",
        result.trajectories, result.run.sub_pipelines, result.run.root_pipelines
    );

    // The dip: iteration 4 median must not continue iteration 1→3's trend.
    println!("\niteration-4 dip check (adaptivity disabled in final cycle):");
    for metric in MetricKind::ALL {
        let s = result.series(metric);
        let med = |it: u32| -> Option<f64> {
            s.iterations
                .iter()
                .position(|&x| x == it)
                .map(|i| s.summaries[i].median)
        };
        if let (Some(m3), Some(m4)) = (med(3), med(4)) {
            let regressed = if metric.higher_is_better() {
                m4 < m3
            } else {
                m4 > m3
            };
            println!(
                "  {:<6} iter3 {m3:.3} → iter4 {m4:.3}  {}",
                metric.label(),
                if regressed {
                    "(deteriorated ✓ paper shape)"
                } else {
                    "(held)"
                }
            );
        }
    }

    let json = impress_json::Json::object()
        .field("seed", seed)
        .field("complexes", n)
        .field("trajectories", result.trajectories)
        .field("sub_pipelines", result.run.sub_pipelines)
        .field(
            "series",
            impress_json::Json::array(MetricKind::ALL.map(|m| result.series(m))),
        )
        .build();
    std::fs::write("fig3.json", impress_json::to_string_pretty(&json)).expect("write json sidecar");
    eprintln!("\nwrote fig3.json");
}
