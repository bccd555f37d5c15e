//! Regenerates **Fig. 2**: per-iteration medians (± σ/2) of pLDDT, pTM and
//! inter-chain pAE for CONT-V (red in the paper) vs IM-RP (green), across
//! the 4 PDZ–peptide structures.
//!
//! Expected shape: IM-RP attains higher pLDDT/pTM and lower pAE medians than
//! CONT-V at every iteration, with smaller error bars (higher consistency).

use impress_bench::harness::{bar_panel, master_seed, paper_experiment, print_metric_panel};
use impress_proteins::MetricKind;

fn main() {
    let seed = master_seed();
    eprintln!("running Fig. 2 experiment (seed {seed})…");
    let exp = paper_experiment(seed);

    println!("\nFig. 2 — AlphaFold metrics per design iteration (4 PDZ–peptide structures)\n");
    for (label, result) in [("CONT-V", &exp.cont_v), ("IM-RP", &exp.imrp)] {
        println!("{label}:");
        for metric in MetricKind::ALL {
            print_metric_panel(result, metric);
        }
        println!();
    }

    // Paper-style bar panels (bars: CONT-V then IM-RP; whiskers = ±σ/2).
    for metric in MetricKind::ALL {
        let c = exp.cont_v.series(metric);
        let i = exp.imrp.series(metric);
        let common: Vec<u32> = c
            .iterations
            .iter()
            .copied()
            .filter(|it| i.iterations.contains(it))
            .collect();
        let pick = |s: &impress_core::IterationSeries| {
            let meds: Vec<f64> = common
                .iter()
                .map(|it| {
                    let p = s.iterations.iter().position(|x| x == it).unwrap();
                    s.summaries[p].median
                })
                .collect();
            let errs: Vec<f64> = common
                .iter()
                .map(|it| {
                    let p = s.iterations.iter().position(|x| x == it).unwrap();
                    s.summaries[p].half_std()
                })
                .collect();
            (meds, errs)
        };
        let (cm, ce) = pick(&c);
        let (im, ie) = pick(&i);
        println!(
            "{}",
            bar_panel(
                metric,
                &common,
                &[("CONT-V", cm, ce), ("IM-RP", im, ie)],
                12
            )
        );
    }

    // Headline comparison: IM-RP must lead at every common iteration.
    println!("IM-RP − CONT-V median gap per iteration:");
    for metric in MetricKind::ALL {
        let c = exp.cont_v.series(metric);
        let i = exp.imrp.series(metric);
        let gaps: Vec<String> = c
            .iterations
            .iter()
            .filter_map(|it| {
                let ci = c.iterations.iter().position(|x| x == it)?;
                let ii = i.iterations.iter().position(|x| x == it)?;
                Some(format!(
                    "iter {it}: {:+.3}",
                    i.summaries[ii].median - c.summaries[ci].median
                ))
            })
            .collect();
        println!("  {:<6} {}", metric.label(), gaps.join("  "));
    }

    let json = impress_json::Json::object()
        .field("seed", seed)
        .field(
            "cont_v",
            impress_json::Json::array(MetricKind::ALL.map(|m| exp.cont_v.series(m))),
        )
        .field(
            "imrp",
            impress_json::Json::array(MetricKind::ALL.map(|m| exp.imrp.series(m))),
        )
        .build();
    std::fs::write("fig2.json", impress_json::to_string_pretty(&json)).expect("write json sidecar");
    eprintln!("\nwrote fig2.json");
}
