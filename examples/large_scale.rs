//! The expanded campaign (paper §III-A, Fig. 3): dozens of PDB-mined
//! PDZ–peptide complexes re-targeted to the α-synuclein 4-mer (EPEA) and
//! optimized concurrently by the adaptive coordinator.
//!
//! Demonstrates the coordinator at scale: hundreds of pipelines and
//! sub-pipelines multiplexed over one 28-core/4-GPU pilot, with the
//! decision engine re-processing the laggards of the whole cohort.
//!
//! Usage: `cargo run --release --example large_scale [n_complexes]`
//! (default 20; the paper uses 70 — pass it if you have a few seconds).

use impress_core::adaptive::AdaptivePolicy;
use impress_core::{CampaignSpec, ProtocolConfig};
use impress_proteins::datasets::mined_pdz_complexes;
use impress_proteins::MetricKind;
use impress_sim::Summary;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);
    let seed = 2025;
    let targets = mined_pdz_complexes(seed, n);
    println!(
        "cohort: {n} synthetic PDB-mined PDZ complexes vs peptide {}",
        targets[0].start.complex.peptide.sequence
    );

    // The expanded run disables adaptivity in the final cycle, like the
    // paper's — watch iteration 4 stall or dip.
    let mut config = ProtocolConfig::imrp(seed);
    config.adaptive_final_cycle = false;
    let policy = AdaptivePolicy {
        sub_budget: n * 96 / 70,
        ..AdaptivePolicy::default()
    };
    eprintln!("running adaptive campaign…");
    let result = CampaignSpec::imrp(&targets, config)
        .policy(policy)
        .run()
        .expect("no resume plan to reject")
        .result;

    println!(
        "\ncampaign: {} root pipelines, {} sub-pipelines, {} trajectories, {} AF2 evaluations",
        result.run.root_pipelines,
        result.run.sub_pipelines,
        result.trajectories,
        result.evaluations
    );
    println!(
        "resources: CPU {:.0}%, GPU {:.0}% (slot) over {:.1} virtual hours",
        result.run.cpu_utilization * 100.0,
        result.run.gpu_slot_utilization * 100.0,
        result.run.makespan.as_hours_f64()
    );

    for metric in MetricKind::ALL {
        let s = result.series(metric);
        println!("\n{metric} across the cohort:");
        for (it, summary) in s.iterations.iter().zip(&s.summaries) {
            println!(
                "  iter {it}: median {:>7.2}  ± {:.2} (σ/2)  n={}",
                summary.median,
                summary.half_std(),
                summary.n
            );
        }
    }

    // Cohort-level distribution of final design quality.
    let finals: Vec<f64> = result
        .outcomes
        .iter()
        .filter_map(|o| o.final_report().map(|r| r.score()))
        .collect();
    let s = Summary::of(&finals);
    println!(
        "\nfinal design score distribution: median {:.3}, min {:.3}, max {:.3} (n={})",
        s.median, s.min, s.max, s.n
    );
    let early: usize = result
        .outcomes
        .iter()
        .filter(|o| o.terminated_early)
        .count();
    println!("lineages terminated early (retry budget exhausted): {early}");
}
