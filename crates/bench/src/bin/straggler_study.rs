//! Straggler study (beyond the paper, "Fig. 7"): gray-failure mitigation
//! on a degraded cluster. Sweeps slowdown severity (healthy / 4x / 10x /
//! 20x on two of eight nodes) × hedging (off / k=2 / k=3) × poison-task
//! quarantine (off / on) and reports makespan, waste, and lineage verdicts
//! per cell.
//!
//! Usage: `cargo run --release -p impress-bench --bin straggler_study`.
//! Writes `straggler.json`; deterministic for a fixed `IMPRESS_SEED`.

use impress_bench::harness::master_seed;
use impress_bench::straggler::{run_study, StudyParams};

fn main() {
    let seed = master_seed();
    let p = StudyParams::paper();
    println!(
        "straggler: {} design tasks + {} poison lineages on {} × {}-core \
         nodes, {} degraded (seed {seed})\n",
        p.design_tasks, p.poison_tasks, p.nodes, p.cores_per_node, p.slow_nodes
    );
    println!(
        "{:>8} {:>5} {:>5} {:>12} {:>6} {:>7} {:>11} {:>8} {:>10} {:>9} {:>5}",
        "slowdown",
        "hedge",
        "quar",
        "makespan(s)",
        "CPU %",
        "hedges",
        "hwaste(cs)",
        "retries",
        "waste(cs)",
        "poisoned",
        "shed"
    );

    let doc = run_study(&p, seed);
    for row in doc.get("rows").and_then(|r| r.as_array()).expect("rows") {
        let s = |k: &str| {
            row.get(k)
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string()
        };
        let f = |k: &str| row.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        println!(
            "{:>8} {:>5} {:>5} {:>12.0} {:>5.1}% {:>7.0} {:>11.0} {:>8.0} {:>10.0} {:>9.0} {:>5.0}",
            s("severity"),
            s("hedge"),
            s("quarantine"),
            f("makespan_secs"),
            f("cpu") * 100.0,
            f("hedges"),
            f("hedge_wasted_core_seconds"),
            f("retries"),
            f("wasted_core_seconds"),
            f("poisoned"),
            f("shed")
        );
    }

    let acceptance = doc.get("acceptance").expect("acceptance section");
    let num = |k: &str| acceptance.get(k).and_then(|v| v.as_f64()).expect(k);
    let flag = |k: &str| acceptance.get(k).and_then(|v| v.as_bool()).expect(k);
    println!(
        "\nhedging k=2 recovered {:.0}% of the {:.0}s the 10x tail costs \
         ({:.0}s → {:.0}s); quarantine holds poison waste at {:.0} of \
         {:.0} allowed core-seconds (unquarantined: {:.0})",
        num("k2_recovered_fraction") * 100.0,
        num("tail_loss_secs"),
        num("makespan_10x_unhedged_secs"),
        num("makespan_10x_k2_secs"),
        num("quarantined_waste_core_seconds"),
        num("poison_waste_bound_core_seconds"),
        num("unquarantined_waste_core_seconds"),
    );
    assert!(
        flag("k2_recovers_majority"),
        "hedging at k=2 must recover at least half the straggler tail"
    );
    assert!(
        flag("quarantine_bounds_poison_waste"),
        "quarantine must bound poison waste to distinct_nodes × attempt cost"
    );

    std::fs::write("straggler.json", impress_json::to_string_pretty(&doc))
        .expect("write straggler.json");
    eprintln!("wrote straggler.json");
}
