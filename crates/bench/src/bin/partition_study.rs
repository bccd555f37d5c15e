//! Partition study (beyond the paper, "Fig. 8"): control-plane resilience
//! under message-layer faults. Sweeps loss rate (drop + duplication:
//! lossless / 0.15 / 0.3) × partition duration (none / 20 s / 60 s /
//! 120 s) × heartbeat timeout (off / 2 s / 6 s) and certifies that effects
//! stay exactly-once at every loss rate and that heartbeat detection
//! recovers ≥ 90 % of the makespan a healed 60 s partition costs.
//!
//! Usage: `cargo run --release -p impress-bench --bin partition_study`.
//! Writes `partition.json`; deterministic for a fixed `IMPRESS_SEED`.

use impress_bench::harness::master_seed;
use impress_bench::partition::{run_study, StudyParams};

fn main() {
    let seed = master_seed();
    let p = StudyParams::paper();
    println!(
        "partition: {} × {}s tasks on {} × {}-core nodes, partition severs \
         nodes {}–{} at t={}s (seed {seed})\n",
        p.tasks,
        p.task_secs,
        p.nodes,
        p.cores_per_node,
        p.partition_first_node,
        p.partition_last_node,
        p.partition_at_secs
    );
    println!(
        "{:>9} {:>9} {:>8} {:>12} {:>8} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "loss",
        "partition",
        "detector",
        "makespan(s)",
        "suspect",
        "lease",
        "fenced",
        "resync",
        "dedup",
        "retx"
    );

    let doc = run_study(&p, seed);
    for row in doc.get("grid").and_then(|r| r.as_array()).expect("grid") {
        let s = |k: &str| {
            row.get(k)
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string()
        };
        let f = |k: &str| row.get(k).and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        println!(
            "{:>9} {:>9} {:>8} {:>12.1} {:>8.0} {:>7.0} {:>7.0} {:>7.0} {:>7.0} {:>7.0}",
            s("loss"),
            s("partition"),
            s("detector"),
            f("makespan_secs"),
            f("suspicions"),
            f("lease_expiries"),
            f("fenced_completions"),
            f("resyncs"),
            f("dedup_hits"),
            f("retransmits")
        );
    }

    let acceptance = doc.get("acceptance").expect("acceptance section");
    let num = |k: &str| acceptance.get(k).and_then(|v| v.as_f64()).expect(k);
    let flag = |k: &str| acceptance.get(k).and_then(|v| v.as_bool()).expect(k);
    println!(
        "\nexactly-once: {} duplicate completions across the grid, {} \
         duplicate journal/decision effects across the delivery campaigns; \
         heartbeat detection recovered {:.0}% of the {:.1}s a healed 60s \
         partition costs ({:.1}s → {:.1}s, clean {:.1}s)",
        num("grid_duplicate_completions"),
        num("delivery_duplicate_effects"),
        num("detection_recovered_fraction") * 100.0,
        num("partition_loss_secs"),
        num("makespan_60s_undetected_secs"),
        num("makespan_60s_detected_secs"),
        num("makespan_clean_secs"),
    );
    assert!(
        flag("exactly_once_at_every_rate"),
        "duplicate journal/DecisionEngine effects must be zero at every swept rate"
    );
    assert!(
        flag("detection_recovers_90pct"),
        "heartbeat detection must recover at least 90% of the partition's makespan loss"
    );

    std::fs::write("partition.json", impress_json::to_string_pretty(&doc))
        .expect("write partition.json");
    eprintln!("wrote partition.json");
}
