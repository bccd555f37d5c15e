//! Resilience study (beyond the paper, "Fig. 6"): how IM-RP and CONT-V
//! degrade when the platform misbehaves. The paper's runs assume a healthy
//! cluster; production campaigns do not get one. This harness sweeps node
//! MTBF (∞ / 24 h / 8 h, with 30-minute outages) and the pilot's retry
//! budget (0 / 3) under a 2% transient task-failure rate, and reports
//! makespan, utilization, wasted work and aborted lineages per cell.
//!
//! The adaptive arm rides out faults — the coordinator keeps the other
//! pipelines running while the pilot requeues evicted tasks — while the
//! sequential control stalls on every fault and loses whole lineages once
//! the retry budget is exhausted.
//!
//! Usage: `cargo run --release -p impress-bench --bin resilience`.
//! Writes `resilience.json`; deterministic for a fixed `IMPRESS_SEED`.

use impress_bench::harness::master_seed;
use impress_core::experiment::{run_cont_v_resilient, ExperimentResult};
use impress_core::{CampaignSpec, ProtocolConfig};
use impress_pilot::{FaultConfig, PilotConfig, RetryPolicy};
use impress_proteins::datasets::named_pdz_domains;
use impress_sim::SimDuration;

struct Cell {
    mtbf: &'static str,
    budget: u32,
    faults: FaultConfig,
    retry: RetryPolicy,
}

fn cells() -> Vec<Cell> {
    let mut grid = vec![Cell {
        mtbf: "healthy",
        budget: 0,
        faults: FaultConfig::none(),
        retry: RetryPolicy::none(),
    }];
    let faulty = |mtbf: Option<SimDuration>| FaultConfig {
        task_failure_rate: 0.02,
        node_mtbf: mtbf,
        node_outage: SimDuration::from_mins(30),
        ..FaultConfig::none()
    };
    for (label, mtbf) in [
        ("inf", None),
        ("24h", Some(SimDuration::from_hours(24))),
        ("8h", Some(SimDuration::from_hours(8))),
    ] {
        for budget in [0u32, 3] {
            grid.push(Cell {
                mtbf: label,
                budget,
                faults: faulty(mtbf),
                retry: if budget == 0 {
                    RetryPolicy::none()
                } else {
                    RetryPolicy::retries(budget)
                },
            });
        }
    }
    grid
}

fn row(cell: &Cell, arm: &str, r: &ExperimentResult) -> impress_json::Json {
    impress_json::Json::object()
        .field("mtbf", cell.mtbf)
        .field("retry_budget", cell.budget)
        .field("arm", arm)
        .field("makespan_hours", r.run.makespan.as_hours_f64())
        .field("cpu", r.run.cpu_utilization)
        .field("gpu_slot", r.run.gpu_slot_utilization)
        .field("retries", r.run.task_retries)
        .field("wasted_core_hours", r.run.wasted_core_seconds / 3600.0)
        .field("wasted_gpu_hours", r.run.wasted_gpu_seconds / 3600.0)
        .field("aborted_lineages", r.run.aborted_pipelines)
        .field("evaluations", r.evaluations)
        .build()
}

fn main() {
    let seed = master_seed();
    let targets = named_pdz_domains(seed);
    println!(
        "resilience: 4 PDZ domains, CONT-V vs IM-RP under injected faults \
         (2% transient task failures; 30m outages; seed {seed})\n"
    );
    println!(
        "{:>8} {:>7} {:>8} {:>12} {:>7} {:>8} {:>10} {:>8} {:>6}",
        "mtbf", "budget", "arm", "makespan(h)", "CPU %", "retries", "wasted(ch)", "aborted", "evals"
    );

    let mut rows = Vec::new();
    for cell in cells() {
        let imrp = CampaignSpec::imrp(&targets, ProtocolConfig::imrp(seed))
            .faults(cell.faults.clone(), cell.retry)
            .run()
            .expect("no resume plan to reject")
            .result;
        let cont = run_cont_v_resilient(
            &targets,
            ProtocolConfig::cont_v(seed),
            PilotConfig::with_seed(seed),
            cell.faults.clone(),
            cell.retry,
        );
        for (arm, r) in [("IM-RP", &imrp), ("CONT-V", &cont)] {
            println!(
                "{:>8} {:>7} {:>8} {:>12.2} {:>6.1}% {:>8} {:>10.2} {:>8} {:>6}",
                cell.mtbf,
                cell.budget,
                arm,
                r.run.makespan.as_hours_f64(),
                r.run.cpu_utilization * 100.0,
                r.run.task_retries,
                r.run.wasted_core_seconds / 3600.0,
                r.run.aborted_pipelines,
                r.evaluations
            );
            rows.push(row(&cell, arm, r));
        }
    }
    println!(
        "\nWith a retry budget the adaptive arm absorbs faults as wasted \
         core-hours while finishing its full cohort; with none, faults \
         convert directly into aborted lineages — and CONT-V additionally \
         pays for every fault with idle sequential time."
    );
    let json = impress_json::Json::object()
        .field("seed", seed)
        .field("structures", targets.len())
        .field("task_failure_rate", 0.02)
        .field("node_outage_minutes", 30)
        .field("rows", impress_json::Json::array(rows))
        .build();
    std::fs::write("resilience.json", impress_json::to_string_pretty(&json))
        .expect("write resilience.json");
    eprintln!("wrote resilience.json");
}
