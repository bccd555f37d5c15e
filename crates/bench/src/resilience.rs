//! Two studies beyond the paper that break the platform under the 4-domain
//! cohort (the first two domains at smoke size):
//!
//! * **resilience** ("Fig. 6"): both arms under node MTBF (∞ / 24 h / 8 h,
//!   30-minute outages) × retry budget (0 / 3), with 2 % transient task
//!   failures. The adaptive arm rides out faults — the coordinator keeps
//!   the other pipelines running while the pilot requeues evicted tasks —
//!   while the sequential control stalls on every fault and loses whole
//!   lineages once the budget is spent.
//! * **recovery**: an IM-RP campaign with a write-ahead journal, killed at
//!   a swept fraction of its records (0.25 / 0.5 / 0.9) across snapshot
//!   intervals (never / 32 / 128) and resumed from what survived. Every
//!   resumed run is asserted byte-identical to the uninterrupted baseline
//!   before its row is written; resume re-simulates completed work as
//!   zero-cost ghosts on the same virtual timeline, so the crash cost is
//!   the tasks re-executed. Replay wall time goes to stderr, never the file
//!   (the perf ledger measures it).

use crate::harness::named_domains;
use crate::study::Size;
use impress_core::adaptive::AdaptivePolicy;
use impress_core::experiment::ExperimentResult;
use impress_core::{CampaignSpec, ProtocolConfig};
use impress_json::Json;
use impress_pilot::{FaultConfig, PilotConfig, RetryPolicy};
use impress_sim::SimDuration;
use impress_workflow::journal::{load_plan, MemoryJournal, JOURNAL_FORMAT_VERSION};

/// The fault grid: a healthy cell, then MTBF × retry budget.
fn cells() -> Vec<(&'static str, u32, FaultConfig, RetryPolicy)> {
    let mut grid = vec![("healthy", 0, FaultConfig::none(), RetryPolicy::none())];
    for (label, mtbf) in [
        ("inf", None),
        ("24h", Some(SimDuration::from_hours(24))),
        ("8h", Some(SimDuration::from_hours(8))),
    ] {
        let faults = FaultConfig {
            task_failure_rate: 0.02,
            node_mtbf: mtbf,
            node_outage: SimDuration::from_mins(30),
            ..FaultConfig::none()
        };
        grid.push((label, 0, faults.clone(), RetryPolicy::none()));
        grid.push((label, 3, faults, RetryPolicy::retries(3)));
    }
    grid
}

pub(crate) fn resilience(size: Size, seed: u64) -> Json {
    let targets = named_domains(size, seed);
    let mut rows = Vec::new();
    for (mtbf, budget, faults, retry) in cells() {
        for spec in [
            CampaignSpec::imrp(&targets, ProtocolConfig::imrp(seed)),
            CampaignSpec::cont_v(&targets, ProtocolConfig::cont_v(seed)),
        ] {
            let run = spec.faults(faults.clone(), retry).run();
            let r = run.expect("the grid's faults have no link section").result;
            rows.push(row(mtbf, budget, &r));
        }
    }
    Json::object()
        .field("seed", seed)
        .field("structures", targets.len())
        .field("task_failure_rate", 0.02)
        .field("node_outage_minutes", 30)
        .field("rows", Json::array(rows))
        .build()
}

fn row(mtbf: &str, budget: u32, r: &ExperimentResult) -> Json {
    Json::object()
        .field("mtbf", mtbf)
        .field("retry_budget", budget)
        .field("arm", r.label.as_str())
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

/// The kill switch panics inside the coordinator (the `study` binary
/// silences those panics); each crash is caught and resumed here.
pub(crate) fn recovery(size: Size, seed: u64) -> Json {
    let targets = named_domains(size, seed);
    let config = ProtocolConfig::imrp(seed);
    let spec = || {
        CampaignSpec::imrp(&targets, config.clone())
            .policy(AdaptivePolicy::default())
            .pilot(PilotConfig::with_seed(seed))
    };
    let base_store = MemoryJournal::new();
    let base = spec();
    let journal = base
        .journal_on(Box::new(base_store.clone()))
        .expect("baseline journal");
    let baseline = base
        .journal(journal)
        .run()
        .expect("no resume plan to reject");
    let baseline_json = impress_json::to_string(&baseline.result);
    let (total_records, total_tasks) = (baseline.records, baseline.result.run.total_tasks);
    let journaled = load_plan(&base_store).expect("baseline journal loads").plan;
    eprintln!(
        "  baseline: {} distinct task shapes of {} journaled tasks",
        journaled.shapes.len(),
        journaled.ghost_tasks()
    );

    let mut rows = Vec::new();
    for snapshot_interval in [None, Some(32usize), Some(128)] {
        for kill_frac in [0.25f64, 0.5, 0.9] {
            let kill_after = ((total_records as f64) * kill_frac).round().max(1.0) as u64;
            let store = MemoryJournal::new();
            let doomed = spec();
            let mut journal = doomed
                .journal_on(Box::new(store.clone()))
                .expect("sweep journal")
                .with_kill_after(kill_after);
            if let Some(i) = snapshot_interval {
                journal = journal.with_snapshot_interval(i);
            }
            let doomed = doomed.journal(journal);
            let crashed =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || doomed.run()));
            assert!(crashed.is_err(), "kill switch must fire mid-campaign");
            let (lines, bytes) = (store.line_count(), store.bytes());

            let replay_start = std::time::Instant::now();
            let loaded = load_plan(&store).expect("surviving journal must load");
            let resumed = spec()
                .resume_from(loaded.plan.clone())
                .run()
                .expect("resume from surviving journal")
                .result;
            let replay_ms = replay_start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                baseline_json,
                impress_json::to_string(&resumed),
                "resume must regenerate the baseline byte-identically \
                 (kill {kill_frac}, snapshot {snapshot_interval:?})"
            );
            eprintln!(
                "  kill {kill_frac}, snapshot {snapshot_interval:?}: replay {replay_ms:.2} ms"
            );
            let ghosts = loaded.plan.ghost_tasks();
            let overhead =
                resumed.run.makespan.as_secs_f64() - baseline.result.run.makespan.as_secs_f64();
            rows.push(
                Json::object()
                    .field("kill_fraction", kill_frac)
                    .field("snapshot_interval", snapshot_interval.map(|i| i as u64))
                    .field("records_at_kill", kill_after)
                    .field("journal_lines", lines)
                    .field("journal_bytes", bytes)
                    .field("dropped_lines", loaded.dropped)
                    .field("ghost_tasks", ghosts)
                    .field("reexecuted_tasks", total_tasks - ghosts)
                    .field("makespan_overhead_secs", overhead)
                    .field("byte_identical", true)
                    .build(),
            );
        }
    }
    Json::object()
        .field("format_version", JOURNAL_FORMAT_VERSION)
        .field("seed", seed)
        .field("structures", targets.len())
        .field("baseline_records", total_records)
        .field("baseline_tasks", total_tasks)
        .field(
            "baseline_makespan_hours",
            baseline.result.run.makespan.as_hours_f64(),
        )
        .field("rows", Json::array(rows))
        .build()
}
