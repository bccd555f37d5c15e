//! Recovery study: the cost of crashing. An IM-RP campaign runs with a
//! write-ahead journal; this harness kills it at a swept fraction of its
//! journal records (0.25 / 0.5 / 0.9), across snapshot-compaction
//! intervals (never / every 32 / every 128 records), then resumes from the
//! surviving journal and measures what the crash cost: journal replay
//! time, tasks that had to be re-executed versus replayed as recorded
//! ghosts, journal size at the kill point, and makespan overhead relative
//! to an uninterrupted baseline.
//!
//! Every resumed run is asserted byte-identical to the baseline before its
//! row is reported — the study doubles as an end-to-end check of the
//! resume-parity invariant. Because resume re-simulates completed work as
//! zero-cost ghosts on the same virtual timeline, makespan overhead is
//! structurally zero; the real crash cost shows up as re-executed tasks
//! and replay wall time.
//!
//! Usage: `cargo run --release -p impress-bench --bin recovery`.
//! Writes `recovery.json`, deterministic for a fixed `IMPRESS_SEED`: replay
//! wall-clock milliseconds are printed, not written (the perf ledger's
//! `workflow.journal.load_ms` / `workflow.resume_{full,half}_ms` measure them).

use impress_bench::harness::master_seed;
use impress_core::adaptive::AdaptivePolicy;
use impress_core::{imrp_journal, CampaignSpec};
use impress_pilot::PilotConfig;
use impress_proteins::datasets::named_pdz_domains;
use impress_workflow::journal::{load_plan, MemoryJournal, JOURNAL_FORMAT_VERSION};

fn main() {
    let seed = master_seed();
    let targets = named_pdz_domains(seed);
    let config = impress_core::ProtocolConfig::imrp(seed);
    let policy = AdaptivePolicy::default();
    let pilot = PilotConfig::with_seed(seed);

    // Uninterrupted baseline: same campaign, journaled end to end.
    let base_store = MemoryJournal::new();
    let spec = || {
        CampaignSpec::imrp(&targets, config.clone())
            .policy(policy)
            .pilot(pilot)
    };
    let baseline = spec()
        .journal(imrp_journal(Box::new(base_store.clone()), &config).expect("baseline journal"))
        .run()
        .expect("no resume plan to reject");
    let baseline_json = impress_json::to_string(&baseline.result);
    let total_records = baseline.records;
    let total_tasks = baseline.result.run.total_tasks;
    println!(
        "recovery: 4 PDZ domains, IM-RP with write-ahead journal \
         ({total_records} records, {total_tasks} tasks, seed {seed})\n"
    );
    println!(
        "{:>6} {:>9} {:>8} {:>7} {:>9} {:>7} {:>8} {:>10} {:>9}",
        "kill", "snapshot", "records", "lines", "bytes", "ghosts", "re-exec", "replay(ms)", "overhead"
    );

    // The kill switch panics inside the coordinator; silence the default
    // hook so the sweep's expected crashes do not spray backtraces.
    std::panic::set_hook(Box::new(|_| {}));
    let mut rows = Vec::new();
    for snapshot_interval in [None, Some(32usize), Some(128)] {
        for kill_frac in [0.25f64, 0.5, 0.9] {
            let kill_after = ((total_records as f64) * kill_frac).round().max(1.0) as u64;
            let store = MemoryJournal::new();
            let mut journal = imrp_journal(Box::new(store.clone()), &config)
                .expect("sweep journal")
                .with_kill_after(kill_after);
            if let Some(i) = snapshot_interval {
                journal = journal.with_snapshot_interval(i);
            }
            let doomed = spec().journal(journal);
            let crashed =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || doomed.run()));
            assert!(crashed.is_err(), "kill switch must fire mid-campaign");

            let lines = store.line_count();
            let bytes = store.bytes();
            let replay_start = std::time::Instant::now();
            let loaded = load_plan(&store).expect("surviving journal must load");
            let resumed = spec()
                .resume_from(loaded.plan.clone())
                .run()
                .expect("resume from surviving journal")
                .result;
            let replay_ms = replay_start.elapsed().as_secs_f64() * 1e3;
            let resumed_json = impress_json::to_string(&resumed);
            assert_eq!(
                baseline_json, resumed_json,
                "resume must regenerate the baseline byte-identically \
                 (kill {kill_frac}, snapshot {snapshot_interval:?})"
            );

            let ghosts = loaded.plan.ghost_tasks();
            let reexecuted = total_tasks - ghosts;
            let overhead =
                resumed.run.makespan.as_secs_f64() - baseline.result.run.makespan.as_secs_f64();
            let snap_label = snapshot_interval
                .map(|i| i.to_string())
                .unwrap_or_else(|| "never".into());
            println!(
                "{:>6} {:>9} {:>8} {:>7} {:>9} {:>7} {:>8} {:>10.2} {:>8.1}s",
                format!("{:.0}%", kill_frac * 100.0),
                snap_label,
                kill_after,
                lines,
                bytes,
                ghosts,
                reexecuted,
                replay_ms,
                overhead
            );
            rows.push(
                impress_json::Json::object()
                    .field("kill_fraction", kill_frac)
                    .field("snapshot_interval", snapshot_interval.map(|i| i as u64))
                    .field("records_at_kill", kill_after)
                    .field("journal_lines", lines)
                    .field("journal_bytes", bytes)
                    .field("dropped_lines", loaded.dropped)
                    .field("ghost_tasks", ghosts)
                    .field("reexecuted_tasks", reexecuted)
                    .field("makespan_overhead_secs", overhead)
                    .field("byte_identical", true)
                    .build(),
            );
        }
    }
    let _ = std::panic::take_hook();

    println!(
        "\nSnapshot compaction bounds the journal the loader must replay \
         without changing what survives a crash; every resumed run matched \
         the uninterrupted baseline byte for byte, so the only crash cost \
         is re-executing the tasks that were in flight when the kill landed."
    );
    let json = impress_json::Json::object()
        .field("format_version", JOURNAL_FORMAT_VERSION)
        .field("seed", seed)
        .field("structures", targets.len())
        .field("baseline_records", total_records)
        .field("baseline_tasks", total_tasks)
        .field(
            "baseline_makespan_hours",
            baseline.result.run.makespan.as_hours_f64(),
        )
        .field("rows", impress_json::Json::array(rows))
        .build();
    std::fs::write("recovery.json", impress_json::to_string_pretty(&json))
        .expect("write recovery.json");
    eprintln!("wrote recovery.json");
}
