//! Live execution on the real-thread backend.
//!
//! Everything else in this repository replays experiments in virtual time
//! as fast as it can; this example runs the campaign's work closures on OS
//! threads and paces the same virtual clock to real time (1 virtual hour ≈
//! 40 real ms), so you can watch a 13-virtual-hour IM-RP run finish in
//! about half a second of wall-clock — with the same schedule and the same
//! designs as the simulated backend, because all three backends drive one
//! discrete-event core.
//!
//! Run with: `cargo run --release --example live_threaded`

use impress_core::{DesignPipeline, ProtocolConfig, TargetToolkit};
use impress_pilot::{PilotConfig, RuntimeConfig};
use impress_proteins::datasets::named_pdz_domains;
use impress_sim::{Histogram, SimDuration};
use impress_workflow::{Coordinator, NoDecisions};
use std::time::Instant;

fn main() {
    let seed = 7;
    let targets: Vec<_> = named_pdz_domains(seed).into_iter().take(2).collect();
    // 1 virtual second → 11 µs of real time: ~13 virtual hours ≈ 0.5 s.
    let time_scale = 11e-6;
    let pilot = PilotConfig {
        bootstrap: SimDuration::from_secs(30),
        exec_setup_per_task: SimDuration::from_secs(5),
        ..PilotConfig::with_seed(seed)
    };

    println!(
        "running {} adaptive pipelines live on {} (time scale {time_scale})…",
        targets.len(),
        pilot.node
    );
    let t0 = Instant::now();
    let backend = RuntimeConfig::new(pilot).time_scale(time_scale).threaded();
    let mut coordinator = Coordinator::new(backend, NoDecisions);
    for (i, target) in targets.iter().enumerate() {
        let tk = TargetToolkit::for_target(target, seed);
        coordinator.add_pipeline(Box::new(DesignPipeline::root(
            tk,
            ProtocolConfig::imrp(seed),
            i as u64,
        )));
    }
    let report = coordinator.run();
    let elapsed = t0.elapsed();

    println!(
        "\nfinished in {elapsed:.2?} of real time ({:.2} virtual hours x {time_scale} = {:.2} s paced):",
        report.makespan.as_hours_f64(),
        report.makespan.as_secs_f64() * time_scale,
    );
    println!("{report}");
    for (_, outcome) in coordinator.outcomes() {
        println!(
            "  {:<16} {}",
            outcome.target,
            outcome
                .final_report()
                .map(|r| r.to_string())
                .unwrap_or_else(|| "terminated early".into())
        );
    }

    let log = coordinator.events();
    let stage_events =
        log.count(|e| matches!(e.kind, impress_workflow::EventKind::StageCompleted { .. }));
    println!("\nstages completed: {stage_events}");
    // The event log is on the virtual clock: hours per pipeline, each of
    // which took `time_scale` times as long in real time.
    let mut hist = Histogram::new(0.0, 16.0, 8);
    for (id, _) in coordinator.outcomes() {
        if let Some((start, end)) = log.pipeline_span(*id) {
            hist.record(end.since(start).as_hours_f64());
        }
    }
    println!("pipeline makespans (virtual hours):\n{}", hist.render(30));
}
