//! Regenerates **Fig. 5**: IM-RP total GPU/CPU utilization, execution time,
//! and the pilot phase breakdown (Bootstrap / Exec setup / Running).
//!
//! Expected shape: both device groups far busier than CONT-V's (paper: ~88%
//! CPU, ~61% GPU slot occupancy) because the coordinator offloads newly
//! created pipelines to idle resources; bootstrap and per-task exec setup
//! are visible but small against hour-scale tasks.

use impress_bench::harness::{downsample, master_seed, paper_experiment, sparkline};
use impress_core::adaptive::AdaptivePolicy;
use impress_core::ProtocolConfig;
use impress_pilot::backend::SimulatedBackend;
use impress_pilot::{PilotConfig, Timeline};
use impress_proteins::datasets::named_pdz_domains;
use impress_workflow::Coordinator;

fn main() {
    let seed = master_seed();
    eprintln!("running Fig. 5 experiment (seed {seed})…");
    let exp = paper_experiment(seed);
    let r = &exp.imrp;

    println!("\nFig. 5 — IM-RP resource utilization (28 CPU cores, 4 GPUs; 10-min bins)\n");
    let cpu = downsample(&r.cpu_series, 72);
    let gpu = downsample(&r.gpu_slot_series, 72);
    println!("CPU  |{}|", sparkline(&cpu));
    println!(
        "GPU  |{}|  (slot occupancy; RP profiler semantics)",
        sparkline(&gpu)
    );
    println!(
        "\navg CPU {:.1}%  avg GPU {:.1}% (slot) / {:.1}% (hardware)  — paper: ~88% / ~61%",
        r.run.cpu_utilization * 100.0,
        r.run.gpu_slot_utilization * 100.0,
        r.run.gpu_hardware_utilization * 100.0
    );
    println!(
        "execution time: {:.1} h — paper: 38.3 h",
        r.run.makespan.as_hours_f64()
    );
    let p = &r.run.phases;
    println!("\nphase breakdown:");
    println!("  bootstrap:        {}", p.bootstrap);
    println!(
        "  exec setup total: {} across {} tasks",
        p.exec_setup_total, p.tasks_executed
    );
    println!("  running total:    {} (task-parallel)", p.running_total);
    println!(
        "\npipelines: {} root + {} sub; evaluations: {}",
        r.run.root_pipelines, r.run.sub_pipelines, r.evaluations
    );

    // Gantt view of the run's first tasks (the scheduling texture behind
    // the utilization averages). Re-run one arm to get at the backend's
    // task records.
    {
        let seed_g = seed;
        let targets = named_pdz_domains(seed_g);
        let tks: Vec<_> = targets
            .iter()
            .map(|t| impress_core::TargetToolkit::for_target(t, seed_g ^ 0xdb))
            .collect();
        let config = ProtocolConfig::imrp(seed_g);
        let decision = impress_core::ImpressDecision::new(
            config.clone(),
            AdaptivePolicy::default(),
            tks.clone(),
        );
        let backend = SimulatedBackend::new(PilotConfig::with_seed(seed_g));
        let mut coord = Coordinator::new(backend, decision);
        for (i, tk) in tks.iter().enumerate() {
            coord.add_pipeline(Box::new(impress_core::DesignPipeline::root(
                tk.clone(),
                config.clone(),
                i as u64,
            )));
        }
        coord.run();
        let timeline = Timeline::from_records(&coord.session().backend().task_records());
        println!(
            "
task Gantt (first 24 tasks; ▒ queued, █ running):"
        );
        print!("{}", timeline.render(72, 24));
        println!("mean task queue wait: {}", timeline.mean_wait());
    }

    let json = impress_json::Json::object()
        .field("seed", seed)
        .field("bin_minutes", 10)
        .field("cpu_series", &r.cpu_series)
        .field("gpu_slot_series", &r.gpu_slot_series)
        .field("gpu_hw_series", &r.gpu_hw_series)
        .field("avg_cpu", r.run.cpu_utilization)
        .field("avg_gpu_slot", r.run.gpu_slot_utilization)
        .field("makespan_hours", r.run.makespan.as_hours_f64())
        .field("phases", p)
        .build();
    std::fs::write("fig5.json", impress_json::to_string_pretty(&json)).expect("write json sidecar");
    eprintln!("\nwrote fig5.json");
}
