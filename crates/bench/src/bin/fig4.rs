//! Regenerates **Fig. 4**: CONT-V total GPU/CPU resource utilization and
//! execution time.
//!
//! Expected shape: average CPU utilization ≈ 18% (one 6-core MSA at a time
//! on a 28-core node), GPU utilization ≈ 1% (vanilla AlphaFold leaves the
//! GPUs idle during its CPU-bound construction phase; only one GPU is ever
//! touched, briefly).

use impress_bench::harness::{downsample, master_seed, paper_experiment, sparkline};

fn main() {
    let seed = master_seed();
    eprintln!("running Fig. 4 experiment (seed {seed})…");
    let exp = paper_experiment(seed);
    let r = &exp.cont_v;

    println!("\nFig. 4 — CONT-V resource utilization (28 CPU cores, 4 GPUs; 10-min bins)\n");
    let cpu = downsample(&r.cpu_series, 72);
    let gpu = downsample(&r.gpu_hw_series, 72);
    println!("CPU  |{}|", sparkline(&cpu));
    println!("GPU  |{}|", sparkline(&gpu));
    println!(
        "\navg CPU {:.1}%  avg GPU (hardware) {:.1}%  — paper: ~18.3% / ~1%",
        r.run.cpu_utilization * 100.0,
        r.run.gpu_hardware_utilization * 100.0
    );
    println!(
        "execution time: {:.1} h — paper: 27.7 h",
        r.run.makespan.as_hours_f64()
    );
    println!(
        "tasks executed: {} across {} trajectories",
        r.run.total_tasks, r.trajectories
    );

    let json = impress_json::Json::object()
        .field("seed", seed)
        .field("bin_minutes", 10)
        .field("cpu_series", &r.cpu_series)
        .field("gpu_hw_series", &r.gpu_hw_series)
        .field("avg_cpu", r.run.cpu_utilization)
        .field("avg_gpu_hw", r.run.gpu_hardware_utilization)
        .field("makespan_hours", r.run.makespan.as_hours_f64())
        .build();
    std::fs::write("fig4.json", impress_json::to_string_pretty(&json)).expect("write json sidecar");
    eprintln!("\nwrote fig4.json");
}
