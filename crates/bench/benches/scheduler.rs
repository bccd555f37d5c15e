//! Scheduler micro-benchmarks: placement throughput under load, FIFO vs
//! backfill, and the simulated backend's event-processing rate.
//!
//! Relevance: IM-RP submits hundreds of heterogeneous tasks per experiment;
//! the paper's "continuous scheduling" only pays off if placement decisions
//! are cheap relative to task granularity.

use impress_bench::harness::{placement_cycle, task_stream};
use impress_bench::timing::{black_box, Suite};
use impress_pilot::backend::SimulatedBackend;
use impress_pilot::{ExecutionBackend, PilotConfig, PlacementPolicy, TaskDescription};
use impress_sim::SimDuration;

fn bench_placement(suite: &mut Suite) {
    for &n in &[64usize, 256, 1024, 8192] {
        for policy in [PlacementPolicy::Fifo, PlacementPolicy::Backfill] {
            let stream = task_stream(n);
            suite.bench(&format!("place_release_cycle/{policy:?}/{n}"), || {
                black_box(placement_cycle(policy, 1, &stream))
            });
        }
    }
    // Multi-node first-fit: the scan cost multiplies by the node count, so
    // a cluster-sized queue is where the blocked-shape cache has to earn
    // its keep.
    for &(nodes, n) in &[(8u32, 2048usize), (32, 8192)] {
        let stream = task_stream(n);
        suite.bench(&format!("place_release_cycle_cluster/{nodes}x/{n}"), || {
            black_box(placement_cycle(PlacementPolicy::Backfill, nodes, &stream))
        });
    }
}

fn bench_backend_event_rate(suite: &mut Suite) {
    for &n in &[100usize, 500] {
        suite.bench(&format!("simulated_backend_run/{n}"), || {
            let mut backend = SimulatedBackend::new(PilotConfig {
                bootstrap: SimDuration::from_secs(10),
                exec_setup_per_task: SimDuration::from_secs(1),
                ..PilotConfig::default()
            });
            for (i, req) in task_stream(n).iter().enumerate() {
                backend.submit(TaskDescription::new(
                    format!("t{i}"),
                    *req,
                    SimDuration::from_secs(60 + (i as u64 % 600)),
                ));
            }
            let mut completions = 0;
            while backend.next_completion().is_some() {
                completions += 1;
            }
            black_box(completions)
        });
    }
}

fn main() {
    let mut suite = Suite::new("scheduler");
    bench_placement(&mut suite);
    bench_backend_event_rate(&mut suite);
    suite.finish();
}
