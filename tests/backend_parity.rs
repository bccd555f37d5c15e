//! Backend parity: the simulated, sharded, and threaded backends must
//! agree on the *science* (same task closures, same deterministic RNG
//! streams, same outputs) and on the virtual clock, even though they
//! disagree on event-engine mechanics and on where closures run.

use impress_core::{DesignPipeline, ProtocolConfig, TargetToolkit};
use impress_pilot::backend::{ShardedBackend, SimulatedBackend, ThreadedBackend};
use impress_pilot::{
    ExecutionBackend, FaultConfig, FaultPlan, NodeSpec, PilotConfig, ResourceRequest, RetryPolicy,
    RuntimeConfig, ScriptedCrash, ScriptedPartition, Session, TaskDescription,
};
use impress_proteins::datasets::named_pdz_domains;
use impress_sim::{SimDuration, SimTime};
use impress_workflow::{Coordinator, NoDecisions};

fn pilot_config(seed: u64) -> PilotConfig {
    PilotConfig {
        bootstrap: SimDuration::from_secs(1),
        exec_setup_per_task: SimDuration::ZERO,
        ..PilotConfig::with_seed(seed)
    }
}

/// The same work batch produces the same outputs on both backends,
/// in submission order.
#[test]
fn batch_outputs_agree_across_backends() {
    let works = || -> Vec<Box<dyn FnOnce() -> u64 + Send>> {
        (0..12u64)
            .map(|i| Box::new(move || i * i + 1) as Box<dyn FnOnce() -> u64 + Send>)
            .collect()
    };
    let mut sim = Session::new(SimulatedBackend::new(pilot_config(1)));
    let sim_out = sim.execute_batch(
        "w",
        ResourceRequest::cores(1),
        SimDuration::from_secs(3),
        works(),
    );
    let mut threaded = Session::new(ThreadedBackend::new(pilot_config(1)));
    let thr_out = threaded.execute_batch(
        "w",
        ResourceRequest::cores(1),
        SimDuration::from_secs(3),
        works(),
    );
    let mut sharded = Session::new(ShardedBackend::new(pilot_config(1)));
    let sha_out = sharded.execute_batch(
        "w",
        ResourceRequest::cores(1),
        SimDuration::from_secs(3),
        works(),
    );
    assert_eq!(sim_out, thr_out);
    assert_eq!(sim_out, sha_out);
    assert_eq!(sim_out, (0..12).map(|i| i * i + 1).collect::<Vec<u64>>());
}

/// The serialized parity workload exports *byte-identical* virtual-clock
/// Chrome traces on all three engines: the sequential oracle, the sharded
/// parallel-DES engine, and real threads under the paced clock. This is
/// the strongest cross-engine statement the telemetry layer can make —
/// every span boundary, name, and argument at the same virtual
/// microsecond, serialized to the same bytes.
#[test]
fn three_engines_export_byte_identical_virtual_traces() {
    use impress_bench::trace::{parity_trace_on, ParityBackend};
    let sim = parity_trace_on(ParityBackend::Simulated, 0xbeef, 6);
    let sharded = parity_trace_on(ParityBackend::Sharded, 0xbeef, 6);
    let threaded = parity_trace_on(ParityBackend::Threaded, 0xbeef, 6);
    assert!(!sim.is_empty() && sim.contains("traceEvents"));
    assert_eq!(sim, sharded, "sharded engine's virtual trace diverged");
    assert_eq!(sim, threaded, "threaded engine's virtual trace diverged");
}

/// The default engine runs the heartbeat failure detector as a lane (one
/// round event per tick, arrivals and checks folded unless observable);
/// the sequential engine keeps one event per send, arrival and check and
/// is the oracle. Under drops, duplicates, jitter, a partition and node
/// crashes both must tell the same story: the same completion stream and
/// the same control-plane counters, heartbeats included. (The 256-case
/// random differential lives in `impress-pilot`; this is its fixed-seed
/// anchor in the root package.)
#[test]
fn sharded_lane_matches_event_per_heartbeat_oracle() {
    let campaign = |seed: u64, sharded: bool| {
        let mut faults = FaultConfig::none();
        faults.task_failure_rate = 0.05;
        faults.scripted_crashes = vec![
            ScriptedCrash {
                node: 5,
                at: SimTime::from_micros(150_000_000),
                outage: SimDuration::from_secs(120),
            },
            ScriptedCrash {
                node: 9,
                at: SimTime::from_micros(400_000_000),
                outage: SimDuration::from_secs(60),
            },
        ];
        faults.link.drop_rate = 0.15;
        faults.link.duplicate_rate = 0.1;
        faults.link.delay = SimDuration::from_millis(40);
        faults.link.jitter = SimDuration::from_millis(30);
        faults.link.reorder_rate = 0.1;
        faults.link.partitions = vec![ScriptedPartition {
            first_node: 0,
            last_node: 3,
            at: SimTime::from_micros(200_000_000),
            duration: SimDuration::from_secs(90),
        }];
        faults.link.heartbeat_interval = Some(SimDuration::from_secs(5));
        faults.link.heartbeat_timeout = Some(SimDuration::from_secs(20));
        let runtime = RuntimeConfig::new(PilotConfig {
            node: NodeSpec::new(4, 1, 64),
            nodes: 16,
            bootstrap: SimDuration::from_secs(30),
            exec_setup_per_task: SimDuration::from_secs(2),
            ..PilotConfig::with_seed(seed)
        })
        .faults(FaultPlan::new(faults, seed), RetryPolicy::retries(3));
        let mut backend: Box<dyn ExecutionBackend> = if sharded {
            Box::new(runtime.sharded())
        } else {
            Box::new(runtime.simulated())
        };
        for i in 0..160u64 {
            backend.submit(TaskDescription::new(
                format!("t{i}"),
                ResourceRequest::with_gpus(1 + (i % 3) as u32, (i % 2) as u32),
                SimDuration::from_secs(20 + (i * 37) % 200),
            ));
        }
        let mut stream = Vec::new();
        while let Some(done) = backend.next_completion() {
            stream.push((
                done.task,
                done.finished,
                done.attempts,
                done.hedged,
                format!("{:?}", done.result.map(|_| ())),
            ));
        }
        (stream, backend.control_stats())
    };
    for seed in [3, 11, 2025] {
        let (oracle_stream, oracle_stats) = campaign(seed, false);
        let (lane_stream, lane_stats) = campaign(seed, true);
        assert_eq!(oracle_stream.len(), 160);
        assert!(
            oracle_stats.suspicions > 0
                && oracle_stats.resyncs > 0
                && oracle_stats.lease_expiries > 0,
            "seed {seed}: the partition must exercise the detector: {oracle_stats:?}"
        );
        assert_eq!(
            lane_stream, oracle_stream,
            "seed {seed}: completion stream diverged"
        );
        assert_eq!(
            lane_stats, oracle_stats,
            "seed {seed}: control-plane counters diverged"
        );
    }
}

/// A full design pipeline produces the same accepted design on both
/// backends: the protocol's RNG discipline is event-order independent.
#[test]
fn design_pipeline_science_is_backend_independent() {
    let target = named_pdz_domains(42).remove(0);
    let config = ProtocolConfig::imrp(5);

    let run_on = |threaded: bool| {
        let tk = TargetToolkit::for_target(&target, 7);
        if threaded {
            let backend = ThreadedBackend::new(pilot_config(5));
            let mut c = Coordinator::new(backend, NoDecisions);
            c.add_pipeline(Box::new(DesignPipeline::root(tk, config.clone(), 0)));
            c.run();
            c.outcomes()[0].1.clone()
        } else {
            let backend = SimulatedBackend::new(pilot_config(5));
            let mut c = Coordinator::new(backend, NoDecisions);
            c.add_pipeline(Box::new(DesignPipeline::root(tk, config.clone(), 0)));
            c.run();
            c.outcomes()[0].1.clone()
        }
    };

    let sim = run_on(false);
    let thr = run_on(true);
    assert_eq!(sim.final_receptor, thr.final_receptor);
    assert_eq!(sim.iterations, thr.iterations);
    assert_eq!(sim.total_evaluations, thr.total_evaluations);
}

/// Per-replica RNG streams (`fork_idx` off a task-local root) are a pure
/// function of seed and index, never of scheduling order — so both backends
/// see identical streams even though the threaded one runs closures
/// concurrently, in whatever order the OS schedules them.
#[test]
fn forked_rng_streams_agree_across_backends() {
    use impress_sim::SimRng;

    let works = || -> Vec<Box<dyn FnOnce() -> u64 + Send>> {
        (0..16u64)
            .map(|i| {
                Box::new(move || {
                    let mut rng = SimRng::from_seed(99).fork_idx("replica", i);
                    rng.next_u64() ^ rng.below(1000) as u64
                }) as Box<dyn FnOnce() -> u64 + Send>
            })
            .collect()
    };
    let mut sim = Session::new(SimulatedBackend::new(pilot_config(4)));
    let sim_out = sim.execute_batch(
        "rng",
        ResourceRequest::cores(1),
        SimDuration::from_secs(2),
        works(),
    );
    let mut threaded = Session::new(ThreadedBackend::new(pilot_config(4)));
    let thr_out = threaded.execute_batch(
        "rng",
        ResourceRequest::cores(1),
        SimDuration::from_secs(2),
        works(),
    );
    assert_eq!(sim_out, thr_out);
    // And against a plain sequential evaluation, proving independence from
    // any backend at all.
    let direct: Vec<u64> = works().into_iter().map(|w| w()).collect();
    assert_eq!(sim_out, direct);
}

/// Placement-order parity: random full-node workloads with random
/// priorities execute in the *same order* on every backend. Full-node
/// requests serialize execution, so the order work closures run is exactly
/// the scheduler's placement order — observable even on real threads.
/// Nothing is placed before the first `next_completion`, so the scheduler
/// sees the identical queue everywhere before its first decision.
mod placement_order_parity {
    use super::*;
    use impress_sim::props;
    use std::sync::{Arc, Mutex};

    /// Run `priorities.len()` full-node tasks and return the order their
    /// work closures executed in.
    fn run_order(backend: &mut dyn ExecutionBackend, priorities: &[i32]) -> Vec<u64> {
        let node = PilotConfig::with_seed(0).node;
        let full = ResourceRequest::with_gpus(node.cores, node.gpus);
        let order = Arc::new(Mutex::new(Vec::new()));
        for (i, &p) in priorities.iter().enumerate() {
            let order = order.clone();
            backend.submit(
                TaskDescription::new(
                    format!("t{i}"),
                    full,
                    SimDuration::from_secs(10 + 7 * i as u64),
                )
                .with_priority(p)
                .with_work(move || order.lock().expect("order lock").push(i as u64)),
            );
        }
        while backend.next_completion().is_some() {}
        let order = order.lock().expect("order lock").clone();
        assert_eq!(order.len(), priorities.len(), "every task ran exactly once");
        order
    }

    props! {
        /// The oracle workload shape (random priorities, FIFO within a
        /// class) replayed through all three execution backends.
        fn both_backends_execute_in_identical_placement_order(rng, cases = 24) {
            let n = 3 + rng.below(10);
            let priorities: Vec<i32> =
                (0..n).map(|_| rng.below(7) as i32 - 3).collect();
            let seed = rng.next_u64();
            let mut sim = SimulatedBackend::new(pilot_config(seed));
            let sim_order = run_order(&mut sim, &priorities);
            let mut thr = ThreadedBackend::new(pilot_config(seed));
            let thr_order = run_order(&mut thr, &priorities);
            let mut sha = ShardedBackend::new(pilot_config(seed));
            let sha_order = run_order(&mut sha, &priorities);
            assert_eq!(
                sim_order, thr_order,
                "placement order diverged for priorities {priorities:?}"
            );
            assert_eq!(
                sim_order, sha_order,
                "sharded placement order diverged for priorities {priorities:?}"
            );
            // And both match the scheduler contract directly: stable sort
            // of submission order by descending priority.
            let mut expected: Vec<u64> = (0..n as u64).collect();
            expected.sort_by_key(|&i| std::cmp::Reverse(priorities[i as usize]));
            assert_eq!(sim_order, expected, "priority order violated");
        }
    }
}

/// Gray failures with hedging off are bit-identical across all three
/// engines: scripted slowdown windows dilate the modeled clock by exactly
/// the same microseconds whether virtual time is replayed sequentially,
/// sharded, or paced under real threads.
mod slowdown_parity {
    use super::*;
    use impress_pilot::{FaultConfig, FaultPlan, RetryPolicy, RuntimeConfig, ScriptedSlowdown};
    use impress_sim::{props, SimTime};
    use impress_telemetry::{chrome_trace_filtered, SpanCat, Telemetry, TraceClock};

    /// Drive `durations.len()` full-node tasks and export the
    /// virtual-clock Chrome trace plus the final virtual clock. Scheduler
    /// spans are filtered: how many placement rounds a driver runs per
    /// instant is backend mechanics.
    fn run_traced(
        mut backend: Box<dyn ExecutionBackend>,
        durations: &[u64],
        recorder: impress_telemetry::TraceRecorder,
    ) -> (String, u64) {
        let node = PilotConfig::with_seed(0).node;
        let full = ResourceRequest::with_gpus(node.cores, node.gpus);
        for (i, &secs) in durations.iter().enumerate() {
            backend.submit(
                TaskDescription::new(format!("t{i}"), full, SimDuration::from_secs(secs))
                    .with_work(move || i),
            );
        }
        while let Some(c) = backend.next_completion() {
            assert!(c.result.is_ok());
        }
        let trace = chrome_trace_filtered(&recorder.events(), TraceClock::Virtual, |cat| {
            cat != SpanCat::Scheduler
        });
        (impress_json::to_string(&trace), backend.now().as_micros())
    }

    props! {
        /// Random serialized workloads under random degradation schedules,
        /// replayed through all three execution engines. Hedging and
        /// quarantine stay off — this is the hedging-off bit-identity
        /// guarantee the pinned artifacts rely on, now holding with
        /// slowdown windows biting.
        fn slowdown_windows_dilate_identically_on_all_three_engines(rng, cases = 12) {
            let n = 3 + rng.below(8);
            let durations: Vec<u64> = (0..n).map(|_| 5 + rng.below(300) as u64).collect();
            let total_nominal: u64 = durations.iter().sum::<u64>();
            let seed = rng.next_u64();
            let mut fc = FaultConfig::none();
            for _ in 0..1 + rng.below(3) {
                fc.scripted_slowdowns.push(ScriptedSlowdown {
                    node: 0,
                    at: SimTime::from_micros(rng.below(total_nominal as usize) as u64 * 1_000_000),
                    duration: SimDuration::from_secs(10 + rng.below(400) as u64),
                    factor: 2.0 + rng.below(18) as f64,
                });
            }
            let run = |make: &dyn Fn(RuntimeConfig) -> Box<dyn ExecutionBackend>| {
                let (telemetry, recorder) = Telemetry::recording(1 << 16);
                let rt = RuntimeConfig::new(pilot_config(seed))
                    .faults(FaultPlan::new(fc.clone(), seed ^ 0x51), RetryPolicy::none())
                    .telemetry(telemetry);
                run_traced(make(rt), &durations, recorder)
            };
            let sim = run(&|rt| Box::new(rt.simulated()));
            let sha = run(&|rt| Box::new(rt.sharded()));
            let thr = run(&|rt| Box::new(rt.threaded()));
            assert_eq!(sim, sha, "sharded slowdown dilation diverged");
            assert_eq!(sim, thr, "threaded slowdown dilation diverged");
            // The node is busy continuously from bootstrap to the last
            // completion and every window starts inside that busy span, so
            // the degradation must actually have stretched the campaign.
            assert!(
                sim.1 > (1 + total_nominal) * 1_000_000,
                "no slowdown window dilated anything"
            );
        }
    }
}

/// The threaded backend honors GPU slot limits under real concurrency:
/// at most `gpus` GPU tasks may hold slots at once.
#[test]
fn threaded_backend_enforces_gpu_slots() {
    use std::sync::atomic::{AtomicI32, Ordering};
    use std::sync::Arc;

    let active = Arc::new(AtomicI32::new(0));
    let peak = Arc::new(AtomicI32::new(0));
    let mut cfg = pilot_config(3);
    cfg.node = impress_pilot::NodeSpec::new(16, 2, 64);
    let mut session = Session::new(ThreadedBackend::new(cfg));
    for i in 0..8 {
        let active = active.clone();
        let peak = peak.clone();
        session.submit(
            TaskDescription::new(
                format!("gpu{i}"),
                ResourceRequest::with_gpus(1, 1),
                SimDuration::from_secs(1),
            )
            .with_work(move || {
                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(30));
                active.fetch_sub(1, Ordering::SeqCst);
            }),
        );
    }
    let completions = session.drain();
    assert_eq!(completions.len(), 8);
    let peak = peak.load(Ordering::SeqCst);
    assert!(peak <= 2, "GPU oversubscription: peak {peak} > 2 slots");
    assert!(
        peak >= 2,
        "expected the two GPUs to actually run concurrently"
    );
}

/// Utilization accounting exists and is sane on both backends.
#[test]
fn utilization_reports_are_sane_on_both_backends() {
    let run = |mut session: Session<Box<dyn ExecutionBackend>>| {
        for _ in 0..4 {
            session.submit(
                TaskDescription::new("t", ResourceRequest::cores(2), SimDuration::from_secs(10))
                    .with_work(|| std::thread::sleep(std::time::Duration::from_millis(20))),
            );
        }
        session.drain();
        *session.observe().utilization()
    };
    // Box the backends behind the trait to prove object safety, too.
    let sim: Box<dyn ExecutionBackend> = Box::new(SimulatedBackend::new(pilot_config(2)));
    let thr: Box<dyn ExecutionBackend> = Box::new(ThreadedBackend::new(pilot_config(2)));
    let sha: Box<dyn ExecutionBackend> = Box::new(ShardedBackend::new(pilot_config(2)));
    for (label, backend) in [("sim", sim), ("threaded", thr), ("sharded", sha)] {
        let report = run(Session::new(backend));
        assert_eq!(report.tasks, 4, "{label}");
        assert!(
            report.cpu > 0.0 && report.cpu <= 1.0,
            "{label}: {}",
            report.cpu
        );
    }
}
