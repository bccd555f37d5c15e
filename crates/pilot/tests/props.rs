//! Property-based tests for the pilot runtime: no oversubscription and full
//! completion under arbitrary task streams. Runs on the in-repo `props!`
//! harness; the scheduler's device conservation and the crash windows'
//! shape are properties of their modules' unit tests.

use impress_pilot::backend::SimulatedBackend;
use impress_pilot::{
    ExecutionBackend, FaultConfig, FaultPlan, NodeSpec, PilotConfig, ResourceRequest, RetryPolicy,
    RuntimeConfig, ScriptedCrash, TaskDescription,
};
use impress_sim::{props, SimDuration, SimRng, SimTime};

#[derive(Debug, Clone)]
struct TaskSpec {
    cores: u32,
    gpus: u32,
    secs: u64,
}

fn arb_tasks(rng: &mut SimRng, max_cores: u32, max_gpus: u32) -> Vec<TaskSpec> {
    let len = 1 + rng.below(59);
    (0..len)
        .map(|_| TaskSpec {
            cores: 1 + rng.below(max_cores as usize) as u32,
            gpus: rng.below(max_gpus as usize + 1) as u32,
            secs: 1 + rng.below(499) as u64,
        })
        .collect()
}

props! {
    /// Every submitted task completes exactly once on the simulated backend,
    /// and no device class is busy for more than the makespan.
    fn simulated_backend_completes_everything(rng, cases = 64) {
        let tasks = arb_tasks(rng, 6, 2);
        let mut backend = SimulatedBackend::new(PilotConfig {
            node: NodeSpec::new(6, 2, 64),
            bootstrap: SimDuration::from_secs(5),
            exec_setup_per_task: SimDuration::from_secs(1),
            ..PilotConfig::default()
        });
        let n = tasks.len();
        for (i, t) in tasks.iter().enumerate() {
            backend.submit(TaskDescription::new(
                format!("t{i}"),
                ResourceRequest::with_gpus(t.cores, t.gpus),
                SimDuration::from_secs(t.secs),
            ));
        }
        let mut seen = std::collections::HashSet::new();
        while let Some(c) = backend.next_completion() {
            assert!(seen.insert(c.task), "duplicate completion for {}", c.task);
            assert!(c.finished >= c.started);
        }
        assert_eq!(seen.len(), n);
        assert_eq!(backend.in_flight(), 0);
        let report = backend.utilization();
        assert!(report.cpu <= 1.0 + 1e-9);
        assert!(report.gpu_slot <= 1.0 + 1e-9);
        assert!(report.gpu_hardware <= report.gpu_slot + 1e-9);
    }

    /// Makespan lower bounds: no schedule beats the critical-path and
    /// total-work bounds.
    fn makespan_respects_work_bounds(rng, cases = 64) {
        let tasks = arb_tasks(rng, 4, 1);
        let cores = 4u64;
        let mut backend = SimulatedBackend::new(PilotConfig {
            node: NodeSpec::new(cores as u32, 1, 64),
            bootstrap: SimDuration::ZERO,
            exec_setup_per_task: SimDuration::ZERO,
            ..PilotConfig::default()
        });
        for (i, t) in tasks.iter().enumerate() {
            backend.submit(TaskDescription::new(
                format!("t{i}"),
                ResourceRequest::with_gpus(t.cores, t.gpus),
                SimDuration::from_secs(t.secs),
            ));
        }
        while backend.next_completion().is_some() {}
        let makespan = backend.now().as_secs_f64();
        let longest = tasks.iter().map(|t| t.secs).max().unwrap() as f64;
        let core_work: u64 = tasks.iter().map(|t| t.secs * t.cores as u64).sum();
        assert!(makespan + 1e-6 >= longest, "makespan {makespan} < longest task {longest}");
        assert!(
            makespan + 1e-6 >= core_work as f64 / cores as f64,
            "makespan {makespan} beats total-work bound"
        );
    }

    /// Under arbitrary injected faults (transient failures, hangs, node
    /// crashes, walltime limits) and an arbitrary retry budget, every
    /// submission still reaches exactly one terminal completion, no attempt
    /// count ever exceeds the budget, and the backend drains clean.
    fn faulted_backend_always_terminates_within_budget(rng, cases = 48) {
        let tasks = arb_tasks(rng, 6, 2);
        let budget = rng.below(4) as u32;
        let faults = FaultConfig {
            task_failure_rate: rng.uniform() * 0.6,
            task_hang_rate: rng.uniform() * 0.3,
            node_mtbf: if rng.chance(0.5) {
                Some(SimDuration::from_secs(300 + rng.below(1500) as u64))
            } else {
                None
            },
            node_outage: SimDuration::from_secs(30 + rng.below(300) as u64),
            ..FaultConfig::none()
        };
        let seed = rng.next_u64();
        let config = PilotConfig {
            node: NodeSpec::new(6, 2, 64),
            nodes: 2,
            bootstrap: SimDuration::from_secs(5),
            exec_setup_per_task: SimDuration::from_secs(1),
            seed,
            ..PilotConfig::default()
        };
        let plan = FaultPlan::new(faults, seed);
        let mut backend = RuntimeConfig::new(config)
            .faults(plan, RetryPolicy::retries(budget))
            .simulated();
        let n = tasks.len();
        for (i, t) in tasks.iter().enumerate() {
            let mut desc = TaskDescription::new(
                format!("t{i}"),
                ResourceRequest::with_gpus(t.cores, t.gpus),
                SimDuration::from_secs(t.secs),
            );
            // A third of the tasks get a walltime tight enough that a hang
            // (×8 dilation) blows it, exercising the timeout path.
            if i % 3 == 0 {
                desc = desc.with_walltime(SimDuration::from_secs(t.secs * 2 + 10));
            }
            backend.submit(desc);
        }
        let mut seen = std::collections::HashSet::new();
        while let Some(c) = backend.next_completion() {
            assert!(seen.insert(c.task), "duplicate completion for {}", c.task);
            assert!(
                c.attempts <= budget,
                "task {} used {} retries, budget {budget}",
                c.task,
                c.attempts
            );
            assert!(c.finished >= c.started);
        }
        assert_eq!(seen.len(), n, "every submission must terminate");
        assert_eq!(backend.in_flight(), 0);
        let report = backend.utilization();
        assert!(report.cpu <= 1.0 + 1e-9, "cpu occupancy {} > 1", report.cpu);
        assert!(report.gpu_slot <= 1.0 + 1e-9);
        assert!(report.retries <= n * budget as usize);
        assert!(report.wasted_core_seconds >= 0.0);
        assert!(report.wasted_gpu_seconds >= 0.0);
    }

    /// Requeued tasks never double-occupy slots: across arbitrary scripted
    /// node crashes the scheduler's pool stays conserved (its internal
    /// asserts fire on any double grant) and utilization — which counts
    /// wasted attempts as busy time — never exceeds 1.0.
    fn crash_requeue_preserves_slot_conservation(rng, cases = 48) {
        let tasks = arb_tasks(rng, 4, 1);
        let nodes = 2 + rng.below(2) as u32;
        let seed = rng.next_u64();
        // 1–3 scripted crashes per run, anywhere in the first simulated hour.
        let scripted = (0..1 + rng.below(3))
            .map(|_| ScriptedCrash {
                node: rng.below(nodes as usize) as u32,
                at: SimTime::ZERO + SimDuration::from_secs(10 + rng.below(3600) as u64),
                outage: SimDuration::from_secs(20 + rng.below(600) as u64),
            })
            .collect();
        let faults = FaultConfig {
            scripted_crashes: scripted,
            ..FaultConfig::none()
        };
        let config = PilotConfig {
            node: NodeSpec::new(4, 1, 64),
            nodes,
            bootstrap: SimDuration::from_secs(5),
            exec_setup_per_task: SimDuration::from_secs(1),
            seed,
            ..PilotConfig::default()
        };
        let mut backend = RuntimeConfig::new(config)
            .faults(FaultPlan::new(faults, seed), RetryPolicy::retries(6))
            .simulated();
        let n = tasks.len();
        for (i, t) in tasks.iter().enumerate() {
            backend.submit(TaskDescription::new(
                format!("t{i}"),
                ResourceRequest::with_gpus(t.cores, t.gpus),
                SimDuration::from_secs(t.secs),
            ));
        }
        let mut seen = std::collections::HashSet::new();
        while let Some(c) = backend.next_completion() {
            assert!(seen.insert(c.task), "duplicate completion for {}", c.task);
        }
        assert_eq!(seen.len(), n);
        assert_eq!(backend.in_flight(), 0);
        let report = backend.utilization();
        assert!(
            report.cpu <= 1.0 + 1e-9,
            "requeue double-occupied cores: occupancy {}",
            report.cpu
        );
        assert!(report.gpu_slot <= 1.0 + 1e-9);
    }
}
