//! Failure injection: crashing tasks must degrade the run gracefully —
//! lineage aborts, decision-engine restart, coordinator completes — never
//! poison the middleware.
//!
//! Every scenario runs on BOTH backends: the deterministic simulated pilot
//! and the real-thread pilot (whose completions arrive in whatever order
//! true concurrency produces).

use impress_core::adaptive::{AdaptivePolicy, ImpressDecision};
use impress_core::generator::SequenceGenerator;
use impress_core::{DesignPipeline, ProtocolConfig, TargetToolkit};
use impress_pilot::backend::{SimulatedBackend, ThreadedBackend};
use impress_pilot::{
    ExecutionBackend, FaultConfig, FaultPlan, LinkFaultsError, PilotConfig, ResourceRequest,
    RetryPolicy, RuntimeConfig, ScriptedCrash, TaskDescription,
};
use impress_proteins::datasets::named_pdz_domains;
use impress_proteins::{MpnnConfig, ScoredSequence, Structure, SurrogateMpnn};
use impress_sim::{SimDuration, SimRng, SimTime};
use impress_workflow::{Coordinator, NoDecisions};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A generator that panics on its `fail_on`-th call, then behaves normally
/// (simulating a transient crash — bad node, OOM kill).
struct FlakyGenerator {
    inner: SurrogateMpnn,
    calls: AtomicU32,
    fail_on: u32,
}

impl SequenceGenerator for FlakyGenerator {
    fn name(&self) -> &str {
        "flaky-mpnn"
    }
    fn generate(
        &self,
        structure: &Structure,
        config: &MpnnConfig,
        rng: &mut SimRng,
    ) -> Vec<ScoredSequence> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if call == self.fail_on {
            panic!("injected generator crash on call {call}");
        }
        self.inner.sample(structure, config, rng)
    }
}

fn flaky_toolkit(
    target: &impress_proteins::datasets::DesignTarget,
    fail_on: u32,
) -> Arc<TargetToolkit> {
    TargetToolkit::with_generator(
        target,
        7,
        Arc::new(FlakyGenerator {
            inner: SurrogateMpnn::new(target.landscape.clone()),
            calls: AtomicU32::new(0),
            fail_on,
        }),
    )
}

fn scenario_crashed_task_aborts<B: ExecutionBackend>(backend: B) {
    let target = &named_pdz_domains(3)[0];
    let tk = flaky_toolkit(target, 2); // crash in cycle 2
    let mut c = Coordinator::new(backend, NoDecisions);
    c.add_pipeline(Box::new(DesignPipeline::root(
        tk,
        ProtocolConfig::imrp(3),
        0,
    )));
    let report = c.run();
    assert_eq!(report.aborted_pipelines, 1);
    assert!(c.outcomes().is_empty());
    assert!(
        c.aborts()[0].1.contains("injected generator crash"),
        "{}",
        c.aborts()[0].1
    );
}

#[test]
fn crashed_task_aborts_the_lineage_not_the_coordinator() {
    scenario_crashed_task_aborts(SimulatedBackend::new(PilotConfig::with_seed(3)));
}

#[test]
fn crashed_task_aborts_the_lineage_not_the_coordinator_threaded() {
    scenario_crashed_task_aborts(ThreadedBackend::new(PilotConfig::with_seed(3)));
}

fn scenario_decision_engine_restarts<B: ExecutionBackend>(backend: B) {
    let targets = named_pdz_domains(5);
    let target = &targets[0];
    // Toolkit whose generator crashes exactly once (first call), so the
    // restarted pipeline succeeds.
    let tk = flaky_toolkit(target, 1);
    let config = ProtocolConfig::imrp(5);
    let decision = ImpressDecision::new(config.clone(), AdaptivePolicy::default(), [tk.clone()]);
    let mut c = Coordinator::new(backend, decision);
    c.add_pipeline(Box::new(DesignPipeline::root(tk, config, 0)));
    let report = c.run();

    assert_eq!(report.aborted_pipelines, 1, "the crash aborts the root");
    assert!(
        report.sub_pipelines >= 1,
        "the engine must restart the target"
    );
    // The restart must have produced a real outcome for the same target.
    let restarted: Vec<_> = c
        .outcomes()
        .iter()
        .filter(|(_, o)| o.label.contains("restart"))
        .collect();
    assert!(!restarted.is_empty(), "no restart outcome found");
    assert!(!restarted[0].1.iterations.is_empty());
    assert_eq!(restarted[0].1.target, target.name);
}

#[test]
fn decision_engine_restarts_crashed_lineages() {
    scenario_decision_engine_restarts(SimulatedBackend::new(PilotConfig::with_seed(5)));
}

#[test]
fn decision_engine_restarts_crashed_lineages_threaded() {
    scenario_decision_engine_restarts(ThreadedBackend::new(PilotConfig::with_seed(5)));
}

fn scenario_unrelated_pipelines_survive<B: ExecutionBackend>(backend: B) {
    let targets = named_pdz_domains(9);
    let mut c = Coordinator::new(backend, NoDecisions);
    // Pipeline 0 crashes; pipelines 1 and 2 are healthy.
    c.add_pipeline(Box::new(DesignPipeline::root(
        flaky_toolkit(&targets[0], 1),
        ProtocolConfig::imrp(9),
        0,
    )));
    for (i, target) in targets.iter().enumerate().skip(1).take(2) {
        c.add_pipeline(Box::new(DesignPipeline::root(
            TargetToolkit::for_target(target, 7),
            ProtocolConfig::imrp(9),
            i as u64,
        )));
    }
    let report = c.run();
    assert_eq!(report.aborted_pipelines, 1);
    assert_eq!(c.outcomes().len(), 2, "healthy pipelines complete");
    for (_, o) in c.outcomes() {
        assert!(!o.iterations.is_empty());
    }
}

#[test]
fn unrelated_pipelines_survive_a_crash() {
    scenario_unrelated_pipelines_survive(SimulatedBackend::new(PilotConfig::with_seed(9)));
}

#[test]
fn unrelated_pipelines_survive_a_crash_threaded() {
    scenario_unrelated_pipelines_survive(ThreadedBackend::new(PilotConfig::with_seed(9)));
}

/// The tentpole acceptance scenario: a node crash mid-campaign must not
/// lose the run — evicted residents are requeued by the retry machinery and
/// every pipeline completes. Runs on both backends.
fn scenario_node_crash_mid_campaign<B: ExecutionBackend>(backend: B) {
    let targets = named_pdz_domains(13);
    let mut c = Coordinator::new(backend, NoDecisions);
    for (i, target) in targets.iter().enumerate().take(2) {
        c.add_pipeline(Box::new(DesignPipeline::root(
            TargetToolkit::for_target(target, 7),
            ProtocolConfig::imrp(13),
            i as u64,
        )));
    }
    let report = c.run();
    assert_eq!(report.aborted_pipelines, 0, "retries must absorb the crash");
    assert_eq!(c.outcomes().len(), 2, "both pipelines complete");
    for (_, o) in c.outcomes() {
        assert!(!o.iterations.is_empty());
    }
    assert!(
        report.task_retries >= 1,
        "the crash must actually have evicted at least one task"
    );
    assert!(report.wasted_core_seconds > 0.0);
}

fn retry_no_backoff(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        ..RetryPolicy::none()
    }
}

#[test]
fn node_crash_mid_campaign_is_absorbed_simulated() {
    let pilot = PilotConfig::with_seed(13);
    let plan = FaultPlan::new(
        FaultConfig {
            // One crash three virtual hours in, while MSA/AF2 work is dense.
            scripted_crashes: vec![ScriptedCrash {
                node: 0,
                at: SimTime::ZERO + SimDuration::from_hours(3),
                outage: SimDuration::from_mins(20),
            }],
            ..FaultConfig::none()
        },
        13,
    );
    scenario_node_crash_mid_campaign(
        RuntimeConfig::new(pilot)
            .faults(plan, retry_no_backoff(3))
            .simulated(),
    );
}

#[test]
fn node_crash_mid_campaign_is_absorbed_threaded() {
    let pilot = PilotConfig::with_seed(13);
    // The virtual campaign runs tens of hours; at 1e-5 scale that is a
    // couple of real seconds. Real concurrency makes the exact crash
    // instants nondeterministic, so script a few crash windows across the
    // busy phase — any one of them evicting a mid-sleep worker satisfies
    // the retry assertions. The windows are spaced farther apart than any
    // single task runs, so no task can be mowed down by every crash and
    // exhaust its budget.
    let crashes = [3u64, 10, 17]
        .iter()
        .map(|h| ScriptedCrash {
            node: 0,
            at: SimTime::ZERO + SimDuration::from_hours(*h),
            outage: SimDuration::from_mins(10),
        })
        .collect();
    let plan = FaultPlan::new(
        FaultConfig {
            scripted_crashes: crashes,
            ..FaultConfig::none()
        },
        13,
    );
    scenario_node_crash_mid_campaign(
        RuntimeConfig::new(pilot)
            .time_scale(1e-5)
            .faults(plan, retry_no_backoff(5))
            .threaded(),
    );
}

/// A failure detector that cannot be realized is a typed error where the
/// fault plan is made, not a hang: a zero heartbeat interval used to
/// reschedule its own tick inside one instant forever (one submitted task,
/// `next_completion` never returned), and an interval without a timeout
/// silently ran the control plane with the detector off.
#[test]
fn unrealizable_failure_detector_is_a_typed_error() {
    let plan = |interval: Option<u64>, timeout: Option<u64>| {
        let mut config = FaultConfig::none();
        config.link.heartbeat_interval = interval.map(SimDuration::from_secs);
        config.link.heartbeat_timeout = timeout.map(SimDuration::from_secs);
        FaultPlan::try_new(config, 5)
    };
    assert_eq!(
        plan(Some(0), Some(30)).err(),
        Some(LinkFaultsError::ZeroHeartbeatInterval)
    );
    assert_eq!(
        plan(Some(0), Some(0)).err(),
        Some(LinkFaultsError::ZeroHeartbeatInterval)
    );
    assert_eq!(
        plan(Some(5), Some(0)).err(),
        Some(LinkFaultsError::ZeroHeartbeatTimeout)
    );
    assert_eq!(
        plan(Some(5), None).err(),
        Some(LinkFaultsError::HeartbeatIntervalWithoutTimeout)
    );
    assert_eq!(
        plan(None, Some(30)).err(),
        Some(LinkFaultsError::HeartbeatTimeoutWithoutInterval)
    );
    assert!(plan(None, None).is_ok());

    // What passes runs: the hang's repro with a realizable interval.
    let plan = plan(Some(5), Some(30)).expect("a realizable detector");
    let mut backend = RuntimeConfig::new(PilotConfig::with_seed(5))
        .faults(plan, RetryPolicy::none())
        .sharded();
    backend.submit(TaskDescription::new(
        "t",
        ResourceRequest::cores(1),
        SimDuration::from_secs(60),
    ));
    let done = backend.next_completion().expect("the task completes");
    assert!(done.result.is_ok());
    assert!(backend.next_completion().is_none());
    assert!(backend.control_stats().heartbeats_sent > 0);
}

/// The constructor without a `Result` fails loudly on the same input.
#[test]
#[should_panic(expected = "heartbeat_interval is zero")]
fn fault_plan_new_refuses_a_zero_heartbeat_interval() {
    let mut config = FaultConfig::none();
    config.link.heartbeat_interval = Some(SimDuration::ZERO);
    config.link.heartbeat_timeout = Some(SimDuration::from_secs(30));
    let _ = FaultPlan::new(config, 5);
}
