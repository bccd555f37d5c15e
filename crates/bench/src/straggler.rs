//! The straggler study (beyond the paper, "Fig. 7"): gray-failure
//! mitigation on a degraded cluster.
//!
//! The resilience study stresses *binary* faults — crashes, outages,
//! transient task failures. Shared allocations more often degrade than
//! die: a node keeps accepting work but runs everything it hosts several
//! times slower, and a poisoned lineage fails deterministically no matter
//! where it lands. This harness sweeps slowdown severity (healthy / 4x /
//! 10x / 20x on two of eight nodes) × hedging policy (off / k=2 / k=3) ×
//! poison-task quarantine (off / on) on the simulated backend, and reports
//! makespan, utilization, retry waste, hedge waste, and lineage verdicts
//! per cell.
//!
//! Poison tasks are modeled as walltime-doomed lineages: their modeled
//! span exceeds their walltime limit, so every attempt on every node is
//! killed at the limit — the deterministic-failure analogue the
//! quarantine policy exists to catch.

use crate::study::Size;
use impress_json::Json;
use impress_pilot::{
    ExecutionBackend, FaultConfig, FaultPlan, HedgePolicy, NodeSpec, PilotConfig, PlacementPolicy,
    QuarantinePolicy, ResourceRequest, RetryPolicy, RuntimeConfig, ScriptedSlowdown,
    TaskDescription, TaskError,
};
use impress_sim::{SimDuration, SimTime};

/// Format version stamped into `straggler.json`; the study table pins it
/// so a schema change without regeneration fails `cargo test`.
pub(crate) const STRAGGLER_FORMAT_VERSION: u32 = 1;

/// Slowdown severity axis: runtime multiplier on the degraded nodes
/// (1.0 = healthy, no windows injected).
const SEVERITIES: [(&str, f64); 4] = [("healthy", 1.0), ("4x", 4.0), ("10x", 10.0), ("20x", 20.0)];

/// Hedging axis: straggler threshold `k`, or off.
const HEDGES: [(&str, Option<f64>); 3] = [("off", None), ("k2", Some(2.0)), ("k3", Some(3.0))];

/// Quarantine axis: off, or poisoned after 2 distinct-node failures with
/// the per-shape breaker tripping once half the poison cohort is proven.
const QUARANTINES: [(&str, bool); 2] = [("off", false), ("on", true)];

/// Knobs of one study run; [`StudyParams::paper`] is the checked-in
/// artifact, [`StudyParams::smoke`] a seconds-scale tier-1 variant.
#[derive(Debug, Clone)]
struct StudyParams {
    /// Cluster width.
    nodes: u32,
    /// Cores per node (CPU-only study).
    cores_per_node: u32,
    /// Nodes 0..slow_nodes carry the slowdown windows.
    slow_nodes: u32,
    /// Healthy single-core design tasks.
    design_tasks: usize,
    /// Walltime-doomed two-core poison lineages.
    poison_tasks: usize,
    /// Shortest design-task modeled runtime, seconds.
    task_secs_base: u64,
    /// Design-task runtimes spread deterministically over
    /// `[base, base + spread)`.
    task_secs_spread: u64,
    /// Walltime limit on poison tasks (their modeled span is 4× this, so
    /// every attempt expires).
    poison_walltime_secs: u64,
    /// Retry budget burnt by unquarantined poison lineages.
    retry_budget: u32,
    /// Poisoned lineages of the poison shape before the breaker sheds it.
    shape_trip: u32,
    /// Pilot bootstrap, seconds.
    bootstrap_secs: u64,
    /// Per-task execution setup, seconds.
    exec_setup_secs: u64,
}

impl StudyParams {
    /// The checked-in artifact's shape: 8 × 8-core nodes, two of them
    /// degraded, 200 design tasks and 6 poison lineages.
    fn paper() -> Self {
        StudyParams {
            nodes: 8,
            cores_per_node: 8,
            slow_nodes: 2,
            design_tasks: 200,
            poison_tasks: 6,
            task_secs_base: 480,
            task_secs_spread: 241,
            poison_walltime_secs: 300,
            retry_budget: 6,
            shape_trip: 3,
            bootstrap_secs: 120,
            exec_setup_secs: 10,
        }
    }

    /// A seconds-scale variant exercising every code path under
    /// `cargo test`.
    fn smoke() -> Self {
        StudyParams {
            nodes: 4,
            cores_per_node: 4,
            slow_nodes: 1,
            design_tasks: 24,
            poison_tasks: 2,
            task_secs_base: 480,
            task_secs_spread: 241,
            poison_walltime_secs: 300,
            retry_budget: 4,
            shape_trip: 1,
            bootstrap_secs: 120,
            exec_setup_secs: 10,
        }
    }

    /// Core-seconds one poison attempt burns: two cores held for exec
    /// setup plus the walltime limit.
    fn poison_attempt_core_seconds(&self) -> f64 {
        2.0 * (self.exec_setup_secs + self.poison_walltime_secs) as f64
    }
}

/// Measured outcome of one grid cell.
struct CellResult {
    severity: &'static str,
    factor: f64,
    hedge: &'static str,
    quarantine: &'static str,
    makespan_secs: f64,
    cpu: f64,
    completed: usize,
    retries: usize,
    wasted_core_seconds: f64,
    hedges: usize,
    hedge_wasted_core_seconds: f64,
    poisoned: usize,
    shed: usize,
    timed_out: usize,
}

fn run_cell(
    p: &StudyParams,
    severity: (&'static str, f64),
    hedge: (&'static str, Option<f64>),
    quarantine: (&'static str, bool),
    seed: u64,
) -> CellResult {
    let config = PilotConfig {
        node: NodeSpec::new(p.cores_per_node, 0, 64),
        nodes: p.nodes,
        policy: PlacementPolicy::Backfill,
        bootstrap: SimDuration::from_secs(p.bootstrap_secs),
        exec_setup_per_task: SimDuration::from_secs(p.exec_setup_secs),
        seed,
    };
    let mut fc = FaultConfig::none();
    if severity.1 > 1.0 {
        // Persistently degraded nodes: one window per slow node covering
        // the whole campaign.
        for node in 0..p.slow_nodes {
            fc.scripted_slowdowns.push(ScriptedSlowdown {
                node,
                at: SimTime::ZERO,
                duration: SimDuration::from_hours(48),
                factor: severity.1,
            });
        }
    }
    let mut rt = RuntimeConfig::new(config).faults(
        FaultPlan::new(fc, seed ^ 0x57A6),
        RetryPolicy::retries(p.retry_budget),
    );
    if let Some(k) = hedge.1 {
        rt = rt.hedge(HedgePolicy::k(k));
    }
    if quarantine.1 {
        rt = rt.quarantine(QuarantinePolicy::distinct(2).with_shape_trip(p.shape_trip));
    }
    let mut backend = rt.simulated();
    for i in 0..p.design_tasks {
        let secs = p.task_secs_base + (i as u64 * 37) % p.task_secs_spread;
        backend.submit(TaskDescription::new(
            format!("design-{i}"),
            ResourceRequest::cores(1),
            SimDuration::from_secs(secs),
        ));
    }
    for i in 0..p.poison_tasks {
        backend.submit(
            TaskDescription::new(
                format!("poison-{i}"),
                ResourceRequest::cores(2),
                SimDuration::from_secs(4 * p.poison_walltime_secs),
            )
            .with_walltime(SimDuration::from_secs(p.poison_walltime_secs)),
        );
    }
    let (mut completed, mut poisoned, mut shed, mut timed_out) = (0, 0, 0, 0);
    while let Some(done) = backend.next_completion() {
        match done.failure() {
            None => completed += 1,
            Some(TaskError::Poisoned { .. }) => poisoned += 1,
            Some(TaskError::ShapeCircuitOpen { .. }) => shed += 1,
            Some(TaskError::TimedOut { .. }) => timed_out += 1,
            // Spelled out (no catch-all) so a new error variant forces a
            // decision here instead of silently panicking a bench run.
            Some(
                e @ (TaskError::Canceled
                | TaskError::Injected
                | TaskError::NodeCrashed { .. }
                | TaskError::LeaseExpired { .. }
                | TaskError::WorkPanicked(_)),
            ) => panic!("unexpected failure in the straggler study: {e}"),
        }
    }
    let u = backend.utilization();
    CellResult {
        severity: severity.0,
        factor: severity.1,
        hedge: hedge.0,
        quarantine: quarantine.0,
        makespan_secs: u.makespan.as_secs_f64(),
        cpu: u.cpu,
        completed,
        retries: u.retries,
        wasted_core_seconds: u.wasted_core_seconds,
        hedges: u.hedges,
        hedge_wasted_core_seconds: u.hedge_wasted_core_seconds,
        poisoned,
        shed,
        timed_out,
    }
}

fn cell<'a>(rows: &'a [CellResult], s: &str, h: &str, q: &str) -> &'a CellResult {
    rows.iter()
        .find(|r| r.severity == s && r.hedge == h && r.quarantine == q)
        .expect("grid cell present")
}

/// Run the full grid and assemble the `straggler.json` document.
///
/// The `acceptance` section restates the study's two claims as measured
/// numbers: hedging at k=2 recovers the majority of the makespan a
/// 10x-slowdown tail costs, and quarantine bounds the core-seconds a
/// poisoned lineage can burn to `distinct_nodes × attempt cost`.
pub(crate) fn run(size: Size, seed: u64) -> Json {
    let p = &match size {
        Size::Paper => StudyParams::paper(),
        Size::Smoke => StudyParams::smoke(),
    };
    let mut rows = Vec::new();
    for severity in SEVERITIES {
        for hedge in HEDGES {
            for quarantine in QUARANTINES {
                rows.push(run_cell(p, severity, hedge, quarantine, seed));
            }
        }
    }

    // Tail-recovery claim, measured with quarantine on in every arm so the
    // poison cohort's retry ladder does not mask the straggler tail.
    let healthy = cell(&rows, "healthy", "off", "on").makespan_secs;
    let tail = cell(&rows, "10x", "off", "on").makespan_secs;
    let hedged = cell(&rows, "10x", "k2", "on").makespan_secs;
    let lost = tail - healthy;
    let recovered = if lost > 0.0 {
        (tail - hedged) / lost
    } else {
        0.0
    };

    // Poison-waste claim: with quarantine on, every cell's retry waste —
    // design tasks never fail, so it is all poison waste — stays under
    // `lineages × distinct_nodes × attempt cost`.
    let waste_bound = p.poison_tasks as f64 * 2.0 * p.poison_attempt_core_seconds();
    let quarantined_waste = cell(&rows, "healthy", "off", "on").wasted_core_seconds;
    let unquarantined_waste = cell(&rows, "healthy", "off", "off").wasted_core_seconds;
    let bounded_everywhere = rows
        .iter()
        .filter(|r| r.quarantine == "on")
        .all(|r| r.wasted_core_seconds <= waste_bound + 1e-6);

    let acceptance = Json::object()
        .field("makespan_healthy_secs", healthy)
        .field("makespan_10x_unhedged_secs", tail)
        .field("makespan_10x_k2_secs", hedged)
        .field("tail_loss_secs", lost)
        .field("k2_recovered_fraction", recovered)
        .field("k2_recovers_majority", recovered >= 0.5)
        .field("poison_waste_bound_core_seconds", waste_bound)
        .field("quarantined_waste_core_seconds", quarantined_waste)
        .field("unquarantined_waste_core_seconds", unquarantined_waste)
        .field("quarantine_bounds_poison_waste", bounded_everywhere)
        .build();

    let json_rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::object()
                .field("severity", r.severity)
                .field("factor", r.factor)
                .field("hedge", r.hedge)
                .field("quarantine", r.quarantine)
                .field("makespan_secs", r.makespan_secs)
                .field("cpu", r.cpu)
                .field("completed", r.completed)
                .field("retries", r.retries)
                .field("wasted_core_seconds", r.wasted_core_seconds)
                .field("hedges", r.hedges)
                .field("hedge_wasted_core_seconds", r.hedge_wasted_core_seconds)
                .field("poisoned", r.poisoned)
                .field("shed", r.shed)
                .field("timed_out", r.timed_out)
                .build()
        })
        .collect();

    Json::object()
        .field("format_version", STRAGGLER_FORMAT_VERSION)
        .field("seed", seed)
        .field("nodes", p.nodes)
        .field("cores_per_node", p.cores_per_node)
        .field("slow_nodes", p.slow_nodes)
        .field("design_tasks", p.design_tasks)
        .field("poison_tasks", p.poison_tasks)
        .field("poison_walltime_secs", p.poison_walltime_secs)
        .field("retry_budget", p.retry_budget)
        .field("acceptance", acceptance)
        .field("rows", Json::array(json_rows))
        .build()
}
