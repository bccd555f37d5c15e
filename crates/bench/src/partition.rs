//! The partition study (beyond the paper, "Fig. 8"): control-plane
//! resilience under message-layer faults.
//!
//! The straggler and resilience studies stress compute faults — crashes,
//! slowdowns, poisoned lineages. This harness stresses the *message layer*
//! between the coordinator and the nodes: dropped, duplicated and delayed
//! control traffic, plus scripted coordinator↔node-group partitions. It
//! sweeps loss rate (drop + duplication) × partition duration × heartbeat
//! timeout on the simulated backend and certifies two claims as measured
//! numbers:
//!
//! 1. **Exactly-once effects.** At every swept drop/duplication rate, the
//!    at-least-once control plane plus idempotent dedup keeps effects
//!    exactly-once end to end: every task settles exactly once at the
//!    backend, every pipeline reaches exactly one terminal journal record,
//!    and the decision engine observes each pipeline terminal exactly once.
//! 2. **Detection recovers the partition tail.** A healed 60 s partition
//!    with the heartbeat failure detector on recovers ≥ 90 % of the
//!    makespan lost relative to detection disabled: suspected nodes are
//!    evicted, their leases expire, and the trapped work reruns on
//!    reachable nodes instead of waiting for the heal.

use crate::study::Size;
use impress_json::Json;
use impress_pilot::{
    ExecutionBackend, FaultConfig, FaultPlan, NodeSpec, PilotConfig, PlacementPolicy,
    ResourceRequest, RetryPolicy, RuntimeConfig, ScriptedPartition, TaskDescription,
};
use impress_sim::{SimDuration, SimTime};
use impress_workflow::decision::Spawn;
use impress_workflow::{
    load_plan, Coordinator, CoordinatorView, DecisionEngine, Journal, LinearPipeline,
    MemoryJournal, PipelineId,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Format version stamped into `partition.json`; the study table pins it
/// so a schema change without regeneration fails `cargo test`.
pub(crate) const PARTITION_FORMAT_VERSION: u32 = 1;

/// Loss axis: symmetric per-message drop and duplication rates.
const LOSSES: [(&str, f64); 3] = [("lossless", 0.0), ("lossy", 0.15), ("brutal", 0.3)];

/// Partition-duration axis, seconds (0 = no partition).
const DURATIONS: [(&str, u64); 4] = [("none", 0), ("20s", 20), ("60s", 60), ("120s", 120)];

/// Failure-detector axis: `(heartbeat interval, suspicion timeout)` in
/// seconds, or off.
const TIMEOUTS: [(&str, Option<(f64, f64)>); 3] = [
    ("off", None),
    ("t2", Some((0.5, 2.0))),
    ("t6", Some((1.5, 6.0))),
];

/// Knobs of one study run; [`StudyParams::paper`] is the checked-in
/// artifact, [`StudyParams::smoke`] a milliseconds-scale tier-1 variant.
#[derive(Debug, Clone)]
struct StudyParams {
    /// Cluster width.
    nodes: u32,
    /// Cores per node (CPU-only study).
    cores_per_node: u32,
    /// Single-core design tasks in the recovery grid.
    tasks: usize,
    /// Modeled task runtime, seconds.
    task_secs: u64,
    /// First node (inclusive) on the far side of the partition.
    partition_first_node: u32,
    /// Last node (inclusive) on the far side of the partition.
    partition_last_node: u32,
    /// When the partition opens, seconds (mid first wave).
    partition_at_secs: u64,
    /// Pilot bootstrap, seconds.
    bootstrap_secs: u64,
    /// Per-task execution setup, seconds.
    exec_setup_secs: u64,
    /// Root pipelines in the delivery (exactly-once) campaign.
    pipelines: usize,
    /// Sequential stages per delivery pipeline.
    stages_per_pipeline: usize,
}

impl StudyParams {
    /// The checked-in artifact's shape: 6 × 4-core nodes, the first wave
    /// loads nodes 0–3, the partition severs nodes 2–3, nodes 4–5 stay
    /// free as rerun capacity.
    fn paper() -> Self {
        StudyParams {
            nodes: 6,
            cores_per_node: 4,
            tasks: 16,
            task_secs: 5,
            partition_first_node: 2,
            partition_last_node: 3,
            partition_at_secs: 12,
            bootstrap_secs: 10,
            exec_setup_secs: 1,
            pipelines: 6,
            stages_per_pipeline: 3,
        }
    }

    /// A smaller variant exercising every code path under `cargo test`.
    fn smoke() -> Self {
        StudyParams {
            nodes: 4,
            cores_per_node: 4,
            tasks: 8,
            task_secs: 5,
            partition_first_node: 1,
            partition_last_node: 1,
            partition_at_secs: 12,
            bootstrap_secs: 10,
            exec_setup_secs: 1,
            pipelines: 3,
            stages_per_pipeline: 2,
        }
    }

    fn pilot(&self, seed: u64) -> PilotConfig {
        PilotConfig {
            node: NodeSpec::new(self.cores_per_node, 0, 64),
            nodes: self.nodes,
            policy: PlacementPolicy::Backfill,
            bootstrap: SimDuration::from_secs(self.bootstrap_secs),
            exec_setup_per_task: SimDuration::from_secs(self.exec_setup_secs),
            seed,
        }
    }

    /// Link config shared by every cell: small base delay (senders
    /// retransmit every second), loss and detector knobs per the cell's
    /// axes.
    fn link(&self, drop: f64, duration_secs: u64, hb: Option<(f64, f64)>) -> FaultConfig {
        let mut fc = FaultConfig::none();
        fc.link.drop_rate = drop;
        fc.link.duplicate_rate = drop;
        fc.link.delay = SimDuration::from_micros(100_000);
        if duration_secs > 0 {
            fc.link.partitions = vec![ScriptedPartition {
                first_node: self.partition_first_node,
                last_node: self.partition_last_node,
                at: SimTime::from_micros(self.partition_at_secs * 1_000_000),
                duration: SimDuration::from_secs(duration_secs),
            }];
        }
        if let Some((interval, timeout)) = hb {
            fc.link.heartbeat_interval = Some(SimDuration::from_micros((interval * 1e6) as u64));
            fc.link.heartbeat_timeout = Some(SimDuration::from_micros((timeout * 1e6) as u64));
        }
        fc
    }

    /// Retry budget for lease-expired reruns: immediate requeue (no
    /// backoff) so the recovery measurement isolates detection latency.
    fn retry(&self) -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            backoff_base: SimDuration::ZERO,
            backoff_cap: SimDuration::ZERO,
            jitter: 0.0,
        }
    }
}

/// Measured outcome of one recovery-grid cell.
struct CellResult {
    loss: &'static str,
    drop_rate: f64,
    duration: &'static str,
    duration_secs: u64,
    detector: &'static str,
    makespan_secs: f64,
    completed: usize,
    duplicate_completions: usize,
    suspicions: u64,
    lease_expiries: u64,
    fenced_completions: u64,
    resyncs: u64,
    dedup_hits: u64,
    retransmits: u64,
}

fn run_cell(
    p: &StudyParams,
    loss: (&'static str, f64),
    duration: (&'static str, u64),
    detector: (&'static str, Option<(f64, f64)>),
    seed: u64,
) -> CellResult {
    let fc = p.link(loss.1, duration.1, detector.1);
    let mut backend = RuntimeConfig::new(p.pilot(seed))
        .faults(FaultPlan::new(fc, seed ^ 0x9A27), p.retry())
        .simulated();
    for i in 0..p.tasks {
        backend.submit(TaskDescription::new(
            format!("design-{i}"),
            ResourceRequest::cores(1),
            SimDuration::from_secs(p.task_secs),
        ));
    }
    let mut done = std::collections::HashSet::new();
    let (mut completed, mut duplicate_completions) = (0usize, 0usize);
    while let Some(c) = backend.next_completion() {
        assert!(
            c.result.is_ok(),
            "unexpected failure in the partition study: {:?}",
            c.result
        );
        if done.insert(c.task) {
            completed += 1;
        } else {
            duplicate_completions += 1;
        }
    }
    let st = backend.control_stats();
    CellResult {
        loss: loss.0,
        drop_rate: loss.1,
        duration: duration.0,
        duration_secs: duration.1,
        detector: detector.0,
        makespan_secs: backend.now().as_secs_f64(),
        completed,
        duplicate_completions,
        suspicions: st.suspicions,
        lease_expiries: st.lease_expiries,
        fenced_completions: st.fenced_completions,
        resyncs: st.resyncs,
        dedup_hits: st.dedup_hits,
        retransmits: st.retransmits,
    }
}

/// Records how often each pipeline's terminal events reach the decision
/// engine — the "DecisionEngine effects" half of the exactly-once claim.
#[derive(Default)]
struct EffectCounts {
    completes: HashMap<u64, u32>,
    aborts: HashMap<u64, u32>,
}

struct CountingDecisions {
    counts: Rc<RefCell<EffectCounts>>,
}

impl DecisionEngine<u64> for CountingDecisions {
    fn on_pipeline_complete(
        &mut self,
        id: PipelineId,
        _outcome: &u64,
        _view: &CoordinatorView<'_>,
    ) -> Vec<Spawn<u64>> {
        *self.counts.borrow_mut().completes.entry(id.0).or_insert(0) += 1;
        Vec::new()
    }

    fn on_pipeline_aborted(
        &mut self,
        id: PipelineId,
        _reason: &str,
        _view: &CoordinatorView<'_>,
    ) -> Vec<Spawn<u64>> {
        *self.counts.borrow_mut().aborts.entry(id.0).or_insert(0) += 1;
        Vec::new()
    }
}

/// Measured outcome of one delivery (exactly-once) campaign.
struct DeliveryResult {
    loss: &'static str,
    drop_rate: f64,
    pipelines_completed: usize,
    duplicate_decision_effects: u32,
    duplicate_journal_effects: usize,
    journal_tail_dropped: usize,
    coordinator_dedup_hits: u64,
    backend_dedup_hits: u64,
    backend_duplicates: u64,
    retransmits: u64,
}

/// Drive a journaled coordinator campaign under the given loss rate and
/// measure duplicate effects at the journal and decision-engine boundaries.
fn run_delivery(p: &StudyParams, loss: (&'static str, f64), seed: u64) -> DeliveryResult {
    let fc = p.link(loss.1, 0, None);
    let backend = RuntimeConfig::new(p.pilot(seed))
        .faults(FaultPlan::new(fc, seed ^ 0x9A27), p.retry())
        .simulated();
    let store = MemoryJournal::new();
    let journal =
        Journal::new(Box::new(store.clone()), "partition-study", seed).expect("fresh journal");
    let counts = Rc::new(RefCell::new(EffectCounts::default()));
    let mut c = Coordinator::new(
        backend,
        CountingDecisions {
            counts: counts.clone(),
        },
    )
    .with_journal(journal);
    let (task_secs, setup) = (p.task_secs, p.stages_per_pipeline);
    for i in 0..p.pipelines {
        let mut builder = LinearPipeline::named(format!("p{i}"));
        for s in 0..setup {
            builder = builder.stage(move |_prev| {
                vec![TaskDescription::new(
                    format!("p{i}s{s}"),
                    ResourceRequest::cores(1),
                    SimDuration::from_secs(task_secs),
                )
                .with_work(|| 1u64)]
            });
        }
        c.add_pipeline(Box::new(builder.finish(|prev| prev.len() as u64)));
    }
    c.run();
    let st = c.backend().control_stats();
    let coordinator_dedup_hits = c.dedup_hits();
    let pipelines_completed = c.outcomes().len();
    let loaded = load_plan(&store).expect("journal replays");
    // A duplicated journal effect would be a pipeline with more than one
    // terminal record; `ReplayPlan::apply` rejects the second one, which
    // surfaces as a dropped tail — so a fully consistent journal with one
    // terminal per pipeline proves zero duplicate journal effects.
    let duplicate_journal_effects = loaded
        .plan
        .pipelines
        .iter()
        .filter(|s| s.terminal.is_none())
        .count()
        + loaded.duplicates;
    let counts = counts.borrow();
    let duplicate_decision_effects: u32 = counts
        .completes
        .values()
        .chain(counts.aborts.values())
        .map(|&n| n.saturating_sub(1))
        .sum();
    DeliveryResult {
        loss: loss.0,
        drop_rate: loss.1,
        pipelines_completed,
        duplicate_decision_effects,
        duplicate_journal_effects,
        journal_tail_dropped: loaded.dropped,
        coordinator_dedup_hits,
        backend_dedup_hits: st.dedup_hits,
        backend_duplicates: st.duplicates,
        retransmits: st.retransmits,
    }
}

fn cell<'a>(rows: &'a [CellResult], l: &str, d: &str, t: &str) -> &'a CellResult {
    rows.iter()
        .find(|r| r.loss == l && r.duration == d && r.detector == t)
        .expect("grid cell present")
}

/// Run the full sweep and assemble the `partition.json` document.
pub(crate) fn run(size: Size, seed: u64) -> Json {
    let p = &match size {
        Size::Paper => StudyParams::paper(),
        Size::Smoke => StudyParams::smoke(),
    };
    let mut grid = Vec::new();
    for loss in LOSSES {
        for duration in DURATIONS {
            for detector in TIMEOUTS {
                grid.push(run_cell(p, loss, duration, detector, seed));
            }
        }
    }
    let delivery: Vec<DeliveryResult> = LOSSES.iter().map(|&l| run_delivery(p, l, seed)).collect();

    // Claim 1 — exactly-once effects at every swept loss rate: no task
    // settles twice anywhere in the grid, and the journaled coordinator
    // campaigns record each pipeline terminal exactly once at both the
    // journal and the decision-engine boundary.
    let grid_duplicates: usize = grid.iter().map(|r| r.duplicate_completions).sum();
    let all_completed = grid.iter().all(|r| r.completed == p.tasks);
    let delivery_duplicates: u32 = delivery
        .iter()
        .map(|d| d.duplicate_decision_effects + d.duplicate_journal_effects as u32)
        .sum();
    let delivery_complete = delivery
        .iter()
        .all(|d| d.pipelines_completed == p.pipelines && d.journal_tail_dropped == 0);
    let exactly_once =
        grid_duplicates == 0 && all_completed && delivery_duplicates == 0 && delivery_complete;

    // Claim 2 — detection recovers the 60 s partition tail, measured on
    // the lossless row so detection latency is the only variable.
    let clean = cell(&grid, "lossless", "none", "off").makespan_secs;
    let undetected = cell(&grid, "lossless", "60s", "off").makespan_secs;
    let detected = cell(&grid, "lossless", "60s", "t2").makespan_secs;
    let lost = undetected - clean;
    let recovered = if lost > 0.0 {
        (undetected - detected) / lost
    } else {
        0.0
    };

    let acceptance = Json::object()
        .field("grid_duplicate_completions", grid_duplicates as u64)
        .field("delivery_duplicate_effects", delivery_duplicates as u64)
        .field("exactly_once_at_every_rate", exactly_once)
        .field("makespan_clean_secs", clean)
        .field("makespan_60s_undetected_secs", undetected)
        .field("makespan_60s_detected_secs", detected)
        .field("partition_loss_secs", lost)
        .field("detection_recovered_fraction", recovered)
        .field("detection_recovers_90pct", recovered >= 0.9)
        .build();

    let grid_rows: Vec<Json> = grid
        .iter()
        .map(|r| {
            Json::object()
                .field("loss", r.loss)
                .field("drop_rate", r.drop_rate)
                .field("partition", r.duration)
                .field("partition_secs", r.duration_secs)
                .field("detector", r.detector)
                .field("makespan_secs", r.makespan_secs)
                .field("completed", r.completed)
                .field("duplicate_completions", r.duplicate_completions)
                .field("suspicions", r.suspicions)
                .field("lease_expiries", r.lease_expiries)
                .field("fenced_completions", r.fenced_completions)
                .field("resyncs", r.resyncs)
                .field("dedup_hits", r.dedup_hits)
                .field("retransmits", r.retransmits)
                .build()
        })
        .collect();
    let delivery_rows: Vec<Json> = delivery
        .iter()
        .map(|d| {
            Json::object()
                .field("loss", d.loss)
                .field("drop_rate", d.drop_rate)
                .field("pipelines_completed", d.pipelines_completed)
                .field("duplicate_decision_effects", d.duplicate_decision_effects)
                .field(
                    "duplicate_journal_effects",
                    d.duplicate_journal_effects as u64,
                )
                .field("journal_tail_dropped", d.journal_tail_dropped as u64)
                .field("coordinator_dedup_hits", d.coordinator_dedup_hits)
                .field("backend_dedup_hits", d.backend_dedup_hits)
                .field("backend_duplicates", d.backend_duplicates)
                .field("retransmits", d.retransmits)
                .build()
        })
        .collect();

    Json::object()
        .field("format_version", PARTITION_FORMAT_VERSION)
        .field("seed", seed)
        .field("nodes", p.nodes)
        .field("cores_per_node", p.cores_per_node)
        .field("tasks", p.tasks)
        .field("task_secs", p.task_secs)
        .field("partition_first_node", p.partition_first_node)
        .field("partition_last_node", p.partition_last_node)
        .field("partition_at_secs", p.partition_at_secs)
        .field("pipelines", p.pipelines)
        .field("stages_per_pipeline", p.stages_per_pipeline)
        .field("acceptance", acceptance)
        .field("grid", Json::array(grid_rows))
        .field("delivery", Json::array(delivery_rows))
        .build()
}
