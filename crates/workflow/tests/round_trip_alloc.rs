//! Allocation pins for a task's round trip through the coordinator and the
//! pilot.
//!
//! 1. **A warm single-task stage costs at most 3 allocations a task**:
//!    through `Coordinator` on `SimulatedBackend`, a stage allocates what
//!    the API hands over — the `Vec` of `Step::run`, the work output box,
//!    the batch given to `stage_done`, which the stage buffer allocates
//!    when the stage opens and hands over in place — and the amortized
//!    growth of the run's logs rounds to nothing. The placement list and
//!    the profiler's task record allocate nothing of their own.
//! 2. **A warm `place_ready_into` allocates nothing**: the same saturated
//!    placement cycle as `impress-pilot`'s `zero_alloc.rs`, placing into a
//!    buffer the caller drains and reuses.
//! 3. **Retiring a lease frees its inbox**: completions queued for a lease
//!    leave with their storage when the lease retires.
//! 4. **Journaling a known task shape adds one allocation a task**: the
//!    same warm chain with a write-ahead journal that compacts every 64
//!    records. A stage whose task shape is already in the journal's table
//!    costs its record one list of ids, which the replay plan keeps; the
//!    framing buffers and the two compaction lines are reused, so a warm
//!    compaction allocates only when the snapshot outgrows them.
//! 5. **A service campaign allocates at most 12 times of its own**: 2,000
//!    campaigns of two three-stage chains, submitted to one
//!    `CampaignService` and run dry. Beside what the API hands over (each
//!    pipeline's name, and a stage's three above), a campaign costs its
//!    boxed coordinator, that coordinator's tables (its ledger, pipeline
//!    slots, routes and the lists it stages submissions and starts in),
//!    its outcome list and its lease's id map and inbox.
//!
//! This is a dedicated test binary with a single `#[test]`: the probe's
//! counters are process-global, so a second concurrent test would bleed
//! allocations into the measurement.

use impress_pilot::backend::SimulatedBackend;
use impress_pilot::{
    Completion, ExecutionBackend, NodeSpec, PilotConfig, PlacementPolicy, ResourceRequest,
    Scheduler, SharedCluster, TaskDescription, TaskId,
};
use impress_sim::alloc_probe::CountingAlloc;
use impress_sim::SimDuration;
use impress_workflow::service::{CampaignService, CampaignSpec, TenantId, TenantQuota};
use impress_workflow::{
    Coordinator, Journal, JournalError, JournalStore, NoDecisions, PipelineLogic, Step,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// `stages` single-task stages, then done.
struct Chain {
    stages: u32,
}

impl Chain {
    fn next(&mut self) -> Step<u32> {
        if self.stages == 0 {
            return Step::Complete(0);
        }
        self.stages -= 1;
        Step::run(
            TaskDescription::new("link", ResourceRequest::cores(1), SimDuration::from_secs(5))
                .with_work(|| 1u64),
        )
    }
}

impl PipelineLogic<u32> for Chain {
    fn name(&self) -> String {
        "chain".into()
    }
    fn begin(&mut self) -> Step<u32> {
        self.next()
    }
    fn stage_done(&mut self, _: Vec<Completion>) -> Step<u32> {
        self.next()
    }
}

/// A store that keeps nothing, so the window counts the journal's own
/// allocations and not a medium's.
struct Discard;

impl JournalStore for Discard {
    fn append(&self, _: &str) -> Result<(), JournalError> {
        Ok(())
    }
    fn lines(&self) -> Result<Vec<String>, JournalError> {
        Ok(Vec::new())
    }
    fn rewrite(&self, _: &[String]) -> Result<(), JournalError> {
        Ok(())
    }
}

fn pilot(cores: u32) -> PilotConfig {
    PilotConfig {
        node: NodeSpec::new(cores, 0, 64),
        nodes: 1,
        policy: PlacementPolicy::Backfill,
        bootstrap: SimDuration::from_secs(1),
        exec_setup_per_task: SimDuration::ZERO,
        seed: 0,
    }
}

#[test]
fn a_warm_round_trip_allocates_only_what_the_api_hands_over() {
    // --- Pin 1: one task per stage through the coordinator -------------
    const WARM: u32 = 2_000;
    const MEASURED: u32 = 2_000;
    let mut coordinator = Coordinator::new(SimulatedBackend::new(pilot(4)), NoDecisions);
    coordinator.add_pipeline(Box::new(Chain {
        stages: WARM + MEASURED,
    }));
    // Each step routes one completion: one task, one stage.
    for _ in 0..WARM {
        assert!(coordinator.step());
    }
    let (allocs, ()) = ALLOC.measure(|| {
        for _ in 0..MEASURED {
            assert!(coordinator.step());
        }
    });
    let per_task = allocs as f64 / f64::from(MEASURED);
    assert!(
        per_task < 3.005,
        "a warm single-task stage allocates {per_task:.3} times a task, more than 3.00"
    );
    assert!(!coordinator.step(), "the chain ends after its last stage");
    assert_eq!(coordinator.outcomes().len(), 1);

    // --- Pin 2: placement into a reused buffer ---------------------------
    const CYCLES: u64 = 20_000;
    let mut scheduler = Scheduler::new(NodeSpec::new(4, 0, 64));
    let mut placed = Vec::new();
    scheduler.enqueue(TaskId(0), ResourceRequest::cores(1));
    scheduler.place_ready_into(&mut placed); // one core gone for good
    assert_eq!(placed.len(), 1);
    placed.clear();
    scheduler.enqueue(TaskId(1), ResourceRequest::cores(4)); // never fits
    let mut next = 2u64;
    let mut cycle = |scheduler: &mut Scheduler, placed: &mut Vec<_>| {
        for _ in 0..CYCLES {
            scheduler.enqueue(TaskId(next), ResourceRequest::cores(1));
            next += 1;
            scheduler.place_ready_into(placed);
            let (_, allocation) = placed.pop().expect("three cores are free");
            assert!(placed.is_empty(), "the four-core request failed again");
            scheduler.release_owned(allocation);
        }
    };
    cycle(&mut scheduler, &mut placed); // warm
    let (allocs, ()) = ALLOC.measure(|| cycle(&mut scheduler, &mut placed));
    assert_eq!(allocs, 0, "placing into a warm buffer allocates nothing");

    // --- Pin 3: a retired lease frees its inbox --------------------------
    const QUEUED: u64 = 256;
    let cluster = SharedCluster::new(SimulatedBackend::new(pilot(64)));
    let mut long = cluster.lease(cluster.open_account());
    let mut short = cluster.lease(cluster.open_account());
    long.submit(TaskDescription::new(
        "long",
        ResourceRequest::cores(1),
        SimDuration::from_secs(60),
    ));
    for _ in 0..QUEUED {
        short.submit(TaskDescription::new(
            "short",
            ResourceRequest::cores(1),
            SimDuration::from_secs(1),
        ));
    }
    // Waiting on the long task pumps every short one into its inbox.
    assert!(long.next_completion().is_some());
    assert_eq!(short.in_flight() as u64, QUEUED, "all queued, none taken");
    let before = ALLOC.live_bytes();
    short.retire();
    let freed = before.saturating_sub(ALLOC.live_bytes());
    let inbox = QUEUED * std::mem::size_of::<Completion>() as u64;
    assert!(
        freed >= inbox,
        "retiring freed {freed} bytes; its {QUEUED} queued completions alone held {inbox}"
    );

    // --- Pin 4: the same chain, journaled -------------------------------
    let journal = Journal::new(Box::new(Discard), "chain", 0)
        .unwrap()
        .with_snapshot_interval(64);
    let mut coordinator =
        Coordinator::new(SimulatedBackend::new(pilot(4)), NoDecisions).with_journal(journal);
    coordinator.add_pipeline(Box::new(Chain {
        stages: WARM + MEASURED,
    }));
    for _ in 0..WARM {
        assert!(coordinator.step());
    }
    let (allocs, ()) = ALLOC.measure(|| {
        for _ in 0..MEASURED {
            assert!(coordinator.step());
        }
    });
    let journaled = allocs as f64 / f64::from(MEASURED);
    assert!(
        journaled <= per_task + 1.05,
        "journaling a known shape costs {:.2} allocations a task, more than 1",
        journaled - per_task
    );
    assert!(coordinator.journal().unwrap().snapshots_taken() >= 60);
    assert!(!coordinator.step());

    // --- Pin 5: a service campaign's own allocations ---------------------
    const CAMPAIGNS: usize = 2_000;
    const PIPELINES: u32 = 2;
    const STAGES: u32 = 3;
    let mut service: CampaignService<u32, _> =
        CampaignService::new(SimulatedBackend::new(pilot(64)));
    let tenant = TenantId::new("t");
    service.register_tenant(tenant.clone(), TenantQuota::unmetered(CAMPAIGNS));
    let specs: Vec<CampaignSpec<u32>> = (0..CAMPAIGNS)
        .map(|_| {
            (0..PIPELINES).fold(CampaignSpec::new("c"), |spec, _| {
                spec.root(Box::new(Chain { stages: STAGES }))
            })
        })
        .collect();
    let (allocs, ()) = ALLOC.measure(|| {
        for spec in specs {
            service.submit(&tenant, spec).expect("unmetered");
        }
        service.run();
    });
    assert_eq!(service.campaigns_finished(), CAMPAIGNS);
    // Handed over: a pipeline's name, and a stage's `Step::run` list, its
    // task's output box and its batch.
    let handed_over = PIPELINES * (1 + 3 * STAGES);
    let own = allocs as f64 / CAMPAIGNS as f64 - f64::from(handed_over);
    assert!(
        own <= 12.0,
        "a service campaign allocates {own:.2} times of its own, more than 12"
    );
}
