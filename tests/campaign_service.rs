//! Multi-tenant campaign service, end to end: campaign outcomes under the
//! service are bit-identical to the same campaigns run serially with the
//! same seeds (isolation is real, not statistical); a single-campaign
//! service is behaviorally identical to a bare coordinator; and one
//! tenant's journaled campaign killed mid-run resumes — byte-identically —
//! in a fresh service while other tenants' campaigns run to completion.
//! Fair share is billed to per-tenant cluster accounts: a pinned digest
//! holds the stepping/boost/finish behaviour of an up-front weighted cell
//! fixed, and a props test checks usage conservation (account = sum of its
//! lease meters) under submits, cancels and preemption. Priority
//! preemption itself is checked on all three engines. Equal-weight
//! tenants share a contended cluster fairly (Jain index), and independent
//! journaled coordinators interleaved through `Coordinator::step()` each
//! behave as they do driven alone.

use impress_pilot::backend::{ExecutionBackend, SimulatedBackend};
use impress_pilot::{
    Completion, NodeSpec, PilotConfig, PlacementPolicy, ResourceRequest, RuntimeConfig,
    TaskDescription,
};
use impress_sim::{props, SimDuration, SimTime};
use impress_workflow::decision::Spawn;
use impress_workflow::journal::{load_plan, Journal, MemoryJournal};
use impress_workflow::service::{
    AdmissionError, CampaignHandle, CampaignService, CampaignSpec, CampaignStatus, TenantId,
    TenantQuota,
};
use impress_workflow::{
    BoxedPipeline, Coordinator, CoordinatorView, DecisionEngine, PipelineId, PipelineLogic, Step,
};
use std::cell::RefCell;
use std::rc::Rc;

fn pilot(cores: u32, nodes: u32) -> PilotConfig {
    PilotConfig {
        node: NodeSpec::new(cores, 2, 64),
        nodes,
        policy: PlacementPolicy::Backfill,
        bootstrap: SimDuration::from_secs(10),
        exec_setup_per_task: SimDuration::from_secs(1),
        seed: 0,
    }
}

/// A deterministic pipeline: `stages` sequential tasks whose durations and
/// outputs are pure functions of `seed`, outcome = sum of task outputs.
/// Timing-independent by construction, so outcomes must not change no
/// matter who shares the cluster.
struct Chain {
    seed: u64,
    stages: u64,
    step: u64,
    acc: u64,
}

impl Chain {
    fn new(seed: u64) -> Self {
        Chain {
            seed,
            stages: 1 + seed % 3,
            step: 0,
            acc: 0,
        }
    }

    fn boxed(seed: u64) -> BoxedPipeline<u64> {
        Box::new(Chain::new(seed))
    }

    fn next(&mut self) -> Step<u64> {
        if self.step == self.stages {
            return Step::Complete(self.acc);
        }
        self.step += 1;
        let (seed, step) = (self.seed, self.step);
        Step::run(
            TaskDescription::new(
                format!("chain-{seed}-{step}"),
                ResourceRequest::cores(1),
                SimDuration::from_secs(1 + (seed * 7 + step) % 5),
            )
            .with_work(move || seed.wrapping_mul(31).wrapping_add(step)),
        )
    }
}

impl PipelineLogic<u64> for Chain {
    fn name(&self) -> String {
        format!("chain-{}", self.seed)
    }
    fn begin(&mut self) -> Step<u64> {
        self.next()
    }
    fn stage_done(&mut self, completions: Vec<Completion>) -> Step<u64> {
        for c in completions {
            self.acc = self.acc.wrapping_add(c.output::<u64>());
        }
        self.next()
    }
}

/// An adaptive engine whose spawning decision is a pure function of
/// outcome values and lineage depth (never of timing, arrival order, or
/// cluster state): every completed pipeline whose outcome is divisible by
/// 3 spawns one child seeded from it, down to a fixed ancestry depth.
///
/// Depth — read off the registry's parent links — matters: a shared
/// mutable budget would leak *arrival order* into the outcome set, and
/// the order in which a campaign's own concurrent pipelines finish
/// legitimately shifts with cluster shape and neighbor load. This test
/// exists to prove neighbors cannot shift *what* a campaign computes, so
/// its decision logic must depend only on the (unordered) outcome set.
struct SpawnOnMultiples {
    max_depth: u32,
}

impl DecisionEngine<u64> for SpawnOnMultiples {
    fn on_pipeline_complete(
        &mut self,
        id: PipelineId,
        outcome: &u64,
        view: &CoordinatorView<'_>,
    ) -> Vec<Spawn<u64>> {
        let mut depth = 0;
        let mut cur = id;
        while let Some(parent) = view.parent(cur) {
            depth += 1;
            cur = parent;
        }
        if depth >= self.max_depth || !outcome.is_multiple_of(3) {
            return Vec::new();
        }
        vec![Spawn::sub_of(id, Chain::boxed(outcome / 3 + 1))]
    }
}

/// One campaign's identity: its root seeds and its spawn depth limit.
#[derive(Clone)]
struct Campaign {
    roots: Vec<u64>,
    max_depth: u32,
}

fn campaigns(n: u64) -> Vec<Campaign> {
    (0..n)
        .map(|i| Campaign {
            roots: (0..2 + i % 3).map(|r| i * 100 + r * 13).collect(),
            max_depth: 2,
        })
        .collect()
}

/// The order-insensitive fingerprint of a campaign's results: sorted
/// outcome values plus sorted abort reasons. Pipeline *ids* of spawned
/// sub-pipelines legitimately depend on cross-root completion order (which
/// neighbors may shift); values may not.
fn fingerprint(mut outcomes: Vec<u64>, mut aborts: Vec<String>) -> String {
    outcomes.sort_unstable();
    aborts.sort();
    format!("{outcomes:?}|{aborts:?}")
}

fn run_serial(c: &Campaign, cfg: PilotConfig) -> String {
    let mut coordinator = Coordinator::new(
        SimulatedBackend::new(cfg),
        SpawnOnMultiples {
            max_depth: c.max_depth,
        },
    );
    for &seed in &c.roots {
        coordinator.add_pipeline(Chain::boxed(seed));
    }
    coordinator.run();
    fingerprint(
        coordinator.outcomes().iter().map(|(_, o)| *o).collect(),
        coordinator
            .aborts()
            .iter()
            .map(|(_, r)| r.clone())
            .collect(),
    )
}

fn spec_for(c: &Campaign, name: &str) -> CampaignSpec<u64> {
    let mut spec = CampaignSpec::new(name).decision(Box::new(SpawnOnMultiples {
        max_depth: c.max_depth,
    }));
    for &seed in &c.roots {
        spec = spec.root(Chain::boxed(seed));
    }
    spec
}

/// The determinism props test: N concurrent campaigns under the service —
/// across several cluster shapes and tenant layouts — produce outcomes
/// bit-identical to the same N campaigns run serially with the same seeds.
#[test]
fn service_campaign_outcomes_are_bit_identical_to_serial_runs() {
    let all = campaigns(12);
    let serial: Vec<String> = all.iter().map(|c| run_serial(c, pilot(4, 1))).collect();

    // Layouts: (cluster cores/node, nodes, tenant count).
    for &(cores, nodes, tenants) in &[(4u32, 1u32, 1usize), (8, 2, 3), (2, 1, 12)] {
        let mut service: CampaignService<u64, _> =
            CampaignService::new(SimulatedBackend::new(pilot(cores, nodes)));
        let ids: Vec<TenantId> = (0..tenants)
            .map(|t| {
                let id = TenantId::new(format!("tenant-{t}"));
                service.register_tenant(id.clone(), TenantQuota::unmetered(64));
                id
            })
            .collect();
        let handles: Vec<_> = all
            .iter()
            .enumerate()
            .map(|(i, c)| {
                service
                    .submit(&ids[i % tenants], spec_for(c, &format!("c{i}")))
                    .expect("admitted")
            })
            .collect();
        service.run();
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(service.status(h), CampaignStatus::Completed);
            let r = service.take_result(h).expect("result");
            let got = fingerprint(
                r.outcomes.iter().map(|(_, o)| *o).collect(),
                r.aborts.iter().map(|(_, e)| e.clone()).collect(),
            );
            assert_eq!(
                got, serial[i],
                "campaign {i} diverged under {cores}x{nodes} cores, {tenants} tenants"
            );
        }
    }
}

/// A single-campaign service is behaviorally identical to a bare
/// coordinator on the same backend: same outcomes AND the same virtual
/// makespan (the service adds no timing perturbation when there is no
/// contention — fair-share boost is exactly 0 for a lone tenant).
#[test]
fn single_campaign_service_matches_a_bare_coordinator_exactly() {
    let c = Campaign {
        roots: vec![3, 14, 15],
        max_depth: 3,
    };
    let mut bare = Coordinator::new(
        SimulatedBackend::new(pilot(4, 1)),
        SpawnOnMultiples {
            max_depth: c.max_depth,
        },
    );
    for &seed in &c.roots {
        bare.add_pipeline(Chain::boxed(seed));
    }
    bare.run();
    let bare_now = bare.backend().now();
    let bare_fp = fingerprint(
        bare.outcomes().iter().map(|(_, o)| *o).collect(),
        Vec::new(),
    );

    let mut service: CampaignService<u64, _> =
        CampaignService::new(SimulatedBackend::new(pilot(4, 1)));
    let t = TenantId::new("solo");
    service.register_tenant(t.clone(), TenantQuota::unmetered(1));
    let h = service.submit(&t, spec_for(&c, "solo-c")).unwrap();
    service.run();
    let r = service.take_result(&h).unwrap();
    assert_eq!(
        fingerprint(r.outcomes.iter().map(|(_, o)| *o).collect(), Vec::new()),
        bare_fp
    );
    assert_eq!(
        service.now(),
        bare_now,
        "a lone campaign must see the exact same virtual timeline"
    );
}

/// Kill-and-resume under multi-tenancy: tenant A's journaled campaign is
/// killed mid-run (the kill switch panics out of the service, like an
/// allocation preemption taking the node down); a fresh service resumes A
/// from the surviving journal while tenants B and C run their campaigns to
/// completion, and A's outcomes are byte-identical to an uninterrupted
/// solo run.
#[test]
fn journaled_campaign_resumes_in_a_fresh_service_while_others_keep_running() {
    let a = Campaign {
        roots: vec![9, 21, 30, 45],
        max_depth: 3,
    };
    let b = Campaign {
        roots: vec![7, 11],
        max_depth: 1,
    };
    let c = Campaign {
        roots: vec![500, 501, 502],
        max_depth: 2,
    };
    let baseline = run_serial(&a, pilot(8, 1));

    // First life: A journaled with a kill switch, B and C along for the
    // ride. The kill panics out of `run`, taking the whole service with it
    // — exactly what a crashed allocation looks like.
    let store = MemoryJournal::new();
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut service: CampaignService<u64, _> =
            CampaignService::new(SimulatedBackend::new(pilot(8, 1)));
        for name in ["A", "B", "C"] {
            service.register_tenant(TenantId::new(name), TenantQuota::unmetered(8));
        }
        let journal = Journal::new(Box::new(store.clone()), "svc-A", 77)
            .expect("journal")
            .with_kill_after(10);
        service
            .submit(&TenantId::new("A"), spec_for(&a, "a").journal(journal))
            .unwrap();
        service
            .submit(&TenantId::new("B"), spec_for(&b, "b"))
            .unwrap();
        service
            .submit(&TenantId::new("C"), spec_for(&c, "c"))
            .unwrap();
        service.run();
    }));
    assert!(crashed.is_err(), "kill switch must fire mid-service");

    // Second life: resume A from the surviving journal; B and C restart
    // fresh (they were not journaled) and keep running alongside.
    let plan = load_plan(&store).expect("surviving journal must load").plan;
    let mut service: CampaignService<u64, _> =
        CampaignService::new(SimulatedBackend::new(pilot(8, 1)));
    for name in ["A", "B", "C"] {
        service.register_tenant(TenantId::new(name), TenantQuota::unmetered(8));
    }
    let ha = service
        .submit(&TenantId::new("A"), spec_for(&a, "a").resume_from(plan))
        .unwrap();
    let hb = service
        .submit(&TenantId::new("B"), spec_for(&b, "b"))
        .unwrap();
    let hc = service
        .submit(&TenantId::new("C"), spec_for(&c, "c"))
        .unwrap();
    service.run();
    for h in [&ha, &hb, &hc] {
        assert_eq!(service.status(h), CampaignStatus::Completed);
    }
    let ra = service.take_result(&ha).unwrap();
    assert_eq!(
        fingerprint(
            ra.outcomes.iter().map(|(_, o)| *o).collect(),
            ra.aborts.iter().map(|(_, e)| e.clone()).collect(),
        ),
        baseline,
        "resumed campaign must regenerate the uninterrupted outcomes"
    );
    // B and C finished on the shared cluster with real work delivered.
    assert!(service.take_result(&hb).unwrap().usage.core_seconds > 0.0);
    assert!(service.take_result(&hc).unwrap().usage.core_seconds > 0.0);
}

/// FNV-1a-64 over 64-bit words, for the pinned-behaviour digest below.
fn fnv1a_word(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fair-share behaviour, pinned rather than assumed: 240 campaigns over
/// five tenants of weights 1–4, all submitted at t = 0 on a 16-core
/// cluster, whole-second durations. The digest covers every campaign's
/// finish time and outcomes (ids included — they follow completion order)
/// plus each tenant's delivered core-seconds, and was computed at the
/// commit *before* usage and boost moved from leases to tenant accounts:
/// an all-submitted-up-front run must step, boost and finish exactly as it
/// did when fair share was recomputed lease by lease.
#[test]
fn weighted_cell_digest_is_pinned_across_the_account_refactor() {
    const WEIGHTS: [u32; 5] = [1, 2, 3, 4, 2];
    let all = campaigns(240);
    let mut service: CampaignService<u64, _> =
        CampaignService::new(SimulatedBackend::new(pilot(4, 4)));
    let ids: Vec<TenantId> = WEIGHTS
        .iter()
        .enumerate()
        .map(|(t, &w)| {
            let id = TenantId::new(format!("tenant-{t}"));
            service.register_tenant(id.clone(), TenantQuota::unmetered(240).with_weight(w));
            id
        })
        .collect();
    let handles: Vec<_> = all
        .iter()
        .enumerate()
        .map(|(i, c)| {
            service
                .submit(&ids[i % ids.len()], spec_for(c, &format!("c{i}")))
                .expect("admitted")
        })
        .collect();
    service.run();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for h in &handles {
        let r = service.take_result(h).expect("result");
        assert_eq!(r.status, CampaignStatus::Completed);
        digest = fnv1a_word(digest, (r.finished_at - r.submitted_at).as_micros());
        for (id, outcome) in &r.outcomes {
            digest = fnv1a_word(fnv1a_word(digest, id.0), *outcome);
        }
    }
    for id in &ids {
        let usage = service.tenant_usage(id).expect("registered");
        digest = fnv1a_word(digest, usage.core_seconds.to_bits());
    }
    assert_eq!(
        digest, 0x021d_8666_e1a0_1635,
        "weighted-cell behaviour moved: digest {digest:#018x}"
    );
}

/// `stages` sequential `secs`-second single-core tasks; outcome = stages run.
struct Long {
    stages: u64,
    secs: u64,
    done: u64,
}

impl Long {
    fn boxed(stages: u64, secs: u64) -> BoxedPipeline<u64> {
        Box::new(Long {
            stages,
            secs,
            done: 0,
        })
    }

    fn next(&mut self) -> Step<u64> {
        if self.done == self.stages {
            return Step::Complete(self.done);
        }
        self.done += 1;
        Step::run(
            TaskDescription::new(
                "long",
                ResourceRequest::cores(1),
                SimDuration::from_secs(self.secs),
            )
            .with_work(|| 0u64),
        )
    }
}

impl PipelineLogic<u64> for Long {
    fn name(&self) -> String {
        "long".into()
    }
    fn begin(&mut self) -> Step<u64> {
        self.next()
    }
    fn stage_done(&mut self, _: Vec<Completion>) -> Step<u64> {
        self.next()
    }
}

fn long_spec(name: &str, roots: usize, stages: u64, secs: u64) -> CampaignSpec<u64> {
    (0..roots).fold(CampaignSpec::new(name), |spec, _| {
        spec.root(Long::boxed(stages, secs))
    })
}

/// A pipeline that logs its tenant when it begins and completes at once.
struct Logged {
    tenant: &'static str,
    log: Rc<RefCell<Vec<&'static str>>>,
}

impl PipelineLogic<u64> for Logged {
    fn name(&self) -> String {
        self.tenant.into()
    }
    fn begin(&mut self) -> Step<u64> {
        self.log.borrow_mut().push(self.tenant);
        Step::Complete(0)
    }
    fn stage_done(&mut self, _: Vec<Completion>) -> Step<u64> {
        unreachable!("a logged pipeline submits nothing")
    }
}

/// Regression: a tenant registered between two pumps, when no campaign is
/// ready, started at virtual clock 0 rather than level with the tenants
/// already running, and so won every stepping tie until it had caught up
/// with their accumulated clocks. It starts at the lowest running clock:
/// three campaigns each, ready at once, alternate from the earlier
/// registration on.
#[test]
fn a_tenant_registered_between_pumps_starts_level_with_the_running_ones() {
    let mut service: CampaignService<u64, _> =
        CampaignService::new(SimulatedBackend::new(pilot(4, 1)));
    let (early, late) = (TenantId::new("early"), TenantId::new("late"));
    service.register_tenant(early.clone(), TenantQuota::unmetered(8));
    service
        .submit(&early, long_spec("long", 2, 20, 30))
        .expect("admitted");
    for _ in 0..40 {
        assert!(service.step());
    }
    service.register_tenant(late.clone(), TenantQuota::unmetered(8));
    let log = Rc::new(RefCell::new(Vec::new()));
    for c in 0..3 {
        for (id, tenant) in [(&early, "early"), (&late, "late")] {
            let root = Box::new(Logged {
                tenant,
                log: Rc::clone(&log),
            });
            let spec = CampaignSpec::new(format!("{tenant}-{c}")).root(root);
            service.submit(id, spec).expect("admitted");
        }
    }
    service.run();
    assert_eq!(
        *log.borrow(),
        ["early", "late", "early", "late", "early", "late"]
    );
}

/// Regression: `cancel` used to snapshot the lease's meter into the
/// tenant's spent total at cancel time, so whatever the campaign's running
/// tasks went on to occupy was never charged — `tenant_usage`, budget
/// admission and the fair-share ratio all under-counted. The tenant's
/// account is billed when a completion is pumped, whoever it was for.
#[test]
fn a_canceled_campaigns_late_usage_is_charged_to_its_tenant() {
    let mut service: CampaignService<u64, _> =
        CampaignService::new(SimulatedBackend::new(pilot(4, 1)));
    let (quitter, witness) = (TenantId::new("quitter"), TenantId::new("witness"));
    service.register_tenant(quitter.clone(), TenantQuota::unmetered(8));
    service.register_tenant(witness.clone(), TenantQuota::unmetered(8));
    // Three 40-second tasks take three of the four cores; the witness keeps
    // the clock moving long after they are through.
    let doomed = service
        .submit(&quitter, long_spec("doomed", 3, 2, 40))
        .unwrap();
    let other = service
        .submit(&witness, long_spec("witness", 1, 30, 5))
        .unwrap();
    // Run until the witness has had completions delivered: the cluster is
    // past its bootstrap and the doomed campaign's first stage is running.
    while service.tenant_usage(&witness).unwrap().completions < 2 {
        assert!(service.step());
    }
    assert_eq!(service.tenant_usage(&quitter).unwrap().completions, 0);
    assert!(service.cancel(&doomed));
    let at_cancel = service.tenant_usage(&quitter).unwrap();
    assert_eq!(at_cancel.core_seconds, 0.0, "nothing had finished yet");
    service.run();
    assert_eq!(service.status(&other), CampaignStatus::Completed);

    // The three running tasks finished as waste: (1 s setup + 40 s) × 3.
    let billed = service.tenant_usage(&quitter).unwrap();
    assert_eq!(billed.completions, 3);
    assert_eq!(billed.core_seconds, 123.0, "late usage is charged");
    assert_eq!(
        billed,
        service.campaign_usage(&doomed),
        "account = its one lease"
    );
    let result = service.take_result(&doomed).unwrap();
    assert_eq!(result.status, CampaignStatus::Canceled);
    assert_eq!(
        result.usage, at_cancel,
        "the result is the meter at cancel time"
    );

    // …so a quota the late usage exceeds now refuses the tenant.
    service.register_tenant(
        quitter.clone(),
        TenantQuota::unmetered(8).with_budget(100.0, f64::INFINITY),
    );
    match service.submit(&quitter, long_spec("again", 1, 1, 1)) {
        Err(AdmissionError::BudgetExhausted {
            resource, spent, ..
        }) => {
            assert_eq!((resource, spent), ("core-seconds", 123.0));
        }
        other => panic!("expected a budget refusal, got {:?}", other.map(|h| h.id())),
    }
}

/// Jain's fairness index over per-tenant allocations: `(Σx)² / (n·Σx²)`,
/// 1.0 = perfectly fair. Empty or all-zero inputs are defined as 1.0 (a
/// service that delivered nothing delivered it evenly).
fn jain_index(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if n == 0.0 || sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n * sq)
}

/// Five equal-weight tenants submit the same load at t = 0 on a four-core
/// cluster that can run a twentieth of it at once. Delivered core-seconds
/// per tenant are fair (Jain ≥ 0.9) while the cluster is still contended —
/// half the campaigns finished — and once every campaign has completed.
#[test]
fn equal_weight_tenants_share_delivered_core_seconds_fairly() {
    const TENANTS: usize = 5;
    const PER_TENANT: usize = 8;
    let mut service: CampaignService<u64, _> =
        CampaignService::new(SimulatedBackend::new(pilot(2, 2)));
    let ids: Vec<TenantId> = (0..TENANTS)
        .map(|t| {
            let id = TenantId::new(format!("tenant-{t}"));
            service.register_tenant(id.clone(), TenantQuota::unmetered(PER_TENANT));
            id
        })
        .collect();
    // Tenant by tenant, so submission order alone would serve them in turn.
    let mut handles = Vec::new();
    for id in &ids {
        for c in 0..PER_TENANT {
            let spec = long_spec(&format!("c{c}"), 2, 3, 5 + c as u64);
            handles.push(service.submit(id, spec).expect("admitted"));
        }
    }
    let jain = |service: &CampaignService<u64, _>| {
        let delivered: Vec<f64> = ids
            .iter()
            .map(|id| service.tenant_usage(id).expect("registered").core_seconds)
            .collect();
        jain_index(&delivered)
    };
    while service.campaigns_finished() < handles.len() / 2 {
        assert!(service.step());
    }
    assert!(jain(&service) >= 0.9, "mid-run Jain {}", jain(&service));
    service.run();
    for h in &handles {
        assert_eq!(service.status(h), CampaignStatus::Completed);
    }
    assert!(jain(&service) >= 0.9, "final Jain {}", jain(&service));
}

/// 32 independent journaled coordinators, each on its own one-node backend,
/// interleaved round-robin on one thread through the public
/// `Coordinator::step()`: every campaign completes, and each coordinator's
/// outcomes (ids and order included) and journal record count are those of
/// the same campaign driven alone with `run()`.
#[test]
fn interleaved_journaled_coordinators_each_match_their_solo_run() {
    let all = campaigns(32);
    let build = |i: usize| {
        let c = &all[i];
        let journal =
            Journal::new(Box::new(MemoryJournal::new()), "fleet", i as u64).expect("journal");
        let mut coordinator = Coordinator::new(
            SimulatedBackend::new(pilot(4, 1)),
            SpawnOnMultiples {
                max_depth: c.max_depth,
            },
        )
        .with_journal(journal);
        for &seed in &c.roots {
            coordinator.add_pipeline(Chain::boxed(seed));
        }
        coordinator
    };
    let mut fleet: Vec<_> = (0..all.len()).map(build).collect();
    let mut alive: Vec<usize> = (0..fleet.len()).collect();
    while !alive.is_empty() {
        alive.retain(|&i| fleet[i].step());
    }
    for (i, interleaved) in fleet.iter().enumerate() {
        let mut solo = build(i);
        solo.run();
        assert!(
            interleaved.outcomes().len() >= all[i].roots.len(),
            "campaign {i}"
        );
        assert!(interleaved.aborts().is_empty(), "campaign {i}");
        assert_eq!(interleaved.outcomes(), solo.outcomes(), "campaign {i}");
        assert_eq!(
            interleaved.journal().expect("journaled").records_written(),
            solo.journal().expect("journaled").records_written(),
            "campaign {i}"
        );
    }
}

/// One tenant on two cores: `low` holds a core for 1000 s while a ticker
/// keeps the clock moving; at 22 s a third campaign is admitted in
/// `class`. Returns the waste booked across that admission and when `low`
/// finished.
fn admit_over_a_long_task<B: ExecutionBackend>(backend: B, class: i32) -> (f64, SimTime) {
    let mut service: CampaignService<u64, B> = CampaignService::new(backend);
    let tenant = TenantId::new("t");
    service.register_tenant(tenant.clone(), TenantQuota::unmetered(8));
    let low = service
        .submit(&tenant, long_spec("low", 1, 1, 1000))
        .unwrap();
    let ticker = service
        .submit(&tenant, long_spec("ticker", 1, 4, 5))
        .unwrap();
    // Bootstrap 10 s, then the ticker's 1 s + 5 s tasks end at 16 s, 22 s…
    while service.now() < SimTime::from_micros(20_000_000) {
        assert!(service.step());
    }
    assert_eq!(service.now(), SimTime::from_micros(22_000_000));
    let before = service.utilization().wasted_core_seconds;
    let late = service
        .submit(&tenant, long_spec("late", 1, 1, 5).priority(class))
        .unwrap();
    let booked = service.utilization().wasted_core_seconds - before;
    service.run();
    for h in [&ticker, &late] {
        assert_eq!(service.status(h), CampaignStatus::Completed);
    }
    let low = service
        .take_result(&low)
        .expect("preemption delays, never kills");
    assert_eq!(
        (low.status, low.outcomes[0].1),
        (CampaignStatus::Completed, 1)
    );
    (booked, low.finished_at)
}

/// Regression: `ShardedBackend`, and after it `ThreadedBackend`, never
/// implemented `ExecutionBackend::preempt` and inherited the trait's
/// `false`, so a higher class was admitted without evicting anybody.
/// Preemption is the shared core's now: on every engine the admission
/// books the evicted attempt's 12 s on its core as waste, and `low` starts
/// over — later than it finishes when the newcomer is of its own class.
#[test]
fn a_higher_class_admission_evicts_running_tasks_on_every_engine() {
    fn check<B: ExecutionBackend>(engine: &str, make: impl Fn(RuntimeConfig) -> B) {
        let runtime = || RuntimeConfig::new(pilot(2, 1));
        let (booked, undisturbed) = admit_over_a_long_task(make(runtime()), 0);
        assert_eq!(booked, 0.0, "{engine}: same class, nobody evicted");
        assert_eq!(undisturbed, SimTime::from_micros(1_011_000_000), "{engine}");
        let (booked, evicted) = admit_over_a_long_task(make(runtime()), 10);
        assert_eq!(booked, 12.0, "{engine}: 10 s..22 s on one core");
        assert!(
            evicted > undisturbed,
            "{engine}: {evicted} vs {undisturbed}"
        );
    }
    check("simulated", |rt| rt.simulated());
    check("sharded", |rt| rt.sharded());
    check("threaded", |rt| rt.threaded());
}

/// The one intended behaviour change of tenant accounts: the boost is the
/// tenant's, so a campaign admitted between two rebalances enqueues its
/// first tasks at its tenant's current boost. (Boosts used to sit on
/// leases, and a new lease stayed at 0 until the next rebalance reached
/// it.) One core; `fat` has been served for 70 steps — one rebalance, at
/// step 64 — and `thin` never: thin's boost is 1. A thin campaign admitted
/// now, *behind* another fat one and behind fat's queued stages, takes the
/// very next free slot.
#[test]
fn a_campaign_admitted_mid_run_enqueues_at_its_tenants_current_boost() {
    let mut service: CampaignService<u64, _> =
        CampaignService::new(SimulatedBackend::new(pilot(1, 1)));
    let (fat, thin) = (TenantId::new("fat"), TenantId::new("thin"));
    service.register_tenant(fat.clone(), TenantQuota::unmetered(8));
    service.register_tenant(thin.clone(), TenantQuota::unmetered(8));
    let bulk = service.submit(&fat, long_spec("bulk", 3, 40, 2)).unwrap();
    for _ in 0..70 {
        assert!(service.step());
    }
    let fat_late = service
        .submit(&fat, long_spec("fat-late", 1, 1, 2))
        .unwrap();
    let thin_late = service
        .submit(&thin, long_spec("thin-late", 1, 1, 2))
        .unwrap();
    let submitted = service.now();
    service.run();
    let finished = |service: &mut CampaignService<u64, _>, h: &CampaignHandle| {
        service.take_result(h).expect("completed").finished_at
    };
    let (bulk, fat_late, thin_late) = (
        finished(&mut service, &bulk),
        finished(&mut service, &fat_late),
        finished(&mut service, &thin_late),
    );
    // The core is mid-task at admission (≤ 3 s left), then runs thin's
    // single 1 s + 2 s task first.
    assert!(
        thin_late - submitted <= SimDuration::from_secs(6),
        "thin waited {} behind fat's queue",
        thin_late - submitted
    );
    assert!(thin_late < fat_late && fat_late < bulk);
}

/// Deadline drain: when the backend's walltime deadline holds every
/// remaining task, each blocked campaign is stepped exactly once to observe
/// the drain — found through a cursor that only moves forward, not by
/// rescanning the campaign table from the top on every step.
#[test]
fn deadline_held_campaigns_all_drain_one_step_each() {
    const CAMPAIGNS: usize = 300;
    // 100 s allocation, 10 s bootstrap: 60-second stages fit once, not twice.
    let backend = RuntimeConfig::new(pilot(4, 100))
        .deadline(SimTime::from_micros(100 * 1_000_000))
        .simulated();
    let mut service: CampaignService<u64, _> = CampaignService::new(backend);
    let t = TenantId::new("t");
    service.register_tenant(t.clone(), TenantQuota::unmetered(CAMPAIGNS));
    let handles: Vec<_> = (0..CAMPAIGNS)
        .map(|i| {
            service
                .submit(&t, long_spec(&format!("c{i}"), 1, 2, 60))
                .unwrap()
        })
        .collect();
    // The first drain happens once nothing is deliverable any more: every
    // first stage has run and been delivered, every second stage is held.
    while service.campaigns_finished() == 0 {
        assert!(service.step());
    }
    assert_eq!(
        service.tenant_usage(&t).unwrap().completions,
        CAMPAIGNS as u64
    );
    // From then on every step drains exactly one campaign.
    let mut drained = service.campaigns_finished();
    while service.step() {
        drained += 1;
        assert_eq!(service.campaigns_finished(), drained);
    }
    assert_eq!(drained, CAMPAIGNS);
    for h in &handles {
        assert_eq!(service.status(h), CampaignStatus::Drained);
        let r = service.take_result(h).unwrap();
        assert!(r.outcomes.is_empty(), "no pipeline got its second stage");
        assert_eq!(r.usage.completions, 1);
    }
}

props! {
    /// Usage conservation under random service runs — submissions spread
    /// over the run, cancels, mixed priority classes (so preemption sweeps
    /// happen): after every step each tenant's account reads exactly the
    /// sum of the meters of every lease it ever held, and once everything
    /// has drained the accounts add up to what the cluster's own profiler
    /// says was occupied and not wasted.
    fn tenant_accounts_equal_the_sum_of_their_lease_meters(rng, cases = 48) {
        let (cores, nodes) = (1 + rng.below(4) as u32, 1 + rng.below(2) as u32);
        let mut service: CampaignService<u64, _> =
            CampaignService::new(SimulatedBackend::new(pilot(cores, nodes)));
        let tenants: Vec<TenantId> = (0..1 + rng.below(4))
            .map(|t| {
                let id = TenantId::new(format!("tenant-{t}"));
                let quota = TenantQuota::unmetered(64).with_weight(1 + rng.below(4) as u32);
                service.register_tenant(id.clone(), quota);
                id
            })
            .collect();
        let mut handles: Vec<Vec<CampaignHandle>> = vec![Vec::new(); tenants.len()];
        let conserved = |service: &CampaignService<u64, _>, handles: &[Vec<CampaignHandle>]| {
            for (tenant, own) in tenants.iter().zip(handles) {
                let account = service.tenant_usage(tenant).expect("registered");
                let leases = own.iter().map(|h| service.campaign_usage(h));
                let (core, gpu, completions) = leases.fold((0.0, 0.0, 0), |sum, u| {
                    (sum.0 + u.core_seconds, sum.1 + u.gpu_seconds, sum.2 + u.completions)
                });
                assert_eq!(
                    (account.core_seconds, account.gpu_seconds, account.completions),
                    (core, gpu, completions),
                    "{tenant}"
                );
            }
        };
        let mut to_submit = 4 + rng.below(20);
        loop {
            // Arrivals and cancels are interleaved with stepping.
            if to_submit > 0 && rng.chance(0.3) {
                to_submit -= 1;
                let at = rng.below(tenants.len());
                let (roots, stages, secs) = (1 + rng.below(3), 1 + rng.below(4), 1 + rng.below(9));
                let spec = long_spec("c", roots, stages as u64, secs as u64)
                    .priority(rng.below(3) as i32);
                handles[at].push(service.submit(&tenants[at], spec).expect("admitted"));
            }
            if rng.chance(0.05) {
                let own = &handles[rng.below(tenants.len())];
                if !own.is_empty() {
                    service.cancel(&own[rng.below(own.len())]);
                }
            }
            let alive = service.step();
            conserved(&service, &handles);
            if !alive && to_submit == 0 {
                break;
            }
        }
        // Outlive every canceled campaign's running tasks, so the profiler's
        // occupancy integral has no attempt still open.
        let last = service.submit(&tenants[0], long_spec("drain", 1, 1, 60)).expect("admitted");
        handles[0].push(last);
        service.run();
        conserved(&service, &handles);
        let billed: f64 = tenants
            .iter()
            .map(|t| service.tenant_usage(t).expect("registered").core_seconds)
            .sum();
        let util = service.utilization();
        let occupied = util.cpu * util.makespan.as_secs_f64() * f64::from(cores * nodes);
        let useful = occupied - util.wasted_core_seconds;
        assert!(
            (billed - useful).abs() <= 1e-6 * useful,
            "accounts bill {billed} core-seconds, the cluster delivered {useful}"
        );
    }
}
