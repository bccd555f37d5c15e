//! The campaign service's stepping rules by linear scans, kept as a
//! test-only oracle.
//!
//! [`CampaignService`] decides what to step next through cached state: a
//! ready flag per campaign, a ready queue per tenant, a `queued` flag per
//! tenant and a heap of tenants keyed by virtual clock. This model keeps
//! none of it. After every operation it derives readiness afresh from what
//! the campaigns themselves say (pipelines waiting to start, or a lane
//! with a completion waiting or nothing in flight), and it picks the next
//! campaign by scanning plain vectors: the lowest virtual clock among
//! tenants with a ready campaign (ties to the earlier registration), then
//! that tenant's campaign that became ready first. Its only memory is the
//! order campaigns became ready in, the clocks, and the boosts of the last
//! rebalance, which it ranks by a quadratic count.
//!
//! The property below drives a service and the model through the same
//! random admissions, registrations, cancels and steps, and after every
//! one asserts the same admission verdict, the same stepped campaign, the
//! same ready set, tenant clocks and running counts, and that every task a
//! step submits carries its tenant's boost. Do not "improve" this module:
//! its value is that it shares no structure with the fast path.

use super::{AdmissionError, CampaignService, CampaignStatus, TenantQuota, QUANTUM};
use super::{CampaignHandle, CampaignSpec, TenantId, REBALANCE_EVERY};
use crate::pipeline::PipelineLogic;
use crate::stage::Step;
use impress_pilot::backend::SimulatedBackend;
use impress_pilot::{
    Completion, ExecutionBackend, NodeSpec, PhaseBreakdown, PilotConfig, PlacementPolicy,
    ResourceRequest, TaskDescription, TaskId, UtilizationReport,
};
use impress_sim::{props, SimDuration, SimRng, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// A tenant as the model sees it.
struct Tenant {
    name: String,
    quota: TenantQuota,
    vclock: u64,
    /// The boost the last rebalance gave it (0 before the first).
    boost: i32,
}

/// A campaign as the model sees it.
struct Campaign {
    tenant: usize,
    running: bool,
    /// When it last became ready, on the model's own counter; `None`
    /// while it is not ready.
    ready_since: Option<u64>,
}

/// The model.
#[derive(Default)]
pub(super) struct ReferenceService {
    tenants: Vec<Tenant>,
    campaigns: Vec<Campaign>,
    steps: u64,
    /// The counter `ready_since` reads.
    clock: u64,
}

impl ReferenceService {
    fn tenant(&self, name: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.name == name)
    }

    fn running_of(&self, tenant: usize) -> usize {
        self.campaigns
            .iter()
            .filter(|c| c.running && c.tenant == tenant)
            .count()
    }

    /// The ready campaign to step next, if any campaign is ready.
    pub(super) fn next(&self) -> Option<usize> {
        let mut best: Option<(u64, usize, u64, usize)> = None;
        for (cid, c) in self.campaigns.iter().enumerate() {
            let Some(since) = c.ready_since else { continue };
            let key = (self.tenants[c.tenant].vclock, c.tenant, since, cid);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, _, _, cid)| cid)
    }

    /// Register `name`, or replace its quota. A tenant new to the service
    /// starts at the lowest clock among tenants with a running campaign,
    /// or at 0 when none has one.
    pub(super) fn register(&mut self, name: &str, quota: TenantQuota) {
        if let Some(at) = self.tenant(name) {
            self.tenants[at].quota = quota;
            return;
        }
        let vclock = self
            .campaigns
            .iter()
            .filter(|c| c.running)
            .map(|c| self.tenants[c.tenant].vclock)
            .min()
            .unwrap_or(0);
        self.tenants.push(Tenant {
            name: name.into(),
            quota,
            vclock,
            boost: 0,
        });
    }

    /// The verdict on a submission by `name`, whose bill has been
    /// delivered `spent` (core, GPU) seconds so far.
    pub(super) fn admit(&self, name: &str, spent: Option<(f64, f64)>) -> Result<usize, String> {
        let Some(at) = self.tenant(name) else {
            return Err("unknown".into());
        };
        let quota = self.tenants[at].quota;
        let (core, gpu) = spent.expect("a registered tenant has a bill");
        if self.running_of(at) >= quota.max_in_flight {
            Err("cap".into())
        } else if core >= quota.core_seconds {
            Err("core-seconds".into())
        } else if gpu >= quota.gpu_seconds {
            Err("gpu-seconds".into())
        } else {
            Ok(at)
        }
    }

    /// A campaign of `tenant` was admitted.
    pub(super) fn admitted(&mut self, tenant: usize) {
        self.campaigns.push(Campaign {
            tenant,
            running: true,
            ready_since: None,
        });
    }

    /// `cid` is stepped: the tenant pays its quantum, the campaign leaves
    /// the ready set, and every `REBALANCE_EVERY`-th step re-ranks the
    /// tenants by delivered usage (`usage[t]`, core plus GPU seconds) per
    /// unit weight: a tenant's boost is how many tenants are strictly
    /// further ahead.
    pub(super) fn stepped(&mut self, cid: usize, usage: &[f64]) {
        self.steps += 1;
        if self.steps.is_multiple_of(REBALANCE_EVERY) {
            let ratio = |t: &Tenant, u: f64| u / f64::from(t.quota.weight);
            let ratios: Vec<f64> = self
                .tenants
                .iter()
                .zip(usage)
                .map(|(t, &u)| ratio(t, u))
                .collect();
            for (t, mine) in self.tenants.iter_mut().zip(&ratios) {
                t.boost = ratios.iter().filter(|&&r| r > *mine).count() as i32;
            }
        }
        let tenant = &mut self.tenants[self.campaigns[cid].tenant];
        tenant.vclock += QUANTUM / u64::from(tenant.quota.weight);
        self.campaigns[cid].ready_since = None;
    }

    /// The boost a task submitted by `cid` carries.
    pub(super) fn boost_of(&self, cid: usize) -> i32 {
        self.tenants[self.campaigns[cid].tenant].boost
    }

    /// Read every campaign's status and readiness off the campaigns
    /// themselves, then hold the service's cached state to them.
    pub(super) fn sync<O, B>(&mut self, service: &CampaignService<O, B>)
    where
        O: impress_json::ToJsonBuf + impress_json::FromJsonBuf + 'static,
        B: ExecutionBackend,
    {
        assert_eq!(self.campaigns.len(), service.campaigns.len(), "campaigns");
        for (cid, c) in self.campaigns.iter_mut().enumerate() {
            let status = service.status(&CampaignHandle { id: cid as u64 });
            c.running = status == CampaignStatus::Running;
            let row = &service.campaigns[cid];
            let ready = c.running
                && (row
                    .coordinator
                    .as_ref()
                    .is_some_and(|co| co.has_pending_starts())
                    || service.pool.borrow().lanes[cid].ready());
            match (ready, c.ready_since) {
                (true, None) => {
                    self.clock += 1;
                    c.ready_since = Some(self.clock);
                }
                (false, _) => c.ready_since = None,
                (true, Some(_)) => {}
            }
        }
        for (cid, c) in self.campaigns.iter().enumerate() {
            assert_eq!(
                service.campaigns[cid].ready,
                c.ready_since.is_some(),
                "campaign {cid}: ready flag"
            );
        }
        assert_eq!(service.tenants.len(), self.tenants.len(), "tenants");
        for (at, t) in self.tenants.iter().enumerate() {
            assert_eq!(service.tenants[at].vclock, t.vclock, "tenant {at}: clock");
            assert_eq!(
                service.tenants[at].running,
                self.running_of(at),
                "tenant {at}: running campaigns"
            );
        }
    }
}

/// A backend that remembers the priority of every task submitted to it.
struct Recorder {
    inner: SimulatedBackend,
    priorities: Rc<RefCell<Vec<i32>>>,
}

impl ExecutionBackend for Recorder {
    fn submit(&mut self, desc: TaskDescription) -> TaskId {
        self.priorities.borrow_mut().push(desc.priority);
        self.inner.submit(desc)
    }
    fn next_completion(&mut self) -> Option<Completion> {
        self.inner.next_completion()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
    fn utilization(&self) -> UtilizationReport {
        self.inner.utilization()
    }
    fn phase_breakdown(&self) -> PhaseBreakdown {
        self.inner.phase_breakdown()
    }
    fn cancel(&mut self, id: TaskId) -> bool {
        self.inner.cancel(id)
    }
    fn preempt(&mut self, id: TaskId) -> bool {
        self.inner.preempt(id)
    }
    fn upcoming_completions(&self, each: &mut dyn FnMut(TaskId)) {
        self.inner.upcoming_completions(each)
    }
}

/// Stages of tasks with scripted durations; completes with its task count.
struct Script {
    stages: Vec<Vec<(u32, u64)>>,
    done: u64,
}

impl PipelineLogic<u64> for Script {
    fn name(&self) -> String {
        "script".into()
    }
    fn begin(&mut self) -> Step<u64> {
        self.next()
    }
    fn stage_done(&mut self, completions: Vec<Completion>) -> Step<u64> {
        self.done += completions.len() as u64;
        self.next()
    }
}

impl Script {
    fn next(&mut self) -> Step<u64> {
        match self.stages.pop() {
            None => Step::Complete(self.done),
            Some(stage) => Step::Submit(
                stage
                    .into_iter()
                    .map(|(cores, secs)| {
                        TaskDescription::new(
                            "s",
                            ResourceRequest::cores(cores),
                            SimDuration::from_secs(secs),
                        )
                    })
                    .collect(),
            ),
        }
    }
}

/// A campaign of one to three scripted pipelines on cores of `cores`.
fn campaign(rng: &mut SimRng, cores: u32) -> CampaignSpec<u64> {
    let mut spec = CampaignSpec::new("c").priority(rng.below(3) as i32);
    for _ in 0..1 + rng.below(3) {
        let stages = (0..1 + rng.below(4))
            .map(|_| {
                (0..1 + rng.below(3))
                    .map(|_| {
                        (
                            1 + rng.below(cores as usize) as u32,
                            1 + rng.below(12) as u64,
                        )
                    })
                    .collect()
            })
            .collect();
        spec = spec.root(Box::new(Script { stages, done: 0 }));
    }
    spec
}

/// A tenant's quota: a small cap, a weight, and now and then a budget.
fn quota(rng: &mut SimRng) -> TenantQuota {
    let quota = TenantQuota::unmetered(1 + rng.below(4)).with_weight(1 + rng.below(3) as u32);
    match rng.below(4) {
        0 => quota.with_budget(20.0 + rng.below(200) as f64, f64::INFINITY),
        _ => quota,
    }
}

/// Register `name` with a drawn quota on both sides.
fn register(
    rng: &mut SimRng,
    service: &mut CampaignService<u64, Recorder>,
    model: &mut ReferenceService,
    name: &str,
) {
    let q = quota(rng);
    service.register_tenant(TenantId::new(name), q);
    model.register(name, q);
}

/// One service step, checked: the campaign it steps, its tenant's boost on
/// what the step submits, and the state it leaves. `false` once no
/// campaign is running.
fn step(
    service: &mut CampaignService<u64, Recorder>,
    model: &mut ReferenceService,
    priorities: &RefCell<Vec<i32>>,
) -> bool {
    let expected = model.next();
    let submitted = priorities.borrow().len();
    let Some(stepped) = service.step_campaign() else {
        assert_eq!(expected, None, "the service stopped with a campaign ready");
        assert!(model.campaigns.iter().all(|c| !c.running), "stopped early");
        return false;
    };
    match expected {
        Some(cid) => assert_eq!(stepped, cid, "stepped campaign"),
        // Nobody was ready: the service pumped a completion, which made its
        // owner ready, and stepped the owner.
        None => assert!(
            model.campaigns[stepped].running,
            "pumped into a finished campaign"
        ),
    }
    let usage: Vec<f64> = model
        .tenants
        .iter()
        .map(|t| {
            let u = service
                .tenant_usage(&TenantId::new(t.name.as_str()))
                .expect("registered");
            u.core_seconds + u.gpu_seconds
        })
        .collect();
    model.stepped(stepped, &usage);
    let boost = model.boost_of(stepped);
    for (i, &priority) in priorities.borrow()[submitted..].iter().enumerate() {
        assert_eq!(
            priority, boost,
            "task {i} of campaign {stepped}'s step: boost"
        );
    }
    model.sync(service);
    true
}

props! {
    /// The service and the linear-scan model, driven through the same
    /// random admissions, late registrations, quota changes, cancels and
    /// steps on a small cluster, agree after every operation.
    fn the_service_steps_as_the_reference_does(rng, cases = 128) {
        let cores = 1 + rng.below(4) as u32;
        let backend = SimulatedBackend::new(PilotConfig {
            node: NodeSpec::new(cores, 0, 64),
            nodes: 1 + rng.below(3) as u32,
            policy: PlacementPolicy::Backfill,
            bootstrap: SimDuration::from_secs(1),
            exec_setup_per_task: SimDuration::from_secs(rng.below(2) as u64),
            seed: rng.next_u64(),
        });
        let priorities = Rc::new(RefCell::new(Vec::new()));
        let mut service = CampaignService::new(Recorder {
            inner: backend,
            priorities: Rc::clone(&priorities),
        });
        let mut model = ReferenceService::default();
        let mut names: Vec<String> = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let name = format!("t{}", names.len());
            register(rng, &mut service, &mut model, &name);
            names.push(name);
        }
        for _ in 0..20 + rng.below(60) {
            match rng.below(20) {
                0..=5 => {
                    // A submission, now and then by a tenant never registered.
                    let name = if rng.below(10) == 0 {
                        "stranger".to_string()
                    } else {
                        rng.choose(&names).clone()
                    };
                    let id = TenantId::new(name.as_str());
                    let spent = service.tenant_usage(&id).map(|u| (u.core_seconds, u.gpu_seconds));
                    let verdict = model.admit(&name, spent);
                    let spec = campaign(rng, cores);
                    let submitted = priorities.borrow().len();
                    match (service.submit(&id, spec), verdict) {
                        (Ok(_), Ok(tenant)) => model.admitted(tenant),
                        (Err(AdmissionError::UnknownTenant(_)), Err(why)) if why == "unknown" => {}
                        (Err(AdmissionError::TooManyInFlight { .. }), Err(why)) if why == "cap" => {}
                        (Err(AdmissionError::BudgetExhausted { resource, .. }), Err(why))
                            if why == resource => {}
                        (got, want) => panic!(
                            "admission of a campaign of {name}: service {:?}, model {want:?}",
                            got.map(|h| h.id())
                        ),
                    }
                    assert_eq!(priorities.borrow().len(), submitted, "admission submits nothing");
                }
                6 => {
                    let name = format!("t{}", names.len());
                    register(rng, &mut service, &mut model, &name);
                    names.push(name);
                }
                7 => {
                    let name = rng.choose(&names).clone();
                    register(rng, &mut service, &mut model, &name);
                }
                8 => {
                    if service.campaigns.is_empty() {
                        continue;
                    }
                    let cid = rng.below(service.campaigns.len());
                    let running = model.campaigns[cid].running;
                    assert_eq!(service.cancel(&CampaignHandle { id: cid as u64 }), running);
                }
                _ => {
                    for _ in 0..1 + rng.below(8) {
                        if !step(&mut service, &mut model, &priorities) {
                            break;
                        }
                    }
                }
            }
            model.sync(&service);
        }
        while step(&mut service, &mut model, &priorities) {}
    }
}
