//! Multiplexing one backend across many independent consumers.
//!
//! The session/coordinator stack assumes it *owns* its
//! [`ExecutionBackend`]: it submits, pumps [`next_completion`], and treats
//! every completion as its own. A multi-tenant campaign service breaks that
//! assumption — many coordinators share one cluster — so this module
//! supplies the adapter: a [`SharedCluster`] wraps a single backend and
//! hands out [`ClusterLease`]s, each of which *is* an `ExecutionBackend`
//! scoped to the tasks submitted through it.
//!
//! Routing works by ownership: the cluster records which lease submitted
//! each task; pumping the shared backend from any lease routes foreign
//! completions into their owners' inboxes and returns only the pumper's
//! own. Completion *order within a lease* is therefore exactly the order
//! the shared backend produced, regardless of which lease did the pumping —
//! the property that makes a campaign's outcome independent of its
//! neighbors' drive pattern (the serial-vs-service determinism tests in
//! `impress-workflow` rest on it).
//!
//! Every lease is opened in an **account** ([`SharedCluster::open_account`])
//! — the unit a fair-share layer bills and ranks, typically one per tenant.
//! An account carries:
//!
//! * a **priority boost** added to every task submitted through any of its
//!   leases, read at submit time — the hook a fair-share layer uses to map
//!   tenant deficits onto the scheduler's priority buckets (higher
//!   schedules first);
//! * a **usage meter** (core/GPU-seconds of delivered occupancy). Every
//!   completion is booked at pump time to the *owning* lease's meter and to
//!   its account's in the same place, so an account's total is the sum of
//!   its leases' meters by construction — retired leases and completions
//!   nobody will ever pop included — and quota enforcement reads it in
//!   O(1) without trusting tenants to self-report.
//!
//! Each lease additionally carries its own usage meter and a **retired**
//! flag: retiring a lease drops its queued inbox and any late completions,
//! so a canceled campaign cannot leak memory or deliver into a dead
//! coordinator (its late occupancy is still metered).
//!
//! A lease deliberately does *not* expose cluster-global mutation — or
//! even cluster-global *names*. Task ids on a lease are lease-local (dense
//! from 0, translated to the backend's ids at the submit/pump boundary),
//! so a consumer's task-indexed bookkeeping stays sized by its own
//! workload rather than the cluster-wide id space, a tenant cannot observe
//! the global submission counter through its ids, and `cancel`/`preempt`
//! structurally cannot name another lease's work — preemption decisions
//! belong to the service layer, which holds the [`SharedCluster`] itself.

use crate::backend::{Completion, ExecutionBackend};
use crate::pilot::PhaseBreakdown;
use crate::profiler::UtilizationReport;
use crate::task::{TaskDescription, TaskId};
use impress_sim::SimTime;
use impress_telemetry::Telemetry;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Occupancy delivered to one lease — or to one account, across all of its
/// leases — so far: the sum over completed attempts of
/// `(finished - started) × slots`. Booked when the completion is *pumped*
/// out of the shared backend (not when the owner pops it), so quota checks
/// see usage as soon as the cluster knows about it.
///
/// The cluster meters whole core-/GPU-microseconds (virtual time is whole
/// microseconds) and converts to seconds on read, so a reading does not
/// depend on the order completions were pumped in and an account's reading
/// is exactly that of its leases' meters summed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LeaseUsage {
    /// Core-seconds of delivered slot occupancy.
    pub core_seconds: f64,
    /// GPU-seconds of delivered slot occupancy.
    pub gpu_seconds: f64,
    /// Terminal completions delivered (success or failure).
    pub completions: u64,
}

/// Names one account of a [`SharedCluster`]; see
/// [`SharedCluster::open_account`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccountId(u32);

/// Delivered occupancy in whole core-/GPU-microseconds.
#[derive(Clone, Copy, Default)]
struct Meter {
    core_us: u64,
    gpu_us: u64,
    completions: u64,
}

impl Meter {
    fn book(&mut self, span_us: u64, cores: u32, gpus: u32) {
        self.core_us += span_us * u64::from(cores);
        self.gpu_us += span_us * u64::from(gpus);
        self.completions += 1;
    }

    fn read(&self) -> LeaseUsage {
        LeaseUsage {
            core_seconds: self.core_us as f64 / 1e6,
            gpu_seconds: self.gpu_us as f64 / 1e6,
            completions: self.completions,
        }
    }
}

/// Per-account bookkeeping: what fair share bills and steers.
#[derive(Default)]
struct AccountState {
    /// Priority added to every submission through the account's leases
    /// (higher schedules first).
    boost: i32,
    /// Delivered occupancy of every lease ever opened in the account.
    meter: Meter,
}

/// Per-lease bookkeeping inside the cluster core.
struct LeaseState {
    /// Index of the account the lease was opened in.
    account: usize,
    /// Completions pumped by *other* leases, waiting for this one to pop.
    inbox: VecDeque<Completion>,
    /// Tasks submitted through this lease and not yet *delivered* to it
    /// (an inboxed completion still counts — it has not been observed).
    in_flight: usize,
    /// Delivered occupancy, for quota/fairness accounting.
    meter: Meter,
    /// Retired leases take no new submissions and drop late completions.
    retired: bool,
    /// Lease-local task ids, dense from 0: `to_global[local]` is the
    /// shared backend's id. Leases speak *local* ids to their consumer —
    /// a coordinator's task-indexed slabs stay sized by its own workload
    /// instead of the cluster-global id space (with thousands of leases
    /// that difference is quadratic memory), and a tenant cannot observe
    /// the cluster-wide submission counter through its ids.
    to_global: Vec<TaskId>,
}

/// What the cluster knows about one submitted task.
struct TaskRoute {
    owner: u32,
    /// The owner's lease-local id for this task.
    local: u64,
    cores: u32,
    gpus: u32,
}

struct ClusterCore<B: ExecutionBackend> {
    backend: B,
    /// Indexed by the backend's task id (dense from 0 in submission
    /// order, see [`ExecutionBackend::submit`]); `None` once the task's
    /// completion was pumped, and for ids submitted around the lease layer.
    routes: Vec<Option<TaskRoute>>,
    /// Indexed by lease id; leases are never closed, only retired.
    leases: Vec<LeaseState>,
    /// Indexed by [`AccountId`]; accounts are never closed.
    accounts: Vec<AccountState>,
}

impl<B: ExecutionBackend> ClusterCore<B> {
    /// Pump one completion out of the shared backend, booking usage to its
    /// owning lease and that lease's account. Returns the completion
    /// together with its owning lease id, or `None` when the backend has
    /// nothing left to deliver (idle, or a graceful deadline drain).
    fn pump(&mut self) -> Option<(u32, Completion)> {
        loop {
            let mut c = self.backend.next_completion()?;
            let Some(route) = self.take_route(c.task) else {
                // A task submitted around the lease layer (e.g. directly on
                // the backend before it was wrapped). No owner — drop it;
                // leases must only ever see their own traffic.
                continue;
            };
            let span_us = (c.finished - c.started).as_micros();
            let lease = &mut self.leases[route.owner as usize];
            lease.meter.book(span_us, route.cores, route.gpus);
            self.accounts[lease.account]
                .meter
                .book(span_us, route.cores, route.gpus);
            if lease.retired {
                // The owner is gone; its in-flight counter died with it.
                continue;
            }
            // Deliver under the owner's local id, not the global one.
            c.task = TaskId(route.local);
            return Some((route.owner, c));
        }
    }

    /// Resolve a lease-local id to the shared backend's id, provided the
    /// task is still routed (unfinished) and really belongs to `lease`.
    fn routed(&self, lease: u32, local: TaskId) -> Option<TaskId> {
        let global = *self
            .leases
            .get(lease as usize)?
            .to_global
            .get(local.0 as usize)?;
        self.route(global)
            .is_some_and(|r| r.owner == lease)
            .then_some(global)
    }

    /// The route of backend task `global`, while it is unfinished.
    fn route(&self, global: TaskId) -> Option<&TaskRoute> {
        self.routes.get(global.0 as usize)?.as_ref()
    }

    fn take_route(&mut self, global: TaskId) -> Option<TaskRoute> {
        self.routes.get_mut(global.0 as usize)?.take()
    }
}

/// One execution backend shared between many [`ClusterLease`]s.
///
/// Cheaply cloneable handle (`Rc` inside — the whole stack is
/// single-threaded, like the simulated backend it typically wraps). The
/// service layer keeps one of these for cluster-global reads and
/// lease administration; coordinators only ever see their own lease.
pub struct SharedCluster<B: ExecutionBackend> {
    core: Rc<RefCell<ClusterCore<B>>>,
    telemetry: Telemetry,
}

impl<B: ExecutionBackend> Clone for SharedCluster<B> {
    fn clone(&self) -> Self {
        SharedCluster {
            core: self.core.clone(),
            telemetry: self.telemetry.clone(),
        }
    }
}

impl<B: ExecutionBackend> SharedCluster<B> {
    /// Wrap a backend. All submissions must go through leases from here on:
    /// completions of tasks the cluster has no route for are dropped.
    pub fn new(backend: B) -> Self {
        let telemetry = backend.telemetry().clone();
        SharedCluster {
            core: Rc::new(RefCell::new(ClusterCore {
                backend,
                routes: Vec::new(),
                leases: Vec::new(),
                accounts: Vec::new(),
            })),
            telemetry,
        }
    }

    /// Open a new account: priority boost 0, nothing delivered.
    pub fn open_account(&self) -> AccountId {
        let mut core = self.core.borrow_mut();
        let id = AccountId(u32::try_from(core.accounts.len()).expect("under 2^32 accounts"));
        core.accounts.push(AccountState::default());
        id
    }

    /// Open a new lease in `account`: its submissions carry the account's
    /// boost, its delivered occupancy is billed to the account.
    pub fn lease(&self, account: AccountId) -> ClusterLease<B> {
        let mut core = self.core.borrow_mut();
        let account = account.0 as usize;
        assert!(account < core.accounts.len(), "account of another cluster");
        let id = u32::try_from(core.leases.len()).expect("under 2^32 leases");
        core.leases.push(LeaseState {
            account,
            inbox: VecDeque::new(),
            in_flight: 0,
            meter: Meter::default(),
            retired: false,
            to_global: Vec::new(),
        });
        ClusterLease {
            core: self.core.clone(),
            telemetry: self.telemetry.clone(),
            id,
        }
    }

    /// Delivered occupancy of one lease (`None` for unknown ids). Retired
    /// leases keep their meter, and keep metering completions that arrive
    /// after the retirement.
    pub fn usage_of(&self, lease: u32) -> Option<LeaseUsage> {
        self.core
            .borrow()
            .leases
            .get(lease as usize)
            .map(|l| l.meter.read())
    }

    /// Delivered occupancy of every lease ever opened in `account`, retired
    /// ones included: one read, whatever the number of leases.
    pub fn account_usage(&self, account: AccountId) -> LeaseUsage {
        self.core.borrow().accounts[account.0 as usize].meter.read()
    }

    /// Set an account's priority boost. Applies to *future* submissions
    /// through any of its leases; work already queued keeps the priority it
    /// was enqueued with.
    pub fn set_account_boost(&self, account: AccountId, boost: i32) {
        self.core.borrow_mut().accounts[account.0 as usize].boost = boost;
    }

    /// Pump exactly one completion out of the shared backend — advancing
    /// time to it if necessary — and deliver it into the owning lease's
    /// inbox. Returns the owner's lease id, or `None` when the backend has
    /// nothing left to deliver (idle, or only deadline-held tasks remain).
    ///
    /// This is the *only* clock-advancing primitive a multiplexing driver
    /// needs: step every lease that [`SharedCluster::lease_ready`] says can
    /// make progress at the current instant, and call this once when
    /// nobody can. Pumping from a lease's own
    /// [`next_completion`](ExecutionBackend::next_completion) also works
    /// but advances time until *that* lease is served, serializing
    /// consumers that had work to submit at the current time.
    pub fn pump_one(&self) -> Option<u32> {
        let mut core = self.core.borrow_mut();
        let (owner, c) = core.pump()?;
        core.leases[owner as usize].inbox.push_back(c);
        Some(owner)
    }

    /// Whether stepping the consumer on `lease` would make progress
    /// *without* advancing time: a completion is queued in its inbox, or it
    /// has nothing in flight at all (its `next_completion` returns `None`
    /// immediately — the idle/terminal transition). `false` means the lease
    /// is blocked waiting on in-flight work, and `false` for unknown ids.
    pub fn lease_ready(&self, lease: u32) -> bool {
        self.core
            .borrow()
            .leases
            .get(lease as usize)
            .is_some_and(|l| !l.inbox.is_empty() || l.in_flight == 0)
    }

    /// Preempt a running task of `lease` (named by its lease-local id) —
    /// the service-layer hook behind priority preemption, which may target
    /// any lease it administers. Returns `false` for unknown ids, tasks
    /// that are not running, or backends without preemption support.
    pub fn preempt(&self, lease: u32, task: TaskId) -> bool {
        let mut core = self.core.borrow_mut();
        let Some(global) = core.routed(lease, task) else {
            return false;
        };
        core.backend.preempt(global)
    }

    /// Unfinished tasks currently routed to `lease`, as lease-local ids in
    /// submission order — the victim list a preemption sweep walks (and the
    /// ids a cancel sweep feeds back through the lease). Queued and running
    /// tasks are not distinguished here; [`SharedCluster::preempt`] simply
    /// returns `false` for the queued ones. Costs one route lookup per task
    /// the lease ever submitted, independent of the rest of the cluster.
    pub fn tasks_of(&self, lease: u32) -> Vec<TaskId> {
        let core = self.core.borrow();
        let Some(state) = core.leases.get(lease as usize) else {
            return Vec::new();
        };
        // `to_global` holds only this lease's own submissions, so a route
        // that still exists is necessarily its own.
        state
            .to_global
            .iter()
            .enumerate()
            .filter(|(_, global)| core.route(**global).is_some())
            .map(|(local, _)| TaskId(local as u64))
            .collect()
    }

    /// Current backend time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().backend.now()
    }

    /// Cluster-wide utilization up to the current time.
    pub fn utilization(&self) -> UtilizationReport {
        self.core.borrow().backend.utilization()
    }

    /// The wrapped backend's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

/// One consumer's view of a [`SharedCluster`]: an [`ExecutionBackend`]
/// scoped to the tasks submitted through it.
///
/// `next_completion` returns only this lease's completions, in shared
/// pump order; foreign completions encountered while pumping are routed to
/// their owners. Task ids are lease-local: `submit` returns ids dense from
/// 0, completions carry them, and `cancel`/`preempt` accept only them —
/// another lease's tasks cannot even be named. Dropping a lease without
/// [`ClusterLease::retire`] leaves it live (another handle may exist);
/// retiring it drops queued and future completions.
pub struct ClusterLease<B: ExecutionBackend> {
    core: Rc<RefCell<ClusterCore<B>>>,
    telemetry: Telemetry,
    id: u32,
}

impl<B: ExecutionBackend> ClusterLease<B> {
    /// This lease's id, the key for [`SharedCluster::usage_of`],
    /// [`SharedCluster::tasks_of`] and [`SharedCluster::preempt`].
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Delivered occupancy so far.
    pub fn usage(&self) -> LeaseUsage {
        self.core.borrow().leases[self.id as usize].meter.read()
    }

    /// Retire the lease: drop its queued inbox, drop any late completions,
    /// refuse further submissions (they panic — submitting into a retired
    /// lease is a service-layer bug, not a runtime condition). Usage
    /// metering survives.
    pub fn retire(&mut self) {
        let mut core = self.core.borrow_mut();
        let lease = &mut core.leases[self.id as usize];
        lease.retired = true;
        lease.inbox.clear();
        lease.in_flight = 0;
    }
}

impl<B: ExecutionBackend> ExecutionBackend for ClusterLease<B> {
    /// Submit through the lease. The returned id is *lease-local* (dense
    /// from 0 per lease); completions and `cancel`/`preempt` on this lease
    /// speak the same local ids.
    fn submit(&mut self, desc: TaskDescription) -> TaskId {
        let mut core = self.core.borrow_mut();
        let core = &mut *core;
        let lease = &mut core.leases[self.id as usize];
        assert!(!lease.retired, "submit on a retired lease");
        let boost = core.accounts[lease.account].boost;
        lease.in_flight += 1;
        let local = TaskId(lease.to_global.len() as u64);
        let (cores, gpus) = (desc.request.cores, desc.request.gpus);
        let priority = desc.priority;
        let id = core.backend.submit(desc.with_priority(priority + boost));
        lease.to_global.push(id);
        let slot = id.0 as usize;
        debug_assert!(
            slot >= core.routes.len(),
            "ExecutionBackend::submit hands out ids dense from 0 in submission order: \
             got {id} with every id below {} already routed",
            core.routes.len()
        );
        if core.routes.len() <= slot {
            core.routes.resize_with(slot + 1, || None);
        }
        core.routes[slot] = Some(TaskRoute {
            owner: self.id,
            local: local.0,
            cores,
            gpus,
        });
        local
    }

    fn next_completion(&mut self) -> Option<Completion> {
        {
            let mut core = self.core.borrow_mut();
            let lease = &mut core.leases[self.id as usize];
            if let Some(c) = lease.inbox.pop_front() {
                lease.in_flight -= 1;
                return Some(c);
            }
            if lease.in_flight == 0 {
                return None;
            }
        }
        loop {
            let mut core = self.core.borrow_mut();
            match core.pump() {
                Some((owner, c)) if owner == self.id => {
                    core.leases[self.id as usize].in_flight -= 1;
                    return Some(c);
                }
                Some((owner, c)) => core.leases[owner as usize].inbox.push_back(c),
                // The backend is out of deliverable completions while this
                // lease still has work in flight: its tasks are held by the
                // walltime deadline — the graceful-drain signal. Surface it
                // exactly like an owned backend would.
                None => return None,
            }
        }
    }

    fn now(&self) -> SimTime {
        self.core.borrow().backend.now()
    }

    /// Tasks submitted through *this lease* and not yet delivered to it.
    fn in_flight(&self) -> usize {
        self.core.borrow().leases[self.id as usize].in_flight
    }

    /// Cluster-wide utilization: occupancy has no per-lease meaning on
    /// shared hardware (see [`ClusterLease::usage`] for this lease's own
    /// delivered occupancy).
    fn utilization(&self) -> UtilizationReport {
        self.core.borrow().backend.utilization()
    }

    fn phase_breakdown(&self) -> PhaseBreakdown {
        self.core.borrow().backend.phase_breakdown()
    }

    fn cancel(&mut self, id: TaskId) -> bool {
        let mut core = self.core.borrow_mut();
        let Some(global) = core.routed(self.id, id) else {
            return false;
        };
        core.backend.cancel(global)
    }

    fn preempt(&mut self, id: TaskId) -> bool {
        let mut core = self.core.borrow_mut();
        let Some(global) = core.routed(self.id, id) else {
            return false;
        };
        core.backend.preempt(global)
    }

    fn held_tasks(&self) -> usize {
        self.core.borrow().backend.held_tasks()
    }

    /// Pop from this lease's inbox only — never pumps the shared backend,
    /// so polling cannot advance time on behalf of other leases.
    fn poll_completion(&mut self) -> Option<Completion> {
        let mut core = self.core.borrow_mut();
        let lease = &mut core.leases[self.id as usize];
        let c = lease.inbox.pop_front()?;
        lease.in_flight -= 1;
        Some(c)
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn virtual_now(&self) -> SimTime {
        self.core.borrow().backend.virtual_now()
    }

    fn stamp(&self) -> impress_telemetry::Stamp {
        self.core.borrow().backend.stamp()
    }

    fn control_stats(&self) -> crate::control::ControlStats {
        self.core.borrow().backend.control_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimulatedBackend;
    use crate::pilot::PilotConfig;
    use crate::resources::{NodeSpec, ResourceRequest};
    use crate::scheduler::PlacementPolicy;
    use impress_sim::SimDuration;

    fn backend(cores: u32) -> SimulatedBackend {
        SimulatedBackend::new(PilotConfig {
            node: NodeSpec::new(cores, 2, 64),
            nodes: 1,
            policy: PlacementPolicy::Backfill,
            bootstrap: SimDuration::from_secs(1),
            exec_setup_per_task: SimDuration::ZERO,
            seed: 0,
        })
    }

    fn task(name: &str, secs: u64) -> TaskDescription {
        TaskDescription::new(name, ResourceRequest::cores(1), SimDuration::from_secs(secs))
    }

    #[test]
    fn leases_only_see_their_own_completions() {
        let cluster = SharedCluster::new(backend(4));
        let mut a = cluster.lease(cluster.open_account());
        let mut b = cluster.lease(cluster.open_account());
        let a1 = a.submit(task("a1", 5));
        let b1 = b.submit(task("b1", 1));
        let a2 = a.submit(task("a2", 3));
        // Pumping from lease A routes B's (earlier) completion to B's inbox.
        let first_a = a.next_completion().expect("a has work");
        assert!(first_a.task == a1 || first_a.task == a2);
        assert_eq!(b.in_flight(), 1, "b's completion waits in its inbox");
        let first_b = b.next_completion().expect("b has work");
        assert_eq!(first_b.task, b1);
        assert_eq!(b.in_flight(), 0);
        assert!(b.next_completion().is_none(), "b is drained");
        let second_a = a.next_completion().expect("a's second task");
        assert_ne!(second_a.task, first_a.task);
        assert!(a.next_completion().is_none());
    }

    #[test]
    fn usage_is_booked_to_the_owning_lease() {
        let cluster = SharedCluster::new(backend(4));
        let mut a = cluster.lease(cluster.open_account());
        let mut b = cluster.lease(cluster.open_account());
        a.submit(task("a", 10));
        b.submit(task("b", 2));
        while a.next_completion().is_some() {}
        // Pumping from A booked B's usage too, before B ever popped.
        let ua = cluster.usage_of(a.id()).unwrap();
        let ub = cluster.usage_of(b.id()).unwrap();
        assert!((ua.core_seconds - 10.0).abs() < 1e-9, "{ua:?}");
        assert!((ub.core_seconds - 2.0).abs() < 1e-9, "{ub:?}");
        assert_eq!(ua.completions, 1);
        assert_eq!(ub.completions, 1);
        assert!(b.next_completion().is_some());
    }

    #[test]
    fn boost_reorders_contended_submissions() {
        // One core: whoever holds higher priority jumps the queue once the
        // first occupant finishes.
        let cluster = SharedCluster::new(backend(1));
        let mut low = cluster.lease(cluster.open_account());
        let favored = cluster.open_account();
        cluster.set_account_boost(favored, 10);
        // The boost is the account's: a lease opened after it was set
        // enqueues at it from its first submission.
        let mut high = cluster.lease(favored);
        let _head = low.submit(task("head", 1));
        let l = low.submit(task("low", 1));
        let h = high.submit(task("high", 1));
        let mut order = Vec::new();
        loop {
            let before = order.len();
            if let Some(c) = low.next_completion() {
                order.push(c.task);
            }
            if let Some(c) = high.next_completion() {
                order.push(c.task);
            }
            if order.len() == before {
                break;
            }
        }
        let pos = |t| order.iter().position(|x| *x == t).unwrap();
        assert!(pos(h) < pos(l), "boosted lease schedules first: {order:?}");
    }

    #[test]
    fn retired_leases_drop_their_completions() {
        let cluster = SharedCluster::new(backend(4));
        let mut a = cluster.lease(cluster.open_account());
        let mut b = cluster.lease(cluster.open_account());
        a.submit(task("a", 5));
        b.submit(task("b", 1));
        b.retire();
        assert_eq!(b.in_flight(), 0);
        // Draining A pumps B's completion; it is dropped, not queued.
        while a.next_completion().is_some() {}
        assert!(b.next_completion().is_none());
        // Usage is still metered for the retired lease.
        assert_eq!(cluster.usage_of(b.id()).unwrap().completions, 1);
    }

    #[test]
    fn account_usage_is_the_sum_of_its_leases_retired_ones_included() {
        let cluster = SharedCluster::new(backend(4));
        let shared = cluster.open_account();
        let other = cluster.open_account();
        let mut a = cluster.lease(shared);
        let mut b = cluster.lease(shared);
        let mut c = cluster.lease(other);
        a.submit(task("a", 10));
        b.submit(task("b", 2));
        c.submit(task("c", 7));
        // b's completion arrives after its retirement: dropped, but billed.
        b.retire();
        while a.next_completion().is_some() {}
        while c.next_completion().is_some() {}
        let (ua, ub) = (a.usage(), cluster.usage_of(b.id()).unwrap());
        let account = cluster.account_usage(shared);
        assert_eq!(account.core_seconds, ua.core_seconds + ub.core_seconds);
        assert_eq!(account.core_seconds, 12.0);
        assert_eq!(account.completions, 2);
        assert_eq!(cluster.account_usage(other).core_seconds, 7.0);
    }

    #[test]
    fn lease_ids_are_local_and_cannot_name_foreign_tasks() {
        let cluster = SharedCluster::new(backend(1));
        let mut a = cluster.lease(cluster.open_account());
        let mut b = cluster.lease(cluster.open_account());
        let at = a.submit(task("a", 5));
        let bt = b.submit(task("b", 5));
        // Ids are namespaced per lease: both leases see a dense space
        // starting at 0, so the global submission counter never leaks.
        assert_eq!(at, bt);
        // Ids a lease never issued resolve to nothing…
        assert!(!b.cancel(TaskId(7)), "unknown local id refused");
        assert!(!b.preempt(TaskId(7)), "unknown local id refused");
        // …and its own ids touch only its own work: canceling b's task 0
        // (still queued behind a's on the single core) leaves a's task 0 —
        // a different global task — running to completion.
        assert!(b.cancel(bt), "own queued task cancels fine");
        let got = a.next_completion().expect("a's task survives");
        assert_eq!(got.task, at);
        assert!(a.next_completion().is_none());
        // b's canceled attempt surfaces under b's local id, then b drains.
        let canceled = b.next_completion().expect("cancellation completion");
        assert_eq!(canceled.task, bt);
        assert!(canceled.result.is_err());
        assert!(b.next_completion().is_none());
    }

    #[test]
    fn service_side_preempt_speaks_lease_local_ids() {
        let cluster = SharedCluster::new(backend(1));
        let mut a = cluster.lease(cluster.open_account());
        let mut b = cluster.lease(cluster.open_account());
        let _at = a.submit(task("a", 50));
        let bt = b.submit(task("b", 5));
        // b's task is queued (a holds the core): preempt refuses it.
        assert!(!cluster.preempt(b.id(), bt), "queued task not preemptible");
        // Unknown lease or id: refused, never routed to a foreign task.
        assert!(!cluster.preempt(99, bt));
        assert!(!cluster.preempt(b.id(), TaskId(7)));
        assert_eq!(cluster.tasks_of(b.id()), vec![bt]);
        assert!(cluster.tasks_of(99).is_empty(), "unknown lease: no tasks");
        // More work on b, then drain a: b's tasks run behind it. Finished
        // tasks drop out of the list as soon as they are pumped (popped or
        // not); what remains keeps its lease-local ids in submission order.
        let bt2 = b.submit(task("b2", 5));
        let bt3 = b.submit(task("b3", 5));
        assert_eq!(cluster.tasks_of(b.id()), vec![bt, bt2, bt3]);
        while a.next_completion().is_some() {}
        assert_eq!(b.next_completion().expect("b's first task").task, bt);
        assert_eq!(cluster.tasks_of(b.id()), vec![bt2, bt3]);
        assert!(cluster.preempt(b.id(), bt2), "bt2 holds the core now");
        assert!(!cluster.preempt(b.id(), bt), "finished: resolves to nothing");
        while b.next_completion().is_some() {}
        assert!(cluster.tasks_of(b.id()).is_empty());
    }

    #[test]
    fn tasks_submitted_around_the_lease_layer_are_never_delivered() {
        // Backend ids 0 and 2 bypass the leases; id 1 is lease a's first.
        let mut raw = backend(4);
        raw.submit(task("before", 1));
        let cluster = SharedCluster::new(raw);
        let mut a = cluster.lease(cluster.open_account());
        let at = a.submit(task("a", 3));
        cluster.core.borrow_mut().backend.submit(task("between", 2));
        let bt = a.submit(task("a2", 5));
        assert_eq!(cluster.tasks_of(a.id()), vec![at, bt]);
        // Both strays finish first and are dropped on the way to a's own.
        assert_eq!(cluster.pump_one(), Some(a.id()));
        assert_eq!(a.next_completion().expect("a's own").task, at);
        assert_eq!(a.next_completion().expect("a's second").task, bt);
        assert!(a.next_completion().is_none());
        let usage = cluster.usage_of(a.id()).expect("a is a lease");
        assert_eq!((usage.completions, usage.core_seconds), (2, 8.0));
    }

    #[test]
    fn a_lease_id_never_issued_answers_like_an_unknown_one() {
        let cluster = SharedCluster::new(backend(1));
        let mut a = cluster.lease(cluster.open_account());
        let at = a.submit(task("a", 5));
        for never in [a.id() + 1, 99, u32::MAX] {
            assert!(!cluster.lease_ready(never));
            assert_eq!(cluster.usage_of(never), None);
            assert!(cluster.tasks_of(never).is_empty());
            assert!(!cluster.preempt(never, at));
        }
        assert!(!cluster.lease_ready(a.id()), "a waits on its task");
        assert_eq!(cluster.tasks_of(a.id()), vec![at]);
    }

    #[test]
    fn completion_order_within_a_lease_is_pump_order() {
        // Two identical clusters; in one, lease B drives all the pumping.
        // Lease A must observe its completions in the same order either way.
        let run = |b_pumps_first: bool| -> Vec<u64> {
            let cluster = SharedCluster::new(backend(2));
            let mut a = cluster.lease(cluster.open_account());
            let mut b = cluster.lease(cluster.open_account());
            for i in 0..4 {
                a.submit(task(&format!("a{i}"), 3 + i));
                b.submit(task(&format!("b{i}"), 2 + i));
            }
            if b_pumps_first {
                while b.next_completion().is_some() {}
            }
            let mut seen = Vec::new();
            while let Some(c) = a.next_completion() {
                seen.push(c.task.0);
            }
            seen
        };
        assert_eq!(run(false), run(true));
    }
}
