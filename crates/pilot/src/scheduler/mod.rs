//! Slot scheduling: the pilot agent's core decision loop.
//!
//! The scheduler owns the node's free core/GPU sets and a queue of waiting
//! tasks, and decides which waiting tasks to place whenever capacity
//! changes. Two placement policies are provided:
//!
//! * [`PlacementPolicy::Fifo`] — strict arrival order; a large task at the
//!   head blocks everything behind it (simple, fair, poor utilization).
//! * [`PlacementPolicy::Backfill`] — RP-style continuous scheduling: any
//!   queued task that fits the current free slots may start, even if an
//!   earlier, larger task is still waiting. This is what lets IMPRESS
//!   "offload newly created pipelines … to the idle resources when
//!   possible" (§III-B) and is the default.
//!
//! Placement is deterministic: free devices are bitmask sets granted
//! lowest-id-first, so identical submission sequences produce identical
//! allocations in both backends.
//!
//! # Performance shape
//!
//! The waiting queue is a slab of entries threaded through priority
//! buckets (a `BTreeMap` keyed highest-priority-first): enqueue is
//! O(log P) in the number of distinct priorities, dequeue/cancel are O(1)
//! (cancel names its slab entry by the ticket enqueue returned and leaves
//! a tombstone that is compacted away amortized), and no operation shifts
//! a `Vec` or hashes an id. Within a bucket, entries are grouped into
//! **shape classes** — one FIFO deque per distinct `(cores, gpus)`
//! request shape, merged by global arrival `seq` during a scan. Because
//! free capacity only shrinks within a scan, the first member of a shape
//! that fails to fit proves every later member of that shape fails too,
//! so the whole class is retired for the rest of the scan: a no-progress
//! backfill round costs O(distinct shapes), not O(queue length).
//! Placement rounds keep two further caches:
//!
//! * a **capacity/queue epoch** pair — if neither the queue nor free
//!   capacity changed since the last round, the round is provably a no-op
//!   and returns immediately;
//! * a **blocked-shape cache** — the smallest `(cores, gpus)` request that
//!   failed against the current free frontier. Any queued request
//!   dominating it (needing ≥ cores *and* ≥ gpus) cannot fit on any up
//!   node either and is skipped without touching the pools. The cache is
//!   invalidated whenever free capacity can *grow* (release / recover);
//!   placements and drains only shrink the frontier, so it stays valid
//!   across them.
//!
//! All three mechanisms are pure bypasses of work whose outcome is
//! already known: the placement *sequence* is bit-identical to the naive
//! scan-everything scheduler, which survives as the `#[cfg(test)]`
//! [`reference`] oracle that the differential property test replays
//! random workloads against.

mod pool;
#[cfg(test)]
mod reference;

pub use pool::SlotPool;

use crate::resources::{Allocation, ClusterSpec, NodeSpec, ResourceRequest};
use crate::task::TaskId;
use impress_json::json_enum;
use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

/// Which waiting task may start when slots are free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Strict arrival order; the queue head blocks.
    Fifo,
    /// Continuous scheduling: any fitting task may start (default).
    Backfill,
}
json_enum!(PlacementPolicy { Fifo, Backfill });

/// A queued task in the slab. `live` is cleared on cancellation; the
/// tombstone stays in its class deque until pruned or compacted so no
/// `VecDeque` ever shifts. `seq` is the global arrival number — the FIFO
/// tie-breaker when merging shape classes within a priority bucket;
/// `priority` names the bucket the entry is threaded through.
#[derive(Debug)]
struct QueueEntry {
    id: TaskId,
    seq: u64,
    priority: i32,
    live: bool,
}

/// A flat segment tree over the cluster's nodes, keyed by each node's free
/// counters, answering *leftmost node whose free cores/GPUs admit a shape*
/// in O(log nodes) instead of the naive O(nodes) scan. Leaves store
/// `(cores_free, gpus_free, up)` per node (down nodes are stored as
/// never-admitting); internal nodes store the component-wise maxima and an
/// any-up flag. The internal condition is necessary but not sufficient —
/// the max cores and max gpus of a subtree can live on different leaves —
/// so the descent backtracks; the leaf condition is exact because
/// [`SlotPool::try_alloc`] admits precisely on its free counters. The
/// result is therefore always the same node the linear first-fit scan
/// would pick, which the reference-oracle property test replays.
#[derive(Debug)]
struct FitIndex {
    /// Leaf count rounded up to a power of two; node `i`'s leaf is `size + i`.
    size: usize,
    /// Per-subtree max free cores over up nodes.
    cores: Vec<u32>,
    /// Per-subtree max free GPUs over up nodes.
    gpus: Vec<u32>,
    /// Whether any node in the subtree is up.
    up: Vec<bool>,
}

impl FitIndex {
    /// An index over `nodes` identical fully-free up nodes.
    fn new(nodes: usize, node: &NodeSpec) -> Self {
        let size = nodes.next_power_of_two().max(1);
        let mut fit = FitIndex {
            size,
            cores: vec![0; 2 * size],
            gpus: vec![0; 2 * size],
            up: vec![false; 2 * size],
        };
        for i in 0..nodes {
            fit.cores[size + i] = node.cores;
            fit.gpus[size + i] = node.gpus;
            fit.up[size + i] = true;
        }
        for i in (1..size).rev() {
            fit.pull(i);
        }
        fit
    }

    fn pull(&mut self, i: usize) {
        self.cores[i] = self.cores[2 * i].max(self.cores[2 * i + 1]);
        self.gpus[i] = self.gpus[2 * i].max(self.gpus[2 * i + 1]);
        self.up[i] = self.up[2 * i] || self.up[2 * i + 1];
    }

    /// Record `node`'s new free counters (or its death), updating ancestors.
    fn set(&mut self, node: usize, cores: u32, gpus: u32, up: bool) {
        let mut i = self.size + node;
        self.cores[i] = cores;
        self.gpus[i] = gpus;
        self.up[i] = up;
        while i > 1 {
            i /= 2;
            self.pull(i);
        }
    }

    fn admits(&self, i: usize, cores: u32, gpus: u32) -> bool {
        self.up[i] && self.cores[i] >= cores && self.gpus[i] >= gpus
    }

    /// Leftmost up node whose free counters admit `(cores, gpus)`.
    fn first_fit(&self, cores: u32, gpus: u32) -> Option<usize> {
        self.descend(1, cores, gpus)
    }

    fn descend(&self, i: usize, cores: u32, gpus: u32) -> Option<usize> {
        if !self.admits(i, cores, gpus) {
            return None;
        }
        if i >= self.size {
            return Some(i - self.size);
        }
        self.descend(2 * i, cores, gpus)
            .or_else(|| self.descend(2 * i + 1, cores, gpus))
    }
}

/// One priority class: waiting entries grouped by request shape. Each
/// `(cores, gpus)` shape keeps its own FIFO deque of slab indices; a scan
/// merges the class heads by arrival `seq`. The grouping is what lets a
/// scan retire an entire shape in O(1) after its first member fails —
/// identical shapes against a frontier that only shrinks must all fail.
#[derive(Debug, Default)]
struct Bucket {
    /// Shape classes in first-seen order. A bucket holds a handful of
    /// shapes and every scan visits all of them anyway, so lookup is a
    /// linear find and iteration order is the same on every run.
    classes: Vec<((u32, u32), VecDeque<u32>)>,
    /// Live entries across all classes (tombstones excluded).
    live: usize,
}

impl Bucket {
    fn class_mut(&mut self, shape: (u32, u32)) -> &mut VecDeque<u32> {
        let at = match self.classes.iter().position(|(s, _)| *s == shape) {
            Some(at) => at,
            None => {
                self.classes.push((shape, VecDeque::new()));
                self.classes.len() - 1
            }
        };
        &mut self.classes[at].1
    }
}

/// The pilot agent's scheduler.
#[derive(Debug)]
pub struct Scheduler {
    pools: Vec<SlotPool>,
    /// `down[i]` — node `i` is drained (crashed) and takes no placements.
    down: Vec<bool>,
    /// Segment tree over per-node free counters; kept in lockstep with
    /// `pools`/`down` so placement is O(log nodes).
    fit: FitIndex,
    /// Priority buckets, highest first.
    buckets: BTreeMap<Reverse<i32>, Bucket>,
    slab: Vec<QueueEntry>,
    /// Arrival counter feeding `QueueEntry::seq`.
    next_seq: u64,
    free_slots: Vec<u32>,
    /// Live (placeable) entries across all buckets.
    live: usize,
    /// Tombstones still threaded through buckets.
    dead: usize,
    policy: PlacementPolicy,
    cluster: ClusterSpec,
    /// Bumped on every queue mutation (enqueue/cancel).
    queue_epoch: u64,
    /// Bumped whenever free capacity can grow (release/recover).
    capacity_epoch: u64,
    /// Epochs at the end of the last completed placement round; when both
    /// still match, the next round is a provable no-op.
    scanned_queue_epoch: u64,
    scanned_capacity_epoch: u64,
    /// Smallest `(cores, gpus)` shape known not to fit any up node's free
    /// frontier. Valid until capacity grows ([`Scheduler::release`] /
    /// [`Scheduler::recover_node`] clear it).
    blocked_shape: Option<(u32, u32)>,
    /// Scratch of one backfill scan: the shapes that failed in it.
    failed_shapes: Vec<(u32, u32)>,
}

impl Scheduler {
    /// A scheduler over a single `node` with the given policy.
    pub fn new(node: NodeSpec, policy: PlacementPolicy) -> Self {
        Self::new_cluster(ClusterSpec::single(node), policy)
    }

    /// A scheduler over a homogeneous multi-node cluster. Tasks are placed
    /// first-fit across nodes and never span nodes.
    pub fn new_cluster(cluster: ClusterSpec, policy: PlacementPolicy) -> Self {
        Scheduler {
            pools: (0..cluster.count)
                .map(|_| SlotPool::new(&cluster.node))
                .collect(),
            down: vec![false; cluster.count as usize],
            fit: FitIndex::new(cluster.count as usize, &cluster.node),
            buckets: BTreeMap::new(),
            slab: Vec::new(),
            next_seq: 0,
            free_slots: Vec::new(),
            live: 0,
            dead: 0,
            policy,
            cluster,
            queue_epoch: 0,
            capacity_epoch: 0,
            scanned_queue_epoch: u64::MAX,
            scanned_capacity_epoch: u64::MAX,
            blocked_shape: None,
            failed_shapes: Vec::new(),
        }
    }

    /// The per-node shape this scheduler manages.
    pub fn node(&self) -> &NodeSpec {
        &self.cluster.node
    }

    /// The full cluster shape.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// First-fit placement across the cluster's *up* nodes. The fit index
    /// answers the node query in O(log nodes); down nodes are excluded by
    /// their never-admitting leaves, so no explicit `down` check is needed.
    fn alloc_in(
        pools: &mut [SlotPool],
        fit: &mut FitIndex,
        req: &ResourceRequest,
    ) -> Option<Allocation> {
        let idx = fit.first_fit(req.cores, req.gpus)?;
        let pool = &mut pools[idx];
        let mut alloc = pool
            .try_alloc(req)
            .expect("fit index admitted a node its pool rejects");
        alloc.node = idx as u32;
        fit.set(idx, pool.cores_free(), pool.gpus_free(), true);
        Some(alloc)
    }

    /// Direct first-fit allocation that bypasses the queue and skips the
    /// `avoid`ed nodes: the grant lands on the leftmost *up* node not in
    /// `avoid` whose free slots admit `req`, or nowhere. Used by hedged
    /// duplicates (which must not share the straggler's node) and by
    /// quarantine retry steering (away from nodes a task already failed
    /// on). The avoided nodes are masked out of the fit index for the
    /// single query and restored untouched afterwards; the queue, epochs
    /// and blocked-shape cache are unaffected (an allocation only shrinks
    /// the free frontier, which every cache already tolerates).
    pub fn alloc_avoiding(&mut self, req: &ResourceRequest, avoid: &[u32]) -> Option<Allocation> {
        let mut saved = Vec::with_capacity(avoid.len());
        for &n in avoid {
            let idx = n as usize;
            if idx >= self.pools.len() {
                continue;
            }
            let leaf = self.fit.size + idx;
            saved.push((idx, self.fit.cores[leaf], self.fit.gpus[leaf], self.fit.up[leaf]));
            self.fit.set(idx, 0, 0, false);
        }
        let alloc = Self::alloc_in(&mut self.pools, &mut self.fit, req);
        // Restore in reverse so a node named twice gets its original leaf
        // back last. The granted node (if any) is never in `avoid`, so no
        // restore clobbers the allocation's counter update.
        for (idx, cores, gpus, up) in saved.into_iter().rev() {
            self.fit.set(idx, cores, gpus, up);
        }
        alloc
    }

    /// Drain a crashed node: its pool is rebuilt empty-of-grants and it takes
    /// no placements until [`Scheduler::recover_node`]. The caller is
    /// responsible for requeueing tasks that were resident on it (their
    /// allocations are implicitly forfeited — do *not* release them).
    ///
    /// A drain only shrinks the placeable frontier, so the blocked-shape
    /// cache and round epochs stay valid.
    pub fn drain_node(&mut self, node: u32) {
        let idx = node as usize;
        assert!(!self.down[idx], "node {node} drained twice");
        self.down[idx] = true;
        self.pools[idx] = SlotPool::new(&self.cluster.node);
        self.fit.set(idx, 0, 0, false);
    }

    /// Re-admit a recovered node to placement with all slots free.
    pub fn recover_node(&mut self, node: u32) {
        let idx = node as usize;
        assert!(self.down[idx], "node {node} recovered while up");
        self.down[idx] = false;
        // The pool was rebuilt fully free at drain time.
        self.fit
            .set(idx, self.pools[idx].cores_free(), self.pools[idx].gpus_free(), true);
        self.capacity_epoch += 1;
        self.blocked_shape = None;
    }

    /// Whether `node` is currently accepting placements.
    pub fn node_is_up(&self, node: u32) -> bool {
        !self.down[node as usize]
    }

    /// The active placement policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Enqueue a task at default priority. Panics if the request can never
    /// fit the node — accepting it would deadlock the queue. Returns the
    /// queue ticket, as [`Scheduler::enqueue_with_priority`] does.
    pub fn enqueue(&mut self, id: TaskId, request: ResourceRequest) -> u32 {
        self.enqueue_with_priority(id, request, 0)
    }

    /// Enqueue a task with an explicit priority: higher priorities are
    /// considered first at every placement round; equal priorities keep
    /// submission (FIFO) order.
    ///
    /// Returns the entry's queue ticket, which [`Scheduler::cancel_queued`]
    /// takes back together with the id. The scheduler keeps no index from
    /// task ids to entries: a caller that may cancel holds the ticket, and
    /// it is the caller's business not to enqueue an id that is already
    /// queued (the queue would hold it twice).
    pub fn enqueue_with_priority(
        &mut self,
        id: TaskId,
        request: ResourceRequest,
        priority: i32,
    ) -> u32 {
        assert!(
            request.fits_node(&self.cluster.node),
            "{id}: request {request} can never fit node {}",
            self.cluster.node
        );
        let entry = QueueEntry {
            id,
            seq: self.next_seq,
            priority,
            live: true,
        };
        self.next_seq += 1;
        let idx = match self.free_slots.pop() {
            Some(i) => {
                self.slab[i as usize] = entry;
                i
            }
            None => {
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
        };
        let bucket = self.buckets.entry(Reverse(priority)).or_default();
        bucket
            .class_mut((request.cores, request.gpus))
            .push_back(idx);
        bucket.live += 1;
        self.live += 1;
        self.queue_epoch += 1;
        idx
    }

    /// Place every task the policy allows right now. Returns the granted
    /// `(task, allocation)` pairs in placement order.
    pub fn place_ready(&mut self) -> Vec<(TaskId, Allocation)> {
        // Nothing enqueued and no capacity growth since the last round ⇒
        // every outcome is already known to be "no placement".
        if self.scanned_queue_epoch == self.queue_epoch
            && self.scanned_capacity_epoch == self.capacity_epoch
        {
            return Vec::new();
        }
        let mut placed = Vec::new();
        match self.policy {
            PlacementPolicy::Fifo => self.place_fifo(&mut placed),
            PlacementPolicy::Backfill => self.place_backfill(&mut placed),
        }
        self.scanned_queue_epoch = self.queue_epoch;
        self.scanned_capacity_epoch = self.capacity_epoch;
        if self.dead > 64 && self.dead >= self.live {
            self.compact();
        }
        placed
    }

    /// The earliest-arrived live head across a bucket's shape classes not
    /// `skip`ped, pruning front tombstones along the way. Returns the
    /// head's class as an index into `bucket.classes`.
    fn min_seq_head(
        slab: &[QueueEntry],
        free_slots: &mut Vec<u32>,
        dead: &mut usize,
        bucket: &mut Bucket,
        skip: impl Fn((u32, u32)) -> bool,
    ) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (at, (shape, dq)) in bucket.classes.iter_mut().enumerate() {
            if skip(*shape) {
                continue;
            }
            while let Some(&idx) = dq.front() {
                if slab[idx as usize].live {
                    break;
                }
                dq.pop_front();
                free_slots.push(idx);
                *dead -= 1;
            }
            if let Some(&idx) = dq.front() {
                let seq = slab[idx as usize].seq;
                if best.is_none_or(|(s, _)| seq < s) {
                    best = Some((seq, at));
                }
            }
        }
        best.map(|(_, at)| at)
    }

    /// Pop the front of `bucket.classes[class]` as a placed entry.
    fn take_head(
        slab: &mut [QueueEntry],
        free_slots: &mut Vec<u32>,
        live: &mut usize,
        bucket: &mut Bucket,
        class: usize,
    ) -> TaskId {
        let idx = bucket.classes[class]
            .1
            .pop_front()
            .expect("class head exists");
        bucket.live -= 1;
        let entry = &mut slab[idx as usize];
        debug_assert!(entry.live, "placed a tombstone");
        entry.live = false;
        free_slots.push(idx);
        *live -= 1;
        entry.id
    }

    /// Strict-arrival placement: pop the overall earliest entry of the
    /// highest-priority bucket while it fits; the head blocks everything.
    fn place_fifo(&mut self, placed: &mut Vec<(TaskId, Allocation)>) {
        loop {
            let Some((&key, bucket)) = self.buckets.iter_mut().next() else {
                return;
            };
            let head = Self::min_seq_head(
                &self.slab,
                &mut self.free_slots,
                &mut self.dead,
                bucket,
                |_| false,
            );
            let Some(class) = head else {
                self.buckets.remove(&key);
                continue;
            };
            let shape = bucket.classes[class].0;
            let req = ResourceRequest::with_gpus(shape.0, shape.1);
            match Self::alloc_in(&mut self.pools, &mut self.fit, &req) {
                Some(alloc) => {
                    let id = Self::take_head(
                        &mut self.slab,
                        &mut self.free_slots,
                        &mut self.live,
                        bucket,
                        class,
                    );
                    placed.push((id, alloc));
                }
                None => return, // FIFO: the head blocks everything behind it
            }
        }
    }

    /// Continuous scheduling: within each priority bucket (highest first),
    /// visit live entries in arrival order by merging the shape-class heads,
    /// placing whatever fits. Two prunes keep a no-progress scan at
    /// O(distinct shapes) instead of O(queue):
    ///
    /// * once a shape fails, its entire class is retired for the rest of
    ///   the scan — identical requests against a frontier that only
    ///   shrinks must fail identically;
    /// * classes dominating the cached blocked shape are skipped outright.
    ///
    /// Both prunes only skip fit tests whose outcome is already known, so
    /// the placement sequence equals the naive full scan's.
    fn place_backfill(&mut self, placed: &mut Vec<(TaskId, Allocation)>) {
        let mut blocked = self.blocked_shape;
        // Failures carry across buckets too: the frontier never grows
        // during a scan, so a shape that failed at high priority still
        // fails at low priority.
        let failed = &mut self.failed_shapes;
        failed.clear();
        for bucket in self.buckets.values_mut() {
            while bucket.live > 0 {
                // Earliest live head among classes not yet known to fail,
                // nor dominating a shape that fits nowhere.
                let head = Self::min_seq_head(
                    &self.slab,
                    &mut self.free_slots,
                    &mut self.dead,
                    bucket,
                    |shape| {
                        failed.contains(&shape)
                            || blocked.is_some_and(|(bc, bg)| shape.0 >= bc && shape.1 >= bg)
                    },
                );
                let Some(class) = head else { break };
                let shape = bucket.classes[class].0;
                let req = ResourceRequest::with_gpus(shape.0, shape.1);
                match Self::alloc_in(&mut self.pools, &mut self.fit, &req) {
                    Some(alloc) => {
                        let id = Self::take_head(
                            &mut self.slab,
                            &mut self.free_slots,
                            &mut self.live,
                            bucket,
                            class,
                        );
                        placed.push((id, alloc));
                    }
                    None => {
                        failed.push(shape);
                        // Keep the smaller failed shape; an incomparable new
                        // failure keeps the existing cache (either is sound).
                        blocked = Some(match blocked {
                            Some((bc, bg)) if !(shape.0 <= bc && shape.1 <= bg) => (bc, bg),
                            _ => shape,
                        });
                    }
                }
            }
        }
        self.blocked_shape = blocked;
    }

    /// Rebuild the buckets without tombstones, reclaiming their slab slots.
    /// Runs when tombstones outnumber live entries, so the O(queue) sweep
    /// amortizes to O(1) per removal.
    fn compact(&mut self) {
        let slab = &self.slab;
        let free_slots = &mut self.free_slots;
        self.buckets.retain(|_, bucket| {
            bucket.classes.retain_mut(|(_, dq)| {
                dq.retain(|&idx| {
                    if slab[idx as usize].live {
                        true
                    } else {
                        free_slots.push(idx);
                        false
                    }
                });
                !dq.is_empty()
            });
            bucket.live > 0
        });
        self.dead = 0;
    }

    /// Return an allocation's slots to its node's pool. The caller should
    /// follow with [`Scheduler::place_ready`]. Panics if the node is
    /// drained: allocations on a crashed node are forfeited, and releasing
    /// one is a backend bookkeeping bug.
    pub fn release(&mut self, alloc: &Allocation) {
        assert!(
            !self.down[alloc.node as usize],
            "release of an allocation on drained node {}",
            alloc.node
        );
        let idx = alloc.node as usize;
        self.pools[idx].release(alloc);
        self.fit
            .set(idx, self.pools[idx].cores_free(), self.pools[idx].gpus_free(), true);
        self.capacity_epoch += 1;
        self.blocked_shape = None;
    }

    /// [`Scheduler::release`], additionally recycling the allocation's id
    /// buffers into the node's pool for reuse by future grants — the
    /// steady-state place/release cycle then allocates nothing.
    pub fn release_owned(&mut self, alloc: Allocation) {
        assert!(
            !self.down[alloc.node as usize],
            "release of an allocation on drained node {}",
            alloc.node
        );
        let idx = alloc.node as usize;
        self.pools[idx].release_owned(alloc);
        self.fit
            .set(idx, self.pools[idx].cores_free(), self.pools[idx].gpus_free(), true);
        self.capacity_epoch += 1;
        self.blocked_shape = None;
    }

    /// Remove a queued (not yet placed) task, named by its id and the
    /// ticket its enqueue returned. Returns `true` if it was found: a
    /// ticket whose entry was placed or cancelled since — its slot free, or
    /// reused by a later enqueue of another id — finds nothing and changes
    /// nothing.
    pub fn cancel_queued(&mut self, id: TaskId, ticket: u32) -> bool {
        let Some(entry) = self
            .slab
            .get_mut(ticket as usize)
            .filter(|e| e.live && e.id == id)
        else {
            return false;
        };
        entry.live = false;
        let priority = entry.priority;
        self.live -= 1;
        self.dead += 1;
        self.buckets
            .get_mut(&Reverse(priority))
            .expect("queued task's bucket exists")
            .live -= 1;
        // Removing a blocked FIFO head can unblock the next entry,
        // so the next round must not early-exit.
        self.queue_epoch += 1;
        if self.dead > 64 && self.dead >= self.live {
            self.compact();
        }
        true
    }

    /// Number of tasks waiting for slots.
    pub fn queue_len(&self) -> usize {
        self.live
    }

    /// Free cores right now, across all *up* nodes.
    pub fn cores_free(&self) -> u32 {
        self.pools
            .iter()
            .zip(&self.down)
            .filter(|(_, d)| !**d)
            .map(|(p, _)| p.cores_free())
            .sum()
    }

    /// Free GPUs right now, across all *up* nodes.
    pub fn gpus_free(&self) -> u32 {
        self.pools
            .iter()
            .zip(&self.down)
            .filter(|(_, d)| !**d)
            .map(|(p, _)| p.gpus_free())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceScheduler;
    use super::*;
    use impress_sim::props;

    fn req(c: u32, g: u32) -> ResourceRequest {
        ResourceRequest::with_gpus(c, g)
    }

    fn ids(placed: &[(TaskId, Allocation)]) -> Vec<u64> {
        placed.iter().map(|(id, _)| id.0).collect()
    }

    #[test]
    fn fit_index_tracks_counters_and_skips_down_nodes() {
        let node = NodeSpec::new(4, 2, 1);
        let mut fit = FitIndex::new(10, &node);
        // Fully free: everything lands leftmost, padding leaves (10..16)
        // never admit.
        assert_eq!(fit.first_fit(4, 2), Some(0));
        assert_eq!(fit.first_fit(0, 0), Some(0));
        assert_eq!(fit.first_fit(5, 0), None, "no node has five cores");
        // Fill node 0, kill node 1: a full-node request must skip to 2.
        fit.set(0, 0, 0, true);
        fit.set(1, 0, 0, false);
        assert_eq!(fit.first_fit(4, 2), Some(2));
        // A zero request fits the exhausted-but-up node 0, not the down
        // node 1 — the up flag, not the counters, excludes dead nodes.
        assert_eq!(fit.first_fit(0, 0), Some(0));
        fit.set(0, 0, 0, false);
        assert_eq!(fit.first_fit(0, 0), Some(2));
        // Cores on node 3, gpus on node 2 only: the descent must backtrack
        // past subtrees whose maxima come from different leaves.
        for i in 2..10 {
            fit.set(i, 1, 0, true);
        }
        fit.set(2, 1, 2, true);
        fit.set(3, 4, 0, true);
        assert_eq!(fit.first_fit(4, 2), None);
        assert_eq!(fit.first_fit(1, 2), Some(2));
        assert_eq!(fit.first_fit(4, 0), Some(3));
        // Recovery readmits at full capacity.
        fit.set(1, 4, 2, true);
        assert_eq!(fit.first_fit(4, 2), Some(1));
    }

    #[test]
    fn fifo_blocks_behind_large_head() {
        let mut s = Scheduler::new(NodeSpec::new(8, 0, 1), PlacementPolicy::Fifo);
        s.enqueue(TaskId(0), req(6, 0));
        s.enqueue(TaskId(1), req(6, 0)); // won't fit after task 0
        s.enqueue(TaskId(2), req(2, 0)); // would fit, but FIFO blocks
        let placed = s.place_ready();
        assert_eq!(ids(&placed), vec![0]);
        assert_eq!(s.queue_len(), 2);
        assert_eq!(s.cores_free(), 2);
    }

    #[test]
    fn backfill_places_fitting_tasks_past_blocked_head() {
        let mut s = Scheduler::new(NodeSpec::new(8, 0, 1), PlacementPolicy::Backfill);
        s.enqueue(TaskId(0), req(6, 0));
        s.enqueue(TaskId(1), req(6, 0));
        s.enqueue(TaskId(2), req(2, 0));
        let placed = s.place_ready();
        assert_eq!(ids(&placed), vec![0, 2]);
        assert_eq!(s.cores_free(), 0);
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn release_makes_blocked_task_placeable() {
        let mut s = Scheduler::new(NodeSpec::new(8, 0, 1), PlacementPolicy::Backfill);
        s.enqueue(TaskId(0), req(8, 0));
        let placed = s.place_ready();
        assert_eq!(ids(&placed), vec![0]);
        s.enqueue(TaskId(1), req(4, 0));
        assert!(s.place_ready().is_empty());
        s.release(&placed[0].1);
        let placed2 = s.place_ready();
        assert_eq!(ids(&placed2), vec![1]);
    }

    #[test]
    fn gpus_are_scheduled_independently_of_cores() {
        let mut s = Scheduler::new(NodeSpec::new(28, 4, 128), PlacementPolicy::Backfill);
        s.enqueue(TaskId(0), req(2, 4)); // all GPUs
        s.enqueue(TaskId(1), req(2, 1)); // blocked on GPUs
        s.enqueue(TaskId(2), req(24, 0)); // CPU-only fits
        let placed = s.place_ready();
        assert_eq!(ids(&placed), vec![0, 2]);
        assert_eq!(s.gpus_free(), 0);
        assert_eq!(s.cores_free(), 2);
    }

    #[test]
    fn allocations_satisfy_requests_and_do_not_overlap() {
        let mut s = Scheduler::new(NodeSpec::new(10, 2, 1), PlacementPolicy::Backfill);
        s.enqueue(TaskId(0), req(4, 1));
        s.enqueue(TaskId(1), req(4, 1));
        let placed = s.place_ready();
        assert_eq!(placed.len(), 2);
        for (i, (_, a)) in placed.iter().enumerate() {
            assert!(a.satisfies(&req(4, 1)), "alloc {i}");
        }
        let mut all_cores: Vec<u32> = placed
            .iter()
            .flat_map(|(_, a)| a.core_ids.iter().copied())
            .collect();
        all_cores.sort_unstable();
        all_cores.dedup();
        assert_eq!(all_cores.len(), 8, "core grants must not overlap");
        assert_ne!(placed[0].1.gpu_ids, placed[1].1.gpu_ids);
    }

    #[test]
    fn release_returns_exactly_the_granted_devices() {
        let mut s = Scheduler::new(NodeSpec::new(4, 2, 1), PlacementPolicy::Fifo);
        s.enqueue(TaskId(0), req(4, 2));
        let placed = s.place_ready();
        assert_eq!(s.cores_free(), 0);
        assert_eq!(s.gpus_free(), 0);
        s.release(&placed[0].1);
        assert_eq!(s.cores_free(), 4);
        assert_eq!(s.gpus_free(), 2);
    }

    #[test]
    fn cancel_queued_removes_waiting_task() {
        let mut s = Scheduler::new(NodeSpec::new(2, 0, 1), PlacementPolicy::Fifo);
        s.enqueue(TaskId(0), req(2, 0));
        let ticket = s.enqueue(TaskId(1), req(2, 0));
        let _ = s.place_ready();
        assert!(!s.cancel_queued(TaskId(2), ticket), "the ticket is task 1's");
        assert!(s.cancel_queued(TaskId(1), ticket));
        assert!(!s.cancel_queued(TaskId(1), ticket));
        assert_eq!(s.queue_len(), 0);
        // A later task takes over the freed slot: task 1's ticket is stale,
        // and must not cancel the newcomer.
        let _ = s.place_ready(); // prunes the tombstone, freeing its slot
        let reused = s.enqueue(TaskId(7), req(2, 0));
        assert_eq!(reused, ticket, "the slab recycles slots");
        assert!(!s.cancel_queued(TaskId(1), ticket), "stale ticket");
        assert_eq!(s.queue_len(), 1);
        assert!(s.cancel_queued(TaskId(7), reused));
    }

    #[test]
    #[should_panic(expected = "can never fit")]
    fn impossible_request_is_rejected_at_enqueue() {
        let mut s = Scheduler::new(NodeSpec::new(4, 0, 1), PlacementPolicy::Fifo);
        s.enqueue(TaskId(0), req(5, 0));
    }

    #[test]
    fn higher_priority_tasks_jump_the_queue() {
        let mut s = Scheduler::new(NodeSpec::new(2, 0, 1), PlacementPolicy::Backfill);
        s.enqueue(TaskId(0), req(2, 0)); // occupies everything
        let placed = s.place_ready();
        assert_eq!(ids(&placed), vec![0]);
        s.enqueue_with_priority(TaskId(1), req(2, 0), 0);
        s.enqueue_with_priority(TaskId(2), req(2, 0), 5); // urgent
        s.enqueue_with_priority(TaskId(3), req(2, 0), 5); // urgent, later
        s.release(&placed[0].1);
        let placed = s.place_ready();
        assert_eq!(ids(&placed), vec![2], "highest priority first");
        s.release(&placed[0].1);
        let placed = s.place_ready();
        assert_eq!(ids(&placed), vec![3], "FIFO within a priority class");
        s.release(&placed[0].1);
        assert_eq!(ids(&s.place_ready()), vec![1]);
    }

    #[test]
    fn backfill_still_fills_around_high_priority_blockers() {
        let mut s = Scheduler::new(NodeSpec::new(4, 0, 1), PlacementPolicy::Backfill);
        s.enqueue(TaskId(0), req(3, 0));
        let placed = s.place_ready();
        assert_eq!(ids(&placed), vec![0]);
        // High-priority task needs 4 cores (blocked); low-priority 1-core
        // task can still backfill the free core.
        s.enqueue_with_priority(TaskId(1), req(4, 0), 9);
        s.enqueue_with_priority(TaskId(2), req(1, 0), -1);
        let placed2 = s.place_ready();
        assert_eq!(ids(&placed2), vec![2], "backfill around the blocked head");
    }

    #[test]
    fn multi_node_spills_to_next_node() {
        let cluster = ClusterSpec::homogeneous(NodeSpec::new(4, 1, 1), 2);
        let mut s = Scheduler::new_cluster(cluster, PlacementPolicy::Backfill);
        s.enqueue(TaskId(0), req(4, 1)); // fills node 0
        s.enqueue(TaskId(1), req(4, 1)); // must go to node 1
        s.enqueue(TaskId(2), req(1, 0)); // nothing left anywhere
        let placed = s.place_ready();
        assert_eq!(ids(&placed), vec![0, 1]);
        assert_eq!(placed[0].1.node, 0);
        assert_eq!(placed[1].1.node, 1);
        assert_eq!(s.cores_free(), 0);
        assert_eq!(s.queue_len(), 1);
        // Releasing node 1's allocation frees only node 1.
        s.release(&placed[1].1);
        assert_eq!(s.cores_free(), 4);
        let placed2 = s.place_ready();
        assert_eq!(placed2[0].1.node, 1);
    }

    #[test]
    fn drained_nodes_take_no_placements_until_recovered() {
        let cluster = ClusterSpec::homogeneous(NodeSpec::new(4, 0, 1), 2);
        let mut s = Scheduler::new_cluster(cluster, PlacementPolicy::Backfill);
        s.drain_node(0);
        assert!(!s.node_is_up(0));
        assert_eq!(s.cores_free(), 4, "down node's slots are not capacity");
        s.enqueue(TaskId(0), req(4, 0));
        s.enqueue(TaskId(1), req(4, 0));
        let placed = s.place_ready();
        assert_eq!(ids(&placed), vec![0], "only node 1 can place");
        assert_eq!(placed[0].1.node, 1);
        s.recover_node(0);
        let placed2 = s.place_ready();
        assert_eq!(ids(&placed2), vec![1]);
        assert_eq!(placed2[0].1.node, 0, "recovered node is first-fit again");
    }

    #[test]
    fn drain_forfeits_resident_allocations() {
        let cluster = ClusterSpec::homogeneous(NodeSpec::new(4, 1, 1), 2);
        let mut s = Scheduler::new_cluster(cluster, PlacementPolicy::Backfill);
        s.enqueue(TaskId(0), req(4, 1));
        let placed = s.place_ready();
        assert_eq!(placed[0].1.node, 0);
        s.drain_node(0);
        s.recover_node(0);
        // The pool was rebuilt: all slots free again, no double-release trap.
        assert_eq!(s.cores_free(), 8);
        assert_eq!(s.gpus_free(), 2);
    }

    #[test]
    #[should_panic(expected = "release of an allocation on drained node")]
    fn releasing_onto_a_drained_node_panics() {
        let mut s = Scheduler::new(NodeSpec::new(4, 0, 1), PlacementPolicy::Backfill);
        s.enqueue(TaskId(0), req(2, 0));
        let placed = s.place_ready();
        s.drain_node(0);
        s.release(&placed[0].1);
    }

    #[test]
    #[should_panic(expected = "drained twice")]
    fn double_drain_panics() {
        let mut s = Scheduler::new(NodeSpec::new(4, 0, 1), PlacementPolicy::Backfill);
        s.drain_node(0);
        s.drain_node(0);
    }

    #[test]
    fn cluster_totals() {
        let cluster = ClusterSpec::homogeneous(NodeSpec::amarel(), 4);
        assert_eq!(cluster.total_cores(), 112);
        assert_eq!(cluster.total_gpus(), 16);
        let s = Scheduler::new_cluster(cluster, PlacementPolicy::Backfill);
        assert_eq!(s.cores_free(), 112);
        assert_eq!(s.gpus_free(), 16);
    }

    #[test]
    fn deterministic_lowest_id_first_grants() {
        let mut s = Scheduler::new(NodeSpec::new(6, 2, 1), PlacementPolicy::Backfill);
        s.enqueue(TaskId(0), req(2, 1));
        let placed = s.place_ready();
        assert_eq!(placed[0].1.core_ids, vec![0, 1]);
        assert_eq!(placed[0].1.gpu_ids, vec![0]);
    }

    #[test]
    fn repeated_noop_rounds_early_exit_without_a_scan() {
        let mut s = Scheduler::new(NodeSpec::new(4, 0, 1), PlacementPolicy::Backfill);
        s.enqueue(TaskId(0), req(4, 0));
        s.enqueue(TaskId(1), req(4, 0));
        assert_eq!(ids(&s.place_ready()), vec![0]);
        // Nothing changed: the next rounds must both be empty (and are
        // epoch-level no-ops internally).
        assert!(s.place_ready().is_empty());
        assert!(s.place_ready().is_empty());
        // A queue mutation re-arms the round.
        let ticket = s.enqueue(TaskId(2), req(1, 0));
        assert!(s.place_ready().is_empty(), "still no capacity");
        let before = s.queue_len();
        assert!(s.cancel_queued(TaskId(2), ticket));
        assert_eq!(s.queue_len(), before - 1);
    }

    #[test]
    fn canceling_a_blocked_head_is_not_masked_by_the_epoch_cache() {
        let mut s = Scheduler::new(NodeSpec::new(4, 0, 1), PlacementPolicy::Fifo);
        s.enqueue(TaskId(0), req(2, 0));
        assert_eq!(ids(&s.place_ready()), vec![0]); // 2 cores stay free
        let head = s.enqueue(TaskId(1), req(4, 0)); // blocked (only 2 free)
        s.enqueue(TaskId(2), req(2, 0)); // would fit, FIFO-blocked behind it
        assert!(s.place_ready().is_empty());
        // Capacity never changed, so only the cancel's queue-epoch bump can
        // re-arm the round; if it didn't, task 2 would be lost here.
        assert!(s.cancel_queued(TaskId(1), head));
        assert_eq!(ids(&s.place_ready()), vec![2]);
    }

    #[test]
    fn tombstone_floods_are_compacted() {
        let mut s = Scheduler::new(NodeSpec::new(2, 0, 1), PlacementPolicy::Backfill);
        s.enqueue(TaskId(10_000), req(2, 0));
        let placed = s.place_ready();
        let tickets: Vec<u32> = (0..500u64)
            .map(|i| s.enqueue(TaskId(i), req(1, 0)))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert!(s.cancel_queued(TaskId(i as u64), ticket));
        }
        assert_eq!(s.queue_len(), 0);
        assert!(s.dead <= 64, "mass cancellation must compact: {}", s.dead);
        s.release(&placed[0].1);
        assert!(s.place_ready().is_empty());
        // The slab slots are reusable.
        s.enqueue(TaskId(600), req(1, 0));
        assert_eq!(ids(&s.place_ready()), vec![600]);
    }

    #[test]
    fn alloc_avoiding_skips_named_nodes_and_restores_the_index() {
        let cluster = ClusterSpec::homogeneous(NodeSpec::new(4, 0, 1), 3);
        let mut s = Scheduler::new_cluster(cluster, PlacementPolicy::Backfill);
        // A direct grant avoiding node 0 lands on node 1.
        let a = s.alloc_avoiding(&req(4, 0), &[0]).expect("node 1 fits");
        assert_eq!(a.node, 1);
        // Avoiding every node with capacity yields nothing.
        assert!(s.alloc_avoiding(&req(4, 0), &[0, 2]).is_none());
        // The masks were restored: a queued placement still sees node 0
        // first, exactly as if alloc_avoiding had never run.
        s.enqueue(TaskId(0), req(4, 0));
        let placed = s.place_ready();
        assert_eq!(placed[0].1.node, 0);
        s.release_owned(a); // node 1 free again; node 0 still occupied
        s.drain_node(2);
        assert!(
            s.alloc_avoiding(&req(1, 0), &[1]).is_none(),
            "node 0 is full and node 2 is down"
        );
        let b = s.alloc_avoiding(&req(4, 0), &[0]).expect("node 1 fits");
        assert_eq!(b.node, 1);
        // Out-of-range avoid entries are ignored, not a panic.
        s.release_owned(b);
        assert!(s.alloc_avoiding(&req(4, 0), &[7]).is_some());
    }

    #[test]
    fn blocked_shape_cache_clears_when_capacity_grows() {
        let mut s = Scheduler::new(NodeSpec::new(8, 0, 1), PlacementPolicy::Backfill);
        s.enqueue(TaskId(0), req(6, 0));
        let placed = s.place_ready();
        s.enqueue(TaskId(1), req(4, 0)); // fails: 2 free
        s.enqueue(TaskId(2), req(5, 0)); // dominated by (4,0): skipped
        assert!(s.place_ready().is_empty());
        assert_eq!(s.blocked_shape, Some((4, 0)));
        s.release(&placed[0].1);
        assert_eq!(s.blocked_shape, None, "release invalidates the cache");
        assert_eq!(ids(&s.place_ready()), vec![1], "6 free places only task 1");
    }

    props! {
        /// Differential determinism oracle: random workloads replayed
        /// through the optimized scheduler and the naive pre-optimization
        /// reference must produce *identical* placement sequences (ids,
        /// device grants, node assignments), queue lengths, and free
        /// counters — under both policies, priorities, cancels, drains and
        /// recoveries. This is the property that guarantees every pinned
        /// artifact regenerates byte-for-byte.
        fn optimized_scheduler_matches_reference_oracle(rng, cases = 256) {
            let cores = 1 + rng.below(32) as u32;
            let gpus = rng.below(5) as u32;
            let nodes = 1 + rng.below(12) as u32;
            let cluster = ClusterSpec::homogeneous(NodeSpec::new(cores, gpus, 64), nodes);
            let policy = if rng.below(2) == 0 {
                PlacementPolicy::Fifo
            } else {
                PlacementPolicy::Backfill
            };
            let mut opt = Scheduler::new_cluster(cluster, policy);
            let mut oracle = ReferenceScheduler::new_cluster(cluster, policy);
            let mut outstanding: Vec<Allocation> = Vec::new();
            let mut queued: Vec<TaskId> = Vec::new();
            // Every ticket ever issued, by task id: those of placed and
            // cancelled tasks go stale, and their slab slots get reused.
            let mut tickets: Vec<u32> = Vec::new();
            let mut next_id = 0u64;

            let ops = 30 + rng.below(60);
            for _ in 0..ops {
                match rng.below(100) {
                    0..=39 => {
                        let r = ResourceRequest::with_gpus(
                            1 + rng.below(cores as usize) as u32,
                            rng.below(gpus as usize + 1) as u32,
                        );
                        let prio = rng.below(7) as i32 - 3;
                        let id = TaskId(next_id);
                        next_id += 1;
                        tickets.push(opt.enqueue_with_priority(id, r, prio));
                        oracle.enqueue_with_priority(id, r, prio);
                        queued.push(id);
                    }
                    40..=64 => {
                        let a = opt.place_ready();
                        let b = oracle.place_ready();
                        assert_eq!(a, b, "placement sequences diverged");
                        for (id, alloc) in a {
                            queued.retain(|q| *q != id);
                            outstanding.push(alloc);
                        }
                    }
                    65..=79 => {
                        if outstanding.is_empty() {
                            continue;
                        }
                        let alloc = outstanding.swap_remove(rng.below(outstanding.len()));
                        opt.release(&alloc);
                        oracle.release(&alloc);
                    }
                    80..=89 => {
                        // Cancel by ticket: a queued task, a task placed or
                        // cancelled long ago (a stale ticket, its slot maybe
                        // reused by a later task), or an id never enqueued
                        // under some other task's ticket. The oracle, which
                        // looks ids up, says which of them is in the queue.
                        let (id, ticket) = if next_id == 0 || rng.below(8) == 0 {
                            (TaskId(next_id + 1_000_000), rng.below(64) as u32)
                        } else if queued.is_empty() || rng.below(3) == 0 {
                            let any = rng.below(next_id as usize);
                            (TaskId(any as u64), tickets[any])
                        } else {
                            let id = queued[rng.below(queued.len())];
                            (id, tickets[id.0 as usize])
                        };
                        let (len, free) = (opt.queue_len(), opt.free_slots.len());
                        let found = oracle.cancel_queued(id);
                        assert_eq!(opt.cancel_queued(id, ticket), found, "{id} ticket {ticket}");
                        assert_eq!(found, queued.contains(&id));
                        if found {
                            assert!(!opt.cancel_queued(id, ticket), "double cancel of {id}");
                        } else {
                            assert_eq!((opt.queue_len(), opt.free_slots.len()), (len, free));
                        }
                        queued.retain(|q| *q != id);
                    }
                    90..=94 => {
                        let up: Vec<u32> =
                            (0..nodes).filter(|&n| opt.node_is_up(n)).collect();
                        if up.is_empty() {
                            continue;
                        }
                        let node = up[rng.below(up.len())];
                        opt.drain_node(node);
                        oracle.drain_node(node);
                        // Resident allocations are forfeited, never released.
                        outstanding.retain(|a| a.node != node);
                    }
                    _ => {
                        let down: Vec<u32> =
                            (0..nodes).filter(|&n| !opt.node_is_up(n)).collect();
                        if down.is_empty() {
                            continue;
                        }
                        let node = down[rng.below(down.len())];
                        opt.recover_node(node);
                        oracle.recover_node(node);
                    }
                }
                assert_eq!(opt.queue_len(), oracle.queue_len());
                assert_eq!(opt.cores_free(), oracle.cores_free());
                assert_eq!(opt.gpus_free(), oracle.gpus_free());
            }

            // Drain to quiescence: recover every node, then alternate
            // placement rounds with immediate releases until the queue is
            // empty — the whole tail must stay in lock-step too.
            for node in 0..nodes {
                if !opt.node_is_up(node) {
                    opt.recover_node(node);
                    oracle.recover_node(node);
                }
            }
            for alloc in outstanding.drain(..) {
                opt.release(&alloc);
                oracle.release(&alloc);
            }
            loop {
                let a = opt.place_ready();
                let b = oracle.place_ready();
                assert_eq!(a, b, "drain-phase placement sequences diverged");
                if a.is_empty() {
                    break;
                }
                for (_, alloc) in &a {
                    opt.release(alloc);
                    oracle.release(alloc);
                }
            }
            assert_eq!(opt.queue_len(), oracle.queue_len());
        }
    }
}
