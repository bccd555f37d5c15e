//! Slot scheduling: the pilot agent's core decision loop.
//!
//! The scheduler owns each node's free core and GPU counts and a queue of
//! waiting tasks, and decides which waiting tasks to place whenever capacity
//! changes. It has one placement policy, RP-style continuous scheduling
//! ([`PlacementPolicy::Backfill`]): any queued task that fits the current
//! free slots may start, even if an earlier, larger task is still waiting,
//! and among the tasks that fit, higher priority and then earlier arrival
//! go first. This is what lets IMPRESS "offload newly created pipelines …
//! to the idle resources when possible" (§III-B), and it is the paper's
//! source of utilisation. It is the only policy: a strict-arrival one
//! idles every slot behind a blocked head, and no study, example or
//! workload asks for that.
//!
//! Placement is deterministic: a grant is a node and a count of its cores
//! and GPUs, never a device, and the node is the leftmost up one whose free
//! counters admit the shape, so identical submission sequences produce
//! identical allocations on every backend.
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
//! Placement rounds carry two things from one round to the next:
//!
//! * a **capacity/queue epoch** pair — if nothing was enqueued and no
//!   free capacity grew since the last round, the round is provably a
//!   no-op and returns immediately (a cancel frees no capacity). A release
//!   bumps the capacity epoch, so this never fires on the round that
//!   follows a completion;
//! * a **proof** — each backfill round ends knowing that every shape it
//!   failed or carried over, and every shape dominating the blocked shape
//!   among them (needing ≥ cores *and* ≥ gpus), fits no up node. Only a
//!   node whose free capacity grew (release / recover) can break that;
//!   placements, drains and `Scheduler::alloc_avoiding` only shrink it.
//!   So the scheduler records the **grown** nodes, and the next round
//!   skips every proven shape that exceeds the largest free `(cores,
//!   gpus)` among them without a fit-index query, and tests one that fits
//!   against the grown nodes alone: the leftmost that admits it is the
//!   node the full first-fit would return. The fit index answers only for
//!   shapes the proof does not cover. After a completion that is O(1) leaf
//!   checks on the released node instead of a tree descent per shape.
//!
//! All three mechanisms are pure bypasses of work whose outcome is
//! already known: the placement *sequence* is bit-identical to the naive
//! scan-everything scheduler, which survives as the `#[cfg(test)]`
//! [`reference`] oracle that the differential property test replays
//! random workloads against.

mod pool;
#[cfg(test)]
mod reference;

use crate::resources::{Allocation, ClusterSpec, NodeSpec, ResourceRequest};
use crate::task::TaskId;
use impress_json::json_enum;
use pool::FitIndex;
use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

/// Which waiting task may start when slots are free. Backfill is the one
/// policy; the type stays so configurations that name it keep building.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Continuous scheduling: any fitting task may start.
    Backfill,
}
json_enum!(PlacementPolicy { Backfill });

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
    /// Segment tree over per-node free counters: each node's free cores,
    /// free GPUs and up flag live in its leaf and nowhere else.
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
    cluster: ClusterSpec,
    /// Bumped on every enqueue.
    queue_epoch: u64,
    /// Bumped whenever free capacity can grow (release/recover).
    capacity_epoch: u64,
    /// Epochs at the end of the last completed placement round; when both
    /// still match, the next round is a provable no-op.
    scanned_queue_epoch: u64,
    scanned_capacity_epoch: u64,
    /// The last backfill round's proof: shapes that fit no up node outside
    /// `grown`, as do all shapes dominating `blocked_shape`.
    proof: Vec<(u32, u32)>,
    blocked_shape: Option<(u32, u32)>,
    /// Nodes whose free capacity grew since the last backfill round,
    /// sorted and deduplicated.
    grown: Vec<u32>,
    /// Scratch of one backfill scan: the shapes known to fit nowhere. It
    /// becomes the next proof, and the old proof its storage.
    failed_shapes: Vec<(u32, u32)>,
}

/// Whether `shape` needs at least as many cores *and* GPUs as `blocked`.
fn dominates(shape: (u32, u32), blocked: Option<(u32, u32)>) -> bool {
    blocked.is_some_and(|(bc, bg)| shape.0 >= bc && shape.1 >= bg)
}

impl Scheduler {
    /// A scheduler over a single `node`.
    pub fn new(node: NodeSpec) -> Self {
        Self::new_cluster(ClusterSpec::single(node), PlacementPolicy::Backfill)
    }

    /// A scheduler over a homogeneous multi-node cluster. Tasks are placed
    /// first-fit across nodes and never span nodes. The policy names the
    /// one there is and chooses nothing.
    pub fn new_cluster(cluster: ClusterSpec, _policy: PlacementPolicy) -> Self {
        Scheduler {
            fit: FitIndex::new(cluster.count as usize, &cluster.node),
            buckets: BTreeMap::new(),
            slab: Vec::new(),
            next_seq: 0,
            free_slots: Vec::new(),
            live: 0,
            dead: 0,
            cluster,
            queue_epoch: 0,
            capacity_epoch: 0,
            scanned_queue_epoch: u64::MAX,
            scanned_capacity_epoch: u64::MAX,
            proof: Vec::new(),
            blocked_shape: None,
            grown: Vec::new(),
            failed_shapes: Vec::new(),
        }
    }

    /// The per-node shape this scheduler manages.
    pub(crate) fn node(&self) -> &NodeSpec {
        &self.cluster.node
    }

    /// Record that node `idx`'s free capacity grew: the next round may no
    /// longer skip it.
    fn grew(&mut self, idx: usize) {
        self.capacity_epoch += 1;
        if let Err(at) = self.grown.binary_search(&(idx as u32)) {
            self.grown.insert(at, idx as u32);
        }
    }

    /// Direct first-fit allocation that bypasses the queue and skips the
    /// `avoid`ed nodes: the grant lands on the leftmost *up* node not in
    /// `avoid` whose free slots admit `req`, or nowhere. Used by hedged
    /// duplicates (which must not share the straggler's node) and by
    /// quarantine retry steering (away from nodes a task already failed
    /// on). The descent rejects avoided nodes at their leaves and writes
    /// nothing but the grant; the queue, epochs and proof are unaffected
    /// (an allocation only shrinks the free frontier, which the proof
    /// already tolerates).
    pub(crate) fn alloc_avoiding(
        &mut self,
        req: &ResourceRequest,
        avoid: &[u32],
    ) -> Option<Allocation> {
        let node = self.fit.first_fit(req.cores, req.gpus, avoid)?;
        Some(self.fit.grant(node, req.cores, req.gpus))
    }

    /// The fit-index leaf of `node`.
    fn leaf(&self, node: u32) -> usize {
        assert!(
            node < self.cluster.count,
            "node {node} is not in the cluster"
        );
        self.fit.size + node as usize
    }

    /// Drain a crashed node: its leaf reads nothing free and down, and it
    /// takes no placements until [`Scheduler::recover_node`]. The caller
    /// is responsible for requeueing tasks that were resident on it (their
    /// allocations are implicitly forfeited — do *not* release them).
    ///
    /// A drain only shrinks the placeable frontier, so the proof and round
    /// epochs stay valid.
    pub(crate) fn drain_node(&mut self, node: u32) {
        assert!(self.node_is_up(node), "node {node} drained twice");
        self.fit.set(node as usize, 0, 0, false);
    }

    /// Re-admit a recovered node to placement with all slots free.
    pub(crate) fn recover_node(&mut self, node: u32) {
        assert!(!self.node_is_up(node), "node {node} recovered while up");
        let NodeSpec { cores, gpus, .. } = self.cluster.node;
        self.fit.set(node as usize, cores, gpus, true);
        self.grew(node as usize);
    }

    /// Whether `node` is currently accepting placements.
    pub(crate) fn node_is_up(&self, node: u32) -> bool {
        self.fit.up[self.leaf(node)]
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
    /// Returns the entry's queue ticket, which `Scheduler::cancel_queued`
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

    /// Place every waiting task that fits right now. Returns the granted
    /// `(task, allocation)` pairs in placement order.
    pub fn place_ready(&mut self) -> Vec<(TaskId, Allocation)> {
        let mut placed = Vec::new();
        self.place_ready_into(&mut placed);
        placed
    }

    /// [`Scheduler::place_ready`], appending the granted pairs to `placed`
    /// instead: a caller that drains and reuses one buffer places without
    /// allocating once it is warm.
    pub fn place_ready_into(&mut self, placed: &mut Vec<(TaskId, Allocation)>) {
        // Nothing enqueued and no capacity growth since the last round ⇒
        // every outcome is already known to be "no placement".
        if self.scanned_queue_epoch == self.queue_epoch
            && self.scanned_capacity_epoch == self.capacity_epoch
        {
            return;
        }
        self.place_backfill(placed);
        self.scanned_queue_epoch = self.queue_epoch;
        self.scanned_capacity_epoch = self.capacity_epoch;
        if self.dead > 64 && self.dead >= self.live {
            self.compact();
        }
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

    /// Continuous scheduling: within each priority bucket (highest first),
    /// visit live entries in arrival order by merging the shape-class heads,
    /// placing whatever fits. Two prunes keep a no-progress scan at
    /// O(distinct shapes) instead of O(queue):
    ///
    /// * once a shape fails, its entire class is retired for the rest of
    ///   the scan — identical requests against a frontier that only
    ///   shrinks must fail identically;
    /// * classes dominating the smallest failed shape are skipped outright.
    ///
    /// The scan starts from the last round's proof: a proven shape the
    /// grown nodes cannot hold is retired before the scan begins, and one
    /// they might hold is tested against them alone. Every prune only
    /// skips fit tests whose outcome is already known, so the placement
    /// sequence equals the naive full scan's.
    fn place_backfill(&mut self, placed: &mut Vec<(TaskId, Allocation)>) {
        // The largest free (cores, gpus) among the up grown nodes: a proven
        // shape beyond it still fits nowhere.
        let fit = &self.fit;
        let reach = self
            .grown
            .iter()
            .map(|&n| fit.size + n as usize)
            .filter(|&leaf| fit.up[leaf])
            .map(|leaf| (fit.cores[leaf], fit.gpus[leaf]))
            .reduce(|a, b| (a.0.max(b.0), a.1.max(b.1)));
        let beyond_reach =
            |shape: (u32, u32)| !reach.is_some_and(|r| shape.0 <= r.0 && shape.1 <= r.1);
        let proof = &self.proof;
        let proven_blocked = self.blocked_shape;
        let mut blocked = proven_blocked.filter(|&b| beyond_reach(b));
        let failed = &mut self.failed_shapes;
        failed.clear();
        failed.extend(proof.iter().copied().filter(|&s| beyond_reach(s)));
        for bucket in self.buckets.values_mut() {
            while bucket.live > 0 {
                // Earliest live head among classes not yet known to fail,
                // nor dominating a shape that fits nowhere. Failures carry
                // across buckets too: the frontier never grows during a
                // scan, so a shape that failed at high priority still fails
                // at low priority.
                let head = Self::min_seq_head(
                    &self.slab,
                    &mut self.free_slots,
                    &mut self.dead,
                    bucket,
                    |shape| failed.contains(&shape) || dominates(shape, blocked),
                );
                let Some(class) = head else { break };
                let shape = bucket.classes[class].0;
                let node = if proof.contains(&shape) || dominates(shape, proven_blocked) {
                    // Only a grown node can hold a proven shape, so the
                    // leftmost grown node that admits it is the first fit.
                    let fit = &self.fit;
                    self.grown
                        .iter()
                        .map(|&n| n as usize)
                        .find(|&n| fit.admits(fit.size + n, shape.0, shape.1))
                } else {
                    self.fit.first_fit(shape.0, shape.1, &[])
                };
                match node {
                    Some(node) => {
                        let alloc = self.fit.grant(node, shape.0, shape.1);
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
                        // failure keeps the existing one (either is sound).
                        blocked = Some(match blocked {
                            Some((bc, bg)) if !(shape.0 <= bc && shape.1 <= bg) => (bc, bg),
                            _ => shape,
                        });
                    }
                }
            }
        }
        // Every queued shape now fits nowhere or dominates `blocked`: that
        // is the next round's proof, valid until a node grows.
        std::mem::swap(&mut self.proof, &mut self.failed_shapes);
        self.blocked_shape = blocked;
        self.grown.clear();
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

    /// Return an allocation's slots to its node. The caller should follow
    /// with [`Scheduler::place_ready`]. Releasing consumes the grant, so a
    /// caller cannot release one twice. Panics if the node is drained
    /// (allocations on a crashed node are forfeited, and releasing one is a
    /// backend bookkeeping bug) or if the release would leave the node more
    /// free than it has.
    pub fn release_owned(&mut self, alloc: Allocation) {
        assert!(
            self.node_is_up(alloc.node),
            "release of an allocation on drained node {}",
            alloc.node
        );
        self.fit.release(&alloc, &self.cluster.node);
        self.grew(alloc.node as usize);
    }

    /// Remove a queued (not yet placed) task, named by its id and the
    /// ticket its enqueue returned. Returns `true` if it was found: a
    /// ticket whose entry was placed or cancelled since — its slot free, or
    /// reused by a later enqueue of another id — finds nothing and changes
    /// nothing.
    pub(crate) fn cancel_queued(&mut self, id: TaskId, ticket: u32) -> bool {
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
        // A cancel frees no capacity, so it makes no waiting task
        // placeable: the round epochs stay valid.
        if self.dead > 64 && self.dead >= self.live {
            self.compact();
        }
        true
    }

    /// Number of tasks waiting for slots.
    pub fn queue_len(&self) -> usize {
        self.live
    }

    /// The leaves of the cluster's nodes in `column`.
    fn leaves<'a>(&self, column: &'a [u32]) -> &'a [u32] {
        &column[self.fit.size..][..self.cluster.count as usize]
    }

    /// Free cores right now, across all *up* nodes (a down node's leaf
    /// holds none).
    pub fn cores_free(&self) -> u32 {
        self.leaves(&self.fit.cores).iter().sum()
    }

    /// Free GPUs right now, across all *up* nodes.
    pub fn gpus_free(&self) -> u32 {
        self.leaves(&self.fit.gpus).iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceScheduler;
    use super::*;
    use impress_sim::{props, SimRng};

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
        assert_eq!(fit.first_fit(4, 2, &[]), Some(0));
        assert_eq!(fit.first_fit(0, 0, &[]), Some(0));
        assert_eq!(fit.first_fit(5, 0, &[]), None, "no node has five cores");
        // Fill node 0, kill node 1: a full-node request must skip to 2.
        fit.set(0, 0, 0, true);
        fit.set(1, 0, 0, false);
        assert_eq!(fit.first_fit(4, 2, &[]), Some(2));
        // A zero request fits the exhausted-but-up node 0, not the down
        // node 1 — the up flag, not the counters, excludes dead nodes.
        assert_eq!(fit.first_fit(0, 0, &[]), Some(0));
        fit.set(0, 0, 0, false);
        assert_eq!(fit.first_fit(0, 0, &[]), Some(2));
        // Cores on node 3, gpus on node 2 only: the descent must backtrack
        // past subtrees whose maxima come from different leaves.
        for i in 2..10 {
            fit.set(i, 1, 0, true);
        }
        fit.set(2, 1, 2, true);
        fit.set(3, 4, 0, true);
        assert_eq!(fit.first_fit(4, 2, &[]), None);
        assert_eq!(fit.first_fit(1, 2, &[]), Some(2));
        assert_eq!(fit.first_fit(4, 0, &[]), Some(3));
        // Recovery readmits at full capacity.
        fit.set(1, 4, 2, true);
        assert_eq!(fit.first_fit(4, 2, &[]), Some(1));
        // An avoided node is passed over for the next that admits.
        assert_eq!(fit.first_fit(4, 2, &[1]), None, "only node 1 holds (4, 2)");
        assert_eq!(fit.first_fit(1, 0, &[1, 0, 2]), Some(3));
    }

    #[test]
    fn backfill_places_fitting_tasks_past_blocked_head() {
        let mut s = Scheduler::new(NodeSpec::new(8, 0, 1));
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
        let mut s = Scheduler::new(NodeSpec::new(8, 0, 1));
        s.enqueue(TaskId(0), req(8, 0));
        let placed = s.place_ready();
        assert_eq!(ids(&placed), vec![0]);
        s.enqueue(TaskId(1), req(4, 0));
        assert!(s.place_ready().is_empty());
        s.release_owned(placed[0].1.clone());
        let placed2 = s.place_ready();
        assert_eq!(ids(&placed2), vec![1]);
    }

    #[test]
    fn gpus_are_scheduled_independently_of_cores() {
        let mut s = Scheduler::new(NodeSpec::new(28, 4, 128));
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
        // Each grant is its request's shape on the leftmost node whose free
        // counters admit it, and a node never gives out more than it has.
        let cluster = ClusterSpec::homogeneous(NodeSpec::new(10, 2, 1), 2);
        let mut s = Scheduler::new_cluster(cluster, PlacementPolicy::Backfill);
        let shapes = [req(4, 1), req(4, 1), req(4, 0), req(2, 0)];
        for (id, shape) in shapes.iter().enumerate() {
            s.enqueue(TaskId(id as u64), *shape);
        }
        let placed = s.place_ready();
        for ((_, a), shape) in placed.iter().zip(&shapes) {
            assert!(a.satisfies(shape), "{a:?} for {shape}");
        }
        let nodes: Vec<u32> = placed.iter().map(|(_, a)| a.node).collect();
        assert_eq!(
            nodes,
            vec![0, 0, 1, 0],
            "(4, 0) overflows node 0's two cores left; (2, 0) fills them"
        );
        assert_eq!((s.cores_free(), s.gpus_free()), (6, 2));
        assert!(
            s.alloc_avoiding(&req(1, 0), &[1]).is_none(),
            "node 0 is full"
        );
    }

    #[test]
    fn deterministic_lowest_id_first_grants() {
        // A grant names no device, so the lowest id it picks is the node's:
        // the same submissions land on the same nodes every time.
        let run = || {
            let cluster = ClusterSpec::homogeneous(NodeSpec::new(6, 2, 1), 3);
            let mut s = Scheduler::new_cluster(cluster, PlacementPolicy::Backfill);
            s.enqueue(TaskId(0), req(2, 1));
            s.enqueue(TaskId(1), req(6, 0));
            s.place_ready()
        };
        let placed = run();
        let grant = |node, cores, gpus| Allocation { node, cores, gpus };
        assert_eq!(placed[0].1, grant(0, 2, 1));
        assert_eq!(placed[1].1, grant(1, 6, 0));
        assert_eq!(run(), placed);
    }

    #[test]
    fn release_returns_exactly_the_granted_devices() {
        let mut s = Scheduler::new(NodeSpec::new(4, 2, 1));
        s.enqueue(TaskId(0), req(3, 2));
        let (_, alloc) = s.place_ready().pop().expect("a grant");
        assert_eq!((s.cores_free(), s.gpus_free()), (1, 0));
        s.release_owned(alloc);
        assert_eq!((s.cores_free(), s.gpus_free()), (4, 2));
    }

    #[test]
    fn insufficient_capacity_returns_none_without_partial_grant() {
        let mut s = Scheduler::new(NodeSpec::new(4, 1, 1));
        s.enqueue(TaskId(0), req(1, 1));
        assert_eq!(ids(&s.place_ready()), vec![0]);
        assert!(s.alloc_avoiding(&req(2, 1), &[]).is_none());
        // Nothing was taken.
        assert_eq!((s.cores_free(), s.gpus_free()), (3, 0));
    }

    #[test]
    #[should_panic(expected = "release past capacity")]
    fn double_release_panics() {
        let mut s = Scheduler::new(NodeSpec::new(2, 0, 1));
        let alloc = s.alloc_avoiding(&req(2, 0), &[]).expect("a grant");
        s.release_owned(alloc.clone());
        s.release_owned(alloc);
    }

    #[test]
    fn cancel_queued_removes_waiting_task() {
        let mut s = Scheduler::new(NodeSpec::new(2, 0, 1));
        let placed = s.enqueue(TaskId(0), req(2, 0));
        let ticket = s.enqueue(TaskId(1), req(2, 0));
        let _ = s.place_ready();
        assert!(
            !s.cancel_queued(TaskId(2), ticket),
            "the ticket is task 1's"
        );
        assert!(s.cancel_queued(TaskId(1), ticket));
        assert!(!s.cancel_queued(TaskId(1), ticket));
        assert_eq!(s.queue_len(), 0);
        // A later task takes over the slot task 0's placement freed: task
        // 0's ticket is stale, and must not cancel the newcomer.
        let reused = s.enqueue(TaskId(7), req(2, 0));
        assert_eq!(reused, placed, "the slab recycles slots");
        assert!(!s.cancel_queued(TaskId(0), placed), "stale ticket");
        assert_eq!(s.queue_len(), 1);
        assert!(s.cancel_queued(TaskId(7), reused));
    }

    #[test]
    #[should_panic(expected = "can never fit")]
    fn impossible_request_is_rejected_at_enqueue() {
        let mut s = Scheduler::new(NodeSpec::new(4, 0, 1));
        s.enqueue(TaskId(0), req(5, 0));
    }

    #[test]
    fn higher_priority_tasks_jump_the_queue() {
        let mut s = Scheduler::new(NodeSpec::new(2, 0, 1));
        s.enqueue(TaskId(0), req(2, 0)); // occupies everything
        let placed = s.place_ready();
        assert_eq!(ids(&placed), vec![0]);
        s.enqueue_with_priority(TaskId(1), req(2, 0), 0);
        s.enqueue_with_priority(TaskId(2), req(2, 0), 5); // urgent
        s.enqueue_with_priority(TaskId(3), req(2, 0), 5); // urgent, later
        s.release_owned(placed[0].1.clone());
        let placed = s.place_ready();
        assert_eq!(ids(&placed), vec![2], "highest priority first");
        s.release_owned(placed[0].1.clone());
        let placed = s.place_ready();
        assert_eq!(ids(&placed), vec![3], "FIFO within a priority class");
        s.release_owned(placed[0].1.clone());
        assert_eq!(ids(&s.place_ready()), vec![1]);
    }

    #[test]
    fn backfill_still_fills_around_high_priority_blockers() {
        let mut s = Scheduler::new(NodeSpec::new(4, 0, 1));
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
        s.release_owned(placed[1].1.clone());
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
        let mut s = Scheduler::new(NodeSpec::new(4, 0, 1));
        s.enqueue(TaskId(0), req(2, 0));
        let placed = s.place_ready();
        s.drain_node(0);
        s.release_owned(placed[0].1.clone());
    }

    #[test]
    #[should_panic(expected = "drained twice")]
    fn double_drain_panics() {
        let mut s = Scheduler::new(NodeSpec::new(4, 0, 1));
        s.drain_node(0);
        s.drain_node(0);
    }

    #[test]
    fn cluster_totals() {
        let cluster = ClusterSpec::homogeneous(NodeSpec::amarel(), 4);
        let s = Scheduler::new_cluster(cluster, PlacementPolicy::Backfill);
        assert_eq!(s.cores_free(), 112);
        assert_eq!(s.gpus_free(), 16);
    }

    #[test]
    fn repeated_noop_rounds_early_exit_without_a_scan() {
        let mut s = Scheduler::new(NodeSpec::new(4, 0, 1));
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
    fn tombstone_floods_are_compacted() {
        let mut s = Scheduler::new(NodeSpec::new(2, 0, 1));
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
        s.release_owned(placed[0].1.clone());
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
        // The index was left as it was: a queued placement still sees node
        // 0 first, exactly as if alloc_avoiding had never run.
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
    fn a_release_reopens_only_the_shapes_the_grown_node_can_hold() {
        let cluster = ClusterSpec::homogeneous(NodeSpec::new(8, 0, 1), 3);
        let mut s = Scheduler::new_cluster(cluster, PlacementPolicy::Backfill);
        for (id, cores) in [(0, 8), (1, 8), (2, 4), (3, 4)] {
            s.enqueue(TaskId(id), req(cores, 0));
        }
        let placed = s.place_ready();
        assert_eq!(placed[2].1.node, 2);
        s.enqueue(TaskId(4), req(8, 0));
        s.enqueue(TaskId(5), req(2, 0));
        assert!(s.place_ready().is_empty(), "every node is full");
        assert_eq!(
            (s.proof.clone(), s.blocked_shape),
            (vec![(8, 0), (2, 0)], Some((2, 0)))
        );
        s.release_owned(placed[2].1.clone());
        assert_eq!(s.grown, vec![2]);
        assert_eq!(s.blocked_shape, Some((2, 0)), "a release keeps the proof");
        // Make node 0's leaf claim eight free cores: any fit-index query
        // for (8, 0) or (2, 0) now lands on node 0 and places there.
        s.fit.set(0, 8, 0, true);
        let placed = s.place_ready();
        assert_eq!(
            ids(&placed),
            vec![5],
            "(8, 0) exceeds node 2's four free cores"
        );
        assert_eq!(
            placed[0].1.node, 2,
            "(2, 0) is tested on the grown node alone"
        );
        s.fit.set(0, 0, 0, true);
        assert_eq!((s.proof.clone(), s.blocked_shape), (vec![(8, 0)], None));
        assert!(s.grown.is_empty(), "the round consumed the growth record");
    }

    #[test]
    fn the_leftmost_grown_node_wins_whatever_the_release_order() {
        let cluster = ClusterSpec::homogeneous(NodeSpec::new(4, 0, 1), 3);
        let mut s = Scheduler::new_cluster(cluster, PlacementPolicy::Backfill);
        for id in 0..4 {
            s.enqueue(TaskId(id), req(4, 0));
        }
        let placed = s.place_ready();
        assert_eq!(
            ids(&placed),
            vec![0, 1, 2],
            "task 3 waits, proven to fit nowhere"
        );
        s.release_owned(placed[2].1.clone());
        s.release_owned(placed[1].1.clone());
        assert_eq!(s.grown, vec![1, 2], "sorted, whatever the release order");
        let placed = s.place_ready();
        assert_eq!(ids(&placed), vec![3]);
        assert_eq!(placed[0].1.node, 1, "first fit, not the first release");
    }

    /// The carried proof holds: no up node outside `grown` has the free
    /// cores and GPUs of a proven shape (or of the blocked shape, which
    /// every shape dominating it needs at least).
    fn assert_proof_holds(s: &Scheduler) {
        for &(c, g) in s.proof.iter().chain(&s.blocked_shape) {
            for n in 0..s.cluster.count {
                if s.node_is_up(n) && !s.grown.contains(&n) {
                    assert!(
                        !s.fit.admits(s.leaf(n), c, g),
                        "node {n} holds proven shape ({c}, {g})"
                    );
                }
            }
        }
    }

    props! {
        /// Differential determinism oracle: random workloads replayed
        /// through the optimized scheduler and the naive pre-optimization
        /// reference must produce *identical* placement sequences (ids,
        /// grant shapes, node assignments), queue lengths, and free
        /// counters — under priorities, cancels, releases, direct
        /// `alloc_avoiding` grants, drains and recoveries. This is
        /// the property that guarantees every pinned artifact regenerates
        /// byte-for-byte. In half the cases every
        /// request comes from a three-shape palette, so backlogs of proven
        /// shapes persist across rounds and releases reopen them.
        fn optimized_scheduler_matches_reference_oracle(rng, cases = 256) {
            let cores = 1 + rng.below(32) as u32;
            let gpus = rng.below(5) as u32;
            let nodes = 1 + rng.below(12) as u32;
            let cluster = ClusterSpec::homogeneous(NodeSpec::new(cores, gpus, 64), nodes);
            let draw = |rng: &mut SimRng| {
                ResourceRequest::with_gpus(
                    1 + rng.below(cores as usize) as u32,
                    rng.below(gpus as usize + 1) as u32,
                )
            };
            let palette = [draw(rng), draw(rng), draw(rng)];
            let few_shapes = rng.below(2) == 0;
            let request = |rng: &mut SimRng| {
                if few_shapes {
                    palette[rng.below(palette.len())]
                } else {
                    draw(rng)
                }
            };
            let mut opt = Scheduler::new_cluster(cluster, PlacementPolicy::Backfill);
            let mut oracle = ReferenceScheduler::new_cluster(cluster);
            let mut outstanding: Vec<Allocation> = Vec::new();
            let mut queued: Vec<TaskId> = Vec::new();
            // Every ticket ever issued, by task id: those of placed and
            // cancelled tasks go stale, and their slab slots get reused.
            let mut tickets: Vec<u32> = Vec::new();
            let mut next_id = 0u64;

            let ops = 30 + rng.below(60);
            for _ in 0..ops {
                match rng.below(105) {
                    0..=39 => {
                        let r = request(rng);
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
                        oracle.release(&alloc);
                        opt.release_owned(alloc);
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
                    95..=99 => {
                        let down: Vec<u32> =
                            (0..nodes).filter(|&n| !opt.node_is_up(n)).collect();
                        if down.is_empty() {
                            continue;
                        }
                        let node = down[rng.below(down.len())];
                        opt.recover_node(node);
                        oracle.recover_node(node);
                    }
                    _ => {
                        // A direct grant past the queue, avoiding up to two
                        // nodes (maybe one out of range, maybe one twice).
                        let r = request(rng);
                        let avoid: Vec<u32> =
                            (0..rng.below(3)).map(|_| rng.below(nodes as usize + 1) as u32).collect();
                        let a = opt.alloc_avoiding(&r, &avoid);
                        assert_eq!(a, oracle.alloc_avoiding(&r, &avoid), "avoiding {avoid:?}");
                        outstanding.extend(a);
                    }
                }
                assert_proof_holds(&opt);
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
                oracle.release(&alloc);
                opt.release_owned(alloc);
            }
            loop {
                let a = opt.place_ready();
                let b = oracle.place_ready();
                assert_eq!(a, b, "drain-phase placement sequences diverged");
                if a.is_empty() {
                    break;
                }
                for (_, alloc) in a {
                    oracle.release(&alloc);
                    opt.release_owned(alloc);
                }
                assert_proof_holds(&opt);
            }
            assert_eq!(opt.queue_len(), oracle.queue_len());
        }
    }
}
