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
//! request shape, merged by global arrival `seq` during a scan.
//!
//! * **Fit sets.** Each class's shape has an always-exact bitset of the up
//!   nodes it fits (see `pool.rs`). A scan grants the earliest-arrived
//!   head among the classes whose set is non-empty on the set's lowest
//!   node, and passes an empty set over in O(1), so a no-progress round
//!   costs O(distinct shapes), not O(queue length).
//! * **Round epochs.** If nothing was enqueued and no free capacity grew
//!   since the last round, the round is a no-op and returns at once (a
//!   cancel frees no capacity; a release bumps the capacity epoch).
//!
//! The placement *sequence* is bit-identical to the naive scan-everything
//! scheduler, which survives as the test-only [`reference`] oracle that
//! the differential property test replays random workloads against.

mod pool;

use crate::resources::{Allocation, ClusterSpec, NodeSpec, ResourceRequest};
use crate::task::TaskId;
use pool::Pool;
use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

/// Which waiting task may start when slots are free. Backfill is the one
/// policy; the type stays so configurations that name it keep building.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Continuous scheduling: any fitting task may start.
    Backfill,
}

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

/// A shape class: the id of its shape's fit set and the FIFO deque of its
/// entries' slab indices.
type Class = (u32, VecDeque<u32>);

/// One priority class: waiting entries grouped by request shape. A scan
/// merges the class heads by arrival `seq`, skipping every class whose
/// shape fits no node.
#[derive(Debug, Default)]
struct Bucket {
    /// Shape classes in first-seen order. A bucket holds a handful of
    /// shapes and every scan visits all of them anyway, so lookup is a
    /// linear find and iteration order is the same on every run.
    classes: Vec<Class>,
    /// Live entries across all classes (tombstones excluded).
    live: usize,
}

/// The pilot agent's scheduler.
#[derive(Debug)]
pub struct Scheduler {
    /// Each node's free cores, free GPUs and up flag, and the fit set of
    /// every shape a class names.
    fit: Pool,
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
}

impl Scheduler {
    /// A scheduler over a single `node`.
    #[cfg(test)]
    fn new(node: NodeSpec) -> Self {
        Self::new_cluster(ClusterSpec::homogeneous(node, 1), PlacementPolicy::Backfill)
    }

    /// A scheduler over a homogeneous multi-node cluster. Tasks are placed
    /// first-fit across nodes and never span nodes. The policy names the
    /// one there is and chooses nothing.
    pub fn new_cluster(cluster: ClusterSpec, _policy: PlacementPolicy) -> Self {
        Scheduler {
            fit: Pool::new(cluster.count as usize, &cluster.node),
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
        }
    }

    /// The per-node shape this scheduler manages.
    pub(crate) fn node(&self) -> &NodeSpec {
        &self.cluster.node
    }

    /// Direct first-fit allocation that bypasses the queue and skips the
    /// `avoid`ed nodes: the grant lands on the leftmost *up* node not in
    /// `avoid` whose free slots admit `req`, or nowhere. Used by hedged
    /// duplicates (which must not share the straggler's node) and by
    /// quarantine retry steering (away from nodes a task already failed
    /// on). It walks the shape's fit set past the avoided nodes, interning
    /// the shape if no class names it; the queue and epochs are unaffected
    /// (an allocation only shrinks the free frontier).
    pub(crate) fn alloc_avoiding(
        &mut self,
        req: &ResourceRequest,
        avoid: &[u32],
    ) -> Option<Allocation> {
        let shape = (req.cores, req.gpus);
        let node = self.fit.first_fit(shape, avoid)?;
        Some(self.fit.grant(node, shape))
    }

    /// Drain a crashed node: it reads nothing free and down, and it takes
    /// no placements until [`Scheduler::recover_node`]. The caller is
    /// responsible for requeueing tasks that were resident on it (their
    /// allocations are implicitly forfeited — do *not* release them).
    ///
    /// A drain only shrinks the placeable frontier, so the round epochs
    /// stay valid.
    pub(crate) fn drain_node(&mut self, node: u32) {
        assert!(self.node_is_up(node), "node {node} drained twice");
        self.fit.update(node as usize, 0, 0, false);
    }

    /// Re-admit a recovered node to placement with all slots free.
    pub(crate) fn recover_node(&mut self, node: u32) {
        assert!(!self.node_is_up(node), "node {node} recovered while up");
        let NodeSpec { cores, gpus, .. } = self.cluster.node;
        self.fit.update(node as usize, cores, gpus, true);
        self.capacity_epoch += 1;
    }

    /// Whether `node` is currently accepting placements.
    pub(crate) fn node_is_up(&self, node: u32) -> bool {
        self.fit.up[node as usize]
    }

    /// Enqueue a task at default priority. Panics if the request can never
    /// fit the node — accepting it would deadlock the queue. Returns the
    /// queue ticket, as [`Scheduler::enqueue_with_priority`] does.
    #[cfg(test)]
    fn enqueue(&mut self, id: TaskId, request: ResourceRequest) -> u32 {
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
        let set = self.fit.intern((request.cores, request.gpus));
        let bucket = self.buckets.entry(Reverse(priority)).or_default();
        let class = match bucket.classes.iter().position(|&(s, _)| s == set) {
            Some(at) => at,
            None => {
                bucket.classes.push((set, VecDeque::new()));
                bucket.classes.len() - 1
            }
        };
        bucket.classes[class].1.push_back(idx);
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
    pub(crate) fn place_ready_into(&mut self, placed: &mut Vec<(TaskId, Allocation)>) {
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

    /// The tasks the next placement round is likeliest to take first:
    /// in the highest bucket with live entries, the live ones among the
    /// first `depth` entries of each shape class, class by class in
    /// first-seen order. Reads only; what a round places depends on the
    /// fit sets at the time, which this does not ask.
    pub(crate) fn upcoming(&self, depth: usize, mut f: impl FnMut(TaskId)) {
        let Some(bucket) = self.buckets.values().find(|b| b.live > 0) else {
            return;
        };
        for (_, dq) in &bucket.classes {
            for &idx in dq.iter().take(depth) {
                let entry = &self.slab[idx as usize];
                if entry.live {
                    f(entry.id);
                }
            }
        }
    }

    /// Continuous scheduling: within each priority bucket (highest first),
    /// take the earliest-arrived live head among the classes whose shape
    /// fits some node, and grant it on the lowest such node, until no
    /// class fits. Front tombstones are pruned on the way. A class that
    /// fits nowhere is skipped in O(1): free capacity only shrinks within
    /// a scan, so every later identical request would fail too, in this
    /// bucket and in every lower one. The placement sequence is therefore
    /// the naive full scan's.
    fn place_backfill(&mut self, placed: &mut Vec<(TaskId, Allocation)>) {
        for bucket in self.buckets.values_mut() {
            while bucket.live > 0 {
                let mut best: Option<(u64, usize)> = None;
                for (at, (set, dq)) in bucket.classes.iter_mut().enumerate() {
                    if self.fit.sets[*set as usize].is_empty() {
                        continue;
                    }
                    while let Some(&idx) = dq.front() {
                        if self.slab[idx as usize].live {
                            break;
                        }
                        dq.pop_front();
                        self.free_slots.push(idx);
                        self.dead -= 1;
                    }
                    if let Some(&idx) = dq.front() {
                        let seq = self.slab[idx as usize].seq;
                        if best.is_none_or(|(s, _)| seq < s) {
                            best = Some((seq, at));
                        }
                    }
                }
                let Some((_, class)) = best else { break };
                let (set, dq) = &mut bucket.classes[class];
                let set = &self.fit.sets[*set as usize];
                let shape = set.shape;
                let node = set.first_from(0).expect("a non-empty fit set");
                let idx = dq.pop_front().expect("class head exists");
                bucket.live -= 1;
                let entry = &mut self.slab[idx as usize];
                debug_assert!(entry.live, "placed a tombstone");
                entry.live = false;
                self.free_slots.push(idx);
                self.live -= 1;
                placed.push((entry.id, self.fit.grant(node, shape)));
            }
        }
    }

    /// Rebuild the buckets without tombstones, reclaiming their slab slots,
    /// and drop the fit sets no class names any more. Runs when tombstones
    /// outnumber live entries, so the O(queue) sweep amortizes to O(1) per
    /// removal.
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
        // Keep the sets the classes name, renumbered in class order.
        let mut old: Vec<_> = std::mem::take(&mut self.fit.sets)
            .into_iter()
            .map(Some)
            .collect();
        let mut ids = vec![0; old.len()];
        for (set, _) in self.buckets.values_mut().flat_map(|b| &mut b.classes) {
            if let Some(kept) = old[*set as usize].take() {
                ids[*set as usize] = self.fit.sets.len() as u32;
                self.fit.sets.push(kept);
            }
            *set = ids[*set as usize];
        }
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
        self.capacity_epoch += 1;
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
    pub(crate) fn queue_len(&self) -> usize {
        self.live
    }

    /// Free cores right now, across all *up* nodes (a down node has none).
    #[cfg(test)]
    pub(crate) fn cores_free(&self) -> u32 {
        self.fit.free.iter().map(|&(cores, _)| cores).sum()
    }

    /// Free GPUs right now, across all *up* nodes.
    #[cfg(test)]
    pub(crate) fn gpus_free(&self) -> u32 {
        self.fit.free.iter().map(|&(_, gpus)| gpus).sum()
    }
}

#[cfg(test)]
mod reference;

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
        let mut fit = Pool::new(10, &node);
        // Fully free: everything lands leftmost.
        assert_eq!(fit.first_fit((4, 2), &[]), Some(0));
        assert_eq!(fit.first_fit((0, 0), &[]), Some(0));
        assert_eq!(fit.first_fit((5, 0), &[]), None, "no node has five cores");
        // Fill node 0, kill node 1: a full-node request must skip to 2.
        fit.update(0, 0, 0, true);
        fit.update(1, 0, 0, false);
        assert_eq!(fit.first_fit((4, 2), &[]), Some(2));
        // A zero request fits the exhausted-but-up node 0, not the down
        // node 1 — the up flag, not the counters, excludes dead nodes.
        assert_eq!(fit.first_fit((0, 0), &[]), Some(0));
        fit.update(0, 0, 0, false);
        assert_eq!(fit.first_fit((0, 0), &[]), Some(2));
        // Cores on node 3, gpus on node 2 only: no node holds both.
        for i in 2..10 {
            fit.update(i, 1, 0, true);
        }
        fit.update(2, 1, 2, true);
        fit.update(3, 4, 0, true);
        assert_eq!(fit.first_fit((4, 2), &[]), None);
        assert_eq!(fit.first_fit((1, 2), &[]), Some(2));
        assert_eq!(fit.first_fit((4, 0), &[]), Some(3));
        // Recovery readmits at full capacity.
        fit.update(1, 4, 2, true);
        assert_eq!(fit.first_fit((4, 2), &[]), Some(1));
        // An avoided node is passed over for the next that admits.
        assert_eq!(
            fit.first_fit((4, 2), &[1]),
            None,
            "only node 1 holds (4, 2)"
        );
        assert_eq!(fit.first_fit((1, 0), &[1, 0, 2]), Some(3));
        assert_sets_match_counters(&fit);
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
        s.enqueue_with_priority(TaskId(10_001), req(1, 0), 1);
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert!(s.cancel_queued(TaskId(i as u64), ticket));
        }
        assert_eq!(s.queue_len(), 1);
        assert!(s.dead <= 64, "mass cancellation must compact: {}", s.dead);
        // The flood's class goes with its last tombstones, and so do the
        // emptied (2, 0) class and its set; the waiting task's class keeps
        // the (1, 0) set, renumbered from 1 to 0.
        s.compact();
        let shapes: Vec<_> = s.fit.sets.iter().map(|set| set.shape).collect();
        assert_eq!((shapes, s.buckets.len()), (vec![(1, 0)], 1));
        assert_eq!(s.buckets[&Reverse(1)].classes[0].0, 0);
        s.release_owned(placed[0].1.clone());
        let placed = s.place_ready();
        assert_eq!(ids(&placed), vec![10_001]);
        s.release_owned(placed[0].1.clone());
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
            "task 3 waits: (4, 0) fits nowhere"
        );
        s.release_owned(placed[2].1.clone());
        s.release_owned(placed[1].1.clone());
        let placed = s.place_ready();
        assert_eq!(ids(&placed), vec![3]);
        assert_eq!(placed[0].1.node, 1, "first fit, not the first release");
    }

    /// Each fit set is the linear test of its shape over the node
    /// counters: walking it from its lowest bit visits exactly the up nodes
    /// whose free cores and GPUs admit the shape, and its count is theirs.
    fn assert_sets_match_counters(fit: &Pool) {
        for set in &fit.sets {
            let (cores, gpus) = set.shape;
            let mut next = set.first_from(0);
            let mut count = 0;
            for (n, &(c, g)) in fit.free.iter().enumerate() {
                let fits = fit.up[n] && c >= cores && g >= gpus;
                assert_eq!(set.contains(n), fits, "node {n}, shape {:?}", set.shape);
                if fits {
                    assert_eq!(next, Some(n), "walk of {:?}", set.shape);
                    next = set.first_from(n + 1);
                    count += 1;
                }
            }
            assert_eq!(next, None, "walk of {:?} past the last node", set.shape);
            assert_eq!(set.len, count);
        }
    }

    #[test]
    fn queue_entries_and_classes_keep_their_size() {
        // A queued task holds its slab entry and one `u32` slot in its
        // class deque; a class costs one entry per shape and bucket.
        assert_eq!(std::mem::size_of::<QueueEntry>(), 24);
        assert_eq!(std::mem::size_of::<Class>(), 40);
    }

    #[test]
    fn upcoming_reads_the_class_heads_of_the_highest_live_bucket() {
        let upcoming = |s: &Scheduler, depth: usize| {
            let mut seen = Vec::new();
            s.upcoming(depth, |id| seen.push(id.0));
            seen
        };
        let mut s = Scheduler::new(NodeSpec::new(4, 0, 1));
        assert!(upcoming(&s, 8).is_empty(), "an empty queue");
        let mut tickets = Vec::new();
        for (id, cores) in [(0, 1), (1, 2), (2, 1), (3, 1), (4, 2)] {
            tickets.push(s.enqueue(TaskId(id), req(cores, 0)));
        }
        // Class by class in first-seen order, (1, 0) then (2, 0), each
        // cut at the depth.
        assert_eq!(upcoming(&s, 8), [0, 2, 3, 1, 4]);
        assert_eq!(upcoming(&s, 2), [0, 2, 1, 4]);
        assert!(upcoming(&s, 0).is_empty());
        // Only the highest bucket with a live entry is read.
        let urgent = s.enqueue_with_priority(TaskId(5), req(4, 0), 5);
        assert_eq!(upcoming(&s, 8), [5]);
        assert!(s.cancel_queued(TaskId(5), urgent));
        assert_eq!(upcoming(&s, 8), [0, 2, 3, 1, 4], "the emptied bucket");
        // A tombstone takes its place in the depth and is not yielded.
        assert!(s.cancel_queued(TaskId(2), tickets[2]));
        assert_eq!(upcoming(&s, 2), [0, 1, 4]);
        // A round places 0, 1 and 3 on the four cores; the heads move.
        assert_eq!(ids(&s.place_ready()), [0, 1, 3]);
        assert_eq!(upcoming(&s, 8), [4]);
    }

    #[test]
    fn fit_sets_cross_the_second_summary_word() {
        // 4,200 nodes are 66 words, so words 64 and 65 sit in the second
        // summary word.
        const NODES: u32 = 4_200;
        let cluster = ClusterSpec::homogeneous(NodeSpec::new(2, 1, 1), NODES);
        let mut s = Scheduler::new_cluster(cluster, PlacementPolicy::Backfill);
        for id in 0..NODES - 1 {
            s.enqueue(TaskId(id as u64), req(2, 1));
        }
        let mut placed = s.place_ready();
        assert_eq!(placed.len(), NODES as usize - 1);
        assert!(placed
            .iter()
            .enumerate()
            .all(|(n, (_, a))| a.node == n as u32));
        assert_sets_match_counters(&s.fit);
        // Only the last node, in word 65, is free: first fit is past both
        // the first summary word and the start of the second.
        s.enqueue(TaskId(10_000), req(2, 0));
        let last = s.place_ready();
        assert_eq!(last[0].1.node, NODES - 1);
        s.enqueue(TaskId(10_001), req(2, 1));
        assert!(s.place_ready().is_empty(), "no node holds (2, 1)");
        // A release in the first summary word wins over the last node.
        let (_, a) = placed.swap_remove(70);
        assert_eq!(a.node, 70);
        s.release_owned(a);
        assert_eq!(s.place_ready()[0].1.node, 70);
        // Free node 4,100 (word 64, bit 4 of the second summary word) and
        // drain it again: the (1, 0) set walks there and back.
        let (_, a) = placed.swap_remove(4_100);
        assert_eq!(a.node, 4_100);
        s.release_owned(a);
        assert_eq!(s.alloc_avoiding(&req(1, 0), &[4_100]), None);
        s.drain_node(4_100);
        assert_sets_match_counters(&s.fit);
        assert_eq!(s.alloc_avoiding(&req(1, 0), &[]), None);
        s.recover_node(4_100);
        assert_eq!(
            s.alloc_avoiding(&req(1, 0), &[]).map(|a| a.node),
            Some(4_100)
        );
        assert_sets_match_counters(&s.fit);
    }

    #[test]
    fn an_update_writes_at_most_one_bit_per_shape() {
        // 64 interned shapes over three (16, 3) nodes: 1..=16 cores by
        // 0..=3 GPUs, in that order.
        let node = NodeSpec::new(16, 3, 1);
        let mut fit = Pool::new(3, &node);
        let shapes: Vec<(u32, u32)> = (1..=16)
            .flat_map(|c| (0..=3).map(move |g| (c, g)))
            .collect();
        for &shape in &shapes {
            fit.intern(shape);
        }
        assert_eq!(fit.sets.len(), 64);
        // Each set holds exactly the nodes `holds` names for its shape.
        let check = |fit: &Pool, holds: &dyn Fn(usize, (u32, u32)) -> bool| {
            for (set, &shape) in fit.sets.iter().zip(&shapes) {
                let walk = std::iter::successors(set.first_from(0), |&n| set.first_from(n + 1));
                let fits: Vec<usize> = (0..3).filter(|&n| holds(n, shape)).collect();
                assert_eq!(walk.collect::<Vec<_>>(), fits, "{shape:?}");
            }
        };
        check(&fit, &|_, _| true);
        // A grant of (15, 2) leaves node 1 with (1, 1): 62 sets lose it.
        let a = fit.grant(1, (15, 2));
        check(&fit, &|n, (c, g)| n != 1 || (c == 1 && g <= 1));
        assert_eq!(fit.update(1, 1, 1, true), 0, "the same counters again");
        fit.release(&a, &node);
        check(&fit, &|_, _| true);
        assert_eq!(fit.update(1, 1, 1, true), 62, "that grant's writes");
        assert_eq!(fit.update(1, 16, 3, true), 62, "its release's");
        // A drain takes a node out of all 64 sets; a recovery puts it back.
        assert_eq!(fit.update(2, 0, 0, false), 64);
        check(&fit, &|n, _| n != 2);
        assert_eq!(fit.update(2, 16, 3, true), 64);
        check(&fit, &|_, _| true);
        // One core taken costs only the four 16-core shapes.
        assert_eq!(fit.update(0, 15, 3, true), 4);
        check(&fit, &|n, (c, _)| n != 0 || c < 16);
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
        /// request comes from a three-shape palette, so backlogs of shapes
        /// that fit nowhere persist across rounds and releases reopen them;
        /// in a quarter the cluster has 60–200 nodes, so fit sets span
        /// several words. Every fit set is checked against the counters
        /// after every step.
        fn optimized_scheduler_matches_reference_oracle(rng, cases = 256) {
            let cores = 1 + rng.below(32) as u32;
            let gpus = rng.below(5) as u32;
            let big = rng.below(4) == 0;
            let nodes = if big {
                60 + rng.below(141) as u32
            } else {
                1 + rng.below(12) as u32
            };
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
                        // A big cluster takes bursts, so whole words of
                        // nodes fill and empty.
                        for _ in 0..if big { 1 + rng.below(8) } else { 1 } {
                            let r = request(rng);
                            let prio = rng.below(7) as i32 - 3;
                            let id = TaskId(next_id);
                            next_id += 1;
                            tickets.push(opt.enqueue_with_priority(id, r, prio));
                            oracle.enqueue_with_priority(id, r, prio);
                            queued.push(id);
                        }
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
                        if rng.below(4) == 0 {
                            // Compact early: the classes' set ids renumber.
                            opt.compact();
                        }
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
                assert_sets_match_counters(&opt.fit);
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
                assert_sets_match_counters(&opt.fit);
            }
            assert_eq!(opt.queue_len(), oracle.queue_len());
        }
    }

    props! {
        /// Every grant is its request's shape, no node ever has more cores
        /// or GPUs granted than it holds, every task eventually places, and
        /// the cluster is whole again once everything is released.
        fn scheduler_conserves_devices(rng, cases = 64) {
            const NODES: u32 = 3;
            let node = NodeSpec::new(8, 2, 64);
            let tasks: Vec<(u32, u32)> = (0..1 + rng.below(59))
                .map(|_| {
                    let cores = 1 + rng.below(node.cores as usize) as u32;
                    (cores, rng.below(node.gpus as usize + 1) as u32)
                })
                .collect();
            let cluster = ClusterSpec::homogeneous(node, NODES);
            let mut s = Scheduler::new_cluster(cluster, PlacementPolicy::Backfill);
            for (i, &(cores, gpus)) in tasks.iter().enumerate() {
                s.enqueue(TaskId(i as u64), ResourceRequest::with_gpus(cores, gpus));
            }
            let mut running: Vec<Allocation> = Vec::new();
            let mut placed_total = 0usize;
            // Alternate placing and releasing the oldest running task until done.
            loop {
                let placed = s.place_ready();
                placed_total += placed.len();
                for (id, alloc) in placed {
                    let shape = tasks[id.0 as usize];
                    assert_eq!((alloc.cores, alloc.gpus), shape, "{id}'s grant");
                    running.push(alloc);
                }
                for n in 0..NODES {
                    let on = running.iter().filter(|a| a.node == n);
                    let (cores, gpus) = on.fold((0, 0), |(c, g), a| (c + a.cores, g + a.gpus));
                    assert!(cores <= node.cores, "node {n}: {cores} cores granted");
                    assert!(gpus <= node.gpus, "node {n}: {gpus} gpus granted");
                }
                if running.is_empty() {
                    break;
                }
                s.release_owned(running.remove(0));
            }
            assert_eq!(placed_total, tasks.len(), "every task must eventually place");
            assert_eq!(s.queue_len(), 0);
            assert_eq!(s.cores_free(), NODES * node.cores);
            assert_eq!(s.gpus_free(), NODES * node.gpus);
        }
    }

    /// A warm `enqueue` → `place_ready` → `release_owned` cycle allocates
    /// the returned `Vec` and nothing else, on a saturated node with a
    /// standing request that fails every round, so an empty fit set is
    /// read every round: slab slots and class deques are reused, both
    /// shapes' fit sets were built when first enqueued, and a grant is
    /// three counts on no heap. Through `place_ready_into` and one reused
    /// buffer the same cycle allocates nothing at all.
    #[test]
    fn a_warm_placement_cycle_allocates_only_the_vec_it_returns() {
        const CYCLES: u64 = 20_000;
        let mut s = Scheduler::new(NodeSpec::new(4, 0, 64));
        s.enqueue(TaskId(0), ResourceRequest::cores(1));
        let held = s.place_ready(); // one core gone for good
        assert_eq!(held.len(), 1);
        s.enqueue(TaskId(1), ResourceRequest::cores(4)); // never fits
        let mut next = 2u64;
        let mut cycle = |s: &mut Scheduler| {
            for _ in 0..CYCLES {
                s.enqueue_with_priority(TaskId(next), ResourceRequest::cores(1), 0);
                next += 1;
                let mut placed = s.place_ready();
                let (_, allocation) = placed.pop().expect("three cores are free");
                assert!(placed.is_empty(), "the four-core request failed again");
                s.release_owned(allocation);
            }
        };
        cycle(&mut s);
        let (allocs, ()) = crate::ALLOC.measure(|| cycle(&mut s));
        assert_eq!(s.queue_len(), 1);
        assert_eq!(
            allocs, CYCLES,
            "a warm placement cycle allocates the returned Vec and nothing else"
        );

        let mut placed = Vec::new();
        let mut cycle = |s: &mut Scheduler| {
            for _ in 0..CYCLES {
                s.enqueue_with_priority(TaskId(next), ResourceRequest::cores(1), 0);
                next += 1;
                s.place_ready_into(&mut placed);
                let (_, allocation) = placed.pop().expect("three cores are free");
                assert!(placed.is_empty(), "the four-core request failed again");
                s.release_owned(allocation);
            }
        };
        cycle(&mut s);
        let (allocs, ()) = crate::ALLOC.measure(|| cycle(&mut s));
        assert_eq!(s.queue_len(), 1);
        assert_eq!(
            allocs, 0,
            "a warm placement cycle into a reused buffer must not allocate"
        );
    }
}
