//! The pre-optimization scheduler, kept verbatim as a test-only oracle.
//!
//! This is the naive implementation the optimized [`super::Scheduler`]
//! replaced: `BTreeSet` free sets granted lowest-id-first, a single
//! `VecDeque` queue with linear-scan priority insertion, `Vec::remove`
//! shifting on backfill placement, and a full rescan of everything on every
//! placement round. It is deliberately simple enough to be obviously
//! correct; the differential property test in `super::tests` replays random
//! workloads through both implementations and asserts identical placement
//! sequences, queue lengths and free counters, which is what lets the
//! optimized code claim bit-identical artifacts.
//!
//! Do not "improve" this module — its value is that it does not share
//! structure (or therefore bugs) with the fast path.

use crate::resources::{Allocation, ClusterSpec, NodeSpec, ResourceRequest};
use crate::task::TaskId;
use std::collections::{BTreeSet, VecDeque};

/// Naive free-device sets for one node (the old `SlotPool`).
#[derive(Debug, Clone)]
struct ReferencePool {
    free_cores: BTreeSet<u32>,
    free_gpus: BTreeSet<u32>,
}

impl ReferencePool {
    fn new(node: &NodeSpec) -> Self {
        ReferencePool {
            free_cores: (0..node.cores).collect(),
            free_gpus: (0..node.gpus).collect(),
        }
    }

    fn try_alloc(&mut self, request: &ResourceRequest) -> Option<Allocation> {
        if (self.free_cores.len() as u32) < request.cores
            || (self.free_gpus.len() as u32) < request.gpus
        {
            return None;
        }
        let core_ids: Vec<u32> = self
            .free_cores
            .iter()
            .copied()
            .take(request.cores as usize)
            .collect();
        let gpu_ids: Vec<u32> = self
            .free_gpus
            .iter()
            .copied()
            .take(request.gpus as usize)
            .collect();
        for c in &core_ids {
            self.free_cores.remove(c);
        }
        for g in &gpu_ids {
            self.free_gpus.remove(g);
        }
        Some(Allocation {
            node: 0,
            core_ids,
            gpu_ids,
        })
    }

    fn release(&mut self, alloc: &Allocation) {
        for &c in &alloc.core_ids {
            assert!(
                self.free_cores.insert(c),
                "oracle: double release of core {c}"
            );
        }
        for &g in &alloc.gpu_ids {
            assert!(
                self.free_gpus.insert(g),
                "oracle: double release of gpu {g}"
            );
        }
    }
}

/// The old scan-everything scheduler, API-compatible with the subset the
/// differential test drives.
#[derive(Debug)]
pub(crate) struct ReferenceScheduler {
    pools: Vec<ReferencePool>,
    down: Vec<bool>,
    queue: VecDeque<(TaskId, ResourceRequest, i32)>,
    cluster: ClusterSpec,
}

impl ReferenceScheduler {
    pub fn new_cluster(cluster: ClusterSpec) -> Self {
        ReferenceScheduler {
            pools: (0..cluster.count)
                .map(|_| ReferencePool::new(&cluster.node))
                .collect(),
            down: vec![false; cluster.count as usize],
            queue: VecDeque::new(),
            cluster,
        }
    }

    fn try_alloc(&mut self, req: &ResourceRequest) -> Option<Allocation> {
        self.alloc_avoiding(req, &[])
    }

    pub(crate) fn alloc_avoiding(
        &mut self,
        req: &ResourceRequest,
        avoid: &[u32],
    ) -> Option<Allocation> {
        for (idx, pool) in self.pools.iter_mut().enumerate() {
            if self.down[idx] || avoid.contains(&(idx as u32)) {
                continue;
            }
            if let Some(mut alloc) = pool.try_alloc(req) {
                alloc.node = idx as u32;
                return Some(alloc);
            }
        }
        None
    }

    pub(crate) fn drain_node(&mut self, node: u32) {
        let idx = node as usize;
        assert!(!self.down[idx], "node {node} drained twice");
        self.down[idx] = true;
        self.pools[idx] = ReferencePool::new(&self.cluster.node);
    }

    pub(crate) fn recover_node(&mut self, node: u32) {
        let idx = node as usize;
        assert!(self.down[idx], "node {node} recovered while up");
        self.down[idx] = false;
    }

    pub fn enqueue_with_priority(&mut self, id: TaskId, request: ResourceRequest, priority: i32) {
        assert!(request.fits_node(&self.cluster.node));
        // Stable insert before the first strictly-lower-priority entry.
        let pos = self
            .queue
            .iter()
            .position(|&(_, _, p)| p < priority)
            .unwrap_or(self.queue.len());
        self.queue.insert(pos, (id, request, priority));
    }

    pub fn place_ready(&mut self) -> Vec<(TaskId, Allocation)> {
        let mut placed = Vec::new();
        let mut i = 0;
        while i < self.queue.len() {
            let req = self.queue[i].1;
            match self.try_alloc(&req) {
                Some(alloc) => {
                    let (id, _, _) = self.queue.remove(i).expect("index in bounds");
                    placed.push((id, alloc));
                    // do not advance i: the next entry shifted into i
                }
                None => i += 1,
            }
        }
        placed
    }

    pub fn release(&mut self, alloc: &Allocation) {
        assert!(
            !self.down[alloc.node as usize],
            "oracle: release of an allocation on drained node {}",
            alloc.node
        );
        self.pools[alloc.node as usize].release(alloc);
    }

    pub(crate) fn cancel_queued(&mut self, id: TaskId) -> bool {
        if let Some(pos) = self.queue.iter().position(|(qid, _, _)| *qid == id) {
            self.queue.remove(pos);
            true
        } else {
            false
        }
    }

    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn cores_free(&self) -> u32 {
        self.pools
            .iter()
            .zip(&self.down)
            .filter(|(_, d)| !**d)
            .map(|(p, _)| p.free_cores.len() as u32)
            .sum()
    }

    pub(crate) fn gpus_free(&self) -> u32 {
        self.pools
            .iter()
            .zip(&self.down)
            .filter(|(_, d)| !**d)
            .map(|(p, _)| p.free_gpus.len() as u32)
            .sum()
    }
}
