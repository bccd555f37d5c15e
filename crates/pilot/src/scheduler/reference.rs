//! The naive scheduler, kept as a test-only oracle.
//!
//! This is the scan-everything implementation the optimized
//! [`super::Scheduler`] replaced: a pair of free counters per node and a
//! `down` flag, granted first-fit by a linear scan over the nodes, a single
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
use std::collections::VecDeque;

/// Naive free counters for one node.
#[derive(Debug, Clone)]
struct ReferencePool {
    free_cores: u32,
    free_gpus: u32,
}

impl ReferencePool {
    fn new(node: &NodeSpec) -> Self {
        ReferencePool {
            free_cores: node.cores,
            free_gpus: node.gpus,
        }
    }

    fn try_alloc(&mut self, request: &ResourceRequest) -> Option<Allocation> {
        if self.free_cores < request.cores || self.free_gpus < request.gpus {
            return None;
        }
        self.free_cores -= request.cores;
        self.free_gpus -= request.gpus;
        Some(Allocation {
            node: 0,
            cores: request.cores,
            gpus: request.gpus,
        })
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
        let node = &self.cluster.node;
        let pool = &mut self.pools[alloc.node as usize];
        pool.free_cores += alloc.cores;
        pool.free_gpus += alloc.gpus;
        assert!(
            pool.free_cores <= node.cores && pool.free_gpus <= node.gpus,
            "oracle: release past capacity on node {}",
            alloc.node
        );
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
            .map(|(p, _)| p.free_cores)
            .sum()
    }

    pub(crate) fn gpus_free(&self) -> u32 {
        self.pools
            .iter()
            .zip(&self.down)
            .filter(|(_, d)| !**d)
            .map(|(p, _)| p.free_gpus)
            .sum()
    }
}
