//! The cluster's slot pool: each node's free core and GPU counters and
//! whether it is up, held as the leaves of the segment tree that answers
//! the scheduler's first-fit queries, so a node's capacity is stored once.
//! A grant is a node and two counts; taking one and giving it back are
//! leaf writes plus an ancestor walk.

use crate::resources::{Allocation, NodeSpec};

/// A flat segment tree over the cluster's nodes, keyed by each node's free
/// counters, answering *leftmost node whose free cores/GPUs admit a shape*
/// in O(log nodes) instead of the naive O(nodes) scan. Leaves store
/// `(cores_free, gpus_free, up)` per node and are the only record of a
/// node's free capacity and of its being drained (a down leaf is `(0, 0,
/// false)`); internal nodes store the component-wise maxima and an any-up
/// flag. The internal condition is necessary but not sufficient — the max
/// cores and max gpus of a subtree can live on different leaves — so the
/// descent backtracks; the leaf condition is exact because the leaf *is*
/// the node's free capacity. The result is therefore always the same node
/// the linear first-fit scan would pick, which the reference-oracle
/// property test replays.
#[derive(Debug)]
pub(super) struct FitIndex {
    /// Leaf count rounded up to a power of two; node `i`'s leaf is `size + i`.
    pub(super) size: usize,
    /// Per-subtree max free cores over up nodes.
    pub(super) cores: Vec<u32>,
    /// Per-subtree max free GPUs over up nodes.
    pub(super) gpus: Vec<u32>,
    /// Whether any node in the subtree is up.
    pub(super) up: Vec<bool>,
}

impl FitIndex {
    /// An index over `nodes` identical fully-free up nodes.
    pub(super) fn new(nodes: usize, node: &NodeSpec) -> Self {
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
    pub(super) fn set(&mut self, node: usize, cores: u32, gpus: u32, up: bool) {
        let mut i = self.size + node;
        self.cores[i] = cores;
        self.gpus[i] = gpus;
        self.up[i] = up;
        while i > 1 {
            i /= 2;
            self.pull(i);
        }
    }

    pub(super) fn admits(&self, i: usize, cores: u32, gpus: u32) -> bool {
        self.up[i] && self.cores[i] >= cores && self.gpus[i] >= gpus
    }

    /// Leftmost up node not named in `avoid` whose free counters admit
    /// `(cores, gpus)`. An avoided leaf is rejected where the descent
    /// reaches it, and the search backtracks past it.
    pub(super) fn first_fit(&self, cores: u32, gpus: u32, avoid: &[u32]) -> Option<usize> {
        self.descend(1, cores, gpus, avoid)
    }

    fn descend(&self, i: usize, cores: u32, gpus: u32, avoid: &[u32]) -> Option<usize> {
        if !self.admits(i, cores, gpus) {
            return None;
        }
        if i >= self.size {
            let node = i - self.size;
            return (!avoid.contains(&(node as u32))).then_some(node);
        }
        self.descend(2 * i, cores, gpus, avoid)
            .or_else(|| self.descend(2 * i + 1, cores, gpus, avoid))
    }

    /// Grant `(cores, gpus)` on `node`, taking them off its leaf.
    pub(super) fn grant(&mut self, node: usize, cores: u32, gpus: u32) -> Allocation {
        let leaf = self.size + node;
        assert!(
            self.admits(leaf, cores, gpus),
            "node {node} cannot hold ({cores}, {gpus})"
        );
        self.set(node, self.cores[leaf] - cores, self.gpus[leaf] - gpus, true);
        Allocation {
            node: node as u32,
            cores,
            gpus,
        }
    }

    /// Give `alloc`'s cores and GPUs back to its node's leaf. Panics if
    /// that would leave the node more free than `node`, the shape every
    /// node has (the grant was already released).
    pub(super) fn release(&mut self, alloc: &Allocation, node: &NodeSpec) {
        let leaf = self.size + alloc.node as usize;
        let cores = self.cores[leaf] + alloc.cores;
        let gpus = self.gpus[leaf] + alloc.gpus;
        assert!(
            cores <= node.cores && gpus <= node.gpus,
            "release past capacity on node {}",
            alloc.node
        );
        self.set(alloc.node as usize, cores, gpus, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_release_round_trip() {
        let node = NodeSpec::new(4, 2, 1);
        let mut p = FitIndex::new(2, &node);
        let a = p.grant(0, 3, 1);
        assert_eq!(
            a,
            Allocation {
                node: 0,
                cores: 3,
                gpus: 1
            }
        );
        let leaf = p.size;
        assert_eq!((p.cores[leaf], p.gpus[leaf]), (1, 1));
        assert_eq!(p.first_fit(2, 0, &[]), Some(1), "node 0 keeps one core");
        p.release(&a, &node);
        assert_eq!((p.cores[leaf], p.gpus[leaf]), (4, 2));
        assert_eq!(p.first_fit(4, 2, &[]), Some(0));
    }
}
