//! The cluster's nodes as placement sees them: each node's free cores and
//! GPUs and its up flag in plain vectors, the one record of its capacity,
//! and one **fit set** per interned request shape — a bitset over the
//! nodes whose bit says "this shape fits this up node now". A grant,
//! release, drain or recovery of a node re-tests that node against every
//! interned shape: K comparisons and at most K bit writes. First fit is a
//! set's lowest bit, and "fits nowhere" is an empty set.

use crate::resources::{Allocation, NodeSpec};

/// The nodes one request shape fits, as a two-level bitset: bit `n` of
/// `words` is node `n`, bit `w` of `summary` says word `w` is non-zero, and
/// `len` counts the nodes, so the lowest fitting node is the first
/// non-zero summary word and two trailing-zero counts.
#[derive(Debug)]
pub(super) struct FitSet {
    /// The `(cores, gpus)` request this set answers for.
    pub(super) shape: (u32, u32),
    words: Vec<u64>,
    summary: Vec<u64>,
    /// How many nodes the shape fits.
    pub(super) len: usize,
}

impl FitSet {
    pub(super) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(super) fn contains(&self, node: usize) -> bool {
        self.words[node / 64] >> (node % 64) & 1 == 1
    }

    /// Make node `node`'s bit read `fits`; whether that wrote it.
    fn assign(&mut self, node: usize, fits: bool) -> bool {
        if self.contains(node) == fits {
            return false;
        }
        let w = node / 64;
        let was_empty = self.words[w] == 0;
        self.words[w] ^= 1 << (node % 64);
        if was_empty || self.words[w] == 0 {
            self.summary[w / 64] ^= 1 << (w % 64);
        }
        if fits {
            self.len += 1;
        } else {
            self.len -= 1;
        }
        true
    }

    /// The lowest node at or after `from` that the shape fits.
    pub(super) fn first_from(&self, from: usize) -> Option<usize> {
        let w = from / 64;
        let here = self.words.get(w)? & (!0 << (from % 64));
        if here != 0 {
            return Some(w * 64 + here.trailing_zeros() as usize);
        }
        let next = w + 1;
        let mut s = next / 64;
        let mut bits = self.summary.get(s)? & (!0 << (next % 64));
        while bits == 0 {
            s += 1;
            bits = *self.summary.get(s)?;
        }
        let w = s * 64 + bits.trailing_zeros() as usize;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }
}

/// Every node's free counters and up flag, and the fit sets over them.
#[derive(Debug)]
pub(super) struct Pool {
    /// Each node's free `(cores, gpus)`; a down node's read `(0, 0)`.
    pub(super) free: Vec<(u32, u32)>,
    pub(super) up: Vec<bool>,
    /// The fit sets, indexed by shape id.
    pub(super) sets: Vec<FitSet>,
}

impl Pool {
    /// `nodes` identical fully-free up nodes, and no shape yet.
    pub(super) fn new(nodes: usize, node: &NodeSpec) -> Self {
        Pool {
            free: vec![(node.cores, node.gpus); nodes],
            up: vec![true; nodes],
            sets: Vec::new(),
        }
    }

    fn fits(&self, node: usize, (cores, gpus): (u32, u32)) -> bool {
        let (free_cores, free_gpus) = self.free[node];
        self.up[node] && free_cores >= cores && free_gpus >= gpus
    }

    /// The id of `shape`'s fit set. A shape seen for the first time gets a
    /// set built by one pass over the nodes.
    pub(super) fn intern(&mut self, shape: (u32, u32)) -> u32 {
        if let Some(id) = self.sets.iter().position(|s| s.shape == shape) {
            return id as u32;
        }
        let words = self.up.len().div_ceil(64);
        let mut set = FitSet {
            shape,
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            len: 0,
        };
        for node in (0..self.up.len()).filter(|&n| self.fits(n, shape)) {
            set.assign(node, true);
        }
        self.sets.push(set);
        (self.sets.len() - 1) as u32
    }

    /// Record `node`'s free counters and up flag and re-test it against
    /// every set. Returns the bits written: at most one a set.
    pub(super) fn update(&mut self, node: usize, cores: u32, gpus: u32, up: bool) -> usize {
        self.free[node] = (cores, gpus);
        self.up[node] = up;
        let fits = |(c, g): (u32, u32)| up && cores >= c && gpus >= g;
        self.sets
            .iter_mut()
            .map(|set| set.assign(node, fits(set.shape)) as usize)
            .sum()
    }

    /// The lowest up node not named in `avoid` that `shape` fits,
    /// interning the shape.
    pub(super) fn first_fit(&mut self, shape: (u32, u32), avoid: &[u32]) -> Option<usize> {
        let id = self.intern(shape) as usize;
        let set = &self.sets[id];
        let mut node = set.first_from(0);
        while let Some(n) = node.filter(|&n| avoid.contains(&(n as u32))) {
            node = set.first_from(n + 1);
        }
        node
    }

    /// Grant `(cores, gpus)` on `node`, taking them off its counters.
    pub(super) fn grant(&mut self, node: usize, (cores, gpus): (u32, u32)) -> Allocation {
        assert!(
            self.fits(node, (cores, gpus)),
            "node {node} cannot hold ({cores}, {gpus})"
        );
        let (free_cores, free_gpus) = self.free[node];
        self.update(node, free_cores - cores, free_gpus - gpus, true);
        Allocation {
            node: node as u32,
            cores,
            gpus,
        }
    }

    /// Give `alloc`'s cores and GPUs back to its node. Panics if that
    /// would leave the node more free than `node`, the shape every node
    /// has (the grant was already released).
    pub(super) fn release(&mut self, alloc: &Allocation, node: &NodeSpec) {
        let (free_cores, free_gpus) = self.free[alloc.node as usize];
        let cores = free_cores + alloc.cores;
        let gpus = free_gpus + alloc.gpus;
        assert!(
            cores <= node.cores && gpus <= node.gpus,
            "release past capacity on node {}",
            alloc.node
        );
        self.update(alloc.node as usize, cores, gpus, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_release_round_trip() {
        let node = NodeSpec::new(4, 2, 1);
        let mut p = Pool::new(2, &node);
        let a = p.grant(0, (3, 1));
        assert_eq!(
            a,
            Allocation {
                node: 0,
                cores: 3,
                gpus: 1
            }
        );
        assert_eq!(p.free[0], (1, 1));
        assert_eq!(p.first_fit((2, 0), &[]), Some(1), "node 0 keeps one core");
        p.release(&a, &node);
        assert_eq!(p.free[0], (4, 2));
        assert_eq!(p.first_fit((4, 2), &[]), Some(0));
    }
}
