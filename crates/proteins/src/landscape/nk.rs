//! NK-style epistatic fold-fitness landscape.
//!
//! Kauffman's NK model is the standard synthetic stand-in for protein fitness
//! landscapes: each position's contribution depends on its own residue and
//! its `K` sequence neighbours, giving tunable ruggedness. `K = 2` makes the
//! landscape rugged enough that naive hill climbing stalls in local optima —
//! so adaptive selection has something to beat — while staying climbable by
//! the 10-proposal/cycle budget the paper's protocol uses.
//!
//! Contributions are *hash-defined*, not table-stored: the contribution of
//! `(position, residue, neighbours)` is a splitmix64 hash of those values
//! and the landscape seed, mapped to `[0, 1)`. This keeps landscapes for
//! 70 × 100-residue targets allocation-free and bit-reproducible.

use crate::amino::{AminoAcid, ALL};
use crate::sequence::Sequence;

/// Number of epistatic neighbours per position.
pub const K: usize = 2;

/// splitmix64 finalizer — a well-mixed 64→64 bit hash.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a hash to `[0, 1)`.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// One link of a contribution's hash chain: mix `residue` into `h` at
/// `slot` (0 = the position's own residue, `i` = its `i`-th neighbour).
#[inline]
fn link(h: u64, residue: AminoAcid, slot: usize) -> u64 {
    mix(h ^ ((residue.index() as u64 + 1) << (8 * slot)))
}

/// The NK fold-fitness component for one design target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NkLandscape {
    seed: u64,
    len: usize,
}

impl NkLandscape {
    /// Landscape over sequences of length `len`, defined by `seed`.
    pub fn new(seed: u64, len: usize) -> Self {
        assert!(len > K, "sequence must be longer than neighbourhood K={K}");
        NkLandscape { seed, len }
    }

    /// Sequence length this landscape is defined over.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the landscape has zero length (never true by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Contribution of position `pos` given the residue there and the
    /// residues at its `K` cyclic right-neighbours. Uniform in `[0, 1)`.
    #[inline]
    pub fn contribution(&self, pos: usize, own: AminoAcid, neighbours: [AminoAcid; K]) -> f64 {
        let mut h = link(self.chain_start(pos), own, 0);
        for (i, &n) in neighbours.iter().enumerate() {
            h = link(h, n, i + 1);
        }
        unit(h)
    }

    /// Head of position `pos`'s hash chain, before any residue is mixed in.
    #[inline]
    fn chain_start(&self, pos: usize) -> u64 {
        self.seed ^ mix(pos as u64 + 1)
    }

    /// Neighbour residues of `pos` in `seq` (cyclic).
    #[inline]
    pub fn neighbours(&self, seq: &Sequence, pos: usize) -> [AminoAcid; K] {
        let n = self.len;
        [seq.at((pos + 1) % n), seq.at((pos + 2) % n)]
    }

    /// Mean per-position contribution of `seq` — the raw fold fitness in
    /// `[0, 1)`. Panics if the sequence length does not match.
    pub fn raw_fitness(&self, seq: &Sequence) -> f64 {
        assert_eq!(seq.len(), self.len, "sequence length mismatch");
        let mut total = 0.0;
        for pos in 0..self.len {
            total += self.contribution(pos, seq.at(pos), self.neighbours(seq, pos));
        }
        total / self.len as f64
    }

    /// Contributions *touched by* position `pos` for each of the twenty
    /// residues it could hold, indexed by [`AminoAcid::index`]: its own term
    /// plus the terms of the `K` positions whose neighbourhoods include
    /// `pos`. Dividing by `len` gives the exact change to
    /// [`NkLandscape::raw_fitness`] when only `pos` mutates — the cheap
    /// local score the MPNN surrogate ranks candidate residues with.
    ///
    /// Each of the three hash chains is run once up to the first link that
    /// names the candidate, and only the rest is run per candidate (3, 2
    /// and 1 `mix` rounds instead of 5 each). Entry `c` carries the bits
    /// [`NkLandscape::contribution`] gives for `c` at `pos` and `seq`
    /// elsewhere, summed in the order `pos`, `pos − 1`, `pos − 2`.
    pub fn local_sums(&self, seq: &Sequence, pos: usize) -> [f64; 20] {
        let n = self.len;
        let [next, after] = self.neighbours(seq, pos);
        let (p1, p2) = ((pos + n - 1) % n, (pos + n - 2) % n);
        let own = self.chain_start(pos);
        let back1 = link(self.chain_start(p1), seq.at(p1), 0);
        let back2 = link(link(self.chain_start(p2), seq.at(p2), 0), seq.at(p1), 1);
        ALL.map(|candidate| {
            let mut total = unit(link(link(link(own, candidate, 0), next, 1), after, 2));
            total += unit(link(link(back1, candidate, 1), next, 2));
            total += unit(link(back2, candidate, 2));
            total
        })
    }
}

/// The clone-and-rescore definition [`NkLandscape::local_sums`] must match
/// bit for bit, one candidate at a time.
#[cfg(test)]
pub(super) fn naive_local_sum(
    nk: &NkLandscape,
    seq: &Sequence,
    pos: usize,
    candidate: AminoAcid,
) -> f64 {
    let n = nk.len;
    let mut probe = seq.clone();
    probe.set(pos, candidate);
    let mut total = nk.contribution(pos, candidate, nk.neighbours(&probe, pos));
    for back in 1..=K {
        let p = (pos + n - back) % n;
        total += nk.contribution(p, probe.at(p), nk.neighbours(&probe, p));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_sim_test_util::seq_of;

    /// Minimal local helper so tests read clearly.
    mod impress_sim_test_util {
        use crate::sequence::Sequence;
        pub fn seq_of(s: &str) -> Sequence {
            Sequence::parse(s).unwrap()
        }
    }

    #[test]
    fn fitness_is_deterministic() {
        let l = NkLandscape::new(7, 10);
        let s = seq_of("ACDEFGHIKL");
        assert_eq!(l.raw_fitness(&s), l.raw_fitness(&s));
        let l2 = NkLandscape::new(7, 10);
        assert_eq!(l.raw_fitness(&s), l2.raw_fitness(&s));
    }

    #[test]
    fn different_seeds_give_different_landscapes() {
        let a = NkLandscape::new(1, 10);
        let b = NkLandscape::new(2, 10);
        let s = seq_of("ACDEFGHIKL");
        assert_ne!(a.raw_fitness(&s), b.raw_fitness(&s));
    }

    #[test]
    fn fitness_in_unit_interval_with_random_mean_half() {
        let l = NkLandscape::new(3, 50);
        let mut sum = 0.0;
        let mut n = 0;
        for seed in 0..200u64 {
            // pseudo-random sequences from the seed
            let residues: Vec<_> = (0..50)
                .map(|i| ALL[(mix(seed * 1000 + i) % 20) as usize])
                .collect();
            let s = Sequence::new(residues);
            let f = l.raw_fitness(&s);
            assert!((0.0..1.0).contains(&f));
            sum += f;
            n += 1;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "random-sequence mean {mean}");
    }

    #[test]
    fn single_mutation_changes_only_local_terms() {
        let l = NkLandscape::new(11, 30);
        let residues: Vec<_> = (0..30).map(|i| ALL[(i * 7) % 20]).collect();
        let s = Sequence::new(residues);
        let pos = 13;
        let sums = l.local_sums(&s, pos);
        for &cand in &ALL {
            let mutated = s.with_substitution(pos, cand);
            let predicted =
                l.raw_fitness(&s) + (sums[cand.index()] - sums[s.at(pos).index()]) / 30.0;
            let actual = l.raw_fitness(&mutated);
            assert!(
                (predicted - actual).abs() < 1e-12,
                "local_sums must exactly predict single-mutation delta"
            );
        }
    }

    #[test]
    fn epistasis_is_present() {
        // The effect of a mutation at pos depends on the background: K > 0.
        let l = NkLandscape::new(5, 20);
        let a = seq_of("AAAAAAAAAAAAAAAAAAAA");
        let b = seq_of("AAAAAAAAAAAAAAAAAAAW"); // differs at pos 19, a neighbour of 17/18
        let da = l.raw_fitness(&a.with_substitution(18, AminoAcid::Lys)) - l.raw_fitness(&a);
        let db = l.raw_fitness(&b.with_substitution(18, AminoAcid::Lys)) - l.raw_fitness(&b);
        assert!(
            (da - db).abs() > 1e-9,
            "mutation effect must depend on background (epistasis)"
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let l = NkLandscape::new(1, 10);
        let s = seq_of("ACD");
        let _ = l.raw_fitness(&s);
    }
}
