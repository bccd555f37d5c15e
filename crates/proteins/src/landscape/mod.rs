//! The hidden design-fitness landscape.
//!
//! Combines the NK fold component ([`nk`]) and the binding-interface
//! component ([`interface`]) into one [`DesignLandscape`] per design target.
//! The landscape plays the role of ground truth ("how good is this design
//! really?") that the real paper gets from physical reality; the AlphaFold
//! surrogate observes it noisily, the ProteinMPNN surrogate climbs it
//! locally, and the protocol's job — the thing the paper evaluates — is to
//! extract as much of it as possible per unit of compute.
//!
//! Raw fitness values concentrate near 0.5 for random sequences (means of
//! many bounded terms), so they are affine-rescaled into a *quality* scale
//! `q ∈ [0, 1]` where random ≈ 0.2 and the best designs reachable by
//! realistic optimization ≈ 0.85. The AlphaFold confidence metrics are
//! linear reads of `q` (see [`crate::alphafold`]), which places starting
//! structures and final designs in the paper's observed pLDDT/pTM/pAE
//! ranges.
//!
//! # The local-scoring kernel and its contract
//!
//! Every caller of the local score — [`crate::mpnn::SurrogateMpnn`]'s
//! proposals, [`DesignLandscape::hill_climb`], target fabrication — wants
//! all twenty candidates at one `(sequence, position)`, so that is the one
//! operation there is: [`DesignLandscape::local_scores`]. It clones no
//! sequence, runs each NK hash chain once up to the first link that names
//! the candidate ([`NkLandscape::local_sums`]), and reads the binding term,
//! a constant of the target, from a table built in
//! [`DesignLandscape::new`] and shared by the landscape's clones. The contract is that every `f64` is produced
//! by the same operations in the same order as scoring one candidate at a
//! time against a mutated copy of the sequence: no reassociation, no
//! `mul_add`, and a product is tabled only where it was already a separate
//! rounding. The tests keep that one-candidate definition as their oracle
//! and compare bit for bit.

pub mod interface;
pub mod nk;

pub use interface::{Contact, InterfaceModel};
pub use nk::NkLandscape;

use crate::amino::{AminoAcid, ALL};
use crate::sequence::Sequence;
use impress_json::json_struct;
use impress_sim::SimRng;
use std::sync::Arc;

/// Weight of the fold component in total fitness (binding gets the rest).
pub const FOLD_WEIGHT: f64 = 0.55;

/// Raw-to-quality rescaling anchors for total fitness: [`RAW_LO`] is the
/// random-sequence mean, [`RAW_HI`] the practical greedy-optimization
/// asymptote (both measured empirically on PDZ-scale landscapes).
const RAW_LO: f64 = 0.53;
/// See [`RAW_LO`].
const RAW_HI: f64 = 0.835;

/// Raw-to-quality rescaling anchors for the binding component.
const BIND_LO: f64 = 0.46;
/// See [`BIND_LO`].
const BIND_HI: f64 = 0.88;

/// Raw-to-quality rescaling anchors for the fold component alone (used by
/// AlphaFold's monomer prediction mode, where no interface exists).
const FOLD_LO: f64 = 0.50;
/// See [`FOLD_LO`].
const FOLD_HI: f64 = 0.84;

/// Ground-truth fitness of one design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fitness {
    /// Raw NK fold fitness in `[0, 1)`.
    pub raw_fold: f64,
    /// Raw interface binding fitness in `[0, 1]`.
    pub raw_bind: f64,
    /// Total design quality `q` on the rescaled `[0, 1]` scale.
    pub quality: f64,
    /// Binding quality `q_bind` on the rescaled `[0, 1]` scale (drives the
    /// inter-chain pAE metric).
    pub bind_quality: f64,
    /// Fold-only quality on the rescaled `[0, 1]` scale (what a monomer
    /// prediction observes).
    pub fold_quality: f64,
}
json_struct!(Fitness {
    raw_fold,
    raw_bind,
    quality,
    bind_quality,
    fold_quality
});

/// The complete hidden landscape for one design target.
#[derive(Debug, Clone)]
pub struct DesignLandscape {
    nk: NkLandscape,
    interface: InterfaceModel,
    peptide: Sequence,
    binding: Arc<BindingTable>,
}

/// The binding term of [`DesignLandscape::local_scores`] — a constant of
/// the target, so it is computed once and shared by every clone of the
/// landscape (a toolkit holds four per target).
#[derive(Debug)]
struct BindingTable {
    /// Row 0 serves every position outside the groove, then one row per
    /// groove position (a groove is under a fifth of the receptor).
    rows: Vec<[f64; 20]>,
    /// Row of `rows` each receptor position reads.
    row_of: Vec<u32>,
}

impl BindingTable {
    fn new(interface: &InterfaceModel, peptide: &Sequence, receptor_len: usize) -> Self {
        let row = |pos: usize| {
            ALL.map(|candidate| {
                let bind =
                    interface.local_sum(pos, candidate, peptide) / interface.num_contacts() as f64;
                (1.0 - FOLD_WEIGHT) * bind
            })
        };
        // No contact names position `receptor_len`, so row 0 is the empty
        // sum every position outside the groove scores.
        let mut rows = vec![row(receptor_len)];
        let mut row_of = vec![0u32; receptor_len];
        for pos in interface.groove_positions() {
            row_of[pos] = u32::try_from(rows.len()).expect("groove fits in u32");
            rows.push(row(pos));
        }
        BindingTable { rows, row_of }
    }

    #[inline]
    fn row(&self, pos: usize) -> &[f64; 20] {
        &self.rows[self.row_of[pos] as usize]
    }
}

impl DesignLandscape {
    /// Landscape for a receptor of `receptor_len` residues binding `peptide`,
    /// fully determined by `seed`.
    pub fn new(seed: u64, receptor_len: usize, peptide: Sequence) -> Self {
        let interface = InterfaceModel::new(seed ^ 0xba5e_ba11, receptor_len, peptide.len());
        let binding = Arc::new(BindingTable::new(&interface, &peptide, receptor_len));
        DesignLandscape {
            nk: NkLandscape::new(seed, receptor_len),
            interface,
            peptide,
            binding,
        }
    }

    /// The fixed target peptide.
    pub fn peptide(&self) -> &Sequence {
        &self.peptide
    }

    /// Receptor length the landscape is defined over.
    pub fn receptor_len(&self) -> usize {
        self.nk.len()
    }

    /// Receptor positions forming the binding groove.
    pub fn groove_positions(&self) -> Vec<usize> {
        self.interface.groove_positions()
    }

    /// Ground-truth fitness of a receptor sequence.
    pub fn fitness(&self, receptor: &Sequence) -> Fitness {
        let raw_fold = self.nk.raw_fitness(receptor);
        let raw_bind = self.interface.raw_binding(receptor, &self.peptide);
        let raw_total = FOLD_WEIGHT * raw_fold + (1.0 - FOLD_WEIGHT) * raw_bind;
        Fitness {
            raw_fold,
            raw_bind,
            quality: ((raw_total - RAW_LO) / (RAW_HI - RAW_LO)).clamp(0.0, 1.0),
            bind_quality: ((raw_bind - BIND_LO) / (BIND_HI - BIND_LO)).clamp(0.0, 1.0),
            fold_quality: ((raw_fold - FOLD_LO) / (FOLD_HI - FOLD_LO)).clamp(0.0, 1.0),
        }
    }

    /// Change to the *raw total* fitness if `pos` mutated to each of the
    /// twenty residues, indexed by [`AminoAcid::index`] (the order of
    /// [`ALL`]), relative to an arbitrary per-position baseline. Only
    /// differences between candidates at the same position are meaningful.
    /// This is the local score the MPNN surrogate ranks residues with — it
    /// sees local structure chemistry, not the global landscape. Allocates
    /// nothing; see the module docs for the bit-for-bit contract.
    pub fn local_scores(&self, receptor: &Sequence, pos: usize) -> [f64; 20] {
        let sums = self.nk.local_sums(receptor, pos);
        let bind = self.binding.row(pos);
        std::array::from_fn(|c| {
            let fold = sums[c] / self.nk.len() as f64;
            FOLD_WEIGHT * fold + bind[c]
        })
    }

    /// Greedy first-improvement hill climb used to fabricate plausible
    /// "native" starting sequences: `sweeps` passes over random positions,
    /// accepting the best candidate whenever it improves raw total fitness.
    pub fn hill_climb(&self, start: &Sequence, sweeps: usize, rng: &mut SimRng) -> Sequence {
        let mut seq = start.clone();
        let n = seq.len();
        for _ in 0..sweeps {
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            for &pos in &order {
                let scores = self.local_scores(&seq, pos);
                let best = best_candidate(&scores);
                if scores[best.index()] > scores[seq.at(pos).index()] {
                    seq.set(pos, best);
                }
            }
        }
        seq
    }

    /// A uniformly random receptor sequence of the right length.
    pub fn random_receptor(&self, rng: &mut SimRng) -> Sequence {
        Sequence::new(
            (0..self.receptor_len())
                .map(|_| *rng.choose(&ALL))
                .collect(),
        )
    }
}

/// The best-scoring residue of one [`DesignLandscape::local_scores`] pass;
/// among equal maxima the last in [`ALL`] order wins, as with
/// [`Iterator::max_by`].
pub(crate) fn best_candidate(scores: &[f64; 20]) -> AminoAcid {
    ALL.iter()
        .copied()
        .max_by(|a, b| {
            scores[a.index()]
                .partial_cmp(&scores[b.index()])
                .expect("scores are finite")
        })
        .expect("ALL is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_sim::props;

    fn landscape() -> DesignLandscape {
        DesignLandscape::new(99, 80, Sequence::parse("EGYQDYEPEA").unwrap())
    }

    /// The specification of [`DesignLandscape::local_scores`]: score one
    /// candidate by rescoring a mutated copy of the receptor, filtering the
    /// contact list and recomputing the contact chemistry.
    fn naive_local_score(
        l: &DesignLandscape,
        receptor: &Sequence,
        pos: usize,
        candidate: AminoAcid,
    ) -> f64 {
        let fold = nk::naive_local_sum(&l.nk, receptor, pos, candidate) / l.nk.len() as f64;
        FOLD_WEIGHT * fold + naive_binding_term(l, pos, candidate)
    }

    /// The binding half of [`naive_local_score`].
    fn naive_binding_term(l: &DesignLandscape, pos: usize, candidate: AminoAcid) -> f64 {
        let bind =
            l.interface.local_sum(pos, candidate, &l.peptide) / l.interface.num_contacts() as f64;
        (1.0 - FOLD_WEIGHT) * bind
    }

    fn arb_sequence(rng: &mut SimRng, len: usize) -> Sequence {
        Sequence::new((0..len).map(|_| *rng.choose(&ALL)).collect())
    }

    /// Every position x candidate of the kernel carries the oracle's bits
    /// — the cyclic wrap at `0`, `1`, `len − 2`, `len − 1` among them — and
    /// so does the tabled binding term on its own, where the sign of an
    /// empty sum's zero would otherwise hide behind the fold term.
    fn assert_kernel_matches_oracle(rng: &mut SimRng, len: usize) {
        let peptide_len = 1 + rng.below(12);
        let peptide = arb_sequence(rng, peptide_len);
        let l = DesignLandscape::new(rng.next_u64(), len, peptide);
        let receptor = arb_sequence(rng, len);
        let groove = l.groove_positions();
        assert!(groove.len() < len, "some position lies outside the groove");
        for pos in 0..len {
            let scores = l.local_scores(&receptor, pos);
            let row = l.binding.row(pos);
            assert_eq!(l.binding.row_of[pos] != 0, groove.contains(&pos));
            for &candidate in &ALL {
                let c = candidate.index();
                let naive = naive_local_score(&l, &receptor, pos, candidate);
                let naive_bind = naive_binding_term(&l, pos, candidate);
                assert!(
                    scores[c].to_bits() == naive.to_bits()
                        && row[c].to_bits() == naive_bind.to_bits(),
                    "len {len} pos {pos} (groove: {}) candidate {candidate:?}: \
                     {} vs {naive}, binding {} vs {naive_bind}",
                    groove.contains(&pos),
                    scores[c],
                    row[c],
                );
            }
        }
    }

    props! {
        fn local_scores_match_the_naive_oracle_bit_for_bit(rng, cases = 48) {
            let len = 8 + rng.below(153);
            assert_kernel_matches_oracle(rng, len);
        }
    }

    /// 8 is the shortest receptor an interface accepts, where the groove is
    /// half the positions and every neighbourhood is near the wrap.
    #[test]
    fn the_shortest_receptor_matches_the_naive_oracle_too() {
        let mut rng = SimRng::from_seed(8);
        for _ in 0..8 {
            assert_kernel_matches_oracle(&mut rng, 8);
        }
    }

    #[test]
    fn best_candidate_keeps_the_last_of_equal_maxima() {
        let mut scores = [0.25; 20];
        assert_eq!(best_candidate(&scores), ALL[19]);
        scores[3] = 0.5;
        scores[11] = 0.5;
        assert_eq!(best_candidate(&scores), ALL[11]);
    }

    #[test]
    fn random_sequences_have_low_quality() {
        let l = landscape();
        let mut rng = SimRng::from_seed(1);
        let qs: Vec<f64> = (0..50)
            .map(|_| l.fitness(&l.random_receptor(&mut rng)).quality)
            .collect();
        let mean = qs.iter().sum::<f64>() / qs.len() as f64;
        assert!(mean < 0.35, "random mean quality {mean}");
        assert!(qs.iter().all(|&q| (0.0..=1.0).contains(&q)));
    }

    #[test]
    fn hill_climbing_reaches_high_quality() {
        let l = landscape();
        let mut rng = SimRng::from_seed(2);
        let start = l.random_receptor(&mut rng);
        let q0 = l.fitness(&start).quality;
        let climbed = l.hill_climb(&start, 4, &mut rng);
        let q1 = l.fitness(&climbed).quality;
        assert!(
            q1 > q0 + 0.3,
            "hill climb must make large progress: {q0} → {q1}"
        );
        assert!(q1 > 0.6, "climbed quality {q1}");
    }

    #[test]
    fn local_score_ordering_predicts_global_improvement() {
        // Picking the best local candidate at a position must (usually)
        // improve global fitness — this is the signal MPNN exploits.
        let l = landscape();
        let mut rng = SimRng::from_seed(3);
        let seq = l.random_receptor(&mut rng);
        let base =
            FOLD_WEIGHT * l.fitness(&seq).raw_fold + (1.0 - FOLD_WEIGHT) * l.fitness(&seq).raw_bind;
        let mut improved = 0;
        for pos in 0..20 {
            let best = best_candidate(&l.local_scores(&seq, pos));
            let f = l.fitness(&seq.with_substitution(pos, best));
            let raw = FOLD_WEIGHT * f.raw_fold + (1.0 - FOLD_WEIGHT) * f.raw_bind;
            if raw >= base {
                improved += 1;
            }
        }
        assert!(improved >= 17, "local best improved only {improved}/20");
    }

    #[test]
    fn fitness_is_deterministic_across_instances() {
        let a = landscape();
        let b = landscape();
        let mut rng = SimRng::from_seed(4);
        let seq = a.random_receptor(&mut rng);
        assert_eq!(a.fitness(&seq), b.fitness(&seq));
    }

    #[test]
    fn bind_quality_responds_to_groove_mutations_only() {
        let l = landscape();
        let mut rng = SimRng::from_seed(5);
        let seq = l.random_receptor(&mut rng);
        let groove = l.groove_positions();
        let outside = (0..l.receptor_len()).find(|p| !groove.contains(p)).unwrap();
        let f0 = l.fitness(&seq);
        let f1 = l.fitness(&seq.with_substitution(outside, AminoAcid::Trp));
        assert_eq!(f0.raw_bind, f1.raw_bind);
    }

    #[test]
    fn different_targets_have_different_optima() {
        let a = DesignLandscape::new(1, 60, Sequence::parse("EPEA").unwrap());
        let b = DesignLandscape::new(2, 60, Sequence::parse("EPEA").unwrap());
        let mut rng = SimRng::from_seed(6);
        let start = a.random_receptor(&mut rng);
        let best_a = a.hill_climb(&start, 3, &mut rng);
        // The sequence optimized for target a should not also be optimal for b.
        let qa = a.fitness(&best_a).quality;
        let qb = b.fitness(&best_a).quality;
        assert!(qa > qb + 0.2, "specificity: qa={qa} qb={qb}");
    }
}
