//! Sequence profiles: position frequency matrices over design cohorts.
//!
//! When a design campaign produces many sequences for the same backbone
//! (MPNN proposal batches, GA populations, per-seed replicate designs), the
//! profile answers the standard questions: which positions converged
//! (low entropy), what is the consensus design, and how strongly is each
//! residue preferred — the analysis behind sequence-logo figures.

use crate::sequence::Sequence;

/// A position frequency matrix over aligned, equal-length sequences.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceProfile {
    /// `counts[pos][aa_index]`.
    counts: Vec<[u32; 20]>,
    /// Number of sequences profiled.
    n: u32,
}

impl SequenceProfile {
    /// Build a profile from equal-length sequences. Panics on empty input
    /// or length mismatch — a profile over nothing is meaningless.
    pub fn from_sequences<'a>(seqs: impl IntoIterator<Item = &'a Sequence>) -> SequenceProfile {
        let mut iter = seqs.into_iter();
        let first = iter.next().expect("profile needs at least one sequence");
        let len = first.len();
        let mut counts = vec![[0u32; 20]; len];
        let mut n = 0u32;
        for seq in std::iter::once(first).chain(iter) {
            assert_eq!(seq.len(), len, "profile sequences must be equal length");
            for (pos, &aa) in seq.residues().iter().enumerate() {
                counts[pos][aa.index()] += 1;
            }
            n += 1;
        }
        SequenceProfile { counts, n }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the profile has zero positions (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Shannon entropy (bits) of the residue distribution at `pos`:
    /// 0 = fully conserved, log2(20) ≈ 4.32 = uniform.
    pub fn entropy(&self, pos: usize) -> f64 {
        let n = self.n as f64;
        -self.counts[pos]
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n;
                p * p.log2()
            })
            .sum::<f64>()
    }

    /// Mean entropy across positions — cohort diversity in one number.
    pub fn mean_entropy(&self) -> f64 {
        (0..self.len()).map(|p| self.entropy(p)).sum::<f64>() / self.len() as f64
    }

    /// Positions fully conserved across the cohort.
    pub fn conserved_positions(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&p| self.counts[p].contains(&self.n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amino::ALL;

    fn seq(s: &str) -> Sequence {
        Sequence::parse(s).unwrap()
    }

    #[test]
    fn profile_of_identical_sequences_is_fully_conserved() {
        let seqs = vec![seq("MKVLA"), seq("MKVLA"), seq("MKVLA")];
        let p = SequenceProfile::from_sequences(&seqs);
        assert_eq!(p.n, 3);
        assert_eq!(p.conserved_positions(), vec![0, 1, 2, 3, 4]);
        for pos in 0..5 {
            assert_eq!(p.entropy(pos), 0.0);
        }
    }

    #[test]
    fn entropy_matches_hand_computation() {
        // 50/50 split at a position → 1 bit.
        let seqs = vec![seq("A"), seq("W")];
        let p = SequenceProfile::from_sequences(&seqs);
        assert!((p.entropy(0) - 1.0).abs() < 1e-12);
        assert!((p.mean_entropy() - 1.0).abs() < 1e-12);
        assert!(p.conserved_positions().is_empty());
    }

    #[test]
    fn entropy_is_bounded_by_uniform() {
        // 20 sequences, each a different residue at position 0 → log2(20).
        let seqs: Vec<Sequence> = ALL.iter().map(|&aa| Sequence::new(vec![aa])).collect();
        let p = SequenceProfile::from_sequences(&seqs);
        assert!((p.entropy(0) - 20.0f64.log2()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_panics() {
        let seqs = vec![seq("MK"), seq("MKV")];
        let _ = SequenceProfile::from_sequences(&seqs);
    }

    #[test]
    #[should_panic(expected = "at least one sequence")]
    fn empty_input_panics() {
        let seqs: Vec<Sequence> = vec![];
        let _ = SequenceProfile::from_sequences(&seqs);
    }
}
