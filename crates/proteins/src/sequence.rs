//! Protein sequences and chains.
//!
//! A [`Sequence`] is an ordered run of residues; a [`Chain`] is a named
//! sequence within a complex (receptor chain "A", peptide chain "B" in the
//! paper's PDZ–peptide systems). Mutation helpers preserve fixed positions —
//! the mechanism the paper's future-work section needs for protease designs
//! where catalytic residues must not change.

use crate::amino::{AminoAcid, UnknownResidue};
use impress_json::json_struct;
use std::fmt;

/// Identifier of a chain within a complex (e.g. `'A'`, `'B'`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChainId(pub char);

impl fmt::Display for ChainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An ordered run of amino-acid residues.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Sequence {
    residues: Vec<AminoAcid>,
}
json_struct!(Sequence { residues });

impl Sequence {
    /// A sequence from residues.
    pub fn new(residues: Vec<AminoAcid>) -> Self {
        Sequence { residues }
    }

    /// Parse from a one-letter string, rejecting unknown letters.
    pub fn parse(s: &str) -> Result<Self, UnknownResidue> {
        let residues = s
            .chars()
            .filter(|c| !c.is_whitespace())
            .map(AminoAcid::from_letter)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Sequence { residues })
    }

    /// Number of residues.
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }

    /// Residues as a slice.
    pub fn residues(&self) -> &[AminoAcid] {
        &self.residues
    }

    /// Residue at `pos`. Panics if out of bounds.
    pub fn at(&self, pos: usize) -> AminoAcid {
        self.residues[pos]
    }

    /// Return a copy with `pos` substituted by `aa`.
    #[cfg(test)]
    pub(crate) fn with_substitution(&self, pos: usize, aa: AminoAcid) -> Sequence {
        let mut r = self.residues.clone();
        r[pos] = aa;
        Sequence { residues: r }
    }

    /// Set `pos` to `aa` in place.
    pub fn set(&mut self, pos: usize, aa: AminoAcid) {
        self.residues[pos] = aa;
    }

    /// Hamming distance to another sequence of the same length.
    /// Panics on length mismatch — comparing unrelated designs is a bug.
    pub fn hamming(&self, other: &Sequence) -> usize {
        assert_eq!(
            self.len(),
            other.len(),
            "hamming distance requires equal lengths"
        );
        self.residues
            .iter()
            .zip(&other.residues)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// One-letter string form.
    pub fn to_letters(&self) -> String {
        self.residues.iter().map(|a| a.letter()).collect()
    }

    /// A stable 64-bit content hash (FNV-1a over residue indices), used for
    /// deduplicating designs and deriving per-sequence RNG streams.
    pub fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for aa in &self.residues {
            h ^= aa.index() as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

impl fmt::Display for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_letters())
    }
}

/// A named chain: a sequence plus its identifier and designability flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// Chain identifier within the complex.
    pub id: ChainId,
    /// The chain's residues.
    pub sequence: Sequence,
    /// Whether design tools may mutate this chain (the target peptide is
    /// fixed; the receptor is designable).
    pub designable: bool,
}

impl Chain {
    /// A designable chain.
    pub(crate) fn designable(id: char, sequence: Sequence) -> Self {
        Chain {
            id: ChainId(id),
            sequence,
            designable: true,
        }
    }

    /// A fixed (non-designable) chain, e.g. the target peptide.
    pub(crate) fn fixed(id: char, sequence: Sequence) -> Self {
        Chain {
            id: ChainId(id),
            sequence,
            designable: false,
        }
    }

    /// Number of residues in the chain.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// Whether the chain has no residues.
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        let s = Sequence::parse("ACDEFGHIKLMNPQRSTVWY").unwrap();
        assert_eq!(s.len(), 20);
        assert_eq!(s.to_letters(), "ACDEFGHIKLMNPQRSTVWY");
    }

    #[test]
    fn parse_skips_whitespace_rejects_unknown() {
        let s = Sequence::parse("AC DE\nFG").unwrap();
        assert_eq!(s.to_letters(), "ACDEFG");
        assert!(Sequence::parse("ACX").is_err());
    }

    #[test]
    fn substitution_changes_exactly_one_position() {
        let s = Sequence::parse("AAAA").unwrap();
        let t = s.with_substitution(2, AminoAcid::Trp);
        assert_eq!(t.to_letters(), "AAWA");
        assert_eq!(s.hamming(&t), 1);
    }

    #[test]
    fn hamming_of_self_is_zero() {
        let s = Sequence::parse("MKVLA").unwrap();
        assert_eq!(s.hamming(&s), 0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn hamming_length_mismatch_panics() {
        let a = Sequence::parse("AA").unwrap();
        let b = Sequence::parse("AAA").unwrap();
        let _ = a.hamming(&b);
    }

    #[test]
    fn content_hash_distinguishes_sequences() {
        let a = Sequence::parse("ACDEF").unwrap();
        let b = Sequence::parse("ACDEG").unwrap();
        assert_ne!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash(), a.clone().content_hash());
    }

    #[test]
    fn chains_carry_designability() {
        let pep = Chain::fixed('B', Sequence::parse("EPEA").unwrap());
        let rec = Chain::designable('A', Sequence::parse("MKV").unwrap());
        assert!(!pep.designable);
        assert!(rec.designable);
        assert_eq!(pep.id.to_string(), "B");
        assert_eq!(pep.len(), 4);
    }
}
