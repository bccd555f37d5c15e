//! Interface (binding) component of the design landscape.
//!
//! PDZ domains recognize the C-terminal residues of their target peptide
//! through a binding groove. We model the groove as a deterministic set of
//! *interface positions* on the receptor, each in contact with one or two
//! peptide residues. A contact's score blends real physicochemistry
//! (hydrophobic packing, charge complementarity, size fit) with a seeded
//! pairwise term, so improving binding requires chemically sensible residue
//! choices *and* target-specific adaptation — mirroring how real PDZ
//! specificity arises.
//!
//! The binding score feeds the inter-chain pAE metric in the AlphaFold
//! surrogate; fold fitness (the NK component) feeds pLDDT/pTM. The two are
//! coupled through the total fitness but not identical, like the real
//! metrics.

use crate::amino::AminoAcid;
use crate::sequence::Sequence;

/// A receptor–peptide residue contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contact {
    /// Receptor position (0-based).
    pub receptor_pos: usize,
    /// Peptide position (0-based).
    pub peptide_pos: usize,
}

#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The binding-interface component for one design target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceModel {
    seed: u64,
    contacts: Vec<Contact>,
    receptor_len: usize,
    peptide_len: usize,
}

impl InterfaceModel {
    /// Fraction of receptor positions that form the binding groove.
    const GROOVE_FRACTION: f64 = 0.18;

    /// Build the interface for a receptor of `receptor_len` residues binding
    /// a peptide of `peptide_len` residues. Contact topology is derived
    /// deterministically from `seed`.
    pub fn new(seed: u64, receptor_len: usize, peptide_len: usize) -> Self {
        assert!(receptor_len >= 8, "receptor too short for a groove");
        assert!(peptide_len >= 1, "peptide must have residues");
        let n_groove = ((receptor_len as f64 * Self::GROOVE_FRACTION).round() as usize).max(4);
        // Choose groove positions by seeded hash ranking — deterministic and
        // roughly uniform over the receptor.
        let mut ranked: Vec<usize> = (0..receptor_len).collect();
        ranked.sort_by_key(|&p| mix(seed ^ (p as u64 + 0x1234)));
        let mut groove: Vec<usize> = ranked.into_iter().take(n_groove).collect();
        groove.sort_unstable();
        // Each groove position contacts one peptide residue, biased toward
        // the peptide C-terminus (how PDZ domains actually read peptides).
        let contacts = groove
            .iter()
            .enumerate()
            .map(|(i, &rp)| {
                let h = mix(seed ^ ((i as u64) << 32) ^ rp as u64);
                // Bias: square the uniform draw toward 1 then map to index.
                let u = unit(h);
                let biased = 1.0 - (1.0 - u) * (1.0 - u);
                let pp = ((biased * peptide_len as f64) as usize).min(peptide_len - 1);
                Contact {
                    receptor_pos: rp,
                    peptide_pos: pp,
                }
            })
            .collect();
        InterfaceModel {
            seed,
            contacts,
            receptor_len,
            peptide_len,
        }
    }

    /// Receptor positions that belong to the binding groove.
    pub fn groove_positions(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.contacts.iter().map(|c| c.receptor_pos).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Score one receptor/peptide residue pair in `[0, 1]`.
    ///
    /// 55% physicochemistry, 45% seeded target-specific preference. The
    /// chemistry term rewards hydrophobic packing of hydrophobic peptide
    /// residues, charge complementarity, and avoiding size clashes.
    fn pair_score(&self, contact: Contact, receptor: AminoAcid, peptide: AminoAcid) -> f64 {
        let chem = {
            // Hydrophobic match: both hydrophobic is good; burying a charge
            // against a hydrophobe is bad.
            let hp = 1.0 - (receptor.hydropathy() - peptide.hydropathy()).abs() / 9.0;
            // Opposite charges attract, like charges repel.
            let q = receptor.charge() * peptide.charge();
            let electro = 0.5 - 0.5 * q; // q=-1 → 1.0 ; q=+1 → 0.0 ; neutral → 0.5
                                         // Size fit: the groove likes combined volumes near ~300 Å³.
            let v = receptor.volume() + peptide.volume();
            let size = 1.0 - ((v - 300.0).abs() / 250.0).min(1.0);
            (0.45 * hp + 0.25 * electro + 0.30 * size).clamp(0.0, 1.0)
        };
        let specific = unit(mix(self.seed
            ^ ((contact.receptor_pos as u64) << 40)
            ^ ((contact.peptide_pos as u64) << 20)
            ^ ((receptor.index() as u64) << 8)
            ^ peptide.index() as u64));
        0.55 * chem + 0.45 * specific
    }

    /// Mean contact score of the full interface — the raw binding fitness in
    /// `[0, 1]`.
    pub fn raw_binding(&self, receptor: &Sequence, peptide: &Sequence) -> f64 {
        assert_eq!(
            receptor.len(),
            self.receptor_len,
            "receptor length mismatch"
        );
        assert_eq!(peptide.len(), self.peptide_len, "peptide length mismatch");
        let mut total = 0.0;
        for &c in &self.contacts {
            total += self.pair_score(c, receptor.at(c.receptor_pos), peptide.at(c.peptide_pos));
        }
        total / self.contacts.len() as f64
    }

    /// Sum of contact scores touching receptor position `pos` if it held
    /// `candidate` — the local term the MPNN surrogate uses, a constant of
    /// the target that [`super::DesignLandscape::new`] tables once per
    /// groove position. Zero when `pos` is not in the groove.
    pub fn local_sum(&self, pos: usize, candidate: AminoAcid, peptide: &Sequence) -> f64 {
        self.contacts
            .iter()
            .filter(|c| c.receptor_pos == pos)
            .map(|&c| self.pair_score(c, candidate, peptide.at(c.peptide_pos)))
            .sum()
    }

    /// Number of contacts.
    pub fn num_contacts(&self) -> usize {
        self.contacts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::Sequence;

    fn pep() -> Sequence {
        Sequence::parse("EGYQDYEPEA").unwrap() // α-synuclein C-terminal 10-mer
    }

    fn receptor(n: usize) -> Sequence {
        use crate::amino::ALL;
        Sequence::new((0..n).map(|i| ALL[(i * 3) % 20]).collect())
    }

    #[test]
    fn groove_size_scales_with_receptor() {
        let m = InterfaceModel::new(1, 90, 10);
        let g = m.groove_positions();
        assert!((12..=22).contains(&g.len()), "groove size {}", g.len());
        assert!(g.iter().all(|&p| p < 90));
    }

    #[test]
    fn topology_is_deterministic_per_seed() {
        let a = InterfaceModel::new(42, 90, 10);
        let b = InterfaceModel::new(42, 90, 10);
        assert_eq!(a.contacts, b.contacts);
        let c = InterfaceModel::new(43, 90, 10);
        assert_ne!(a.contacts, c.contacts);
    }

    #[test]
    fn binding_in_unit_interval() {
        let m = InterfaceModel::new(5, 90, 10);
        let b = m.raw_binding(&receptor(90), &pep());
        assert!((0.0..=1.0).contains(&b), "binding {b}");
    }

    #[test]
    fn local_sum_predicts_single_mutation_delta() {
        let m = InterfaceModel::new(9, 60, 10);
        let r = receptor(60);
        let p = pep();
        let pos = m.groove_positions()[0];
        let cand = crate::amino::AminoAcid::Trp;
        let predicted = m.raw_binding(&r, &p)
            + (m.local_sum(pos, cand, &p) - m.local_sum(pos, r.at(pos), &p))
                / m.num_contacts() as f64;
        let actual = m.raw_binding(&r.with_substitution(pos, cand), &p);
        assert!((predicted - actual).abs() < 1e-12);
    }

    #[test]
    fn non_groove_positions_do_not_affect_binding() {
        let m = InterfaceModel::new(9, 60, 10);
        let groove = m.groove_positions();
        let r = receptor(60);
        let p = pep();
        let outside = (0..60).find(|x| !groove.contains(x)).unwrap();
        let before = m.raw_binding(&r, &p);
        let after = m.raw_binding(
            &r.with_substitution(outside, crate::amino::AminoAcid::Trp),
            &p,
        );
        assert_eq!(before, after);
        assert_eq!(m.local_sum(outside, crate::amino::AminoAcid::Trp, &p), 0.0);
    }

    #[test]
    fn charge_complementarity_scores_higher() {
        let m = InterfaceModel::new(3, 60, 10);
        let c = m.contacts[0];
        // Peptide Glu (negative): receptor Arg (positive) must out-score Asp
        // (negative) on the chemistry component. Seeded term could offset it
        // for one contact, so average over all contacts.
        let (mut salt, mut clash) = (0.0, 0.0);
        for &c in &m.contacts {
            salt += m.pair_score(c, AminoAcid::Arg, AminoAcid::Glu);
            clash += m.pair_score(c, AminoAcid::Asp, AminoAcid::Glu);
        }
        assert!(
            salt > clash,
            "salt-bridge mean {salt} must beat charge-clash mean {clash}"
        );
        let _ = c;
    }

    #[test]
    #[should_panic(expected = "receptor length mismatch")]
    fn wrong_receptor_length_panics() {
        let m = InterfaceModel::new(1, 90, 10);
        let _ = m.raw_binding(&receptor(50), &pep());
    }
}
