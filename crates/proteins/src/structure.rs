//! Protein structures and complexes.
//!
//! A [`Complex`] is the designable system: a receptor chain (the PDZ domain)
//! plus a fixed target peptide chain (the α-synuclein C-terminus). A
//! [`Structure`] is one predicted 3-D model of a complex: its sequences, a
//! latent *backbone quality* in `[0, 1]`, pseudo Cα coordinates for PDB
//! output, and provenance (which design cycle produced it).
//!
//! Backbone quality is the state variable the design loop threads between
//! tools: AlphaFold's confidence in a model sets it, and ProteinMPNN
//! conditions its next proposals on it (a better backbone yields
//! better-focused sequence proposals, which is what makes iterative
//! refinement climb).

use crate::sequence::{Chain, ChainId, Sequence};

/// A Cα position in ångströms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CaAtom {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
    /// z coordinate.
    pub z: f64,
}

/// The designable system: receptor + fixed peptide.
#[derive(Debug, Clone, PartialEq)]
pub struct Complex {
    /// Human-readable target name (e.g. `"NHERF3"` or a synthetic PDB id).
    pub name: String,
    /// The designable receptor chain.
    pub receptor: Chain,
    /// The fixed target peptide chain.
    pub peptide: Chain,
}

impl Complex {
    /// Build a complex from a designable receptor and fixed peptide.
    pub(crate) fn new(name: impl Into<String>, receptor: Chain, peptide: Chain) -> Self {
        let receptor_designable = receptor.designable;
        let c = Complex {
            name: name.into(),
            receptor,
            peptide,
        };
        assert!(
            receptor_designable,
            "receptor chain of {} must be designable",
            c.name
        );
        assert!(
            !c.peptide.designable,
            "peptide chain of {} must be fixed",
            c.name
        );
        c
    }

    /// Replace the receptor sequence (lengths must match — design does not
    /// insert or delete residues).
    pub fn with_receptor_sequence(&self, seq: Sequence) -> Complex {
        assert_eq!(
            seq.len(),
            self.receptor.len(),
            "receptor redesign must preserve length"
        );
        let mut c = self.clone();
        c.receptor.sequence = seq;
        c
    }

    /// The chains in PDB order (receptor first).
    pub(crate) fn chains(&self) -> [&Chain; 2] {
        [&self.receptor, &self.peptide]
    }

    /// Find a chain by id.
    pub(crate) fn chain(&self, id: ChainId) -> Option<&Chain> {
        self.chains().into_iter().find(|c| c.id == id)
    }
}

/// One structural model of a complex.
#[derive(Debug, Clone, PartialEq)]
pub struct Structure {
    /// The modelled complex (sequences as folded).
    pub complex: Complex,
    /// Latent model quality in `[0, 1]`; set from AlphaFold confidence.
    pub backbone_quality: f64,
    /// Design cycle that produced this model (0 = starting structure).
    pub iteration: u32,
}

impl Structure {
    /// A starting structure for a complex, with the given initial backbone
    /// quality (clamped to `[0, 1]`).
    pub(crate) fn starting(complex: Complex, backbone_quality: f64) -> Self {
        Structure {
            complex,
            backbone_quality: backbone_quality.clamp(0.0, 1.0),
            iteration: 0,
        }
    }

    /// A refined model produced at design cycle `iteration`.
    pub fn refined(complex: Complex, backbone_quality: f64, iteration: u32) -> Self {
        Structure {
            complex,
            backbone_quality: backbone_quality.clamp(0.0, 1.0),
            iteration,
        }
    }

    /// Deterministic pseudo Cα trace for PDB output: an ideal α-helical path
    /// for the receptor and an extended strand for the peptide, offset so the
    /// chains do not overlap. Purely presentational — design quality lives in
    /// the landscape, not in these coordinates.
    pub(crate) fn ca_trace(&self) -> Vec<(ChainId, Vec<CaAtom>)> {
        let helix = |n: usize, z_off: f64| -> Vec<CaAtom> {
            // Ideal α-helix: rise 1.5 Å per residue, 100° turn, radius 2.3 Å.
            (0..n)
                .map(|i| {
                    let theta = (i as f64) * 100.0_f64.to_radians();
                    CaAtom {
                        x: 2.3 * theta.cos(),
                        y: 2.3 * theta.sin(),
                        z: z_off + 1.5 * i as f64,
                    }
                })
                .collect()
        };
        let strand = |n: usize| -> Vec<CaAtom> {
            // Extended strand alongside the helix at ~8 Å (a contact distance).
            (0..n)
                .map(|i| CaAtom {
                    x: 8.0,
                    y: 0.0,
                    z: 3.4 * i as f64,
                })
                .collect()
        };
        vec![
            (
                self.complex.receptor.id,
                helix(self.complex.receptor.len(), 0.0),
            ),
            (self.complex.peptide.id, strand(self.complex.peptide.len())),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complex() -> Complex {
        Complex::new(
            "TEST",
            Chain::designable('A', Sequence::parse("MKVLAWYQ").unwrap()),
            Chain::fixed('B', Sequence::parse("EPEA").unwrap()),
        )
    }

    #[test]
    fn complex_accessors() {
        let c = complex();
        assert_eq!(c.chain(ChainId('A')).unwrap().len(), 8);
        assert_eq!(c.chain(ChainId('B')).unwrap().len(), 4);
        assert!(c.chain(ChainId('C')).is_none());
    }

    #[test]
    #[should_panic(expected = "must be fixed")]
    fn designable_peptide_rejected() {
        Complex::new(
            "BAD",
            Chain::designable('A', Sequence::parse("MK").unwrap()),
            Chain::designable('B', Sequence::parse("EP").unwrap()),
        );
    }

    #[test]
    fn receptor_redesign_preserves_length() {
        let c = complex();
        let redesigned = c.with_receptor_sequence(Sequence::parse("MKVLAWYR").unwrap());
        assert_eq!(redesigned.receptor.sequence.to_letters(), "MKVLAWYR");
        assert_eq!(redesigned.peptide, c.peptide);
    }

    #[test]
    #[should_panic(expected = "preserve length")]
    fn receptor_redesign_length_mismatch_panics() {
        let c = complex();
        let _ = c.with_receptor_sequence(Sequence::parse("MK").unwrap());
    }

    #[test]
    fn backbone_quality_is_clamped() {
        let s = Structure::starting(complex(), 1.7);
        assert_eq!(s.backbone_quality, 1.0);
        let s = Structure::starting(complex(), -0.3);
        assert_eq!(s.backbone_quality, 0.0);
        assert_eq!(s.iteration, 0);
    }

    #[test]
    fn ca_trace_covers_all_residues() {
        let s = Structure::starting(complex(), 0.5);
        let trace = s.ca_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].1.len(), 8);
        assert_eq!(trace[1].1.len(), 4);
        // consecutive helix residues ~ sensible Cα spacing
        let d01 = {
            let a = trace[0].1[0];
            let b = trace[0].1[1];
            ((a.x - b.x).powi(2) + (a.y - b.y).powi(2) + (a.z - b.z).powi(2)).sqrt()
        };
        assert!(d01 > 2.0 && d01 < 5.0, "Cα spacing {d01}");
    }
}
