//! Minimal PDB writer/reader (Cα-only) for exporting predicted models.
//!
//! The paper's pipelines pass PDB files between ProteinMPNN and AlphaFold.
//! We emit standards-conformant `ATOM` records for the Cα trace of a
//! [`Structure`] (plus `TER`/`END`), and parse the same subset back, so the
//! examples can write designs that external viewers open.

use crate::amino::AminoAcid;
use crate::sequence::{ChainId, Sequence};
use crate::structure::{CaAtom, Structure};
use std::fmt;

/// Errors from PDB parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PdbError {
    /// An `ATOM` record was shorter than the fixed-column format requires.
    ShortRecord(usize),
    /// Unknown residue name in an `ATOM` record.
    BadResidue(String),
    /// A coordinate field failed to parse.
    BadCoordinate(String),
    /// The file contained no Cα atoms.
    Empty,
}

impl fmt::Display for PdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdbError::ShortRecord(n) => write!(f, "ATOM record too short ({n} cols)"),
            PdbError::BadResidue(r) => write!(f, "unknown residue name {r:?}"),
            PdbError::BadCoordinate(c) => write!(f, "bad coordinate field {c:?}"),
            PdbError::Empty => write!(f, "no CA atoms found"),
        }
    }
}

impl std::error::Error for PdbError {}

/// Write the Cα trace of a structure as PDB text.
pub fn write_pdb(structure: &Structure) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "REMARK   1 IMPRESS MODEL {} ITERATION {} QUALITY {:.4}\n",
        structure.complex.name, structure.iteration, structure.backbone_quality
    ));
    let mut serial = 1;
    for (chain_id, atoms) in structure.ca_trace() {
        let chain = structure
            .complex
            .chain(chain_id)
            .expect("trace chains come from the complex");
        for (i, atom) in atoms.iter().enumerate() {
            let res = chain.sequence.at(i);
            out.push_str(&format!(
                "ATOM  {serial:>5}  CA  {} {}{:>4}    {:8.3}{:8.3}{:8.3}  1.00  0.00           C\n",
                res.three_letter(),
                chain_id.0,
                i + 1,
                atom.x,
                atom.y,
                atom.z,
            ));
            serial += 1;
        }
        out.push_str(&format!("TER   {serial:>5}\n"));
        serial += 1;
    }
    out.push_str("END\n");
    out
}

/// A chain parsed back from PDB text.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedChain {
    /// The chain identifier.
    pub id: ChainId,
    /// The residues, in residue-number order as encountered.
    pub sequence: Sequence,
    /// The Cα coordinates.
    pub atoms: Vec<CaAtom>,
}

/// Parse Cα `ATOM` records from PDB text, grouped by chain in file order.
pub fn parse_pdb(text: &str) -> Result<Vec<ParsedChain>, PdbError> {
    let mut chains: Vec<ParsedChain> = Vec::new();
    for line in text.lines() {
        if !line.starts_with("ATOM") {
            continue;
        }
        if line.len() < 54 {
            return Err(PdbError::ShortRecord(line.len()));
        }
        let atom_name = line[12..16].trim();
        if atom_name != "CA" {
            continue;
        }
        let res_name = line[17..20].trim().to_string();
        let res = three_letter_to_aa(&res_name).ok_or(PdbError::BadResidue(res_name))?;
        let chain_id = ChainId(line.as_bytes()[21] as char);
        let parse_coord = |s: &str| -> Result<f64, PdbError> {
            s.trim()
                .parse::<f64>()
                .map_err(|_| PdbError::BadCoordinate(s.trim().to_string()))
        };
        let atom = CaAtom {
            x: parse_coord(&line[30..38])?,
            y: parse_coord(&line[38..46])?,
            z: parse_coord(&line[46..54])?,
        };
        match chains.last_mut() {
            Some(c) if c.id == chain_id => {
                c.sequence = {
                    let mut r = c.sequence.residues().to_vec();
                    r.push(res);
                    Sequence::new(r)
                };
                c.atoms.push(atom);
            }
            _ => chains.push(ParsedChain {
                id: chain_id,
                sequence: Sequence::new(vec![res]),
                atoms: vec![atom],
            }),
        }
    }
    if chains.is_empty() {
        return Err(PdbError::Empty);
    }
    Ok(chains)
}

fn three_letter_to_aa(name: &str) -> Option<AminoAcid> {
    crate::amino::ALL
        .iter()
        .copied()
        .find(|aa| aa.three_letter() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::Chain;
    use crate::structure::Complex;

    fn structure() -> Structure {
        Structure::starting(
            Complex::new(
                "TESTPDZ",
                Chain::designable('A', Sequence::parse("MKVLAWYQDE").unwrap()),
                Chain::fixed('B', Sequence::parse("EPEA").unwrap()),
            ),
            0.4,
        )
    }

    #[test]
    fn write_emits_valid_fixed_columns() {
        let text = write_pdb(&structure());
        let atom_lines: Vec<_> = text.lines().filter(|l| l.starts_with("ATOM")).collect();
        assert_eq!(atom_lines.len(), 14); // 10 + 4 residues
        for l in &atom_lines {
            assert!(l.len() >= 54, "line too short: {l}");
            assert_eq!(&l[12..16].trim(), &"CA");
        }
        assert!(text.contains("TER"));
        assert!(text.trim_end().ends_with("END"));
    }

    #[test]
    fn round_trip_preserves_sequences_and_chains() {
        let s = structure();
        let parsed = parse_pdb(&write_pdb(&s)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].id, ChainId('A'));
        assert_eq!(parsed[0].sequence.to_letters(), "MKVLAWYQDE");
        assert_eq!(parsed[1].id, ChainId('B'));
        assert_eq!(parsed[1].sequence.to_letters(), "EPEA");
        assert_eq!(parsed[0].atoms.len(), 10);
    }

    #[test]
    fn round_trip_coordinates_survive_to_3dp() {
        let s = structure();
        let parsed = parse_pdb(&write_pdb(&s)).unwrap();
        let original = s.ca_trace();
        for (pc, (_, atoms)) in parsed.iter().zip(&original) {
            for (a, b) in pc.atoms.iter().zip(atoms) {
                assert!((a.x - b.x).abs() < 5e-4);
                assert!((a.y - b.y).abs() < 5e-4);
                assert!((a.z - b.z).abs() < 5e-4);
            }
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert_eq!(parse_pdb("REMARK only\n"), Err(PdbError::Empty));
        assert!(matches!(
            parse_pdb("ATOM      1  CA  XXX A   1      0.0     0.0     0.0"),
            Err(PdbError::ShortRecord(_)) | Err(PdbError::BadResidue(_))
        ));
    }

    #[test]
    fn non_ca_atoms_are_skipped() {
        let text = "\
ATOM      1  N   ALA A   1       0.000   0.000   0.000  1.00  0.00           N
ATOM      2  CA  ALA A   1       1.000   2.000   3.000  1.00  0.00           C
ATOM      3  CA  GLY B   1       4.000   5.000   6.000  1.00  0.00           C
";
        let parsed = parse_pdb(text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].sequence.to_letters(), "A");
        assert_eq!(parsed[1].sequence.to_letters(), "G");
        assert!((parsed[0].atoms[0].x - 1.0).abs() < 1e-9);
    }
}
