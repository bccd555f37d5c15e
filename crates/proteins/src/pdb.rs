//! Minimal PDB writer (Cα-only) for exporting predicted models.
//!
//! The paper's pipelines pass PDB files between ProteinMPNN and AlphaFold.
//! We emit standards-conformant `ATOM` records for the Cα trace of a
//! [`Structure`] (plus `TER`/`END`), so the examples can write designs that
//! external viewers open.

use crate::structure::Structure;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amino::ALL;
    use crate::sequence::{Chain, Sequence};
    use crate::structure::Complex;
    use impress_sim::{props, SimRng};

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

    /// The residue-name and chain-id columns, read back in file order,
    /// spell the structure's chains.
    #[test]
    fn round_trip_preserves_sequences_and_chains() {
        let s = structure();
        let text = write_pdb(&s);
        let read: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("ATOM"))
            .map(|l| &l[17..22])
            .collect();
        let written: Vec<String> = s
            .complex
            .chains()
            .iter()
            .flat_map(|c| {
                let id = c.id.0;
                c.sequence
                    .residues()
                    .iter()
                    .map(move |aa| format!("{} {id}", aa.three_letter()))
            })
            .collect();
        assert_eq!(read, written);
    }

    /// The coordinate columns, read back, are the Cα trace to 3 dp.
    #[test]
    fn round_trip_coordinates_survive_to_3dp() {
        let s = structure();
        let text = write_pdb(&s);
        let atoms = s.ca_trace().into_iter().flat_map(|(_, atoms)| atoms);
        let lines = text.lines().filter(|l| l.starts_with("ATOM"));
        for (l, atom) in lines.zip(atoms) {
            let column = |at: usize| l[at..at + 8].trim().parse::<f64>().unwrap();
            assert!((column(30) - atom.x).abs() < 5e-4);
            assert!((column(38) - atom.y).abs() < 5e-4);
            assert!((column(46) - atom.z).abs() < 5e-4);
        }
    }

    /// A random sequence with length in `[min_len, max_len]`.
    fn arb_sequence(rng: &mut SimRng, min_len: usize, max_len: usize) -> Sequence {
        let len = min_len + rng.below(max_len - min_len + 1);
        Sequence::new((0..len).map(|_| ALL[rng.below(20)]).collect())
    }

    props! {
        /// PDB round trip preserves chains, sequences and atom counts: the
        /// residue-name and chain-id columns spell the complex.
        fn pdb_round_trips(rng) {
            let receptor = arb_sequence(rng, 8, 59);
            let peptide = arb_sequence(rng, 2, 11);
            let complex = Complex::new(
                "PROP",
                Chain::designable('A', receptor.clone()),
                Chain::fixed('B', peptide.clone()),
            );
            let text = write_pdb(&Structure::starting(complex, 0.5));
            let read: Vec<&str> = text
                .lines()
                .filter(|l| l.starts_with("ATOM"))
                .map(|l| &l[17..22])
                .collect();
            let written: Vec<String> = [('A', &receptor), ('B', &peptide)]
                .into_iter()
                .flat_map(|(id, seq)| {
                    let names = seq.residues().iter().map(|aa| aa.three_letter());
                    names.map(move |name| format!("{name} {id}"))
                })
                .collect();
            assert_eq!(read, written);
        }
    }
}
