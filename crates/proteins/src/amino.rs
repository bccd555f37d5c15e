//! The twenty proteinogenic amino acids and their coarse physicochemical
//! properties.
//!
//! Properties (Kyte–Doolittle hydropathy, net charge at pH 7, side-chain
//! volume class) feed the interface-energy component of the design landscape
//! so that "good" designs correspond to chemically plausible interfaces
//! (hydrophobic packing, salt bridges) rather than arbitrary lookup noise.

use impress_json::json_enum;
use std::fmt;

/// One of the twenty standard amino acids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum AminoAcid {
    Ala,
    Arg,
    Asn,
    Asp,
    Cys,
    Gln,
    Glu,
    Gly,
    His,
    Ile,
    Leu,
    Lys,
    Met,
    Phe,
    Pro,
    Ser,
    Thr,
    Trp,
    Tyr,
    Val,
}
json_enum!(AminoAcid {
    Ala,
    Arg,
    Asn,
    Asp,
    Cys,
    Gln,
    Glu,
    Gly,
    His,
    Ile,
    Leu,
    Lys,
    Met,
    Phe,
    Pro,
    Ser,
    Thr,
    Trp,
    Tyr,
    Val
});

/// Error returned when parsing an unknown residue letter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownResidue(pub char);

impl fmt::Display for UnknownResidue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown residue letter {:?}", self.0)
    }
}

impl std::error::Error for UnknownResidue {}

/// All twenty amino acids, in the canonical (alphabetical three-letter) order
/// used for indexing lookup tables.
pub const ALL: [AminoAcid; 20] = [
    AminoAcid::Ala,
    AminoAcid::Arg,
    AminoAcid::Asn,
    AminoAcid::Asp,
    AminoAcid::Cys,
    AminoAcid::Gln,
    AminoAcid::Glu,
    AminoAcid::Gly,
    AminoAcid::His,
    AminoAcid::Ile,
    AminoAcid::Leu,
    AminoAcid::Lys,
    AminoAcid::Met,
    AminoAcid::Phe,
    AminoAcid::Pro,
    AminoAcid::Ser,
    AminoAcid::Thr,
    AminoAcid::Trp,
    AminoAcid::Tyr,
    AminoAcid::Val,
];

impl AminoAcid {
    /// Index of this residue in [`ALL`], stable across versions; used as a
    /// key into landscape lookup tables.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Residue at position `idx` of [`ALL`]. Panics if `idx >= 20`.
    #[inline]
    pub fn from_index(idx: usize) -> AminoAcid {
        ALL[idx]
    }

    /// One-letter IUPAC code.
    pub fn letter(self) -> char {
        match self {
            AminoAcid::Ala => 'A',
            AminoAcid::Arg => 'R',
            AminoAcid::Asn => 'N',
            AminoAcid::Asp => 'D',
            AminoAcid::Cys => 'C',
            AminoAcid::Gln => 'Q',
            AminoAcid::Glu => 'E',
            AminoAcid::Gly => 'G',
            AminoAcid::His => 'H',
            AminoAcid::Ile => 'I',
            AminoAcid::Leu => 'L',
            AminoAcid::Lys => 'K',
            AminoAcid::Met => 'M',
            AminoAcid::Phe => 'F',
            AminoAcid::Pro => 'P',
            AminoAcid::Ser => 'S',
            AminoAcid::Thr => 'T',
            AminoAcid::Trp => 'W',
            AminoAcid::Tyr => 'Y',
            AminoAcid::Val => 'V',
        }
    }

    /// Three-letter code (PDB residue name).
    pub fn three_letter(self) -> &'static str {
        match self {
            AminoAcid::Ala => "ALA",
            AminoAcid::Arg => "ARG",
            AminoAcid::Asn => "ASN",
            AminoAcid::Asp => "ASP",
            AminoAcid::Cys => "CYS",
            AminoAcid::Gln => "GLN",
            AminoAcid::Glu => "GLU",
            AminoAcid::Gly => "GLY",
            AminoAcid::His => "HIS",
            AminoAcid::Ile => "ILE",
            AminoAcid::Leu => "LEU",
            AminoAcid::Lys => "LYS",
            AminoAcid::Met => "MET",
            AminoAcid::Phe => "PHE",
            AminoAcid::Pro => "PRO",
            AminoAcid::Ser => "SER",
            AminoAcid::Thr => "THR",
            AminoAcid::Trp => "TRP",
            AminoAcid::Tyr => "TYR",
            AminoAcid::Val => "VAL",
        }
    }

    /// Parse a one-letter code (case-insensitive).
    pub fn from_letter(c: char) -> Result<AminoAcid, UnknownResidue> {
        match c.to_ascii_uppercase() {
            'A' => Ok(AminoAcid::Ala),
            'R' => Ok(AminoAcid::Arg),
            'N' => Ok(AminoAcid::Asn),
            'D' => Ok(AminoAcid::Asp),
            'C' => Ok(AminoAcid::Cys),
            'Q' => Ok(AminoAcid::Gln),
            'E' => Ok(AminoAcid::Glu),
            'G' => Ok(AminoAcid::Gly),
            'H' => Ok(AminoAcid::His),
            'I' => Ok(AminoAcid::Ile),
            'L' => Ok(AminoAcid::Leu),
            'K' => Ok(AminoAcid::Lys),
            'M' => Ok(AminoAcid::Met),
            'F' => Ok(AminoAcid::Phe),
            'P' => Ok(AminoAcid::Pro),
            'S' => Ok(AminoAcid::Ser),
            'T' => Ok(AminoAcid::Thr),
            'W' => Ok(AminoAcid::Trp),
            'Y' => Ok(AminoAcid::Tyr),
            'V' => Ok(AminoAcid::Val),
            other => Err(UnknownResidue(other)),
        }
    }

    /// Kyte–Doolittle hydropathy index (positive = hydrophobic).
    pub fn hydropathy(self) -> f64 {
        match self {
            AminoAcid::Ile => 4.5,
            AminoAcid::Val => 4.2,
            AminoAcid::Leu => 3.8,
            AminoAcid::Phe => 2.8,
            AminoAcid::Cys => 2.5,
            AminoAcid::Met => 1.9,
            AminoAcid::Ala => 1.8,
            AminoAcid::Gly => -0.4,
            AminoAcid::Thr => -0.7,
            AminoAcid::Ser => -0.8,
            AminoAcid::Trp => -0.9,
            AminoAcid::Tyr => -1.3,
            AminoAcid::Pro => -1.6,
            AminoAcid::His => -3.2,
            AminoAcid::Glu => -3.5,
            AminoAcid::Gln => -3.5,
            AminoAcid::Asp => -3.5,
            AminoAcid::Asn => -3.5,
            AminoAcid::Lys => -3.9,
            AminoAcid::Arg => -4.5,
        }
    }

    /// Net side-chain charge at physiological pH.
    pub fn charge(self) -> f64 {
        match self {
            AminoAcid::Arg | AminoAcid::Lys => 1.0,
            AminoAcid::His => 0.1,
            AminoAcid::Asp | AminoAcid::Glu => -1.0,
            _ => 0.0,
        }
    }

    /// Side-chain volume in cubic ångströms (Zamyatnin 1972, rounded).
    pub fn volume(self) -> f64 {
        match self {
            AminoAcid::Gly => 60.1,
            AminoAcid::Ala => 88.6,
            AminoAcid::Ser => 89.0,
            AminoAcid::Cys => 108.5,
            AminoAcid::Asp => 111.1,
            AminoAcid::Pro => 112.7,
            AminoAcid::Asn => 114.1,
            AminoAcid::Thr => 116.1,
            AminoAcid::Glu => 138.4,
            AminoAcid::Val => 140.0,
            AminoAcid::Gln => 143.8,
            AminoAcid::His => 153.2,
            AminoAcid::Met => 162.9,
            AminoAcid::Ile => 166.7,
            AminoAcid::Leu => 166.7,
            AminoAcid::Lys => 168.6,
            AminoAcid::Arg => 173.4,
            AminoAcid::Phe => 189.9,
            AminoAcid::Tyr => 193.6,
            AminoAcid::Trp => 227.8,
        }
    }
}

impl fmt::Display for AminoAcid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letters_round_trip() {
        for &aa in &ALL {
            assert_eq!(AminoAcid::from_letter(aa.letter()).unwrap(), aa);
            assert_eq!(
                AminoAcid::from_letter(aa.letter().to_ascii_lowercase()).unwrap(),
                aa
            );
        }
    }

    #[test]
    fn indices_round_trip_and_are_dense() {
        for (i, &aa) in ALL.iter().enumerate() {
            assert_eq!(aa.index(), i);
            assert_eq!(AminoAcid::from_index(i), aa);
        }
    }

    #[test]
    fn unknown_letters_error() {
        assert_eq!(AminoAcid::from_letter('X'), Err(UnknownResidue('X')));
        assert_eq!(AminoAcid::from_letter('Z'), Err(UnknownResidue('Z')));
        assert!(AminoAcid::from_letter('B').is_err());
    }

    #[test]
    fn three_letter_codes_are_unique() {
        let mut codes: Vec<_> = ALL.iter().map(|a| a.three_letter()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 20);
    }

    #[test]
    fn charges_are_physiological() {
        assert_eq!(AminoAcid::Lys.charge(), 1.0);
        assert_eq!(AminoAcid::Asp.charge(), -1.0);
        assert_eq!(AminoAcid::Gly.charge(), 0.0);
    }

    #[test]
    fn hydropathy_extremes() {
        let most = ALL.iter().copied().fold(AminoAcid::Ala, |best, aa| {
            if aa.hydropathy() > best.hydropathy() {
                aa
            } else {
                best
            }
        });
        assert_eq!(most, AminoAcid::Ile);
        let least = ALL.iter().copied().fold(AminoAcid::Ala, |worst, aa| {
            if aa.hydropathy() < worst.hydropathy() {
                aa
            } else {
                worst
            }
        });
        assert_eq!(least, AminoAcid::Arg);
    }

    #[test]
    fn glycine_is_smallest_tryptophan_largest() {
        for &aa in &ALL {
            assert!(aa.volume() >= AminoAcid::Gly.volume());
            assert!(aa.volume() <= AminoAcid::Trp.volume());
        }
    }
}
