//! FASTA writing.
//!
//! Stage 3 of the IMPRESS pipeline "compiles the highest-ranking sequences
//! into a fasta file for input into downstream tasks". The writer emits that
//! artifact so examples can export designs for external tools.
//!
//! Multi-chain complexes use the AlphaFold-Multimer convention of joining
//! chains with `':'` in a single record.

use crate::sequence::Sequence;

/// One FASTA record: a header and one or more chain sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaRecord {
    /// Header line content (without the leading `>`).
    pub header: String,
    /// The chains, joined by `':'` on write.
    pub chains: Vec<Sequence>,
}

/// Serialize records to FASTA text (60-column wrapping, chains joined by ':').
pub fn write_fasta(records: &[FastaRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        out.push('>');
        out.push_str(&rec.header);
        out.push('\n');
        let joined: String = rec
            .chains
            .iter()
            .map(|c| c.to_letters())
            .collect::<Vec<_>>()
            .join(":");
        for chunk in joined.as_bytes().chunks(60) {
            out.push_str(std::str::from_utf8(chunk).expect("ascii"));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(header: &str, chains: &[&str]) -> FastaRecord {
        FastaRecord {
            header: header.to_string(),
            chains: chains.iter().map(|c| Sequence::parse(c).unwrap()).collect(),
        }
    }

    /// The sequence lines of a one-record text, joined back.
    fn body(text: &str) -> String {
        text.lines().skip(1).collect()
    }

    #[test]
    fn round_trip_single_chain() {
        let text = write_fasta(&[rec("design_1 cycle=2", &["MKVLAWYQ"])]);
        assert!(text.starts_with(">design_1 cycle=2\n"));
        assert_eq!(body(&text), "MKVLAWYQ");
    }

    #[test]
    fn round_trip_multimer() {
        let text = write_fasta(&[rec("complex", &["MKVLAWYQ", "EPEA"])]);
        assert_eq!(body(&text), "MKVLAWYQ:EPEA");
    }

    #[test]
    fn long_sequences_wrap_at_60_and_reparse() {
        let long: String = "ACDEFGHIKLMNPQRSTVWY".repeat(10); // 200 aa
        let text = write_fasta(&[rec("long", &[long.as_str()])]);
        let widths: Vec<usize> = text.lines().skip(1).map(str::len).collect();
        assert_eq!(widths, [60, 60, 60, 20]);
        assert_eq!(body(&text), long);
    }
}
