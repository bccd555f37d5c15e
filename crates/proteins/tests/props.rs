//! Property-based tests for the protein substrate, on the in-repo
//! [`props!`](impress_sim::props) harness.

use impress_proteins::amino::{AminoAcid, ALL};
use impress_proteins::fasta::{parse_fasta, write_fasta, FastaRecord};
use impress_proteins::landscape::DesignLandscape;
use impress_proteins::pdb::{parse_pdb, write_pdb};
use impress_proteins::profile::SequenceProfile;
use impress_proteins::sequence::{Chain, Sequence};
use impress_proteins::structure::{Complex, Structure};
use impress_sim::{prop_assume, props, SimRng};

/// A random sequence with length in `[min_len, max_len]`.
fn arb_sequence(rng: &mut SimRng, min_len: usize, max_len: usize) -> Sequence {
    let len = min_len + rng.below(max_len - min_len + 1);
    Sequence::new(
        (0..len)
            .map(|_| AminoAcid::from_index(rng.below(20)))
            .collect(),
    )
}

/// Up to `max_subs` random (position, residue) substitutions applied to `a`.
fn substituted(rng: &mut SimRng, a: &Sequence, max_subs: usize) -> Sequence {
    let mut b = a.clone();
    for _ in 0..rng.below(max_subs + 1) {
        let pos = rng.below(a.len());
        b.set(pos, AminoAcid::from_index(rng.below(20)));
    }
    b
}

props! {
    /// Sequence ⇄ letters round trip for arbitrary sequences.
    fn sequence_letters_round_trip(rng) {
        let seq = arb_sequence(rng, 1, 199);
        let letters = seq.to_letters();
        assert_eq!(Sequence::parse(&letters).unwrap(), seq);
    }

    /// Hamming distance is a metric: identity, symmetry, triangle inequality.
    fn hamming_is_a_metric(rng) {
        let a = arb_sequence(rng, 10, 59);
        let b = substituted(rng, &a, 9);
        let c = substituted(rng, &a, 9);
        assert_eq!(a.hamming(&a), 0);
        assert_eq!(a.hamming(&b), b.hamming(&a));
        assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
    }

    /// FASTA round trip for arbitrary multi-record, multi-chain content.
    fn fasta_round_trips(rng) {
        let n_records = 1 + rng.below(4);
        let records: Vec<FastaRecord> = (0..n_records)
            .map(|i| {
                let n_chains = 1 + rng.below(2);
                let chains = (0..n_chains)
                    .map(|_| arb_sequence(rng, 1, 79))
                    .collect();
                let tag = rng.below(1000);
                FastaRecord {
                    header: format!("design_{i} tag={tag}"),
                    chains,
                }
            })
            .collect();
        let text = write_fasta(&records);
        assert_eq!(parse_fasta(&text).unwrap(), records);
    }

    /// PDB round trip preserves chains, sequences and atom counts.
    fn pdb_round_trips(rng) {
        let receptor = arb_sequence(rng, 8, 59);
        let peptide = arb_sequence(rng, 2, 11);
        let complex = Complex::new(
            "PROP",
            Chain::designable('A', receptor.clone()),
            Chain::fixed('B', peptide.clone()),
        );
        let structure = Structure::starting(complex, 0.5);
        let parsed = parse_pdb(&write_pdb(&structure)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(&parsed[0].sequence, &receptor);
        assert_eq!(&parsed[1].sequence, &peptide);
        assert_eq!(parsed[0].atoms.len(), receptor.len());
    }

    /// Landscape fitness is a pure function with all outputs in range.
    fn landscape_fitness_pure_and_bounded(rng) {
        let seed = rng.next_u64();
        let seq = arb_sequence(rng, 20, 20);
        let l = DesignLandscape::new(seed, 20, Sequence::parse("EPEA").unwrap());
        let f1 = l.fitness(&seq);
        let f2 = l.fitness(&seq);
        assert_eq!(f1, f2);
        assert!((0.0..1.0).contains(&f1.raw_fold));
        assert!((0.0..=1.0).contains(&f1.raw_bind));
        assert!((0.0..=1.0).contains(&f1.quality));
        assert!((0.0..=1.0).contains(&f1.bind_quality));
        assert!((0.0..=1.0).contains(&f1.fold_quality));
    }

    /// Mutating outside the groove never changes binding fitness.
    fn non_groove_mutations_preserve_binding(rng) {
        let seed = rng.next_u64();
        let pos = rng.below(40);
        let aa = rng.below(20);
        let l = DesignLandscape::new(seed, 40, Sequence::parse("EPEA").unwrap());
        let mut seq_rng = SimRng::from_seed(seed ^ 1);
        let seq = l.random_receptor(&mut seq_rng);
        let groove = l.groove_positions();
        prop_assume!(!groove.contains(&pos));
        let mutated = seq.with_substitution(pos, AminoAcid::from_index(aa));
        assert_eq!(l.fitness(&seq).raw_bind, l.fitness(&mutated).raw_bind);
    }

    /// Profile invariants: frequencies sum to 1 per position, consensus
    /// frequency is maximal, entropy within [0, log2 20].
    fn profile_invariants(rng) {
        let n_seqs = 1 + rng.below(11);
        let seqs: Vec<Sequence> = (0..n_seqs)
            .map(|_| arb_sequence(rng, 12, 12))
            .collect();
        let p = SequenceProfile::from_sequences(&seqs);
        for pos in 0..p.len() {
            let total: f64 = ALL.iter().map(|&aa| p.frequency(pos, aa)).sum();
            assert!((total - 1.0).abs() < 1e-9);
            let cons = p.consensus_at(pos);
            for &aa in &ALL {
                assert!(p.frequency(pos, cons) >= p.frequency(pos, aa) - 1e-12);
            }
            let e = p.entropy(pos);
            assert!((0.0..=20.0f64.log2() + 1e-9).contains(&e));
        }
    }

    /// All 20 amino acids parse from both their own letter and lowercase.
    fn amino_parse_total(rng) {
        let aa = ALL[rng.below(20)];
        assert_eq!(AminoAcid::from_letter(aa.letter()).unwrap(), aa);
        assert_eq!(
            AminoAcid::from_letter(aa.letter().to_ascii_lowercase()).unwrap(),
            aa
        );
    }
}
