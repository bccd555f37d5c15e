//! Property-based tests for the protein substrate, on the in-repo
//! [`props!`](impress_sim::props) harness.

use impress_proteins::amino::ALL;
use impress_proteins::fasta::{write_fasta, FastaRecord};
use impress_proteins::landscape::DesignLandscape;
use impress_proteins::profile::SequenceProfile;
use impress_proteins::sequence::Sequence;
use impress_sim::{props, SimRng};

/// A random sequence with length in `[min_len, max_len]`.
fn arb_sequence(rng: &mut SimRng, min_len: usize, max_len: usize) -> Sequence {
    let len = min_len + rng.below(max_len - min_len + 1);
    Sequence::new((0..len).map(|_| ALL[rng.below(20)]).collect())
}

/// Up to `max_subs` random (position, residue) substitutions applied to `a`.
fn substituted(rng: &mut SimRng, a: &Sequence, max_subs: usize) -> Sequence {
    let mut b = a.clone();
    for _ in 0..rng.below(max_subs + 1) {
        let pos = rng.below(a.len());
        b.set(pos, ALL[rng.below(20)]);
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

    /// FASTA round trip for arbitrary multi-record, multi-chain content:
    /// each record's header and chains read back from the text.
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
        let read: Vec<(&str, String)> = text
            .split('>')
            .skip(1)
            .map(|record| {
                let (header, body) = record.split_once('\n').expect("a header line");
                (header, body.lines().collect())
            })
            .collect();
        let written: Vec<(&str, String)> = records
            .iter()
            .map(|r| {
                let letters: Vec<String> = r.chains.iter().map(Sequence::to_letters).collect();
                (r.header.as_str(), letters.join(":"))
            })
            .collect();
        assert_eq!(read, written);
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

    /// Profile invariant: entropy within [0, log2 20] at every position.
    fn profile_invariants(rng) {
        let n_seqs = 1 + rng.below(11);
        let seqs: Vec<Sequence> = (0..n_seqs)
            .map(|_| arb_sequence(rng, 12, 12))
            .collect();
        let p = SequenceProfile::from_sequences(&seqs);
        for pos in 0..p.len() {
            let e = p.entropy(pos);
            assert!((0.0..=20.0f64.log2() + 1e-9).contains(&e));
        }
    }
}
