//! ProteinMPNN surrogate: backbone-conditioned sequence generation.
//!
//! Real ProteinMPNN autoregressively samples sequences whose local residue
//! choices fit the input backbone's geometry, and reports a log-likelihood
//! per sequence. The protocol consumes exactly two behaviours:
//!
//! 1. proposals are *locally sensible* — each mutated position prefers
//!    residues that fit their structural context, so proposals from a good
//!    backbone tend to improve the design;
//! 2. the log-likelihood *ranks* proposals informatively but imperfectly
//!    (ranking by ll is better than random, worse than oracle).
//!
//! The surrogate reproduces both against the hidden landscape: candidate
//! residues at mutated positions are Boltzmann-sampled from noisy local
//! scores, with noise that shrinks as backbone quality rises (a better model
//! in ⇒ better proposals out — the coupling that makes iterative design
//! work), and log-likelihoods are a noisy affine read of true fitness mapped
//! into ProteinMPNN's characteristic negative score range.
//!
//! # Draw order
//!
//! Every figure and table downstream is a function of the exact stream of
//! random draws, so the order is a contract (pinned by
//! `sample_draw_order_is_pinned`): each proposal runs on its own
//! `fork_idx("mpnn-proposal", i)` stream; per position, `fixed_positions`
//! short-circuits *before* `chance(p)`; a mutated position then draws twenty
//! `normal_with` in [`ALL`] order and one `uniform`; `score` draws a single
//! trailing `normal_with`. The scores themselves come from
//! [`DesignLandscape::local_scores`], whose every `f64` is produced by the
//! same operations in the same order as scoring one candidate at a time —
//! so a faster kernel changes no proposal.

use crate::amino::ALL;
use crate::landscape::DesignLandscape;
use crate::sequence::Sequence;
use crate::structure::Structure;
use impress_sim::SimRng;

/// Sampling configuration (mirrors the user-definable settings the paper
/// mentions for Stage 1: number of sequences, chains/positions to design).
#[derive(Debug, Clone, PartialEq)]
pub struct MpnnConfig {
    /// Number of sequences to generate per call (paper: 10).
    pub num_sequences: usize,
    /// Sampling temperature; higher = more diverse, noisier proposals.
    pub temperature: f64,
    /// Receptor positions that must not be mutated (e.g. catalytic residues
    /// in the paper's protease future-work protocol).
    pub fixed_positions: Vec<usize>,
}

impl Default for MpnnConfig {
    fn default() -> Self {
        MpnnConfig {
            num_sequences: 10,
            temperature: 1.0,
            fixed_positions: Vec::new(),
        }
    }
}

/// A generated sequence with its log-likelihood score.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredSequence {
    /// The proposed receptor sequence.
    pub sequence: Sequence,
    /// ProteinMPNN-style log-likelihood (more positive = more confident;
    /// typical range ≈ −2.5 … −0.5).
    pub log_likelihood: f64,
}

/// Sort scored sequences by descending log-likelihood (Stage 2's selection
/// order), stably so equal scores keep generation order.
pub fn rank_by_log_likelihood(mut seqs: Vec<ScoredSequence>) -> Vec<ScoredSequence> {
    seqs.sort_by(|a, b| {
        b.log_likelihood
            .partial_cmp(&a.log_likelihood)
            .expect("log-likelihoods are finite")
    });
    seqs
}

/// The ProteinMPNN surrogate for one design target.
#[derive(Debug, Clone)]
pub struct SurrogateMpnn {
    landscape: DesignLandscape,
    /// Whether each receptor position lies in the binding groove (groove
    /// positions are mutated preferentially: interface redesign is where
    /// ProteinMPNN spends its capacity on a two-chain complex, and it is
    /// what moves inter-chain pAE).
    groove: Vec<bool>,
}

impl SurrogateMpnn {
    /// Per-position mutation probability at temperature 1.0.
    const MUTATION_RATE: f64 = 0.20;

    /// Std-dev of the noise added to local residue scores at backbone
    /// quality 0 (shrinks linearly as quality rises).
    const LOCAL_NOISE: f64 = 0.22;

    /// Std-dev of the log-likelihood observation noise (in raw-fitness
    /// units, before affine mapping).
    const LL_NOISE: f64 = 0.012;

    /// Extra mutation propensity at binding-groove positions.
    const GROOVE_MUTATION_BOOST: f64 = 2.5;

    /// Per-proposal temperature ladder slope: proposal `i` of a batch
    /// samples at `T · (1 + LADDER · i)`. A batch thus spans conservative
    /// refinements to hot, diverse explorations — like a real ProteinMPNN
    /// batch, where some samples are close to the input sequence and some
    /// are far. Ranking by log-likelihood recovers the good ones; picking
    /// *randomly* (CONT-V; the non-adaptive final cycle of the expanded
    /// run) risks landing on a hot, regressed sample — the source of the
    /// paper's Fig. 3 iteration-4 quality dip.
    const LADDER: f64 = 0.13;

    /// Build a surrogate over the target's hidden landscape.
    pub fn new(landscape: DesignLandscape) -> Self {
        let mut groove = vec![false; landscape.receptor_len()];
        for pos in landscape.groove_positions() {
            groove[pos] = true;
        }
        SurrogateMpnn { landscape, groove }
    }

    /// Generate `config.num_sequences` scored proposals conditioned on
    /// `structure` (Stage 1 of the IMPRESS pipeline).
    pub fn sample(
        &self,
        structure: &Structure,
        config: &MpnnConfig,
        rng: &mut SimRng,
    ) -> Vec<ScoredSequence> {
        assert_eq!(
            structure.complex.receptor.len(),
            self.landscape.receptor_len(),
            "structure does not match this target's landscape"
        );
        assert!(
            config.num_sequences >= 1,
            "MpnnConfig::num_sequences must be at least 1"
        );
        assert!(
            config.temperature.is_finite() && config.temperature > 0.0,
            "MpnnConfig::temperature must be finite and positive, got {}",
            config.temperature
        );
        (0..config.num_sequences)
            .map(|i| {
                let mut seq_rng = rng.fork_idx("mpnn-proposal", i as u64);
                let temperature = config.temperature * (1.0 + Self::LADDER * i as f64);
                let sequence = self.propose(structure, config, temperature, &mut seq_rng);
                let log_likelihood = self.score(&sequence, &mut seq_rng);
                ScoredSequence {
                    sequence,
                    log_likelihood,
                }
            })
            .collect()
    }

    /// Score an existing sequence (ProteinMPNN's scoring mode).
    pub(crate) fn score(&self, sequence: &Sequence, rng: &mut SimRng) -> f64 {
        let f = self.landscape.fitness(sequence);
        let raw = crate::landscape::FOLD_WEIGHT * f.raw_fold
            + (1.0 - crate::landscape::FOLD_WEIGHT) * f.raw_bind;
        let observed = raw + rng.normal_with(0.0, Self::LL_NOISE);
        // Affine map into ProteinMPNN's characteristic negative range:
        // raw 0.45 (random) → ≈ −2.1, raw 0.80 (excellent) → ≈ −0.7.
        -(2.1 - 4.0 * (observed - 0.45))
    }

    /// One proposal at ladder `temperature` (which stands in for
    /// `config.temperature`): mutate designable positions with
    /// Boltzmann-weighted residue choices on noisy local scores.
    fn propose(
        &self,
        structure: &Structure,
        config: &MpnnConfig,
        temperature: f64,
        rng: &mut SimRng,
    ) -> Sequence {
        let mut seq = structure.complex.receptor.sequence.clone();
        let q = structure.backbone_quality;
        // Better backbones sharpen the local signal the network "sees".
        let noise = Self::LOCAL_NOISE * (1.2 - 0.8 * q);
        let mutate_p = (Self::MUTATION_RATE * temperature).clamp(0.0, 1.0);
        // Inverse temperature for residue choice at a mutated position.
        // Local score differences between candidates are ~0.005–0.03, so a
        // large β is needed for the softmax to prefer good residues (real
        // ProteinMPNN at T=0.1–0.2 is similarly near-greedy per position).
        let beta = 1600.0 / temperature.max(1e-3);
        // Observation noise on local scores, in score units (typical
        // candidate spread ≈ 0.015).
        let noise_sd = noise * 0.004;

        for pos in 0..seq.len() {
            let p = if self.groove[pos] {
                (mutate_p * Self::GROOVE_MUTATION_BOOST).min(1.0)
            } else {
                mutate_p
            };
            if config.fixed_positions.contains(&pos) || !rng.chance(p) {
                continue;
            }
            // Noisy local scores for all 20 candidates, drawn in `ALL` order.
            let scores = self
                .landscape
                .local_scores(&seq, pos)
                .map(|score| score + rng.normal_with(0.0, noise_sd));
            let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let weights = scores.map(|s| ((s - max) * beta).exp());
            let total: f64 = weights.iter().sum();
            let mut draw = rng.uniform() * total;
            let mut chosen = ALL[ALL.len() - 1];
            for (i, w) in weights.iter().enumerate() {
                if draw < *w {
                    chosen = ALL[i];
                    break;
                }
                draw -= w;
            }
            seq.set(pos, chosen);
        }
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landscape::best_candidate;
    use crate::sequence::Chain;
    use crate::structure::Complex;

    fn setup(seed: u64) -> (SurrogateMpnn, Structure) {
        let peptide = Sequence::parse("EGYQDYEPEA").unwrap();
        let landscape = DesignLandscape::new(seed, 80, peptide.clone());
        let mut rng = SimRng::from_seed(seed ^ 0xdead);
        // A mediocre starting design, like the paper's prepared structures:
        // ~20% of positions locally optimized (cf. datasets::fabricate).
        let mut native = landscape.random_receptor(&mut rng);
        for pos in 0..native.len() {
            if !rng.chance(0.20) {
                continue;
            }
            let best = best_candidate(&landscape.local_scores(&native, pos));
            native.set(pos, best);
        }
        let q0 = landscape.fitness(&native).quality;
        let complex = Complex::new(
            "T",
            Chain::designable('A', native),
            Chain::fixed('B', peptide),
        );
        (
            SurrogateMpnn::new(landscape),
            Structure::starting(complex, q0),
        )
    }

    #[test]
    fn sample_returns_requested_count_with_finite_scores() {
        let (mpnn, s) = setup(1);
        let mut rng = SimRng::from_seed(2);
        let out = mpnn.sample(&s, &MpnnConfig::default(), &mut rng);
        assert_eq!(out.len(), 10);
        for ss in &out {
            assert!(ss.log_likelihood.is_finite());
            assert!(
                (-4.0..=0.5).contains(&ss.log_likelihood),
                "{}",
                ss.log_likelihood
            );
            assert_eq!(ss.sequence.len(), 80);
        }
    }

    #[test]
    fn proposals_differ_from_parent_but_not_wildly() {
        let (mpnn, s) = setup(3);
        let mut rng = SimRng::from_seed(4);
        let parent = &s.complex.receptor.sequence;
        let out = mpnn.sample(&s, &MpnnConfig::default(), &mut rng);
        // The temperature ladder makes later proposals hotter: the first
        // proposal stays close to the parent, the last may wander far, but
        // none is a full resample.
        let d0 = parent.hamming(&out[0].sequence);
        assert!(d0 <= 35, "first (coldest) proposal too far: {d0}");
        for ss in &out {
            let d = parent.hamming(&ss.sequence);
            assert!(d <= 60, "too many mutations: {d}");
        }
        let distinct: std::collections::HashSet<String> =
            out.iter().map(|s| s.sequence.to_letters()).collect();
        assert!(distinct.len() >= 5, "proposals should be diverse");
    }

    #[test]
    fn fixed_positions_are_never_mutated() {
        let (mpnn, s) = setup(5);
        let mut rng = SimRng::from_seed(6);
        let fixed = vec![0, 7, 13, 42, 79];
        let config = MpnnConfig {
            fixed_positions: fixed.clone(),
            temperature: 3.0, // aggressive mutation elsewhere
            ..MpnnConfig::default()
        };
        let parent = s.complex.receptor.sequence.clone();
        for ss in mpnn.sample(&s, &config, &mut rng) {
            for &p in &fixed {
                assert_eq!(
                    ss.sequence.at(p),
                    parent.at(p),
                    "fixed position {p} mutated"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "num_sequences must be at least 1")]
    fn an_empty_batch_is_rejected_by_name() {
        let (mpnn, s) = setup(5);
        let config = MpnnConfig {
            num_sequences: 0,
            ..MpnnConfig::default()
        };
        mpnn.sample(&s, &config, &mut SimRng::from_seed(6));
    }

    fn sample_at_temperature(temperature: f64) {
        let (mpnn, s) = setup(5);
        let config = MpnnConfig {
            temperature,
            ..MpnnConfig::default()
        };
        mpnn.sample(&s, &config, &mut SimRng::from_seed(6));
    }

    #[test]
    #[should_panic(expected = "temperature must be finite and positive, got -1")]
    fn a_negative_temperature_is_rejected_by_name() {
        sample_at_temperature(-1.0);
    }

    #[test]
    #[should_panic(expected = "temperature must be finite and positive, got NaN")]
    fn a_nan_temperature_is_rejected_by_name() {
        sample_at_temperature(f64::NAN);
    }

    #[test]
    fn proposals_tend_to_improve_true_fitness() {
        let (mpnn, s) = setup(7);
        let mut rng = SimRng::from_seed(8);
        let q0 = mpnn.landscape.fitness(&s.complex.receptor.sequence).quality;
        let out = mpnn.sample(&s, &MpnnConfig::default(), &mut rng);
        let mean_q: f64 = out
            .iter()
            .map(|ss| mpnn.landscape.fitness(&ss.sequence).quality)
            .sum::<f64>()
            / out.len() as f64;
        assert!(
            mean_q > q0,
            "mean proposal quality {mean_q} should beat parent {q0}"
        );
    }

    #[test]
    fn log_likelihood_ranking_is_informative_not_perfect() {
        // Across many proposals, ll-rank should correlate positively with
        // true quality (Spearman-ish via top-half/bottom-half means).
        let (mpnn, s) = setup(9);
        let mut rng = SimRng::from_seed(10);
        let config = MpnnConfig {
            num_sequences: 60,
            ..MpnnConfig::default()
        };
        let ranked = rank_by_log_likelihood(mpnn.sample(&s, &config, &mut rng));
        let q: Vec<f64> = ranked
            .iter()
            .map(|ss| mpnn.landscape.fitness(&ss.sequence).quality)
            .collect();
        let top: f64 = q[..30].iter().sum::<f64>() / 30.0;
        let bottom: f64 = q[30..].iter().sum::<f64>() / 30.0;
        assert!(
            top > bottom,
            "top-ranked half ({top}) must beat bottom half ({bottom})"
        );
    }

    #[test]
    fn better_backbone_gives_better_proposals() {
        let (mpnn, s) = setup(11);
        let mut rng_a = SimRng::from_seed(12);
        let mut rng_b = SimRng::from_seed(12);
        let mut bad = s.clone();
        bad.backbone_quality = 0.05;
        let mut good = s;
        good.backbone_quality = 0.95;
        let config = MpnnConfig {
            num_sequences: 40,
            ..MpnnConfig::default()
        };
        let mean = |out: &[ScoredSequence]| {
            out.iter()
                .map(|ss| mpnn.landscape.fitness(&ss.sequence).quality)
                .sum::<f64>()
                / out.len() as f64
        };
        let q_bad = mean(&mpnn.sample(&bad, &config, &mut rng_a));
        let q_good = mean(&mpnn.sample(&good, &config, &mut rng_b));
        assert!(
            q_good >= q_bad - 0.01,
            "good backbone ({q_good}) should not trail bad backbone ({q_bad})"
        );
    }

    #[test]
    fn rank_is_stable_and_descending() {
        let mk = |ll: f64| ScoredSequence {
            sequence: Sequence::parse("AA").unwrap(),
            log_likelihood: ll,
        };
        let ranked = rank_by_log_likelihood(vec![mk(-2.0), mk(-0.5), mk(-1.0)]);
        let lls: Vec<f64> = ranked.iter().map(|s| s.log_likelihood).collect();
        assert_eq!(lls, vec![-0.5, -1.0, -2.0]);
    }

    /// FNV-1a-64, the digest the golden pins below record.
    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// What a golden case pins: a digest over every proposal's letters and
    /// log-likelihood bits, then the next word of the caller's stream and
    /// of proposal 0's stream once it has proposed and scored.
    fn golden(
        landscape_seed: u64,
        len: usize,
        quality: f64,
        config: &MpnnConfig,
    ) -> (u64, u64, u64) {
        let peptide = Sequence::parse("EGYQDYEPEA").unwrap();
        let landscape = DesignLandscape::new(landscape_seed, len, peptide.clone());
        let mut rng = SimRng::from_seed(landscape_seed ^ 0x5eed);
        let receptor = landscape.random_receptor(&mut rng);
        let complex = Complex::new(
            "G",
            Chain::designable('A', receptor),
            Chain::fixed('B', peptide),
        );
        let structure = Structure::starting(complex, quality);
        let mpnn = SurrogateMpnn::new(landscape);

        let out = mpnn.sample(&structure, config, &mut rng);
        let digest = out.iter().fold(0xcbf2_9ce4_8422_2325, |h, ss| {
            let h = fnv1a(h, ss.sequence.to_letters().as_bytes());
            fnv1a(h, &ss.log_likelihood.to_bits().to_le_bytes())
        });
        let mut first = rng.fork_idx("mpnn-proposal", 0);
        let sequence = mpnn.propose(&structure, config, config.temperature, &mut first);
        assert_eq!(sequence, out[0].sequence);
        mpnn.score(&sequence, &mut first);
        (digest, rng.next_u64(), first.next_u64())
    }

    const GOLDEN_SAMPLES: [(u64, u64, u64); 3] = [
        (
            0x391d_6fad_f6dd_328f,
            0x84c6_b40f_aad7_7c3a,
            0xc9fc_776a_afff_d75b,
        ),
        (
            0x9394_aaa3_ebdc_2e36,
            0xa945_8c78_d1d8_d8ea,
            0xa479_21a5_11f9_e482,
        ),
        (
            0x5a76_32f4_69ef_fdf5,
            0x5da0_87a8_a3b7_cfac,
            0xdf33_0c3d_fcc7_8ca0,
        ),
    ];

    /// The draw-order pin: per position `fixed_positions` short-circuits
    /// before `chance`, then twenty `normal_with` in `ALL` order, then one
    /// `uniform`; `score` draws one trailing `normal_with`. A draw added,
    /// dropped or reordered changes a constant here. Recorded from the
    /// clone-and-rehash implementation this kernel replaced.
    #[test]
    fn sample_draw_order_is_pinned() {
        let cases = [
            (2025, 80, 0.30, MpnnConfig::default()),
            (
                7,
                95,
                0.45,
                MpnnConfig {
                    temperature: 3.0,
                    fixed_positions: vec![0, 7, 13, 42, 79],
                    ..MpnnConfig::default()
                },
            ),
            (
                11,
                86,
                0.95,
                MpnnConfig {
                    num_sequences: 60,
                    ..MpnnConfig::default()
                },
            ),
        ];
        let got: Vec<(u64, u64, u64)> = cases
            .iter()
            .map(|(seed, len, quality, config)| golden(*seed, *len, *quality, config))
            .collect();
        assert_eq!(got, GOLDEN_SAMPLES);
    }

    #[test]
    fn sampling_is_deterministic_given_seed() {
        let (mpnn, s) = setup(13);
        let out1 = mpnn.sample(&s, &MpnnConfig::default(), &mut SimRng::from_seed(14));
        let out2 = mpnn.sample(&s, &MpnnConfig::default(), &mut SimRng::from_seed(14));
        assert_eq!(out1, out2);
    }

    /// One `sample()` of `n` proposals allocates exactly `n + 1` times: one
    /// `Sequence` per proposal and the output `Vec`. Scores and Boltzmann
    /// weights live on the stack and the configuration is borrowed, not
    /// cloned per proposal.
    #[test]
    fn sampling_allocates_one_sequence_per_proposal_and_the_vec() {
        let target = crate::datasets::named_pdz_domains(2025).remove(0);
        let receptor = target.start.complex.receptor.sequence.clone();
        let mpnn = SurrogateMpnn::new(target.landscape.clone());
        let mut rng = SimRng::from_seed(7);
        for n in [1usize, 10, 60] {
            let config = MpnnConfig {
                num_sequences: n,
                fixed_positions: vec![3, 40],
                ..MpnnConfig::default()
            };
            let (allocs, out) =
                crate::ALLOC.measure(|| mpnn.sample(&target.start, &config, &mut rng));
            assert_eq!(out.len(), n);
            assert!(
                out.iter().any(|ss| ss.sequence != receptor),
                "the window must cover real mutation work"
            );
            assert_eq!(
                allocs,
                n as u64 + 1,
                "sample() of {n} proposals: one Sequence each plus the output Vec"
            );
        }
    }
}
