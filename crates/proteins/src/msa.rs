//! Synthetic multiple-sequence-alignment database.
//!
//! The paper highlights (citing ParaFold) that AlphaFold's MSA construction
//! phase "runs on CPU, which takes hours to finish due to large databases
//! and I/O bottlenecks, while GPUs remain idle" — it is the single biggest
//! cause of CONT-V's poor utilization (Fig. 4). The surrogate database
//! reproduces the two properties that matter:
//!
//! 1. **Cost**: a search takes CPU-hours of virtual time, scaling with the
//!    (deterministic) homolog depth of the query, so overlapping many
//!    searches is what fills the CPUs in IM-RP (Fig. 5).
//! 2. **Signal**: deeper MSAs reduce AlphaFold's prediction noise; the
//!    single-sequence mode (EvoPro's accelerated configuration, §IV) skips
//!    the search entirely but pays with much noisier confidence estimates.

use crate::sequence::Sequence;
use impress_sim::{SimDuration, SimRng};

/// How AlphaFold sources evolutionary information for a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsaMode {
    /// Full database search (the paper's configuration).
    Full,
    /// Single-sequence mode — no search, no evolutionary information
    /// (EvoPro's speed/accuracy trade-off discussed in Related Work).
    SingleSequence,
}

/// Result of an MSA database search.
#[derive(Debug, Clone, PartialEq)]
pub struct Msa {
    /// Number of homologs found (0 in single-sequence mode).
    pub depth: usize,
    /// Multiplier applied to AlphaFold's observation noise: < 1 for deep
    /// alignments, 1.0 at the reference depth, and `Msa::SINGLE_SEQ_NOISE`
    /// with no alignment at all.
    pub noise_factor: f64,
}

impl Msa {
    /// Noise multiplier when no evolutionary information is available.
    const SINGLE_SEQ_NOISE: f64 = 2.2;

    /// The single-sequence (empty) alignment.
    fn single_sequence() -> Msa {
        Msa {
            depth: 0,
            noise_factor: Self::SINGLE_SEQ_NOISE,
        }
    }
}

#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The synthetic genetic database AlphaFold searches.
#[derive(Debug, Clone)]
pub struct SyntheticMsaDatabase {
    seed: u64,
}

impl SyntheticMsaDatabase {
    /// Reference depth at which the noise factor is exactly 1.0.
    const REFERENCE_DEPTH: usize = 1024;

    /// Mean search duration per residue of query at the reference depth.
    /// Tuned so a ~90-residue PDZ query costs ≈ 1.4 virtual hours, matching
    /// the paper's "takes hours" observation and the CONT-V makespan band.
    const SEARCH_SECS_PER_RESIDUE: f64 = 50.0;

    /// A database determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SyntheticMsaDatabase { seed }
    }

    /// Homolog depth for a query: deterministic in (database, sequence).
    /// Log-uniform between 64 and 16384 — close homolog families are rare.
    fn depth_for(&self, query: &Sequence) -> usize {
        let h = mix(self.seed ^ query.content_hash());
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let lo: f64 = 64.0;
        let hi: f64 = 16384.0;
        (lo * (hi / lo).powf(u)).round() as usize
    }

    /// Run a search (pure function of database + query).
    pub(crate) fn search(&self, query: &Sequence, mode: MsaMode) -> Msa {
        match mode {
            MsaMode::SingleSequence => Msa::single_sequence(),
            MsaMode::Full => {
                let depth = self.depth_for(query);
                // Noise shrinks with log-depth: depth 64 → ~1.4, 1024 → 1.0,
                // 16384 → ~0.7.
                let ratio = (depth as f64 / Self::REFERENCE_DEPTH as f64).ln();
                let noise_factor = (1.0 - 0.12 * ratio).clamp(0.5, 1.6);
                Msa {
                    depth,
                    noise_factor,
                }
            }
        }
    }

    /// Virtual wall-clock cost of the search: proportional to query length,
    /// mildly sub-linear in depth, with ±10% deterministic jitter drawn from
    /// `rng`. Single-sequence mode costs (almost) nothing.
    pub(crate) fn search_duration(
        &self,
        query: &Sequence,
        mode: MsaMode,
        rng: &mut SimRng,
    ) -> SimDuration {
        match mode {
            MsaMode::SingleSequence => SimDuration::from_secs(2),
            MsaMode::Full => {
                let depth = self.depth_for(query) as f64;
                let depth_scale = (depth / Self::REFERENCE_DEPTH as f64).powf(0.25);
                let base = Self::SEARCH_SECS_PER_RESIDUE * query.len() as f64 * depth_scale;
                SimDuration::from_secs_f64(rng.jitter(base, 0.10))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: usize) -> Sequence {
        use crate::amino::ALL;
        Sequence::new((0..n).map(|i| ALL[(i * 7 + 3) % 20]).collect())
    }

    #[test]
    fn depth_is_deterministic_and_in_range() {
        let db = SyntheticMsaDatabase::new(5);
        let query = q(90);
        let d1 = db.depth_for(&query);
        let d2 = db.depth_for(&query);
        assert_eq!(d1, d2);
        assert!((64..=16384).contains(&d1), "depth {d1}");
    }

    #[test]
    fn different_queries_get_different_depths() {
        let db = SyntheticMsaDatabase::new(5);
        let depths: std::collections::HashSet<usize> =
            (60..80).map(|n| db.depth_for(&q(n))).collect();
        assert!(depths.len() > 10, "depths should vary: {depths:?}");
    }

    #[test]
    fn deeper_msa_means_less_noise() {
        let db = SyntheticMsaDatabase::new(1);
        // Scan queries to find a deep and a shallow one.
        let msas: Vec<Msa> = (50..120).map(|n| db.search(&q(n), MsaMode::Full)).collect();
        let deepest = msas.iter().max_by_key(|m| m.depth).unwrap();
        let shallowest = msas.iter().min_by_key(|m| m.depth).unwrap();
        assert!(deepest.depth > shallowest.depth);
        assert!(deepest.noise_factor < shallowest.noise_factor);
    }

    #[test]
    fn single_sequence_mode_is_fast_and_noisy() {
        let db = SyntheticMsaDatabase::new(1);
        let query = q(90);
        let msa = db.search(&query, MsaMode::SingleSequence);
        assert_eq!(msa.depth, 0);
        assert_eq!(msa.noise_factor, Msa::SINGLE_SEQ_NOISE);
        let mut rng = SimRng::from_seed(0);
        let d = db.search_duration(&query, MsaMode::SingleSequence, &mut rng);
        assert!(d.as_secs_f64() < 10.0);
    }

    #[test]
    fn full_search_takes_virtual_hours_for_pdz_scale_queries() {
        let db = SyntheticMsaDatabase::new(1);
        let mut rng = SimRng::from_seed(0);
        let query = q(94); // PDZ domain scale
        let d = db.search_duration(&query, MsaMode::Full, &mut rng);
        let hours = d.as_hours_f64();
        assert!(
            (0.4..4.0).contains(&hours),
            "search should take on the order of hours, got {hours}h"
        );
    }

    #[test]
    fn noise_factor_stays_in_declared_bounds() {
        let db = SyntheticMsaDatabase::new(3);
        for n in 40..140 {
            let m = db.search(&q(n), MsaMode::Full);
            assert!((0.5..=1.6).contains(&m.noise_factor));
        }
    }
}
