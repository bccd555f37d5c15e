//! Design targets: PDZ-domain–peptide complexes.
//!
//! The paper's small experiment prepares four named PDZ domains (NHERF3,
//! HTRA1, SCRIB, SHANK1) in complex with the last 10 residues of
//! α-synuclein; the expanded experiment mines 70 experimentally resolved
//! PDZ–peptide complexes from the PDB and re-targets them to the last 4
//! residues of α-synuclein. We cannot ship PDB structures, so each target is
//! fabricated deterministically: a seeded landscape plus a "native" starting
//! sequence that is partially optimized — experimentally resolved domains
//! are real proteins (far better than random) but far from optimal *for the
//! new target peptide* (that is the design task).

use crate::landscape::{best_candidate, DesignLandscape};
use crate::sequence::{Chain, Sequence};
use crate::structure::{Complex, Structure};
use impress_sim::SimRng;

/// Human α-synuclein C-terminal region (residues 120–140).
const ALPHA_SYNUCLEIN_C_TERMINUS: &str = "PDNEAYEMPSEEGYQDYEPEA";

/// The last `n` residues of α-synuclein (the paper uses 10 and 4).
fn alpha_synuclein_tail(n: usize) -> Sequence {
    let s = ALPHA_SYNUCLEIN_C_TERMINUS;
    assert!(n <= s.len(), "tail longer than the known C-terminus");
    Sequence::parse(&s[s.len() - n..]).expect("constant is valid")
}

/// Fraction of receptor positions pre-optimized in fabricated "native"
/// starting sequences (tuned so starting designs land at quality ≈ 0.2–0.4,
/// matching the paper's starting pLDDT/pTM bands).
const NATIVE_OPTIMIZED_FRACTION: f64 = 0.20;

/// One design problem: a target complex plus its hidden landscape.
#[derive(Debug, Clone)]
pub struct DesignTarget {
    /// Target name (e.g. `"NHERF3"` or a synthetic PDB-style id).
    pub name: String,
    /// The hidden ground-truth landscape for this target.
    pub landscape: DesignLandscape,
    /// The prepared starting structure.
    pub start: Structure,
}

impl DesignTarget {
    /// Fabricate a target: build the landscape from `seed`, then fabricate a
    /// partially optimized native receptor of `receptor_len` residues.
    pub fn fabricate(
        name: impl Into<String>,
        seed: u64,
        receptor_len: usize,
        peptide: Sequence,
        rng: &mut SimRng,
    ) -> DesignTarget {
        let name = name.into();
        let landscape = DesignLandscape::new(seed, receptor_len, peptide.clone());
        let mut native = landscape.random_receptor(rng);
        // Optimize a deterministic-per-target subset of positions: natives
        // are good proteins, but not tuned for the new peptide.
        for pos in 0..receptor_len {
            if !rng.chance(NATIVE_OPTIMIZED_FRACTION) {
                continue;
            }
            let best = best_candidate(&landscape.local_scores(&native, pos));
            native.set(pos, best);
        }
        let q0 = landscape.fitness(&native).quality;
        let complex = Complex::new(
            name.clone(),
            Chain::designable('A', native),
            Chain::fixed('B', peptide),
        );
        DesignTarget {
            name,
            landscape,
            start: Structure::starting(complex, q0),
        }
    }
}

/// The four named PDZ domains of the paper's first experiment, in complex
/// with the α-synuclein 10-mer. Receptor lengths are the real domains'
/// approximate PDZ-domain sizes.
pub fn named_pdz_domains(master_seed: u64) -> Vec<DesignTarget> {
    let rng = SimRng::from_seed(master_seed);
    let peptide = alpha_synuclein_tail(10);
    [
        ("NHERF3", 86usize),
        ("HTRA1", 92),
        ("SCRIB", 90),
        ("SHANK1", 94),
    ]
    .iter()
    .enumerate()
    .map(|(i, &(name, len))| {
        let mut trng = rng.fork_idx("named-target", i as u64);
        DesignTarget::fabricate(
            name,
            master_seed ^ ((i as u64 + 1) * 0x9e37_79b9),
            len,
            peptide.clone(),
            &mut trng,
        )
    })
    .collect()
}

/// The expanded set: `n` synthetic "PDB-mined" PDZ–peptide complexes (the
/// paper mines 70), targeting the α-synuclein 4-mer (EPEA).
pub fn mined_pdz_complexes(master_seed: u64, n: usize) -> Vec<DesignTarget> {
    let rng = SimRng::from_seed(master_seed ^ 0x70_70_70);
    let peptide = alpha_synuclein_tail(4);
    (0..n)
        .map(|i| {
            let mut trng = rng.fork_idx("mined-target", i as u64);
            // PDB-style synthetic ids: 1PZ0, 1PZ1, …
            let name = format!("{}PZ{}", 1 + i / 36, radix36(i % 36));
            let len = 82 + (i * 7) % 19; // 82..=100 residues
            DesignTarget::fabricate(
                name,
                master_seed ^ (i as u64 + 101).wrapping_mul(0x2545_f491_4f6c_dd1d),
                len,
                peptide.clone(),
                &mut trng,
            )
        })
        .collect()
}

/// A protease design problem (the paper's §V follow-up): a larger enzyme
/// whose catalytic residues must stay fixed while the rest of the protein is
/// redesigned for activity, evaluated in monomeric form.
#[derive(Debug, Clone)]
pub struct ProteaseTarget {
    /// The underlying design target (receptor = the protease; the "peptide"
    /// is the substrate, used only by the landscape's activity model).
    pub target: DesignTarget,
    /// Catalytic residue positions that ProteinMPNN must not mutate.
    pub catalytic: Vec<usize>,
}

/// Fabricate `n` protease targets: ~120-residue enzymes with a catalytic
/// triad, paired with the canonical 3C-protease substrate hexamer (TSAVLQ↓).
pub fn protease_targets(master_seed: u64, n: usize) -> Vec<ProteaseTarget> {
    let rng = SimRng::from_seed(master_seed ^ 0x9307_ea5e);
    let substrate = Sequence::parse("TSAVLQ").expect("constant is valid");
    (0..n)
        .map(|i| {
            let mut trng = rng.fork_idx("protease", i as u64);
            let len = 112 + (i * 5) % 21; // 112..=132 residues
            let target = DesignTarget::fabricate(
                format!("PROT-{:02}", i + 1),
                master_seed ^ (i as u64 + 3).wrapping_mul(0x6c62_272e_07bb_0142),
                len,
                substrate.clone(),
                &mut trng,
            );
            // Catalytic triad: three distinct seeded positions (Ser-His-Asp
            // in a real serine protease; identity is whatever the fabricated
            // native carries — the point is that they are frozen).
            let mut catalytic = Vec::with_capacity(3);
            while catalytic.len() < 3 {
                let p = trng.below(len);
                if !catalytic.contains(&p) {
                    catalytic.push(p);
                }
            }
            catalytic.sort_unstable();
            ProteaseTarget { target, catalytic }
        })
        .collect()
}

fn radix36(v: usize) -> char {
    let digits = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    digits[v] as char
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_synuclein_tails_match_biology() {
        assert_eq!(alpha_synuclein_tail(10).to_letters(), "EGYQDYEPEA");
        assert_eq!(alpha_synuclein_tail(4).to_letters(), "EPEA");
    }

    #[test]
    #[should_panic(expected = "tail longer")]
    fn oversized_tail_panics() {
        let _ = alpha_synuclein_tail(50);
    }

    #[test]
    fn named_domains_are_the_papers_four() {
        let targets = named_pdz_domains(42);
        let names: Vec<&str> = targets.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["NHERF3", "HTRA1", "SCRIB", "SHANK1"]);
        for t in &targets {
            assert_eq!(t.start.complex.peptide.sequence.to_letters(), "EGYQDYEPEA");
            assert!((80..=100).contains(&t.start.complex.receptor.len()));
        }
    }

    #[test]
    fn starting_quality_is_mediocre_not_random_not_optimal() {
        let targets = named_pdz_domains(42);
        for t in &targets {
            let q = t.start.backbone_quality;
            assert!(
                (0.10..=0.55).contains(&q),
                "{}: starting quality {q} out of the mediocre band",
                t.name
            );
        }
    }

    #[test]
    fn mined_set_has_requested_size_and_unique_names() {
        let targets = mined_pdz_complexes(42, 70);
        assert_eq!(targets.len(), 70);
        let names: std::collections::HashSet<&str> =
            targets.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names.len(), 70, "names must be unique");
        for t in &targets {
            assert_eq!(t.start.complex.peptide.sequence.to_letters(), "EPEA");
        }
    }

    #[test]
    fn fabrication_is_deterministic() {
        let a = named_pdz_domains(7);
        let b = named_pdz_domains(7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.start.complex.receptor.sequence,
                y.start.complex.receptor.sequence
            );
            assert_eq!(x.start.backbone_quality, y.start.backbone_quality);
        }
        let c = named_pdz_domains(8);
        assert_ne!(
            a[0].start.complex.receptor.sequence,
            c[0].start.complex.receptor.sequence
        );
    }

    #[test]
    fn protease_targets_have_frozen_triads() {
        let targets = protease_targets(42, 5);
        assert_eq!(targets.len(), 5);
        for pt in &targets {
            assert_eq!(pt.catalytic.len(), 3);
            let len = pt.target.start.complex.receptor.len();
            assert!((110..=135).contains(&len));
            assert!(pt.catalytic.iter().all(|&p| p < len));
            assert_eq!(
                pt.target.start.complex.peptide.sequence.to_letters(),
                "TSAVLQ"
            );
        }
        let names: std::collections::HashSet<&str> =
            targets.iter().map(|t| t.target.name.as_str()).collect();
        assert_eq!(names.len(), 5);
    }

    /// `fabricate` and `hill_climb` pick each position's arg-max with
    /// `Iterator::max_by`'s last-maximum-wins tie rule. Content hashes of
    /// the native and of a two-sweep climb from it, recorded from the
    /// clone-and-rehash implementation the `local_scores` kernel replaced.
    #[test]
    fn fabricate_and_hill_climb_sequences_are_pinned() {
        const GOLDEN: [(u64, u64); 5] = [
            (0x55bd_742f_7a11_143b, 0x85ab_b6ba_515e_50ec),
            (0x4b51_7a35_331f_6901, 0x6e2d_1e0b_d9a6_5e66),
            (0xe20c_e4d5_bd22_ea5b, 0xa452_d1f5_e938_4c2a),
            (0x0c91_1033_e05b_2d47, 0x9f60_bf58_5393_cf43),
            (0x9e4c_f96e_fdc8_f3a2, 0x2437_4ae9_a854_eacd),
        ];
        let got: Vec<(u64, u64)> = [1u64, 7, 42, 2025, 0xdead_beef]
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let mut rng = SimRng::from_seed(seed);
                let peptide = alpha_synuclein_tail(if i % 2 == 0 { 10 } else { 4 });
                let t = DesignTarget::fabricate("pin", seed, 80 + 9 * i, peptide, &mut rng);
                let native = &t.start.complex.receptor.sequence;
                let climbed = t.landscape.hill_climb(native, 2, &mut rng);
                (native.content_hash(), climbed.content_hash())
            })
            .collect();
        assert_eq!(got, GOLDEN);
    }

    #[test]
    fn targets_leave_design_headroom() {
        // Every target must have meaningful room to improve — the design
        // experiment is pointless otherwise.
        let mut rng = SimRng::from_seed(1);
        for t in named_pdz_domains(42) {
            let climbed = t
                .landscape
                .hill_climb(&t.start.complex.receptor.sequence, 3, &mut rng);
            let q_max = t.landscape.fitness(&climbed).quality;
            assert!(
                q_max > t.start.backbone_quality + 0.25,
                "{}: headroom too small ({} → {q_max})",
                t.name,
                t.start.backbone_quality
            );
        }
    }
}
