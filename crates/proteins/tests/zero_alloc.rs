//! Allocation pins for the surrogate's sampling kernel.
//!
//! `paper_campaign` is about 95 % `SurrogateMpnn::sample`, and what that
//! used to cost was a `Sequence` clone per candidate per mutated position
//! — thousands of allocations per call. Pinned so they cannot come back:
//!
//! 1. **`DesignLandscape::local_scores` allocates nothing**: the probe is
//!    "candidate at `pos`, the sequence elsewhere", never a copy.
//! 2. **One `sample()` of `n` proposals allocates exactly `n + 1` times**:
//!    one `Sequence` per proposal and the output `Vec`; scores and
//!    Boltzmann weights live on the stack and the configuration is
//!    borrowed, not cloned per proposal.
//!
//! This is a dedicated test binary with a single `#[test]`: the probe's
//! counters are process-global, so a second concurrent test would bleed
//! allocations into the measurement. The harness's own main thread still
//! allocates now and then while the test runs (these windows are
//! milliseconds long); see `allocations_of`.

use impress_proteins::datasets::named_pdz_domains;
use impress_proteins::mpnn::{MpnnConfig, SurrogateMpnn};
use impress_sim::alloc_probe::CountingAlloc;
use impress_sim::SimRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocations `f` performs. Foreign allocations only ever add to the
/// process-wide count and `f` allocates the same number every time, so the
/// fewest over a few repeats is `f`'s own.
fn allocations_of<R>(mut f: impl FnMut() -> R) -> (u64, R) {
    (0..5)
        .map(|_| ALLOC.measure(&mut f))
        .min_by_key(|(allocs, _)| *allocs)
        .expect("five repeats")
}

#[test]
fn sampling_allocates_one_sequence_per_proposal_and_scoring_nothing() {
    let target = named_pdz_domains(2025).remove(0);
    let receptor = target.start.complex.receptor.sequence.clone();

    // --- Pin 1: the twenty-candidate kernel --------------------------
    let (allocs, scores) = allocations_of(|| {
        (0..receptor.len())
            .map(|pos| target.landscape.local_scores(&receptor, pos)[pos % 20])
            .sum::<f64>()
    });
    assert!(scores.is_finite());
    assert_eq!(allocs, 0, "local_scores must not allocate");

    // --- Pin 2: one whole sample() -----------------------------------
    let mpnn = SurrogateMpnn::new(target.landscape.clone());
    let mut rng = SimRng::from_seed(7);
    for n in [1usize, 10, 60] {
        let config = MpnnConfig {
            num_sequences: n,
            fixed_positions: vec![3, 40],
            ..MpnnConfig::default()
        };
        let (allocs, out) = allocations_of(|| mpnn.sample(&target.start, &config, &mut rng));
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
