//! Landscape micro-benchmarks: NK fitness evaluation cost vs sequence
//! length, local-score cost, hill-climb sweeps, and one default MPNN
//! `sample()`.
//!
//! The MPNN surrogate takes one twenty-candidate `local_scores` pass per
//! mutated position per proposal; these numbers bound how large a cohort
//! the reproduction can replay per host-second.

use impress_bench::timing::{black_box, Suite};
use impress_proteins::datasets::DesignTarget;
use impress_proteins::landscape::DesignLandscape;
use impress_proteins::mpnn::{MpnnConfig, SurrogateMpnn};
use impress_proteins::Sequence;
use impress_sim::SimRng;

fn arb_receptor(l: &DesignLandscape, seed: u64) -> Sequence {
    let mut rng = SimRng::from_seed(seed);
    l.random_receptor(&mut rng)
}

fn bench_fitness_vs_length(suite: &mut Suite) {
    let peptide = Sequence::parse("EGYQDYEPEA").unwrap();
    for &len in &[40usize, 90, 200, 400] {
        let l = DesignLandscape::new(7, len, peptide.clone());
        let seq = arb_receptor(&l, 1);
        suite.bench(&format!("fitness_vs_length/{len}"), || {
            black_box(l.fitness(&seq))
        });
    }
}

fn bench_local_score(suite: &mut Suite) {
    let peptide = Sequence::parse("EGYQDYEPEA").unwrap();
    let l = DesignLandscape::new(7, 90, peptide);
    let seq = arb_receptor(&l, 2);
    suite.bench("local_score_all_candidates", || {
        black_box(l.local_scores(&seq, 45).iter().sum::<f64>())
    });
}

fn bench_mpnn_sample(suite: &mut Suite) {
    let peptide = Sequence::parse("EGYQDYEPEA").unwrap();
    let mut rng = SimRng::from_seed(4);
    let target = DesignTarget::fabricate("bench", 7, 90, peptide, &mut rng);
    let mpnn = SurrogateMpnn::new(target.landscape.clone());
    let config = MpnnConfig::default();
    suite.bench("mpnn_sample/90", || {
        black_box(mpnn.sample(&target.start, &config, &mut rng))
    });
}

fn bench_hill_climb(suite: &mut Suite) {
    let peptide = Sequence::parse("EPEA").unwrap();
    let l = DesignLandscape::new(7, 90, peptide);
    for &sweeps in &[1usize, 4] {
        suite.bench(&format!("hill_climb_sweeps/{sweeps}"), || {
            let mut rng = SimRng::from_seed(3);
            let start = l.random_receptor(&mut rng);
            black_box(l.hill_climb(&start, sweeps, &mut rng))
        });
    }
}

fn main() {
    let mut suite = Suite::new("landscape");
    bench_fitness_vs_length(&mut suite);
    bench_local_score(&mut suite);
    bench_hill_climb(&mut suite);
    bench_mpnn_sample(&mut suite);
    suite.finish();
}
