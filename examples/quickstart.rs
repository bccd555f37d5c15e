//! Quickstart: design a PDZ-domain binder for the α-synuclein C-terminus
//! with the full IMPRESS stack in ~a page of code.
//!
//! What happens:
//! 1. fabricate a design target (receptor + fixed peptide + hidden fitness
//!    landscape standing in for physical reality);
//! 2. start a simulated pilot on an Amarel-shaped node (28 cores, 4 GPUs);
//! 3. run one adaptive design pipeline (ProteinMPNN surrogate → ranking →
//!    AlphaFold surrogate → accept/retry) for four cycles;
//! 4. print the per-iteration confidence metrics and the final design.
//!
//! Run with: `cargo run --release --example quickstart`

use impress_core::{DesignPipeline, ProtocolConfig, TargetToolkit};
use impress_pilot::backend::SimulatedBackend;
use impress_pilot::PilotConfig;
use impress_proteins::datasets::named_pdz_domains;
use impress_workflow::{Coordinator, NoDecisions};

fn main() {
    // 1. A design target: the NHERF3 PDZ domain vs the α-syn 10-mer.
    let target = named_pdz_domains(42).remove(0);
    println!(
        "target: {} ({} residues)",
        target.name,
        target.start.complex.receptor.len()
    );
    println!("peptide: {}", target.start.complex.peptide.sequence);
    println!(
        "starting design quality (hidden): {:.3}\n",
        target.start.backbone_quality
    );

    // 2. A pilot over the simulated cluster node.
    let toolkit = TargetToolkit::for_target(&target, 7);
    let backend = SimulatedBackend::new(PilotConfig::with_seed(7));

    // 3. One adaptive pipeline, coordinated (no sub-pipeline spawning here —
    //    see examples/pdz_design.rs for the full adaptive campaign).
    let config = ProtocolConfig::imrp(7);
    let mut coordinator = Coordinator::new(backend, NoDecisions);
    coordinator.add_pipeline(Box::new(DesignPipeline::root(toolkit, config, 0)));
    let report = coordinator.run();

    // 4. Results.
    let (_, outcome) = &coordinator.outcomes()[0];
    println!("baseline  : {}", outcome.baseline_report);
    for rec in &outcome.iterations {
        println!(
            "iteration {}: {}  (accepted candidate rank {}, {} evaluation(s))",
            rec.iteration, rec.report, rec.accepted_rank, rec.evaluations
        );
    }
    println!("\nfinal design: {}", outcome.final_receptor);
    let start = &target.start.complex.receptor.sequence;
    let substitutions = start.hamming(&outcome.final_receptor);
    println!(
        "vs starting sequence: {} substitutions, {:.0}% identity",
        substitutions,
        (1.0 - substitutions as f64 / start.len() as f64) * 100.0
    );
    println!("\ncomputational summary:\n{report}");
}
