//! The paper's primary experiment as a library user would run it: four PDZ
//! domains (NHERF3, HTRA1, SCRIB, SHANK1) optimized against the α-synuclein
//! 10-mer, adaptive IM-RP vs sequential CONT-V, side by side.
//!
//! Prints the per-iteration metric medians for both arms, the Table-I-style
//! computational comparison, and exports each arm's best design as FASTA and
//! a Cα-trace PDB file into `./designs/`.
//!
//! Run with: `cargo run --release --example pdz_design`

use impress_core::{CampaignSpec, ProtocolConfig, Table1Row, TABLE1_HEADER};
use impress_proteins::datasets::named_pdz_domains;
use impress_proteins::fasta::{write_fasta, FastaRecord};
use impress_proteins::pdb::write_pdb;
use impress_proteins::{MetricKind, Structure};

fn main() {
    let seed = 2025;
    let targets = named_pdz_domains(seed);
    println!(
        "designing {} PDZ domains against peptide {}\n",
        targets.len(),
        targets[0].start.complex.peptide.sequence
    );

    eprintln!("running CONT-V (sequential, non-adaptive)…");
    let cont = CampaignSpec::cont_v(&targets, ProtocolConfig::cont_v(seed))
        .run()
        .expect("a bare spec runs")
        .result;
    eprintln!("running IM-RP (concurrent, adaptive)…");
    let imrp = CampaignSpec::imrp(&targets, ProtocolConfig::imrp(seed))
        .run()
        .expect("a bare spec runs")
        .result;

    // Science: per-iteration medians.
    for metric in MetricKind::ALL {
        println!("{metric} medians per iteration:");
        for (label, result) in [("CONT-V", &cont), ("IM-RP", &imrp)] {
            let s = result.series(metric);
            let meds: Vec<String> = s
                .iterations
                .iter()
                .zip(s.medians())
                .map(|(it, m)| format!("i{it}={m:.2}"))
                .collect();
            println!("  {label:<7} {}", meds.join("  "));
        }
    }

    // Systems: the Table I comparison.
    println!("\n{TABLE1_HEADER}");
    println!("{}", Table1Row::from_result(&cont, targets.len()));
    println!("{}", Table1Row::from_result(&imrp, targets.len()));

    // Export the best design of each arm.
    std::fs::create_dir_all("designs").expect("create designs dir");
    for result in [&cont, &imrp] {
        let best = result
            .outcomes
            .iter()
            .filter_map(|o| o.final_report().map(|r| (o, r.score())))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(o, _)| o)
            .expect("at least one outcome");
        let target = targets
            .iter()
            .find(|t| t.name == best.target)
            .expect("target exists");
        let complex = target
            .start
            .complex
            .with_receptor_sequence(best.final_receptor.clone());
        let fasta = write_fasta(&[FastaRecord {
            header: format!("{} best design ({})", best.target, result.label),
            chains: vec![
                complex.receptor.sequence.clone(),
                complex.peptide.sequence.clone(),
            ],
        }]);
        let structure = Structure::refined(complex, best.final_backbone_quality, 4);
        let stem = format!("designs/{}_{}", result.label.to_lowercase(), best.target);
        std::fs::write(format!("{stem}.fasta"), fasta).expect("write fasta");
        std::fs::write(format!("{stem}.pdb"), write_pdb(&structure)).expect("write pdb");
        println!(
            "\n{}: best design is {} ({}), exported to {stem}.fasta / {stem}.pdb",
            result.label,
            best.target,
            best.final_report().expect("has report"),
        );
    }
}
