//! `study [NAME…]`: run the named rows of the study table (every row when
//! none is named) at paper size, write each one's JSON file into the
//! working directory, then print it as read back from the file with its
//! claim verdicts. Exits 2 on a name the table does not know and 1 when a
//! claim fails. `IMPRESS_SEED` picks the master seed (default 2025, the
//! checked-in artifacts' seed).
//!
//! `cargo run --release -p impress-bench --bin study -- table1 fig2`

use impress_bench::harness::master_seed;
use impress_bench::study::{select, Size};
use impress_json::Json;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let studies = select(&names).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    });
    let seed = master_seed();
    // The recovery study crashes its campaigns on purpose.
    let report_panic = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info.payload().downcast_ref::<String>();
        if !message.is_some_and(|m| m.starts_with("journal kill switch")) {
            report_panic(info);
        }
    }));
    let mut failed = Vec::new();
    for study in studies {
        eprintln!("running {} (seed {seed})…", study.name);
        let doc = (study.run)(Size::Paper, seed);
        let path = study.file;
        std::fs::write(path, impress_json::to_string_pretty(&doc))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let doc: Json = impress_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        let (report, holds) = study.report(&doc);
        print!("{report}");
        if !holds {
            failed.push(study.name);
        }
    }
    if !failed.is_empty() {
        eprintln!("claims failed in: {}", failed.join(", "));
        std::process::exit(1);
    }
}
