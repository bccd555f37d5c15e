//! Telemetry trace study: regenerates `trace_summary.json`.
//!
//! Usage: `cargo run --release -p impress-bench --bin trace_study`
//!
//! Records the 24-complex IM-RP campaign through the unified telemetry
//! subsystem, verifies the three trace contracts (zero perturbation,
//! well-formed nesting + Chrome round-trip, cross-backend virtual-clock
//! parity), and writes the deterministic summary artifact (see
//! `impress_bench::trace`).

use impress_bench::harness::master_seed;
use impress_bench::trace::{run_study, TraceParams};

fn main() {
    let seed = master_seed();
    let doc = run_study(&TraceParams::full(), seed);
    let path = "trace_summary.json";
    std::fs::write(path, impress_json::to_string_pretty(&doc)).expect("write trace_summary.json");
    eprintln!("wrote {path}");
    for (label, key) in [
        ("telemetry perturbs nothing", "perturbation_free"),
        ("span nesting well-formed", "nesting_ok"),
        ("chrome export round-trips", "chrome_round_trip_ok"),
    ] {
        println!(
            "  {:<42} {}",
            label,
            doc.get(key).and_then(|v| v.as_bool()).unwrap_or(false)
        );
    }
    println!(
        "  {:<42} {}",
        "sim/threaded virtual traces byte-identical",
        doc.get("parity")
            .and_then(|p| p.get("backends_agree"))
            .and_then(|v| v.as_bool())
            .unwrap_or(false)
    );
    if let Some(c) = doc.get("campaign") {
        println!(
            "  campaign: {} events, {} chrome bytes, makespan {:.2} h",
            c.get("events").and_then(|v| v.as_f64()).unwrap_or(0.0),
            c.get("chrome_trace_bytes")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0),
            c.get("makespan_hours")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        );
    }
}
