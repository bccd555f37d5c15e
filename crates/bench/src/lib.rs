//! # impress-bench
//!
//! Harnesses that regenerate every table and figure of the IMPRESS paper's
//! evaluation section, plus micro/meso benchmarks on the in-repo `timing`
//! harness.
//!
//! Binaries (each prints the artifact's rows/series; all but `report`
//! write its JSON sidecar into the working directory):
//!
//! * `table1` — CONT-V vs IM-RP on the 4 named PDZ domains (Table I).
//! * `fig2`   — per-iteration pLDDT/pTM/ipAE medians ± σ/2, both arms.
//! * `fig3`   — the expanded 70-complex IM-RP run with adaptivity disabled
//!   in the final cycle (the iteration-4 dip).
//! * `fig4`   — CONT-V utilization timeline + makespan.
//! * `fig5`   — IM-RP utilization timeline + bootstrap/exec-setup/running
//!   breakdown.
//! * `scaling` — strong scaling of the expanded IM-RP cohort on 1..32 nodes.
//! * `resilience` — both arms under node MTBF × retry budget.
//! * `recovery` — crash an IM-RP campaign mid-journal and resume it.
//! * `straggler_study` — hedging and quarantine on a degraded cluster.
//! * `partition_study` — exactly-once effects and heartbeat detection under
//!   message-layer faults.
//! * `trace_study` — the telemetry trace contracts.
//! * `report` — every paper artifact plus scaling, paper vs measured, in
//!   `PAPER_REPORT.md`.
//!
//! Run e.g. `cargo run --release -p impress-bench --bin table1`.

pub mod harness;
pub mod partition;
pub mod straggler;
pub mod timing;
pub mod trace;

pub use harness::{paper_experiment, PaperExperiment};
pub use timing::{black_box, BenchResult, Suite};
