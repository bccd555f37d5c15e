//! # impress-bench
//!
//! The study table ([`study::STUDIES`]) regenerating every table and figure
//! of the IMPRESS paper's evaluation section and the extension studies.
//!
//! One binary, `study [NAME…]`, runs the named rows (all of them when none
//! is named), writes each one's JSON file into the working directory,
//! prints it and exits non-zero when a claim fails: `table1`, `fig2`–`fig5`
//! (the paper), `scaling`, `resilience`, `recovery`, `straggler`,
//! `partition`, `trace` and `ablations` (beyond it).
//!
//! Run e.g. `cargo run --release -p impress-bench --bin study -- fig3`.

pub mod harness;
mod paper;
mod partition;
mod resilience;
mod straggler;
pub mod study;
pub mod trace;
