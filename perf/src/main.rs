//! `perf` — the repository's performance ledger.
//!
//! ```text
//! perf run --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--scale <f>] [--dump-trace]
//! perf check
//! perf compare <A> <B>
//! ```
//!
//! `run` prints the ledger document of one run on one line, then — as the
//! last line of standard output — the result object the benchmark contract
//! asks for. See `perf/README.md`.

mod adapter;
mod calibrate;
mod ledger;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use impress_sim::alloc_probe::CountingAlloc;
use std::path::Path;
use std::process::ExitCode;

/// Counts heap allocations for `harness.allocs_per_task`. It is the
/// allocator of every run, traced or not, so it is part of what is measured
/// and cancels out between two commits.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const USAGE: &str = "usage:
  perf run --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--scale <f>] [--dump-trace]
  perf check
  perf compare <A> <B>";

fn parse_run(args: &[String]) -> Result<run::Args, String> {
    let mut parsed = run::Args {
        workload: String::new(),
        seed: 2025,
        seconds: 10.0,
        traced: false,
        scale: 1.0,
        dump_trace: false,
        scratch: ledger::out_dir().join(format!("run-{}", std::process::id())),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--dump-trace" {
            parsed.dump_trace = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value}: not a valid value");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--scale" => parsed.scale = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if !(parsed.scale > 0.0 && parsed.scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..])
            .and_then(|a| run::run(&a))
            .map(|report| {
                match ledger::write_trace_dump(&report) {
                    Ok(Some(path)) => eprintln!("raw spans written to {}", path.display()),
                    Ok(None) => {}
                    Err(e) => eprintln!("writing the raw spans failed: {e}"),
                }
                for failure in &report.failures {
                    eprintln!("FAILED {failure}");
                }
                println!("{}", impress_json::to_string(&ledger::document(&report)));
                println!("{}", impress_json::to_string(&ledger::result_line(&report)));
                report.correct()
            }),
        Some("check") => {
            let problems = ledger::check();
            for problem in &problems {
                eprintln!("FAILED {problem}");
            }
            Ok(problems.is_empty())
        }
        Some("compare") if args.len() == 3 => {
            ledger::compare(Path::new(&args[1]), Path::new(&args[2])).map(|bad| !bad)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
