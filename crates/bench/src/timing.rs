//! In-repo wall-clock benchmark harness (the Criterion replacement for the
//! hermetic build).
//!
//! The workspace must build and bench with zero registry access, so the
//! Criterion benches are rewritten on this small timer: each benchmark runs
//! a calibrated number of iterations per sample and reports the **median**
//! (plus min/max) nanoseconds per iteration across samples. Median-of-N is
//! robust to the occasional scheduler hiccup without Criterion's outlier
//! machinery.
//!
//! Results print as an aligned table and are written as a JSON sidecar
//! (`bench-<suite>.json` in the working directory) that `impress_json`
//! round-trips, so downstream tooling keeps a machine-readable record.
//!
//! Environment overrides:
//!
//! * `IMPRESS_BENCH_SAMPLES` — samples per benchmark (default 11, min 3).
//! * `IMPRESS_BENCH_MAX_SECS` — soft per-benchmark time budget in seconds
//!   (default 2.0). Slow bodies fall back to 3 samples of 1 iteration.

pub use std::hint::black_box;

use crate::harness::env_or;
use impress_json::{json_struct, Json};
use std::time::{Duration, Instant};

/// One benchmark's timing summary, in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchResult {
    /// Benchmark identifier (`suite/case/param`).
    pub id: String,
    /// Median ns/iteration across samples.
    pub median_ns: u64,
    /// Fastest sample's ns/iteration.
    pub min_ns: u64,
    /// Slowest sample's ns/iteration.
    pub max_ns: u64,
    /// Iterations per timed sample (calibrated from a warm-up call).
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
}
json_struct!(BenchResult {
    id,
    median_ns,
    min_ns,
    max_ns,
    iters_per_sample,
    samples
});

/// Human-friendly rendering of a ns/iteration figure.
fn format_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns} ns"),
        10_000..=9_999_999 => format!("{:.2} µs", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.2} ms", ns as f64 / 1e6),
        _ => format!("{:.2} s", ns as f64 / 1e9),
    }
}

/// A named collection of benchmarks; create one per bench binary.
pub struct Suite {
    name: String,
    results: Vec<BenchResult>,
    samples: usize,
    max_budget: Duration,
}

impl Suite {
    /// Start a suite. `name` becomes the JSON sidecar's stem.
    pub fn new(name: impl Into<String>) -> Suite {
        Suite::with_budget(
            name.into(),
            env_or("IMPRESS_BENCH_SAMPLES", 11usize).max(3),
            Duration::from_secs_f64(env_or("IMPRESS_BENCH_MAX_SECS", 2.0f64).max(0.1)),
        )
    }

    fn with_budget(name: String, samples: usize, max_budget: Duration) -> Suite {
        eprintln!("benchmark suite `{name}` (in-repo timing harness)");
        Suite {
            name,
            results: Vec::new(),
            samples,
            max_budget,
        }
    }

    /// Time `f`, recording median-of-N ns/iteration under `id`. The result
    /// of each call is passed through [`black_box`] so the optimizer cannot
    /// delete the measured work.
    pub fn bench<T>(&mut self, id: &str, mut f: impl FnMut() -> T) {
        // Warm-up call doubles as the calibration probe.
        let warm_start = Instant::now();
        black_box(f());
        let warm = warm_start.elapsed().max(Duration::from_nanos(1));

        // Calibrate: fast bodies get batched into ~10 ms samples; bodies too
        // slow for the budget fall back to 3 samples of 1 iteration.
        let (iters, samples) = if warm * 3 > self.max_budget {
            (1u64, 3usize)
        } else {
            let target = (self.max_budget / self.samples as u32).min(Duration::from_millis(10));
            let iters = (target.as_nanos() / warm.as_nanos()).clamp(1, 1_000_000) as u64;
            let per_sample = warm * iters as u32;
            let affordable = (self.max_budget.as_nanos() / per_sample.as_nanos().max(1)) as usize;
            (iters, affordable.clamp(3, self.samples))
        };

        let mut per_iter_ns: Vec<u64> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                (start.elapsed().as_nanos() as u64) / iters
            })
            .collect();
        per_iter_ns.sort_unstable();

        let result = BenchResult {
            id: id.to_string(),
            median_ns: per_iter_ns[per_iter_ns.len() / 2],
            min_ns: per_iter_ns[0],
            max_ns: *per_iter_ns.last().expect("at least 3 samples"),
            iters_per_sample: iters,
            samples,
        };
        eprintln!(
            "  {:<44} {:>12}/iter  (min {}, max {}, {}×{} iters)",
            result.id,
            format_ns(result.median_ns),
            format_ns(result.min_ns),
            format_ns(result.max_ns),
            result.samples,
            result.iters_per_sample,
        );
        self.results.push(result);
    }

    /// Results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Print the summary table and write the JSON sidecar.
    pub fn finish(self) {
        println!("\nsuite `{}` — median ns/iteration", self.name);
        for r in &self.results {
            println!("  {:<44} {:>12}", r.id, format_ns(r.median_ns));
        }
        let json = Json::object()
            .field("suite", self.name.as_str())
            .field("results", &self.results)
            .build();
        let path = format!("bench-{}.json", self.name);
        match std::fs::write(&path, impress_json::to_string_pretty(&json)) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_sane_timings() {
        let mut suite =
            Suite::with_budget("timing-selftest".into(), 11, Duration::from_millis(200));
        suite.bench("sum_1k", || (0..1000u64).sum::<u64>());
        let r = &suite.results()[0];
        assert_eq!(r.id, "sum_1k");
        assert!(r.median_ns > 0);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.samples >= 3);
    }

    #[test]
    fn results_round_trip_json() {
        let r = BenchResult {
            id: "x/y/8".into(),
            median_ns: 1234,
            min_ns: 1000,
            max_ns: 2000,
            iters_per_sample: 64,
            samples: 11,
        };
        let text = impress_json::to_string(&r);
        let back: BenchResult = impress_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn format_ns_picks_units() {
        assert_eq!(format_ns(500), "500 ns");
        assert_eq!(format_ns(25_000), "25.00 µs");
        assert_eq!(format_ns(25_000_000), "25.00 ms");
        assert_eq!(format_ns(12_000_000_000), "12.00 s");
    }
}
