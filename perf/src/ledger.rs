//! The ledger's documents and the tools that read them: the JSON a run
//! prints, the `BENCHMARK.json` contract, `perf check` and `perf compare`.
//!
//! JSON goes through `impress-json`, the repository's own dependency-free
//! reader and writer; it is a tool here, not a measured layer.

use crate::metrics::{Better, Def, END_TO_END, PER_LAYER};
use crate::run::{self, Args, Report};
use crate::stats;
use crate::workloads;
use impress_json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// The repository root: the parent of this package when cargo runs the
/// binary (it exports `CARGO_MANIFEST_DIR`), else the working directory,
/// which is where the benchmark command is run from.
pub fn repo_root() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .and_then(|dir| dir.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Where a run may leave files: `perf/out/`, which git ignores.
pub fn out_dir() -> PathBuf {
    repo_root().join("perf").join("out")
}

// ---------------------------------------------------------------------------
// What a run prints.
// ---------------------------------------------------------------------------

fn first_line_of(command: &mut Command) -> Option<String> {
    let output = command.output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// Where the numbers were taken: they compare only within one machine.
fn machine() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = first_line_of(Command::new("rustc").arg("-V"));
    let commit = first_line_of(
        Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .current_dir(repo_root()),
    );
    Json::object()
        .field("nproc", nproc)
        .field("cpu", cpu)
        .field("rustc", rustc.unwrap_or_else(|| "unknown".into()))
        .field("commit", commit.unwrap_or_else(|| "unknown".into()))
        .build()
}

fn metrics_json(report: &Report) -> Json {
    Json::Object(
        report
            .metrics
            .iter()
            .map(|(def, value)| {
                let entry = Json::object()
                    .field("value", value)
                    .field("unit", def.unit)
                    .build();
                (def.name.to_string(), entry)
            })
            .collect(),
    )
}

/// The ledger document of one run: every metric by name with its unit, the
/// op counts, the digest, and where and on what it was measured.
pub fn document(report: &Report) -> Json {
    Json::object()
        .field("ledger", 1u32)
        .field("workload", report.workload.as_str())
        .field("seed", report.seed)
        .field("seconds", report.seconds)
        .field("trace", u32::from(report.traced))
        .field("scale", report.scale)
        .field("size", report.size.as_str())
        .field("machine", machine())
        .field("units", report.units)
        .field("ops_attempted", report.attempted)
        .field("ops_failed", report.failed)
        .field(
            "failures",
            Json::array(report.failures.iter().map(String::as_str)),
        )
        .field("model_digest", format!("{:016x}", report.model_digest))
        .field(
            "op_ms_tail",
            report.op_ms_tail.map(|(quantile, ms)| {
                Json::object()
                    .field("quantile", quantile)
                    .field("ms", ms)
                    .build()
            }),
        )
        .field("op_ms_raw_p50", report.op_ms_raw_p50)
        .field("metrics", metrics_json(report))
        .build()
}

/// The result line the benchmark contract asks for: exactly these four keys.
pub fn result_line(report: &Report) -> Json {
    Json::object()
        .field("correct", report.correct())
        .field("attempted", report.attempted)
        .field("failed", report.failed)
        .field("metrics", metrics_json(report))
        .build()
}

/// The raw spans of the first traced unit, as `--dump-trace` writes them.
pub fn write_trace_dump(report: &Report) -> std::io::Result<Option<PathBuf>> {
    let Some(spans) = &report.raw_spans else {
        return Ok(None);
    };
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-{}.json", report.workload, report.seed));
    let spans = Json::array(spans.iter().map(|s| {
        Json::object()
            .field("name", s.span.name())
            .field("start_ns", s.start_ns)
            .field("end_ns", s.end_ns)
            .field("parent", s.parent)
            .build()
    }));
    std::fs::write(&path, impress_json::to_string(&spans))?;
    Ok(Some(path))
}

// ---------------------------------------------------------------------------
// The contract.
// ---------------------------------------------------------------------------

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse.
    pub bound: Option<f64>,
}

pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Contract {
    pub fn load(root: &Path) -> Result<Contract, String> {
        let path = root.join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Contract::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let json = impress_json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| {
            json.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("{key} is not a list"))
        };
        let text_of = |entry: &Json, key: &str| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("an entry lacks {key}"))
        };
        let declared = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|entry| {
                    Ok(Declared {
                        name: text_of(entry, "name")?,
                        unit: text_of(entry, "unit")?,
                        better: text_of(entry, "better")?,
                        bound: entry.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("run_seconds is not a number")?,
            workloads: list("workloads")?
                .iter()
                .map(|entry| text_of(entry, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: declared("end_to_end")?,
            per_layer: declared("per_layer")?,
        })
    }

    /// Everything in which the contract and the program disagree.
    pub fn mismatches(&self) -> Vec<String> {
        let mut out = Vec::new();
        let names: Vec<&str> = self.workloads.iter().map(String::as_str).collect();
        if names != workloads::NAMES {
            out.push(format!(
                "workloads are {names:?}, the program has {:?}",
                workloads::NAMES
            ));
        }
        for (what, contract, program) in [
            ("end_to_end", &self.end_to_end, &END_TO_END[..]),
            ("per_layer", &self.per_layer, &PER_LAYER[..]),
        ] {
            let same = |c: &Declared, p: &Def| {
                c.name == p.name && c.unit == p.unit && c.better == p.better.as_str()
            };
            for c in contract {
                if !program.iter().any(|p| same(c, p)) {
                    out.push(format!("{what} {c:?} is not what the program prints"));
                }
            }
            for p in program {
                if !contract.iter().any(|c| same(c, p)) {
                    out.push(format!("{what} {p:?} is printed but not in the contract"));
                }
            }
        }
        for metric in &self.end_to_end {
            if !metric.bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
                out.push(format!(
                    "{}: bound {:?} is outside (0, 0.25]",
                    metric.name, metric.bound
                ));
            }
        }
        out
    }

    fn bound(&self, metric: &str) -> f64 {
        self.end_to_end
            .iter()
            .find(|m| m.name == metric)
            .and_then(|m| m.bound)
            .unwrap_or(0.0)
    }
}

// ---------------------------------------------------------------------------
// perf check
// ---------------------------------------------------------------------------

/// How much smaller than the ledger's sizes `check` runs.
pub const CHECK_SCALE: f64 = 1.0 / 50.0;

/// Run every workload, untraced and traced, at a fiftieth of its size and
/// hold what it prints against `BENCHMARK.json`. Returns what is wrong.
pub fn check() -> Vec<String> {
    let started = Instant::now();
    let contract = match Contract::load(&repo_root()) {
        Ok(contract) => contract,
        Err(e) => return vec![e],
    };
    let mut problems = contract.mismatches();
    for name in workloads::NAMES {
        for traced in [false, true] {
            let args = Args {
                workload: name.to_string(),
                seed: 2025,
                seconds: contract.run_seconds * CHECK_SCALE,
                traced,
                scale: CHECK_SCALE,
                dump_trace: false,
                scratch: out_dir().join(format!("check-{}", std::process::id())),
            };
            let began = Instant::now();
            let report = match run::run(&args) {
                Ok(report) => report,
                Err(e) => {
                    problems.push(e);
                    continue;
                }
            };
            let tag = format!("{name} --trace {}", u8::from(traced));
            problems.extend(report.failures.iter().map(|f| format!("{tag}: {f}")));
            let printed = result_line(&report);
            let metrics = printed
                .get("metrics")
                .and_then(Json::as_object)
                .unwrap_or(&[]);
            let declared = if traced {
                &contract.per_layer
            } else {
                &contract.end_to_end
            };
            for Declared {
                name: metric, unit, ..
            } in declared
            {
                match metrics.iter().find(|(n, _)| n == metric) {
                    None => problems.push(format!("{tag}: {metric} is not printed")),
                    Some((_, entry)) => {
                        if entry.get("unit").and_then(Json::as_str) != Some(unit) {
                            problems.push(format!("{tag}: {metric} is not in {unit}"));
                        }
                        let value = entry.get("value").and_then(Json::as_f64);
                        if !traced && !value.is_some_and(|v| v > 0.0 && v.is_finite()) {
                            problems.push(format!("{tag}: {metric} reads {value:?}"));
                        }
                    }
                }
            }
            if metrics.len() != declared.len() {
                problems.push(format!(
                    "{tag}: {} metrics printed, {} in the contract",
                    metrics.len(),
                    declared.len()
                ));
            }
            eprintln!(
                "check {tag:<28} {:>4} ops  {:>6.2} s  {}",
                report.attempted,
                began.elapsed().as_secs_f64(),
                if report.correct() { "ok" } else { "FAILED" }
            );
        }
    }
    eprintln!("check took {:.1} s", started.elapsed().as_secs_f64());
    problems
}

// ---------------------------------------------------------------------------
// perf compare
// ---------------------------------------------------------------------------

/// The documents of one side of a comparison: every line of the file that
/// is a ledger document (result lines and anything else are skipped, so the
/// whole standard output of repeated runs can be appended to one file).
pub fn load_documents(path: &Path) -> Result<Vec<Json>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let documents: Vec<Json> = text
        .lines()
        .filter_map(|line| impress_json::parse(line).ok())
        .filter(|json| json.get("ledger").is_some() && json.get("workload").is_some())
        .collect();
    if documents.is_empty() {
        return Err(format!("{} holds no ledger document", path.display()));
    }
    Ok(documents)
}

fn metric_value(document: &Json, name: &str) -> Option<f64> {
    document.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn is_traced(document: &Json) -> bool {
    document.get("trace").and_then(Json::as_u64) == Some(1)
}

fn of_workload<'a>(documents: &'a [Json], workload: &str, traced: bool) -> Vec<&'a Json> {
    documents
        .iter()
        .filter(|d| d.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|d| is_traced(d) == traced)
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Regressed,
    /// The spread between repeated runs of one side exceeds the bound (or
    /// a side has a single run, so its spread is unknown).
    Unresolved,
}

/// Judge one end-to-end metric on one workload from both sides' repeated
/// runs. Returns the verdict and `(median a, median b, worse by, spread)`,
/// `worse by` being the share of `a`'s median by which `b`'s is worse.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, [f64; 4]) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = if a.len() < 2 || b.len() < 2 {
        f64::INFINITY
    } else {
        stats::spread(a).max(stats::spread(b))
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    (verdict, [ma, mb, worse, spread])
}

/// Values that must repeat exactly: per `(workload, seed)`, the digest and
/// every exact count, with every value each side reported for it.
fn exact_values(documents: &[Json]) -> BTreeMap<(String, u64, String), Vec<String>> {
    let mut out: BTreeMap<(String, u64, String), Vec<String>> = BTreeMap::new();
    for document in documents {
        let workload = document
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?");
        let seed = document.get("seed").and_then(Json::as_u64).unwrap_or(0);
        let mut note = |name: &str, value: String| {
            let values = out
                .entry((workload.to_string(), seed, name.to_string()))
                .or_default();
            if !values.contains(&value) {
                values.push(value);
            }
        };
        if let Some(digest) = document.get("model_digest").and_then(Json::as_str) {
            note("model_digest", digest.to_string());
        }
        if is_traced(document) {
            for def in PER_LAYER.iter().filter(|d| d.exact) {
                if let Some(value) = metric_value(document, def.name) {
                    note(def.name, format!("{value}"));
                }
            }
        }
    }
    out
}

/// Compare two sets of runs. Prints one row per end-to-end metric and
/// workload, then every exact value that differs; returns whether anything
/// regressed or differed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let contract = Contract::load(&repo_root())?;
    let (a, b) = (load_documents(a_path)?, load_documents(b_path)?);
    let mut bad = false;
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "spread", "bound"
    );
    for workload in workloads::NAMES {
        let (runs_a, runs_b) = (
            of_workload(&a, workload, false),
            of_workload(&b, workload, false),
        );
        if runs_a.is_empty() || runs_b.is_empty() {
            println!("{workload:<16} no untraced runs on one side");
            continue;
        }
        for def in &END_TO_END {
            let values = |runs: &[&Json]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|d| metric_value(d, def.name))
                    .collect()
            };
            let (va, vb) = (values(&runs_a), values(&runs_b));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<16} {:<12} missing on one side", def.name);
                bad = true;
                continue;
            }
            let bound = contract.bound(def.name);
            let (verdict, [ma, mb, worse, spread]) = judge(&va, &vb, def.better, bound);
            bad |= verdict == Verdict::Regressed;
            println!(
                "{workload:<16} {:<12} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
                def.name,
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Unchanged => "unchanged",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    for documents in [&a, &b] {
        for document in documents.iter() {
            if document.get("ops_failed").and_then(Json::as_u64) != Some(0) {
                let workload = document
                    .get("workload")
                    .and_then(Json::as_str)
                    .unwrap_or("?");
                println!("{workload}: a run reports failed ops");
                bad = true;
            }
        }
    }
    let (exact_a, exact_b) = (exact_values(&a), exact_values(&b));
    let mut differing = 0;
    for (key, values_a) in &exact_a {
        let values_b = exact_b.get(key).cloned().unwrap_or_default();
        let mut all = values_a.clone();
        for value in values_b {
            if !all.contains(&value) {
                all.push(value);
            }
        }
        if all.len() > 1 {
            let (workload, seed, name) = key;
            println!("exact value differs: {workload} seed {seed} {name}: {all:?}");
            differing += 1;
        }
    }
    println!("{differing} exact values differ");
    Ok(bad || differing > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Values;

    fn sample_report(traced: bool) -> Report {
        let mut metrics = Values::zeroed(if traced { &PER_LAYER } else { &END_TO_END });
        if traced {
            metrics.set("pilot.calls", 12.0);
        } else {
            metrics.set("setup_s", 0.25);
            metrics.set("op_ms_p50", 41.5);
        }
        Report {
            workload: workloads::PAPER_CAMPAIGN.into(),
            seed: 7,
            seconds: 1.0,
            traced,
            scale: 1.0,
            size: "tiny".into(),
            metrics,
            units: 3,
            attempted: 3,
            failed: 0,
            failures: Vec::new(),
            model_digest: 0xabc,
            op_ms_tail: None,
            op_ms_raw_p50: 0.0,
            raw_spans: None,
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_line(&sample_report(false));
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        let entry = line.get("metrics").unwrap().get("op_ms_p50").unwrap();
        assert_eq!(entry.get("value").and_then(Json::as_f64), Some(41.5));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some("ms"));
        let text = impress_json::to_string(&line);
        assert!(!text.contains('\n'));
        let mut failing = sample_report(false);
        failing.failed = 1;
        assert_eq!(
            result_line(&failing).get("correct").and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn documents_round_trip_through_compare_s_reader() {
        let dir = std::env::temp_dir().join(format!("impress-perf-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.jsonl");
        let report = sample_report(true);
        let text = format!(
            "warning: not json\n{}\n{}\n",
            impress_json::to_string(&document(&report)),
            impress_json::to_string(&result_line(&report)),
        );
        std::fs::write(&path, text).unwrap();
        let documents = load_documents(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(documents.len(), 1, "the result line is not a document");
        assert!(is_traced(&documents[0]));
        assert_eq!(metric_value(&documents[0], "pilot.calls"), Some(12.0));
        let exact = exact_values(&documents);
        let key = (
            workloads::PAPER_CAMPAIGN.to_string(),
            7,
            "model_digest".to_string(),
        );
        assert_eq!(exact[&key], ["0000000000000abc"]);
        let key = (
            workloads::PAPER_CAMPAIGN.to_string(),
            7,
            "pilot.calls".to_string(),
        );
        assert_eq!(exact[&key], ["12"]);
    }

    #[test]
    fn the_checked_in_contract_is_what_the_program_prints() {
        let contract = Contract::load(&repo_root()).expect("BENCHMARK.json at the repository root");
        assert_eq!(contract.mismatches(), Vec::<String>::new());
        assert!(contract.run_seconds >= 1.0 && contract.run_seconds <= 60.0);
        let setup = contract.bound("setup_s");
        assert!(
            contract.end_to_end.iter().all(|m| m.bound <= Some(setup)),
            "set-up has the largest bound"
        );
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [112.0, 113.0, 111.0, 112.5, 111.5];
        let (v, [ma, mb, worse, _]) = judge(&steady, &slower, Better::Lower, 0.10);
        assert_eq!(v, Verdict::Regressed);
        assert_eq!((ma, mb), (100.0, 112.0));
        assert!((worse - 0.12).abs() < 1e-12);
        // The same numbers are a gain when higher is better, and a gain is
        // not a regression.
        assert_eq!(
            judge(&steady, &slower, Better::Higher, 0.10).0,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&slower, &steady, Better::Higher, 0.10).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady, &steady, Better::Lower, 0.10).0,
            Verdict::Unchanged
        );
        // Runs that scatter more than the bound resolve nothing.
        let noisy = [80.0, 120.0, 100.0, 90.0, 115.0];
        assert_eq!(
            judge(&noisy, &slower, Better::Lower, 0.10).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&[100.0], &[150.0], Better::Lower, 0.10).0,
            Verdict::Unresolved
        );
    }
}
