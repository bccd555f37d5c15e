//! Hermetic-build guard: the workspace must never regain a crates.io
//! dependency. Every entry in every dependency table — root
//! `[workspace.dependencies]` and each member's `[dependencies]` /
//! `[dev-dependencies]` / `[build-dependencies]` — must be either a `path`
//! dependency or `workspace = true` (which resolves to one).
//!
//! This is the policy the root `Cargo.toml` comment points at. If this test
//! fails, someone reintroduced a registry dependency and tier-1 verify will
//! break on any machine without network access to a package index.

use std::path::{Path, PathBuf};

/// All manifests in the workspace: the root plus every `crates/*` member.
fn workspace_manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ dir");
    for entry in crates {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(
        manifests.len() >= 2,
        "expected root + member manifests, found {manifests:?}"
    );
    manifests
}

/// True for section headers that declare dependencies, e.g.
/// `[dependencies]`, `[dev-dependencies]`, `[workspace.dependencies]`,
/// `[target.'cfg(unix)'.dependencies]`, or a single-dependency table like
/// `[dependencies.foo]`.
fn is_dependency_section(header: &str) -> bool {
    header.split('.').any(|part| {
        part == "dependencies" || part == "dev-dependencies" || part == "build-dependencies"
    })
}

/// A dependency entry is hermetic if it resolves via a path: either an
/// inline table containing `path = ...`, or the workspace-inherited forms
/// `foo = { workspace = true }` / `foo.workspace = true` (the root
/// `[workspace.dependencies]` is itself checked to be all-path).
fn entry_is_hermetic(name: &str, spec: &str) -> bool {
    name.ends_with(".workspace") || spec.contains("path") || spec.contains("workspace")
}

#[test]
fn no_registry_dependencies_anywhere() {
    let mut violations = Vec::new();

    for manifest in workspace_manifests() {
        let text = std::fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()));
        let mut in_dep_section = false;
        // Header of a `[dependencies.foo]`-style table currently being
        // scanned, with a flag for whether a `path` key was seen.
        let mut dep_table: Option<(String, bool)> = None;

        for raw in text.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                if let Some((header, saw_path)) = dep_table.take() {
                    if !saw_path {
                        violations.push(format!("{}: [{header}] has no path", manifest.display()));
                    }
                }
                let header = line.trim_matches(|c| c == '[' || c == ']');
                let is_dep = is_dependency_section(header);
                // `[dependencies.foo]` opens a per-dependency table whose
                // keys we must scan for `path`.
                let per_dep = is_dep
                    && header
                        .rsplit('.')
                        .next()
                        .map(|last| !last.ends_with("dependencies"))
                        .unwrap_or(false);
                if per_dep {
                    dep_table = Some((header.to_string(), false));
                    in_dep_section = false;
                } else {
                    in_dep_section = is_dep;
                }
                continue;
            }
            if let Some((_, saw_path)) = dep_table.as_mut() {
                if line.starts_with("path") {
                    *saw_path = true;
                }
                continue;
            }
            if !in_dep_section {
                continue;
            }
            let Some((name, spec)) = line.split_once('=') else {
                continue;
            };
            if !entry_is_hermetic(name.trim(), spec) {
                violations.push(format!(
                    "{}: `{}` is not a path/workspace dependency: {}",
                    manifest.display(),
                    name.trim(),
                    spec.trim()
                ));
            }
        }
        if let Some((header, saw_path)) = dep_table {
            if !saw_path {
                violations.push(format!("{}: [{header}] has no path", manifest.display()));
            }
        }
    }

    assert!(
        violations.is_empty(),
        "registry dependencies reintroduced — the workspace must stay hermetic \
         (path-only deps):\n{}",
        violations.join("\n")
    );
}

/// The tier-1 line is a bare `cargo test -q`. Without `default-members`
/// that is the root package alone — a tenth of the workspace's tests, and
/// none of the crate-level differential, props or zero-alloc suites.
#[test]
fn a_bare_cargo_test_covers_every_workspace_member() {
    let manifest =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
            .expect("read root Cargo.toml");
    let workspace: Vec<&str> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[workspace]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .collect();
    assert!(
        workspace.contains(&r#"members = ["crates/*"]"#),
        "[workspace] members changed: {workspace:?}"
    );
    assert!(
        workspace.contains(&r#"default-members = [".", "crates/*"]"#),
        "[workspace] must keep default-members = the root package and every member: {workspace:?}"
    );
}

/// Every bench-suite source file must be declared in the bench crate's
/// manifest. `cargo build`/`cargo test` silently skip an undeclared
/// `src/bin/*.rs` or `benches/*.rs` (the crate has `harness = false`
/// benches, so auto-discovery is off), which would let a broken study
/// binary rot unnoticed until someone tries to regenerate an artifact.
/// Tier-1 verify compiles the suites (`cargo build --benches`); this
/// guard makes sure there is nothing the compile pass cannot see.
#[test]
fn every_bench_suite_is_declared_in_the_manifest() {
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench");
    let manifest = std::fs::read_to_string(bench_dir.join("Cargo.toml"))
        .expect("read crates/bench/Cargo.toml");

    let stems = |dir: &Path| -> Vec<String> {
        let mut out: Vec<String> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .map(|entry| entry.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "rs"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        out.sort();
        out
    };

    let mut missing = Vec::new();
    for stem in stems(&bench_dir.join("src/bin")) {
        // `[[bin]]` entries name the target and point at the source path.
        if !manifest.contains(&format!("path = \"src/bin/{stem}.rs\"")) {
            missing.push(format!("src/bin/{stem}.rs has no [[bin]] entry"));
        }
    }
    for stem in stems(&bench_dir.join("benches")) {
        if !manifest.contains(&format!("name = \"{stem}\"")) {
            missing.push(format!("benches/{stem}.rs has no [[bench]] entry"));
        }
    }
    assert!(
        missing.is_empty(),
        "undeclared bench-crate targets (cargo will silently skip them):\n{}",
        missing.join("\n")
    );
}

/// The checked-in recovery study must stay loadable and must agree with
/// the code on the journal's on-disk format version. A version bump in
/// `impress_workflow::journal` without regenerating `recovery.json`
/// (`cargo run --release -p impress-bench --bin recovery`) fails here.
/// Deliberately *not* a byte comparison: the study's replay wall-clock
/// milliseconds are machine-dependent; only the structure is pinned.
#[test]
fn recovery_artifact_matches_the_journal_format_version() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("recovery.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} — run the recovery bin", path.display()));
    let json: impress_json::Json = impress_json::from_str(&text).expect("recovery.json parses");
    let version: u32 = json
        .get("format_version")
        .and_then(|v| v.as_f64())
        .expect("recovery.json has a format_version field") as u32;
    assert_eq!(
        version,
        impress_workflow::JOURNAL_FORMAT_VERSION,
        "recovery.json was generated under a different journal format — regenerate it"
    );
    let rows = json
        .get("rows")
        .and_then(|r| r.as_array())
        .expect("recovery.json has rows");
    assert!(!rows.is_empty(), "recovery study must report cells");
    for row in rows {
        assert_eq!(
            row.get("byte_identical").and_then(|b| b.as_bool()),
            Some(true),
            "every checked-in recovery cell must have resumed byte-identically: {row:?}"
        );
    }
}

/// The checked-in scheduler bench artifact must match the study's current
/// document layout and carry both sides of the comparison: the live
/// results *and* the embedded pre-optimization baseline. Deliberately not
/// a byte comparison — the medians are machine-dependent; only the
/// structure is pinned. Regenerate with
/// `cargo run --release -p impress-bench --bin sched_bench`.
#[test]
fn scheduler_bench_artifact_matches_the_study_format_version() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_scheduler.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} — run the sched_bench bin", path.display()));
    let json: impress_json::Json =
        impress_json::from_str(&text).expect("BENCH_scheduler.json parses");
    let version: u32 = json
        .get("format_version")
        .and_then(|v| v.as_f64())
        .expect("BENCH_scheduler.json has a format_version field") as u32;
    assert_eq!(
        version,
        impress_bench::sched::SCHED_BENCH_FORMAT_VERSION,
        "BENCH_scheduler.json was generated under a different study format — regenerate it"
    );
    let results = json
        .get("results")
        .and_then(|r| r.as_array())
        .expect("BENCH_scheduler.json has results");
    assert!(!results.is_empty(), "bench study must report cases");
    let baseline = json.get("baseline").expect("baseline section present");
    let micro = baseline
        .get("micro")
        .and_then(|m| m.as_array())
        .expect("baseline has micro rows");
    assert!(!micro.is_empty(), "baseline must document the before-shape");
    let speedups = json
        .get("speedups")
        .and_then(|s| s.as_array())
        .expect("speedups section present");
    assert!(
        !speedups.is_empty(),
        "artifact must compare live results against the baseline"
    );
    json.get("imrp_campaign")
        .and_then(|c| c.get("wall_ms"))
        .and_then(|v| v.as_f64())
        .expect("end-to-end campaign timing present");
    let overhead = json
        .get("telemetry_overhead")
        .and_then(|t| t.get("overhead_ratio"))
        .and_then(|v| v.as_f64())
        .expect("telemetry overhead comparison present");
    assert!(
        overhead > 0.0 && overhead.is_finite(),
        "telemetry overhead ratio must be a real measurement: {overhead}"
    );
}

/// One tiny iteration of the scheduler bench study runs under `cargo test`,
/// so the code that regenerates `BENCH_scheduler.json` cannot bit-rot
/// between releases. The sample budget is clamped to keep this a smoke
/// test, not a benchmark.
#[test]
fn scheduler_bench_smoke_iteration_produces_a_complete_document() {
    std::env::set_var("IMPRESS_BENCH_SAMPLES", "1");
    std::env::set_var("IMPRESS_BENCH_MAX_SECS", "0.2");
    let doc = impress_bench::sched::run_study(&impress_bench::sched::StudyParams::smoke(), 7);
    assert_eq!(
        doc.get("format_version").and_then(|v| v.as_f64()),
        Some(impress_bench::sched::SCHED_BENCH_FORMAT_VERSION as f64)
    );
    let results = doc
        .get("results")
        .and_then(|r| r.as_array())
        .expect("smoke study has results");
    // One depth × two policies + one cluster case.
    assert_eq!(results.len(), 3, "smoke study covers every code path");
    assert!(
        doc.get("imrp_campaign")
            .and_then(|c| c.get("makespan_hours"))
            .and_then(|v| v.as_f64())
            .is_some_and(|h| h > 0.0),
        "smoke campaign ran to completion"
    );
    assert!(
        doc.get("telemetry_overhead")
            .and_then(|t| t.get("null_sink_wall_ms"))
            .and_then(|v| v.as_f64())
            .is_some_and(|ms| ms > 0.0),
        "smoke study measured the null-sink campaign"
    );
}

/// The checked-in telemetry trace study must match the current document
/// layout and certify all three trace contracts. Unlike the timing
/// artifacts this one is fully deterministic (event counts, span counts,
/// metric counters — no wall-clock readings), but the guard still pins
/// structure + invariants rather than bytes so a seed change stays a
/// one-regeneration fix. Regenerate with
/// `cargo run --release -p impress-bench --bin trace_study`.
#[test]
fn trace_artifact_matches_the_study_format_version() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("trace_summary.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} — run the trace_study bin", path.display()));
    let json: impress_json::Json =
        impress_json::from_str(&text).expect("trace_summary.json parses");
    let version: u32 = json
        .get("format_version")
        .and_then(|v| v.as_f64())
        .expect("trace_summary.json has a format_version field") as u32;
    assert_eq!(
        version,
        impress_bench::trace::TRACE_FORMAT_VERSION,
        "trace_summary.json was generated under a different study format — regenerate it"
    );
    for key in ["perturbation_free", "nesting_ok", "chrome_round_trip_ok"] {
        assert_eq!(
            json.get(key).and_then(|v| v.as_bool()),
            Some(true),
            "checked-in trace study must certify `{key}`"
        );
    }
    assert_eq!(
        json.get("parity")
            .and_then(|p| p.get("backends_agree"))
            .and_then(|v| v.as_bool()),
        Some(true),
        "checked-in trace study must certify cross-backend virtual-trace parity"
    );
    let campaign = json.get("campaign").expect("campaign section present");
    assert!(
        campaign
            .get("events")
            .and_then(|v| v.as_f64())
            .is_some_and(|n| n > 0.0),
        "recorded campaign must contain events"
    );
    assert_eq!(
        campaign.get("events_dropped").and_then(|v| v.as_f64()),
        Some(0.0),
        "the study ring must be large enough to record the campaign losslessly"
    );
}

/// One tiny iteration of the trace study runs under `cargo test`, so the
/// code that regenerates `trace_summary.json` cannot bit-rot between
/// releases — and the three trace contracts are re-proven on every test
/// run, not just at artifact-regeneration time.
#[test]
fn trace_study_smoke_iteration_certifies_every_contract() {
    let doc = impress_bench::trace::run_study(&impress_bench::trace::TraceParams::smoke(), 7);
    assert_eq!(
        doc.get("format_version").and_then(|v| v.as_f64()),
        Some(impress_bench::trace::TRACE_FORMAT_VERSION as f64)
    );
    for key in ["perturbation_free", "nesting_ok", "chrome_round_trip_ok"] {
        assert_eq!(
            doc.get(key).and_then(|v| v.as_bool()),
            Some(true),
            "smoke trace study failed `{key}`"
        );
    }
    assert_eq!(
        doc.get("parity")
            .and_then(|p| p.get("backends_agree"))
            .and_then(|v| v.as_bool()),
        Some(true),
        "smoke trace study: backends disagreed on the virtual trace"
    );
}

/// The checked-in sim-engine scaling artifact must match the study's
/// current document layout and carry both sides of the comparison: the
/// live sharded-engine results *and* the embedded pre-sharding baseline —
/// including the headline claim the study exists to make: the 10k-node /
/// 1M-task campaign (unmeasurable on the old engine; its baseline cell is
/// `null`) drains in single-digit seconds. Deliberately not a byte
/// comparison — wall times are machine-dependent; only the structure and
/// the headline invariant are pinned. Regenerate with
/// `cargo run --release -p impress-bench --bin sim_bench`.
#[test]
fn sim_bench_artifact_matches_the_study_format_version() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_sim.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} — run the sim_bench bin", path.display()));
    let json: impress_json::Json = impress_json::from_str(&text).expect("BENCH_sim.json parses");
    let version: u32 = json
        .get("format_version")
        .and_then(|v| v.as_f64())
        .expect("BENCH_sim.json has a format_version field") as u32;
    assert_eq!(
        version,
        impress_bench::sim::SIM_BENCH_FORMAT_VERSION,
        "BENCH_sim.json was generated under a different study format — regenerate it"
    );
    let results = json
        .get("results")
        .and_then(|r| r.as_array())
        .expect("BENCH_sim.json has results");
    assert!(!results.is_empty(), "sim study must report rows");
    let cells = json
        .get("baseline")
        .and_then(|b| b.get("cells"))
        .and_then(|c| c.as_array())
        .expect("baseline cells present");
    assert!(
        cells
            .iter()
            .any(|c| c.get("wall_ms").is_some_and(|v| v.is_null())),
        "baseline must document the cell the old engine could not measure"
    );
    assert!(
        !json
            .get("speedups")
            .and_then(|s| s.as_array())
            .expect("speedups section present")
            .is_empty(),
        "artifact must compare the sharded engine against the baseline"
    );
    let headline = json.get("headline").expect("headline section present");
    assert_eq!(
        headline.get("nodes").and_then(|v| v.as_u64()),
        Some(10_000),
        "headline must be the 10k-node campaign"
    );
    assert_eq!(
        headline.get("tasks").and_then(|v| v.as_u64()),
        Some(1_000_000),
        "headline must be the 1M-task campaign"
    );
    assert_eq!(
        headline.get("single_digit_seconds").and_then(|v| v.as_bool()),
        Some(true),
        "the checked-in headline cell must drain in single-digit seconds"
    );
}

/// One tiny iteration of the sim scaling study runs under `cargo test`,
/// so the code that regenerates `BENCH_sim.json` cannot bit-rot between
/// releases. The smoke cell runs all three engines (sequential, sharded,
/// sharded-parallel) on a campaign small enough to stay a smoke test.
#[test]
fn sim_bench_smoke_iteration_produces_a_complete_document() {
    let doc = impress_bench::sim::run_study(&impress_bench::sim::StudyParams::smoke(), 7);
    assert_eq!(
        doc.get("format_version").and_then(|v| v.as_f64()),
        Some(impress_bench::sim::SIM_BENCH_FORMAT_VERSION as f64)
    );
    let results = doc
        .get("results")
        .and_then(|r| r.as_array())
        .expect("smoke study has results");
    assert_eq!(results.len(), 3, "smoke study covers all three engines");
    for row in results {
        assert_eq!(
            row.get("completed").and_then(|v| v.as_u64()),
            row.get("tasks").and_then(|v| v.as_u64()),
            "every smoke campaign must drain fully: {row:?}"
        );
    }
    doc.get("headline")
        .and_then(|h| h.get("wall_ms"))
        .and_then(|v| v.as_f64())
        .expect("smoke study reports a headline cell");
}

/// The checked-in gray-failure study artifact must match the study's
/// current document layout and certify both resilience claims it exists
/// to make: hedging at k=2 recovers the majority of the makespan a 10x
/// straggler tail costs, and quarantine bounds poisoned-lineage waste to
/// the distinct-node budget. The study is fully deterministic (virtual
/// clock, fixed seed), but the guard pins structure + claims rather than
/// bytes so a parameter change stays a one-regeneration fix. Regenerate
/// with `cargo run --release -p impress-bench --bin straggler_study`.
#[test]
fn straggler_artifact_matches_the_study_format_version() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("straggler.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} — run the straggler_study bin", path.display()));
    let json: impress_json::Json = impress_json::from_str(&text).expect("straggler.json parses");
    let version: u32 = json
        .get("format_version")
        .and_then(|v| v.as_f64())
        .expect("straggler.json has a format_version field") as u32;
    assert_eq!(
        version,
        impress_bench::straggler::STRAGGLER_FORMAT_VERSION,
        "straggler.json was generated under a different study format — regenerate it"
    );
    let acceptance = json.get("acceptance").expect("acceptance section present");
    for key in ["k2_recovers_majority", "quarantine_bounds_poison_waste"] {
        assert_eq!(
            acceptance.get(key).and_then(|v| v.as_bool()),
            Some(true),
            "checked-in straggler study must certify `{key}`"
        );
    }
    let rows = json
        .get("rows")
        .and_then(|r| r.as_array())
        .expect("straggler.json has a rows array");
    assert_eq!(
        rows.len(),
        24,
        "the study sweeps 4 severities x 3 hedge modes x 2 quarantine modes"
    );
    for row in rows {
        assert!(
            row.get("makespan_secs").and_then(|v| v.as_f64()).is_some_and(|m| m > 0.0),
            "every cell must report a positive makespan: {row:?}"
        );
    }
}

/// One tiny iteration of the gray-failure study runs under `cargo test`,
/// so the code that regenerates `straggler.json` cannot bit-rot between
/// releases. The smoke grid keeps every code path warm — scripted
/// slowdowns, hedged duplicates, poison quarantine, circuit-breaker
/// shedding — without asserting the paper-scale recovery bar, which only
/// the full grid is sized to meet.
#[test]
fn straggler_smoke_iteration_produces_a_complete_document() {
    let doc =
        impress_bench::straggler::run_study(&impress_bench::straggler::StudyParams::smoke(), 7);
    assert_eq!(
        doc.get("format_version").and_then(|v| v.as_f64()),
        Some(impress_bench::straggler::STRAGGLER_FORMAT_VERSION as f64)
    );
    let rows = doc
        .get("rows")
        .and_then(|r| r.as_array())
        .expect("smoke study has rows");
    assert_eq!(
        rows.len(),
        24,
        "smoke study sweeps the same 24-cell grid as the paper run"
    );
    for row in rows {
        let completed = row.get("completed").and_then(|v| v.as_u64()).unwrap_or(0);
        let poisoned = row.get("poisoned").and_then(|v| v.as_u64()).unwrap_or(0);
        let shed = row.get("shed").and_then(|v| v.as_u64()).unwrap_or(0);
        let timed_out = row.get("timed_out").and_then(|v| v.as_u64()).unwrap_or(0);
        assert!(
            completed + poisoned + shed + timed_out > 0,
            "every smoke cell must drain its campaign: {row:?}"
        );
        assert!(
            row.get("makespan_secs").and_then(|v| v.as_f64()).is_some_and(|m| m > 0.0),
            "every smoke cell must report a positive makespan: {row:?}"
        );
    }
    let quarantined: Vec<_> = rows
        .iter()
        .filter(|r| r.get("quarantine").and_then(|v| v.as_str()) == Some("on"))
        .collect();
    assert!(
        quarantined.iter().any(|r| r.get("poisoned").and_then(|v| v.as_u64()).unwrap_or(0) > 0),
        "quarantine-on smoke cells must actually poison the doomed lineages"
    );
    doc.get("acceptance")
        .and_then(|a| a.get("k2_recovered_fraction"))
        .and_then(|v| v.as_f64())
        .expect("smoke study computes the recovery fraction");
}

/// Every `.rs` file under `dir`, build output excepted.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The deprecated pilot constructor shims and `Session` probes completed
/// their one-release sunset and were deleted; the workspace is now a
/// zero-`#[deprecated]` codebase by policy. Deprecation here means
/// *delete on schedule*, not *accumulate* — any future shim must carry a
/// removal plan, and this guard forces the conversation by failing the
/// moment a `#[deprecated]` attribute (or an `#[allow(deprecated)]`
/// suppression) reappears anywhere in the workspace sources.
#[test]
fn no_deprecated_items_anywhere_in_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Only this guard file may spell the needles (it has to name them to
    // search for them).
    let allowlist: [&Path; 1] = [Path::new("tests/hermetic.rs")];
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "src"] {
        rs_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 20, "expected to scan the whole workspace");
    let mut violations = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).expect("workspace-relative path");
        if allowlist.contains(&rel) {
            continue;
        }
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        for needle in ["#[deprecated", "#![deprecated", "(deprecated)"] {
            for (i, line) in text.lines().enumerate() {
                if line.contains(needle) {
                    violations.push(format!("{}:{}: {}", rel.display(), i + 1, line.trim()));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "deprecated items reintroduced — delete them or ship them with a removal plan \
         (and update this guard deliberately):\n{}",
        violations.join("\n")
    );
}

/// `SimulatedBackend` and `ShardedBackend` are two clocks over ONE set of
/// attempt-lifecycle handlers (`crates/pilot/src/backend/des.rs`). They
/// used to be two copies kept equal by hand, the second one written as
/// closures for an engine only it used. This guard fails the moment an
/// engine change re-forks a handler into a driver, or the closure engine
/// comes back. (`threaded.rs` still has its own; it is next.)
#[test]
fn the_virtual_time_backends_share_one_set_of_lifecycle_handlers() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut drivers = Vec::new();
    rs_files(&root.join("crates/pilot/src/backend"), &mut drivers);
    drivers.retain(|f| !f.ends_with("threaded.rs"));
    assert!(drivers.len() >= 3, "expected the core and its two drivers");
    let sources: Vec<(PathBuf, String)> = drivers
        .into_iter()
        .map(|f| {
            let text = std::fs::read_to_string(&f).expect("read backend source");
            (f, text)
        })
        .collect();
    for handler in [
        "fn place_ready(",
        "fn fail_attempt(",
        "fn hedge_check(",
        "fn deliver_done(",
        "fn suspect_node(",
        "fn finish_task(",
    ] {
        let homes: Vec<_> = sources
            .iter()
            .filter(|(_, text)| text.contains(handler))
            .map(|(f, _)| f.display().to_string())
            .collect();
        assert_eq!(homes.len(), 1, "`{handler}` must have exactly one home: {homes:?}");
    }

    assert!(
        !root.join("crates/sim/src/engine.rs").exists(),
        "the closure engine was deleted with its last caller"
    );
    // Spelled in two halves so that this file does not name it either.
    let engine = ["impress_sim", "Engine"].join("::");
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "src", "perf/src"] {
        rs_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 20, "expected to scan the whole workspace");
    for file in files {
        let text = std::fs::read_to_string(&file).expect("read workspace source");
        assert!(!text.contains(&engine), "{} names {engine}", file.display());
    }
}

/// The root `[workspace.dependencies]` entries themselves must all be
/// `path` specs, since member `workspace = true` entries resolve to them.
#[test]
fn workspace_dependency_table_is_all_paths() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let text = std::fs::read_to_string(&root).expect("read root Cargo.toml");
    let mut in_table = false;
    let mut entries = 0usize;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_table = line == "[workspace.dependencies]";
            continue;
        }
        if !in_table || line.is_empty() {
            continue;
        }
        entries += 1;
        assert!(
            line.contains("path ="),
            "non-path entry in [workspace.dependencies]: {line}"
        );
    }
    assert!(entries > 0, "expected a populated [workspace.dependencies]");
}

/// The checked-in partition study artifact must match the study's current
/// document layout and certify both resilience claims it exists to make:
/// journal/DecisionEngine effects stay exactly-once at every swept
/// drop/duplication rate, and heartbeat detection recovers >= 90% of the
/// makespan a healed 60 s partition costs. The study is fully
/// deterministic (virtual clock, fixed seed), but the guard pins
/// structure + claims rather than bytes so a parameter change stays a
/// one-regeneration fix. Regenerate with
/// `cargo run --release -p impress-bench --bin partition_study`.
#[test]
fn partition_artifact_matches_the_study_format_version() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("partition.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} — run the partition_study bin", path.display()));
    let json: impress_json::Json = impress_json::from_str(&text).expect("partition.json parses");
    let version: u32 = json
        .get("format_version")
        .and_then(|v| v.as_f64())
        .expect("partition.json has a format_version field") as u32;
    assert_eq!(
        version,
        impress_bench::partition::PARTITION_FORMAT_VERSION,
        "partition.json was generated under a different study format — regenerate it"
    );
    let acceptance = json.get("acceptance").expect("acceptance section present");
    for key in ["exactly_once_at_every_rate", "detection_recovers_90pct"] {
        assert_eq!(
            acceptance.get(key).and_then(|v| v.as_bool()),
            Some(true),
            "checked-in partition study must certify `{key}`"
        );
    }
    assert_eq!(
        acceptance.get("grid_duplicate_completions").and_then(|v| v.as_f64()),
        Some(0.0),
        "the grid must observe zero duplicate completions"
    );
    assert_eq!(
        acceptance.get("delivery_duplicate_effects").and_then(|v| v.as_f64()),
        Some(0.0),
        "the delivery campaigns must observe zero duplicate journal/decision effects"
    );
    let grid = json
        .get("grid")
        .and_then(|r| r.as_array())
        .expect("partition.json has a grid array");
    assert_eq!(
        grid.len(),
        36,
        "the study sweeps 3 loss rates x 4 partition durations x 3 detector settings"
    );
    for row in grid {
        assert!(
            row.get("makespan_secs").and_then(|v| v.as_f64()).is_some_and(|m| m > 0.0),
            "every grid cell must report a positive makespan: {row:?}"
        );
        assert_eq!(
            row.get("duplicate_completions").and_then(|v| v.as_f64()),
            Some(0.0),
            "exactly-once must hold in every grid cell: {row:?}"
        );
    }
    let delivery = json
        .get("delivery")
        .and_then(|r| r.as_array())
        .expect("partition.json has a delivery array");
    assert_eq!(delivery.len(), 3, "one journaled delivery campaign per loss rate");
    for row in delivery {
        for key in ["duplicate_decision_effects", "duplicate_journal_effects"] {
            assert_eq!(
                row.get(key).and_then(|v| v.as_f64()),
                Some(0.0),
                "`{key}` must be zero in every delivery campaign: {row:?}"
            );
        }
    }
}

/// One tiny iteration of the partition study runs under `cargo test`, so
/// the code that regenerates `partition.json` cannot bit-rot between
/// releases. The smoke grid keeps every code path warm — lossy links,
/// scripted partitions, heartbeat suspicion and lease-fenced reruns,
/// journaled delivery with coordinator-boundary dedup — without asserting
/// the paper-scale 90% recovery bar, which only the full grid is sized to
/// meet. Exactly-once, by contrast, must hold at any scale.
#[test]
fn partition_smoke_iteration_produces_a_complete_document() {
    let doc =
        impress_bench::partition::run_study(&impress_bench::partition::StudyParams::smoke(), 7);
    assert_eq!(
        doc.get("format_version").and_then(|v| v.as_f64()),
        Some(impress_bench::partition::PARTITION_FORMAT_VERSION as f64)
    );
    let grid = doc
        .get("grid")
        .and_then(|r| r.as_array())
        .expect("smoke study has a grid");
    assert_eq!(
        grid.len(),
        36,
        "smoke study sweeps the same 36-cell grid as the paper run"
    );
    let tasks = doc.get("tasks").and_then(|v| v.as_u64()).expect("smoke study reports tasks");
    for row in grid {
        assert_eq!(
            row.get("completed").and_then(|v| v.as_u64()),
            Some(tasks),
            "every smoke campaign must drain fully: {row:?}"
        );
        assert_eq!(
            row.get("duplicate_completions").and_then(|v| v.as_f64()),
            Some(0.0),
            "exactly-once must hold in every smoke cell: {row:?}"
        );
    }
    let detected: Vec<_> = grid
        .iter()
        .filter(|r| r.get("detector").and_then(|v| v.as_str()) != Some("off"))
        .collect();
    assert!(
        detected.iter().any(|r| r.get("suspicions").and_then(|v| v.as_f64()).unwrap_or(0.0) > 0.0),
        "detector-on smoke cells must actually suspect the partitioned node"
    );
    assert!(
        detected
            .iter()
            .any(|r| r.get("lease_expiries").and_then(|v| v.as_f64()).unwrap_or(0.0) > 0.0),
        "suspicion eviction must expire the trapped leases in some smoke cell"
    );
    let delivery = doc
        .get("delivery")
        .and_then(|r| r.as_array())
        .expect("smoke study has a delivery array");
    assert_eq!(delivery.len(), 3);
    for row in delivery {
        for key in ["duplicate_decision_effects", "duplicate_journal_effects"] {
            assert_eq!(
                row.get(key).and_then(|v| v.as_f64()),
                Some(0.0),
                "`{key}` must be zero in every smoke delivery campaign: {row:?}"
            );
        }
    }
    doc.get("acceptance")
        .and_then(|a| a.get("exactly_once_at_every_rate"))
        .and_then(|v| v.as_bool())
        .expect("smoke study reports the exactly-once verdict");
}

/// The checked-in coordinator fast-path study must match the study's
/// current document layout and certify the claims it exists to make: the
/// group-commit + slab-dispatch fast path cuts journaled-campaign
/// overhead at least 5x against the embedded pre-optimization baseline
/// (file-store cell), and 1,000 concurrent journaled coordinators drain
/// to completion on one thread. Structure + claims, never wall-clock
/// bytes (those are machine-dependent). Regenerate with
/// `cargo run --release -p impress-bench --bin coord_bench`.
#[test]
fn coord_bench_artifact_matches_the_study_format_version() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_coord.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} — run the coord_bench bin", path.display()));
    let json: impress_json::Json = impress_json::from_str(&text).expect("BENCH_coord.json parses");
    let version: u32 = json
        .get("format_version")
        .and_then(|v| v.as_f64())
        .expect("BENCH_coord.json has a format_version field") as u32;
    assert_eq!(
        version,
        impress_bench::coord::COORD_BENCH_FORMAT_VERSION,
        "BENCH_coord.json was generated under a different study format — regenerate it"
    );
    let results = json
        .get("results")
        .and_then(|r| r.as_array())
        .expect("BENCH_coord.json has results");
    assert_eq!(results.len(), 2, "one overhead cell per journal store");
    json.get("baseline")
        .and_then(|b| b.get("commit"))
        .and_then(|c| c.as_str())
        .expect("baseline must name the pre-optimization commit");
    let reductions = json
        .get("overhead_reductions")
        .and_then(|r| r.as_array())
        .expect("overhead_reductions section present");
    assert_eq!(reductions.len(), 2, "both stores compare against baseline");
    let headline = json.get("headline").expect("headline section present");
    assert_eq!(
        headline.get("coordinators").and_then(|v| v.as_u64()),
        Some(1000),
        "headline must be the 1k-concurrent-coordinator cell"
    );
    assert_eq!(
        headline.get("all_completed").and_then(|v| v.as_bool()),
        Some(true),
        "every concurrent campaign in the checked-in headline must complete"
    );
    assert_eq!(
        headline
            .get("five_x_file_overhead_reduction")
            .and_then(|v| v.as_bool()),
        Some(true),
        "the checked-in artifact must certify the 5x file-overhead reduction"
    );
}

/// One tiny iteration of the coordinator study runs under `cargo test`,
/// so the code that regenerates `BENCH_coord.json` cannot bit-rot. The
/// smoke grid covers both journal stores and a small concurrent fleet.
#[test]
fn coord_bench_smoke_iteration_produces_a_complete_document() {
    let doc = impress_bench::coord::run_study(&impress_bench::coord::StudyParams::smoke(), 7);
    assert_eq!(
        doc.get("format_version").and_then(|v| v.as_f64()),
        Some(impress_bench::coord::COORD_BENCH_FORMAT_VERSION as f64)
    );
    let results = doc
        .get("results")
        .and_then(|r| r.as_array())
        .expect("smoke study has results");
    assert_eq!(results.len(), 2, "smoke grid covers memory and file stores");
    for row in results {
        assert!(
            row.get("records").and_then(|v| v.as_u64()).unwrap_or(0) > 0,
            "every smoke cell must journal records: {row:?}"
        );
        assert!(
            row.get("journaled_ms").and_then(|v| v.as_f64()).is_some(),
            "every smoke cell must time the journaled drain: {row:?}"
        );
    }
    let headline = doc.get("headline").expect("smoke study has a headline");
    assert_eq!(
        headline.get("all_completed").and_then(|v| v.as_bool()),
        Some(true),
        "every smoke concurrent campaign must drain to completion"
    );
}

/// The checked-in multi-tenant campaign-service study must match the
/// study's current document layout and certify the claims it exists to
/// make: 1,000+ concurrent campaigns on the simulated 1,000-node cluster,
/// every campaign completed, Jain fairness ≥ 0.9 under equal weights,
/// p50/p99 campaign latency and a scheduler-overhead comparison reported,
/// and the weight-4 tenant served no worse than the weight-1 tenant.
/// Structure + claims, never wall-clock bytes (those are
/// machine-dependent). Regenerate with
/// `cargo run --release -p impress-bench --bin serve_bench`.
#[test]
fn serve_bench_artifact_matches_the_study_format_version() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_serve.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} — run the serve_bench bin", path.display()));
    let json: impress_json::Json = impress_json::from_str(&text).expect("BENCH_serve.json parses");
    let version: u32 = json
        .get("format_version")
        .and_then(|v| v.as_f64())
        .expect("BENCH_serve.json has a format_version field") as u32;
    assert_eq!(
        version,
        impress_bench::serve::SERVE_BENCH_FORMAT_VERSION,
        "BENCH_serve.json was generated under a different study format — regenerate it"
    );
    assert_eq!(
        json.get("cluster").and_then(|c| c.get("nodes")).and_then(|v| v.as_u64()),
        Some(1000),
        "the study runs on the simulated 1,000-node cluster"
    );
    let results = json
        .get("results")
        .and_then(|r| r.as_array())
        .expect("BENCH_serve.json has results");
    assert!(!results.is_empty(), "at least one grid cell");
    for row in results {
        for key in [
            "campaigns",
            "p50_latency_s",
            "p99_latency_s",
            "jain_fairness",
            "overhead_ratio",
            "baseline_wall_ms",
        ] {
            assert!(
                row.get(key).and_then(|v| v.as_f64()).is_some(),
                "every cell reports {key}: {row:?}"
            );
        }
        assert_eq!(
            row.get("all_completed").and_then(|v| v.as_bool()),
            Some(true),
            "every campaign in every checked-in cell must complete: {row:?}"
        );
        assert!(
            row.get("jain_fairness").and_then(|v| v.as_f64()).unwrap() >= 0.9,
            "equal-weight tenants must score Jain >= 0.9: {row:?}"
        );
    }
    let headline = json.get("headline").expect("headline section present");
    assert!(
        headline
            .get("max_concurrent_campaigns")
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
            >= 1000,
        "headline must cover 1k+ concurrent campaigns"
    );
    assert_eq!(
        headline.get("thousand_plus_campaigns").and_then(|v| v.as_bool()),
        Some(true)
    );
    assert_eq!(
        headline.get("fair_at_equal_weights").and_then(|v| v.as_bool()),
        Some(true),
        "the checked-in artifact must certify Jain >= 0.9 at equal weights"
    );
    for key in ["p50_latency_s", "p99_latency_s", "overhead_ratio"] {
        assert!(
            headline.get(key).and_then(|v| v.as_f64()).is_some(),
            "headline reports {key}"
        );
    }
    let weighted = json.get("weighted").expect("weighted cell present");
    assert_eq!(
        weighted.get("heavy_not_worse").and_then(|v| v.as_bool()),
        Some(true),
        "the weight-4 tenant must not be served worse than the weight-1 tenant"
    );
}

/// One tiny iteration of the campaign-service study runs under
/// `cargo test`, so the code that regenerates `BENCH_serve.json` cannot
/// bit-rot. The smoke grid drives a small multi-tenant fleet plus the
/// weighted cell end to end.
#[test]
fn serve_bench_smoke_iteration_produces_a_complete_document() {
    let doc = impress_bench::serve::run_study(&impress_bench::serve::StudyParams::smoke(), 7);
    assert_eq!(
        doc.get("format_version").and_then(|v| v.as_f64()),
        Some(impress_bench::serve::SERVE_BENCH_FORMAT_VERSION as f64)
    );
    let results = doc
        .get("results")
        .and_then(|r| r.as_array())
        .expect("smoke study has results");
    assert!(!results.is_empty());
    for row in results {
        assert_eq!(
            row.get("all_completed").and_then(|v| v.as_bool()),
            Some(true),
            "every smoke campaign must complete: {row:?}"
        );
        assert!(
            row.get("jain_fairness").and_then(|v| v.as_f64()).unwrap_or(0.0) >= 0.9,
            "smoke equal-weight fairness holds: {row:?}"
        );
        assert!(
            row.get("tasks").and_then(|v| v.as_u64()).unwrap_or(0) > 0,
            "smoke cells execute real tasks: {row:?}"
        );
    }
    doc.get("weighted")
        .and_then(|w| w.get("latency_ratio"))
        .and_then(|v| v.as_f64())
        .expect("smoke study runs the weighted cell");
}
