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
/// No row may carry a wall-clock reading: the bin prints replay
/// milliseconds and keeps them out of the file, so the artifact
/// regenerates byte for byte on any machine.
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
        for (key, _) in row.as_object().expect("recovery rows are objects") {
            assert!(!key.ends_with("_ms"), "wall-clock field {key:?} in {row:?}");
        }
    }
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

/// Every `.rs` file of the workspace and of the perf ledger, this one
/// excepted (a guard has to spell what it searches for).
fn workspace_sources() -> Vec<(PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "src", "perf/src"] {
        rs_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 20, "expected to scan the whole workspace");
    files
        .into_iter()
        .map(|f| {
            f.strip_prefix(root)
                .expect("workspace-relative path")
                .to_path_buf()
        })
        .filter(|rel| rel != Path::new("tests/hermetic.rs"))
        .map(|rel| {
            let text = std::fs::read_to_string(root.join(&rel))
                .unwrap_or_else(|e| panic!("read {}: {e}", rel.display()));
            (rel, text)
        })
        .collect()
}

/// `cargo test` runs a binary's tests on parallel threads, and the harness
/// reads `IMPRESS_SEED` / `IMPRESS_BENCH_*` from many of them: a test that
/// writes the process environment races every sibling that reads it. Code
/// that needs a different setting takes it as an argument (`Suite`'s
/// private constructor, `parse_seed`).
#[test]
fn no_source_file_mutates_the_process_environment() {
    let mut violations = Vec::new();
    for (rel, text) in workspace_sources() {
        for (i, line) in text.lines().enumerate() {
            if ["set_var(", "remove_var("].iter().any(|n| line.contains(n)) {
                violations.push(format!("{}:{}: {}", rel.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "environment writes:\n{}",
        violations.join("\n")
    );
}

/// `perf/` + `BENCHMARK.json` is the one performance instrument. The four
/// `BENCH_*.json` studies it replaced each compared HEAD with constants
/// embedded from a different dead commit and read the sample-count
/// variables with their own defaults; this guard fails when a perf change
/// forks the ledger that way again.
#[test]
fn the_perf_ledger_is_the_only_performance_artifact() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let stale: Vec<String> = std::fs::read_dir(root)
        .expect("read the repository root")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    assert!(
        stale.is_empty(),
        "performance artifacts beside the ledger: {stale:?}"
    );

    let sources = workspace_sources();
    let readers: Vec<&Path> = sources
        .iter()
        .filter(|(_, text)| text.contains("IMPRESS_BENCH_SAMPLES"))
        .map(|(rel, _)| rel.as_path())
        .collect();
    assert_eq!(
        readers,
        [Path::new("crates/bench/src/timing.rs")],
        "sample-count readers"
    );
    for (rel, text) in &sources {
        assert!(
            !rel.starts_with("crates/bench/src") || !text.contains("mod baseline"),
            "{} embeds a baseline table",
            rel.display()
        );
    }

    let bench_dir = root.join("crates/bench");
    let manifest = std::fs::read_to_string(bench_dir.join("Cargo.toml"))
        .expect("read crates/bench/Cargo.toml");
    let mut bins = 0;
    for path in manifest
        .lines()
        .filter_map(|l| l.strip_prefix("path = \"src/bin/"))
    {
        let file = bench_dir.join("src/bin").join(path.trim_end_matches('"'));
        assert!(
            file.is_file(),
            "[[bin]] without its source: {}",
            file.display()
        );
        bins += 1;
    }
    assert!(
        bins >= 12,
        "expected every paper and study bin, found {bins}"
    );
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
    let mut violations = Vec::new();
    for (rel, text) in workspace_sources() {
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

/// `SimulatedBackend`, `ShardedBackend` and `ThreadedBackend` are three
/// drivers of ONE set of attempt-lifecycle handlers
/// (`crates/pilot/src/backend/des.rs`). They used to be three copies kept
/// equal by hand — one written as closures for an engine only it used,
/// one as a scheduler thread with a modeled second clock. This guard fails
/// the moment an engine change re-forks a handler (or the state only the
/// handlers need) into a driver, the sequential driver gets a second
/// copy, `threaded.rs` grows back into an engine, or the closure engine
/// comes back.
#[test]
fn every_backend_shares_one_set_of_lifecycle_handlers() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut drivers = Vec::new();
    rs_files(&root.join("crates/pilot/src/backend"), &mut drivers);
    assert!(drivers.len() >= 4, "expected the core and its three drivers");
    let sources: Vec<(PathBuf, String)> = drivers
        .into_iter()
        .map(|f| {
            let text = std::fs::read_to_string(&f).expect("read backend source");
            (f, text)
        })
        .collect();
    let homes = |needle: &str| -> Vec<String> {
        sources
            .iter()
            .filter(|(_, text)| text.contains(needle))
            .map(|(f, _)| f.display().to_string())
            .collect()
    };
    for handler in [
        "fn place_ready(",
        "fn fail_attempt(",
        "fn hedge_check(",
        "fn deliver_done(",
        "fn suspect_node(",
        "fn finish_task(",
        // The sequential driver, shared by two backends.
        "fn step(",
        "fn heartbeat_send(",
    ] {
        let homes = homes(handler);
        assert_eq!(homes.len(), 1, "`{handler}` must have exactly one home: {homes:?}");
    }
    // What only the handlers need is named by the core alone.
    for state in ["Scheduler::new_cluster", ".attempt_fault(", "backoff_rng"] {
        let homes = homes(state);
        assert!(
            homes.len() == 1 && homes[0].ends_with("des.rs"),
            "`{state}` belongs to des.rs alone: {homes:?}"
        );
    }
    let (_, threaded) = sources
        .iter()
        .find(|(f, _)| f.ends_with("threaded.rs"))
        .expect("backend/threaded.rs");
    let non_test = threaded.split("#[cfg(test)]\nmod tests").next().expect("a first piece");
    let lines = non_test.lines().count();
    assert!(lines < 400, "threaded.rs is a driver, not an engine: {lines} non-test lines");

    assert!(
        !root.join("crates/sim/src/engine.rs").exists(),
        "the closure engine was deleted with its last caller"
    );
    let engine = ["impress_sim", "Engine"].join("::");
    for (rel, text) in workspace_sources() {
        assert!(!text.contains(&engine), "{} names {engine}", rel.display());
    }
}

/// Every caller of the landscape's local score wants all twenty candidates
/// at one position, and `local_scores`/`local_sums` is that one pass. The
/// one-candidate form (a `Sequence` clone and three full hash chains per
/// candidate) survives only as the `#[cfg(test)]` oracle: this guard fails
/// when it comes back beside the kernel.
#[test]
fn the_landscape_has_one_local_scoring_kernel() {
    let interface = Path::new("crates/proteins/src/landscape/interface.rs");
    let nk = Path::new("crates/proteins/src/landscape/nk.rs");
    let mut saw_nk = false;
    for (rel, text) in workspace_sources() {
        if !(rel.starts_with("crates") || rel.starts_with("examples")) {
            continue;
        }
        let non_test = text.split("#[cfg(test)]").next().expect("a first piece");
        assert!(
            !non_test.contains("fn local_score("),
            "{} scores one candidate at a time",
            rel.display()
        );
        // `InterfaceModel::local_sum` is what `DesignLandscape::new` tables.
        assert!(
            rel == interface || !non_test.contains("fn local_sum("),
            "{} sums one candidate at a time",
            rel.display()
        );
        if rel == nk {
            saw_nk = true;
            assert!(
                non_test.contains("fn local_sums("),
                "the NK kernel lives in nk.rs"
            );
            assert!(
                !non_test.contains(".clone()"),
                "the NK kernel clones nothing"
            );
        }
    }
    assert!(saw_nk, "expected to scan {}", nk.display());
}

/// `load_plan` reads a frame once: `seq`, `crc` and the typed record come
/// straight off the line through `FromJsonBuf`, and the checksum covers the
/// stored bytes. The tree route it replaced — `impress_json::parse`, a
/// re-serialisation to hash, `from_json` on the tree — survives in
/// `journal.rs` only as the `#[cfg(test)]` reference the pull route is held
/// to: this guard fails when a `Json` tree comes back under the loader.
#[test]
fn the_journal_loader_builds_no_json_tree() {
    let journal = Path::new("crates/workflow/src/journal.rs");
    let sources = workspace_sources();
    let (_, text) = sources
        .iter()
        .find(|(rel, _)| rel == journal)
        .expect("crates/workflow/src/journal.rs");
    let (non_test, tests) = text
        .split_once("#[cfg(test)]")
        .expect("journal.rs keeps its tests in the file");
    for tree_route in ["parse", "from_str", "FromJson", "from_json", "from_field"] {
        assert!(
            !names(non_test, tree_route),
            "journal.rs reaches `{tree_route}` outside its tests"
        );
    }
    assert!(
        names(tests, "parse") && names(tests, "from_json"),
        "the tree-route reference is gone from journal.rs's tests"
    );
}

/// `word` occurs in `text` with no identifier character on either side.
fn names(text: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(word)
        .any(|(at, _)| !text[..at].ends_with(ident) && !text[at + word.len()..].starts_with(ident))
}

/// Every `name: HashMap<K, ..>` / `name: HashSet<K>` in `text` whose key
/// type names `u64` or `u32` (alone or inside a tuple), as `(name, K)`.
fn int_keyed_hash_tables(text: &str) -> Vec<(String, String)> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut found = Vec::new();
    for table in ["HashMap<", "HashSet<"] {
        for (at, _) in text.match_indices(table) {
            let params = &text[at + table.len()..];
            // The key runs to the first `,` or `>` outside nested brackets.
            let mut depth = 0;
            let end = params.find(|c: char| {
                match c {
                    '(' | '<' | '[' => depth += 1,
                    ')' | ']' => depth -= 1,
                    '>' if depth > 0 => depth -= 1,
                    ',' | '>' => return depth == 0,
                    _ => {}
                }
                false
            });
            let key = params[..end.unwrap_or(params.len())].trim();
            if !names(key, "u64") && !names(key, "u32") {
                continue;
            }
            let before = text[..at].trim_end();
            let field = before.strip_suffix(':').map_or("", |decl| {
                let name = decl.trim_end();
                &name[name.rfind(|c| !ident(c)).map_or(0, |at| at + 1)..]
            });
            found.push((field.to_string(), key.to_string()));
        }
    }
    found
}

/// The files whose tables sit on the per-event / per-task path and are
/// keyed by ids the program hands out densely from 0 (DESIGN.md, "Id
/// spaces"): such an id indexes an array.
const DENSE_ID_FILES: [&str; 5] = [
    "crates/sim/src/event.rs",
    "crates/pilot/src/scheduler/mod.rs",
    "crates/pilot/src/profiler.rs",
    "crates/pilot/src/cluster.rs",
    "crates/workflow/src/service.rs",
];

/// The hash tables `crates/pilot/src/backend/des.rs` keeps next to its
/// dense task table, by field, each with the reason it is not an array.
const SPARSE_TABLES_OF_THE_CORE: &[(&str, &str)] = &[
    ("estimates", "keyed by request shape, not an id; a handful of entries, hedging only"),
    ("shape_poison", "keyed by request shape, not an id; one entry per poisoned shape"),
    ("hedge_running", "sparse: only tasks with a live hedge duplicate"),
    ("failed_nodes", "sparse: only tasks with a failed attempt, and only under quarantine"),
    ("seen", "sparse: only routed messages (control plane on), keyed by task x attempt x kind"),
    ("canceled_acks", "sparse: only cancels whose acknowledgment is still in flight"),
];

/// ISSUE 24 found ~13 % of `service_cell` inside SipHash over keys that
/// were all dense ids: event ids, backend task ids, lease ids. Those tables
/// are arrays now; this guard keeps a `HashMap<u64, _>` from coming back
/// beside them without a reason written down.
#[test]
fn dense_ids_index_arrays_on_the_hot_path() {
    let sources = workspace_sources();
    let non_test = |file: &str| -> &str {
        let (_, text) = sources
            .iter()
            .find(|(rel, _)| rel == Path::new(file))
            .unwrap_or_else(|| panic!("{file} is gone: update the guard"));
        text.split_once("#[cfg(test)]").map_or(text, |(code, _)| code)
    };
    for file in DENSE_ID_FILES {
        let tables = int_keyed_hash_tables(non_test(file));
        assert!(tables.is_empty(), "{file}: integer-keyed hash tables {tables:?}");
    }
    let core = int_keyed_hash_tables(non_test("crates/pilot/src/backend/des.rs"));
    for (field, key) in &core {
        assert!(
            SPARSE_TABLES_OF_THE_CORE.iter().any(|(f, _)| f == field),
            "des.rs: `{field}` is a hash table keyed by {key}; index an array by the id, \
             or list it in SPARSE_TABLES_OF_THE_CORE with the reason it is sparse"
        );
    }
    for (field, _) in SPARSE_TABLES_OF_THE_CORE {
        assert!(
            core.iter().any(|(f, _)| f == field),
            "allow-table entry `{field}` is stale"
        );
    }
}

/// The scan itself, on in-memory text: which declarations it reports.
#[test]
fn the_hash_table_scan_is_pinned_on_fixtures() {
    let text = "use std::collections::{HashMap, HashSet};\n\
        struct S {\n    by_task: HashMap<u64, (u32, i32)>,\n    pending: HashSet<u64>,\n\
            seen : HashSet<(u64, u32, u8)>,\n    shapes: HashMap<(u32, u32), Vec<u64>>,\n\
            tenants: HashMap<TenantId, usize>,\n    nested: HashMap<Vec<u8>, u64>,\n\
            names: HashSet<String>,\n}\n\
        fn f() -> HashMap<u32, u8> { let m = HashMap::new(); m }\n";
    let found = int_keyed_hash_tables(text);
    let fields: Vec<&str> = found.iter().map(|(f, _)| f.as_str()).collect();
    assert_eq!(fields, ["by_task", "shapes", "", "pending", "seen"]);
    assert_eq!(found[1].1, "(u32, u32)");
    assert_eq!(found[4].1, "(u64, u32, u8)");
}

/// `rest` up to the `;` that ends the statement it starts in.
fn statement(rest: &str) -> &str {
    &rest[..rest.find(';').unwrap_or(rest.len())]
}

/// Whether a file outside the library of `crates/<krate>` names that
/// crate's `module`: as the path `impress_<krate>::<module>`, inside a
/// `use impress_<krate>::{..};` group, or — most callers go through the
/// crate root — as any item the root re-exports from it (`pub use
/// module::{A, b as C};` gives `A` and `C`), a whole word in a file that
/// also names the crate. Another crate, a `src/bin/` or `benches/` target,
/// an example, a root test and `perf/src` are outside; the crate's own
/// `src/` (minus `src/bin/`) and its own `tests/` are not.
fn module_is_reached(krate: &str, module: &str, sources: &[(PathBuf, String)]) -> bool {
    let home = Path::new("crates").join(krate);
    let (src, bins, tests) = (home.join("src"), home.join("src/bin"), home.join("tests"));
    let lib = sources
        .iter()
        .find(|(rel, _)| *rel == src.join("lib.rs"))
        .map_or("", |(_, text)| text.as_str());
    let ident = format!("impress_{krate}");
    let path = format!("{ident}::{module}");
    let group = format!("{ident}::{{");
    let grouped = |text: &str| {
        text.split(&group)
            .skip(1)
            .any(|rest| names(statement(rest), module))
    };
    let items: Vec<&str> = lib
        .split(&format!("\npub use {module}::"))
        .skip(1)
        .flat_map(|rest| statement(rest).trim_matches(['{', '}']).split(','))
        .filter_map(|item| item.split_whitespace().last())
        .collect();
    sources
        .iter()
        .filter(|(rel, _)| {
            let library = rel.starts_with(&src) && !rel.starts_with(&bins);
            !library && !rel.starts_with(&tests)
        })
        .any(|(_, text)| {
            names(text, &ident)
                && (names(text, &path)
                    || grouped(text)
                    || items.iter().any(|item| names(text, item)))
        })
}

/// What is wrong with the `pub mod`s of the `crates/*/src/lib.rs` roots in
/// `sources`, given an allow-table of `(crate::module, reason)`: a module
/// nothing reaches and nothing allows, and an allowed module that is gone
/// or is reached after all.
fn reachability_violations(sources: &[(PathBuf, String)], allowed: &[(&str, &str)]) -> Vec<String> {
    let mut unreached = Vec::new();
    for (rel, lib) in sources {
        let root = rel.to_str().and_then(|rel| rel.strip_prefix("crates/"));
        let Some(krate) = root.and_then(|rel| rel.strip_suffix("/src/lib.rs")) else {
            continue;
        };
        for module in lib.lines().filter_map(|line| line.strip_prefix("pub mod ")) {
            let module = module.trim_end_matches([';', '{', ' ']);
            if !module_is_reached(krate, module, sources) {
                unreached.push(format!("{krate}::{module}"));
            }
        }
    }
    let unallowed = unreached
        .iter()
        .filter(|module| !allowed.iter().any(|(entry, _)| entry == module))
        .map(|module| format!("{module}: a `pub mod` unreached from outside its crate"));
    let stale = allowed
        .iter()
        .filter(|(entry, _)| !unreached.iter().any(|module| module == entry))
        .map(|(entry, _)| format!("allow-table entry {entry} is stale"));
    unallowed.chain(stale).collect()
}

/// Public modules nothing reaches, each with the reason it stays public.
const UNREACHED_BUT_ALLOWED: &[(&str, &str)] = &[];

/// Five public modules (`dag`, `genetic`, `campaign`, `mutations`, `align`:
/// 1.2k lines, 28 tests) were compiled, documented and tested while no
/// stage, study, bin, bench, example, root test or perf cell called them.
/// A `pub mod` with no caller outside its own crate's library gets one, or
/// becomes private, or goes, or is listed above with a reason.
#[test]
fn every_pub_mod_is_reached_from_outside_its_own_crate() {
    let violations = reachability_violations(&workspace_sources(), UNREACHED_BUT_ALLOWED);
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

/// The scan itself, on in-memory trees: what counts as reach, what does
/// not, and that an allow-table entry cannot outlive its reason.
#[test]
fn the_reachability_scan_is_pinned_on_fixtures() {
    const LIB: &str = "pub mod m;\npub mod n;\npub use m::{Thing, helper as assist};\n";
    const OWN: [(&str, &str); 3] = [
        ("crates/a/src/lib.rs", LIB),
        ("crates/a/src/n.rs", "// impress_a::n impress_a::m"),
        ("crates/a/tests/p.rs", "use impress_a::{m::Thing, n::X};"),
    ];
    let with = |extra: &[(&str, &str)]| -> Vec<(PathBuf, String)> {
        let files = OWN.iter().chain(extra);
        files.map(|(f, t)| (f.into(), t.to_string())).collect()
    };

    // Named only under its own `src/` and `tests/`: both reported.
    let reported = reachability_violations(&with(&[]), &[]);
    assert_eq!(reported.len(), 2, "{reported:?}");
    assert!(reported[0].starts_with("a::m:") && reported[1].starts_with("a::n:"));

    // By path, group or re-exported item, from anywhere outside the library.
    for out in [
        ("tests/end_to_end.rs", "use impress_a::m::Thing;"),
        ("examples/quickstart.rs", "use impress_a::Thing;"),
        ("perf/src/adapter.rs", "use impress_a::assist;"),
        ("crates/b/src/lib.rs", "use impress_a::{\n    m, Other,\n};"),
        ("crates/a/src/bin/fig.rs", "fn main() { impress_a::m::g() }"),
        ("crates/a/benches/suite.rs", "use impress_a::{Thing};"),
    ] {
        assert!(module_is_reached("a", "m", &with(&[out])), "{out:?}");
        assert!(!module_is_reached("a", "n", &with(&[out])), "{out:?}");
    }
    // Not reach: the item in a file that never names the crate, a longer
    // identifier, the pre-rename name of a renamed re-export.
    for text in [
        "struct Thing;",
        "use impress_a::{Things, m2};",
        "use impress_a::helper;",
    ] {
        let sources = with(&[("tests/t.rs", text)]);
        assert!(!module_is_reached("a", "m", &sources), "{text}");
    }

    // An entry silences exactly its module, and fails once the module is
    // reached or gone.
    let allow_n = [("a::n", "the worked example in DESIGN.md")];
    let m_reached = ("tests/t.rs", "use impress_a::m::Thing;");
    assert!(reachability_violations(&with(&[m_reached]), &allow_n).is_empty());
    let both = with(&[m_reached, ("examples/demo.rs", "use impress_a::n::X;")]);
    let stale = reachability_violations(&both, &allow_n);
    assert!(stale.len() == 1 && stale[0].contains("a::n is stale"));
    let gone = reachability_violations(&both, &[("a::old", "was here once")]);
    assert!(gone.len() == 1 && gone[0].contains("a::old is stale"));
}

/// DESIGN.md's workspace inventory listed `impress_sim::{engine, resource}`
/// after PR 17 deleted them, and `genetic` while nothing called it. Every
/// backticked name in the "Key modules" cell of a `crates/<c>` row is
/// `crates/<c>/src/<m>.rs`, `crates/<c>/src/<m>/` (`a/{b,c}` names `a/b`
/// and `a/c`) or a `[[bin]]`/`[[bench]]` of that crate.
#[test]
fn the_design_inventory_names_only_what_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let mut rows = 0;
    let mut missing = Vec::new();
    for line in design.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let krate = cells.get(1).and_then(|cell| cell.strip_prefix("`crates/"));
        let (Some(krate), Some(modules)) = (krate.and_then(|c| c.split('`').next()), cells.get(3))
        else {
            continue;
        };
        rows += 1;
        let home = root.join("crates").join(krate);
        let manifest = std::fs::read_to_string(home.join("Cargo.toml")).expect("crate manifest");
        for name in modules.split('`').skip(1).step_by(2) {
            let (prefix, leaves) = name.split_once('{').unwrap_or(("", name));
            for leaf in leaves.trim_end_matches('}').split(',') {
                let module = format!("{prefix}{}", leaf.trim());
                let exists = home.join(format!("src/{module}.rs")).is_file()
                    || home.join("src").join(&module).is_dir()
                    || manifest.contains(&format!("name = \"{module}\""));
                if !exists {
                    missing.push(format!("crates/{krate}: `{module}`"));
                }
            }
        }
    }
    assert!(rows >= 8, "one inventory row per crate: {rows}");
    assert!(missing.is_empty(), "not in the tree: {missing:#?}");
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
