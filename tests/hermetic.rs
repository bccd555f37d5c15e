//! Self-checks on the tree: the workspace builds with no registry
//! dependency, every checked-in study artifact agrees with the code that
//! writes it, and the design decisions a source scan can see stay made.
//!
//! Every check reads one load of the tree ([`sources`]) and reports its
//! findings as lines of text. The checks are data where they can be:
//!
//! * [`Rule`] rows: a text pattern over a slice of the sources, a verdict,
//!   an allow-list and the reason printed on failure, run by one scanner;
//! * the study table (`impress_bench::study::STUDIES`): every checked-in
//!   study, its format version, row arrays and claims, checked on the file
//!   and on a fresh smoke run;
//! * structural checks that are not text patterns: the manifests (one TOML
//!   section walker), integer-keyed hash tables on the hot path, `pub mod`
//!   reachability and the DESIGN.md inventory.
//!
//! [`guards!`] makes each guard a test of its own, so a failure names the
//! decision that broke. The fixture tests at the end pin the scanners on
//! in-memory text.

use impress_bench::harness::DEFAULT_SEED;
use impress_bench::study::{Size, Study, STUDIES};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// A load of the tree: `(repository-relative path, text)`.
type Sources = [(String, String)];

/// Every `.rs` file and `Cargo.toml` under the workspace's source
/// directories and `perf/src`, plus the JSON, Markdown and TOML files and
/// the `.gitignore` at the repository root. This file is left out: a guard
/// has to spell what it searches for.
fn workspace_sources() -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).into_iter().flatten() {
            let path = entry.expect("dir entry").path();
            if path.is_dir() && !path.ends_with("target") {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") || path.ends_with("Cargo.toml") {
                out.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "perf/src"] {
        walk(&root.join(dir), &mut files);
    }
    for entry in std::fs::read_dir(root).expect("read the repository root") {
        let path = entry.expect("dir entry").path();
        let ext = path.extension().and_then(|e| e.to_str());
        let listed = matches!(ext, Some("json" | "md" | "toml")) || path.ends_with(".gitignore");
        if path.is_file() && listed {
            files.push(path);
        }
    }
    assert!(files.len() > 20, "expected to load the whole workspace");
    files
        .into_iter()
        .map(|f| {
            let rel = f.strip_prefix(root).expect("repository-relative path");
            let text = std::fs::read_to_string(&f)
                .unwrap_or_else(|e| panic!("read {}: {e}", rel.display()));
            (rel.to_str().expect("UTF-8 path").to_string(), text)
        })
        .filter(|(rel, _)| rel != "tests/hermetic.rs")
        .collect()
}

/// The one load every guard reads.
fn sources() -> &'static Sources {
    static LOAD: OnceLock<Vec<(String, String)>> = OnceLock::new();
    LOAD.get_or_init(workspace_sources)
}

/// The text of `rel` in `sources`.
fn source<'a>(sources: &'a Sources, rel: &str) -> &'a str {
    let found = sources.iter().find(|(path, _)| path == rel);
    found.map_or_else(|| panic!("{rel} is gone: update the guard"), |(_, t)| t)
}

/// How often `needle` occurs in `text`; as a whole `word`, only where no
/// identifier character is on either side.
fn occurrences(text: &str, needle: &str, word: bool) -> usize {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let whole =
        |at: usize| !text[..at].ends_with(ident) && !text[at + needle.len()..].starts_with(ident);
    text.match_indices(needle)
        .filter(|&(at, _)| !word || whole(at))
        .count()
}

/// `word` occurs in `text` with no identifier character on either side.
fn names(text: &str, word: &str) -> bool {
    occurrences(text, word, true) > 0
}

/// Each guard is a test of its own; its check returns what it found.
macro_rules! guards {
    ($($name:ident => $check:expr,)*) => {$(
        #[test]
        fn $name() {
            let found: Vec<String> = $check;
            assert!(found.is_empty(), "{}", found.join("\n"));
        }
    )*};
}

guards! {
    no_registry_dependencies_anywhere => registry_dependencies(sources()),
    workspace_dependency_table_is_all_paths => workspace_dependency_table(sources()),
    a_bare_cargo_test_covers_every_workspace_member => default_members(sources()),
    every_bench_suite_is_declared_in_the_manifest => bench_targets(sources()),
    no_source_file_mutates_the_process_environment => rules(ENV_WRITES),
    no_deprecated_items_anywhere_in_the_workspace => rules(DEPRECATED),
    the_perf_ledger_is_the_only_performance_artifact => rules(PERF_LEDGER),
    every_backend_shares_one_set_of_lifecycle_handlers => rules(LIFECYCLE),
    one_accountant_books_occupancy_for_every_driver => rules(UTILIZATION),
    the_landscape_has_one_local_scoring_kernel => rules(LANDSCAPE),
    the_journal_loader_builds_no_json_tree => rules(JOURNAL_LOADER),
    the_registry_is_the_coordinators_one_ledger => rules(COORDINATOR_RECORD),
    every_value_has_one_json_writer_and_one_trace_exporter => rules(ONE_WRITER),
    the_shard_workers_talk_over_std_channels => rules(CHANNELS),
    both_arms_run_through_the_one_front_door => rules(FRONT_DOOR),
    recovery_artifact_matches_the_journal_format_version => checked_in(sources(), study("recovery")),
    trace_artifact_matches_the_study_format_version => checked_in(sources(), study("trace")),
    trace_study_smoke_iteration_certifies_every_contract => smoke(study("trace")),
    straggler_artifact_matches_the_study_format_version => checked_in(sources(), study("straggler")),
    straggler_smoke_iteration_produces_a_complete_document => smoke(study("straggler")),
    partition_artifact_matches_the_study_format_version => checked_in(sources(), study("partition")),
    partition_smoke_iteration_produces_a_complete_document => smoke(study("partition")),
    every_checked_in_study_holds_its_claims => checked_in_studies(sources()),
    every_study_smoke_run_holds_its_claims => smoke_runs(),
    the_root_artifacts_are_the_study_table => root_artifacts(sources()),
    dense_ids_index_arrays_on_the_hot_path => dense_id_tables(sources()),
    every_pub_mod_is_reached_from_outside_its_own_crate =>
        reachability_violations(sources(), UNREACHED_BUT_ALLOWED),
    the_design_inventory_names_only_what_exists => design_inventory(sources()),
}

// ---------------------------------------------------------------- rules

/// Which part of a file a rule reads: all of it, or the part before or
/// after its first `#[cfg(test)]`.
#[derive(Clone, Copy)]
enum Part {
    Whole,
    Code,
    Tests,
}

fn part(text: &str, part: Part) -> &str {
    let (code, tests) = text.split_once("#[cfg(test)]").unwrap_or((text, ""));
    match part {
        Part::Whole => text,
        Part::Code => code,
        Part::Tests => tests,
    }
}

enum Verdict {
    /// No file in scope has a needle.
    Forbidden,
    /// Every file in scope has every needle.
    Required,
    /// The files in scope with a needle are exactly these, for each needle.
    OnlyIn(&'static [&'static str]),
    /// Each needle is in exactly one file in scope.
    ExactlyOneHome,
    /// Each needle occurs exactly once in the files in scope.
    Once,
    /// No file in scope is longer than this many lines.
    MaxLines(usize),
    /// Nothing is in scope: the path must not exist.
    Absent,
}

struct Rule {
    /// Path prefix of the files the rule reads: `.rs` files only, but any
    /// file for `Absent`.
    scope: &'static str,
    part: Part,
    needles: &'static [&'static str],
    /// Match the needles as whole words rather than substrings.
    word: bool,
    verdict: Verdict,
    /// Files taken out of scope, each with the reason. An entry is stale,
    /// and reported, unless putting its file back changes what the rule
    /// finds.
    allow: &'static [(&'static str, &'static str)],
    /// Why the rule exists, printed with every finding.
    reason: &'static str,
}

/// What every row leaves out.
const FORBIDDEN: Rule = Rule {
    scope: "",
    part: Part::Whole,
    needles: &[],
    word: false,
    verdict: Verdict::Forbidden,
    allow: &[],
    reason: "",
};

/// `cargo test` runs a binary's tests on parallel threads, and the property
/// tests read `IMPRESS_PROPS_SEED` / `IMPRESS_PROPS_CASES` from many of them.
const ENV_WRITES: &[Rule] = &[Rule {
    needles: &["set_var(", "remove_var("],
    reason: "writing the environment races every test that reads it; \
             code that needs another setting takes it as an argument",
    ..FORBIDDEN
}];

/// The deprecated pilot shims finished their sunset and were deleted.
const DEPRECATED: &[Rule] = &[Rule {
    needles: &["#[deprecated", "#![deprecated", "(deprecated)"],
    reason: "deprecation means delete on schedule: a shim ships with its removal plan",
    ..FORBIDDEN
}];

/// The four `BENCH_*.json` studies each compared HEAD with constants from a
/// dead commit; the six `cargo bench` suites after them timed what the
/// ledger times, on a harness of their own, and nothing read their output.
const PERF_LEDGER: &[Rule] = &[
    Rule {
        scope: "BENCH_",
        verdict: Verdict::Absent,
        reason: "perf/ and BENCHMARK.json are the one performance instrument",
        ..FORBIDDEN
    },
    Rule {
        needles: &["IMPRESS_BENCH_"],
        reason: "the ledger is the one instrument",
        ..FORBIDDEN
    },
    Rule {
        scope: "crates/bench/src/",
        needles: &["mod baseline"],
        reason: "a bench embeds no baseline table: the ledger compares commits",
        ..FORBIDDEN
    },
];

const BACKEND: &str = "crates/pilot/src/backend/";

/// `SimulatedBackend`, `ShardedBackend` and `ThreadedBackend` are three
/// drivers of one set of attempt-lifecycle handlers and one heartbeat
/// clock in `des.rs`; they used to be three copies kept equal by hand, and
/// two clocks.
const LIFECYCLE: &[Rule] = &[
    Rule {
        scope: BACKEND,
        needles: &[
            "fn place_ready(",
            "fn fail_attempt(",
            "fn hedge_check(",
            "fn deliver_done(",
            "fn suspect_node(",
            "fn finish_task(",
            "fn step(",
            "fn heartbeat_round(",
        ],
        verdict: Verdict::ExactlyOneHome,
        reason: "every driver shares one copy of each handler, of the heartbeat clock \
                 and of the sequential driver",
        ..FORBIDDEN
    },
    Rule {
        scope: "crates/pilot/src/",
        needles: &["HeartbeatSend", "fn next_seq("],
        reason: "the core's failure-detector lane is the one heartbeat clock; \
                 the per-node chains are a model in control.rs's tests",
        ..FORBIDDEN
    },
    Rule {
        scope: BACKEND,
        needles: &["Scheduler::new_cluster", ".attempt_fault(", "backoff_rng"],
        verdict: Verdict::OnlyIn(&["crates/pilot/src/backend/des.rs"]),
        reason: "what only the handlers need is named by the core alone",
        ..FORBIDDEN
    },
    Rule {
        scope: "crates/pilot/src/backend/des.rs",
        needles: &["running.insert"],
        word: true,
        verdict: Verdict::Once,
        reason: "`run_insert` is the one way into the running slab: it writes the node \
                 column `residents` reads beside it",
        ..FORBIDDEN
    },
    Rule {
        scope: "crates/pilot/src/backend/threaded.rs",
        part: Part::Code,
        verdict: Verdict::MaxLines(399),
        reason: "threaded.rs is a driver, not an engine",
        ..FORBIDDEN
    },
    Rule {
        scope: "crates/sim/src/engine.rs",
        verdict: Verdict::Absent,
        reason: "the closure engine was deleted with its last caller",
        ..FORBIDDEN
    },
    Rule {
        needles: &["impress_sim::Engine"],
        reason: "the closure engine was deleted with its last caller",
        ..FORBIDDEN
    },
];

/// Occupancy is counted once, in integer device-microseconds, by the
/// accountant the lifecycle core owns; the sequential and sharded drivers
/// used to book it two ways and report different float bits.
const UTILIZATION: &[Rule] = &[
    Rule {
        scope: "crates/",
        part: Part::Code,
        // A `UtilizationReport` literal names every field, and no other
        // struct has this one: where it is, a report is built.
        needles: &["gpu_hardware:"],
        word: true,
        verdict: Verdict::OnlyIn(&["crates/pilot/src/profiler.rs"]),
        reason: "one accountant books occupancy for every driver",
        ..FORBIDDEN
    },
    Rule {
        scope: "crates/",
        needles: &[
            "UtilSink",
            "UtilizationTracker",
            "IntervalTrace",
            "AggregateUtil",
        ],
        word: true,
        reason: "one accountant books occupancy for every driver",
        ..FORBIDDEN
    },
];

const NK: &str = "crates/proteins/src/landscape/nk.rs";

/// Every caller of the local score wants all twenty candidates at one
/// position, and `local_scores` / `local_sums` is that one pass; scoring
/// one candidate at a time survives only as the tests' oracle.
const LANDSCAPE: &[Rule] = &[
    Rule {
        part: Part::Code,
        needles: &["fn local_score("],
        reason: "the one-candidate score is the tests' oracle, not a second kernel",
        ..FORBIDDEN
    },
    Rule {
        part: Part::Code,
        needles: &["fn local_sum("],
        allow: &[(
            "crates/proteins/src/landscape/interface.rs",
            "`InterfaceModel::local_sum` is what `DesignLandscape::new` tables",
        )],
        reason: "the one-candidate sum is the tests' oracle, not a second kernel",
        ..FORBIDDEN
    },
    Rule {
        scope: NK,
        part: Part::Code,
        needles: &["fn local_sums("],
        verdict: Verdict::Required,
        reason: "the NK kernel lives in nk.rs",
        ..FORBIDDEN
    },
    Rule {
        scope: NK,
        part: Part::Code,
        needles: &[".clone()"],
        reason: "the NK kernel clones nothing",
        ..FORBIDDEN
    },
];

const JOURNAL: &str = "crates/workflow/src/journal.rs";

/// `load_plan` reads a frame once, straight off the line through
/// `FromJsonBuf`, and checksums the stored bytes.
const JOURNAL_LOADER: &[Rule] = &[
    Rule {
        scope: JOURNAL,
        part: Part::Code,
        needles: &["parse", "from_str", "FromJson", "from_json", "from_field"],
        word: true,
        reason: "the journal loader builds no Json tree",
        ..FORBIDDEN
    },
    Rule {
        scope: JOURNAL,
        part: Part::Tests,
        needles: &["parse", "from_json"],
        word: true,
        verdict: Verdict::Required,
        reason: "the tree route stays in journal.rs's tests as the pull route's reference",
        ..FORBIDDEN
    },
];

/// The coordinator used to append every pipeline transition to an
/// unbounded event log that no production code read; the registry holds
/// the same states, counts and timestamps.
const COORDINATOR_RECORD: &[Rule] = &[
    Rule {
        scope: "crates/workflow/src/events.rs",
        verdict: Verdict::Absent,
        reason: "the registry and the span stream are the coordinator's record",
        ..FORBIDDEN
    },
    Rule {
        needles: &["EventLog", "EventKind"],
        reason: "the registry and the span stream are the coordinator's record",
        ..FORBIDDEN
    },
];

/// Every value became JSON text twice — a `Json` tree built by `ToJson`
/// beside the `ToJsonBuf` writer, and a Chrome trace rendered as a tree
/// beside the streamed one — with tests only to keep each pair's bytes
/// equal. The writers are the one route now.
const ONE_WRITER: &[Rule] = &[
    Rule {
        needles: &["ToJson", "chrome_trace_filtered"],
        word: true,
        reason: "`ToJsonBuf` and `write_chrome_trace[_filtered]` are the one serializer and \
                 the one trace exporter; `Json::of` is a value's tree",
        ..FORBIDDEN
    },
    Rule {
        needles: &["fn to_json", "fn chrome_trace("],
        reason: "`ToJsonBuf` and `write_chrome_trace[_filtered]` are the one serializer and \
                 the one trace exporter; `Json::of` is a value's tree",
        ..FORBIDDEN
    },
];

/// The sharded driver's worker threads talked over an in-repo
/// `Mutex`/`Condvar` channel whose semantics were `std::sync::mpsc`'s.
const CHANNELS: &[Rule] = &[Rule {
    scope: "crates/pilot/src/sync.rs",
    verdict: Verdict::Absent,
    reason: "`std::sync::mpsc` is the channel",
    ..FORBIDDEN
}];

/// Both arms of the paper's comparison run through `CampaignSpec::run`;
/// five public drivers used to, each building its own runtime.
const FRONT_DOOR: &[Rule] = &[
    Rule {
        needles: &["run_imrp", "run_cont_v_resilient", "run_ablation"],
        word: true,
        reason: "`CampaignSpec::imrp` / `CampaignSpec::cont_v` + `run()` is the one door \
                 to either arm",
        ..FORBIDDEN
    },
    Rule {
        needles: &["run_cont_v_experiment"],
        word: true,
        verdict: Verdict::OnlyIn(&["crates/core/src/experiment.rs", "perf/src/adapter.rs"]),
        reason: "`run_cont_v_experiment` is a one-call forward to the spec kept for the \
                 ledger's adapter alone; new callers use `CampaignSpec::cont_v`",
        ..FORBIDDEN
    },
];

const RULES: [&[Rule]; 11] = [
    ENV_WRITES,
    DEPRECATED,
    PERF_LEDGER,
    LIFECYCLE,
    UTILIZATION,
    LANDSCAPE,
    JOURNAL_LOADER,
    COORDINATOR_RECORD,
    ONE_WRITER,
    CHANNELS,
    FRONT_DOOR,
];

/// What `rule` finds in `files`, allow-list not applied.
fn findings(rule: &Rule, files: &[&(String, String)]) -> Vec<String> {
    let count = |text: &str, needle: &str| occurrences(part(text, rule.part), needle, rule.word);
    let has = |text: &str, needle: &str| count(text, needle) > 0;
    let mut found = Vec::new();
    match rule.verdict {
        Verdict::Absent => found.extend(files.iter().map(|(rel, _)| format!("{rel} exists"))),
        _ if files.is_empty() => found.push(format!("nothing to check under `{}`", rule.scope)),
        Verdict::MaxLines(max) => {
            for (rel, text) in files {
                let lines = part(text, rule.part).lines().count();
                if lines > max {
                    found.push(format!("{rel} has {lines} lines, over {max}"));
                }
            }
        }
        Verdict::Once => {
            for needle in rule.needles {
                let n: usize = files.iter().map(|(_, text)| count(text, needle)).sum();
                if n != 1 {
                    found.push(format!("`{needle}` occurs {n} times"));
                }
            }
        }
        Verdict::Required => {
            for (rel, text) in files {
                let missing = rule.needles.iter().filter(|n| !has(text, n));
                found.extend(missing.map(|n| format!("{rel} lacks `{n}`")));
            }
        }
        Verdict::Forbidden | Verdict::OnlyIn(_) | Verdict::ExactlyOneHome => {
            for needle in rule.needles {
                let homes: Vec<&str> = files
                    .iter()
                    .filter(|(_, text)| has(text, needle))
                    .map(|(rel, _)| rel.as_str())
                    .collect();
                let holds = match rule.verdict {
                    Verdict::OnlyIn(only) => homes == only,
                    Verdict::ExactlyOneHome => homes.len() == 1,
                    _ => homes.is_empty(),
                };
                if !holds {
                    found.push(format!("`{needle}` is in {homes:?}"));
                }
            }
        }
    }
    found
}

/// What is wrong in `sources` by `rule`, stale allow-list entries included.
fn rule_violations(rule: &Rule, sources: &Sources) -> Vec<String> {
    let in_scope = |rel: &str| {
        rel.starts_with(rule.scope)
            && (rel.ends_with(".rs") || matches!(rule.verdict, Verdict::Absent))
    };
    let allowed = |rel: &str| rule.allow.iter().any(|(file, _)| *file == rel);
    let checked: Vec<&(String, String)> = sources
        .iter()
        .filter(|(rel, _)| in_scope(rel) && !allowed(rel))
        .collect();
    let mut found = findings(rule, &checked);
    for (file, _) in rule.allow {
        let back = sources.iter().find(|(rel, _)| rel == file && in_scope(rel));
        let matters =
            back.is_some_and(|back| findings(rule, &[&checked[..], &[back][..]].concat()) != found);
        if !matters {
            found.push(format!("allow-list entry {file} is stale"));
        }
    }
    found
        .into_iter()
        .map(|f| format!("{f}: {}", rule.reason))
        .collect()
}

fn rules(rows: &[Rule]) -> Vec<String> {
    rows.iter()
        .flat_map(|rule| rule_violations(rule, sources()))
        .collect()
}

// ------------------------------------------------------------ artifacts

/// The studies whose checked-in file, and whose smoke run, have a guard of
/// their own, so a failure names the study; the `every_…` guards take the
/// rest of the table.
const OWN_FILE_GUARD: &[&str] = &["recovery", "trace", "straggler", "partition"];
const OWN_SMOKE_GUARD: &[&str] = &["trace", "straggler", "partition"];

/// The study row called `name`.
fn study(name: &str) -> &'static Study {
    let row = STUDIES.iter().find(|s| s.name == name);
    row.unwrap_or_else(|| panic!("no `{name}` study row: update the guard"))
}

/// What is wrong with the checked-in file of `study`.
fn checked_in(sources: &Sources, study: &Study) -> Vec<String> {
    let text = source(sources, study.file);
    match impress_json::from_str(text) {
        Ok(doc) => study.violations(&doc, Size::Paper),
        Err(e) => vec![format!("{}: {e}", study.file)],
    }
}

fn checked_in_studies(sources: &Sources) -> Vec<String> {
    let rest = STUDIES.iter().filter(|s| !OWN_FILE_GUARD.contains(&s.name));
    rest.flat_map(|study| checked_in(sources, study)).collect()
}

/// What is wrong with a smoke run of `study`, run under `cargo test` so the
/// code that regenerates its file cannot rot between regenerations.
fn smoke(study: &Study) -> Vec<String> {
    study.violations(&(study.run)(Size::Smoke, DEFAULT_SEED), Size::Smoke)
}

/// The smoke run of every row without a guard of its own, each on a
/// thread of its own.
fn smoke_runs() -> Vec<String> {
    std::thread::scope(|scope| {
        let runs: Vec<_> = STUDIES
            .iter()
            .filter(|study| !OWN_SMOKE_GUARD.contains(&study.name))
            .map(|study| (study.name, scope.spawn(move || smoke(study))))
            .collect();
        let joined = runs.into_iter().map(|(name, run)| {
            run.join()
                .unwrap_or_else(|_| vec![format!("{name} smoke run panicked")])
        });
        joined.flatten().collect()
    })
}

/// The JSON files at the root, `BENCHMARK.json` aside, are the study
/// table's files, and `.gitignore` un-ignores each of them by name: a file
/// nothing regenerates, or one `git add` would skip, is caught here.
fn root_artifacts(sources: &Sources) -> Vec<String> {
    let mut found = Vec::new();
    let studied = |file: &str| STUDIES.iter().any(|s| s.file == file);
    let root_json = sources
        .iter()
        .map(|(rel, _)| rel.as_str())
        .filter(|rel| !rel.contains('/') && rel.ends_with(".json") && *rel != "BENCHMARK.json");
    for file in root_json.filter(|file| !studied(file)) {
        found.push(format!("{file} is at the root but no study writes it"));
    }
    let ignore = source(sources, ".gitignore");
    for study in STUDIES {
        if !sources.iter().any(|(rel, _)| rel == study.file) {
            found.push(format!(
                "{} is not checked in: run the `study` bin",
                study.file
            ));
        }
        if !ignore
            .lines()
            .any(|line| line == format!("!/{}", study.file))
        {
            found.push(format!(".gitignore lacks `!/{}`", study.file));
        }
    }
    found
}

// ------------------------------------------------------------ manifests

/// The sections of a TOML manifest as `(header, lines)`, comments and blank
/// lines dropped; `[[bin]]` is `bin`, and keys before any header sit
/// under `""`.
fn sections(toml: &str) -> Vec<(&str, Vec<&str>)> {
    let mut out = vec![("", Vec::new())];
    for line in toml
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
    {
        if line.starts_with('[') {
            out.push((line.trim_matches(['[', ']']), Vec::new()));
        } else if !line.is_empty() {
            out.last_mut().expect("a section").1.push(line);
        }
    }
    out
}

/// The lines of `[header]` in `toml`, empty if it has none.
fn section<'a>(toml: &'a str, header: &str) -> Vec<&'a str> {
    let mut all = sections(toml).into_iter();
    all.find(|(h, _)| *h == header)
        .map(|(_, lines)| lines)
        .unwrap_or_default()
}

/// Every dependency of the root manifest and each `crates/*` member is a
/// `path` dependency or `workspace = true`, which resolves to one: tier-1
/// must build with no access to a package index.
fn registry_dependencies(sources: &Sources) -> Vec<String> {
    let manifests: Vec<_> = sources
        .iter()
        .filter(|(rel, _)| {
            rel == "Cargo.toml" || rel.starts_with("crates/") && rel.ends_with("/Cargo.toml")
        })
        .collect();
    let mut found = Vec::new();
    if manifests.len() < 2 {
        found.push(format!(
            "expected the root and member manifests, found {}",
            manifests.len()
        ));
    }
    for (rel, text) in manifests {
        for (header, lines) in sections(text) {
            let parts: Vec<&str> = header.split('.').collect();
            let kinds = ["dependencies", "dev-dependencies", "build-dependencies"];
            let Some(at) = parts.iter().position(|p| kinds.contains(p)) else {
                continue;
            };
            if at + 1 < parts.len() {
                // `[dependencies.foo]`: one dependency, spelled as a table.
                if !lines.iter().any(|l| l.starts_with("path")) {
                    found.push(format!("{rel}: [{header}] has no path"));
                }
                continue;
            }
            for (name, spec) in lines.iter().filter_map(|l| l.split_once('=')) {
                let name = name.trim();
                if !(name.ends_with(".workspace")
                    || spec.contains("path")
                    || spec.contains("workspace"))
                {
                    found.push(format!("{rel}: `{name}` is a registry dependency: {spec}"));
                }
            }
        }
    }
    found
}

/// The root `[workspace.dependencies]` that members inherit is all paths.
fn workspace_dependency_table(sources: &Sources) -> Vec<String> {
    let entries = section(source(sources, "Cargo.toml"), "workspace.dependencies");
    let mut found: Vec<String> = entries
        .iter()
        .filter(|l| !l.contains("path ="))
        .map(|l| format!("non-path entry in [workspace.dependencies]: {l}"))
        .collect();
    if entries.is_empty() {
        found.push("expected a populated [workspace.dependencies]".into());
    }
    found
}

/// The tier-1 line is a bare `cargo test -q`. Without `default-members`
/// that is the root package alone: none of the crate-level differential,
/// props or zero-alloc suites.
fn default_members(sources: &Sources) -> Vec<String> {
    let lines = section(source(sources, "Cargo.toml"), "workspace");
    let expected = [
        r#"members = ["crates/*"]"#,
        r#"default-members = [".", "crates/*"]"#,
    ];
    let missing = expected.iter().filter(|line| !lines.contains(line));
    missing
        .map(|line| format!("[workspace] lost `{line}`: {lines:?}"))
        .collect()
}

/// The bench crate turns auto-discovery off, so an undeclared `src/bin/*.rs`
/// would rot unseen by `cargo build`; a `[[bin]]` needs its source, and
/// there is one: `study`, which runs the study table. It has no `[[bench]]`
/// and no `benches/`: the perf ledger is the one timing instrument.
fn bench_targets(sources: &Sources) -> Vec<String> {
    let manifest = sections(source(sources, "crates/bench/Cargo.toml"));
    let bins: Vec<&str> = manifest
        .iter()
        .filter(|(header, _)| *header == "bin")
        .flat_map(|(_, lines)| lines.iter().filter_map(|l| l.split_once('=')))
        .filter(|(k, _)| k.trim() == "path")
        .map(|(_, v)| v.trim().trim_matches('"'))
        .collect();
    let mut found = Vec::new();
    if manifest.iter().any(|(header, _)| *header == "bench") {
        found.push("crates/bench/Cargo.toml has a [[bench]] table".to_string());
    }
    for (rel, _) in sources {
        let Some(file) = rel.strip_prefix("crates/bench/") else {
            continue;
        };
        if file.starts_with("src/bin/") && !bins.contains(&file) {
            found.push(format!("{rel} has no [[bin]] entry"));
        }
        if file.starts_with("benches/") {
            found.push(format!("{rel} is a bench suite"));
        }
    }
    for bin in &bins {
        if !sources
            .iter()
            .any(|(rel, _)| *rel == format!("crates/bench/{bin}"))
        {
            found.push(format!("[[bin]] without its source: {bin}"));
        }
    }
    if bins != ["src/bin/study.rs"] {
        found.push(format!("expected the one `study` [[bin]], found {bins:?}"));
    }
    found
}

// ------------------------------------------------- hash tables on ids

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
    (
        "estimates",
        "keyed by request shape, not an id; a handful of entries, hedging only",
    ),
    (
        "shape_poison",
        "keyed by request shape, not an id; one entry per poisoned shape",
    ),
    (
        "hedge_running",
        "sparse: only tasks with a live hedge duplicate",
    ),
    (
        "failed_nodes",
        "sparse: only tasks with a failed attempt, and only under quarantine",
    ),
    (
        "spill",
        "the exactly-once record's overflow: only identities of attempts past a task's \
         word, the 13th attempt on",
    ),
    (
        "canceled_acks",
        "sparse: only cancels whose acknowledgment is still in flight",
    ),
];

/// SipHash over dense ids was ~13 % of `service_cell`; those tables are
/// arrays now, and a `HashMap<u64, _>` comes back only with a reason.
fn dense_id_tables(sources: &Sources) -> Vec<String> {
    let tables = |file: &str| int_keyed_hash_tables(part(source(sources, file), Part::Code));
    let mut found: Vec<String> = DENSE_ID_FILES
        .iter()
        .flat_map(|file| {
            tables(file)
                .into_iter()
                .map(move |t| format!("{file}: {t:?}"))
        })
        .collect();
    let core = tables("crates/pilot/src/backend/des.rs");
    for (field, key) in &core {
        if !SPARSE_TABLES_OF_THE_CORE.iter().any(|(f, _)| f == field) {
            found.push(format!(
                "des.rs: `{field}` is a hash table keyed by {key}; index an array by the id, \
                 or list it in SPARSE_TABLES_OF_THE_CORE with the reason it is sparse"
            ));
        }
    }
    for (field, _) in SPARSE_TABLES_OF_THE_CORE {
        if !core.iter().any(|(f, _)| f == field) {
            found.push(format!("allow-table entry `{field}` is stale"));
        }
    }
    found
}

// --------------------------------------------------------- reachability

/// `rest` up to the `;` that ends the statement it starts in.
fn statement(rest: &str) -> &str {
    &rest[..rest.find(';').unwrap_or(rest.len())]
}

/// Whether a file outside the library of `crates/<krate>` names its
/// `module` (`a` or `a::b`): as the path `impress_<krate>::a::b`, inside a
/// `use impress_<krate>::{..};` or `use impress_<krate>::a::{..};` group,
/// or — most callers go through the crate root — as any item the root
/// re-exports from it (`pub use a::b::{A, f as G};` gives `A` and `G`), a
/// whole word in a file that also names the crate. Another crate, a
/// `src/bin/` or `benches/` target, an example, a root test and `perf/src`
/// are outside; the crate's own `src/` (minus `src/bin/`) and its own
/// `tests/` are not.
fn module_is_reached(krate: &str, module: &str, sources: &Sources) -> bool {
    let home = format!("crates/{krate}/");
    let (src, bins, tests) = (
        format!("{home}src/"),
        format!("{home}src/bin/"),
        format!("{home}tests/"),
    );
    let lib = sources
        .iter()
        .find(|(rel, _)| *rel == format!("{src}lib.rs"));
    let ident = format!("impress_{krate}");
    let segments: Vec<&str> = module.split("::").collect();
    let by_path = |text: &str| {
        names(text, &format!("{ident}::{module}"))
            || (0..segments.len()).any(|i| {
                let group: String = segments[..i].iter().map(|s| format!("{s}::")).collect();
                let rest = segments[i..].join("::");
                let open = format!("{ident}::{group}{{");
                let mut tails = text.split(&open).skip(1);
                tails.any(|tail| names(statement(tail), &rest))
            })
    };
    let items: Vec<&str> = lib
        .map_or("", |(_, text)| text)
        .split(&format!("\npub use {module}::"))
        .skip(1)
        .flat_map(|rest| statement(rest).trim_matches(['{', '}']).split(','))
        .filter_map(|item| item.split_whitespace().last())
        .collect();
    sources
        .iter()
        .filter(|(rel, _)| {
            let library = rel.starts_with(&src) && !rel.starts_with(&bins);
            rel.ends_with(".rs") && !library && !rel.starts_with(&tests)
        })
        .any(|(_, text)| {
            names(text, &ident) && (by_path(text) || items.iter().any(|item| names(text, item)))
        })
}

/// What is wrong with the `pub mod`s of `crates/*/src` in `sources` — at a
/// crate root or nested in a module file — given an allow-table of
/// `(crate::module, reason)`: a module nothing reaches and nothing allows,
/// and an allowed module that is gone or is reached after all.
fn reachability_violations(sources: &Sources, allowed: &[(&str, &str)]) -> Vec<String> {
    let mut unreached = Vec::new();
    for (rel, text) in sources {
        let Some((krate, file)) = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split_once("/src/"))
        else {
            continue;
        };
        if file.starts_with("bin/") {
            continue;
        }
        // The module the file defines: `lib.rs` the root, `a.rs` and
        // `a/mod.rs` are `a`, `a/b.rs` is `a::b`.
        let parent = match file.trim_end_matches(".rs").trim_end_matches("/mod") {
            "lib" => String::new(),
            path => format!("{}::", path.replace('/', "::")),
        };
        for module in text
            .lines()
            .filter_map(|line| line.strip_prefix("pub mod "))
        {
            let module = format!("{parent}{}", module.trim_end_matches([';', '{', ' ']));
            if !module_is_reached(krate, &module, sources) {
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
/// Five such modules (1.2k lines, 28 tests) were once compiled, documented
/// and tested while nothing called them.
const UNREACHED_BUT_ALLOWED: &[(&str, &str)] = &[];

/// Every backticked name in the "Key modules" cell of a `crates/<c>` row of
/// DESIGN.md is `crates/<c>/src/<m>.rs`, `crates/<c>/src/<m>/` (`a/{b,c}`
/// names `a/b` and `a/c`) or a `[[bin]]` of that crate.
fn design_inventory(sources: &Sources) -> Vec<String> {
    let mut found = Vec::new();
    let mut rows = 0;
    for line in source(sources, "DESIGN.md").lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let krate = cells.get(1).and_then(|cell| cell.strip_prefix("`crates/"));
        let (Some(krate), Some(modules)) = (krate.and_then(|c| c.split('`').next()), cells.get(3))
        else {
            continue;
        };
        rows += 1;
        let src = format!("crates/{krate}/src/");
        let manifest = source(sources, &format!("crates/{krate}/Cargo.toml"));
        for name in modules.split('`').skip(1).step_by(2) {
            let (prefix, leaves) = name.split_once('{').unwrap_or(("", name));
            for leaf in leaves.trim_end_matches('}').split(',') {
                let module = format!("{prefix}{}", leaf.trim());
                let file = format!("{src}{module}.rs");
                let dir = format!("{src}{module}/");
                let exists = sources
                    .iter()
                    .any(|(rel, _)| *rel == file || rel.starts_with(&dir))
                    || manifest.contains(&format!("name = \"{module}\""));
                if !exists {
                    found.push(format!(
                        "DESIGN.md names crates/{krate}: `{module}`, not in the tree"
                    ));
                }
            }
        }
    }
    if rows < 8 {
        found.push(format!(
            "expected one inventory row per crate, found {rows}"
        ));
    }
    found
}

// ------------------------------------------------------------- fixtures

/// Every rule row, on a tree made to break it and on one made to keep it:
/// the clean tree keeps the needles where the row does not read (the other
/// side of `#[cfg(test)]`), and an allow-listed file whose exemption is no
/// longer needed is reported stale.
#[test]
fn every_rule_row_is_pinned_on_fixtures() {
    let file =
        |code: &str, tests: &str| format!("{code}\n#[cfg(test)]\nmod tests {{\n{tests}\n}}\n");
    for rule in RULES.iter().flat_map(|rows| rows.iter()) {
        let path = |name: &str| match rule.scope {
            file if file.ends_with(".rs") => file.to_string(),
            dir => format!("{dir}{name}"),
        };
        let needles = rule.needles.join("\n");
        let (with, without) = match rule.part {
            Part::Whole => (file(&needles, ""), file("", "")),
            Part::Code => (file(&needles, ""), file("", &needles)),
            Part::Tests => (file("", &needles), file(&needles, "")),
        };
        let one = |text: &str| vec![(path("a.rs"), text.to_string())];
        let (mut bad, mut good) = match rule.verdict {
            Verdict::Forbidden => (one(&with), one(&without)),
            Verdict::Required => (one(&without), one(&with)),
            Verdict::OnlyIn(_) | Verdict::ExactlyOneHome => {
                // The homes hold the needles; one more file breaks the rule.
                let homes = match rule.verdict {
                    Verdict::OnlyIn(homes) => homes.iter().map(|h| h.to_string()).collect(),
                    _ => vec![path("a.rs")],
                };
                let good: Vec<_> = homes.into_iter().map(|h| (h, with.clone())).collect();
                ([&good[..], &[(path("b.rs"), with.clone())]].concat(), good)
            }
            Verdict::Once => {
                let twice = format!("{needles}\n{needles}");
                let doubled = match rule.part {
                    Part::Tests => file("", &twice),
                    _ => file(&twice, ""),
                };
                (one(&doubled), one(&with))
            }
            Verdict::MaxLines(max) => {
                let lines = |n: usize| file(&vec!["x"; n].join("\n"), "x\nx");
                (one(&lines(max + 1)), one(&lines(max)))
            }
            Verdict::Absent => (one(""), vec![]),
        };
        for (allowed, _) in rule.allow {
            bad.push((allowed.to_string(), with.clone()));
            good.push((allowed.to_string(), with.clone()));
        }
        assert!(
            !rule_violations(rule, &bad).is_empty(),
            "not reported: {}",
            rule.reason
        );
        assert_eq!(rule_violations(rule, &good), Vec::<String>::new());
        for (allowed, _) in rule.allow {
            let kept = good.iter().filter(|(rel, _)| rel != allowed).cloned();
            let moot: Vec<_> = kept
                .chain([(allowed.to_string(), without.clone())])
                .collect();
            let found = rule_violations(rule, &moot);
            assert!(
                found.len() == 1 && found[0].contains("is stale"),
                "{found:?}"
            );
        }
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

/// The scan itself, on in-memory trees: what counts as reach, what does
/// not, nested modules included, and that an allow-table entry cannot
/// outlive its reason.
#[test]
fn the_reachability_scan_is_pinned_on_fixtures() {
    const LIB: &str = "pub mod m;\npub mod n;\npub use m::{Thing, helper as assist};\n";
    const OWN: [(&str, &str); 4] = [
        ("crates/a/src/lib.rs", LIB),
        ("crates/a/src/n.rs", "// impress_a::n impress_a::m"),
        (
            "crates/a/src/m/mod.rs",
            "pub mod deep;\npub use deep::Gadget;\n",
        ),
        (
            "crates/a/tests/p.rs",
            "use impress_a::{m::Thing, n::X, m::deep};",
        ),
    ];
    let with = |extra: &[(&str, &str)]| -> Vec<(String, String)> {
        let files = OWN.iter().chain(extra);
        files.map(|(f, t)| (f.to_string(), t.to_string())).collect()
    };

    // Named only under its own `src/` and `tests/`: all three reported.
    let reported = reachability_violations(&with(&[]), &[]);
    assert_eq!(reported.len(), 3, "{reported:?}");
    assert!(reported[0].starts_with("a::m:") && reported[1].starts_with("a::n:"));
    assert!(reported[2].starts_with("a::m::deep:"));

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
        assert!(
            !module_is_reached("a", "m", &with(&[("tests/t.rs", text)])),
            "{text}"
        );
    }
    // A nested module: by its path or a group at either level; not by an
    // item its parent re-exports, which needs only the parent public.
    for (text, reached) in [
        ("use impress_a::m::deep::Gadget;", true),
        ("use impress_a::m::{deep, Thing};", true),
        ("use impress_a::{m::deep::Gadget};", true),
        ("use impress_a::m::Gadget;", false),
    ] {
        let sources = with(&[("examples/e.rs", text)]);
        assert_eq!(
            module_is_reached("a", "m::deep", &sources),
            reached,
            "{text}"
        );
    }

    // An entry silences exactly its module, and fails once the module is
    // reached or gone.
    let allow_n = [("a::n", "the worked example in DESIGN.md")];
    let m_reached = ("tests/t.rs", "use impress_a::m::deep::Gadget;");
    assert!(reachability_violations(&with(&[m_reached]), &allow_n).is_empty());
    let both = with(&[m_reached, ("examples/demo.rs", "use impress_a::n::X;")]);
    let stale = reachability_violations(&both, &allow_n);
    assert!(stale.len() == 1 && stale[0].contains("a::n is stale"));
    let gone = reachability_violations(&both, &[("a::old", "was here once")]);
    assert!(gone.len() == 1 && gone[0].contains("a::old is stale"));
}
