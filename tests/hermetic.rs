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
//!   reachability, the public surface (every `pub` item of the libraries,
//!   listed in `tests/surface.txt`) and the DESIGN.md inventory.
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
/// the `.gitignore` at the repository root, and the surface list. This file
/// is left out: a guard has to spell what it searches for.
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
    files.push(root.join(SURFACE));
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
    the_pipeline_ledger_is_the_coordinators_one_record => rules(COORDINATOR_RECORD),
    every_value_has_one_json_writer_and_one_trace_exporter => rules(ONE_WRITER),
    the_shard_workers_talk_over_std_channels => rules(CHANNELS),
    both_arms_run_through_the_one_front_door => rules(FRONT_DOOR),
    a_setting_with_one_value_in_use_is_a_constant => rules(ONE_VALUE),
    a_grant_is_a_node_and_two_counts => rules(DEVICE_IDS),
    placement_asks_one_fit_set_per_shape => rules(FIT_SETS),
    an_allocation_pin_is_a_unit_test_beside_its_code => rules(ALLOC_PINS),
    the_campaign_service_is_one_layer => rules(ONE_LAYER),
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
    every_name_design_md_cites_is_in_the_tree =>
        design_references(&[sources(), &[this_file()]].concat(), &on_disk),
    experiments_table_one_reads_the_checked_in_artifact => table_one(sources()),
    experiments_ablations_read_the_checked_in_artifact => ablations_table(sources()),
    every_pub_item_is_listed_and_reached_or_explained =>
        surface_violations(sources(), source(sources(), SURFACE)),
}

// ---------------------------------------------------------------- rules

/// Which part of a file a rule reads: all of it, or the part before or
/// from its test module, the first top-level `#[cfg(test)]` item that is
/// a `mod`. A test-only helper above the code is part of the code.
#[derive(Clone, Copy)]
enum Part {
    Whole,
    Code,
    Tests,
}

fn part(text: &str, part: Part) -> &str {
    let (code, tests) = text.split_at(test_module(text).unwrap_or(text.len()));
    match part {
        Part::Whole => text,
        Part::Code => code,
        Part::Tests => tests,
    }
}

/// Where `text`'s test module starts: a line that is `#[cfg(test)]`,
/// unindented, whose item, past any further attributes and its
/// visibility, is a `mod`.
fn test_module(text: &str) -> Option<usize> {
    let mut at = 0;
    let mut lines = text.split_inclusive('\n');
    while let Some(line) = lines.next() {
        let start = at;
        at += line.len();
        if line.trim_end() != "#[cfg(test)]" {
            continue;
        }
        let item = lines.clone().find(|l| !l.starts_with("#["))?;
        if item.split_whitespace().find(|w| !w.starts_with("pub")) == Some("mod") {
            return Some(start);
        }
    }
    None
}

enum Verdict {
    /// No file in scope has a needle.
    Forbidden,
    /// Every file in scope has every needle.
    Required,
    /// The files in scope with a needle are exactly these, for each needle
    /// (listed in byte order).
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
/// unbounded event log that no production code read, and then kept a
/// public registry of per-pipeline states, task counts and timestamps
/// that only tests and one example printout read. Its ledger is what a
/// decision reads (name, parent, stages completed) plus three running
/// counts for the run report.
const COORDINATOR_RECORD: &[Rule] = &[
    Rule {
        scope: "crates/workflow/src/events.rs",
        verdict: Verdict::Absent,
        reason: "the coordinator's pipeline ledger and the span stream are its record",
        ..FORBIDDEN
    },
    Rule {
        needles: &["EventLog", "EventKind"],
        reason: "the coordinator's pipeline ledger and the span stream are its record",
        ..FORBIDDEN
    },
    Rule {
        scope: "crates/",
        needles: &["struct Registry", "PipelineEntry", "PipelineState"],
        word: true,
        reason: "the coordinator's pipeline ledger is one private slab beside its slots; \
                 a terminal pipeline is a slot with no logic, not a state",
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
/// five public drivers used to, each building its own runtime, and CONT-V
/// ran on a session driver of its own beside the coordinator.
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
    Rule {
        needles: &["run_cont_v"],
        word: true,
        verdict: Verdict::OnlyIn(&["crates/core/src/control.rs", "perf/src/adapter.rs"]),
        reason: "`run_cont_v` is a one-call forward to the coordinator kept for the \
                 ledger's adapter alone; new callers use `CampaignSpec::cont_v`",
        ..FORBIDDEN
    },
    Rule {
        scope: "crates/",
        needles: &["finish_cont_v", "run_lineage", "run_blocking"],
        word: true,
        reason: "CONT-V is one pipeline on the coordinator: its stage sequence is \
                 `DesignPipeline`'s, and both arms share the coordinator's tail",
        ..FORBIDDEN
    },
];

/// Backfill is the one placement policy, and eight fault-model, retry,
/// hedge and surrogate values are constants: a strict-arrival policy and
/// eight config fields were settings only tests ever moved off their
/// defaults. So are the sub-pipeline policy's cycles, margin, exploration
/// temperature and speculation width, and the task shapes of a cost model
/// both arms shared: no caller set them.
const ONE_VALUE: &[Rule] = &[Rule {
    needles: &[
        "Fifo",
        "place_fifo",
        "hang_factor:",
        "max_crashes_per_node:",
        "slowdown_duration:",
        "max_slowdowns_per_node:",
        "retransmit_timeout:",
        "backoff_multiplier:",
        "min_samples:",
        "mutation_rate:",
        "CostModel",
        "sub_cycles:",
        "margin:",
        "exploration_temperature:",
        "sub_speculation:",
        "mpnn_cores:",
        "mpnn_duration:",
        "mpnn_gpu_busy:",
        "msa_cores:",
        "inference_cores:",
        "inference_gpus:",
        "inference_gpu_busy:",
        "small_task:",
    ],
    word: true,
    reason: "a setting stays only where two callers pick different values; \
             with one value in use it is a constant",
    ..FORBIDDEN
}];

/// Backfill asks only whether a shape fits a node, so a grant is a node and
/// two counts, and a node's free capacity is two counters in the
/// scheduler's pool. Per-device id vectors and the bitmask pool that handed
/// them out are deleted.
const DEVICE_IDS: &[Rule] = &[Rule {
    needles: &["core_ids", "gpu_ids", "SlotPool", "take_lowest", "id_buf"],
    word: true,
    reason: "a grant names no device: a node's free capacity is two counters \
             in the scheduler's pool",
    ..FORBIDDEN
}];

/// Placement asks each shape's fit set, which is always exact; a max tree
/// over the nodes, and a proof carried between rounds of which shapes fit
/// nowhere, used to answer the same question.
const FIT_SETS: &[Rule] = &[Rule {
    scope: "crates/pilot/src/scheduler/",
    part: Part::Code,
    needles: &["FitIndex", "blocked_shape", "failed_shapes", "dominates"],
    word: true,
    reason: "one fit set per interned shape answers every fit question: an empty set \
             is \"fits nowhere\", its lowest bit is the first fit",
    ..FORBIDDEN
}];

/// An allocation pin is a unit test beside the code it bounds: the probe
/// counts per thread, so each crate installs it for its own unit tests and
/// `perf` for its ledger. A test binary per pin, with the probe installed
/// process-wide, is what this replaced.
const ALLOC_PINS: &[Rule] = &[Rule {
    needles: &["global_allocator"],
    verdict: Verdict::OnlyIn(&[
        "crates/pilot/src/lib.rs",
        "crates/proteins/src/lib.rs",
        "crates/sim/src/alloc_probe.rs",
        "crates/sim/src/lib.rs",
        "crates/telemetry/src/lib.rs",
        "crates/workflow/src/lib.rs",
        "perf/src/main.rs",
    ]),
    reason: "a pin is a unit test in the module it bounds, under its crate's own \
             `#[cfg(test)]` probe; no test binary installs an allocator",
    ..FORBIDDEN
}];

/// The campaign service reaches its one backend through one pool of lanes
/// and bills; a shared-cluster layer of leases and accounts under it kept
/// a second table per campaign and per tenant, and three fields to
/// translate between them.
const ONE_LAYER: &[Rule] = &[
    Rule {
        scope: "crates/",
        needles: &["SharedCluster", "ClusterLease", "AccountId"],
        word: true,
        reason: "a campaign is a lane of the service's pool and a tenant is a bill; \
                 there is no cluster layer under the service",
        ..FORBIDDEN
    },
    Rule {
        scope: "crates/pilot/src/cluster.rs",
        verdict: Verdict::Absent,
        reason: "the service's pool routes and bills completions itself",
        ..FORBIDDEN
    },
];

const RULES: [&[Rule]; 16] = [
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
    ONE_VALUE,
    DEVICE_IDS,
    FIT_SETS,
    ALLOC_PINS,
    ONE_LAYER,
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
                let mut homes: Vec<&str> = files
                    .iter()
                    .filter(|(_, text)| has(text, needle))
                    .map(|(rel, _)| rel.as_str())
                    .collect();
                homes.sort_unstable();
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
const DENSE_ID_FILES: [&str; 4] = [
    "crates/sim/src/event.rs",
    "crates/pilot/src/scheduler/mod.rs",
    "crates/pilot/src/profiler.rs",
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

/// The crate of a library file of `crates/*/src` (not `src/bin/`) and the
/// module it defines, as a path prefix: `lib.rs` is the root (empty), `a.rs`
/// and `a/mod.rs` are `a::`, `a/b.rs` is `a::b::`.
fn library_module(rel: &str) -> Option<(&str, String)> {
    let (krate, file) = rel.strip_prefix("crates/")?.split_once("/src/")?;
    if file.starts_with("bin/") || !file.ends_with(".rs") {
        return None;
    }
    let module = match file.trim_end_matches(".rs").trim_end_matches("/mod") {
        "lib" => String::new(),
        path => format!("{}::", path.replace('/', "::")),
    };
    Some((krate, module))
}

/// Whether a file outside the library of `crates/<krate>` names its
/// `module` (`a` or `a::b`): as the path `impress_<krate>::a::b`, inside a
/// `use impress_<krate>::{..};` or `use impress_<krate>::a::{..};` group,
/// or — most callers go through the crate root — as any item the root
/// re-exports from it (`pub use a::b::{A, f as G};` gives `A` and `G`), a
/// whole word in a file that also names the crate.
fn module_is_reached(krate: &str, module: &str, sources: &Sources) -> bool {
    let lib = sources
        .iter()
        .find(|(rel, _)| *rel == format!("crates/{krate}/src/lib.rs"));
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
    outside_library(krate, sources).any(|text| {
        names(text, &ident) && (by_path(text) || items.iter().any(|item| names(text, item)))
    })
}

/// The `.rs` files outside the library of `crates/<krate>`: another crate,
/// a `src/bin/` or `benches/` target, an example, a root test and
/// `perf/src`, but not the crate's own `src/` (minus `src/bin/`) or its own
/// `tests/`.
fn outside_library<'a>(krate: &str, sources: &'a Sources) -> impl Iterator<Item = &'a str> {
    let home = format!("crates/{krate}/");
    let (src, bins, tests) = (
        format!("{home}src/"),
        format!("{home}src/bin/"),
        format!("{home}tests/"),
    );
    sources
        .iter()
        .filter(move |(rel, _)| {
            let library = rel.starts_with(&src) && !rel.starts_with(&bins);
            rel.ends_with(".rs") && !library && !rel.starts_with(&tests)
        })
        .map(|(_, text)| text.as_str())
}

/// What is wrong with the `pub mod`s of `crates/*/src` in `sources` — at a
/// crate root or nested in a module file — given an allow-table of
/// `(crate::module, reason)`: a module nothing reaches and nothing allows,
/// and an allowed module that is gone or is reached after all.
fn reachability_violations(sources: &Sources, allowed: &[(&str, &str)]) -> Vec<String> {
    let mut unreached = Vec::new();
    for (rel, text) in sources {
        let Some((krate, parent)) = library_module(rel) else {
            continue;
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

// -------------------------------------------------------------- surface

/// The list of every `pub` item of the crate libraries.
const SURFACE: &str = "tests/surface.txt";

/// The name `decl` (what follows `pub ` on a line) declares, if it
/// declares an item: a `fn`, `struct`, `enum`, `trait`, `type`, `const`,
/// `static` or `union`. A `pub use`, a `pub mod` and a restricted
/// `pub(..)` declare none.
fn declared(decl: &str) -> Option<&str> {
    let mut words = decl.split_whitespace().peekable();
    while let Some(word) = words.next() {
        match word {
            "const" if words.peek() == Some(&"fn") => {}
            "unsafe" | "async" => {}
            "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" | "union" => {
                let name = words.next()?;
                return name
                    .split(|c: char| !c.is_alphanumeric() && c != '_')
                    .next();
            }
            _ => return None,
        }
    }
    None
}

/// The lines of `text` outside its `#[cfg(test)]` items: the attribute,
/// and the item under it to the line where it ends — at a `;` outside any
/// bracket, or at the `}` that closes its body. Brackets are counted
/// across lines, outside strings, character literals and `//` comments.
fn outside_tests(text: &str) -> impl Iterator<Item = &str> {
    let mut lines = text.lines();
    std::iter::from_fn(move || loop {
        let line = lines.next()?;
        if line.trim() != "#[cfg(test)]" {
            return Some(line);
        }
        let (mut depth, mut in_str) = (0i32, false);
        for item in lines.by_ref() {
            let mut ended = false;
            let mut chars = item.chars().peekable();
            while let Some(c) = chars.next() {
                match c {
                    '\\' if in_str => {
                        chars.next();
                    }
                    '"' => in_str = !in_str,
                    _ if in_str => {}
                    '/' if chars.peek() == Some(&'/') => break,
                    '\'' => {
                        // A character literal (`'{'`, `'\''`), not a lifetime.
                        let mut ahead = chars.clone();
                        if ahead.next() == Some('\\') {
                            ahead.next();
                        }
                        if ahead.next() == Some('\'') {
                            chars = ahead;
                        }
                    }
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' => depth -= 1,
                    '}' => {
                        depth -= 1;
                        ended |= depth == 0;
                    }
                    ';' => ended |= depth == 0,
                    _ => {}
                }
            }
            if ended && depth == 0 {
                break;
            }
        }
    })
}

/// The `pub` items of one library file's code outside its `#[cfg(test)]`
/// items, each as `(path under the crate, identifier, method)`:
/// module-level items, the items of an inline `pub mod`, the `pub` methods
/// and constants of inherent impls of the file's own `pub` types
/// (`Type::method`), and exported macros (at the crate root). `module` is
/// the file's module as a path prefix.
fn pub_items(module: &str, text: &str) -> Vec<(String, String, bool)> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut found: Vec<(String, String, Option<String>)> = Vec::new();
    // The block the scan is in: an inherent impl (its type's path), an
    // inline `pub mod` (its path and `None`), or neither.
    let mut inside: Option<(String, Option<String>)> = None;
    let mut header = String::new();
    let mut exported = false;
    for line in outside_tests(text) {
        if !header.is_empty() || line.starts_with("impl ") || line.starts_with("impl<") {
            // An impl header may run over several lines, to its `{`; an
            // empty impl (`impl Error for E {}`) opens no block.
            header.push_str(line);
            header.push(' ');
            if line.trim_end().ends_with("{}") {
                header.clear();
            } else if line.trim_end().ends_with('{') {
                let rest = header.trim_start_matches("impl");
                // Skip the impl's own generics: `impl<T: A<B>> S<T>`.
                let mut depth = 0;
                let start = rest.find(|c: char| {
                    match c {
                        '<' => depth += 1,
                        '>' => depth -= 1,
                        _ => return depth == 0 && ident(c),
                    }
                    false
                });
                let ty = &rest[start.unwrap_or(rest.len())..];
                let trait_impl = names(ty, "for");
                let name: String = ty.chars().take_while(|&c| ident(c)).collect();
                let path = format!("{module}{name}");
                inside = (!trait_impl).then(|| (format!("{path}::"), Some(path)));
                header.clear();
            }
        } else if let Some(name) = line.strip_prefix("pub mod ") {
            if let Some(name) = name.strip_suffix(" {") {
                inside = Some((format!("{module}{name}::"), None));
            }
        } else if line.starts_with('}') {
            inside = None;
        } else if let Some(decl) = line.strip_prefix("pub ") {
            if let Some(name) = declared(decl) {
                found.push((format!("{module}{name}"), name.to_string(), None));
            }
        } else if let Some(decl) = line.strip_prefix("    pub ") {
            if let (Some((prefix, owner)), Some(name)) = (&inside, declared(decl)) {
                found.push((format!("{prefix}{name}"), name.to_string(), owner.clone()));
            }
        } else if let Some(name) = line.strip_prefix("macro_rules! ") {
            if exported {
                let name: String = name.chars().take_while(|&c| ident(c)).collect();
                found.push((name.clone(), name, None));
            }
        }
        exported = line == "#[macro_export]";
    }
    // A method is public surface only if its type is.
    let items: Vec<String> = found.iter().map(|(path, ..)| path.clone()).collect();
    found
        .into_iter()
        .filter(|(.., owner)| owner.as_ref().is_none_or(|owner| items.contains(owner)))
        .map(|(path, ident, owner)| (path, ident, owner.is_some()))
        .collect()
}

/// Every `pub` item of `crates/*/src` (minus `src/bin/`) in `sources` as
/// `(crate::path, reached)`, sorted: an item is reached when a file
/// outside its crate's library names it — a module-level item as a whole
/// word in a file that also names the crate, a method as a whole word
/// anywhere (a call on a value need not name the crate).
fn surface(sources: &Sources) -> Vec<(String, bool)> {
    let mut items = Vec::new();
    for (rel, text) in sources {
        let Some((krate, module)) = library_module(rel) else {
            continue;
        };
        let crate_ident = format!("impress_{krate}");
        for (path, ident, method) in pub_items(&module, text) {
            let reached = outside_library(krate, sources)
                .any(|text| names(text, &ident) && (method || names(text, &crate_ident)));
            items.push((format!("{krate}::{path}"), reached));
        }
    }
    items.sort();
    items.dedup();
    items
}

/// What is wrong with `listed` (the text of [`SURFACE`]) against the
/// `pub` items of `sources`. Each line is an item's path, sorted; an item
/// nothing outside its crate names carries ` # ` and the reason it stays
/// public, and an item that is reached carries none.
fn surface_violations(sources: &Sources, listed: &str) -> Vec<String> {
    let scan = surface(sources);
    let lines: Vec<(&str, Option<&str>)> = listed
        .lines()
        .map(|line| match line.split_once(" # ") {
            Some((item, reason)) => (item, Some(reason)),
            None => (line, None),
        })
        .collect();
    let mut found = Vec::new();
    if let Some(pair) = lines.windows(2).find(|pair| pair[0].0 >= pair[1].0) {
        found.push(format!("{SURFACE} is not sorted at `{}`", pair[1].0));
    }
    for (item, reached) in &scan {
        match lines.iter().find(|(line, _)| line == item) {
            None => found.push(format!("missing from {SURFACE}: {item}")),
            Some((_, None)) if !reached => found.push(format!(
                "{item}: nothing outside its crate names it; make it `pub(crate)`, delete it, \
                 or give its line a `# reason`"
            )),
            Some((_, Some(_))) if *reached => found.push(format!(
                "{item}: reached from outside its crate; its reason is stale"
            )),
            Some(_) => {}
        }
    }
    for (line, _) in &lines {
        if !scan.iter().any(|(item, _)| item == line) {
            found.push(format!("extra in {SURFACE}: {line}"));
        }
    }
    found
}

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

/// Every name DESIGN.md cites holds in the tree, and every pointer into it
/// lands on a heading: each backticked `crates/…` path is a file or a
/// directory (`exists`), each backticked `impress_<crate>::…` path (or
/// `impress-<crate>::…`; a bare crate name is no path) [`resolves`], and
/// each heading pointer of README.md, EXPERIMENTS.md and the comments under
/// `crates/` and `tests/` ([`heading_pointers`]) names a heading of
/// DESIGN.md. A `{a, b}` group in a path names each of its members.
fn design_references(sources: &Sources, exists: &dyn Fn(&str) -> bool) -> Vec<String> {
    let design = source(sources, "DESIGN.md");
    let mut found = Vec::new();
    for span in code_spans(design) {
        if span.starts_with("crates/") {
            for path in expand(path_token(span)) {
                if !exists(&path) {
                    found.push(format!("DESIGN.md cites `{path}`, not in the tree"));
                }
            }
        }
        let starts = span
            .match_indices("impress_")
            .chain(span.match_indices("impress-"));
        for (at, _) in starts {
            if span[..at].ends_with(|c: char| c.is_alphanumeric() || "_-/".contains(c)) {
                continue;
            }
            let path = path_token(&span[at..]);
            if !path.contains("::") {
                continue;
            }
            for path in expand(path) {
                if let Err(why) = resolves(&path, sources) {
                    found.push(format!("DESIGN.md cites `{path}`: {why}"));
                }
            }
        }
    }
    let headings: Vec<&str> = design
        .lines()
        .filter(|line| line.starts_with('#'))
        .map(|line| line.trim_start_matches('#').trim())
        .collect();
    let pointing = sources.iter().filter(|(rel, _)| {
        matches!(rel.as_str(), "README.md" | "EXPERIMENTS.md")
            || (rel.starts_with("crates/") || rel.starts_with("tests/")) && rel.ends_with(".rs")
    });
    for (rel, text) in pointing {
        for heading in heading_pointers(text, rel.ends_with(".rs")) {
            if !headings.contains(&heading.as_str()) {
                found.push(format!(
                    "{rel} points at \"{heading}\" in DESIGN.md, which has no such heading"
                ));
            }
        }
    }
    found
}

/// The backticked spans of a Markdown text, fenced code blocks left out:
/// a span may cross a line break but never a fence.
fn code_spans(text: &str) -> impl Iterator<Item = &str> {
    let prose = text.split("```").step_by(2);
    prose.flat_map(|run| run.split('`').skip(1).step_by(2))
}

/// The path `text` starts with: identifier characters, `/`, `.`, `:` and
/// `-`, and `{…}` groups that may also hold `,` and white space; a
/// trailing `::` or `.` is not part of it.
fn path_token(text: &str) -> &str {
    let mut depth = 0;
    let end = text.find(|c: char| {
        match c {
            '{' => depth += 1,
            '}' if depth > 0 => depth -= 1,
            c if depth > 0 && (c == ',' || c.is_whitespace()) => {}
            c => return !(c.is_alphanumeric() || "_/.:-".contains(c)),
        }
        false
    });
    text[..end.unwrap_or(text.len())].trim_end_matches([':', '.'])
}

/// `text` with its first `{a, b}` group expanded, recursively: `x/{a,b}.rs`
/// is `x/a.rs` and `x/b.rs`.
fn expand(text: &str) -> Vec<String> {
    match (text.find('{'), text.find('}')) {
        (Some(open), Some(close)) if open < close => text[open + 1..close]
            .split(',')
            .flat_map(|member| {
                let (head, tail) = (&text[..open], &text[close + 1..]);
                expand(&format!("{head}{}{tail}", member.trim()))
            })
            .collect(),
        _ => vec![text.to_string()],
    }
}

/// Whether `impress_<crate>::a::…::z` names a public item of the crate
/// library in `sources`: every segment but the last is a `pub mod` of the
/// module before it (a file `a.rs` or a directory `a/mod.rs`), and the last
/// is declared `pub`, `pub use`d or a `pub mod` there. `Err` says where the
/// path stops resolving.
fn resolves(path: &str, sources: &Sources) -> Result<(), String> {
    let segments: Vec<&str> = path.split("::").collect();
    let dir = format!("crates/{}/src/", &segments[0]["impress_".len()..]);
    let file = |module: &[&str]| {
        let candidates = match module {
            [] => vec![format!("{dir}lib.rs")],
            _ => {
                let module = module.join("/");
                vec![format!("{dir}{module}.rs"), format!("{dir}{module}/mod.rs")]
            }
        };
        let found = sources.iter().find(|(rel, _)| candidates.contains(rel));
        found.map(|(_, text)| text.as_str())
    };
    let pub_mod = |text: &str, name: &str| {
        text.lines().any(|line| {
            line.strip_prefix("pub mod ")
                .is_some_and(|rest| rest.trim_end_matches([';', '{', ' ']) == name)
        })
    };
    let inner = &segments[1..];
    for (depth, name) in inner.iter().enumerate() {
        let within = segments[..=depth].join("::");
        let text = file(&inner[..depth]).ok_or(format!("no file for `{within}`"))?;
        if depth + 1 < inner.len() {
            if !pub_mod(text, name) {
                return Err(format!("`{name}` is not a `pub mod` of `{within}`"));
            }
            continue;
        }
        let declared_pub = text
            .lines()
            .filter_map(|line| line.strip_prefix("pub "))
            .any(|decl| declared(decl) == Some(*name));
        let exported_macro = text.contains(&format!("#[macro_export]\nmacro_rules! {name} "));
        let public = declared_pub || exported_macro || pub_mod(text, name);
        if !public && !re_exports(text).contains(name) {
            return Err(format!(
                "`{name}` is not declared `pub` or `pub use`d in `{within}`"
            ));
        }
    }
    Ok(())
}

/// The names the `pub use` statements of a module file bring in: the last
/// segment of each item, or its `as` name.
fn re_exports(text: &str) -> Vec<&str> {
    let starts = text
        .match_indices("\npub use ")
        .map(|(at, _)| at + 1)
        .chain(text.starts_with("pub use ").then_some(0));
    starts
        .flat_map(|at| statement(&text[at + "pub use ".len()..]).split(','))
        .filter_map(|item| {
            let item = item.split_whitespace().last()?;
            let name = item.rsplit("::").next()?;
            Some(name.trim_matches(['{', '}']))
        })
        .collect()
}

/// The DESIGN.md headings `text` points at: a heading in `"…"` or `*…*`
/// just before ` in DESIGN.md`, or just after `DESIGN.md, ` or
/// `DESIGN.md's ` (backticks around the file name or not, line breaks read
/// as spaces). In a `.rs` file only comment lines count.
fn heading_pointers(text: &str, rust: bool) -> Vec<String> {
    let lines = text.lines().map(str::trim).filter_map(|line| {
        if rust {
            line.starts_with("//")
                .then(|| line.trim_start_matches(['/', '!']).trim())
        } else {
            Some(line)
        }
    });
    let prose = lines.collect::<Vec<_>>().join(" ").replace('`', "");
    let quoted_before = |before: &str| {
        let before = before.strip_suffix(" in ")?;
        let quote = before.chars().last().filter(|c| matches!(c, '"' | '*'))?;
        let inner = &before[..before.len() - 1];
        Some(inner[inner.rfind(quote)? + 1..].to_string())
    };
    let quoted_after = |after: &str| {
        let after = after
            .strip_prefix(", ")
            .or_else(|| after.strip_prefix("'s "))?;
        let quote = after.chars().next().filter(|c| matches!(c, '"' | '*'))?;
        let inner = &after[1..];
        Some(inner[..inner.find(quote)?].to_string())
    };
    prose
        .match_indices("DESIGN.md")
        .filter_map(|(at, name)| {
            quoted_before(&prose[..at]).or_else(|| quoted_after(&prose[at + name.len()..]))
        })
        .collect()
}

/// The "Measured" cells of EXPERIMENTS.md's Table I that `table1.json`
/// holds, as the table prints them (percentages and hours to one decimal),
/// against the artifact: a cell edited by hand, or an artifact
/// re-recorded without its table, is caught here.
fn table_one(sources: &Sources) -> Vec<String> {
    let doc = match impress_json::parse(source(sources, "table1.json")) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("table1.json: {e}")],
    };
    let value = |arm: &str, field: &str| doc.get(arm).and_then(|a| a.get(field));
    let count = |arm: &str, field: &str| {
        value(arm, field)
            .and_then(impress_json::Json::as_u64)
            .map_or(format!("no {arm}.{field}"), |n| n.to_string())
    };
    let tenth = |arm: &str, field: &str| {
        value(arm, field)
            .and_then(impress_json::Json::as_f64)
            .map_or(format!("no {arm}.{field}"), |x| format!("{x:.1}"))
    };
    let mut cells = Vec::new();
    for (arm, label) in [("cont_v", "CONT-V"), ("imrp", "IM-RP")] {
        cells.push((format!("{label} trajectories"), count(arm, "trajectories")));
        cells.push((format!("{label} CPU %"), tenth(arm, "cpu_pct")));
        cells.push((format!("{label} GPU %"), tenth(arm, "gpu_pct")));
        cells.push((format!("{label} time (h)"), tenth(arm, "time_h")));
    }
    cells.push(("CONT-V #PL".into(), count("cont_v", "pipelines")));
    cells.push((
        "CONT-V #Structures/PL".into(),
        count("cont_v", "structures_per_pipeline"),
    ));
    let pipelines = [count("imrp", "pipelines"), count("imrp", "sub_pipelines")];
    cells.push(("IM-RP #PL / #Sub-PL".into(), pipelines.join(" / ")));

    let rows = experiments_rows(sources, "Table I ");
    let mut found = Vec::new();
    for (cell, want) in cells {
        match rows.iter().find(|row| row.get(1) == Some(&cell.as_str())) {
            None => found.push(format!("EXPERIMENTS.md Table I has no `{cell}` row")),
            Some(row) if row.get(3) != Some(&want.as_str()) => found.push(format!(
                "EXPERIMENTS.md Table I: `{cell}` measures {:?}, table1.json gives {want}",
                row.get(3).unwrap_or(&"")
            )),
            Some(_) => {}
        }
    }
    found
}

/// The table rows of the EXPERIMENTS.md section whose heading starts with
/// `heading`, split at `|` and trimmed: a row's first cell is at 1.
fn experiments_rows<'a>(sources: &'a Sources, heading: &str) -> Vec<Vec<&'a str>> {
    let experiments = source(sources, "EXPERIMENTS.md");
    let section = experiments
        .split("\n## ")
        .find(|section| section.starts_with(heading))
        .unwrap_or_default();
    section
        .lines()
        .filter(|line| line.starts_with('|'))
        .map(|line| line.split('|').map(str::trim).collect())
        .collect()
}

/// Every variant row of EXPERIMENTS.md's Ablations table against
/// `ablations.json`, as the table prints it: the median score to three
/// decimals, AlphaFold evaluations whole, virtual hours to one decimal,
/// and the CPU and GPU-slot shares in whole percent.
fn ablations_table(sources: &Sources) -> Vec<String> {
    use impress_json::Json;
    let doc = match impress_json::parse(source(sources, "ablations.json")) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("ablations.json: {e}")],
    };
    let variants = doc.get("rows").and_then(Json::as_array).unwrap_or_default();
    if variants.is_empty() {
        return vec!["ablations.json has no rows".into()];
    }
    let rows = experiments_rows(sources, "Ablations ");
    // Column, field, decimals printed, and the scale to print it at.
    let columns = [
        ("median", "median_final_score", 3, 1.0),
        ("evals", "evaluations", 0, 1.0),
        ("hours", "makespan_hours", 1, 1.0),
        ("CPU %", "cpu", 0, 100.0),
        ("GPU %", "gpu_slot", 0, 100.0),
    ];
    let mut found = Vec::new();
    for variant in variants {
        let name = variant.get("variant").and_then(Json::as_str).unwrap_or("?");
        let Some(row) = rows.iter().find(|row| row.get(1) == Some(&name)) else {
            found.push(format!("EXPERIMENTS.md Ablations has no `{name}` row"));
            continue;
        };
        for (at, (column, field, decimals, scale)) in columns.into_iter().enumerate() {
            let value = variant.get(field).and_then(Json::as_f64);
            let want = value.map_or(format!("no {name}.{field}"), |x| {
                format!("{:.*}", decimals, x * scale)
            });
            if row.get(2 + at) != Some(&want.as_str()) {
                found.push(format!(
                    "EXPERIMENTS.md Ablations: `{name}` {column} reads {:?}, ablations.json gives {want}",
                    row.get(2 + at).unwrap_or(&"")
                ));
            }
        }
    }
    found
}

/// This file, which [`sources`] leaves out, for the comments that point
/// into DESIGN.md.
fn this_file() -> (String, String) {
    (
        "tests/hermetic.rs".into(),
        include_str!("hermetic.rs").into(),
    )
}

/// Whether `rel` is a file or a directory of the checkout.
fn on_disk(rel: &str) -> bool {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel).exists()
}

// ------------------------------------------------------------- fixtures

/// A test-only item above a fixture's code: it does not end the code.
const TEST_HELPER: &str = "#[cfg(test)]\nfn helper() {}\n";

/// Every rule row, on a tree made to break it and on one made to keep it:
/// the clean tree keeps the needles where the row does not read (the other
/// side of the test module), and an allow-listed file whose exemption is no
/// longer needed is reported stale. Each fixture's code starts with a
/// test-only helper, so a row that reads code reads past it.
#[test]
fn every_rule_row_is_pinned_on_fixtures() {
    let file = |code: &str, tests: &str| {
        format!("{TEST_HELPER}{code}\n#[cfg(test)]\nmod tests {{\n{tests}\n}}\n")
    };
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
                let code = |n: usize| n - TEST_HELPER.lines().count();
                let lines = |n: usize| file(&vec!["x"; code(n)].join("\n"), "x\nx");
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

/// Where a file splits: at its test module, not at a test-only item above
/// the code, an indented one, or one whose item is not a module.
#[test]
fn a_file_splits_at_its_test_module() {
    let text = "//! Docs that spell #[cfg(test)] in prose.\nfn early() {}\n\
        #[cfg(test)]\nfn helper() {}\n#[cfg(test)]\nimpl Early {}\n\
        impl Later {\n    #[cfg(test)]\n    mod inner {}\n}\nfn later() { needle() }\n\
        #[cfg(test)]\n#[allow(dead_code)]\npub(super) mod tests {\n    fn probe() {}\n}\n";
    let (code, tests) = (part(text, Part::Code), part(text, Part::Tests));
    assert!(code.starts_with("//! Docs") && code.ends_with("needle() }\n"));
    assert!(tests.starts_with("#[cfg(test)]\n#[allow") && tests.contains("probe"));
    assert_eq!(code.len() + tests.len(), text.len());
    let none = "fn a() {}\n#[cfg(test)]\nfn b() {}\n";
    assert_eq!(
        (part(none, Part::Code), part(none, Part::Tests)),
        (none, "")
    );
    // A code row finds a needle below the helper.
    let rule = Rule {
        part: Part::Code,
        needles: &["needle()"],
        reason: "fixture",
        ..FORBIDDEN
    };
    let tree = [("crates/a/src/lib.rs".to_string(), text.to_string())];
    assert_eq!(rule_violations(&rule, &tree).len(), 1);
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

/// The item scan and the surface list, on in-memory trees: which
/// declarations are items, what counts as reach, and that each kind of
/// drift between the tree and the list is reported.
#[test]
fn the_surface_scan_is_pinned_on_fixtures() {
    const LIB: &str = "pub mod m;\npub use m::LIMIT;\n#[cfg(test)]\nmod oracle;\n\
        pub(crate) fn inner() {}\npub struct Widget;\nimpl Widget {\n    \
        pub const fn spin(&self) {}\n    fn private(&self) {}\n}\n\
        impl Clone for Widget {\n    pub fn clone(&self) -> Self { Widget }\n}\n\
        impl Eq for Widget {}\npub fn used() {}\n\
        struct Hidden;\nimpl Hidden {\n    pub fn open(&self) {}\n}\n\
        #[cfg(test)]\nimpl Widget {\n    pub fn probe(&self) {}\n}\n\
        #[macro_export]\nmacro_rules! make {\n    () => {};\n}\n\
        #[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
    const M: &str = "pub const LIMIT: u32 = 3;\npub mod inline {\n    pub unsafe fn deep() {}\n}\n\
        impl<T: Into<u32>>\n    Gadget<T>\n{\n    pub fn turn(&self) {}\n}\npub struct Gadget<T>(T);\n";
    const LISTED: &str = "a::Widget\na::Widget::spin\na::m::Gadget # crates/a/tests/t.rs\n\
        a::m::Gadget::turn # crates/a/tests/t.rs\na::m::LIMIT # crates/a/tests/t.rs\n\
        a::m::inline::deep # crates/a/tests/t.rs\na::make\na::used\n";
    let tree = |lib: &str| -> Vec<(String, String)> {
        [
            ("crates/a/src/lib.rs", lib),
            ("crates/a/src/m.rs", M),
            (
                "crates/a/tests/t.rs",
                "use impress_a::{m::{inline::deep, Gadget}, LIMIT};\nturn();",
            ),
            (
                "examples/e.rs",
                "use impress_a::{make, used, Widget};\nfn f(w: Widget) { w.spin() }",
            ),
            ("tests/surface.txt", "a::m::LIMIT"),
        ]
        .iter()
        .map(|(f, t)| (f.to_string(), t.to_string()))
        .collect()
    };
    let reached = |item: &str| (item.to_string(), true);
    let unreached = |item: &str| (item.to_string(), false);
    assert_eq!(
        surface(&tree(LIB)),
        [
            reached("a::Widget"),
            reached("a::Widget::spin"),
            unreached("a::m::Gadget"),
            unreached("a::m::Gadget::turn"),
            unreached("a::m::LIMIT"),
            unreached("a::m::inline::deep"),
            reached("a::make"),
            reached("a::used"),
        ]
    );
    assert_eq!(surface_violations(&tree(LIB), LISTED), Vec::<String>::new());

    // A test-only item ends where it ends — a static over two lines at its
    // `;`, a body at its closing `}` whatever its literals hold — so the
    // items below each are scanned.
    let split = "#[cfg(test)]\nstatic PROBE: [u8; 2] =\n    [1, 2];\npub fn f() {}\n\
        #[cfg(test)]\nfn probe() {\n    let _ = ('{', \"{\", '\\'', \"\\\"{\"); // {\n}\n\
        pub fn g() {}\nmod m {\n}\n";
    let fn_item = |name: &str| (name.to_string(), name.to_string(), false);
    assert_eq!(pub_items("", split), [fn_item("f"), fn_item("g")]);

    // Each planting is reported, and only it.
    let planted_lib = LIB.replacen(
        "pub fn used() {}\n",
        "pub fn used() {}\npub fn spare() {}\n",
        1,
    );
    for (lib, listed, finding) in [
        (
            planted_lib.as_str(),
            LISTED.replace("a::make\n", "a::make\na::spare\n"),
            "a::spare: nothing outside its crate names it",
        ),
        (
            LIB,
            LISTED.replace("a::used", "a::used # examples"),
            "a::used: reached",
        ),
        (
            LIB,
            LISTED.replace("a::Widget::spin\n", ""),
            "missing from tests/surface.txt: a::Widget::spin",
        ),
        (
            LIB,
            format!("{LISTED}a::zzz\n"),
            "extra in tests/surface.txt: a::zzz",
        ),
        (
            LIB,
            LISTED.replace("a::make\na::used", "a::used\na::make"),
            "not sorted at `a::make`",
        ),
    ] {
        let found = surface_violations(&tree(lib), &listed);
        assert!(
            found.len() == 1 && found[0].contains(finding),
            "{finding}: {found:?}"
        );
    }
}

/// The doc check on an in-memory tree: brace groups, paths through
/// `pub mod`s and `pub use`s, heading pointers in prose and in comments
/// (not in code), fenced blocks left alone; and each kind of stale name is
/// reported, alone.
#[test]
fn the_doc_check_is_pinned_on_fixtures() {
    const LIB: &str =
        "pub mod m;\nmod hidden;\npub use m::{\n    Thing,\n    helper as assist,\n};\n\
        #[macro_export]\nmacro_rules! make {\n    () => {};\n}\n";
    const M: &str =
        "pub mod deep;\npub struct Thing;\npub(crate) fn inner() {}\npub fn helper() {}\n";
    const DESIGN: &str =
        "# Top\n\n## One section\n\nSee `crates/a/src/{lib,m/mod}.rs`, `crates/a/src/m/`\n\
        and `impress_a::{Thing, assist,\nmake}`, `impress_a::m::deep::Gadget`, `impress-a::m`.\n\n\
        ```text\n`crates/a/src/fenced.rs` `impress_a::Fenced`\n```\n";
    const README: &str = "Read \"One section\" in `DESIGN.md`, and DESIGN.md's *Top*.\n";
    const TEST: &str = "/// As the\n/// `DESIGN.md`, \"Top\" says.\nconst S: &str = \"\\\"Gone\\\" in DESIGN.md\";\n";
    let tree = |plant: (&str, &str)| -> Vec<(String, String)> {
        let mut files = vec![
            ("crates/a/src/lib.rs", LIB.to_string()),
            ("crates/a/src/m/mod.rs", M.to_string()),
            ("crates/a/src/m/deep.rs", "pub struct Gadget;\n".to_string()),
            ("crates/a/src/hidden.rs", "pub struct Secret;\n".to_string()),
            ("DESIGN.md", DESIGN.to_string()),
            ("README.md", README.to_string()),
            ("tests/t.rs", TEST.to_string()),
        ];
        for (rel, text) in files.iter_mut() {
            if *rel == plant.0 {
                text.push_str(plant.1);
            }
        }
        files
            .into_iter()
            .map(|(rel, text)| (rel.to_string(), text))
            .collect()
    };
    let check = |sources: &Sources| {
        let exists = |rel: &str| {
            let dir = rel.ends_with('/');
            sources
                .iter()
                .any(|(path, _)| path == rel || dir && path.starts_with(rel))
        };
        design_references(sources, &exists)
    };
    assert_eq!(check(&tree(("", ""))), Vec::<String>::new());
    assert_eq!(
        heading_pointers(README, false),
        ["One section", "Top"],
        "before and after the file name"
    );
    assert_eq!(heading_pointers(TEST, true), ["Top"], "comments only");
    for (plant, finding) in [
        (
            ("DESIGN.md", "`crates/a/src/nope.rs`"),
            "cites `crates/a/src/nope.rs`, not in the tree",
        ),
        (
            ("DESIGN.md", "`crates/a/src/{lib,gone}.rs`"),
            "cites `crates/a/src/gone.rs`",
        ),
        (
            ("DESIGN.md", "`impress_a::NoSuchItem`"),
            "`NoSuchItem` is not declared `pub` or `pub use`d in `impress_a`",
        ),
        (
            ("DESIGN.md", "`impress_a::hidden::Secret`"),
            "`hidden` is not a `pub mod` of `impress_a`",
        ),
        (
            ("DESIGN.md", "`impress_a::m::inner`"),
            "`inner` is not declared `pub` or `pub use`d in `impress_a::m`",
        ),
        (
            ("README.md", "see \"No Such Heading\" in `DESIGN.md`"),
            "README.md points at \"No Such Heading\"",
        ),
        (
            ("tests/t.rs", "// (DESIGN.md, \"Old\n// heading\")\n"),
            "tests/t.rs points at \"Old heading\"",
        ),
    ] {
        let found = check(&tree(plant));
        assert!(
            found.len() == 1 && found[0].contains(finding),
            "{finding}: {found:?}"
        );
    }
}

/// The Table I check on the checked-in files, one cell edited at a time:
/// each edit is reported, and only it.
#[test]
fn the_table_one_check_is_pinned_on_the_checked_in_table() {
    let edited = |from: &str, to: &str| -> Vec<(String, String)> {
        let mut tree: Vec<(String, String)> = ["EXPERIMENTS.md", "table1.json"]
            .iter()
            .map(|rel| (rel.to_string(), source(sources(), rel).to_string()))
            .collect();
        assert_eq!(tree[0].1.matches(from).count(), 1, "{from}");
        tree[0].1 = tree[0].1.replace(from, to);
        tree
    };
    for (from, to, finding) in [
        (
            "| CONT-V GPU % | 1 | 1.1 |",
            "| CONT-V GPU % | 1 | 1.0 |",
            "`CONT-V GPU %` measures \"1.0\", table1.json gives 1.1",
        ),
        (
            "| IM-RP #PL / #Sub-PL | 2 / 7 | 4 / 7 |",
            "| IM-RP #PL / #Sub-PL | 2 / 7 | 4 / 8 |",
            "gives 4 / 7",
        ),
        (
            "| IM-RP time (h) | 38.3 | 38.3 |",
            "| IM-RP hours | 38.3 | 38.3 |",
            "no `IM-RP time (h)` row",
        ),
    ] {
        let found = table_one(&edited(from, to));
        assert!(
            found.len() == 1 && found[0].contains(finding),
            "{finding}: {found:?}"
        );
    }
}

/// The Ablations check on the checked-in files, one cell of each column
/// edited at a time, and one variant renamed: each edit is reported, and
/// only it.
#[test]
fn the_ablations_check_is_pinned_on_the_checked_in_table() {
    let edited = |from: &str, to: &str| -> Vec<(String, String)> {
        let mut tree: Vec<(String, String)> = ["EXPERIMENTS.md", "ablations.json"]
            .iter()
            .map(|rel| (rel.to_string(), source(sources(), rel).to_string()))
            .collect();
        assert_eq!(tree[0].1.matches(from).count(), 1, "{from}");
        tree[0].1 = tree[0].1.replace(from, to);
        tree
    };
    assert_eq!(ablations_table(sources()), Vec::<String>::new());
    for (from, to, finding) in [
        (
            "| adaptive=off | 0.805 |",
            "| adaptive=off | 0.806 |",
            "`adaptive=off` median reads \"0.806\", ablations.json gives 0.805",
        ),
        (
            "| speculation=1 | 0.829 | 59 |",
            "| speculation=1 | 0.829 | 60 |",
            "`speculation=1` evals reads \"60\"",
        ),
        (
            "| 15.4 | 51 | 37 |",
            "| 15.5 | 51 | 37 |",
            "`retry_budget=1` hours reads \"15.5\"",
        ),
        (
            "| 38.3 | 77 | 55 |",
            "| 38.3 | 78 | 55 |",
            "`baseline (IM-RP defaults)` CPU % reads \"78\", ablations.json gives 77",
        ),
        (
            "| 25.8 | 29 | 98 |",
            "| 25.8 | 29 | 97 |",
            "`msa=single-sequence` GPU % reads \"97\"",
        ),
        (
            "| deprioritized-speculation |",
            "| deprioritised-speculation |",
            "no `deprioritized-speculation` row",
        ),
    ] {
        let found = ablations_table(&edited(from, to));
        assert!(
            found.len() == 1 && found[0].contains(finding),
            "{finding}: {found:?}"
        );
    }
}
