//! The parser must accept every JSON artifact checked into the repository
//! root (emitted by the paper and study bench binaries, plus
//! `BENCHMARK.json`), and re-serializing the parsed tree must be a fixed
//! point of parsing.

use impress_json::{parse, to_string_pretty, Json};
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

/// Every `*.json` in the repository root: the paper and study artifacts
/// plus the benchmark contract.
fn root_artifacts() -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(repo_root())
        .expect("read the repository root")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    found.sort();
    assert!(
        found.len() >= 11,
        "expected every checked-in artifact, found {found:?}"
    );
    found
}

#[test]
fn checked_in_artifacts_parse_and_round_trip() {
    for path in root_artifacts() {
        let name = path.display();
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
        let value = parse(&text).unwrap_or_else(|e| panic!("parse {name}: {e}"));
        assert!(
            matches!(value, Json::Object(_)),
            "{name} should be a JSON object"
        );
        let rendered = to_string_pretty(&value);
        let reparsed = parse(&rendered).unwrap_or_else(|e| panic!("reparse {name}: {e}"));
        assert_eq!(reparsed, value, "{name} must round-trip through our writer");
    }
}

#[test]
fn artifacts_expose_expected_top_level_keys() {
    let checks: &[(&str, &[&str])] = &[
        ("fig2.json", &["seed", "cont_v", "imrp"]),
        ("fig3.json", &["seed", "series"]),
        ("table1.json", &["seed", "cont_v", "imrp", "improvement_pct"]),
        ("scaling.json", &["seed", "rows"]),
        ("resilience.json", &["seed", "task_failure_rate", "rows"]),
    ];
    for (name, keys) in checks {
        let text = std::fs::read_to_string(repo_root().join(name)).expect("artifact exists");
        let value = parse(&text).expect("artifact parses");
        for key in *keys {
            assert!(value.get(key).is_some(), "{name} missing key {key}");
        }
    }
}
