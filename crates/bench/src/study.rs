//! The study table: every checked-in JSON artifact at the repository root
//! is one [`Study`] row — its name, its file, how to run it at paper and
//! smoke size, and the row shapes and claims its document must show.
//!
//! The `study` binary runs rows, writes their files and prints them;
//! `tests/hermetic.rs` holds every checked-in file, and every row's smoke
//! run, to the row's claims. A new artifact is a new row.

use crate::harness::{downsample, sparkline};
use crate::{paper, partition, resilience, straggler, trace};
use impress_json::{Json, Number};
use std::fmt::Write as _;

/// How big a study run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The checked-in artifact's size.
    Paper,
    /// A seconds-scale run exercising every code path under `cargo test`.
    Smoke,
}

/// One checked-in study.
pub struct Study {
    /// The name the `study` binary takes.
    pub name: &'static str,
    /// The file the study writes, at the repository root.
    pub file: &'static str,
    /// The `format_version` the file carries, where it carries one.
    pub version: Option<u32>,
    /// The study's document at `size` under a master seed.
    pub run: fn(Size, u64) -> Json,
    /// Row arrays: key, row count, and what every row satisfies.
    pub rows: &'static [(&'static str, usize, &'static [Claim])],
    /// Claims on the document that hold at any size.
    pub claims: &'static [Claim],
    /// Claims only the paper-size run is sized to meet.
    pub paper_claims: &'static [Claim],
    /// A figure drawn from the document, printed after it.
    pub figure: Option<fn(&Json) -> String>,
}

/// What every row leaves out.
const STUDY: Study = Study {
    name: "",
    file: "",
    version: None,
    run: |_, _| Json::Null,
    rows: &[],
    claims: &[],
    paper_claims: &[],
    figure: None,
};

/// The table. The paper's own experiment (Table I, Figs. 2, 4 and 5) is
/// seconds-scale already, so its smoke size is its paper size.
pub const STUDIES: &[Study] = &[
    Study {
        name: "table1",
        file: "table1.json",
        run: paper::table1,
        claims: &[
            Claim::Positive("cont_v.trajectories"),
            Claim::Positive("imrp.trajectories"),
            Claim::Positive("improvement_pct.ptm"),
            Claim::Positive("improvement_pct.plddt"),
            Claim::Positive("improvement_pct.pae"),
            Claim::Holds("IM-RP `cpu_pct` at least 3× CONT-V's", |doc| {
                num(doc, "imrp.cpu_pct") >= 3.0 * num(doc, "cont_v.cpu_pct")
            }),
        ],
        ..STUDY
    },
    Study {
        name: "fig2",
        file: "fig2.json",
        run: paper::fig2,
        rows: &[("cont_v", 3, &[]), ("imrp", 3, &[])],
        claims: &[Claim::Holds(
            "IM-RP pLDDT and pTM medians above CONT-V's at iterations 1-4",
            paper::imrp_leads_through_iteration_four,
        )],
        figure: Some(paper::fig2_figure),
        ..STUDY
    },
    Study {
        name: "fig3",
        file: "fig3.json",
        run: paper::fig3,
        rows: &[("series", 3, &[])],
        claims: &[
            Claim::Holds(
                "one iteration-1 trajectory per complex: every complex is a root pipeline",
                paper::one_root_per_complex,
            ),
            Claim::Positive("sub_pipelines"),
            Claim::Holds("at most 96 sub-pipelines per 70 complexes", |doc| {
                num(doc, "sub_pipelines") <= (num(doc, "complexes") * 96.0 / 70.0).floor()
            }),
            Claim::Holds("at least 3 trajectories a complex", |doc| {
                num(doc, "trajectories") >= 3.0 * num(doc, "complexes")
            }),
            Claim::Holds(
                "at most 4 root trajectories a complex, plus one a sub-pipeline",
                |doc| {
                    num(doc, "trajectories")
                        <= 4.0 * num(doc, "complexes") + num(doc, "sub_pipelines")
                },
            ),
            Claim::Holds(
                "every metric's median improves from iteration 1 to 3",
                paper::improves_through_iteration_three,
            ),
        ],
        paper_claims: &[Claim::Holds(
            "pLDDT and pTM medians fall from iteration 3 to 4",
            paper::dips_at_iteration_four,
        )],
        figure: Some(paper::fig3_figure),
        ..STUDY
    },
    Study {
        name: "fig4",
        file: "fig4.json",
        run: paper::fig4,
        claims: &[
            Claim::Holds("`avg_cpu` below 0.25", |doc| num(doc, "avg_cpu") < 0.25),
            Claim::Holds("`avg_gpu_hw` below 0.05", |doc| {
                num(doc, "avg_gpu_hw") < 0.05
            }),
        ],
        ..STUDY
    },
    Study {
        name: "fig5",
        file: "fig5.json",
        run: paper::fig5,
        claims: &[
            Claim::Positive("avg_gpu_slot"),
            Claim::Positive("phases.tasks_executed"),
        ],
        ..STUDY
    },
    Study {
        name: "scaling",
        file: "scaling.json",
        run: paper::scaling,
        rows: &[("rows", 6, &[Claim::Positive("makespan_hours")])],
        claims: &[Claim::Positive("task_stream.tasks")],
        paper_claims: &[Claim::Holds("makespan falls from 1 to 8 nodes", |doc| {
            let hours: Vec<f64> = rows(doc, "rows")
                .iter()
                .take(4)
                .map(|r| num(r, "makespan_hours"))
                .collect();
            hours.windows(2).all(|w| w[1] < w[0])
        })],
        ..STUDY
    },
    Study {
        name: "resilience",
        file: "resilience.json",
        run: resilience::resilience,
        rows: &[("rows", 14, &[Claim::Positive("makespan_hours")])],
        claims: &[Claim::Positive("task_failure_rate")],
        paper_claims: &[Claim::Holds(
            "no lineage aborts under a retry budget of 3",
            |doc| {
                let budgeted = |r: &&Json| num(r, "retry_budget") == 3.0;
                rows(doc, "rows")
                    .iter()
                    .filter(budgeted)
                    .all(|r| num(r, "aborted_lineages") == 0.0)
            },
        )],
        ..STUDY
    },
    Study {
        name: "recovery",
        file: "recovery.json",
        version: Some(impress_workflow::JOURNAL_FORMAT_VERSION),
        run: resilience::recovery,
        rows: &[(
            "rows",
            9,
            &[
                Claim::True("byte_identical"),
                // Replay milliseconds go to stderr, never the file, so it
                // regenerates byte for byte on any machine.
                Claim::Holds("no wall-clock `_ms` field", |row| {
                    let fields = row.as_object().unwrap_or_default();
                    fields.iter().all(|(key, _)| !key.ends_with("_ms"))
                }),
            ],
        )],
        claims: &[Claim::Positive("baseline_records")],
        ..STUDY
    },
    Study {
        name: "straggler",
        file: "straggler.json",
        version: Some(straggler::STRAGGLER_FORMAT_VERSION),
        run: straggler::run,
        rows: &[(
            "rows",
            24,
            &[
                Claim::Positive("makespan_secs"),
                Claim::Holds("the cell to drain its campaign", |row| {
                    let ends = ["completed", "poisoned", "shed", "timed_out"];
                    ends.iter().map(|k| num(row, k)).sum::<f64>() > 0.0
                }),
            ],
        )],
        claims: &[
            Claim::Positive("acceptance.k2_recovered_fraction"),
            Claim::Holds(
                "a quarantine-on cell to poison its doomed lineages",
                |doc| {
                    let on = |r: &&Json| at(r, "quarantine").as_str() == Some("on");
                    rows(doc, "rows")
                        .iter()
                        .filter(on)
                        .any(|r| num(r, "poisoned") > 0.0)
                },
            ),
        ],
        paper_claims: &[
            Claim::True("acceptance.k2_recovers_majority"),
            Claim::True("acceptance.quarantine_bounds_poison_waste"),
        ],
        ..STUDY
    },
    Study {
        name: "partition",
        file: "partition.json",
        version: Some(partition::PARTITION_FORMAT_VERSION),
        run: partition::run,
        rows: &[
            (
                "grid",
                36,
                &[
                    Claim::Positive("makespan_secs"),
                    Claim::Zero("duplicate_completions"),
                ],
            ),
            (
                "delivery",
                3,
                &[
                    Claim::Zero("duplicate_decision_effects"),
                    Claim::Zero("duplicate_journal_effects"),
                ],
            ),
        ],
        claims: &[
            Claim::True("acceptance.exactly_once_at_every_rate"),
            Claim::Zero("acceptance.grid_duplicate_completions"),
            Claim::Zero("acceptance.delivery_duplicate_effects"),
            Claim::Holds("every grid campaign to drain fully", |doc| {
                let drained = |r: &Json| num(r, "completed") == num(doc, "tasks");
                rows(doc, "grid").iter().all(drained)
            }),
            Claim::Holds("detection to suspect a node and expire its leases", |doc| {
                let on = |r: &&Json| at(r, "detector").as_str() != Some("off");
                let seen = |key| {
                    rows(doc, "grid")
                        .iter()
                        .filter(on)
                        .any(|r| num(r, key) > 0.0)
                };
                seen("suspicions") && seen("lease_expiries")
            }),
        ],
        paper_claims: &[Claim::True("acceptance.detection_recovers_90pct")],
        ..STUDY
    },
    Study {
        name: "trace",
        file: "trace_summary.json",
        version: Some(trace::TRACE_FORMAT_VERSION),
        run: trace::run,
        claims: &[
            Claim::True("perturbation_free"),
            Claim::True("nesting_ok"),
            Claim::True("chrome_round_trip_ok"),
            Claim::True("parity.backends_agree"),
            Claim::Positive("campaign.events"),
            Claim::Zero("campaign.events_dropped"),
        ],
        ..STUDY
    },
    Study {
        name: "ablations",
        file: "ablations.json",
        run: paper::ablations,
        rows: &[(
            "rows",
            8,
            &[
                Claim::Positive("makespan_hours"),
                Claim::Positive("evaluations"),
            ],
        )],
        claims: &[Claim::Holds(
            "speculation=4 evaluates at least as often as speculation=1",
            |doc| {
                paper::variant(doc, "speculation=4", "evaluations")
                    >= paper::variant(doc, "speculation=1", "evaluations")
            },
        )],
        paper_claims: &[Claim::Holds(
            "adaptive=off scores below the baseline",
            |doc| {
                let score = |v| paper::variant(doc, v, "median_final_score");
                score("adaptive=off") < score("baseline (IM-RP defaults)")
            },
        )],
        ..STUDY
    },
];

/// The studies `names` pick, in the order given; all of them for none. A
/// name that is not in the table is an error naming it and the known ones.
pub fn select(names: &[String]) -> Result<Vec<&'static Study>, String> {
    if names.is_empty() {
        return Ok(STUDIES.iter().collect());
    }
    let find = |name: &String| {
        STUDIES.iter().find(|s| s.name == name).ok_or_else(|| {
            let known: Vec<&str> = STUDIES.iter().map(|s| s.name).collect();
            format!("unknown study `{name}`; known: {}", known.join(", "))
        })
    };
    names.iter().map(find).collect()
}

// ---------------------------------------------------------------- claims

static NULL: Json = Json::Null;

/// The value at a dotted `path` of `doc` (`""` is `doc`), null if absent.
pub(crate) fn at<'a>(doc: &'a Json, path: &str) -> &'a Json {
    let mut keys = path.split('.').filter(|k| !k.is_empty());
    keys.try_fold(doc, |v, k| v.get(k)).unwrap_or(&NULL)
}

/// The number at `path`, NaN if there is none.
pub(crate) fn num(doc: &Json, path: &str) -> f64 {
    at(doc, path).as_f64().unwrap_or(f64::NAN)
}

/// The array at `path`, empty if there is none.
pub(crate) fn rows<'a>(doc: &'a Json, path: &str) -> &'a [Json] {
    at(doc, path).as_array().unwrap_or_default()
}

/// A predicate on a document or a row.
pub enum Claim {
    /// The value at the path is `true`.
    True(&'static str),
    /// The number at the path is 0.
    Zero(&'static str),
    /// The number at the path is positive.
    Positive(&'static str),
    /// A described predicate on the whole value.
    Holds(&'static str, fn(&Json) -> bool),
}

impl Claim {
    fn what(&self) -> String {
        match *self {
            Claim::True(path) => format!("`{path}` is true"),
            Claim::Zero(path) => format!("`{path}` is 0"),
            Claim::Positive(path) => format!("`{path}` is positive"),
            Claim::Holds(what, _) => what.to_string(),
        }
    }

    fn holds(&self, doc: &Json) -> bool {
        match *self {
            Claim::True(path) => at(doc, path).as_bool() == Some(true),
            Claim::Zero(path) => num(doc, path) == 0.0,
            Claim::Positive(path) => num(doc, path) > 0.0,
            Claim::Holds(_, holds) => holds(doc),
        }
    }
}

/// One checked statement about a document: what was checked (and where
/// it failed, if it did), and whether it holds.
struct Verdict {
    what: String,
    holds: bool,
}

impl Study {
    /// Every statement the study makes about `doc`, a document of `size`:
    /// the seed and format version, the row arrays, then the claims.
    fn verdicts(&self, doc: &Json, size: Size) -> Vec<Verdict> {
        let verdict = |holds: bool, what: String| Verdict { what, holds };
        let mut out = vec![verdict(
            at(doc, "seed").as_f64().is_some(),
            "`seed` is set".into(),
        )];
        if let Some(version) = self.version {
            let found = at(doc, "format_version");
            let holds = found.as_f64() == Some(f64::from(version));
            out.push(verdict(
                holds,
                format!("written under format {version} (found {found})"),
            ));
        }
        for (key, len, each) in self.rows {
            let rows = rows(doc, key);
            let found = rows.len();
            out.push(verdict(
                found == *len,
                format!("`{key}` has {len} rows (found {found})"),
            ));
            for claim in *each {
                let what = format!("every `{key}` row: {}", claim.what());
                out.push(match rows.iter().find(|row| !claim.holds(row)) {
                    None => verdict(true, what),
                    Some(row) => verdict(false, format!("{what} (fails in {row})")),
                });
            }
        }
        let paper = if size == Size::Paper {
            self.paper_claims
        } else {
            &[]
        };
        let claims = self.claims.iter().chain(paper);
        out.extend(claims.map(|claim| verdict(claim.holds(doc), claim.what())));
        out
    }

    /// The verdicts on `doc` that fail, as lines naming the document.
    pub fn violations(&self, doc: &Json, size: Size) -> Vec<String> {
        let which = match size {
            Size::Paper => self.file.to_string(),
            Size::Smoke => format!("{} smoke run", self.name),
        };
        let verdicts = self.verdicts(doc, size).into_iter();
        let failed = verdicts.filter(|v| !v.holds);
        failed.map(|v| format!("{which}: {}", v.what)).collect()
    }

    /// `doc`, a paper-size document, as text: the generic print, the
    /// study's figure, and a verdict line per statement. The flag says
    /// whether every statement holds.
    pub fn report(&self, doc: &Json) -> (String, bool) {
        let mut out = format!("\n== {} ({})\n", self.name, self.file);
        print_value(&mut out, "", doc);
        if let Some(figure) = self.figure {
            out.push('\n');
            out.push_str(&figure(doc));
        }
        let verdicts = self.verdicts(doc, Size::Paper);
        out.push_str("\nclaims:\n");
        for v in &verdicts {
            let mark = if v.holds { "holds" } else { "FAILS" };
            let _ = writeln!(out, "  {mark:<5}  {}", v.what);
        }
        (out, verdicts.iter().all(|v| v.holds))
    }
}

// --------------------------------------------------------------- printer

/// A scalar as a table cell or value: floats to three decimals.
fn cell(value: &Json) -> String {
    match value {
        Json::Num(Number::F64(f)) if f.fract() != 0.0 => format!("{f:.3}"),
        Json::Num(n) => format!("{}", n.as_f64()),
        Json::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

fn scalar(value: &Json) -> bool {
    !matches!(value, Json::Array(_) | Json::Object(_))
}

/// `value` at `path`: an object key by key, an array of flat objects as a
/// table, a long series of fractions as a sparkline, other scalar arrays
/// inline, any other array element by element, a scalar as `path = value`.
fn print_value(out: &mut String, path: &str, value: &Json) {
    let join = |key: &str| match path {
        "" => key.to_string(),
        _ => format!("{path}.{key}"),
    };
    let flat = |v: &Json| {
        v.as_object()
            .is_some_and(|f| f.iter().all(|(_, v)| scalar(v)))
    };
    let fraction = |v: &Json| v.as_f64().is_some_and(|f| (0.0..=1.0).contains(&f));
    match value {
        Json::Object(fields) => {
            for (key, v) in fields {
                print_value(out, &join(key), v);
            }
        }
        Json::Array(items) if !items.is_empty() && items.iter().all(flat) => {
            let _ = writeln!(out, "{path}:");
            print_table(out, items);
        }
        Json::Array(items) if items.len() > 12 && items.iter().all(fraction) => {
            let series: Vec<f64> = items.iter().filter_map(Json::as_f64).collect();
            let mean = series.iter().sum::<f64>() / series.len() as f64;
            let line = sparkline(&downsample(&series, 72));
            let _ = writeln!(out, "{path} |{line}| mean {mean:.3}");
        }
        Json::Array(items) if items.iter().all(scalar) => {
            let cells: Vec<String> = items.iter().map(cell).collect();
            let _ = writeln!(out, "{path} = [{}]", cells.join(", "));
        }
        Json::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                print_value(out, &join(&i.to_string()), v);
            }
        }
        leaf => {
            let _ = writeln!(out, "{path} = {}", cell(leaf));
        }
    }
}

/// Flat objects as right-aligned columns under the first one's keys.
fn print_table(out: &mut String, items: &[Json]) {
    let keys: Vec<&str> = items[0]
        .as_object()
        .unwrap_or_default()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let table: Vec<Vec<String>> = items
        .iter()
        .map(|row| keys.iter().map(|k| cell(at(row, k))).collect())
        .collect();
    let width = |i: usize| {
        table
            .iter()
            .map(|r| r[i].len())
            .fold(keys[i].len(), usize::max)
    };
    let line = |cells: &mut dyn Iterator<Item = &str>| -> String {
        let padded: Vec<String> = cells
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = width(i)))
            .collect();
        format!("  {}\n", padded.join("  "))
    };
    out.push_str(&line(&mut keys.iter().copied()));
    for row in &table {
        out.push_str(&line(&mut row.iter().map(String::as_str)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        impress_json::from_str(text).expect("fixture parses")
    }

    /// The check on an in-memory study: clean, then doctored four ways; a
    /// smoke document is not held to a paper-scale claim.
    #[test]
    fn the_artifact_check_rejects_doctored_documents() {
        const FIXTURE: Study = Study {
            file: "study.json",
            version: Some(3),
            rows: &[("grid", 2, &[Claim::Positive("makespan_secs")])],
            claims: &[Claim::True("holds")],
            paper_claims: &[Claim::True("at_scale")],
            ..STUDY
        };
        let clean = r#"{"format_version": 3, "seed": 1, "holds": true, "at_scale": true,
            "grid": [{"makespan_secs": 2.5}, {"makespan_secs": 1}]}"#;
        assert_eq!(
            FIXTURE.violations(&doc(clean), Size::Paper),
            Vec::<String>::new()
        );
        for (from, to, expected) in [
            (
                r#""format_version": 3"#,
                r#""format_version": 2"#,
                "format 3 (found 2",
            ),
            (r#""seed": 1, "#, "", "`seed` is set"),
            (r#""holds": true"#, r#""holds": false"#, "`holds` is true"),
            (r#", {"makespan_secs": 1}"#, "", "has 2 rows (found 1)"),
            (
                r#""makespan_secs": 1}"#,
                r#""makespan_secs": 0}"#,
                r#"`makespan_secs` is positive (fails in {"makespan_secs":0})"#,
            ),
        ] {
            let found = FIXTURE.violations(&doc(&clean.replace(from, to)), Size::Paper);
            assert!(
                found.len() == 1 && found[0].contains(expected),
                "{to}: {found:?}"
            );
        }
        let small = doc(&clean.replace(r#""at_scale": true"#, r#""at_scale": false"#));
        assert_eq!(
            FIXTURE.violations(&small, Size::Smoke),
            Vec::<String>::new()
        );
        let found = FIXTURE.violations(&small, Size::Paper);
        assert_eq!(found, ["study.json: `at_scale` is true"]);
        let (text, holds) = FIXTURE.report(&small);
        assert!(
            !holds && text.contains("FAILS  `at_scale` is true"),
            "{text}"
        );
    }

    #[test]
    fn select_takes_known_names_in_order_and_refuses_the_rest() {
        let names = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let picked = select(&names(&["trace", "fig2"])).expect("known names");
        let picked: Vec<&str> = picked.iter().map(|s| s.name).collect();
        assert_eq!(picked, ["trace", "fig2"]);
        assert_eq!(select(&[]).expect("all").len(), STUDIES.len());
        let message = select(&names(&["fig2", "nosuch"])).err().expect("refused");
        assert!(message.contains("`nosuch`"), "{message}");
        assert!(
            STUDIES.iter().all(|s| message.contains(s.name)),
            "{message}"
        );
    }

    #[test]
    fn every_row_has_its_own_name_and_file() {
        for (i, a) in STUDIES.iter().enumerate() {
            for b in &STUDIES[i + 1..] {
                assert!(a.name != b.name && a.file != b.file, "{}", a.name);
            }
        }
    }

    #[test]
    fn the_printer_lays_out_scalars_tables_series_and_lists() {
        let series: Vec<String> = (0..20).map(|i| format!("{}", i as f64 / 19.0)).collect();
        let text = doc(&format!(
            r#"{{"seed": 7, "acceptance": {{"ok": true, "frac": 0.12345}},
                "rows": [{{"arm": "IM-RP", "h": 38.5}}, {{"arm": "CONT-V", "h": 27}}],
                "cpu_series": [{}], "engines": ["sim", "threaded"]}}"#,
            series.join(", ")
        ));
        let mut out = String::new();
        print_value(&mut out, "", &text);
        let expected = [
            "seed = 7",
            "acceptance.ok = true",
            "acceptance.frac = 0.123",
            "rows:",
            "     arm       h",
            "   IM-RP  38.500",
            "  CONT-V      27",
        ];
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[..7], expected, "{out}");
        assert!(lines[7].starts_with("cpu_series |  ▁▁▂"), "{out}");
        assert!(lines[7].ends_with("█| mean 0.500"), "{out}");
        assert_eq!(lines[8], "engines = [sim, threaded]");
    }
}
