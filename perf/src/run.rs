//! The runner: set a workload up, measure it for a stated time, check every
//! unit, and reduce the samples to the ledger's metrics.
//!
//! Two kinds of run, never mixed, because tracing costs time:
//!
//! * untraced (`--trace 0`) — the front door only; yields the end-to-end
//!   metrics. Set-up runs several times and its median is reported. Timings
//!   are brought to the reference speed (see `calibrate`).
//! * traced (`--trace 1`) — the workload's variants and probes once, then
//!   pairs of the same unit through the front door and through the
//!   decorators; yields the per-layer metrics, the tracing overhead, and the
//!   check that both wirings produce the same results.

use crate::calibrate::{self, Reference};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, tail_quantile};
use crate::trace::{self, Counter, Layer, RawSpan, Span, Totals};
use crate::workloads::{self, Unit, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long the measured phase lasts, to the nearest whole unit.
    pub seconds: f64,
    pub traced: bool,
    /// Input sizes as a share of the sizes the ledger is measured at.
    pub scale: f64,
    /// Keep the raw spans of the first traced unit.
    pub dump_trace: bool,
    /// A directory the run may create, write in and remove.
    pub scratch: PathBuf,
}

pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: f64,
    pub size: String,
    /// End-to-end metrics of an untraced run, per-layer metrics of a traced.
    pub metrics: Values,
    pub units: usize,
    /// Ops attempted and ops whose unit failed a check or panicked.
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    /// Digest of the first unit's results: equal for equal seeds.
    pub model_digest: u64,
    /// `(quantile, host ms)` of the highest op-latency percentile with at
    /// least ten samples beyond it, if there is one.
    pub op_ms_tail: Option<(f64, f64)>,
    /// Median of the raw op samples, host ms, not brought to the reference
    /// speed: beside `op_ms_p50` it says how fast the machine was.
    pub op_ms_raw_p50: f64,
    pub raw_spans: Option<Vec<RawSpan>>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// Set-ups per untraced run; the median is reported.
const SETUP_REPEATS: usize = 11;

/// Everything the measured loop accumulates over its units, in raw host time.
#[derive(Default)]
struct Tally {
    units: usize,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    tasks: u64,
    unit_wall_s: Vec<f64>,
    op_ms: Vec<f64>,
    samples: Vec<(&'static str, f64)>,
    first_digest: Option<u64>,
}

impl Tally {
    /// Record a unit; `None` is a unit that panicked.
    fn take(&mut self, index: u64, unit: Option<&Unit>) {
        self.units += 1;
        let Some(unit) = unit else {
            self.attempted += 1;
            self.failed += 1;
            self.failures.push(format!("unit {index} panicked"));
            return;
        };
        let ops = unit.op_ms.len().max(1);
        self.attempted += ops;
        if !unit.result.failures.is_empty() {
            self.failed += ops;
            for failure in &unit.result.failures {
                self.failures.push(format!("unit {index}: {failure}"));
            }
        }
        self.tasks += unit.result.tasks;
        self.unit_wall_s.push(unit.wall_s);
        self.op_ms.extend_from_slice(&unit.op_ms);
        self.samples.extend_from_slice(&unit.samples);
        self.first_digest.get_or_insert(unit.result.digest);
    }

    fn samples_of(&self, name: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .collect()
    }
}

fn guarded(
    workload: &mut dyn Workload,
    index: u64,
    traced: bool,
    after_op: &mut dyn FnMut(),
) -> Option<Unit> {
    catch_unwind(AssertUnwindSafe(|| workload.unit(index, traced, after_op))).ok()
}

/// Whether a phase that began at `started` and has looped `units` times since
/// `looping` should end: it lasts `seconds` to the nearest whole unit, so
/// that a workload whose unit takes seconds neither stops a whole unit short
/// nor runs a whole unit over.
fn time_is_up(started: Instant, looping: Instant, units: usize, seconds: f64) -> bool {
    let mean_unit = looping.elapsed().as_secs_f64() / units as f64;
    started.elapsed().as_secs_f64() + mean_unit / 2.0 >= seconds
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(args: &Args) -> Result<Report, String> {
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; the workloads are {}",
            args.workload,
            workloads::NAMES.join(", ")
        ));
    }
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("creating {}: {e}", args.scratch.display()))?;
    let report = if args.traced {
        run_traced(args)
    } else {
        run_untraced(args)
    };
    let _ = std::fs::remove_dir_all(&args.scratch);
    // Its parent too, if this run's scratch was all it held.
    if let Some(parent) = args.scratch.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    Ok(report)
}

fn set_up(args: &Args) -> Box<dyn Workload> {
    workloads::setup(&args.workload, args.seed, args.scale, &args.scratch)
        .expect("the workload name was checked")
}

fn report(args: &Args, workload: &dyn Workload, tally: Tally, metrics: Values) -> Report {
    let op_ms_tail = tail_quantile(tally.op_ms.len()).map(|q| (q, percentile(&tally.op_ms, q)));
    Report {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        scale: args.scale,
        size: workload.size(),
        metrics,
        units: tally.units,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        model_digest: tally.first_digest.unwrap_or(0),
        op_ms_tail,
        op_ms_raw_p50: if tally.op_ms.is_empty() {
            0.0
        } else {
            median(&tally.op_ms)
        },
        raw_spans: None,
    }
}

/// One unit's times brought to the reference speed (see `calibrate`), given
/// the reference samples taken before it, at its pauses and after it: its
/// ops in host milliseconds, and what it spent outside them in host seconds.
///
/// A unit of several ops pauses after each, so every op is scaled by the two
/// samples around it and the stretch before the first op by those around
/// that. A unit that is one op is scaled by the mean of every sample from
/// before it to after it.
fn at_reference_speed(unit: &Unit, before: f64, pauses: &[f64], after: f64) -> (Vec<f64>, f64) {
    let outside_s = (unit.wall_s - unit.op_ms.iter().sum::<f64>() / 1e3).max(0.0);
    if unit.op_ms.len() > 1 && pauses.len() == unit.op_ms.len() {
        let mut bounds = vec![before];
        bounds.extend_from_slice(pauses);
        let op_ms = unit
            .op_ms
            .iter()
            .zip(bounds.windows(2))
            .map(|(ms, pair)| ms * calibrate::factor(pair[0], pair[1]))
            .collect();
        (op_ms, outside_s * calibrate::factor(before, pauses[0]))
    } else {
        let samples = pauses.len() as f64 + 2.0;
        let mean = (before + pauses.iter().sum::<f64>() + after) / samples;
        let factor = calibrate::factor(mean, mean);
        let op_ms = unit.op_ms.iter().map(|ms| ms * factor).collect();
        (op_ms, outside_s * factor)
    }
}

/// Host seconds of a unit assembled from medians over the run's units: the
/// median time outside ops plus, for each op position, the median of that
/// op. A drain's blocks are far from equal, so the positions are kept
/// apart; and a sum over a run's three drains follows the machine's slow
/// phases where the median of each block over them does not.
fn median_unit_s(units: &[(Vec<f64>, f64)]) -> f64 {
    let outside: Vec<f64> = units.iter().map(|(_, outside_s)| *outside_s).collect();
    let positions = units.iter().map(|(ops, _)| ops.len()).max().unwrap_or(0);
    let ops_ms: f64 = (0..positions)
        .map(|k| {
            let at_k: Vec<f64> = units
                .iter()
                .filter_map(|(ops, _)| ops.get(k).copied())
                .collect();
            median(&at_k)
        })
        .sum();
    median(&outside) + ops_ms / 1e3
}

fn run_untraced(args: &Args) -> Report {
    let mut reference = Reference::new();
    let mut before = reference.sample();

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(set_up(args));
        let raw = start.elapsed().as_secs_f64();
        let after = reference.sample();
        setup_s.push(raw * calibrate::factor(before, after));
        before = after;
    }
    let mut workload = workload.expect("set up at least once");

    let mut tally = Tally::default();
    // Per unit: its ops in host ms and its time outside them in host
    // seconds, both at the reference speed.
    let mut scaled: Vec<(Vec<f64>, f64)> = Vec::new();
    let started = Instant::now();
    loop {
        let index = tally.units as u64;
        let mut pauses = Vec::new();
        let unit = guarded(workload.as_mut(), index, false, &mut || {
            pauses.push(reference.sample())
        });
        let after = reference.sample();
        if let Some(unit) = &unit {
            scaled.push(at_reference_speed(unit, before, &pauses, after));
        }
        before = after;
        tally.take(index, unit.as_ref());
        if time_is_up(started, started, tally.units, args.seconds) {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mb();

    let mut metrics = Values::zeroed(&END_TO_END);
    metrics.set("setup_s", median(&setup_s));
    metrics.set("peak_rss_mb", peak_rss_mb);
    if !scaled.is_empty() {
        let op_ms: Vec<f64> = scaled
            .iter()
            .flat_map(|(ops, _)| ops.iter().copied())
            .collect();
        metrics.set("op_ms_p50", median(&op_ms));
        metrics.set(
            "tasks_per_s",
            tally.tasks as f64 / scaled.len() as f64 / median_unit_s(&scaled),
        );
    }
    report(args, workload.as_ref(), tally, metrics)
}

fn run_traced(args: &Args) -> Report {
    let mut workload = set_up(args);
    // The variants are a fixed amount of work; the pairs get what time is left.
    let started = Instant::now();
    let mut metrics = Values::zeroed(&PER_LAYER);
    workload.variants(&mut metrics);

    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let mut totals = Totals::default();
    let mut first: Option<(Totals, Unit)> = None;
    let mut raw_spans = None;
    let mut allocations = 0u64;
    let looping = Instant::now();
    loop {
        let index = plain.units as u64;
        let before = crate::ALLOC.allocations();
        let front_door = guarded(workload.as_mut(), index, false, &mut || {});
        allocations += crate::ALLOC.allocations() - before;
        plain.take(index, front_door.as_ref());

        trace::start(args.dump_trace && index == 0);
        let decorated = guarded(workload.as_mut(), index, true, &mut || {});
        let (unit_totals, raw) = trace::stop();
        traced.take(index, decorated.as_ref());
        if let (Some(a), Some(b)) = (&front_door, &decorated) {
            if a.result.digest != b.result.digest || a.result.model != b.result.model {
                plain.failures.push(format!(
                    "unit {index}: the decorated run produced other results than the front door: \
                     digest {:016x} vs {:016x}",
                    b.result.digest, a.result.digest
                ));
            }
        }
        if let Some(unit) = decorated {
            totals.add(&unit_totals);
            if first.is_none() {
                raw_spans = raw;
                first = Some((unit_totals, unit));
            }
        }
        if time_is_up(started, looping, plain.units, args.seconds) {
            break;
        }
    }

    if let Some((first_totals, first_unit)) = &first {
        layer_metrics(&mut metrics, &totals, first_totals, first_unit, &traced);
    }
    // Phase timers and the like: medians over the untraced units. Counts the
    // tracer cannot see: as the first traced unit gave them.
    for def in PER_LAYER.iter() {
        let source = if def.exact { &traced } else { &plain };
        let samples = source.samples_of(def.name);
        if let Some(&first) = samples.first() {
            metrics.set(def.name, if def.exact { first } else { median(&samples) });
        }
    }
    metrics.set("harness.ops", plain.op_ms.len() as f64);
    metrics.set("harness.traced_ops", traced.op_ms.len() as f64);
    if !plain.op_ms.is_empty() {
        if tail_quantile(plain.op_ms.len()).is_some() {
            metrics.set("harness.op_ms_p90", percentile(&plain.op_ms, 0.90));
        }
        metrics.set("harness.op_ms_max", percentile(&plain.op_ms, 1.0));
    }
    if plain.tasks > 0 {
        metrics.set(
            "harness.allocs_per_task",
            allocations as f64 / plain.tasks as f64,
        );
    }
    if !plain.unit_wall_s.is_empty() && !traced.unit_wall_s.is_empty() {
        let untraced = median(&plain.unit_wall_s);
        metrics.set(
            "harness.trace_overhead_frac",
            (median(&traced.unit_wall_s) - untraced) / untraced,
        );
    }

    // One report for the pair: ops and failures of both wirings.
    plain.attempted += traced.attempted;
    plain.failed += traced.failed;
    plain.failures.append(&mut traced.failures);
    let mut report = report(args, workload.as_ref(), plain, metrics);
    report.raw_spans = raw_spans;
    report
}

/// The metrics the span stack gives: times as mean host seconds per traced
/// unit, exact counts and simulated statistics as the first traced unit gave
/// them.
fn layer_metrics(
    out: &mut Values,
    all: &Totals,
    first: &Totals,
    first_unit: &Unit,
    traced: &Tally,
) {
    let units = traced.unit_wall_s.len().max(1) as f64;
    let per_unit_s = |ns: u64| ns as f64 / 1e9 / units;
    let per_task_ns = |ns: u64| {
        if traced.tasks == 0 {
            0.0
        } else {
            ns as f64 / traced.tasks as f64
        }
    };
    let span_s = |span: Span| per_unit_s(all.of(span).total_ns);

    out.set("pilot.calls", first.layer_calls(Layer::Pilot) as f64);
    out.set("pilot.submit_s", span_s(Span::PilotSubmit));
    out.set(
        "pilot.drain_s",
        span_s(Span::PilotNextCompletion) + span_s(Span::PilotPollCompletion),
    );
    out.set("pilot.self_s", per_unit_s(all.layer_self_ns(Layer::Pilot)));
    out.set(
        "pilot.self_ns_per_task",
        per_task_ns(all.layer_self_ns(Layer::Pilot)),
    );
    let completed = first.count(Counter::TasksCompleted);
    out.set("pilot.tasks_completed", completed as f64);
    out.set(
        "pilot.tasks_failed_terminal",
        first.count(Counter::TasksFailedTerminal) as f64,
    );
    if completed > 0 {
        out.set(
            "pilot.attempts_per_task",
            first.count(Counter::Attempts) as f64 / completed as f64,
        );
    }
    out.set(
        "pilot.hedged_completions",
        first.count(Counter::HedgedCompletions) as f64,
    );

    out.set(
        "proteins.work_s",
        per_unit_s(all.layer_self_ns(Layer::Proteins)),
    );
    out.set(
        "proteins.work_calls",
        first.layer_calls(Layer::Proteins) as f64,
    );
    out.set("proteins.mpnn_generate_s", span_s(Span::WorkMpnnGenerate));
    out.set("proteins.af2_msa_s", span_s(Span::WorkAf2Msa));
    out.set("proteins.af2_inference_s", span_s(Span::WorkAf2Inference));
    out.set("proteins.select_assess_s", span_s(Span::WorkSelectAssess));

    out.set(
        "core.pipeline_logic_s",
        per_unit_s(all.of(Span::CorePipelineLogic).self_ns),
    );
    out.set(
        "core.pipeline_logic_calls",
        first.of(Span::CorePipelineLogic).calls as f64,
    );
    out.set(
        "core.decision_s",
        per_unit_s(all.of(Span::CoreDecision).self_ns),
    );
    out.set(
        "core.decision_calls",
        first.of(Span::CoreDecision).calls as f64,
    );
    out.set("core.spawns", first.count(Counter::Spawns) as f64);

    // What no span covers is `workflow`: coordinator, service, journal
    // framing, lease routing, serialisation.
    let traced_ns = (traced.unit_wall_s.iter().sum::<f64>() * 1e9) as u64;
    let remainder_ns = traced_ns.saturating_sub(all.covered_ns);
    out.set("workflow.self_s", per_unit_s(remainder_ns));
    out.set("workflow.self_ns_per_task", per_task_ns(remainder_ns));

    out.set(
        "workflow.journal_store_s",
        per_unit_s(all.of(Span::JournalStore).self_ns),
    );
    out.set(
        "workflow.journal_store_calls",
        first.of(Span::JournalStore).calls as f64,
    );
    out.set(
        "workflow.journal_bytes",
        first.count(Counter::JournalBytes) as f64,
    );
    out.set(
        "workflow.journal_records",
        first.count(Counter::JournalRecords) as f64,
    );

    let events = all.of(Span::TelemetrySink).calls;
    out.set(
        "telemetry.events",
        first.of(Span::TelemetrySink).calls as f64,
    );
    out.set(
        "telemetry.sink_s",
        per_unit_s(all.of(Span::TelemetrySink).self_ns),
    );
    if events > 0 {
        out.set(
            "telemetry.sink_ns_per_event",
            all.of(Span::TelemetrySink).self_ns as f64 / events as f64,
        );
    }

    let model = first_unit.result.model;
    out.set("model.virt_makespan_s", model.virt_makespan_s);
    out.set("model.cpu_util", model.cpu_util);
    out.set("model.gpu_util", model.gpu_util);
    out.set("model.tasks", model.tasks as f64);
    out.set("model.sub_pipelines", model.sub_pipelines as f64);
    out.set("model.p50_campaign_latency_s", model.p50_campaign_latency_s);
    out.set("model.p99_campaign_latency_s", model.p99_campaign_latency_s);
    out.set("model.jain", model.jain);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{self, Contract};

    fn tiny(workload: &str, traced: bool) -> Report {
        let args = Args {
            workload: workload.into(),
            seed: 2025,
            seconds: 0.05,
            traced,
            scale: 1.0 / 1000.0,
            dump_trace: traced,
            scratch: ledger::out_dir().join(format!(
                "test-{}-{workload}-{}",
                std::process::id(),
                u8::from(traced)
            )),
        };
        let report = run(&args).expect("a known workload");
        assert!(!args.scratch.exists(), "the scratch directory is removed");
        report
    }

    /// Every name in `BENCHMARK.json` is printed by `run`, on every
    /// workload, and nothing else is.
    #[test]
    fn every_workload_prints_every_contract_metric_and_passes_its_checks() {
        let contract = Contract::load(&ledger::repo_root()).expect("BENCHMARK.json");
        for workload in workloads::NAMES {
            for traced in [false, true] {
                let report = tiny(workload, traced);
                assert!(report.correct(), "{workload}: {:?}", report.failures);
                assert!(report.attempted >= 1 && report.failed == 0);
                let printed: Vec<&str> = report.metrics.iter().map(|(d, _)| d.name).collect();
                let expected: Vec<&str> = if traced {
                    contract.per_layer.iter().map(|m| m.name.as_str()).collect()
                } else {
                    contract
                        .end_to_end
                        .iter()
                        .map(|m| m.name.as_str())
                        .collect()
                };
                assert_eq!(printed, expected, "{workload} --trace {}", u8::from(traced));
                if traced {
                    assert!(report.raw_spans.is_some_and(|spans| !spans.is_empty()));
                    assert!(report.metrics.get("pilot.tasks_completed").unwrap() > 0.0);
                } else {
                    for (def, value) in report.metrics.iter() {
                        assert!(value > 0.0, "{workload}: {} reads {value}", def.name);
                    }
                }
            }
        }
    }

    #[test]
    fn equal_seeds_give_equal_digests_and_exact_counts() {
        let (a, b) = (
            tiny(workloads::DES_FAULTY, true),
            tiny(workloads::DES_FAULTY, true),
        );
        assert_eq!(a.model_digest, b.model_digest);
        for ((def, x), (_, y)) in a.metrics.iter().zip(b.metrics.iter()) {
            if def.exact {
                assert_eq!(x, y, "{}", def.name);
            }
        }
    }

    #[test]
    fn ops_are_scaled_by_the_reference_samples_around_them() {
        use crate::calibrate::REFERENCE_MS as R;
        let unit = |op_ms: Vec<f64>, wall_s: f64| Unit {
            result: Default::default(),
            wall_s,
            op_ms,
            samples: Vec::new(),
        };
        // One op, the machine a third slower throughout: 40 ms count as 30.
        let slow = R * 4.0 / 3.0;
        let (ops, outside) = at_reference_speed(&unit(vec![40.0], 0.040), slow, &[], slow);
        assert!((ops[0] - 30.0).abs() < 1e-9 && outside.abs() < 1e-12);
        // One long op that paused twice: the mean of all four samples counts.
        let (ops, _) = at_reference_speed(&unit(vec![100.0], 0.100), R, &[R, 3.0 * R], 3.0 * R);
        assert!((ops[0] - 50.0).abs() < 1e-9);
        // A drain: 100 ms of submission, then two blocks; the machine is at
        // the reference speed until the first block ends, then half as fast.
        let drain = unit(vec![10.0, 20.0], 0.130);
        let (ops, outside) = at_reference_speed(&drain, R, &[R, 2.0 * R], 99.0);
        assert!((ops[0] - 10.0).abs() < 1e-9);
        assert!((ops[1] - 20.0 / 1.5).abs() < 1e-9);
        assert!((outside - 0.100).abs() < 1e-12);
    }

    #[test]
    fn the_median_unit_keeps_op_positions_apart() {
        // Three drains of two unequal blocks; the second drain met a slow
        // phase. Block by block the median ignores it.
        let drains = vec![
            (vec![10.0, 100.0], 0.050),
            (vec![30.0, 300.0], 0.150),
            (vec![12.0, 104.0], 0.052),
        ];
        assert!((median_unit_s(&drains) - (0.052 + 0.012 + 0.104)).abs() < 1e-12);
        // One-op units: the median op.
        let ops = vec![(vec![40.0], 0.0), (vec![20.0], 0.0), (vec![30.0], 0.0)];
        assert!((median_unit_s(&ops) - 0.030).abs() < 1e-12);
    }

    #[test]
    fn an_unknown_workload_is_refused() {
        let args = Args {
            workload: "nope".into(),
            seed: 1,
            seconds: 0.01,
            traced: false,
            scale: 1.0,
            dump_trace: false,
            scratch: ledger::out_dir().join("never-created"),
        };
        assert!(run(&args).is_err_and(|e| e.contains("paper_campaign")));
    }
}
