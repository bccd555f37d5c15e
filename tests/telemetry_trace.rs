//! Telemetry trace contracts, end to end:
//!
//! * recording a campaign never perturbs the science (the traced
//!   `ExperimentResult` is byte-identical to the telemetry-off run);
//! * recorded streams are structurally well-formed (`check_nesting`);
//! * the Chrome trace-event export round-trips through `impress-json`;
//! * the simulated and threaded backends export byte-identical
//!   virtual-clock traces for serialized workloads — one virtual clock
//!   under both, across random workload shapes and priorities.

use impress_bench::trace::parity_trace;
use impress_core::{CampaignSpec, ProtocolConfig};
use impress_json::{Json, ToJson};
use impress_proteins::datasets::named_pdz_domains;
use impress_sim::props;
use impress_telemetry::{
    check_nesting, SpanCat, Telemetry, TelemetryEvent, TraceClock, LABEL_INLINE,
};

/// A target name whose pipeline names (`<target>/root`, `<target>/sub0`,
/// ...) run past the telemetry label's inline capacity, so the recorded
/// campaign carries names stored both ways.
const LONG_TARGET: &str = "a-pdz-target-named-past-the-inline-label";

fn record_campaign(seed: u64) -> (Vec<TelemetryEvent>, Telemetry, Json) {
    let mut targets = named_pdz_domains(seed);
    targets[0].name = LONG_TARGET.to_string();
    let (telemetry, recorder) = Telemetry::recording(1 << 18);
    CampaignSpec::imrp(&targets, ProtocolConfig::imrp(seed))
        .telemetry(telemetry.clone())
        .run()
        .expect("no resume plan to reject");
    let chrome = recorder.chrome_trace(TraceClock::Virtual);
    (recorder.events(), telemetry, chrome)
}

/// A real multi-pipeline campaign records a structurally valid span
/// stream: every category of the unified model shows up, nesting holds,
/// and the live counters agree with the span stream.
#[test]
fn campaign_trace_is_well_formed_and_complete() {
    let (events, telemetry, _) = record_campaign(11);
    assert!(!events.is_empty(), "campaign recorded no events");
    check_nesting(&events).expect("campaign trace nesting");
    let begins = |cat: SpanCat| {
        events
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::Begin { cat: c, .. } if *c == cat))
            .count() as u64
    };
    // Every layer of the stack lands in one stream: pilot lifecycle,
    // scheduler rounds, per-task spans, and coordinator structure.
    for cat in [
        SpanCat::Pilot,
        SpanCat::Scheduler,
        SpanCat::Task,
        SpanCat::Queue,
        SpanCat::Attempt,
        SpanCat::Pipeline,
        SpanCat::Stage,
        SpanCat::Decision,
    ] {
        assert!(begins(cat) > 0, "no {:?} spans recorded", cat);
    }
    let long_root = format!("{LONG_TARGET}/root");
    assert!(long_root.len() > LABEL_INLINE);
    assert!(
        events.iter().any(|e| matches!(
            e,
            TelemetryEvent::Begin { cat: SpanCat::Pipeline, name, .. } if *name == *long_root
        )),
        "no pipeline span named {long_root:?}"
    );
    let snapshot = telemetry.snapshot();
    let submitted = snapshot.counter("tasks_submitted").expect("counter");
    assert_eq!(begins(SpanCat::Task), submitted, "task spans vs counter");
    assert_eq!(
        snapshot.counter("tasks_completed"),
        Some(submitted),
        "fault-free campaign completes everything it submits"
    );
    assert!(
        snapshot.counter("pipelines_completed").unwrap_or(0) > 0,
        "coordinator counters recorded"
    );
    assert!(
        snapshot.histogram("task_run_seconds").is_some(),
        "run-time histogram recorded"
    );
}

/// The Chrome export round-trips through the in-repo JSON stack
/// byte-for-byte, and its rows carry the trace-event fields Perfetto
/// needs.
#[test]
fn chrome_export_round_trips_through_impress_json() {
    let (_, _, chrome) = record_campaign(13);
    let text = impress_json::to_string(&chrome);
    let parsed: Json = impress_json::from_str(&text).expect("chrome trace parses");
    assert_eq!(
        impress_json::to_string(&parsed),
        text,
        "chrome export must round-trip byte-identically"
    );
    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let long_root = format!("{LONG_TARGET}/root");
    assert!(
        events
            .iter()
            .any(|row| row.get("name").and_then(|n| n.as_str()) == Some(long_root.as_str())),
        "the export lost the pipeline named {long_root:?}"
    );
    for row in events {
        for key in ["ph", "name", "cat", "ts", "pid", "tid"] {
            assert!(row.get(key).is_some(), "trace row missing `{key}`: {row:?}");
        }
    }
}

/// Recording a trace never changes what the experiment computes: the
/// packaged result of a traced run is byte-identical to the
/// telemetry-off run, seed by seed.
#[test]
fn telemetry_never_perturbs_the_experiment() {
    for seed in [3, 17] {
        let targets = named_pdz_domains(seed);
        let config = ProtocolConfig::imrp(seed);
        let off = CampaignSpec::imrp(&targets, config.clone())
            .run()
            .expect("no resume plan to reject");
        let (telemetry, _recorder) = Telemetry::recording(1 << 18);
        let on = CampaignSpec::imrp(&targets, config)
            .telemetry(telemetry)
            .run()
            .expect("no resume plan to reject");
        assert_eq!(
            impress_json::to_string(&off.result.to_json()),
            impress_json::to_string(&on.result.to_json()),
            "seed {seed}: tracing changed the experiment"
        );
    }
}

props! {
    /// The threaded backend's virtual clock is the simulated backend's:
    /// serialized workloads of random size export byte-identical
    /// virtual-time Chrome traces (scheduler mechanics filtered; every
    /// task, queue, attempt, and pilot span must agree to the
    /// microsecond).
    fn virtual_traces_agree_across_backends(rng, cases = 8) {
        let tasks = 2 + rng.below(6) as usize;
        let seed = rng.next_u64();
        let sim = parity_trace(false, seed, tasks);
        let thr = parity_trace(true, seed, tasks);
        assert_eq!(
            sim, thr,
            "virtual traces diverged for {tasks} tasks, seed {seed}"
        );
    }
}
