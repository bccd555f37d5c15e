//! Telemetry trace study: record a full IM-RP campaign through the
//! unified telemetry subsystem and document what the trace contains,
//! written to `trace_summary.json` by the `trace_study` binary.
//!
//! The study pins the subsystem's three contracts:
//!
//! 1. **Zero perturbation** — the traced campaign's `ExperimentResult`
//!    is byte-identical to the telemetry-off run (telemetry never draws
//!    from the simulation RNG or schedules engine events).
//! 2. **Well-formed traces** — the recorded stream passes
//!    [`check_nesting`] and the Chrome export round-trips through
//!    `impress-json` byte-for-byte.
//! 3. **Backend parity** — a serialized workload replayed on the
//!    simulated, sharded and threaded backends exports byte-identical
//!    virtual-clock traces (scheduler mechanics filtered out; see
//!    [`parity_trace`]).
//!
//! Every number in the summary document is deterministic (event counts,
//! span counts, metric counters — no wall-clock readings), so
//! regenerating the artifact on any machine reproduces it byte-for-byte.
//!
//! The logic lives in the library (not the binary) so `tests/hermetic.rs`
//! can run a tiny smoke iteration under `cargo test`.

use impress_core::adaptive::AdaptivePolicy;
use impress_core::{CampaignSpec, ProtocolConfig};
use impress_json::{Json, ToJson};
use impress_pilot::{
    ExecutionBackend, PilotConfig, ResourceRequest, RuntimeConfig, TaskDescription,
};
use impress_proteins::datasets::mined_pdz_complexes;
use impress_sim::SimDuration;
use impress_telemetry::{
    check_nesting, write_chrome_trace, write_chrome_trace_filtered, SpanCat, Telemetry,
    TelemetryEvent, TraceClock,
};

/// Bumped whenever the JSON document layout changes; `tests/hermetic.rs`
/// checks the checked-in artifact against this.
/// * v2 extended the parity replay to three engines (simulated, threaded,
///   sharded) and records which engines were compared.
pub const TRACE_FORMAT_VERSION: u32 = 2;

/// Knobs for one study run; [`TraceParams::full`] is what the binary
/// uses, [`TraceParams::smoke`] is the tiny `cargo test` iteration.
pub struct TraceParams {
    /// Cohort size for the recorded IM-RP campaign.
    pub complexes: usize,
    /// Ring capacity for the trace recorder (the study asserts nothing
    /// was dropped, so this bounds the campaign it can record).
    pub ring_capacity: usize,
    /// Serialized task count for the cross-backend parity replay.
    pub parity_tasks: usize,
}

impl TraceParams {
    /// The full study regenerating `trace_summary.json`.
    pub fn full() -> Self {
        TraceParams {
            complexes: 24,
            ring_capacity: 1 << 21,
            parity_tasks: 8,
        }
    }

    /// A seconds-scale iteration exercising every code path.
    pub fn smoke() -> Self {
        TraceParams {
            complexes: 2,
            ring_capacity: 1 << 16,
            parity_tasks: 3,
        }
    }
}

/// Record a serialized workload on one backend and export its
/// virtual-clock Chrome trace as a canonical string.
///
/// The workload is the parity shape: full-node tasks (execution
/// serializes, so placement order is the scheduler's decision order)
/// behind a max-priority first task, all submitted at virtual time zero —
/// no backend makes progress before its first `next_completion`.
/// Scheduler placement-round spans are filtered out of the export: how
/// many rounds a driver runs per instant is backend mechanics, not
/// workload causality.
pub fn parity_trace(threaded: bool, seed: u64, tasks: usize) -> String {
    parity_trace_on(
        if threaded {
            ParityBackend::Threaded
        } else {
            ParityBackend::Simulated
        },
        seed,
        tasks,
    )
}

/// Which engine [`parity_trace_on`] replays the serialized workload on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParityBackend {
    /// The sequential virtual-time engine.
    Simulated,
    /// The sharded parallel-DES engine (default shard count).
    Sharded,
    /// Real threads under the paced virtual clock.
    Threaded,
}

impl ParityBackend {
    /// Stable label for JSON documents.
    pub fn label(self) -> &'static str {
        match self {
            ParityBackend::Simulated => "simulated",
            ParityBackend::Sharded => "sharded",
            ParityBackend::Threaded => "threaded",
        }
    }
}

/// [`parity_trace`] generalized to any engine — see there for the
/// workload's construction.
pub fn parity_trace_on(which: ParityBackend, seed: u64, tasks: usize) -> String {
    let config = PilotConfig {
        bootstrap: SimDuration::from_secs(1),
        exec_setup_per_task: SimDuration::from_secs(2),
        ..PilotConfig::with_seed(seed)
    };
    let node = config.node;
    let full = ResourceRequest::with_gpus(node.cores, node.gpus);
    let (telemetry, recorder) = Telemetry::recording(1 << 16);
    let runtime = RuntimeConfig::new(config).telemetry(telemetry);
    let mut backend: Box<dyn ExecutionBackend> = match which {
        ParityBackend::Simulated => Box::new(runtime.simulated()),
        ParityBackend::Sharded => Box::new(runtime.sharded()),
        ParityBackend::Threaded => Box::new(runtime.threaded()),
    };
    // `trace_summary.json` pins this trace's size, first task included.
    backend.submit(
        TaskDescription::new("gate", full, SimDuration::from_secs(1))
            .with_priority(i32::MAX)
            .with_work(|| ()),
    );
    for i in 0..tasks {
        backend.submit(TaskDescription::new(
            format!("p{i}"),
            full,
            SimDuration::from_secs(5 + 3 * i as u64),
        ));
    }
    while backend.next_completion().is_some() {}
    let mut trace = String::new();
    write_chrome_trace_filtered(&mut trace, &recorder.events(), TraceClock::Virtual, |cat| {
        cat != SpanCat::Scheduler
    });
    trace
}

/// Count `Begin` events per span category, as sorted `(label, count)`
/// JSON rows.
fn span_counts(events: &[TelemetryEvent]) -> Json {
    let mut counts: std::collections::BTreeMap<&'static str, u64> = std::collections::BTreeMap::new();
    for ev in events {
        if let TelemetryEvent::Begin { cat, .. } = ev {
            *counts.entry(cat.as_str()).or_insert(0) += 1;
        }
    }
    let mut doc = Json::object();
    for (label, n) in counts {
        doc = doc.field(label, n);
    }
    doc.build()
}

/// Run the study and build the `trace_summary.json` document.
pub fn run_study(params: &TraceParams, seed: u64) -> Json {
    let targets = mined_pdz_complexes(seed, params.complexes);
    let config = ProtocolConfig::imrp(seed);
    let policy = AdaptivePolicy {
        sub_budget: params.complexes / 3,
        ..AdaptivePolicy::default()
    };
    let pilot = PilotConfig::with_seed(seed);

    eprintln!(
        "recording IM-RP campaign ({} complexes) with telemetry off, then on...",
        params.complexes
    );
    let spec = || {
        CampaignSpec::imrp(&targets, config.clone())
            .policy(policy)
            .pilot(pilot)
    };
    let baseline = spec().run().expect("no resume plan to reject").result;
    let (telemetry, recorder) = Telemetry::recording(params.ring_capacity);
    let traced = spec()
        .telemetry(telemetry.clone())
        .run()
        .expect("no resume plan to reject")
        .result;
    let perturbation_free =
        impress_json::to_string(&baseline.to_json()) == impress_json::to_string(&traced.to_json());

    let events = recorder.events();
    let dropped = recorder.dropped();
    let nesting = check_nesting(&events);
    // Streaming fast path (no intermediate Json tree); the round-trip
    // check below re-parses it, so a parity break would fail loudly here
    // as well as in the exporter's own tests.
    let mut chrome_text = String::new();
    write_chrome_trace(&mut chrome_text, &events, TraceClock::Virtual);
    let round_trip_ok = impress_json::from_str::<Json>(&chrome_text)
        .map(|parsed| impress_json::to_string(&parsed) == chrome_text)
        .unwrap_or(false);
    let snapshot = telemetry.snapshot();
    eprintln!(
        "  {} events recorded ({} dropped), chrome export {} bytes",
        events.len(),
        dropped,
        chrome_text.len()
    );

    eprintln!(
        "cross-backend parity replay ({} serialized tasks)...",
        params.parity_tasks
    );
    let engines = [
        ParityBackend::Simulated,
        ParityBackend::Sharded,
        ParityBackend::Threaded,
    ];
    let traces: Vec<String> = engines
        .iter()
        .map(|&b| parity_trace_on(b, seed ^ 0x7ace, params.parity_tasks))
        .collect();
    let sim_trace = &traces[0];
    let backends_agree = traces.iter().all(|t| t == sim_trace);
    eprintln!(
        "  virtual-clock traces {} across {} engines ({} bytes)",
        if backends_agree { "agree" } else { "DIVERGE" },
        engines.len(),
        sim_trace.len()
    );

    let mut counters = Json::object();
    for c in &snapshot.counters {
        counters = counters.field(&c.name, c.value);
    }

    Json::object()
        .field("format_version", TRACE_FORMAT_VERSION)
        .field("suite", "trace_study")
        .field("seed", seed)
        .field(
            "campaign",
            Json::object()
                .field("complexes", params.complexes as u64)
                .field("makespan_hours", traced.run.makespan.as_hours_f64())
                .field("events", events.len() as u64)
                .field("events_dropped", dropped)
                .field("chrome_trace_bytes", chrome_text.len() as u64)
                .field("spans", span_counts(&events))
                .field("counters", counters.build())
                .build(),
        )
        .field("perturbation_free", perturbation_free)
        .field("nesting_ok", nesting.is_ok())
        .field(
            "nesting_error",
            nesting.err().map(|e| e.to_json()).unwrap_or(Json::Null),
        )
        .field("chrome_round_trip_ok", round_trip_ok)
        .field(
            "parity",
            Json::object()
                .field("tasks", params.parity_tasks as u64)
                .field("trace_bytes", sim_trace.len() as u64)
                .field(
                    "engines",
                    Json::array(
                        engines
                            .iter()
                            .map(|b| b.label().to_json())
                            .collect::<Vec<_>>(),
                    ),
                )
                .field("backends_agree", backends_agree)
                .build(),
        )
        .build()
}
