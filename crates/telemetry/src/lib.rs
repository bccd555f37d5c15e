//! Span tracing, live metrics and trace export for the IMPRESS stack.
//!
//! This crate is the observability layer the execution backends, session,
//! scheduler and coordinator are instrumented with:
//!
//! * **Spans** ([`SpanId`], [`SpanCat`], [`TelemetryEvent`]) — begin/end
//!   pairs with dual-clock [`Stamp`]s: every event carries virtual
//!   (simulation) time, and events from the threaded backend additionally
//!   carry wall-clock micros.
//! * **Sinks** ([`TelemetrySink`]) — collection goes through a
//!   fixed-capacity [`RingSink`] ring buffer; the disabled path is a
//!   cached boolean check on the [`Telemetry`] handle, cheap enough to
//!   leave in release hot paths.
//! * **Metrics** — named counters, gauges and histograms (reusing
//!   [`impress_sim::Histogram`]), snapshotted deterministically into a
//!   [`MetricsSnapshot`].
//! * **Exporters** — Chrome trace-event JSON ([`chrome_trace`], loadable
//!   in Perfetto) and Prometheus text exposition ([`prometheus_text`]).
//!
//! What recording costs on the enabled path: an event is a fixed-size
//! value — its name a [`Label`] (inline up to [`LABEL_INLINE`] bytes), its
//! args an inline [`Args`] of at most [`ARGS_MAX`] pairs — so building one,
//! and evicting one from a full ring, touches no allocator. A metric
//! update takes one lock and scans a short vector for the name literal's
//! address. Strings, vectors and name order appear only at export
//! ([`chrome_trace`], [`Telemetry::snapshot`]). `tests/zero_alloc.rs` pins
//! both at zero allocations.
//!
//! The export contract that makes cross-backend testing possible: the
//! Chrome exporter emits structurally canonical documents (no span ids,
//! deterministic sort), so identical seeded workloads recorded on the
//! simulated and threaded backends export **byte-identical** virtual-time
//! traces whenever their virtual timestamps agree.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod chrome;
mod event;
mod metrics;
mod prom;
mod sink;

pub use chrome::{
    chrome_trace, chrome_trace_filtered, write_chrome_trace, write_chrome_trace_filtered,
    TraceClock,
};
pub use event::{
    check_nesting, Args, Label, SpanCat, SpanId, Stamp, TelemetryEvent, ARGS_MAX, LABEL_INLINE,
};
pub use metrics::{BucketSample, CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};
pub use prom::{prometheus_text, prometheus_text_into};
pub use sink::{NullSink, RingSink, TelemetrySink, TraceRecorder};

use metrics::Metrics;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Deterministic export-track (Chrome `tid`) numbering shared by every
/// instrumentation site. Tracks are a pure function of the entity — never
/// of recording order — so traces from different backends line up.
pub mod track {
    /// Pilot/runtime lifecycle events (bootstrap, drain).
    pub const PILOT: i64 = 1;
    /// Scheduler mechanics (placement rounds).
    pub const SCHED: i64 = 2;
    /// Fault injection (node crash/recover).
    pub const FAULT: i64 = 3;
    /// Session/coordinator bookkeeping (journal, decisions).
    pub const SESSION: i64 = 4;

    /// The per-task track.
    pub fn task(id: u64) -> i64 {
        10_000 + id as i64
    }

    /// The per-pipeline track.
    pub fn pipeline(id: u64) -> i64 {
        100 + id as i64
    }

    /// The per-campaign track (multi-tenant campaign service).
    pub fn campaign(id: u64) -> i64 {
        1_000_000 + id as i64
    }
}

/// Shared state behind an enabled handle.
struct Inner {
    sink: Arc<dyn TelemetrySink>,
    next_span: AtomicU64,
    metrics: Metrics,
}

/// The instrumentation handle threaded through backends, sessions and the
/// coordinator. Cloning is cheap (an `Arc` bump) and all clones share one
/// sink, span-id allocator and metric registry.
///
/// A disabled handle (the default everywhere) carries no allocation at
/// all: every recording method first checks a cached boolean and returns
/// immediately, so the telemetry-off fast path costs one predictable
/// branch per call site.
#[derive(Clone)]
pub struct Telemetry {
    on: bool,
    inner: Option<Arc<Inner>>,
}

/// The process-wide disabled handle, usable as a `&'static` default.
static DISABLED: Telemetry = Telemetry {
    on: false,
    inner: None,
};

/// A `&'static` reference to the disabled handle, for trait defaults that
/// must hand out `&Telemetry` without owning one.
pub fn disabled_ref() -> &'static Telemetry {
    &DISABLED
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("on", &self.on).finish()
    }
}

impl Telemetry {
    /// The no-op handle: nothing is recorded, nothing is allocated.
    pub fn disabled() -> Telemetry {
        DISABLED.clone()
    }

    /// A handle writing into `sink`. If the sink reports itself disabled
    /// (like [`NullSink`]), the handle behaves exactly like
    /// [`Telemetry::disabled`].
    pub fn with_sink(sink: Arc<dyn TelemetrySink>) -> Telemetry {
        let on = sink.is_enabled();
        Telemetry {
            on,
            inner: Some(Arc::new(Inner {
                sink,
                next_span: AtomicU64::new(1),
                metrics: Metrics::default(),
            })),
        }
    }

    /// A handle recording into a fresh [`RingSink`] of `capacity` events,
    /// plus the [`TraceRecorder`] that drains and exports it.
    pub fn recording(capacity: usize) -> (Telemetry, TraceRecorder) {
        let ring = Arc::new(RingSink::new(capacity));
        let recorder = TraceRecorder { ring: ring.clone() };
        (Telemetry::with_sink(ring), recorder)
    }

    /// Whether events will actually be recorded. Instrumentation sites may
    /// use this to skip building expensive arguments.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Open a span. Returns [`SpanId::NONE`] (and records nothing) when
    /// disabled. Panics when enabled and `args` has more than [`ARGS_MAX`]
    /// pairs.
    pub fn span(
        &self,
        cat: SpanCat,
        name: &str,
        parent: SpanId,
        track: i64,
        at: Stamp,
        args: &[(&'static str, i64)],
    ) -> SpanId {
        let Some(inner) = self.active() else {
            return SpanId::NONE;
        };
        let id = SpanId(inner.next_span.fetch_add(1, Ordering::Relaxed));
        inner.sink.record(TelemetryEvent::Begin {
            id,
            parent,
            cat,
            name: Label::from(name),
            track,
            at,
            args: Args::new(args),
        });
        id
    }

    /// Close a span opened by [`Telemetry::span`]. No-op when disabled or
    /// when `id` is [`SpanId::NONE`].
    pub fn end(&self, id: SpanId, at: Stamp) {
        if id.is_none() {
            return;
        }
        if let Some(inner) = self.active() {
            inner.sink.record(TelemetryEvent::End { id, at });
        }
    }

    /// Record a point event, optionally attached to an owning span. The
    /// same [`ARGS_MAX`] limit as [`Telemetry::span`] applies.
    pub fn instant(
        &self,
        cat: SpanCat,
        name: &str,
        span: SpanId,
        track: i64,
        at: Stamp,
        args: &[(&'static str, i64)],
    ) {
        if let Some(inner) = self.active() {
            inner.sink.record(TelemetryEvent::Instant {
                span,
                cat,
                name: Label::from(name),
                track,
                at,
                args: Args::new(args),
            });
        }
    }

    /// Add `delta` to a monotonic counter.
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(inner) = self.active() {
            inner.metrics.count(name, delta);
        }
    }

    /// Set a gauge to its current value.
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(inner) = self.active() {
            inner.metrics.gauge(name, value);
        }
    }

    /// Record one observation into a histogram over `[lo, hi)` with
    /// `bins` uniform bins (the bounds apply on first use of `name`).
    pub fn observe(&self, name: &'static str, lo: f64, hi: f64, bins: usize, value: f64) {
        if let Some(inner) = self.active() {
            inner.metrics.observe(name, lo, hi, bins, value);
        }
    }

    /// Record a batch of observations into one histogram in a single
    /// stamp: one enabled-check and one registry lock for the whole slice,
    /// instead of one per value. Because bucket totals are
    /// order-independent, the resulting snapshot is identical to calling
    /// [`Telemetry::observe`] once per value — hot loops (the sharded
    /// simulation backend buffers a placement round's queue-wait samples)
    /// batch their stamps without changing what is measured.
    pub fn observe_many(
        &self,
        name: &'static str,
        lo: f64,
        hi: f64,
        bins: usize,
        values: &[f64],
    ) {
        if let Some(inner) = self.active() {
            inner.metrics.observe_many(name, lo, hi, bins, values);
        }
    }

    /// Point-in-time copy of every live metric (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match self.active() {
            Some(inner) => inner.metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    #[inline]
    fn active(&self) -> Option<&Inner> {
        if !self.on {
            return None;
        }
        self.inner.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impress_sim::SimTime;

    fn t(s: u64) -> Stamp {
        Stamp::virt(SimTime::from_micros(s * 1_000_000))
    }

    #[test]
    fn disabled_handle_records_nothing_and_returns_none_ids() {
        let tele = Telemetry::disabled();
        assert!(!tele.enabled());
        let id = tele.span(SpanCat::Task, "t", SpanId::NONE, 1, t(0), &[]);
        assert!(id.is_none());
        tele.end(id, t(1));
        tele.count("x", 1);
        tele.observe("h", 0.0, 1.0, 4, 0.5);
        assert_eq!(tele.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn null_sink_behaves_like_disabled() {
        let tele = Telemetry::with_sink(Arc::new(NullSink));
        assert!(!tele.enabled());
        assert!(tele
            .span(SpanCat::Task, "t", SpanId::NONE, 1, t(0), &[])
            .is_none());
    }

    #[test]
    fn recording_captures_spans_instants_and_metrics() {
        let (tele, rec) = Telemetry::recording(16);
        assert!(tele.enabled());
        let a = tele.span(SpanCat::Task, "a", SpanId::NONE, 1, t(0), &[("k", 7)]);
        let b = tele.span(SpanCat::Queue, "b", a, 1, t(0), &[]);
        tele.instant(SpanCat::Fault, "boom", b, 1, t(1), &[]);
        tele.end(b, t(2));
        tele.end(a, t(3));
        tele.count("n", 2);
        tele.count("n", 3);
        tele.gauge("g", 1.5);
        tele.observe("h", 0.0, 10.0, 5, 3.0);
        tele.observe("h", 0.0, 10.0, 5, 30.0);

        let events = rec.events();
        assert_eq!(events.len(), 5);
        check_nesting(&events).expect("well-nested");
        let snap = tele.snapshot();
        assert_eq!(snap.counter("n"), Some(5));
        assert_eq!(snap.gauge("g"), Some(1.5));
        let h = snap.histogram("h").expect("histogram");
        assert_eq!(h.count, 2, "the +Inf bucket counts every observation");
        assert_eq!(h.sum, 33.0);
        assert_eq!(
            h.buckets.last().map(|b| b.count),
            Some(1),
            "30.0 is above the top bound: +Inf only, never a finite bucket"
        );
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let (tele, rec) = Telemetry::recording(2);
        for i in 0..5 {
            tele.instant(SpanCat::Session, &format!("e{i}"), SpanId::NONE, 1, t(i), &[]);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
    }

    #[test]
    fn nesting_violations_are_detected() {
        let (tele, rec) = Telemetry::recording(16);
        let a = tele.span(SpanCat::Task, "parent", SpanId::NONE, 1, t(0), &[]);
        let b = tele.span(SpanCat::Queue, "child", a, 1, t(1), &[]);
        tele.end(a, t(2));
        tele.end(b, t(5)); // child outlives parent
        let err = check_nesting(&rec.events()).unwrap_err();
        assert!(err.contains("outlives"), "{err}");
    }

    #[test]
    fn chrome_export_is_recording_order_independent() {
        // The same two spans recorded in opposite orders (with different
        // span ids) must export byte-identically.
        let render = |flip: bool| {
            let (tele, rec) = Telemetry::recording(16);
            let open = |name: &str| {
                let id = tele.span(SpanCat::Task, name, SpanId::NONE, 42, t(1), &[("i", 9)]);
                tele.end(id, t(4));
            };
            if flip {
                open("beta");
                open("alpha");
            } else {
                open("alpha");
                open("beta");
            }
            impress_json::to_string(&rec.chrome_trace(TraceClock::Virtual))
        };
        assert_eq!(render(false), render(true));
    }

    #[test]
    fn streaming_chrome_export_matches_the_tree_path_byte_for_byte() {
        let (tele, rec) = Telemetry::recording(64);
        let a = tele.span(
            SpanCat::Pipeline,
            "pipe \"0\"",
            SpanId::NONE,
            3,
            t(1),
            &[("pipeline", 0)],
        );
        let b = tele.span(SpanCat::Stage, "stage", a, 3, t(2), &[("tasks", 4)]);
        tele.instant(SpanCat::Fault, "task-retried", b, 3, t(3), &[("attempts", 2)]);
        tele.end(b, t(6));
        tele.end(a, t(9));
        tele.span(SpanCat::Task, "unclosed", SpanId::NONE, 7, t(4), &[]);
        let events = rec.events();
        for clock in [TraceClock::Virtual, TraceClock::Wall] {
            let tree = impress_json::to_string(&chrome_trace(&events, clock));
            let mut streamed = String::new();
            write_chrome_trace(&mut streamed, &events, clock);
            assert_eq!(streamed, tree, "fast path diverged ({clock:?})");
        }
        // The filtered variants agree too (and actually filter).
        let keep = |c: SpanCat| c != SpanCat::Task;
        let tree = impress_json::to_string(&chrome_trace_filtered(
            &events,
            TraceClock::Virtual,
            keep,
        ));
        let mut streamed = String::new();
        write_chrome_trace_filtered(&mut streamed, &events, TraceClock::Virtual, keep);
        assert_eq!(streamed, tree);
        assert!(!streamed.contains("unclosed"));
    }

    #[test]
    fn wall_clock_export_uses_wall_stamps() {
        let (tele, rec) = Telemetry::recording(16);
        let id = tele.span(
            SpanCat::Attempt,
            "a",
            SpanId::NONE,
            1,
            Stamp::dual(SimTime::from_micros(100), 7),
            &[],
        );
        tele.end(id, Stamp::dual(SimTime::from_micros(200), 19));
        let doc = rec.chrome_trace(TraceClock::Wall);
        let ev = doc.get("traceEvents").and_then(|e| e.idx(0)).expect("event");
        assert_eq!(ev.get("ts").and_then(|v| v.as_f64()), Some(7.0));
        assert_eq!(ev.get("dur").and_then(|v| v.as_f64()), Some(12.0));
        assert_eq!(
            ev.get("args").and_then(|a| a.get("vt_us")).and_then(|v| v.as_f64()),
            Some(100.0)
        );
    }

    /// Golden exposition-format test for the histogram overflow bucket:
    /// finite buckets are cumulative, values at or above the top bound land
    /// only in `+Inf`, values below the bottom bound land in the first
    /// bucket (still cumulative-correct), and NaN observations vanish
    /// entirely instead of drifting `_count` away from the buckets.
    #[test]
    fn prometheus_histogram_overflow_lands_only_in_inf_bucket() {
        let (tele, _rec) = Telemetry::recording(4);
        for v in [0.5, 3.0, 9.5, 10.0, 25.0, -1.0, f64::NAN] {
            tele.observe("lat", 0.0, 10.0, 5, v);
        }
        let text = prometheus_text(&tele.snapshot());
        let expected = "\
# TYPE impress_lat histogram
impress_lat_bucket{le=\"2\"} 2
impress_lat_bucket{le=\"4\"} 3
impress_lat_bucket{le=\"6\"} 3
impress_lat_bucket{le=\"8\"} 3
impress_lat_bucket{le=\"10\"} 4
impress_lat_bucket{le=\"+Inf\"} 6
impress_lat_sum 47
impress_lat_count 6
";
        assert_eq!(text, expected);
    }

    /// Golden one-bin histogram: the single finite bucket's bound is the
    /// cell's `hi`, not a width read from a second bin that does not exist.
    #[test]
    fn prometheus_one_bin_histogram_bounds_at_hi() {
        let (tele, _rec) = Telemetry::recording(4);
        tele.observe("h", 0.0, 10.0, 1, 5.0);
        let expected = "\
# TYPE impress_h histogram
impress_h_bucket{le=\"10\"} 1
impress_h_bucket{le=\"+Inf\"} 1
impress_h_sum 5
impress_h_count 1
";
        assert_eq!(prometheus_text(&tele.snapshot()), expected);
    }

    #[test]
    fn a_name_literal_at_another_address_merges_into_one_series() {
        let (tele, _rec) = Telemetry::recording(4);
        let copy: &'static str = Box::leak(String::from("merged").into_boxed_str());
        assert!(!std::ptr::eq(copy, "merged"));
        tele.count("merged", 2);
        tele.count(copy, 3);
        tele.gauge(copy, 1.0);
        tele.gauge("merged", 4.0);
        tele.observe("merged", 0.0, 10.0, 2, 1.0);
        tele.observe_many(copy, 0.0, 10.0, 2, &[7.0, 8.0]);
        let snap = tele.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counter("merged"), Some(5));
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.gauge("merged"), Some(4.0));
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histogram("merged").map(|h| h.count), Some(3));
    }

    #[test]
    fn snapshot_order_does_not_depend_on_first_use_order() {
        let names = ["zeta", "alpha", "mid", "beta"];
        let render = |order: &[&'static str]| {
            let (tele, _rec) = Telemetry::recording(4);
            for &name in order {
                tele.count(name, name.len() as u64);
                tele.gauge(name, name.len() as f64);
                tele.observe(name, 0.0, 8.0, 4, name.len() as f64);
            }
            tele.snapshot()
        };
        let forward = render(&names);
        let mut reversed = names;
        reversed.reverse();
        assert_eq!(forward, render(&reversed));
        let counters: Vec<&str> = forward.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(counters, ["alpha", "beta", "mid", "zeta"]);
        let gauges: Vec<&str> = forward.gauges.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(gauges, counters);
        let hists: Vec<&str> = forward.histograms.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(hists, counters);
    }

    /// Names at and across the inline limit, multi-byte text and the empty
    /// name come back out of both export routes exactly as recorded.
    #[test]
    fn label_edge_names_round_trip_through_both_export_routes() {
        let at_limit = "a".repeat(LABEL_INLINE);
        let past_limit = "b".repeat(LABEL_INLINE + 1);
        let names = [
            at_limit.as_str(),
            past_limit.as_str(),
            "épi-ß-タスク-🧬",
            "",
        ];
        let (tele, rec) = Telemetry::recording(16);
        for (i, name) in names.iter().enumerate() {
            let id = tele.span(SpanCat::Task, name, SpanId::NONE, 1, t(i as u64), &[]);
            tele.end(id, t(i as u64 + 1));
            tele.instant(SpanCat::Fault, name, id, 2, t(i as u64), &[("i", i as i64)]);
        }
        let events = rec.events();
        for ev in &events {
            if let TelemetryEvent::Begin { name, .. } | TelemetryEvent::Instant { name, .. } = ev {
                assert!(names.contains(&&**name), "{name:?} was not recorded");
                assert_eq!(name.to_string(), **name);
            }
        }
        let tree = impress_json::to_string(&chrome_trace(&events, TraceClock::Virtual));
        let mut streamed = String::new();
        write_chrome_trace(&mut streamed, &events, TraceClock::Virtual);
        assert_eq!(streamed, tree);
        let doc: impress_json::Json = impress_json::from_str(&streamed).expect("trace parses");
        let rows = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("rows");
        let mut exported: Vec<&str> = rows
            .iter()
            .map(|r| r.get("name").and_then(|n| n.as_str()).expect("name"))
            .collect();
        exported.sort_unstable();
        let mut expected: Vec<&str> = names.iter().chain(names.iter()).copied().collect();
        expected.sort_unstable();
        assert_eq!(exported, expected);
    }

    #[test]
    fn labels_compare_as_their_text_whichever_way_they_are_stored() {
        let short = Label::from("queue");
        let long = Label::from("a-pipeline-name-longer-than-inline");
        assert_eq!(short, "queue");
        assert_eq!(long, "a-pipeline-name-longer-than-inline");
        assert_eq!(long.clone(), long);
        assert_ne!(short, long);
        let owned = String::from("a-pipeline-name-longer-than-inline");
        assert_eq!(Label::from(&owned), long);
        assert_eq!(Label::from(owned), long);
        assert_eq!(Label::from(String::from("queue")), short);
        assert_eq!(Label::default(), "");
        assert_ne!(Label::default(), Label::from("\0"));
        assert_eq!(std::mem::size_of::<Label>(), 24);
        assert_eq!(
            format!("{short}/{long:?}"),
            "queue/\"a-pipeline-name-longer-than-inline\""
        );
        assert_eq!(
            Args::new(&[("k", 1), ("v", 2)]).as_slice(),
            &[("k", 1), ("v", 2)]
        );
        assert_eq!(Args::new(&[]), Args::new(&[]));
    }

    #[test]
    #[should_panic(expected = "at most ARGS_MAX = 3 args, got 4")]
    fn more_args_than_the_inline_capacity_fail_naming_the_limit() {
        let (tele, _rec) = Telemetry::recording(4);
        tele.instant(
            SpanCat::Session,
            "wide",
            SpanId::NONE,
            1,
            t(0),
            &[("a", 1), ("b", 2), ("c", 3), ("d", 4)],
        );
    }

    impress_sim::props! {
        /// The ring against a model: after any number of records it holds
        /// exactly the newest `capacity` events, oldest first, and
        /// `dropped()` is the overflow.
        fn ring_keeps_the_newest_capacity_events_in_order(rng, cases = 64) {
            let capacity = 1 + rng.below(8);
            let records = rng.below(4 * capacity + 2);
            let (tele, rec) = Telemetry::recording(capacity);
            for i in 0..records as i64 {
                tele.instant(SpanCat::Session, "e", SpanId::NONE, 1, t(i as u64), &[("i", i)]);
            }
            let kept: Vec<i64> = rec
                .events()
                .iter()
                .map(|ev| match ev {
                    TelemetryEvent::Instant { args, .. } => args.as_slice()[0].1,
                    other => panic!("only instants were recorded: {other:?}"),
                })
                .collect();
            let overflow = records.saturating_sub(capacity);
            let newest: Vec<i64> = (overflow..records).map(|i| i as i64).collect();
            assert_eq!(kept, newest, "capacity {capacity}, {records} records");
            assert_eq!(rec.dropped(), overflow as u64);
        }
    }

    #[test]
    fn observe_many_matches_individual_observes_exactly() {
        let values = [0.25, 7.5, 10.0, 99.0, -3.0, 5.0];
        let (batched, _r1) = Telemetry::recording(4);
        batched.observe_many("h", 0.0, 10.0, 4, &values);
        batched.observe_many("h", 0.0, 10.0, 4, &[]);
        let (single, _r2) = Telemetry::recording(4);
        for v in values {
            single.observe("h", 0.0, 10.0, 4, v);
        }
        assert_eq!(batched.snapshot(), single.snapshot());
        // Disabled handles ignore batches just like single observations.
        let off = Telemetry::disabled();
        off.observe_many("h", 0.0, 10.0, 4, &values);
        assert_eq!(off.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn prometheus_exposition_renders_all_metric_kinds() {
        let (tele, _rec) = Telemetry::recording(4);
        tele.count("tasks_submitted", 3);
        tele.gauge("queue_depth", 2.0);
        tele.observe("wait_seconds", 0.0, 10.0, 2, 4.0);
        let text = prometheus_text(&tele.snapshot());
        assert!(text.contains("# TYPE impress_tasks_submitted counter"));
        assert!(text.contains("impress_tasks_submitted 3"));
        assert!(text.contains("impress_queue_depth 2"));
        assert!(text.contains("impress_wait_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("impress_wait_seconds_sum 4"));
    }
}
