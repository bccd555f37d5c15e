//! Span tracing and trace export for the IMPRESS stack.
//!
//! This crate is the observability layer the execution backends, session,
//! scheduler and coordinator are instrumented with. What it records is one
//! event stream; counts and widths are read off the events, and totals a
//! layer owns live in its typed reports (`RunReport`, `UtilizationReport`,
//! `ControlStats`):
//!
//! * **Spans** ([`SpanId`], [`SpanCat`], [`TelemetryEvent`]) — begin/end
//!   pairs with dual-clock [`Stamp`]s: every event carries virtual
//!   (simulation) time, and events from the threaded backend additionally
//!   carry wall-clock micros.
//! * **Sinks** ([`TelemetrySink`]) — collection goes through a
//!   fixed-capacity [`RingSink`] ring buffer; the disabled path is a
//!   cached boolean check on the [`Telemetry`] handle, cheap enough to
//!   leave in release hot paths.
//! * **Exporter** — Chrome trace-event JSON ([`write_chrome_trace`],
//!   loadable in Perfetto).
//!
//! What recording costs on the enabled path: an event is a fixed-size
//! value — its name a [`Label`] (inline up to [`LABEL_INLINE`] bytes), its
//! args an inline [`Args`] of at most [`ARGS_MAX`] pairs — so building one,
//! and evicting one from a full ring, touches no allocator. Strings,
//! vectors and name order appear only at export ([`write_chrome_trace`]).
//! `recording_into_a_warm_full_ring_allocates_nothing` pins it at zero
//! allocations.
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
mod sink;

pub use chrome::{write_chrome_trace, write_chrome_trace_filtered, TraceClock};
pub use event::{
    check_nesting, Args, Label, SpanCat, SpanId, Stamp, TelemetryEvent, ARGS_MAX, LABEL_INLINE,
};
pub use sink::{NullSink, RingSink, TelemetrySink};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[cfg(test)]
#[global_allocator]
static ALLOC: impress_sim::alloc_probe::CountingAlloc = impress_sim::alloc_probe::CountingAlloc;

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
}

/// The instrumentation handle threaded through backends, sessions and the
/// coordinator. Cloning is cheap (an `Arc` bump) and all clones share one
/// sink and span-id allocator.
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
            })),
        }
    }

    /// A handle recording into a fresh [`RingSink`] of `capacity` events,
    /// plus the ring itself, to read the recorded events back from.
    pub fn recording(capacity: usize) -> (Telemetry, Arc<RingSink>) {
        let ring = Arc::new(RingSink::new(capacity));
        (Telemetry::with_sink(ring.clone()), ring)
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

    fn chrome(events: &[TelemetryEvent], clock: TraceClock) -> String {
        let mut out = String::new();
        write_chrome_trace(&mut out, events, clock);
        out
    }

    #[test]
    fn disabled_handle_records_nothing_and_returns_none_ids() {
        let tele = Telemetry::disabled();
        assert!(!tele.enabled());
        let id = tele.span(SpanCat::Task, "t", SpanId::NONE, 1, t(0), &[]);
        assert!(id.is_none());
        tele.end(id, t(1));
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
    fn recording_captures_spans_and_instants() {
        let (tele, rec) = Telemetry::recording(16);
        assert!(tele.enabled());
        let a = tele.span(SpanCat::Task, "a", SpanId::NONE, 1, t(0), &[("k", 7)]);
        let b = tele.span(SpanCat::Queue, "b", a, 1, t(0), &[]);
        tele.instant(SpanCat::Fault, "boom", b, 1, t(1), &[]);
        tele.end(b, t(2));
        tele.end(a, t(3));

        let events = rec.events();
        assert_eq!(events.len(), 5);
        check_nesting(&events).expect("well-nested");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let (tele, rec) = Telemetry::recording(2);
        for i in 0..5 {
            tele.instant(
                SpanCat::Session,
                &format!("e{i}"),
                SpanId::NONE,
                1,
                t(i),
                &[],
            );
        }
        assert_eq!(rec.events().len(), 2);
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
            chrome(&rec.events(), TraceClock::Virtual)
        };
        assert_eq!(render(false), render(true));
    }

    #[test]
    fn the_filtered_export_drops_exactly_the_excluded_categories() {
        let (tele, rec) = Telemetry::recording(64);
        let a = tele.span(SpanCat::Stage, "stage", SpanId::NONE, 3, t(2), &[]);
        tele.instant(SpanCat::Fault, "task-retried", a, 3, t(3), &[]);
        tele.end(a, t(6));
        tele.span(SpanCat::Task, "unclosed", SpanId::NONE, 7, t(4), &[]);
        let events = rec.events();
        let mut kept = String::new();
        write_chrome_trace_filtered(&mut kept, &events, TraceClock::Virtual, |c| {
            c != SpanCat::Task
        });
        let rows = |text: &str| {
            let doc = impress_json::parse(text).unwrap();
            doc.get("traceEvents").unwrap().as_array().unwrap().to_vec()
        };
        let mut want = rows(&chrome(&events, TraceClock::Virtual));
        assert_eq!(want.len(), 3);
        want.retain(|row| row.get("cat").and_then(|c| c.as_str()) != Some(SpanCat::Task.as_str()));
        assert_eq!(want.len(), 2);
        assert_eq!(rows(&kept), want);
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
        let doc = impress_json::parse(&chrome(&rec.events(), TraceClock::Wall)).unwrap();
        let ev = doc
            .get("traceEvents")
            .and_then(|e| e.idx(0))
            .expect("event");
        assert_eq!(ev.get("ts").and_then(|v| v.as_f64()), Some(7.0));
        assert_eq!(ev.get("dur").and_then(|v| v.as_f64()), Some(12.0));
        assert_eq!(
            ev.get("args")
                .and_then(|a| a.get("vt_us"))
                .and_then(|v| v.as_f64()),
            Some(100.0)
        );
    }

    /// Names at and across the inline limit, multi-byte text and the empty
    /// name come back out of the export on both clocks exactly as recorded.
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
        let mut expected: Vec<&str> = names.iter().chain(names.iter()).copied().collect();
        expected.sort_unstable();
        for clock in [TraceClock::Virtual, TraceClock::Wall] {
            let doc = impress_json::parse(&chrome(&events, clock)).expect("trace parses");
            let rows = doc
                .get("traceEvents")
                .and_then(|e| e.as_array())
                .expect("rows");
            let mut exported: Vec<&str> = rows
                .iter()
                .map(|r| r.get("name").and_then(|n| n.as_str()).expect("name"))
                .collect();
            exported.sort_unstable();
            assert_eq!(exported, expected, "{clock:?}");
        }
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
        // Formatted in place, inline or not, it is the label of its text.
        for n in [0, 1, LABEL_INLINE - 1, LABEL_INLINE, LABEL_INLINE + 1, 40] {
            let (wide, narrow) = ("é".repeat(n / 4), "x".repeat(n - n / 4 * 2));
            let text = format!("{wide}{narrow}");
            let formatted = Label::from_fmt(format_args!("{wide}{narrow}"));
            assert_eq!(formatted, Label::from(&text), "{n}");
            assert_eq!(&*formatted, text);
        }
        assert_eq!(Label::from_fmt(format_args!("pl.{:04}", 7)), "pl.0007");
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
    fn cloning_a_long_label_shares_its_text() {
        let long = Label::from("a-pipeline-name-of-forty-bytes-for-a-tag");
        assert_eq!(long.len(), 40);
        let (allocs, copy) = crate::ALLOC.measure(|| long.clone());
        assert_eq!(allocs, 0, "cloning a long label shares its text");
        assert_eq!(copy, long);
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

    const TASK_NAME: &str = "a-task-name-of-22-byte";

    /// One task's worth of events at the widest shapes the pins cover.
    fn record_task(tele: &Telemetry, i: u64) {
        let stamp = |s: u64| Stamp::virt(SimTime::from_micros(s));
        let task = tele.span(
            SpanCat::Task,
            TASK_NAME,
            SpanId::NONE,
            track::task(i),
            stamp(i),
            &[("task", i as i64), ("priority", 1), ("node", 7)],
        );
        let attempt = tele.span(
            SpanCat::Attempt,
            "attempt",
            task,
            track::task(i),
            stamp(i),
            &[("attempt", 0), ("node", 7)],
        );
        tele.instant(
            SpanCat::Control,
            "lease-expired",
            attempt,
            track::task(i),
            stamp(i + 1),
            &[("node", 7)],
        );
        tele.end(attempt, stamp(i + 1));
        tele.instant(
            SpanCat::Task,
            "held",
            task,
            track::task(i),
            stamp(i + 1),
            &[],
        );
        tele.end(task, stamp(i + 2));
    }

    /// Recording is zero-alloc: on a warm, full ring, `span`, `instant` and
    /// `end` with names of up to `LABEL_INLINE` bytes and up to `ARGS_MAX`
    /// args allocate nothing; building the event, and evicting the oldest
    /// one, never touches the allocator. The event's size is what a ring
    /// slot costs.
    #[test]
    fn recording_into_a_warm_full_ring_allocates_nothing() {
        const RING: usize = 64;
        const WINDOW: u64 = 256;
        // Two span ids, a category, an inline label, a track, a dual-clock
        // stamp and an inline list of `ARGS_MAX` pairs.
        assert_eq!(std::mem::size_of::<TelemetryEvent>(), 160);
        assert_eq!(TASK_NAME.len(), LABEL_INLINE);
        assert_eq!(ARGS_MAX, 3);
        let (tele, rec) = Telemetry::recording(RING);
        for i in 0..RING as u64 {
            record_task(&tele, i);
        }
        assert_eq!(rec.events().len(), RING);
        let dropped = rec.dropped();
        assert!(dropped > 0, "the ring must be full before the window opens");
        let (allocs, ()) = crate::ALLOC.measure(|| {
            for i in 0..WINDOW {
                record_task(&tele, RING as u64 + i);
            }
        });
        assert_eq!(
            allocs, 0,
            "recording {WINDOW} tasks' events into a full ring must not allocate"
        );
        assert_eq!(
            rec.dropped(),
            dropped + 6 * WINDOW,
            "every event evicted one"
        );
    }
}
