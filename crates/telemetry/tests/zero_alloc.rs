//! Zero-allocation pins for the enabled recording path.
//!
//! Two claims the telemetry layer makes about what recording costs, pinned
//! so they cannot rot silently:
//!
//! 1. **Recording an event is zero-alloc**: on a warm, full ring, `span`,
//!    `instant` and `end` with names of up to `LABEL_INLINE` bytes and up
//!    to `ARGS_MAX` args allocate nothing — building the event, and
//!    evicting the oldest one, never touches the allocator.
//! 2. **A warm metric update is zero-alloc**: `count`, `gauge`, `observe`
//!    and `observe_many` on names already in the registry allocate
//!    nothing.
//!
//! The event's size is pinned too: it is what a ring slot costs.
//!
//! This is a dedicated test binary with a single `#[test]`: the probe's
//! counters are process-global, so a second concurrent test would bleed
//! allocations into the measurement.

use impress_sim::alloc_probe::CountingAlloc;
use impress_sim::SimTime;
use impress_telemetry::{
    track, SpanCat, SpanId, Stamp, Telemetry, TelemetryEvent, ARGS_MAX, LABEL_INLINE,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const RING: usize = 64;
const WINDOW: u64 = 256;
const TASK_NAME: &str = "a-task-name-of-22-byte";

fn stamp(s: u64) -> Stamp {
    Stamp::virt(SimTime::from_micros(s))
}

/// One task's worth of events at the widest shapes the pin covers.
fn record(tele: &Telemetry, i: u64) {
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

fn update_metrics(tele: &Telemetry, i: u64, waits: &[f64]) {
    tele.count("tasks_submitted", 1);
    tele.count("placements", i);
    tele.gauge("queue_depth", i as f64);
    tele.gauge("in_flight", 3.0);
    tele.observe("task_run_seconds", 0.0, 14_400.0, 48, i as f64);
    tele.observe_many("queue_wait_seconds", 0.0, 14_400.0, 48, waits);
}

#[test]
fn warm_recording_and_metric_updates_allocate_nothing() {
    // A ring slot: two span ids, a category, an inline label, a track, a
    // dual-clock stamp and an inline list of `ARGS_MAX` pairs.
    assert_eq!(std::mem::size_of::<TelemetryEvent>(), 160);
    assert_eq!(TASK_NAME.len(), LABEL_INLINE);
    assert_eq!(ARGS_MAX, 3);

    // --- Pin 1: span + instant + end on a warm, full ring --------------
    let (tele, rec) = Telemetry::recording(RING);
    for i in 0..RING as u64 {
        record(&tele, i);
    }
    assert_eq!(rec.len(), RING);
    let dropped = rec.dropped();
    assert!(dropped > 0, "the ring must be full before the window opens");
    let (allocs, ()) = ALLOC.measure(|| {
        for i in 0..WINDOW {
            record(&tele, RING as u64 + i);
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

    // --- Pin 2: warm count / gauge / observe / observe_many ------------
    let waits = [12.0, 300.5, 9_000.0, 20_000.0];
    update_metrics(&tele, 0, &waits); // first use registers each series
    let (allocs, ()) = ALLOC.measure(|| {
        for i in 1..=WINDOW {
            update_metrics(&tele, i, &waits);
        }
    });
    assert_eq!(allocs, 0, "warm metric updates must not allocate");
    let snap = tele.snapshot();
    assert_eq!(snap.counter("tasks_submitted"), Some(WINDOW + 1));
    assert_eq!(
        snap.histogram("queue_wait_seconds").map(|h| h.count),
        Some(4 * (WINDOW + 1))
    );
}
