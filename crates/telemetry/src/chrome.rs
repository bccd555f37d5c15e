//! Chrome trace-event JSON export (loadable in `about://tracing` and
//! Perfetto). One exporter, [`write_chrome_trace`], writes the document's
//! compact text straight into a buffer.
//!
//! The exporter is deliberately *structural*: spans become self-contained
//! `"X"` (complete) events carrying `(ts, dur, tid, cat, name, args)` and
//! no span ids, and the event list is canonically sorted by exactly those
//! fields. Two recordings of the same workload that interleaved
//! differently — two drivers of one instant may record its events, and
//! so allocate its span ids, in different orders — still export
//! byte-identical documents whenever their timestamps and span structure
//! agree.

use crate::event::{SpanCat, SpanId, Stamp, TelemetryEvent};
use std::collections::HashMap;

/// Which clock drives the exported `ts`/`dur` fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClock {
    /// Virtual (simulation) time. Wall stamps are ignored entirely, which
    /// is what makes cross-backend byte parity possible.
    Virtual,
    /// Wall-clock time where available (threaded backend), with the
    /// virtual stamp attached as a `vt_us` arg; events without a wall
    /// stamp fall back to their virtual time.
    Wall,
}

/// One flattened trace row, pre-render. Its args are a `Vec` because the
/// exporter appends its own (`unclosed`, `vt_us`) to the recorded ones.
struct Row<'a> {
    ts: u64,
    /// `None` for instants, `Some(dur)` for complete events.
    dur: Option<u64>,
    tid: i64,
    cat: SpanCat,
    name: &'a str,
    args: Vec<(&'static str, i64)>,
}

fn timestamp(at: Stamp, clock: TraceClock) -> u64 {
    match clock {
        TraceClock::Virtual => at.virt.as_micros(),
        TraceClock::Wall => at.wall.unwrap_or(at.virt.as_micros()),
    }
}

/// Render every event as a compact Chrome trace document straight into
/// `out`, with no [`Json`](impress_json::Json) tree in between (one small
/// object per span adds up: trace documents reach hundreds of kilobytes).
/// A caller that needs the tree parses the text.
pub fn write_chrome_trace(out: &mut String, events: &[TelemetryEvent], clock: TraceClock) {
    write_chrome_trace_filtered(out, events, clock, |_| true)
}

/// [`write_chrome_trace`] restricted to categories passing `keep`. The
/// virtual-time parity contract uses this to exclude
/// [`SpanCat::Scheduler`] rounds, whose count and shape are backend
/// mechanics rather than workload causality.
pub fn write_chrome_trace_filtered(
    out: &mut String,
    events: &[TelemetryEvent],
    clock: TraceClock,
    keep: impl Fn(SpanCat) -> bool,
) {
    let rows = collect_rows(events, clock, keep);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for row in &rows {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str("{\"name\":");
        impress_json::write_json(out, &row.name);
        out.push_str(",\"cat\":");
        impress_json::write_json(out, &row.cat.as_str());
        out.push_str(",\"ph\":");
        out.push_str(if row.dur.is_some() { "\"X\"" } else { "\"i\"" });
        out.push_str(",\"ts\":");
        impress_json::write_json(out, &row.ts);
        out.push_str(",\"pid\":1,\"tid\":");
        impress_json::write_json(out, &row.tid);
        match row.dur {
            Some(dur) => {
                out.push_str(",\"dur\":");
                impress_json::write_json(out, &dur);
            }
            None => out.push_str(",\"s\":\"t\""),
        }
        out.push_str(",\"args\":{");
        let mut first_arg = true;
        for (k, v) in &row.args {
            if !std::mem::take(&mut first_arg) {
                out.push(',');
            }
            impress_json::write_json(out, k);
            out.push(':');
            impress_json::write_json(out, v);
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
}

/// Flatten, filter and canonically sort the events into render-ready rows.
fn collect_rows(
    events: &[TelemetryEvent],
    clock: TraceClock,
    keep: impl Fn(SpanCat) -> bool,
) -> Vec<Row<'_>> {
    // Pair Begin/End by id, then forget the ids.
    let mut ends: HashMap<SpanId, Stamp> = HashMap::new();
    for ev in events {
        if let TelemetryEvent::End { id, at } = ev {
            ends.insert(*id, *at);
        }
    }

    let mut rows: Vec<Row> = Vec::new();
    for ev in events {
        match ev {
            TelemetryEvent::Begin {
                id,
                cat,
                name,
                track,
                at,
                args,
                ..
            } => {
                if !keep(*cat) {
                    continue;
                }
                let ts = timestamp(*at, clock);
                let mut args = args.as_slice().to_vec();
                let dur = match ends.get(id) {
                    Some(end) => timestamp(*end, clock).saturating_sub(ts),
                    None => {
                        // Still-open span (e.g. the ring evicted its End):
                        // export as zero-length and say so.
                        args.push(("unclosed", 1));
                        0
                    }
                };
                if clock == TraceClock::Wall {
                    args.push(("vt_us", at.virt.as_micros() as i64));
                }
                rows.push(Row {
                    ts,
                    dur: Some(dur),
                    tid: *track,
                    cat: *cat,
                    name,
                    args,
                });
            }
            TelemetryEvent::End { .. } => {}
            TelemetryEvent::Instant {
                cat,
                name,
                track,
                at,
                args,
                ..
            } => {
                if !keep(*cat) {
                    continue;
                }
                let mut args = args.as_slice().to_vec();
                if clock == TraceClock::Wall {
                    args.push(("vt_us", at.virt.as_micros() as i64));
                }
                rows.push(Row {
                    ts: timestamp(*at, clock),
                    dur: None,
                    tid: *track,
                    cat: *cat,
                    name,
                    args,
                });
            }
        }
    }

    // Canonical order: time, then longest-first so parents precede
    // children at equal begin stamps (instants last), then track,
    // category, name and args as total tie-breakers. The sort key is the
    // full rendered content, so equal keys mean identical rows and the
    // output is independent of recording order.
    rows.sort_by(|a, b| {
        (
            a.ts,
            std::cmp::Reverse(a.dur),
            a.tid,
            a.cat,
            &a.name,
            &a.args,
        )
            .cmp(&(
                b.ts,
                std::cmp::Reverse(b.dur),
                b.tid,
                b.cat,
                &b.name,
                &b.args,
            ))
    });
    rows
}
