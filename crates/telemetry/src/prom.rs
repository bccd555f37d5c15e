//! Prometheus-style text exposition of a [`MetricsSnapshot`].

use crate::metrics::MetricsSnapshot;
use std::fmt::Write as _;

/// Render a snapshot in the Prometheus text exposition format (version
/// 0.0.4): `# TYPE` headers, `impress_`-prefixed metric names, histograms
/// as cumulative `_bucket{le=...}` series with `_sum`/`_count`. Output is
/// deterministic because snapshots are name-sorted.
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    prometheus_text_into(&mut out, snapshot);
    out
}

/// [`prometheus_text`] into a caller-supplied (typically reused) buffer —
/// the zero-alloc-once-warm variant for scrape loops that render every
/// poll interval.
pub fn prometheus_text_into(out: &mut String, snapshot: &MetricsSnapshot) {
    for c in &snapshot.counters {
        let _ = writeln!(out, "# TYPE impress_{} counter", c.name);
        let _ = writeln!(out, "impress_{} {}", c.name, c.value);
    }
    for g in &snapshot.gauges {
        let _ = writeln!(out, "# TYPE impress_{} gauge", g.name);
        let _ = writeln!(out, "impress_{} {}", g.name, g.value);
    }
    for h in &snapshot.histograms {
        let _ = writeln!(out, "# TYPE impress_{} histogram", h.name);
        for b in &h.buckets {
            let _ = writeln!(
                out,
                "impress_{}_bucket{{le=\"{}\"}} {}",
                h.name, b.le, b.count
            );
        }
        let _ = writeln!(out, "impress_{}_bucket{{le=\"+Inf\"}} {}", h.name, h.count);
        let _ = writeln!(out, "impress_{}_sum {}", h.name, h.sum);
        let _ = writeln!(out, "impress_{}_count {}", h.name, h.count);
    }
}
