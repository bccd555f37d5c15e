//! Event collection: the [`TelemetrySink`] trait, the no-op [`NullSink`]
//! and the fixed-capacity [`RingSink`].

use crate::event::TelemetryEvent;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Where recorded events go. Implementations must be cheap enough to sit
/// on the backend hot path; the disabled path never reaches a sink at all
/// (the [`Telemetry`](crate::Telemetry) handle short-circuits on a cached
/// flag before any event is even constructed).
pub trait TelemetrySink: Send + Sync {
    /// Whether this sink wants events. A `false` here disables the whole
    /// handle at construction time.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Accept one event.
    fn record(&self, event: TelemetryEvent);
}

/// A sink that drops everything; [`Telemetry`](crate::Telemetry) handles
/// built over it behave exactly like disabled handles.
#[derive(Debug, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn is_enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: TelemetryEvent) {}
}

/// Fixed-capacity in-memory ring buffer. When full, the oldest event is
/// dropped and counted — recording never blocks and never grows without
/// bound.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    buffer: Mutex<VecDeque<TelemetryEvent>>,
    dropped: AtomicU64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (at least one).
    pub fn new(capacity: usize) -> RingSink {
        let capacity = capacity.max(1);
        RingSink {
            capacity,
            buffer: Mutex::new(VecDeque::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
        }
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.buffer
            .lock()
            .expect("ring lock")
            .iter()
            .cloned()
            .collect()
    }

    /// How many events were evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl TelemetrySink for RingSink {
    fn record(&self, event: TelemetryEvent) {
        let mut buf = self.buffer.lock().expect("ring lock");
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(event);
    }
}
