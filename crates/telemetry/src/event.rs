//! The span/event model: what instrumentation points emit into a
//! [`TelemetrySink`](crate::TelemetrySink).

use impress_sim::SimTime;

/// Opaque identifier pairing a span's begin and end records.
///
/// Ids are allocated per [`Telemetry`](crate::Telemetry) handle and exist
/// only to reconstruct the span tree from a flat event stream; they are
/// *never* exported (the Chrome exporter emits self-contained complete
/// events), so two backends recording the same workload in different
/// interleavings still export byte-identical traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no span" sentinel: used as the parent of root spans, and
    /// returned by span constructors when telemetry is disabled.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the [`SpanId::NONE`] sentinel.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// Coarse category a span or instant event belongs to. Categories drive
/// export filtering: virtual-time parity traces keep only the causal
/// categories (everything except [`SpanCat::Scheduler`], whose round
/// structure is backend mechanics, not workload causality).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanCat {
    /// Pilot lifecycle (bootstrap, drain).
    Pilot,
    /// Scheduler mechanics: placement rounds, backfill scans.
    Scheduler,
    /// Whole task lifetime, submit → terminal completion.
    Task,
    /// Time spent queued (submit → placement), one per attempt.
    Queue,
    /// One execution attempt (placement → completion/failure).
    Attempt,
    /// Whole pipeline lineage in the coordinator.
    Pipeline,
    /// One pipeline stage (submission → all tasks routed).
    Stage,
    /// An adaptive-decision callback.
    Decision,
    /// Fault injection: node crash/recovery, injected task faults.
    Fault,
    /// Session/coordinator bookkeeping (journal appends, checkpoints).
    Session,
    /// Hedged speculative attempts: duplicate placement, win, loss.
    Hedge,
    /// Poison-task quarantine: poison verdicts, circuit-breaker trips,
    /// shape sheds.
    Quarantine,
    /// Control-plane resilience: heartbeat suspicion/resync, lease
    /// expiries, fenced completions, dedup hits.
    Control,
    /// Multi-tenant campaign service: admissions, campaign lifetimes,
    /// fair-share boosts, preemption sweeps.
    Service,
}

impl SpanCat {
    /// Stable lowercase label used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanCat::Pilot => "pilot",
            SpanCat::Scheduler => "sched",
            SpanCat::Task => "task",
            SpanCat::Queue => "queue",
            SpanCat::Attempt => "attempt",
            SpanCat::Pipeline => "pipeline",
            SpanCat::Stage => "stage",
            SpanCat::Decision => "decision",
            SpanCat::Fault => "fault",
            SpanCat::Session => "session",
            SpanCat::Hedge => "hedge",
            SpanCat::Quarantine => "quarantine",
            SpanCat::Control => "control",
            SpanCat::Service => "service",
        }
    }
}

/// A dual-clock timestamp.
///
/// Every event carries a virtual (simulation) time; events recorded by the
/// threaded backend additionally carry wall-clock microseconds since the
/// backend's epoch. The simulated backend has no wall clock, so `wall` is
/// `None` there — and the virtual-clock exporter ignores `wall` entirely,
/// which is what makes cross-backend byte parity possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Virtual time: the backend's one modeled clock.
    pub virt: SimTime,
    /// Wall-clock microseconds since the backend epoch, when one exists.
    pub wall: Option<u64>,
}

impl Stamp {
    /// A virtual-only stamp (simulated backend, no wall clock).
    pub fn virt(at: SimTime) -> Stamp {
        Stamp { virt: at, wall: None }
    }

    /// A dual-clock stamp (threaded backend).
    pub fn dual(virt: SimTime, wall_micros: u64) -> Stamp {
        Stamp {
            virt,
            wall: Some(wall_micros),
        }
    }
}

/// Small integer key/value pairs attached to spans and instants.
pub type Args = Vec<(&'static str, i64)>;

/// One record in the telemetry stream.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A span opened.
    Begin {
        /// Id pairing this with its [`TelemetryEvent::End`].
        id: SpanId,
        /// Enclosing span, or [`SpanId::NONE`] for roots.
        parent: SpanId,
        /// Category.
        cat: SpanCat,
        /// Human-readable span name.
        name: String,
        /// Export track (Chrome `tid`): deterministic per entity, e.g.
        /// `10_000 + task id` or `100 + pipeline id`.
        track: i64,
        /// When it opened.
        at: Stamp,
        /// Attached key/value detail.
        args: Args,
    },
    /// A span closed.
    End {
        /// The span being closed.
        id: SpanId,
        /// When it closed.
        at: Stamp,
    },
    /// A point event, optionally attached to an owning span.
    Instant {
        /// Owning span, or [`SpanId::NONE`].
        span: SpanId,
        /// Category.
        cat: SpanCat,
        /// Event name.
        name: String,
        /// Export track (Chrome `tid`).
        track: i64,
        /// When it happened.
        at: Stamp,
        /// Attached key/value detail.
        args: Args,
    },
}

impl TelemetryEvent {
    /// The event's timestamp.
    pub fn stamp(&self) -> Stamp {
        match self {
            TelemetryEvent::Begin { at, .. }
            | TelemetryEvent::End { at, .. }
            | TelemetryEvent::Instant { at, .. } => *at,
        }
    }
}

/// Check the structural span invariants of a recorded stream: every `End`
/// pairs with exactly one earlier `Begin`, no span ends twice, and no child
/// outlives its parent in virtual time (a closed parent implies closed
/// children with `child.end <= parent.end`, and `child.begin >=
/// parent.begin`). Returns a description of the first violation found.
pub fn check_nesting(events: &[TelemetryEvent]) -> Result<(), String> {
    use std::collections::HashMap;
    let mut begins: HashMap<SpanId, (SpanId, SimTime, String)> = HashMap::new();
    let mut ends: HashMap<SpanId, SimTime> = HashMap::new();
    for ev in events {
        match ev {
            TelemetryEvent::Begin {
                id, parent, name, at, ..
            } => {
                if id.is_none() {
                    return Err(format!("span '{name}' begun with the NONE id"));
                }
                if begins.insert(*id, (*parent, at.virt, name.clone())).is_some() {
                    return Err(format!("span {id:?} ('{name}') begun twice"));
                }
            }
            TelemetryEvent::End { id, at } => {
                if !begins.contains_key(id) {
                    return Err(format!("span {id:?} ended without a begin"));
                }
                if ends.insert(*id, at.virt).is_some() {
                    return Err(format!("span {id:?} ended twice"));
                }
            }
            TelemetryEvent::Instant { .. } => {}
        }
    }
    for (id, (parent, begin, name)) in &begins {
        if begin > &ends.get(id).copied().unwrap_or(SimTime::MAX) {
            return Err(format!("span {id:?} ('{name}') ends before it begins"));
        }
        if parent.is_none() {
            continue;
        }
        let Some((_, p_begin, p_name)) = begins.get(parent) else {
            return Err(format!("span {id:?} ('{name}') has an unknown parent"));
        };
        if begin < p_begin {
            return Err(format!(
                "child '{name}' begins at {begin:?}, before parent '{p_name}' at {p_begin:?}"
            ));
        }
        if let Some(p_end) = ends.get(parent) {
            match ends.get(id) {
                None => {
                    return Err(format!(
                        "child '{name}' still open after parent '{p_name}' closed"
                    ));
                }
                Some(end) if end > p_end => {
                    return Err(format!(
                        "child '{name}' outlives parent '{p_name}': {end:?} > {p_end:?}"
                    ));
                }
                Some(_) => {}
            }
        }
    }
    Ok(())
}
