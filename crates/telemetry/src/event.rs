//! The span/event model: what instrumentation points emit into a
//! [`TelemetrySink`](crate::TelemetrySink).

use impress_json::{FromJson, FromJsonBuf, Json, JsonError, Parser, ToJsonBuf};
use impress_sim::SimTime;
use std::sync::Arc;

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
    pub(crate) fn is_none(self) -> bool {
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
        Stamp {
            virt: at,
            wall: None,
        }
    }

    /// A dual-clock stamp (threaded backend).
    pub fn dual(virt: SimTime, wall_micros: u64) -> Stamp {
        Stamp {
            virt,
            wall: Some(wall_micros),
        }
    }
}

/// Longest name a [`Label`] stores inline (every literal and every in-tree
/// task name fits); 22 bytes plus a length and a tag keep a label at 24.
pub const LABEL_INLINE: usize = 22;

/// A name — of a span, an instant, a task or a tag — built without a heap
/// allocation when it fits in [`LABEL_INLINE`] bytes. Longer names —
/// pipeline and campaign names are user input — go in a shared `Arc<str>`,
/// so cloning a label never allocates. Compares and prints as its text,
/// whichever way it is stored.
#[derive(Clone)]
pub struct Label(Repr);

/// A text has exactly one representation: inline, zero-padded, iff it
/// fits.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; LABEL_INLINE] },
    Heap(Arc<str>),
}

impl From<&str> for Label {
    fn from(text: &str) -> Label {
        if text.len() > LABEL_INLINE {
            return Label(Repr::Heap(text.into()));
        }
        let mut bytes = [0; LABEL_INLINE];
        bytes[..text.len()].copy_from_slice(text.as_bytes());
        Label(Repr::Inline {
            len: text.len() as u8,
            bytes,
        })
    }
}

impl Label {
    /// The text `args` formats to, written straight into the inline bytes
    /// when it fits: a short formatted name costs no intermediate
    /// `String`, and no allocation at all.
    pub fn from_fmt(args: std::fmt::Arguments<'_>) -> Label {
        /// Fills the inline bytes, and moves to a `String` once the text
        /// outgrows them.
        struct Writer {
            len: usize,
            bytes: [u8; LABEL_INLINE],
            spill: Option<String>,
        }

        impl std::fmt::Write for Writer {
            fn write_str(&mut self, text: &str) -> std::fmt::Result {
                if let Some(spill) = &mut self.spill {
                    spill.push_str(text);
                    return Ok(());
                }
                let end = self.len + text.len();
                if end <= LABEL_INLINE {
                    self.bytes[self.len..end].copy_from_slice(text.as_bytes());
                    self.len = end;
                } else {
                    let mut spill = String::with_capacity(end);
                    spill.push_str(
                        std::str::from_utf8(&self.bytes[..self.len])
                            .expect("whole &strs were written"),
                    );
                    spill.push_str(text);
                    self.spill = Some(spill);
                }
                Ok(())
            }
        }

        let mut out = Writer {
            len: 0,
            bytes: [0; LABEL_INLINE],
            spill: None,
        };
        std::fmt::Write::write_fmt(&mut out, args).expect("a Display impl returned an error");
        match out.spill {
            Some(text) => Label(Repr::Heap(text.into())),
            // Unwritten bytes are still zero: the canonical inline form.
            None => Label(Repr::Inline {
                len: out.len as u8,
                bytes: out.bytes,
            }),
        }
    }
}

impl From<&String> for Label {
    fn from(text: &String) -> Label {
        Label::from(text.as_str())
    }
}

impl From<String> for Label {
    fn from(text: String) -> Label {
        Label::from(text.as_str())
    }
}

impl Default for Label {
    /// The empty label.
    fn default() -> Label {
        Label::from("")
    }
}

impl std::ops::Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..*len as usize])
                .expect("an inline label holds a whole &str"),
            Repr::Heap(text) => text,
        }
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Label) -> bool {
        // The representation is canonical — two labels of one text are
        // stored the same way, inline bytes past `len` zero — so no text
        // needs decoding.
        match (&self.0, &other.0) {
            (Repr::Inline { len: a, bytes: x }, Repr::Inline { len: b, bytes: y }) => {
                a == b && x == y
            }
            (Repr::Heap(x), Repr::Heap(y)) => Arc::ptr_eq(x, y) || x == y,
            _ => false,
        }
    }
}

impl Eq for Label {}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        &**self == other
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        &**self == *other
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self)
    }
}

impl std::fmt::Debug for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

// A label's JSON is its text's: it writes and reads exactly the bytes, and
// fails with exactly the errors, of the `String` it stands in for, so a
// record that swaps one for the other keeps its encoding.

impl ToJsonBuf for Label {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl FromJson for Label {
    fn from_json(v: &Json) -> Result<Label, JsonError> {
        match v.as_str() {
            Some(text) => Ok(Label::from(text)),
            None => Err(JsonError::msg(format!(
                "expected string, got {}",
                v.type_name()
            ))),
        }
    }
}

impl FromJsonBuf for Label {
    /// Borrows the text off the cursor when it holds no escape, so an
    /// inline-sized name decodes without touching the heap.
    fn from_json_buf(p: &mut Parser<'_>) -> Result<Label, JsonError> {
        p.str_token().map(|text| Label::from(&*text))
    }
}

/// Most key/value pairs one event carries: the widest in-tree call site
/// (a campaign span's `campaign`, `tenant`, `priority`).
pub const ARGS_MAX: usize = 3;

/// Small integer key/value pairs attached to spans and instants, held
/// inline (at most [`ARGS_MAX`]) so recording one allocates nothing.
#[derive(Clone, Copy)]
pub struct Args {
    len: u8,
    pairs: [(&'static str, i64); ARGS_MAX],
}

impl Args {
    /// Copy `pairs` in. Panics, naming the limit, past [`ARGS_MAX`].
    pub(crate) fn new(pairs: &[(&'static str, i64)]) -> Args {
        assert!(
            pairs.len() <= ARGS_MAX,
            "a telemetry event carries at most ARGS_MAX = {ARGS_MAX} args, got {}",
            pairs.len()
        );
        let mut args = Args {
            len: pairs.len() as u8,
            pairs: [("", 0); ARGS_MAX],
        };
        args.pairs[..pairs.len()].copy_from_slice(pairs);
        args
    }

    /// The pairs, in the order they were given.
    pub(crate) fn as_slice(&self) -> &[(&'static str, i64)] {
        &self.pairs[..self.len as usize]
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Args) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Args {}

impl std::fmt::Debug for Args {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// One record in the telemetry stream. It owns heap memory only when its
/// name is longer than [`LABEL_INLINE`] bytes.
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
        name: Label,
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
        name: Label,
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
    let mut begins: HashMap<SpanId, (SpanId, SimTime, &str)> = HashMap::new();
    let mut ends: HashMap<SpanId, SimTime> = HashMap::new();
    for ev in events {
        match ev {
            TelemetryEvent::Begin {
                id,
                parent,
                name,
                at,
                ..
            } => {
                if id.is_none() {
                    return Err(format!("span '{name}' begun with the NONE id"));
                }
                if begins.insert(*id, (*parent, at.virt, &**name)).is_some() {
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
