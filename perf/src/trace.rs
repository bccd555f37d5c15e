//! The span stack behind the per-layer metrics.
//!
//! The decorators in `adapter.rs` wrap every call that crosses one of the
//! program's public seams in a [`Span`]. Spans nest on one thread (the whole
//! benchmark is one thread), so a layer's *self* time is its spans' duration
//! minus the part their child spans cover — e.g. work closures run inside
//! `next_completion`, so `pilot` self time excludes `proteins` time. Whatever
//! no span covers is the `workflow` remainder, computed by the caller as op
//! wall time minus [`Totals::covered_ns`].
//!
//! The arithmetic lives in [`Tracer`], which takes explicit timestamps so
//! the tests can drive it with a fake clock; [`enter`] is the thread-local,
//! `Instant`-clocked front the decorators use. Tracing is off unless
//! [`start`] was called, and an off tracer costs one thread-local flag read
//! per span.

use std::cell::RefCell;
use std::time::Instant;

/// The layers a span can belong to. `workflow` has no spans of its own: it
/// is the remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Pilot,
    Proteins,
    Core,
    Journal,
    Telemetry,
}

/// Every seam the decorators time. The discriminant indexes [`Totals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    PilotSubmit,
    PilotNextCompletion,
    PilotPollCompletion,
    PilotControl,
    WorkMpnnGenerate,
    WorkAf2Msa,
    WorkAf2Inference,
    WorkSelectAssess,
    CorePipelineLogic,
    CoreDecision,
    JournalStore,
    TelemetrySink,
}

pub const SPANS: [Span; 12] = [
    Span::PilotSubmit,
    Span::PilotNextCompletion,
    Span::PilotPollCompletion,
    Span::PilotControl,
    Span::WorkMpnnGenerate,
    Span::WorkAf2Msa,
    Span::WorkAf2Inference,
    Span::WorkSelectAssess,
    Span::CorePipelineLogic,
    Span::CoreDecision,
    Span::JournalStore,
    Span::TelemetrySink,
];

impl Span {
    pub fn layer(self) -> Layer {
        match self {
            Span::PilotSubmit
            | Span::PilotNextCompletion
            | Span::PilotPollCompletion
            | Span::PilotControl => Layer::Pilot,
            Span::WorkMpnnGenerate
            | Span::WorkAf2Msa
            | Span::WorkAf2Inference
            | Span::WorkSelectAssess => Layer::Proteins,
            Span::CorePipelineLogic | Span::CoreDecision => Layer::Core,
            Span::JournalStore => Layer::Journal,
            Span::TelemetrySink => Layer::Telemetry,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Span::PilotSubmit => "pilot.submit",
            Span::PilotNextCompletion => "pilot.next_completion",
            Span::PilotPollCompletion => "pilot.poll_completion",
            Span::PilotControl => "pilot.control",
            Span::WorkMpnnGenerate => "proteins.mpnn_generate",
            Span::WorkAf2Msa => "proteins.af2_msa",
            Span::WorkAf2Inference => "proteins.af2_inference",
            Span::WorkSelectAssess => "proteins.select_assess",
            Span::CorePipelineLogic => "core.pipeline_logic",
            Span::CoreDecision => "core.decision",
            Span::JournalStore => "workflow.journal_store",
            Span::TelemetrySink => "telemetry.sink",
        }
    }

    /// The span a work closure belongs to, by `TaskDescription.name`; `None`
    /// for a task that is not one of the protocol's kernels (the benchmark's
    /// own `|| 0` stubs are not `proteins` code and are left untimed).
    pub fn for_work(task_name: &str) -> Option<Span> {
        match task_name {
            "mpnn-generate" => Some(Span::WorkMpnnGenerate),
            "af2-msa" => Some(Span::WorkAf2Msa),
            "af2-inference" => Some(Span::WorkAf2Inference),
            "select-compile" | "assess" => Some(Span::WorkSelectAssess),
            _ => None,
        }
    }
}

/// Event counts the decorators take at the same seams, so that ratios are
/// measured where the work happens. The discriminant indexes [`Totals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    TasksCompleted,
    TasksFailedTerminal,
    /// Attempts behind the delivered completions (one per task plus its
    /// failed attempts).
    Attempts,
    HedgedCompletions,
    Spawns,
    JournalBytes,
    JournalRecords,
}

const COUNTERS: usize = 7;

/// Accumulated time and calls of one [`Span`] kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    pub calls: u64,
    /// Start-to-end time, children included.
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

/// What a traced stretch of work accumulated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals {
    per_span: [SpanTotal; SPANS.len()],
    counters: [u64; COUNTERS],
    /// Time covered by top-level spans: everything any layer accounts for.
    pub covered_ns: u64,
}

impl Totals {
    pub fn of(&self, span: Span) -> SpanTotal {
        self.per_span[span as usize]
    }

    pub fn count(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        SPANS
            .iter()
            .filter(|s| s.layer() == layer)
            .map(|&s| self.of(s).self_ns)
            .sum()
    }

    pub fn layer_calls(&self, layer: Layer) -> u64 {
        SPANS
            .iter()
            .filter(|s| s.layer() == layer)
            .map(|&s| self.of(s).calls)
            .sum()
    }

    pub fn add(&mut self, other: &Totals) {
        for (mine, theirs) in self.per_span.iter_mut().zip(&other.per_span) {
            mine.calls += theirs.calls;
            mine.total_ns += theirs.total_ns;
            mine.self_ns += theirs.self_ns;
        }
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            *mine += theirs;
        }
        self.covered_ns += other.covered_ns;
    }
}

/// One finished span, kept only while a raw dump is being collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSpan {
    pub span: Span,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (into the dump) of the span that was open when this one began.
    pub parent: Option<u32>,
}

struct Frame {
    span: Span,
    start_ns: u64,
    child_ns: u64,
    raw_index: Option<u32>,
}

/// The raw dump stops growing here, so a million-task drain cannot exhaust
/// memory; the aggregate [`Totals`] are unaffected.
const RAW_CAP: usize = 200_000;

/// Span-stack arithmetic over caller-supplied timestamps.
#[derive(Default)]
pub struct Tracer {
    stack: Vec<Frame>,
    totals: Totals,
    raw: Option<Vec<RawSpan>>,
}

impl Tracer {
    pub fn new(collect_raw: bool) -> Tracer {
        Tracer {
            stack: Vec::new(),
            totals: Totals::default(),
            raw: collect_raw.then(Vec::new),
        }
    }

    pub fn enter_at(&mut self, span: Span, now_ns: u64) {
        let raw_index = match &mut self.raw {
            Some(raw) if raw.len() < RAW_CAP => {
                let parent = self.stack.iter().rev().find_map(|f| f.raw_index);
                raw.push(RawSpan {
                    span,
                    start_ns: now_ns,
                    end_ns: now_ns,
                    parent,
                });
                Some((raw.len() - 1) as u32)
            }
            _ => None,
        };
        self.stack.push(Frame {
            span,
            start_ns: now_ns,
            child_ns: 0,
            raw_index,
        });
    }

    pub fn exit_at(&mut self, now_ns: u64) {
        let frame = self.stack.pop().expect("exit without a matching enter");
        let duration = now_ns.saturating_sub(frame.start_ns);
        let total = &mut self.totals.per_span[frame.span as usize];
        total.calls += 1;
        total.total_ns += duration;
        total.self_ns += duration.saturating_sub(frame.child_ns);
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += duration,
            None => self.totals.covered_ns += duration,
        }
        if let (Some(raw), Some(i)) = (&mut self.raw, frame.raw_index) {
            raw[i as usize].end_ns = now_ns;
        }
    }

    pub fn count(&mut self, counter: Counter, n: u64) {
        self.totals.counters[counter as usize] += n;
    }

    pub fn finish(self) -> (Totals, Option<Vec<RawSpan>>) {
        (self.totals, self.raw)
    }
}

struct Active {
    tracer: Tracer,
    origin: Instant,
}

thread_local! {
    static ACTIVE: RefCell<Option<Active>> = const { RefCell::new(None) };
}

#[inline]
fn nanos_since(origin: Instant) -> u64 {
    let d = origin.elapsed();
    d.as_secs() * 1_000_000_000 + u64::from(d.subsec_nanos())
}

/// Begin tracing on this thread, discarding anything a previous (panicked)
/// traced op left behind.
pub fn start(collect_raw: bool) {
    ACTIVE.with(|a| {
        *a.borrow_mut() = Some(Active {
            tracer: Tracer::new(collect_raw),
            origin: Instant::now(),
        })
    });
}

/// Stop tracing and hand back what was accumulated since [`start`].
pub fn stop() -> (Totals, Option<Vec<RawSpan>>) {
    ACTIVE
        .with(|a| a.borrow_mut().take())
        .map(|active| active.tracer.finish())
        .unwrap_or_default()
}

/// Add to several counters at once. A no-op while tracing is off.
#[inline]
pub fn count(counts: &[(Counter, u64)]) {
    ACTIVE.with(|a| {
        if let Some(active) = a.borrow_mut().as_mut() {
            for &(counter, n) in counts {
                active.tracer.count(counter, n);
            }
        }
    });
}

/// Closes its span when dropped.
pub struct Guard {
    open: bool,
}

/// Open `span` until the returned guard drops. A no-op while tracing is off.
#[inline]
pub fn enter(span: Span) -> Guard {
    let open = ACTIVE.with(|a| match a.borrow_mut().as_mut() {
        Some(active) => {
            let now = nanos_since(active.origin);
            active.tracer.enter_at(span, now);
            true
        }
        None => false,
    });
    Guard { open }
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        if !self.open {
            return;
        }
        ACTIVE.with(|a| {
            // `stop` may have run while this span was open (a panic unwound
            // past it): then there is nothing left to close.
            if let Some(active) = a.borrow_mut().as_mut() {
                if !active.tracer.stack.is_empty() {
                    let now = nanos_since(active.origin);
                    active.tracer.exit_at(now);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(false);
        t.enter_at(Span::PilotNextCompletion, 100);
        t.enter_at(Span::WorkAf2Inference, 150);
        t.exit_at(450);
        t.enter_at(Span::WorkAf2Msa, 500);
        t.exit_at(520);
        t.exit_at(1_100);
        let (totals, raw) = t.finish();
        assert!(raw.is_none());
        let drain = totals.of(Span::PilotNextCompletion);
        assert_eq!(drain.calls, 1);
        assert_eq!(drain.total_ns, 1_000);
        assert_eq!(drain.self_ns, 1_000 - 300 - 20);
        // Work closures run inside `next_completion`: their time is
        // attributed to `proteins`, not to `pilot`.
        assert_eq!(totals.layer_self_ns(Layer::Proteins), 320);
        assert_eq!(totals.layer_self_ns(Layer::Pilot), 680);
        assert_eq!(totals.layer_calls(Layer::Proteins), 2);
        // Only the top-level span counts as covered; the layers' self times
        // partition it exactly.
        assert_eq!(totals.covered_ns, 1_000);
        let all_self: u64 = [
            Layer::Pilot,
            Layer::Proteins,
            Layer::Core,
            Layer::Journal,
            Layer::Telemetry,
        ]
        .iter()
        .map(|&l| totals.layer_self_ns(l))
        .sum();
        assert_eq!(all_self, totals.covered_ns);
    }

    #[test]
    fn grandchildren_are_subtracted_once() {
        let mut t = Tracer::new(false);
        t.enter_at(Span::CorePipelineLogic, 0);
        t.enter_at(Span::PilotSubmit, 10);
        t.enter_at(Span::TelemetrySink, 20);
        t.exit_at(30);
        t.exit_at(50);
        t.exit_at(100);
        let (totals, _) = t.finish();
        assert_eq!(totals.of(Span::TelemetrySink).self_ns, 10);
        assert_eq!(totals.of(Span::PilotSubmit).self_ns, 40 - 10);
        assert_eq!(totals.of(Span::CorePipelineLogic).self_ns, 100 - 40);
        assert_eq!(totals.covered_ns, 100);
    }

    #[test]
    fn raw_dump_records_parents() {
        let mut t = Tracer::new(true);
        t.enter_at(Span::PilotNextCompletion, 5);
        t.enter_at(Span::WorkAf2Msa, 6);
        t.exit_at(9);
        t.exit_at(12);
        t.enter_at(Span::PilotSubmit, 20);
        t.exit_at(21);
        let (_, raw) = t.finish();
        let raw = raw.expect("collected");
        assert_eq!(raw.len(), 3);
        assert_eq!(raw[0].parent, None);
        assert_eq!(raw[1].parent, Some(0));
        assert_eq!((raw[1].start_ns, raw[1].end_ns), (6, 9));
        assert_eq!(raw[2].parent, None);
    }

    #[test]
    fn totals_add_componentwise() {
        let mut a = Tracer::new(false);
        a.enter_at(Span::JournalStore, 0);
        a.exit_at(7);
        a.count(Counter::JournalBytes, 40);
        let (mut a, _) = a.finish();
        let b = a.clone();
        a.add(&b);
        assert_eq!(a.count(Counter::JournalBytes), 80);
        assert_eq!(a.of(Span::JournalStore).calls, 2);
        assert_eq!(a.of(Span::JournalStore).self_ns, 14);
        assert_eq!(a.covered_ns, 14);
    }

    #[test]
    fn thread_local_front_is_inert_until_started() {
        {
            let _g = enter(Span::PilotSubmit);
        }
        start(false);
        {
            let _outer = enter(Span::PilotNextCompletion);
            let _inner = enter(Span::WorkAf2Msa);
        }
        let (totals, _) = stop();
        assert_eq!(totals.of(Span::PilotSubmit).calls, 0);
        assert_eq!(totals.of(Span::PilotNextCompletion).calls, 1);
        assert_eq!(totals.of(Span::WorkAf2Msa).calls, 1);
        assert!(
            totals.of(Span::PilotNextCompletion).total_ns >= totals.of(Span::WorkAf2Msa).total_ns
        );
        // A guard that outlives `stop` closes nothing.
        start(false);
        let g = enter(Span::PilotSubmit);
        let _ = stop();
        drop(g);
    }
}
