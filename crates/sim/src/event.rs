//! The deterministic event queue.
//!
//! Events are ordered by `(time, sequence number)`: ties at the same virtual
//! instant fire in scheduling order. This makes every simulation replayable —
//! the queue never consults wall-clock time, thread identity, or hash order.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Monotonically increasing identifier assigned to every scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

/// An entry in the event queue: a firing time plus an opaque payload.
///
/// The pilot backends store small typed events as payloads.
pub struct ScheduledEvent<T> {
    /// When the event fires.
    pub at: SimTime,
    /// Queue-unique identifier; also the deterministic tie-breaker.
    pub id: EventId,
    /// The payload delivered when the event fires.
    pub payload: T,
}

impl<T> PartialEq for ScheduledEvent<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}
impl<T> Eq for ScheduledEvent<T> {}

impl<T> PartialOrd for ScheduledEvent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for ScheduledEvent<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, id) pops first.
        other.at.cmp(&self.at).then_with(|| other.id.cmp(&self.id))
    }
}

/// State of one issued id inside the queue's window.
const GONE: u8 = 0;
const PENDING: u8 = 1;
const TOMBSTONE: u8 = 2;

/// A min-queue of timed events with deterministic FIFO tie-breaking.
///
/// Cancellation is lazy (a tombstone in the heap, skipped when popped) but
/// *exact*: the queue also tracks the state of every scheduled-and-not-yet-
/// retired id, so [`EventQueue::cancel`] reports precisely whether it
/// removed a live event and [`EventQueue::len`] is always the true live
/// count. When tombstones dominate the heap it is compacted in one O(n)
/// rebuild, so mass cancellations (a node crash evicting thousands of
/// completions) cannot degrade every later pop.
///
/// # Memory
///
/// Ids are handed out densely from 0, so their state lives in a sliding
/// window indexed by `id - base` rather than in a hash set: one byte per id
/// between the oldest id still in the heap and the newest issued, whatever
/// happened to the ids in between. (A hash set of pending ids cost at least
/// 9 bytes per *pending* id, and a hash per schedule, pop and cancel.) The
/// window's front advances as soon as its oldest id fires or its tombstone
/// is dropped; a single far-future event therefore pins one byte for every
/// id issued after it until it fires or is cancelled and compacted away.
pub struct EventQueue<T> {
    heap: BinaryHeap<ScheduledEvent<T>>,
    next_id: u64,
    /// `window[id - base]` is the state of `id`, for `base <= id < next_id`.
    /// Ids below `base` are gone: fired, or cancelled and out of the heap.
    window: VecDeque<u8>,
    base: u64,
    /// Pending ids in the window: scheduled, not fired, not cancelled.
    live: usize,
    /// Tombstones still physically in the heap (always a subset of it).
    tombstones: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_id: 0,
            window: VecDeque::new(),
            base: 0,
            live: 0,
            tombstones: 0,
        }
    }

    /// Schedule `payload` to fire at `at`. Returns the event's id, usable
    /// with [`EventQueue::cancel`].
    pub fn schedule(&mut self, at: SimTime, payload: T) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.window.push_back(PENDING);
        self.live += 1;
        self.heap.push(ScheduledEvent { at, id, payload });
        id
    }

    /// Schedule a burst of events in one queue operation. Ids are assigned
    /// in iteration order; the batch occupies the contiguous id range
    /// `first.0 .. first.0 + count` of the returned `(first, count)` pair,
    /// so callers that track per-event ids (for later [`EventQueue::cancel`])
    /// can reconstruct them without a per-event allocation. The heap is
    /// extended in bulk, so a submission burst of N events costs one
    /// amortized rebuild instead of N sift-ups.
    pub fn schedule_batch(
        &mut self,
        items: impl IntoIterator<Item = (SimTime, T)>,
    ) -> (EventId, usize) {
        let first = EventId(self.next_id);
        let next_id = &mut self.next_id;
        self.heap.extend(items.into_iter().map(|(at, payload)| {
            let id = EventId(*next_id);
            *next_id += 1;
            ScheduledEvent { at, id, payload }
        }));
        let count = (self.next_id - first.0) as usize;
        self.window.extend(std::iter::repeat_n(PENDING, count));
        self.live += count;
        (first, count)
    }

    /// Cancel a previously scheduled event. Cancellation is lazy: the entry
    /// stays in the heap but is skipped when popped. Returns `true` only if
    /// the event was still live — `false` if it already fired, was already
    /// cancelled, or was never issued.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(state) =
            id.0.checked_sub(self.base)
                .and_then(|at| self.window.get_mut(at as usize))
                .filter(|state| **state == PENDING)
        else {
            return false;
        };
        *state = TOMBSTONE;
        self.live -= 1;
        self.tombstones += 1;
        self.maybe_compact();
        true
    }

    /// `id` left the heap: mark it gone and slide the window's front past
    /// every id that is. Returns whether it was a tombstone.
    fn retire(&mut self, id: EventId) -> bool {
        let state = &mut self.window[(id.0 - self.base) as usize];
        let was_tombstone = *state == TOMBSTONE;
        *state = GONE;
        if was_tombstone {
            self.tombstones -= 1;
        } else {
            self.live -= 1;
        }
        self.trim_front();
        was_tombstone
    }

    fn trim_front(&mut self) {
        while self.window.front() == Some(&GONE) {
            self.window.pop_front();
            self.base += 1;
        }
    }

    /// Remove and return the earliest non-cancelled event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<T>> {
        while let Some(ev) = self.heap.pop() {
            if !self.retire(ev.id) {
                return Some(ev);
            }
        }
        None
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drop cancelled entries from the top so the peek is accurate.
        while let Some(top) = self.heap.peek() {
            if self.window[(top.id.0 - self.base) as usize] == TOMBSTONE {
                let ev = self.heap.pop().expect("peeked entry exists");
                self.retire(ev.id);
            } else {
                return Some(top.at);
            }
        }
        None
    }

    /// Number of live (scheduled, unfired, uncancelled) events. Exact:
    /// tombstones are never counted.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Rebuild the heap without tombstones once they outnumber live
    /// entries. The threshold keeps small queues untouched and makes the
    /// O(n) sweep amortized O(1) per cancellation.
    fn maybe_compact(&mut self) {
        if self.tombstones > 64 && self.tombstones * 2 > self.heap.len() {
            let (window, base) = (&mut self.window, self.base);
            let heap = std::mem::take(&mut self.heap);
            self.heap = heap
                .into_iter()
                .filter(|ev| {
                    let state = &mut window[(ev.id.0 - base) as usize];
                    let keep = *state != TOMBSTONE;
                    if !keep {
                        *state = GONE;
                    }
                    keep
                })
                .collect();
            self.tombstones = 0;
            self.trim_front();
        }
    }

    /// Whether no live events remain. (Takes `&mut self` because it prunes
    /// lazily-cancelled entries to give an exact answer.)
    #[allow(clippy::wrong_self_convention)]
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }

    /// The id range the state window spans, `base..base + len`.
    #[cfg(test)]
    fn window_span(&self) -> std::ops::Range<u64> {
        self.base..self.base + self.window.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5), "c");
        q.schedule(t(1), "a");
        q.schedule(t(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.pop().unwrap().payload, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_ignores_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(9)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop().map(|e| e.at), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn cancel_after_fire_reports_false_and_len_stays_exact() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        let b = q.schedule(t(2), "b");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().payload, "a");
        assert_eq!(q.len(), 1);
        // `a` already fired: cancelling it must be a no-op, not a future
        // skip of an unrelated event or a phantom decrement of len().
        assert!(!q.cancel(a), "cancel of a fired event reports false");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
        assert_eq!(q.len(), 0, "cancel-then-len is exact");
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0, "cancel-then-pop-then-len is exact");
    }

    #[test]
    fn mass_cancellation_compacts_the_heap() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..1000).map(|i| q.schedule(t(i), i)).collect();
        let keep = q.schedule(t(5000), 5000);
        for id in &ids {
            assert!(q.cancel(*id));
        }
        assert_eq!(q.len(), 1);
        assert!(
            q.heap.len() < 1001,
            "tombstone-dominated heap must compact: {}",
            q.heap.len()
        );
        assert_eq!(q.pop().unwrap().id, keep);
        assert!(q.is_empty());
        assert!(
            !q.cancel(keep),
            "fired after compaction still reports false"
        );
    }

    #[test]
    fn schedule_batch_assigns_sequential_ids_and_bulk_inserts() {
        let mut q = EventQueue::new();
        q.schedule(t(50), 0u64);
        let (first, count) = q.schedule_batch((0..10u64).map(|i| (t(10 - i), i + 1)));
        assert_eq!(first, EventId(1));
        assert_eq!(count, 10);
        assert_eq!(q.len(), 11);
        // Cancel one batch member through its reconstructed id.
        assert!(q.cancel(EventId(first.0 + 3)));
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        // Batch fired in time order (descending payload = ascending time),
        // minus the cancelled member (payload 4), with the t(50) tail last.
        assert_eq!(popped, vec![10, 9, 8, 7, 6, 5, 3, 2, 1, 0]);
        let (first2, count2) = q.schedule_batch(std::iter::empty());
        assert_eq!((first2, count2), (EventId(11), 0), "empty batch is a no-op");
    }

    /// Satellite audit: `len()`/`cancel` stay exact under lazy-cancel heap
    /// compaction, including when a cancel races a pop of the same id in
    /// one tick. A naive Vec-of-states model is the oracle; every
    /// interleaving of push / batch-push / pop / cancel must agree on pop
    /// order, cancel return values, peeks, and exact live counts.
    mod queue_model {
        use super::*;
        use crate::props;

        #[derive(Clone, Copy, PartialEq)]
        enum St {
            Live,
            Cancelled,
            Fired,
        }

        struct Model {
            events: Vec<(SimTime, u64, St)>,
        }

        impl Model {
            fn push(&mut self, at: SimTime) -> u64 {
                let id = self.events.len() as u64;
                self.events.push((at, id, St::Live));
                id
            }
            fn live(&self) -> impl Iterator<Item = &(SimTime, u64, St)> {
                self.events.iter().filter(|(_, _, st)| *st == St::Live)
            }
            fn pop(&mut self) -> Option<(SimTime, u64)> {
                let &(at, id, _) = self.live().min_by_key(|&&(at, id, _)| (at, id))?;
                self.events[id as usize].2 = St::Fired;
                Some((at, id))
            }
            fn cancel(&mut self, id: u64) -> bool {
                match self.events.get_mut(id as usize) {
                    Some(slot) if slot.2 == St::Live => {
                        slot.2 = St::Cancelled;
                        true
                    }
                    _ => false,
                }
            }
        }

        props! {
            /// 256 random interleavings of push/batch/pop/cancel against the
            /// naive model: ids, order, len, and peeks all stay exact.
            fn queue_matches_naive_model_under_push_pop_cancel(rng, cases = 256) {
                let mut q = EventQueue::new();
                let mut model = Model { events: Vec::new() };
                let ops = 30 + rng.below(120);
                for _ in 0..ops {
                    match rng.below(10) {
                        0..=3 => {
                            let at = t(rng.below(40) as u64);
                            let id = q.schedule(at, ());
                            assert_eq!(id.0, model.push(at));
                        }
                        4 => {
                            let n = rng.below(5) as u64;
                            let ats: Vec<SimTime> =
                                (0..n).map(|_| t(rng.below(40) as u64)).collect();
                            let (first, count) =
                                q.schedule_batch(ats.iter().map(|&at| (at, ())));
                            assert_eq!(count as u64, n);
                            for (i, &at) in ats.iter().enumerate() {
                                assert_eq!(first.0 + i as u64, model.push(at));
                            }
                        }
                        5..=6 => {
                            let got = q.pop().map(|e| (e.at, e.id.0));
                            assert_eq!(got, model.pop(), "pop order diverged");
                            // The cancel-races-pop tick: cancelling the id we
                            // just popped must be a no-op in both worlds.
                            if let Some((_, id)) = got {
                                assert!(!q.cancel(EventId(id)), "cancel of fired id");
                                assert!(!model.cancel(id));
                            }
                        }
                        _ => {
                            if model.events.is_empty() {
                                continue;
                            }
                            // Any id ever issued: live, already fired, or
                            // already cancelled — return values must agree.
                            let id = rng.below(model.events.len()) as u64;
                            assert_eq!(q.cancel(EventId(id)), model.cancel(id));
                        }
                    }
                    assert_eq!(q.len(), model.live().count(), "live count drifted");
                    assert_eq!(
                        q.peek_time(),
                        model.live().map(|&(at, id, _)| (at, id)).min().map(|(at, _)| at),
                        "peek diverged"
                    );
                }
                // Drain to empty: the full remaining order must agree.
                while let Some(ev) = q.pop() {
                    assert_eq!(Some((ev.at, ev.id.0)), model.pop());
                }
                assert_eq!(model.pop(), None, "model had leftovers the queue lost");
                assert_eq!(q.len(), 0);
            }
        }
    }

    #[test]
    fn the_state_window_spans_oldest_outstanding_to_newest() {
        let mut q = EventQueue::new();
        let far = q.schedule(t(9_000), 0u64);
        for round in 0..50u64 {
            let (first, count) = q.schedule_batch((0..40).map(|i| (t(round), i)));
            assert!(q.cancel(EventId(first.0 + 7)));
            for _ in 0..count - 1 {
                assert!(q.pop().expect("the batch is pending").id > far);
            }
        }
        // One far-future event outstanding: every id issued after it keeps
        // its slot, fired or cancelled, and nothing before it does.
        assert_eq!(q.len(), 1);
        assert_eq!(q.window_span(), far.0..far.0 + 1 + 50 * 40);
        assert_eq!(q.pop().map(|e| e.id), Some(far));
        // Drained with nothing outstanding: the window is empty, and stays
        // anchored at the next id to be issued.
        assert_eq!(q.window_span(), 2_001..2_001);
        assert!(!q.cancel(far) && !q.cancel(EventId(2_001)));

        // A cancelled front holds the window only until its tombstone
        // leaves the heap.
        let a = q.schedule(t(1), 1);
        let b = q.schedule(t(2), 2);
        assert!(q.cancel(a));
        assert_eq!(q.window_span(), a.0..b.0 + 1);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.window_span(), b.0..b.0 + 1);
    }

    #[test]
    fn compaction_preserves_order_and_pending_cancels() {
        let mut q = EventQueue::new();
        // Interleave survivors and victims so compaction must filter, not
        // truncate; then check the survivors still pop in (time, id) order.
        let mut survivors = Vec::new();
        let mut victims = Vec::new();
        for i in 0..400u64 {
            let id = q.schedule(t(1000 - (i % 97) * 10), i);
            if i % 3 == 0 {
                survivors.push((id, i));
            } else {
                victims.push(id);
            }
        }
        for id in victims {
            assert!(q.cancel(id));
        }
        let mut popped = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push((ev.at, ev.id));
        }
        assert_eq!(popped.len(), survivors.len());
        let mut expected: Vec<_> = popped.clone();
        expected.sort();
        assert_eq!(popped, expected, "pop order survives compaction");
    }
}
