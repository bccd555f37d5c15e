//! The deterministic event queue.
//!
//! Events are ordered by `(time, sequence number)`: ties at the same virtual
//! instant fire in scheduling order. This makes every simulation replayable —
//! the queue never consults wall-clock time, thread identity, or hash order.

use crate::time::SimTime;
use std::collections::VecDeque;

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

/// State of one issued id inside the queue's window.
const GONE: u8 = 0;
const PENDING: u8 = 1;
const TOMBSTONE: u8 = 2;

/// One bucket per bit of a `u64` key.
const BUCKETS: usize = 64;

/// The first allocation a `Vec` of queue entries makes: a drained bucket
/// keeps at least this much storage, so a queue of a few events never
/// re-grows it.
const MIN_KEPT: usize = 4;

/// A min-queue of timed events with deterministic FIFO tie-breaking.
///
/// # Shape
///
/// A radix heap keyed on the firing time in microseconds. `floor` is the
/// key the queue last moved up to (no stored event is earlier); `now` holds
/// the events at exactly `floor`, in id order; every other event sits in
/// `buckets[b]`, where `b` is the highest bit in which its key differs from
/// `floor`. Keys in a lower bucket are all earlier than keys in a higher
/// one. A pop takes the front of `now`; when `now` is empty it refills it
/// from the lowest non-empty bucket: the floor moves to that bucket's
/// earliest live key and the bucket redistributes into `now` and lower
/// buckets. An event therefore moves down a few buckets over its life
/// rather than sifting through a heap on every pop, and the buckets are
/// scanned sequentially.
///
/// [`EventQueue::peek_time`] does not move the floor, so a driver may peek
/// and then schedule earlier than the peeked head (the sharded driver
/// does). Scheduling earlier than the floor itself — before the last pop —
/// re-files every stored event under the new floor: O(n), and no driver
/// does it.
///
/// Cancellation is lazy (a tombstone stays in its bucket and is skipped or
/// dropped when reached) but *exact*: the queue also tracks the state of
/// every scheduled-and-not-yet-retired id, so [`EventQueue::cancel`]
/// reports precisely whether it removed a live event and
/// [`EventQueue::len`] is always the true live count. When tombstones
/// dominate the stored entries they are swept out in one O(n) pass, so mass
/// cancellations (a node crash evicting thousands of completions) cannot
/// degrade every later pop.
///
/// # Memory
///
/// Ids are handed out densely from 0, so their state lives in a sliding
/// window indexed by `id - base` rather than in a hash set: one byte per id
/// between the oldest id still stored and the newest issued, whatever
/// happened to the ids in between. (A hash set of pending ids cost at least
/// 9 bytes per *pending* id, and a hash per schedule, pop and cancel.) The
/// window's front advances as soon as its oldest id fires or its tombstone
/// is dropped; a single far-future event therefore pins one byte for every
/// id issued after it until it fires or is cancelled and compacted away.
///
/// As the clock crosses a high bit, the bucket of that bit briefly holds
/// the whole stored set. A refill therefore releases a drained bucket's
/// storage when its capacity exceeds `max(stored, 4)`, so the buckets of a
/// drained burst do not keep its peak.
pub struct EventQueue<T> {
    /// Key (microseconds) of the last refill: no stored event is earlier.
    floor: u64,
    /// The stored events at exactly `floor`, in id order.
    now: VecDeque<ScheduledEvent<T>>,
    /// `buckets[b]`: the stored events whose key differs from `floor`
    /// highest at bit `b`.
    buckets: [Vec<ScheduledEvent<T>>; BUCKETS],
    /// Bit `b` is set when `buckets[b]` is non-empty.
    occupied: u64,
    /// The answer of [`EventQueue::peek_time`], while no pop or cancel has
    /// made it stale (a push only lowers it).
    head: Option<Option<SimTime>>,
    next_id: u64,
    /// `window[id - base]` is the state of `id`, for `base <= id < next_id`.
    /// Ids below `base` are gone: fired, or cancelled and no longer stored.
    window: VecDeque<u8>,
    base: u64,
    /// Pending ids in the window: scheduled, not fired, not cancelled.
    live: usize,
    /// Tombstones still stored (always a subset of the stored entries).
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
            floor: 0,
            now: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            head: Some(None),
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
        let key = at.as_micros();
        if key < self.floor {
            self.lower_floor(key);
        }
        if let Some(head) = &mut self.head {
            *head = Some(head.map_or(at, |head| head.min(at)));
        }
        // An event at `floor` carries the largest id so far, so `now`
        // stays in id order.
        self.place(ScheduledEvent { at, id, payload });
        id
    }

    /// Schedule a burst of events. Ids are assigned in iteration order; the
    /// batch occupies the contiguous id range `first.0 .. first.0 + count`
    /// of the returned `(first, count)` pair, so callers that track
    /// per-event ids (for later [`EventQueue::cancel`]) can reconstruct
    /// them without a per-event allocation.
    pub fn schedule_batch(
        &mut self,
        items: impl IntoIterator<Item = (SimTime, T)>,
    ) -> (EventId, usize) {
        let first = EventId(self.next_id);
        for (at, payload) in items {
            self.schedule(at, payload);
        }
        (first, (self.next_id - first.0) as usize)
    }

    /// File `ev` under the current floor, which its key must not be below.
    fn place(&mut self, ev: ScheduledEvent<T>) {
        let diff = ev.at.as_micros() ^ self.floor;
        if diff == 0 {
            self.now.push_back(ev);
        } else {
            let b = diff.ilog2() as usize;
            self.buckets[b].push(ev);
            self.occupied |= 1 << b;
        }
    }

    /// Move the floor down to `key`, below every stored event, and re-file
    /// them all under it.
    fn lower_floor(&mut self, key: u64) {
        let mut stored: Vec<_> = self.now.drain(..).collect();
        for bucket in &mut self.buckets {
            stored.append(bucket);
        }
        self.occupied = 0;
        self.floor = key;
        for ev in stored {
            self.place(ev);
        }
    }

    /// Cancel a previously scheduled event. Cancellation is lazy: the entry
    /// stays stored but is skipped when reached. Returns `true` only if
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
        self.head = None;
        self.maybe_compact();
        true
    }

    fn state(&self, id: EventId) -> u8 {
        self.window[(id.0 - self.base) as usize]
    }

    /// `id` left the queue: mark it gone and slide the window's front past
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
        loop {
            while let Some(ev) = self.now.pop_front() {
                self.head = None;
                if !self.retire(ev.id) {
                    return Some(ev);
                }
            }
            let head = self.peek_time()?;
            self.refill(head.as_micros());
        }
    }

    /// Refill the empty `now`: move the floor up to `key`, the earliest
    /// live key, and redistribute the lowest non-empty bucket (which holds
    /// it) under the new floor. Anything in that bucket earlier than `key`
    /// is a tombstone, and is dropped.
    fn refill(&mut self, key: u64) {
        debug_assert!(self.now.is_empty() && key > self.floor);
        let b = self.occupied.trailing_zeros() as usize;
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        self.occupied &= !(1 << b);
        self.floor = key;
        // Every key left in the bucket agrees with the new floor above bit
        // `b`, so each lands in `now` or a lower bucket.
        for ev in bucket.drain(..) {
            if ev.at.as_micros() < key {
                self.retire(ev.id);
            } else {
                self.place(ev);
            }
        }
        self.now.make_contiguous().sort_unstable_by_key(|ev| ev.id);
        self.put_back(b, bucket);
    }

    /// Give drained bucket `b` its storage back, unless that storage is
    /// more than the queue holds: capacity above `max(stored, MIN_KEPT)` is
    /// released.
    fn put_back(&mut self, b: usize, bucket: Vec<ScheduledEvent<T>>) {
        if bucket.capacity() <= (self.live + self.tombstones).max(MIN_KEPT) {
            self.buckets[b] = bucket;
        }
    }

    /// Time of the earliest pending event, if any. Does not move the
    /// floor: scheduling earlier than the answer stays cheap.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if let Some(head) = self.head {
            return head;
        }
        let head = self.find_head();
        self.head = Some(head);
        head
    }

    /// The earliest live key. Drops the tombstones it can without moving
    /// the floor: those at the front of `now`, and buckets holding nothing
    /// else.
    fn find_head(&mut self) -> Option<SimTime> {
        while let Some(front) = self.now.front() {
            if self.state(front.id) == PENDING {
                return Some(front.at);
            }
            let ev = self.now.pop_front().expect("the front exists");
            self.retire(ev.id);
        }
        while self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            let earliest = self.buckets[b]
                .iter()
                .filter(|ev| self.tombstones == 0 || self.state(ev.id) == PENDING)
                .map(|ev| ev.at)
                .min();
            if earliest.is_some() {
                return earliest;
            }
            let mut bucket = std::mem::take(&mut self.buckets[b]);
            self.occupied &= !(1 << b);
            for ev in bucket.drain(..) {
                self.retire(ev.id);
            }
            self.put_back(b, bucket);
        }
        None
    }

    /// Number of live (scheduled, unfired, uncancelled) events. Exact:
    /// tombstones are never counted.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Sweep tombstones out once they outnumber live entries. The
    /// threshold keeps small queues untouched and makes the O(n) sweep
    /// amortized O(1) per cancellation. Removing entries never changes the
    /// bucket of the ones that stay.
    fn maybe_compact(&mut self) {
        if self.tombstones > 64 && self.tombstones > self.live {
            let (window, base) = (&mut self.window, self.base);
            let mut keep = |ev: &ScheduledEvent<T>| {
                let state = &mut window[(ev.id.0 - base) as usize];
                let keep = *state != TOMBSTONE;
                if !keep {
                    *state = GONE;
                }
                keep
            };
            self.now.retain(&mut keep);
            self.occupied = 0;
            for (b, bucket) in self.buckets.iter_mut().enumerate() {
                bucket.retain(&mut keep);
                if !bucket.is_empty() {
                    self.occupied |= 1 << b;
                }
            }
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

    /// Entries physically stored, tombstones included.
    #[cfg(test)]
    fn stored(&self) -> usize {
        self.now.len() + self.buckets.iter().map(Vec::len).sum::<usize>()
    }

    /// Entries the buckets have room for.
    #[cfg(test)]
    fn bucket_capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum()
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
            q.stored() < 1001,
            "tombstone-dominated heap must compact: {}",
            q.stored()
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

    #[test]
    fn a_drained_burst_releases_its_bucket_storage() {
        // 100,000 events spread below 3,000 s: as the clock crosses each
        // high bit, that bit's bucket holds most of what is left.
        let mut q = EventQueue::new();
        for i in 0..100_000u64 {
            q.schedule(SimTime::from_micros(i * 2_654_435_761 % 3_000_000_000), i);
        }
        let mut peak = q.bucket_capacity();
        while q.pop().is_some() {
            peak = peak.max(q.bucket_capacity());
        }
        let kept = q.bucket_capacity();
        assert!(
            kept * 50 < peak,
            "a drained queue keeps {kept} of its peak {peak} bucket entries"
        );
    }

    /// A warm `schedule` + `pop` cycle at steady depth allocates nothing:
    /// the id-state window is at capacity, and its front retires as fast
    /// as its back grows. A bucket grows the first time the clock crosses
    /// its bit, and then holds the whole stored set; so "warm" means the
    /// clock has crossed every bit the measured window crosses, and the
    /// window lies between two powers of two.
    #[test]
    fn a_warm_cycle_at_steady_depth_allocates_nothing() {
        const DEPTH: u64 = 1_024;
        const CYCLES: u64 = 20_000;
        let mut queue: EventQueue<u64> = EventQueue::new();
        for i in 0..DEPTH {
            queue.schedule(SimTime::from_micros(i * 7 % DEPTH), i);
        }
        let cycle = |queue: &mut EventQueue<u64>| {
            for _ in 0..CYCLES {
                let ev = queue.pop().expect("held at depth");
                let jitter = SimDuration::from_micros(DEPTH + ev.payload * 31 % 97);
                queue.schedule(ev.at + jitter, ev.payload);
            }
        };
        cycle(&mut queue);
        cycle(&mut queue);
        let clock = |queue: &mut EventQueue<u64>| queue.peek_time().expect("held").as_micros();
        assert!(clock(&mut queue) > 1 << 15, "the warm-up crossed bit 15");
        let (allocs, ()) = crate::ALLOC.measure(|| cycle(&mut queue));
        assert!(clock(&mut queue) < 1 << 16, "the window stays below bit 16");
        assert_eq!(queue.len() as u64, DEPTH);
        assert_eq!(allocs, 0, "a warm schedule + pop cycle must not allocate");
    }
}
