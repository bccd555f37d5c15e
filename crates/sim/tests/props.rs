//! Property-based tests for the simulation substrate, on the in-repo
//! `props!` harness (see `impress_sim::props`).

use impress_sim::event::{EventId, EventQueue};
use impress_sim::{prop_assume, props, SimDuration, SimRng, SimTime, Summary};
use std::collections::{BTreeMap, BTreeSet};

fn vec_of(
    rng: &mut SimRng,
    min_len: usize,
    max_len: usize,
    f: impl Fn(&mut SimRng) -> f64,
) -> Vec<f64> {
    let len = min_len + rng.below(max_len - min_len);
    (0..len).map(|_| f(rng)).collect()
}

/// What [`EventQueue`] promises, said the slow way: the live events in
/// firing order, and when each live id fires.
#[derive(Default)]
struct QueueModel {
    order: BTreeSet<(SimTime, u64)>,
    live: BTreeMap<u64, SimTime>,
    issued: u64,
}

impl QueueModel {
    fn schedule(&mut self, at: SimTime) -> u64 {
        let id = self.issued;
        self.issued += 1;
        self.order.insert((at, id));
        self.live.insert(id, at);
        id
    }
    fn cancel(&mut self, id: u64) -> bool {
        self.live
            .remove(&id)
            .is_some_and(|at| self.order.remove(&(at, id)))
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let (at, id) = self.order.pop_first()?;
        self.live.remove(&id);
        Some((at, id))
    }
    fn peek_time(&self) -> Option<SimTime> {
        self.order.first().map(|&(at, _)| at)
    }
}

props! {
    /// Every operation of the queue returns what the model returns, at
    /// every step of a random interleaving. Five shapes of case: a small
    /// mixed one; one whose cancel bursts cross the compaction threshold
    /// (tombstones > 64 and > half the stored entries); one where a
    /// far-future event issued first pins the id window while thousands of
    /// later ids fire and cancel behind it; one whose times spread over
    /// 2^40 µs past the clock, so keys differ in high bits; and one that
    /// peeks, then schedules between the last pop and the peeked head —
    /// and now and then before the last pop.
    fn event_queue_matches_an_ordered_map_model(rng, cases = 96) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model = QueueModel::default();
        let shape = rng.below(5);
        let ops = [200, 1_500, 4_000, 1_500, 1_500][shape];
        let spread = if shape == 3 { 1 << 40 } else { 50 };
        if shape == 2 {
            let pin = SimTime::from_micros(1 << 40);
            assert_eq!(q.schedule(pin, 0).0, model.schedule(pin));
        }
        let mut clock = 0u64;
        for _ in 0..ops {
            // Times run ahead of a moving clock, as a simulation's do.
            let when = |rng: &mut SimRng| SimTime::from_micros(clock + rng.below(spread) as u64);
            if shape == 4 && rng.chance(0.3) {
                // Ahead of the peeked head, as the sharded driver schedules.
                let head = q.peek_time().map_or(clock + 50, SimTime::as_micros);
                let at = if clock > 0 && rng.chance(0.1) {
                    clock - 1 - rng.below(clock.min(50) as usize) as u64
                } else {
                    clock + rng.below(head.saturating_sub(clock) as usize + 1) as u64
                };
                let at = SimTime::from_micros(at);
                assert_eq!(q.schedule(at, model.issued).0, model.schedule(at));
            }
            match rng.below(if shape == 1 { 11 } else { 10 }) {
                0..=2 => {
                    let at = when(rng);
                    let id = q.schedule(at, model.issued);
                    assert_eq!(id.0, model.schedule(at));
                }
                3 => {
                    let ats: Vec<SimTime> = (0..rng.below([40, 400, 40, 40, 40][shape])).map(|_| when(rng)).collect();
                    let (first, count) =
                        q.schedule_batch(ats.iter().map(|&at| (at, model.issued)));
                    assert_eq!((first.0, count), (model.issued, ats.len()));
                    for at in ats {
                        model.schedule(at);
                    }
                }
                4..=6 => {
                    let got = q.pop().map(|e| (e.at, e.id.0));
                    assert_eq!(got, model.pop(), "pop diverged");
                    if let Some((at, id)) = got {
                        clock = at.as_micros();
                        assert!(!q.cancel(EventId(id)), "cancel of the id just fired");
                    }
                }
                7 => {
                    // A live id if there is one — then the same id again.
                    let span = model.issued.saturating_sub(rng.below(64) as u64);
                    if let Some((&id, _)) = model.live.range(span..).next() {
                        assert!(q.cancel(EventId(id)) && model.cancel(id));
                        assert!(!q.cancel(EventId(id)), "second cancel of {id}");
                    }
                }
                8 => {
                    // Any id ever issued: live, fired or cancelled.
                    let id = rng.below(model.issued as usize + 1) as u64;
                    assert_eq!(q.cancel(EventId(id)), model.cancel(id), "cancel of {id}");
                }
                9 => {
                    let never = model.issued + rng.below(1_000) as u64;
                    assert!(!q.cancel(EventId(never)), "cancel of unissued {never}");
                    assert!(!q.cancel(EventId(u64::MAX - rng.below(3) as u64)));
                }
                _ => {
                    // A crash-style burst: cancel most of what is pending.
                    let victims: Vec<u64> =
                        model.live.keys().copied().filter(|_| rng.chance(0.8)).collect();
                    for id in victims {
                        assert_eq!(q.cancel(EventId(id)), model.cancel(id));
                    }
                }
            }
            assert_eq!(q.len(), model.order.len(), "live count drifted");
            assert_eq!(q.peek_time(), model.peek_time(), "peek diverged");
            assert_eq!(q.is_empty(), model.order.is_empty());
        }
        while let Some(ev) = q.pop() {
            assert_eq!(Some((ev.at, ev.id.0)), model.pop(), "drain diverged");
        }
        assert_eq!(model.pop(), None, "the queue lost an event");
        assert_eq!((q.len(), q.is_empty()), (0, true));
    }

    /// The event queue is a stable priority queue: pops come out sorted by
    /// time, and equal times preserve insertion order.
    fn event_queue_pops_sorted_and_stable(rng) {
        let len = 1 + rng.below(199);
        let times: Vec<u64> = (0..len).map(|_| rng.below(1000) as u64).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut popped = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push((ev.at.as_micros(), ev.payload));
        }
        assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "times out of order");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO violated at equal times");
            }
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    fn cancellation_removes_exactly_the_cancelled(rng) {
        let len = 1 + rng.below(99);
        let times: Vec<u64> = (0..len).map(|_| rng.below(100) as u64).collect();
        let cancel_mask: Vec<bool> = (0..len).map(|_| rng.chance(0.5)).collect();
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_micros(t), i))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i] {
                q.cancel(*id);
            } else {
                expected.push(i);
            }
        }
        let mut popped: Vec<usize> = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push(ev.payload);
        }
        popped.sort_unstable();
        expected.sort_unstable();
        assert_eq!(popped, expected);
    }

    /// Summary invariants: min ≤ median ≤ max, min ≤ mean ≤ max, σ ≥ 0, and
    /// the count matches after NaN filtering.
    fn summary_invariants(rng) {
        let values = vec_of(rng, 0, 300, |r| r.uniform_range(-1e6, 1e6));
        let s = Summary::of(&values);
        assert_eq!(s.n, values.len());
        if s.n > 0 {
            assert!(s.min <= s.median + 1e-9);
            assert!(s.median <= s.max + 1e-9);
            assert!(s.min <= s.mean + 1e-9);
            assert!(s.mean <= s.max + 1e-9);
            assert!(s.std_dev >= 0.0);
        }
    }

    /// Forked RNG streams with different labels are uncorrelated (no equal
    /// first draws across a sample of labels), and same labels identical.
    fn rng_fork_label_independence(rng) {
        let seed = rng.next_u64();
        let a = rng.below(5000) as u64;
        let b = rng.below(5000) as u64;
        prop_assume!(a != b);
        let root = SimRng::from_seed(seed);
        let mut fa = root.fork_idx("stream", a);
        let mut fb = root.fork_idx("stream", b);
        let mut fa2 = root.fork_idx("stream", a);
        let xa: Vec<f64> = (0..4).map(|_| fa.uniform()).collect();
        let xb: Vec<f64> = (0..4).map(|_| fb.uniform()).collect();
        let xa2: Vec<f64> = (0..4).map(|_| fa2.uniform()).collect();
        assert_eq!(&xa, &xa2, "same label must replay");
        assert_ne!(&xa, &xb, "different labels must diverge");
    }

    /// `fork` on a string label and `fork_idx` with an index are distinct
    /// derivations: an index stream never collides with its own textual
    /// spelling (the hash covers raw index bytes, not decimal digits).
    fn fork_idx_diverges_from_textual_label(rng) {
        let seed = rng.next_u64();
        let idx = rng.below(100) as u64;
        let root = SimRng::from_seed(seed);
        let mut by_idx = root.fork_idx("s", idx);
        let mut by_text = root.fork(&format!("s/{idx}"));
        let a: Vec<u64> = (0..4).map(|_| by_idx.next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|_| by_text.next_u64()).collect();
        assert_ne!(a, b, "index and text derivations must be independent");
    }

    /// Duration arithmetic: saturating and order-preserving.
    fn duration_arithmetic_props(rng) {
        let a = rng.next_u64() % (u64::MAX / 4);
        let b = rng.next_u64() % (u64::MAX / 4);
        let da = SimDuration::from_micros(a);
        let db = SimDuration::from_micros(b);
        assert_eq!((da + db).as_micros(), a + b);
        assert_eq!((da - db).as_micros(), a.saturating_sub(b));
        let t = SimTime::from_micros(a);
        assert_eq!((t + db) - t, db);
    }

    /// JSON serialization of sim types is self-inverse.
    fn sim_types_round_trip_json(rng) {
        let t = SimTime::from_micros(rng.next_u64());
        let d = SimDuration::from_micros(rng.next_u64());
        let t2: SimTime =
            impress_json::from_str(&impress_json::to_string(&t)).expect("SimTime");
        let d2: SimDuration =
            impress_json::from_str(&impress_json::to_string(&d)).expect("SimDuration");
        assert_eq!(t, t2);
        assert_eq!(d, d2);
        let s = Summary::of(&vec_of(rng, 1, 40, |r| r.uniform_range(-10.0, 10.0)));
        let s2: Summary = impress_json::from_str(&impress_json::to_string(&s)).expect("Summary");
        assert_eq!(s, s2);
    }
}
