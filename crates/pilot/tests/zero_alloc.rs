//! Allocation pins for the two structures every simulated task passes
//! through: the event queue and the scheduler queue.
//!
//! 1. **A warm `schedule` + `pop` cycle at steady depth allocates
//!    nothing**: the heap and the id-state window are at capacity, and
//!    the window's front retires as fast as its back grows.
//! 2. **A warm `enqueue` → `place_ready` → `release_owned` cycle allocates
//!    the returned `Vec` and nothing else** — on a saturated cluster with
//!    a standing request that fails every round, so the scan's
//!    failed-shape scratch is in use: slab slots, class deques, id
//!    buffers and the scratch are all reused.
//!
//! This is a dedicated test binary with a single `#[test]`: the probe's
//! counters are process-global, so a second concurrent test would bleed
//! allocations into the measurement.

use impress_pilot::{NodeSpec, PlacementPolicy, ResourceRequest, Scheduler, TaskId};
use impress_sim::alloc_probe::CountingAlloc;
use impress_sim::{EventQueue, SimDuration, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocations `f` performs. Foreign allocations (the harness's main
/// thread) only ever add to the process-wide count and `f` allocates the
/// same number every time, so the fewest over a few repeats is `f`'s own.
fn allocations_of(mut f: impl FnMut()) -> u64 {
    (0..5)
        .map(|_| ALLOC.measure(&mut f).0)
        .min()
        .expect("five repeats")
}

#[test]
fn warm_event_and_scheduler_queue_cycles_allocate_nothing_of_their_own() {
    const DEPTH: u64 = 1_024;
    const CYCLES: u64 = 20_000;

    // --- Pin 1: the event queue at steady depth -----------------------
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
    cycle(&mut queue); // warm: capacities reach their steady state
    let allocs = allocations_of(|| cycle(&mut queue));
    assert_eq!(queue.len() as u64, DEPTH);
    assert_eq!(allocs, 0, "a warm schedule + pop cycle must not allocate");

    // --- Pin 2: the scheduler queue on a saturated node ---------------
    let mut scheduler = Scheduler::new(NodeSpec::new(4, 0, 64), PlacementPolicy::Backfill);
    scheduler.enqueue(TaskId(0), ResourceRequest::cores(1));
    let held = scheduler.place_ready(); // one core gone for good
    assert_eq!(held.len(), 1);
    scheduler.enqueue(TaskId(1), ResourceRequest::cores(4)); // never fits
    let mut next = 2u64;
    let mut cycle = |scheduler: &mut Scheduler| {
        for _ in 0..CYCLES {
            scheduler.enqueue_with_priority(TaskId(next), ResourceRequest::cores(1), 0);
            next += 1;
            let mut placed = scheduler.place_ready();
            let (_, allocation) = placed.pop().expect("three cores are free");
            assert!(placed.is_empty(), "the four-core request failed again");
            scheduler.release_owned(allocation);
        }
    };
    cycle(&mut scheduler);
    let allocs = allocations_of(|| cycle(&mut scheduler));
    assert_eq!(scheduler.queue_len(), 1);
    assert_eq!(
        allocs, CYCLES,
        "a warm placement cycle allocates the returned Vec and nothing else"
    );
}
