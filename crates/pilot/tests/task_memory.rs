//! Memory pins for what a task costs while it waits, and what naming it
//! costs.
//!
//! 1. **A queued task holds at most 100 heap bytes**: 65,536 tasks named
//!    `"t"`, submitted to the sharded engine before its bootstrap, are all
//!    still queued, and the live heap they add is at most 100 bytes per
//!    task — a 56-byte record, a scheduler queue entry and its class slot,
//!    and a share of the one descriptor they all use.
//! 2. **Naming a task allocates nothing**: describing a task whose name and
//!    tag fit a `Label` inline allocates nothing, and cloning a label too
//!    long for that allocates nothing either.
//!
//! This is a dedicated test binary with a single `#[test]`: the probe's
//! counters are process-global, so a second concurrent test would bleed
//! allocations into the measurement.

use impress_pilot::{
    ExecutionBackend, Label, NodeSpec, PilotConfig, PlacementPolicy, ResourceRequest,
    RuntimeConfig, TaskDescription,
};
use impress_sim::alloc_probe::CountingAlloc;
use impress_sim::SimDuration;
use impress_telemetry::LABEL_INLINE;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const TASKS: u64 = 65_536;

#[test]
fn a_queued_task_holds_at_most_100_heap_bytes_and_naming_one_allocates_nothing() {
    // --- The probe: growing, shrinking and freeing balance out -----------
    let before = ALLOC.live_bytes();
    let mut bytes: Vec<u8> = Vec::with_capacity(8);
    bytes.extend_from_slice(&[7; 100]);
    assert_eq!(ALLOC.live_bytes(), before + bytes.capacity() as u64);
    bytes.truncate(10);
    bytes.shrink_to_fit();
    assert_eq!(ALLOC.live_bytes(), before + 10);
    drop(bytes);
    assert_eq!(ALLOC.live_bytes(), before);

    // --- Pin 1: every task still queued ----------------------------------
    let pilot = PilotConfig {
        node: NodeSpec::new(64, 0, 256),
        nodes: 16,
        policy: PlacementPolicy::Backfill,
        bootstrap: SimDuration::from_secs(60),
        exec_setup_per_task: SimDuration::ZERO,
        seed: 0,
    };
    let mut backend = RuntimeConfig::new(pilot).sharded();
    let before = ALLOC.live_bytes();
    for _ in 0..TASKS {
        let run = SimDuration::from_secs(600);
        backend.submit(TaskDescription::new("t", ResourceRequest::cores(1), run));
    }
    let per_task = (ALLOC.live_bytes() - before) / TASKS;
    assert_eq!(backend.in_flight() as u64, TASKS, "nothing has run");
    assert!(
        per_task <= 100,
        "a queued task holds {per_task} heap bytes, more than 100"
    );
    drop(backend);

    // --- Pin 2: names and tags ------------------------------------------
    let name = "a-task-name-of-22-byte";
    let tag = "pipeline.0001/stage.04";
    assert_eq!((name.len(), tag.len()), (LABEL_INLINE, LABEL_INLINE));
    let (allocs, desc) = ALLOC.measure(|| {
        TaskDescription::new(name, ResourceRequest::cores(1), SimDuration::from_secs(1))
            .with_tag(tag)
    });
    assert_eq!(allocs, 0, "an inline name and tag allocate nothing");
    assert_eq!(desc.name, name);
    assert_eq!(desc.tag, tag);

    let long = Label::from("a-pipeline-name-of-forty-bytes-for-a-tag");
    assert_eq!(long.len(), 40);
    let (allocs, copy) = ALLOC.measure(|| long.clone());
    assert_eq!(allocs, 0, "cloning a long label shares its text");
    assert_eq!(copy, long);
}
