//! Zero-allocation pins for the workflow fast path.
//!
//! Three perf claims the journal rests on, pinned so they cannot rot
//! silently:
//!
//! 1. **`ToJsonBuf` serialization is zero-alloc**: writing a record's
//!    compact JSON into a warm buffer performs no heap allocation, for
//!    any record shape (strings, vectors, floats included).
//! 2. **The steady-state `Journal::record` path is zero-alloc**: once
//!    the frame buffer and scratch are warm, buffering a record (frame +
//!    CRC + replay-plan maintenance) allocates nothing. Measured on
//!    records that own no heap data (`StageCompleted`, `TaskPoisoned`)
//!    so the window isolates the journal's own path from the caller's
//!    record construction; durability I/O (`commit`) sits outside the
//!    window — the group commit pays it once per cycle, not per record.
//! 3. **Loading a frame is zero-alloc**: `load_plan` decodes a frame
//!    straight into its typed record and checksums the stored bytes, so a
//!    journal that is longer by records owning no heap data costs the
//!    loader not one allocation more.
//!
//! This is a dedicated test binary with a single `#[test]`: the probe's
//! counters are process-global, so a second concurrent test would bleed
//! allocations into the measurement.

use impress_pilot::{ResourceRequest, TaskKind};
use impress_sim::alloc_probe::CountingAlloc;
use impress_sim::SimDuration;
use impress_workflow::journal::{load_plan, Journal, JournalRecord, MemoryJournal, TaskMeta};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn meta(name: &str) -> TaskMeta {
    TaskMeta {
        name: name.into(),
        request: ResourceRequest::cores(2),
        duration: SimDuration::from_secs(300),
        gpu_busy_fraction: 0.25,
        priority: 1,
        kind: TaskKind::Ml,
        walltime: Some(SimDuration::from_secs(3600)),
    }
}

#[test]
fn warm_serialization_and_journal_record_paths_allocate_nothing() {
    // --- Pin 1: ToJsonBuf into a warm buffer -------------------------
    let rec = JournalRecord::StageSubmitted {
        pipeline: 3,
        stage: 2,
        tasks: vec![meta("fold-\"x\"-msa"), meta("md-equilibrate")],
    };
    let mut buf = String::new();
    impress_json::write_json(&mut buf, &rec); // warm the capacity
    let expected = buf.clone();
    buf.clear();
    let (allocs, ()) = ALLOC.measure(|| impress_json::write_json(&mut buf, &rec));
    assert_eq!(
        allocs, 0,
        "ToJsonBuf must not allocate into a warm buffer"
    );
    assert_eq!(buf, expected, "warm pass must produce identical bytes");

    // --- Pin 2: steady-state Journal::record -------------------------
    let store = MemoryJournal::new();
    let mut journal = Journal::new(Box::new(store.clone()), "zero-alloc", 7).unwrap();
    journal
        .record(JournalRecord::Registered {
            pipeline: 0,
            parent: None,
            name: "probe".into(),
        })
        .unwrap();
    // Submit well past what the measured window completes, so the replay
    // plan's stage vector has settled capacity and every completion in
    // the window is in order.
    const WINDOW: u64 = 16;
    for stage in 0..(3 * WINDOW as usize) {
        journal
            .record(JournalRecord::StageSubmitted {
                pipeline: 0,
                stage,
                tasks: vec![meta("warm")],
            })
            .unwrap();
    }
    for stage in 0..WINDOW as usize {
        journal
            .record(JournalRecord::StageCompleted { pipeline: 0, stage })
            .unwrap();
    }
    // Commit clears the frame buffer but keeps its (now warm) capacity.
    journal.commit().unwrap();
    assert_eq!(journal.pending_records(), 0);
    // Pin 3's baseline: what loading the journal costs before the window's
    // records are in it.
    let (load_before, loaded) = ALLOC.measure(|| load_plan(&store).unwrap());
    let records_before = loaded.records;
    drop(loaded);

    let (allocs, ()) = ALLOC.measure(|| {
        for i in 0..WINDOW {
            journal
                .record(JournalRecord::StageCompleted {
                    pipeline: 0,
                    stage: WINDOW as usize + i as usize,
                })
                .unwrap();
            journal
                .record(JournalRecord::TaskPoisoned {
                    pipeline: 0,
                    task: 1000 + i,
                    distinct_nodes: 2,
                })
                .unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state Journal::record must not allocate ({} records buffered)",
        2 * WINDOW
    );
    assert_eq!(journal.pending_records(), 2 * WINDOW as usize);
    journal.commit().unwrap();

    // --- Pin 3: load_plan per StageCompleted / TaskPoisoned frame -----
    let (load_after, loaded) = ALLOC.measure(|| load_plan(&store).unwrap());
    assert_eq!(loaded.records, records_before + 2 * WINDOW as usize);
    assert_eq!(loaded.dropped, 0);
    assert_eq!(loaded.plan, *journal.plan());
    assert_eq!(
        load_after, load_before,
        "{} more frames must not cost the loader an allocation",
        2 * WINDOW
    );
}
