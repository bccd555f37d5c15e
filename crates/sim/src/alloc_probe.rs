//! A heap-allocation probe for zero-alloc regression tests.
//!
//! Perf claims like "zero heap allocations per journal record once the
//! buffers are warm" rot silently: one innocent `format!` on the hot path
//! and the claim is false with no test noticing. This module provides a
//! counting [`std::alloc::GlobalAlloc`] wrapper around the system
//! allocator. A crate installs it for its unit tests in `lib.rs`, and a
//! test beside the code it bounds *pins* an allocation count:
//!
//! ```ignore
//! // lib.rs
//! #[cfg(test)]
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//!
//! // a test in the module under measurement
//! let (allocs, _) = crate::ALLOC.measure(|| hot_path());
//! assert_eq!(allocs, 0);
//! ```
//!
//! It also keeps the bytes currently live, for pins on what a structure
//! holds rather than on what a path acquires: [`live_bytes`] before and
//! after building it.
//!
//! [`live_bytes`]: CountingAlloc::live_bytes
//!
//! Counts are per thread: every method reads the calling thread's, so
//! tests that libtest runs on parallel threads do not see each other's
//! allocations, and a measured path must not hand its work to another
//! thread. It lives here (not under `#[cfg(test)]`) because the crates
//! that install it are downstream, and the `perf` ledger installs it too.

// The one place in the workspace that needs `unsafe`: implementing
// `GlobalAlloc` requires it by signature. Every method is a trivial
// forward to `System` plus thread-local counter updates.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialised and without `Drop`: reading or bumping them
    // never allocates, registers no destructor (so the allocator cannot
    // recurse into itself) and stays valid while the thread is torn down.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
}

fn count(grown: u64) {
    ALLOCS.set(ALLOCS.get() + 1);
    LIVE.set(LIVE.get().wrapping_add(grown));
}

/// A [`System`]-forwarding allocator that counts, per thread, every
/// allocation and the bytes live.
///
/// Install as the `#[global_allocator]` of a crate's unit tests, then wrap
/// the code under measurement in [`measure`](Self::measure).
#[derive(Default)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// The probe. `const` so it can initialize a `static`.
    pub const fn new() -> Self {
        CountingAlloc
    }

    /// Heap allocations this thread has made so far (allocations and
    /// reallocations; frees are not counted — a zero-alloc pin is about
    /// acquiring memory, not returning it).
    pub fn allocations(&self) -> u64 {
        ALLOCS.get()
    }

    /// Heap bytes this thread has allocated less those it has freed, as
    /// requested of the allocator (its own rounding and headers are not
    /// counted). Wrapping: a thread that frees what another allocated
    /// can read below its start.
    pub fn live_bytes(&self) -> u64 {
        LIVE.get()
    }

    /// Run `f`, returning how many heap allocations it performed on this
    /// thread along with its result.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (u64, R) {
        let before = self.allocations();
        let out = f();
        (self.allocations() - before, out)
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc acquires memory (even in place it *may* move), so it
        // counts against a zero-alloc pin: a hot path that grows a buffer
        // per record is not zero-alloc. Wrapping: a shrink adds the two's
        // complement of what it frees.
        count((new_size as u64).wrapping_sub(layout.size() as u64));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.set(LIVE.get().wrapping_sub(layout.size() as u64));
        System.dealloc(ptr, layout)
    }
}

#[cfg(test)]
mod tests {
    use crate::ALLOC;
    use std::sync::Barrier;

    #[test]
    fn another_threads_allocations_are_not_counted() {
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                barrier.wait();
                let held = std::hint::black_box(vec![0u8; 4_096]);
                barrier.wait();
                drop(held);
            });
            let (allocs, live) = (ALLOC.allocations(), ALLOC.live_bytes());
            barrier.wait(); // the other thread allocates ...
            barrier.wait(); // ... and still holds it
            assert_eq!((ALLOC.allocations(), ALLOC.live_bytes()), (allocs, live));
        });
    }

    #[test]
    fn live_bytes_balance_through_grow_shrink_and_free() {
        let before = ALLOC.live_bytes();
        let mut bytes: Vec<u8> = Vec::with_capacity(8);
        bytes.extend_from_slice(&[7; 100]);
        assert_eq!(ALLOC.live_bytes(), before + bytes.capacity() as u64);
        bytes.truncate(10);
        bytes.shrink_to_fit();
        assert_eq!(ALLOC.live_bytes(), before + 10);
        drop(bytes);
        assert_eq!(ALLOC.live_bytes(), before);
    }

    #[test]
    fn a_growing_realloc_is_one_allocation_and_measure_returns_the_result() {
        let mut bytes: Vec<u8> = Vec::with_capacity(8);
        let (allocs, len) = ALLOC.measure(|| {
            bytes.reserve_exact(64);
            bytes.len()
        });
        assert_eq!((allocs, len), (1, 0));
        assert!(bytes.capacity() >= 64);
    }
}
