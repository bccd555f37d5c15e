//! A heap-allocation probe for zero-alloc regression tests.
//!
//! Perf claims like "zero heap allocations per journal record once the
//! buffers are warm" rot silently: one innocent `format!` on the hot path
//! and the claim is false with no test noticing. This module provides a
//! counting [`std::alloc::GlobalAlloc`] wrapper around the system
//! allocator, so a dedicated integration test binary can install it with
//! `#[global_allocator]` and *pin* an allocation count:
//!
//! ```ignore
//! use impress_sim::alloc_probe::CountingAlloc;
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//!
//! let (allocs, _) = ALLOC.measure(|| hot_path());
//! assert_eq!(allocs, 0);
//! ```
//!
//! It also keeps the bytes currently live, for pins on what a structure
//! holds rather than on what a path acquires: [`live_bytes`] before and
//! after building it.
//!
//! [`live_bytes`]: CountingAlloc::live_bytes
//!
//! The probe belongs in its own test *binary* (one `#[test]`): the
//! counters are process-global, so concurrent tests in the same binary
//! would bleed allocations into each other's measurements. It lives here
//! (not under `#[cfg(test)]`) because the binaries that consume it are in
//! downstream crates.

// The one place in the workspace that needs `unsafe`: implementing
// `GlobalAlloc` requires it by signature. Every method is a trivial
// forward to `System` plus relaxed counter updates.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`System`]-forwarding allocator that counts every allocation and
/// the bytes live.
///
/// Install as the `#[global_allocator]` of a test binary, then wrap the
/// code under measurement in [`measure`](Self::measure).
pub struct CountingAlloc {
    allocs: AtomicU64,
    live: AtomicU64,
}

impl CountingAlloc {
    /// A fresh probe (counter at zero). `const` so it can initialize a
    /// `static`.
    pub const fn new() -> Self {
        CountingAlloc {
            allocs: AtomicU64::new(0),
            live: AtomicU64::new(0),
        }
    }

    /// Heap allocations observed so far (allocations and growing
    /// reallocations; frees are not counted — a zero-alloc pin is about
    /// acquiring memory, not returning it).
    pub fn allocations(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Heap bytes currently allocated and not yet freed, as requested of
    /// the allocator (its own rounding and headers are not counted).
    pub fn live_bytes(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Run `f`, returning how many heap allocations it performed along
    /// with its result. Single-threaded measurement discipline is the
    /// caller's job (one `#[test]` per probe binary).
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (u64, R) {
        let before = self.allocations();
        let out = f();
        (self.allocations() - before, out)
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.live.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.live.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc acquires memory (even in place it *may* move), so it
        // counts against a zero-alloc pin: a hot path that grows a buffer
        // per record is not zero-alloc.
        self.allocs.fetch_add(1, Ordering::Relaxed);
        // Wrapping: a shrink adds the two's complement of what it frees.
        let grown = (new_size as u64).wrapping_sub(layout.size() as u64);
        self.live.fetch_add(grown, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}
