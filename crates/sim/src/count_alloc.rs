//! Counting global allocator for the zero-allocation gate tests.
//!
//! EMERALDS' hot paths are constant-time and allocation-free by
//! design; the host interpreter should be too once warmed up. This
//! wrapper over the system allocator counts every allocation so a
//! test can assert that a steady-state window performs **zero** of
//! them — a much stronger claim than "fast".
//!
//! Only compiled with the `alloc-count` feature, and only *installed*
//! by the test binaries that opt in:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: emeralds_sim::CountingAlloc = emeralds_sim::CountingAlloc;
//! ```
//!
//! Process counters are relaxed atomics. The gate tests read the
//! per-thread count instead ([`thread_alloc_count`]): each window they
//! measure runs on the test's own thread, and the test harness runs
//! the gate tests concurrently, so another test's set-up would
//! otherwise land in the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and free of `Drop`, so touching it from inside
    // the allocator never allocates and never meets a destroyed slot.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// A [`System`]-backed allocator that counts allocations.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the only
// addition is relaxed counter traffic and a const thread-local counter
// that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth that moves is an allocation for gate purposes: the
        // hot loop must not trigger it either.
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
}

/// Heap allocations since process start (0 if the allocator is not
/// installed as `#[global_allocator]`).
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Heap allocations made by the calling thread since it started.
pub fn thread_alloc_count() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Heap deallocations since process start.
pub fn dealloc_count() -> u64 {
    DEALLOCS.load(Ordering::Relaxed)
}

/// Total bytes requested across all allocations.
pub fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}
