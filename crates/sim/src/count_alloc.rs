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
//! The count is per thread ([`thread_alloc_count`]): each window a
//! gate test measures runs on the test's own thread, and the test
//! harness runs the gate tests concurrently, so a process-wide count
//! would pick up another test's set-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and free of `Drop`, so touching it from inside
    // the allocator never allocates and never meets a destroyed slot.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// A [`System`]-backed allocator that counts allocations.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the only
// addition is a const thread-local counter that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth that moves is an allocation for gate purposes: the
        // hot loop must not trigger it either.
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }
}

/// Heap allocations made by the calling thread since it started.
pub fn thread_alloc_count() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}
