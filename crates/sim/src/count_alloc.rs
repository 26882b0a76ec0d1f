//! Counting global allocator for the zero-allocation and byte-ceiling
//! gate tests.
//!
//! EMERALDS' hot paths are constant-time and allocation-free by
//! design; the host interpreter should be too once warmed up. This
//! wrapper over the system allocator counts every allocation so a
//! test can assert that a steady-state window performs **zero** of
//! them — a much stronger claim than "fast". It also keeps the live
//! heap bytes, so a test can hold a board's heap to a ceiling.
//!
//! Only compiled with the `alloc-count` feature, and only *installed*
//! by the test binaries that opt in:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: emeralds_sim::CountingAlloc = emeralds_sim::CountingAlloc;
//! ```
//!
//! Both totals are per thread ([`thread_alloc_count`],
//! [`thread_live_bytes`]): each window a gate test measures runs on
//! the test's own thread, and the test harness runs the gate tests
//! concurrently, so a process-wide total would pick up another test's
//! set-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and free of `Drop`, so touching them from
    // inside the allocator never allocates and never meets a destroyed
    // slot.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation that adds `bytes` live bytes.
fn count_alloc(bytes: i64) {
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
    add_live(bytes);
}

fn add_live(bytes: i64) {
    let _ = THREAD_LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

/// A [`System`]-backed allocator that counts allocations and live
/// bytes.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the only
// additions are const thread-local counters that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth that moves is an allocation for gate purposes: the
        // hot loop must not trigger it either.
        count_alloc(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size() as i64);
        System.alloc_zeroed(layout)
    }
}

/// Heap allocations made by the calling thread since it started.
pub fn thread_alloc_count() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Bytes the calling thread allocated minus the bytes it freed, since
/// it started (a realloc counts its size change). Memory freed on
/// another thread than the one that allocated it moves both threads'
/// totals, so measure a difference across work that stays on one
/// thread.
pub fn thread_live_bytes() -> i64 {
    THREAD_LIVE_BYTES.with(Cell::get)
}
