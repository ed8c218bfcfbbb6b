//! Per-thread allocation counting for `sim.run_allocs`.
//!
//! The `perf` binary installs [`CountingAlloc`] as its global
//! allocator. The count is per thread, so the two sweep workers of
//! `fig9` do not charge each other's allocations to their cells.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown go uncounted
    // rather than touching a destroyed slot.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting allocations and reallocations made
/// by each thread.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the only
// addition is a thread-local counter, which neither allocates nor
// touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations this thread has made so far (0 when [`CountingAlloc`]
/// is not the global allocator).
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}
