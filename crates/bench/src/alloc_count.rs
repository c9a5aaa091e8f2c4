//! Per-thread heap-allocation counting for the benches.
//!
//! The `span_access` section of `bench-hotpaths` pins the guard-span
//! access path at **zero** steady-state heap allocations; that needs an
//! exact counter, not a pool proxy. The counter is per-thread, so a
//! measurement taken inside an application closure sees the run it is
//! part of and nothing else: on the simulator that is every processor
//! of the run (they share the run's carrier thread — the benches count
//! inside single-processor runs), on the threads backend the one
//! processor.
//!
//! The wrapper defers entirely to [`System`] and bumps a `Cell<u64>` in
//! TLS — a few nanoseconds per allocation, negligible against the
//! allocations the benches time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// This thread's allocation count (`Cell<u64>` has no destructor,
    /// so the slot is safe to touch from the allocator at any point in
    /// a thread's life).
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// System-allocator wrapper counting allocations per thread.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a per-thread
// `Cell` bump with no allocation or unwinding of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The calling thread's allocation count so far.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations() {
        let before = thread_allocs();
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(&v);
        assert!(thread_allocs() > before, "allocation not counted");
    }
}
