//! Counting global allocator.
//!
//! Counting is off by default, so an untraced run pays one relaxed load
//! per allocation. When [`set_counting`] turns it on, every `alloc` and
//! `realloc` bumps a per-thread counter; spans read the counter on entry
//! and exit, so a span's allocation count is exact for the thread that
//! ran it and does not contend across threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// The allocator installed as the binary's `#[global_allocator]`.
pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` unchanged; the bookkeeping
// touches only a const-initialised thread-local `Cell<u64>`, which has
// no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// Turn allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations this thread has made while counting was on.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}
