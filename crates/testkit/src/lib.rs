//! Test-only helpers shared by the workspace's test binaries.
//!
//! [`CountingAlloc`] is the repository's one counting global allocator. A
//! test binary that asserts on allocations installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: hpcdash_testkit::CountingAlloc = hpcdash_testkit::CountingAlloc;
//! ```
//!
//! and then reads two counters:
//!
//! * [`counted`] / [`allocations`]: allocations (and reallocations) made on
//!   the calling thread, so the test harness's other threads cannot disturb
//!   a count;
//! * [`live_bytes`]: bytes currently allocated by the whole process, for
//!   tests that check what a teardown gives back. Only a binary running one
//!   test at a time can read it meaningfully.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

/// Forwards to [`System`], counting each allocation on the calling thread
/// and the bytes live in the process.
pub struct CountingAlloc;

fn note_allocation() {
    // `try_with`: an allocation made while this thread's locals are being
    // destroyed goes uncounted instead of panicking.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn note_bytes(delta: isize) {
    LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract. The additions are a const-initialized thread-local
// `Cell<u64>`, which allocates nothing and has no destructor, and a static
// atomic; neither allocates, so no call recurses into the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            note_bytes(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            note_bytes(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note_bytes(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            note_bytes(new_size as isize - layout.size() as isize);
        }
        moved
    }
}

/// Allocations made so far on the calling thread.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Run `work` and return its result with the allocations it made on the
/// calling thread.
pub fn counted<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let out = work();
    (out, allocations() - before)
}

/// Bytes allocated through [`CountingAlloc`] and not yet freed, process-wide.
pub fn live_bytes() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}
