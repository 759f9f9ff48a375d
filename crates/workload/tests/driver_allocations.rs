//! A driver costs the traffic it plays, not the window it covers: arrivals
//! are drawn when the clock reaches them, so building a driver for ten
//! simulated days allocates what building one for an hour does.
//!
//! Alone in its file because it installs a counting global allocator; the
//! count is kept per thread, so the harness's own threads do not disturb it.

use hpcdash_workload::{Scenario, ScenarioConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a counter in a
// const-initialized thread-local `Cell<u64>`, which allocates nothing and
// has no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counted<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_ten_day_driver_allocates_what_a_one_hour_driver_does() {
    let site = Scenario::build(ScenarioConfig {
        free_daemons: true,
        ..ScenarioConfig::campus()
    });
    let (_hour, one_hour) = counted(|| site.driver(3_600));
    let (_days, ten_days) = counted(|| site.driver(10 * 86_400));
    // The campus site draws about 2 600 arrivals a day: pre-building ten
    // days of them made hundreds of thousands of allocations.
    assert!(
        ten_days <= one_hour + 8,
        "driver(10 days) made {ten_days} allocations, driver(1 hour) {one_hour}"
    );
}
