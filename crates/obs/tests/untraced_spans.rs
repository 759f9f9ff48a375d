//! A span or note outside a trace costs nothing: it allocates nothing and
//! nothing reaches the trace store. This is its own test binary because it
//! installs a counting global allocator.

use hpcdash_obs::trace::TraceScope;
use hpcdash_obs::tracestore::{self, store};
use hpcdash_obs::{Span, TraceId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Counts the allocations made on the calling thread, so threads of other
/// tests in this binary cannot disturb a count.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// What the HTTP layer does per request: the wire-level and route spans,
/// each with an attribute, and the two notes tail retention reads.
fn dispatch(path: &str, pattern: &str, status: u16) {
    let _http = Span::enter("http").attr("path", path);
    let _route = Span::enter("route").attr("route", pattern);
    tracestore::annotate("route", pattern);
    tracestore::annotate("status", status);
}

#[test]
fn untraced_dispatch_allocates_nothing_and_stores_nothing() {
    let path = black_box(String::from("/api/recent_jobs"));
    let pattern = black_box(String::from("/api/recent_jobs"));
    let before = store().stats();
    let start = allocs();
    for _ in 0..100 {
        dispatch(&path, &pattern, black_box(200));
    }
    assert_eq!(allocs() - start, 0, "untraced spans and notes allocate");
    assert_eq!(store().stats(), before, "untraced work reached the store");

    // The same sequence inside a trace does allocate and is stored, so the
    // zero above is the untraced path's, not a counter that never moves.
    let id = TraceId::generate();
    let start = allocs();
    {
        let _scope = TraceScope::enter(id);
        dispatch(&path, &pattern, 200);
    }
    assert!(allocs() > start, "traced dispatch records its spans");
    let trace = store().get(id).expect("traced dispatch stored");
    let hops: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
    assert_eq!(hops, ["http", "route"]);
    assert_eq!(trace.note("status"), Some("200"));
    assert_eq!(trace.route.as_deref(), Some("/api/recent_jobs"));
}
