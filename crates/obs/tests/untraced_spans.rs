//! A span or note outside a trace costs nothing: it allocates nothing and
//! nothing reaches the trace store. This is its own test binary because it
//! installs a counting global allocator.

use hpcdash_obs::trace::TraceScope;
use hpcdash_obs::tracestore::{self, store};
use hpcdash_obs::{Span, TraceId};
use hpcdash_testkit::{allocations, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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
    let start = allocations();
    for _ in 0..100 {
        dispatch(&path, &pattern, black_box(200));
    }
    assert_eq!(
        allocations() - start,
        0,
        "untraced spans and notes allocate"
    );
    assert_eq!(store().stats(), before, "untraced work reached the store");

    // The same sequence inside a trace does allocate and is stored, so the
    // zero above is the untraced path's, not a counter that never moves.
    let id = TraceId::generate();
    let start = allocations();
    {
        let _scope = TraceScope::enter(id);
        dispatch(&path, &pattern, 200);
    }
    assert!(allocations() > start, "traced dispatch records its spans");
    let trace = store().get(id).expect("traced dispatch stored");
    let hops: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
    assert_eq!(hops, ["http", "route"]);
    assert_eq!(trace.note("status"), Some("200"));
    assert_eq!(trace.route.as_deref(), Some("/api/recent_jobs"));
}
