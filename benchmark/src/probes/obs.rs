//! `obs`: the fixed observability tax of a request — entering and closing
//! a span, and a counter looked up by name and labels then incremented.

use crate::site::Site;
use crate::spans::Spans;
use hpcdash_obs::Span;

pub fn run(site: &Site, spans: &mut Spans) {
    spans.time_ops("obs.span", 10_000, || {
        drop(Span::enter("benchmark-probe"));
    });
    let registry = &site.ctx().obs;
    spans.time_ops("obs.counter_lookup_inc", 10_000, || {
        registry
            .counter("hpcdash_benchmark_probe_total", &[("route", "/api/probe")])
            .inc();
    });
}
