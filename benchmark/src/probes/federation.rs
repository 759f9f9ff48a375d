//! `federation`: one fan-out across every registered site, merged into a
//! `FederatedSnapshot` (a single site on the portal workloads).

use crate::site::Site;
use crate::spans::Spans;

pub fn run(site: &Site, spans: &mut Spans) {
    let ctx = site.ctx();
    spans.time_ops("federation.snapshot_merge", 200, || {
        std::hint::black_box(ctx.federation.snapshot(&ctx.breakers));
    });
}
