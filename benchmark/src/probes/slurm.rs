//! `slurm`: loading the epoch-published cluster snapshot, the read every
//! structured route and every render-cache admission starts with.

use crate::site::Site;
use crate::spans::Spans;

pub fn run(site: &Site, spans: &mut Spans) {
    let ctld = &site.portal().ctld;
    spans.time_ops("slurm.snapshot_load", 10_000, || {
        std::hint::black_box(ctld.snapshot());
    });
}
