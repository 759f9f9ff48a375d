//! One probe per layer, one file per probe: each calls its layer's public
//! entry points the way a cache miss would, with that route's own
//! arguments, under a `probe` root span. When a seam changes, one file is
//! retired or retargeted; the runner, schedule and client stay as they are.

pub mod federation;
pub mod json;
pub mod obs;
pub mod restapi;
pub mod slurm;
pub mod slurmcli;
pub mod telemetry;

use crate::site::{Site, TICK_SECS};
use crate::spans::Spans;

type Probe = fn(&Site, &mut Spans);

const PROBES: [Probe; 7] = [
    slurmcli::run,
    slurm::run,
    restapi::run,
    federation::run,
    telemetry::run,
    obs::run,
    json::run,
];

/// Scheduler ticks timed after the probes (they change the cluster).
const TICKS: usize = 5;

pub fn run_all(site: &mut Site, spans: &mut Spans) {
    let root = spans.enter("probe");
    for probe in PROBES {
        probe(site, spans);
    }
    // `slurm.tick_ms`: what one `advance(30)` costs the main thread between
    // rounds of the ticking workloads (all four sites on `rest_fed`).
    for _ in 0..TICKS {
        spans.time("slurm.tick", || site.advance(TICK_SECS));
    }
    spans.exit(root);
}
