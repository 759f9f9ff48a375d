//! `telemetry`: the range query behind a job's sparkline — the last hour
//! of CPU samples of each running job, at tick resolution.

use crate::site::{Site, TICK_SECS};
use crate::spans::Spans;
use hpcdash::slurm::job::JobState;
use hpcdash::telemetry::keys;

pub fn run(site: &Site, spans: &mut Spans) {
    let portal = site.portal();
    let end = site.ctx().now().as_secs() as i64 + 1;
    let snap = portal.ctld.snapshot();
    let running = snap
        .jobs
        .iter()
        .filter(|j| j.state == JobState::Running)
        .take(64);
    for job in running {
        let series = keys::job_cpu(job.id);
        spans.time("telemetry.query_range", || {
            std::hint::black_box(portal.telemetry.query_range(
                &series,
                end - 3_600,
                end,
                TICK_SECS as i64,
            ));
        });
    }
}
