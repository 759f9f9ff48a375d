//! The simulation driver: advances the clock, feeds submissions from the
//! trace, and ticks the scheduler — the "world" around the dashboard.
//!
//! Arrivals are drawn when the clock reaches them: the driver holds the
//! trace generator's iterator and one drawn-but-not-yet-due arrival, never
//! the window's requests.

use crate::jobs::Arrivals;
use crate::population::Population;
use hpcdash_simtime::{Clock, SimClock, Timestamp};
use hpcdash_slurm::ctld::Slurmctld;
use hpcdash_slurm::job::JobId;
use hpcdash_telemetry::TelemetryD;
use std::iter::Peekable;
use std::sync::Arc;

/// Drives a scenario forward in fixed scheduler-tick steps.
pub struct SimDriver {
    clock: SimClock,
    ctld: Arc<Slurmctld>,
    trace: Peekable<Arrivals<Arc<Population>>>,
    tick_secs: u64,
    submitted: Vec<JobId>,
    /// When set, a metrics collection pass runs after every tick — the
    /// simulated equivalent of node exporters firing on their interval.
    telemetry: Option<Arc<TelemetryD>>,
}

impl SimDriver {
    pub fn new(
        clock: SimClock,
        ctld: Arc<Slurmctld>,
        trace: Arrivals<Arc<Population>>,
        tick_secs: u64,
    ) -> SimDriver {
        SimDriver {
            clock,
            ctld,
            trace: trace.peekable(),
            tick_secs: tick_secs.max(1),
            submitted: Vec::new(),
            telemetry: None,
        }
    }

    /// Attach a telemetry daemon; it collects after every scheduler tick.
    pub fn with_telemetry(mut self, telemetry: Arc<TelemetryD>) -> SimDriver {
        self.telemetry = Some(telemetry);
        self
    }

    /// Advance simulated time by `secs`, submitting due jobs and running the
    /// scheduler every tick.
    pub fn advance(&mut self, secs: u64) {
        let target = self.clock.now().plus(secs);
        while self.clock.now() < target {
            let step = self.tick_secs.min(target.since(self.clock.now()));
            self.clock.advance(step);
            let now = self.clock.now();
            while let Some((_, req)) = self.trace.next_if(|(when, _)| *when <= now) {
                if let Ok(ids) = self.ctld.submit(req) {
                    self.submitted.extend(ids);
                }
            }
            self.ctld.tick();
            if let Some(telemetry) = &self.telemetry {
                telemetry.collect_now();
            }
        }
    }

    /// Jobs submitted so far.
    pub fn submitted(&self) -> &[JobId] {
        &self.submitted
    }

    /// Whether every arrival of the window has been submitted.
    pub fn window_exhausted(&mut self) -> bool {
        self.trace.peek().is_none()
    }

    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::{Scenario, ScenarioConfig};
    use hpcdash_simtime::{Clock, Timestamp};
    use hpcdash_slurm::dbd::JobFilter;
    use hpcdash_slurm::job::{JobState, PendingReason};

    #[test]
    fn driver_populates_cluster() {
        let s = Scenario::build(ScenarioConfig::small());
        let mut driver = s.driver(2 * 3_600);
        driver.advance(3_600);
        assert!(!driver.submitted().is_empty(), "jobs were submitted");
        let jobs = s.ctld.query_jobs(&hpcdash_slurm::ctld::JobQuery::all());
        let running = jobs.iter().filter(|j| j.state == JobState::Running).count();
        assert!(running > 0, "some jobs running after an hour");
    }

    #[test]
    fn full_window_drains_trace_and_archives_jobs() {
        let s = Scenario::build(ScenarioConfig::small());
        let mut driver = s.driver(3_600);
        driver.advance(3 * 3_600);
        assert!(driver.window_exhausted());
        assert!(
            s.dbd.archived_count() > 0,
            "finished jobs reached accounting"
        );
        // Accounting has a mix of terminal states thanks to the outcome mix.
        let recs = s.dbd.query_jobs(&hpcdash_slurm::dbd::JobFilter::default());
        let states: std::collections::HashSet<_> = recs.iter().map(|j| j.state).collect();
        assert!(states.contains(&JobState::Completed));
    }

    #[test]
    fn time_advances_in_ticks() {
        let s = Scenario::build(ScenarioConfig::small());
        let start = s.clock.now();
        let mut driver = s.driver(600);
        driver.advance(95);
        assert_eq!(driver.now().since(start), 95, "partial ticks land exactly");
    }

    /// FNV-1a over everything the scheduler decided about every job it ever
    /// saw (archived and still active), plus the publication count and the
    /// state-lock count: `(digest, snapshot seq, state locks)`.
    fn decisions(config: ScenarioConfig, secs: u64) -> (u64, u64, u64) {
        let s = Scenario::build(ScenarioConfig {
            free_daemons: true,
            ..config
        });
        s.driver(secs).advance(secs);
        let snap = s.ctld.snapshot();
        let archived = s.dbd.query_jobs(&JobFilter::default());
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |bytes: &[u8]| {
            for b in bytes.iter().chain([&0xff]) {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        let time = |t: Option<Timestamp>| t.map_or(u64::MAX, Timestamp::as_secs).to_le_bytes();
        for job in archived.iter().chain(snap.jobs.iter()) {
            feed(&job.id.0.to_le_bytes());
            feed(job.state.to_slurm().as_bytes());
            feed(job.reason.map_or("", PendingReason::to_slurm).as_bytes());
            feed(&job.priority.to_le_bytes());
            feed(&job.submit_time.as_secs().to_le_bytes());
            feed(&time(job.start_time));
            feed(&time(job.end_time));
            feed(job.nodes.join(",").as_bytes());
            let (code, signal) = job.exit_code.unwrap_or((-1, -1));
            feed(&code.to_le_bytes());
            feed(&signal.to_le_bytes());
        }
        (h, snap.seq, s.ctld.stats().state_lock_count())
    }

    /// FNV-1a over every TSDB series name and its raw, 1m and 10m points
    /// after `secs` of traffic: `(digest, series count)`.
    fn tsdb_content(config: ScenarioConfig, secs: u64) -> (u64, usize) {
        let s = Scenario::build(ScenarioConfig {
            free_daemons: true,
            ..config
        });
        s.driver(secs).advance(secs);
        let store = s.telemetry.store();
        let end = s.clock.now().as_secs() as i64;
        let names = store.series_names();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |bytes: &[u8]| {
            for b in bytes.iter().chain([&0xff]) {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for name in &names {
            feed(name.as_bytes());
            for resolution in [0, 60, 600] {
                for p in store.query_range(name, 0, end, resolution) {
                    feed(&p.t.to_le_bytes());
                    for v in [p.min, p.max, p.mean] {
                        feed(&v.to_bits().to_le_bytes());
                    }
                    feed(&p.count.to_le_bytes());
                }
            }
        }
        (h, names.len())
    }

    /// What the collector writes must not move when how it writes does:
    /// every series and every tier's points after the benchmark's warm-up,
    /// pinned before ingest went through series handles.
    #[test]
    fn same_seed_stores_the_same_telemetry() {
        assert_eq!(
            tsdb_content(ScenarioConfig::campus(), 4 * 3_600),
            (13_539_375_020_684_180_209, 1_606),
            "campus, seed 42, four simulated hours"
        );
    }

    /// The driver submits exactly the generator's sequence, each arrival at
    /// the first tick at or after its instant, whether it is drawn ahead or
    /// when the clock reaches it.
    #[test]
    fn driver_submits_the_generated_sequence() {
        for seed in [1, 2, 3] {
            for diurnal in [false, true] {
                let mut config = ScenarioConfig::small().seed(seed);
                config.mix.diurnal = diurnal;
                let s = Scenario::build(config);
                let start = s.clock.now();
                let window = 3 * 3_600;
                let want: Vec<_> = s
                    .trace_generator()
                    .generate(&s.population, start, window)
                    .into_iter()
                    .map(|(when, r)| {
                        let tick = start.plus(when.since(start).div_ceil(30) * 30);
                        (tick, r.user, r.name, r.cpus_per_node, r.comment)
                    })
                    .collect();
                let mut driver = s.driver(window);
                driver.advance(window + 30);
                assert!(driver.window_exhausted());
                let snap = s.ctld.snapshot();
                let archived = s.dbd.query_jobs(&JobFilter::default());
                let mut jobs: Vec<_> = archived.iter().chain(snap.jobs.iter()).collect();
                jobs.sort_by_key(|j| j.id);
                // An array's tasks share one submission.
                jobs.dedup_by_key(|j| j.array.map_or(j.id, |a| a.array_job_id));
                let got: Vec<_> = jobs
                    .iter()
                    .map(|j| {
                        let r = &j.req;
                        let comment = r.comment.clone();
                        (
                            j.submit_time,
                            r.user.clone(),
                            r.name.clone(),
                            r.cpus_per_node,
                            comment,
                        )
                    })
                    .collect();
                assert!(want.len() > 50, "seed {seed}: {} arrivals", want.len());
                assert_eq!(got, want, "seed {seed}, diurnal {diurnal}");
            }
        }
    }

    /// The refactor oracle for the scheduler and snapshot publication: the
    /// same seed must start the same jobs on the same nodes at the same
    /// instants, with the same reasons and priorities, in the same number
    /// of publications and state-lock acquisitions. The constants were
    /// taken before the planner was rewritten over a scratch view.
    #[test]
    fn same_seed_makes_the_same_decisions() {
        assert_eq!(
            decisions(ScenarioConfig::campus(), 4 * 3_600),
            (5_906_772_974_963_005_036, 971, 971),
            "campus, seed 42, four simulated hours (the benchmark's site)"
        );
        assert_eq!(
            decisions(ScenarioConfig::campus().seed(7), 2 * 3_600),
            (9_950_914_922_195_433_839, 444, 444),
            "campus, seed 7, two simulated hours"
        );
    }
}
