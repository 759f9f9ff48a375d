//! The simulation driver: advances the clock, feeds submissions from the
//! trace, and ticks the scheduler — the "world" around the dashboard.

use hpcdash_simtime::{Clock, SimClock, Timestamp};
use hpcdash_slurm::ctld::Slurmctld;
use hpcdash_slurm::job::{JobId, JobRequest};
use hpcdash_telemetry::TelemetryD;
use std::collections::VecDeque;
use std::sync::Arc;

/// Drives a scenario forward in fixed scheduler-tick steps.
pub struct SimDriver {
    clock: SimClock,
    ctld: Arc<Slurmctld>,
    trace: VecDeque<(Timestamp, JobRequest)>,
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
        trace: Vec<(Timestamp, JobRequest)>,
        tick_secs: u64,
    ) -> SimDriver {
        SimDriver {
            clock,
            ctld,
            trace: trace.into(),
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
            while let Some((when, _)) = self.trace.front() {
                if *when > now {
                    break;
                }
                let (_, req) = self.trace.pop_front().expect("front checked");
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

    /// Submissions still waiting in the trace.
    pub fn remaining_trace(&self) -> usize {
        self.trace.len()
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
        assert_eq!(driver.remaining_trace(), 0);
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
