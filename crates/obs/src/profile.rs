//! Tick-phase profiling: cheap per-phase wall-time accounting inside the
//! simulated daemons (sched pass, snapshot publish, dbd sync, TSDB
//! ingest).
//!
//! Each daemon owns a [`PhaseProfiler`]; hot loops wrap their phases in
//! [`PhaseProfiler::time`] and the aggregates surface both as pull-time
//! metrics (`hpcdash_tick_phase_ns_total{daemon,phase}`) and — via the
//! telemetry self-scrape — as range-queryable TSDB series. Phases run
//! single-threaded under the daemon lock, so wall time is CPU time for
//! every phase that matters here.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Aggregate for one named phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Times the phase ran.
    pub count: u64,
    /// Total wall time across runs, in nanoseconds.
    pub total_ns: u64,
    /// Slowest single run, in nanoseconds.
    pub max_ns: u64,
}

impl PhaseAgg {
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Accumulates per-phase wall time. Phase names are static so record sites
/// stay allocation-free.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    phases: Mutex<BTreeMap<&'static str, PhaseAgg>>,
}

impl PhaseProfiler {
    pub fn new() -> PhaseProfiler {
        PhaseProfiler::default()
    }

    pub fn record(&self, phase: &'static str, dur: Duration) {
        let ns = dur.as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut phases = self.phases.lock();
        let agg = phases.entry(phase).or_default();
        agg.count += 1;
        agg.total_ns += ns;
        agg.max_ns = agg.max_ns.max(ns);
    }

    /// Run `f`, attributing its wall time to `phase`.
    pub fn time<T>(&self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(phase, t0.elapsed());
        out
    }

    /// All phases and their aggregates, sorted by phase name.
    pub fn snapshot(&self) -> Vec<(&'static str, PhaseAgg)> {
        self.phases.lock().iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Visit each phase's aggregate in place, sorted by phase name.
    pub fn for_each(&self, mut f: impl FnMut(&'static str, &PhaseAgg)) {
        for (phase, agg) in self.phases.lock().iter() {
            f(phase, agg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates_by_phase() {
        let p = PhaseProfiler::new();
        p.record("sched_pass", Duration::from_micros(100));
        p.record("sched_pass", Duration::from_micros(300));
        p.record("publish", Duration::from_micros(50));
        let snap = p.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["publish", "sched_pass"], "sorted by name");
        let sched = snap.iter().find(|(n, _)| *n == "sched_pass").unwrap().1;
        assert_eq!(sched.count, 2);
        assert_eq!(sched.total_ns, 400_000);
        assert_eq!(sched.max_ns, 300_000);
        assert_eq!(sched.mean_ns(), 200_000);
    }

    #[test]
    fn time_wraps_a_closure() {
        let p = PhaseProfiler::new();
        let v = p.time("work", || {
            std::thread::sleep(Duration::from_micros(200));
            41 + 1
        });
        assert_eq!(v, 42);
        let agg = p.snapshot()[0].1;
        assert_eq!(agg.count, 1);
        assert!(agg.total_ns >= 200_000, "measured the sleep");
    }
}
