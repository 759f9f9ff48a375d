//! The one per-source record: each data source's circuit breaker and its
//! health window, served by `core` at `/api/health` and `/api/metrics`.
//!
//! A source that keeps failing should stop being *asked*: retry storms
//! against a struggling `slurmdbd` are exactly how a degraded daemon
//! becomes a dead one. Each data source gets the classic three-state
//! breaker: `Closed` (normal), `Open` (requests short-circuit without
//! touching the backend), `HalfOpen` (after a cool-down, a bounded number
//! of probe requests test recovery). Timing runs on the simulation clock,
//! so chaos tests can assert the exact tick a breaker opens and recovers.
//!
//! Beside the breaker, a source's loads roll into an up / degraded / down
//! verdict. The verdict looks only at the last 64 outcomes, so a
//! source that errored during startup but has been clean since reads as
//! `up` again, and a currently broken source reads as `down` however good
//! its lifetime ratio is. A source has a breaker once something asked it
//! for permission or reported to it, and a health window once a load's
//! outcome was recorded there: the no-cache ablation records health only,
//! the federation fan-out (`fed@<cluster>`) moves breakers only.

use hpcdash_simtime::{SharedClock, Timestamp};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Breaker tuning. See `ResiliencePolicy` in the core crate for the
/// documented defaults and how they interact with retry counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip `Closed` -> `Open`.
    pub failure_threshold: u32,
    /// Seconds (sim time) an open breaker waits before allowing probes.
    pub open_secs: u64,
    /// Probe requests allowed per `HalfOpen` episode.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 5,
            open_secs: 30,
            half_open_probes: 1,
        }
    }
}

/// The classic breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

impl BreakerState {
    /// Stable label for metrics/health payloads.
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Numeric encoding for the `hpcdash_breaker_state` gauge
    /// (0 = closed, 1 = half-open, 2 = open).
    pub fn as_gauge(&self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

/// Outcomes remembered per source when judging recent health.
const WINDOW: u32 = u64::BITS;

/// Window error-rate at or above which a source is `Down`.
const DOWN_THRESHOLD: f64 = 0.5;

/// A source's recent-health verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    Up,
    Degraded,
    Down,
}

impl HealthStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Up => "up",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Down => "down",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Timestamp,
    probes_issued: u32,
    opens: u64,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: Timestamp(0),
            probes_issued: 0,
            opens: 0,
        }
    }

    /// Move `Open` -> `HalfOpen` if the cool-down has elapsed.
    fn settle(&mut self, now: Timestamp, cfg: &BreakerConfig) {
        if self.state == BreakerState::Open && now.since(self.opened_at) >= cfg.open_secs {
            self.state = BreakerState::HalfOpen;
            self.probes_issued = 0;
        }
    }

    fn allow(&mut self, now: Timestamp, cfg: &BreakerConfig) -> bool {
        self.settle(now, cfg);
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                if self.probes_issued < cfg.half_open_probes {
                    self.probes_issued += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn succeed(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.probes_issued = 0;
    }

    fn fail(&mut self, now: Timestamp, cfg: &BreakerConfig) {
        self.settle(now, cfg);
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trips = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= cfg.failure_threshold,
            BreakerState::Open => false,
        };
        if trips {
            self.state = BreakerState::Open;
            self.opened_at = now;
            self.opens += 1;
        }
    }
}

/// The last `WINDOW` load outcomes of a source, one bit each (1 = error,
/// newest lowest), and its lifetime totals.
#[derive(Debug, Clone, Copy, Default)]
struct Health {
    errors: u64,
    len: u32,
    total_ok: u64,
    total_err: u64,
}

impl Health {
    fn push(&mut self, ok: bool) {
        self.errors = self.errors << 1 | u64::from(!ok);
        self.len = (self.len + 1).min(WINDOW);
        if ok {
            self.total_ok += 1;
        } else {
            self.total_err += 1;
        }
    }

    fn status(&self) -> HealthStatus {
        if self.len == 0 {
            return HealthStatus::Up; // no data yet — assume healthy
        }
        let err = self.errors.count_ones();
        let rate = f64::from(err) / f64::from(self.len);
        // Bits past `len` are zero, so three ones are three real failures.
        let last_three_failed = self.errors & 0b111 == 0b111;
        if rate >= DOWN_THRESHOLD || last_three_failed {
            HealthStatus::Down
        } else if err > 0 {
            HealthStatus::Degraded
        } else {
            HealthStatus::Up
        }
    }
}

/// Everything recorded about one source.
#[derive(Debug, Default)]
struct Record {
    breaker: Option<Breaker>,
    health: Option<Health>,
}

impl Record {
    fn breaker(&mut self) -> &mut Breaker {
        self.breaker.get_or_insert_with(Breaker::new)
    }

    fn health(&mut self) -> &mut Health {
        self.health.get_or_insert_with(Health::default)
    }
}

/// A point-in-time copy of one source's record, for `/api/health`,
/// `/api/metrics` and the observatory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceSnapshot {
    pub source: String,
    pub breaker: Option<BreakerSnapshot>,
    pub health: Option<HealthSnapshot>,
}

/// A source's breaker, cool-down applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// Cluster this source belongs to, parsed from the `name@cluster` key
    /// convention federated sources use (`None` for single-site sources).
    pub cluster: Option<String>,
    pub state: BreakerState,
    pub consecutive_failures: u32,
    /// How many times this breaker has tripped open in total.
    pub opens: u64,
}

/// A source's health window and lifetime totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSnapshot {
    pub status: HealthStatus,
    pub window_size: u32,
    pub window_errors: u32,
    pub total_ok: u64,
    pub total_err: u64,
}

/// Every source's record, keyed by source name, timed on the sim clock.
pub struct BreakerBoard {
    clock: SharedClock,
    cfg: BreakerConfig,
    sources: Mutex<BTreeMap<String, Record>>,
}

impl BreakerBoard {
    pub fn new(clock: SharedClock, cfg: BreakerConfig) -> BreakerBoard {
        BreakerBoard {
            clock,
            cfg,
            sources: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn config(&self) -> BreakerConfig {
        self.cfg
    }

    /// Run `f` on `source`'s record under the lock. A source seen before is
    /// found by `&str`; only its first appearance allocates its name.
    fn with<T>(&self, source: &str, f: impl FnOnce(&mut Record) -> T) -> T {
        let mut sources = self.sources.lock();
        if let Some(record) = sources.get_mut(source) {
            return f(record);
        }
        f(sources.entry(source.to_string()).or_default())
    }

    /// May a request for `source` touch the backend right now? `Closed`
    /// always; `Open` never (until the cool-down converts it to
    /// `HalfOpen`); `HalfOpen` admits up to `half_open_probes` probes.
    pub fn allow(&self, source: &str) -> bool {
        let now = self.clock.now();
        self.with(source, |r| r.breaker().allow(now, &self.cfg))
    }

    /// A backend call for `source` succeeded: a half-open breaker closes,
    /// and the failure streak resets.
    pub fn record_success(&self, source: &str) {
        self.with(source, |r| r.breaker().succeed());
    }

    /// A backend call for `source` failed: a half-open breaker re-opens
    /// immediately; a closed one opens once the streak hits the threshold.
    pub fn record_failure(&self, source: &str) {
        let now = self.clock.now();
        self.with(source, |r| r.breaker().fail(now, &self.cfg));
    }

    /// A load from `source` ended: its outcome enters the health window
    /// and moves the breaker, as [`BreakerBoard::record_success`] or
    /// [`BreakerBoard::record_failure`] would.
    pub fn record_load(&self, source: &str, ok: bool) {
        let now = self.clock.now();
        self.with(source, |r| {
            r.health().push(ok);
            let breaker = r.breaker();
            if ok {
                breaker.succeed();
            } else {
                breaker.fail(now, &self.cfg);
            }
        });
    }

    /// A load from `source` ended on a path no breaker gates: its outcome
    /// enters the health window only.
    pub fn record_health(&self, source: &str, ok: bool) {
        self.with(source, |r| r.health().push(ok));
    }

    /// The effective state of `source`'s breaker (cool-down applied).
    pub fn state_of(&self, source: &str) -> BreakerState {
        let now = self.clock.now();
        let mut sources = self.sources.lock();
        match sources.get_mut(source).and_then(|r| r.breaker.as_mut()) {
            Some(b) => {
                b.settle(now, &self.cfg);
                b.state
            }
            None => BreakerState::Closed,
        }
    }

    /// Every source's record, source-ordered, breakers settled.
    pub fn snapshot(&self) -> Vec<SourceSnapshot> {
        let now = self.clock.now();
        let mut sources = self.sources.lock();
        sources
            .iter_mut()
            .map(|(source, r)| SourceSnapshot {
                source: source.clone(),
                breaker: r.breaker.as_mut().map(|b| {
                    b.settle(now, &self.cfg);
                    BreakerSnapshot {
                        cluster: source
                            .split_once('@')
                            .map(|(_, cluster)| cluster.to_string()),
                        state: b.state,
                        consecutive_failures: b.consecutive_failures,
                        opens: b.opens,
                    }
                }),
                health: r.health.map(|h| HealthSnapshot {
                    status: h.status(),
                    window_size: h.len,
                    window_errors: h.errors.count_ones(),
                    total_ok: h.total_ok,
                    total_err: h.total_err,
                }),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_simtime::SimClock;

    fn board(threshold: u32, open_secs: u64, probes: u32) -> (BreakerBoard, SimClock) {
        let clock = SimClock::new(Timestamp(1_000));
        let b = BreakerBoard::new(
            clock.shared(),
            BreakerConfig {
                failure_threshold: threshold,
                open_secs,
                half_open_probes: probes,
            },
        );
        (b, clock)
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let (b, _clock) = board(3, 30, 1);
        assert!(b.allow("sacct"));
        b.record_failure("sacct");
        b.record_failure("sacct");
        assert_eq!(b.state_of("sacct"), BreakerState::Closed);
        assert!(b.allow("sacct"), "still closed below the threshold");
        b.record_failure("sacct");
        assert_eq!(b.state_of("sacct"), BreakerState::Open);
        assert!(!b.allow("sacct"), "open breaker short-circuits");
    }

    #[test]
    fn success_resets_the_streak() {
        let (b, _clock) = board(3, 30, 1);
        b.record_failure("sacct");
        b.record_failure("sacct");
        b.record_success("sacct");
        b.record_failure("sacct");
        b.record_failure("sacct");
        assert_eq!(
            b.state_of("sacct"),
            BreakerState::Closed,
            "non-consecutive failures never trip it"
        );
    }

    #[test]
    fn half_open_probe_then_close_or_reopen() {
        let (b, clock) = board(2, 30, 1);
        b.record_failure("squeue");
        b.record_failure("squeue");
        assert_eq!(b.state_of("squeue"), BreakerState::Open);
        clock.advance(29);
        assert!(!b.allow("squeue"), "cool-down not elapsed");
        clock.advance(1);
        assert_eq!(b.state_of("squeue"), BreakerState::HalfOpen);
        assert!(b.allow("squeue"), "one probe admitted");
        assert!(!b.allow("squeue"), "second probe rejected");
        // Probe fails: straight back to open, full cool-down again.
        b.record_failure("squeue");
        assert_eq!(b.state_of("squeue"), BreakerState::Open);
        assert!(!b.allow("squeue"));
        clock.advance(30);
        assert!(b.allow("squeue"));
        // Probe succeeds: closed, and traffic flows again.
        b.record_success("squeue");
        assert_eq!(b.state_of("squeue"), BreakerState::Closed);
        assert!(b.allow("squeue"));
    }

    #[test]
    fn sources_are_independent() {
        let (b, _clock) = board(1, 30, 1);
        b.record_failure("storage");
        assert_eq!(b.state_of("storage"), BreakerState::Open);
        assert_eq!(b.state_of("squeue"), BreakerState::Closed);
        assert!(b.allow("squeue"));
        let snaps = b.snapshot();
        assert_eq!(snaps.len(), 2, "squeue allow() registered it");
        assert_eq!(snaps[0].source, "squeue");
        assert_eq!(snaps[1].source, "storage");
        assert_eq!(snaps[1].breaker.as_ref().unwrap().opens, 1);
    }

    #[test]
    fn cluster_is_parsed_from_the_at_convention() {
        let (b, _clock) = board(1, 30, 1);
        b.record_failure("fed@beta");
        assert!(b.allow("squeue"));
        let snaps = b.snapshot();
        let cluster = |source: &str| {
            let snap = snaps.iter().find(|s| s.source == source).unwrap();
            snap.breaker.as_ref().unwrap().cluster.clone()
        };
        assert_eq!(cluster("fed@beta").as_deref(), Some("beta"));
        assert_eq!(cluster("squeue"), None);
    }

    #[test]
    fn gauge_and_label_encodings() {
        assert_eq!(BreakerState::Closed.as_gauge(), 0);
        assert_eq!(BreakerState::HalfOpen.as_gauge(), 1);
        assert_eq!(BreakerState::Open.as_gauge(), 2);
        assert_eq!(BreakerState::HalfOpen.as_str(), "half_open");
    }

    /// `source`'s health verdict, `Up` when it has no window.
    fn status(b: &BreakerBoard, source: &str) -> HealthStatus {
        b.snapshot()
            .into_iter()
            .find(|s| s.source == source)
            .and_then(|s| s.health)
            .map_or(HealthStatus::Up, |h| h.status)
    }

    #[test]
    fn occasional_errors_degrade() {
        let (b, _clock) = board(5, 30, 1);
        for i in 0..20 {
            b.record_health("dbd", i != 7);
        }
        assert_eq!(status(&b, "dbd"), HealthStatus::Degraded);
    }

    #[test]
    fn consecutive_failures_mean_down() {
        let (b, _clock) = board(5, 30, 1);
        for _ in 0..20 {
            b.record_health("ctld", true);
        }
        for _ in 0..3 {
            b.record_health("ctld", false);
        }
        assert_eq!(status(&b, "ctld"), HealthStatus::Down);
    }

    #[test]
    fn recovery_slides_errors_out_of_the_window() {
        let (b, _clock) = board(5, 30, 1);
        for _ in 0..10 {
            b.record_health("cache", false);
        }
        assert_eq!(status(&b, "cache"), HealthStatus::Down);
        for _ in 0..WINDOW - 1 {
            b.record_health("cache", true);
        }
        assert_eq!(
            status(&b, "cache"),
            HealthStatus::Degraded,
            "one error left"
        );
        b.record_health("cache", true);
        assert_eq!(status(&b, "cache"), HealthStatus::Up, "old errors aged out");
        let health = b.snapshot()[0].health.unwrap();
        assert_eq!((health.window_size, health.window_errors), (WINDOW, 0));
        assert_eq!((health.total_ok, health.total_err), (u64::from(WINDOW), 10));
    }

    #[test]
    fn health_and_breaker_are_recorded_apart_or_together() {
        let (b, _clock) = board(2, 30, 1);
        b.record_health("sinfo", false);
        b.record_failure("fed@beta");
        b.record_load("squeue", false);
        b.record_load("squeue", false);
        let snaps = b.snapshot();
        let [fed, sinfo, squeue] = &snaps[..] else {
            panic!("{snaps:?}")
        };
        assert!(fed.health.is_none(), "a breaker alone has no window");
        assert!(sinfo.breaker.is_none(), "health alone moves no breaker");
        assert_eq!(squeue.health.unwrap().window_errors, 2);
        assert_eq!(squeue.breaker.as_ref().unwrap().state, BreakerState::Open);
    }
}
