//! Per-source health: rolls recent success/error outcomes into an
//! up / degraded / down verdict, served by `core` at `/api/health`.
//!
//! Each data source (slurmctld, slurmdbd, cache, …) reports every operation
//! outcome to a [`HealthBoard`]. The verdict looks only at a bounded window
//! of the most recent outcomes, so a source that errored during startup but
//! has been clean since reads as `up` again — and a currently broken source
//! reads as `down` no matter how good its lifetime ratio is.

use parking_lot::Mutex;
use serde_json::{json, Value};
use std::collections::{BTreeMap, VecDeque};

/// Outcomes remembered per source when judging recent health.
pub const WINDOW: usize = 64;

/// Window error-rate at or above which a source is `Down`.
pub const DOWN_THRESHOLD: f64 = 0.5;

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

impl std::fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Debug, Default)]
struct SourceState {
    recent: VecDeque<bool>, // true = ok
    total_ok: u64,
    total_err: u64,
}

impl SourceState {
    fn push(&mut self, ok: bool) {
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(ok);
        if ok {
            self.total_ok += 1;
        } else {
            self.total_err += 1;
        }
    }

    fn window_err(&self) -> usize {
        self.recent.iter().filter(|ok| !**ok).count()
    }

    fn status(&self) -> HealthStatus {
        if self.recent.is_empty() {
            return HealthStatus::Up; // no data yet — assume healthy
        }
        let err = self.window_err();
        let rate = err as f64 / self.recent.len() as f64;
        let last_three_failed =
            self.recent.len() >= 3 && self.recent.iter().rev().take(3).all(|ok| !*ok);
        if rate >= DOWN_THRESHOLD || last_three_failed {
            HealthStatus::Down
        } else if err > 0 {
            HealthStatus::Degraded
        } else {
            HealthStatus::Up
        }
    }
}

/// Thread-safe per-source outcome tracker.
#[derive(Debug, Default)]
pub struct HealthBoard {
    sources: Mutex<BTreeMap<String, SourceState>>,
}

impl HealthBoard {
    pub fn new() -> HealthBoard {
        HealthBoard::default()
    }

    pub fn record_ok(&self, source: &str) {
        self.sources
            .lock()
            .entry(source.to_string())
            .or_default()
            .push(true);
    }

    pub fn record_error(&self, source: &str) {
        self.sources
            .lock()
            .entry(source.to_string())
            .or_default()
            .push(false);
    }

    pub fn status_of(&self, source: &str) -> HealthStatus {
        self.sources
            .lock()
            .get(source)
            .map(|s| s.status())
            .unwrap_or(HealthStatus::Up)
    }

    /// Snapshot every source; overall verdict is the worst source.
    pub fn report(&self) -> HealthReport {
        let sources = self.sources.lock();
        let entries: Vec<SourceReport> = sources
            .iter()
            .map(|(name, s)| SourceReport {
                name: name.clone(),
                status: s.status(),
                window_size: s.recent.len(),
                window_errors: s.window_err(),
                total_ok: s.total_ok,
                total_err: s.total_err,
            })
            .collect();
        let overall = entries
            .iter()
            .map(|e| e.status)
            .max()
            .unwrap_or(HealthStatus::Up);
        HealthReport {
            overall,
            sources: entries,
        }
    }
}

#[derive(Debug, Clone)]
pub struct SourceReport {
    pub name: String,
    pub status: HealthStatus,
    pub window_size: usize,
    pub window_errors: usize,
    pub total_ok: u64,
    pub total_err: u64,
}

#[derive(Debug, Clone)]
pub struct HealthReport {
    pub overall: HealthStatus,
    pub sources: Vec<SourceReport>,
}

impl HealthReport {
    /// The `/api/health` response body. Source keys come out sorted.
    pub fn to_json(&self) -> Value {
        let sources: Value = self
            .sources
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    json!({
                        "status": s.status.as_str(),
                        "window_size": s.window_size,
                        "window_errors": s.window_errors,
                        "total_ok": s.total_ok,
                        "total_err": s.total_err,
                    }),
                )
            })
            .collect();
        json!({
            "status": self.overall.as_str(),
            "sources": sources,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_board_is_up() {
        let b = HealthBoard::new();
        assert_eq!(b.report().overall, HealthStatus::Up);
        assert_eq!(b.status_of("nonexistent"), HealthStatus::Up);
    }

    #[test]
    fn occasional_errors_degrade() {
        let b = HealthBoard::new();
        for i in 0..20 {
            if i == 7 {
                b.record_error("dbd");
            } else {
                b.record_ok("dbd");
            }
        }
        assert_eq!(b.status_of("dbd"), HealthStatus::Degraded);
    }

    #[test]
    fn consecutive_failures_mean_down() {
        let b = HealthBoard::new();
        for _ in 0..20 {
            b.record_ok("ctld");
        }
        for _ in 0..3 {
            b.record_error("ctld");
        }
        assert_eq!(b.status_of("ctld"), HealthStatus::Down);
    }

    #[test]
    fn recovery_slides_errors_out_of_window() {
        let b = HealthBoard::new();
        for _ in 0..10 {
            b.record_error("cache");
        }
        assert_eq!(b.status_of("cache"), HealthStatus::Down);
        for _ in 0..WINDOW {
            b.record_ok("cache");
        }
        assert_eq!(
            b.status_of("cache"),
            HealthStatus::Up,
            "old errors aged out"
        );
    }

    #[test]
    fn overall_is_worst_source() {
        let b = HealthBoard::new();
        b.record_ok("ctld");
        b.record_error("dbd");
        b.record_ok("dbd");
        b.record_ok("dbd");
        b.record_ok("dbd");
        let r = b.report();
        assert_eq!(r.overall, HealthStatus::Degraded);
        let v = r.to_json();
        assert_eq!(v["status"], "degraded");
        assert_eq!(v["sources"]["ctld"]["status"], "up");
        assert_eq!(v["sources"]["dbd"]["status"], "degraded");
        assert_eq!(v["sources"]["dbd"]["total_err"], 1u64);
    }
}
