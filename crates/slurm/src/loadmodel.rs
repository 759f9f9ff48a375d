//! The daemon RPC cost model.
//!
//! The paper's performance story (§2.4, §3.2) hinges on a real phenomenon:
//! every `squeue` RPC occupies slurmctld — the same single-threaded daemon
//! that performs job allocation — so dashboard query storms slow scheduling
//! down. To make that measurable here, each simulated RPC burns a calibrated
//! amount of CPU *while holding the daemon lock*. Benches then observe
//! genuine contention: cached dashboards issue fewer RPCs and daemon latency
//! drops.

use hpcdash_obs::Histogram;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Cost parameters for one daemon.
#[derive(Debug, Clone, Copy)]
pub struct RpcCostModel {
    /// Fixed per-RPC cost.
    pub base: Duration,
    /// Additional cost per item touched (job, node, record...).
    pub per_item: Duration,
}

impl RpcCostModel {
    /// slurmctld-ish defaults: queries are noticeably expensive.
    pub fn ctld_default() -> RpcCostModel {
        RpcCostModel {
            base: Duration::from_micros(150),
            per_item: Duration::from_nanos(800),
        }
    }

    /// slurmdbd-ish defaults: the accounting DB is a separate daemon and a
    /// bit slower per record (it walks history), but querying it does not
    /// block scheduling.
    pub fn dbd_default() -> RpcCostModel {
        RpcCostModel {
            base: Duration::from_micros(250),
            per_item: Duration::from_nanos(1_200),
        }
    }

    /// A near-zero-cost model for unit tests that don't measure timing.
    pub fn free() -> RpcCostModel {
        RpcCostModel {
            base: Duration::ZERO,
            per_item: Duration::ZERO,
        }
    }

    /// Busy-wait for the modelled cost of touching `items` items.
    pub fn burn(&self, items: usize) {
        let total = self.base + self.per_item * items as u32;
        if total.is_zero() {
            return;
        }
        let start = Instant::now();
        while start.elapsed() < total {
            std::hint::spin_loop();
        }
    }
}

/// Latency/traffic statistics for one daemon, shared across threads.
#[derive(Debug, Default)]
pub struct RpcStats {
    /// Every served RPC's latency: its count and sum are the RPC and busy
    /// totals, its quantiles the reported percentiles.
    latency: Histogram,
    /// Time RPC callers spent waiting to acquire the daemon lock — the
    /// direct measurement of "dashboard queries delay scheduling".
    lock_wait_ns: AtomicU64,
    /// Pending-job count observed at the most recent scheduler pass.
    sched_queue_depth: AtomicU64,
    /// How many times anything acquired the daemon state mutex. Read RPCs
    /// on the snapshot path must leave this untouched — tests assert it.
    state_locks: AtomicU64,
    per_kind: Mutex<HashMap<&'static str, KindStats>>,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct KindStats {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    /// Rows actually walked to serve these RPCs (the cost-model input).
    /// With indexed queries this scales with the *matching* row count, not
    /// the table size.
    pub scanned: u64,
}

/// A point-in-time summary of daemon load.
#[derive(Debug, Clone)]
pub struct RpcSnapshot {
    pub total_rpcs: u64,
    pub total_busy: Duration,
    /// Cumulative time callers waited on the daemon lock.
    pub total_lock_wait: Duration,
    /// Pending-job count at the last scheduler pass.
    pub sched_queue_depth: u64,
    pub per_kind: HashMap<&'static str, KindStats>,
    /// The latency histogram's estimates of p50, p95 and p99 over every RPC
    /// since start or the last reset, if any traffic was seen.
    pub p50: Option<Duration>,
    pub p95: Option<Duration>,
    pub p99: Option<Duration>,
}

impl RpcStats {
    pub fn new() -> RpcStats {
        RpcStats::default()
    }

    /// Record one served RPC.
    pub fn record(&self, kind: &'static str, latency: Duration) {
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.latency.observe_ns(ns);
        let mut map = self.per_kind.lock();
        let k = map.entry(kind).or_default();
        k.count += 1;
        k.total_ns += ns;
        k.max_ns = k.max_ns.max(ns);
    }

    /// Every served RPC's latency, since start or the last reset.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    pub fn total_rpcs(&self) -> u64 {
        self.latency.count()
    }

    pub fn total_busy(&self) -> Duration {
        Duration::from_nanos(self.latency.sum_ns())
    }

    /// Record time spent waiting for the daemon lock (before the RPC ran).
    pub(crate) fn record_lock_wait(&self, wait: Duration) {
        let ns = wait.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.lock_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn total_lock_wait(&self) -> Duration {
        Duration::from_nanos(self.lock_wait_ns.load(Ordering::Relaxed))
    }

    /// Record rows walked while serving RPCs of `kind`.
    pub fn record_scanned(&self, kind: &'static str, rows: u64) {
        self.per_kind.lock().entry(kind).or_default().scanned += rows;
    }

    /// Count one acquisition of the daemon state mutex.
    pub(crate) fn note_state_lock(&self) {
        self.state_locks.fetch_add(1, Ordering::Relaxed);
    }

    /// Total acquisitions of the daemon state mutex.
    pub fn state_lock_count(&self) -> u64 {
        self.state_locks.load(Ordering::Relaxed)
    }

    /// Record the pending-job backlog seen by the scheduler pass.
    pub(crate) fn set_sched_queue_depth(&self, depth: u64) {
        self.sched_queue_depth.store(depth, Ordering::Relaxed);
    }

    pub fn sched_queue_depth(&self) -> u64 {
        self.sched_queue_depth.load(Ordering::Relaxed)
    }

    pub fn count_of(&self, kind: &'static str) -> u64 {
        self.per_kind.lock().get(kind).map(|k| k.count).unwrap_or(0)
    }

    /// Visit each RPC kind's totals in place, in no particular order.
    pub fn for_each_kind(&self, mut f: impl FnMut(&'static str, &KindStats)) {
        for (kind, k) in self.per_kind.lock().iter() {
            f(kind, k);
        }
    }

    pub fn snapshot(&self) -> RpcSnapshot {
        let s = self.latency.summary();
        let seen = |ns| (s.count > 0).then(|| Duration::from_nanos(ns));
        RpcSnapshot {
            total_rpcs: s.count,
            total_busy: Duration::from_nanos(s.sum_ns),
            total_lock_wait: self.total_lock_wait(),
            sched_queue_depth: self.sched_queue_depth(),
            per_kind: self.per_kind.lock().clone(),
            p50: seen(s.p50_ns),
            p95: seen(s.p95_ns),
            p99: seen(s.p99_ns),
        }
    }

    /// Zero every counter (tests and examples call this between phases).
    pub fn reset(&self) {
        self.latency.reset();
        self.lock_wait_ns.store(0, Ordering::Relaxed);
        self.sched_queue_depth.store(0, Ordering::Relaxed);
        self.state_locks.store(0, Ordering::Relaxed);
        self.per_kind.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RpcStats {
        /// Total rows walked by RPCs of `kind` (0 if none seen).
        pub(crate) fn scanned_of(&self, kind: &'static str) -> u64 {
            self.per_kind
                .lock()
                .get(kind)
                .map(|k| k.scanned)
                .unwrap_or(0)
        }
    }

    #[test]
    fn burn_takes_roughly_the_configured_time() {
        let model = RpcCostModel {
            base: Duration::from_micros(200),
            per_item: Duration::from_nanos(100),
        };
        let start = Instant::now();
        model.burn(1_000);
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_micros(300),
            "burned at least base + items"
        );
    }

    #[test]
    fn free_model_is_instant() {
        let start = Instant::now();
        RpcCostModel::free().burn(1_000_000);
        assert!(start.elapsed() < Duration::from_millis(10));
    }

    #[test]
    fn stats_accumulate() {
        let stats = RpcStats::new();
        stats.record("squeue", Duration::from_micros(100));
        stats.record("squeue", Duration::from_micros(300));
        stats.record("sinfo", Duration::from_micros(50));
        assert_eq!(stats.total_rpcs(), 3);
        assert_eq!(stats.count_of("squeue"), 2);
        assert_eq!(stats.count_of("sinfo"), 1);
        assert_eq!(stats.count_of("sacct"), 0);
        assert_eq!(stats.total_busy(), Duration::from_micros(450));
        let snap = stats.snapshot();
        assert_eq!(snap.per_kind["squeue"].max_ns, 300_000);
        assert!(snap.p50.is_some() && snap.p99.is_some());
    }

    #[test]
    fn reset_clears() {
        let stats = RpcStats::new();
        stats.record("squeue", Duration::from_micros(100));
        stats.record_lock_wait(Duration::from_micros(40));
        stats.set_sched_queue_depth(7);
        stats.reset();
        assert_eq!(stats.total_rpcs(), 0);
        assert!(stats.snapshot().p50.is_none());
        assert_eq!(stats.total_lock_wait(), Duration::ZERO);
        assert_eq!(stats.sched_queue_depth(), 0);
    }

    #[test]
    fn scanned_rows_and_state_locks_tracked() {
        let stats = RpcStats::new();
        stats.record("squeue", Duration::from_micros(10));
        stats.record_scanned("squeue", 3);
        stats.record_scanned("squeue", 2);
        assert_eq!(stats.scanned_of("squeue"), 5);
        assert_eq!(stats.scanned_of("sinfo"), 0);
        stats.note_state_lock();
        stats.note_state_lock();
        assert_eq!(stats.state_lock_count(), 2);
        stats.reset();
        assert_eq!(stats.scanned_of("squeue"), 0);
        assert_eq!(stats.state_lock_count(), 0);
    }

    #[test]
    fn lock_wait_and_queue_depth_tracked() {
        let stats = RpcStats::new();
        stats.record_lock_wait(Duration::from_micros(10));
        stats.record_lock_wait(Duration::from_micros(15));
        stats.set_sched_queue_depth(42);
        let snap = stats.snapshot();
        assert_eq!(snap.total_lock_wait, Duration::from_micros(25));
        assert_eq!(snap.sched_queue_depth, 42);
    }

    #[test]
    fn percentile_ordering() {
        let stats = RpcStats::new();
        for i in 1..=100u64 {
            stats.record("x", Duration::from_nanos(i * 1_000));
        }
        let snap = stats.snapshot();
        assert!(snap.p50.unwrap() <= snap.p95.unwrap());
        assert!(snap.p95.unwrap() <= snap.p99.unwrap());
    }

    #[test]
    fn percentiles_are_pinned_on_a_fixed_sample() {
        let stats = RpcStats::new();
        // 1..=37 µs, recorded out of order.
        for i in (1..=37u64).rev() {
            stats.record("x", Duration::from_micros((i * 17) % 37 + 1));
        }
        // Buckets (µs): 1 | 2 | 3–5 | 6–10 | 11–20 | 21–37 hold 1, 1, 3, 5,
        // 10 and 17 samples. A rank interpolates linearly inside its
        // bucket, and the exact max (37 µs) clamps the upper tail.
        let snap = stats.snapshot();
        let us = |d: Option<Duration>| d.map(|d| d.as_micros());
        assert_eq!(us(snap.p50), Some(19), "rank 19: 10 + 10 × 9/10");
        assert_eq!(us(snap.p95), Some(37), "rank 36: 20 + 30 × 16/17, clamped");
        assert_eq!(us(snap.p99), Some(37), "rank 37: 50, clamped");
        assert_eq!(RpcStats::new().snapshot().p50, None);
    }
}
