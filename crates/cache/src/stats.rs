//! Hit/miss accounting shared by both cache layers.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free cache counters.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    expirations: AtomicU64,
    /// Loads avoided because a concurrent identical load was in flight.
    coalesced: AtomicU64,
    /// Renders served from stale data while a revalidation ran.
    stale_serves: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub expirations: u64,
    pub coalesced: u64,
    pub stale_serves: u64,
}

impl CacheStats {
    pub fn new() -> CacheStats {
        CacheStats::default()
    }

    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    pub fn insert(&self) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn expiration(&self) {
        self.expirations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn coalesce(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stale_serve(&self) {
        self.stale_serves.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    ///
    /// Each counter is read atomically, but the six reads are not one
    /// transaction: under concurrent updates a snapshot may pair a hit
    /// count taken before an in-flight update with a miss count taken
    /// after it. Every individual increment is still observed by exactly
    /// one later snapshot, which is the contract dashboards need.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            expirations: self.expirations.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            stale_serves: self.stale_serves.load(Ordering::Relaxed),
        }
    }

    /// Atomically take-and-zero every counter, returning what was drained.
    ///
    /// Unlike the old `snapshot()`-then-`store(0)` reset, each counter is
    /// zeroed with a single `swap`, so an increment racing the drain lands
    /// either in the returned snapshot or in the post-drain counter —
    /// never in both and never nowhere.
    pub fn drain(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.hits.swap(0, Ordering::Relaxed),
            misses: self.misses.swap(0, Ordering::Relaxed),
            inserts: self.inserts.swap(0, Ordering::Relaxed),
            expirations: self.expirations.swap(0, Ordering::Relaxed),
            coalesced: self.coalesced.swap(0, Ordering::Relaxed),
            stale_serves: self.stale_serves.swap(0, Ordering::Relaxed),
        }
    }

    pub fn reset(&self) {
        let _ = self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count_each_event() {
        let s = CacheStats::new();
        s.hit();
        s.hit();
        s.hit();
        s.miss();
        s.insert();
        s.coalesce();
        s.stale_serve();
        s.expiration();
        let snap = s.snapshot();
        assert_eq!(snap.hits, 3);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.inserts, 1);
        assert_eq!(snap.coalesced, 1);
        assert_eq!(snap.stale_serves, 1);
        assert_eq!(snap.expirations, 1);
    }

    #[test]
    fn reset_zeroes() {
        let s = CacheStats::new();
        s.hit();
        s.reset();
        assert_eq!(s.snapshot().hits, 0);
    }

    #[test]
    fn drain_returns_taken_counts() {
        let s = CacheStats::new();
        s.hit();
        s.hit();
        s.miss();
        let drained = s.drain();
        assert_eq!(drained.hits, 2);
        assert_eq!(drained.misses, 1);
        let after = s.snapshot();
        assert_eq!(after.hits, 0);
        assert_eq!(after.misses, 0);
    }

    #[test]
    fn concurrent_drains_never_lose_or_duplicate_increments() {
        // Regression test for the old reset(): a `store(0)` racing with
        // updaters silently discarded increments that landed between the
        // snapshot read and the zeroing write. With swap-based draining,
        // total increments == sum over drains + final snapshot, exactly.
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 20_000;
        let stats = std::sync::Arc::new(CacheStats::new());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut writers = Vec::new();
        for _ in 0..WRITERS {
            let stats = stats.clone();
            writers.push(std::thread::spawn(move || {
                for _ in 0..PER_WRITER {
                    stats.hit();
                    stats.miss();
                }
            }));
        }
        let drainer = {
            let stats = stats.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut hits = 0u64;
                let mut misses = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let d = stats.drain();
                    hits += d.hits;
                    misses += d.misses;
                    std::thread::yield_now();
                }
                (hits, misses)
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let (drained_hits, drained_misses) = drainer.join().unwrap();
        let tail = stats.drain();
        let expected = WRITERS as u64 * PER_WRITER;
        assert_eq!(drained_hits + tail.hits, expected, "hits conserved");
        assert_eq!(drained_misses + tail.misses, expected, "misses conserved");
    }
}
