//! The server cache's store-level counters: what no per-source counter
//! records (`core` counts requests, hits, misses and stale serves per data
//! source).

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free cache counters.
#[derive(Debug, Default)]
pub struct CacheStats {
    inserts: AtomicU64,
    /// Lookups that found an entry no longer fresh.
    expirations: AtomicU64,
    /// Loads avoided because a concurrent identical load was in flight.
    coalesced: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    pub inserts: u64,
    pub expirations: u64,
    pub coalesced: u64,
}

impl CacheStats {
    pub fn new() -> CacheStats {
        CacheStats::default()
    }

    pub(crate) fn insert(&self) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn expiration(&self) {
        self.expirations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn coalesce(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    ///
    /// Each counter is read atomically, but the three reads are not one
    /// transaction: under concurrent updates a snapshot may pair an insert
    /// count taken before an in-flight update with an expiration count
    /// taken after it. Every increment is seen by each snapshot taken
    /// after it returned, which is the contract dashboards need.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            inserts: self.inserts.load(Ordering::Relaxed),
            expirations: self.expirations.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count_each_event() {
        let s = CacheStats::new();
        s.insert();
        s.insert();
        s.coalesce();
        s.expiration();
        let snap = s.snapshot();
        assert_eq!(snap.inserts, 2);
        assert_eq!(snap.coalesced, 1);
        assert_eq!(snap.expirations, 1);
    }
}
