//! A sharded, epoch-tagged TTL cache driven by the simulation clock — the
//! Rails in-memory-cache analog on the dashboard's server side, and the one
//! store every cached route shares.

use crate::stats::CacheStats;
use hpcdash_simtime::{SharedClock, Timestamp};
use parking_lot::RwLock;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

const SHARDS: usize = 16;

/// `ttl_secs` for entries that only a newer publisher version outdates.
pub const NO_TTL: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    /// Publisher version (cluster snapshot seq) the value was built from.
    version: u64,
    stored_at: Timestamp,
    ttl_secs: u64,
}

impl<V> Entry<V> {
    /// The one freshness rule: built from `min_version` or later *and*
    /// younger than its TTL.
    fn fresh(&self, min_version: u64, now: Timestamp) -> bool {
        self.version >= min_version && now.since(self.stored_at) < self.ttl_secs
    }
}

/// What [`TtlCache::last_good`] returns: the stored value however old, with
/// the version it was built from and its age on the sim clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LastGood<V> {
    pub value: V,
    pub version: u64,
    pub age_secs: u64,
}

/// A thread-safe string-keyed cache with per-entry TTLs and version tags.
///
/// There is exactly one freshness rule: an entry answers a lookup when it
/// was built from publisher version `min_version` or later *and* is younger
/// than its TTL. Everything else — widget TTLs,
/// per-epoch `/slurm/v0` bytes, dead-epoch purges — is a choice of
/// `min_version`, `ttl_secs` and [`TtlCache::purge_below`].
///
/// Sharded so that widget routes refreshing different data sources do not
/// contend on one lock (the hpc-parallel guides' standard remedy for hot
/// shared maps).
pub struct TtlCache<V> {
    shards: Vec<RwLock<HashMap<String, Entry<V>>>>,
    clock: SharedClock,
    stats: Arc<CacheStats>,
}

impl<V: Clone> TtlCache<V> {
    pub fn new(clock: SharedClock) -> TtlCache<V> {
        TtlCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            clock,
            stats: Arc::new(CacheStats::new()),
        }
    }

    fn shard(&self, key: &str) -> &RwLock<HashMap<String, Entry<V>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// The value for `key` if it is fresh: built from `min_version` or
    /// later and younger than its TTL.
    pub fn get(&self, key: &str, min_version: u64) -> Option<V> {
        let now = self.clock.now();
        let shard = self.shard(key).read();
        match shard.get(key) {
            Some(e) if e.fresh(min_version, now) => Some(e.value.clone()),
            Some(_) => {
                self.stats.expiration();
                None
            }
            None => None,
        }
    }

    /// [`TtlCache::get`] without counting an expiration: the single-flight
    /// leader's second look, for a fill that landed between its miss and
    /// its turn.
    pub(crate) fn peek(&self, key: &str, min_version: u64) -> Option<V> {
        let now = self.clock.now();
        let shard = self.shard(key).read();
        shard
            .get(key)
            .filter(|e| e.fresh(min_version, now))
            .map(|e| e.value.clone())
    }

    /// The value even if outdated — the serve-stale-on-error read: when a
    /// refresh fails, the caller returns this last-known-good value
    /// labelled "from N seconds ago". No stats side effects; the caller
    /// records the outcome it chose.
    pub fn last_good(&self, key: &str) -> Option<LastGood<V>> {
        let now = self.clock.now();
        let shard = self.shard(key).read();
        shard.get(key).map(|e| LastGood {
            value: e.value.clone(),
            version: e.version,
            age_secs: now.since(e.stored_at),
        })
    }

    /// Store `value`, built from publisher version `version`, for
    /// `ttl_secs` ([`NO_TTL`]: until a newer version is asked for).
    pub fn insert(&self, key: impl Into<String>, value: V, version: u64, ttl_secs: u64) {
        let key = key.into();
        let entry = Entry {
            value,
            version,
            stored_at: self.clock.now(),
            ttl_secs,
        };
        self.shard(&key).write().insert(key, entry);
        self.stats.insert();
    }

    /// Drop every entry built from a publisher version below `version`;
    /// returns how many were removed. Called after a controller
    /// crash-recovery: pre-crash epochs are dead — their bytes may describe
    /// state the replay rolled back, so not even [`TtlCache::last_good`]
    /// may return them.
    pub fn purge_below(&self, version: u64) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut map = shard.write();
            let before = map.len();
            map.retain(|_, e| e.version >= version);
            removed += before - map.len();
        }
        removed
    }

    /// Entries currently stored (fresh or stale).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }

    pub fn stats(&self) -> &Arc<CacheStats> {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_simtime::SimClock;

    fn cache() -> (TtlCache<String>, SimClock) {
        let clock = SimClock::new(Timestamp(0));
        (TtlCache::new(clock.shared()), clock)
    }

    #[test]
    fn basic_get_insert() {
        let (c, _clock) = cache();
        assert_eq!(c.get("k", 0), None);
        c.insert("k", "v".to_string(), 0, 30);
        assert_eq!(c.get("k", 0), Some("v".to_string()));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn entries_expire_with_sim_time() {
        let (c, clock) = cache();
        c.insert("squeue:alice", "jobs".to_string(), 0, 30);
        clock.advance(29);
        assert!(c.get("squeue:alice", 0).is_some());
        clock.advance(1);
        assert_eq!(c.get("squeue:alice", 0), None, "expired exactly at ttl");
        // Still present as the last-known-good copy, with its age.
        let stale = c.last_good("squeue:alice").unwrap();
        assert_eq!((stale.value.as_str(), stale.age_secs), ("jobs", 30));
    }

    #[test]
    fn version_and_ttl_both_gate_freshness() {
        let (c, clock) = cache();
        c.insert("jobs|alice", "v5".to_string(), 5, 30);
        // Same or older version asked for, inside the TTL: hit.
        assert!(c.get("jobs|alice", 5).is_some());
        assert!(c.get("jobs|alice", 0).is_some());
        // A newer version asked for: the world changed, miss — but the old
        // value is still reachable as last-good, tagged with its version.
        assert_eq!(c.get("jobs|alice", 6), None);
        assert_eq!(c.last_good("jobs|alice").unwrap().version, 5);
        // TTL lapsed at the same version: miss.
        clock.advance(30);
        assert_eq!(c.get("jobs|alice", 5), None);
        // NO_TTL entries only age out by version.
        c.insert("nodes|root", "v5".to_string(), 5, NO_TTL);
        clock.advance(1_000_000);
        assert!(c.get("nodes|root", 5).is_some());
        assert_eq!(c.get("nodes|root", 6), None);
    }

    #[test]
    fn purge_below_kills_dead_epochs_even_for_last_good() {
        let (c, _clock) = cache();
        c.insert("jobs|alice", "dead".to_string(), 3, NO_TTL);
        c.insert("nodes|root", "live".to_string(), 7, NO_TTL);
        // Crash recovery republished at epoch 7: everything older is from a
        // dead epoch and may describe rolled-back state.
        assert_eq!(c.purge_below(7), 1);
        assert!(
            c.last_good("jobs|alice").is_none(),
            "dead-epoch values must not survive as a stale fallback"
        );
        assert!(c.last_good("nodes|root").is_some());
    }

    #[test]
    fn per_entry_ttls_are_independent() {
        let (c, clock) = cache();
        c.insert("fast", "a".to_string(), 0, 30); // squeue-style
        c.insert("slow", "b".to_string(), 0, 3_600); // announcements-style
        clock.advance(60);
        assert_eq!(c.get("fast", 0), None);
        assert_eq!(c.get("slow", 0), Some("b".to_string()));
    }

    #[test]
    fn reinsert_refreshes() {
        let (c, clock) = cache();
        c.insert("k", "v1".to_string(), 0, 30);
        clock.advance(29);
        c.insert("k", "v2".to_string(), 0, 30);
        clock.advance(29);
        assert_eq!(c.get("k", 0), Some("v2".to_string()));
    }

    #[test]
    fn clear_empties_every_shard() {
        let (c, _clock) = cache();
        for i in 0..20 {
            c.insert(format!("k{i}"), "v".to_string(), 0, 100);
        }
        assert_eq!(c.len(), 20);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn stats_track_inserts_and_expirations() {
        let (c, clock) = cache();
        c.insert("k", "v".to_string(), 0, 10);
        c.get("k", 0);
        c.get("nope", 0);
        clock.advance(11);
        c.get("k", 0);
        let snap = c.stats().snapshot();
        assert_eq!(snap.expirations, 1, "only the outdated entry expired");
        assert_eq!(snap.inserts, 1);
    }

    #[test]
    fn concurrent_access() {
        let clock = SimClock::new(Timestamp(0));
        let c = Arc::new(TtlCache::<u64>::new(clock.shared()));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let mut found = 0u64;
                for i in 0..1_000u64 {
                    let key = format!("k{}", (t * 1_000 + i) % 64);
                    c.insert(key.clone(), i, 0, 60);
                    found += u64::from(c.get(&key, 0).is_some());
                }
                found
            }));
        }
        // Nothing expires or is removed, so every get finds its key.
        let found: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(found, 8_000);
        assert!(c.len() <= 64);
        assert_eq!(c.stats().snapshot().inserts, 8_000);
    }
}
