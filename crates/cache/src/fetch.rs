//! [`CachedFetcher`]: the server-side caching front door used by every
//! dashboard API route — TTL cache + single-flight in one call.

use crate::singleflight::SingleFlight;
use crate::stats::CacheStatsSnapshot;
use crate::ttl::TtlCache;
use hpcdash_simtime::SharedClock;

/// Cache-or-load with request coalescing and serve-stale-on-error.
///
/// ```
/// use hpcdash_cache::{CachedFetcher, GraceOutcome};
/// use hpcdash_simtime::{SimClock, Timestamp};
///
/// let clock = SimClock::new(Timestamp(0));
/// let fetcher: CachedFetcher<String> = CachedFetcher::new(clock.shared());
/// let v = fetcher.get_or_fetch("squeue:alice", 30, || Some(("two jobs".to_string(), 1)));
/// assert!(matches!(v, GraceOutcome::Loaded { .. }));
/// // Within the TTL the loader is not called again.
/// let v2 = fetcher.get_or_fetch("squeue:alice", 30, || unreachable!());
/// assert_eq!(v2, GraceOutcome::Hit("two jobs".to_string()));
/// ```
pub struct CachedFetcher<V> {
    cache: TtlCache<V>,
    flight: SingleFlight<Option<V>>,
}

/// How [`CachedFetcher::get_or_fetch`] answered.
#[derive(Debug, Clone, PartialEq)]
pub enum GraceOutcome<V> {
    /// Served from a fresh cache entry; the loader did not run.
    Hit(V),
    /// The loader ran and succeeded (`coalesced`: this caller joined
    /// another thread's in-flight load instead of running its own).
    Loaded { value: V, coalesced: bool },
    /// The loader failed; the last-known-good value is served with its age
    /// in seconds. The failure is *not* cached and the entry is kept.
    Stale { value: V, age_secs: u64 },
    /// The loader failed and there is no last-known-good value to serve.
    Miss,
}

impl<V: Clone> CachedFetcher<V> {
    pub fn new(clock: SharedClock) -> CachedFetcher<V> {
        CachedFetcher {
            cache: TtlCache::new(clock),
            flight: SingleFlight::new(),
        }
    }

    /// The single-flight fill: return the fresh cached value if there is
    /// one (any version — the TTL alone bounds it), otherwise run `load`
    /// (coalesced across threads). On success it returns the value and the
    /// publisher version it was built from, and the value is cached under
    /// that tag for `ttl_secs`; on failure (`None`) the last-known-good
    /// value — even an expired one — is served with its age, and nothing is
    /// invalidated, so one bad refresh can never destroy the copy that
    /// keeps the widget rendering.
    pub fn get_or_fetch(
        &self,
        key: &str,
        ttl_secs: u64,
        load: impl FnOnce() -> Option<(V, u64)>,
    ) -> GraceOutcome<V> {
        // Counts an expiration when the entry is outdated.
        if let Some(v) = self.cache.get(key, 0) {
            return GraceOutcome::Hit(v);
        }
        let (result, leader) = self.flight.work(key, || {
            // A caller that missed just before another flight's insert and
            // got here just after it must not load a second time.
            if let Some(v) = self.cache.peek(key, 0) {
                return Some(v);
            }
            let (value, version) = load()?;
            self.cache.insert(key, value.clone(), version, ttl_secs);
            Some(value)
        });
        if !leader {
            self.cache.stats().coalesce();
        }
        match result {
            Some(value) => GraceOutcome::Loaded {
                value,
                coalesced: !leader,
            },
            None => match self.cache.last_good(key) {
                Some(stale) => GraceOutcome::Stale {
                    value: stale.value,
                    age_secs: stale.age_secs,
                },
                None => GraceOutcome::Miss,
            },
        }
    }

    pub fn clear(&self) {
        self.cache.clear();
    }

    pub fn stats(&self) -> CacheStatsSnapshot {
        self.cache.stats().snapshot()
    }

    /// The store itself, for callers that look up, insert and fall back to
    /// last-good on their own terms (`/slurm/v0`, per-viewer routes) and
    /// for the recovery purge.
    pub fn cache(&self) -> &TtlCache<V> {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_simtime::{SimClock, Timestamp};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn fetcher() -> (Arc<CachedFetcher<u64>>, SimClock) {
        let clock = SimClock::new(Timestamp(0));
        (Arc::new(CachedFetcher::new(clock.shared())), clock)
    }

    #[test]
    fn loads_once_within_ttl() {
        let (f, clock) = fetcher();
        let loads = AtomicU64::new(0);
        for _ in 0..10 {
            let out = f.get_or_fetch("k", 30, || {
                loads.fetch_add(1, Ordering::SeqCst);
                Some((99, 0))
            });
            assert!(matches!(
                out,
                GraceOutcome::Hit(99) | GraceOutcome::Loaded { value: 99, .. }
            ));
        }
        assert_eq!(loads.load(Ordering::SeqCst), 1);
        clock.advance(31);
        f.get_or_fetch("k", 30, || {
            loads.fetch_add(1, Ordering::SeqCst);
            Some((100, 0))
        });
        assert_eq!(loads.load(Ordering::SeqCst), 2, "reloaded after expiry");
    }

    #[test]
    fn fills_are_tagged_with_their_version() {
        let (f, _clock) = fetcher();
        f.get_or_fetch("k", 30, || Some((1, 7)));
        assert_eq!(f.cache().last_good("k").unwrap().version, 7);
        // The fill's own lookup accepts any version; a purge does not.
        assert_eq!(
            f.get_or_fetch("k", 30, || unreachable!()),
            GraceOutcome::Hit(1)
        );
        assert_eq!(f.cache().purge_below(8), 1);
        assert_eq!(f.get_or_fetch("k", 30, || None), GraceOutcome::Miss);
    }

    #[test]
    fn serves_stale_on_failure() {
        let (f, clock) = fetcher();
        // Cold miss + failing loader: nothing to fall back to.
        assert_eq!(f.get_or_fetch("k", 10, || None), GraceOutcome::Miss);
        // Successful load caches the value...
        assert_eq!(
            f.get_or_fetch("k", 10, || Some((1, 0))),
            GraceOutcome::Loaded {
                value: 1,
                coalesced: false
            }
        );
        // ...which serves as a fresh hit without running the loader...
        assert_eq!(
            f.get_or_fetch("k", 10, || unreachable!()),
            GraceOutcome::Hit(1)
        );
        clock.advance(11);
        // ...and survives a failed refresh as a stale serve, with age.
        assert_eq!(
            f.get_or_fetch("k", 10, || None),
            GraceOutcome::Stale {
                value: 1,
                age_secs: 11
            }
        );
        clock.advance(100);
        assert_eq!(
            f.get_or_fetch("k", 10, || None),
            GraceOutcome::Stale {
                value: 1,
                age_secs: 111
            },
            "repeated failures never invalidate the last-known-good copy"
        );
        // A later successful refresh replaces it.
        assert_eq!(
            f.get_or_fetch("k", 10, || Some((2, 0))),
            GraceOutcome::Loaded {
                value: 2,
                coalesced: false
            }
        );
    }

    #[test]
    fn failures_are_never_cached() {
        let (f, clock) = fetcher();
        f.get_or_fetch("k", 10, || Some((1, 0)));
        clock.advance(11);
        let loads = AtomicU64::new(0);
        for _ in 0..5 {
            f.get_or_fetch("k", 10, || {
                loads.fetch_add(1, Ordering::SeqCst);
                None
            });
        }
        assert_eq!(
            loads.load(Ordering::SeqCst),
            5,
            "each request retried the backend; the failure was not cached"
        );
    }

    #[test]
    fn storm_of_misses_coalesces_to_one_load() {
        let (f, _clock) = fetcher();
        let loads = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(16));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let f = f.clone();
            let loads = loads.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                f.get_or_fetch("squeue", 30, || {
                    loads.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    Some((5, 0))
                })
            }));
        }
        let mut coalesced = 0;
        for h in handles {
            match h.join().unwrap() {
                GraceOutcome::Loaded {
                    value,
                    coalesced: c,
                } => {
                    assert_eq!(value, 5);
                    coalesced += c as u32;
                }
                GraceOutcome::Hit(v) => assert_eq!(v, 5),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(
            loads.load(Ordering::SeqCst),
            1,
            "one backend query for 16 users"
        );
        assert!(coalesced >= 1);
        assert!(f.stats().coalesced >= 1);
    }
}
