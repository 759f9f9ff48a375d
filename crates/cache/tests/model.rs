//! Model-based property test: the cache's one freshness rule (built from
//! `min_version` or later, and younger than its TTL) must agree with a
//! trivial reference model under arbitrary interleavings of inserts,
//! reads, invalidations, version purges and clock advances.

use hpcdash_cache::TtlCache;
use hpcdash_simtime::{SimClock, Timestamp};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        key: u8,
        value: u32,
        version: u64,
        ttl: u64,
    },
    Get {
        key: u8,
        min_version: u64,
    },
    Invalidate {
        key: u8,
    },
    Advance {
        secs: u64,
    },
    PurgeBelow {
        version: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..6, any::<u32>(), 0u64..8, 1u64..120)
            .prop_map(|(key, value, version, ttl)| Op::Insert { key, value, version, ttl }),
        3 => (0u8..6, 0u64..8).prop_map(|(key, min_version)| Op::Get { key, min_version }),
        1 => (0u8..6).prop_map(|key| Op::Invalidate { key }),
        2 => (1u64..90).prop_map(|secs| Op::Advance { secs }),
        1 => (0u64..8).prop_map(|version| Op::PurgeBelow { version }),
    ]
}

#[derive(Clone)]
struct ModelEntry {
    value: u32,
    version: u64,
    stored_at: u64,
    expires_at: u64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let clock = SimClock::new(Timestamp(0));
        let cache: TtlCache<u32> = TtlCache::new(clock.shared());
        let mut model: HashMap<u8, ModelEntry> = HashMap::new();
        let mut now = 0u64;

        for op in ops {
            match op {
                Op::Insert { key, value, version, ttl } => {
                    cache.insert(key.to_string(), value, version, ttl);
                    model.insert(key, ModelEntry { value, version, stored_at: now, expires_at: now + ttl });
                }
                Op::Get { key, min_version } => {
                    let got = cache.get(&key.to_string(), min_version);
                    let want = model
                        .get(&key)
                        .filter(|e| e.version >= min_version && now < e.expires_at)
                        .map(|e| e.value);
                    prop_assert_eq!(got, want, "divergence at t={} key={}", now, key);
                    // The last-good read ignores freshness entirely.
                    let stale = cache.last_good(&key.to_string());
                    let want = model.get(&key).map(|e| (e.value, e.version, now - e.stored_at));
                    prop_assert_eq!(stale.map(|s| (s.value, s.version, s.age_secs)), want);
                }
                Op::Invalidate { key } => {
                    prop_assert_eq!(
                        cache.invalidate(&key.to_string()),
                        model.remove(&key).is_some()
                    );
                }
                Op::Advance { secs } => {
                    clock.advance(secs);
                    now += secs;
                }
                Op::PurgeBelow { version } => {
                    let before = model.len();
                    model.retain(|_, e| e.version >= version);
                    prop_assert_eq!(cache.purge_below(version), before - model.len());
                }
            }
        }
        prop_assert_eq!(cache.len(), model.len());
    }
}
