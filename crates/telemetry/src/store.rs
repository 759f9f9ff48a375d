//! The embedded TSDB: a sharded map of [`Series`] plus store-wide counters.
//!
//! Writers resolve a [`SeriesHandle`] once per job, node or instrument and
//! append through it: one uncontended series lock per sample, no name
//! formatting, hashing or shard lock. A pass tallies its appends in an
//! [`IngestTally`] and adds them to the store-wide counters once. Readers
//! still look a series up by name; the shard lock is dropped before the
//! series is locked, so a query waits for at most one append.
//!
//! The range-query engine picks the *coarsest* tier whose bucket width still
//! satisfies the requested resolution — a 24h query at 10m resolution never
//! touches raw chunks or 1m rollups, and the per-tier scan counters make
//! that provable (the tests below assert on them).

use crate::series::{AppendOutcome, Bucket, RetentionPolicy, Series};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SHARDS: usize = 16;

/// Which storage tier served a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Raw,
    OneMinute,
    TenMinute,
}

impl Tier {
    pub fn label(self) -> &'static str {
        match self {
            Tier::Raw => "raw",
            Tier::OneMinute => "1m",
            Tier::TenMinute => "10m",
        }
    }

    /// Position in per-tier arrays like [`StoreStats::scanned`].
    pub fn index(self) -> usize {
        match self {
            Tier::Raw => 0,
            Tier::OneMinute => 1,
            Tier::TenMinute => 2,
        }
    }

    pub const ALL: [Tier; 3] = [Tier::Raw, Tier::OneMinute, Tier::TenMinute];
}

/// One point of a range-query result. Raw points report themselves as
/// single-sample buckets so callers see one shape across tiers.
#[derive(Debug, Clone, Copy)]
pub struct RangePoint {
    pub t: i64,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub count: u64,
}

#[derive(Default)]
struct StoreCounters {
    samples_ingested: AtomicU64,
    samples_rejected: AtomicU64,
    chunks_sealed: AtomicU64,
    compressed_bytes: AtomicU64,
    expired_points: AtomicU64,
    queries: AtomicU64,
    points_returned: AtomicU64,
    scanned: [AtomicU64; 3],
}

/// A point-in-time copy of the store counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    pub series: u64,
    pub samples_ingested: u64,
    pub samples_rejected: u64,
    pub chunks_sealed: u64,
    /// Bytes currently held by sealed chunks (expired chunks subtracted).
    pub compressed_bytes: u64,
    pub expired_points: u64,
    pub queries: u64,
    pub points_returned: u64,
    /// Points/buckets read per tier: `[raw, 1m, 10m]`.
    pub scanned: [u64; 3],
}

/// A resolved series: appends lock only the series itself.
#[derive(Clone)]
pub struct SeriesHandle(Arc<Mutex<Series>>);

impl SeriesHandle {
    /// Append one sample; the outcome goes into the pass's [`IngestTally`].
    pub fn append(&self, ts: i64, v: f64) -> AppendOutcome {
        self.0.lock().append(ts, v)
    }

    /// Timestamp of the newest accepted sample.
    pub fn last_ts(&self) -> Option<i64> {
        self.0.lock().last_ts()
    }
}

/// Store-counter deltas of one ingest pass, added to the store once by
/// [`TsdbStore::record_ingest`].
#[derive(Debug, Default, Clone, Copy)]
pub struct IngestTally {
    ingested: u64,
    rejected: u64,
    chunks_sealed: u64,
    sealed_bytes: u64,
    expired_points: u64,
    expired_bytes: u64,
}

impl IngestTally {
    /// Count one append; true if the sample was accepted.
    pub fn add(&mut self, out: AppendOutcome) -> bool {
        if !out.accepted {
            self.rejected += 1;
            return false;
        }
        self.ingested += 1;
        if let Some(bytes) = out.sealed_bytes {
            self.chunks_sealed += 1;
            self.sealed_bytes += bytes as u64;
        }
        self.expired_points += out.expired_points;
        self.expired_bytes += out.expired_bytes;
        true
    }
}

pub struct TsdbStore {
    policy: RetentionPolicy,
    shards: [Mutex<HashMap<String, SeriesHandle>>; SHARDS],
    counters: StoreCounters,
}

fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % SHARDS as u64) as usize
}

impl Default for TsdbStore {
    fn default() -> TsdbStore {
        TsdbStore::new(RetentionPolicy::default())
    }
}

impl TsdbStore {
    pub fn new(policy: RetentionPolicy) -> TsdbStore {
        TsdbStore {
            policy,
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            counters: StoreCounters::default(),
        }
    }

    pub fn policy(&self) -> RetentionPolicy {
        self.policy
    }

    /// The handle of series `name`, creating the series if it is new. Only
    /// a new series allocates its name.
    pub fn series(&self, name: &str) -> SeriesHandle {
        let mut shard = self.shards[shard_of(name)].lock();
        match shard.get(name) {
            Some(handle) => handle.clone(),
            None => {
                let handle = SeriesHandle(Arc::new(Mutex::new(Series::new(self.policy))));
                shard.insert(name.to_string(), handle.clone());
                handle
            }
        }
    }

    /// Add one pass's appends to the store-wide counters.
    pub fn record_ingest(&self, tally: &IngestTally) {
        let c = &self.counters;
        c.samples_ingested
            .fetch_add(tally.ingested, Ordering::Relaxed);
        c.samples_rejected
            .fetch_add(tally.rejected, Ordering::Relaxed);
        c.chunks_sealed
            .fetch_add(tally.chunks_sealed, Ordering::Relaxed);
        c.compressed_bytes
            .fetch_add(tally.sealed_bytes, Ordering::Relaxed);
        c.expired_points
            .fetch_add(tally.expired_points, Ordering::Relaxed);
        // Expired chunks were sealed (and counted) first, so this cannot
        // underflow.
        c.compressed_bytes
            .fetch_sub(tally.expired_bytes, Ordering::Relaxed);
    }

    /// Drop series `name` and everything it holds; its raw points count as
    /// expired. Returns whether it existed.
    pub fn remove(&self, name: &str) -> bool {
        let Some(handle) = self.shards[shard_of(name)].lock().remove(name) else {
            return false;
        };
        let series = handle.0.lock();
        let c = &self.counters;
        c.expired_points
            .fetch_add(series.raw_points(), Ordering::Relaxed);
        c.compressed_bytes
            .fetch_sub(series.compressed_bytes(), Ordering::Relaxed);
        true
    }

    /// Every series name, sorted.
    pub fn series_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for shard in &self.shards {
            names.extend(shard.lock().keys().cloned());
        }
        names.sort();
        names
    }

    /// The coarsest tier whose bucket width satisfies `resolution_secs`.
    pub fn plan_tier(resolution_secs: i64) -> Tier {
        if resolution_secs >= 600 {
            Tier::TenMinute
        } else if resolution_secs >= 60 {
            Tier::OneMinute
        } else {
            Tier::Raw
        }
    }

    /// Range query over `[start, end]` at the given resolution. Returns the
    /// points plus (tier used, stored points/buckets read). An unknown
    /// series yields an empty result.
    pub fn query_range_counted(
        &self,
        name: &str,
        start: i64,
        end: i64,
        resolution_secs: i64,
    ) -> (Vec<RangePoint>, Tier, u64) {
        let tier = TsdbStore::plan_tier(resolution_secs);
        let handle = self.shards[shard_of(name)].lock().get(name).cloned();
        let (points, scanned) = match handle {
            None => (Vec::new(), 0),
            Some(handle) => match (tier, handle.0.lock()) {
                (Tier::Raw, series) => {
                    let (raw, scanned) = series.query_raw(start, end);
                    let points = raw
                        .into_iter()
                        .map(|(t, v)| RangePoint {
                            t,
                            min: v,
                            max: v,
                            mean: v,
                            count: 1,
                        })
                        .collect();
                    (points, scanned)
                }
                (Tier::OneMinute | Tier::TenMinute, series) => {
                    let width = if tier == Tier::OneMinute { 60 } else { 600 };
                    let (buckets, scanned) = series.query_rollup(width, start, end);
                    let points = buckets
                        .into_iter()
                        .map(|b: Bucket| RangePoint {
                            t: b.start,
                            min: b.min,
                            max: b.max,
                            mean: b.mean(),
                            count: b.count,
                        })
                        .collect();
                    (points, scanned)
                }
            },
        };
        let c = &self.counters;
        c.queries.fetch_add(1, Ordering::Relaxed);
        c.scanned[tier.index()].fetch_add(scanned, Ordering::Relaxed);
        c.points_returned
            .fetch_add(points.len() as u64, Ordering::Relaxed);
        (points, tier, scanned)
    }

    /// [`TsdbStore::query_range_counted`] without the bookkeeping outputs.
    pub fn query_range(
        &self,
        name: &str,
        start: i64,
        end: i64,
        resolution_secs: i64,
    ) -> Vec<RangePoint> {
        self.query_range_counted(name, start, end, resolution_secs)
            .0
    }

    /// Count-weighted mean over `[start, end]`, served from the 1m tier
    /// (whose retention comfortably covers job lifetimes). `None` when the
    /// series is missing or empty in the window.
    pub fn series_mean(&self, name: &str, start: i64, end: i64) -> Option<f64> {
        let points = self.query_range(name, start, end, 60);
        let count: u64 = points.iter().map(|p| p.count).sum();
        if count == 0 {
            return None;
        }
        let sum: f64 = points.iter().map(|p| p.mean * p.count as f64).sum();
        Some(sum / count as f64)
    }

    /// Max over `[start, end]`, from the 1m tier.
    pub fn series_max(&self, name: &str, start: i64, end: i64) -> Option<f64> {
        let points = self.query_range(name, start, end, 60);
        points
            .iter()
            .map(|p| p.max)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Whether the series exists (has ever received a sample).
    pub fn has_series(&self, name: &str) -> bool {
        self.shards[shard_of(name)].lock().contains_key(name)
    }

    pub fn stats(&self) -> StoreStats {
        let c = &self.counters;
        StoreStats {
            series: self.shards.iter().map(|s| s.lock().len() as u64).sum(),
            samples_ingested: c.samples_ingested.load(Ordering::Relaxed),
            samples_rejected: c.samples_rejected.load(Ordering::Relaxed),
            chunks_sealed: c.chunks_sealed.load(Ordering::Relaxed),
            compressed_bytes: c.compressed_bytes.load(Ordering::Relaxed),
            expired_points: c.expired_points.load(Ordering::Relaxed),
            queries: c.queries.load(Ordering::Relaxed),
            points_returned: c.points_returned.load(Ordering::Relaxed),
            scanned: std::array::from_fn(|i| c.scanned[i].load(Ordering::Relaxed)),
        }
    }

    /// Zero the scan/query counters (tests call this between phases).
    /// Ingest totals and byte gauges are left alone.
    pub fn reset_query_counters(&self) {
        let c = &self.counters;
        c.queries.store(0, Ordering::Relaxed);
        c.points_returned.store(0, Ordering::Relaxed);
        for s in &c.scanned {
            s.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_picks_coarsest_satisfying_tier() {
        assert_eq!(TsdbStore::plan_tier(0), Tier::Raw);
        assert_eq!(TsdbStore::plan_tier(30), Tier::Raw);
        assert_eq!(TsdbStore::plan_tier(59), Tier::Raw);
        assert_eq!(TsdbStore::plan_tier(60), Tier::OneMinute);
        assert_eq!(TsdbStore::plan_tier(599), Tier::OneMinute);
        assert_eq!(TsdbStore::plan_tier(600), Tier::TenMinute);
        assert_eq!(TsdbStore::plan_tier(3_600), Tier::TenMinute);
    }

    #[test]
    fn coarse_queries_leave_finer_tiers_untouched() {
        let store = TsdbStore::default();
        // 24h of 30s samples.
        let series = store.series("node:a001:cpu");
        for i in 0..2_880i64 {
            series.append(i * 30, 0.5);
        }
        store.reset_query_counters();
        let (points, tier, scanned) =
            store.query_range_counted("node:a001:cpu", 0, 24 * 3_600, 600);
        assert_eq!(tier, Tier::TenMinute);
        assert!(!points.is_empty());
        assert!(scanned > 0);
        let stats = store.stats();
        assert_eq!(stats.scanned[Tier::Raw.index()], 0, "raw untouched");
        assert_eq!(stats.scanned[Tier::OneMinute.index()], 0, "1m untouched");
        assert!(stats.scanned[Tier::TenMinute.index()] > 0);
    }

    #[test]
    fn mean_and_max_match_ingest() {
        let store = TsdbStore::default();
        let series = store.series("job:1:cpu");
        for i in 0..120i64 {
            let v = if i == 60 { 0.9 } else { 0.4 };
            series.append(i * 30, v);
        }
        let mean = store.series_mean("job:1:cpu", 0, 120 * 30).unwrap();
        let want = (119.0 * 0.4 + 0.9) / 120.0;
        assert!((mean - want).abs() < 1e-9, "mean {mean} want {want}");
        assert_eq!(store.series_max("job:1:cpu", 0, 120 * 30), Some(0.9));
        assert_eq!(store.series_mean("job:1:cpu", 10_000, 20_000), None);
        assert_eq!(store.series_mean("nope", 0, 10), None);
    }

    #[test]
    fn unknown_series_is_empty_not_created() {
        let store = TsdbStore::default();
        assert!(store.query_range("ghost", 0, 100, 0).is_empty());
        assert!(!store.has_series("ghost"));
        assert_eq!(store.stats().series, 0);
    }
}
