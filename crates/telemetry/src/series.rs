//! One metric series: an open raw buffer, sealed compressed chunks, and
//! fixed-window rollup tiers (1m and 10m) maintained incrementally on
//! append. Retention trims each tier independently, so raw points live for
//! hours while 10m rollups cover days.

use crate::codec;
use std::collections::VecDeque;

/// How long each tier keeps data and when raw chunks seal.
#[derive(Debug, Clone, Copy)]
pub struct RetentionPolicy {
    /// Raw samples kept this many seconds behind the newest append.
    pub raw_secs: i64,
    /// 1-minute rollup retention.
    pub rollup_1m_secs: i64,
    /// 10-minute rollup retention.
    pub rollup_10m_secs: i64,
    /// Open-buffer samples per sealed (compressed) chunk.
    pub chunk_samples: usize,
}

impl Default for RetentionPolicy {
    fn default() -> RetentionPolicy {
        RetentionPolicy {
            raw_secs: 2 * 3_600,
            rollup_1m_secs: 26 * 3_600,
            rollup_10m_secs: 7 * 24 * 3_600,
            chunk_samples: 128,
        }
    }
}

/// One fixed-window aggregate.
#[derive(Debug, Clone, Copy)]
pub struct Bucket {
    /// Window start, aligned to the tier width.
    pub start: i64,
    pub min: f64,
    pub max: f64,
    pub sum: f64,
    pub count: u64,
}

impl Bucket {
    fn seed(start: i64, v: f64) -> Bucket {
        Bucket {
            start,
            min: v,
            max: v,
            sum: v,
            count: 1,
        }
    }

    fn absorb_point(&mut self, v: f64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
        self.count += 1;
    }

    fn absorb_bucket(&mut self, b: &Bucket) {
        self.min = self.min.min(b.min);
        self.max = self.max.max(b.max);
        self.sum += b.sum;
        self.count += b.count;
    }

    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }
}

/// A sealed, compressed run of raw samples.
struct Chunk {
    start: i64,
    end: i64,
    count: u32,
    bytes: Vec<u8>,
}

struct RollupTier {
    width: i64,
    open: Option<Bucket>,
    closed: VecDeque<Bucket>,
}

impl RollupTier {
    fn new(width: i64) -> RollupTier {
        RollupTier {
            width,
            open: None,
            closed: VecDeque::new(),
        }
    }

    fn align(&self, ts: i64) -> i64 {
        ts - ts.rem_euclid(self.width)
    }

    /// The open bucket, if `ts` falls inside it. Appends only move forward,
    /// so `ts` is never before its start and no division is needed.
    fn open_holding(&mut self, ts: i64) -> Option<&mut Bucket> {
        let width = self.width as u64;
        self.open
            .as_mut()
            .filter(|b| (ts.wrapping_sub(b.start) as u64) < width)
    }

    /// Buckets overlapping `[start, end]` (closed then the open one), plus
    /// how many buckets were read.
    fn query(&self, start: i64, end: i64) -> (Vec<Bucket>, u64) {
        let mut out: Vec<Bucket> = self
            .closed
            .iter()
            .filter(|b| b.start <= end && b.start + self.width > start)
            .copied()
            .collect();
        if let Some(b) = &self.open {
            if b.start <= end && b.start + self.width > start {
                out.push(*b);
            }
        }
        let scanned = out.len() as u64;
        (out, scanned)
    }
}

/// What one append did to the series (feeds store-level counters).
#[derive(Debug, Default, Clone, Copy)]
pub struct AppendOutcome {
    pub accepted: bool,
    /// Compressed size of a chunk sealed by this append, if any.
    pub sealed_bytes: Option<usize>,
    /// Raw points dropped by retention.
    pub expired_points: u64,
    /// Compressed bytes freed by retention.
    pub expired_bytes: u64,
}

pub struct Series {
    policy: RetentionPolicy,
    open: Vec<(i64, f64)>,
    chunks: VecDeque<Chunk>,
    one_m: RollupTier,
    ten_m: RollupTier,
    last_ts: Option<i64>,
    /// The first append time at which retention drops something: the
    /// earliest expiry of the oldest chunk and the oldest closed buckets.
    /// Appends before it skip the retention walk, which would read the
    /// oldest, least recently touched entries.
    expire_at: i64,
}

impl Series {
    pub fn new(policy: RetentionPolicy) -> Series {
        Series {
            policy,
            open: Vec::new(),
            chunks: VecDeque::new(),
            one_m: RollupTier::new(60),
            ten_m: RollupTier::new(600),
            last_ts: None,
            expire_at: i64::MAX,
        }
    }

    /// Append one sample. Out-of-order or duplicate timestamps are rejected
    /// (collectors only ever move forward; a rejected sample means a clock
    /// bug, and the store counts them).
    pub fn append(&mut self, ts: i64, v: f64) -> AppendOutcome {
        let mut out = AppendOutcome::default();
        if self.last_ts.is_some_and(|last| ts <= last) {
            return out;
        }
        out.accepted = true;
        self.last_ts = Some(ts);
        self.open.push((ts, v));
        self.roll_1m(ts, v);
        if self.open.len() >= self.policy.chunk_samples {
            let bytes = codec::compress(&self.open);
            out.sealed_bytes = Some(bytes.len());
            self.expires(ts, 0, self.policy.raw_secs);
            self.chunks.push_back(Chunk {
                start: self.open[0].0,
                end: ts,
                count: self.open.len() as u32,
                bytes,
            });
            self.open.clear();
        }
        if ts >= self.expire_at {
            self.expire(ts, &mut out);
        }
        out
    }

    /// Note an entry ending at `end + width` that retention drops once it
    /// is more than `keep` seconds old.
    fn expires(&mut self, end: i64, width: i64, keep: i64) {
        let at = end
            .saturating_add(width)
            .saturating_add(keep)
            .saturating_add(1);
        self.expire_at = self.expire_at.min(at);
    }

    fn roll_1m(&mut self, ts: i64, v: f64) {
        if let Some(open) = self.one_m.open_holding(ts) {
            open.absorb_point(v);
            return;
        }
        let start = self.one_m.align(ts);
        if let Some(closed) = self.one_m.open.take() {
            self.expires(closed.start, self.one_m.width, self.policy.rollup_1m_secs);
            self.one_m.closed.push_back(closed);
            self.roll_10m(&closed);
        }
        self.one_m.open = Some(Bucket::seed(start, v));
    }

    /// Cascade a closed 1m bucket into the 10m tier.
    fn roll_10m(&mut self, b: &Bucket) {
        if let Some(open) = self.ten_m.open_holding(b.start) {
            open.absorb_bucket(b);
            return;
        }
        let start = self.ten_m.align(b.start);
        if let Some(closed) = self.ten_m.open.take() {
            self.expires(closed.start, self.ten_m.width, self.policy.rollup_10m_secs);
            self.ten_m.closed.push_back(closed);
        }
        self.ten_m.open = Some(Bucket { start, ..*b });
    }

    fn expire(&mut self, now: i64, out: &mut AppendOutcome) {
        let raw_floor = now.saturating_sub(self.policy.raw_secs);
        while let Some(c) = self.chunks.front() {
            if c.end >= raw_floor {
                break;
            }
            out.expired_points += u64::from(c.count);
            out.expired_bytes += c.bytes.len() as u64;
            self.chunks.pop_front();
        }
        for (tier, keep) in [
            (&mut self.one_m, self.policy.rollup_1m_secs),
            (&mut self.ten_m, self.policy.rollup_10m_secs),
        ] {
            let floor = now.saturating_sub(keep);
            while let Some(b) = tier.closed.front() {
                if b.start + tier.width >= floor {
                    break;
                }
                tier.closed.pop_front();
            }
        }
        let p = self.policy;
        let oldest = [
            self.chunks.front().map(|c| (c.end, 0, p.raw_secs)),
            self.one_m
                .closed
                .front()
                .map(|b| (b.start, self.one_m.width, p.rollup_1m_secs)),
            self.ten_m
                .closed
                .front()
                .map(|b| (b.start, self.ten_m.width, p.rollup_10m_secs)),
        ];
        self.expire_at = i64::MAX;
        for (end, width, keep) in oldest.into_iter().flatten() {
            self.expires(end, width, keep);
        }
    }

    /// Raw points in `[start, end]`, plus how many stored points were
    /// decoded/examined to produce them.
    pub fn query_raw(&self, start: i64, end: i64) -> (Vec<(i64, f64)>, u64) {
        let mut points = Vec::new();
        let mut scanned = 0u64;
        for c in &self.chunks {
            if c.end < start || c.start > end {
                continue;
            }
            scanned += u64::from(c.count);
            if let Some(decoded) = codec::decompress(&c.bytes) {
                points.extend(decoded.into_iter().filter(|&(t, _)| start <= t && t <= end));
            }
        }
        let open_overlaps = self
            .open
            .first()
            .zip(self.open.last())
            .is_some_and(|(&(lo, _), &(hi, _))| hi >= start && lo <= end);
        if open_overlaps {
            scanned += self.open.len() as u64;
            points.extend(
                self.open
                    .iter()
                    .filter(|&&(t, _)| start <= t && t <= end)
                    .copied(),
            );
        }
        (points, scanned)
    }

    /// Rollup buckets overlapping `[start, end]` from the 1m or 10m tier.
    pub fn query_rollup(&self, width: i64, start: i64, end: i64) -> (Vec<Bucket>, u64) {
        if width >= self.ten_m.width {
            self.ten_m.query(start, end)
        } else {
            self.one_m.query(start, end)
        }
    }

    /// Raw points held: sealed chunks plus the open buffer.
    pub fn raw_points(&self) -> u64 {
        self.chunks.iter().map(|c| u64::from(c.count)).sum::<u64>() + self.open.len() as u64
    }

    pub fn compressed_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.bytes.len() as u64).sum()
    }

    pub fn last_ts(&self) -> Option<i64> {
        self.last_ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RetentionPolicy {
        RetentionPolicy {
            chunk_samples: 8,
            ..RetentionPolicy::default()
        }
    }

    #[test]
    fn append_seal_and_query_raw() {
        let mut s = Series::new(policy());
        for i in 0..20i64 {
            let out = s.append(i * 30, i as f64);
            assert!(out.accepted);
        }
        // 20 samples, chunk size 8: two sealed chunks + 4 open points.
        let (points, scanned) = s.query_raw(0, 19 * 30);
        assert_eq!(points.len(), 20);
        assert_eq!(scanned, 20);
        assert_eq!(points[7], (7 * 30, 7.0));
        // A narrow window only decodes the overlapping chunk.
        let (points, scanned) = s.query_raw(0, 60);
        assert_eq!(points.len(), 3);
        assert_eq!(scanned, 8);
    }

    #[test]
    fn rejects_out_of_order() {
        let mut s = Series::new(policy());
        assert!(s.append(100, 1.0).accepted);
        assert!(!s.append(100, 2.0).accepted);
        assert!(!s.append(50, 2.0).accepted);
        assert!(s.append(101, 2.0).accepted);
    }

    #[test]
    fn rollups_aggregate_minutes() {
        let mut s = Series::new(policy());
        // Two full minutes at 10s cadence, values 0..11.
        for i in 0..12i64 {
            s.append(i * 10, i as f64);
        }
        let (buckets, scanned) = s.query_rollup(60, 0, 119);
        assert_eq!(buckets.len(), 2);
        assert_eq!(scanned, 2);
        assert_eq!(buckets[0].start, 0);
        assert_eq!(buckets[0].count, 6);
        assert_eq!(buckets[0].min, 0.0);
        assert_eq!(buckets[0].max, 5.0);
        assert!((buckets[0].mean() - 2.5).abs() < 1e-12);
        // The second minute is still the open bucket but is returned.
        assert_eq!(buckets[1].start, 60);
        assert_eq!(buckets[1].count, 6);
    }

    #[test]
    fn ten_minute_tier_cascades() {
        let mut s = Series::new(policy());
        // 25 minutes at 30s cadence: the first two 10m windows close.
        for i in 0..50i64 {
            s.append(i * 30, 1.0);
        }
        let (buckets, _) = s.query_rollup(600, 0, 50 * 30);
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].start, 0);
        assert_eq!(buckets[0].count, 20);
        assert_eq!(buckets[1].start, 600);
        assert_eq!(buckets[2].start, 1200);
    }

    /// Skipping the retention walk until something is due changes nothing:
    /// after every append each tier holds exactly the entries inside its
    /// window.
    #[test]
    fn retention_holds_exactly_its_window_after_every_append() {
        // Chunks seal often, or never: rollups expire on their own clock.
        for chunk_samples in [8, usize::MAX] {
            retention_holds_its_window(RetentionPolicy {
                raw_secs: 600,
                rollup_1m_secs: 1_800,
                rollup_10m_secs: 3_600,
                chunk_samples,
            });
        }
    }

    fn retention_holds_its_window(policy: RetentionPolicy) {
        let mut s = Series::new(policy);
        let mut ends = Vec::new();
        for i in 0..2_000i64 {
            let ts = i * 30 + i % 7;
            s.append(ts, 0.5);
            if s.open.is_empty() {
                ends.push(ts);
            }
            let kept = ends
                .iter()
                .filter(|&&end| end >= ts - policy.raw_secs)
                .count();
            assert_eq!(s.chunks.len(), kept, "chunks at {ts}");
            for (tier, keep) in [
                (&s.one_m, policy.rollup_1m_secs),
                (&s.ten_m, policy.rollup_10m_secs),
            ] {
                // Every minute has a sample, so closed buckets are
                // contiguous: the oldest kept is the first that still
                // ends inside the window.
                let w = tier.width;
                let want = ((ts - keep - w).max(0) + w - 1) / w * w;
                if let Some(first) = tier.closed.front() {
                    assert_eq!(first.start, want, "{w}s tier at {ts}");
                }
            }
        }
    }

    #[test]
    fn retention_drops_old_raw_but_keeps_rollups() {
        let mut s = Series::new(RetentionPolicy {
            raw_secs: 600,
            chunk_samples: 8,
            ..RetentionPolicy::default()
        });
        let mut expired = 0;
        for i in 0..200i64 {
            expired += s.append(i * 30, 0.5).expired_points;
        }
        assert!(expired > 0, "old chunks must expire");
        let (points, _) = s.query_raw(0, 1_000);
        assert!(points.is_empty(), "expired window returns no raw points");
        let (buckets, _) = s.query_rollup(60, 0, 1_000);
        assert!(!buckets.is_empty(), "rollups outlive raw retention");
    }
}
