//! Exact-sample latency collection with percentile summaries.
//!
//! Unlike [`crate::registry::Histogram`] (fixed buckets, wait-free, bounded
//! memory), the recorder keeps every sample, so percentiles are exact. It
//! backs load-generator reports where sample counts are modest and
//! precision matters. [`percentile`] is its index rule.

use parking_lot::Mutex;
use std::time::Duration;

/// Thread-safe latency sample collector.
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    samples_ns: Mutex<Vec<u64>>,
}

/// Summary statistics over recorded samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub count: usize,
    pub mean: Duration,
    pub p50: Duration,
    pub p90: Duration,
    pub p99: Duration,
    pub max: Duration,
}

impl LatencyRecorder {
    pub fn new() -> LatencyRecorder {
        LatencyRecorder::default()
    }

    pub fn record(&self, latency: Duration) {
        self.samples_ns
            .lock()
            .push(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    pub fn count(&self) -> usize {
        self.samples_ns.lock().len()
    }

    /// Percentile over recorded samples (`p` in 0..=1). None when empty.
    pub fn percentile(&self, p: f64) -> Option<Duration> {
        percentile(&self.sorted(), p)
    }

    pub fn summary(&self) -> Option<LatencySummary> {
        let samples = self.sorted();
        let pick = |p: f64| percentile(&samples, p);
        let max = pick(1.0)?;
        let mean_ns = samples.iter().sum::<u64>() / samples.len() as u64;
        Some(LatencySummary {
            count: samples.len(),
            mean: Duration::from_nanos(mean_ns),
            p50: pick(0.50)?,
            p90: pick(0.90)?,
            p99: pick(0.99)?,
            max,
        })
    }

    fn sorted(&self) -> Vec<u64> {
        let mut samples = self.samples_ns.lock().clone();
        samples.sort_unstable();
        samples
    }

    pub fn clear(&self) {
        self.samples_ns.lock().clear();
    }
}

/// The sample at fraction `p` (0..=1, clamped) of an ascending-sorted
/// slice of nanoseconds: index `round((len - 1) * p)`. `None` when empty.
pub fn percentile(sorted_ns: &[u64], p: f64) -> Option<Duration> {
    let last = sorted_ns.len().checked_sub(1)?;
    let idx = (last as f64 * p.clamp(0.0, 1.0)).round() as usize;
    Some(Duration::from_nanos(sorted_ns[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s_of(r: &LatencyRecorder) -> LatencySummary {
        r.summary().expect("samples recorded")
    }

    #[test]
    fn percentiles_ordered() {
        let r = LatencyRecorder::new();
        for i in 1..=1_000u64 {
            r.record(Duration::from_micros(i));
        }
        let s = s_of(&r);
        assert_eq!(s.count, 1_000);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        assert_eq!(s.max, Duration::from_micros(1_000));
        assert_eq!(
            s.p50,
            Duration::from_micros(501),
            "index 500 of 0..1000 after rounding"
        );
    }

    #[test]
    fn percentile_picks_the_rounded_index() {
        let sorted: Vec<u64> = (1..=10).collect();
        let at = |p| percentile(&sorted, p).map(|d| d.as_nanos());
        assert_eq!(at(0.0), Some(1));
        assert_eq!(at(0.5), Some(6), "index round(4.5) = 5");
        assert_eq!(at(0.95), Some(10));
        assert_eq!(at(1.0), Some(10));
        assert_eq!(at(7.0), Some(10), "clamped");
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn empty_summary_is_none() {
        let r = LatencyRecorder::new();
        assert!(r.summary().is_none());
        assert!(r.percentile(0.5).is_none());
    }

    #[test]
    fn single_sample() {
        let r = LatencyRecorder::new();
        r.record(Duration::from_millis(5));
        let s = s_of(&r);
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, Duration::from_millis(5));
        assert_eq!(s.p99, Duration::from_millis(5));
        assert_eq!(s.mean, Duration::from_millis(5));
    }

    #[test]
    fn concurrent_recording() {
        let r = std::sync::Arc::new(LatencyRecorder::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    r.record(Duration::from_nanos(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.count(), 1_000);
        r.clear();
        assert_eq!(r.count(), 0);
    }
}
