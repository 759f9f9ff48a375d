//! The metrics registry: lock-free instruments, pull-time collectors, and a
//! stable-ordered snapshot for exposition.
//!
//! Instrument handles (`Arc<Counter>` etc.) are created once through the
//! registry and then updated with plain atomic operations — the registry
//! lock is only taken at registration and scrape time, never on the hot
//! path.

use crate::trace::TraceId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depths, in-flight requests).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn dec(&self) {
        self.add(-1);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Exponential latency bucket upper bounds, in nanoseconds: 1µs → 10s.
/// The final implicit bucket is +Inf.
pub const BUCKET_BOUNDS_NS: [u64; 21] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    10_000_000_000,
];

const BUCKETS: usize = BUCKET_BOUNDS_NS.len() + 1; // +Inf

/// A fixed-bucket latency histogram. `observe` is wait-free (a few relaxed
/// atomics); quantiles are estimated at read time by linear interpolation
/// inside the bucket that crosses the requested rank, with the tracked
/// exact max clamping the upper tail.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Per-bucket exemplar: the raw bits of a [`TraceId`] for a recent
    /// representative observation in that bucket (0 = none). Written by
    /// whoever observed a traced request (the HTTP router, next to the
    /// observation itself); the trace store keeps every finished trace, so
    /// a non-zero exemplar refers to a trace stored once its root closed.
    exemplars: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn observe_ns(&self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS.partition_point(|&bound| bound < ns);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    pub fn observe(&self, d: std::time::Duration) {
        self.observe_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) in nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let max = self.max_ns();
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lower = if idx == 0 {
                    0
                } else {
                    BUCKET_BOUNDS_NS[idx - 1]
                };
                let upper = if idx < BUCKET_BOUNDS_NS.len() {
                    BUCKET_BOUNDS_NS[idx]
                } else {
                    max.max(lower)
                };
                let into = (rank - seen) as f64 / c as f64;
                let est = lower as f64 + (upper - lower) as f64 * into;
                return (est as u64).min(max);
            }
            seen += c;
        }
        max
    }

    /// Attach `trace` as the exemplar for the bucket an observation of `ns`
    /// lands in. Overwrites the previous exemplar — each bucket keeps the
    /// most *recent* representative, not the worst.
    pub fn set_exemplar(&self, ns: u64, trace: TraceId) {
        let idx = BUCKET_BOUNDS_NS.partition_point(|&bound| bound < ns);
        self.exemplars[idx].store(trace.0, Ordering::Relaxed);
    }

    /// The exemplar stored for bucket `idx`, if any.
    pub fn bucket_exemplar(&self, idx: usize) -> Option<TraceId> {
        let bits = self.exemplars.get(idx)?.load(Ordering::Relaxed);
        (bits != 0).then_some(TraceId(bits))
    }

    /// The bucket index the `q`-quantile rank falls in, or `None` when the
    /// histogram is empty.
    fn quantile_bucket(&self, q: f64) -> Option<usize> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in counts.iter().enumerate() {
            if c > 0 && seen + c >= rank {
                return Some(idx);
            }
            seen += c;
        }
        Some(BUCKETS - 1)
    }

    /// An exemplar trace for the `q`-quantile: the one stored in the bucket
    /// the quantile rank falls in, falling back to the nearest populated
    /// neighbour (first above, then below) so a link is returned whenever
    /// *any* exemplar exists.
    pub fn quantile_exemplar(&self, q: f64) -> Option<TraceId> {
        // An empty histogram can still hold exemplars (written at trace
        // retention); start the fallback scan from the bottom then.
        let at = self.quantile_bucket(q).unwrap_or(0);
        if let Some(t) = self.bucket_exemplar(at) {
            return Some(t);
        }
        for idx in (at + 1)..BUCKETS {
            if let Some(t) = self.bucket_exemplar(idx) {
                return Some(t);
            }
        }
        (0..at).rev().find_map(|idx| self.bucket_exemplar(idx))
    }

    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum_ns: self.sum_ns(),
            p50_ns: self.quantile_ns(0.50),
            p95_ns: self.quantile_ns(0.95),
            p99_ns: self.quantile_ns(0.99),
            max_ns: self.max_ns(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

/// Sorted label set; `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

fn normalize_labels(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

/// One exported time-series value at scrape time.
#[derive(Debug, Clone)]
pub struct Sample {
    pub name: String,
    pub labels: Labels,
    pub value: SampleValue,
    /// For summaries scraped from a live [`Histogram`]: the trace exemplar
    /// nearest the p99 bucket, linking the aggregate to a stored trace.
    /// Only the JSON exposition carries it — the text format stays numeric.
    pub exemplar: Option<TraceId>,
}

impl Sample {
    pub fn counter(name: impl Into<String>, labels: &[(&str, &str)], v: u64) -> Sample {
        Sample {
            name: name.into(),
            labels: normalize_labels(labels),
            value: SampleValue::Counter(v),
            exemplar: None,
        }
    }

    pub fn gauge(name: impl Into<String>, labels: &[(&str, &str)], v: i64) -> Sample {
        Sample {
            name: name.into(),
            labels: normalize_labels(labels),
            value: SampleValue::Gauge(v),
            exemplar: None,
        }
    }

    pub fn summary(
        name: impl Into<String>,
        labels: &[(&str, &str)],
        s: HistogramSummary,
    ) -> Sample {
        Sample {
            name: name.into(),
            labels: normalize_labels(labels),
            value: SampleValue::Summary(s),
            exemplar: None,
        }
    }
}

#[derive(Debug, Clone)]
pub enum SampleValue {
    Counter(u64),
    Gauge(i64),
    Summary(HistogramSummary),
}

type Collector = Box<dyn Fn(&mut Vec<Sample>) + Send + Sync>;

#[derive(Default)]
struct Instruments {
    counters: BTreeMap<(String, Labels), Arc<Counter>>,
    gauges: BTreeMap<(String, Labels), Arc<Gauge>>,
    histograms: BTreeMap<(String, Labels), Arc<Histogram>>,
}

/// The process-wide metrics registry.
#[derive(Default)]
pub struct Registry {
    instruments: Mutex<Instruments>,
    collectors: Mutex<Vec<Collector>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter `(name, labels)`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = (name.to_string(), normalize_labels(labels));
        self.instruments
            .lock()
            .counters
            .entry(key)
            .or_default()
            .clone()
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = (name.to_string(), normalize_labels(labels));
        self.instruments
            .lock()
            .gauges
            .entry(key)
            .or_default()
            .clone()
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = (name.to_string(), normalize_labels(labels));
        self.instruments
            .lock()
            .histograms
            .entry(key)
            .or_default()
            .clone()
    }

    /// Record a duration in the histogram `(name, labels)` — convenience for
    /// one-shot call sites that don't keep the handle around.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], d: std::time::Duration) {
        self.histogram(name, labels).observe(d);
    }

    /// Register a pull-time collector: called at every scrape to append
    /// samples for stats kept outside the registry (cache stats, RPC stats).
    pub fn register_collector(&self, f: impl Fn(&mut Vec<Sample>) + Send + Sync + 'static) {
        self.collectors.lock().push(Box::new(f));
    }

    /// Snapshot every instrument and collector, sorted by `(name, labels)`
    /// so exposition order is stable across scrapes.
    pub fn gather(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        {
            let ins = self.instruments.lock();
            for ((name, labels), c) in &ins.counters {
                out.push(Sample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: SampleValue::Counter(c.get()),
                    exemplar: None,
                });
            }
            for ((name, labels), g) in &ins.gauges {
                out.push(Sample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: SampleValue::Gauge(g.get()),
                    exemplar: None,
                });
            }
            for ((name, labels), h) in &ins.histograms {
                out.push(Sample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: SampleValue::Summary(h.summary()),
                    exemplar: h.quantile_exemplar(0.99),
                });
            }
        }
        for collector in self.collectors.lock().iter() {
            collector(&mut out);
        }
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ins = self.instruments.lock();
        f.debug_struct("Registry")
            .field("counters", &ins.counters.len())
            .field("gauges", &ins.gauges.len())
            .field("histograms", &ins.histograms.len())
            .field("collectors", &self.collectors.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter("hpcdash_test_total", &[("k", "v")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same (name, labels) yields the same instrument.
        assert_eq!(reg.counter("hpcdash_test_total", &[("k", "v")]).get(), 5);
        let g = reg.gauge("hpcdash_test_depth", &[]);
        g.set(7);
        g.dec();
        assert_eq!(g.get(), 6);
    }

    #[test]
    fn label_order_is_irrelevant() {
        let reg = Registry::new();
        reg.counter("m", &[("a", "1"), ("b", "2")]).inc();
        assert_eq!(reg.counter("m", &[("b", "2"), ("a", "1")]).get(), 1);
    }

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = Histogram::default();
        for ms in 1..=100u64 {
            h.observe(Duration::from_millis(ms));
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_ns, 100_000_000);
        // p50 of uniform 1..=100ms should land in tens of ms.
        assert!(
            (20_000_000..=80_000_000).contains(&s.p50_ns),
            "p50 {}",
            s.p50_ns
        );
        assert!(s.p95_ns >= s.p50_ns && s.p99_ns >= s.p95_ns && s.max_ns >= s.p99_ns);
        assert_eq!(s.sum_ns, (1..=100u64).map(|x| x * 1_000_000).sum::<u64>());
    }

    #[test]
    fn exemplars_attach_to_buckets_with_nearest_fallback() {
        let h = Histogram::default();
        assert_eq!(h.quantile_exemplar(0.99), None, "empty histogram");
        for _ in 0..90 {
            h.observe_ns(3_000); // bucket (2µs, 5µs]
        }
        for _ in 0..10 {
            h.observe_ns(80_000_000); // bucket (50ms, 100ms] — the p99 tail
        }
        assert_eq!(
            h.quantile_exemplar(0.99),
            None,
            "observations alone carry no exemplar"
        );
        // Exemplar in a *lower* bucket than p99: nearest-fallback finds it.
        h.set_exemplar(3_000, TraceId(0xaa));
        assert_eq!(h.quantile_exemplar(0.99), Some(TraceId(0xaa)));
        // An exemplar in the p99 bucket itself wins.
        h.set_exemplar(80_000_000, TraceId(0xbb));
        assert_eq!(h.quantile_exemplar(0.99), Some(TraceId(0xbb)));
        assert_eq!(h.quantile_exemplar(0.50), Some(TraceId(0xaa)));
        // Most recent write per bucket sticks.
        h.set_exemplar(80_000_000, TraceId(0xcc));
        assert_eq!(h.quantile_exemplar(0.99), Some(TraceId(0xcc)));
    }

    #[test]
    fn gather_carries_p99_exemplar_for_histograms() {
        let reg = Registry::new();
        let h = reg.histogram("hpcdash_http_request_latency", &[("route", "/x")]);
        h.observe_ns(4_000);
        h.set_exemplar(4_000, TraceId(0x77));
        let samples = reg.gather();
        let s = samples
            .iter()
            .find(|s| s.name == "hpcdash_http_request_latency")
            .expect("summary sample");
        assert_eq!(s.exemplar, Some(TraceId(0x77)));
    }

    #[test]
    fn histogram_empty_and_single() {
        let h = Histogram::default();
        assert_eq!(h.quantile_ns(0.5), 0);
        h.observe_ns(3_000);
        assert_eq!(h.count(), 1);
        let q = h.quantile_ns(0.5);
        assert!(q > 0 && q <= 3_000, "single sample quantile {q}");
    }

    #[test]
    fn gather_is_sorted_and_stable() {
        let reg = Registry::new();
        reg.counter("zzz_total", &[]).inc();
        reg.counter("aaa_total", &[("r", "2")]).inc();
        reg.counter("aaa_total", &[("r", "1")]).inc();
        reg.gauge("mmm", &[]).set(1);
        reg.register_collector(|out| out.push(Sample::counter("ccc_total", &[], 9)));
        let names: Vec<String> = reg
            .gather()
            .iter()
            .map(|s| format!("{}{:?}", s.name, s.labels))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        // Two scrapes agree.
        let again: Vec<String> = reg
            .gather()
            .iter()
            .map(|s| format!("{}{:?}", s.name, s.labels))
            .collect();
        assert_eq!(names, again);
    }

    #[test]
    fn concurrent_updates_from_many_threads_are_exact() {
        // Satellite requirement: >= 8 threads hammering the same counters
        // and histograms; counters must be exact and histogram totals
        // conserved.
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let reg = std::sync::Arc::new(Registry::new());
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("hpcdash_conc_total", &[]);
                let h = reg.histogram("hpcdash_conc_latency", &[]);
                let g = reg.gauge("hpcdash_conc_inflight", &[]);
                for i in 0..PER_THREAD {
                    c.inc();
                    g.inc();
                    h.observe_ns((t as u64 + 1) * 1_000 + i % 7);
                    g.dec();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            reg.counter("hpcdash_conc_total", &[]).get(),
            THREADS as u64 * PER_THREAD
        );
        assert_eq!(reg.gauge("hpcdash_conc_inflight", &[]).get(), 0);
        let h = reg.histogram("hpcdash_conc_latency", &[]);
        assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
        let expected_sum: u64 = (0..THREADS as u64)
            .flat_map(|t| (0..PER_THREAD).map(move |i| (t + 1) * 1_000 + i % 7))
            .sum();
        assert_eq!(h.sum_ns(), expected_sum, "histogram sum conserved");
    }
}
