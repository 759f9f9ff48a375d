//! The metrics registry: lock-free instruments, pull-time collectors, and a
//! stable-ordered visit for exposition.
//!
//! Instrument handles (`Arc<Counter>` etc.) are created once through the
//! registry and then updated with plain atomic operations — the registry
//! lock is only taken at registration and scrape time, never on the hot
//! path.
//!
//! A scrape ([`Registry::visit`]) lends each sample in `(name, labels)`
//! order: names and labels are borrowed from the instruments, or from a
//! scratch buffer the collectors write into and that every scrape reuses,
//! so a scrape of known instruments allocates nothing.

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

    /// Run `f`, observing its wall time.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = std::time::Instant::now();
        let out = f();
        self.observe(t0.elapsed());
        out
    }

    /// Add `other`'s observations to this histogram; exemplars stay behind.
    pub fn absorb(&self, other: &Histogram) {
        for (into, from) in self.buckets.iter().zip(&other.buckets) {
            into.fetch_add(from.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum_ns.fetch_add(other.sum_ns(), Ordering::Relaxed);
        self.max_ns.fetch_max(other.max_ns(), Ordering::Relaxed);
    }

    /// Forget every observation and exemplar. Not atomic as a whole: an
    /// observation racing the reset may be half kept.
    pub fn reset(&self) {
        for a in self.buckets.iter().chain(&self.exemplars) {
            a.store(0, Ordering::Relaxed);
        }
        for a in [&self.count, &self.sum_ns, &self.max_ns] {
            a.store(0, Ordering::Relaxed);
        }
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

    fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) in nanoseconds.
    pub(crate) fn quantile_ns(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
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
    pub(crate) fn bucket_exemplar(&self, idx: usize) -> Option<TraceId> {
        let bits = self.exemplars.get(idx)?.load(Ordering::Relaxed);
        (bits != 0).then_some(TraceId(bits))
    }

    /// The bucket index the `q`-quantile rank falls in, or `None` when the
    /// histogram is empty.
    fn quantile_bucket(&self, q: f64) -> Option<usize> {
        let counts = self.bucket_counts();
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

#[derive(Debug, Clone, Copy)]
pub enum SampleValue {
    Counter(u64),
    Gauge(i64),
    Summary(HistogramSummary),
}

/// A byte range of [`SampleSink`]'s text.
type Span = (u32, u32);

/// A sample's labels as a scrape lends them, sorted by key then value.
#[derive(Clone, Copy)]
pub struct LabelsRef<'a>(LabelsIn<'a>);

#[derive(Clone, Copy)]
enum LabelsIn<'a> {
    /// An instrument's own label set.
    Owned(&'a [(String, String)]),
    /// Pairs written by a collector into the scratch text.
    Scratch(&'a str, &'a [(Span, Span)]),
}

impl<'a> LabelsRef<'a> {
    /// `(key, value)` pairs, sorted.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &'a str)> + Clone + 'a {
        let (owned, scratch): (&[(String, String)], _) = match self.0 {
            LabelsIn::Owned(pairs) => (pairs, None),
            LabelsIn::Scratch(text, pairs) => (&[], Some((text, pairs))),
        };
        let scratch = scratch.into_iter().flat_map(|(text, pairs)| {
            pairs
                .iter()
                .map(move |&(k, v)| (span(text, k), span(text, v)))
        });
        owned
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(scratch)
    }

    /// The value of label `key`, if the sample has it.
    pub fn get(&self, key: &str) -> Option<&'a str> {
        self.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// An owned copy, as the registry keys its instruments.
    pub fn to_labels(&self) -> Labels {
        self.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }
}

impl std::fmt::Debug for LabelsRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

fn span(text: &str, (from, to): Span) -> &str {
    &text[from as usize..to as usize]
}

/// One exported time-series value, lent for the duration of a visit.
#[derive(Debug, Clone, Copy)]
pub struct SampleRef<'a> {
    pub name: &'a str,
    pub labels: LabelsRef<'a>,
    pub value: SampleValue,
    /// For summaries scraped from a live [`Histogram`]: the trace exemplar
    /// nearest the p99 bucket, linking the aggregate to a stored trace.
    /// Only the JSON exposition carries it — the text format stays numeric.
    pub exemplar: Option<TraceId>,
}

impl<'a> SampleRef<'a> {
    /// The `(name, labels)` order a scrape visits samples in.
    pub fn key_cmp(&self, name: &str, labels: &[(String, String)]) -> std::cmp::Ordering {
        self.name.cmp(name).then_with(|| {
            self.labels
                .iter()
                .cmp(labels.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        })
    }
}

/// One sample a collector wrote: ranges into the sink's text and pairs.
#[derive(Clone, Copy)]
struct Written {
    name: Span,
    /// Range of [`SampleSink::pairs`].
    labels: (u32, u32),
    value: SampleValue,
}

/// Where collectors write their samples during a scrape. Names and labels
/// are copied into one text buffer that every scrape reuses, so a collector
/// writing the samples it wrote last time allocates nothing.
#[derive(Default)]
pub struct SampleSink {
    text: String,
    pairs: Vec<(Span, Span)>,
    written: Vec<Written>,
    /// The previous scrape's text and pairs and its samples' keys: when a
    /// scrape's collectors write the keys they wrote before, the samples
    /// keep their order.
    was_text: String,
    was_pairs: Vec<(Span, Span)>,
    was_keys: Vec<(Span, (u32, u32))>,
}

impl SampleSink {
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.push(name, labels, SampleValue::Counter(v));
    }

    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], v: i64) {
        self.push(name, labels, SampleValue::Gauge(v));
    }

    pub fn summary(&mut self, name: &str, labels: &[(&str, &str)], s: HistogramSummary) {
        self.push(name, labels, SampleValue::Summary(s));
    }

    fn text_span(&mut self, s: &str) -> Span {
        let from = self.text.len() as u32;
        self.text.push_str(s);
        (from, self.text.len() as u32)
    }

    fn push(&mut self, name: &str, labels: &[(&str, &str)], value: SampleValue) {
        let name = self.text_span(name);
        let first = self.pairs.len();
        for (k, v) in labels {
            let pair = (self.text_span(k), self.text_span(v));
            self.pairs.push(pair);
        }
        let text = &self.text;
        self.pairs[first..].sort_unstable_by(|a, b| {
            (span(text, a.0), span(text, a.1)).cmp(&(span(text, b.0), span(text, b.1)))
        });
        self.written.push(Written {
            name,
            labels: (first as u32, self.pairs.len() as u32),
            value,
        });
    }

    /// Whether this scrape wrote the keys, in the order, of the previous.
    fn wrote_as_before(&self) -> bool {
        self.text == self.was_text
            && self.pairs == self.was_pairs
            && self.written.len() == self.was_keys.len()
            && self
                .written
                .iter()
                .zip(&self.was_keys)
                .all(|(w, &key)| (w.name, w.labels) == key)
    }

    /// Keep this scrape's keys to compare the next with, and empty it.
    fn clear(&mut self) {
        self.was_text.clear();
        self.was_text.push_str(&self.text);
        self.was_pairs.clear();
        self.was_pairs.extend_from_slice(&self.pairs);
        self.was_keys.clear();
        let keys = self.written.iter().map(|w| (w.name, w.labels));
        self.was_keys.extend(keys);
        self.text.clear();
        self.pairs.clear();
        self.written.clear();
    }

    fn sample(&self, at: u32) -> SampleRef<'_> {
        let w = &self.written[at as usize];
        SampleRef {
            name: span(&self.text, w.name),
            labels: LabelsRef(LabelsIn::Scratch(
                &self.text,
                &self.pairs[w.labels.0 as usize..w.labels.1 as usize],
            )),
            value: w.value,
            exemplar: None,
        }
    }
}

type Collector = Arc<dyn Fn(&mut SampleSink) + Send + Sync>;

/// An instrument's `(name, labels)`, shared by the registry and the scrapes
/// that lend it.
type Key = Arc<(String, Labels)>;

#[derive(Default)]
struct Instruments {
    counters: BTreeMap<Key, Arc<Counter>>,
    gauges: BTreeMap<Key, Arc<Gauge>>,
    histograms: BTreeMap<Key, Arc<Histogram>>,
    /// Instruments made so far: the set is the same while this is.
    made: u64,
}

/// The instrument `(name, labels)` of `map`, made (and counted in `made`)
/// if it is new.
fn get_or_insert<T: Default>(
    map: &mut BTreeMap<Key, Arc<T>>,
    made: &mut u64,
    name: &str,
    labels: &[(&str, &str)],
) -> Arc<T> {
    let key = (name.to_string(), normalize_labels(labels));
    if let Some(found) = map.get(&key) {
        return found.clone();
    }
    *made += 1;
    map.entry(Arc::new(key)).or_default().clone()
}

/// What a scrape copies out of the registry and what its collectors write,
/// kept between scrapes so that a scrape of known instruments allocates
/// nothing.
#[derive(Default)]
struct Scrape {
    sink: SampleSink,
    /// Every instrument's key and value as the scrape read it: counters,
    /// then gauges, then histograms, each in key order.
    values: Vec<(Key, SampleValue, Option<TraceId>)>,
    /// The order samples are lent in: a position in `values`, or
    /// `values.len()` plus a position in the sink. It holds while the
    /// instrument set and the keys the collectors write stay the same.
    plan: Vec<u32>,
    /// The instrument count `plan` was made for.
    planned_for: Option<u64>,
}

impl Scrape {
    fn sample(&self, at: u32) -> SampleRef<'_> {
        match self.values.get(at as usize) {
            Some(value) => lend(value),
            None => self.sink.sample(at - self.values.len() as u32),
        }
    }

    /// Order every sample by `(name, labels)`; equal keys come counters
    /// first, then gauges, summaries, and collector samples in the order
    /// they were written, which is their order in `values` and the sink.
    fn replan(&mut self) {
        let mut plan = std::mem::take(&mut self.plan);
        plan.clear();
        plan.extend(0..(self.values.len() + self.sink.written.len()) as u32);
        plan.sort_unstable_by(|&a, &b| {
            let (x, y) = (self.sample(a), self.sample(b));
            x.name
                .cmp(y.name)
                .then_with(|| x.labels.iter().cmp(y.labels.iter()))
                .then(a.cmp(&b))
        });
        self.plan = plan;
    }
}

fn lend((key, value, exemplar): &(Key, SampleValue, Option<TraceId>)) -> SampleRef<'_> {
    SampleRef {
        name: &key.0,
        labels: LabelsRef(LabelsIn::Owned(&key.1)),
        value: *value,
        exemplar: *exemplar,
    }
}

/// The process-wide metrics registry.
#[derive(Default)]
pub struct Registry {
    instruments: Mutex<Instruments>,
    collectors: Mutex<Arc<[Collector]>>,
    /// The scratch a scrape takes and puts back; a scrape that finds it
    /// taken by another starts its own.
    scratch: Mutex<Scrape>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter `(name, labels)`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let ins = &mut *self.instruments.lock();
        get_or_insert(&mut ins.counters, &mut ins.made, name, labels)
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let ins = &mut *self.instruments.lock();
        get_or_insert(&mut ins.gauges, &mut ins.made, name, labels)
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let ins = &mut *self.instruments.lock();
        get_or_insert(&mut ins.histograms, &mut ins.made, name, labels)
    }

    /// Record a duration in the histogram `(name, labels)` — convenience for
    /// one-shot call sites that don't keep the handle around.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], d: std::time::Duration) {
        self.histogram(name, labels).observe(d);
    }

    /// Register a pull-time collector: called at every scrape to write
    /// samples for stats kept outside the registry (cache stats, RPC stats).
    pub fn register_collector(&self, f: impl Fn(&mut SampleSink) + Send + Sync + 'static) {
        let mut collectors = self.collectors.lock();
        let f: Collector = Arc::new(f);
        *collectors = collectors.iter().cloned().chain([f]).collect();
    }

    /// Scrape every instrument and collector, handing `f` each sample in
    /// `(name, labels)` order, so exposition order is stable across
    /// scrapes. Samples of equal key come counters first, then gauges,
    /// summaries, and collector samples in the order they were written.
    /// The order is worked out again only when an instrument was made or
    /// the collectors wrote other keys than in the previous scrape.
    /// The instruments are locked only while their values are copied: no
    /// lock is held while a collector or `f` runs, so either may use the
    /// registry, and scrapes run side by side.
    pub fn visit(&self, mut f: impl FnMut(&SampleRef<'_>)) {
        let collectors = self.collectors.lock().clone();
        let mut scrape = std::mem::take(&mut *self.scratch.lock());
        for collector in collectors.iter() {
            collector(&mut scrape.sink);
        }
        let made = {
            let ins = self.instruments.lock();
            let values = &mut scrape.values;
            values.extend(
                ins.counters
                    .iter()
                    .map(|(key, c)| (key.clone(), SampleValue::Counter(c.get()), None)),
            );
            values.extend(
                ins.gauges
                    .iter()
                    .map(|(key, g)| (key.clone(), SampleValue::Gauge(g.get()), None)),
            );
            values.extend(ins.histograms.iter().map(|(key, h)| {
                let summary = SampleValue::Summary(h.summary());
                (key.clone(), summary, h.quantile_exemplar(0.99))
            }));
            ins.made
        };
        if scrape.planned_for != Some(made) || !scrape.sink.wrote_as_before() {
            scrape.replan();
            scrape.planned_for = Some(made);
        }
        for &at in &scrape.plan {
            f(&scrape.sample(at));
        }
        scrape.sink.clear();
        scrape.values.clear();
        *self.scratch.lock() = scrape;
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
    fn visit_carries_p99_exemplar_for_histograms() {
        let reg = Registry::new();
        let h = reg.histogram("hpcdash_http_request_latency", &[("route", "/x")]);
        h.observe_ns(4_000);
        h.set_exemplar(4_000, TraceId(0x77));
        let mut exemplar = None;
        reg.visit(|s| {
            if s.name == "hpcdash_http_request_latency" {
                exemplar = Some(s.exemplar);
            }
        });
        assert_eq!(exemplar, Some(Some(TraceId(0x77))));
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
    fn absorbing_histograms_is_observing_their_samples_in_one() {
        let (a, b, both) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for ns in [800, 3_000, 70_000] {
            a.observe_ns(ns);
            both.observe_ns(ns);
        }
        for ns in [1_500, 9_000_000] {
            b.observe_ns(ns);
            both.observe_ns(ns);
        }
        let all = Histogram::default();
        all.absorb(&a);
        all.absorb(&b);
        assert_eq!(all.summary(), both.summary());
        assert_eq!(all.bucket_counts(), both.bucket_counts());
    }

    #[test]
    fn time_observes_a_closure_and_reset_forgets_everything() {
        let h = Histogram::default();
        let v = h.time(|| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            41 + 1
        });
        assert_eq!(v, 42);
        assert_eq!(h.count(), 1);
        assert!(h.sum_ns() >= 200_000, "measured the sleep");
        assert_eq!(h.max_ns(), h.sum_ns());
        h.set_exemplar(h.max_ns(), TraceId(0x5));
        assert_eq!(h.quantile_exemplar(0.99), Some(TraceId(0x5)));

        h.reset();
        assert_eq!(h.summary(), Histogram::default().summary());
        assert_eq!(h.quantile_exemplar(0.99), None);
        assert_eq!(h.bucket_counts(), [0; BUCKETS]);
        h.observe_ns(3_000);
        assert_eq!((h.count(), h.sum_ns(), h.max_ns()), (1, 3_000, 3_000));
    }

    #[test]
    fn visit_is_sorted_and_stable() {
        let reg = Registry::new();
        reg.counter("zzz_total", &[]).inc();
        reg.counter("aaa_total", &[("r", "2")]).inc();
        reg.counter("aaa_total", &[("r", "1")]).inc();
        reg.gauge("mmm", &[]).set(1);
        reg.register_collector(|out| {
            out.counter("ccc_total", &[("z", "1"), ("a", "2")], 9);
            out.counter("aaa_total", &[("r", "0")], 3);
        });
        let keys = |reg: &Registry| {
            let mut keys = Vec::new();
            reg.visit(|s| keys.push((s.name.to_string(), s.labels.to_labels())));
            keys
        };
        let names = keys(&reg);
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(names.len(), 6);
        assert_eq!(
            names[0],
            (
                "aaa_total".to_string(),
                vec![("r".to_string(), "0".to_string())]
            )
        );
        // A collector's labels are sorted as an instrument's are.
        assert_eq!(names[3].1[0].0, "a");
        // Two scrapes agree.
        assert_eq!(names, keys(&reg));
    }

    /// A scrape lends samples in key order whether the collectors write
    /// the keys of the previous scrape, other keys, or the same keys with
    /// other labels, and after an instrument is made.
    #[test]
    fn the_order_follows_new_keys_and_instruments() {
        let reg = Registry::new();
        reg.counter("m_total", &[("k", "2")]).inc();
        let pass = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen = pass.clone();
        reg.register_collector(move |out| match seen.fetch_add(1, Ordering::Relaxed) {
            0 | 1 => {
                out.counter("z_total", &[], 1);
                out.counter("m_total", &[("k", "3")], 1);
            }
            2 => out.counter("m_total", &[("k", "1")], 1),
            _ => {
                out.counter("m_total", &[("k", "4")], 1);
                out.counter("a_total", &[], 1);
            }
        });
        let keys = |reg: &Registry| {
            let mut keys = Vec::new();
            reg.visit(|s| keys.push(format!("{}{:?}", s.name, s.labels)));
            keys
        };
        let m = |k: &str| format!("m_total[(\"k\", \"{k}\")]");
        assert_eq!(keys(&reg), [m("2"), m("3"), "z_total[]".to_string()]);
        assert_eq!(keys(&reg), [m("2"), m("3"), "z_total[]".to_string()]);
        assert_eq!(keys(&reg), [m("1"), m("2")]);
        reg.counter("b_total", &[]).inc();
        assert_eq!(
            keys(&reg),
            [
                "a_total[]".to_string(),
                "b_total[]".to_string(),
                m("2"),
                m("4")
            ]
        );
        reg.counter("m_total", &[("k", "5")]).inc();
        assert_eq!(
            keys(&reg),
            [
                "a_total[]".to_string(),
                "b_total[]".to_string(),
                m("2"),
                m("4"),
                m("5")
            ]
        );
    }

    /// A scrape's callback and a collector may make and bump instruments,
    /// and a callback may scrape again, without a deadlock.
    #[test]
    fn scrape_callbacks_and_collectors_may_use_the_registry() {
        let reg = Arc::new(Registry::new());
        reg.counter("aaa_total", &[]).inc();
        let weak = Arc::downgrade(&reg);
        reg.register_collector(move |out| {
            let reg = weak.upgrade().expect("scraped through a live registry");
            reg.counter("made_by_collector_total", &[]).inc();
            out.gauge("bbb", &[], 1);
        });
        let (done, finished) = std::sync::mpsc::channel();
        let scraper = reg.clone();
        std::thread::spawn(move || {
            let (mut outer, mut inner) = (0, 0);
            scraper.visit(|_| {
                outer += 1;
                scraper.counter("made_in_visit_total", &[]).inc();
                scraper.visit(|_| inner += 1);
            });
            done.send((outer, inner)).expect("the test waits");
        });
        let (outer, inner) = finished
            .recv_timeout(Duration::from_secs(10))
            .expect("a re-entrant scrape finishes");
        // The first scrape saw `aaa_total` and `bbb`; the collector made
        // its counter before the instruments were read.
        assert_eq!(outer, 3);
        assert!(inner >= 3 * outer);
        assert_eq!(reg.counter("made_in_visit_total", &[]).get(), 3);
        assert_eq!(reg.counter("made_by_collector_total", &[]).get(), 4);
    }

    /// A scrape waiting in its callback does not hold up another.
    #[test]
    fn scrapes_run_side_by_side() {
        let reg = Arc::new(Registry::new());
        reg.counter("a_total", &[]).inc();
        reg.register_collector(|out| out.counter("b_total", &[], 2));
        let (started, start) = std::sync::mpsc::channel();
        let (done, finished) = std::sync::mpsc::channel();
        let other = {
            let reg = reg.clone();
            std::thread::spawn(move || {
                start.recv().expect("the first scrape started");
                let mut n = 0;
                reg.visit(|_| n += 1);
                done.send(n).expect("the first scrape waits");
            })
        };
        let mut seen = Vec::new();
        reg.visit(|s| {
            if seen.is_empty() {
                started.send(()).expect("the other scrape waits");
                let n = finished
                    .recv_timeout(Duration::from_secs(10))
                    .expect("the other scrape finished meanwhile");
                assert_eq!(n, 2);
            }
            seen.push(s.name.to_string());
        });
        other.join().expect("the other scrape");
        assert_eq!(seen, ["a_total", "b_total"]);
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
