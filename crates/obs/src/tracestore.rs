//! Tail-sampled trace retention: assemble [`SpanRecord`]s into complete
//! traces at root-span close, then decide — with the whole trace in hand —
//! whether it is worth keeping.
//!
//! Head sampling throws traces away before knowing how they end; the flat
//! [`TraceSink`](crate::trace::TraceSink) ring keeps everything but evicts
//! blindly. The store sits between: every trace that **errored** or served
//! **degraded** (stale) data is retained, every trace **slower** than a
//! per-route latency threshold learned from recent traffic is retained,
//! and the healthy rest is thinned to a deterministic 1-in-N sample. Each
//! retention cause keeps its own counter, and both the pending-assembly
//! and retained sets are bounded.
//!
//! Retention is also where histogram **exemplars** are written: the root
//! duration of a kept trace is stamped into the matching bucket of the
//! route-latency histogram, so a non-zero exemplar always resolves to a
//! trace the store actually holds (an observe-time exemplar would almost
//! always point at a discarded trace).

use crate::registry::Registry;
use crate::trace::{current_trace, SpanRecord, TraceId};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The histogram family exemplars are written into — the per-route request
/// latency recorded by the HTTP router.
pub const ROUTE_LATENCY_METRIC: &str = "hpcdash_http_request_latency";

/// Why a trace was kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetainCause {
    /// The request errored (5xx status, or the source load failed outright).
    Error,
    /// The request was served degraded/stale data.
    Degraded,
    /// Slower than the learned per-route latency threshold.
    Slow,
    /// The deterministic 1-in-N sample of the healthy rest.
    Sampled,
}

impl RetainCause {
    pub const ALL: [RetainCause; 4] = [
        RetainCause::Error,
        RetainCause::Degraded,
        RetainCause::Slow,
        RetainCause::Sampled,
    ];

    pub fn label(self) -> &'static str {
        match self {
            RetainCause::Error => "error",
            RetainCause::Degraded => "degraded",
            RetainCause::Slow => "slow",
            RetainCause::Sampled => "sampled",
        }
    }

    pub fn index(self) -> usize {
        match self {
            RetainCause::Error => 0,
            RetainCause::Degraded => 1,
            RetainCause::Slow => 2,
            RetainCause::Sampled => 3,
        }
    }
}

/// Retention policy knobs. Defaults bound memory to a few hundred traces.
#[derive(Debug, Clone)]
pub struct TraceStoreConfig {
    /// Retained traces kept (FIFO eviction beyond this).
    pub capacity: usize,
    /// In-flight (unfinished) traces assembled at once.
    pub max_pending: usize,
    /// Spans kept per trace; extras mark the trace truncated.
    pub max_spans_per_trace: usize,
    /// Healthy traces kept at 1-in-N. 0 disables healthy sampling.
    pub healthy_sample_rate: u64,
    /// Quantile of recent per-route latency that defines "slow".
    pub slow_quantile: f64,
    /// Per-route samples required before the slow threshold activates.
    pub slow_min_samples: usize,
    /// The slow threshold never drops below this (ns), so routes with
    /// uniformly fast traffic don't retain everything.
    pub slow_floor_ns: u64,
    /// Per-route sample window: the slow threshold is recomputed (and the
    /// window drained) each time it fills, so the threshold tracks *recent*
    /// traffic, memory stays bounded, and the span record path never sorts —
    /// the percentile cost is amortized over the whole window.
    pub threshold_window: usize,
    /// Offsets the healthy-sample phase; same seed + same stream ⇒ same
    /// retained set.
    pub seed: u64,
}

impl Default for TraceStoreConfig {
    fn default() -> TraceStoreConfig {
        TraceStoreConfig {
            capacity: 512,
            max_pending: 256,
            max_spans_per_trace: 64,
            healthy_sample_rate: 16,
            slow_quantile: 0.99,
            slow_min_samples: 64,
            slow_floor_ns: 50_000_000,
            threshold_window: 512,
            seed: 0x5eed,
        }
    }
}

/// A fully assembled, retained trace.
#[derive(Debug, Clone)]
pub struct StoredTrace {
    pub id: TraceId,
    pub cause: RetainCause,
    /// Spans in start (seq) order: root hop first.
    pub spans: Vec<SpanRecord>,
    /// Request-level annotations (`status`, `route`, `outcome`, ...).
    pub notes: Vec<(String, String)>,
    /// Duration of the root span that closed the trace.
    pub root_dur_ns: u64,
    pub route: Option<String>,
    /// Spans beyond `max_spans_per_trace` were dropped.
    pub truncated: bool,
}

impl StoredTrace {
    pub fn note(&self, key: &str) -> Option<&str> {
        self.notes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Running totals; all monotonic except the two `_current` sizes.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceStoreStats {
    /// Traces whose root span closed (retained + discarded).
    pub finalized: u64,
    /// Retentions by cause, indexed by [`RetainCause::index`].
    pub retained_by_cause: [u64; 4],
    /// Healthy traces dropped by the 1-in-N sampler.
    pub discarded: u64,
    /// Retained traces evicted FIFO to stay within capacity.
    pub evicted: u64,
    /// In-flight traces dropped because assembly overflowed.
    pub pending_evicted: u64,
    /// Spans that arrived after their trace was already finalized.
    pub late_spans: u64,
    pub retained_current: usize,
    pub pending_current: usize,
}

impl TraceStoreStats {
    pub fn retained_total(&self) -> u64 {
        self.retained_by_cause.iter().sum()
    }
}

#[derive(Default)]
struct Pending {
    spans: Vec<SpanRecord>,
    notes: Vec<(String, String)>,
    truncated: bool,
}

impl Pending {
    fn note(&self, key: &str) -> Option<&str> {
        self.notes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Per-route slow-threshold state. The threshold is a *cached* quantile:
/// recomputed when the window first reaches `slow_min_samples` and then each
/// time it fills `threshold_window` (which drains the window), never on the
/// per-span path — a root close only pushes one sample and reads the cache.
#[derive(Default)]
struct RouteLat {
    window: Vec<u64>,
    thr: Option<u64>,
}

#[derive(Default)]
struct Inner {
    pending: HashMap<u64, Pending>,
    pending_order: VecDeque<u64>,
    retained: HashMap<u64, StoredTrace>,
    retained_order: VecDeque<u64>,
    /// Recently finalized-and-discarded ids: late spans for them (the
    /// in-process client's root closes after the server's) are dropped
    /// rather than re-assembled into a one-span ghost trace.
    discarded_recent: HashSet<u64>,
    discarded_order: VecDeque<u64>,
    /// Per-route recent latencies feeding the slow threshold.
    route_lat: HashMap<String, RouteLat>,
    healthy_seen: u64,
}

/// The tail-sampling store. One global instance (see [`store`]) observes
/// every span close; local instances back deterministic tests.
pub struct TraceStore {
    cfg: TraceStoreConfig,
    inner: Mutex<Inner>,
    /// Exemplar target; attached by the dashboard context at startup.
    registry: Mutex<Option<Arc<Registry>>>,
    finalized: AtomicU64,
    retained_counts: [AtomicU64; 4],
    discarded: AtomicU64,
    evicted: AtomicU64,
    pending_evicted: AtomicU64,
    late_spans: AtomicU64,
}

impl Default for TraceStore {
    fn default() -> TraceStore {
        TraceStore::new(TraceStoreConfig::default())
    }
}

impl TraceStore {
    pub fn new(cfg: TraceStoreConfig) -> TraceStore {
        TraceStore {
            cfg,
            inner: Mutex::new(Inner::default()),
            registry: Mutex::new(None),
            finalized: AtomicU64::new(0),
            retained_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            discarded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            pending_evicted: AtomicU64::new(0),
            late_spans: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &TraceStoreConfig {
        &self.cfg
    }

    /// Attach the registry that retained traces stamp exemplars into.
    pub fn set_registry(&self, registry: &Arc<Registry>) {
        *self.registry.lock() = Some(registry.clone());
    }

    /// Observe one completed span. Called from `Span::drop` for the global
    /// instance; tests feed synthetic records directly.
    pub fn observe(&self, rec: &SpanRecord) {
        let Some(id) = rec.trace else { return };
        let exemplar = {
            let mut inner = self.inner.lock();
            // Late span for an already-retained trace: append in place.
            if let Some(t) = inner.retained.get_mut(&id.0) {
                if t.spans.len() < self.cfg.max_spans_per_trace {
                    t.spans.push(rec.clone());
                    t.spans.sort_by_key(|r| r.seq);
                } else {
                    t.truncated = true;
                }
                self.late_spans.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // Late span for a trace already finalized and discarded.
            if inner.discarded_recent.contains(&id.0) {
                self.late_spans.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if rec.depth == 0 {
                // Root close: the trace is complete. The single-span case
                // (no children, no annotations) decides retention straight
                // from the borrowed record — no clone unless it is kept —
                // which is the overwhelmingly common healthy-traffic path.
                match inner.pending.remove(&id.0) {
                    Some(mut p) => {
                        if p.spans.len() < self.cfg.max_spans_per_trace {
                            p.spans.push(rec.clone());
                        } else {
                            p.truncated = true;
                        }
                        self.finalize_locked(&mut inner, id, p, rec.dur_ns)
                    }
                    None => self.finalize_single_locked(&mut inner, id, rec),
                }
            } else {
                let p = Self::pending_entry(
                    &mut inner,
                    id.0,
                    self.cfg.max_pending,
                    &self.pending_evicted,
                );
                if p.spans.len() < self.cfg.max_spans_per_trace {
                    p.spans.push(rec.clone());
                } else {
                    p.truncated = true;
                }
                None
            }
        };
        // Exemplars are written outside the store lock.
        if let Some((route, dur_ns)) = exemplar {
            if let Some(reg) = self.registry.lock().clone() {
                reg.histogram(ROUTE_LATENCY_METRIC, &[("route", &route)])
                    .set_exemplar(dur_ns, id);
            }
        }
    }

    /// Attach a request-level note to the trace active on this thread.
    pub fn annotate_current(&self, key: &str, value: impl Into<String>) {
        if let Some(id) = current_trace() {
            self.annotate_trace(id, key, value);
        }
    }

    /// Attach a request-level note to `id` (pending or retained).
    pub fn annotate_trace(&self, id: TraceId, key: &str, value: impl Into<String>) {
        let mut inner = self.inner.lock();
        if let Some(t) = inner.retained.get_mut(&id.0) {
            t.notes.push((key.to_string(), value.into()));
            return;
        }
        if inner.discarded_recent.contains(&id.0) {
            return;
        }
        let p = Self::pending_entry(
            &mut inner,
            id.0,
            self.cfg.max_pending,
            &self.pending_evicted,
        );
        p.notes.push((key.to_string(), value.into()));
    }

    fn pending_entry<'a>(
        inner: &'a mut Inner,
        id: u64,
        max_pending: usize,
        pending_evicted: &AtomicU64,
    ) -> &'a mut Pending {
        if !inner.pending.contains_key(&id) {
            while inner.pending.len() >= max_pending {
                match inner.pending_order.pop_front() {
                    Some(old) => {
                        if inner.pending.remove(&old).is_some() {
                            pending_evicted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    None => break,
                }
            }
            inner.pending_order.push_back(id);
        }
        inner.pending.entry(id).or_default()
    }

    /// Decide the trace's fate. Returns the `(route, root_dur_ns)` exemplar
    /// write to perform after the lock is released, if the trace was kept
    /// on a route.
    fn finalize_locked(
        &self,
        inner: &mut Inner,
        id: TraceId,
        pending: Pending,
        root_dur_ns: u64,
    ) -> Option<(String, u64)> {
        self.finalized.fetch_add(1, Ordering::Relaxed);
        let route = pending.note("route").map(str::to_string).or_else(|| {
            pending
                .spans
                .iter()
                .find_map(|s| s.attr("route").map(str::to_string))
        });
        let errored = pending
            .note("status")
            .and_then(|s| s.parse::<u16>().ok())
            .is_some_and(|s| s >= 500)
            || pending.note("outcome") == Some("failed");
        let degraded = pending.note("outcome") == Some("degraded");
        let slow = route
            .as_deref()
            .and_then(|r| inner.route_lat.get(r).and_then(|rl| rl.thr))
            .is_some_and(|thr| root_dur_ns > thr);
        let cause = if errored {
            Some(RetainCause::Error)
        } else if degraded {
            Some(RetainCause::Degraded)
        } else if slow {
            Some(RetainCause::Slow)
        } else {
            self.sample_healthy_locked(inner)
        };
        // Feed the route window *after* deciding, so the threshold only
        // ever reflects traffic that came before this trace — a property
        // the determinism tests rely on.
        if let Some(r) = &route {
            self.feed_route_lat_locked(inner, r, root_dur_ns);
        }
        let Some(cause) = cause else {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            Self::remember_discarded(inner, id.0);
            return None;
        };
        let mut spans = pending.spans;
        spans.sort_by_key(|r| r.seq);
        self.retain_locked(
            inner,
            id,
            StoredTrace {
                id,
                cause,
                spans,
                notes: pending.notes,
                root_dur_ns,
                route,
                truncated: pending.truncated,
            },
        )
    }

    /// Finalize a trace whose root closed with nothing pending: exactly one
    /// span and no annotations, so the errored/degraded causes (which only
    /// arrive as notes) cannot apply. The decision is slow-or-sampled, made
    /// on the borrowed record; it is cloned only if actually retained.
    fn finalize_single_locked(
        &self,
        inner: &mut Inner,
        id: TraceId,
        rec: &SpanRecord,
    ) -> Option<(String, u64)> {
        self.finalized.fetch_add(1, Ordering::Relaxed);
        let route = rec.attr("route");
        let root_dur_ns = rec.dur_ns;
        let slow = route
            .and_then(|r| inner.route_lat.get(r).and_then(|rl| rl.thr))
            .is_some_and(|thr| root_dur_ns > thr);
        let cause = if slow {
            Some(RetainCause::Slow)
        } else {
            self.sample_healthy_locked(inner)
        };
        if let Some(r) = route {
            self.feed_route_lat_locked(inner, r, root_dur_ns);
        }
        let Some(cause) = cause else {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            Self::remember_discarded(inner, id.0);
            return None;
        };
        self.retain_locked(
            inner,
            id,
            StoredTrace {
                id,
                cause,
                spans: vec![rec.clone()],
                notes: Vec::new(),
                root_dur_ns,
                route: route.map(str::to_string),
                truncated: false,
            },
        )
    }

    /// The deterministic 1-in-N healthy sample; advances the phase counter.
    fn sample_healthy_locked(&self, inner: &mut Inner) -> Option<RetainCause> {
        if self.cfg.healthy_sample_rate == 0 {
            return None;
        }
        inner.healthy_seen += 1;
        inner
            .healthy_seen
            .wrapping_add(self.cfg.seed)
            .is_multiple_of(self.cfg.healthy_sample_rate)
            .then_some(RetainCause::Sampled)
    }

    /// Insert a retained trace, evict FIFO beyond capacity, and hand back
    /// the exemplar write to perform once the lock is released.
    fn retain_locked(
        &self,
        inner: &mut Inner,
        id: TraceId,
        trace: StoredTrace,
    ) -> Option<(String, u64)> {
        self.retained_counts[trace.cause.index()].fetch_add(1, Ordering::Relaxed);
        let exemplar = trace.route.clone().map(|r| (r, trace.root_dur_ns));
        inner.retained.insert(id.0, trace);
        inner.retained_order.push_back(id.0);
        while inner.retained_order.len() > self.cfg.capacity {
            if let Some(old) = inner.retained_order.pop_front() {
                if inner.retained.remove(&old).is_some() {
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                    Self::remember_discarded(inner, old);
                }
            }
        }
        exemplar
    }

    /// Push one root duration into `route`'s window and refresh the cached
    /// threshold only at the amortization boundaries: when the window first
    /// reaches `slow_min_samples`, and each time it fills `threshold_window`
    /// (draining it so the threshold tracks recent traffic). The per-span
    /// cost is a push and a cache read — never a sort.
    fn feed_route_lat_locked(&self, inner: &mut Inner, route: &str, root_dur_ns: u64) {
        if !inner.route_lat.contains_key(route) {
            inner
                .route_lat
                .insert(route.to_string(), RouteLat::default());
        }
        let rl = inner.route_lat.get_mut(route).expect("just inserted");
        rl.window.push(root_dur_ns);
        let full = rl.window.len() >= self.cfg.threshold_window;
        if full || (rl.thr.is_none() && rl.window.len() >= self.cfg.slow_min_samples) {
            let mut sorted = rl.window.clone();
            sorted.sort_unstable();
            let idx = ((sorted.len() - 1) as f64 * self.cfg.slow_quantile.clamp(0.0, 1.0)).round()
                as usize;
            rl.thr = Some(sorted[idx.min(sorted.len() - 1)].max(self.cfg.slow_floor_ns));
            if full {
                rl.window.clear();
            }
        }
    }

    fn remember_discarded(inner: &mut Inner, id: u64) {
        if inner.discarded_recent.insert(id) {
            inner.discarded_order.push_back(id);
            while inner.discarded_order.len() > 2048 {
                if let Some(old) = inner.discarded_order.pop_front() {
                    inner.discarded_recent.remove(&old);
                }
            }
        }
    }

    /// The current "slower than this is retained" bound for `route`, once
    /// enough samples exist.
    pub fn slow_threshold_ns(&self, route: &str) -> Option<u64> {
        self.inner.lock().route_lat.get(route).and_then(|rl| rl.thr)
    }

    /// Fetch a retained trace by id.
    pub fn get(&self, id: TraceId) -> Option<StoredTrace> {
        self.inner.lock().retained.get(&id.0).cloned()
    }

    /// The most recently retained traces, newest first.
    pub fn recent(&self, limit: usize) -> Vec<StoredTrace> {
        let inner = self.inner.lock();
        inner
            .retained_order
            .iter()
            .rev()
            .take(limit)
            .filter_map(|id| inner.retained.get(id).cloned())
            .collect()
    }

    pub fn stats(&self) -> TraceStoreStats {
        let (retained_current, pending_current) = {
            let inner = self.inner.lock();
            (inner.retained.len(), inner.pending.len())
        };
        TraceStoreStats {
            finalized: self.finalized.load(Ordering::Relaxed),
            retained_by_cause: std::array::from_fn(|i| {
                self.retained_counts[i].load(Ordering::Relaxed)
            }),
            discarded: self.discarded.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            pending_evicted: self.pending_evicted.load(Ordering::Relaxed),
            late_spans: self.late_spans.load(Ordering::Relaxed),
            retained_current,
            pending_current,
        }
    }
}

/// The process-wide store observed by every [`Span`](crate::trace::Span)
/// close.
pub fn store() -> &'static TraceStore {
    static STORE: OnceLock<TraceStore> = OnceLock::new();
    STORE.get_or_init(TraceStore::default)
}

/// Attach a note to the trace active on this thread, in the global store.
pub fn annotate(key: &str, value: impl Into<String>) {
    store().annotate_current(key, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace: u64, name: &'static str, seq: u64, depth: u32, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            trace: Some(TraceId(trace)),
            name,
            attrs: Vec::new(),
            start_ns: seq,
            dur_ns,
            seq,
            depth,
        }
    }

    fn routed(trace: u64, seq: u64, dur_ns: u64, route: &str) -> SpanRecord {
        let mut r = rec(trace, "route", seq, 0, dur_ns);
        r.attrs.push(("route", route.to_string()));
        r
    }

    #[test]
    fn errored_and_degraded_traces_are_always_retained() {
        let store = TraceStore::new(TraceStoreConfig::default());
        store.annotate_trace(TraceId(1), "status", "503");
        store.observe(&rec(1, "http", 0, 0, 1_000));
        store.annotate_trace(TraceId(2), "outcome", "degraded");
        store.observe(&rec(2, "http", 1, 0, 1_000));
        assert_eq!(store.get(TraceId(1)).unwrap().cause, RetainCause::Error);
        assert_eq!(store.get(TraceId(2)).unwrap().cause, RetainCause::Degraded);
        let stats = store.stats();
        assert_eq!(stats.retained_by_cause[RetainCause::Error.index()], 1);
        assert_eq!(stats.retained_by_cause[RetainCause::Degraded.index()], 1);
    }

    #[test]
    fn multi_span_traces_assemble_root_first() {
        let store = TraceStore::new(TraceStoreConfig::default());
        // Children close before the root, so they arrive first.
        store.observe(&rec(9, "ctld", 3, 2, 50));
        store.observe(&rec(9, "slurmcli", 2, 1, 80));
        store.annotate_trace(TraceId(9), "status", "500");
        store.observe(&rec(9, "http", 1, 0, 200));
        let t = store.get(TraceId(9)).expect("retained");
        let names: Vec<&str> = t.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["http", "slurmcli", "ctld"], "seq order, root first");
        assert_eq!(t.spans[0].depth, 0);
        assert_eq!(t.root_dur_ns, 200);
    }

    #[test]
    fn slow_traces_retained_once_threshold_learned() {
        let cfg = TraceStoreConfig {
            slow_min_samples: 8,
            slow_floor_ns: 1_000,
            healthy_sample_rate: 0, // isolate the slow cause
            ..TraceStoreConfig::default()
        };
        let store = TraceStore::new(cfg);
        for i in 0..10u64 {
            store.observe(&routed(100 + i, i, 10_000, "/api/x"));
        }
        let thr = store.slow_threshold_ns("/api/x").expect("learned");
        assert!(thr >= 10_000, "threshold {thr} tracks observed latency");
        store.observe(&routed(200, 20, thr * 10, "/api/x"));
        let t = store.get(TraceId(200)).expect("slow trace retained");
        assert_eq!(t.cause, RetainCause::Slow);
        assert_eq!(t.route.as_deref(), Some("/api/x"));
        // The fast healthy ones were all discarded (sampling off).
        assert_eq!(store.stats().discarded, 10);
    }

    #[test]
    fn healthy_sampling_is_deterministic_across_runs() {
        let run = |seed: u64| -> Vec<u64> {
            let store = TraceStore::new(TraceStoreConfig {
                seed,
                healthy_sample_rate: 4,
                ..TraceStoreConfig::default()
            });
            for i in 0..64u64 {
                // Mix healthy traffic with errors: causes must not disturb
                // the healthy sampling phase.
                if i % 10 == 0 {
                    store.annotate_trace(TraceId(i + 1), "status", "500");
                }
                store.observe(&rec(i + 1, "http", i, 0, 1_000));
            }
            let mut ids: Vec<u64> = store.recent(usize::MAX).iter().map(|t| t.id.0).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(run(7), run(7), "same seed + same stream ⇒ same set");
        assert_ne!(run(7), run(8), "seed shifts the sample phase");
        // And the sampled portion is exactly the 1-in-4 phase of the
        // healthy traffic, undisturbed by the interleaved errors.
        let kept = run(7);
        let errors = (0..64u64).filter(|i| i % 10 == 0).count();
        let healthy = 64 - errors as u64;
        let sampled = (1..=healthy).filter(|h| (h + 7) % 4 == 0).count();
        assert_eq!(kept.len(), errors + sampled);
    }

    #[test]
    fn exemplar_links_back_to_a_stored_trace() {
        let store = TraceStore::new(TraceStoreConfig::default());
        let reg = Arc::new(Registry::new());
        store.set_registry(&reg);
        store.annotate_trace(TraceId(42), "status", "500");
        store.annotate_trace(TraceId(42), "route", "/api/jobs");
        store.observe(&rec(42, "http", 0, 0, 3_000_000));
        let h = reg.histogram(ROUTE_LATENCY_METRIC, &[("route", "/api/jobs")]);
        let ex = h.quantile_exemplar(0.99).expect("exemplar written");
        let t = store.get(ex).expect("exemplar resolves in the store");
        assert_eq!(t.id, TraceId(42));
        assert_eq!(t.root_dur_ns, 3_000_000);
    }

    #[test]
    fn memory_stays_bounded_and_evictions_are_counted() {
        let cfg = TraceStoreConfig {
            capacity: 8,
            max_pending: 4,
            max_spans_per_trace: 2,
            ..TraceStoreConfig::default()
        };
        let store = TraceStore::new(cfg);
        // Overflow pending assembly with never-closing traces.
        for i in 0..10u64 {
            store.observe(&rec(1000 + i, "child", i, 1, 10));
        }
        assert_eq!(store.stats().pending_current, 4);
        assert_eq!(store.stats().pending_evicted, 6);
        // Overflow the retained set with errors (always kept).
        for i in 0..20u64 {
            store.annotate_trace(TraceId(2000 + i), "status", "500");
            store.observe(&rec(2000 + i, "http", 100 + i, 0, 10));
        }
        let stats = store.stats();
        assert_eq!(stats.retained_current, 8);
        assert_eq!(stats.evicted, 12);
        // Span cap marks truncation.
        for s in 0..5u64 {
            store.observe(&rec(3000, "child", 200 + s, 1, 10));
        }
        store.annotate_trace(TraceId(3000), "status", "500");
        store.observe(&rec(3000, "http", 300, 0, 10));
        assert!(store.get(TraceId(3000)).unwrap().truncated);
    }

    #[test]
    fn late_root_span_appends_to_retained_trace() {
        let store = TraceStore::new(TraceStoreConfig::default());
        store.annotate_trace(TraceId(5), "status", "500");
        // Server root (seq 2) closes first; the client's root (seq 1)
        // closes later on its own thread.
        store.observe(&rec(5, "http", 2, 0, 100));
        store.observe(&rec(5, "client", 1, 0, 150));
        let t = store.get(TraceId(5)).expect("retained");
        let names: Vec<&str> = t.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["client", "http"], "late span re-sorted by seq");
        assert_eq!(store.stats().late_spans, 1);
    }

    #[test]
    fn late_spans_for_discarded_traces_are_dropped() {
        let store = TraceStore::new(TraceStoreConfig {
            healthy_sample_rate: 0,
            ..TraceStoreConfig::default()
        });
        store.observe(&rec(6, "http", 2, 0, 100)); // healthy → discarded
        store.observe(&rec(6, "client", 1, 0, 150)); // late root
        assert!(store.get(TraceId(6)).is_none(), "stays discarded");
        assert_eq!(store.stats().finalized, 1, "not re-finalized");
        assert_eq!(store.stats().late_spans, 1);
    }
}
