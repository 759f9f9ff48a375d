//! Trace retention: assemble [`SpanRecord`]s into complete traces at
//! root-span close, then classify each one with the whole trace in hand.
//! This is the only place a traced span lands.
//!
//! Every finished trace is kept, so a trace id a client saw can always be
//! looked up while it is recent. What the store decides is which traces
//! outlive the others: a trace that **errored**, served **degraded**
//! (stale) data, or ran **slower** than a per-route latency threshold
//! learned from recent traffic is kept ahead of every **healthy** one. When
//! the store is over capacity it evicts the oldest healthy trace, or the
//! oldest trace if none is healthy. Each cause keeps its own counter, and
//! both the pending-assembly and retained sets are bounded.
//!
//! The store knows no registry. Histogram exemplars are stamped by whoever
//! observed the latency (the HTTP router, on the route's own histogram), so
//! a process holding several dashboards points each exemplar at the
//! dashboard that served the request.

use crate::trace::{current_trace, fmt_ns, SpanRecord, TraceId};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Why a trace was kept, in order of how long it outlives the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetainCause {
    /// The request errored (5xx status, or the source load failed outright).
    Error,
    /// The request was served degraded/stale data.
    Degraded,
    /// Slower than the learned per-route latency threshold.
    Slow,
    /// None of the above; evicted first when the store is full.
    Healthy,
}

impl RetainCause {
    pub const ALL: [RetainCause; 4] = [
        RetainCause::Error,
        RetainCause::Degraded,
        RetainCause::Slow,
        RetainCause::Healthy,
    ];

    pub fn label(self) -> &'static str {
        match self {
            RetainCause::Error => "error",
            RetainCause::Degraded => "degraded",
            RetainCause::Slow => "slow",
            RetainCause::Healthy => "healthy",
        }
    }

    pub fn index(self) -> usize {
        match self {
            RetainCause::Error => 0,
            RetainCause::Degraded => 1,
            RetainCause::Slow => 2,
            RetainCause::Healthy => 3,
        }
    }
}

/// Retention policy knobs. Defaults bound memory to a few hundred traces.
#[derive(Debug, Clone)]
pub struct TraceStoreConfig {
    /// Retained traces kept; beyond this the oldest healthy one is evicted.
    pub capacity: usize,
    /// In-flight (unfinished) traces assembled at once.
    pub max_pending: usize,
    /// Spans kept per trace; extras mark the trace truncated.
    pub max_spans_per_trace: usize,
    /// Quantile of recent per-route latency that defines "slow".
    pub slow_quantile: f64,
    /// Per-route samples required before the slow threshold activates.
    pub slow_min_samples: usize,
    /// The slow threshold never drops below this (ns), so routes with
    /// uniformly fast traffic don't mark everything slow.
    pub slow_floor_ns: u64,
    /// Per-route sample window: the slow threshold is recomputed (and the
    /// window drained) each time it fills, so the threshold tracks *recent*
    /// traffic, memory stays bounded, and the span record path never sorts —
    /// the percentile cost is amortized over the whole window.
    pub threshold_window: usize,
}

impl Default for TraceStoreConfig {
    fn default() -> TraceStoreConfig {
        TraceStoreConfig {
            capacity: 512,
            max_pending: 256,
            max_spans_per_trace: 64,
            slow_quantile: 0.99,
            slow_min_samples: 64,
            slow_floor_ns: 50_000_000,
            threshold_window: 512,
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

    /// Render the per-hop breakdown as an indented tree.
    pub fn format_trace(&self) -> String {
        let t0 = self.spans.iter().map(|r| r.start_ns).min().unwrap_or(0);
        let mut out = format!("trace {} ({} span(s)):\n", self.id, self.spans.len());
        for r in &self.spans {
            let indent = "  ".repeat(r.depth as usize + 1);
            let attrs = if r.attrs.is_empty() {
                String::new()
            } else {
                let kv: Vec<String> = r.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!(" [{}]", kv.join(" "))
            };
            out.push_str(&format!(
                "{indent}{name:<12} +{offset:>9} {dur:>11}{attrs}\n",
                name = r.name,
                offset = fmt_ns(r.start_ns.saturating_sub(t0)),
                dur = fmt_ns(r.dur_ns),
            ));
        }
        out
    }
}

/// Running totals; all monotonic except the two `_current` sizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Traces finalized at root close, by cause, indexed by
    /// [`RetainCause::index`].
    pub retained_by_cause: [u64; 4],
    /// Retained traces evicted to stay within capacity.
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

/// Append `rec` unless `spans` is already at `max`, in which case the trace
/// is marked truncated instead.
fn push_capped(spans: &mut Vec<SpanRecord>, truncated: &mut bool, rec: SpanRecord, max: usize) {
    if spans.len() < max {
        spans.push(rec);
    } else {
        *truncated = true;
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
    /// Ids in the order they started assembling; ids of traces that have
    /// since finalized are swept out once they outnumber `max_pending`.
    pending_order: VecDeque<u64>,
    retained: HashMap<u64, StoredTrace>,
    /// Retained ids with their cause, oldest first.
    retained_order: VecDeque<(u64, RetainCause)>,
    /// Recently evicted ids: late spans for them (the in-process client's
    /// root closes after the server's) are dropped rather than
    /// re-assembled into a one-span ghost trace.
    discarded_recent: HashSet<u64>,
    discarded_order: VecDeque<u64>,
    /// Per-route recent latencies feeding the slow threshold.
    route_lat: HashMap<String, RouteLat>,
}

/// The trace store. One global instance (see [`store`]) receives every
/// traced span close; local instances back deterministic tests.
pub struct TraceStore {
    cfg: TraceStoreConfig,
    inner: Mutex<Inner>,
    retained_counts: [AtomicU64; 4],
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
            retained_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            evicted: AtomicU64::new(0),
            pending_evicted: AtomicU64::new(0),
            late_spans: AtomicU64::new(0),
        }
    }

    /// Take one completed span. Called from `Span::drop` for the global
    /// instance; tests feed synthetic records directly.
    pub fn observe(&self, rec: SpanRecord) {
        let id = rec.trace;
        let max_spans = self.cfg.max_spans_per_trace;
        let mut inner = self.inner.lock();
        // Late span for an already-retained trace: append in place.
        if let Some(t) = inner.retained.get_mut(&id.0) {
            push_capped(&mut t.spans, &mut t.truncated, rec, max_spans);
            t.spans.sort_by_key(|r| r.seq);
            self.late_spans.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Late span for a trace already evicted.
        if inner.discarded_recent.contains(&id.0) {
            self.late_spans.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if rec.depth == 0 {
            // Root close: the trace is complete.
            let mut p = inner.pending.remove(&id.0).unwrap_or_default();
            let root_dur_ns = rec.dur_ns;
            push_capped(&mut p.spans, &mut p.truncated, rec, max_spans);
            self.finalize_locked(&mut inner, id, p, root_dur_ns);
        } else {
            let p = self.pending_entry(&mut inner, id.0);
            push_capped(&mut p.spans, &mut p.truncated, rec, max_spans);
        }
    }

    /// Attach a request-level note to `id` (pending or retained).
    pub fn annotate_trace(&self, id: TraceId, key: &str, value: impl Display) {
        let note = (key.to_string(), value.to_string());
        let mut inner = self.inner.lock();
        if let Some(t) = inner.retained.get_mut(&id.0) {
            t.notes.push(note);
            return;
        }
        if inner.discarded_recent.contains(&id.0) {
            return;
        }
        self.pending_entry(&mut inner, id.0).notes.push(note);
    }

    fn pending_entry<'a>(&self, inner: &'a mut Inner, id: u64) -> &'a mut Pending {
        if !inner.pending.contains_key(&id) {
            while inner.pending.len() >= self.cfg.max_pending {
                let Some(old) = inner.pending_order.pop_front() else {
                    break;
                };
                if inner.pending.remove(&old).is_some() {
                    self.pending_evicted.fetch_add(1, Ordering::Relaxed);
                }
            }
            if inner.pending_order.len() >= 2 * self.cfg.max_pending {
                inner
                    .pending_order
                    .retain(|old| inner.pending.contains_key(old));
            }
            inner.pending_order.push_back(id);
        }
        inner.pending.entry(id).or_default()
    }

    /// Classify and retain the finished trace.
    fn finalize_locked(&self, inner: &mut Inner, id: TraceId, pending: Pending, root_dur_ns: u64) {
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
            RetainCause::Error
        } else if degraded {
            RetainCause::Degraded
        } else if slow {
            RetainCause::Slow
        } else {
            RetainCause::Healthy
        };
        // Feed the route window *after* deciding, so the threshold only
        // ever reflects traffic that came before this trace — a property
        // the determinism tests rely on.
        if let Some(r) = &route {
            self.feed_route_lat_locked(inner, r, root_dur_ns);
        }
        let mut spans = pending.spans;
        spans.sort_by_key(|r| r.seq);
        self.retain_locked(
            inner,
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

    /// Insert a retained trace and evict beyond capacity (the oldest
    /// healthy trace, else the oldest).
    fn retain_locked(&self, inner: &mut Inner, trace: StoredTrace) {
        self.retained_counts[trace.cause.index()].fetch_add(1, Ordering::Relaxed);
        inner.retained_order.push_back((trace.id.0, trace.cause));
        inner.retained.insert(trace.id.0, trace);
        while inner.retained_order.len() > self.cfg.capacity {
            let victim = inner
                .retained_order
                .iter()
                .position(|&(_, cause)| cause == RetainCause::Healthy)
                .unwrap_or(0);
            if let Some((old, _)) = inner.retained_order.remove(victim) {
                inner.retained.remove(&old);
                self.evicted.fetch_add(1, Ordering::Relaxed);
                Self::remember_discarded(inner, old);
            }
        }
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
            .filter_map(|(id, _)| inner.retained.get(id).cloned())
            .collect()
    }

    pub fn stats(&self) -> TraceStoreStats {
        let (retained_current, pending_current) = {
            let inner = self.inner.lock();
            (inner.retained.len(), inner.pending.len())
        };
        TraceStoreStats {
            retained_by_cause: std::array::from_fn(|i| {
                self.retained_counts[i].load(Ordering::Relaxed)
            }),
            evicted: self.evicted.load(Ordering::Relaxed),
            pending_evicted: self.pending_evicted.load(Ordering::Relaxed),
            late_spans: self.late_spans.load(Ordering::Relaxed),
            retained_current,
            pending_current,
        }
    }
}

/// The process-wide store every traced [`Span`](crate::trace::Span) close
/// lands in.
pub fn store() -> &'static TraceStore {
    static STORE: OnceLock<TraceStore> = OnceLock::new();
    STORE.get_or_init(TraceStore::default)
}

/// Attach a note to the trace active on this thread, in the global store.
/// Outside a trace this does nothing, and `value` is never formatted.
pub fn annotate(key: &str, value: impl Display) {
    if let Some(id) = current_trace() {
        store().annotate_trace(id, key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace: u64, name: &'static str, seq: u64, depth: u32, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            trace: TraceId(trace),
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
        store.observe(rec(1, "http", 0, 0, 1_000));
        store.annotate_trace(TraceId(2), "outcome", "degraded");
        store.observe(rec(2, "http", 1, 0, 1_000));
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
        store.observe(rec(9, "ctld", 3, 2, 50));
        store.observe(rec(9, "slurmcli", 2, 1, 80));
        store.annotate_trace(TraceId(9), "status", "500");
        store.observe(rec(9, "http", 1, 0, 200));
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
            ..TraceStoreConfig::default()
        };
        let store = TraceStore::new(cfg);
        for i in 0..10u64 {
            store.observe(routed(100 + i, i, 10_000, "/api/x"));
        }
        let thr = store.slow_threshold_ns("/api/x").expect("learned");
        assert!(thr >= 10_000, "threshold {thr} tracks observed latency");
        store.observe(routed(200, 20, thr * 10, "/api/x"));
        let t = store.get(TraceId(200)).expect("slow trace retained");
        assert_eq!(t.cause, RetainCause::Slow);
        assert_eq!(t.route.as_deref(), Some("/api/x"));
        // The fast ones were kept too, as healthy.
        assert_eq!(
            store.stats().retained_by_cause[RetainCause::Healthy.index()],
            10
        );
    }

    /// One error, one degraded and one slow trace, then `flood` healthy
    /// ones, into a store of capacity 8.
    fn flooded(flood: u64) -> TraceStore {
        let store = TraceStore::new(TraceStoreConfig {
            capacity: 8,
            slow_min_samples: 4,
            slow_floor_ns: 1_000,
            ..TraceStoreConfig::default()
        });
        for i in 0..4u64 {
            store.observe(routed(10 + i, i, 10_000, "/api/x"));
        }
        store.annotate_trace(TraceId(1), "status", "500");
        store.observe(rec(1, "http", 10, 0, 1_000));
        store.annotate_trace(TraceId(2), "outcome", "degraded");
        store.observe(rec(2, "http", 11, 0, 1_000));
        store.observe(routed(3, 12, 1_000_000, "/api/x"));
        for i in 0..flood {
            store.observe(routed(100 + i, 20 + i, 10_000, "/api/x"));
        }
        store
    }

    #[test]
    fn healthy_flood_evicts_healthy_traces_first() {
        let store = flooded(100);
        for (id, cause) in [
            (1, RetainCause::Error),
            (2, RetainCause::Degraded),
            (3, RetainCause::Slow),
        ] {
            assert_eq!(store.get(TraceId(id)).expect("kept").cause, cause);
        }
        let stats = store.stats();
        assert_eq!(stats.retained_current, 8);
        assert_eq!(stats.retained_total(), 107);
        assert_eq!(stats.evicted, 99);
        // `recent` lists newest first: the five newest healthy traces, then
        // the kept causes in the order they arrived.
        let ids: Vec<u64> = store.recent(usize::MAX).iter().map(|t| t.id.0).collect();
        assert_eq!(ids, [199, 198, 197, 196, 195, 3, 2, 1]);
        assert_eq!(store.recent(2).len(), 2);
    }

    #[test]
    fn oldest_trace_goes_once_no_healthy_one_is_left() {
        let store = TraceStore::new(TraceStoreConfig {
            capacity: 2,
            ..TraceStoreConfig::default()
        });
        store.observe(rec(1, "http", 0, 0, 1_000)); // healthy
        for id in 2..=4u64 {
            store.annotate_trace(TraceId(id), "status", "500");
            store.observe(rec(id, "http", id, 0, 1_000));
        }
        let ids: Vec<u64> = store.recent(usize::MAX).iter().map(|t| t.id.0).collect();
        assert_eq!(ids, [4, 3], "healthy 1 went first, then the oldest error");
        assert_eq!(store.stats().evicted, 2);
    }

    #[test]
    fn same_stream_gives_same_retained_set() {
        let ids = |store: TraceStore| -> Vec<u64> {
            store.recent(usize::MAX).iter().map(|t| t.id.0).collect()
        };
        assert_eq!(ids(flooded(37)), ids(flooded(37)));
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
            store.observe(rec(1000 + i, "child", i, 1, 10));
        }
        assert_eq!(store.stats().pending_current, 4);
        assert_eq!(store.stats().pending_evicted, 6);
        // Overflow the retained set with errors (always kept).
        for i in 0..20u64 {
            store.annotate_trace(TraceId(2000 + i), "status", "500");
            store.observe(rec(2000 + i, "http", 100 + i, 0, 10));
        }
        let stats = store.stats();
        assert_eq!(stats.retained_current, 8);
        assert_eq!(stats.evicted, 12);
        // Span cap marks truncation.
        for s in 0..5u64 {
            store.observe(rec(3000, "child", 200 + s, 1, 10));
        }
        store.annotate_trace(TraceId(3000), "status", "500");
        store.observe(rec(3000, "http", 300, 0, 10));
        assert!(store.get(TraceId(3000)).unwrap().truncated);
    }

    #[test]
    fn finalized_traces_do_not_pile_up_in_pending_order() {
        let store = TraceStore::new(TraceStoreConfig {
            max_pending: 4,
            ..TraceStoreConfig::default()
        });
        for id in 0..100u64 {
            store.observe(rec(id, "child", 2 * id + 1, 1, 10));
            store.observe(rec(id, "http", 2 * id, 0, 20));
        }
        assert!(store.inner.lock().pending_order.len() <= 8);
        let stats = store.stats();
        assert_eq!((stats.pending_current, stats.pending_evicted), (0, 0));
        assert_eq!(stats.retained_total(), 100);
    }

    #[test]
    fn late_root_span_appends_to_retained_trace() {
        let store = TraceStore::new(TraceStoreConfig::default());
        store.annotate_trace(TraceId(5), "status", "500");
        // Server root (seq 2) closes first; the client's root (seq 1)
        // closes later on its own thread.
        store.observe(rec(5, "http", 2, 0, 100));
        store.observe(rec(5, "client", 1, 0, 150));
        let t = store.get(TraceId(5)).expect("retained");
        let names: Vec<&str> = t.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["client", "http"], "late span re-sorted by seq");
        assert_eq!(store.stats().late_spans, 1);
    }

    #[test]
    fn late_spans_for_evicted_traces_are_dropped() {
        let store = TraceStore::new(TraceStoreConfig {
            capacity: 1,
            ..TraceStoreConfig::default()
        });
        store.observe(rec(6, "http", 2, 0, 100));
        store.observe(rec(7, "http", 3, 0, 100)); // evicts 6
        store.observe(rec(6, "client", 1, 0, 150)); // late root
        assert!(store.get(TraceId(6)).is_none(), "stays evicted");
        let stats = store.stats();
        assert_eq!(stats.retained_total(), 2, "not re-finalized");
        assert_eq!(stats.late_spans, 1);
        assert_eq!(stats.pending_current, 0, "not re-assembled");
    }
}
