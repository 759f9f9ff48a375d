//! Request tracing: spans and trace-ID propagation.
//!
//! A trace follows one logical request across layers. The headless browser
//! generates a [`TraceId`], sends it as the `X-Trace-Id` header, and the
//! HTTP layer re-establishes it (via [`TraceScope`]) on whichever worker
//! thread handles the request. Every instrumented layer then opens a
//! [`Span`] guard; on drop the span's record goes to the process-wide
//! [`tracestore::store`](crate::tracestore::store), which assembles the
//! trace and is where its hops are read back (`get`, then
//! `StoredTrace::format_trace`). A span opened outside any trace records
//! nothing and costs next to nothing.
//!
//! All timing is monotonic (`Instant`) and expressed as nanoseconds since
//! a process-local epoch, so records from different threads order
//! correctly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A 64-bit trace identifier, rendered as 16 lowercase hex digits — the
/// wire format of the `X-Trace-Id` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Generate a fresh process-unique id (mixed counter, never zero).
    pub fn generate() -> TraceId {
        static SEED: OnceLock<u64> = OnceLock::new();
        static COUNTER: AtomicU64 = AtomicU64::new(1);
        let seed = *SEED.get_or_init(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x9e37_79b9_7f4a_7c15)
        });
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut z = seed.wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        TraceId(z.max(1))
    }

    /// Parse the header wire format (16 hex digits, case-insensitive).
    /// Strictly hex: `from_str_radix` alone would also accept a `+`/`-`
    /// sign prefix, which is not a valid `X-Trace-Id`.
    pub fn from_hex(s: &str) -> Option<TraceId> {
        let s = s.trim();
        if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }

    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

thread_local! {
    static CURRENT: std::cell::Cell<Option<TraceId>> = const { std::cell::Cell::new(None) };
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// The trace id active on this thread, if any.
pub(crate) fn current_trace() -> Option<TraceId> {
    CURRENT.with(|c| c.get())
}

/// Installs `id` as the current trace for this thread until dropped,
/// restoring whatever was active before (scopes nest).
pub struct TraceScope {
    prev: Option<TraceId>,
}

impl TraceScope {
    pub fn enter(id: TraceId) -> TraceScope {
        let prev = CURRENT.with(|c| c.replace(Some(id)));
        TraceScope { prev }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

static SEQ: AtomicU64 = AtomicU64::new(0);

/// A timing guard. Opened at the start of a hop inside a trace, it captures
/// the trace id, a global start-order sequence number and this thread's
/// span nesting depth; on drop it hands its record to the trace store.
/// Outside a trace it is inert: no clock read, no shared state, no
/// allocation.
#[must_use = "a span measures the scope it is alive in"]
pub struct Span(Option<SpanRecord>);

impl Span {
    pub fn enter(name: &'static str) -> Span {
        let Some(trace) = current_trace() else {
            return Span(None);
        };
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        Span(Some(SpanRecord {
            trace,
            name,
            attrs: Vec::new(),
            start_ns: now_ns(),
            dur_ns: 0,
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
            depth,
        }))
    }

    /// Attach a key/value attribute (builder style). The value is formatted
    /// only when the span is inside a trace.
    pub fn attr(mut self, key: &'static str, value: impl std::fmt::Display) -> Span {
        if let Some(rec) = &mut self.0 {
            rec.attrs.push((key, value.to_string()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(mut rec) = self.0.take() else { return };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        // Clamp to >= 1ns so "this hop happened" is always distinguishable
        // from "never recorded", even for sub-resolution scopes.
        rec.dur_ns = now_ns().saturating_sub(rec.start_ns).max(1);
        crate::tracestore::store().observe(rec);
    }
}

/// One completed span of a trace.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub trace: TraceId,
    pub name: &'static str,
    pub attrs: Vec<(&'static str, String)>,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub seq: u64,
    pub depth: u32,
}

impl SpanRecord {
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Human-friendly nanosecond rendering (`412ns`, `3.2µs`, `1.8ms`, `2.4s`).
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_hex_roundtrip() {
        let id = TraceId::generate();
        assert_ne!(id.0, 0);
        let hex = id.to_hex();
        assert_eq!(hex.len(), 16);
        assert_eq!(TraceId::from_hex(&hex), Some(id));
        assert_eq!(TraceId::from_hex("00000000000000ff"), Some(TraceId(255)));
        assert_eq!(TraceId::from_hex(""), None);
        assert_eq!(TraceId::from_hex("not-hex"), None);
        assert_eq!(TraceId::from_hex("112233445566778899"), None, "too long");
    }

    #[test]
    fn from_hex_rejects_sign_prefixes_and_whitespace_padding_tricks() {
        // `u64::from_str_radix` accepts a leading sign; the header format
        // must not.
        assert_eq!(TraceId::from_hex("+1f"), None);
        assert_eq!(TraceId::from_hex("-1"), None);
        assert_eq!(TraceId::from_hex("+0000000000000001"), None);
        assert_eq!(TraceId::from_hex("1 f"), None, "inner whitespace");
        assert_eq!(TraceId::from_hex("0x1f"), None, "radix prefix");
        // Surrounding whitespace is still trimmed, as before.
        assert_eq!(TraceId::from_hex("  1f  "), Some(TraceId(0x1f)));
        assert_eq!(TraceId::from_hex("AB"), Some(TraceId(0xab)), "upper hex");
    }

    #[test]
    fn generated_ids_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1_000 {
            assert!(seen.insert(TraceId::generate()));
        }
    }

    #[test]
    fn scope_nests_and_restores() {
        assert_eq!(current_trace(), None);
        let a = TraceId(0xa);
        let b = TraceId(0xb);
        {
            let _outer = TraceScope::enter(a);
            assert_eq!(current_trace(), Some(a));
            {
                let _inner = TraceScope::enter(b);
                assert_eq!(current_trace(), Some(b));
            }
            assert_eq!(current_trace(), Some(a));
        }
        assert_eq!(current_trace(), None);
    }

    #[test]
    fn spans_record_in_start_order_with_depth() {
        let id = TraceId::generate();
        {
            let _scope = TraceScope::enter(id);
            let _root = Span::enter("http").attr("route", "/api/x");
            std::thread::sleep(std::time::Duration::from_micros(50));
            {
                let _child = Span::enter("slurmcli");
                let _grandchild = Span::enter("ctld");
            }
        }
        let trace = crate::tracestore::store().get(id).expect("stored");
        let records = &trace.spans;
        let names: Vec<&str> = records.iter().map(|r| r.name).collect();
        assert_eq!(names, ["http", "slurmcli", "ctld"]);
        let depths: Vec<u32> = records.iter().map(|r| r.depth).collect();
        assert_eq!(depths, [0, 1, 2]);
        assert!(records.iter().all(|r| r.dur_ns >= 1 && r.trace == id));
        assert!(records[0].dur_ns >= 50_000, "root span spans its children");
        assert_eq!(records[0].attr("route"), Some("/api/x"));
        let dump = trace.format_trace();
        assert!(dump.contains("http"), "dump:\n{dump}");
        assert!(dump.contains("route=/api/x"), "dump:\n{dump}");
    }

    #[test]
    fn spans_without_a_scope_are_inert() {
        let span = Span::enter("orphan").attr("key", 42);
        assert!(span.0.is_none(), "no record outside a trace");
        drop(span);
        assert_eq!(DEPTH.with(|d| d.get()), 0, "depth untouched");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(412), "412ns");
        assert_eq!(fmt_ns(3_200), "3.2µs");
        assert_eq!(fmt_ns(1_800_000), "1.8ms");
        assert_eq!(fmt_ns(2_400_000_000), "2.40s");
    }
}
