//! Observability for the dashboard stack: metrics and request tracing.
//!
//! This crate is deliberately dependency-light (no `tracing`, no
//! `prometheus`): a dashboard that simulates its own Slurm cluster should
//! also own its telemetry primitives, and the subset we need is small:
//!
//! * [`registry`] — a process-wide metrics registry: lock-free counters and
//!   gauges plus fixed-bucket latency histograms (p50/p95/p99/max), keyed by
//!   `(name, labels)`. The histogram is also the daemons' one timing
//!   instrument: each tick phase and each daemon's RPC latency is one.
//!   Existing stats objects (cache stats, daemon RPC stats) plug in as
//!   pull-time *collectors* so they keep their own internals but appear in
//!   one exposition.
//! * [`trace`] — `Span` guards with monotonic timing and a per-thread
//!   current trace ID propagated via the `X-Trace-Id` header from the
//!   headless browser down to the slurmctld RPC layer. A span outside a
//!   trace is inert.
//! * [`tracestore`] — the one place traced spans land: spans assemble into
//!   complete traces at root close, every trace is kept and classified
//!   (error, degraded, slow or healthy), and when full the store evicts
//!   healthy traces first. Per-cause counters, bounded memory, and exemplar
//!   links into the latency histograms; per-request hop breakdowns are
//!   read back from here.
//! * [`expo`] — Prometheus-style text and JSON exposition with stable
//!   (sorted) ordering, served by `core` at `/api/metrics`.
//!
//! Metric naming convention: `hpcdash_<subsystem>_<name>`, with `_total`
//! suffixed to monotonic counters (e.g. `hpcdash_cache_hits_total`).

pub mod expo;
pub mod registry;
pub mod trace;
pub mod tracestore;

pub use registry::{
    Counter, Gauge, Histogram, LabelsRef, Registry, SampleRef, SampleSink, SampleValue,
};
pub use trace::{Span, TraceId};
pub use tracestore::{RetainCause, StoredTrace, TraceStore, TraceStoreConfig};
