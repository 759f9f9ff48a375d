//! `TelemetryD`: the metrics daemon the dashboard talks to.
//!
//! Collection reads the epoch-published
//! [`ClusterSnapshot`](hpcdash_slurm::snapshot::ClusterSnapshot) — never
//! `slurmctld`'s state mutex — so a telemetry pipeline running at full tick
//! rate adds zero contention to scheduling (PR 3's invariant, extended here
//! and asserted by tests). Queries are served entirely
//! from the daemon's own store. Like the other simulated daemons it burns a
//! calibrated [`RpcCostModel`] cost per item touched and records per-kind
//! [`RpcStats`], so load tests see realistic telemetry latencies.

use crate::collector::{self, keys, CollectOutcome};
use crate::store::{RangePoint, Tier, TsdbStore};
use hpcdash_obs::registry::{Registry, SampleValue};
use hpcdash_obs::PhaseProfiler;
use hpcdash_simtime::SharedClock;
use hpcdash_slurm::ctld::Slurmctld;
use hpcdash_slurm::loadmodel::{RpcCostModel, RpcStats};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct TelemetryD {
    clock: SharedClock,
    ctld: Arc<Slurmctld>,
    store: TsdbStore,
    cost: RpcCostModel,
    stats: RpcStats,
    /// When attached, every collection pass also scrapes this registry
    /// into `self:`-prefixed series, making the dashboard's own metrics
    /// range-queryable history.
    registry: Mutex<Option<Arc<Registry>>>,
    phases: PhaseProfiler,
    /// Collection passes skipped because the controller was down — each one
    /// is a deliberate hole in every series rather than stale backfill.
    gap_skips: AtomicU64,
    /// Sim-time of the most recent skipped pass (`-1` = never), so query
    /// surfaces can annotate where the gap sits.
    last_gap_at: AtomicI64,
}

impl TelemetryD {
    /// telemetryd-ish default costs: cheaper per item than slurmctld (it
    /// serves precomputed buckets), with a small fixed floor.
    pub fn default_cost() -> RpcCostModel {
        RpcCostModel {
            base: Duration::from_micros(60),
            per_item: Duration::from_nanos(150),
        }
    }

    pub fn new(clock: SharedClock, ctld: Arc<Slurmctld>) -> TelemetryD {
        TelemetryD::with_cost(clock, ctld, TelemetryD::default_cost())
    }

    /// A zero-cost daemon for tests that don't measure timing.
    pub fn free(clock: SharedClock, ctld: Arc<Slurmctld>) -> TelemetryD {
        TelemetryD::with_cost(clock, ctld, RpcCostModel::free())
    }

    pub fn with_cost(clock: SharedClock, ctld: Arc<Slurmctld>, cost: RpcCostModel) -> TelemetryD {
        TelemetryD {
            clock,
            ctld,
            store: TsdbStore::default(),
            cost,
            stats: RpcStats::new(),
            registry: Mutex::new(None),
            phases: PhaseProfiler::new(),
            gap_skips: AtomicU64::new(0),
            last_gap_at: AtomicI64::new(-1),
        }
    }

    /// Attach the metrics registry to scrape into `self:` series on every
    /// collection pass.
    pub fn set_registry(&self, registry: &Arc<Registry>) {
        *self.registry.lock() = Some(registry.clone());
    }

    /// Per-phase wall-time accounting for the collection loop.
    pub fn phase_profile(&self) -> &PhaseProfiler {
        &self.phases
    }

    /// Run one collection pass against the current cluster snapshot.
    /// Lock-free with respect to slurmctld: the snapshot is an epoch load.
    pub fn collect_now(&self) -> CollectOutcome {
        let t0 = Instant::now();
        let ts = self.clock.now().as_secs() as i64;
        // A crashed controller still has a published (pre-crash) snapshot;
        // sampling it would silently backfill the outage with stale numbers.
        // Skip the pass and annotate the gap instead — sparklines show a
        // hole, not an interpolated lie.
        if self.ctld.is_down() {
            self.gap_skips.fetch_add(1, Ordering::Relaxed);
            self.last_gap_at.store(ts, Ordering::Relaxed);
            if let Some(reg) = self.registry.lock().clone() {
                reg.counter("hpcdash_telemetry_gap_skips_total", &[]).inc();
            }
            self.stats.record("collect", t0.elapsed());
            return CollectOutcome {
                skipped_down: true,
                ..CollectOutcome::default()
            };
        }
        let snap = self.ctld.snapshot();
        let out = self
            .phases
            .time("tsdb_ingest", || collector::collect(&self.store, &snap, ts));
        let scraped = self.phases.time("self_scrape", || self.self_scrape(ts));
        self.cost.burn((out.samples + scraped) as usize);
        self.stats.record("collect", t0.elapsed());
        self.stats.record_scanned("collect", out.samples);
        out
    }

    /// Scrape the attached registry into the store: counters/gauges as one
    /// series each, histogram summaries as `:p50` / `:p99` / `:count`
    /// sub-series. Returns samples appended (duplicate timestamps are
    /// rejected by the store's monotonic-append rule and not counted).
    fn self_scrape(&self, ts: i64) -> u64 {
        let Some(reg) = self.registry.lock().clone() else {
            return 0;
        };
        let mut appended = 0u64;
        for s in reg.gather() {
            let base = keys::self_series(&s.name, &s.labels);
            let mut put = |key: String, v: f64| {
                if self.store.append(&key, ts, v) {
                    appended += 1;
                }
            };
            match s.value {
                SampleValue::Counter(v) => put(base, v as f64),
                SampleValue::Gauge(v) => put(base, v as f64),
                SampleValue::Summary(h) => {
                    put(format!("{base}:p50"), h.p50_ns as f64);
                    put(format!("{base}:p99"), h.p99_ns as f64);
                    put(format!("{base}:count"), h.count as f64);
                }
            }
        }
        appended
    }

    /// Range query with load-model cost proportional to stored points read.
    pub fn query_range(
        &self,
        series: &str,
        start: i64,
        end: i64,
        resolution_secs: i64,
    ) -> (Vec<RangePoint>, Tier) {
        let t0 = Instant::now();
        let (points, tier, scanned) =
            self.store
                .query_range_counted(series, start, end, resolution_secs);
        self.cost.burn(scanned as usize);
        self.stats.record("range_query", t0.elapsed());
        self.stats.record_scanned("range_query", scanned);
        (points, tier)
    }

    /// Count-weighted series mean over a window (1m tier), with RPC cost.
    pub fn series_mean(&self, series: &str, start: i64, end: i64) -> Option<f64> {
        let t0 = Instant::now();
        let mean = self.store.series_mean(series, start, end);
        self.cost.burn(1);
        self.stats.record("series_mean", t0.elapsed());
        mean
    }

    /// Collection passes skipped because the controller was down.
    pub fn gap_skips(&self) -> u64 {
        self.gap_skips.load(Ordering::Relaxed)
    }

    /// Sim-time of the most recent skipped pass, if any ever happened.
    pub fn last_gap_at(&self) -> Option<i64> {
        match self.last_gap_at.load(Ordering::Relaxed) {
            t if t >= 0 => Some(t),
            _ => None,
        }
    }

    /// Direct store access (ingest stats, uncosted reads for exporters).
    pub fn store(&self) -> &TsdbStore {
        &self.store
    }

    pub fn stats(&self) -> &RpcStats {
        &self.stats
    }

    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }
}
