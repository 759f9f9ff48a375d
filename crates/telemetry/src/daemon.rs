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

use crate::collector::{keys, CollectOutcome, Collector};
use crate::store::{IngestTally, RangePoint, SeriesHandle, Tier, TsdbStore};
use hpcdash_obs::registry::{Labels, Registry, SampleValue};
use hpcdash_obs::PhaseProfiler;
use hpcdash_simtime::SharedClock;
use hpcdash_slurm::ctld::Slurmctld;
use hpcdash_slurm::loadmodel::{RpcCostModel, RpcStats};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// One scraped instrument and its series: one for a counter or gauge,
/// `:p50`, `:p99` and `:count` for a summary.
struct Scraped {
    name: String,
    labels: Labels,
    series: Vec<SeriesHandle>,
}

impl Scraped {
    fn key(&self) -> (&str, &Labels) {
        (&self.name, &self.labels)
    }

    /// Format the instrument's series names and resolve them; runs once per
    /// instrument.
    fn resolve(store: &TsdbStore, name: &str, labels: &Labels, n: usize) -> Vec<SeriesHandle> {
        let base = keys::self_series(name, labels);
        if n == 1 {
            return vec![store.series(&base)];
        }
        [":p50", ":p99", ":count"]
            .iter()
            .map(|suffix| store.series(&format!("{base}{suffix}")))
            .collect()
    }
}

pub struct TelemetryD {
    clock: SharedClock,
    ctld: Arc<Slurmctld>,
    store: TsdbStore,
    cost: RpcCostModel,
    stats: RpcStats,
    /// When attached, every collection pass also scrapes this registry
    /// into `self:`-prefixed series, making the dashboard's own metrics
    /// range-queryable history. Non-owning: the registry's collectors own
    /// this daemon, and the dashboard owns the registry.
    registry: Mutex<Weak<Registry>>,
    /// Series handles of running jobs and nodes, kept between passes.
    collector: Mutex<Collector>,
    /// Series handles of every instrument scraped so far, sorted by
    /// (name, labels), kept between passes.
    scraped: Mutex<Vec<Scraped>>,
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
            registry: Mutex::new(Weak::new()),
            collector: Mutex::new(Collector::default()),
            scraped: Mutex::new(Vec::new()),
            phases: PhaseProfiler::new(),
            gap_skips: AtomicU64::new(0),
            last_gap_at: AtomicI64::new(-1),
        }
    }

    /// Attach the metrics registry to scrape into `self:` series on every
    /// collection pass, for as long as its owner keeps it.
    pub fn set_registry(&self, registry: &Arc<Registry>) {
        *self.registry.lock() = Arc::downgrade(registry);
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
            if let Some(reg) = self.registry.lock().upgrade() {
                reg.counter("hpcdash_telemetry_gap_skips_total", &[]).inc();
            }
            self.stats.record("collect", t0.elapsed());
            return CollectOutcome {
                skipped_down: true,
                ..CollectOutcome::default()
            };
        }
        let snap = self.ctld.snapshot();
        let mut tally = IngestTally::default();
        let out = self.phases.time("tsdb_ingest", || {
            self.collector
                .lock()
                .collect(&self.store, &snap, ts, &mut tally)
        });
        let scraped = self
            .phases
            .time("self_scrape", || self.self_scrape(ts, &mut tally));
        self.store.record_ingest(&tally);
        self.cost.burn((out.samples + scraped) as usize);
        self.stats.record("collect", t0.elapsed());
        self.stats.record_scanned("collect", out.samples);
        out
    }

    /// Scrape the attached registry into the store: counters/gauges as one
    /// series each, histogram summaries as `:p50` / `:p99` / `:count`
    /// sub-series. Returns samples appended (duplicate timestamps are
    /// rejected by the store's monotonic-append rule and not counted).
    fn self_scrape(&self, ts: i64, tally: &mut IngestTally) -> u64 {
        let Some(reg) = self.registry.lock().upgrade() else {
            return 0;
        };
        let mut known = self.scraped.lock();
        // Instruments first seen in this pass, merged in after it.
        let mut fresh = Vec::new();
        let mut appended = 0u64;
        // `gather` sorts by (name, labels), as `known` is kept: one forward
        // walk pairs each sample with its instrument's handles.
        let mut at = 0;
        for s in reg.gather() {
            let (values, n) = match s.value {
                SampleValue::Counter(v) => ([v as f64, 0.0, 0.0], 1),
                SampleValue::Gauge(v) => ([v as f64, 0.0, 0.0], 1),
                SampleValue::Summary(h) => ([h.p50_ns as f64, h.p99_ns as f64, h.count as f64], 3),
            };
            while known
                .get(at)
                .is_some_and(|k| k.key() < (s.name.as_str(), &s.labels))
            {
                at += 1;
            }
            let series = match known.get_mut(at) {
                Some(k) if k.key() == (s.name.as_str(), &s.labels) => {
                    if k.series.len() != n {
                        k.series = Scraped::resolve(&self.store, &s.name, &s.labels, n);
                    }
                    &k.series
                }
                _ => {
                    let series = Scraped::resolve(&self.store, &s.name, &s.labels, n);
                    fresh.push(Scraped {
                        name: s.name,
                        labels: s.labels,
                        series,
                    });
                    &fresh.last().expect("just pushed").series
                }
            };
            for (handle, v) in series.iter().zip(values) {
                appended += u64::from(tally.add(handle.append(ts, v)));
            }
        }
        if !fresh.is_empty() {
            known.append(&mut fresh);
            known.sort_by(|a, b| a.key().cmp(&b.key()));
            known.dedup_by(|a, b| a.key() == b.key());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::RetentionPolicy;
    use hpcdash_simtime::{Clock, SimClock, Timestamp};
    use hpcdash_slurm::assoc::{Account, AssocStore};
    use hpcdash_slurm::cluster::ClusterSpec;
    use hpcdash_slurm::dbd::Slurmdbd;
    use hpcdash_slurm::job::{JobRequest, UsageProfile};
    use hpcdash_slurm::joblog::JobLogFs;
    use hpcdash_slurm::node::Node;
    use hpcdash_slurm::partition::Partition;
    use hpcdash_slurm::qos::Qos;

    fn site() -> (Arc<Slurmctld>, SimClock) {
        let mut assoc = AssocStore::new();
        assoc.add_account(Account::new("physics"));
        assoc.add_user("physics", "alice");
        let clock = SimClock::new(Timestamp(1_800_000_000));
        let ctld = Arc::new(Slurmctld::with_cost(
            ClusterSpec {
                name: "expiry".to_string(),
                nodes: vec![Node::new("n1", 16, 64_000, 0)],
                partitions: vec![Partition::new("cpu")
                    .with_nodes(vec!["n1".to_string()])
                    .default_partition()],
                qos: Qos::standard_set(),
                assoc,
            },
            clock.shared(),
            Arc::new(Slurmdbd::with_cost(RpcCostModel::free())),
            Arc::new(JobLogFs::new()),
            RpcCostModel::free(),
        ));
        (ctld, clock)
    }

    /// A finished job's series outlive it by the longest retention tier
    /// and no more; node series stay.
    #[test]
    fn finished_jobs_series_expire_after_the_longest_tier() {
        let (ctld, clock) = site();
        let telemetry = TelemetryD::free(clock.shared(), ctld.clone());
        let mut r = JobRequest::simple("alice", "physics", "cpu", 4);
        r.usage = UsageProfile::batch(120);
        let id = ctld.submit(r).unwrap()[0];
        clock.advance(30);
        ctld.tick();
        assert_eq!(telemetry.collect_now().jobs, 1, "the job runs");
        let last_sample = clock.now();
        clock.advance(300);
        ctld.tick();
        assert_eq!(telemetry.collect_now().jobs, 0, "the job finished");

        let store = telemetry.store();
        let job_series = [keys::job_cpu(id), keys::job_mem(id)];
        let week = RetentionPolicy::default().rollup_10m_secs as u64;
        clock.advance(last_sample.plus(week).since(clock.now()));
        telemetry.collect_now();
        for name in &job_series {
            assert!(store.has_series(name), "{name} survives a pass at 7 days");
        }
        clock.advance(30);
        telemetry.collect_now();
        for name in &job_series {
            assert!(!store.has_series(name), "{name} is gone one pass after");
        }
        assert!(store.has_series(&keys::node_cpu("n1")));
        assert!(store.has_series(&keys::node_mem("n1")));
        assert_eq!(store.stats().series, 2, "only the node's series are left");
    }
}
