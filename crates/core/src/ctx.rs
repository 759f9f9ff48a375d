//! The dashboard's shared context: daemons, services, server cache, and the
//! data-source probe used to regenerate the paper's Table 1.

use crate::config::DashboardConfig;
use hpcdash_cache::{Body, BreakerBoard, BreakerConfig, CachedFetcher, GraceOutcome};
use hpcdash_federation::ClusterRegistry;
use hpcdash_http::ParkBudget;
use hpcdash_news::NewsFeed;
use hpcdash_obs::health::HealthBoard;
use hpcdash_obs::{Counter, Registry, Span};
use hpcdash_push::{Hub, HubConfig, Visibility, VisibilityResolver};
use hpcdash_restapi::TokenStore;
use hpcdash_simtime::{SharedClock, Timestamp};
use hpcdash_slurm::ctld::Slurmctld;
use hpcdash_slurm::dbd::Slurmdbd;
use hpcdash_slurm::events::JobEvent;
use hpcdash_slurm::joblog::JobLogFs;
use hpcdash_storage::StorageDb;
use hpcdash_telemetry::TelemetryD;
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Everything a route handler needs. Cheap to clone (all `Arc`s).
#[derive(Clone)]
pub struct DashboardContext {
    pub cfg: Arc<DashboardConfig>,
    pub clock: SharedClock,
    pub ctld: Arc<Slurmctld>,
    pub dbd: Arc<Slurmdbd>,
    pub logs: Arc<JobLogFs>,
    pub storage: Arc<StorageDb>,
    pub news: Arc<NewsFeed>,
    /// The server-side cache — the only one. Every cached route's payload
    /// lives here as serialized bytes + ETag, tagged with the snapshot seq
    /// it was built from: widget sources (per-source TTL), `/slurm/v0`
    /// views (per epoch) and per-viewer renders (epoch ∧ TTL).
    pub cache: Arc<CachedFetcher<Body>>,
    /// The dashboard's metrics registry (exposed at `/api/metrics`).
    pub obs: Arc<Registry>,
    /// Per-data-source health derived from loader outcomes (`/api/health`).
    pub health: Arc<HealthBoard>,
    /// The real-time fan-out hub: one cursor per live tab into the
    /// cluster's `EventLog`, read by `/api/updates/stream`.
    pub push: Arc<Hub>,
    /// Cap on workers parked in long-polls (`503 + Retry-After` past it).
    pub park: Arc<ParkBudget>,
    /// Per-source circuit breakers gating the resilient fetch path
    /// ([`DashboardContext::cached_resilient`]); timed on the sim clock.
    pub breakers: Arc<BreakerBoard>,
    /// The metrics daemon behind sparklines and collector-backed GPU
    /// efficiency. [`DashboardContext::new`] builds an empty one; sites
    /// whose driver feeds a shared daemon inject it via
    /// [`DashboardContext::with_telemetry`].
    pub telemetry: Arc<TelemetryD>,
    /// API tokens for the `/slurm/v0` structured family: minted by admins,
    /// presented as bearers, audited via `hpcdash_api_token_*` counters.
    pub tokens: Arc<TokenStore>,
    /// The multi-cluster federation registry. [`DashboardContext::new`]
    /// builds a single-site registry around the context's own `slurmctld`,
    /// so federated routes always answer; multi-site deployments inject a
    /// real registry via [`DashboardContext::with_federation`].
    pub federation: Arc<ClusterRegistry>,
    /// route name -> data sources it touched on cache-cold loads.
    sources: Arc<Mutex<BTreeMap<String, BTreeSet<String>>>>,
    /// source -> its `hpcdash_cache_{requests,hits,misses}_total` handles,
    /// resolved once: two registry lookups (a lock and four allocations
    /// each) per request were most of what a cache hit cost.
    lookup_counters: Arc<Mutex<HashMap<String, [Arc<Counter>; 3]>>>,
    /// Daemon restart counters as last observed by the serving layer (see
    /// [`DashboardContext::observe_recoveries`]).
    recovery: Arc<RecoveryWatch>,
}

/// The serving layer's view of daemon crash-recoveries. Each daemon counts
/// its own restarts; this watch remembers the counts the dashboard has
/// already reacted to, so the first request after a recovery — whichever
/// worker thread it lands on — purges the cache of every entry that could
/// still hold bytes from a dead (pre-crash) epoch.
#[derive(Default)]
struct RecoveryWatch {
    ctld_seen: AtomicU64,
    dbd_seen: AtomicU64,
}

/// The data-source label for a cache key: the prefix before the first `:`
/// (`"recent_jobs:alice"` -> `"recent_jobs"`). Bounded cardinality — user
/// names and job ids never become labels.
fn source_of(key: &str) -> &str {
    key.split(':').next().unwrap_or(key)
}

/// How [`DashboardContext::cached_resilient`] answered — the per-widget
/// degradation contract. One failing data source degrades only the widgets
/// that read from it; each widget learns *how* its data arrived and renders
/// an honest notice instead of a blank page.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceOutcome {
    /// Current data: a fresh cache hit or a successful (possibly retried)
    /// load.
    Fresh(Body),
    /// The source is failing; the last-known-good payload is served with
    /// its age so the widget can say "showing data from N min ago".
    Stale {
        body: Body,
        age_secs: u64,
        error: String,
    },
    /// The source is failing and no last-known-good copy exists; the widget
    /// shows "temporarily unavailable", everything else keeps rendering.
    Failed(String),
}

impl SourceOutcome {
    /// True unless the fetch came back `Failed` — the availability measure
    /// loadgen and the chaos tests report (stale counts as available:
    /// the widget rendered data).
    pub fn is_available(&self) -> bool {
        !matches!(self, SourceOutcome::Failed(_))
    }

    /// Stable label for metrics and load-generator reports.
    pub fn kind(&self) -> &'static str {
        match self {
            SourceOutcome::Fresh(_) => "fresh",
            SourceOutcome::Stale { .. } => "degraded",
            SourceOutcome::Failed(_) => "failed",
        }
    }

    /// The payload, if any was served (fresh or stale).
    pub fn body(&self) -> Option<&Body> {
        match self {
            SourceOutcome::Fresh(body) | SourceOutcome::Stale { body, .. } => Some(body),
            SourceOutcome::Failed(_) => None,
        }
    }

    /// Rewrite the served payload (fresh or stale), keeping the verdict.
    pub fn map_body(self, f: impl FnOnce(Body) -> Body) -> SourceOutcome {
        match self {
            SourceOutcome::Fresh(body) => SourceOutcome::Fresh(f(body)),
            SourceOutcome::Stale {
                body,
                age_secs,
                error,
            } => SourceOutcome::Stale {
                body: f(body),
                age_secs,
                error,
            },
            failed => failed,
        }
    }
}

impl DashboardContext {
    pub fn new(
        cfg: DashboardConfig,
        clock: SharedClock,
        ctld: Arc<Slurmctld>,
        dbd: Arc<Slurmdbd>,
        logs: Arc<JobLogFs>,
        storage: Arc<StorageDb>,
        news: Arc<NewsFeed>,
    ) -> DashboardContext {
        let obs = Arc::new(Registry::new());
        // Each subscriber sees what `CurrentUser::may_view_job_of` would
        // show it: the same profile, the same `allows_job`. The resolver
        // reaches into slurmctld (daemon lock); the hub promises never to
        // call it from the fan-out path, which runs under that lock.
        let resolver: VisibilityResolver = {
            let ctld = ctld.clone();
            Arc::new(move |user: &str, is_admin: bool| -> Visibility {
                let profile = crate::auth::profile_of(&ctld, user, is_admin);
                let user = user.to_string();
                Box::new(move |e: &JobEvent| profile.allows_job(&user, &e.user, &e.account, ""))
            })
        };
        let push = Hub::new(
            HubConfig {
                accounts_ttl: std::time::Duration::from_secs(cfg.push.accounts_ttl_secs),
                idle_ttl: std::time::Duration::from_secs(cfg.push.idle_ttl_secs),
                ..HubConfig::default()
            },
            clock.clone(),
            ctld.events(),
            resolver,
            &obs,
        );
        let park = Arc::new(ParkBudget::new(cfg.push.max_parked_workers));
        let telemetry = Arc::new(TelemetryD::free(clock.clone(), ctld.clone()));
        telemetry.set_registry(&obs);
        let breakers = Arc::new(BreakerBoard::new(
            clock.clone(),
            BreakerConfig {
                failure_threshold: cfg.resilience.breaker_failure_threshold,
                open_secs: cfg.resilience.breaker_open_secs,
                half_open_probes: cfg.resilience.breaker_half_open_probes,
            },
        ));
        // Token secrets come off the same site seed as the backoff jitter,
        // so a given configuration mints a reproducible sequence.
        let tokens = Arc::new(TokenStore::new(cfg.resilience.seed));
        tokens.set_registry(&obs);
        let mut registry = ClusterRegistry::new(clock.clone());
        registry.register(ctld.clone());
        DashboardContext {
            federation: Arc::new(registry),
            cfg: Arc::new(cfg),
            cache: Arc::new(CachedFetcher::new(clock.clone())),
            tokens,
            telemetry,
            obs,
            health: Arc::new(HealthBoard::new()),
            push,
            park,
            breakers,
            clock,
            ctld,
            dbd,
            logs,
            storage,
            news,
            sources: Arc::new(Mutex::new(BTreeMap::new())),
            lookup_counters: Arc::default(),
            recovery: Arc::new(RecoveryWatch::default()),
        }
    }

    /// Use an externally owned telemetry daemon (the scenario's, so routes
    /// see the series the sim driver's collection passes produced).
    pub fn with_telemetry(mut self, telemetry: Arc<TelemetryD>) -> DashboardContext {
        // The injected daemon scrapes this dashboard's own metrics into
        // `self:` series on every collection pass (the free daemon built by
        // `new` did the same, but it is being replaced here).
        telemetry.set_registry(&self.obs);
        self.telemetry = telemetry;
        self
    }

    /// Use an externally built multi-site registry (the federated scenario's)
    /// in place of the single-site one `new` constructed. The context's own
    /// `ctld` should be one of the registered sites.
    pub fn with_federation(mut self, federation: Arc<ClusterRegistry>) -> DashboardContext {
        self.federation = federation;
        self
    }

    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Observe daemon crash-recoveries and purge dead-epoch entries.
    ///
    /// Called on every serving path (resilient fetches, plain lookups,
    /// `/slurm/v0`, `/api/health`). Cheap in the steady state: two relaxed
    /// atomic loads. When a daemon's restart counter has moved since the
    /// last observation, exactly one caller (the `swap` winner) reacts:
    ///
    /// * a controller recovery drops every entry built below the
    ///   republished epoch, so not even the serve-stale fallback can return
    ///   bytes describing state the replay rolled back;
    /// * a `slurmdbd` recovery clears the cache (accounting rows carry no
    ///   epoch, so the honest move is to refill from the recovered store);
    /// * `hpcdash_daemon_restarts_total{daemon}` and the last-recovery
    ///   gauges move, so operators see the crash happened and what it cost.
    ///
    /// During the outage itself nothing is dropped: restart counters only
    /// move once the daemon is back, which is exactly when fresh loads
    /// succeed again.
    pub fn observe_recoveries(&self) {
        let ctld_now = self.ctld.restart_count();
        if ctld_now != self.recovery.ctld_seen.load(Ordering::Relaxed) {
            let seen = self.recovery.ctld_seen.swap(ctld_now, Ordering::AcqRel);
            if ctld_now > seen {
                self.on_recovery("slurmctld", ctld_now - seen, self.ctld.last_recovery());
            }
        }
        let dbd_now = self.dbd.restart_count();
        if dbd_now != self.recovery.dbd_seen.load(Ordering::Relaxed) {
            let seen = self.recovery.dbd_seen.swap(dbd_now, Ordering::AcqRel);
            if dbd_now > seen {
                self.on_recovery("slurmdbd", dbd_now - seen, self.dbd.last_recovery());
            }
        }
    }

    fn on_recovery(
        &self,
        daemon: &'static str,
        restarts: u64,
        report: Option<hpcdash_slurm::durable::RecoveryReport>,
    ) {
        let labels = [("daemon", daemon)];
        self.obs
            .counter("hpcdash_daemon_restarts_total", &labels)
            .add(restarts);
        if let Some(r) = &report {
            self.obs
                .gauge("hpcdash_daemon_last_recovery_duration_us", &labels)
                .set(r.duration_micros as i64);
            self.obs
                .gauge("hpcdash_daemon_last_recovery_wal_lost", &labels)
                .set(r.wal_lost as i64);
        }
        // Only the controller publishes the epochs entries are tagged with.
        match report {
            Some(r) if daemon == "slurmctld" => {
                self.cache.cache().purge_below(r.epoch_after);
            }
            _ => self.cache.clear(),
        }
        self.obs
            .counter("hpcdash_recovery_cache_purges_total", &labels)
            .inc();
        hpcdash_obs::tracestore::annotate("recovery", daemon);
    }

    /// Record that `feature` read from `source` (called inside cache-miss
    /// loaders, so it reflects true backend traffic, not cached replays).
    /// A pair already noted costs two lookups and no allocation.
    pub fn note_source(&self, feature: &str, source: &str) {
        let mut sources = self.sources.lock();
        if sources.get(feature).is_some_and(|s| s.contains(source)) {
            return;
        }
        sources
            .entry(feature.to_string())
            .or_default()
            .insert(source.to_string());
    }

    /// The observed feature -> sources mapping (the measured Table 1).
    pub fn observed_sources(&self) -> BTreeMap<String, BTreeSet<String>> {
        self.sources.lock().clone()
    }

    pub fn clear_observed_sources(&self) {
        self.sources.lock().clear();
    }

    /// One lookup's hit/miss, by data source (`hpcdash_cache_*_total`).
    fn count_lookup(&self, source: &str, hit: bool) {
        let mut by_source = self.lookup_counters.lock();
        if !by_source.contains_key(source) {
            let handles = ["requests", "hits", "misses"].map(|kind| {
                let name = format!("hpcdash_cache_{kind}_total");
                self.obs.counter(&name, &[("source", source)])
            });
            by_source.insert(source.to_string(), handles);
        }
        let [requests, hits, misses] = &by_source[source];
        requests.inc();
        if hit { hits } else { misses }.inc();
    }

    /// A plain lookup under the cache's one freshness rule, for routes that
    /// fill the cache themselves because what they may store depends on the
    /// answer (`/slurm/v0` never stores a 403/404, a job overview is stored
    /// only once its viewer was authorized). They insert through
    /// `self.cache.cache()` and read `last_good` there when a source fails.
    pub fn cache_lookup(&self, key: &str, min_version: u64) -> Option<Body> {
        // The purge of dead-epoch bytes must beat the lookup.
        self.observe_recoveries();
        let hit = self.cache.cache().get(key, min_version);
        self.count_lookup(source_of(key), hit.is_some());
        hit
    }

    /// The resilient fetch path widget routes use: cache + single-flight,
    /// wrapped in the full [`crate::config::ResiliencePolicy`]:
    ///
    /// * the loader encodes its payload itself and returns the bytes
    ///   (`api::encode`), so a payload may borrow from the command
    ///   text it was parsed from for as long as it lives: the loader's own
    ///   scope. The bytes become the body the cache shares out; a hit is a
    ///   lookup and two `Arc` clones;
    /// * failed loads are retried up to `max_retries` times with seeded
    ///   exponential-jitter backoff, bounded by the per-request deadline;
    /// * a tripped circuit breaker short-circuits the backend entirely;
    /// * when every attempt fails (or the breaker is open), the
    ///   last-known-good cached value is served with its age — failures are
    ///   never cached and never evict the copy that keeps a widget alive.
    ///
    /// A `ttl` of zero (the no-cache ablation) makes a single attempt and
    /// skips the cache, retries, breakers, and stale fallback; its body
    /// carries no validator.
    pub fn cached_resilient(
        &self,
        key: &str,
        ttl: u64,
        load: impl Fn() -> Result<Vec<u8>, String>,
    ) -> SourceOutcome {
        // A daemon that recovered since the last request must not have its
        // dead-epoch bytes served below; the check is two atomic loads.
        self.observe_recoveries();
        let source = source_of(key);
        if ttl == 0 {
            return match load() {
                Ok(bytes) => {
                    self.health.record_ok(source);
                    SourceOutcome::Fresh(Body::unvalidated(bytes))
                }
                Err(e) => {
                    self.health.record_error(source);
                    SourceOutcome::Failed(e)
                }
            };
        }
        let labels = [("source", source)];
        let loader_ran = Cell::new(false);
        let last_err: Cell<Option<String>> = Cell::new(None);
        let outcome = self.cache.get_or_fetch(key, ttl, || {
            loader_ran.set(true);
            let _span = Span::enter("cache-miss").attr("key", key);
            // The breaker gate lives inside the loader: fresh cache hits
            // above never consult it (they don't touch the backend), and
            // coalesced followers share the leader's verdict.
            if !self.breakers.allow(source) {
                self.obs
                    .counter("hpcdash_breaker_short_circuits_total", &labels)
                    .inc();
                last_err.set(Some(format!("{source}: circuit open")));
                return None;
            }
            // The tag is read before the load: a tick landing mid-load can
            // only make it too old, which over-purges, never under-purges.
            let version = self.ctld.snapshot().seq;
            let body = self.attempt_with_retries(key, source, &labels, &last_err, &load)?;
            Some((body, version))
        });
        self.count_lookup(source, !loader_ran.get());
        let take_err = || {
            last_err
                .take()
                .unwrap_or_else(|| format!("{source}: load failed"))
        };
        match outcome {
            GraceOutcome::Hit(body) | GraceOutcome::Loaded { value: body, .. } => {
                SourceOutcome::Fresh(body)
            }
            GraceOutcome::Stale { value, age_secs } => {
                self.obs
                    .counter("hpcdash_stale_serves_total", &labels)
                    .inc();
                SourceOutcome::Stale {
                    body: value,
                    age_secs,
                    error: take_err(),
                }
            }
            GraceOutcome::Miss => SourceOutcome::Failed(take_err()),
        }
    }

    /// The retry loop under [`DashboardContext::cached_resilient`]: run
    /// `load` up to `max_attempts` times, sleeping the seeded-jitter
    /// backoff between attempts, stopping early when the deadline would be
    /// overrun or the breaker trips. Every attempt's outcome feeds the
    /// health board and the source's breaker.
    fn attempt_with_retries(
        &self,
        key: &str,
        source: &str,
        labels: &[(&str, &str)],
        last_err: &Cell<Option<String>>,
        load: &impl Fn() -> Result<Vec<u8>, String>,
    ) -> Option<Body> {
        let policy = &self.cfg.resilience;
        let started = std::time::Instant::now();
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            if attempt > 1 {
                self.obs
                    .counter("hpcdash_retry_attempts_total", labels)
                    .inc();
            }
            match load() {
                Ok(bytes) => {
                    self.health.record_ok(source);
                    self.breakers.record_success(source);
                    return Some(Body::new(bytes));
                }
                Err(e) => {
                    self.health.record_error(source);
                    self.breakers.record_failure(source);
                    last_err.set(Some(e));
                }
            }
            if attempt >= policy.max_attempts() {
                break;
            }
            // A breaker that tripped during this request (failures carried
            // over from earlier requests) stops further probing, and a
            // half-open breaker never gets more than its probe budget.
            if !self.breakers.allow(source) {
                self.obs
                    .counter("hpcdash_breaker_short_circuits_total", labels)
                    .inc();
                break;
            }
            let delay = hpcdash_faults::backoff_delay_ms(
                policy.backoff_base_ms,
                policy.backoff_cap_ms,
                attempt - 1,
                policy.seed,
                key,
            );
            let elapsed = started.elapsed().as_millis() as u64;
            if elapsed.saturating_add(delay) >= policy.deadline_ms {
                self.obs
                    .counter("hpcdash_retry_deadline_total", labels)
                    .inc();
                break;
            }
            if delay > 0 {
                std::thread::sleep(std::time::Duration::from_millis(delay));
            }
        }
        self.obs
            .counter("hpcdash_retry_exhausted_total", labels)
            .inc();
        None
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::api::encode;
    use hpcdash_simtime::{Clock, SimClock};
    use hpcdash_slurm::assoc::{Account, AssocStore};
    use hpcdash_slurm::cluster::ClusterSpec;
    use hpcdash_slurm::loadmodel::RpcCostModel;
    use hpcdash_slurm::node::Node;
    use hpcdash_slurm::partition::Partition;
    use hpcdash_slurm::qos::Qos;
    use serde_json::json;

    pub(crate) fn test_ctx() -> DashboardContext {
        test_ctx_with(DashboardConfig::generic("Test"))
    }

    /// Like [`test_ctx`], but also hands back the clock so tests can
    /// advance simulated time.
    pub(crate) fn test_ctx_clocked() -> (DashboardContext, SimClock) {
        let clock = SimClock::new(Timestamp(1_000));
        let ctx = build_ctx(DashboardConfig::generic("Test"), &clock);
        (ctx, clock)
    }

    pub(crate) fn test_ctx_with(cfg: DashboardConfig) -> DashboardContext {
        build_ctx(cfg, &SimClock::new(Timestamp(1_000)))
    }

    fn build_ctx(cfg: DashboardConfig, clock: &SimClock) -> DashboardContext {
        let mut assoc = AssocStore::new();
        assoc.add_account(Account::new("physics"));
        assoc.add_user("physics", "alice");
        let nodes = vec![Node::new("a001", 16, 64_000, 0)];
        let names = vec!["a001".to_string()];
        let spec = ClusterSpec {
            name: "t".to_string(),
            nodes,
            partitions: vec![Partition::new("cpu").with_nodes(names)],
            qos: Qos::standard_set(),
            assoc,
        };
        let dbd = Arc::new(Slurmdbd::with_cost(RpcCostModel::free()));
        let logs = Arc::new(JobLogFs::new());
        let ctld = Arc::new(Slurmctld::with_cost(
            spec,
            clock.shared(),
            dbd.clone(),
            logs.clone(),
            RpcCostModel::free(),
        ));
        DashboardContext::new(
            cfg,
            clock.shared(),
            ctld,
            dbd,
            logs,
            Arc::new(StorageDb::with_cost(std::time::Duration::ZERO)),
            Arc::new(NewsFeed::new()),
        )
    }

    #[test]
    fn resilient_retries_then_succeeds() {
        let ctx = test_ctx();
        let calls = Cell::new(0u32);
        let out = ctx.cached_resilient("squeue:alice", 60, || {
            calls.set(calls.get() + 1);
            if calls.get() < 3 {
                Err("flap".to_string())
            } else {
                Ok(encode(&json!({"jobs": 2})))
            }
        });
        assert_eq!(out, SourceOutcome::Fresh(Body::json(&json!({"jobs": 2}))));
        assert_eq!(calls.get(), 3, "two retries rescued the request");
        assert_eq!(
            ctx.obs
                .counter("hpcdash_retry_attempts_total", &[("source", "squeue")])
                .get(),
            2
        );
        // The rescued request never shows up as exhausted.
        assert_eq!(
            ctx.obs
                .counter("hpcdash_retry_exhausted_total", &[("source", "squeue")])
                .get(),
            0
        );
    }

    #[test]
    fn resilient_serves_stale_with_age_on_failure() {
        let (ctx, clock) = test_ctx_clocked();
        let out = ctx.cached_resilient("sinfo:all", 30, || Ok(encode(&json!({"nodes": 4}))));
        assert_eq!(out, SourceOutcome::Fresh(Body::json(&json!({"nodes": 4}))));
        clock.advance(45);
        let out = ctx.cached_resilient("sinfo:all", 30, || {
            Err::<Vec<u8>, _>("ctld down".to_string())
        });
        assert_eq!(
            out,
            SourceOutcome::Stale {
                body: Body::json(&json!({"nodes": 4})),
                age_secs: 45,
                error: "ctld down".to_string(),
            }
        );
        assert!(out.is_available(), "stale still renders the widget");
        assert_eq!(out.kind(), "degraded");
        // The failed refresh did not evict the copy: another failing pass
        // still serves it, older.
        clock.advance(15);
        match ctx.cached_resilient("sinfo:all", 30, || {
            Err::<Vec<u8>, _>("ctld down".to_string())
        }) {
            SourceOutcome::Stale { age_secs, .. } => assert_eq!(age_secs, 60),
            other => panic!("expected stale, got {other:?}"),
        }
    }

    #[test]
    fn resilient_cold_failure_is_failed_not_panic() {
        let ctx = test_ctx();
        let calls = Cell::new(0u32);
        let fail = || {
            calls.set(calls.get() + 1);
            Err::<Vec<u8>, _>("dbd gone".to_string())
        };
        let out = ctx.cached_resilient("sacct:bob", 60, fail);
        assert_eq!(out, SourceOutcome::Failed("dbd gone".to_string()));
        assert!(!out.is_available());
        assert_eq!(out.kind(), "failed");
        assert_eq!(
            ctx.obs
                .counter("hpcdash_retry_exhausted_total", &[("source", "sacct")])
                .get(),
            1
        );
        // The failure was not cached: the next request probes the backend
        // again, and the health board saw every failed attempt.
        let attempts = calls.get();
        ctx.cached_resilient("sacct:bob", 60, fail);
        assert!(calls.get() > attempts, "errors are never served from cache");
        assert!(ctx.cache.cache().is_empty());
        assert_eq!(
            ctx.health.status_of("sacct"),
            hpcdash_obs::health::HealthStatus::Down
        );
    }

    #[test]
    fn resilient_breaker_opens_after_sustained_failures_and_recovers() {
        let (ctx, clock) = test_ctx_clocked();
        let policy = ctx.cfg.resilience.clone();
        let calls = Cell::new(0u32);
        let fail = || {
            calls.set(calls.get() + 1);
            Err::<Vec<u8>, _>("down".to_string())
        };
        // Default threshold 5, 3 attempts per request: the second request
        // trips the breaker mid-retry (5th consecutive failure).
        assert!(matches!(
            ctx.cached_resilient("storage:a", 30, fail),
            SourceOutcome::Failed(_)
        ));
        assert_eq!(calls.get(), 3);
        assert!(matches!(
            ctx.cached_resilient("storage:a", 30, fail),
            SourceOutcome::Failed(_)
        ));
        assert_eq!(calls.get(), 5, "breaker tripped before the 6th attempt");
        assert_eq!(
            ctx.breakers.state_of("storage"),
            hpcdash_cache::BreakerState::Open
        );
        // While open, the backend is never touched.
        assert!(matches!(
            ctx.cached_resilient("storage:a", 30, fail),
            SourceOutcome::Failed(_)
        ));
        assert_eq!(calls.get(), 5, "open breaker short-circuits the loader");
        // After the cool-down, one probe goes through; success closes it.
        clock.advance(policy.breaker_open_secs);
        let out = ctx.cached_resilient("storage:a", 30, || Ok(encode(&json!("back"))));
        assert_eq!(out, SourceOutcome::Fresh(Body::json(&json!("back"))));
        assert_eq!(
            ctx.breakers.state_of("storage"),
            hpcdash_cache::BreakerState::Closed
        );
    }

    #[test]
    fn resilient_short_circuit_serves_stale_when_available() {
        let (ctx, clock) = test_ctx_clocked();
        // Warm the cache, then let the entry expire.
        ctx.cached_resilient("news:list", 30, || Ok(encode(&json!(["headline"]))));
        clock.advance(60);
        // Trip the breaker with sustained failures.
        for _ in 0..2 {
            ctx.cached_resilient("news:list", 30, || {
                Err::<Vec<u8>, _>("feed down".to_string())
            });
        }
        assert_eq!(
            ctx.breakers.state_of("news"),
            hpcdash_cache::BreakerState::Open
        );
        // An open breaker still serves the last-known-good copy.
        let out = ctx.cached_resilient("news:list", 30, || -> Result<Vec<u8>, String> {
            unreachable!()
        });
        match out {
            SourceOutcome::Stale {
                body,
                age_secs,
                error,
            } => {
                assert_eq!(body, Body::json(&json!(["headline"])));
                assert_eq!(age_secs, 60);
                assert_eq!(error, "news: circuit open");
            }
            other => panic!("expected stale serve, got {other:?}"),
        }
        assert!(
            ctx.obs
                .counter(
                    "hpcdash_breaker_short_circuits_total",
                    &[("source", "news")]
                )
                .get()
                >= 1
        );
    }

    #[test]
    fn resilient_ttl_zero_is_single_attempt() {
        let ctx = test_ctx();
        let calls = Cell::new(0u32);
        let out = ctx.cached_resilient("squeue:z", 0, || {
            calls.set(calls.get() + 1);
            Err::<Vec<u8>, _>("down".to_string())
        });
        assert_eq!(out, SourceOutcome::Failed("down".to_string()));
        assert_eq!(
            calls.get(),
            1,
            "no-cache ablation keeps fail-fast semantics"
        );
        // Successes bypass the cache too: every call loads, nothing is
        // stored or counted, and the body carries no validator.
        for _ in 0..3 {
            let out = ctx.cached_resilient("squeue:z", 0, || {
                calls.set(calls.get() + 1);
                Ok(encode(&json!({"jobs": 1})))
            });
            assert_eq!(out.body().unwrap().validator(), None);
            assert_eq!(&*out.body().unwrap().bytes, b"{\"jobs\":1}");
        }
        assert_eq!(calls.get(), 4, "ttl=0 bypasses the cache");
        assert!(ctx.cache.cache().is_empty());
        assert_eq!(ctx.cache.stats().misses, 0, "no cache traffic at all");
        let requests = ctx
            .obs
            .counter("hpcdash_cache_requests_total", &[("source", "squeue")]);
        assert_eq!(requests.get(), 0);
    }

    #[test]
    fn resilient_disabled_policy_restores_fail_fast() {
        let mut cfg = DashboardConfig::generic("Test");
        cfg.resilience = crate::config::ResiliencePolicy::disabled();
        let ctx = test_ctx_with(cfg);
        let calls = Cell::new(0u32);
        let out = ctx.cached_resilient("sacct:q", 60, || {
            calls.set(calls.get() + 1);
            Err::<Vec<u8>, _>("down".to_string())
        });
        assert_eq!(out, SourceOutcome::Failed("down".to_string()));
        assert_eq!(calls.get(), 1, "ablation: one attempt, no retries");
    }

    #[test]
    fn cache_hit_miss_counters_by_source() {
        let ctx = test_ctx();
        ctx.cached_resilient("squeue:alice", 60, || Ok(encode(&json!(1))));
        ctx.cached_resilient("squeue:alice", 60, || -> Result<Vec<u8>, String> {
            unreachable!()
        });
        ctx.cached_resilient("squeue:bob", 60, || Ok(encode(&json!(2))));
        // Plain lookups count in the same family, under their own source.
        assert!(ctx.cache_lookup("slurm_v0:jobs|alice", 1).is_none());
        let count = |name: &str, source: &str| ctx.obs.counter(name, &[("source", source)]).get();
        assert_eq!(count("hpcdash_cache_requests_total", "squeue"), 3);
        assert_eq!(count("hpcdash_cache_misses_total", "squeue"), 2);
        assert_eq!(count("hpcdash_cache_hits_total", "squeue"), 1);
        assert_eq!(count("hpcdash_cache_requests_total", "slurm_v0"), 1);
        assert_eq!(count("hpcdash_cache_misses_total", "slurm_v0"), 1);
    }

    #[test]
    fn a_hit_hands_out_the_filled_bytes_without_reencoding() {
        let ctx = test_ctx();
        let fill =
            ctx.cached_resilient("squeue:alice", 60, || Ok(encode(&json!({"jobs": [1, 2]}))));
        let hit = ctx.cached_resilient("squeue:alice", 60, || -> Result<Vec<u8>, String> {
            unreachable!()
        });
        let (fill, hit) = (fill.body().unwrap(), hit.body().unwrap());
        assert!(Arc::ptr_eq(&fill.bytes, &hit.bytes), "same allocation");
        assert!(Arc::ptr_eq(&fill.etag, &hit.etag));
        assert_eq!(hit.validator(), Some(&*hit.etag));
    }

    /// Crash the controller on its next tick; it stays down `down_secs`.
    fn crash_ctld(ctx: &DashboardContext, clock: &SimClock, down_secs: u64) {
        let now = clock.now();
        ctx.ctld.faults().install(
            Arc::new(
                hpcdash_faults::FaultPlan::new(7).rule(
                    hpcdash_faults::FaultRule::crash("slurmctld", down_secs)
                        .during(now, Timestamp(now.0 + 1)),
                ),
            ),
            clock.shared(),
        );
        ctx.ctld.tick();
        assert!(ctx.ctld.is_down());
    }

    #[test]
    fn recovery_observation_purges_dead_epoch_caches_exactly_once() {
        let (ctx, clock) = test_ctx_clocked();
        // Warm the three kinds of consumer, in the same cache, pre-crash.
        ctx.ctld.tick();
        let seq = ctx.ctld.snapshot().seq;
        ctx.cached_resilient("squeue:alice", 600, || Ok(encode(&json!({"jobs": 1}))));
        let store = ctx.cache.cache();
        let dead = Body::json(&json!({"old": 1}));
        store.insert(
            "slurm_v0:jobs||alice|fp",
            dead.clone(),
            seq,
            hpcdash_cache::NO_TTL,
        );
        store.insert("job_overview:/api/jobs/1|user:alice", dead, seq, 600);
        assert_eq!(store.len(), 3);
        crash_ctld(&ctx, &clock, 30);
        // During the outage nothing is purged — stale copies ARE the
        // availability story while the daemon is dead.
        ctx.observe_recoveries();
        assert_eq!(store.len(), 3);
        assert!(store.last_good("slurm_v0:jobs||alice|fp").is_some());
        let purges = ctx.obs.counter(
            "hpcdash_recovery_cache_purges_total",
            &[("daemon", "slurmctld")],
        );
        assert_eq!(purges.get(), 0);
        // Let the daemon restart and recover on its next tick.
        clock.advance(31);
        ctx.ctld.tick();
        assert_eq!(ctx.ctld.restart_count(), 1);
        let report = ctx.ctld.last_recovery().expect("recovery report");
        assert!(report.epoch_after > report.epoch_before);
        // An entry built from the recovered epoch must survive the purge.
        let live = Body::json(&json!({"new": 1}));
        store.insert(
            "slurm_v0:nodes||root|fp",
            live,
            report.epoch_after,
            hpcdash_cache::NO_TTL,
        );
        ctx.observe_recoveries();
        assert_eq!(store.len(), 1, "one purge_below dropped every dead epoch");
        for key in [
            "squeue:alice",
            "slurm_v0:jobs||alice|fp",
            "job_overview:/api/jobs/1|user:alice",
        ] {
            assert!(
                store.last_good(key).is_none(),
                "{key}: dead-epoch bytes must not survive, even as last-good"
            );
        }
        assert_eq!(
            store.last_good("slurm_v0:nodes||root|fp").unwrap().version,
            report.epoch_after
        );
        let restarts = ctx
            .obs
            .counter("hpcdash_daemon_restarts_total", &[("daemon", "slurmctld")]);
        assert_eq!(restarts.get(), 1);
        assert_eq!(purges.get(), 1);
        // Observing again is a no-op: the purge fires exactly once.
        ctx.observe_recoveries();
        assert_eq!(restarts.get(), 1);
        assert_eq!(purges.get(), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn dbd_recovery_is_observed_lazily() {
        let (ctx, clock) = test_ctx_clocked();
        ctx.cached_resilient("sacct:alice", 600, || Ok(encode(&json!({"rows": 2}))));
        let now = clock.now();
        ctx.dbd.faults().install(
            Arc::new(hpcdash_faults::FaultPlan::new(3).rule(
                hpcdash_faults::FaultRule::crash("slurmdbd", 20).during(now, Timestamp(now.0 + 1)),
            )),
            clock.shared(),
        );
        // The crash fires on the next dbd RPC.
        let _ = ctx
            .dbd
            .query_jobs(&hpcdash_slurm::dbd::JobFilter::default());
        assert!(ctx.dbd.is_down());
        clock.advance(21);
        // First RPC after the outage recovers the daemon in-line.
        let _ = ctx
            .dbd
            .query_jobs(&hpcdash_slurm::dbd::JobFilter::default());
        assert!(!ctx.dbd.is_down());
        assert_eq!(ctx.dbd.restart_count(), 1);
        // The next fetch observes the recovery and refills from live state.
        let calls = Cell::new(0u32);
        ctx.cached_resilient("sacct:alice", 600, || {
            calls.set(calls.get() + 1);
            Ok(encode(&json!({"rows": 0})))
        });
        assert_eq!(calls.get(), 1, "cache cleared after dbd recovery");
        assert_eq!(
            ctx.obs
                .counter("hpcdash_daemon_restarts_total", &[("daemon", "slurmdbd")])
                .get(),
            1
        );
    }

    #[test]
    fn source_probe_accumulates() {
        let ctx = test_ctx();
        ctx.note_source("My Jobs", "sacct (slurmdbd)");
        ctx.note_source("My Jobs", "squeue (slurmctld)");
        ctx.note_source("My Jobs", "sacct (slurmdbd)");
        let observed = ctx.observed_sources();
        assert_eq!(observed["My Jobs"].len(), 2);
        ctx.clear_observed_sources();
        assert!(ctx.observed_sources().is_empty());
    }
}
