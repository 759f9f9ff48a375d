//! The load generator: a fleet of simulated users hammering the dashboard,
//! producing the latency/traffic numbers the caching experiments report.

use crate::browser::{DashboardClient, FetchOutcome};
use hpcdash_obs::registry::HistogramSummary;
use hpcdash_obs::{Histogram, Registry};
use hpcdash_simtime::SharedClock;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Load run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Usernames to simulate (one thread per user).
    pub users: Vec<String>,
    /// Fetch iterations per user.
    pub iterations: usize,
    /// API routes each iteration fetches.
    pub paths: Vec<String>,
    /// Client-cache freshness horizon; `None` disables the client cache.
    pub client_fresh_secs: Option<u64>,
    /// Per-user API token secrets (`Authorization: Bearer`), for runs whose
    /// path mix includes the `/slurm/v0` family. Users without an entry
    /// send no bearer and get 401s on those routes.
    pub bearer: BTreeMap<String, String>,
    /// Reuse one TCP connection per user (HTTP/1.1 keep-alive) instead of a
    /// fresh connect per request — browsers do; `curl` loops don't.
    pub keep_alive: bool,
}

impl LoadConfig {
    pub fn new(users: Vec<String>, iterations: usize, paths: Vec<String>) -> LoadConfig {
        LoadConfig {
            users,
            iterations,
            paths,
            client_fresh_secs: None,
            bearer: BTreeMap::new(),
            keep_alive: false,
        }
    }
}

const PERCEIVED: &str = "hpcdash_client_perceived_latency";
const NETWORK: &str = "hpcdash_client_network_latency";

/// Aggregate results of a load run.
#[derive(Debug)]
pub struct LoadReport {
    /// Latency until each component had data to show: every route's
    /// `hpcdash_client_perceived_latency` histogram, summed.
    pub perceived: HistogramSummary,
    /// Latency of requests that actually hit the network: every route's
    /// `hpcdash_client_network_latency` histogram, summed.
    pub network: HistogramSummary,
    /// Total requests that reached the backend.
    pub network_fetches: u64,
    /// Fetches answered entirely from the client cache.
    pub cache_fresh: u64,
    /// Stale-served-then-revalidated fetches.
    pub stale_revalidated: u64,
    /// Fetches rescued by serve-stale-on-error (either side's cache).
    pub stale_on_error: u64,
    /// Wire requests the server answered `304 Not Modified` (ETag
    /// revalidation — a round trip, but no body and no server-side render).
    pub not_modified: u64,
    /// TCP connections opened across the fleet.
    pub connections_opened: u64,
    /// Requests served over a reused (kept-alive) connection. Zero unless
    /// [`LoadConfig::keep_alive`] is set.
    pub connections_reused: u64,
    /// Failed fetches.
    pub errors: u64,
    /// Per-route availability: how each fetch ended for the user
    /// (fresh data, degraded-but-rendered, or failed).
    pub availability: BTreeMap<String, RouteAvailability>,
    /// Per-route client-side metrics for this run:
    /// `hpcdash_client_perceived_latency{route}` and
    /// `hpcdash_client_network_latency{route}` histograms (p50/p95/p99 at
    /// scrape time via `hpcdash_obs::expo`).
    pub registry: Arc<Registry>,
}

/// Per-route fetch outcomes, as the user experienced them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RouteAvailability {
    /// Current data rendered (client-fresh, revalidated, or fresh network).
    pub fresh: u64,
    /// Old-but-honest data rendered (serve-stale-on-error, either side).
    pub degraded: u64,
    /// Nothing rendered — the widget went dark.
    pub failed: u64,
    /// Subset of `fresh` that the server answered `304 Not Modified`
    /// (the ETag fast path: current data, no body on the wire).
    pub not_modified: u64,
}

impl RouteAvailability {
    pub fn total(&self) -> u64 {
        self.fresh + self.degraded + self.failed
    }

    /// Fraction of fetches that rendered data at all (fresh or degraded):
    /// the availability number the resilience experiments report.
    pub fn availability(&self) -> f64 {
        if self.total() == 0 {
            return 1.0;
        }
        (self.fresh + self.degraded) as f64 / self.total() as f64
    }

    /// Fold another tally into this one — used when a scripted run (e.g. a
    /// crash window) is driven as many small loadgen rounds whose per-route
    /// splits are accumulated per phase.
    pub fn merge(&mut self, other: &RouteAvailability) {
        self.fresh += other.fresh;
        self.degraded += other.degraded;
        self.failed += other.failed;
        self.not_modified += other.not_modified;
    }
}

/// Fold a run's per-route availability map into a phase accumulator.
pub fn merge_availability(
    into: &mut BTreeMap<String, RouteAvailability>,
    from: &BTreeMap<String, RouteAvailability>,
) {
    for (route, tally) in from {
        into.entry(route.clone()).or_default().merge(tally);
    }
}

/// The admin observability route mix: what an operator keeping the
/// `/observatory` page open adds to a load run. Meant to be appended to a
/// `LoadConfig.paths` for users in the site's admin list — non-admins get
/// 403s, which count as failed fetches.
pub fn admin_observability_paths() -> Vec<String> {
    vec![
        "/api/observatory".to_string(),
        "/api/traces?limit=20".to_string(),
        // The page's default self-metrics sparkline (name urlencoded).
        "/api/obs/series?name=self%3Ahpcdash_sched_queue_depth&resolution=60".to_string(),
    ]
}

/// What one user's thread counted.
#[derive(Default)]
struct Tally {
    network_fetches: u64,
    cache_fresh: u64,
    stale_revalidated: u64,
    stale_on_error: u64,
    not_modified: u64,
    connections_opened: u64,
    connections_reused: u64,
    errors: u64,
    availability: BTreeMap<String, RouteAvailability>,
}

/// Run a load test against `base_url`. One OS thread per user; each user
/// has an independent client cache, like separate browsers.
pub fn run(base_url: &str, clock: SharedClock, cfg: &LoadConfig) -> LoadReport {
    let registry = Arc::new(Registry::new());
    // Each route's two histograms, resolved once for every thread.
    let latencies: Arc<[[Arc<Histogram>; 2]]> = cfg
        .paths
        .iter()
        .map(|path| [PERCEIVED, NETWORK].map(|name| registry.histogram(name, &[("route", path)])))
        .collect();
    let handles: Vec<_> = cfg
        .users
        .iter()
        .map(|user| {
            let (user, base_url, clock) = (user.clone(), base_url.to_string(), clock.clone());
            let (cfg, latencies) = (cfg.clone(), latencies.clone());
            std::thread::spawn(move || user_run(&base_url, &user, clock, &cfg, &latencies))
        })
        .collect();
    let mut total = Tally::default();
    for h in handles {
        let t = h.join().expect("load worker panicked");
        total.network_fetches += t.network_fetches;
        total.cache_fresh += t.cache_fresh;
        total.stale_revalidated += t.stale_revalidated;
        total.stale_on_error += t.stale_on_error;
        total.not_modified += t.not_modified;
        total.connections_opened += t.connections_opened;
        total.connections_reused += t.connections_reused;
        total.errors += t.errors;
        merge_availability(&mut total.availability, &t.availability);
    }
    // A route listed twice has one pair of histograms: sum each once.
    let routes: BTreeSet<&str> = cfg.paths.iter().map(String::as_str).collect();
    let summed = |name: &str| {
        let all = Histogram::default();
        for route in &routes {
            all.absorb(&registry.histogram(name, &[("route", route)]));
        }
        all.summary()
    };
    LoadReport {
        perceived: summed(PERCEIVED),
        network: summed(NETWORK),
        network_fetches: total.network_fetches,
        cache_fresh: total.cache_fresh,
        stale_revalidated: total.stale_revalidated,
        stale_on_error: total.stale_on_error,
        not_modified: total.not_modified,
        connections_opened: total.connections_opened,
        connections_reused: total.connections_reused,
        errors: total.errors,
        availability: total.availability,
        registry,
    }
}

/// One user's browser fetching `cfg.paths` `cfg.iterations` times;
/// `latencies[i]` holds the perceived and network histograms of
/// `cfg.paths[i]`.
fn user_run(
    base_url: &str,
    user: &str,
    clock: SharedClock,
    cfg: &LoadConfig,
    latencies: &[[Arc<Histogram>; 2]],
) -> Tally {
    let mut client = DashboardClient::new(base_url, user, clock, cfg.client_fresh_secs);
    if cfg.keep_alive {
        client = client.with_keep_alive();
    }
    if let Some(secret) = cfg.bearer.get(user) {
        client = client.with_bearer(secret);
    }
    let mut t = Tally::default();
    for _ in 0..cfg.iterations {
        for (path, [perceived, network]) in cfg.paths.iter().zip(latencies) {
            let slot = t.availability.entry(path.clone()).or_default();
            let result = match client.fetch_api(path) {
                Ok(result) => result,
                Err(_) => {
                    t.errors += 1;
                    slot.failed += 1;
                    continue;
                }
            };
            perceived.observe(result.perceived);
            // Server-annotated stale payloads count as degraded even when
            // the wire request succeeded.
            let degraded =
                result.degradation().is_some() || result.outcome == FetchOutcome::StaleOnError;
            if degraded {
                slot.degraded += 1;
            } else {
                slot.fresh += 1;
            }
            match result.outcome {
                FetchOutcome::CacheFresh => t.cache_fresh += 1,
                FetchOutcome::StaleRevalidated => {
                    t.stale_revalidated += 1;
                    network.observe(result.network);
                }
                FetchOutcome::Network => network.observe(result.network),
                FetchOutcome::NotModified => {
                    slot.not_modified += 1;
                    network.observe(result.network);
                }
                FetchOutcome::StaleOnError => t.stale_on_error += 1,
            }
        }
    }
    t.network_fetches = client.network_fetch_count();
    t.not_modified = client.not_modified_count();
    (t.connections_opened, t.connections_reused) = client.connection_stats();
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_core::{Dashboard, DashboardConfig, DashboardContext};
    use hpcdash_news::NewsFeed;
    use hpcdash_simtime::{SimClock, Timestamp};
    use hpcdash_slurm::assoc::{Account, AssocStore};
    use hpcdash_slurm::cluster::ClusterSpec;
    use hpcdash_slurm::ctld::Slurmctld;
    use hpcdash_slurm::dbd::Slurmdbd;
    use hpcdash_slurm::joblog::JobLogFs;
    use hpcdash_slurm::loadmodel::RpcCostModel;
    use hpcdash_slurm::node::Node;
    use hpcdash_slurm::partition::Partition;
    use hpcdash_slurm::qos::Qos;
    use hpcdash_storage::StorageDb;
    use std::sync::Arc;

    /// The `/slurm/v0` structured route mix: what a programmatic consumer
    /// (script, pipeline, wall display) polling the REST family adds to a load
    /// run. Append to `LoadConfig.paths` and supply each user's token secret
    /// via `LoadConfig.bearer` — users without one get 401s, which count as
    /// failed fetches, so availability reports cover the token gate too.
    fn slurm_v0_paths() -> Vec<String> {
        vec![
            "/slurm/v0/jobs".to_string(),
            "/slurm/v0/nodes".to_string(),
            "/slurm/v0/partitions".to_string(),
            "/slurm/v0/associations".to_string(),
        ]
    }

    /// The federated route mix: what a user keeping the Federation page open
    /// adds to a load run — the cross-cluster overview, their own jobs across
    /// every site, and the merged node view. These routes always answer (a dark
    /// site degrades only its slice), so their payloads carry a top-level
    /// `degraded` flag that the per-route availability report picks up as
    /// degraded-but-rendered, exactly like a stale widget.
    fn federation_paths() -> Vec<String> {
        vec![
            "/api/federation/status".to_string(),
            "/api/federation/jobs".to_string(),
            "/api/federation/nodes".to_string(),
        ]
    }

    fn site(server_cache: bool) -> (hpcdash_http::Server, SimClock, DashboardContext) {
        let clock = SimClock::new(Timestamp(1_000));
        let mut assoc = AssocStore::new();
        assoc.add_account(Account::new("physics"));
        for u in ["u1", "u2", "u3"] {
            assoc.add_user("physics", u);
        }
        let spec = ClusterSpec {
            name: "t".to_string(),
            nodes: vec![Node::new("a001", 16, 64_000, 0)],
            partitions: vec![Partition::new("cpu").with_nodes(vec!["a001".to_string()])],
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
        let mut cfg = DashboardConfig::generic("Test");
        if !server_cache {
            cfg.cache = hpcdash_core::CachePolicy::disabled();
        }
        let ctx = DashboardContext::new(
            cfg,
            clock.shared(),
            ctld,
            dbd,
            logs,
            Arc::new(StorageDb::with_cost(std::time::Duration::ZERO)),
            Arc::new(NewsFeed::new()),
        );
        let dash = Dashboard::new(ctx.clone());
        let server = dash.serve("127.0.0.1:0", 4).unwrap();
        std::mem::forget(dash);
        (server, clock, ctx)
    }

    #[test]
    fn client_cache_absorbs_repeat_traffic() {
        let (server, clock, _ctx) = site(true);
        let cfg = LoadConfig {
            users: vec!["u1".to_string(), "u2".to_string()],
            iterations: 10,
            paths: vec!["/api/system_status".to_string()],
            client_fresh_secs: Some(3_600),
            bearer: Default::default(),
            keep_alive: false,
        };
        let report = run(&server.base_url(), clock.shared(), &cfg);
        assert_eq!(report.errors, 0);
        // 2 users x 10 iterations = 20 fetches; only the first per user hits
        // the network.
        assert_eq!(report.network_fetches, 2);
        assert_eq!(report.cache_fresh, 18);
        assert_eq!(report.perceived.count, 20);
        assert_eq!(report.network.count, 2, "the first fetch of each user");
        let avail = &report.availability["/api/system_status"];
        assert_eq!(avail.fresh, 20);
        assert_eq!(avail.availability(), 1.0);
    }

    #[test]
    fn per_route_availability_separates_failed_routes() {
        let (server, clock, _ctx) = site(true);
        let cfg = LoadConfig {
            users: vec!["u1".to_string()],
            iterations: 3,
            paths: vec![
                "/api/system_status".to_string(),
                "/api/nodes/nope".to_string(),
            ],
            client_fresh_secs: Some(3_600),
            bearer: Default::default(),
            keep_alive: false,
        };
        let report = run(&server.base_url(), clock.shared(), &cfg);
        let ok = &report.availability["/api/system_status"];
        assert_eq!(ok.fresh, 3);
        assert_eq!(ok.availability(), 1.0);
        let bad = &report.availability["/api/nodes/nope"];
        assert_eq!(bad.failed, 3);
        assert_eq!(bad.availability(), 0.0);
    }

    #[test]
    fn disabled_client_cache_hits_backend_every_time() {
        let (server, clock, ctx) = site(true);
        let cfg = LoadConfig {
            users: vec!["u1".to_string()],
            iterations: 5,
            paths: vec!["/api/system_status".to_string()],
            client_fresh_secs: None,
            bearer: Default::default(),
            keep_alive: false,
        };
        let report = run(&server.base_url(), clock.shared(), &cfg);
        assert_eq!(report.network_fetches, 5);
        assert_eq!(report.cache_fresh, 0);
        // But the SERVER cache still protected slurmctld: one sinfo total.
        assert_eq!(ctx.ctld.stats().count_of("sinfo"), 1);
        // And the server cache answered the repeats with 304s: the
        // first request paid for the body, the other four revalidated.
        assert_eq!(report.not_modified, 4);
        let avail = &report.availability["/api/system_status"];
        assert_eq!(avail.not_modified, 4);
        assert_eq!(avail.fresh, 5);
    }

    #[test]
    fn keep_alive_fleet_reuses_connections() {
        let (server, clock, _ctx) = site(true);
        let mut cfg = LoadConfig::new(
            vec!["u1".to_string(), "u2".to_string()],
            5,
            vec!["/api/system_status".to_string()],
        );
        cfg.keep_alive = true;
        let report = run(&server.base_url(), clock.shared(), &cfg);
        assert_eq!(report.errors, 0);
        assert_eq!(report.network_fetches, 10);
        // One TCP connection per user for the whole run.
        assert_eq!(report.connections_opened, 2);
        assert_eq!(report.connections_reused, 8);
        // The same run without keep-alive opens nothing through the pool
        // (one-shot connections are not pooled, so both stats read zero).
        let mut cfg2 = cfg.clone();
        cfg2.keep_alive = false;
        let report2 = run(&server.base_url(), clock.shared(), &cfg2);
        assert_eq!(report2.connections_reused, 0);
    }

    #[test]
    fn admin_mix_is_available_to_admins_and_refused_otherwise() {
        let (server, clock, _ctx) = admin_site();
        let mut paths = vec!["/api/system_status".to_string()];
        paths.extend(admin_observability_paths());
        let cfg = LoadConfig {
            users: vec!["root".to_string()],
            iterations: 3,
            paths,
            client_fresh_secs: None,
            bearer: Default::default(),
            keep_alive: false,
        };
        let report = run(&server.base_url(), clock.shared(), &cfg);
        assert_eq!(report.errors, 0, "{:?}", report.availability);
        for path in admin_observability_paths() {
            let avail = &report.availability[&path];
            assert_eq!(avail.availability(), 1.0, "{path}: {avail:?}");
        }
        // A non-admin running the same mix sees the admin routes refused
        // while the ordinary widget keeps working.
        let cfg = LoadConfig {
            users: vec!["u1".to_string()],
            iterations: 1,
            paths: admin_observability_paths(),
            client_fresh_secs: None,
            bearer: Default::default(),
            keep_alive: false,
        };
        let report = run(&server.base_url(), clock.shared(), &cfg);
        assert_eq!(report.errors, 3, "all admin routes 403 for u1");
    }

    fn admin_site() -> (hpcdash_http::Server, SimClock, DashboardContext) {
        let (server, clock, ctx) = site(true);
        drop(server);
        // Rebuild the dashboard with an admin list; same daemons.
        let mut cfg = (*ctx.cfg).clone();
        cfg.admins = vec!["root".to_string()];
        cfg.features.admin_view = true;
        let ctx = DashboardContext::new(
            cfg,
            ctx.clock.clone(),
            ctx.ctld.clone(),
            ctx.dbd.clone(),
            ctx.logs.clone(),
            ctx.storage.clone(),
            ctx.news.clone(),
        );
        let dash = Dashboard::new(ctx.clone());
        let server = dash.serve("127.0.0.1:0", 4).unwrap();
        std::mem::forget(dash);
        (server, clock, ctx)
    }

    /// Mint an API token for `subject` through the admin endpoint, acting
    /// as `root`, and return the one-time secret.
    fn mint_token(base_url: &str, subject: &str, scopes: &[&str]) -> String {
        let http = hpcdash_http::HttpClient::new();
        let body = serde_json::json!({ "subject": subject, "scopes": scopes });
        let resp = http
            .post(
                &format!("{base_url}/slurm/v0/admin/tokens"),
                &[("X-Remote-User", "root")],
                body.to_string().into_bytes(),
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_string());
        resp.json().unwrap()["secret"].as_str().unwrap().to_string()
    }

    #[test]
    fn slurm_v0_mix_availability_tracks_the_token_gate() {
        let (server, clock, _ctx) = admin_site();
        let base = server.base_url();

        // An admin token sees the whole family.
        let mut cfg = LoadConfig::new(vec!["root".to_string()], 3, slurm_v0_paths());
        cfg.bearer.insert(
            "root".to_string(),
            mint_token(&base, "root", &["read-cluster"]),
        );
        let report = run(&base, clock.shared(), &cfg);
        assert_eq!(report.errors, 0, "{:?}", report.availability);
        for path in slurm_v0_paths() {
            assert_eq!(report.availability[&path].availability(), 1.0, "{path}");
        }

        // A user token scoped to own jobs + account: the job-family routes
        // stay available, node/partition routes refuse (no partition scope),
        // and the per-route report keeps the two families apart.
        let mut cfg = LoadConfig::new(vec!["u1".to_string()], 2, slurm_v0_paths());
        cfg.bearer.insert(
            "u1".to_string(),
            mint_token(&base, "u1", &["read-own-jobs", "read-account:physics"]),
        );
        let report = run(&base, clock.shared(), &cfg);
        assert_eq!(report.availability["/slurm/v0/jobs"].availability(), 1.0);
        assert_eq!(
            report.availability["/slurm/v0/associations"].availability(),
            1.0
        );
        assert_eq!(report.availability["/slurm/v0/nodes"].availability(), 0.0);
        assert_eq!(
            report.availability["/slurm/v0/partitions"].availability(),
            0.0
        );

        // No token at all: every route in the family 401s.
        let cfg = LoadConfig::new(vec!["u2".to_string()], 1, slurm_v0_paths());
        let report = run(&base, clock.shared(), &cfg);
        assert_eq!(report.errors, 4, "{:?}", report.availability);
        for path in slurm_v0_paths() {
            assert_eq!(report.availability[&path].availability(), 0.0, "{path}");
        }
    }

    #[test]
    fn federation_mix_counts_site_loss_as_degraded_not_failed() {
        let (server, clock, ctx) = site(true);
        let cfg = LoadConfig::new(vec!["u1".to_string()], 2, federation_paths());
        let report = run(&server.base_url(), clock.shared(), &cfg);
        assert_eq!(report.errors, 0, "{:?}", report.availability);
        for path in federation_paths() {
            let avail = &report.availability[&path];
            assert_eq!(avail.availability(), 1.0, "{path}: {avail:?}");
            assert_eq!(avail.degraded, 0, "{path}: all sites live");
        }
        // Cut the (single) site's link: the aggregates keep answering from
        // last-known-good, and the top-level `degraded` flag turns the
        // fetches into degraded-but-rendered — never failed.
        ctx.ctld.faults().install(
            Arc::new(
                hpcdash_faults::FaultPlan::new(11).rule(hpcdash_faults::FaultRule::error(
                    "slurmctld",
                    "*",
                    "site link down",
                )),
            ),
            ctx.clock.clone(),
        );
        let report = run(&server.base_url(), clock.shared(), &cfg);
        assert_eq!(report.errors, 0, "{:?}", report.availability);
        for path in federation_paths() {
            let avail = &report.availability[&path];
            assert_eq!(avail.availability(), 1.0, "{path}: {avail:?}");
            assert_eq!(
                avail.fresh, 0,
                "{path}: every answer is honest about the outage"
            );
        }
        ctx.ctld.faults().clear();
    }

    #[test]
    fn crashed_controller_turns_fetches_degraded_never_failed() {
        let (server, clock, ctx) = site(true);
        let paths = vec!["/api/system_status".to_string()];
        let cfg = LoadConfig::new(vec!["u1".to_string()], 2, paths.clone());

        // Warm run: the server cache now holds every route.
        let warm = run(&server.base_url(), clock.shared(), &cfg);
        assert_eq!(warm.errors, 0);

        // Crash the controller (no restart consumed: it stays dead for the
        // whole run). Users keep their data via serve-stale, and the
        // per-route split records the outage as degraded — never failed.
        ctx.ctld.faults().install(
            Arc::new(
                hpcdash_faults::FaultPlan::new(3)
                    .rule(hpcdash_faults::FaultRule::crash("slurmctld", 3_600)),
            ),
            ctx.clock.clone(),
        );
        let mut outage = BTreeMap::new();
        for _ in 0..3 {
            // Step past the server-cache TTL so every round genuinely
            // re-asks the dead daemon (and gets rescued by serve-stale).
            clock.advance(120);
            let report = run(&server.base_url(), clock.shared(), &cfg);
            merge_availability(&mut outage, &report.availability);
        }
        let tally = &outage["/api/system_status"];
        assert_eq!(tally.failed, 0, "serve-stale bridges the crash: {tally:?}");
        assert_eq!(tally.degraded, tally.total(), "every serve is honest");
        assert_eq!(tally.availability(), 1.0);
        ctx.ctld.faults().clear();
    }

    #[test]
    fn no_caches_at_all_hammers_the_daemon() {
        let (server, clock, ctx) = site(false);
        let cfg = LoadConfig {
            users: vec!["u1".to_string(), "u2".to_string(), "u3".to_string()],
            iterations: 4,
            paths: vec!["/api/system_status".to_string()],
            client_fresh_secs: None,
            bearer: Default::default(),
            keep_alive: false,
        };
        let report = run(&server.base_url(), clock.shared(), &cfg);
        assert_eq!(report.network_fetches, 12);
        assert_eq!(
            ctx.ctld.stats().count_of("sinfo"),
            12,
            "every request reached slurmctld"
        );
    }
}
