//! One differential test for the one server cache: every cached route is
//! driven through fill, hit, `If-None-Match` revalidation, a refill, its
//! source failing after the TTL and its source failing cold, and each form
//! is compared with the bytes the fill produced.
//!
//! What must hold everywhere: a hit hands out the filled bytes (the same
//! allocation — nothing is re-encoded), the ETag is a function of the bytes
//! alone, a 304 has no body, only current 200s carry an `ETag` (degraded,
//! stale and error answers never do, and errors are never stored), the
//! degraded body is the filled object plus the three degradation members,
//! and with `CachePolicy::disabled()` nothing touches the cache at all.

use hpcdash::cache::etag_for;
use hpcdash::core::{CachePolicy, DashboardConfig};
use hpcdash::http::{Body, Method, Request, Response};
use hpcdash::SimSite;
use hpcdash_faults::{FaultPlan, FaultRule};
use hpcdash_slurm::job::{JobRequest, UsageProfile};
use hpcdash_workload::ScenarioConfig;
use serde_json::{json, Value};
use std::sync::Arc;

/// What can be taken away from under a route, and how its answer degrades.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Source {
    /// A widget source behind `cached_resilient`: retries, then the
    /// annotated last-good payload, then 503.
    Ctld,
    Dbd,
    News,
    Storage,
    /// The `slurm_v0` boundary: last-good bytes under `X-Hpcdash-Stale`.
    SlurmV0,
    /// The loader reads in-process state and cannot fail.
    None,
}

struct Route {
    path: String,
    auth: (&'static str, String),
    source: Source,
    ttl: u64,
    /// `/api/jobmetrics` splices two cached bodies per request, so its hit
    /// is byte-equal but not the same allocation — and its live strip (own
    /// source, shorter TTL) refills while the metrics under it are failing.
    spliced: bool,
}

struct Probe<'a> {
    site: &'a SimSite,
}

impl Probe<'_> {
    fn get(&self, route: &Route, if_none_match: Option<&str>) -> Response {
        let mut req =
            Request::new(Method::Get, &route.path).with_header(route.auth.0, &route.auth.1);
        if let Some(etag) = if_none_match {
            req = req.with_header("If-None-Match", etag);
        }
        self.site.dashboard.handle(&req)
    }

    fn inserts(&self) -> u64 {
        self.site.ctx().cache.stats().inserts
    }

    fn set_broken(&self, source: Source, broken: bool) {
        let scenario = &self.site.scenario;
        let fault = |daemon: &str, rpc: &str| {
            let plan = FaultPlan::new(1).rule(FaultRule::error(daemon, rpc, "source down"));
            (Arc::new(plan), scenario.clock.shared())
        };
        match (source, broken) {
            (Source::Ctld, true) => {
                let (plan, clock) = fault("slurmctld", "*");
                scenario.ctld.faults().install(plan, clock);
            }
            (Source::SlurmV0, true) => {
                let (plan, clock) = fault("slurmctld", "slurm_v0");
                scenario.ctld.faults().install(plan, clock);
            }
            (Source::Ctld | Source::SlurmV0, false) => scenario.ctld.faults().clear(),
            (Source::Dbd, true) => {
                let (plan, clock) = fault("slurmdbd", "*");
                scenario.dbd.faults().install(plan, clock);
            }
            (Source::Dbd, false) => scenario.dbd.faults().clear(),
            (Source::News, up) => scenario.news.set_available(!up),
            (Source::Storage, up) => scenario.storage.set_available(!up),
            (Source::None, _) => {}
        }
    }
}

fn shared(resp: &Response) -> &Arc<Vec<u8>> {
    match &resp.body {
        Body::Shared(bytes) => bytes,
        Body::Owned(_) => panic!("a cached 200 must serve the cache's own allocation"),
    }
}

fn mint(site: &SimSite, subject: &str, scope: &str) -> String {
    let mut req =
        Request::new(Method::Post, "/slurm/v0/admin/tokens").with_header("X-Remote-User", "root");
    req.body = json!({"subject": subject, "scopes": [scope]})
        .to_string()
        .into_bytes();
    let resp = site.dashboard.handle(&req);
    assert_eq!(resp.status, 200, "{}", resp.body_string());
    resp.body_json().unwrap()["secret"]
        .as_str()
        .unwrap()
        .to_string()
}

/// A user, a job of theirs and a job they may not see.
struct Cast {
    alice: String,
    alice_job: u32,
    foreign_job: u32,
}

fn cast(site: &SimSite) -> Cast {
    let pop = &site.scenario.population;
    let alice = pop.users[0].clone();
    let a_accounts = pop.accounts_of(&alice);
    let bob = pop
        .users
        .iter()
        .find(|u| !pop.accounts_of(u).iter().any(|a| a_accounts.contains(a)))
        .expect("population has a disjoint user")
        .clone();
    let submit = |user: &str, account: &str| {
        let mut req = JobRequest::simple(user, account, "cpu", 2);
        req.usage = UsageProfile::batch(3_600);
        site.scenario.ctld.submit(req).unwrap()[0].0
    };
    let alice_job = submit(&alice, &a_accounts[0]);
    let foreign_job = submit(&bob, &pop.accounts_of(&bob)[0]);
    site.scenario.ctld.tick();
    Cast {
        alice,
        alice_job,
        foreign_job,
    }
}

fn routes(site: &SimSite, cast: &Cast, bearer: &str) -> Vec<Route> {
    let ttl = &site.ctx().cfg.cache;
    let node = site.scenario.ctld.snapshot().nodes[0].name.clone();
    let cluster = site.scenario.config.cluster_name.clone();
    let job = cast.alice_job;
    let user = |path: &str, source, ttl| Route {
        path: path.to_string(),
        auth: ("X-Remote-User", cast.alice.clone()),
        source,
        ttl,
        spliced: false,
    };
    let token = |path: String| Route {
        path,
        auth: ("Authorization", format!("Bearer {bearer}")),
        source: Source::SlurmV0,
        ttl: 0,
        spliced: false,
    };
    let mut routes = vec![
        user("/api/announcements", Source::News, ttl.announcements),
        user("/api/recent_jobs", Source::Ctld, ttl.recent_jobs),
        user("/api/system_status", Source::Ctld, ttl.system_status),
        user("/api/accounts", Source::Ctld, ttl.accounts),
        user("/api/storage", Source::Storage, ttl.storage),
        user("/api/myjobs?range=7d", Source::Dbd, ttl.myjobs),
        Route {
            spliced: true,
            ..user("/api/jobmetrics?range=7d", Source::Dbd, ttl.jobmetrics)
        },
        user("/api/clusterstatus", Source::Ctld, ttl.cluster_status),
        user(
            &format!("/api/nodes/{node}"),
            Source::Ctld,
            ttl.node_overview,
        ),
        user("/api/activejobs", Source::Ctld, ttl.recent_jobs),
        user("/api/jobtelemetry", Source::None, ttl.telemetry),
        user(
            &format!("/api/jobs/{job}/telemetry"),
            Source::None,
            ttl.telemetry,
        ),
        user(&format!("/api/jobs/{job}"), Source::None, ttl.job_overview),
        user(
            &format!("/api/federation/clusters/{cluster}/status"),
            Source::None,
            ttl.federation,
        ),
        Route {
            auth: ("X-Remote-User", "root".to_string()),
            ..user("/api/observatory", Source::None, ttl.observatory)
        },
    ];
    for endpoint in ["jobs", "nodes", "partitions", "associations", "diag"] {
        routes.push(token(format!("/slurm/v0/{endpoint}")));
    }
    routes.push(token(format!("/slurm/v0/jobs/{job}")));
    for endpoint in ["jobs", "nodes", "partitions"] {
        // The cluster-scoped family reads through the federation slice, not
        // the `slurm_v0` boundary; in a single-site portal it cannot fail.
        routes.push(Route {
            source: Source::None,
            ..token(format!("/slurm/v0/clusters/{cluster}/{endpoint}"))
        });
    }
    routes
}

/// The degraded form of a filled body, as `respond` has always built it:
/// decode, add the three members (error text as served), encode.
fn degraded(route: &Route, fill: &[u8], age_secs: u64, served: &Value) -> Vec<u8> {
    let mut value: Value = serde_json::from_slice(fill).unwrap();
    if route.spliced {
        // The live strip has its own, shorter TTL and source: it was
        // refreshed while the metrics under it went stale.
        value["live_jobs"] = served["live_jobs"].clone();
    }
    value["degraded"] = json!(true);
    value["stale_age_secs"] = json!(age_secs);
    value["stale_error"] = served["stale_error"].clone();
    serde_json::to_vec(&value).unwrap()
}

#[test]
fn every_cached_route_serves_its_filled_bytes_in_every_form() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(1_800);
    let cast = cast(&site);
    let bearer = mint(&site, "root", "read-cluster");
    let probe = Probe { site: &site };
    let clock = &site.scenario.clock;
    let mut refills_revalidated = 0;

    for route in routes(&site, &cast, &bearer) {
        let path = &route.path;
        site.ctx().cache.clear();

        // Fill: a current 200 whose validator is a function of its bytes.
        let inserts = probe.inserts();
        let fill = probe.get(&route, None);
        assert_eq!(fill.status, 200, "{path}: {}", fill.body_string());
        assert!(probe.inserts() > inserts, "{path}: the fill was stored");
        let etag = fill.header("etag").expect(path).to_string();
        assert_eq!(etag, etag_for(&fill.body), "{path}: content-derived ETag");
        assert!(fill.body_json().is_ok(), "{path}");

        // Hit: the filled bytes, from the same allocation, nothing stored.
        let inserts = probe.inserts();
        let hit = probe.get(&route, None);
        assert_eq!(hit.status, 200, "{path}");
        assert_eq!(hit.body, fill.body, "{path}: hit bytes == fill bytes");
        assert_eq!(hit.header("etag"), Some(etag.as_str()), "{path}");
        assert_eq!(probe.inserts(), inserts, "{path}: a hit fills nothing");
        if !route.spliced {
            assert!(
                Arc::ptr_eq(shared(&hit), shared(&fill)),
                "{path}: a hit re-encodes nothing"
            );
        }

        // Revalidation: 304, no body, the validator echoed; any other tag
        // gets the body.
        let not_modified = probe.get(&route, Some(&etag));
        assert_eq!(not_modified.status, 304, "{path}");
        assert!(not_modified.body.is_empty(), "{path}: a 304 has no body");
        assert_eq!(not_modified.header("etag"), Some(etag.as_str()), "{path}");
        assert_eq!(probe.get(&route, Some("\"0\"")).status, 200, "{path}");

        // A refill in a new epoch: equal bytes keep the ETag (and still
        // revalidate), different bytes get a different one.
        site.scenario.ctld.tick();
        site.ctx().cache.clear();
        let refill = probe.get(&route, Some(&etag));
        match refill.status {
            304 => refills_revalidated += 1,
            200 => {
                assert_ne!(refill.body, fill.body, "{path}: equal bytes, new ETag");
                assert_ne!(refill.header("etag"), Some(etag.as_str()), "{path}");
            }
            other => panic!("{path}: refill answered {other}"),
        }
        let fill = probe.get(&route, None);
        let etag = fill.header("etag").expect(path).to_string();
        if route.source == Source::None {
            continue;
        }

        // The source fails after the TTL: the last-good bytes go out
        // labelled, without a validator, and nothing is stored.
        let lapse = route.ttl + 1;
        clock.advance(lapse);
        probe.set_broken(route.source, true);
        let inserts = probe.inserts();
        let stale = probe.get(&route, Some(&etag));
        assert_eq!(stale.status, 200, "{path}: {}", stale.body_string());
        assert!(stale.header("etag").is_none(), "{path}: stale has no ETag");
        if route.source == Source::SlurmV0 {
            assert_eq!(stale.body, fill.body, "{path}: last-known-good bytes");
            assert!(stale.header("x-hpcdash-stale").is_some(), "{path}");
        } else {
            let served = stale.body_json().unwrap();
            assert!(served["stale_error"].is_string(), "{path}");
            assert_eq!(
                stale.body,
                degraded(&route, &fill.body, lapse, &served),
                "{path}: degraded body == filled object + degradation members"
            );
        }
        let inserts = inserts + u64::from(route.spliced);
        assert_eq!(
            probe.inserts(),
            inserts,
            "{path}: stale answers are not stored"
        );

        // The source fails cold: 503, no validator, nothing stored.
        site.ctx().cache.clear();
        let cold = probe.get(&route, Some(&etag));
        assert_eq!(cold.status, 503, "{path}");
        assert!(cold.header("etag").is_none(), "{path}");
        let inserts = inserts + u64::from(route.spliced);
        assert_eq!(probe.inserts(), inserts, "{path}: failures are not stored");
        assert_eq!(
            site.ctx().cache.cache().len(),
            usize::from(route.spliced),
            "{path}"
        );
        probe.set_broken(route.source, false);
    }
    assert!(
        refills_revalidated >= 5,
        "identical bytes across epochs must keep their ETag ({refills_revalidated} did)"
    );
}

#[test]
fn error_answers_carry_no_validator_and_are_never_stored() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(600);
    let cast = cast(&site);
    let narrow = mint(&site, &cast.alice, "read-own-jobs");
    let bearer = format!("Bearer {narrow}");
    let foreign = cast.foreign_job;
    let user = Some(("X-Remote-User", cast.alice.as_str()));
    let token = Some(("Authorization", bearer.as_str()));
    site.ctx().cache.clear();
    let check = |status: u16, path: &str, auth: Option<(&str, &str)>| {
        for _ in 0..2 {
            let mut req = Request::new(Method::Get, path).with_header("If-None-Match", "*");
            if let Some((name, value)) = auth {
                req = req.with_header(name, value);
            }
            let resp = site.dashboard.handle(&req);
            assert_eq!(resp.status, status, "{path}: {}", resp.body_string());
            assert!(resp.header("etag").is_none(), "{path}");
        }
    };
    check(401, "/api/recent_jobs", None);
    check(401, "/slurm/v0/jobs", None);
    check(403, &format!("/api/jobs/{foreign}"), user);
    check(403, "/slurm/v0/diag", token);
    check(403, &format!("/slurm/v0/jobs/{foreign}"), token);
    check(404, "/api/jobs/99999999", user);
    check(404, "/slurm/v0/jobs/99999999", token);
    check(404, "/api/federation/clusters/nosuch/status", user);
    check(400, "/api/myjobs?range=bogus", user);
    assert!(
        site.ctx().cache.cache().is_empty(),
        "401/403/404/400 answers never enter the cache"
    );
    // A bad node name is data, not a failure: its marker is cached so the
    // daemon is asked once, but the 404 it stands for has no validator.
    let req = Request::new(Method::Get, "/api/nodes/nosuch")
        .with_header("X-Remote-User", &cast.alice)
        .with_header("If-None-Match", "*");
    for _ in 0..2 {
        let resp = site.dashboard.handle(&req);
        assert_eq!(resp.status, 404);
        assert!(resp.header("etag").is_none());
    }
    assert_eq!(site.ctx().cache.cache().len(), 1);
}

#[test]
fn disabled_policy_answers_with_no_validator_and_no_cache_traffic() {
    let mut dash = DashboardConfig::purdue_like();
    dash.cache = CachePolicy::disabled();
    let site = SimSite::build_with(ScenarioConfig::small(), dash);
    site.warm_up(1_800);
    let cast = cast(&site);
    let probe = Probe { site: &site };
    // `/slurm/v0` has no TTL knob (its entries live for an epoch), so the
    // policy governs the widget and per-viewer routes only.
    let governed: Vec<Route> = routes(&site, &cast, "unused")
        .into_iter()
        .filter(|r| r.auth.0 == "X-Remote-User")
        .collect();
    assert_eq!(governed.len(), 15);
    for route in &governed {
        let path = &route.path;
        let first = probe.get(route, None);
        assert_eq!(first.status, 200, "{path}: {}", first.body_string());
        assert!(first.header("etag").is_none(), "{path}: no validator");
        // Nothing to revalidate against: never a 304.
        assert_eq!(probe.get(route, Some("*")).status, 200, "{path}");
    }
    let stats = site.ctx().cache.stats();
    assert_eq!(
        (stats.inserts, stats.expirations),
        (0, 0),
        "ttl = 0 bypasses the cache entirely"
    );
    assert!(site.ctx().cache.cache().is_empty());
    let metrics = site
        .dashboard
        .handle(&Request::new(Method::Get, "/api/metrics"))
        .body_string();
    // No lookup was counted for any source: no hit, no miss.
    for family in ["requests", "hits", "misses"] {
        let name = format!("hpcdash_cache_{family}_total{{");
        assert!(!metrics.contains(&name), "{metrics}");
    }
    assert!(!metrics.contains("hpcdash_http_304_total{"));
}
