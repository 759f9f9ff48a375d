//! Every JSON payload the benchmark's portal and `rest_fed` plans visit, on
//! seeded sites: whether a route encodes a typed row struct or a `json!`
//! value, its 200 body is *canonical* — a fixed point of parse → encode
//! (keys in byte order, numbers in their one spelling). `body_digest` and
//! the content-derived ETags rest on that: the same data is the same bytes,
//! whichever encoder wrote them.
//!
//! Also here, for the typed payloads in particular: the stale annotation of
//! `api::respond` still finds an object to add its three members to, and a
//! cache hit hands out the allocation the fill encoded into.

use hpcdash::core::{CachePolicy, Dashboard, DashboardConfig};
use hpcdash::http::{Body, Method, Request, Response};
use hpcdash::{FedSite, SimSite};
use hpcdash_faults::{FaultPlan, FaultRule};
use hpcdash_workload::{FederationConfig, ScenarioConfig};
use serde_json::{json, Value};
use std::sync::Arc;

fn get(dashboard: &Dashboard, path: &str, auth: (&str, &str)) -> Response {
    dashboard.handle(&Request::new(Method::Get, path).with_header(auth.0, auth.1))
}

/// 200, JSON, and byte-for-byte what its own parse encodes to.
fn assert_canonical(dashboard: &Dashboard, path: &str, auth: (&str, &str)) -> Value {
    let resp = get(dashboard, path, auth);
    assert_eq!(resp.status, 200, "{path}: {}", resp.body_string());
    let value: Value = resp.body_json().unwrap_or_else(|e| panic!("{path}: {e}"));
    let again = serde_json::to_vec(&value).unwrap();
    assert!(
        again == *resp.body,
        "{path}: the body is not canonical JSON\n  sent:    {}\n  reparse: {}",
        resp.body_string(),
        String::from_utf8_lossy(&again)
    );
    value
}

fn mint(dashboard: &Dashboard, subject: &str, scope: &str) -> String {
    let mut req =
        Request::new(Method::Post, "/slurm/v0/admin/tokens").with_header("X-Remote-User", "root");
    req.body = json!({"subject": subject, "scopes": [scope]})
        .to_string()
        .into_bytes();
    let resp = dashboard.handle(&req);
    assert_eq!(resp.status, 200, "{}", resp.body_string());
    format!(
        "Bearer {}",
        resp.body_json().unwrap()["secret"].as_str().unwrap()
    )
}

/// The JSON requests of the benchmark's page mix, for one user.
fn portal_visit(site: &SimSite, user: &str) -> usize {
    let dash = &site.dashboard;
    let auth = ("X-Remote-User", user);
    let mut rows = 0;
    for path in [
        "/api/announcements",
        "/api/recent_jobs",
        "/api/system_status",
        "/api/accounts",
        "/api/storage",
        "/api/updates?since=0",
        "/api/jobmetrics",
        "/api/jobtelemetry",
        "/api/clusterstatus",
    ] {
        assert_canonical(dash, path, auth);
    }
    let my_jobs = assert_canonical(dash, "/api/myjobs", auth);
    let jobs = my_jobs["jobs"].as_array().unwrap();
    rows += jobs.len();
    // A job page for one of the user's own jobs, as the benchmark draws it.
    if let Some(id) = jobs
        .iter()
        .find(|j| j["user"] == user)
        .and_then(|j| j["id"].as_str())
    {
        assert_canonical(dash, &format!("/api/jobs/{id}"), auth);
        assert_canonical(dash, &format!("/api/jobs/{id}/logs"), auth);
    }
    let node = site.scenario.ctld.snapshot().nodes[0].name.clone();
    assert_canonical(dash, &format!("/api/nodes/{node}"), auth);
    rows
}

#[test]
fn portal_payloads_are_canonical_with_and_without_caches() {
    for policy in [CachePolicy::default(), CachePolicy::disabled()] {
        let mut dash = DashboardConfig::purdue_like();
        dash.cache = policy;
        let site = SimSite::build_with(ScenarioConfig::small(), dash);
        site.warm_up(2 * 3_600);
        let users = site.scenario.population.users.clone();
        let mut rows = 0;
        for user in users.iter().take(8) {
            rows += portal_visit(&site, user);
            // Once more: with caches on, the hit path.
            rows += portal_visit(&site, user);
        }
        assert!(rows > 100, "My Jobs tables held {rows} rows in all");
    }
}

#[test]
fn rest_fed_payloads_are_canonical() {
    let fed = FedSite::build(FederationConfig::quad(42));
    let mut driver = fed.warm_up(3_600);
    let dash = &fed.dashboard;
    let user = fed.federation.sites[0].population.users[0].clone();
    let own = mint(dash, &user, "read-own-jobs");
    let root = mint(dash, "root", "read-cluster");
    let clusters: Vec<String> = fed
        .federation
        .sites
        .iter()
        .map(|s| s.config.cluster_name.clone())
        .collect();
    let poll = |label: &str| {
        // The users' cycle, then root's.
        for path in ["/slurm/v0/jobs", "/slurm/v0/associations"] {
            assert_canonical(dash, path, ("Authorization", &own));
        }
        let status = assert_canonical(dash, "/api/federation/status", ("X-Remote-User", &user));
        assert_canonical(dash, "/api/federation/jobs", ("X-Remote-User", &user));
        for path in [
            "/slurm/v0/jobs",
            "/slurm/v0/nodes",
            "/slurm/v0/partitions",
            "/slurm/v0/diag",
        ] {
            assert_canonical(dash, path, ("Authorization", &root));
        }
        for cluster in &clusters {
            for endpoint in ["jobs", "nodes"] {
                let path = format!("/slurm/v0/clusters/{cluster}/{endpoint}");
                assert_canonical(dash, &path, ("Authorization", &root));
            }
            let path = format!("/api/federation/clusters/{cluster}/status");
            assert_canonical(dash, &path, ("X-Remote-User", &user));
        }
        let nodes = assert_canonical(dash, "/api/federation/nodes", ("X-Remote-User", "root"));
        assert!(nodes["nodes"].as_array().unwrap().len() > 20, "{label}");
        status
    };
    let live = poll("live");
    assert_eq!(live["degraded"], false);
    let all_jobs = assert_canonical(dash, "/slurm/v0/jobs", ("Authorization", &root));
    let id = all_jobs["jobs"][0]["job_id"]
        .as_u64()
        .expect("a job exists");
    let one = assert_canonical(
        dash,
        &format!("/slurm/v0/jobs/{id}"),
        ("Authorization", &root),
    );
    assert_eq!(one["jobs"], json!([all_jobs["jobs"][0].clone()]));

    // One site goes dark: its entries grow a notice and an age, and lose
    // nothing of their form.
    let gamma = fed.federation.site("gamma").unwrap();
    gamma.ctld.faults().install(
        Arc::new(FaultPlan::new(7).rule(FaultRule::error("slurmctld", "*", "link down"))),
        gamma.clock.shared(),
    );
    driver.advance(90);
    let degraded = poll("gamma dark");
    assert_eq!(degraded["degraded"], true);
    let entry = degraded["sites"]
        .as_array()
        .unwrap()
        .iter()
        .find(|s| s["cluster"] == "gamma")
        .unwrap();
    assert_eq!(entry["health"], "stale");
    assert!(entry["stale_age_secs"].as_u64().unwrap() >= 90, "{entry}");
    assert!(entry["notice"].as_str().unwrap().contains("gamma"));
    let live_entry = &degraded["sites"][0];
    assert!(
        live_entry.get("notice").is_none() && live_entry.get("stale_age_secs").is_none(),
        "a live site says nothing about staleness: {live_entry}"
    );
}

fn shared(resp: &Response) -> &Arc<[u8]> {
    match &resp.body {
        Body::Shared(bytes) => bytes,
        Body::Owned(_) => panic!("a cached 200 must serve the cache's own allocation"),
    }
}

#[test]
fn typed_payloads_are_shared_on_a_hit_and_annotated_when_stale() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(3_600);
    let dash = &site.dashboard;
    let user = site.scenario.population.users[0].clone();
    let auth = ("X-Remote-User", user.as_str());
    let bearer = mint(dash, "root", "read-cluster");

    let typed_routes = [
        ("/api/myjobs", auth),
        ("/api/recent_jobs", auth),
        ("/api/clusterstatus", auth),
        ("/slurm/v0/jobs", ("Authorization", bearer.as_str())),
        ("/slurm/v0/nodes", ("Authorization", bearer.as_str())),
    ];
    let fills: Vec<Response> = typed_routes
        .iter()
        .map(|(path, auth)| get(dash, path, *auth))
        .collect();
    for ((path, auth), fill) in typed_routes.iter().zip(&fills) {
        let hit = get(dash, path, *auth);
        assert_eq!((fill.status, hit.status), (200, 200), "{path}");
        assert!(
            Arc::ptr_eq(shared(fill), shared(&hit)),
            "{path}: a hit hands out the filled bytes, never a re-encode"
        );
    }

    // Past every TTL, with both daemons failing: the last-good typed
    // payloads go out as the same objects plus the three stale members.
    site.scenario.clock.advance(4_000);
    let down =
        |daemon: &str| Arc::new(FaultPlan::new(1).rule(FaultRule::error(daemon, "*", "down")));
    let clock = site.scenario.clock.shared();
    site.scenario
        .ctld
        .faults()
        .install(down("slurmctld"), clock.clone());
    site.scenario.dbd.faults().install(down("slurmdbd"), clock);
    for ((path, auth), fill) in typed_routes.iter().zip(&fills).take(3) {
        let stale = assert_canonical(dash, path, *auth);
        let mut expected = fill.body_json().unwrap();
        expected["degraded"] = json!(true);
        expected["stale_age_secs"] = json!(4_000);
        expected["stale_error"] = stale["stale_error"].clone();
        assert!(stale["stale_error"].is_string(), "{path}");
        assert_eq!(stale, expected, "{path}");
    }
}
