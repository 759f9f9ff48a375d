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

use hpcdash::cache::body::{annotate_stale, Degradation};
use hpcdash::client::Updates;
use hpcdash::core::api::{
    accounts::Accounts, activejobs::ActiveJobs, announcements::Announcements,
    clusterstatus::ClusterStatus, federation::Status, jobmetrics::JobPerformance,
    joboverview::JobOverview, joboverview::LogTail, jobtelemetry::LiveJobs, myjobs::MyJobs,
    nodeoverview::NodeOverview, recent_jobs::RecentJobs, storage::Storage,
    system_status::SystemStatus,
};
use hpcdash::core::{CachePolicy, Dashboard, DashboardConfig};
use hpcdash::http::{Body, Method, Request, Response};
use hpcdash::{FedSite, SimSite};
use hpcdash_faults::{FaultPlan, FaultRule};
use hpcdash_workload::{FederationConfig, ScenarioConfig};
use serde_json::serde::{Deserialize, Serialize};
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

/// FNV-1a, 64-bit, over everything folded into it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        // A separator, so that moving a byte between two parts shows.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }
}

/// The cold bytes of the paper's data-heavy widgets, pinned: on the seeded
/// campus site with every cache off, each route is asked by every user (and
/// every node and every user's own job for the two detail pages), and the
/// path, status and body of each answer are folded into one digest per
/// route. A change to how a payload is built must leave these unchanged.
#[test]
fn cold_widget_bytes_are_pinned() {
    let mut scenario = ScenarioConfig::campus();
    scenario.free_daemons = true;
    let mut dash = DashboardConfig::purdue_like();
    dash.cache = CachePolicy::disabled();
    let site = SimSite::build_with(scenario, dash);
    site.warm_up(4 * 3_600);
    let dashboard = &site.dashboard;
    let users = site.scenario.population.users.clone();
    let mut digests: std::collections::BTreeMap<&str, Fnv> = std::collections::BTreeMap::new();
    let mut fold = |route: &'static str, path: &str, user: &str| -> Response {
        let resp = get(dashboard, path, ("X-Remote-User", user));
        let digest = digests.entry(route).or_insert_with(Fnv::new);
        digest.fold(path.as_bytes());
        digest.fold(user.as_bytes());
        digest.fold(&resp.status.to_le_bytes());
        digest.fold(&resp.body);
        resp
    };
    let mut own_jobs = Vec::new();
    for user in &users {
        for route in [
            "/api/recent_jobs",
            "/api/jobmetrics",
            "/api/jobtelemetry",
            "/api/clusterstatus",
        ] {
            fold(route, route, user);
        }
        let my_jobs = fold("/api/myjobs", "/api/myjobs", user);
        let my_jobs: Value = my_jobs.body_json().unwrap();
        for job in my_jobs["jobs"].as_array().unwrap() {
            if job["user"] == user.as_str() {
                let id = job["id"].as_str().unwrap();
                fold("/api/jobs/:id", &format!("/api/jobs/{id}"), user);
                own_jobs.push((user, id.to_string()));
            }
        }
    }
    let nodes: Vec<String> = site
        .scenario
        .ctld
        .snapshot()
        .nodes
        .iter()
        .map(|n| n.name.clone())
        .collect();
    for node in &nodes {
        fold("/api/nodes/:name", &format!("/api/nodes/{node}"), &users[0]);
    }
    // The widgets with no pin of their own yet, then each owner's log tail.
    for user in &users {
        for route in [
            "/api/announcements",
            "/api/system_status",
            "/api/accounts",
            "/api/storage",
            "/api/activejobs",
        ] {
            fold(route, route, user);
        }
    }
    for (user, id) in &own_jobs {
        fold("/api/jobs/:id/logs", &format!("/api/jobs/{id}/logs"), user);
    }
    assert!(own_jobs.len() > 100, "{} job pages", own_jobs.len());
    let got: Vec<(&str, String)> = digests
        .iter()
        .map(|(route, d)| (*route, format!("{:016x}", d.0)))
        .collect();
    let pinned = [
        ("/api/accounts", "2a3529ea9e755b9b"),
        ("/api/activejobs", "1b49e447f349a80c"),
        ("/api/announcements", "9684ce7334473598"),
        ("/api/clusterstatus", "dfcfb8363b779e2c"),
        ("/api/jobmetrics", "3f44505f6f12459f"),
        ("/api/jobs/:id", "bb4f1ce384542fa6"),
        ("/api/jobs/:id/logs", "0748683a24523cdc"),
        ("/api/jobtelemetry", "534db5cd887d6248"),
        ("/api/myjobs", "92098c7ab07ad927"),
        ("/api/nodes/:name", "61a756cb9d5ea035"),
        ("/api/recent_jobs", "11b72b977b7b2c3e"),
        ("/api/storage", "eb28f9b179f68f6f"),
        ("/api/system_status", "513bf0a2d6200358"),
    ];
    let pinned: Vec<(&str, String)> = pinned
        .iter()
        .map(|(route, d)| (*route, d.to_string()))
        .collect();
    assert_eq!(got, pinned);
}

/// The stale bytes of every widget route that answers through the
/// resilient cache, pinned: on the seeded campus site each route is filled
/// for two users; then every backend fails (both Slurm daemons by fault
/// rule, the storage database and the news feed switched off) and the
/// clock passes every TTL, so each route sends its last good body with the
/// three degradation members. Path, user, status and body fold into one
/// digest per route. (`/api/jobtelemetry` reads the published snapshot and
/// the collector, which no fault reaches, so it never goes stale.)
#[test]
fn stale_widget_bytes_are_pinned() {
    let mut scenario = ScenarioConfig::campus();
    scenario.free_daemons = true;
    let site = SimSite::build(scenario);
    site.warm_up(2 * 3_600);
    let dashboard = &site.dashboard;
    let users = &site.scenario.population.users[..2];
    let node = site.scenario.ctld.snapshot().nodes[0].name.clone();
    let node_path = format!("/api/nodes/{node}");
    let routes = [
        ("/api/accounts", "/api/accounts"),
        ("/api/activejobs", "/api/activejobs"),
        ("/api/announcements", "/api/announcements"),
        ("/api/announcements", "/api/announcements?scope=all"),
        ("/api/clusterstatus", "/api/clusterstatus"),
        ("/api/jobmetrics", "/api/jobmetrics"),
        ("/api/myjobs", "/api/myjobs"),
        ("/api/nodes/:name", node_path.as_str()),
        ("/api/recent_jobs", "/api/recent_jobs"),
        ("/api/storage", "/api/storage"),
        ("/api/system_status", "/api/system_status"),
    ];
    for user in users {
        for (_, path) in routes {
            let resp = get(dashboard, path, ("X-Remote-User", user));
            assert_eq!(resp.status, 200, "{path}: {}", resp.body_string());
        }
    }

    site.scenario.clock.advance(4_000);
    let down =
        |daemon: &str| Arc::new(FaultPlan::new(1).rule(FaultRule::error(daemon, "*", "down")));
    let clock = site.scenario.clock.shared();
    site.scenario
        .ctld
        .faults()
        .install(down("slurmctld"), clock.clone());
    site.scenario.dbd.faults().install(down("slurmdbd"), clock);
    site.scenario.storage.set_available(false);
    site.scenario.news.set_available(false);

    let mut digests: std::collections::BTreeMap<&str, Fnv> = std::collections::BTreeMap::new();
    for user in users {
        for (route, path) in routes {
            let resp = get(dashboard, path, ("X-Remote-User", user));
            assert_eq!(resp.status, 200, "{path}: {}", resp.body_string());
            assert!(resp.header("etag").is_none(), "{path}: stale has no ETag");
            let body = resp.body_string();
            assert!(body.contains("\"degraded\":true"), "{path}: {body}");
            let digest = digests.entry(route).or_insert_with(Fnv::new);
            digest.fold(path.as_bytes());
            digest.fold(user.as_bytes());
            digest.fold(&resp.status.to_le_bytes());
            digest.fold(&resp.body);
        }
    }
    let got: Vec<(&str, String)> = digests
        .iter()
        .map(|(route, d)| (*route, format!("{:016x}", d.0)))
        .collect();
    let pinned = [
        ("/api/accounts", "f7db401cf4be6fbf"),
        ("/api/activejobs", "deb86cd8db621dce"),
        ("/api/announcements", "f1a6d871206a80b3"),
        ("/api/clusterstatus", "ee7d28860cdcff99"),
        ("/api/jobmetrics", "3721550d564c2815"),
        ("/api/myjobs", "9e5226befe9c0ca6"),
        ("/api/nodes/:name", "04dbf49dd5ff5911"),
        ("/api/recent_jobs", "2d7dd653d34f89c2"),
        ("/api/storage", "b963553a5ab023bb"),
        ("/api/system_status", "c03c2ce201300b3d"),
    ];
    let pinned: Vec<(&str, String)> = pinned
        .iter()
        .map(|(route, d)| (*route, d.to_string()))
        .collect();
    assert_eq!(got, pinned);
}

/// The `rest_fed` bytes, pinned: on the seeded quad federation, every route
/// of the benchmark's poll cycles is asked twice per epoch (the second
/// answer comes from whatever the first one left behind) over eight
/// scheduler ticks, then twice more with gamma dark. Path, asker, status
/// and body of each answer fold into one digest per route. The ticks cover
/// job starts, job completions and a priority reshuffle, which the test
/// checks, so a cache or memo that keeps a row past its job's change shows.
#[test]
fn rest_fed_bytes_are_pinned() {
    let fed = FedSite::build(FederationConfig::quad(42));
    let mut driver = fed.warm_up(4 * 3_600);
    let dash = &fed.dashboard;
    let users: Vec<String> = fed.federation.sites[0].population.users[..4].to_vec();
    let tokens: Vec<String> = users
        .iter()
        .map(|u| mint(dash, u, "read-own-jobs"))
        .collect();
    let root = mint(dash, "root", "read-cluster");
    let clusters: Vec<String> = fed
        .federation
        .sites
        .iter()
        .map(|s| s.config.cluster_name.clone())
        .collect();
    let all_jobs = |dash: &Dashboard| -> Vec<Value> {
        let body = get(dash, "/slurm/v0/jobs", ("Authorization", &root)).body_json();
        body.unwrap()["jobs"].as_array().unwrap().clone()
    };
    let first = all_jobs(dash);
    let ids: Vec<u64> = [0, first.len() / 2, first.len() - 1]
        .iter()
        .map(|&i| first[i]["job_id"].as_u64().unwrap())
        .collect();

    let mut digests: std::collections::BTreeMap<&str, Fnv> = std::collections::BTreeMap::new();
    let mut poll = |dash: &Dashboard| {
        let mut asks: Vec<(&str, String, (&str, &str))> = Vec::new();
        for (user, token) in users.iter().zip(&tokens) {
            asks.push((
                "/slurm/v0/jobs",
                "/slurm/v0/jobs".into(),
                ("Authorization", token),
            ));
            for route in ["/api/federation/status", "/api/federation/jobs"] {
                asks.push((route, route.into(), ("X-Remote-User", user)));
            }
        }
        let root = ("Authorization", root.as_str());
        asks.push(("/slurm/v0/jobs", "/slurm/v0/jobs".into(), root));
        for id in &ids {
            asks.push(("/slurm/v0/jobs/:id", format!("/slurm/v0/jobs/{id}"), root));
        }
        for c in &clusters {
            let path = format!("/slurm/v0/clusters/{c}/jobs");
            asks.push(("/slurm/v0/clusters/:c/jobs", path, root));
        }
        let nodes = "/api/federation/nodes";
        asks.push((nodes, nodes.into(), ("X-Remote-User", "root")));
        for _ in 0..2 {
            for (route, path, auth) in &asks {
                let resp = get(dash, path, *auth);
                let digest = digests.entry(route).or_insert_with(Fnv::new);
                digest.fold(path.as_bytes());
                digest.fold(auth.1.as_bytes());
                digest.fold(&resp.status.to_le_bytes());
                digest.fold(&resp.body);
            }
        }
    };

    let key = |j: &Value| j["job_id"].as_u64().unwrap();
    let (mut started, mut finished, mut reshuffled) = (0, 0, 0);
    let mut before = first;
    poll(dash);
    for _ in 0..8 {
        driver.advance(30);
        poll(dash);
        let after = all_jobs(dash);
        for job in &before {
            match after.iter().find(|j| key(j) == key(job)) {
                None => finished += 1,
                Some(now) => {
                    started +=
                        usize::from(job["job_state"] == "PENDING" && now["job_state"] == "RUNNING");
                    reshuffled += usize::from(job["priority"] != now["priority"]);
                }
            }
        }
        before = after;
    }
    assert!(
        started > 0 && finished > 0 && reshuffled > 0,
        "{started} starts, {finished} completions, {reshuffled} priority changes"
    );
    let gamma = fed.federation.site("gamma").unwrap();
    gamma.ctld.faults().install(
        Arc::new(FaultPlan::new(7).rule(FaultRule::error("slurmctld", "*", "link down"))),
        gamma.clock.shared(),
    );
    for _ in 0..2 {
        driver.advance(30);
        poll(dash);
    }

    let got: Vec<(&str, String)> = digests
        .iter()
        .map(|(route, d)| (*route, format!("{:016x}", d.0)))
        .collect();
    let pinned = [
        ("/api/federation/jobs", "c6ea02b09d2c8465"),
        ("/api/federation/nodes", "86163d00744fddd1"),
        ("/api/federation/status", "da80e9e31c02c357"),
        ("/slurm/v0/clusters/:c/jobs", "4235b3431ca7cb3b"),
        ("/slurm/v0/jobs", "0fd2e560b86a33ab"),
        ("/slurm/v0/jobs/:id", "7c271a7ce8ca975d"),
    ];
    let pinned: Vec<(&str, String)> = pinned
        .iter()
        .map(|(route, d)| (*route, d.to_string()))
        .collect();
    assert_eq!(got, pinned);
}

/// `body` decoded as its route's payload type and encoded again.
fn reencode(path: &str, body: &[u8]) -> Vec<u8> {
    fn via<T: Serialize + Deserialize>(path: &str, body: &[u8]) -> Vec<u8> {
        let payload: T = serde_json::from_slice(body).unwrap_or_else(|e| {
            let text = String::from_utf8_lossy(body);
            panic!("{path} does not decode: {e}\n  {text}")
        });
        serde_json::to_vec(&payload).unwrap()
    }
    let route = path.split('?').next().unwrap();
    match route {
        "/api/accounts" => via::<Accounts>(path, body),
        "/api/activejobs" => via::<ActiveJobs>(path, body),
        "/api/announcements" => via::<Announcements>(path, body),
        "/api/clusterstatus" => via::<ClusterStatus>(path, body),
        "/api/federation/status" => via::<Status>(path, body),
        "/api/jobmetrics" => via::<JobPerformance>(path, body),
        "/api/jobtelemetry" => via::<LiveJobs>(path, body),
        "/api/myjobs" => via::<MyJobs>(path, body),
        "/api/recent_jobs" => via::<RecentJobs>(path, body),
        "/api/storage" => via::<Storage>(path, body),
        "/api/system_status" => via::<SystemStatus>(path, body),
        "/api/updates" | "/api/updates/stream" => via::<Updates>(path, body),
        r if r.starts_with("/api/nodes/") => via::<NodeOverview>(path, body),
        r if r.ends_with("/logs") => via::<LogTail>(path, body),
        r if r.starts_with("/api/jobs/") => via::<JobOverview>(path, body),
        other => panic!("no payload type for {other}"),
    }
}

/// A 200's body is exactly what its payload type encodes: decode, encode
/// and (for a stale answer) the degradation splice give the served bytes
/// back. Returns whether the answer was stale.
fn assert_round_trip(path: &str, resp: &Response) -> bool {
    let body: &[u8] = &resp.body;
    match Degradation::of(body) {
        Some(Degradation {
            stale_age_secs: Some(age),
            stale_error: Some(error),
            ..
        }) => {
            let again = annotate_stale(&reencode(path, body), age, &error).unwrap();
            assert!(
                again == body,
                "{path}: stale bytes differ after a round trip"
            );
            true
        }
        _ => {
            let again = reencode(path, body);
            assert!(
                again == body,
                "{path}: bytes differ after a round trip\n  sent:  {}\n  again: {}",
                resp.body_string(),
                String::from_utf8_lossy(&again)
            );
            false
        }
    }
}

/// The one description of each payload, checked against the wire: on the
/// seeded campus site, every route a renderer or the client reads is asked
/// by a job's owner, a member of the owner's account, a user of another
/// account and an admin, fresh and then stale, and each 200 is the bytes
/// its payload type decodes and encodes to.
#[test]
fn typed_payloads_round_trip_every_route_and_viewer() {
    let mut scenario = ScenarioConfig::campus();
    scenario.free_daemons = true;
    let site = SimSite::build(scenario);
    site.warm_up(4 * 3_600);
    let dashboard = &site.dashboard;
    let pop = &site.scenario.population;
    let shares = |a: &str, b: &str| {
        let theirs = pop.accounts_of(b);
        pop.accounts_of(a).iter().any(|acct| theirs.contains(acct))
    };
    let owner = pop.users[0].clone();
    let member = pop.users.iter().find(|u| **u != owner && shares(&owner, u));
    let other = pop.users.iter().find(|u| !shares(&owner, u));
    let viewers = [
        owner.clone(),
        member.expect("a member of the owner's account").clone(),
        other.expect("a user of another account").clone(),
        "root".to_string(),
    ];
    let my_jobs: Value = get(dashboard, "/api/myjobs", ("X-Remote-User", &owner))
        .body_json()
        .unwrap();
    let job = my_jobs["jobs"]
        .as_array()
        .unwrap()
        .iter()
        .find(|j| j["user"] == owner.as_str() && j["start"].is_string())
        .expect("a started job of the owner's");
    let job = job["id"].as_str().unwrap();
    let node = site.scenario.ctld.snapshot().nodes[0].name.clone();
    let paths = [
        "/api/accounts".to_string(),
        "/api/activejobs".to_string(),
        "/api/announcements".to_string(),
        "/api/announcements?scope=all".to_string(),
        "/api/clusterstatus".to_string(),
        "/api/federation/status".to_string(),
        "/api/jobmetrics".to_string(),
        "/api/jobtelemetry".to_string(),
        "/api/myjobs".to_string(),
        "/api/recent_jobs".to_string(),
        "/api/storage".to_string(),
        "/api/system_status".to_string(),
        "/api/updates?since=0".to_string(),
        "/api/updates/stream?sub=tab&wait_ms=0".to_string(),
        format!("/api/nodes/{node}"),
        format!("/api/jobs/{job}"),
        format!("/api/jobs/{job}/logs"),
        format!("/api/jobs/{job}/logs?stream=err"),
    ];
    let ask_all = || {
        let (mut answered, mut stale) = (0, 0);
        for viewer in &viewers {
            for path in &paths {
                let resp = get(dashboard, path, ("X-Remote-User", viewer));
                if resp.status == 200 {
                    answered += 1;
                    stale += usize::from(assert_round_trip(path, &resp));
                } else {
                    // Only the job pages are refused, and only to viewers
                    // the privacy rule keeps out.
                    assert!(path.starts_with("/api/jobs/") && *viewer != owner, "{path}");
                    assert_eq!(resp.status, 403, "{path} as {viewer}");
                }
            }
        }
        (answered, stale)
    };
    let (answered, stale) = ask_all();
    assert_eq!(stale, 0);
    assert!(answered >= 4 * 16, "{answered} fresh answers");

    site.scenario.clock.advance(4_000);
    let down =
        |daemon: &str| Arc::new(FaultPlan::new(1).rule(FaultRule::error(daemon, "*", "down")));
    let clock = site.scenario.clock.shared();
    site.scenario
        .ctld
        .faults()
        .install(down("slurmctld"), clock.clone());
    site.scenario.dbd.faults().install(down("slurmdbd"), clock);
    site.scenario.storage.set_available(false);
    site.scenario.news.set_available(false);
    let (_, stale) = ask_all();
    assert!(stale >= 4 * 10, "{stale} stale answers");
}

fn shared(resp: &Response) -> &Arc<Vec<u8>> {
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
