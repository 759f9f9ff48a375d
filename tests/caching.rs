//! The dual-caching behaviour (paper §2.4, §3.2) across the whole stack:
//! per-source TTLs, daemon protection, single-flight under request storms,
//! and the client cache's instant warm loads.

use hpcdash::SimSite;
use hpcdash_client::FetchOutcome;
use hpcdash_core::{CachePolicy, DashboardConfig};
use hpcdash_http::{HttpClient, Method, Request};
use hpcdash_workload::ScenarioConfig;

#[test]
fn server_cache_expires_on_simulated_time() {
    let site = SimSite::build(ScenarioConfig::small());
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();
    let get = |path: &str| {
        client
            .get(&format!("{base}{path}"), &[("X-Remote-User", &user)])
            .unwrap()
    };

    // recent_jobs TTL is 30 simulated seconds.
    get("/api/recent_jobs");
    get("/api/recent_jobs");
    assert_eq!(site.scenario.ctld.stats().count_of("squeue"), 1);
    site.scenario.clock.advance(31);
    get("/api/recent_jobs");
    assert_eq!(
        site.scenario.ctld.stats().count_of("squeue"),
        2,
        "TTL expiry refetches"
    );
}

#[test]
fn per_source_ttls_differ() {
    let site = SimSite::build(ScenarioConfig::small());
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();
    let get = |path: &str| {
        client
            .get(&format!("{base}{path}"), &[("X-Remote-User", &user)])
            .unwrap()
    };

    get("/api/recent_jobs"); // 30s TTL -> squeue
    get("/api/system_status"); // 60s TTL -> sinfo
                               // +45s: recent_jobs expired, system_status still fresh.
    site.scenario.clock.advance(45);
    get("/api/recent_jobs");
    get("/api/system_status");
    assert_eq!(site.scenario.ctld.stats().count_of("squeue"), 2);
    assert_eq!(site.scenario.ctld.stats().count_of("sinfo"), 1);
}

/// P1 (paper §2.4): the longer the squeue TTL, the fewer squeue RPCs the
/// same refreshing browsers cost slurmctld.
#[test]
fn squeue_rpcs_fall_monotonically_with_ttl() {
    let squeue_rpcs = |ttl: u64| {
        let mut cfg = DashboardConfig::purdue_like();
        cfg.cache.recent_jobs = ttl;
        let site = SimSite::build_with(ScenarioConfig::small(), cfg);
        let users: Vec<String> = (0..4)
            .map(|i| site.scenario.population.user(i).to_string())
            .collect();
        // Four browsers refresh Recent Jobs every 10 s for five minutes.
        for _ in 0..30 {
            site.scenario.clock.advance(10);
            for user in &users {
                let req = Request::new(Method::Get, "/api/recent_jobs")
                    .with_header("X-Remote-User", user);
                assert_eq!(site.dashboard.handle(&req).status, 200);
            }
        }
        site.scenario.ctld.stats().count_of("squeue")
    };
    let rpcs = [0, 5, 15, 30, 60, 120].map(squeue_rpcs);
    assert_eq!(rpcs[0], 4 * 30, "TTL 0 forwards every refresh");
    assert!(
        rpcs.windows(2).all(|w| w[1] <= w[0]) && rpcs[5] < rpcs[0],
        "squeue RPCs per TTL: {rpcs:?}"
    );
}

#[test]
fn query_storm_is_coalesced_to_one_backend_call() {
    let site = SimSite::build(ScenarioConfig::small());
    let server = site.serve().unwrap();
    let base = server.base_url();
    let user = site.scenario.population.users[0].clone();

    // 16 concurrent cold requests for the same system-wide payload.
    let mut handles = Vec::new();
    for _ in 0..16 {
        let base = base.clone();
        let user = user.clone();
        handles.push(std::thread::spawn(move || {
            let client = HttpClient::new();
            client
                .get(
                    &format!("{base}/api/clusterstatus"),
                    &[("X-Remote-User", &user)],
                )
                .unwrap()
                .status
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), 200);
    }
    let scontrol_calls = site.scenario.ctld.stats().count_of("scontrol_node");
    assert!(
        scontrol_calls <= 2,
        "single-flight should coalesce the storm, saw {scontrol_calls} backend calls"
    );
}

#[test]
fn disabling_the_server_cache_forwards_every_request() {
    let mut cfg = DashboardConfig::purdue_like();
    cfg.cache = CachePolicy::disabled();
    let site = SimSite::build_with(ScenarioConfig::small(), cfg);
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();
    for _ in 0..5 {
        client
            .get(
                &format!("{base}/api/system_status"),
                &[("X-Remote-User", &user)],
            )
            .unwrap();
    }
    assert_eq!(site.scenario.ctld.stats().count_of("sinfo"), 5);
}

#[test]
fn client_cache_makes_warm_homepage_loads_nearly_free() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(900);
    let server = site.serve().unwrap();
    let user = site.scenario.population.users[0].clone();
    let browser = site.browser(&server.base_url(), &user);

    let cold = browser.load_homepage().unwrap();
    let after_cold = browser.network_fetch_count();
    assert!(after_cold >= 5, "cold load hits every widget route");

    let warm = browser.load_homepage().unwrap();
    for (name, result) in &warm.widgets {
        assert_eq!(
            result.as_ref().unwrap().outcome,
            FetchOutcome::CacheFresh,
            "{name} should come from the client cache"
        );
    }
    assert_eq!(
        browser.network_fetch_count(),
        after_cold,
        "no new API traffic"
    );
    // Perceived widget latency on the warm load is cache-read time.
    let warm_p: Vec<_> = warm
        .widgets
        .iter()
        .map(|(_, r)| r.as_ref().unwrap().perceived)
        .collect();
    let cold_p: Vec<_> = cold
        .widgets
        .iter()
        .map(|(_, r)| r.as_ref().unwrap().perceived)
        .collect();
    let warm_max = warm_p.iter().max().unwrap();
    let cold_max = cold_p.iter().max().unwrap();
    assert!(
        warm_max < cold_max,
        "warm perceived latency {warm_max:?} should beat cold {cold_max:?}"
    );
}

#[test]
fn stale_client_entries_render_then_revalidate() {
    let site = SimSite::build(ScenarioConfig::small());
    let server = site.serve().unwrap();
    let user = site.scenario.population.users[0].clone();
    let browser = site.browser(&server.base_url(), &user);

    browser.fetch_api("/api/system_status").unwrap();
    // Cross the client freshness horizon (30s default).
    site.scenario
        .clock
        .advance(site.ctx().cfg.cache.client_fresh + 1);
    let r = browser.fetch_api("/api/system_status").unwrap();
    assert_eq!(r.outcome, FetchOutcome::StaleRevalidated);
    assert!(
        r.perceived < r.network,
        "stale render did not wait for the network"
    );
}
