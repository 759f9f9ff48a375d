//! Paper §8 (migration): the identical dashboard code mounted on a
//! differently-configured site must work with *only* configuration changes.

use hpcdash::SimSite;
use hpcdash_core::DashboardConfig;
use hpcdash_http::HttpClient;
use hpcdash_workload::{PopulationConfig, ScenarioConfig};

fn second_site() -> SimSite {
    let mut scenario = ScenarioConfig::small();
    scenario.cluster_name = "bell-sim".to_string();
    scenario.cpu_nodes = 2;
    scenario.cpu_cores = 48;
    scenario.gpu_nodes = 0; // CPU-only center
    scenario.population = PopulationConfig {
        accounts: 2,
        seed: 1234,
        ..PopulationConfig::default()
    };
    let mut dash = DashboardConfig::generic("Bell");
    dash.cache.announcements = 3_600;
    dash.features.gpu_efficiency = false;
    SimSite::build_with(scenario, dash)
}

#[test]
fn cpu_only_site_works_end_to_end() {
    let site = second_site();
    site.warm_up(1_800);
    let server = site.serve().unwrap();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();
    let get = |path: &str| {
        client
            .get(
                &format!("{}{path}", server.base_url()),
                &[("X-Remote-User", &user)],
            )
            .unwrap()
    };

    // Branding followed the config.
    let shell = get("/");
    assert!(shell.body_string().contains("Bell Dashboard"));

    // One partition, no GPU columns anywhere.
    let status = get("/api/system_status").json().unwrap();
    let parts = status["partitions"].as_array().unwrap().to_vec();
    assert_eq!(parts.len(), 1);
    assert!(parts[0]["gpus"].is_null());

    // My Jobs works and the GPU-efficiency extension stays off.
    let myjobs = get("/api/myjobs?range=all").json().unwrap();
    for job in myjobs["jobs"].as_array().unwrap() {
        assert!(
            job["efficiency"]["gpu"].is_null(),
            "gpu efficiency flag is off"
        );
    }

    // The site-specific cache policy applies: announcements TTL was raised
    // to 1 h, so a reload 30 min later is still a cache hit.
    let counter = |family: &str| {
        let name = format!("hpcdash_cache_{family}_total");
        site.ctx()
            .obs
            .counter(&name, &[("source", "announcements")])
    };
    let (hits, misses) = (counter("hits"), counter("misses"));
    let (hits_before, misses_before) = (hits.get(), misses.get());
    let before = site.ctx().cache.stats();
    get("/api/announcements");
    site.scenario.clock.advance(1_800);
    get("/api/announcements");
    let after = site.ctx().cache.stats();
    assert_eq!(after.inserts - before.inserts, 1, "one cold load");
    assert_eq!(misses.get() - misses_before, 1, "one cold load");
    assert_eq!(
        hits.get() - hits_before,
        1,
        "second read served from cache after 30 min"
    );
}

#[test]
fn same_routes_exist_on_both_sites() {
    let a = SimSite::build(ScenarioConfig::small());
    let b = second_site();
    let routes_a: Vec<_> = a.dashboard.router().route_patterns();
    let routes_b: Vec<_> = b.dashboard.router().route_patterns();
    assert_eq!(
        routes_a, routes_b,
        "migration changes config, never the route table"
    );
}
