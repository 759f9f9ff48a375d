//! Experiment P13: federated degradation — one site of a 4-cluster
//! federation blacks out, and the portal's aggregate view keeps answering
//! with the dead site's slice honestly marked stale while live sites stay
//! fresh. A fan-out takes no cluster-state mutex on any site. Same-seed
//! chaos replays to the same federation-wide trace.

use hpcdash::FedSite;
use hpcdash_faults::{FaultPlan, FaultRule};
use hpcdash_http::{HttpClient, Method, Request};
use hpcdash_workload::FederationConfig;
use std::collections::BTreeMap;
use std::sync::Arc;

fn fetch(client: &HttpClient, base: &str, path: &str, user: &str) -> (u16, serde_json::Value) {
    let resp = client
        .get(&format!("{base}{path}"), &[("X-Remote-User", user)])
        .unwrap();
    let body = resp.json().unwrap_or(serde_json::Value::Null);
    (resp.status, body)
}

/// Per-site health as reported by `/api/federation/status`.
fn site_health(body: &serde_json::Value) -> BTreeMap<String, String> {
    body["sites"]
        .as_array()
        .unwrap()
        .iter()
        .map(|s| {
            (
                s["cluster"].as_str().unwrap().to_string(),
                s["health"].as_str().unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn blackout_darkens_one_slice_and_the_aggregate_stays_available() {
    let fed = FedSite::build(FederationConfig::quad(41));
    fed.warm_up(1_800);
    let server = fed.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = fed.federation.sites[0].population.users[0].clone();

    // Pre-blackout: every slice live, nothing degraded, and the fan-out
    // caches each site's last good snapshot.
    let (status, body) = fetch(&client, &base, "/api/federation/status", &user);
    assert_eq!(status, 200);
    assert_eq!(body["degraded"], false, "{body}");
    assert_eq!(body["live"], 4);
    let healthy_totals = body["totals"].clone();

    // Gamma's link goes down hard: every slurmctld RPC (including the
    // federation fan-out probe) errors from now on.
    let gamma = fed.federation.site("gamma").unwrap();
    gamma.ctld.faults().install(
        Arc::new(FaultPlan::new(77).rule(FaultRule::error(
            "slurmctld",
            "*",
            "gamma: site link down",
        ))),
        gamma.clock.shared(),
    );
    fed.federation.driver(120).advance(60);

    // Aggregate availability holds at 100%: every federation route still
    // answers 200 through the blackout, round after round.
    for _ in 0..5 {
        fed.federation.sites[0].clock.advance(16); // the honest age keeps growing
        for path in [
            "/api/federation/status",
            "/api/federation/jobs",
            "/api/federation/nodes",
        ] {
            let (status, body) = fetch(&client, &base, path, &user);
            assert_eq!(status, 200, "{path} must answer during the blackout");
            assert_eq!(body["degraded"], true, "{path}: the outage is not hidden");
        }
    }

    // The dead site's slice is marked stale with an honest age notice; the
    // three live sites still report live.
    let (_, body) = fetch(&client, &base, "/api/federation/status", &user);
    let health = site_health(&body);
    assert_eq!(health["gamma"], "stale", "{body}");
    for site in ["alpha", "beta", "delta"] {
        assert_eq!(health[site], "live", "{site} is unaffected: {body}");
    }
    assert_eq!(body["live"], 3);
    assert_eq!(body["stale"], 1);
    let notices: Vec<&str> = body["notices"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|n| n.as_str())
        .collect();
    assert_eq!(notices.len(), 1);
    assert!(
        notices[0].starts_with("site gamma: data from "),
        "honest age notice, got {notices:?}"
    );
    // Totals still include gamma's last-known slice: the aggregate degrades
    // to stale data, never to a missing slice.
    assert_eq!(body["totals"]["nodes"], healthy_totals["nodes"]);

    // Row-level annotations: gamma rows say stale, live-site rows say live.
    let (_, body) = fetch(&client, &base, "/api/federation/nodes", &user);
    for row in body["nodes"].as_array().unwrap() {
        let expected = if row["cluster"] == "gamma" {
            "stale"
        } else {
            "live"
        };
        assert_eq!(row["slice_health"], expected, "{row}");
    }

    // Recovery: the fault clears, the breaker's open interval lapses, and
    // the next fan-out probe reclaims the slice as live.
    gamma.ctld.faults().clear();
    fed.federation.sites[0].clock.advance(31);
    let (_, body) = fetch(&client, &base, "/api/federation/status", &user);
    assert_eq!(body["degraded"], false, "{body}");
    assert_eq!(site_health(&body)["gamma"], "live");
}

#[test]
fn live_sites_keep_publishing_fresh_data_through_a_peer_outage() {
    let fed = FedSite::build(FederationConfig::quad(43));
    fed.warm_up(900);
    let server = fed.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = fed.federation.sites[0].population.users[0].clone();

    let (_, before) = fetch(&client, &base, "/api/federation/status", &user);
    let seq_of = |body: &serde_json::Value, cluster: &str| {
        body["sites"]
            .as_array()
            .unwrap()
            .iter()
            .find(|s| s["cluster"] == cluster)
            .unwrap()["snapshot_seq"]
            .as_u64()
            .unwrap()
    };

    let beta = fed.federation.site("beta").unwrap();
    beta.ctld.faults().install(
        Arc::new(FaultPlan::new(5).rule(FaultRule::error("slurmctld", "*", "beta dark"))),
        beta.clock.shared(),
    );
    fed.federation.driver(600).advance(300);

    let (_, after) = fetch(&client, &base, "/api/federation/status", &user);
    // Live sites moved forward — their slices are genuinely fresh, not a
    // federation-wide freeze.
    for site in ["alpha", "gamma", "delta"] {
        assert!(
            seq_of(&after, site) > seq_of(&before, site),
            "{site} kept publishing: {} -> {}",
            seq_of(&before, site),
            seq_of(&after, site)
        );
    }
    // Beta's slice is pinned at its last good snapshot and says so.
    assert_eq!(site_health(&after)["beta"], "stale");
    assert_eq!(seq_of(&after, "beta"), seq_of(&before, "beta"));
    let beta_site = after["sites"]
        .as_array()
        .unwrap()
        .iter()
        .find(|s| s["cluster"] == "beta")
        .unwrap();
    assert!(
        beta_site["stale_age_secs"].as_u64().unwrap() >= 300,
        "{beta_site}"
    );
}

#[test]
fn fan_out_takes_no_state_mutex_on_any_site() {
    // Every request below fans out, whether or not its answer then comes
    // from the server cache, and each fan-out reads the four sites'
    // epoch-published snapshots only.
    let fed = FedSite::build(FederationConfig::quad(31));
    fed.warm_up(300);
    let user = fed.federation.sites[0].population.users[0].clone();
    let get = |path: &str| {
        fed.dashboard
            .handle(&Request::new(Method::Get, path).with_header("X-Remote-User", &user))
    };
    let locks = || -> Vec<u64> {
        fed.federation
            .sites
            .iter()
            .map(|s| s.ctld.stats().state_lock_count())
            .collect()
    };
    let fanouts = || {
        fed.ctx()
            .obs
            .counter("hpcdash_federation_fanouts_total", &[])
            .get()
    };
    assert_eq!(get("/api/federation/status").status, 200);

    let (locks0, fanouts0) = (locks(), fanouts());
    for _ in 0..10 {
        for path in [
            "/api/federation/status",
            "/api/federation/jobs",
            "/api/federation/nodes",
        ] {
            assert_eq!(get(path).status, 200, "{path}");
        }
    }
    assert_eq!(fanouts() - fanouts0, 30, "every request fanned out");
    assert_eq!(
        locks(),
        locks0,
        "30 fan-outs acquired a cluster-state mutex on some site"
    );
}

#[test]
fn same_seed_yields_the_same_federation_trace() {
    // Seeded chaos against a whole federation replays exactly: per-site
    // health, job totals, and breaker behavior are a pure function of the
    // seed across all four clusters.
    fn trace(seed: u64) -> Vec<String> {
        let plan = FaultPlan::new(seed)
            .rule(FaultRule::error("slurmctld", "*", "flaky gamma").with_probability(0.5));
        let fed = FedSite::build(FederationConfig::quad(17).fault_site("gamma", plan));
        let server = fed.serve().unwrap();
        let base = server.base_url();
        let client = HttpClient::new();
        let user = fed.federation.sites[0].population.users[0].clone();
        let mut driver = fed.federation.driver(3_600);
        let mut out = Vec::new();
        for _ in 0..12 {
            driver.advance(61);
            let (status, body) = fetch(&client, &base, "/api/federation/status", &user);
            assert_eq!(status, 200);
            for (cluster, health) in site_health(&body) {
                out.push(format!("{cluster}:{health}"));
            }
            out.push(format!(
                "pending:{} running:{}",
                body["totals"]["jobs_pending"], body["totals"]["jobs_running"]
            ));
        }
        out
    }
    let a = trace(2024);
    let b = trace(2024);
    let c = trace(2025);
    assert_eq!(a, b, "same seed, same federation-wide trace");
    assert_ne!(a, c, "different seed, different schedule");
    // The chaos actually bit gamma at least once, and never the others.
    assert!(a
        .iter()
        .any(|row| row == "gamma:stale" || row == "gamma:dark"));
    assert!(
        a.iter()
            .all(|row| !row.starts_with("alpha:") || row == "alpha:live"),
        "the chaos is confined to gamma"
    );
}
