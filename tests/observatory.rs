//! The observatory end to end: faulted traffic leaves error and degraded traces
//! that an administrator can list and fetch root-first, the p99 exemplar on
//! the route latency histogram resolves to a stored trace, the dashboard's
//! own metrics history is queryable from the TSDB's 1-minute tier, and the
//! whole surface is admin-gated.
//!
//! Everything lives in one test because the trace store is process-wide:
//! the last-built context owns the exemplar registry, and two sites built
//! by parallel tests would race for it.

use hpcdash::SimSite;
use hpcdash_client::admin_observability_paths;
use hpcdash_faults::{FaultPlan, FaultRule};
use hpcdash_http::{HttpClient, TRACE_HEADER};
use hpcdash_workload::ScenarioConfig;
use std::sync::Arc;

fn get(
    client: &HttpClient,
    base: &str,
    path: &str,
    user: &str,
    trace: Option<u64>,
) -> hpcdash_http::ClientResponse {
    let hex = trace.map(|t| format!("{t:016x}"));
    let mut headers: Vec<(&str, &str)> = vec![("X-Remote-User", user)];
    if let Some(h) = &hex {
        headers.push((TRACE_HEADER, h));
    }
    client.get(&format!("{base}{path}"), &headers).unwrap()
}

#[test]
fn observatory_end_to_end() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(600);
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();

    // --- Self-metrics history: 15 simulated minutes of collection feed the
    // `self:` series, enough for the TSDB's 1-minute tier to fill.
    for _ in 0..30 {
        site.scenario.clock.advance(30);
        site.scenario.ctld.tick();
        site.scenario.telemetry.collect_now();
    }

    // --- Healthy traffic under known trace ids.
    for i in 0..20u64 {
        let r = get(&client, &base, "/api/recent_jobs", &user, Some(0xA000 + i));
        assert_eq!(r.status, 200);
    }

    // --- An errored request: dbd outage, cold sacct route goes dark.
    let error_trace = 0xE001u64;
    site.scenario.dbd.faults().install(
        Arc::new(FaultPlan::new(21).rule(FaultRule::error(
            "slurmdbd",
            "*",
            "slurmdbd: connection refused",
        ))),
        site.scenario.clock.shared(),
    );
    let r = get(&client, &base, "/api/jobmetrics", &user, Some(error_trace));
    assert_eq!(r.status, 503);
    site.scenario.dbd.faults().clear();

    // --- A degraded request: the recent-jobs cache goes stale past its TTL,
    // the refresh fails, and the last good payload is served stale.
    let degraded_trace = 0xD001u64;
    site.scenario.clock.advance(40);
    site.scenario.ctld.faults().install(
        Arc::new(FaultPlan::new(3).rule(FaultRule::error(
            "slurmctld",
            "squeue",
            "ctld: socket timeout",
        ))),
        site.scenario.clock.shared(),
    );
    let r = get(
        &client,
        &base,
        "/api/recent_jobs",
        &user,
        Some(degraded_trace),
    );
    assert_eq!(r.status, 200);
    assert_eq!(r.json().unwrap()["degraded"], true, "served stale");
    site.scenario.ctld.faults().clear();

    // --- Both faulted traces are retained and listed for the admin.
    let listing = get(&client, &base, "/api/traces?limit=100", "root", None);
    assert_eq!(listing.status, 200);
    let listing = listing.json().unwrap();
    let rows = listing["traces"].as_array().unwrap();
    let row_for = |id: u64| {
        let hex = format!("{id:016x}");
        rows.iter()
            .find(|t| t["id"] == hex.as_str())
            .unwrap_or_else(|| panic!("trace {hex} not listed in {rows:?}"))
            .clone()
    };
    assert_eq!(row_for(error_trace)["cause"], "error");
    assert_eq!(row_for(degraded_trace)["cause"], "degraded");

    // --- Each is fetchable by id, spans root-first for the waterfall.
    for (id, cause, route) in [
        (error_trace, "error", "/api/jobmetrics"),
        (degraded_trace, "degraded", "/api/recent_jobs"),
    ] {
        let r = get(
            &client,
            &base,
            &format!("/api/traces/{id:016x}"),
            "root",
            None,
        );
        assert_eq!(r.status, 200, "{}", r.body_string());
        let t = r.json().unwrap();
        assert_eq!(t["cause"], cause);
        assert_eq!(t["route"], route);
        let spans = t["spans"].as_array().unwrap();
        assert!(!spans.is_empty());
        assert_eq!(spans[0]["depth"], 0, "root first: {spans:?}");
        assert_eq!(spans[0]["start_offset_ns"], 0);
        assert!(spans[0]["dur_ns"].as_u64().unwrap() >= 1);
    }
    assert_eq!(
        get(&client, &base, "/api/traces/zz", "root", None).status,
        400
    );

    // --- The SLO board's p99 exemplar resolves to a stored trace.
    let summary = get(&client, &base, "/api/observatory", "root", None);
    assert_eq!(summary.status, 200);
    let summary = summary.json().unwrap();
    let slo = summary["slo"].as_array().unwrap();
    let recent = slo
        .iter()
        .find(|row| row["route"] == "/api/recent_jobs")
        .expect("recent_jobs SLO row");
    let exemplar = recent["latency"]["p99_exemplar"]
        .as_str()
        .expect("exemplar written at retention")
        .to_string();
    let r = get(
        &client,
        &base,
        &format!("/api/traces/{exemplar}"),
        "root",
        None,
    );
    assert_eq!(r.status, 200, "exemplar must resolve to a stored trace");

    // --- Tick phases and trace retention counts ride along in the summary.
    assert!(summary["phases"]["slurmctld"]
        .as_array()
        .unwrap()
        .iter()
        .any(|p| p["phase"] == "sched_pass"));
    assert!(summary["traces"]["by_cause"]["error"].as_u64().unwrap() >= 1);

    // --- Self-metrics history serves from the 1-minute tier, non-empty.
    let series_path = "/api/obs/series?name=self%3Ahpcdash_sched_queue_depth&resolution=60";
    let r = get(&client, &base, series_path, "root", None);
    assert_eq!(r.status, 200, "{}", r.body_string());
    let body = r.json().unwrap();
    assert_eq!(body["tier"], "1m");
    assert!(
        !body["points"].as_array().unwrap().is_empty(),
        "15 min of collection must land in the 1m tier: {body}"
    );

    // --- The whole admin mix (what the load generator replays) is gated.
    for path in admin_observability_paths() {
        assert_eq!(
            get(&client, &base, &path, &user, None).status,
            403,
            "{path} must refuse non-admins"
        );
        assert_eq!(
            get(&client, &base, &path, "root", None).status,
            200,
            "{path} must serve admins"
        );
    }
    let page = get(&client, &base, "/observatory", "root", None);
    assert_eq!(page.status, 200);
    assert!(page.body_string().contains("data-api=\"/api/observatory\""));
    assert_eq!(get(&client, &base, "/observatory", &user, None).status, 403);
}
