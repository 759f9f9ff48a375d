//! End-to-end observability: trace propagation across every layer, metrics
//! exposition, and data-source health — the full pipeline from a headless
//! browser through the HTTP server, route, server cache, command layer, and
//! the Slurm daemons.

use hpcdash::SimSite;
use hpcdash_client::FetchOutcome;
use hpcdash_obs::tracestore::store;
use hpcdash_workload::ScenarioConfig;

#[test]
fn cold_page_fetch_traces_every_hop() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(600);
    let server = site.serve().expect("serve");
    let user = site.scenario.population.users[0].clone();
    let browser = site.browser(&server.base_url(), &user);

    let r = browser.fetch_api("/api/recent_jobs").expect("fetch");
    assert_eq!(r.outcome, FetchOutcome::Network);
    let trace = r.trace.expect("network fetch carries a trace id");

    let spans = store().get(trace).expect("trace stored").spans;
    let hops: Vec<&str> = spans.iter().map(|s| s.name).collect();
    assert_eq!(
        hops,
        ["client", "http", "route", "cache-miss", "slurmcli", "ctld"],
        "one hop per layer, in request order"
    );
    for span in &spans {
        assert!(span.dur_ns >= 1, "{} span records a duration", span.name);
        assert_eq!(span.trace, trace);
    }
    // The hops carry layer-specific context.
    assert_eq!(spans[2].attr("route"), Some("/api/recent_jobs"));
    assert_eq!(spans[4].attr("cmd"), Some("squeue_long"));
    assert_eq!(spans[5].attr("kind"), Some("squeue"));

    // A warm fetch by a second browser stops at the server cache: no
    // slurmcli/ctld hops under its trace.
    let user2 = site.scenario.population.users[1].clone();
    let browser2 = site.browser(&server.base_url(), &user2);
    browser2.fetch_api("/api/system_status").expect("fetch");
    let warm2 = browser.fetch_api("/api/system_status").expect("fetch");
    let warm_hops: Vec<&str> = store()
        .get(warm2.trace.unwrap())
        .expect("trace stored")
        .spans
        .iter()
        .map(|s| s.name)
        .collect();
    assert_eq!(
        warm_hops,
        ["client", "http", "route"],
        "cache hit short-circuits"
    );
}

#[test]
fn metrics_endpoint_is_parseable_and_stable() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(600);
    let server = site.serve().expect("serve");
    let user = site.scenario.population.users[0].clone();
    let browser = site.browser(&server.base_url(), &user);
    browser.fetch_api("/api/recent_jobs").expect("fetch");
    browser.fetch_api("/api/system_status").expect("fetch");
    // A second user re-reads the system-wide route: a server-cache hit.
    let user2 = site.scenario.population.users[1].clone();
    let browser2 = site.browser(&server.base_url(), &user2);
    browser2.fetch_api("/api/system_status").expect("fetch");

    let scrape = browser.fetch_shell("/api/metrics").expect("scrape").0;
    // Every non-comment line is `name{labels} value` with a numeric value.
    let mut names = Vec::new();
    for line in scrape
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (series, value) = line.rsplit_once(' ').expect("series value");
        assert!(
            value.parse::<f64>().is_ok(),
            "numeric sample value in {line:?}"
        );
        names.push(series.split('{').next().unwrap().to_string());
    }
    // The families the dashboard promises to export.
    for family in [
        "hpcdash_http_requests_total",
        "hpcdash_http_request_latency",
        "hpcdash_cache_hits_total",
        "hpcdash_cache_misses_total",
        "hpcdash_slurmctld_rpc_total",
        "hpcdash_slurmctld_rpc_latency_ns",
        "hpcdash_sched_ticks_total",
        "hpcdash_sched_queue_depth",
        "hpcdash_sched_tick_busy_ns_total",
        "hpcdash_tick_phase_runs_total",
        "hpcdash_tick_phase_ns_total",
        "hpcdash_telemetryd_rpc_latency_ns",
    ] {
        assert!(names.iter().any(|n| n == family), "missing {family}");
    }
    // Every phase a daemon timed during the warm-up, and only those.
    let mut phases: Vec<String> = scrape
        .lines()
        .filter_map(|l| l.strip_prefix("hpcdash_tick_phase_runs_total{"))
        .map(|l| l.split_once('}').expect("closed labels").0.to_string())
        .collect();
    phases.sort();
    let timed = [
        ("slurmctld", "checkpoint"),
        ("slurmctld", "dbd_record"),
        ("slurmctld", "dbd_sync"),
        ("slurmctld", "joblog_write"),
        ("slurmctld", "sched_pass"),
        ("slurmctld", "snapshot_publish"),
        ("slurmdbd", "mirror_sync"),
        ("telemetryd", "self_scrape"),
        ("telemetryd", "tsdb_ingest"),
    ]
    .map(|(daemon, phase)| format!("daemon=\"{daemon}\",phase=\"{phase}\""));
    assert_eq!(phases, timed, "tick phases after the warm-up");

    // Scrapes are stably ordered: same series sequence both times (values
    // may move — the scrape itself is traffic).
    let scrape2 = browser.fetch_shell("/api/metrics").expect("scrape").0;
    let series = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.rsplit_once(' ').unwrap().0.to_string())
            .collect()
    };
    let first = series(&scrape);
    let second = series(&scrape2);
    // Every series present in the first scrape appears in the same relative
    // order in the second.
    let mut it = second.iter();
    for s in &first {
        assert!(
            it.any(|x| x == s),
            "series {s} missing or reordered in second scrape"
        );
    }
}

#[test]
fn health_endpoint_reflects_source_outcomes() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(600);
    let server = site.serve().expect("serve");
    let user = site.scenario.population.users[0].clone();
    let browser = site.browser(&server.base_url(), &user);
    browser.fetch_api("/api/recent_jobs").expect("fetch");

    let (body, _) = browser.fetch_shell("/api/health").expect("health");
    let report: serde_json::Value = serde_json::from_str(&body).expect("json");
    assert_eq!(report["status"], "up");
    assert_eq!(report["sources"]["recent_jobs"]["status"], "up");
}
