//! Experiment P9: chaos — scripted daemon faults against the resilience
//! layer (retries + circuit breakers + serve-stale, paper §2.2.2).
//!
//! Every fault here comes from a seeded [`FaultPlan`], so each test asserts
//! an exact, reproducible failure schedule rather than hoping a random one
//! shows up. The contract under test is the per-widget degradation story:
//! a failing daemon costs its own widgets freshness (honestly labelled),
//! never the rest of the dashboard.
//!
//! Determinism is checked here too: two same-seed clusters built in one
//! process must repeat their event stream, accounting text and node tables.

use hpcdash::SimSite;
use hpcdash_faults::{FaultPlan, FaultRule};
use hpcdash_http::HttpClient;
use hpcdash_slurm::job::JobState;
use hpcdash_slurmcli::{sacct, squeue, SacctArgs, SqueueArgs};
use hpcdash_workload::{Scenario, ScenarioConfig};
use std::sync::Arc;

fn fetch(client: &HttpClient, base: &str, path: &str, user: &str) -> (u16, serde_json::Value) {
    let resp = client
        .get(&format!("{base}{path}"), &[("X-Remote-User", user)])
        .unwrap();
    let body = resp.json().unwrap_or(serde_json::Value::Null);
    (resp.status, body)
}

/// The widget-visible outcome class of one response.
fn kind(status: u16, body: &serde_json::Value) -> &'static str {
    match (status, body["degraded"].as_bool().unwrap_or(false)) {
        (200, false) => "fresh",
        (200, true) => "degraded",
        _ => "failed",
    }
}

#[test]
fn dbd_outage_darkens_accounting_only_and_is_never_cached() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(600);
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();

    site.scenario.dbd.faults().install(
        Arc::new(FaultPlan::new(21).rule(FaultRule::error(
            "slurmdbd",
            "*",
            "slurmdbd: connection refused",
        ))),
        site.scenario.clock.shared(),
    );

    // Cold sacct-backed route: retries burn out, the widget goes dark.
    let (status, body) = fetch(&client, &base, "/api/jobmetrics", &user);
    assert_eq!(status, 503);
    assert!(
        body["error"]
            .as_str()
            .unwrap()
            .contains("connection refused"),
        "{body}"
    );
    // slurmctld-backed widgets are untouched by a dbd outage.
    for path in ["/api/recent_jobs", "/api/system_status"] {
        let (status, body) = fetch(&client, &base, path, &user);
        assert_eq!(kind(status, &body), "fresh", "{path}");
    }

    // Recovery is instant once the daemon returns: failures are never
    // cached, and three in-request retries stay under the breaker threshold.
    site.scenario.dbd.faults().clear();
    let (status, body) = fetch(&client, &base, "/api/jobmetrics", &user);
    assert_eq!(kind(status, &body), "fresh");
}

#[test]
fn flapping_ctld_serves_honestly_labelled_stale_in_down_phases() {
    // squeue fails during the first 20 s of every minute. The scenario
    // start is minute-aligned, so the phase boundaries land exactly.
    let plan = FaultPlan::new(3)
        .rule(FaultRule::error("slurmctld", "squeue", "ctld: socket timeout").flapping(60, 20));
    let site = SimSite::build(ScenarioConfig::small().with_faults(plan));
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();

    // Phase 0 (down), cold cache: nothing to fall back on -> widget dark.
    let (status, _) = fetch(&client, &base, "/api/recent_jobs", &user);
    assert_eq!(status, 503);

    // Phase 20 (up): loads and caches normally.
    site.scenario.clock.advance(20);
    let (status, body) = fetch(&client, &base, "/api/recent_jobs", &user);
    assert_eq!(kind(status, &body), "fresh");

    // Next period's down phase, TTL (30 s) expired: the refresh fails but
    // the last good payload is served, labelled with its true age.
    site.scenario.clock.advance(40);
    let (status, body) = fetch(&client, &base, "/api/recent_jobs", &user);
    assert_eq!(kind(status, &body), "degraded");
    assert_eq!(body["stale_age_secs"].as_u64(), Some(40));
    assert!(
        body["stale_error"]
            .as_str()
            .unwrap()
            .contains("socket timeout"),
        "{body}"
    );

    // Up phase again: fresh data resumes, the notice disappears.
    site.scenario.clock.advance(20);
    let (status, body) = fetch(&client, &base, "/api/recent_jobs", &user);
    assert_eq!(kind(status, &body), "fresh");
}

#[test]
fn garbled_sacct_output_is_an_error_not_a_panic() {
    let plan = FaultPlan::new(9).rule(FaultRule::garble("slurmdbd", "sacct"));
    let site = SimSite::build(ScenarioConfig::small().with_faults(plan));
    site.warm_up(600);
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();

    // Every retry gets a differently-garbled table; the parser must reject
    // each one (a panic here would kill the worker and fail the request at
    // the transport layer instead of returning a clean 503).
    let (status, body) = fetch(&client, &base, "/api/jobmetrics", &user);
    assert_eq!(status, 503, "{body}");
    assert!(body["error"].as_str().unwrap().contains("parse"), "{body}");
    assert!(site.scenario.dbd.faults().stats().garbles >= 3);

    // The corruption is confined to sacct consumers.
    let (status, body) = fetch(&client, &base, "/api/system_status", &user);
    assert_eq!(kind(status, &body), "fresh");
}

#[test]
fn slow_daemons_degrade_nothing_within_the_deadline() {
    // 2 ms of injected service time per RPC: well inside the 500 ms
    // per-request deadline, so every widget still answers fresh.
    let plan = FaultPlan::new(5).rule(FaultRule::latency("*", "*", 2_000));
    let site = SimSite::build(ScenarioConfig::small().with_faults(plan));
    site.warm_up(300);
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();

    for (_, path) in hpcdash_core::pages::homepage::WIDGETS {
        let (status, body) = fetch(&client, &base, path, &user);
        assert_eq!(kind(status, &body), "fresh", "{path}");
    }
    let stats = site.scenario.ctld.faults().stats();
    assert!(stats.latency_micros > 0, "latency was actually injected");
    assert_eq!(stats.errors, 0);
}

#[test]
fn breaker_opens_on_schedule_and_a_probe_recloses_it() {
    // squeue is down for the first 10 s only; the interesting part is what
    // the breaker does during and after.
    let start = ScenarioConfig::small().start;
    let plan = FaultPlan::new(13).rule(
        FaultRule::error("slurmctld", "squeue", "ctld: connection refused")
            .during(start, start.plus(10)),
    );
    let site = SimSite::build(ScenarioConfig::small().with_faults(plan));
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();
    let path = "/api/recent_jobs";

    // Request 1: three attempts, three failures (streak 3, breaker closed).
    // Request 2: two more failures reach the threshold of 5 mid-request;
    // the breaker opens and the request stops retrying. Each attempt trips
    // the fault hook twice — once inside the RPC (latency burn), once at
    // the CLI render boundary — so 5 attempts show as 10 checks.
    for _ in 0..2 {
        let (status, _) = fetch(&client, &base, path, &user);
        assert_eq!(status, 503);
    }
    assert_eq!(site.scenario.ctld.faults().stats().errors, 10);

    // While open, requests short-circuit: the daemon sees zero traffic.
    for _ in 0..4 {
        let (status, body) = fetch(&client, &base, path, &user);
        assert_eq!(status, 503);
        assert!(
            body["error"].as_str().unwrap().contains("circuit open"),
            "{body}"
        );
    }
    assert_eq!(
        site.scenario.ctld.faults().stats().checks,
        10,
        "an open breaker spares the struggling daemon"
    );

    // 31 s later the fault window is over and the open interval (30 s of
    // sim time) has elapsed: one half-open probe succeeds and recloses.
    site.scenario.clock.advance(31);
    let (status, body) = fetch(&client, &base, path, &user);
    assert_eq!(kind(status, &body), "fresh");
    assert_eq!(site.scenario.ctld.faults().stats().checks, 12);
    assert_eq!(site.scenario.ctld.faults().stats().errors, 10);
}

#[test]
fn same_seed_yields_the_same_outcome_trace() {
    // The whole point of seeded chaos: a run is a pure function of the
    // seed, so failures found in CI replay exactly.
    fn trace(seed: u64) -> Vec<(&'static str, &'static str)> {
        let plan = FaultPlan::new(seed)
            .rule(FaultRule::error("slurmctld", "*", "flaky ctld").with_probability(0.5));
        let site = SimSite::build(ScenarioConfig::small().with_faults(plan));
        let server = site.serve().unwrap();
        let base = server.base_url();
        let client = HttpClient::new();
        let user = site.scenario.population.users[0].clone();
        let mut out = Vec::new();
        for _ in 0..20 {
            site.scenario.clock.advance(61);
            for path in ["/api/recent_jobs", "/api/system_status"] {
                let (status, body) = fetch(&client, &base, path, &user);
                out.push((path, kind(status, &body)));
            }
        }
        out
    }
    let a = trace(2024);
    let b = trace(2024);
    let c = trace(2025);
    assert_eq!(a, b, "same seed, same widget-level outcome trace");
    assert_ne!(a, c, "different seed, different schedule");
    // The trace is not trivial: the plan actually bit, and the cache
    // actually saved some of those rounds.
    assert!(a.iter().any(|(_, k)| *k != "fresh"));
    assert!(a.iter().any(|(_, k)| *k == "fresh"));
}

/// Same seed, same simulation — also between two clusters in one process,
/// where every `HashMap` gets hasher keys of its own (as two processes do).
/// Jobs that finish within one scheduler tick used to complete in
/// `run_plans`' iteration order, so their events, the order slurmdbd
/// archived them in and the nodes' `last_busy` differed from run to run.
///
/// The other `HashMap`s on the tick path, ruled out one by one: in
/// `ClusterState::refresh_eligibility`/`schedule_pass`, `dep_states`,
/// `run_counts`, `array_running` and backfill's `blockers` are only looked
/// up, and `priorities` is iterated to write each job's own priority
/// (`pending_ids` is sorted afterwards); the snapshot's `by_user`/
/// `by_account`/`by_partition` indexes and the collector's per-node `used`
/// map are only looked up; the push hub walks its subscriber map, but each
/// subscriber has a queue of its own; `checkpoint()` already sorts
/// `run_plans`.
#[test]
fn same_seed_scenarios_repeat_their_events_accounting_and_nodes() {
    struct Run {
        events: Vec<String>,
        sacct: String,
        squeue: String,
        nodes: Vec<String>,
        crowded_ticks: usize,
    }
    fn run() -> Run {
        let scenario = Scenario::build(ScenarioConfig::small().arrivals_per_hour(240.0));
        let mut driver = scenario.driver(2 * 3_600);
        let log = scenario.ctld.events();
        let mut events = Vec::new();
        let mut crowded_ticks = 0;
        for _ in 0..240 {
            let cursor = log.latest_seq();
            driver.advance(30);
            let tick = log.read(cursor, |_| true).entries;
            let completions = tick
                .iter()
                .filter(|e| e.from == Some(JobState::Running) && e.to.is_finished())
                .count();
            crowded_ticks += usize::from(completions >= 2);
            events.extend(tick.iter().map(|e| format!("{e:?}")));
        }
        let now = driver.now();
        Run {
            events,
            sacct: sacct(&scenario.dbd, &SacctArgs::default(), now).unwrap(),
            squeue: squeue(&scenario.ctld, &SqueueArgs::default()).unwrap(),
            nodes: scenario
                .ctld
                .snapshot()
                .nodes
                .iter()
                .map(|n| format!("{n:?}"))
                .collect(),
            crowded_ticks,
        }
    }
    let (a, b) = (run(), run());
    assert!(
        a.crowded_ticks >= 10,
        "only {} ticks completed several jobs at once",
        a.crowded_ticks
    );
    assert_eq!(a.events, b.events, "event log");
    assert_eq!(a.sacct, b.sacct, "sacct text");
    assert_eq!(a.squeue, b.squeue, "squeue text");
    assert_eq!(a.nodes, b.nodes, "snapshot node table");
}

#[test]
fn availability_floor_holds_through_a_long_partial_outage() {
    // Half of all slurmctld/slurmdbd calls fail for thirty simulated
    // minutes. With warm caches, retries and serve-stale, the homepage
    // never shows a dark widget — only honest staleness.
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(600);
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();
    for (_, path) in hpcdash_core::pages::homepage::WIDGETS {
        let (status, _) = fetch(&client, &base, path, &user);
        assert_eq!(status, 200, "warm-up fetch of {path}");
    }

    let plan = Arc::new(
        FaultPlan::new(99)
            .rule(FaultRule::error("*", "*", "transient backend fault").with_probability(0.5))
            .rule(FaultRule::latency("*", "*", 200)),
    );
    site.scenario
        .ctld
        .faults()
        .install(plan.clone(), site.scenario.clock.shared());
    site.scenario
        .dbd
        .faults()
        .install(plan, site.scenario.clock.shared());

    let (mut fresh, mut degraded, mut failed) = (0u64, 0u64, 0u64);
    for _ in 0..30 {
        site.scenario.clock.advance(61);
        for (_, path) in hpcdash_core::pages::homepage::WIDGETS {
            let (status, body) = fetch(&client, &base, path, &user);
            match kind(status, &body) {
                "fresh" => fresh += 1,
                "degraded" => degraded += 1,
                _ => failed += 1,
            }
        }
    }
    let total = fresh + degraded + failed;
    let available = (fresh + degraded) as f64 / total as f64;
    assert!(
        available >= 0.99,
        "availability {available:.3} ({fresh} fresh / {degraded} degraded / {failed} failed)"
    );
    assert_eq!(failed, 0, "warm caches mean no widget ever goes dark");
    assert!(degraded > 0, "the fault plan actually bit");
    assert!(fresh > degraded, "most rounds still load fresh data");
}
