//! Experiments P2/P3 as a runnable demo: a fleet of users refreshing the
//! dashboard under four cache configurations, reporting perceived latency
//! and how much load actually reached slurmctld.
//!
//! ```sh
//! cargo run --release --example load_test
//! ```

use hpcdash::SimSite;
use hpcdash_client::loadgen::{self, merge_availability, LoadConfig, RouteAvailability};
use hpcdash_core::{CachePolicy, DashboardConfig};
use hpcdash_faults::{FaultPlan, FaultRule};
use hpcdash_simtime::{Clock, Timestamp};
use hpcdash_workload::ScenarioConfig;
use std::collections::BTreeMap;
use std::sync::Arc;

struct Variant {
    name: &'static str,
    server_cache: bool,
    client_cache: bool,
}

fn main() {
    let variants = [
        Variant {
            name: "no caches",
            server_cache: false,
            client_cache: false,
        },
        Variant {
            name: "server only",
            server_cache: true,
            client_cache: false,
        },
        Variant {
            name: "client only",
            server_cache: false,
            client_cache: true,
        },
        Variant {
            name: "dual (paper)",
            server_cache: true,
            client_cache: true,
        },
    ];

    println!("16 users x 12 refreshes of 4 widget routes, realistic daemon costs\n");
    println!(
        "{:<13} {:>10} {:>10} {:>10} {:>10} | {:>12} {:>14} {:>12}",
        "variant", "mean", "p50", "p95", "p99", "net fetches", "ctld RPCs", "ctld busy"
    );
    println!("{}", "-".repeat(103));

    for v in &variants {
        let mut scenario_cfg = ScenarioConfig::small();
        scenario_cfg.free_daemons = false; // realistic RPC costs
        let mut dash_cfg = DashboardConfig::purdue_like();
        if !v.server_cache {
            dash_cfg.cache = CachePolicy::disabled();
        }
        let site = SimSite::build_with(scenario_cfg, dash_cfg);
        site.warm_up(900);
        let server = site.serve().expect("serve");
        site.scenario.ctld.stats().reset();

        let users: Vec<String> = (0..16)
            .map(|i| site.scenario.population.user(i).to_string())
            .collect();
        let cfg = LoadConfig {
            users,
            iterations: 12,
            paths: vec![
                "/api/recent_jobs".to_string(),
                "/api/system_status".to_string(),
                "/api/accounts".to_string(),
                "/api/jobtelemetry".to_string(),
            ],
            client_fresh_secs: if v.client_cache { Some(30) } else { None },
            bearer: Default::default(),
            keep_alive: false,
        };
        let report = loadgen::run(&server.base_url(), site.scenario.clock.shared(), &cfg);
        let snap = site.scenario.ctld.stats().snapshot();
        // The mean is exact (the histograms' sum over their count); the
        // percentiles are bucket estimates.
        let p = report.perceived;
        let ns = std::time::Duration::from_nanos;
        println!(
            "{:<13} {:>10.1?} {:>10.1?} {:>10.1?} {:>10.1?} | {:>12} {:>14} {:>12.1?}",
            v.name,
            ns(p.sum_ns / p.count.max(1)),
            ns(p.p50_ns),
            ns(p.p95_ns),
            ns(p.p99_ns),
            report.network_fetches,
            snap.total_rpcs,
            snap.total_busy,
        );
        // Per-route perceived latency, from the load generator's own
        // metrics registry.
        for path in &cfg.paths {
            let s = report
                .registry
                .histogram("hpcdash_client_perceived_latency", &[("route", path)])
                .summary();
            println!(
                "{:<13} {:>10.1?} {:>10} {:>10.1?}   ({} samples)",
                format!("  {path}"),
                std::time::Duration::from_nanos(s.p50_ns),
                "p95:",
                std::time::Duration::from_nanos(s.p95_ns),
                s.count,
            );
        }
        assert_eq!(report.errors, 0);
    }

    println!("\nExpected shape (paper §2.4/§3.2): each cache layer cuts backend traffic;");
    println!("dual caching minimizes both perceived latency and slurmctld load.");

    crash_window();
}

/// Act two: the same fleet refreshing across a scripted controller crash.
/// The controller dies at a known sim instant and restarts five minutes
/// later; the per-route availability split shows what each phase served —
/// fresh before, degraded (serve-stale) during, fresh again after. No route
/// ever fails.
fn crash_window() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(900);
    let server = site.serve().expect("serve");
    let users: Vec<String> = (0..8)
        .map(|i| site.scenario.population.user(i).to_string())
        .collect();
    let paths = vec![
        "/api/recent_jobs".to_string(),
        "/api/system_status".to_string(),
        "/api/accounts".to_string(),
    ];
    let cfg = LoadConfig::new(users, 1, paths.clone());

    let crash_at = site.scenario.clock.now();
    site.scenario.ctld.faults().install(
        Arc::new(
            FaultPlan::new(0x14).rule(
                FaultRule::crash("slurmctld", 300)
                    .during(Timestamp(crash_at.0 + 200), Timestamp(crash_at.0 + 262)),
            ),
        ),
        site.scenario.clock.shared(),
    );

    // 12 rounds of 61 s: rounds 0-2 are healthy, the crash fires in round
    // 3's tick, the restart lands in round 8, the rest are post-recovery.
    let mut phases: BTreeMap<&str, BTreeMap<String, RouteAvailability>> = BTreeMap::new();
    for round in 0..12 {
        site.scenario.clock.advance(61);
        site.scenario.ctld.tick();
        let phase = if round < 3 {
            "before"
        } else if site.scenario.ctld.is_down() {
            "during"
        } else if site.scenario.ctld.restart_count() > 0 {
            "after"
        } else {
            "before"
        };
        let report = loadgen::run(&server.base_url(), site.scenario.clock.shared(), &cfg);
        merge_availability(phases.entry(phase).or_default(), &report.availability);
    }

    println!("\nScripted crash window: slurmctld down 300 s mid-run, 8 users refreshing\n");
    println!(
        "{:<8} {:<22} {:>6} {:>9} {:>7} {:>13}",
        "phase", "route", "fresh", "degraded", "failed", "availability"
    );
    println!("{}", "-".repeat(70));
    for phase in ["before", "during", "after"] {
        let Some(routes) = phases.get(phase) else {
            continue;
        };
        for (route, t) in routes {
            println!(
                "{:<8} {:<22} {:>6} {:>9} {:>7} {:>12.1}%",
                phase,
                route,
                t.fresh,
                t.degraded,
                t.failed,
                t.availability() * 100.0
            );
            assert_eq!(t.failed, 0, "{phase}/{route}: no widget ever goes dark");
        }
    }
    let during = phases
        .get("during")
        .expect("the crash window was exercised");
    assert!(
        during.values().any(|t| t.degraded > 0),
        "the outage phase must show honest degraded serves"
    );
    let report = site
        .scenario
        .ctld
        .last_recovery()
        .expect("the controller restarted");
    println!(
        "\nrecovery: epoch {} -> {}, wal replayed {}, lost {}, rebuild {} µs",
        report.epoch_before,
        report.epoch_after,
        report.wal_replayed,
        report.wal_lost,
        report.duration_micros
    );
}
