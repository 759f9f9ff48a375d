//! Experiments P1, P3 and P4, regenerated as the paper's tables:
//!
//! - **P1** (§2.4): sweep the squeue TTL and trade backend load against the
//!   age of the data users are shown.
//! - **P3** (§3.2): scheduler-tick latency and squeue load while browsers
//!   hammer Recent Jobs, with the server cache on and off.
//! - **P4** (§2.3): first paint of the async shell against a blocking
//!   prerender that gathers every widget's data before sending any HTML.
//!
//! ```sh
//! cargo run --release --example paper_claims
//! ```
//!
//! The wall-clock columns move with the machine; the RPC counts do not.
//! P2 is `examples/load_test.rs`, Table 1 is `examples/table1.rs`.

use hpcdash::SimSite;
use hpcdash_core::pages::homepage::{self, WIDGETS};
use hpcdash_core::{CachePolicy, DashboardConfig};
use hpcdash_http::{HttpClient, Method, Request, Response};
use hpcdash_slurm::job::JobRequest;
use hpcdash_workload::ScenarioConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn get(site: &SimSite, path: &str, user: &str) -> Response {
    let req = Request::new(Method::Get, path).with_header("X-Remote-User", user);
    site.dashboard.handle(&req)
}

fn realistic() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::small();
    cfg.free_daemons = false;
    cfg
}

/// P1: 8 browsers refresh Recent Jobs every 10 s for 10 simulated minutes.
fn p1_ttl_sweep() {
    println!("P1: squeue TTL sweep, 8 users refreshing every 10 s for 10 min\n");
    println!(
        "{:>8} | {:>12} | {:>12}",
        "TTL (s)", "squeue RPCs", "avg age (s)"
    );
    println!("{}", "-".repeat(38));
    for ttl in [0u64, 5, 15, 30, 60, 120] {
        let mut cfg = DashboardConfig::purdue_like();
        cfg.cache.recent_jobs = ttl;
        let site = SimSite::build_with(ScenarioConfig::small(), cfg);
        site.warm_up(300);
        site.scenario.ctld.stats().reset();
        let users: Vec<String> = (0..8)
            .map(|i| site.scenario.population.user(i).to_string())
            .collect();
        let (mut age_total, mut samples) = (0u64, 0u64);
        for _ in 0..60 {
            site.scenario.clock.advance(10);
            for user in &users {
                assert_eq!(get(&site, "/api/recent_jobs", user).status, 200);
                let key = format!("recent_jobs:{user}");
                age_total += site
                    .ctx()
                    .cache
                    .cache()
                    .last_good(&key)
                    .map_or(0, |entry| entry.age_secs);
                samples += 1;
            }
        }
        let rpcs = site.scenario.ctld.stats().count_of("squeue");
        let age = age_total as f64 / samples as f64;
        let note = if ttl == 30 {
            "  <- the paper's squeue TTL"
        } else {
            ""
        };
        println!("{ttl:>8} | {rpcs:>12} | {age:>12.1}{note}");
    }
}

/// P3: `users` browsers hammer Recent Jobs over HTTP while the cluster runs
/// 60 one-second ticks with a submission every ten.
fn p3_storm(users: usize, cache: bool) -> (Duration, Duration, u64) {
    let mut cfg = DashboardConfig::purdue_like();
    if !cache {
        cfg.cache = CachePolicy::disabled();
    }
    let site = SimSite::build_with(realistic(), cfg);
    site.warm_up(600);
    let server = site.serve().expect("serve");
    site.scenario.ctld.stats().reset();

    let stop = Arc::new(AtomicBool::new(false));
    let browsers: Vec<_> = (0..users)
        .map(|i| {
            let url = format!("{}/api/recent_jobs", server.base_url());
            let user = site.scenario.population.user(i).to_string();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let client = HttpClient::new();
                while !stop.load(Ordering::Relaxed) {
                    let _ = client.get(&url, &[("X-Remote-User", &user)]);
                }
            })
        })
        .collect();

    let user = site.scenario.population.user(0).to_string();
    let account = site.scenario.population.accounts_of(&user)[0].clone();
    for round in 0..60 {
        site.scenario.clock.advance(1);
        site.scenario.ctld.tick();
        if round % 10 == 0 {
            let _ = site
                .scenario
                .ctld
                .submit(JobRequest::simple(&user, &account, "cpu", 1));
        }
    }
    stop.store(true, Ordering::Relaxed);
    for b in browsers {
        b.join().expect("browser thread");
    }

    let snap = site.scenario.ctld.stats().snapshot();
    let kind = |k: &str| snap.per_kind.get(k);
    (
        kind("sched_tick").map_or(Duration::ZERO, |k| Duration::from_nanos(k.max_ns)),
        snap.p99.unwrap_or_default(),
        kind("squeue").map_or(0, |k| k.count),
    )
}

fn p3_table() {
    println!("\nP3: slurmctld under squeue storms, 60 ticks, realistic daemon costs\n");
    println!(
        "{:>6} {:>6} | {:>12} {:>12} {:>12}",
        "users", "cache", "tick max", "rpc p99", "squeue RPCs"
    );
    println!("{}", "-".repeat(56));
    for users in [0usize, 4, 16] {
        for cache in [false, true] {
            if users == 0 && cache {
                continue; // no load: identical to the uncached row
            }
            let (tick, p99, squeue) = p3_storm(users, cache);
            let on = if cache { "on" } else { "off" };
            println!("{users:>6} {on:>6} | {tick:>12.1?} {p99:>12.1?} {squeue:>12}");
        }
    }
}

/// P4: mean over four cold rounds (a fifth, first, round warms the process).
fn p4_table() {
    let site = SimSite::build_with(realistic(), DashboardConfig::purdue_like());
    site.warm_up(900);
    let user = site.scenario.population.user(0).to_string();
    let (mut shell, mut all_data, mut blocking) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for round in 0..5 {
        // Async: paint the shell, then fetch the widgets (concurrently in a
        // browser, so the page is complete when the slowest one lands).
        site.ctx().cache.clear();
        let t0 = Instant::now();
        assert_eq!(get(&site, "/", &user).status, 200);
        let paint = t0.elapsed();
        let slowest = WIDGETS
            .iter()
            .map(|(_, path)| {
                let t = Instant::now();
                assert_eq!(get(&site, path, &user).status, 200, "{path}");
                t.elapsed()
            })
            .max()
            .unwrap_or_default();

        // Blocking: every widget's data first, then the HTML.
        site.ctx().cache.clear();
        let t0 = Instant::now();
        let payloads: Vec<_> = WIDGETS
            .iter()
            .map(|(w, path)| (*w, Ok::<_, String>(get(&site, path, &user).body.to_vec())))
            .collect();
        homepage::render_full("Anvil", &user, &payloads);
        let prerender = t0.elapsed();

        if round > 0 {
            shell += paint;
            all_data += paint + slowest;
            blocking += prerender;
        }
    }
    println!("\nP4: homepage first paint, cold server cache, mean of 4 rounds\n");
    println!(
        "{:>20} | {:>12} | {:>14}",
        "design", "first paint", "all data shown"
    );
    println!("{}", "-".repeat(52));
    println!(
        "{:>20} | {:>12.1?} | {:>14.1?}",
        "async shell (paper)",
        shell / 4,
        all_data / 4
    );
    println!(
        "{:>20} | {:>12.1?} | {:>14.1?}",
        "blocking prerender",
        blocking / 4,
        blocking / 4
    );
}

fn main() {
    p1_ttl_sweep();
    p3_table();
    p4_table();
}
