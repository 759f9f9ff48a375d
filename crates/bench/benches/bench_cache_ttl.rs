//! Experiment P1 — per-source TTL policy (paper §2.4):
//! sweep the squeue cache TTL and measure the freshness/load trade-off the
//! paper describes ("balance quick response times with up-to-date
//! information").

use criterion::Criterion;
use hpcdash_bench::{banner, BenchSite};
use hpcdash_core::{CachePolicy, DashboardConfig};
use hpcdash_simtime::Clock;
use hpcdash_workload::ScenarioConfig;

/// Simulate `users` browsers refreshing Recent Jobs every `refresh_every`
/// simulated seconds for `window` seconds, with the server TTL set to
/// `ttl`. Returns (squeue RPCs, average served data age in seconds).
fn sweep_point(ttl: u64, users: usize, refresh_every: u64, window: u64) -> (u64, f64) {
    let mut scenario_cfg = ScenarioConfig::small();
    scenario_cfg.free_daemons = true;
    let mut dash_cfg = DashboardConfig::purdue_like();
    dash_cfg.cache = CachePolicy {
        recent_jobs: ttl,
        ..CachePolicy::default()
    };
    let site = hpcdash_bench::BenchSite::build(scenario_cfg, dash_cfg);
    site.warm_up(300);
    site.scenario.ctld.stats().reset();

    let mut total_age = 0.0;
    let mut samples = 0u64;
    let mut last_fetch_at = vec![None::<u64>; users];
    let steps = window / refresh_every;
    for _ in 0..steps {
        site.scenario.clock.advance(refresh_every);
        let now = site.scenario.clock.now().as_secs();
        for (u, last) in last_fetch_at.iter_mut().enumerate() {
            let user = site.scenario.population.user(u).to_string();
            let resp = site.get("/api/recent_jobs", &user);
            assert_eq!(resp.status, 200);
            // Data age: when did the cache entry behind this user's key load?
            let key = format!("recent_jobs:{user}");
            let age = site
                .ctx()
                .cache
                .cache()
                .last_good(&key)
                .map_or(0, |entry| entry.age_secs);
            total_age += age as f64;
            samples += 1;
            *last = Some(now);
        }
    }
    (
        site.scenario.ctld.stats().count_of("squeue"),
        total_age / samples.max(1) as f64,
    )
}

fn main() {
    banner(
        "P1",
        "per-source TTL sweep: backend load vs data freshness (8 users, 10s refreshes, 10 min)",
    );
    println!(
        "{:>8} | {:>12} | {:>14} | note",
        "TTL (s)", "squeue RPCs", "avg age (s)"
    );
    println!("{}", "-".repeat(64));
    let mut prev_rpcs = None;
    for ttl in [0u64, 5, 15, 30, 60, 120] {
        let (rpcs, avg_age) = sweep_point(ttl, 8, 10, 600);
        let note = match ttl {
            0 => "no caching: every refresh hits slurmctld",
            30 => "<- the paper's choice for squeue",
            _ => "",
        };
        println!("{ttl:>8} | {rpcs:>12} | {avg_age:>14.1} | {note}");
        if let (Some(prev), true) = (prev_rpcs, ttl > 0) {
            assert!(rpcs <= prev, "longer TTL must not increase backend load");
        }
        prev_rpcs = Some(rpcs);
    }
    println!("\nshape check: backend load falls monotonically with TTL while served-data age");
    println!("grows — the freshness/load trade-off of paper §2.4. The 30s squeue TTL keeps");
    println!("average staleness small while absorbing most refresh traffic.");

    // Criterion: the cache front-door operations themselves.
    let mut c = Criterion::default().configure_from_args().sample_size(50);
    {
        let site = BenchSite::fast();
        let user = site.user();
        site.get("/api/recent_jobs", &user); // prime
        let mut group = c.benchmark_group("cache_front_door");
        group.bench_function("route_cache_hit", |b| {
            b.iter(|| site.get("/api/recent_jobs", &user))
        });
        group.bench_function("route_cache_miss", |b| {
            b.iter(|| {
                site.ctx().cache.invalidate(&format!("recent_jobs:{user}"));
                site.get("/api/recent_jobs", &user)
            })
        });
        group.finish();
    }
    c.final_summary();
}
