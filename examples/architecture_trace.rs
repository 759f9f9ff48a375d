//! Figure 1, regenerated as a trace: follow one widget refresh through every
//! layer of the system — browser cache, HTTP, API route, server cache, the
//! Slurm command layer, and the daemons — printing the *recorded* spans for
//! each hop from the observability layer's trace store.
//!
//! ```sh
//! cargo run --example architecture_trace
//! ```

use hpcdash::SimSite;
use hpcdash_client::FetchOutcome;
use hpcdash_obs::tracestore::{store, StoredTrace};
use hpcdash_obs::TraceId;
use hpcdash_workload::ScenarioConfig;

/// The stored trace for `id`, printed as a hop tree.
fn show(id: Option<TraceId>) -> StoredTrace {
    let trace = store()
        .get(id.expect("network request carries a trace"))
        .expect("trace stored");
    print!("{}", trace.format_trace());
    trace
}

fn hops(trace: &StoredTrace) -> Vec<&'static str> {
    trace.spans.iter().map(|s| s.name).collect()
}

fn main() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(900);
    let server = site.serve().expect("serve");
    let user = site.scenario.population.users[0].clone();
    let browser = site.browser(&server.base_url(), &user);

    println!("System architecture & data flow (Figure 1), traced live:\n");
    println!("  [browser {user}] --HTTP--> [Rails-analog backend] --commands--> [Slurm daemons]");
    println!("       |IndexedDB cache|         |in-memory TTL cache|     |slurmctld / slurmdbd|\n");

    let path = "/api/recent_jobs";
    let ttl = site.ctx().cfg.cache.recent_jobs;

    // --- Request 1: everything cold --------------------------------------
    let r1 = browser.fetch_api(path).expect("fetch");
    println!(
        "request 1 (cold): outcome {:?}, perceived {:?}",
        r1.outcome, r1.perceived
    );
    println!("  every layer is a hop in the recorded trace (server cache stores for {ttl}s):");
    let r1_hops = hops(&show(r1.trace));
    assert_eq!(r1.outcome, FetchOutcome::Network);
    assert_eq!(
        r1_hops,
        ["client", "http", "route", "cache-miss", "slurmcli", "ctld"]
    );

    // --- Request 2: client cache absorbs it -------------------------------
    let r2 = browser.fetch_api(path).expect("fetch");
    println!("\nrequest 2 (same browser, within client freshness):");
    println!(
        "  client cache HIT (age < {}s) -> no HTTP request, no trace",
        site.ctx().cfg.cache.client_fresh
    );
    println!("  outcome {:?}, perceived {:?}", r2.outcome, r2.perceived);
    assert_eq!(r2.outcome, FetchOutcome::CacheFresh);
    assert!(r2.trace.is_none(), "no network request, no trace");

    // --- Request 3: second user, server cache absorbs the backend ---------
    let user2 = site.scenario.population.users[1].clone();
    let browser2 = site.browser(&server.base_url(), &user2);
    let r3 = browser2.fetch_api("/api/system_status").expect("fetch");
    let r3b = browser.fetch_api("/api/system_status").expect("fetch");
    println!("\nrequest 3 (system-wide data, two different browsers):");
    println!("  browser {user2} (cold server cache -> trace reaches slurmctld):");
    show(r3.trace);
    println!("  browser {user} (server cache HIT -> trace stops at the cache):");
    let r3b_hops = hops(&show(r3b.trace));
    assert_eq!(
        r3b_hops,
        ["client", "http", "route"],
        "server cache absorbed the daemon hop"
    );

    // --- Request 4: stale client entry revalidates ------------------------
    site.scenario
        .clock
        .advance(site.ctx().cfg.cache.client_fresh + 1);
    let r4 = browser.fetch_api(path).expect("fetch");
    println!(
        "\nrequest 4 (after {}s of simulated time):",
        site.ctx().cfg.cache.client_fresh + 1
    );
    println!(
        "  client cache STALE -> rendered instantly ({:?}),",
        r4.perceived
    );
    println!("  then revalidated in the background ({:?}):", r4.network);
    show(r4.trace);
    assert_eq!(r4.outcome, FetchOutcome::StaleRevalidated);

    println!("\ntrace complete: one data flow, four cache behaviours.");
}
