//! A cold widget costs its rows, not copies of them: a My Jobs fill and a
//! live-strip fill allocate a small constant per row or job they show,
//! because the rows borrow their strings from the command text and every
//! payload is encoded straight into the response bytes.
//!
//! The same holds for a `/slurm/v0` job list, whose rows are encoded once
//! per job version: re-encoding rows that are all memoized costs a few
//! allocations in all.
//!
//! A stale answer costs a constant too: the degradation members are
//! spliced into the cached bytes, which are never parsed.
//!
//! Recording a fill's outcome for a data source already seen (its health,
//! its breaker, its cache counters) allocates nothing.
//!
//! Alone in its file because it installs a counting global allocator; the
//! count is kept per thread, so the harness's own threads do not disturb it.

use hpcdash::cache::body::annotate_stale;
use hpcdash::cache::Body;
use hpcdash::core::{CachePolicy, DashboardConfig};
use hpcdash::http::{Method, Request, Response};
use hpcdash::restapi::serialize::jobs_body;
use hpcdash::{FedSite, SimSite};
use hpcdash_testkit::{counted, CountingAlloc};
use hpcdash_workload::{FederationConfig, ScenarioConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The seeded campus site the benchmark's `portal_cold` serves: free
/// daemons, four simulated hours of traffic, every cache off.
fn cold_site() -> SimSite {
    let mut scenario = ScenarioConfig::campus();
    scenario.free_daemons = true;
    let mut dash = DashboardConfig::purdue_like();
    dash.cache = CachePolicy::disabled();
    let site = SimSite::build_with(scenario, dash);
    site.warm_up(4 * 3_600);
    site
}

/// One request's answer and what it allocated, asked once before so that
/// what a route sets up on its first use is not counted.
fn fill(site: &SimSite, path: &str, user: &str) -> (Response, u64) {
    let request = Request::new(Method::Get, path).with_header("X-Remote-User", user);
    assert_eq!(site.dashboard.handle(&request).status, 200, "{path}");
    let (resp, allocations) = counted(|| site.dashboard.handle(&request));
    assert_eq!(resp.status, 200, "{path}");
    (resp, allocations)
}

/// The user whose answer to `path` holds the most `key` entries.
fn busiest(site: &SimSite, path: &str, key: &str) -> (String, usize) {
    site.scenario
        .population
        .users
        .iter()
        .map(|user| {
            let request = Request::new(Method::Get, path).with_header("X-Remote-User", user);
            let body = site.dashboard.handle(&request).body_json().unwrap();
            (user.clone(), body[key].as_array().map_or(0, Vec::len))
        })
        .max_by_key(|(_, n)| *n)
        .expect("the site has users")
}

#[test]
fn a_cold_widget_fill_costs_a_few_allocations_per_row() {
    let site = cold_site();

    // My Jobs: one `sacct` and one `squeue`, both parsed, every row built
    // and encoded. Measured on this site: 304 allocations for 227 rows, of
    // which the two charts' owned labels and series take 33. Records and
    // rows that owned their strings made 4 475.
    let (user, rows) = busiest(&site, "/api/myjobs", "jobs");
    assert!(rows >= 50, "{user} has {rows} rows");
    let (_, my_jobs) = fill(&site, "/api/myjobs", &user);
    let bound = 2 * rows as u64 + 64;
    assert!(
        my_jobs <= bound,
        "{my_jobs} allocations for {rows} My Jobs rows (bound {bound})"
    );

    // The live strip: the user's running jobs and two or three series
    // each. Measured: 160 allocations for 7 jobs and 387 points per series
    // kind. A `json!` tree of every point made 3 874.
    let (user, jobs) = busiest(&site, "/api/jobtelemetry", "jobs");
    assert!(jobs >= 2, "{user} has {jobs} running jobs");
    let (live, strip) = fill(&site, "/api/jobtelemetry", &user);
    let points: usize = live.body_json().unwrap()["jobs"]
        .as_array()
        .unwrap()
        .iter()
        .map(|j| j["series"]["cpu"].as_array().unwrap().len())
        .sum();
    assert!(points >= 10 * jobs, "{points} points over {jobs} jobs");
    let bound = 32 * jobs as u64;
    assert!(
        strip <= bound,
        "{strip} allocations for {jobs} live jobs (bound {bound})"
    );
}

#[test]
fn a_memoized_job_list_costs_a_constant_and_the_memo_stays_bounded() {
    // The quad federation the benchmark's `rest_fed` serves, after the same
    // four simulated hours: gamma lists over 500 active jobs.
    let fed = FedSite::build(FederationConfig::quad(42));
    let mut driver = fed.warm_up(4 * 3_600);
    let snap = fed.federation.site("gamma").unwrap().ctld.snapshot();
    let rows = snap.jobs.len();
    assert!(rows >= 500, "gamma holds {rows} jobs");

    // Every row memoized: the body costs a constant, whatever its length,
    // and the cache adopts it where it was encoded. Measured: 2
    // allocations for 523 rows and for 261, and 3 more for the stored body
    // (the ETag, the shrink to its length and the `Arc`). Encoding every
    // row afresh, with the output grown by doubling, made 13 and 12; the
    // stored body made 5 when it was a copy with a `fmt` ETag.
    for n in [rows, rows / 2] {
        let positions: Vec<u32> = (0..n as u32).collect();
        let filled = jobs_body(&snap, &positions);
        let (again, allocations) = counted(|| jobs_body(&snap, &positions));
        assert_eq!(again, filled);
        assert!(allocations <= 2, "{allocations} allocations for {n} rows");
        let at = again.as_ptr();
        let (body, stored) = counted(|| Body::new(again));
        assert_eq!(body.bytes.as_ptr(), at, "the body is not copied");
        assert!(stored <= 3, "{stored} allocations to store {n} rows");
    }

    // Two hundred ticks of every site, each site's full list encoded after
    // each tick. A publication carries over the rows of the job versions
    // its predecessor held, holds no more rows than jobs, and keeps most
    // of them: a tick changes a minority of the jobs.
    let (mut carried, mut listed) = (0, 0);
    for _ in 0..200 {
        driver.advance(30);
        for site in &fed.federation.sites {
            let snap = site.ctld.snapshot();
            carried += snap.jobs.rows_encoded();
            listed += snap.jobs.len();
            let positions: Vec<u32> = (0..snap.jobs.len() as u32).collect();
            jobs_body(&snap, &positions);
            let (held, bound) = (snap.jobs.rows_encoded(), 2 * snap.jobs.len() + 64);
            assert!(held <= bound, "{held} rows memoized, bound {bound}");
        }
    }
    assert!(
        2 * carried > listed,
        "{carried} of {listed} rows carried over"
    );
}

#[test]
fn annotating_a_stale_body_costs_a_constant() {
    let site = cold_site();
    let (user, _) = busiest(&site, "/api/myjobs", "jobs");
    let (resp, _) = fill(&site, "/api/myjobs", &user);
    let body = resp.body.to_vec();
    assert!(body.len() >= 64 * 1024, "{} bytes", body.len());

    // The whole table and its first quarter (cut at a row): the same cost.
    // Measured: 1 allocation for 138 457 bytes and for 34 368. Parsing,
    // inserting and encoding again, as the annotation used to, made 28 153
    // and 7 256.
    let row = br#",{"account":"#;
    let cut = body[..body.len() / 4]
        .windows(row.len())
        .rposition(|w| w == row)
        .expect("a row starts in the first quarter");
    let quarter = [&body[..cut], b"]}"].concat();
    for cached in [&body, &quarter] {
        let (spliced, allocations) = counted(|| annotate_stale(cached, 300, "sacct: timeout"));
        assert!(
            allocations <= 2,
            "{allocations} allocations for {} bytes",
            cached.len()
        );
        let mut reparsed: serde_json::Value = serde_json::from_slice(cached).unwrap();
        reparsed["degraded"] = true.into();
        reparsed["stale_age_secs"] = 300.into();
        reparsed["stale_error"] = "sacct: timeout".into();
        assert!(spliced == Some(serde_json::to_vec(&reparsed).unwrap()));
    }
}

#[test]
fn a_source_already_seen_is_recorded_without_allocating() {
    let site = SimSite::build(ScenarioConfig::small());
    let ctx = site.ctx();
    let bytes = br#"{"jobs":1}"#.to_vec();
    let load = || Ok(bytes.clone());
    // What the loader and the body need: the loader's copy and the body.
    let (_, needed) = counted(|| Body::unvalidated(load().unwrap()));

    // `ttl = 0`, `portal_cold`'s path: every call loads and records the
    // outcome in the source's health window.
    ctx.cached_resilient("squeue:alice", 0, load);
    let (out, ablation) = counted(|| ctx.cached_resilient("squeue:alice", 0, load));
    assert!(out.body().is_some());
    assert!(
        ablation <= needed,
        "{ablation} allocations for an ablation fill (loader and body: {needed})"
    );

    // A fresh widget hit: the loader does not run and the body is shared.
    ctx.cached_resilient("squeue:alice", 60, load);
    let (out, hit) = counted(|| ctx.cached_resilient("squeue:alice", 60, || unreachable!()));
    assert!(out.body().is_some());
    assert_eq!(hit, 0, "{hit} allocations for a fresh hit");
}
