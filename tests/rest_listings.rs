//! The `/slurm/v0` job listings of the federated quad site, tick by tick:
//! a listing built from rows carried between epochs is, byte for byte, the
//! listing a snapshot with no row memoized gives, and an epoch re-encodes
//! only the rows of jobs that changed in more than their priority.
//!
//! A token with cluster scope asks for its home cluster's listings twice
//! per poll, as `/slurm/v0/{jobs,nodes}` and as
//! `/slurm/v0/clusters/<home>/{jobs,nodes}`: one fill answers both.

use hpcdash::core::Dashboard;
use hpcdash::http::{Body, Method, Request, Response};
use hpcdash::restapi::serialize::{job_body, jobs_body};
use hpcdash::slurm::job::Job;
use hpcdash::slurm::snapshot::ClusterSnapshot;
use hpcdash::FedSite;
use hpcdash_faults::{FaultPlan, FaultRule};
use hpcdash_workload::FederationConfig;
use serde_json::json;
use std::sync::Arc;

/// `snap`'s jobs and parts in a snapshot of their own, holding no row.
fn unmemoized(snap: &ClusterSnapshot) -> ClusterSnapshot {
    ClusterSnapshot::build(
        snap.seq,
        snap.now,
        snap.name.clone(),
        snap.jobs.to_vec(),
        snap.nodes.clone(),
        snap.partitions.clone(),
        snap.assoc.clone(),
    )
}

/// How the jobs of `now` came from `was`: `(changed, reprioritized)`,
/// the jobs `was` did not hold or held at a version that differs in more
/// than its priority, and the new versions that differ in priority alone.
fn versions(was: &ClusterSnapshot, now: &ClusterSnapshot) -> (usize, usize) {
    let (mut changed, mut reprioritized) = (0, 0);
    for job in now.jobs.iter() {
        match was.job(job.id) {
            Some(old) if Arc::ptr_eq(old, job) => {}
            Some(old) => {
                let at_old_priority = Job {
                    priority: old.priority,
                    ..Job::clone(job)
                };
                if at_old_priority == **old {
                    reprioritized += 1;
                } else {
                    changed += 1;
                }
            }
            None => changed += 1,
        }
    }
    (changed, reprioritized)
}

#[test]
fn carried_rows_list_as_rows_encoded_afresh_do() {
    let fed = FedSite::build(FederationConfig::quad(42));
    let mut driver = fed.warm_up(4 * 3_600);
    let sites = &fed.federation.sites;
    let mut last: Vec<Option<Arc<ClusterSnapshot>>> = vec![None; sites.len()];
    let (mut encoded, mut changed, mut reprioritized, mut ticks) = (0, 0, 0, 0);
    for tick in 0..60 {
        driver.advance(30);
        for (site, last) in sites.iter().zip(&mut last) {
            let snap = site.ctld.snapshot();
            let carried = snap.jobs.rows_encoded();
            let all: Vec<u32> = (0..snap.jobs.len() as u32).collect();
            let listed = jobs_body(&snap, &all);
            let fresh = unmemoized(&snap);
            assert!(
                listed == jobs_body(&fresh, &all),
                "{} at tick {tick}: carried rows list other bytes",
                snap.name
            );
            for job in snap.jobs.iter().step_by(5) {
                assert!(
                    job_body(&snap, job) == job_body(&fresh, job),
                    "{} at tick {tick}: job {}",
                    snap.name,
                    job.id.0
                );
            }
            if let Some(was) = last.replace(snap.clone()) {
                let made = snap.jobs.len() - carried;
                let (bound, moved) = versions(&was, &snap);
                assert!(
                    made <= bound,
                    "{} at tick {tick}: {made} rows encoded, {bound} jobs changed",
                    snap.name
                );
                encoded += made;
                changed += bound;
                reprioritized += moved;
            }
        }
        ticks += 1;
    }
    let per_tick = |n: usize| n as f64 / (ticks - 1) as f64;
    eprintln!(
        "per tick over {} sites: {:.1} rows encoded, {:.1} jobs changed, {:.1} reprioritized",
        sites.len(),
        per_tick(encoded),
        per_tick(changed),
        per_tick(reprioritized)
    );
    assert!(
        reprioritized > changed,
        "the carry-over rule is exercised: {reprioritized} reprioritized, {changed} changed"
    );
}

fn get(dash: &Dashboard, path: &str, headers: &[(&str, &str)]) -> Response {
    let req = headers
        .iter()
        .fold(Request::new(Method::Get, path), |req, (k, v)| {
            req.with_header(k, v)
        });
    let resp = dash.handle(&req);
    assert_eq!(resp.status, 200, "{path}: {}", resp.body_string());
    resp
}

/// The bearer header of a token root mints for `subject`.
fn mint(dash: &Dashboard, subject: &str, scopes: &[&str]) -> String {
    let mut req =
        Request::new(Method::Post, "/slurm/v0/admin/tokens").with_header("X-Remote-User", "root");
    req.body = json!({"subject": subject, "scopes": scopes})
        .to_string()
        .into_bytes();
    let resp = dash.handle(&req);
    assert_eq!(resp.status, 200, "{}", resp.body_string());
    let secret = &resp.body_json().unwrap()["secret"];
    format!("Bearer {}", secret.as_str().unwrap())
}

fn shared(resp: &Response) -> &Arc<Vec<u8>> {
    match &resp.body {
        Body::Shared(bytes) => bytes,
        Body::Owned(_) => panic!("a cached 200 serves the cache's own allocation"),
    }
}

#[test]
fn a_cluster_token_is_listed_its_home_cluster_from_one_fill() {
    let fed = FedSite::build(FederationConfig::quad(42));
    let mut driver = fed.warm_up(3_600);
    let (dash, ctx) = (&fed.dashboard, fed.ctx());
    let home = ctx.ctld.snapshot().name.to_string();
    let user = ctx.ctld.snapshot().jobs.first().unwrap().req.user.clone();
    let cluster = mint(dash, "root", &["read-cluster"]);
    let own = mint(dash, &user, &["read-own-jobs"]);
    let acting = mint(dash, "root", &["read-cluster", "admin-act-as"]);
    let misses = || {
        ctx.obs
            .counter("hpcdash_cache_misses_total", &[("source", "slurm_v0")])
            .get()
    };
    let mut listing = None;
    for _ in 0..3 {
        driver.advance(30);
        let before = misses();
        for what in ["jobs", "nodes"] {
            let auth = [("Authorization", cluster.as_str())];
            let mine = get(dash, &format!("/slurm/v0/{what}"), &auth);
            let theirs = get(dash, &format!("/slurm/v0/clusters/{home}/{what}"), &auth);
            assert!(
                Arc::ptr_eq(shared(&mine), shared(&theirs)),
                "{what}: one fill answers both"
            );
            assert_eq!(mine.header("etag"), theirs.header("etag"));
            if what == "jobs" {
                listing = Some(mine);
            }
        }
        assert_eq!(misses() - before, 2, "one fill per listing and epoch");

        // Per-subject views keep their own bodies.
        let listed = listing.as_ref().unwrap();
        let mine = get(dash, "/slurm/v0/jobs", &[("Authorization", own.as_str())]);
        assert!(!Arc::ptr_eq(shared(&mine), shared(listed)));
        assert!(mine.body.len() < listed.body.len(), "{user} sees own jobs");
        let as_user = [("Authorization", acting.as_str()), ("X-Act-As", &user)];
        let evaluated = get(dash, "/slurm/v0/jobs", &as_user);
        assert!(!Arc::ptr_eq(shared(&evaluated), shared(listed)));
        assert_eq!(evaluated.body, listed.body, "cluster scope lists every job");
    }

    // The REST boundary down: the shared listing is still last-good bytes.
    let listed = listing.unwrap();
    let down = FaultRule::error("slurmctld", "slurm_v0", "rest boundary down");
    let plan = Arc::new(FaultPlan::new(1).rule(down));
    ctx.ctld.faults().install(plan, ctx.clock.clone());
    let seq = ctx.ctld.snapshot().seq.to_string();
    for _ in 0..2 {
        let stale = get(dash, "/slurm/v0/jobs", &[("Authorization", &cluster)]);
        assert_eq!(stale.header("X-Hpcdash-Stale"), Some(seq.as_str()));
        assert_eq!(stale.body, listed.body);
        driver.advance(30);
    }
    ctx.ctld.faults().clear();
}
