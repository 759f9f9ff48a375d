//! Federated views: cross-cluster aggregates with honest per-site
//! degradation.
//!
//! Every route fans out through [`hpcdash_federation::ClusterRegistry`],
//! which consults this context's `BreakerBoard` per site (`fed@<cluster>`
//! keys) and serves a dark site's slice from its last-known-good snapshot
//! with an age annotation. The aggregates therefore *always* answer — one
//! unreachable cluster degrades only its own rows. Every request fans out,
//! and only a fan-out whose every slice is live asks the per-viewer cache,
//! versioned by the epoch vector (the sites' seqs summed, plus the fan-out
//! instant: both only grow, so a hit is the bytes a rebuild would give).
//! A degraded payload is never stored or revalidated: that would freeze
//! the "site beta: data from 40s ago" notices these routes exist to keep
//! honest. The cluster-scoped route does the same for its one slice.

use crate::auth::CurrentUser;
use crate::ctx::{CounterHandle, DashboardContext};
use hpcdash_federation::{FederatedSnapshot, SiteHealth, SiteStatus};
use hpcdash_http::{Request, Response, Router};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

pub const FEATURE: &str = "Multi-cluster federation (extension)";
pub const ROUTES: &[&str] = &[
    "/api/federation/status",
    "/api/federation/jobs",
    "/api/federation/nodes",
    "/api/federation/clusters/:cluster/status",
];

pub fn register(router: &mut Router, ctx: DashboardContext) {
    let c1 = ctx.clone();
    let c2 = ctx.clone();
    let c3 = ctx.clone();
    router.get(ROUTES[0], move |req| status(&ctx, req));
    router.get(ROUTES[1], move |req| jobs(&c1, req));
    router.get(ROUTES[2], move |req| nodes(&c2, req));
    router.get(ROUTES[3], move |req| cluster_status(&c3, req));
}

/// The fan-out's counter handles, each resolved on its first use.
#[derive(Default)]
pub(crate) struct Counters {
    fanouts: CounterHandle,
    /// By site, in registration order, then by health (live, stale, dark).
    slices: OnceLock<Box<[[CounterHandle; 3]]>>,
}

/// One fan-out across every registered site, with per-slice accounting.
/// Label cardinality is bounded: the site list is fixed at build time.
fn fan_out(ctx: &DashboardContext) -> FederatedSnapshot {
    let fed = ctx.federation.snapshot(&ctx.breakers);
    let counters = &ctx.fed_counters;
    counters
        .fanouts
        .get_or_init(|| ctx.obs.counter("hpcdash_federation_fanouts_total", &[]))
        .inc();
    let slices = counters
        .slices
        .get_or_init(|| fed.sites.iter().map(|_| Default::default()).collect());
    for (s, handles) in fed.sites.iter().zip(slices.iter()) {
        let health = match s.health {
            SiteHealth::Live => 0,
            SiteHealth::Stale { .. } => 1,
            SiteHealth::Dark { .. } => 2,
        };
        handles[health]
            .get_or_init(|| {
                ctx.obs.counter(
                    "hpcdash_federation_slices_total",
                    &[
                        ("cluster", s.cluster.as_ref()),
                        ("health", s.health.as_str()),
                    ],
                )
            })
            .inc();
    }
    fed
}

/// One site's summary entry (shared by the aggregate and scoped routes).
/// What a site without a snapshot, a live site or a site without a notice
/// cannot say is left out rather than sent as `null`.
#[derive(Debug, Serialize, Deserialize)]
pub struct SiteEntry {
    pub cluster: String,
    /// `live`, `stale` or `dark`.
    pub health: String,
    pub snapshot_seq: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub jobs: Option<SiteJobs>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub nodes: Option<usize>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub partitions: Option<usize>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub stale_age_secs: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub notice: Option<String>,
}

#[derive(Debug, Serialize, Deserialize)]
pub struct SiteJobs {
    pub pending: u32,
    pub running: u32,
    pub suspended: u32,
}

impl From<&SiteStatus> for SiteEntry {
    fn from(s: &SiteStatus) -> SiteEntry {
        let snap = s.snapshot.as_deref();
        SiteEntry {
            cluster: s.cluster.to_string(),
            health: s.health.as_str().to_string(),
            snapshot_seq: s.seq(),
            jobs: snap.map(|snap| SiteJobs {
                pending: snap.counts.pending,
                running: snap.counts.running,
                suspended: snap.counts.suspended,
            }),
            nodes: snap.map(|snap| snap.nodes.len()),
            partitions: snap.map(|snap| snap.partitions.len()),
            stale_age_secs: match s.health {
                SiteHealth::Stale { age_secs, .. } => Some(age_secs),
                _ => None,
            },
            notice: s.notice(),
        }
    }
}

/// An aggregate's answer: cached by the epoch vector when every slice of
/// `fed` is live, built afresh without a validator when not. `build` runs
/// only on a miss.
fn aggregate(
    ctx: &DashboardContext,
    req: &Request,
    fed: &FederatedSnapshot,
    build: impl FnOnce() -> Vec<u8>,
) -> Response {
    let version = (!fed.is_degraded()).then(|| fed.version() + fed.at.0);
    let ttl = ctx.cfg.cache.federation;
    super::per_viewer(ctx, req, "federation", ttl, version, || Ok(build()))
}

/// The degradation notices of every slice that has one.
fn notices(fed: &FederatedSnapshot) -> Vec<String> {
    fed.sites.iter().filter_map(|s| s.notice()).collect()
}

/// The `/api/federation/status` payload, the Federation page's data.
#[derive(Debug, Serialize, Deserialize)]
pub struct Status {
    /// Some slice is stale or dark; `notices` says which.
    pub degraded: bool,
    pub clusters: usize,
    pub live: usize,
    pub stale: usize,
    pub dark: usize,
    pub totals: Totals,
    pub notices: Vec<String>,
    pub sites: Vec<SiteEntry>,
    pub generated_at: u64,
}

#[derive(Debug, Serialize, Deserialize)]
pub struct Totals {
    pub jobs_pending: u32,
    pub jobs_running: u32,
    pub jobs_suspended: u32,
    pub nodes: usize,
}

/// `GET /api/federation/status`: the federation overview widget — per-site
/// health, cross-site job totals, and the degradation notices.
fn status(ctx: &DashboardContext, req: &Request) -> Response {
    if let Err(resp) = CurrentUser::from_request(ctx, req) {
        return resp;
    }
    let fed = fan_out(ctx);
    aggregate(ctx, req, &fed, || {
        let counts = fed.counts();
        super::encode(&Status {
            degraded: fed.is_degraded(),
            clusters: fed.sites.len(),
            live: fed.live_sites(),
            stale: fed.stale_sites(),
            dark: fed.dark_sites(),
            totals: Totals {
                jobs_pending: counts.pending,
                jobs_running: counts.running,
                jobs_suspended: counts.suspended,
                nodes: fed.nodes().count(),
            },
            notices: notices(&fed),
            sites: fed.sites.iter().map(SiteEntry::from).collect(),
            generated_at: fed.at.0,
        })
    })
}

/// An aggregate listing: rows from every slice under the federation-wide
/// degradation header.
#[derive(Serialize)]
struct Jobs<'a> {
    degraded: bool,
    notices: Vec<String>,
    jobs: Vec<JobRow<'a>>,
    generated_at: u64,
}

/// One job, tagged with its cluster and its slice's freshness.
#[derive(Serialize)]
struct JobRow<'a> {
    cluster: &'a str,
    slice_health: &'static str,
    id: u32,
    name: &'a str,
    user: &'a str,
    account: &'a str,
    partition: &'a str,
    state: &'static str,
}

/// `GET /api/federation/jobs`: the viewer's jobs across every cluster, each
/// row tagged with its cluster and its slice's freshness.
fn jobs(ctx: &DashboardContext, req: &Request) -> Response {
    let user = match CurrentUser::from_request(ctx, req) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let fed = fan_out(ctx);
    aggregate(ctx, req, &fed, || {
        let found = fed.jobs_of_user(&user.username);
        super::encode(&Jobs {
            degraded: fed.is_degraded(),
            notices: notices(&fed),
            jobs: found
                .iter()
                .map(|(site, job)| JobRow {
                    cluster: &site.cluster,
                    slice_health: site.health.as_str(),
                    id: job.id.0,
                    name: &job.req.name,
                    user: &job.req.user,
                    account: &job.req.account,
                    partition: &job.req.partition,
                    state: job.state.to_slurm(),
                })
                .collect(),
            generated_at: fed.at.0,
        })
    })
}

#[derive(Serialize)]
struct Nodes<'a> {
    degraded: bool,
    notices: Vec<String>,
    nodes: Vec<NodeRow<'a>>,
    generated_at: u64,
}

/// One node, tagged like a [`JobRow`].
#[derive(Serialize)]
struct NodeRow<'a> {
    cluster: &'a str,
    slice_health: &'static str,
    name: &'a str,
    cpus: u32,
    mem_mb: u64,
    gpus: u32,
}

/// `GET /api/federation/nodes`: every node across the federation, tagged by
/// cluster — the data behind a federated cluster-status grid.
fn nodes(ctx: &DashboardContext, req: &Request) -> Response {
    if let Err(resp) = CurrentUser::from_request(ctx, req) {
        return resp;
    }
    let fed = fan_out(ctx);
    aggregate(ctx, req, &fed, || {
        super::encode(&Nodes {
            degraded: fed.is_degraded(),
            notices: notices(&fed),
            nodes: fed
                .nodes()
                .map(|(site, node)| NodeRow {
                    cluster: &site.cluster,
                    slice_health: site.health.as_str(),
                    name: &node.name,
                    cpus: node.cpus,
                    mem_mb: node.real_memory_mb,
                    gpus: node.gpus,
                })
                .collect(),
            generated_at: fed.at.0,
        })
    })
}

/// `GET /api/federation/clusters/:cluster/status`: one site's slice through
/// the same breaker/staleness path as the full fan-out.
fn cluster_status(ctx: &DashboardContext, req: &Request) -> Response {
    if let Err(resp) = CurrentUser::from_request(ctx, req) {
        return resp;
    }
    let Some(cluster) = req.param("cluster") else {
        return Response::bad_request("missing cluster");
    };
    let Some(slice) = ctx.federation.site_status(cluster, &ctx.breakers) else {
        return Response::not_found("unknown cluster");
    };
    // Polled first: only a live slice is looked up, by its own site's seq.
    let version = slice.health.is_live().then(|| slice.seq());
    let ttl = ctx.cfg.cache.federation;
    super::per_viewer(ctx, req, "federation", ttl, version, || {
        Ok(super::encode(&SiteEntry::from(&slice)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Dashboard;
    use crate::config::DashboardConfig;
    use crate::ctx::tests::{test_ctx, test_ctx_clocked, test_ctx_with};
    use hpcdash_faults::{FaultPlan, FaultRule};
    use hpcdash_http::Method;
    use hpcdash_simtime::Timestamp;
    use hpcdash_slurm::job::JobRequest;
    use std::sync::Arc;

    fn get(path: &str) -> Request {
        Request::new(Method::Get, path).with_header("X-Remote-User", "alice")
    }

    /// Cut the one site's link: its slice is served stale from now on.
    fn black_out(ctx: &DashboardContext) {
        ctx.ctld.faults().install(
            Arc::new(FaultPlan::new(3).rule(FaultRule::error("slurmctld", "*", "site link down"))),
            ctx.clock.clone(),
        );
    }

    #[test]
    fn a_cached_live_slice_is_not_served_after_its_site_goes_dark() {
        let ctx = test_ctx();
        ctx.ctld.tick();
        let mut req = get("/api/federation/clusters/t/status");
        req.params.insert("cluster".to_string(), "t".to_string());
        let live = cluster_status(&ctx, &req);
        assert_eq!(live.body_json().unwrap()["health"], "live");
        assert!(live.header("etag").is_some());
        // The clock is frozen and the site's seq does not move: only the
        // poll can tell that the slice is stale now.
        black_out(&ctx);
        let stale = cluster_status(&ctx, &req);
        assert_eq!(stale.body_json().unwrap()["health"], "stale");
        assert_eq!(stale.header("etag"), None);
        ctx.ctld.faults().clear();
    }

    #[test]
    fn aggregates_revalidate_against_the_epoch_vector_and_never_while_degraded() {
        for route in &ROUTES[..3] {
            let (ctx, clock) = test_ctx_clocked();
            let dash = Dashboard::new(ctx.clone());
            let fanouts = || {
                ctx.obs
                    .counter("hpcdash_federation_fanouts_total", &[])
                    .get()
            };
            let ask = |etag: &str| dash.handle(&get(route).with_header("If-None-Match", etag));
            let submit = || {
                ctx.ctld
                    .submit(JobRequest::simple("alice", "physics", "cpu", 1))
                    .unwrap()
            };
            submit();
            ctx.ctld.tick();
            let first = dash.handle(&get(route));
            assert_eq!(first.status, 200, "{route}");
            let etag = first
                .header("etag")
                .expect("a live aggregate has a validator");

            // An unchanged epoch vector: a 304, and still one fan-out each.
            for n in 1..=3 {
                assert_eq!(ask(etag).status, 304, "{route}");
                assert_eq!(fanouts(), 1 + n, "{route}");
            }

            // The site publishes new jobs: new bytes (the node list, which
            // no job changes, may stay the same).
            submit();
            ctx.ctld.tick();
            let ticked = ask(etag);
            if *route != ROUTES[2] {
                assert_eq!(ticked.status, 200, "{route}");
                assert_ne!(ticked.body, first.body, "{route}");
            }

            // The clock steps with no publish: a new `generated_at`.
            clock.advance(10);
            let stepped = ask(etag);
            assert_eq!(stepped.status, 200, "{route}");
            let body = stepped.body_json().unwrap();
            assert_eq!(body["generated_at"], 1_010, "{route}");
            let etag = stepped.header("etag").expect("still live");

            // The site goes dark after a cached 200: degraded, never a 304
            // and never a validator, however often it is asked.
            black_out(&ctx);
            for _ in 0..2 {
                let dark = ask(etag);
                assert_eq!(dark.status, 200, "{route}");
                assert_eq!(dark.header("etag"), None, "{route}");
                assert_eq!(dark.body_json().unwrap()["degraded"], true, "{route}");
            }

            // It clears and publishes: live, validated and revalidated again.
            ctx.ctld.faults().clear();
            ctx.ctld.tick();
            let back = dash.handle(&get(route));
            assert_eq!(back.body_json().unwrap()["degraded"], false, "{route}");
            let etag = back.header("etag").expect("live again");
            assert_eq!(ask(etag).status, 304, "{route}");
        }
    }

    #[test]
    fn routes_require_auth() {
        let ctx = test_ctx();
        let req = Request::new(Method::Get, ROUTES[0]);
        assert_eq!(status(&ctx, &req).status, 401);
        assert_eq!(jobs(&ctx, &req).status, 401);
        assert_eq!(nodes(&ctx, &req).status, 401);
    }

    #[test]
    fn single_site_context_federates_itself() {
        // `DashboardContext::new` registers its own ctld, so the federated
        // routes answer out of the box with one live site.
        let ctx = test_ctx();
        ctx.ctld.tick();
        let body = status(&ctx, &get(ROUTES[0])).body_json().unwrap();
        assert_eq!(body["clusters"], 1);
        assert_eq!(body["live"], 1);
        assert_eq!(body["degraded"], false);
        assert_eq!(body["sites"][0]["cluster"], "t");
        assert_eq!(body["sites"][0]["health"], "live");
        assert!(body["notices"].as_array().unwrap().is_empty());
    }

    #[test]
    fn jobs_are_tagged_with_their_cluster() {
        let ctx = test_ctx();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 1))
            .unwrap();
        ctx.ctld.tick();
        let body = jobs(&ctx, &get(ROUTES[1])).body_json().unwrap();
        let rows = body["jobs"].as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["cluster"], "t");
        assert_eq!(rows[0]["user"], "alice");
        assert_eq!(rows[0]["slice_health"], "live");
    }

    #[test]
    fn unreachable_site_degrades_with_an_honest_notice() {
        let ctx = test_ctx();
        ctx.ctld.tick();
        // Warm the last-known-good cell, then black the site out.
        assert_eq!(
            status(&ctx, &get(ROUTES[0])).body_json().unwrap()["live"],
            1
        );
        black_out(&ctx);
        let body = status(&ctx, &get(ROUTES[0])).body_json().unwrap();
        assert_eq!(body["degraded"], true);
        assert_eq!(body["stale"], 1);
        assert_eq!(body["sites"][0]["health"], "stale");
        let notice = body["notices"][0].as_str().unwrap();
        assert!(notice.starts_with("site t: data from"), "{notice}");
        // The stale slice still contributes its rows.
        let body = nodes(&ctx, &get(ROUTES[2])).body_json().unwrap();
        assert_eq!(body["nodes"].as_array().unwrap().len(), 1);
        assert_eq!(body["nodes"][0]["slice_health"], "stale");
        ctx.ctld.faults().clear();
    }

    #[test]
    fn cluster_scoped_route_answers_and_404s() {
        let ctx = test_ctx();
        ctx.ctld.tick();
        let req = get("/api/federation/clusters/t/status");
        let mut req = req;
        req.params.insert("cluster".to_string(), "t".to_string());
        let resp = cluster_status(&ctx, &req);
        assert_eq!(resp.status, 200);
        let body = resp.body_json().unwrap();
        assert_eq!(body["cluster"], "t");
        assert_eq!(body["health"], "live");
        assert!(body["snapshot_seq"].as_u64().unwrap() >= 1);
        req.params
            .insert("cluster".to_string(), "nosuch".to_string());
        assert_eq!(cluster_status(&ctx, &req).status, 404);
    }

    #[test]
    fn fanout_metrics_count_slices_by_health() {
        let ctx = test_ctx_with(DashboardConfig::generic("Test"));
        ctx.ctld.tick();
        status(&ctx, &get(ROUTES[0]));
        assert_eq!(
            ctx.obs
                .counter("hpcdash_federation_fanouts_total", &[])
                .get(),
            1
        );
        assert_eq!(
            ctx.obs
                .counter(
                    "hpcdash_federation_slices_total",
                    &[("cluster", "t"), ("health", "live")]
                )
                .get(),
            1
        );
    }

    #[test]
    fn aggregate_payload_totals_match_the_site_slice() {
        let ctx = test_ctx();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 1))
            .unwrap();
        ctx.ctld.tick();
        let body = status(&ctx, &get(ROUTES[0])).body_json().unwrap();
        let totals = &body["totals"];
        let running = totals["jobs_running"].as_u64().unwrap();
        let pending = totals["jobs_pending"].as_u64().unwrap();
        assert_eq!(running + pending, 1, "{totals}");
        assert_eq!(totals["nodes"], 1);
        assert!(body["generated_at"].as_u64().unwrap() >= Timestamp(1_000).0);
    }
}
