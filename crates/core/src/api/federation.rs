//! Federated views: cross-cluster aggregates with honest per-site
//! degradation.
//!
//! Every route fans out through [`hpcdash_federation::ClusterRegistry`],
//! which consults this context's `BreakerBoard` per site (`fed@<cluster>`
//! keys) and serves a dark site's slice from its last-known-good snapshot
//! with an age annotation. The aggregates therefore *always* answer — one
//! unreachable cluster degrades only its own rows — and the aggregate
//! routes deliberately skip the server cache: freezing the payload would
//! freeze the "site beta: data from 40s ago" notices these routes exist to
//! keep honest. The cluster-scoped route is cached per viewer, keyed by
//! path (the cluster dimension) and versioned by that site's own published
//! snapshot seq.

use crate::auth::CurrentUser;
use crate::ctx::DashboardContext;
use hpcdash_federation::{FederatedSnapshot, SiteHealth, SiteStatus};
use hpcdash_http::{Request, Response, Router};
use serde::Serialize;
use std::sync::Arc;

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

/// One fan-out across every registered site, with per-slice accounting.
/// Label cardinality is bounded: the site list is fixed at build time.
fn fan_out(ctx: &DashboardContext) -> FederatedSnapshot {
    let fed = ctx.federation.snapshot(&ctx.breakers);
    ctx.obs
        .counter("hpcdash_federation_fanouts_total", &[])
        .inc();
    for s in &fed.sites {
        ctx.obs
            .counter(
                "hpcdash_federation_slices_total",
                &[
                    ("cluster", s.cluster.as_ref()),
                    ("health", s.health.as_str()),
                ],
            )
            .inc();
    }
    fed
}

/// One site's summary entry (shared by the aggregate and scoped routes).
/// What a site without a snapshot, a live site or a site without a notice
/// cannot say is left out rather than sent as `null`.
#[derive(Serialize)]
struct SiteEntry {
    cluster: Arc<str>,
    health: &'static str,
    snapshot_seq: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    jobs: Option<SiteJobs>,
    #[serde(skip_serializing_if = "Option::is_none")]
    nodes: Option<usize>,
    #[serde(skip_serializing_if = "Option::is_none")]
    partitions: Option<usize>,
    #[serde(skip_serializing_if = "Option::is_none")]
    stale_age_secs: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    notice: Option<String>,
}

#[derive(Serialize)]
struct SiteJobs {
    pending: u32,
    running: u32,
    suspended: u32,
}

impl From<&SiteStatus> for SiteEntry {
    fn from(s: &SiteStatus) -> SiteEntry {
        let snap = s.snapshot.as_deref();
        SiteEntry {
            cluster: s.cluster.clone(),
            health: s.health.as_str(),
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

/// The degradation notices of every slice that has one.
fn notices(fed: &FederatedSnapshot) -> Vec<String> {
    fed.sites.iter().filter_map(|s| s.notice()).collect()
}

#[derive(Serialize)]
struct Status {
    degraded: bool,
    clusters: usize,
    live: usize,
    stale: usize,
    dark: usize,
    totals: Totals,
    notices: Vec<String>,
    sites: Vec<SiteEntry>,
    generated_at: u64,
}

#[derive(Serialize)]
struct Totals {
    jobs_pending: u32,
    jobs_running: u32,
    jobs_suspended: u32,
    nodes: usize,
}

/// `GET /api/federation/status`: the federation overview widget — per-site
/// health, cross-site job totals, and the degradation notices.
fn status(ctx: &DashboardContext, req: &Request) -> Response {
    if let Err(resp) = CurrentUser::from_request(ctx, req) {
        return resp;
    }
    let fed = fan_out(ctx);
    let counts = fed.counts();
    Response::json(&Status {
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
    let found = fed.jobs_of_user(&user.username);
    Response::json(&Jobs {
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
    Response::json(&Nodes {
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
    let Some(site) = ctx.federation.get(cluster) else {
        return Response::not_found("unknown cluster");
    };
    // Versioned on the *named* site's published epoch, not the local
    // daemon's: the slice is rebuilt when that cluster ticks.
    let epoch = site.ctld().snapshot().seq;
    let ttl = ctx.cfg.cache.federation;
    super::per_viewer(ctx, req, "federation", ttl, epoch, || {
        let Some(slice) = ctx.federation.site_status(cluster, &ctx.breakers) else {
            return Err(Response::not_found("unknown cluster"));
        };
        // Only a live slice's bytes may be stored and revalidated with
        // 304s; degraded slices must keep re-reporting their growing age.
        Ok((SiteEntry::from(&slice), slice.health.is_live()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DashboardConfig;
    use crate::ctx::tests::{test_ctx, test_ctx_with};
    use hpcdash_faults::{FaultPlan, FaultRule};
    use hpcdash_http::Method;
    use hpcdash_simtime::Timestamp;
    use hpcdash_slurm::job::JobRequest;

    fn get(path: &str) -> Request {
        Request::new(Method::Get, path).with_header("X-Remote-User", "alice")
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
        ctx.ctld.faults().install(
            Arc::new(FaultPlan::new(3).rule(FaultRule::error("slurmctld", "*", "site link down"))),
            ctx.clock.clone(),
        );
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
