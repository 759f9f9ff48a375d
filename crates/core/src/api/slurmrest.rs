//! The `/slurm/v0` structured-JSON family — this dashboard's analog of
//! `slurmrestd`, the Slurm REST API the Palmetto dashboard builds upon.
//!
//! Each endpoint serializes straight from the immutable [`ClusterSnapshot`]
//! and its precomputed per-user / per-account / per-partition indexes:
//! zero command text rendered, zero text parsed, zero acquisitions of the
//! daemon's state mutex on the hot path (all three asserted in
//! `tests/restapi.rs`). Access is bearer-token only — tokens are minted by
//! admins with explicit scopes, validated at mint time to never exceed the
//! subject's own widget-route view, and checked deny-by-default on every
//! route.
//!
//! Steady state is cheaper still: response bytes live in the dashboard's
//! one server cache, keyed per endpoint view and versioned on the snapshot
//! seq, so until the cluster publishes a new epoch a repeat request is a
//! hash lookup and two `Arc` clones (or a 304). A fault injected on the
//! `slurm_v0` boundary serves the last-known-good bytes with an
//! `X-Hpcdash-Stale: <seq>` header — the same serve-stale contract the
//! widget routes get from the same cache.

use crate::auth::{note_act_as, CurrentUser};
use crate::ctx::DashboardContext;
use hpcdash_cache::{Body, NO_TTL};
use hpcdash_http::{Method, Request, Response, Router};
use hpcdash_restapi::{serialize, visible_job_positions, AuthedToken, Scope, ScopeSet};
use hpcdash_slurm::job::JobId;
use hpcdash_slurm::snapshot::ClusterSnapshot;
use serde_json::json;
use std::collections::BTreeSet;

pub const FEATURE: &str = "Slurm REST API analog (extension)";
pub const ROUTES: &[&str] = &[
    "/slurm/v0/jobs",
    "/slurm/v0/jobs/:id",
    "/slurm/v0/nodes",
    "/slurm/v0/partitions",
    "/slurm/v0/associations",
    "/slurm/v0/diag",
    "/slurm/v0/admin/tokens",
    "/slurm/v0/admin/tokens/:id/revoke",
    "/slurm/v0/clusters",
    "/slurm/v0/clusters/:cluster/jobs",
    "/slurm/v0/clusters/:cluster/nodes",
    "/slurm/v0/clusters/:cluster/partitions",
];

pub fn register(router: &mut Router, ctx: DashboardContext) {
    let c = |ctx: &DashboardContext| ctx.clone();
    let c1 = c(&ctx);
    let c2 = c(&ctx);
    let c3 = c(&ctx);
    let c4 = c(&ctx);
    let c5 = c(&ctx);
    let c6 = c(&ctx);
    let c7 = c(&ctx);
    let c8 = c(&ctx);
    let c9 = c(&ctx);
    let c10 = c(&ctx);
    let c11 = c(&ctx);
    let c12 = c(&ctx);
    router.get(ROUTES[0], move |req| read(&ctx, req, Endpoint::Jobs));
    router.get(ROUTES[1], move |req| read(&c1, req, Endpoint::JobById));
    router.get(ROUTES[2], move |req| read(&c2, req, Endpoint::Nodes));
    router.get(ROUTES[3], move |req| read(&c3, req, Endpoint::Partitions));
    router.get(ROUTES[4], move |req| read(&c4, req, Endpoint::Associations));
    router.get(ROUTES[5], move |req| read(&c5, req, Endpoint::Diag));
    router.add(Method::Post, ROUTES[6], move |req| mint(&c6, req));
    router.get(ROUTES[6], move |req| list(&c7, req));
    router.add(Method::Post, ROUTES[7], move |req| revoke(&c8, req));
    // The federation family: cluster inventory plus cluster-scoped reads.
    router.get(ROUTES[8], move |req| clusters(&c9, req));
    router.get(ROUTES[9], move |req| {
        cluster_read(&c10, req, FedEndpoint::Jobs)
    });
    router.get(ROUTES[10], move |req| {
        cluster_read(&c11, req, FedEndpoint::Nodes)
    });
    router.get(ROUTES[11], move |req| {
        cluster_read(&c12, req, FedEndpoint::Partitions)
    });
}

#[derive(Clone, Copy)]
enum Endpoint {
    Jobs,
    JobById,
    Nodes,
    Partitions,
    Associations,
    Diag,
}

impl Endpoint {
    /// Stable route label for cache keys and audit counters.
    fn name(self) -> &'static str {
        match self {
            Endpoint::Jobs => "jobs",
            Endpoint::JobById => "job",
            Endpoint::Nodes => "nodes",
            Endpoint::Partitions => "partitions",
            Endpoint::Associations => "associations",
            Endpoint::Diag => "diag",
        }
    }
}

/// Resolve the bearer token, or the 401 to send. Deny-by-default: there is
/// no anonymous view of anything under `/slurm/v0`.
fn bearer(ctx: &DashboardContext, req: &Request) -> Result<AuthedToken, Response> {
    let Some(header) = req.header("authorization") else {
        ctx.tokens.note_missing();
        return Err(Response::unauthorized("missing bearer token"));
    };
    let Some(secret) = header.strip_prefix("Bearer ") else {
        ctx.tokens.note_missing();
        return Err(Response::unauthorized("authorization must be Bearer"));
    };
    ctx.tokens
        .authenticate(secret.trim())
        .map_err(|e| Response::unauthorized(e.message()))
}

/// The one read handler. All six endpoints share the sequence: bearer →
/// act-as → fault gate → seq-versioned cache → scope gate → serialize.
/// The whole family answers from serialized bytes, never from a `Value`
/// round-trip.
fn read(ctx: &DashboardContext, req: &Request, endpoint: Endpoint) -> Response {
    // Recovery check first: the purge of dead-epoch bytes must land before
    // the stale-fallback below can reach for them.
    ctx.observe_recoveries();
    ctx.obs
        .counter(
            "hpcdash_restapi_requests_total",
            &[("endpoint", endpoint.name())],
        )
        .inc();
    let token = match bearer(ctx, req) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    // An `admin-act-as` token may evaluate scopes for another subject —
    // the token equivalent of the widget routes' X-Act-As header, audited
    // through the same counter.
    let subject = match req.header("x-act-as") {
        Some(target) if !target.is_empty() && target != token.subject => {
            if !token.scopes.has_act_as() {
                ctx.tokens.note_denied(endpoint.name());
                return Response::forbidden("token lacks admin-act-as");
            }
            note_act_as(ctx, &token.subject, target);
            target.to_string()
        }
        _ => token.subject.clone(),
    };
    let key = format!(
        "slurm_v0:{}|{}|{}|{}",
        endpoint.name(),
        req.param("id").unwrap_or(""),
        subject,
        token.scopes.fingerprint()
    );
    // The fault gate: `slurm_v0` boundary faults fail the source the way a
    // dead slurmrestd would, but last-known-good bytes keep serving.
    if ctx.ctld.faults().is_armed() {
        let check = ctx.ctld.faults().check("slurm_v0");
        check.burn();
        if let Some(msg) = check.error() {
            return match ctx.cache.cache().last_good(&key) {
                Some(stale) => {
                    ctx.obs
                        .counter(
                            "hpcdash_restapi_stale_serves_total",
                            &[("endpoint", endpoint.name())],
                        )
                        .inc();
                    super::json_bytes(stale.value.bytes)
                        .with_header("X-Hpcdash-Stale", &stale.version.to_string())
                }
                None => Response::service_unavailable(msg),
            };
        }
    }
    // Lock-free read: the epoch cell hands back the latest published
    // snapshot; the daemon's state mutex is never touched.
    let snap = ctx.ctld.snapshot();
    if let Some(body) = ctx.cache_lookup(&key, snap.seq) {
        return super::fresh(body);
    }
    let body = match build(ctx, req, endpoint, &snap, &token.scopes, &subject) {
        Ok(bytes) => Body::new(bytes),
        Err(resp) => return resp,
    };
    ctx.cache
        .cache()
        .insert(key, body.clone(), snap.seq, NO_TTL);
    super::fresh(body)
}

/// Scope-gate and serialize one endpoint. `Err` carries the 403/404 to
/// send; those are never cached (they are cheap and auditable).
fn build(
    ctx: &DashboardContext,
    req: &Request,
    endpoint: Endpoint,
    snap: &ClusterSnapshot,
    scopes: &ScopeSet,
    subject: &str,
) -> Result<Vec<u8>, Response> {
    let deny = |msg: &str| {
        ctx.tokens.note_denied(endpoint.name());
        Err(Response::forbidden(msg))
    };
    match endpoint {
        Endpoint::Jobs => match visible_job_positions(snap, scopes, subject) {
            Some(positions) => Ok(serialize::jobs_body(snap, &positions)),
            None => deny("token grants no job visibility"),
        },
        Endpoint::JobById => {
            let Some(id) = req.param("id").and_then(|s| s.parse().ok()).map(JobId) else {
                return Err(Response::bad_request("invalid job id"));
            };
            let Some(job) = snap.job(id) else {
                return Err(Response::not_found("unknown job"));
            };
            if !scopes.allows_job(subject, &job.req.user, &job.req.account, &job.req.partition) {
                return deny("job outside token scopes");
            }
            Ok(serialize::job_body(snap, job))
        }
        Endpoint::Nodes => {
            if scopes.has_cluster() {
                return Ok(serialize::nodes_body(snap, None));
            }
            let parts: Vec<&str> = scopes.partitions().collect();
            if parts.is_empty() {
                return deny("nodes require read-cluster or read-partition");
            }
            let mut positions: BTreeSet<u32> = BTreeSet::new();
            for (idx, p) in snap.partitions.iter().enumerate() {
                if parts.contains(&p.name.as_str()) {
                    positions.extend(snap.partition_nodes[idx].iter().copied());
                }
            }
            let positions: Vec<u32> = positions.into_iter().collect();
            Ok(serialize::nodes_body(snap, Some(&positions)))
        }
        Endpoint::Partitions => {
            let indices: Vec<usize> = if scopes.has_cluster() {
                (0..snap.partitions.len()).collect()
            } else {
                let parts: Vec<&str> = scopes.partitions().collect();
                if parts.is_empty() {
                    return deny("partitions require read-cluster or read-partition");
                }
                snap.partitions
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| parts.contains(&p.name.as_str()))
                    .map(|(i, _)| i)
                    .collect()
            };
            Ok(serialize::partitions_body(snap, &indices))
        }
        Endpoint::Associations => {
            let accounts: Vec<&str> = scopes.accounts().collect();
            let own = scopes.contains(&Scope::ReadOwnJobs);
            if !scopes.has_cluster() && accounts.is_empty() && !own {
                return deny("associations require an account-bearing scope");
            }
            let indices: Vec<usize> = snap
                .assoc
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    scopes.has_cluster()
                        || accounts.contains(&r.account.name.as_str())
                        || (own && r.members.iter().any(|m| m == subject))
                })
                .map(|(i, _)| i)
                .collect();
            Ok(serialize::assoc_body(snap, &indices))
        }
        Endpoint::Diag => {
            if !scopes.has_cluster() {
                return deny("diag requires read-cluster");
            }
            let extra = json!({
                "tokens_active": ctx.tokens.active_count(),
                "rpc_total": ctx.ctld.stats().total_rpcs(),
            });
            Ok(serialize::diag_body(snap, &extra))
        }
    }
}

#[derive(Clone, Copy)]
enum FedEndpoint {
    Jobs,
    Nodes,
    Partitions,
}

impl FedEndpoint {
    fn name(self) -> &'static str {
        match self {
            FedEndpoint::Jobs => "clusters_jobs",
            FedEndpoint::Nodes => "clusters_nodes",
            FedEndpoint::Partitions => "clusters_partitions",
        }
    }
}

/// Resolve a bearer that must carry `read-cluster` — the federation family
/// is a cluster-level surface, so partial scopes are refused outright.
fn fed_bearer(ctx: &DashboardContext, req: &Request, audit: &str) -> Result<AuthedToken, Response> {
    let token = bearer(ctx, req)?;
    if !token.scopes.has_cluster() {
        ctx.tokens.note_denied(audit);
        return Err(Response::forbidden("federation requires read-cluster"));
    }
    Ok(token)
}

/// `GET /slurm/v0/clusters`: the federated inventory — every registered
/// site with its health, snapshot seq, and job/node totals. Served from a
/// fresh fan-out on every request (never byte-cached): the per-site ages
/// this payload reports must keep growing while a site is dark.
fn clusters(ctx: &DashboardContext, req: &Request) -> Response {
    ctx.obs
        .counter(
            "hpcdash_restapi_requests_total",
            &[("endpoint", "clusters")],
        )
        .inc();
    if let Err(resp) = fed_bearer(ctx, req, "clusters") {
        return resp;
    }
    let fed = ctx.federation.snapshot(&ctx.breakers);
    let sites: Vec<serde_json::Value> = fed
        .sites
        .iter()
        .map(|s| {
            let mut entry = json!({
                "name": s.cluster.as_ref(),
                "health": s.health.as_str(),
                "snapshot_seq": s.seq(),
            });
            if let Some(snap) = &s.snapshot {
                entry["jobs"] = json!(snap.jobs.len());
                entry["nodes"] = json!(snap.nodes.len());
            }
            if let Some(notice) = s.notice() {
                entry["notice"] = json!(notice);
            }
            entry
        })
        .collect();
    Response::json(&json!({
        "meta": { "plugin": { "type": "hpcdash/v0", "name": "federation" } },
        "degraded": fed.is_degraded(),
        "clusters": sites,
    }))
}

/// The cluster-scoped read handler: bearer (read-cluster) → federation
/// slice (breaker-gated, last-known-good under faults) → seq-versioned
/// cache → serialize. A degraded slice serves its stale bytes under an
/// `X-Hpcdash-Stale` header, exactly like the single-site family under a
/// `slurm_v0` fault; a dark slice (no snapshot ever fetched) is a 503.
fn cluster_read(ctx: &DashboardContext, req: &Request, endpoint: FedEndpoint) -> Response {
    ctx.obs
        .counter(
            "hpcdash_restapi_requests_total",
            &[("endpoint", endpoint.name())],
        )
        .inc();
    if let Err(resp) = fed_bearer(ctx, req, endpoint.name()) {
        return resp;
    }
    let Some(cluster) = req.param("cluster") else {
        return Response::bad_request("missing cluster");
    };
    let Some(slice) = ctx.federation.site_status(cluster, &ctx.breakers) else {
        return Response::not_found("unknown cluster");
    };
    let (snap, stale_age) = match (&slice.snapshot, &slice.health) {
        (Some(snap), hpcdash_federation::SiteHealth::Stale { age_secs, .. }) => {
            (snap.clone(), Some(*age_secs))
        }
        (Some(snap), _) => (snap.clone(), None),
        (None, health) => {
            return Response::service_unavailable(&format!(
                "cluster {cluster} unavailable ({})",
                health.as_str()
            ));
        }
    };
    // The key carries the cluster dimension; the version is the *slice's*
    // seq, so stale bytes stay valid for the epoch they reflect.
    let key = format!("slurm_v0:{}|{}", endpoint.name(), cluster);
    let body = match ctx.cache_lookup(&key, snap.seq) {
        Some(body) => body,
        None => {
            let built = match endpoint {
                FedEndpoint::Jobs => {
                    let positions: Vec<u32> = (0..snap.jobs.len() as u32).collect();
                    serialize::jobs_body(&snap, &positions)
                }
                FedEndpoint::Nodes => serialize::nodes_body(&snap, None),
                FedEndpoint::Partitions => {
                    let indices: Vec<usize> = (0..snap.partitions.len()).collect();
                    serialize::partitions_body(&snap, &indices)
                }
            };
            let body = Body::new(built);
            ctx.cache
                .cache()
                .insert(key, body.clone(), snap.seq, NO_TTL);
            body
        }
    };
    match stale_age {
        Some(age) => {
            ctx.obs
                .counter(
                    "hpcdash_restapi_stale_serves_total",
                    &[("endpoint", endpoint.name())],
                )
                .inc();
            super::json_bytes(body.bytes)
                .with_header("X-Hpcdash-Stale", &snap.seq.to_string())
                .with_header("X-Hpcdash-Stale-Age", &age.to_string())
        }
        None => super::fresh(body),
    }
}

/// `POST /slurm/v0/admin/tokens`: mint a token for a subject. Admin-only,
/// and the requested scopes must not exceed what the subject's own
/// `X-Remote-User` view would show (mint-time narrowing — the property the
/// parity matrix test leans on).
fn mint(ctx: &DashboardContext, req: &Request) -> Response {
    let admin = match require_admin(ctx, req) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let Ok(body) = serde_json::from_slice::<serde_json::Value>(&req.body) else {
        return Response::bad_request("body must be JSON");
    };
    let Some(subject) = body["subject"].as_str().filter(|s| !s.is_empty()) else {
        return Response::bad_request("missing subject");
    };
    let Some(scope_list) = body["scopes"].as_array() else {
        return Response::bad_request("missing scopes list");
    };
    let names: Vec<&str> = scope_list.iter().filter_map(|v| v.as_str()).collect();
    if names.len() != scope_list.len() {
        return Response::bad_request("scopes must be strings");
    }
    let scopes = match ScopeSet::parse_list(&names) {
        Ok(s) => s,
        Err(e) => return Response::bad_request(&e),
    };
    // The subject's profile, not the minting admin's: a token for alice can
    // hold at most alice's view, no matter who mints it.
    let subject_user = CurrentUser::new(subject, ctx.cfg.is_admin(subject));
    let profile = subject_user.scope_profile(ctx);
    if let Err(e) = scopes.validate_against(&profile) {
        return Response::forbidden(&e);
    }
    let minted = ctx.tokens.mint(subject, scopes);
    let _ = admin;
    Response::json(&json!({
        "id": minted.id,
        "subject": minted.subject,
        "scopes": minted.scopes.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        // Shown exactly once; listings never repeat it.
        "secret": minted.secret,
    }))
}

/// `GET /slurm/v0/admin/tokens`: the token inventory, secrets withheld.
fn list(ctx: &DashboardContext, req: &Request) -> Response {
    if let Err(resp) = require_admin(ctx, req) {
        return resp;
    }
    let tokens: Vec<serde_json::Value> = ctx
        .tokens
        .list()
        .into_iter()
        .map(|t| {
            json!({
                "id": t.id,
                "subject": t.subject,
                "scopes": t.scopes.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
                "revoked": t.revoked,
            })
        })
        .collect();
    Response::json(&json!({ "tokens": tokens }))
}

/// `POST /slurm/v0/admin/tokens/:id/revoke`.
fn revoke(ctx: &DashboardContext, req: &Request) -> Response {
    if let Err(resp) = require_admin(ctx, req) {
        return resp;
    }
    let Some(id) = req.param("id") else {
        return Response::bad_request("missing token id");
    };
    if ctx.tokens.revoke(id) {
        Response::json(&json!({"ok": true, "id": id}))
    } else {
        Response::not_found("no such token")
    }
}

fn require_admin(ctx: &DashboardContext, req: &Request) -> Result<CurrentUser, Response> {
    let user = CurrentUser::from_request(ctx, req)?;
    if !user.is_admin {
        return Err(Response::forbidden("administrator access required"));
    }
    Ok(user)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::admin::tests::admin_ctx;
    use hpcdash_slurm::job::JobRequest;
    use std::sync::Arc;

    /// Hits the one server cache has counted for the `/slurm/v0` family.
    fn cache_hits(ctx: &DashboardContext) -> u64 {
        ctx.obs
            .counter("hpcdash_cache_hits_total", &[("source", "slurm_v0")])
            .get()
    }

    fn mint_for(
        ctx: &DashboardContext,
        subject: &str,
        scopes: &[&str],
    ) -> Result<(String, String), Response> {
        let mut req = Request::new(Method::Post, "/slurm/v0/admin/tokens")
            .with_header("X-Remote-User", "root");
        req.body = json!({"subject": subject, "scopes": scopes})
            .to_string()
            .into_bytes();
        let resp = mint(ctx, &req);
        if resp.status != 200 {
            return Err(resp);
        }
        let body = resp.body_json().unwrap();
        Ok((
            body["id"].as_str().unwrap().to_string(),
            body["secret"].as_str().unwrap().to_string(),
        ))
    }

    fn get(path: &str, secret: &str) -> Request {
        Request::new(Method::Get, path).with_header("Authorization", &format!("Bearer {secret}"))
    }

    #[test]
    fn no_token_is_401_on_every_endpoint() {
        let ctx = admin_ctx();
        for ep in [
            Endpoint::Jobs,
            Endpoint::JobById,
            Endpoint::Nodes,
            Endpoint::Partitions,
            Endpoint::Associations,
            Endpoint::Diag,
        ] {
            let resp = read(&ctx, &Request::new(Method::Get, "/slurm/v0/x"), ep);
            assert_eq!(resp.status, 401, "{}", ep.name());
            assert_eq!(resp.body_json().unwrap()["status"], 401);
        }
    }

    #[test]
    fn mint_requires_admin_and_narrowing() {
        let ctx = admin_ctx();
        // Non-admin minters are rejected outright.
        let mut req = Request::new(Method::Post, "/slurm/v0/admin/tokens")
            .with_header("X-Remote-User", "alice");
        req.body = json!({"subject": "alice", "scopes": ["read-own-jobs"]})
            .to_string()
            .into_bytes();
        assert_eq!(mint(&ctx, &req).status, 403);
        // Over-broad scopes for the subject are a 403, not a trim.
        let err = mint_for(&ctx, "alice", &["read-cluster"]).unwrap_err();
        assert_eq!(err.status, 403);
        let err = mint_for(&ctx, "alice", &["read-account:chem"]).unwrap_err();
        assert_eq!(err.status, 403);
        // Within-profile scopes mint fine.
        assert!(mint_for(&ctx, "alice", &["read-own-jobs", "read-account:physics"]).is_ok());
    }

    #[test]
    fn scoped_token_sees_only_its_slice() {
        let ctx = admin_ctx();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 1))
            .unwrap();
        ctx.ctld.tick();
        let (_, own) = mint_for(&ctx, "alice", &["read-own-jobs"]).unwrap();
        let resp = read(&ctx, &get("/slurm/v0/jobs", &own), Endpoint::Jobs);
        assert_eq!(resp.status, 200);
        let body = resp.body_json().unwrap();
        assert_eq!(body["jobs"].as_array().unwrap().len(), 1);
        assert_eq!(body["jobs"][0]["user_name"], "alice");
        // The same token is denied the cluster-wide endpoints.
        assert_eq!(
            read(&ctx, &get("/slurm/v0/diag", &own), Endpoint::Diag).status,
            403
        );
        assert_eq!(
            read(&ctx, &get("/slurm/v0/nodes", &own), Endpoint::Nodes).status,
            403
        );
    }

    #[test]
    fn revoked_token_is_401() {
        let ctx = admin_ctx();
        let (id, secret) = mint_for(&ctx, "alice", &["read-own-jobs"]).unwrap();
        assert_eq!(
            read(&ctx, &get("/slurm/v0/jobs", &secret), Endpoint::Jobs).status,
            200
        );
        let mut req = Request::new(Method::Post, "/x").with_header("X-Remote-User", "root");
        req.params.insert("id".to_string(), id);
        assert_eq!(revoke(&ctx, &req).status, 200);
        let resp = read(&ctx, &get("/slurm/v0/jobs", &secret), Endpoint::Jobs);
        assert_eq!(resp.status, 401);
        assert_eq!(resp.body_json().unwrap()["error"], "token revoked");
    }

    #[test]
    fn job_by_id_distinguishes_404_and_403() {
        let ctx = admin_ctx();
        let id = ctx
            .ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 1))
            .unwrap()[0];
        ctx.ctld.tick();
        // bob shares no account with alice; his own-jobs token can't see it.
        let (_, bob) = mint_for(&ctx, "bob", &["read-own-jobs"]).unwrap();
        let mut req = get("/slurm/v0/jobs/x", &bob);
        req.params.insert("id".to_string(), id.0.to_string());
        assert_eq!(read(&ctx, &req, Endpoint::JobById).status, 403);
        req.params.insert("id".to_string(), "999999".to_string());
        assert_eq!(read(&ctx, &req, Endpoint::JobById).status, 404);
    }

    #[test]
    fn act_as_needs_the_scope_and_is_audited() {
        let ctx = admin_ctx();
        let (_, plain) = mint_for(&ctx, "alice", &["read-own-jobs"]).unwrap();
        let req = get("/slurm/v0/jobs", &plain).with_header("X-Act-As", "bob");
        assert_eq!(read(&ctx, &req, Endpoint::Jobs).status, 403);
        let (_, godmode) = mint_for(&ctx, "root", &["read-cluster", "admin-act-as"]).unwrap();
        let req = get("/slurm/v0/jobs", &godmode).with_header("X-Act-As", "bob");
        assert_eq!(read(&ctx, &req, Endpoint::Jobs).status, 200);
        assert_eq!(
            ctx.obs
                .counter(
                    "hpcdash_act_as_total",
                    &[("admin", "root"), ("target", "bob")]
                )
                .get(),
            1
        );
    }

    #[test]
    fn listing_withholds_secrets() {
        let ctx = admin_ctx();
        mint_for(&ctx, "alice", &["read-own-jobs"]).unwrap();
        let req = Request::new(Method::Get, "/x").with_header("X-Remote-User", "root");
        let body = list(&ctx, &req).body_json().unwrap();
        assert_eq!(body["tokens"].as_array().unwrap().len(), 1);
        assert!(body["tokens"][0].get("secret").is_none());
        // Non-admins can't even list.
        let req = Request::new(Method::Get, "/x").with_header("X-Remote-User", "alice");
        assert_eq!(list(&ctx, &req).status, 403);
    }

    #[test]
    fn repeat_requests_hit_the_byte_cache_until_a_new_epoch() {
        let ctx = admin_ctx();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 1))
            .unwrap();
        ctx.ctld.tick();
        let (_, secret) = mint_for(&ctx, "alice", &["read-own-jobs"]).unwrap();
        let first = read(&ctx, &get("/slurm/v0/jobs", &secret), Endpoint::Jobs);
        let hits0 = cache_hits(&ctx);
        let second = read(&ctx, &get("/slurm/v0/jobs", &secret), Endpoint::Jobs);
        assert_eq!(first.body, second.body);
        assert_eq!(first.header("etag"), second.header("etag"));
        assert_eq!(cache_hits(&ctx), hits0 + 1, "served from bytes");
        // A tick publishes a new snapshot epoch: the next request re-builds.
        ctx.ctld.tick();
        read(&ctx, &get("/slurm/v0/jobs", &secret), Endpoint::Jobs);
        assert_eq!(cache_hits(&ctx), hits0 + 1);
    }

    #[test]
    fn clusters_family_requires_read_cluster() {
        let ctx = admin_ctx();
        ctx.ctld.tick();
        let (_, own) = mint_for(&ctx, "alice", &["read-own-jobs"]).unwrap();
        assert_eq!(clusters(&ctx, &get("/slurm/v0/clusters", &own)).status, 403);
        let mut req = get("/slurm/v0/clusters/t/jobs", &own);
        req.params.insert("cluster".to_string(), "t".to_string());
        assert_eq!(cluster_read(&ctx, &req, FedEndpoint::Jobs).status, 403);
        // Anonymous is 401, not 403.
        let req = Request::new(Method::Get, "/slurm/v0/clusters");
        assert_eq!(clusters(&ctx, &req).status, 401);
    }

    #[test]
    fn clusters_inventory_lists_registered_sites() {
        let ctx = admin_ctx();
        ctx.ctld.tick();
        let (_, secret) = mint_for(&ctx, "root", &["read-cluster"]).unwrap();
        let resp = clusters(&ctx, &get("/slurm/v0/clusters", &secret));
        assert_eq!(resp.status, 200);
        let body = resp.body_json().unwrap();
        assert_eq!(body["degraded"], false);
        let sites = body["clusters"].as_array().unwrap();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0]["name"], "t");
        assert_eq!(sites[0]["health"], "live");
        assert!(sites[0]["snapshot_seq"].as_u64().unwrap() >= 1);
    }

    #[test]
    fn cluster_scoped_reads_serialize_that_site() {
        let ctx = admin_ctx();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 1))
            .unwrap();
        ctx.ctld.tick();
        let (_, secret) = mint_for(&ctx, "root", &["read-cluster"]).unwrap();
        let mut req = get("/slurm/v0/clusters/t/jobs", &secret);
        req.params.insert("cluster".to_string(), "t".to_string());
        let resp = cluster_read(&ctx, &req, FedEndpoint::Jobs);
        assert_eq!(resp.status, 200);
        let body = resp.body_json().unwrap();
        assert_eq!(body["jobs"].as_array().unwrap().len(), 1);
        assert_eq!(body["meta"]["cluster"], "t");
        // Repeat requests answer from the seq-versioned cache.
        let hits0 = cache_hits(&ctx);
        let again = cluster_read(&ctx, &req, FedEndpoint::Jobs);
        assert_eq!(again.body, resp.body);
        assert_eq!(cache_hits(&ctx), hits0 + 1);
        // Unknown clusters 404.
        req.params
            .insert("cluster".to_string(), "nosuch".to_string());
        assert_eq!(cluster_read(&ctx, &req, FedEndpoint::Nodes).status, 404);
    }

    #[test]
    fn blacked_out_cluster_serves_stale_bytes_with_age() {
        let ctx = admin_ctx();
        ctx.ctld.tick();
        let (_, secret) = mint_for(&ctx, "root", &["read-cluster"]).unwrap();
        let mut req = get("/slurm/v0/clusters/t/nodes", &secret);
        req.params.insert("cluster".to_string(), "t".to_string());
        // Warm the last-known-good slice, then cut the site's link.
        let warm = cluster_read(&ctx, &req, FedEndpoint::Nodes);
        assert_eq!(warm.status, 200);
        assert!(warm.header("X-Hpcdash-Stale").is_none());
        ctx.ctld.faults().install(
            Arc::new(
                hpcdash_faults::FaultPlan::new(5).rule(hpcdash_faults::FaultRule::error(
                    "slurmctld",
                    "*",
                    "site link down",
                )),
            ),
            ctx.clock.clone(),
        );
        let resp = cluster_read(&ctx, &req, FedEndpoint::Nodes);
        assert_eq!(resp.status, 200, "stale slice keeps answering");
        assert!(resp.header("X-Hpcdash-Stale").is_some());
        assert!(resp.header("X-Hpcdash-Stale-Age").is_some());
        assert_eq!(resp.body, warm.body);
        ctx.ctld.faults().clear();
    }

    #[test]
    fn fault_serves_stale_bytes_with_header() {
        let ctx = admin_ctx();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 1))
            .unwrap();
        ctx.ctld.tick();
        let (_, secret) = mint_for(&ctx, "alice", &["read-own-jobs"]).unwrap();
        let warm = read(&ctx, &get("/slurm/v0/jobs", &secret), Endpoint::Jobs);
        assert_eq!(warm.status, 200);
        ctx.ctld.faults().install(
            Arc::new(
                hpcdash_faults::FaultPlan::new(1).rule(hpcdash_faults::FaultRule::error(
                    "slurmctld",
                    "slurm_v0",
                    "rest boundary down",
                )),
            ),
            ctx.clock.clone(),
        );
        let resp = read(&ctx, &get("/slurm/v0/jobs", &secret), Endpoint::Jobs);
        assert_eq!(resp.status, 200, "stale bytes keep the API answering");
        assert!(resp.header("X-Hpcdash-Stale").is_some());
        assert_eq!(resp.body, warm.body);
        // A cold key has nothing to fall back on: 503 with a JSON error.
        let (_, cold) = mint_for(&ctx, "bob", &["read-own-jobs"]).unwrap();
        let resp = read(&ctx, &get("/slurm/v0/jobs", &cold), Endpoint::Jobs);
        assert_eq!(resp.status, 503);
        assert_eq!(resp.body_json().unwrap()["status"], 503);
        ctx.ctld.faults().clear();
    }
}
