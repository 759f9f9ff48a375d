//! Node Overview API (paper §6.1): one node's status card, resource card,
//! configuration details, and the jobs currently running on it.

use crate::api::encode;
use crate::auth::CurrentUser;
use crate::colors::{node_color, utilization_color};
use crate::ctx::DashboardContext;
use hpcdash_http::{Request, Response, Router};
use hpcdash_slurm::ctld::JobQuery;
use hpcdash_slurm::job::Job;
use hpcdash_slurmcli::{parse_show_node, show_node, ScontrolNode};
use serde_json::json;
use std::sync::Arc;

pub const FEATURE: &str = "Node Overview";
pub const ROUTES: &[&str] = &["/api/nodes/:name"];
pub const SOURCES: &[&str] = &["scontrol show node (slurmctld)", "squeue (slurmctld)"];

/// The loader's "no such node" marker; the route recognises a cached one
/// by these bytes, without parsing.
const NOT_FOUND: &[u8] = br#"{"not_found":true}"#;

pub fn register(router: &mut Router, ctx: DashboardContext) {
    router.get(ROUTES[0], move |req| handle(&ctx, req));
}

fn handle(ctx: &DashboardContext, req: &Request) -> Response {
    if let Err(resp) = CurrentUser::from_request(ctx, req) {
        return resp;
    }
    let Some(name) = req.param("name").map(str::to_string) else {
        return Response::bad_request("missing node name");
    };
    let key = format!("node:{name}");
    let outcome = ctx.cached_resilient(&key, ctx.cfg.cache.node_overview, || load(ctx, &name));
    if outcome.body().is_some_and(|b| &*b.bytes == NOT_FOUND) {
        return Response::not_found(&format!("node {name} not found"));
    }
    super::respond(outcome)
}

/// Render `scontrol show node` text, parse it back, and encode the payload.
fn load(ctx: &DashboardContext, name: &str) -> Result<Vec<u8>, String> {
    ctx.note_source(FEATURE, "scontrol show node (slurmctld)");
    let text = show_node(&ctx.ctld, Some(name))?;
    if text.is_empty() {
        // A bad node name is data, not a backend failure: returning Ok
        // keeps retries, health errors, and the breaker out of 404s.
        return Ok(NOT_FOUND.to_vec());
    }
    let nodes = parse_show_node(&text).map_err(|e| format!("scontrol parse: {e}"))?;
    let n = nodes.first().ok_or("empty scontrol output")?;

    // Running-jobs tab: every job on this node (name/user/partition are
    // public queue data, as in squeue).
    ctx.note_source(FEATURE, "squeue (slurmctld)");
    let jobs = ctx.ctld.query_jobs(&JobQuery {
        node: Some(name.to_string()),
        ..JobQuery::default()
    });
    Ok(encode(&payload(n, &jobs)))
}

/// The payload: one node's cards, details tab and running jobs.
fn payload(n: &ScontrolNode<'_>, jobs: &[Arc<Job>]) -> serde_json::Value {
    let cpu_frac = if n.cpu_total > 0 {
        n.cpu_alloc as f64 / n.cpu_total as f64
    } else {
        0.0
    };
    let mem_frac = if n.real_memory_mb > 0 {
        n.alloc_memory_mb as f64 / n.real_memory_mb as f64
    } else {
        0.0
    };
    let gpu_usage = n.gres_used.and_then(parse_gres_count);
    let gpu_total = n.gres.and_then(parse_gres_count);

    json!({
        "status_card": {
            "name": n.name,
            "state": n.state.to_slurm(),
            "color": node_color(n.state),
            "last_busy": n.last_busy.map(|t| t.to_slurm()),
            "reason": n.reason,
        },
        "resource_card": {
            "cpu": {
                "alloc": n.cpu_alloc,
                "total": n.cpu_total,
                "percent": (cpu_frac * 1000.0).round() / 10.0,
                "color": utilization_color(cpu_frac),
            },
            "memory": {
                "alloc_mb": n.alloc_memory_mb,
                "total_mb": n.real_memory_mb,
                "percent": (mem_frac * 1000.0).round() / 10.0,
                "color": utilization_color(mem_frac),
            },
            "gpu": match (gpu_usage, gpu_total) {
                (Some(used), Some(total)) if total > 0 => {
                    let frac = used as f64 / total as f64;
                    json!({
                        "alloc": used,
                        "total": total,
                        "percent": (frac * 1000.0).round() / 10.0,
                        "color": utilization_color(frac),
                    })
                }
                _ => serde_json::Value::Null,
            },
        },
        // Details tab: the raw scontrol fields (paper: "pulled directly
        // from Slurm's scontrol show node command"), read out of the
        // record's text only here.
        "details": n.details(),
        "running_jobs": jobs
            .iter()
            .map(|j| json!({
                "id": j.display_id(),
                "name": j.req.name,
                "user": j.req.user,
                "partition": j.req.partition,
                "state": j.state.to_slurm(),
                "alloc_cpus": j.req.cpus_per_node,
                "alloc_mem_mb": j.req.mem_mb_per_node,
                "overview_url": format!("/jobs/{}", j.display_id()),
            }))
            .collect::<Vec<_>>(),
    })
}

/// Count trailing `:N` of a gres string like `gpu:a100:4`.
fn parse_gres_count(gres: &str) -> Option<u32> {
    gres.rsplit(':').next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::test_ctx;
    use hpcdash_http::Method;
    use hpcdash_slurm::job::JobRequest;

    fn request(node: &str) -> Request {
        let mut r = Request::new(Method::Get, &format!("/api/nodes/{node}"))
            .with_header("X-Remote-User", "alice");
        r.params.insert("name".to_string(), node.to_string());
        r
    }

    #[test]
    fn cards_details_and_running_jobs() {
        let ctx = test_ctx();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 8))
            .unwrap();
        ctx.ctld.tick();
        let resp = handle(&ctx, &request("a001"));
        assert_eq!(resp.status, 200, "{}", resp.body_string());
        let body = resp.body_json().unwrap();
        assert_eq!(body["status_card"]["name"], "a001");
        assert_eq!(body["status_card"]["state"], "MIXED");
        assert_eq!(body["resource_card"]["cpu"]["alloc"], 8);
        assert_eq!(body["resource_card"]["cpu"]["percent"], 50.0);
        assert!(
            body["details"]["CPUTot"].is_string(),
            "raw scontrol fields exposed"
        );
        let jobs = body["running_jobs"].as_array().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0]["user"], "alice");
    }

    #[test]
    fn unknown_node_is_404() {
        let ctx = test_ctx();
        assert_eq!(handle(&ctx, &request("zzz")).status, 404);
        // The marker is cached like any payload and recognised on the hit.
        let lookups = ctx.ctld.stats().count_of("scontrol_node");
        assert_eq!(lookups, 1);
        assert_eq!(handle(&ctx, &request("zzz")).status, 404);
        assert_eq!(ctx.ctld.stats().count_of("scontrol_node"), lookups);
    }

    #[test]
    fn gres_count_parser() {
        assert_eq!(parse_gres_count("gpu:a100:4"), Some(4));
        assert_eq!(parse_gres_count("gpu:2"), Some(2));
        assert_eq!(parse_gres_count("gpu"), None);
    }
}
