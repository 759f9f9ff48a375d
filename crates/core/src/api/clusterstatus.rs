//! Cluster Status API (paper §6): every node's state for the grid and list
//! views, from `scontrol show node`.

use crate::auth::CurrentUser;
use crate::colors::{node_color, utilization_color, ColorClass};
use crate::ctx::DashboardContext;
use hpcdash_http::{Request, Response, Router};
use hpcdash_slurmcli::{parse_show_node, show_node, ScontrolNode};
use serde::Serialize;

pub const FEATURE: &str = "Cluster Status";
pub const ROUTES: &[&str] = &["/api/clusterstatus"];
pub const SOURCES: &[&str] = &["scontrol show node (slurmctld)"];

pub fn register(router: &mut Router, ctx: DashboardContext) {
    router.get(ROUTES[0], move |req| handle(&ctx, req));
}

#[derive(Serialize)]
struct ClusterStatus {
    nodes: Vec<NodeRow>,
}

/// One node of the grid and list views; its strings are taken from the
/// `scontrol` record it describes.
#[derive(Serialize)]
struct NodeRow {
    name: String,
    state: &'static str,
    /// Grid-view cell colour (paper §6's legend).
    color: ColorClass,
    cpus_alloc: u32,
    cpus_total: u32,
    cpu_percent: f64,
    cpu_color: ColorClass,
    cpu_load: f64,
    mem_alloc_mb: u64,
    mem_total_mb: u64,
    mem_percent: f64,
    mem_color: ColorClass,
    partitions: Vec<String>,
    gres: Option<String>,
    gres_used: Option<String>,
    reason: Option<String>,
    overview_url: String,
}

impl From<ScontrolNode> for NodeRow {
    fn from(n: ScontrolNode) -> NodeRow {
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
        NodeRow {
            overview_url: format!("/nodes/{}", n.name),
            name: n.name,
            state: n.state.to_slurm(),
            color: node_color(n.state),
            cpus_alloc: n.cpu_alloc,
            cpus_total: n.cpu_total,
            cpu_percent: (cpu_frac * 1000.0).round() / 10.0,
            cpu_color: utilization_color(cpu_frac),
            cpu_load: n.cpu_load,
            mem_alloc_mb: n.alloc_memory_mb,
            mem_total_mb: n.real_memory_mb,
            mem_percent: (mem_frac * 1000.0).round() / 10.0,
            mem_color: utilization_color(mem_frac),
            partitions: n.partitions,
            gres: n.gres,
            gres_used: n.gres_used,
            reason: n.reason,
        }
    }
}

fn handle(ctx: &DashboardContext, req: &Request) -> Response {
    if let Err(resp) = CurrentUser::from_request(ctx, req) {
        return resp;
    }
    let outcome = ctx.cached_resilient("clusterstatus", ctx.cfg.cache.cluster_status, || {
        ctx.note_source(FEATURE, "scontrol show node (slurmctld)");
        let text = show_node(&ctx.ctld, None)?;
        let nodes = parse_show_node(&text).map_err(|e| format!("scontrol parse: {e}"))?;
        Ok(ClusterStatus {
            nodes: nodes.into_iter().map(NodeRow::from).collect(),
        })
    });
    super::respond(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::test_ctx;
    use hpcdash_http::Method;
    use hpcdash_slurm::job::JobRequest;
    use hpcdash_slurm::node::AdminFlag;

    fn request() -> Request {
        Request::new(Method::Get, "/api/clusterstatus").with_header("X-Remote-User", "alice")
    }

    #[test]
    fn reports_node_states_and_colors() {
        let ctx = test_ctx();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 8))
            .unwrap();
        ctx.ctld.tick();
        let resp = handle(&ctx, &request());
        assert_eq!(resp.status, 200);
        let nodes = resp.body_json().unwrap()["nodes"]
            .as_array()
            .unwrap()
            .to_vec();
        assert_eq!(nodes.len(), 1);
        let n = &nodes[0];
        assert_eq!(n["name"], "a001");
        assert_eq!(n["state"], "MIXED");
        assert_eq!(n["color"], "green");
        assert_eq!(n["cpus_alloc"], 8);
        assert_eq!(n["cpu_percent"], 50.0);
        assert_eq!(n["overview_url"], "/nodes/a001");
        assert_eq!(n["partitions"][0], "cpu");
    }

    #[test]
    fn drained_node_shows_reason_and_yellow() {
        let ctx = test_ctx();
        ctx.ctld
            .set_node_flag("a001", AdminFlag::Drain, Some("bad disk".to_string()));
        let resp = handle(&ctx, &request());
        let nodes = resp.body_json().unwrap()["nodes"]
            .as_array()
            .unwrap()
            .to_vec();
        assert_eq!(nodes[0]["state"], "DRAINED");
        assert_eq!(nodes[0]["color"], "yellow");
        assert_eq!(nodes[0]["reason"], "bad_disk");
    }
}
