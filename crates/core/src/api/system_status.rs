//! System Status widget API (paper §3.3): per-partition utilization with
//! the 70/90% colour thresholds, from `sinfo`.

use crate::api::encode;
use crate::auth::CurrentUser;
use crate::colors::utilization_color;
use crate::ctx::DashboardContext;
use hpcdash_http::{Request, Response, Router};
use hpcdash_slurmcli::{parse_sinfo_usage, sinfo_usage};
use serde::{Deserialize, Serialize};

pub const FEATURE: &str = "System Status widget";
pub const ROUTES: &[&str] = &["/api/system_status"];
pub const SOURCES: &[&str] = &["sinfo (slurmctld)"];

/// The `/api/system_status` payload.
#[derive(Debug, Serialize, Deserialize)]
pub struct SystemStatus {
    pub partitions: Vec<Partition>,
    pub details_url: String,
}

/// One partition's utilization.
#[derive(Debug, Serialize, Deserialize)]
pub struct Partition {
    pub name: String,
    pub status: String,
    pub cpus: Cpus,
    /// `None` for a partition without GPUs.
    pub gpus: Option<Gpus>,
    pub nodes: Nodes,
}

#[derive(Debug, Serialize, Deserialize)]
pub struct Cpus {
    pub alloc: u32,
    pub idle: u32,
    /// CPUs on nodes that are down, drained or in maintenance.
    pub other: u32,
    pub total: u32,
    pub percent: f64,
    pub color: String,
}

#[derive(Debug, Serialize, Deserialize)]
pub struct Gpus {
    pub alloc: u32,
    pub total: u32,
    pub percent: f64,
    pub color: String,
}

#[derive(Debug, Serialize, Deserialize)]
pub struct Nodes {
    pub in_use: u32,
    pub total: u32,
}

pub fn register(router: &mut Router, ctx: DashboardContext) {
    router.get(ROUTES[0], move |req| handle(&ctx, req));
}

fn handle(ctx: &DashboardContext, req: &Request) -> Response {
    if let Err(resp) = CurrentUser::from_request(ctx, req) {
        return resp;
    }
    let outcome = ctx.cached_resilient("system_status", ctx.cfg.cache.system_status, || {
        ctx.note_source(FEATURE, "sinfo (slurmctld)");
        let text = sinfo_usage(&ctx.ctld)?;
        let rows = parse_sinfo_usage(&text).map_err(|e| format!("sinfo parse: {e}"))?;
        let partitions = rows
            .into_iter()
            .map(|p| {
                let cpu_frac = p.cpu_utilization();
                let gpu_frac = p.gpu_utilization();
                Partition {
                    status: p.avail.to_uppercase(),
                    cpus: Cpus {
                        alloc: p.cpus_alloc,
                        idle: p.cpus_idle,
                        other: p.cpus_other,
                        total: p.cpus_total,
                        percent: (cpu_frac * 1000.0).round() / 10.0,
                        color: utilization_color(cpu_frac).to_string(),
                    },
                    gpus: (p.gpus_total > 0).then(|| Gpus {
                        alloc: p.gpus_alloc,
                        total: p.gpus_total,
                        percent: (gpu_frac * 1000.0).round() / 10.0,
                        color: utilization_color(gpu_frac).to_string(),
                    }),
                    nodes: Nodes {
                        in_use: p.nodes_in_use,
                        total: p.nodes_total,
                    },
                    name: p.partition,
                }
            })
            .collect();
        Ok(encode(&SystemStatus {
            partitions,
            details_url: "/clusterstatus".to_string(),
        }))
    });
    super::respond(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::test_ctx;
    use hpcdash_http::Method;
    use hpcdash_slurm::job::JobRequest;

    fn request() -> Request {
        Request::new(Method::Get, "/api/system_status").with_header("X-Remote-User", "alice")
    }

    #[test]
    fn reports_partition_utilization() {
        let ctx = test_ctx();
        // Fill 16/16 CPUs -> red.
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 16))
            .unwrap();
        ctx.ctld.tick();
        let resp = handle(&ctx, &request());
        assert_eq!(resp.status, 200);
        let parts = resp.body_json().unwrap()["partitions"]
            .as_array()
            .unwrap()
            .to_vec();
        assert_eq!(parts.len(), 1);
        let cpu = &parts[0];
        assert_eq!(cpu["name"], "cpu");
        assert_eq!(cpu["status"], "UP");
        assert_eq!(cpu["cpus"]["alloc"], 16);
        assert_eq!(cpu["cpus"]["percent"], 100.0);
        assert_eq!(cpu["cpus"]["color"], "red");
        assert!(cpu["gpus"].is_null(), "no GPUs in this partition");
        assert_eq!(cpu["nodes"]["in_use"], 1);
    }

    #[test]
    fn idle_cluster_is_green() {
        let ctx = test_ctx();
        let resp = handle(&ctx, &request());
        let parts = resp.body_json().unwrap()["partitions"]
            .as_array()
            .unwrap()
            .to_vec();
        assert_eq!(parts[0]["cpus"]["color"], "green");
        assert_eq!(parts[0]["cpus"]["percent"], 0.0);
    }

    #[test]
    fn shared_cache_across_users() {
        let ctx = test_ctx();
        handle(&ctx, &request());
        let other =
            Request::new(Method::Get, "/api/system_status").with_header("X-Remote-User", "bob");
        handle(&ctx, &other);
        assert_eq!(
            ctx.ctld.stats().count_of("sinfo"),
            1,
            "system-wide data cached once for all users"
        );
    }
}
