//! Job Overview API (paper §7): a single job in depth — header, timeline,
//! overview cards, the interactive-session tab, output/error log tabs, and
//! the job-array tab.
//!
//! Live jobs come from `scontrol show job` (slurmctld); finished jobs fall
//! back to accounting (slurmdbd); logs come from the filesystem with
//! inherited permissions.

use crate::auth::CurrentUser;
use crate::colors::job_state_color;
use crate::ctx::DashboardContext;
use crate::efficiency::EfficiencyReport;
use crate::reasons::friendly_reason;
use hpcdash_http::{Request, Response, Router};
use hpcdash_simtime::format_duration;
use hpcdash_slurm::job::{Job, JobId};
use hpcdash_slurmcli::{parse_sacct, sacct, SacctArgs};
use serde_json::json;
use std::sync::Arc;

pub const FEATURE: &str = "Job Overview";
pub const ROUTES: &[&str] = &["/api/jobs/:id", "/api/jobs/:id/logs", "/api/jobs/:id/array"];
pub const SOURCES: &[&str] = &[
    "scontrol show job (slurmctld)",
    "sacct (slurmdbd)",
    "filesystem (job logs)",
    "telemetryd (metrics collector)",
];

pub fn register(router: &mut Router, ctx: DashboardContext) {
    let ctx_logs = ctx.clone();
    let ctx_array = ctx.clone();
    router.get(ROUTES[0], move |req| handle_overview(&ctx, req));
    router.get(ROUTES[1], move |req| handle_logs(&ctx_logs, req));
    router.get(ROUTES[2], move |req| handle_array(&ctx_array, req));
}

/// Resolve a display id (`1234` or `1234_7`) to a job record, looking in
/// live state first, then accounting.
fn resolve_job(ctx: &DashboardContext, display_id: &str) -> Option<Arc<Job>> {
    match display_id.split_once('_') {
        None => {
            let id = JobId(display_id.parse().ok()?);
            ctx.note_source(FEATURE, "scontrol show job (slurmctld)");
            if let Some(job) = ctx.ctld.query_job(id) {
                return Some(job);
            }
            ctx.note_source(FEATURE, "sacct (slurmdbd)");
            ctx.dbd.job(id)
        }
        Some((array_id, task)) => {
            let array_job_id = JobId(array_id.parse().ok()?);
            let task_id: u32 = task.parse().ok()?;
            ctx.note_source(FEATURE, "sacct (slurmdbd)");
            ctx.dbd
                .array_tasks(array_job_id)
                .into_iter()
                .find(|j| j.array.map(|a| a.task_id) == Some(task_id))
        }
    }
}

fn authorize(ctx: &DashboardContext, req: &Request) -> Result<(CurrentUser, Arc<Job>), Response> {
    let user = CurrentUser::from_request(ctx, req)?;
    let Some(id) = req.param("id") else {
        return Err(Response::bad_request("missing job id"));
    };
    let Some(job) = resolve_job(ctx, id) else {
        return Err(Response::not_found(&format!("job {id} not found")));
    };
    if !user.may_view_job_of(&job.req.user, &job.req.account, ctx) {
        return Err(Response::forbidden("this job belongs to another group"));
    }
    Ok((user, job))
}

/// The overview rebuilds from backends on every miss, so it is cached per
/// viewer and path, and a new scheduler epoch outdates it.
fn handle_overview(ctx: &DashboardContext, req: &Request) -> Response {
    let ttl = ctx.cfg.cache.job_overview;
    let epoch = ctx.ctld.snapshot().seq;
    super::per_viewer(ctx, req, "job_overview", ttl, epoch, || {
        let (_user, job) = authorize(ctx, req)?;
        Ok((overview_payload(ctx, &job), true))
    })
}

fn overview_payload(ctx: &DashboardContext, job: &Job) -> serde_json::Value {
    let now = ctx.now();
    let gpu_flag = ctx.cfg.features.gpu_efficiency;

    // Efficiency via the accounting record (has TotalCPU/MaxRSS), with the
    // GPU column measured from the collector's series when one exists.
    let efficiency = {
        ctx.note_source(FEATURE, "sacct (slurmdbd)");
        let text = sacct(
            &ctx.dbd,
            &SacctArgs {
                job_ids: Some(vec![job.id]),
                ..SacctArgs::default()
            },
            now,
        )
        // Efficiency is a bonus column: if accounting is down the overview
        // still renders, just without it.
        .unwrap_or_default();
        let collector_gpu = if gpu_flag {
            crate::api::jobtelemetry::collector_gpu_mean(ctx, job)
        } else {
            None
        };
        parse_sacct(&text)
            .ok()
            .and_then(|records| records.into_iter().next())
            .map(|rec| EfficiencyReport::from_record_with_gpu(&rec, gpu_flag, collector_gpu))
    };
    // Sparkline series for the telemetry card.
    let telemetry = crate::api::jobtelemetry::job_series_payload(ctx, FEATURE, job);

    let elapsed = job.elapsed_secs(now);
    let session = job.req.comment.as_deref().and_then(parse_ood_session);
    json!({
        "header": {
            "id": job.display_id(),
            "name": job.req.name,
            "state": job.state.to_slurm(),
            "state_color": job_state_color(job.state),
            "reason": job.reason.map(|r| r.to_slurm()),
            "reason_message": job.reason.map(friendly_reason),
        },
        "timeline": {
            "submitted": job.submit_time.to_slurm(),
            "eligible": job.eligible_time.to_slurm(),
            "started": job.start_time.map(|t| t.to_slurm()),
            "ended": job.end_time.map(|t| t.to_slurm()),
        },
        "cards": {
            "job_information": {
                "name": job.req.name,
                "user": job.req.user,
                "account": job.req.account,
                "partition": job.req.partition,
                "qos": job.req.qos,
            },
            "resources": {
                "cpus": job.alloc_cpus(),
                "nodes": job.req.nodes,
                "mem_mb_per_node": job.req.mem_mb_per_node,
                "gpus": job.req.gpus_per_node * job.req.nodes,
                "node_links": job.nodes.iter().map(|n| json!({
                    "name": n,
                    "overview_url": format!("/nodes/{n}"),
                })).collect::<Vec<_>>(),
            },
            "time": {
                "elapsed": format_duration(elapsed),
                "elapsed_secs": elapsed,
                "limit": job.req.time_limit.to_slurm(),
                "remaining_secs": job.remaining_secs(now),
                "cpu_time_secs": job.stats.map(|s| s.total_cpu_secs),
            },
            "efficiency": efficiency,
        },
        "telemetry": telemetry,
        "session": session,
        "has_array": job.array.is_some(),
        "array_url": job.array.map(|a| format!("/api/jobs/{}/array", a.array_job_id)),
        "logs": {
            "stdout_url": format!("/api/jobs/{}/logs?stream=out", job.display_id()),
            "stderr_url": format!("/api/jobs/{}/logs?stream=err", job.display_id()),
        },
        "exit_code": job.exit_code.map(|(c, s)| format!("{c}:{s}")),
    })
}

/// The session tab payload parsed from the OOD comment
/// (`ood:<app>:<session_id>:<workdir>`).
fn parse_ood_session(comment: &str) -> Option<serde_json::Value> {
    let rest = comment.strip_prefix("ood:")?;
    let mut parts = rest.splitn(3, ':');
    let app = parts.next()?;
    let session_id = parts.next()?;
    let workdir = parts.next()?;
    Some(json!({
        "app": app,
        "session_id": session_id,
        "workdir": workdir,
        "workdir_url": format!("/pun/sys/files/fs{workdir}"),
        "relaunch_url": format!("/pun/sys/dashboard/batch_connect/sys/{app}/session_contexts/new"),
    }))
}

fn handle_logs(ctx: &DashboardContext, req: &Request) -> Response {
    let (user, job) = match authorize(ctx, req) {
        Ok(x) => x,
        Err(resp) => return resp,
    };
    let stream = req.query_param("stream").unwrap_or("out");
    let path = match stream {
        "out" => &job.stdout_path,
        "err" => &job.stderr_path,
        _ => return Response::bad_request("stream must be 'out' or 'err'"),
    };
    ctx.note_source(FEATURE, "filesystem (job logs)");
    // Log access inherits filesystem ownership: group visibility is NOT
    // enough here (paper §2.4: only the submitting user reads logs).
    match ctx.logs.tail_default(path, &user.username) {
        Ok(tail) => Response::json(&json!({
            "path": tail.path,
            "total_lines": tail.total_lines,
            "truncated": tail.truncated,
            "lines": tail.lines,
            "full_file_url": format!("/pun/sys/files/fs{}", tail.path),
        })),
        Err(hpcdash_slurm::joblog::LogError::PermissionDenied { .. }) => {
            Response::forbidden("log files are only viewable by the job owner")
        }
        Err(hpcdash_slurm::joblog::LogError::NotFound(_)) => Response::json(&json!({
            "path": path,
            "total_lines": 0,
            "truncated": false,
            "lines": [],
            "note": "no output yet",
        })),
    }
}

fn handle_array(ctx: &DashboardContext, req: &Request) -> Response {
    let (_user, job) = match authorize(ctx, req) {
        Ok(x) => x,
        Err(resp) => return resp,
    };
    let Some(array) = job.array else {
        return Response::not_found("job is not part of an array");
    };
    ctx.note_source(FEATURE, "sacct (slurmdbd)");
    let tasks = ctx.dbd.array_tasks(array.array_job_id);
    Response::json(&json!({
        "array_job_id": array.array_job_id.to_string(),
        "tasks": tasks
            .iter()
            .map(|t| json!({
                "id": t.display_id(),
                "task_id": t.array.map(|a| a.task_id),
                "state": t.state.to_slurm(),
                "state_color": job_state_color(t.state),
                "submitted": t.submit_time.to_slurm(),
                "started": t.start_time.map(|x| x.to_slurm()),
                "ended": t.end_time.map(|x| x.to_slurm()),
                "nodelist": t.nodes.join(","),
                "overview_url": format!("/jobs/{}", t.display_id()),
            }))
            .collect::<Vec<_>>(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::test_ctx;
    use hpcdash_http::Method;
    use hpcdash_slurm::job::{ArraySpec, JobRequest, UsageProfile};

    fn request(path: &str, id: &str, user: &str) -> Request {
        let mut r = Request::new(Method::Get, path).with_header("X-Remote-User", user);
        r.params.insert("id".to_string(), id.to_string());
        r
    }

    fn submit_ood_job(ctx: &crate::ctx::DashboardContext) -> String {
        let mut req = JobRequest::simple("alice", "physics", "cpu", 4);
        req.comment = Some("ood:jupyter:sess9:/home/alice/ondemand/output/sess9".to_string());
        req.usage = UsageProfile::interactive(600);
        let ids = ctx.ctld.submit(req).unwrap();
        ctx.ctld.tick();
        ids[0].to_string()
    }

    #[test]
    fn overview_has_header_timeline_cards_session() {
        let ctx = test_ctx();
        let id = submit_ood_job(&ctx);
        let resp = handle_overview(&ctx, &request(&format!("/api/jobs/{id}"), &id, "alice"));
        assert_eq!(resp.status, 200, "{}", resp.body_string());
        let body = resp.body_json().unwrap();
        assert_eq!(body["header"]["state"], "RUNNING");
        assert_eq!(body["header"]["state_color"], "green");
        assert!(body["timeline"]["started"].is_string());
        assert!(body["timeline"]["ended"].is_null());
        assert_eq!(body["cards"]["resources"]["cpus"], 4);
        assert_eq!(body["cards"]["job_information"]["account"], "physics");
        assert_eq!(body["session"]["app"], "jupyter");
        assert_eq!(body["session"]["session_id"], "sess9");
        assert!(body["session"]["workdir_url"]
            .as_str()
            .unwrap()
            .contains("/files/fs/home/alice"));
        assert_eq!(body["has_array"], false);
        assert!(body["cards"]["time"]["remaining_secs"].is_u64());
        assert!(
            body["telemetry"]["cpu"].is_array(),
            "running job carries a telemetry block: {}",
            body["telemetry"]
        );
    }

    #[test]
    fn group_member_may_view_but_not_read_logs() {
        let ctx = test_ctx();
        // bob joins physics so he can see alice's job overview.
        // (test_ctx has only alice; use admin-less group check via dbd path.)
        let id = submit_ood_job(&ctx);
        // mallory (no shared account) is forbidden entirely.
        let resp = handle_overview(&ctx, &request(&format!("/api/jobs/{id}"), &id, "mallory"));
        assert_eq!(resp.status, 403);
        // alice reads her own logs.
        let resp = handle_logs(
            &ctx,
            &request(&format!("/api/jobs/{id}/logs?stream=out"), &id, "alice"),
        );
        assert_eq!(resp.status, 200);
        let body = resp.body_json().unwrap();
        assert!(!body["lines"].as_array().unwrap().is_empty());
    }

    #[test]
    fn missing_job_is_404_and_bad_stream_400() {
        let ctx = test_ctx();
        let resp = handle_overview(&ctx, &request("/api/jobs/999", "999", "alice"));
        assert_eq!(resp.status, 404);
        let id = submit_ood_job(&ctx);
        let resp = handle_logs(
            &ctx,
            &request(&format!("/api/jobs/{id}/logs?stream=both"), &id, "alice"),
        );
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn array_tab_lists_tasks() {
        let ctx = test_ctx();
        let mut req = JobRequest::simple("alice", "physics", "cpu", 1);
        req.array = Some(ArraySpec {
            first: 0,
            last: 3,
            max_concurrent: None,
        });
        let ids = ctx.ctld.submit(req).unwrap();
        ctx.ctld.tick();
        let first = ids[0].to_string();
        let resp = handle_array(
            &ctx,
            &request(&format!("/api/jobs/{first}/array"), &first, "alice"),
        );
        assert_eq!(resp.status, 200, "{}", resp.body_string());
        let tasks = resp.body_json().unwrap()["tasks"]
            .as_array()
            .unwrap()
            .to_vec();
        assert_eq!(tasks.len(), 4);
        assert_eq!(tasks[0]["id"], format!("{first}_0"));
        // Non-array job 404s on the array tab.
        let plain = submit_ood_job(&ctx);
        let resp = handle_array(
            &ctx,
            &request(&format!("/api/jobs/{plain}/array"), &plain, "alice"),
        );
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn array_task_display_id_resolves() {
        let ctx = test_ctx();
        let mut req = JobRequest::simple("alice", "physics", "cpu", 1);
        req.array = Some(ArraySpec {
            first: 0,
            last: 2,
            max_concurrent: None,
        });
        let ids = ctx.ctld.submit(req).unwrap();
        ctx.ctld.tick();
        let task1 = format!("{}_1", ids[0]);
        let resp = handle_overview(
            &ctx,
            &request(&format!("/api/jobs/{task1}"), &task1, "alice"),
        );
        assert_eq!(resp.status, 200, "{}", resp.body_string());
        assert_eq!(resp.body_json().unwrap()["header"]["id"], task1);
    }

    #[test]
    fn ood_session_parser() {
        let s = parse_ood_session("ood:rstudio:abc:/home/u/dir").unwrap();
        assert_eq!(s["app"], "rstudio");
        assert_eq!(s["session_id"], "abc");
        assert_eq!(s["workdir"], "/home/u/dir");
        assert!(parse_ood_session("not-ood").is_none());
        assert!(parse_ood_session("ood:app").is_none());
    }
}
