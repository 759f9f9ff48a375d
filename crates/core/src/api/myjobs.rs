//! My Jobs API (paper §4): the full job-history table (every state, not
//! just queued), efficiency columns and warnings, friendly pending reasons,
//! and the two distribution charts.
//!
//! Data sources: `sacct` against slurmdbd for history + usage, and one
//! `squeue -t PENDING` against slurmctld to attach live pending reasons.

use crate::api::{encode, Link, Text};
use crate::auth::CurrentUser;
use crate::charts::{GpuHours, PerUser, StateDistribution};
use crate::colors::{job_state_color, ColorClass};
use crate::ctx::DashboardContext;
use crate::efficiency::EfficiencyReport;
use crate::metrics::TimeRange;
use crate::reasons::friendly_reason;
use hpcdash_http::{Request, Response, Router};
use hpcdash_simtime::{TimeLimit, Timestamp};
use hpcdash_slurm::job::{JobState, PendingReason};
use hpcdash_slurmcli::{
    parse_sacct, parse_squeue_long, sacct, squeue_long_in, SacctArgs, SqueueArgs,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

pub const FEATURE: &str = "My Jobs";
pub const ROUTES: &[&str] = &["/api/myjobs"];
pub const SOURCES: &[&str] = &["sacct (slurmdbd)", "squeue (slurmctld)"];

pub fn register(router: &mut Router, ctx: DashboardContext) {
    router.get(ROUTES[0], move |req| handle(&ctx, req));
}

/// The `/api/myjobs` payload.
#[derive(Debug, Serialize, Deserialize)]
pub struct MyJobs {
    pub range: String,
    pub jobs: Vec<JobRow>,
    pub charts: Charts,
}

/// The two distribution charts over the table's jobs.
#[derive(Debug, Serialize, Deserialize)]
pub struct Charts {
    pub state_distribution: StateDistribution,
    pub gpu_hours: GpuHours,
}

/// One row of the history table.
#[derive(Debug, Serialize, Deserialize)]
pub struct JobRow {
    pub id: String,
    pub name: String,
    pub user: String,
    pub account: String,
    pub partition: String,
    pub qos: String,
    pub state: String,
    pub state_color: String,
    pub submit: Option<String>,
    pub start: Option<String>,
    pub end: Option<String>,
    pub wait_secs: Option<u64>,
    pub elapsed_secs: u64,
    pub timelimit: String,
    pub alloc_cpus: u32,
    pub alloc_nodes: u32,
    pub req_mem_mb: u64,
    pub gpu_hours: f64,
    pub nodelist: String,
    pub exit_code: String,
    pub session_id: Option<String>,
    pub efficiency: EfficiencyReport,
    /// Set for a pending job.
    pub reason: Option<Reason>,
    pub overview_url: String,
}

/// Why a pending job waits: Slurm's token and the sentence shown for it.
#[derive(Debug, Serialize, Deserialize)]
pub struct Reason {
    pub code: String,
    pub message: String,
}

/// [`MyJobs`] as encoded: its rows borrow every string from the `sacct`
/// records they describe, which borrow from the command text; the loader
/// encodes it while that text is alive.
#[derive(Serialize)]
struct MyJobsRef<'t> {
    range: String,
    jobs: Vec<JobRowRef<'t>>,
    charts: Charts,
}

#[derive(Serialize)]
struct JobRowRef<'t> {
    id: &'t str,
    name: &'t str,
    user: &'t str,
    account: &'t str,
    partition: &'t str,
    qos: &'t str,
    state: &'static str,
    state_color: ColorClass,
    submit: Option<Text<Timestamp>>,
    start: Option<Text<Timestamp>>,
    end: Option<Text<Timestamp>>,
    wait_secs: Option<u64>,
    elapsed_secs: u64,
    timelimit: Text<TimeLimit>,
    alloc_cpus: u32,
    alloc_nodes: u32,
    req_mem_mb: u64,
    gpu_hours: f64,
    nodelist: &'t str,
    exit_code: &'t str,
    session_id: Option<&'t str>,
    efficiency: EfficiencyReport,
    reason: Option<ReasonRef>,
    overview_url: Text<Link<'t>>,
}

#[derive(Serialize)]
struct ReasonRef {
    code: &'static str,
    message: &'static str,
}

fn handle(ctx: &DashboardContext, req: &Request) -> Response {
    let user = match CurrentUser::from_request(ctx, req) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let Some(range) = TimeRange::from_query(
        req.query_param("range"),
        req.query_param("start"),
        req.query_param("end"),
    ) else {
        return Response::bad_request("invalid range");
    };
    // Optional state filter (clicking a chart segment filters the table).
    let state_filter = match req.query_param("state") {
        None => None,
        Some(s) => match JobState::parse(s) {
            Some(st) => Some(st),
            None => return Response::bad_request("invalid state filter"),
        },
    };
    // The "better filtering methods" of paper §4: narrow by partition, QoS,
    // or a specific group member (within the visibility set).
    let partition_filter = req.query_param("partition").map(str::to_string);
    let qos_filter = req.query_param("qos").map(str::to_string);
    let member_filter = req.query_param("user").map(str::to_string);
    let gpu_flag = ctx.cfg.features.gpu_efficiency;
    // Keyed on the range *selector*: a window relative to `now` would make
    // a new key every simulated second and the TTL would never hit.
    let key = format!(
        "myjobs:{}:{:?}:{:?}:{:?}:{:?}:{:?}",
        user.username, range, state_filter, partition_filter, qos_filter, member_filter,
    );
    let outcome = ctx.cached_resilient(&key, ctx.cfg.cache.myjobs, || {
        let accounts = user.visible_accounts(ctx);

        ctx.note_source(FEATURE, "sacct (slurmdbd)");
        let now = ctx.now();
        let (since, until) = range.window(now);
        let text = sacct(
            &ctx.dbd,
            &SacctArgs {
                user: Some(user.username.clone()),
                accounts: accounts.clone(),
                states: state_filter.map(|s| vec![s]),
                since,
                until,
                job_ids: None,
            },
            now,
        )?;
        let mut records = parse_sacct(&text).map_err(|e| format!("sacct parse: {e}"))?;
        if let Some(p) = &partition_filter {
            records.retain(|r| r.partition == p);
        }
        if let Some(q) = &qos_filter {
            records.retain(|r| r.qos == q);
        }
        if let Some(m) = &member_filter {
            records.retain(|r| r.user == m);
        }

        // Live reasons for pending jobs come from `squeue -t PENDING`: only
        // a pending job has one.
        ctx.note_source(FEATURE, "squeue (slurmctld)");
        let qtext = squeue_long_in(
            &ctx.ctld,
            &SqueueArgs {
                user: Some(user.username.clone()),
                accounts,
                partition: None,
            },
            JobState::Pending,
        )?;
        let qrows = parse_squeue_long(&qtext).map_err(|e| format!("squeue parse: {e}"))?;
        let reasons: HashMap<&str, PendingReason> = qrows
            .iter()
            .filter_map(|r| r.reason().map(|x| (r.job_id, x)))
            .collect();

        let jobs = records
            .iter()
            .map(|rec| {
                let wait = rec.wait_secs().or_else(|| {
                    rec.submit
                        .map(|s| now.since(s))
                        .filter(|_| rec.state == JobState::Pending)
                });
                JobRowRef {
                    id: rec.job_id,
                    name: rec.job_name,
                    user: rec.user,
                    account: rec.account,
                    partition: rec.partition,
                    qos: rec.qos,
                    state: rec.state.to_slurm(),
                    state_color: job_state_color(rec.state),
                    submit: rec.submit.map(Text),
                    start: rec.start.map(Text),
                    end: rec.end.map(Text),
                    wait_secs: wait,
                    elapsed_secs: rec.elapsed_secs,
                    timelimit: Text(rec.timelimit),
                    alloc_cpus: rec.alloc_cpus,
                    alloc_nodes: rec.alloc_nodes,
                    req_mem_mb: rec.req_mem_mb,
                    gpu_hours: (rec.gpu_hours() * 100.0).round() / 100.0,
                    nodelist: rec.nodelist,
                    exit_code: rec.exit_code,
                    session_id: parse_session_id(rec.comment),
                    efficiency: EfficiencyReport::from_record(rec, gpu_flag),
                    reason: reasons.get(rec.job_id).map(|&r| ReasonRef {
                        code: r.to_slurm(),
                        message: friendly_reason(r),
                    }),
                    overview_url: Text(Link("/jobs/", rec.job_id)),
                }
            })
            .collect();
        let per_user = PerUser::of(&records);
        Ok(encode(&MyJobsRef {
            range: range.label(),
            jobs,
            charts: Charts {
                state_distribution: per_user.state_distribution(),
                gpu_hours: per_user.gpu_hours(),
            },
        }))
    });
    super::respond(outcome)
}

/// Extract the Open OnDemand session id from a job comment.
fn parse_session_id(comment: &str) -> Option<&str> {
    let mut parts = comment.strip_prefix("ood:")?.split(':');
    let _app = parts.next()?;
    parts.next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::test_ctx;
    use hpcdash_http::Method;
    use hpcdash_slurm::job::{JobRequest, PlannedOutcome, UsageProfile};

    fn request(path: &str, user: &str) -> Request {
        Request::new(Method::Get, path).with_header("X-Remote-User", user)
    }

    fn submit_and_tick(ctx: &crate::ctx::DashboardContext) {
        // A wasteful completed job, a failed one, and a pending one.
        let mut wasteful = JobRequest::simple("alice", "physics", "cpu", 8);
        wasteful.usage = UsageProfile {
            cpu_util: 0.05,
            mem_util: 0.05,
            gpu_util: 0.0,
            planned_runtime_secs: 600,
            outcome: PlannedOutcome::Success,
        };
        wasteful.comment = Some("ood:jupyter:sess42:/home/alice/ondemand".to_string());
        ctx.ctld.submit(wasteful).unwrap();
        let mut failing = JobRequest::simple("alice", "physics", "cpu", 4);
        failing.usage.outcome = PlannedOutcome::Fail { exit_code: 2 };
        failing.usage.planned_runtime_secs = 500;
        ctx.ctld.submit(failing).unwrap();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 16))
            .unwrap();
        ctx.ctld.tick();
    }

    #[test]
    fn table_includes_all_states_and_efficiency() {
        let ctx = test_ctx();
        submit_and_tick(&ctx);
        let resp = handle(&ctx, &request("/api/myjobs?range=all", "alice"));
        assert_eq!(resp.status, 200, "{}", resp.body_string());
        let body = resp.body_json().unwrap();
        let jobs = body["jobs"].as_array().unwrap();
        assert_eq!(jobs.len(), 3);
        let states: Vec<&str> = jobs.iter().map(|j| j["state"].as_str().unwrap()).collect();
        assert!(states.contains(&"RUNNING"));
        assert!(states.contains(&"PENDING"));
        let pending = jobs.iter().find(|j| j["state"] == "PENDING").unwrap();
        assert!(pending["reason"]["message"]
            .as_str()
            .unwrap()
            .starts_with("It means"));
        assert!(pending["wait_secs"].is_u64());
        let session = jobs.iter().find(|j| j["session_id"] == "sess42");
        assert!(session.is_some(), "OOD session id parsed from comment");
        // Charts present.
        assert!(body["charts"]["state_distribution"]["labels"].is_array());
        assert!(body["charts"]["gpu_hours"]["labels"].is_array());
    }

    #[test]
    fn state_filter_narrows_table() {
        let ctx = test_ctx();
        submit_and_tick(&ctx);
        let resp = handle(
            &ctx,
            &request("/api/myjobs?range=all&state=PENDING", "alice"),
        );
        let jobs = resp.body_json().unwrap()["jobs"]
            .as_array()
            .unwrap()
            .to_vec();
        assert!(!jobs.is_empty());
        assert!(jobs.iter().all(|j| j["state"] == "PENDING"));
        assert_eq!(
            handle(&ctx, &request("/api/myjobs?range=all&state=BOGUS", "alice")).status,
            400
        );
    }

    #[test]
    fn partition_qos_and_member_filters() {
        let ctx = test_ctx();
        submit_and_tick(&ctx);
        let all = handle(&ctx, &request("/api/myjobs?range=all", "alice"));
        let total = all.body_json().unwrap()["jobs"].as_array().unwrap().len();
        assert!(total >= 3);

        let cpu_only = handle(
            &ctx,
            &request("/api/myjobs?range=all&partition=cpu", "alice"),
        );
        assert_eq!(
            cpu_only.body_json().unwrap()["jobs"]
                .as_array()
                .unwrap()
                .len(),
            total,
            "every job is on the cpu partition here"
        );
        let gpu_only = handle(
            &ctx,
            &request("/api/myjobs?range=all&partition=gpu", "alice"),
        );
        assert_eq!(
            gpu_only.body_json().unwrap()["jobs"]
                .as_array()
                .unwrap()
                .len(),
            0
        );

        let normal = handle(&ctx, &request("/api/myjobs?range=all&qos=normal", "alice"));
        assert_eq!(
            normal.body_json().unwrap()["jobs"]
                .as_array()
                .unwrap()
                .len(),
            total
        );
        let high = handle(&ctx, &request("/api/myjobs?range=all&qos=high", "alice"));
        assert_eq!(
            high.body_json().unwrap()["jobs"].as_array().unwrap().len(),
            0
        );

        let mine = handle(&ctx, &request("/api/myjobs?range=all&user=alice", "alice"));
        assert_eq!(
            mine.body_json().unwrap()["jobs"].as_array().unwrap().len(),
            total
        );
        let theirs = handle(&ctx, &request("/api/myjobs?range=all&user=bob", "alice"));
        assert_eq!(
            theirs.body_json().unwrap()["jobs"]
                .as_array()
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn relative_ranges_hit_inside_the_ttl_and_do_not_grow_the_cache() {
        let (ctx, clock) = crate::ctx::tests::test_ctx_clocked();
        submit_and_tick(&ctx);
        let req = request("/api/myjobs?range=7d", "alice");
        let hits = ctx
            .obs
            .counter("hpcdash_cache_hits_total", &[("source", "myjobs")]);
        let fill = handle(&ctx, &req);
        assert_eq!((fill.status, hits.get()), (200, 0));
        // 30 s later the 7-day window has moved, the selector has not.
        clock.advance(30);
        let hit = handle(&ctx, &req);
        assert_eq!(hits.get(), 1, "inside the 120 s TTL the entry is reused");
        assert_eq!(hit.body, fill.body);

        // Fifty scheduler ticks: entries are refilled in place, never added.
        let metrics = request("/api/jobmetrics?range=24h", "alice");
        let mut metrics_router = Router::new();
        crate::api::jobmetrics::register(&mut metrics_router, ctx.clone());
        assert_eq!(metrics_router.handle(&metrics).status, 200);
        let entries = ctx.cache.cache().len();
        for _ in 0..50 {
            clock.advance(30);
            ctx.ctld.tick();
            assert_eq!(handle(&ctx, &req).status, 200);
            assert_eq!(metrics_router.handle(&metrics).status, 200);
        }
        assert_eq!(ctx.cache.cache().len(), entries, "one entry per selector");
        assert!(hits.get() > 1 + 25, "and most of those ticks were hits");
    }

    #[test]
    fn invalid_range_rejected() {
        let ctx = test_ctx();
        assert_eq!(
            handle(&ctx, &request("/api/myjobs?range=century", "alice")).status,
            400
        );
    }

    #[test]
    fn privacy_limits_to_group() {
        let ctx = test_ctx();
        submit_and_tick(&ctx);
        let resp = handle(&ctx, &request("/api/myjobs?range=all", "mallory"));
        assert_eq!(
            resp.body_json().unwrap()["jobs"].as_array().unwrap().len(),
            0
        );
    }
}
