//! The **baseline**: Open OnDemand's stock Active Jobs app, which the
//! paper's My Jobs replaces (§4: "show more information than what is
//! available in the original Open OnDemand Active Jobs app, more job types
//! than just queued jobs, and better filtering").
//!
//! This implementation intentionally has the baseline's limits: only
//! active (queued/running) jobs from `squeue`, a basic column set, no
//! efficiency data, no friendly reasons, no charts. Benches and tests
//! compare it against My Jobs to quantify the paper's improvement claims.

use crate::api::encode;
use crate::auth::CurrentUser;
use crate::colors::job_state_color;
use crate::ctx::DashboardContext;
use hpcdash_http::{Request, Response, Router};
use hpcdash_slurmcli::{parse_squeue, squeue, SqueueArgs};
use serde::{Deserialize, Serialize};

pub const FEATURE: &str = "Active Jobs (OOD baseline)";
pub const ROUTES: &[&str] = &["/api/activejobs"];
pub const SOURCES: &[&str] = &["squeue (slurmctld)"];

/// The `/api/activejobs` payload: the baseline's basic columns only.
#[derive(Debug, Serialize, Deserialize)]
pub struct ActiveJobs {
    pub jobs: Vec<ActiveJob>,
}

#[derive(Debug, Serialize, Deserialize)]
pub struct ActiveJob {
    pub id: String,
    pub name: String,
    pub user: String,
    pub partition: String,
    pub state: String,
    pub state_color: String,
    pub elapsed_secs: u64,
    pub nodes: u32,
    /// The baseline shows the raw reason token only.
    pub nodelist_or_reason: String,
}

pub fn register(router: &mut Router, ctx: DashboardContext) {
    router.get(ROUTES[0], move |req| handle(&ctx, req));
}

fn handle(ctx: &DashboardContext, req: &Request) -> Response {
    let user = match CurrentUser::from_request(ctx, req) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let key = format!("activejobs:{}", user.username);
    let outcome = ctx.cached_resilient(&key, ctx.cfg.cache.recent_jobs, || {
        load(ctx, &user.username).map(|payload| encode(&payload))
    });
    super::respond(outcome)
}

/// Render squeue text and parse it back (the command→text→parse boundary
/// the paper's backend uses).
fn load(ctx: &DashboardContext, username: &str) -> Result<ActiveJobs, String> {
    ctx.note_source(FEATURE, "squeue (slurmctld)");
    let text = squeue(
        &ctx.ctld,
        &SqueueArgs {
            user: Some(username.to_string()),
            ..SqueueArgs::default()
        },
    )?;
    let rows = parse_squeue(&text).map_err(|e| format!("squeue parse: {e}"))?;
    Ok(ActiveJobs {
        jobs: rows
            .into_iter()
            .map(|r| ActiveJob {
                id: r.job_id,
                name: r.name,
                user: r.user,
                partition: r.partition,
                state: r.state.to_slurm().to_string(),
                state_color: job_state_color(r.state).to_string(),
                elapsed_secs: r.time_secs,
                nodes: r.nodes,
                nodelist_or_reason: r.nodelist_or_reason,
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::test_ctx;
    use hpcdash_http::Method;
    use hpcdash_slurm::job::{JobRequest, PlannedOutcome, UsageProfile};

    fn request(user: &str) -> Request {
        Request::new(Method::Get, "/api/activejobs").with_header("X-Remote-User", user)
    }

    #[test]
    fn baseline_shows_only_active_jobs() {
        let ctx = test_ctx();
        // One job that finishes instantly, one running, one pending.
        let mut done = JobRequest::simple("alice", "physics", "cpu", 1);
        done.usage = UsageProfile {
            cpu_util: 0.9,
            mem_util: 0.5,
            gpu_util: 0.0,
            planned_runtime_secs: 1,
            outcome: PlannedOutcome::Success,
        };
        ctx.ctld.submit(done).unwrap();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 8))
            .unwrap();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 16))
            .unwrap();
        ctx.ctld.tick();

        let resp = handle(&ctx, &request("alice"));
        assert_eq!(resp.status, 200);
        let jobs = resp.body_json().unwrap()["jobs"]
            .as_array()
            .unwrap()
            .to_vec();
        // All three are still active at this instant; none carries the
        // My Jobs extras.
        assert!(jobs.iter().all(|j| j.get("efficiency").is_none()));
        assert!(jobs.iter().all(|j| j.get("qos").is_none()));
        assert!(jobs
            .iter()
            .all(|j| j["state"] == "PENDING" || j["state"] == "RUNNING"));
    }

    #[test]
    fn baseline_misses_what_myjobs_shows() {
        // The comparison the paper motivates: after a job completes, the
        // baseline no longer shows it, while My Jobs does.
        let ctx = test_ctx();
        let mut done = JobRequest::simple("alice", "physics", "cpu", 1);
        done.usage.planned_runtime_secs = 1;
        let id = ctx.ctld.submit(done).unwrap()[0];
        ctx.ctld.tick(); // starts
                         // Force completion by advancing the shared sim clock is not possible
                         // from test_ctx (frozen clock), so cancel to make it historical.
        ctx.ctld.cancel(id, "alice").unwrap();
        ctx.ctld.tick();

        let baseline = handle(&ctx, &request("alice"));
        assert_eq!(
            baseline.body_json().unwrap()["jobs"]
                .as_array()
                .unwrap()
                .len(),
            0,
            "baseline lost sight of the finished job"
        );
        // My Jobs still reports it (historical states).
        let myjobs_req = Request::new(Method::Get, "/api/myjobs?range=all")
            .with_header("X-Remote-User", "alice");
        let mut router = Router::new();
        crate::api::myjobs::register(&mut router, ctx.clone());
        let myjobs = router.handle(&myjobs_req);
        let jobs = myjobs.body_json().unwrap()["jobs"]
            .as_array()
            .unwrap()
            .to_vec();
        assert!(jobs
            .iter()
            .any(|j| j["id"] == id.to_string() && j["state"] == "CANCELLED"));
    }
}
