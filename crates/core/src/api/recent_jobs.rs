//! Recent Jobs widget API (paper §3.2): the user's latest queued/running
//! jobs from `squeue`, cached ~30 s to protect slurmctld.

use crate::api::{encode, Text};
use crate::auth::CurrentUser;
use crate::colors::{job_state_color, ColorClass};
use crate::ctx::DashboardContext;
use crate::reasons::friendly_reason;
use hpcdash_http::{Request, Response, Router};
use hpcdash_simtime::Timestamp;
use hpcdash_slurmcli::{parse_squeue_long, squeue_long, SqueueArgs, SqueueLongRow};
use serde::Serialize;

pub const FEATURE: &str = "Recent Jobs widget";
pub const ROUTES: &[&str] = &["/api/recent_jobs"];
pub const SOURCES: &[&str] = &["squeue (slurmctld)"];

pub fn register(router: &mut Router, ctx: DashboardContext) {
    router.get(ROUTES[0], move |req| handle(&ctx, req));
}

#[derive(Serialize)]
struct RecentJobs<'t> {
    jobs: Vec<JobRow<'t>>,
}

/// One widget row; its strings are borrowed from the `squeue` row it
/// describes.
#[derive(Serialize)]
struct JobRow<'t> {
    id: &'t str,
    name: &'t str,
    partition: &'t str,
    state: &'static str,
    state_color: ColorClass,
    submit_time: Option<Text<Timestamp>>,
    start_time: Option<Text<Timestamp>>,
    elapsed_secs: u64,
    time_limit: &'t str,
    reason: Option<&'static str>,
    /// The hoverable tooltip text (paper §3.2).
    tooltip: Option<&'static str>,
}

impl<'t> From<&SqueueLongRow<'t>> for JobRow<'t> {
    fn from(r: &SqueueLongRow<'t>) -> JobRow<'t> {
        let reason = r.reason();
        JobRow {
            id: r.job_id,
            name: r.name,
            partition: r.partition,
            state: r.state.to_slurm(),
            state_color: job_state_color(r.state),
            submit_time: r.submit_time.map(Text),
            start_time: r.start_time.map(Text),
            elapsed_secs: r.time_secs,
            time_limit: r.time_limit,
            reason: reason.map(|x| x.to_slurm()),
            tooltip: reason.map(friendly_reason),
        }
    }
}

fn handle(ctx: &DashboardContext, req: &Request) -> Response {
    let user = match CurrentUser::from_request(ctx, req) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let limit = ctx.cfg.recent_jobs_limit;
    let key = format!("recent_jobs:{}", user.username);
    let outcome = ctx.cached_resilient(&key, ctx.cfg.cache.recent_jobs, || {
        ctx.note_source(FEATURE, "squeue (slurmctld)");
        // The route shells out to squeue and parses its text, exactly like
        // the paper's backend.
        let text = squeue_long(
            &ctx.ctld,
            &SqueueArgs {
                user: Some(user.username.clone()),
                ..SqueueArgs::default()
            },
        )?;
        let rows = parse_squeue_long(&text).map_err(|e| format!("squeue parse: {e}"))?;
        Ok(encode(&RecentJobs {
            jobs: rows.iter().take(limit).map(JobRow::from).collect(),
        }))
    });
    super::respond(outcome)
}

#[cfg(test)]
impl crate::ctx::DashboardContext {
    /// Advance the scheduler once in tests (1 simulated second).
    pub(crate) fn clock_tick(&self) {
        self.ctld.tick();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::test_ctx;
    use hpcdash_http::Method;
    use hpcdash_slurm::job::JobRequest;

    fn request(user: &str) -> Request {
        Request::new(Method::Get, "/api/recent_jobs").with_header("X-Remote-User", user)
    }

    #[test]
    fn shows_only_my_jobs_with_colors_and_tooltips() {
        let ctx = test_ctx();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 4))
            .unwrap();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 16))
            .unwrap();
        ctx.clock_tick();
        let resp = handle(&ctx, &request("alice"));
        assert_eq!(resp.status, 200);
        let jobs = resp.body_json().unwrap()["jobs"]
            .as_array()
            .unwrap()
            .to_vec();
        assert_eq!(jobs.len(), 2);
        let running = jobs.iter().find(|j| j["state"] == "RUNNING").unwrap();
        assert_eq!(running["state_color"], "green");
        assert!(running["start_time"].is_string());
        let pending = jobs.iter().find(|j| j["state"] == "PENDING").unwrap();
        assert!(pending["tooltip"].as_str().unwrap().starts_with("It means"));
    }

    #[test]
    fn other_users_see_nothing_of_mine() {
        let ctx = test_ctx();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 4))
            .unwrap();
        ctx.clock_tick();
        let resp = handle(&ctx, &request("mallory"));
        assert_eq!(
            resp.body_json().unwrap()["jobs"].as_array().unwrap().len(),
            0
        );
    }

    #[test]
    fn caching_hides_new_submissions_within_ttl() {
        let ctx = test_ctx();
        handle(&ctx, &request("alice"));
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 1))
            .unwrap();
        ctx.clock_tick();
        let resp = handle(&ctx, &request("alice"));
        assert_eq!(
            resp.body_json().unwrap()["jobs"].as_array().unwrap().len(),
            0,
            "cached empty list served within the 30s TTL"
        );
        assert_eq!(
            ctx.ctld.stats().count_of("squeue"),
            1,
            "only one squeue ran"
        );
    }
}
