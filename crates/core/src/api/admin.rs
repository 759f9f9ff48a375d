//! Administrator-only job controls (paper §9: "permission-based job
//! accounting, such as administrator-only content, is another feature under
//! development" — implemented here).
//!
//! Admins can hold, release, and cancel any job from the dashboard. All
//! three actions require the caller to be in the configured admin list;
//! everyone else gets 403 regardless of job ownership (owners use scancel /
//! their own tooling — this surface is for operators).

use crate::auth::CurrentUser;
use crate::ctx::DashboardContext;
use hpcdash_http::{Method, Request, Response, Router};
use hpcdash_slurm::cluster::ClusterError;
use hpcdash_slurm::job::JobId;
use serde::Serialize;

pub const FEATURE: &str = "Admin job controls (extension)";
pub const ROUTES: &[&str] = &[
    "/api/admin/jobs/:id/hold",
    "/api/admin/jobs/:id/release",
    "/api/admin/jobs/:id/cancel",
];

/// What a control answers when it took effect.
#[derive(Serialize)]
struct Done {
    ok: bool,
    job: String,
}

pub fn register(router: &mut Router, ctx: DashboardContext) {
    let c1 = ctx.clone();
    let c2 = ctx.clone();
    router.add(Method::Post, ROUTES[0], move |req| {
        handle(&ctx, req, Action::Hold)
    });
    router.add(Method::Post, ROUTES[1], move |req| {
        handle(&c1, req, Action::Release)
    });
    router.add(Method::Post, ROUTES[2], move |req| {
        handle(&c2, req, Action::Cancel)
    });
}

#[derive(Clone, Copy)]
enum Action {
    Hold,
    Release,
    Cancel,
}

fn handle(ctx: &DashboardContext, req: &Request, action: Action) -> Response {
    let user = match CurrentUser::from_request(ctx, req) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    if !user.is_admin {
        return Response::forbidden("administrator access required");
    }
    let Some(id) = req.param("id").and_then(|s| s.parse().ok()).map(JobId) else {
        return Response::bad_request("invalid job id");
    };
    let result = match action {
        Action::Hold => ctx.ctld.hold(id, true),
        Action::Release => ctx.ctld.release(id),
        // Admin cancellation acts as root, bypassing ownership.
        Action::Cancel => ctx.ctld.cancel(id, "root"),
    };
    match result {
        Ok(()) => Response::json(&Done {
            ok: true,
            job: id.to_string(),
        }),
        Err(ClusterError::UnknownJob(_)) => Response::not_found("no such active job"),
        Err(e) => Response::bad_request(&e.to_string()),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ctx::tests::test_ctx;
    use hpcdash_slurm::job::{JobRequest, JobState, PendingReason};

    fn post(path: &str, id: &str, user: &str) -> Request {
        let mut r = Request::new(Method::Post, path).with_header("X-Remote-User", user);
        r.params.insert("id".to_string(), id.to_string());
        r
    }

    pub(crate) fn admin_ctx() -> crate::ctx::DashboardContext {
        let ctx = test_ctx();
        // test_ctx uses the generic config (no admins); rebuild with root.
        let mut cfg = (*ctx.cfg).clone();
        cfg.admins = vec!["root".to_string()];
        cfg.features.admin_view = true;
        crate::ctx::DashboardContext::new(
            cfg,
            ctx.clock.clone(),
            ctx.ctld.clone(),
            ctx.dbd.clone(),
            ctx.logs.clone(),
            ctx.storage.clone(),
            ctx.news.clone(),
        )
    }

    #[test]
    fn non_admin_is_forbidden() {
        let ctx = admin_ctx();
        let id = ctx
            .ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 1))
            .unwrap()[0];
        let resp = handle(&ctx, &post("/x", &id.to_string(), "alice"), Action::Hold);
        assert_eq!(resp.status, 403, "owners don't get the admin surface");
    }

    #[test]
    fn admin_hold_release_cycle() {
        let ctx = admin_ctx();
        let id = ctx
            .ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 1))
            .unwrap()[0];
        let resp = handle(&ctx, &post("/x", &id.to_string(), "root"), Action::Hold);
        assert_eq!(resp.status, 200, "{}", resp.body_string());
        ctx.ctld.tick();
        let job = ctx.ctld.query_job(id).unwrap();
        assert_eq!(job.state, JobState::Pending);
        assert_eq!(job.reason, Some(PendingReason::JobHeldAdmin));

        let resp = handle(&ctx, &post("/x", &id.to_string(), "root"), Action::Release);
        assert_eq!(resp.status, 200);
        ctx.ctld.tick();
        assert_eq!(ctx.ctld.query_job(id).unwrap().state, JobState::Running);
    }

    #[test]
    fn admin_cancel_any_job() {
        let ctx = admin_ctx();
        let id = ctx
            .ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 1))
            .unwrap()[0];
        ctx.ctld.tick();
        let resp = handle(&ctx, &post("/x", &id.to_string(), "root"), Action::Cancel);
        assert_eq!(resp.status, 200);
        assert!(ctx.ctld.query_job(id).is_none());
        ctx.ctld.tick(); // stream the cancellation into accounting
        assert_eq!(ctx.dbd.job(id).unwrap().state, JobState::Cancelled);
    }

    #[test]
    fn unknown_job_and_bad_id() {
        let ctx = admin_ctx();
        let resp = handle(&ctx, &post("/x", "999999", "root"), Action::Cancel);
        assert_eq!(resp.status, 404);
        let resp = handle(&ctx, &post("/x", "not-a-number", "root"), Action::Hold);
        assert_eq!(resp.status, 400);
    }
}
