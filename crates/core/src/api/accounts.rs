//! Accounts widget API (paper §3.4): the user's allocations with CPU/GPU
//! usage against limits, plus the per-user breakdown export (CSV / Excel).

use crate::api::encode;
use crate::auth::CurrentUser;
use crate::colors::utilization_color;
use crate::ctx::DashboardContext;
use hpcdash_http::{Request, Response, Router};
use hpcdash_slurmcli::scontrol::parse_show_assoc;
use hpcdash_slurmcli::show_assoc;
use serde_json::json;

pub const FEATURE: &str = "Accounts widget";
pub const ROUTES: &[&str] = &["/api/accounts", "/api/accounts/:account/export"];
pub const SOURCES: &[&str] = &["scontrol show assoc (slurmctld)"];

pub fn register(router: &mut Router, ctx: DashboardContext) {
    let ctx2 = ctx.clone();
    router.get(ROUTES[0], move |req| handle(&ctx, req));
    router.get(ROUTES[1], move |req| handle_export(&ctx2, req));
}

fn handle(ctx: &DashboardContext, req: &Request) -> Response {
    let user = match CurrentUser::from_request(ctx, req) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let key = format!("accounts:{}", user.username);
    let guide = ctx.cfg.user_guide_url.clone();
    let outcome = ctx.cached_resilient(&key, ctx.cfg.cache.accounts, || {
        ctx.note_source(FEATURE, "scontrol show assoc (slurmctld)");
        let text = show_assoc(&ctx.ctld, Some(&user.username))?;
        let rows = parse_show_assoc(&text).map_err(|e| format!("assoc parse: {e}"))?;
        Ok(encode(&json!({
            "accounts": rows
                .iter()
                .map(|r| {
                    let cpu_frac = match r.grp_cpu_limit {
                        Some(cap) if cap > 0 => r.cpus_in_use as f64 / cap as f64,
                        _ => 0.0,
                    };
                    let gpu_hours_used = r.gpu_seconds_used as f64 / 3_600.0;
                    let gpu_hours_limit = r.grp_gpu_mins_limit.map(|m| m as f64 / 60.0);
                    let gpu_frac = match gpu_hours_limit {
                        Some(cap) if cap > 0.0 => gpu_hours_used / cap,
                        _ => 0.0,
                    };
                    json!({
                        "name": r.account,
                        "cpus_in_use": r.cpus_in_use,
                        "cpus_queued": r.cpus_queued,
                        "cpu_limit": r.grp_cpu_limit,
                        "cpu_percent": (cpu_frac * 1000.0).round() / 10.0,
                        "cpu_color": utilization_color(cpu_frac),
                        "gpu_hours_used": (gpu_hours_used * 100.0).round() / 100.0,
                        "gpu_hours_limit": gpu_hours_limit,
                        "gpu_color": utilization_color(gpu_frac),
                        "member_count": r.users.len(),
                        "export_url": format!("/api/accounts/{}/export", r.account),
                    })
                })
                .collect::<Vec<_>>(),
            "user_guide_url": guide,
        })))
    });
    super::respond(outcome)
}

/// Per-user usage breakdown for one account, exported as CSV (or an
/// Excel-compatible CSV with a UTF-8 BOM when `format=excel`).
fn handle_export(ctx: &DashboardContext, req: &Request) -> Response {
    let user = match CurrentUser::from_request(ctx, req) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let Some(account) = req.param("account") else {
        return Response::bad_request("missing account");
    };
    // Privacy: only members (or admins) may export the group breakdown.
    if !user.scope_profile(ctx).allows_account(account) {
        return Response::forbidden("not a member of this account");
    }
    ctx.note_source(FEATURE, "scontrol show assoc (slurmctld)");
    let records = ctx.ctld.query_assoc(None);
    let Some(record) = records.iter().find(|r| r.account.name == account) else {
        return Response::not_found("unknown account");
    };

    let mut csv = String::from("user,jobs_run,cpu_hours,gpu_hours\n");
    for (member, usage) in &record.usage.by_user {
        csv.push_str(&format!(
            "{},{},{:.2},{:.2}\n",
            member,
            usage.jobs_run,
            usage.cpu_seconds as f64 / 3_600.0,
            usage.gpu_seconds as f64 / 3_600.0,
        ));
    }
    let excel = req.query_param("format") == Some("excel");
    let (filename, body) = if excel {
        (format!("{account}-usage.xls.csv"), format!("\u{feff}{csv}"))
    } else {
        (format!("{account}-usage.csv"), csv)
    };
    Response::csv(&filename, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::test_ctx;
    use hpcdash_http::Method;
    use hpcdash_slurm::job::{JobRequest, UsageProfile};

    fn request(path: &str, user: &str) -> Request {
        Request::new(Method::Get, path).with_header("X-Remote-User", user)
    }

    #[test]
    fn lists_my_allocations_with_usage() {
        let ctx = test_ctx();
        let mut r = JobRequest::simple("alice", "physics", "cpu", 8);
        r.usage = UsageProfile::batch(60);
        ctx.ctld.submit(r).unwrap();
        ctx.ctld.tick();
        let resp = handle(&ctx, &request("/api/accounts", "alice"));
        assert_eq!(resp.status, 200);
        let accounts = resp.body_json().unwrap()["accounts"]
            .as_array()
            .unwrap()
            .to_vec();
        assert_eq!(accounts.len(), 1);
        assert_eq!(accounts[0]["name"], "physics");
        assert_eq!(accounts[0]["cpus_in_use"], 8);
        assert_eq!(accounts[0]["member_count"], 1);
        assert!(accounts[0]["export_url"]
            .as_str()
            .unwrap()
            .contains("/physics/"));
    }

    #[test]
    fn strangers_see_no_accounts() {
        let ctx = test_ctx();
        let resp = handle(&ctx, &request("/api/accounts", "mallory"));
        assert_eq!(
            resp.body_json().unwrap()["accounts"]
                .as_array()
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn export_requires_membership() {
        let ctx = test_ctx();
        let mut req = request("/api/accounts/physics/export", "mallory");
        req.params
            .insert("account".to_string(), "physics".to_string());
        assert_eq!(handle_export(&ctx, &req).status, 403);
        let mut req = request("/api/accounts/physics/export", "alice");
        req.params
            .insert("account".to_string(), "physics".to_string());
        let resp = handle_export(&ctx, &req);
        assert_eq!(resp.status, 200);
        assert!(resp.body_string().starts_with("user,jobs_run"));
        assert!(resp
            .header("content-disposition")
            .unwrap()
            .contains("physics-usage.csv"));
    }

    #[test]
    fn export_contains_per_user_rows_and_excel_bom() {
        let ctx = test_ctx();
        // Run a job to completion so usage accrues.
        let mut r = JobRequest::simple("alice", "physics", "cpu", 4);
        r.usage = UsageProfile::batch(1);
        ctx.ctld.submit(r).unwrap();
        ctx.ctld.tick();
        // Job runs for 1 planned second; force completion by advancing via
        // another tick after the run plan elapses (SimClock in test_ctx is
        // frozen, so cancel instead to register usage).
        let jobs = ctx.ctld.query_jobs(&hpcdash_slurm::ctld::JobQuery::all());
        ctx.ctld.cancel(jobs[0].id, "alice").unwrap();
        let mut req = request("/api/accounts/physics/export?format=excel", "alice");
        req.params
            .insert("account".to_string(), "physics".to_string());
        let resp = handle_export(&ctx, &req);
        let body = resp.body_string();
        assert!(body.starts_with('\u{feff}'), "excel format carries a BOM");
        assert!(
            body.contains("alice,1,"),
            "alice's completed job shows up: {body}"
        );
    }

    #[test]
    fn export_unknown_account_404s() {
        let ctx = test_ctx();
        let mut req = request("/api/accounts/nope/export", "root");
        req.params.insert("account".to_string(), "nope".to_string());
        // root is not admin in generic config; make the request as a member-less user.
        assert!(matches!(handle_export(&ctx, &req).status, 403 | 404));
    }
}
