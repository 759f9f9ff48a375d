//! Real-time job monitoring (paper §9 future work, implemented): an
//! incremental updates feed with two delivery modes.
//!
//! - **Legacy poll** — `/api/updates?since=<seq>` scans the event log and
//!   re-resolves the viewer's account set on every request. Simple, but N
//!   pollers cost N scans + N assoc RPCs per refresh interval.
//! - **Push stream** — `/api/updates/stream?sub=<token>&since=<seq>&wait_ms=<ms>`
//!   long-polls a per-subscriber queue fed by the push hub. The daemons are
//!   touched once per event (at publish) and once per subscriber (at
//!   subscribe + account-TTL refresh), not once per poll.
//!
//! # Cursor semantics (intentional)
//!
//! Both modes report `latest_seq`, the cluster-wide head of the event log —
//! which advances even when every new event was filtered out of the caller's
//! view. This is deliberate: the cursor is a *log position*, not a count of
//! visible events, and clients must anchor at the head so their next request
//! is an honest "nothing since X". What a non-admin can learn from it is
//! only that *some* job somewhere changed state — never whose, which, or
//! why — the same signal the homepage's cluster-utilization widget already
//! publishes. Anchoring at a filtered cursor also keeps resync detection
//! sound: truncation is measured against log positions, so a client parked
//! on an old "visible" seq would see spurious resyncs on busy clusters.
//!
//! On `resync_required: true` the client's delta stream has a hole (cursor
//! fell out of the retained window, or its push queue overflowed): refetch
//! full tables, then resume from the reported `latest_seq`.

use crate::auth::CurrentUser;
use crate::colors::job_state_color;
use crate::ctx::DashboardContext;
use crate::reasons::friendly_reason;
use hpcdash_http::{
    ParkDirective, ParkWaker, Request, Response, Router, CONN_PARK_HEADER, PARK_FINAL_HEADER,
};
use hpcdash_slurm::events::JobEvent;
use serde_json::json;
use std::sync::Arc;
use std::time::Duration;

pub const FEATURE: &str = "Live Updates (extension)";
pub const ROUTES: &[&str] = &["/api/updates", "/api/updates/stream"];
pub const SOURCES: &[&str] = &["slurmctld event stream"];

pub fn register(router: &mut Router, ctx: DashboardContext) {
    let poll_ctx = ctx.clone();
    router.get(ROUTES[0], move |req| handle(&poll_ctx, req));
    router.get(ROUTES[1], move |req| handle_stream(&ctx, req));
}

/// The wire shape shared by both delivery modes.
fn event_json(e: &JobEvent) -> serde_json::Value {
    json!({
        "seq": e.seq,
        "at": e.at.to_slurm(),
        "job": e.job.to_string(),
        "user": e.user,
        "account": e.account,
        "from": e.from.map(|s| s.to_slurm()),
        "to": e.to.to_slurm(),
        "to_color": job_state_color(e.to),
        "reason": e.reason.map(|r| r.to_slurm()),
        "reason_message": e.reason.map(friendly_reason),
    })
}

fn handle(ctx: &DashboardContext, req: &Request) -> Response {
    let user = match CurrentUser::from_request(ctx, req) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let since: u64 = match req.query_param("since").unwrap_or("0").parse() {
        Ok(s) => s,
        Err(_) => return Response::bad_request("since must be a sequence number"),
    };
    ctx.note_source(FEATURE, "slurmctld event stream");
    let log = ctx.ctld.events();
    let (events, truncated) = log.since(since);
    let accounts = user.visible_accounts(ctx);
    let visible: Vec<serde_json::Value> = events
        .iter()
        .filter(|e| user.is_admin || e.user == user.username || accounts.contains(&e.account))
        .map(event_json)
        .collect();
    Response::json(&json!({
        "events": visible,
        // Cluster-wide log head, advancing past filtered events by design
        // (see the module docs).
        "latest_seq": log.latest_seq(),
        // When true the client's cursor predates the retained window and a
        // full table refresh is needed.
        "resync_required": truncated,
    }))
}

/// The push-mode long-poll. First request with a fresh `sub` token registers
/// the subscriber and backfills it from `since`; subsequent requests drain
/// the subscriber's queue, parking up to `wait_ms` (clamped by
/// `PushPolicy::max_wait_ms`) while it is empty. When the park budget is
/// exhausted the route sheds with `503 + Retry-After` instead of starving.
///
/// Parking has two implementations behind one contract. Dispatched from the
/// event loop (the `x-hpcdash-conn-park` marker), an empty queue returns a
/// [`ParkDirective`]: the *connection* parks inside the event loop at zero
/// thread cost, a hub notify fires the directive's waker, and the loop
/// re-dispatches this request with `x-hpcdash-park-final` for the immediate
/// answer. Called any other way (tests, in-process benches), the handler
/// blocks on the hub condvar exactly as the thread era did.
fn handle_stream(ctx: &DashboardContext, req: &Request) -> Response {
    let user = match CurrentUser::from_request(ctx, req) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let since: u64 = match req.query_param("since").unwrap_or("0").parse() {
        Ok(s) => s,
        Err(_) => return Response::bad_request("since must be a sequence number"),
    };
    let wait_ms: u64 = match req.query_param("wait_ms").unwrap_or("0").parse() {
        Ok(w) => w,
        Err(_) => return Response::bad_request("wait_ms must be milliseconds"),
    };
    let wait_ms = wait_ms.min(ctx.cfg.push.max_wait_ms);
    let token = req.query_param("sub").unwrap_or("default");
    if token.is_empty() || token.len() > 64 {
        return Response::bad_request("sub must be 1-64 characters");
    }
    ctx.note_source(FEATURE, "push hub (slurmctld event stream)");
    // Subscriber keys are scoped per-user: one user's token can never attach
    // to another user's pre-filtered queue.
    let key = format!("{}:{}", user.username, token);
    let (handle, created) = ctx.push.ensure(&key, &user.username, user.is_admin);
    let log = ctx.ctld.events();
    if created {
        // Registration precedes this backfill, so events published in
        // between are queued, not lost; the hub dedups the overlap.
        let (history, truncated) = log.since(since);
        ctx.push.backfill(&handle, &history, truncated);
    }
    // Drain without parking first: only an empty queue costs a park slot.
    let mut delivery = ctx.push.wait(&handle, Duration::ZERO);
    if delivery.events.is_empty()
        && !delivery.resync_required
        && wait_ms > 0
        && req.header(PARK_FINAL_HEADER).is_none()
    {
        let Some(permit) = ctx.park.try_acquire() else {
            return Response::service_unavailable("long-poll capacity exhausted, retry shortly")
                .with_header("Retry-After", "1");
        };
        if req.header(CONN_PARK_HEADER).is_some() {
            // Event-loop dispatch: park the connection, not this thread.
            let waker = ParkWaker::new();
            let notify = waker.clone();
            ctx.push.set_notify(&handle, move || notify.wake());
            // Close the install/publish race: anything queued since the
            // drain above answers now instead of parking.
            delivery = ctx.push.wait(&handle, Duration::ZERO);
            if delivery.events.is_empty() && !delivery.resync_required {
                return Response::json(&json!({"parked": true})).with_park(ParkDirective {
                    waker,
                    max_wait: Duration::from_millis(wait_ms),
                    permit: Some(Arc::new(permit)),
                });
            }
            ctx.push.clear_notify(&handle);
        } else {
            delivery = ctx.push.wait(&handle, Duration::from_millis(wait_ms));
        }
    }
    let events: Vec<serde_json::Value> = delivery.events.iter().map(event_json).collect();
    Response::json(&json!({
        "sub": token,
        "events": events,
        "latest_seq": log.latest_seq(),
        "resync_required": delivery.resync_required,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DashboardConfig;
    use crate::ctx::tests::{test_ctx, test_ctx_with};
    use hpcdash_http::Method;
    use hpcdash_slurm::job::JobRequest;

    fn request(path: &str, user: &str) -> Request {
        Request::new(Method::Get, path).with_header("X-Remote-User", user)
    }

    #[test]
    fn incremental_polling() {
        let ctx = test_ctx();
        let id = ctx
            .ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 2))
            .unwrap()[0];
        ctx.ctld.tick();

        // First poll sees submit + start.
        let resp = handle(&ctx, &request("/api/updates", "alice"));
        assert_eq!(resp.status, 200);
        let body = resp.body_json().unwrap();
        let events = body["events"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["to"], "PENDING");
        assert_eq!(events[1]["to"], "RUNNING");
        assert_eq!(events[1]["job"], id.to_string());
        let cursor = body["latest_seq"].as_u64().unwrap();

        // Nothing new: empty delta.
        let resp = handle(
            &ctx,
            &request(&format!("/api/updates?since={cursor}"), "alice"),
        );
        let body = resp.body_json().unwrap();
        assert_eq!(body["events"].as_array().unwrap().len(), 0);
        assert_eq!(body["resync_required"], false);

        // Cancel produces exactly one new event past the cursor.
        ctx.ctld.cancel(id, "alice").unwrap();
        let resp = handle(
            &ctx,
            &request(&format!("/api/updates?since={cursor}"), "alice"),
        );
        let events = resp.body_json().unwrap()["events"]
            .as_array()
            .unwrap()
            .to_vec();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0]["to"], "CANCELLED");
        assert_eq!(events[0]["from"], "RUNNING");
    }

    #[test]
    fn visibility_filter_applies() {
        let ctx = test_ctx();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 2))
            .unwrap();
        ctx.ctld.tick();
        let resp = handle(&ctx, &request("/api/updates", "mallory"));
        assert_eq!(
            resp.body_json().unwrap()["events"]
                .as_array()
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn cursor_advances_without_visible_events_by_design() {
        // See "Cursor semantics" in the module docs: latest_seq is a log
        // position, not a visible-event count. A viewer with zero visible
        // events still anchors at the cluster-wide head, and polling from
        // that cursor is clean (no events, no resync).
        let ctx = test_ctx();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 2))
            .unwrap();
        ctx.ctld.tick();
        let resp = handle(&ctx, &request("/api/updates", "mallory"));
        let body = resp.body_json().unwrap();
        assert_eq!(body["events"].as_array().unwrap().len(), 0);
        let cursor = body["latest_seq"].as_u64().unwrap();
        assert!(
            cursor >= 2,
            "cursor advances past filtered events by design"
        );
        let resp = handle(
            &ctx,
            &request(&format!("/api/updates?since={cursor}"), "mallory"),
        );
        let body = resp.body_json().unwrap();
        assert_eq!(body["events"].as_array().unwrap().len(), 0);
        assert_eq!(body["resync_required"], false);
        assert_eq!(body["latest_seq"].as_u64().unwrap(), cursor);
    }

    #[test]
    fn bad_cursor_rejected() {
        let ctx = test_ctx();
        assert_eq!(
            handle(&ctx, &request("/api/updates?since=abc", "alice")).status,
            400
        );
    }

    #[test]
    fn pending_events_carry_friendly_reasons() {
        let ctx = test_ctx();
        // Fill the node, then submit one more: its submit event carries a
        // Priority reason.
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 16))
            .unwrap();
        ctx.ctld.tick();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 16))
            .unwrap();
        let resp = handle(&ctx, &request("/api/updates", "alice"));
        let events = resp.body_json().unwrap()["events"]
            .as_array()
            .unwrap()
            .to_vec();
        let pend = events.last().unwrap();
        assert_eq!(pend["to"], "PENDING");
        assert!(pend["reason_message"]
            .as_str()
            .unwrap()
            .starts_with("It means"));
    }

    #[test]
    fn stream_backfills_then_delivers_deltas() {
        let ctx = test_ctx();
        let id = ctx
            .ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 2))
            .unwrap()[0];
        ctx.ctld.tick();

        // First request registers the subscriber and backfills from seq 0.
        let resp = handle_stream(&ctx, &request("/api/updates/stream?sub=tab1", "alice"));
        assert_eq!(resp.status, 200);
        let body = resp.body_json().unwrap();
        let events = body["events"].as_array().unwrap();
        assert_eq!(events.len(), 2, "submit + start backfilled");
        assert_eq!(body["resync_required"], false);

        // Nothing new: empty non-blocking drain.
        let resp = handle_stream(&ctx, &request("/api/updates/stream?sub=tab1", "alice"));
        assert_eq!(
            resp.body_json().unwrap()["events"]
                .as_array()
                .unwrap()
                .len(),
            0
        );

        // A cancel is pushed through the hub; no since= bookkeeping needed.
        ctx.ctld.cancel(id, "alice").unwrap();
        let resp = handle_stream(&ctx, &request("/api/updates/stream?sub=tab1", "alice"));
        let body = resp.body_json().unwrap();
        let events = body["events"].as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0]["to"], "CANCELLED");
    }

    #[test]
    fn stream_is_visibility_filtered() {
        let ctx = test_ctx();
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 2))
            .unwrap();
        ctx.ctld.tick();
        let resp = handle_stream(&ctx, &request("/api/updates/stream?sub=t", "mallory"));
        let body = resp.body_json().unwrap();
        assert_eq!(body["events"].as_array().unwrap().len(), 0);
        // Live publishes are filtered too, not just the backfill.
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 2))
            .unwrap();
        let resp = handle_stream(&ctx, &request("/api/updates/stream?sub=t", "mallory"));
        assert_eq!(
            resp.body_json().unwrap()["events"]
                .as_array()
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn stream_sheds_with_retry_after_when_park_budget_exhausted() {
        let mut cfg = DashboardConfig::generic("Test");
        cfg.push.max_parked_workers = 1;
        let ctx = test_ctx_with(cfg);
        // Occupy the only park slot, as a parked long-poll worker would.
        let _held = ctx.park.try_acquire().expect("slot available");
        let resp = handle_stream(
            &ctx,
            &request("/api/updates/stream?sub=t&wait_ms=5000", "alice"),
        );
        assert_eq!(resp.status, 503);
        assert_eq!(
            resp.headers.get("Retry-After").map(String::as_str),
            Some("1")
        );
        // With data queued, no parking is needed and the request succeeds
        // even at zero budget.
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 2))
            .unwrap();
        let resp = handle_stream(
            &ctx,
            &request("/api/updates/stream?sub=t&wait_ms=5000", "alice"),
        );
        assert_eq!(resp.status, 200);
        assert!(!resp.body_json().unwrap()["events"]
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn stream_overflow_reports_resync_then_recovers() {
        let mut cfg = DashboardConfig::generic("Test");
        cfg.push.queue_capacity = 2;
        let ctx = test_ctx_with(cfg);
        // Register the subscriber first so the overflow hits its live queue.
        let resp = handle_stream(&ctx, &request("/api/updates/stream?sub=t", "alice"));
        assert_eq!(
            resp.body_json().unwrap()["events"]
                .as_array()
                .unwrap()
                .len(),
            0
        );
        // Each submit+start publishes 2 events; 4 jobs overflow a queue of 2.
        for _ in 0..4 {
            ctx.ctld
                .submit(JobRequest::simple("alice", "physics", "cpu", 1))
                .unwrap();
            ctx.ctld.tick();
        }
        let resp = handle_stream(&ctx, &request("/api/updates/stream?sub=t", "alice"));
        let body = resp.body_json().unwrap();
        assert_eq!(body["resync_required"], true, "overflow coalesced");
        assert_eq!(body["events"].as_array().unwrap().len(), 0);
        // After refetching tables the client streams again from the hub.
        ctx.ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 1))
            .unwrap();
        let resp = handle_stream(&ctx, &request("/api/updates/stream?sub=t", "alice"));
        let body = resp.body_json().unwrap();
        assert_eq!(body["resync_required"], false);
        assert_eq!(body["events"].as_array().unwrap().len(), 1);
    }

    #[test]
    fn stream_validates_params() {
        let ctx = test_ctx();
        assert_eq!(
            handle_stream(&ctx, &request("/api/updates/stream?since=abc", "alice")).status,
            400
        );
        assert_eq!(
            handle_stream(&ctx, &request("/api/updates/stream?wait_ms=soon", "alice")).status,
            400
        );
        assert_eq!(
            handle_stream(&ctx, &request("/api/updates/stream?sub=", "alice")).status,
            400
        );
    }
}
