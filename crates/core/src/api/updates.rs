//! Real-time job monitoring (paper §9 future work, implemented): an
//! incremental updates feed. Both routes answer with one filtered cursor
//! read of slurmctld's `EventLog`; they differ only in who holds the cursor.
//!
//! - **Legacy poll** — `/api/updates?since=<seq>`: the client holds it, and
//!   each request re-resolves the viewer's scope profile, so N pollers cost
//!   N assoc RPCs per refresh interval. The shipped client streams instead;
//!   the poll stays while the benchmark drives it.
//! - **Push stream** — `/api/updates/stream?sub=<token>&since=<seq>&wait_ms=<ms>`:
//!   the push hub holds it, seeded from `since` when the tab subscribes,
//!   and parks the request until a visible event lands. The daemons are
//!   touched once per subscriber (at subscribe + account-TTL refresh), not
//!   once per poll. Subscribers are keyed per viewer (identity, admin bit,
//!   act-as target), as the per-viewer cache is.
//!
//! Both filter with the one privacy rule: the viewer's `ScopeSet` profile
//! and its `allows_job`, evaluated per request by the poll and resolved per
//! subscriber by the hub.
//!
//! # Cursor semantics (intentional)
//!
//! Both routes report `latest_seq`, the cluster-wide head of the event log
//! as the read saw it — which advances even when every new event was
//! filtered out of the caller's view. This is deliberate: the cursor is a
//! *log position*, not a count of visible events, and clients must anchor at
//! the head so their next request is an honest "nothing since X". What a
//! non-admin can learn from it is only that *some* job somewhere changed
//! state — never whose, which, or why — the same signal the homepage's
//! cluster-utilization widget already publishes. Anchoring at a filtered
//! cursor also keeps resync detection sound: truncation is measured against
//! log positions, so a client parked on an old "visible" seq would see
//! spurious resyncs on busy clusters. The head comes from the same locked
//! read as the events, so an append landing mid-request is never skipped.
//!
//! On `resync_required: true` the client's delta stream has a hole (its
//! cursor fell out of the retained window, or a daemon recovered since its
//! last read): refetch full tables, then resume from the reported
//! `latest_seq`.

use crate::api::Text;
use crate::auth::CurrentUser;
use crate::colors::job_state_color;
use crate::ctx::DashboardContext;
use crate::reasons::friendly_reason;
use hpcdash_http::{
    ParkDirective, ParkWaker, Request, Response, Router, CONN_PARK_HEADER, PARK_FINAL_HEADER,
};
use hpcdash_push::Delivery;
use hpcdash_simtime::Timestamp;
use hpcdash_slurm::events::JobEvent;
use hpcdash_slurm::job::JobId;
use serde::Serialize;
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

/// The wire shape both routes answer with. Its decode twin is the live
/// client's, which does not depend on this crate.
#[derive(Serialize)]
struct Updates<'a> {
    events: Vec<Event<'a>>,
    latest_seq: u64,
    resync_required: bool,
    /// The stream's subscription token; the poll has none.
    #[serde(skip_serializing_if = "Option::is_none")]
    sub: Option<&'a str>,
}

/// One job-state transition, borrowing from the logged event.
#[derive(Serialize)]
struct Event<'a> {
    seq: u64,
    at: Text<Timestamp>,
    job: Text<JobId>,
    user: &'a str,
    account: &'a str,
    from: Option<&'static str>,
    to: &'static str,
    to_color: &'static str,
    reason: Option<&'static str>,
    reason_message: Option<&'static str>,
}

impl<'a> From<&'a JobEvent> for Event<'a> {
    fn from(e: &'a JobEvent) -> Event<'a> {
        Event {
            seq: e.seq,
            at: Text(e.at),
            job: Text(e.job),
            user: &e.user,
            account: &e.account,
            from: e.from.map(|s| s.to_slurm()),
            to: e.to.to_slurm(),
            to_color: job_state_color(e.to),
            reason: e.reason.map(|r| r.to_slurm()),
            reason_message: e.reason.map(friendly_reason),
        }
    }
}

fn answer(d: &Delivery, sub: Option<&str>) -> Response {
    Response::json(&Updates {
        events: d.events.iter().map(Event::from).collect(),
        latest_seq: d.latest_seq,
        resync_required: d.resync_required,
        sub,
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
    // Resolved whether or not any event came back: one assoc RPC per poll.
    let profile = user.scope_profile(ctx);
    let read = ctx.ctld.events().read(since, |e| {
        profile.allows_job(&user.username, &e.user, &e.account, "")
    });
    let delivery = Delivery {
        events: read.entries,
        latest_seq: read.head,
        resync_required: read.truncated,
    };
    answer(&delivery, None)
}

/// The push-mode long-poll. The first request with a fresh `sub` token
/// registers the subscriber with its cursor at `since`; every request reads
/// from that cursor, parking up to `wait_ms` (clamped by
/// `PushPolicy::max_wait_ms`) while there is nothing to read. When the park
/// budget is exhausted the route sheds with `503 + Retry-After` instead of
/// starving.
///
/// Parking has two implementations behind one contract. Dispatched from the
/// event loop (the `x-hpcdash-conn-park` marker), an empty read returns a
/// [`ParkDirective`]: the *connection* parks inside the event loop at zero
/// thread cost, a hub notify fires the directive's waker, and the loop
/// re-dispatches this request with `x-hpcdash-park-final` for the immediate
/// answer. Called any other way (tests, in-process dispatch), the handler
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
    let Some(viewer) = super::viewer_key(ctx, req) else {
        return Response::unauthorized("missing X-Remote-User");
    };
    ctx.note_source(FEATURE, "push hub (slurmctld event stream)");
    // Subscriber keys are scoped per viewer: one viewer's token can never
    // attach to a cursor filtered for another — not even an admin's act-as
    // view of the same user.
    let key = format!("{viewer}:{token}");
    let handle = ctx.push.ensure(&key, &user.username, user.is_admin, since);
    // Read without parking first: only an empty read costs a park slot.
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
            // Close the install/publish race: anything appended since the
            // read above answers now instead of parking.
            delivery = ctx.push.wait(&handle, Duration::ZERO);
            if delivery.events.is_empty() && !delivery.resync_required {
                return super::json_bytes(br#"{"parked":true}"#.to_vec()).with_park(
                    ParkDirective {
                        waker,
                        max_wait: Duration::from_millis(wait_ms),
                        permit: Some(Arc::new(permit)),
                    },
                );
            }
            ctx.push.clear_notify(&handle);
        } else {
            delivery = ctx.push.wait(&handle, Duration::from_millis(wait_ms));
        }
    }
    answer(&delivery, Some(token))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DashboardConfig;
    use crate::ctx::tests::{test_ctx, test_ctx_with};
    use hpcdash_http::Method;
    use hpcdash_simtime::Timestamp;
    use hpcdash_slurm::job::{JobId, JobRequest, JobState, PendingReason};

    fn request(path: &str, user: &str) -> Request {
        Request::new(Method::Get, path).with_header("X-Remote-User", user)
    }

    /// The exact wire bytes of a delivery: one event with neither a
    /// previous state nor a reason, one with both, and the `sub` member
    /// absent (the poll) and present (the stream).
    #[test]
    fn delivery_bytes_are_pinned() {
        let event = |seq: u64, from, reason| JobEvent {
            seq,
            at: Timestamp(1_000 + seq),
            cluster: String::new(),
            job: JobId(40 + seq as u32),
            user: "alice".to_string(),
            account: "physics".to_string(),
            from,
            to: JobState::Pending,
            reason,
        };
        let delivery = Delivery {
            events: vec![
                event(1, None, None),
                event(2, Some(JobState::Running), Some(PendingReason::Priority)),
            ],
            latest_seq: 9,
            resync_required: false,
        };
        let events = concat!(
            r#"[{"account":"physics","at":"1970-01-01T00:16:41","from":null,"job":"41","#,
            r#""reason":null,"reason_message":null,"seq":1,"to":"PENDING","to_color":"blue","#,
            r#""user":"alice"},{"account":"physics","at":"1970-01-01T00:16:42","#,
            r#""from":"RUNNING","job":"42","reason":"Priority","reason_message":"It means "#,
            r#"other queued jobs currently have higher priority; your job will move up as it "#,
            r#"waits.","seq":2,"to":"PENDING","to_color":"blue","user":"alice"}]"#,
        );
        assert_eq!(
            answer(&delivery, None).body_string(),
            format!(r#"{{"events":{events},"latest_seq":9,"resync_required":false}}"#)
        );
        assert_eq!(
            answer(&delivery, Some("tab-1")).body_string(),
            format!(
                r#"{{"events":{events},"latest_seq":9,"resync_required":false,"sub":"tab-1"}}"#
            )
        );
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
    fn stream_replays_from_since_then_delivers_deltas() {
        let ctx = test_ctx();
        let id = ctx
            .ctld
            .submit(JobRequest::simple("alice", "physics", "cpu", 2))
            .unwrap()[0];
        ctx.ctld.tick();

        // First request registers the subscriber with its cursor at seq 0.
        let resp = handle_stream(&ctx, &request("/api/updates/stream?sub=tab1", "alice"));
        assert_eq!(resp.status, 200);
        let body = resp.body_json().unwrap();
        let events = body["events"].as_array().unwrap();
        assert_eq!(events.len(), 2, "submit + start replayed");
        assert_eq!(body["resync_required"], false);

        // Nothing new: an empty non-blocking read.
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
        // Live publishes are filtered too, not just the replayed history.
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
        // With an event to read, no parking is needed and the request succeeds
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

    /// Append `n` events for alice's physics jobs straight into the log.
    fn burst(ctx: &DashboardContext, n: u64) {
        let log = ctx.ctld.events();
        for i in 0..n {
            log.push(
                hpcdash_simtime::Timestamp(i),
                hpcdash_slurm::job::JobId(1),
                "alice",
                "physics",
                None,
                hpcdash_slurm::job::JobState::Pending,
                None,
            );
        }
    }

    #[test]
    fn stream_overflow_reports_resync_then_recovers() {
        let ctx = test_ctx();
        // Register the subscriber first so the burst lands past its cursor.
        let resp = handle_stream(&ctx, &request("/api/updates/stream?sub=t", "alice"));
        assert_eq!(
            resp.body_json().unwrap()["events"]
                .as_array()
                .unwrap()
                .len(),
            0
        );
        // One event more than the log's 4 096-event window moves it past
        // the cursor.
        burst(&ctx, 4_097);
        let resp = handle_stream(&ctx, &request("/api/updates/stream?sub=t", "alice"));
        let body = resp.body_json().unwrap();
        assert_eq!(body["resync_required"], true, "the cursor fell out");
        assert_eq!(body["events"].as_array().unwrap().len(), 0);
        assert_eq!(body["latest_seq"], ctx.ctld.events().latest_seq());
        // After refetching tables the client streams again from the hub.
        burst(&ctx, 1);
        let resp = handle_stream(&ctx, &request("/api/updates/stream?sub=t", "alice"));
        let body = resp.body_json().unwrap();
        assert_eq!(body["resync_required"], false);
        assert_eq!(body["events"].as_array().unwrap().len(), 1);
    }

    #[test]
    fn a_poll_chained_on_latest_seq_never_skips_an_event() {
        // One thread appends while an admin chains `since=latest_seq`: the
        // head a poll reports must come from the read that produced its
        // events, or an append between the two is skipped without a resync.
        const N: u64 = 3_000;
        let ctx = test_ctx_with(DashboardConfig::purdue_like());
        let writer = {
            let ctx = ctx.clone();
            std::thread::spawn(move || burst(&ctx, N))
        };
        let (mut cursor, mut seen) = (0u64, std::collections::BTreeSet::new());
        while cursor < N {
            let resp = handle(
                &ctx,
                &request(&format!("/api/updates?since={cursor}"), "root"),
            );
            let body = resp.body_json().unwrap();
            assert_eq!(body["resync_required"], false, "the window holds all N");
            for e in body["events"].as_array().unwrap() {
                assert!(seen.insert(e["seq"].as_u64().unwrap()), "delivered twice");
            }
            cursor = body["latest_seq"].as_u64().unwrap();
        }
        writer.join().unwrap();
        let missed: Vec<u64> = (1..=N).filter(|s| !seen.contains(s)).collect();
        assert!(
            missed.is_empty(),
            "{} appends skipped, from seq {:?}",
            missed.len(),
            missed.first()
        );
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
