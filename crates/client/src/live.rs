//! The push-mode live client: a browser tab subscribed to
//! `/api/updates/stream`.
//!
//! Instead of refetching job tables on a timer, the subscriber owns a
//! server-held cursor into the cluster event log (identified by its `sub`
//! token) and applies the delivered deltas to a local `live_jobs` store in
//! the IndexedDB analog — the client half of the poll-to-push inversion in
//! `hpcdash-push`. When the server reports `resync_required` (the log's
//! retained window moved past the cursor, or a daemon recovered since the
//! last read) the local store is cleared and the cursor re-anchors at the
//! reported `latest_seq`; the real frontend would refetch its tables at that
//! point.

use hpcdash_cache::IndexedDb;
use hpcdash_http::{ClientResponse, HttpClient};
use hpcdash_simtime::SharedClock;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// The `/api/updates` and `/api/updates/stream` payload: the decode twin
/// of the server's encode type, with the same field names.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Updates {
    pub events: Vec<Event>,
    /// The head of the cluster's event log as the read saw it.
    pub latest_seq: u64,
    /// The delta stream has a hole: refetch tables, resume at `latest_seq`.
    pub resync_required: bool,
    /// The stream's subscription token; absent from the poll.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub sub: Option<String>,
}

/// One job-state transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    pub seq: u64,
    pub at: String,
    pub job: String,
    pub user: String,
    pub account: String,
    /// `None` for a submission.
    pub from: Option<String>,
    pub to: String,
    pub to_color: String,
    pub reason: Option<String>,
    pub reason_message: Option<String>,
}

/// How a subscriber reaches the server. The default is a real keep-alive
/// TCP connection ([`HttpClient`]); harnesses that want more concurrent
/// tabs than one process's fd limit allows dispatch in-process instead.
/// Either way the server-side cost is identical — one hub cursor, one
/// registered subscriber, one read per poll — only the socket is elided,
/// so a 100k-tab fleet exercises the real fan-out path.
pub trait StreamTransport: Send + Sync {
    fn get(&self, url: &str, headers: &[(&str, &str)]) -> Result<ClientResponse, String>;

    /// `(connections opened, requests served over a reused connection)` —
    /// zeros for transports that hold no sockets.
    fn connection_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl StreamTransport for HttpClient {
    fn get(&self, url: &str, headers: &[(&str, &str)]) -> Result<ClientResponse, String> {
        HttpClient::get(self, url, headers).map_err(|e| e.to_string())
    }

    fn connection_stats(&self) -> (u64, u64) {
        HttpClient::connection_stats(self)
    }
}

/// What one stream poll produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollOutcome {
    /// Deltas were applied to the local store.
    Events(usize),
    /// The wait expired with nothing to read.
    Empty,
    /// The delta stream had a hole: local state was dropped and the cursor
    /// re-anchored. The caller should refetch full tables.
    Resync,
    /// The server shed the long-poll (`503`); retry after the given delay.
    Shed { retry_after_secs: u64 },
}

/// The IndexedDB store deltas are applied to (one record per job id).
pub const LIVE_STORE: &str = "live_jobs";

/// A live-updates subscriber for one user and one tab (`sub` token).
pub struct LiveSubscriber {
    transport: Arc<dyn StreamTransport>,
    base_url: String,
    user: String,
    token: String,
    db: IndexedDb,
    clock: SharedClock,
    /// The `since` cursor used when the server has to (re)register us.
    anchor: Cell<u64>,
    applied: Cell<u64>,
    /// Last seen `(etag, body)` validator for the stream route; polls send
    /// `If-None-Match` so an unchanged answer costs a `304` round trip
    /// instead of a re-serialized body.
    validator: RefCell<Option<(String, String)>>,
}

impl LiveSubscriber {
    pub fn new(base_url: &str, user: &str, token: &str, clock: SharedClock) -> LiveSubscriber {
        // A live tab holds one TCP connection and parks it between
        // deliveries; reconnect-per-poll would defeat the event loop.
        LiveSubscriber::with_transport(
            base_url,
            user,
            token,
            clock,
            Arc::new(HttpClient::keep_alive()),
        )
    }

    /// A subscriber on a caller-supplied transport. Fleets share one
    /// transport `Arc` — the per-tab state (`sub` token, cursor, local
    /// store) stays per-subscriber.
    pub(crate) fn with_transport(
        base_url: &str,
        user: &str,
        token: &str,
        clock: SharedClock,
        transport: Arc<dyn StreamTransport>,
    ) -> LiveSubscriber {
        LiveSubscriber {
            transport,
            base_url: base_url.trim_end_matches('/').to_string(),
            user: user.to_string(),
            token: token.to_string(),
            db: IndexedDb::new(),
            clock,
            anchor: Cell::new(0),
            applied: Cell::new(0),
            validator: RefCell::new(None),
        }
    }

    /// Anchor the cursor (e.g. at the `latest_seq` of an initial table
    /// fetch) so the first subscribe doesn't replay already-rendered
    /// history.
    pub fn anchor_at(&self, seq: u64) {
        self.anchor.set(seq);
    }

    /// One long-poll round trip: read from the server-held cursor (parking up to
    /// `wait_ms`) and apply the deltas locally.
    pub fn poll(&self, wait_ms: u64) -> Result<PollOutcome, String> {
        let url = format!(
            "{}/api/updates/stream?sub={}&since={}&wait_ms={}",
            self.base_url,
            self.token,
            self.anchor.get(),
            wait_ms
        );
        let validator = self.validator.borrow().clone();
        let mut headers: Vec<(&str, &str)> = vec![("X-Remote-User", &self.user)];
        if let Some((etag, _)) = &validator {
            headers.push(("If-None-Match", etag));
        }
        let resp = self.transport.get(&url, &headers)?;
        if resp.status == 503 {
            let retry_after_secs = resp
                .header("Retry-After")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1);
            return Ok(PollOutcome::Shed { retry_after_secs });
        }
        let body = if resp.status == 304 {
            // Unchanged since our last delivery: render the validator copy.
            let Some((_, body)) = validator else {
                return Err("stream -> HTTP 304 without a stored validator".to_string());
            };
            body
        } else {
            if !resp.is_success() {
                return Err(format!("stream -> HTTP {}", resp.status));
            }
            let etag = resp.header("etag").map(str::to_string);
            let body = String::from_utf8(resp.body).map_err(|e| format!("stream: {e}"))?;
            *self.validator.borrow_mut() = etag.map(|etag| (etag, body.clone()));
            body
        };
        let updates: Updates =
            serde_json::from_str(&body).map_err(|e| format!("stream: bad payload: {e}"))?;
        self.anchor.set(updates.latest_seq);
        if updates.resync_required {
            // The delta stream has a hole: local job state may be stale in
            // unknowable ways, so drop it and start over from the head.
            self.db.clear_store(LIVE_STORE);
            return Ok(PollOutcome::Resync);
        }
        if updates.events.is_empty() {
            return Ok(PollOutcome::Empty);
        }
        let now = self.clock.now();
        for event in &updates.events {
            let text = serde_json::to_string(event).expect("events serialize");
            self.db.put(LIVE_STORE, &event.job, text, now);
        }
        let applied = updates.events.len();
        self.applied.set(self.applied.get() + applied as u64);
        Ok(PollOutcome::Events(applied))
    }

    /// The locally-known state of a job, as last delivered.
    pub fn job_state(&self, job: &str) -> Option<String> {
        let rec = self.db.get(LIVE_STORE, job)?;
        let event: Event = serde_json::from_str(&rec.value).ok()?;
        Some(event.to)
    }

    /// Jobs with locally-tracked state.
    pub fn tracked_jobs(&self) -> usize {
        self.db.record_count()
    }

    pub fn cursor(&self) -> u64 {
        self.anchor.get()
    }

    /// Total deltas applied over this subscriber's lifetime.
    pub fn events_applied(&self) -> u64 {
        self.applied.get()
    }

    /// `(connections opened, requests served over a reused connection)`.
    pub fn connection_stats(&self) -> (u64, u64) {
        self.transport.connection_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_simtime::{SimClock, Timestamp};

    /// A socketless transport answering from a canned script, recording the
    /// URLs it was asked for — the seam the 100k-tab bench rides through.
    struct Scripted {
        responses: std::sync::Mutex<Vec<ClientResponse>>,
        urls: std::sync::Mutex<Vec<String>>,
    }

    impl StreamTransport for Scripted {
        fn get(&self, url: &str, _headers: &[(&str, &str)]) -> Result<ClientResponse, String> {
            self.urls.lock().unwrap().push(url.to_string());
            self.responses
                .lock()
                .unwrap()
                .pop()
                .ok_or_else(|| "script exhausted".to_string())
        }
    }

    fn canned(body: &str) -> ClientResponse {
        ClientResponse {
            status: 200,
            headers: Default::default(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn custom_transport_carries_the_full_poll_protocol() {
        let transport = Arc::new(Scripted {
            responses: std::sync::Mutex::new(vec![canned(concat!(
                r#"{"events":[{"account":"physics","at":"1970-01-01T00:00:07","#,
                r#""from":"PENDING","job":"42","reason":null,"reason_message":null,"#,
                r#""seq":7,"to":"RUNNING","to_color":"green","user":"alice"}],"#,
                r#""latest_seq":7,"resync_required":false,"sub":"tab-1"}"#,
            ))]),
            urls: std::sync::Mutex::new(Vec::new()),
        });
        let clock = SimClock::new(Timestamp(0));
        let s = LiveSubscriber::with_transport(
            "http://inproc",
            "alice",
            "tab-1",
            clock.shared(),
            transport.clone(),
        );
        s.anchor_at(3);
        assert_eq!(s.poll(0), Ok(PollOutcome::Events(1)));
        assert_eq!(s.cursor(), 7, "cursor re-anchors at latest_seq");
        assert_eq!(s.job_state("42"), Some("RUNNING".to_string()));
        assert_eq!(s.connection_stats(), (0, 0), "no sockets anywhere");
        let urls = transport.urls.lock().unwrap();
        assert_eq!(
            urls.as_slice(),
            ["http://inproc/api/updates/stream?sub=tab-1&since=3&wait_ms=0"]
        );
    }
}
