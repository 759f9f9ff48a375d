//! One simulated browser tab.

use hpcdash_cache::body::Degradation;
use hpcdash_cache::IndexedDb;
use hpcdash_http::{HttpClient, TRACE_HEADER};
use hpcdash_obs::trace::TraceScope;
use hpcdash_obs::{Span, TraceId};
use hpcdash_simtime::SharedClock;
use parking_lot::Mutex;
use serde::Deserialize;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Where the rendered data came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// Served from the client cache, still fresh — no network traffic.
    CacheFresh,
    /// Stale cache rendered instantly, then revalidated over the network.
    StaleRevalidated,
    /// Cache miss: the user waited for the network.
    Network,
    /// A conditional request (`If-None-Match` from the last seen ETag) the
    /// server answered `304 Not Modified`: a round trip happened, but no
    /// body crossed the wire — the validator-cached copy rendered.
    NotModified,
    /// The revalidation failed (network error, 5xx, or a server payload
    /// already marked degraded): the client kept rendering its own
    /// last-known-good copy instead of going blank.
    StaleOnError,
}

/// One component fetch as the user experienced it.
#[derive(Debug, Clone)]
pub struct FetchResult {
    /// The answer's body text, as rendered; [`FetchResult::decode`] reads it
    /// as the route's payload type.
    pub value: String,
    pub outcome: FetchOutcome,
    /// Time until the component had data to render.
    pub perceived: Duration,
    /// Time spent on the network (zero for fresh cache hits).
    pub network: Duration,
    /// The end-to-end trace id, when a network request was made (`None` for
    /// fresh cache hits — no request, no trace). Look the hops up in
    /// `hpcdash_obs::tracestore::store()`.
    pub trace: Option<TraceId>,
}

impl FetchResult {
    /// The body as the route's payload type.
    pub fn decode<T: Deserialize>(&self) -> Result<T, String> {
        serde_json::from_str(&self.value).map_err(|e| e.to_string())
    }

    /// The degradation the server declared, if it served this body stale.
    pub fn degradation(&self) -> Option<Degradation> {
        Degradation::of(self.value.as_bytes())
    }
}

/// A full homepage load.
#[derive(Debug)]
pub struct PageLoad {
    /// Time to receive the HTML shell.
    pub ttfb: Duration,
    /// Per-widget results, in render order.
    pub widgets: Vec<(String, Result<FetchResult, String>)>,
    /// Time until every widget had data.
    pub total: Duration,
}

impl PageLoad {
    /// How many widgets rendered successfully.
    pub fn healthy_widgets(&self) -> usize {
        self.widgets.iter().filter(|(_, r)| r.is_ok()).count()
    }
}

/// True when the server declared this body degraded: a stale fallback
/// from the resilience layer's serve-stale-on-error, or a federation
/// aggregate with a dark or stale slice.
fn is_degraded(body: &str) -> bool {
    Degradation::of(body.as_bytes()).is_some()
}

/// A headless dashboard client for one user.
pub struct DashboardClient {
    http: HttpClient,
    base_url: String,
    user: String,
    db: IndexedDb,
    clock: SharedClock,
    /// Client-cache freshness horizon (seconds); `None` disables the client
    /// cache entirely (the no-client-cache ablation).
    fresh_secs: Option<u64>,
    /// API token secret sent as `Authorization: Bearer` on every API
    /// request; the `/slurm/v0` family authenticates with this instead of
    /// `X-Remote-User`.
    bearer: Option<String>,
    network_fetches: std::sync::atomic::AtomicU64,
    /// Last seen strong validator per path: `(etag, body)`. Requests send
    /// `If-None-Match: <etag>`; a `304 Not Modified` renders the stored
    /// body without a byte of payload crossing the wire.
    validators: Mutex<HashMap<String, (String, String)>>,
    not_modified: std::sync::atomic::AtomicU64,
}

impl DashboardClient {
    pub fn new(
        base_url: &str,
        user: &str,
        clock: SharedClock,
        fresh_secs: Option<u64>,
    ) -> DashboardClient {
        DashboardClient {
            http: HttpClient::new(),
            base_url: base_url.trim_end_matches('/').to_string(),
            user: user.to_string(),
            db: IndexedDb::new(),
            clock,
            fresh_secs,
            bearer: None,
            network_fetches: std::sync::atomic::AtomicU64::new(0),
            validators: Mutex::new(HashMap::new()),
            not_modified: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Attach an API token: subsequent requests carry
    /// `Authorization: Bearer <secret>` alongside the proxy identity.
    pub(crate) fn with_bearer(mut self, secret: &str) -> DashboardClient {
        self.bearer = Some(secret.to_string());
        self
    }

    /// Reuse one TCP connection across requests (HTTP/1.1 keep-alive)
    /// instead of a fresh connect per fetch — how a real browser behaves.
    pub(crate) fn with_keep_alive(mut self) -> DashboardClient {
        self.http = HttpClient::keep_alive();
        self
    }

    pub fn user(&self) -> &str {
        &self.user
    }

    /// Total requests that actually reached the backend.
    pub fn network_fetch_count(&self) -> u64 {
        self.network_fetches
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// How many of those requests the server answered `304 Not Modified`
    /// (a round trip with no body — the ETag revalidation fast path).
    pub(crate) fn not_modified_count(&self) -> u64 {
        self.not_modified.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// `(connections opened, requests served over a reused connection)` for
    /// this client's transport. Both zero for a one-shot (non-keep-alive)
    /// client.
    pub fn connection_stats(&self) -> (u64, u64) {
        self.http.connection_stats()
    }

    /// Fetch an API route through the client cache, mirroring the frontend
    /// logic in `assets/cachedb.js`.
    pub fn fetch_api(&self, path: &str) -> Result<FetchResult, String> {
        let now = self.clock.now();
        if let Some(fresh_secs) = self.fresh_secs {
            if let Some(rec) = self.db.get("api", path) {
                let start = Instant::now();
                let value = rec.value.clone();
                let perceived = start.elapsed();
                if rec.fresh(now, fresh_secs) {
                    return Ok(FetchResult {
                        value,
                        outcome: FetchOutcome::CacheFresh,
                        perceived,
                        network: Duration::ZERO,
                        trace: None,
                    });
                }
                // Stale: the user already sees the cached data; refresh in
                // the "background" (synchronously here, but not counted
                // toward perceived latency). A failed refresh — or one the
                // server itself marked degraded — keeps our copy on screen
                // and in the store: serve-stale-on-error, client edition.
                return Ok(match self.network_get(path) {
                    Ok((fresh_value, network, trace, _not_modified))
                        if !is_degraded(&fresh_value) =>
                    {
                        self.db.put("api", path, fresh_value, now);
                        FetchResult {
                            value,
                            outcome: FetchOutcome::StaleRevalidated,
                            perceived,
                            network,
                            trace: Some(trace),
                        }
                    }
                    Ok((_degraded, network, trace, _)) => FetchResult {
                        value,
                        outcome: FetchOutcome::StaleOnError,
                        perceived,
                        network,
                        trace: Some(trace),
                    },
                    Err(_) => FetchResult {
                        value,
                        outcome: FetchOutcome::StaleOnError,
                        perceived,
                        network: Duration::ZERO,
                        trace: None,
                    },
                });
            }
        }
        let start = Instant::now();
        let (value, network, trace, not_modified) = self.network_get(path)?;
        let perceived = start.elapsed();
        // Degraded payloads render but are never stored: adopting the
        // server's stale fallback would launder old data into a "fresh"
        // client entry.
        if self.fresh_secs.is_some() && !is_degraded(&value) {
            self.db.put("api", path, value.clone(), now);
        }
        Ok(FetchResult {
            value,
            outcome: if not_modified {
                FetchOutcome::NotModified
            } else {
                FetchOutcome::Network
            },
            perceived,
            network,
            trace: Some(trace),
        })
    }

    /// One wire request. Each request starts a fresh trace: the id rides the
    /// `X-Trace-Id` header to the server, so the "client" span recorded here
    /// and the server-side hops land under the same trace in the trace store.
    fn network_get(&self, path: &str) -> Result<(String, Duration, TraceId, bool), String> {
        let trace = TraceId::generate();
        let _scope = TraceScope::enter(trace);
        let _span = Span::enter("client").attr("path", path);
        let trace_hex = trace.to_hex();
        let start = Instant::now();
        self.network_fetches
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let validator = self.validators.lock().get(path).cloned();
        let mut headers: Vec<(&str, &str)> =
            vec![("X-Remote-User", &self.user), (TRACE_HEADER, &trace_hex)];
        let auth = self.bearer.as_ref().map(|s| format!("Bearer {s}"));
        if let Some(auth) = &auth {
            headers.push(("Authorization", auth));
        }
        if let Some((etag, _)) = &validator {
            headers.push(("If-None-Match", etag));
        }
        let resp = self
            .http
            .get(&format!("{}{}", self.base_url, path), &headers)
            .map_err(|e| e.to_string())?;
        let elapsed = start.elapsed();
        if resp.status == 304 {
            // Our copy is still current; render it.
            if let Some((_, body)) = validator {
                self.not_modified
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return Ok((body, elapsed, trace, true));
            }
            return Err(format!("{path} -> HTTP 304 without a stored validator"));
        }
        if !resp.is_success() {
            return Err(format!("{} -> HTTP {}", path, resp.status));
        }
        let etag = resp.header("etag").map(str::to_string);
        let value = String::from_utf8(resp.body).map_err(|e| format!("{path}: {e}"))?;
        match etag {
            Some(etag) => {
                self.validators
                    .lock()
                    .insert(path.to_string(), (etag, value.clone()));
            }
            None => {
                self.validators.lock().remove(path);
            }
        }
        Ok((value, elapsed, trace, false))
    }

    /// Fetch a page shell (HTML), returning time-to-first-byte.
    pub fn fetch_shell(&self, path: &str) -> Result<(String, Duration), String> {
        let start = Instant::now();
        let resp = self
            .http
            .get(
                &format!("{}{}", self.base_url, path),
                &[("X-Remote-User", &self.user)],
            )
            .map_err(|e| e.to_string())?;
        let ttfb = start.elapsed();
        if !resp.is_success() {
            return Err(format!("{} -> HTTP {}", path, resp.status));
        }
        Ok((resp.body_string(), ttfb))
    }

    /// Load the homepage the way a browser does: shell first, then every
    /// widget's API route.
    pub fn load_homepage(&self) -> Result<PageLoad, String> {
        let start = Instant::now();
        let (_shell, ttfb) = self.fetch_shell("/")?;
        let widget_routes = [
            ("announcements", "/api/announcements"),
            ("recent_jobs", "/api/recent_jobs"),
            ("system_status", "/api/system_status"),
            ("accounts", "/api/accounts"),
            ("storage", "/api/storage"),
        ];
        let widgets = widget_routes
            .iter()
            .map(|(name, path)| (name.to_string(), self.fetch_api(path)))
            .collect();
        Ok(PageLoad {
            ttfb,
            widgets,
            total: start.elapsed(),
        })
    }

    /// Export / import the cache (persistence across "sessions").
    pub fn export_cache(&self) -> String {
        self.db.export_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_core::{Dashboard, DashboardConfig, DashboardContext};
    use hpcdash_news::NewsFeed;
    use hpcdash_simtime::{SimClock, Timestamp};
    use hpcdash_slurm::assoc::{Account, AssocStore};
    use hpcdash_slurm::cluster::ClusterSpec;
    use hpcdash_slurm::ctld::Slurmctld;
    use hpcdash_slurm::dbd::Slurmdbd;
    use hpcdash_slurm::joblog::JobLogFs;
    use hpcdash_slurm::loadmodel::RpcCostModel;
    use hpcdash_slurm::node::Node;
    use hpcdash_slurm::partition::Partition;
    use hpcdash_slurm::qos::Qos;
    use hpcdash_storage::StorageDb;
    use std::sync::Arc;

    fn test_site() -> (hpcdash_http::Server, SimClock, Arc<StorageDb>) {
        let clock = SimClock::new(Timestamp(1_000));
        let mut assoc = AssocStore::new();
        assoc.add_account(Account::new("physics"));
        assoc.add_user("physics", "alice");
        let nodes = vec![Node::new("a001", 16, 64_000, 0)];
        let spec = ClusterSpec {
            name: "t".to_string(),
            nodes,
            partitions: vec![Partition::new("cpu").with_nodes(vec!["a001".to_string()])],
            qos: Qos::standard_set(),
            assoc,
        };
        let dbd = Arc::new(Slurmdbd::with_cost(RpcCostModel::free()));
        let logs = Arc::new(JobLogFs::new());
        let ctld = Arc::new(Slurmctld::with_cost(
            spec,
            clock.shared(),
            dbd.clone(),
            logs.clone(),
            RpcCostModel::free(),
        ));
        let storage = Arc::new(StorageDb::with_cost(std::time::Duration::ZERO));
        storage.provision_user("alice", Timestamp(1_000));
        let ctx = DashboardContext::new(
            DashboardConfig::generic("Test"),
            clock.shared(),
            ctld,
            dbd,
            logs,
            storage.clone(),
            Arc::new(NewsFeed::new()),
        );
        let dash = Dashboard::new(ctx);
        let server = dash.serve("127.0.0.1:0", 4).unwrap();
        // Keep the dashboard alive as long as the server: leak it (tests).
        std::mem::forget(dash);
        (server, clock, storage)
    }

    #[test]
    fn cold_load_then_warm_load() {
        let (server, _clock, _storage) = test_site();
        let clock2 = SimClock::new(Timestamp(1_000));
        let client = DashboardClient::new(&server.base_url(), "alice", clock2.shared(), Some(30));
        let cold = client.load_homepage().unwrap();
        assert_eq!(cold.healthy_widgets(), 5);
        assert!(cold
            .widgets
            .iter()
            .all(|(_, r)| r.as_ref().unwrap().outcome == FetchOutcome::Network));
        let cold_fetches = client.network_fetch_count();

        let warm = client.load_homepage().unwrap();
        assert!(warm
            .widgets
            .iter()
            .all(|(_, r)| r.as_ref().unwrap().outcome == FetchOutcome::CacheFresh));
        // No new API traffic, only the shell.
        assert_eq!(client.network_fetch_count(), cold_fetches);
        assert!(
            warm.total < cold.total * 10,
            "warm load not absurdly slower"
        );
    }

    #[test]
    fn stale_entries_revalidate() {
        let (server, _server_clock, _storage) = test_site();
        let clock = SimClock::new(Timestamp(1_000));
        let client = DashboardClient::new(&server.base_url(), "alice", clock.shared(), Some(30));
        client.fetch_api("/api/system_status").unwrap();
        clock.advance(31);
        let r = client.fetch_api("/api/system_status").unwrap();
        assert_eq!(r.outcome, FetchOutcome::StaleRevalidated);
        assert!(r.network > Duration::ZERO);
        // Now fresh again.
        let r = client.fetch_api("/api/system_status").unwrap();
        assert_eq!(r.outcome, FetchOutcome::CacheFresh);
    }

    #[test]
    fn disabled_cache_always_hits_network() {
        let (server, _clock, _storage) = test_site();
        let clock = SimClock::new(Timestamp(1_000));
        let client = DashboardClient::new(&server.base_url(), "alice", clock.shared(), None);
        // First fetch pays for the body and learns the ETag; repeats still
        // hit the network but come back 304 from the server cache.
        let r = client.fetch_api("/api/system_status").unwrap();
        assert_eq!(r.outcome, FetchOutcome::Network);
        let first = r.value;
        for _ in 0..2 {
            let r = client.fetch_api("/api/system_status").unwrap();
            assert_eq!(r.outcome, FetchOutcome::NotModified);
            assert_eq!(r.value, first, "validator copy renders on 304");
        }
        assert_eq!(client.network_fetch_count(), 3);
        assert_eq!(client.not_modified_count(), 2);
    }

    #[test]
    fn keep_alive_client_reuses_its_connection() {
        let (server, _clock, _storage) = test_site();
        let clock = SimClock::new(Timestamp(1_000));
        let client = DashboardClient::new(&server.base_url(), "alice", clock.shared(), None)
            .with_keep_alive();
        for _ in 0..4 {
            client.fetch_api("/api/system_status").unwrap();
        }
        let (opened, reused) = client.connection_stats();
        assert_eq!(opened, 1, "one TCP connection for the whole session");
        assert_eq!(reused, 3);
    }

    #[test]
    fn errors_are_reported_not_cached() {
        let (server, _clock, _storage) = test_site();
        let clock = SimClock::new(Timestamp(1_000));
        let client = DashboardClient::new(&server.base_url(), "alice", clock.shared(), Some(30));
        let err = client.fetch_api("/api/nodes/zzz").unwrap_err();
        assert!(err.contains("404"), "{err}");
        // A 404 was not cached as data.
        assert!(client.db.get("api", "/api/nodes/zzz").is_none());
    }

    #[test]
    fn unreachable_server_serves_the_client_copy() {
        let (server, _clock, _storage) = test_site();
        let clock = SimClock::new(Timestamp(1_000));
        let client = DashboardClient::new(&server.base_url(), "alice", clock.shared(), Some(30));
        let first = client.fetch_api("/api/storage").unwrap();
        clock.advance(31);
        drop(server);
        let r = client.fetch_api("/api/storage").unwrap();
        assert_eq!(r.outcome, FetchOutcome::StaleOnError);
        assert_eq!(r.value, first.value, "last-known-good copy rendered");
        // The copy survives for the next outage-era fetch too.
        let r = client.fetch_api("/api/storage").unwrap();
        assert_eq!(r.outcome, FetchOutcome::StaleOnError);
    }

    #[test]
    fn degraded_server_payloads_render_but_are_never_stored() {
        let (server, server_clock, storage) = test_site();
        let clock = SimClock::new(Timestamp(1_000));
        let client = DashboardClient::new(&server.base_url(), "alice", clock.shared(), Some(30));
        client.fetch_api("/api/storage").unwrap();
        // Both clocks pass the TTLs; then the backend dies. The server falls
        // back to its last-known-good copy, annotated "degraded".
        server_clock.advance(601);
        clock.advance(31);
        storage.set_available(false);
        let r = client.fetch_api("/api/storage").unwrap();
        assert_eq!(r.outcome, FetchOutcome::StaleOnError);
        let stored = client.db.get("api", "/api/storage").unwrap();
        assert!(
            Degradation::of(stored.value.as_bytes()).is_none(),
            "the degraded payload must not overwrite the client's own copy"
        );
    }
}
