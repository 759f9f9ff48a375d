//! Path routing with `:param` captures, panic isolation, and per-route
//! observability (trace propagation + request metrics).

use crate::request::{Method, Request};
use crate::response::Response;
use hpcdash_obs::trace::{Span, TraceId, TraceScope};
use hpcdash_obs::{tracestore, Counter, Histogram, Registry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

/// The header carrying the request's trace id end to end.
pub const TRACE_HEADER: &str = "X-Trace-Id";

type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Seg {
    Literal(String),
    Param(String),
}

struct Route {
    method: Method,
    pattern: String,
    segments: Vec<Seg>,
    handler: Handler,
    /// Metric handles resolved once per route instead of per request —
    /// registry lookups (lock + label-key allocation) are too expensive
    /// for the revalidation fast path.
    metrics: RouteMetrics,
}

/// Lazily-resolved per-route instrument handles. Each series is created on
/// first use, matching the registry's on-demand semantics (a class or 304
/// counter appears in `/api/metrics` only once it has fired).
#[derive(Default)]
struct RouteMetrics {
    requests: OnceLock<Arc<Counter>>,
    latency: OnceLock<Arc<Histogram>>,
    /// One per status class: 2xx, 3xx, 4xx, 5xx.
    responses: [OnceLock<Arc<Counter>>; 4],
    not_modified: OnceLock<Arc<Counter>>,
}

impl RouteMetrics {
    /// Count one dispatch and observe its latency. A traced dispatch also
    /// becomes the latency bucket's exemplar, on this router's own
    /// histogram: the dashboard that served the request is the one whose
    /// SLO board links to its trace.
    fn record(
        &self,
        reg: &Arc<Registry>,
        pattern: &str,
        status: u16,
        elapsed: std::time::Duration,
        trace: Option<TraceId>,
    ) {
        let labels = [("route", pattern)];
        self.requests
            .get_or_init(|| reg.counter("hpcdash_http_requests_total", &labels))
            .inc();
        let (ix, class) = match status {
            200..=299 => (0, "2xx"),
            300..=399 => (1, "3xx"),
            400..=499 => (2, "4xx"),
            _ => (3, "5xx"),
        };
        self.responses[ix]
            .get_or_init(|| {
                reg.counter(
                    "hpcdash_http_responses_total",
                    &[("route", pattern), ("class", class)],
                )
            })
            .inc();
        if status == 304 {
            self.not_modified
                .get_or_init(|| reg.counter("hpcdash_http_304_total", &labels))
                .inc();
        }
        let latency = self
            .latency
            .get_or_init(|| reg.histogram("hpcdash_http_request_latency", &labels));
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        latency.observe_ns(ns);
        if let Some(id) = trace {
            latency.set_exemplar(ns, id);
        }
    }
}

/// The route table. Each dashboard component registers exactly one route
/// here — the paper's "one component, one API route" modularity rule.
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
    /// When set, every dispatch records per-route request counts and
    /// latency histograms here (labelled by route *pattern*, so parameter
    /// values cannot blow up metric cardinality).
    registry: Option<Arc<Registry>>,
    /// Shared instrument handles for unmatched requests (all 404s share
    /// one label so unknown paths can't blow up metric cardinality).
    unmatched_metrics: RouteMetrics,
}

impl Router {
    pub fn new() -> Router {
        Router::default()
    }

    /// Attach a metrics registry; dispatches are unmetered without one.
    pub fn set_registry(&mut self, registry: Arc<Registry>) {
        self.registry = Some(registry);
    }

    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    pub fn get(
        &mut self,
        pattern: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> &mut Router {
        self.add(Method::Get, pattern, handler)
    }

    pub fn post(
        &mut self,
        pattern: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> &mut Router {
        self.add(Method::Post, pattern, handler)
    }

    pub fn add(
        &mut self,
        method: Method,
        pattern: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> &mut Router {
        self.routes.push(Route {
            method,
            pattern: pattern.to_string(),
            segments: parse_pattern(pattern),
            handler: Arc::new(handler),
            metrics: RouteMetrics::default(),
        });
        self
    }

    /// Registered `(method, pattern)` pairs, for the Table-1 harness.
    pub fn route_patterns(&self) -> Vec<(Method, String)> {
        self.routes
            .iter()
            .map(|r| {
                let pattern: Vec<String> = r
                    .segments
                    .iter()
                    .map(|s| match s {
                        Seg::Literal(l) => l.clone(),
                        Seg::Param(p) => format!(":{p}"),
                    })
                    .collect();
                (r.method, format!("/{}", pattern.join("/")))
            })
            .collect()
    }

    /// Dispatch a request. Unmatched paths get 404; a panicking handler is
    /// contained and answered with 500, so one broken component cannot take
    /// the dashboard down.
    ///
    /// If the request carries an `X-Trace-Id` header, the id becomes the
    /// current trace for the duration of the dispatch (the client's trace
    /// continues on this worker thread) and is echoed on the response.
    /// With a registry attached, per-route request counts and latency land
    /// in `hpcdash_http_requests_total` / `hpcdash_http_request_latency`,
    /// and a traced request is that latency bucket's exemplar.
    pub fn handle(&self, req: &Request) -> Response {
        let trace = req.header(TRACE_HEADER).and_then(TraceId::from_hex);
        let _scope = trace.map(TraceScope::enter);
        let start = std::time::Instant::now();
        let (route, mut resp) = self.dispatch(req);
        if let Some(reg) = &self.registry {
            match route {
                Some(route) => {
                    route
                        .metrics
                        .record(reg, &route.pattern, resp.status, start.elapsed(), trace);
                }
                None => {
                    self.unmatched_metrics.record(
                        reg,
                        "unmatched",
                        resp.status,
                        start.elapsed(),
                        trace,
                    );
                }
            }
        }
        if let Some(id) = trace {
            resp = resp.with_header(TRACE_HEADER, &id.to_hex());
        }
        resp
    }

    /// The inner match-and-invoke, returning the matched route for metric
    /// labelling by pattern (parameter values never become labels).
    fn dispatch(&self, req: &Request) -> (Option<&Route>, Response) {
        let path_segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        for route in &self.routes {
            // HEAD falls through to the GET route; the wire layer strips
            // the body at serialization time.
            let method_matches = route.method == req.method
                || (req.method == Method::Head && route.method == Method::Get);
            if !method_matches {
                continue;
            }
            if let Some(params) = match_segments(&route.segments, &path_segs) {
                let _span = Span::enter("route").attr("route", &route.pattern);
                // Cloning the request is only needed to attach captured
                // params; parameterless routes (the hot polling paths)
                // dispatch borrow-only.
                let resp = if params.is_empty() {
                    self.run_route(route, req)
                } else {
                    let mut req = req.clone();
                    req.params = params;
                    self.run_route(route, &req)
                };
                // Tail-sampling retention needs the route and final status
                // noted before the root span closes (which may be this
                // route span, for in-process dispatch).
                tracestore::annotate("route", &route.pattern);
                tracestore::annotate("status", resp.status);
                return (Some(route), resp);
            }
        }
        tracestore::annotate("route", "unmatched");
        tracestore::annotate("status", "404");
        (
            None,
            Response::not_found(&format!(
                "no route for {} {}",
                req.method.as_str(),
                req.path
            )),
        )
    }
}

impl Router {
    /// Run one matched route: the panic-isolated handler call, then the
    /// conditional-GET step — a 200 whose `ETag` the client already holds
    /// (`If-None-Match`) goes out as a 304: same validator, no body.
    fn run_route(&self, route: &Route, req: &Request) -> Response {
        let mut resp = self.invoke(route, req);
        let revalidated = resp.status == 200
            && req
                .header("if-none-match")
                .zip(resp.header("etag"))
                .is_some_and(|(inm, etag)| inm_matches(inm, etag));
        if revalidated {
            // Rewritten in place rather than rebuilt: this is the hottest
            // path a polling tab takes.
            resp.status = 304;
            resp.headers
                .retain(|name, _| name.eq_ignore_ascii_case("etag"));
            resp.body = Default::default();
        }
        resp
    }

    fn invoke(&self, route: &Route, req: &Request) -> Response {
        match catch_unwind(AssertUnwindSafe(|| (route.handler)(req))) {
            Ok(resp) => resp,
            Err(_) => Response::internal_error("component failed"),
        }
    }
}

/// Does an `If-None-Match` header value match this entity tag? Handles the
/// comma-separated list form; weak validators are not used by this stack.
fn inm_matches(header: &str, etag: &str) -> bool {
    header.split(',').any(|t| {
        let t = t.trim();
        t == etag || t == "*"
    })
}

fn parse_pattern(pattern: &str) -> Vec<Seg> {
    pattern
        .split('/')
        .filter(|s| !s.is_empty())
        .map(|s| match s.strip_prefix(':') {
            Some(name) => Seg::Param(name.to_string()),
            None => Seg::Literal(s.to_string()),
        })
        .collect()
}

fn match_segments(
    pattern: &[Seg],
    path: &[&str],
) -> Option<std::collections::BTreeMap<String, String>> {
    if pattern.len() != path.len() {
        return None;
    }
    let mut params = std::collections::BTreeMap::new();
    for (seg, part) in pattern.iter().zip(path) {
        match seg {
            Seg::Literal(l) if l == part => {}
            Seg::Literal(_) => return None,
            Seg::Param(name) => {
                params.insert(name.clone(), crate::request::urldecode(part));
            }
        }
    }
    Some(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn router() -> Router {
        let mut r = Router::new();
        r.get("/api/jobs", |_| Response::json(&json!({"route": "jobs"})));
        r.get("/api/jobs/:id", |req| {
            Response::json(&json!({"id": req.param("id").unwrap()}))
        });
        r.get("/api/nodes/:name/jobs", |req| {
            Response::json(&json!({"node": req.param("name").unwrap()}))
        });
        r.post("/api/jobs", |_| Response::new(201));
        r.get("/api/broken", |_| panic!("widget exploded"));
        r
    }

    #[test]
    fn literal_match() {
        let r = router();
        let resp = r.handle(&Request::new(Method::Get, "/api/jobs"));
        assert_eq!(resp.body_json().unwrap()["route"], "jobs");
    }

    #[test]
    fn param_capture() {
        let r = router();
        let resp = r.handle(&Request::new(Method::Get, "/api/jobs/1234"));
        assert_eq!(resp.body_json().unwrap()["id"], "1234");
        let resp = r.handle(&Request::new(Method::Get, "/api/nodes/a001/jobs"));
        assert_eq!(resp.body_json().unwrap()["node"], "a001");
    }

    #[test]
    fn method_disambiguates() {
        let r = router();
        assert_eq!(
            r.handle(&Request::new(Method::Post, "/api/jobs")).status,
            201
        );
        assert_eq!(
            r.handle(&Request::new(Method::Put, "/api/jobs")).status,
            404
        );
    }

    #[test]
    fn no_match_is_404() {
        let r = router();
        assert_eq!(
            r.handle(&Request::new(Method::Get, "/api/nope")).status,
            404
        );
        assert_eq!(
            r.handle(&Request::new(Method::Get, "/api/jobs/1/extra"))
                .status,
            404
        );
        assert_eq!(r.handle(&Request::new(Method::Get, "/")).status, 404);
    }

    #[test]
    fn panicking_handler_contained() {
        let r = router();
        let resp = r.handle(&Request::new(Method::Get, "/api/broken"));
        assert_eq!(resp.status, 500);
        // The router still works afterwards.
        assert_eq!(
            r.handle(&Request::new(Method::Get, "/api/jobs")).status,
            200
        );
    }

    #[test]
    fn trailing_slash_equivalence() {
        let r = router();
        assert_eq!(
            r.handle(&Request::new(Method::Get, "/api/jobs/")).status,
            200
        );
    }

    #[test]
    fn params_are_urldecoded() {
        let r = router();
        let resp = r.handle(&Request::new(Method::Get, "/api/nodes/a%20b/jobs"));
        assert_eq!(resp.body_json().unwrap()["node"], "a b");
    }

    #[test]
    fn route_patterns_listed() {
        let r = router();
        let patterns = r.route_patterns();
        assert!(patterns.contains(&(Method::Get, "/api/jobs/:id".to_string())));
        assert_eq!(patterns.len(), 5);
    }

    #[test]
    fn metrics_label_by_pattern_not_path() {
        let mut r = router();
        let reg = Arc::new(Registry::new());
        r.set_registry(reg.clone());
        r.handle(&Request::new(Method::Get, "/api/jobs/1"));
        r.handle(&Request::new(Method::Get, "/api/jobs/2"));
        r.handle(&Request::new(Method::Get, "/api/nope"));
        let by_pattern = reg.counter("hpcdash_http_requests_total", &[("route", "/api/jobs/:id")]);
        assert_eq!(by_pattern.get(), 2, "both ids fold into one route label");
        let unmatched = reg.counter("hpcdash_http_requests_total", &[("route", "unmatched")]);
        assert_eq!(unmatched.get(), 1);
        let latency = reg.histogram(
            "hpcdash_http_request_latency",
            &[("route", "/api/jobs/:id")],
        );
        assert_eq!(latency.count(), 2);
        let notfound = reg.counter(
            "hpcdash_http_responses_total",
            &[("route", "unmatched"), ("class", "4xx")],
        );
        assert_eq!(notfound.get(), 1);
    }

    #[test]
    fn a_traced_request_is_its_route_latency_exemplar() {
        let mut r = router();
        let reg = Arc::new(Registry::new());
        r.set_registry(reg.clone());
        let latency = reg.histogram("hpcdash_http_request_latency", &[("route", "/api/jobs")]);
        r.handle(&Request::new(Method::Get, "/api/jobs"));
        assert_eq!(
            latency.quantile_exemplar(0.99),
            None,
            "untraced: no exemplar"
        );

        let id = TraceId::generate();
        let traced = Request::new(Method::Get, "/api/jobs").with_header(TRACE_HEADER, &id.to_hex());
        r.handle(&traced);
        assert_eq!(latency.quantile_exemplar(0.99), Some(id));
        // In-process, the route span is the trace's root: by the time the
        // exemplar is readable, the store holds the trace it names.
        let stored = tracestore::store()
            .get(id)
            .expect("exemplar resolves in the store");
        assert_eq!(stored.route.as_deref(), Some("/api/jobs"));
    }

    #[test]
    fn head_reuses_get_routes() {
        let r = router();
        let resp = r.handle(&Request::new(Method::Head, "/api/jobs"));
        assert_eq!(resp.status, 200, "HEAD matched the GET route");
        // The wire layer is what strips the body; in-process it's intact.
        assert!(!resp.body.is_empty());
    }

    #[test]
    fn conditional_get_answers_304_only_for_a_matching_etag() {
        let mut r = Router::new();
        r.get("/api/tagged", |_| {
            Response::json(&json!({"payload": "big"})).with_header("ETag", "\"abc\"")
        });
        r.get("/api/untagged", |_| {
            Response::json(&json!({"payload": "big"}))
        });
        r.get("/api/gone", |_| {
            Response::not_found("nope").with_header("ETag", "\"abc\"")
        });
        let get = |path: &str, inm: Option<&str>| {
            let mut req = Request::new(Method::Get, path);
            if let Some(inm) = inm {
                req = req.with_header("If-None-Match", inm);
            }
            r.handle(&req)
        };

        let plain = get("/api/tagged", None);
        assert_eq!(plain.status, 200);
        assert_eq!(plain.header("etag"), Some("\"abc\""));

        let revalidated = get("/api/tagged", Some("\"abc\""));
        assert_eq!(revalidated.status, 304);
        assert_eq!(revalidated.header("etag"), Some("\"abc\""));
        assert!(revalidated.body.is_empty(), "a 304 carries no body");
        // The list form and `*` match too; a different tag does not.
        assert_eq!(get("/api/tagged", Some("\"x\", \"abc\"")).status, 304);
        assert_eq!(get("/api/tagged", Some("*")).status, 304);
        assert_eq!(get("/api/tagged", Some("\"other\"")).status, 200);

        // No validator on the response, or not a 200: never a 304.
        assert_eq!(get("/api/untagged", Some("*")).status, 200);
        assert_eq!(get("/api/gone", Some("\"abc\"")).status, 404);
    }

    #[test]
    fn trace_id_flows_through_dispatch_and_echoes() {
        let r = router();
        let id = TraceId::generate();
        let req = Request::new(Method::Get, "/api/jobs").with_header(TRACE_HEADER, &id.to_hex());
        let resp = r.handle(&req);
        assert_eq!(resp.header("x-trace-id"), Some(id.to_hex().as_str()));
        let spans = hpcdash_obs::tracestore::store()
            .get(id)
            .expect("trace stored")
            .spans;
        assert_eq!(spans.len(), 1, "one route span under this trace");
        assert_eq!(spans[0].name, "route");
        assert_eq!(spans[0].attr("route"), Some("/api/jobs"));
        // Dispatch without the header records no trace-bound span.
        let resp = r.handle(&Request::new(Method::Get, "/api/jobs"));
        assert!(resp.header("x-trace-id").is_none());
    }
}
