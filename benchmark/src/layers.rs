//! The outside-in layer table: per-layer metrics from the traced replay,
//! the probes and the counter differences, and the per-route table that
//! must close against the socket run.

use crate::counters::{per_kreq, scraped_per_kreq, Counters};
use crate::metrics::{CORE_ROUTES, SLURMCLI_COMMANDS};
use crate::replay::{untag, Answer, Verdict};
use crate::runner::Measured;
use crate::schedule::{is_shell, route_id, ROUTES, UPDATES};
use crate::spans::Spans;
use crate::stats::percentile;
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Everything the traced part of a run produced.
pub struct Traced {
    /// Replay spans followed by the probe spans.
    pub spans: Spans,
    pub answers: Vec<Answer>,
    pub traced_wall_ns: u64,
    pub untraced_wall_ns: u64,
}

/// One replayed request with its three stage times.
struct Stage {
    route: u8,
    verdict: Verdict,
    status: u16,
    body_len: u32,
    parse_ns: u64,
    handle_ns: u64,
    serialize_ns: u64,
}

fn stages(t: &Traced) -> Vec<Stage> {
    let recs = &t.spans.recs;
    let requests = recs.iter().enumerate().filter(|(_, r)| r.name == "request");
    requests
        .zip(&t.answers)
        .map(|((i, rec), answer)| {
            // The replay opens exactly these three children, in this order.
            let child = |k: usize, name: &str| {
                let c = &recs[i + k];
                assert!(c.name == name && c.parent == Some(i as u32), "span {name}");
                c.duration_ns()
            };
            let (route, verdict) = untag(rec.tag);
            Stage {
                route,
                verdict,
                status: answer.status,
                body_len: answer.body_len,
                parse_ns: child(1, "http.parse"),
                handle_ns: child(2, "core.handle"),
                serialize_ns: child(3, "http.serialize"),
            }
        })
        .collect()
}

fn mean_of(values: impl Iterator<Item = u64>) -> Option<f64> {
    let (mut sum, mut n) = (0u64, 0u64);
    for v in values {
        sum += v;
        n += 1;
    }
    (n > 0).then(|| sum as f64 / n as f64)
}

fn p50(mut values: Vec<u64>) -> Option<u64> {
    values.sort_unstable();
    percentile(&values, 50.0)
}

/// Too few samples on either side make a median meaningless.
const MIN_ROW_SAMPLES: usize = 5;

/// One row of the closing table: for a route and a status, the socket p50
/// equals the in-process parse + handle + serialize p50s plus the residual.
#[derive(Debug, Clone)]
pub struct Row {
    pub route: &'static str,
    pub status: u16,
    pub socket_n: usize,
    pub replay_n: usize,
    pub socket_p50_us: f64,
    pub parse_p50_us: f64,
    pub handle_p50_us: f64,
    pub serialize_p50_us: f64,
    pub residual_us: f64,
}

impl Row {
    pub fn to_json(&self) -> Value {
        json!({
            "route": self.route,
            "status": self.status,
            "socket_n": self.socket_n,
            "replay_n": self.replay_n,
            "socket_p50_us": self.socket_p50_us,
            "parse_p50_us": self.parse_p50_us,
            "handle_p50_us": self.handle_p50_us,
            "serialize_p50_us": self.serialize_p50_us,
            "wire_residual_us": self.residual_us,
        })
    }
}

fn closing_table(m: &Measured, stages: &[Stage]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (id, route) in ROUTES.iter().enumerate() {
        for status in [200u16, 304] {
            let socket = if status == 200 {
                &m.tail_routes[id].ok_ns
            } else {
                &m.tail_routes[id].not_modified_ns
            };
            let of: Vec<&Stage> = stages
                .iter()
                .filter(|s| s.route as usize == id && s.status == status)
                .collect();
            if socket.len() < MIN_ROW_SAMPLES || of.len() < MIN_ROW_SAMPLES {
                continue;
            }
            let us = |ns: Option<u64>| ns.unwrap_or(0) as f64 / 1e3;
            let socket_sorted: Vec<u64> = socket.iter().map(|v| u64::from(*v)).collect();
            let socket_p50_us = us(percentile(&socket_sorted, 50.0));
            let parse_p50_us = us(p50(of.iter().map(|s| s.parse_ns).collect()));
            let handle_p50_us = us(p50(of.iter().map(|s| s.handle_ns).collect()));
            let serialize_p50_us = us(p50(of.iter().map(|s| s.serialize_ns).collect()));
            rows.push(Row {
                route,
                status,
                socket_n: socket.len(),
                replay_n: of.len(),
                socket_p50_us,
                parse_p50_us,
                handle_p50_us,
                serialize_p50_us,
                residual_us: socket_p50_us - parse_p50_us - handle_p50_us - serialize_p50_us,
            });
        }
    }
    rows
}

/// Every per-layer metric by name. A number the run could not observe (no
/// cache hit on `portal_cold`, an exposition counter that does not exist)
/// reads 0: the contract wants a number for every metric on every run.
pub fn per_layer(
    m: &Measured,
    before: &Counters,
    after: &Counters,
    t: &Traced,
) -> (BTreeMap<String, f64>, Vec<Row>) {
    let stages = stages(t);
    let rows = closing_table(m, &stages);
    let mut out = BTreeMap::new();
    let mut put = |name: &str, v: Option<f64>| {
        out.insert(name.to_string(), v.filter(|x| x.is_finite()).unwrap_or(0.0));
    };
    let span_us = |name: &str| t.spans.mean_ns(name).map(|ns| ns / 1e3);
    let requests = m.requests;

    put("http.parse_us", span_us("http.parse"));
    put("http.serialize_us", span_us("http.serialize"));
    let weight: f64 = rows.iter().map(|r| r.socket_n as f64).sum();
    put(
        "http.wire_residual_us",
        (weight > 0.0).then(|| {
            rows.iter()
                .map(|r| r.residual_us * r.socket_n as f64)
                .sum::<f64>()
                / weight
        }),
    );
    put(
        "http.status_304_share",
        Some(m.not_modified() as f64 / requests.max(1) as f64),
    );
    put(
        "http.wire_bytes_per_req",
        Some(m.wire_bytes as f64 / requests.max(1) as f64),
    );

    let handle_us = |pick: &dyn Fn(&Stage) -> bool| {
        mean_of(stages.iter().filter(|s| pick(s)).map(|s| s.handle_ns)).map(|ns| ns / 1e3)
    };
    put(
        "core.revalidate_us",
        handle_us(&|s| s.verdict == Verdict::Revalidated),
    );
    put("core.shell_us", handle_us(&|s| is_shell(s.route)));
    for (short, pattern) in CORE_ROUTES {
        let id = route_id(pattern);
        put(
            &format!("core.hit_us.{short}"),
            handle_us(&|s| s.route == id && s.verdict == Verdict::Hit),
        );
        put(
            &format!("core.miss_us.{short}"),
            handle_us(&|s| s.route == id && s.verdict == Verdict::Miss),
        );
    }
    put("push.updates_poll_us", handle_us(&|s| s.route == UPDATES));

    // My Jobs, the tail visit: what a miss spends outside slurmcli and the
    // JSON encoder, and what a hit costs per kilobyte served.
    let myjobs = route_id("/api/myjobs");
    let body_kb = |verdict: Verdict| {
        mean_of(
            stages
                .iter()
                .filter(|s| s.route == myjobs && s.verdict == verdict)
                .map(|s| u64::from(s.body_len)),
        )
        .map(|bytes| bytes / 1024.0)
    };
    let json_us_per_kb = span_us("json.to_bytes");
    let probes_us: f64 = [
        "sacct_render",
        "sacct_parse",
        "squeue_render",
        "squeue_parse",
    ]
    .iter()
    .filter_map(|p| span_us(&format!("slurmcli.{p}")))
    .sum();
    put(
        "core.build_residual_us.myjobs",
        handle_us(&|s| s.route == myjobs && s.verdict == Verdict::Miss).map(|miss| {
            miss - probes_us - json_us_per_kb.unwrap_or(0.0) * body_kb(Verdict::Miss).unwrap_or(0.0)
        }),
    );
    put(
        "cache.hit_cost_us_per_kb",
        handle_us(&|s| s.route == myjobs && s.verdict == Verdict::Hit)
            .zip(body_kb(Verdict::Hit))
            .map(|(us, kb)| us / kb),
    );

    let scraped = |name: &str| scraped_per_kreq(before, after, name, requests);
    let widget_requests = scraped("hpcdash_cache_requests_total");
    put(
        "cache.widget_hit_share",
        (widget_requests > 0.0).then(|| scraped("hpcdash_cache_hits_total") / widget_requests),
    );
    put(
        "cache.widget_fills_per_kreq",
        Some(scraped("hpcdash_cache_store_inserts_total")),
    );
    put(
        "cache.expirations_per_kreq",
        Some(scraped("hpcdash_cache_store_expirations_total")),
    );
    put(
        "cache.coalesced_per_kreq",
        Some(scraped("hpcdash_cache_store_coalesced_total")),
    );
    put(
        "federation.fanouts_per_kreq",
        Some(scraped("hpcdash_federation_fanouts_total")),
    );

    for command in SLURMCLI_COMMANDS {
        for stage in ["render", "parse"] {
            put(
                &format!("slurmcli.{command}_{stage}_us"),
                span_us(&format!("slurmcli.{command}_{stage}")),
            );
        }
    }
    let counted = |b: u64, a: u64| Some(per_kreq(b, a, requests));
    put(
        "slurmcli.parse_calls_per_kreq",
        counted(before.parse_calls, after.parse_calls),
    );
    put(
        "slurm.snapshot_load_ns",
        t.spans.mean_ns("slurm.snapshot_load"),
    );
    put(
        "slurm.tick_ms",
        t.spans.mean_ns("slurm.tick").map(|ns| ns / 1e6),
    );
    put(
        "slurm.ctld_rpcs_per_kreq",
        counted(before.ctld_rpcs, after.ctld_rpcs),
    );
    put(
        "slurm.dbd_rpcs_per_kreq",
        counted(before.dbd_rpcs, after.dbd_rpcs),
    );
    put(
        "daemon_rpcs_per_kreq",
        counted(
            before.ctld_rpcs + before.dbd_rpcs,
            after.ctld_rpcs + after.dbd_rpcs,
        ),
    );
    put(
        "slurm.state_locks_per_kreq",
        counted(before.state_locks, after.state_locks),
    );
    put(
        "slurm.rows_scanned_per_kreq",
        counted(before.rows_scanned, after.rows_scanned),
    );

    for name in [
        "restapi.auth",
        "restapi.visible_positions",
        "restapi.jobs_body",
        "restapi.nodes_body",
        "federation.snapshot_merge",
        "telemetry.query_range",
    ] {
        put(&format!("{name}_us"), span_us(name));
    }
    put("obs.span_ns", t.spans.mean_ns("obs.span"));
    put(
        "obs.counter_lookup_inc_ns",
        t.spans.mean_ns("obs.counter_lookup_inc"),
    );
    put(
        "obs.metrics_scrape_ms",
        Some((before.scrape_ms + after.scrape_ms) / 2.0),
    );
    // The json probe counts kilobytes as operations: the mean is per KB.
    for name in ["to_bytes", "clone", "parse"] {
        put(
            &format!("json.{name}_us_per_kb"),
            span_us(&format!("json.{name}")),
        );
    }
    put(
        "trace.overhead_share",
        (t.untraced_wall_ns > 0).then(|| {
            (t.traced_wall_ns as f64 - t.untraced_wall_ns as f64) / t.untraced_wall_ns as f64
        }),
    );
    (out, rows)
}
