//! The exposition bytes of a fixed registry, pinned: counters, gauges and
//! summaries (one with an exemplar, one empty), labels given out of order,
//! an escaped label value, collector samples that interleave with the
//! instruments, and two samples of one key.

use hpcdash_obs::expo::{scrape_json, scrape_text};
use hpcdash_obs::{Registry, TraceId};

fn fixed_registry() -> Registry {
    let reg = Registry::new();
    reg.counter(
        "hpcdash_http_requests_total",
        &[("route", "/api/jobs"), ("class", "2xx")],
    )
    .add(5);
    reg.counter(
        "hpcdash_http_requests_total",
        &[("class", "5xx"), ("route", "/api/jobs")],
    )
    .add(2);
    reg.counter("hpcdash_zeta_total", &[]).inc();
    reg.gauge("hpcdash_sched_queue_depth", &[]).set(-3);
    reg.gauge("hpcdash_http_connections", &[("state", "idle")])
        .set(4);
    let h = reg.histogram("hpcdash_http_request_latency", &[("route", "/api/jobs")]);
    for ns in [900u64, 3_000, 48_000, 2_500_000, 75_000_000] {
        h.observe_ns(ns);
    }
    h.set_exemplar(75_000_000, TraceId(0xabc));
    reg.histogram("hpcdash_http_request_latency", &[("route", "/empty")]);
    reg.register_collector(|out| {
        out.counter("hpcdash_slurmctld_rpc_total", &[("kind", "squeue")], 7);
        out.counter("hpcdash_slurmctld_rpc_total", &[("kind", "sacct")], 9);
        out.gauge(
            "hpcdash_slurmctld_rpc_latency_ns",
            &[("quantile", "0.5")],
            1200,
        );
        out.counter(
            "hpcdash_tick_phase_ns_total",
            &[("phase", "sched_pass"), ("daemon", "slurmctld")],
            42,
        );
        out.counter("hpcdash_zeta_total", &[], 11);
        out.counter("hpcdash_label_escape_total", &[("q", "a\"b\\c\nd")], 1);
    });
    reg.register_collector(|out| out.gauge("hpcdash_aaa_first", &[], 0));
    reg
}

const TEXT: &str = r##"# TYPE hpcdash_aaa_first gauge
hpcdash_aaa_first 0
# TYPE hpcdash_http_connections gauge
hpcdash_http_connections{state="idle"} 4
# TYPE hpcdash_http_request_latency summary
hpcdash_http_request_latency{route="/api/jobs",quantile="0.5"} 0.000050000
hpcdash_http_request_latency{route="/api/jobs",quantile="0.95"} 0.075000000
hpcdash_http_request_latency{route="/api/jobs",quantile="0.99"} 0.075000000
hpcdash_http_request_latency_sum{route="/api/jobs"} 0.077551900
hpcdash_http_request_latency_count{route="/api/jobs"} 5
hpcdash_http_request_latency_max{route="/api/jobs"} 0.075000000
hpcdash_http_request_latency{route="/empty",quantile="0.5"} 0.000000000
hpcdash_http_request_latency{route="/empty",quantile="0.95"} 0.000000000
hpcdash_http_request_latency{route="/empty",quantile="0.99"} 0.000000000
hpcdash_http_request_latency_sum{route="/empty"} 0.000000000
hpcdash_http_request_latency_count{route="/empty"} 0
hpcdash_http_request_latency_max{route="/empty"} 0.000000000
# TYPE hpcdash_http_requests_total counter
hpcdash_http_requests_total{class="2xx",route="/api/jobs"} 5
hpcdash_http_requests_total{class="5xx",route="/api/jobs"} 2
# TYPE hpcdash_label_escape_total counter
hpcdash_label_escape_total{q="a\"b\\c\nd"} 1
# TYPE hpcdash_sched_queue_depth gauge
hpcdash_sched_queue_depth -3
# TYPE hpcdash_slurmctld_rpc_latency_ns gauge
hpcdash_slurmctld_rpc_latency_ns{quantile="0.5"} 1200
# TYPE hpcdash_slurmctld_rpc_total counter
hpcdash_slurmctld_rpc_total{kind="sacct"} 9
hpcdash_slurmctld_rpc_total{kind="squeue"} 7
# TYPE hpcdash_tick_phase_ns_total counter
hpcdash_tick_phase_ns_total{daemon="slurmctld",phase="sched_pass"} 42
# TYPE hpcdash_zeta_total counter
hpcdash_zeta_total 1
hpcdash_zeta_total 11
"##;

const JSON: &str = r##"[{"labels":{},"name":"hpcdash_aaa_first","type":"gauge","value":0},{"labels":{"state":"idle"},"name":"hpcdash_http_connections","type":"gauge","value":4},{"count":5,"labels":{"route":"/api/jobs"},"max_ns":75000000,"name":"hpcdash_http_request_latency","p50_ns":50000,"p95_ns":75000000,"p99_exemplar":"0000000000000abc","p99_ns":75000000,"sum_ns":77551900,"type":"summary"},{"count":0,"labels":{"route":"/empty"},"max_ns":0,"name":"hpcdash_http_request_latency","p50_ns":0,"p95_ns":0,"p99_exemplar":null,"p99_ns":0,"sum_ns":0,"type":"summary"},{"labels":{"class":"2xx","route":"/api/jobs"},"name":"hpcdash_http_requests_total","type":"counter","value":5},{"labels":{"class":"5xx","route":"/api/jobs"},"name":"hpcdash_http_requests_total","type":"counter","value":2},{"labels":{"q":"a\"b\\c\nd"},"name":"hpcdash_label_escape_total","type":"counter","value":1},{"labels":{},"name":"hpcdash_sched_queue_depth","type":"gauge","value":-3},{"labels":{"quantile":"0.5"},"name":"hpcdash_slurmctld_rpc_latency_ns","type":"gauge","value":1200},{"labels":{"kind":"sacct"},"name":"hpcdash_slurmctld_rpc_total","type":"counter","value":9},{"labels":{"kind":"squeue"},"name":"hpcdash_slurmctld_rpc_total","type":"counter","value":7},{"labels":{"daemon":"slurmctld","phase":"sched_pass"},"name":"hpcdash_tick_phase_ns_total","type":"counter","value":42},{"labels":{},"name":"hpcdash_zeta_total","type":"counter","value":1},{"labels":{},"name":"hpcdash_zeta_total","type":"counter","value":11}]"##;

#[test]
fn text_exposition_is_pinned() {
    let reg = fixed_registry();
    assert_eq!(scrape_text(&reg), TEXT);
    assert_eq!(scrape_text(&reg), TEXT, "a second scrape");
}

#[test]
fn json_exposition_is_pinned() {
    let reg = fixed_registry();
    assert_eq!(serde_json::to_string(&scrape_json(&reg)).unwrap(), JSON);
}
