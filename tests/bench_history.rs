//! `BENCH_history.json`: one record per landed change, each holding the
//! paired end-to-end benchmark runs against its parent as ratios. The file
//! is data, so this test only holds its shape: the fields every record
//! carries, positive finite ratios, and records in strictly increasing PR
//! order.

use serde_json::Value;

const WORKLOADS: [&str; 4] = ["portal_warm", "portal_live", "portal_cold", "rest_fed"];
const METRICS: [&str; 7] = [
    "req_per_s",
    "req_p50_us",
    "visit_p50_ms",
    "visit_p99_ms",
    "cpu_ms_per_req",
    "peak_rss_mb",
    "setup_s",
];

fn is_rev(v: &Value) -> bool {
    v.as_str()
        .is_some_and(|s| s.len() >= 7 && s.bytes().all(|b| b.is_ascii_hexdigit()))
}

fn positive(v: &Value) -> bool {
    v.as_f64().is_some_and(|x| x.is_finite() && x > 0.0)
}

fn bool_or_null(v: Option<&Value>) -> bool {
    v.is_some_and(|v| v.is_null() || v.as_bool().is_some())
}

/// A ratio and its optional quartile pairs; `wins` of `n` pairs, or null.
fn check_metric(at: &str, m: &Value) {
    assert!(positive(&m["ratio"]), "{at}: ratio");
    for q in ["parent_q", "change_q"] {
        if let Some(q) = m.get(q) {
            let q = q.as_array().expect("quartiles are a pair");
            assert!(q.len() == 2 && q.iter().all(positive), "{at}: {q:?}");
            assert!(q[0].as_f64() <= q[1].as_f64(), "{at}: q1 <= q3");
        }
    }
    let n = m["n"].as_u64().expect("n pairs");
    assert!(n > 0, "{at}: n");
    let wins = &m["wins"];
    assert!(
        wins.is_null() || wins.as_u64().is_some_and(|w| w <= n),
        "{at}: wins"
    );
}

#[test]
fn history_records_are_well_formed_and_in_pr_order() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_history.json");
    let text = std::fs::read_to_string(path).expect("BENCH_history.json reads");
    let doc: Value = serde_json::from_str(&text).expect("BENCH_history.json parses");
    assert!(doc["about"].as_str().is_some_and(|s| !s.is_empty()));
    let records = doc["records"].as_array().expect("records");
    assert!(!records.is_empty());

    let mut last_pr = 0;
    for r in records {
        let pr = r["pr"].as_u64().expect("pr number");
        assert!(pr > last_pr, "PR {pr} follows PR {last_pr}");
        last_pr = pr;
        assert!(
            is_rev(&r["rev"]) && is_rev(&r["parent_rev"]),
            "PR {pr}: revs"
        );
        assert!(r["source"].as_str().is_some(), "PR {pr}: source");
        for run in r["runs"].as_array().expect("runs") {
            let wl = run["workload"].as_str().expect("workload");
            assert!(WORKLOADS.contains(&wl), "PR {pr}: workload {wl}");
            let seed = &run["seed"];
            assert!(seed.is_null() || seed.as_u64().is_some(), "PR {pr}: seed");
            assert!(
                bool_or_null(run.get("digests_equal")),
                "PR {pr}: digests_equal"
            );
            assert!(
                bool_or_null(run.get("counts_equal")),
                "PR {pr}: counts_equal"
            );
            for (name, m) in run["metrics"].as_object().expect("metrics") {
                assert!(METRICS.contains(&name.as_str()), "PR {pr}: metric {name}");
                check_metric(&format!("PR {pr} {wl} {name}"), m);
            }
        }
    }
}
