//! One workload, one process: set up, measure over the socket, optionally
//! trace, and turn what was observed into named metrics.

use crate::counters::Counters;
use crate::layers::{self, Row, Traced};
use crate::metrics::{per_layer as per_layer_catalog, END_TO_END};
use crate::replay::{replay, untag, REPLAY_ROUNDS};
use crate::runner::{self, Length, Measured, RoundStat, CLIENTS};
use crate::schedule::{PageKind, ROUTES};
use crate::site::{Site, Workload};
use crate::spans::Spans;
use crate::stats::{median_f64, percentile, supports_percentile};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub length: Length,
    pub warm_up_rounds: u64,
    /// Set-ups timed per run; `setup_s` is their median and the last one
    /// is the site that gets measured.
    pub setups: usize,
    pub trace: bool,
}

/// `benchmark/out/`, next to the sources whichever directory the command
/// was started from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub struct Outcome {
    /// The contract's result line.
    pub line: Value,
    /// Everything, as written to `out/<workload>.json`.
    pub full: Value,
}

fn sorted_visits(m: &Measured, kind: Option<PageKind>) -> Vec<u64> {
    let mut v: Vec<u64> = m
        .visits
        .iter()
        .filter(|(k, _)| kind.is_none_or(|want| want == *k))
        .map(|(_, ns)| *ns)
        .collect();
    v.sort_unstable();
    v
}

/// The tail is taken per third of the run and the middle value reported: a
/// stall of the shared box, which lifts the p99 of the stretch it falls
/// into, then moves nothing. Thirds, because the shortest workload has
/// 3 000 visits and a p99 wants 1 000.
const TAIL_BLOCKS: usize = 3;

/// p99 visit time of each block of consecutive visits, in ns.
fn block_p99s(m: &Measured) -> Vec<f64> {
    let blocks = TAIL_BLOCKS.min(m.visits.len()).max(1);
    (0..blocks)
        .map(|b| {
            let block = &m.visits[b * m.visits.len() / blocks..(b + 1) * m.visits.len() / blocks];
            let mut ns: Vec<u64> = block.iter().map(|(_, ns)| *ns).collect();
            ns.sort_unstable();
            percentile(&ns, 99.0).unwrap_or(0) as f64
        })
        .collect()
}

/// End-to-end metrics, each a median of some kind so that a burst of noise
/// from the shared box moves none of them: rates and CPU over the rounds,
/// the tail over thirds of the run, `setup_s` over the set-ups.
fn end_to_end(m: &Measured, setup_s: f64) -> BTreeMap<&'static str, f64> {
    let visits = sorted_visits(m, None);
    let pct = |sorted: &[u64], p: f64| percentile(sorted, p).unwrap_or(0) as f64;
    let per_round = |f: &dyn Fn(&RoundStat) -> f64| {
        median_f64(&m.per_round.iter().map(f).collect::<Vec<f64>>())
    };
    BTreeMap::from([
        (
            "req_per_s",
            per_round(&|r| r.requests as f64 / (r.wall_ns as f64 / 1e9)),
        ),
        ("req_p50_us", pct(&m.all_request_ns(), 50.0) / 1e3),
        ("visit_p50_ms", pct(&visits, 50.0) / 1e6),
        ("visit_p99_ms", median_f64(&block_p99s(m)) / 1e6),
        (
            "cpu_ms_per_req",
            per_round(&|r| r.cpu_ns as f64 / 1e6 / r.requests.max(1) as f64),
        ),
        ("peak_rss_mb", m.peak_rss_kb as f64 / 1024.0),
        ("setup_s", setup_s),
    ])
}

fn metrics_json<'a>(values: impl Iterator<Item = (&'a str, f64, &'a str)>) -> Value {
    Value::Object(
        values
            .map(|(name, value, unit)| (name.to_string(), json!({"value": value, "unit": unit})))
            .collect(),
    )
}

pub fn run(opts: &Options) -> Outcome {
    let w = opts.workload;
    let mut setup_runs = Vec::new();
    let mut site = None;
    for _ in 0..opts.setups.max(1) {
        // The previous site goes first: its server threads and caches must
        // not be billed to the next set-up.
        drop(site.take());
        let started = Instant::now();
        site = Some(Site::set_up(w));
        setup_runs.push(started.elapsed().as_secs_f64());
    }
    let mut site = site.expect("at least one set-up");
    let schedule = site.schedule(opts.seed);
    eprintln!(
        "[{}] seed {} · set-up {:.3} s (median of {}) · {} consumers",
        w.name,
        opts.seed,
        median_f64(&setup_runs),
        setup_runs.len(),
        schedule.consumers.len()
    );

    let mut before = Counters::default();
    let measured = runner::run(
        &mut site,
        &schedule,
        opts.length,
        opts.warm_up_rounds,
        |s| before = Counters::read(s),
    );
    let after = Counters::read(&site);
    let e2e = end_to_end(&measured, median_f64(&setup_runs));
    let visits = measured.visits.len();
    eprintln!(
        "[{}] {} rounds · {} requests · {} visits · {:.2} s inside rounds · {} failed",
        w.name,
        measured.rounds(),
        measured.requests,
        visits,
        measured.wall_ns() as f64 / 1e9,
        measured.failed
    );

    let mut full = json!({
        "workload": w.name,
        "seed": opts.seed,
        "trace": opts.trace,
        "length": {
            "rounds": opts.length.rounds,
            "deadline_s": opts.length.deadline.map(|d| d.as_secs_f64()),
        },
        "available_parallelism": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "clients": CLIENTS,
        "rounds": measured.rounds(),
        "requests": measured.requests,
        "not_modified": measured.not_modified(),
        "visits": visits,
        "visit_p99_supported": supports_percentile(visits / TAIL_BLOCKS, 99.0),
        "failed": measured.failed,
        "errors": measured.errors,
        "sampled": measured.sampled,
        "body_digest": format!("{:016x}", measured.body_digest),
        "measured_s": measured.wall_ns() as f64 / 1e9,
        "setup_runs_s": setup_runs,
        "visit_p50_ms_by_page": PageKind::ALL
            .iter()
            .filter_map(|k| {
                let v = sorted_visits(&measured, Some(*k));
                percentile(&v, 50.0).map(|p| (k.label().to_string(), json!(p as f64 / 1e6)))
            })
            .collect::<Value>(),
        "end_to_end": metrics_json(
            END_TO_END.iter().map(|d| (d.name, e2e[d.name], d.unit)),
        ),
    });

    let mut line_metrics = full["end_to_end"].clone();
    if opts.trace {
        let (layer, rows) = trace(&mut site, &schedule, &measured, &before, &after);
        let catalog = per_layer_catalog();
        full["per_layer"] = metrics_json(
            catalog
                .iter()
                .map(|d| (d.name.as_str(), layer[&d.name], d.unit)),
        );
        full["closing_table"] = rows.iter().map(Row::to_json).collect();
        line_metrics = full["per_layer"].clone();
    }
    drop(site);

    Outcome {
        line: json!({
            "correct": measured.failed == 0,
            "attempted": measured.requests,
            "failed": measured.failed,
            "metrics": line_metrics,
        }),
        full,
    }
}

/// The traced run: replay with spans, replay again without (the overhead),
/// then the probes; writes `out/<workload>.trace.json`.
fn trace(
    site: &mut Site,
    schedule: &crate::schedule::Schedule,
    m: &Measured,
    before: &Counters,
    after: &Counters,
) -> (BTreeMap<String, f64>, Vec<Row>) {
    // The same schedule rounds whose socket latencies the closing table
    // uses: the same users open the same pages on both sides.
    let rounds =
        m.first_round + m.rounds().saturating_sub(REPLAY_ROUNDS)..m.first_round + m.rounds();
    let mut spans = Spans::new(true);
    let (traced_wall_ns, answers) = replay(
        site,
        schedule,
        &mut m.browsers.clone(),
        rounds.clone(),
        &mut spans,
    );
    let (untraced_wall_ns, _) = replay(
        site,
        schedule,
        &mut m.browsers.clone(),
        rounds,
        &mut Spans::new(false),
    );
    crate::probes::run_all(site, &mut spans);
    let traced = Traced {
        spans,
        answers,
        traced_wall_ns,
        untraced_wall_ns,
    };
    let (layer, rows) = layers::per_layer(m, before, after, &traced);
    for row in &rows {
        if row.residual_us < 0.0 {
            eprintln!(
                "[{}] layer table does not close for {} {}: residual {:.1} us",
                site.workload.name, row.route, row.status, row.residual_us
            );
        }
    }
    let file = out_dir().join(format!("{}.trace.json", site.workload.name));
    let spans_json = traced.spans.to_json(|tag| {
        let (route, verdict) = untag(tag);
        json!({"route": ROUTES[route as usize], "verdict": verdict.label()})
    });
    write_json(&file, &spans_json);
    (layer, rows)
}

pub fn write_json(path: &std::path::Path, value: &Value) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    let text = serde_json::to_string_pretty(value).expect("a Value always serializes");
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

pub fn read_json(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every metric of a run by name and unit, for people.
pub fn print_metrics(full: &Value) {
    for section in ["end_to_end", "per_layer"] {
        let Some(metrics) = full[section].as_object() else {
            continue;
        };
        println!("{} · {}", full["workload"].as_str().unwrap_or("?"), section);
        for (name, m) in metrics {
            println!(
                "  {name:<36} {:>14.4} {}",
                m["value"].as_f64().unwrap_or(0.0),
                m["unit"].as_str().unwrap_or("")
            );
        }
    }
    if let Some(rows) = full["closing_table"].as_array() {
        println!("  route · status · socket p50 = parse + handle + serialize + wire residual (us)");
        for r in rows {
            let f = |k: &str| r[k].as_f64().unwrap_or(0.0);
            println!(
                "  {:<34} {} {:>9.1} = {:>6.1} + {:>9.1} + {:>7.1} + {:>8.1}   (n {} / {})",
                r["route"].as_str().unwrap_or("?"),
                r["status"],
                f("socket_p50_us"),
                f("parse_p50_us"),
                f("handle_p50_us"),
                f("serialize_p50_us"),
                f("wire_residual_us"),
                r["socket_n"],
                r["replay_n"],
            );
        }
    }
}
