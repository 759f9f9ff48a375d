//! hpcdash's benchmark: four socket workloads, an outside-in layer table.
//!
//! ```text
//! hpcdash-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! hpcdash-benchmark [--seed N] [--repeat K] [--seconds S] [--out F] every workload, fixed work
//! hpcdash-benchmark --smoke                                         3 rounds each, self-checks
//! hpcdash-benchmark compare BASE.json NEW.json                      verdict per workload and metric
//! hpcdash-benchmark describe                                        prints /BENCHMARK.json
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metric glossary and the
//! stable-seam rule.

mod checks;
mod client;
mod compare;
mod counters;
mod layers;
mod metrics;
mod probes;
mod replay;
mod report;
mod runner;
mod schedule;
mod site;
mod spans;
mod stats;
mod usage;

use runner::Length;
use serde_json::{json, Value};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    rounds: Option<u64>,
    warm_up: Option<u64>,
    setups: Option<usize>,
    trace: bool,
    repeat: Option<usize>,
    out: Option<String>,
    smoke: bool,
    rest: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        fn num<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{name}: cannot read {v:?}"))
        }
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = Some(num("--seed", value("--seed")?)?),
            "--seconds" => args.seconds = Some(num("--seconds", value("--seconds")?)?),
            "--rounds" => args.rounds = Some(num("--rounds", value("--rounds")?)?),
            "--warm-up" => args.warm_up = Some(num("--warm-up", value("--warm-up")?)?),
            "--setups" => args.setups = Some(num("--setups", value("--setups")?)?),
            "--trace" => args.trace = num::<u8>("--trace", value("--trace")?)? != 0,
            "--repeat" => args.repeat = Some(num("--repeat", value("--repeat")?)?),
            "--out" => args.out = Some(value("--out")?),
            "--smoke" => args.smoke = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            _ => args.rest.push(arg),
        }
    }
    Ok(args)
}

/// The seed the committed baseline was taken with.
const DEFAULT_SEED: u64 = 42;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match args.rest.first().map(String::as_str) {
        Some("compare") => return run_compare(&args.rest[1..]),
        Some("describe") => {
            let text =
                serde_json::to_string_pretty(&describe()).expect("a Value always serializes");
            println!("{text}");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    if !args.rest.is_empty() {
        eprintln!("unexpected argument {:?}", args.rest[0]);
        return ExitCode::from(2);
    }
    match &args.workload {
        Some(name) => one_workload(name, &args),
        None => every_workload(&args),
    }
}

/// The driver's contract: one workload in this process, the result object
/// as the last line of standard output.
fn one_workload(name: &str, args: &Args) -> ExitCode {
    let Some(workload) = site::workload(name) else {
        eprintln!("unknown workload {name:?}");
        return ExitCode::from(2);
    };
    // `--seconds` is the budget the frozen round counts were calibrated
    // for: the work scales with it and it is the deadline.
    let length = match (args.rounds, args.seconds) {
        (Some(n), None) if n > 0 => Length {
            rounds: n,
            deadline: None,
        },
        (None, Some(s)) if s > 0.0 => Length {
            rounds: ((workload.rounds as f64 * s / site::CALIBRATED_SECONDS).ceil() as u64).max(1),
            deadline: Some(Duration::from_secs_f64(s)),
        },
        (None, None) => Length {
            rounds: workload.rounds,
            deadline: None,
        },
        _ => {
            eprintln!("give a positive --rounds or a positive --seconds, not both");
            return ExitCode::from(2);
        }
    };
    let outcome = report::run(&report::Options {
        workload,
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        length,
        warm_up_rounds: args.warm_up.unwrap_or(runner::WARM_UP_ROUNDS),
        setups: args.setups.unwrap_or(3),
        trace: args.trace,
    });
    report::write_json(
        &report::out_dir().join(format!("{name}.json")),
        &outcome.full,
    );
    report::print_metrics(&outcome.full);
    for error in outcome.full["errors"].as_array().into_iter().flatten() {
        eprintln!("[{name}] failed: {}", error.as_str().unwrap_or("?"));
    }
    println!(
        "{}",
        serde_json::to_string(&outcome.line).expect("a Value always serializes")
    );
    ExitCode::SUCCESS
}

/// Every workload, each in its own process (`obs`'s span sink and trace
/// store are process globals, and `peak_rss_mb` is per process): this
/// program re-executes itself once per workload and repeat, traced, and
/// collects what each child wrote to `out/<workload>.json`.
fn every_workload(args: &Args) -> ExitCode {
    let started = Instant::now();
    let exe = std::env::current_exe().expect("path of this executable");
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let mut workloads = serde_json::Map::new();
    let mut ok = true;
    for w in &site::WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..args.repeat.unwrap_or(1).max(1) {
            let mut child = Command::new(&exe);
            child.args(["--workload", w.name, "--trace", "1"]);
            child.args(["--seed", &seed.to_string()]);
            if args.smoke {
                child.args(["--rounds", "3", "--warm-up", "2", "--setups", "1"]);
            } else if let Some(s) = args.seconds {
                child.args(["--seconds", &s.to_string()]);
            } else if let Some(n) = args.rounds {
                child.args(["--rounds", &n.to_string()]);
            }
            let status = child.status().expect("re-execute this program");
            if !status.success() {
                eprintln!("{}: child exited with {status}", w.name);
                return ExitCode::FAILURE;
            }
            let run = report::read_json(&report::out_dir().join(format!("{}.json", w.name)))
                .expect("the child wrote its result file");
            ok &= run["failed"].as_u64() == Some(0);
            runs.push(run);
        }
        if args.smoke {
            ok &= smoke_check(w.name, &runs[0]);
        }
        workloads.insert(w.name.to_string(), json!({ "runs": runs }));
    }
    let result = json!({ "seed": seed, "workloads": workloads });
    let out = match &args.out {
        Some(p) => std::path::PathBuf::from(p),
        None => report::out_dir().join("result.json"),
    };
    report::write_json(&out, &result);
    eprintln!(
        "wrote {} in {:.1} s",
        out.display(),
        started.elapsed().as_secs_f64()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: see the lines above");
        ExitCode::FAILURE
    }
}

/// `describe`: the content of `/BENCHMARK.json`, generated from the catalogs
/// in `site.rs` and `metrics.rs` so that the file cannot drift from them.
fn describe() -> Value {
    json!({
        "command": [
            "cargo", "run", "--release", "--quiet", "--offline",
            "--manifest-path", "benchmark/Cargo.toml", "--",
        ],
        "paths": ["benchmark"],
        "run_seconds": site::CALIBRATED_SECONDS as u64,
        "workloads": site::WORKLOADS
            .iter()
            .map(|w| json!({"name": w.name, "why": w.why}))
            .collect::<Value>(),
        "end_to_end": metrics::END_TO_END
            .iter()
            .map(|d| json!({"name": d.name, "unit": d.unit, "better": d.better, "bound": d.bound}))
            .collect::<Value>(),
        "per_layer": metrics::per_layer()
            .iter()
            .map(|d| json!({"name": d.name, "unit": d.unit, "better": d.better}))
            .collect::<Value>(),
    })
}

/// `--smoke`: nothing failed, and every metric `BENCHMARK.json` names was
/// emitted (so the catalog in `metrics.rs` and the file cannot drift).
fn smoke_check(workload: &str, run: &Value) -> bool {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let declared = report::read_json(&path).expect("/BENCHMARK.json beside benchmark/");
    let mut ok = true;
    for section in ["end_to_end", "per_layer"] {
        for metric in declared[section].as_array().into_iter().flatten() {
            let name = metric["name"].as_str().unwrap_or("?");
            let emitted = &run[section][name];
            if !emitted["value"].is_number() || emitted["unit"] != metric["unit"] {
                eprintln!("{workload}: {section} metric {name} missing or in another unit");
                ok = false;
            }
        }
        let declared_n = declared[section].as_array().map_or(0, Vec::len);
        let emitted_n = run[section].as_object().map_or(0, |m| m.len());
        if declared_n != emitted_n {
            eprintln!(
                "{workload}: {section} declares {declared_n} metrics, run emitted {emitted_n}"
            );
            ok = false;
        }
    }
    if !declared["workloads"]
        .as_array()
        .into_iter()
        .flatten()
        .any(|w| w["name"].as_str() == Some(workload))
    {
        eprintln!("{workload}: not listed in BENCHMARK.json");
        ok = false;
    }
    ok
}

fn run_compare(files: &[String]) -> ExitCode {
    let [base, new] = files else {
        eprintln!("usage: compare BASE.json NEW.json");
        return ExitCode::from(2);
    };
    let load = |path: &String| report::read_json(std::path::Path::new(path));
    match (load(base), load(new)) {
        (Ok(b), Ok(n)) => {
            if compare::compare(&b, &n) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
