//! Where a site's warm-up goes: four simulated hours of traffic on the
//! campus site, the same site four times over, and the four-site
//! federation, each split into the daemons' profiled tick phases.
//!
//! ```sh
//! cargo run --release --example warmup_phases
//! ```
//!
//! Every site is built as the benchmark's `setup_s` builds it (free
//! daemons, the dashboard attached, so the telemetry pass also scrapes the
//! dashboard's own registry). The table prints each daemon's
//! `PhaseProfiler` in milliseconds, the time to build `driver(10 days)`
//! (the traffic a benchmark run plays after warming up) and the warm-up's
//! wall time. slurmdbd's phases run inside slurmctld's `dbd_record` and
//! `dbd_sync`, so coverage counts only slurmctld's and telemetryd's: the
//! example fails if those cover less than 80 % of the warm-up, so time
//! spent outside every phase shows up as a failure, not as a blind spot.

use hpcdash::{FedSite, SimSite};
use hpcdash_core::DashboardConfig;
use hpcdash_obs::PhaseProfiler;
use hpcdash_workload::{FederationConfig, Scenario, ScenarioConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const WARM_UP_SECS: u64 = 4 * 3_600;
const DRIVE_WINDOW_SECS: u64 = 10 * 86_400;
const MIN_COVERAGE: f64 = 0.8;

/// One measured warm-up: `(daemon, phase) -> ms`, summed over sites.
struct Column {
    name: &'static str,
    phases: BTreeMap<(&'static str, &'static str), f64>,
    warm_up: Duration,
    drive_window: Duration,
}

impl Column {
    fn new(name: &'static str, sites: &[Scenario], warm_up: Duration, drive: Duration) -> Column {
        let mut phases = BTreeMap::new();
        for site in sites {
            let daemons: [(&'static str, &PhaseProfiler); 3] = [
                ("slurmctld", site.ctld.phase_profile()),
                ("slurmdbd", site.dbd.phase_profile()),
                ("telemetryd", site.telemetry.phase_profile()),
            ];
            for (daemon, profile) in daemons {
                for (phase, agg) in profile.snapshot() {
                    *phases.entry((daemon, phase)).or_default() += agg.total_ns as f64 / 1e6;
                }
            }
        }
        Column {
            name,
            phases,
            warm_up,
            drive_window: drive,
        }
    }

    /// Milliseconds inside the outermost phases (slurmctld, telemetryd).
    fn profiled_ms(&self) -> f64 {
        self.phases
            .iter()
            .filter(|((daemon, _), _)| *daemon != "slurmdbd")
            .map(|(_, ms)| ms)
            .sum()
    }

    fn coverage(&self) -> f64 {
        self.profiled_ms() / (self.warm_up.as_secs_f64() * 1e3)
    }
}

fn campus(scale: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::campus()
        .cpu(32 * scale, 128, 257_000)
        .gpu(4 * scale, 128, 512_000, 4)
        .accounts(10 * scale, 3, 8)
        .arrivals_per_hour(120.0 * scale as f64);
    cfg.free_daemons = true;
    cfg
}

fn portal(name: &'static str, cfg: ScenarioConfig) -> Column {
    let site = SimSite::build_with(cfg, DashboardConfig::purdue_like());
    let t0 = Instant::now();
    site.warm_up(WARM_UP_SECS);
    let warm_up = t0.elapsed();
    let t0 = Instant::now();
    let driver = site.driver(DRIVE_WINDOW_SECS);
    let drive = t0.elapsed();
    drop(driver);
    Column::new(name, std::slice::from_ref(&site.scenario), warm_up, drive)
}

fn federation(name: &'static str, cfg: FederationConfig) -> Column {
    let site = FedSite::build_with(cfg, DashboardConfig::purdue_like());
    let t0 = Instant::now();
    site.warm_up(WARM_UP_SECS);
    let warm_up = t0.elapsed();
    let t0 = Instant::now();
    let driver = site.federation.driver(DRIVE_WINDOW_SECS);
    let drive = t0.elapsed();
    drop(driver);
    Column::new(name, &site.federation.sites, warm_up, drive)
}

fn main() {
    let columns = [
        portal("campus x1", campus(1)),
        portal("campus x4", campus(4)),
        federation("quad(42)", FederationConfig::quad(42)),
    ];
    let mut rows: Vec<(&'static str, &'static str)> = columns
        .iter()
        .flat_map(|c| c.phases.keys().copied())
        .collect();
    rows.sort();
    rows.dedup();

    println!("Warm-up phases: {WARM_UP_SECS} simulated s, free daemons, ms");
    println!();
    print!("| daemon | phase |");
    for c in &columns {
        print!(" {} |", c.name);
    }
    println!();
    println!("|---|---|{}", "---:|".repeat(columns.len()));
    let row = |label: &str, cell: &dyn Fn(&Column) -> String| {
        print!("| {label} |");
        for c in &columns {
            print!(" {} |", cell(c));
        }
        println!();
    };
    for (daemon, phase) in rows {
        row(&format!("{daemon} | `{phase}`"), &|c| {
            c.phases
                .get(&(daemon, phase))
                .map_or("—".to_string(), |ms| format!("{ms:.1}"))
        });
    }
    row("profiled | slurmctld + telemetryd", &|c| {
        format!("{:.1}", c.profiled_ms())
    });
    row("workload | `driver(10 days)`", &|c| {
        format!("{:.3}", c.drive_window.as_secs_f64() * 1e3)
    });
    row("whole | warm-up", &|c| {
        format!("{:.1}", c.warm_up.as_secs_f64() * 1e3)
    });
    row("coverage | profiled / warm-up", &|c| {
        format!("{:.0} %", c.coverage() * 100.0)
    });
    let x1 = columns[0].warm_up.as_secs_f64();
    let x4 = columns[1].warm_up.as_secs_f64();
    println!();
    println!("campus x4 / x1 warm-up: {:.1}x", x4 / x1);

    for c in &columns {
        assert!(
            c.coverage() >= MIN_COVERAGE,
            "{}: profiled phases cover {:.0} % of the warm-up, under {:.0} %",
            c.name,
            c.coverage() * 100.0,
            MIN_COVERAGE * 100.0
        );
    }
}
