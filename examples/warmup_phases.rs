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
//! dashboard's own registry). The table prints the total of each daemon's
//! phase histograms in milliseconds, the time to build `driver(10 days)`
//! (the traffic a benchmark run plays after warming up), the warm-up's
//! wall time and the time its sites were busy advancing, summed over
//! sites. The federation's sites advance side by side, so its wall time is
//! below its busy time; its slowest site is printed beside it.
//!
//! Beside each phase it prints the phase's campus x4 / x1 slope. Below the
//! table come two allocation counts on each campus site after its warm-up:
//! per publish (a hold and a release of one pending job, one publication
//! each) and per repeated collection pass (a telemetry pass at a timestamp
//! already stored, so no sample is appended and what allocates is the
//! scrape's and the collector's own machinery).
//!
//! slurmdbd's phases run inside slurmctld's `dbd_record` and `dbd_sync`, so
//! coverage counts only slurmctld's and telemetryd's, against busy time:
//! the example fails if those cover less than 80 % of it, so time spent
//! outside every phase shows up as a failure, not as a blind spot. On a
//! machine with two or more cores it also fails if the federation's
//! warm-up takes more than 80 % of its busy time, so sites that stop
//! overlapping show up too.

use hpcdash::slurm::job::JobState;
use hpcdash::{FedSite, SimSite};
use hpcdash_core::DashboardConfig;
use hpcdash_obs::Histogram;
use hpcdash_workload::{FederationConfig, Scenario, ScenarioConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: hpcdash_testkit::CountingAlloc = hpcdash_testkit::CountingAlloc;

const WARM_UP_SECS: u64 = 4 * 3_600;
const DRIVE_WINDOW_SECS: u64 = 10 * 86_400;
const MIN_COVERAGE: f64 = 0.8;
/// On two or more cores, the largest share of its summed site time a
/// federation's warm-up may take.
const MAX_OVERLAPPED_WALL: f64 = 0.8;

/// One measured warm-up: `(daemon, phase) -> ms`, summed over sites.
struct Column {
    name: &'static str,
    phases: BTreeMap<(&'static str, &'static str), f64>,
    warm_up: Duration,
    /// Wall time each site spent advancing, in site order.
    busy: Vec<Duration>,
    drive_window: Duration,
    /// Allocations per publish and per repeated collection pass (campus
    /// sites only).
    allocations: Option<(f64, u64)>,
}

impl Column {
    fn new(
        name: &'static str,
        sites: &[Scenario],
        warm_up: Duration,
        busy: Vec<Duration>,
        drive: Duration,
    ) -> Column {
        let mut phases = BTreeMap::new();
        for site in sites {
            let daemons: [(&'static str, &[(&'static str, &Histogram)]); 3] = [
                ("slurmctld", &site.ctld.phases()),
                ("slurmdbd", &site.dbd.phases()),
                ("telemetryd", &site.telemetry.phases()),
            ];
            for (daemon, profile) in daemons {
                for &(phase, h) in profile.iter().filter(|(_, h)| h.count() > 0) {
                    *phases.entry((daemon, phase)).or_default() += h.sum_ns() as f64 / 1e6;
                }
            }
        }
        Column {
            name,
            phases,
            warm_up,
            busy,
            drive_window: drive,
            allocations: None,
        }
    }

    fn warm_up_ms(&self) -> f64 {
        self.warm_up.as_secs_f64() * 1e3
    }

    fn busy_ms(&self) -> f64 {
        self.busy.iter().sum::<Duration>().as_secs_f64() * 1e3
    }

    fn slowest_site_ms(&self) -> f64 {
        self.busy
            .iter()
            .max()
            .map_or(0.0, |d| d.as_secs_f64() * 1e3)
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
        self.profiled_ms() / self.busy_ms()
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
    let busy = vec![site.warm_up(WARM_UP_SECS).busy()];
    let warm_up = t0.elapsed();
    let t0 = Instant::now();
    let driver = site.driver(DRIVE_WINDOW_SECS);
    let drive = t0.elapsed();
    drop(driver);
    let sites = std::slice::from_ref(&site.scenario);
    let mut column = Column::new(name, sites, warm_up, busy, drive);
    column.allocations = Some(allocations(&site));
    column
}

/// Allocations per publish and per repeated collection pass on a warm
/// site, counted after the phases were read.
fn allocations(site: &SimSite) -> (f64, u64) {
    let ctld = &site.scenario.ctld;
    let pending = ctld
        .snapshot()
        .jobs
        .iter()
        .find(|j| j.state == JobState::Pending && j.reason.is_some())
        .map(|j| j.id)
        .expect("a warm campus site has pending jobs");
    let (_, publishes) = hpcdash_testkit::counted(|| {
        ctld.hold(pending, true).expect("a pending job holds");
        ctld.release(pending).expect("a held job releases");
    });
    let telemetry = &site.scenario.telemetry;
    telemetry.collect_now();
    let (_, pass) = hpcdash_testkit::counted(|| telemetry.collect_now());
    (publishes as f64 / 2.0, pass)
}

fn federation(name: &'static str, cfg: FederationConfig) -> Column {
    let site = FedSite::build_with(cfg, DashboardConfig::purdue_like());
    let t0 = Instant::now();
    let busy = site.warm_up(WARM_UP_SECS).busy();
    let warm_up = t0.elapsed();
    let t0 = Instant::now();
    let driver = site.federation.driver(DRIVE_WINDOW_SECS);
    let drive = t0.elapsed();
    drop(driver);
    Column::new(name, &site.federation.sites, warm_up, busy, drive)
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
    println!(" x4 / x1 |");
    println!("|---|---|{}", "---:|".repeat(columns.len() + 1));
    let row = |label: &str, cell: &dyn Fn(&Column) -> String, slope: Option<f64>| {
        print!("| {label} |");
        for c in &columns {
            print!(" {} |", cell(c));
        }
        println!(
            " {} |",
            slope.map_or("—".to_string(), |x| format!("{x:.1}x"))
        );
    };
    let slope = |of: &dyn Fn(&Column) -> Option<f64>| {
        Some(of(&columns[1])? / of(&columns[0])?).filter(|x| x.is_finite())
    };
    for (daemon, phase) in rows {
        let ms = |c: &Column| c.phases.get(&(daemon, phase)).copied();
        row(
            &format!("{daemon} | `{phase}`"),
            &|c| ms(c).map_or("—".to_string(), |ms| format!("{ms:.1}")),
            slope(&ms),
        );
    }
    row(
        "profiled | slurmctld + telemetryd",
        &|c| format!("{:.1}", c.profiled_ms()),
        slope(&|c| Some(c.profiled_ms())),
    );
    row(
        "workload | `driver(10 days)`",
        &|c| format!("{:.3}", c.drive_window.as_secs_f64() * 1e3),
        None,
    );
    row(
        "whole | warm-up",
        &|c| format!("{:.1}", c.warm_up_ms()),
        slope(&|c| Some(c.warm_up_ms())),
    );
    row(
        "busy | sites advancing, summed",
        &|c| format!("{:.1}", c.busy_ms()),
        None,
    );
    row(
        "busy | slowest site",
        &|c| format!("{:.1}", c.slowest_site_ms()),
        None,
    );
    row(
        "coverage | profiled / busy",
        &|c| format!("{:.0} %", c.coverage() * 100.0),
        None,
    );
    let allocs = |c: &Column, f: fn((f64, u64)) -> String| c.allocations.map_or("—".to_string(), f);
    row(
        "allocations | per publish",
        &|c| allocs(c, |(p, _)| format!("{p:.1}")),
        slope(&|c| c.allocations.map(|(p, _)| p)),
    );
    row(
        "allocations | per repeated collection pass",
        &|c| allocs(c, |(_, s)| s.to_string()),
        slope(&|c| c.allocations.map(|(_, s)| s as f64)),
    );
    let x1 = columns[0].warm_up.as_secs_f64();
    let x4 = columns[1].warm_up.as_secs_f64();
    let quad = &columns[2];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!();
    println!("campus x4 / x1 warm-up: {:.1}x", x4 / x1);
    println!(
        "{}: warm-up {:.1} ms beside its slowest site's {:.1} ms; {:.2} of its busy time, {cores} cores",
        quad.name,
        quad.warm_up_ms(),
        quad.slowest_site_ms(),
        quad.warm_up_ms() / quad.busy_ms()
    );

    for c in &columns {
        assert!(
            c.coverage() >= MIN_COVERAGE,
            "{}: profiled phases cover {:.0} % of the warm-up, under {:.0} %",
            c.name,
            c.coverage() * 100.0,
            MIN_COVERAGE * 100.0
        );
    }
    if cores >= 2 {
        assert!(
            quad.warm_up_ms() <= MAX_OVERLAPPED_WALL * quad.busy_ms(),
            "{}: warm-up took {:.1} ms of {:.1} ms busy; its sites did not overlap",
            quad.name,
            quad.warm_up_ms(),
            quad.busy_ms()
        );
    }
}
