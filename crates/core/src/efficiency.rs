//! The job-efficiency engine (paper §4.1, §4.3).
//!
//! Three metrics from sacct fields:
//! * time efficiency   = Elapsed / Timelimit
//! * CPU efficiency    = TotalCPU / (Elapsed × AllocCPUS)
//! * memory efficiency = MaxRSS / ReqMem
//!
//! plus the efficiency *warnings* that tell users they requested far more
//! than they used. GPU efficiency is behind the `gpu_efficiency` feature
//! flag (the paper lists it as in-progress work).
//!
//! `Ratios` holds the three as unrounded fractions: the warnings and the
//! Job Performance averages read them. The report a page shows carries
//! each in per mille (`u16`), the precision [`percent`] prints (`58.3%`),
//! so the payload holds small integers instead of 17-digit floats.

use hpcdash_simtime::{write_num, Ascii, TimeLimit};
use hpcdash_slurmcli::SacctRecord;
use serde::{Deserialize, Serialize};

/// Thresholds for warnings. A job must have run a while before we judge it.
pub const MIN_ELAPSED_FOR_WARNING: u64 = 300;
pub const CPU_WARN_BELOW: f64 = 0.25;
pub const MEM_WARN_BELOW: f64 = 0.25;
pub const TIME_WARN_BELOW: f64 = 0.30;

/// A job's efficiency report, each ratio in per mille.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EfficiencyReport {
    /// `None` when the underlying usage data is not (yet) available.
    pub cpu: Option<u16>,
    pub memory: Option<u16>,
    pub time: Option<u16>,
    /// Only set when the GPU-efficiency feature flag is on and the job used
    /// GPUs. Measured from the telemetry collector's GPU-utilization series
    /// when one exists (`EfficiencyReport::from_record_with_gpu`); the
    /// old CPU-activity approximation remains as the fallback for jobs that
    /// predate the collectors or whose series has aged out of retention.
    pub gpu: Option<u16>,
    pub warnings: Vec<String>,
}

/// A job's three efficiency ratios as unrounded fractions in `[0, 1]`;
/// `None` when the underlying usage data is not (yet) available.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Ratios {
    pub cpu: Option<f64>,
    pub memory: Option<f64>,
    pub time: Option<f64>,
}

impl Ratios {
    pub(crate) fn of(rec: &SacctRecord<'_>) -> Ratios {
        let elapsed = rec.elapsed_secs;
        let cpu = match (rec.total_cpu_secs, elapsed, rec.alloc_cpus) {
            (Some(total), e, cpus) if e > 0 && cpus > 0 => {
                Some((total as f64 / (e as f64 * cpus as f64)).min(1.0))
            }
            _ => None,
        };
        let memory = match (rec.max_rss_mb, rec.req_mem_mb) {
            (Some(rss), req) if req > 0 => Some((rss as f64 / req as f64).min(1.0)),
            _ => None,
        };
        let time = match rec.timelimit {
            TimeLimit::Limited(limit) if limit > 0 && elapsed > 0 => {
                Some((elapsed as f64 / limit as f64).min(1.0))
            }
            _ => None,
        };
        Ratios { cpu, memory, time }
    }

    /// The warnings for a finished job that ran long enough to judge,
    /// worded from the unrounded ratios.
    fn warnings(&self, rec: &SacctRecord<'_>) -> Vec<String> {
        let mut warnings = Vec::new();
        if !rec.state.is_finished() || rec.elapsed_secs < MIN_ELAPSED_FOR_WARNING {
            return warnings;
        }
        if let Some(c) = self.cpu.filter(|c| *c < CPU_WARN_BELOW) {
            let mut w = used_only(c);
            w.push_str(" of the ");
            w.push_str(digits(u64::from(rec.alloc_cpus)).as_str());
            w.push_str(
                " CPUs it requested. Requesting fewer CPUs will reduce your queue wait \
                 times and leave more resources for others.",
            );
            warnings.push(w);
        }
        if let Some(m) = self.memory.filter(|m| *m < MEM_WARN_BELOW) {
            let mut w = used_only(m);
            w.push_str(
                " of its requested memory. Requesting less memory will reduce your queue \
                 wait times and leave more resources for others.",
            );
            warnings.push(w);
        }
        if let Some(t) = self.time.filter(|t| *t < TIME_WARN_BELOW) {
            let mut w = used_only(t);
            w.push_str(
                " of its requested time limit. A shorter limit helps the scheduler start \
                 your jobs sooner.",
            );
            warnings.push(w);
        }
        warnings
    }
}

/// "This job used only 12%", the start of every warning: the percentage
/// rounded half to even, as `{:.0}` rounds it.
fn used_only(ratio: f64) -> String {
    let mut w = String::with_capacity(160);
    w.push_str("This job used only ");
    w.push_str(digits((ratio * 100.0).round_ties_even() as u64).as_str());
    w.push('%');
    w
}

fn digits(n: u64) -> Ascii<20> {
    let mut out = Ascii::default();
    write_num(&mut out, n, 0);
    out
}

impl EfficiencyReport {
    /// Compute from an accounting record alone (no collector samples; GPU
    /// efficiency, if enabled, falls back to the CPU approximation).
    pub(crate) fn from_record(rec: &SacctRecord<'_>, gpu_flag: bool) -> EfficiencyReport {
        EfficiencyReport::from_record_with_gpu(rec, gpu_flag, None)
    }

    /// Compute from an accounting record plus, when available, the mean of
    /// the telemetry collector's GPU-utilization series for this job.
    /// Collector samples win over the approximation — and unlike it they
    /// work for still-running jobs, since the series exists from the first
    /// tick.
    pub(crate) fn from_record_with_gpu(
        rec: &SacctRecord<'_>,
        gpu_flag: bool,
        collector_gpu: Option<f64>,
    ) -> EfficiencyReport {
        let ratios = Ratios::of(rec);
        let gpu = if gpu_flag && has_gpus(rec) {
            match collector_gpu {
                Some(g) => Some(g.clamp(0.0, 1.0)),
                // Fallback proxy when no series exists: GPU jobs in this
                // simulator drive GPUs roughly in proportion to their CPU
                // activity. Only meaningful once the job has finished.
                None if rec.state.is_finished() => ratios.cpu.map(|c| (c * 0.9).min(1.0)),
                None => None,
            }
        } else {
            None
        };
        EfficiencyReport {
            cpu: ratios.cpu.map(per_mille),
            memory: ratios.memory.map(per_mille),
            time: ratios.time.map(per_mille),
            gpu: gpu.map(per_mille),
            warnings: ratios.warnings(rec),
        }
    }
}

fn has_gpus(rec: &SacctRecord<'_>) -> bool {
    // GPU jobs in this stack run on the gpu partition.
    rec.partition == "gpu"
}

/// A fraction in `[0, 1]` as the nearest per mille, ties to even.
pub(crate) fn per_mille(fraction: f64) -> u16 {
    (fraction * 1_000.0).round_ties_even() as u16
}

/// A per-mille ratio as the pages print it, `58.3%`; `—` when there is
/// none.
pub fn percent(per_mille: Option<u16>) -> String {
    match per_mille {
        Some(n) => format!("{}.{}%", n / 10, n % 10),
        None => "—".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_simtime::Timestamp;
    use hpcdash_slurm::job::JobState;

    fn rec(
        elapsed: u64,
        limit: u64,
        cpus: u32,
        total_cpu: Option<u64>,
        rss: Option<u64>,
        req_mem: u64,
    ) -> SacctRecord<'static> {
        SacctRecord {
            job_id: "1",
            job_name: "j",
            user: "alice",
            account: "physics",
            partition: "cpu",
            qos: "normal",
            state: JobState::Completed,
            submit: Some(Timestamp(0)),
            start: Some(Timestamp(10)),
            end: Some(Timestamp(10 + elapsed)),
            elapsed_secs: elapsed,
            timelimit: TimeLimit::Limited(limit),
            alloc_cpus: cpus,
            alloc_nodes: 1,
            alloc_tres: hpcdash_slurm::tres::Tres::new(cpus, req_mem, 0, 1),
            req_mem_mb: req_mem,
            max_rss_mb: rss,
            total_cpu_secs: total_cpu,
            exit_code: "0:0",
            nodelist: "a001",
            comment: "",
        }
    }

    #[test]
    fn metrics_computed() {
        // 1h elapsed of 2h limit, 8 cpus with 4 cpu-hours burned, half memory.
        let r = rec(3_600, 7_200, 8, Some(4 * 3_600), Some(8_192), 16_384);
        let e = EfficiencyReport::from_record(&r, false);
        assert_eq!((e.cpu, e.memory, e.time), (Some(500), Some(500), Some(500)));
        assert!(e.gpu.is_none());
        assert!(
            e.warnings.is_empty(),
            "50% everywhere is fine: {:?}",
            e.warnings
        );
    }

    #[test]
    fn missing_usage_gives_none() {
        let r = rec(0, 7_200, 8, None, None, 16_384);
        let e = EfficiencyReport::from_record(&r, false);
        assert_eq!(e.cpu, None);
        assert_eq!(e.memory, None);
        assert_eq!(e.time, None, "no elapsed time yet");
    }

    #[test]
    fn wasteful_job_warns_on_all_three() {
        // 10% cpu, 5% memory, 10% of time limit.
        let r = rec(
            3_600,
            36_000,
            16,
            Some((3_600.0 * 16.0 * 0.1) as u64),
            Some(819),
            16_384,
        );
        let e = EfficiencyReport::from_record(&r, false);
        assert_eq!(e.warnings.len(), 3, "{:?}", e.warnings);
        assert!(e.warnings[0].contains("CPUs it requested"));
        assert!(e.warnings[1].contains("requested memory"));
        assert!(e.warnings[2].contains("time limit"));
    }

    #[test]
    fn short_jobs_do_not_warn() {
        let r = rec(60, 36_000, 16, Some(60), Some(100), 16_384);
        let e = EfficiencyReport::from_record(&r, false);
        assert!(e.warnings.is_empty(), "under MIN_ELAPSED_FOR_WARNING");
    }

    #[test]
    fn running_jobs_do_not_warn() {
        let mut r = rec(3_600, 36_000, 16, Some(360), Some(100), 16_384);
        r.state = JobState::Running;
        let e = EfficiencyReport::from_record(&r, false);
        assert!(e.warnings.is_empty());
    }

    #[test]
    fn efficiency_capped_at_one() {
        // Overcommitted: more cpu-seconds than wall*cpus (hyperthread noise).
        let r = rec(100, 200, 1, Some(150), Some(99_999), 1_024);
        let e = EfficiencyReport::from_record(&r, false);
        assert_eq!(e.cpu, Some(1_000));
        assert_eq!(e.memory, Some(1_000));
    }

    #[test]
    fn gpu_flag_gates_gpu_metric() {
        let mut r = rec(3_600, 7_200, 8, Some(4 * 3_600), Some(8_192), 16_384);
        r.partition = "gpu";
        let off = EfficiencyReport::from_record(&r, false);
        assert!(off.gpu.is_none());
        let on = EfficiencyReport::from_record(&r, true);
        assert!(on.gpu.is_some());
        r.partition = "cpu";
        let cpu_job = EfficiencyReport::from_record(&r, true);
        assert!(cpu_job.gpu.is_none(), "non-gpu jobs get no gpu metric");
    }

    #[test]
    fn collector_samples_beat_the_approximation() {
        let mut r = rec(3_600, 7_200, 8, Some(4 * 3_600), Some(8_192), 16_384);
        r.partition = "gpu";
        let measured = EfficiencyReport::from_record_with_gpu(&r, true, Some(0.83));
        assert_eq!(measured.gpu, Some(830));
        // Out-of-range collector values are clamped, not propagated.
        let clamped = EfficiencyReport::from_record_with_gpu(&r, true, Some(1.7));
        assert_eq!(clamped.gpu, Some(1_000));
        // Flag off: collector samples do not leak the metric in.
        let off = EfficiencyReport::from_record_with_gpu(&r, false, Some(0.83));
        assert!(off.gpu.is_none());
        // Non-GPU job: samples for it are ignored.
        r.partition = "cpu";
        let cpu_job = EfficiencyReport::from_record_with_gpu(&r, true, Some(0.83));
        assert!(cpu_job.gpu.is_none());
    }

    #[test]
    fn collector_samples_cover_running_jobs() {
        let mut r = rec(3_600, 7_200, 8, Some(4 * 3_600), Some(8_192), 16_384);
        r.partition = "gpu";
        r.state = JobState::Running;
        // The approximation needs a finished job...
        assert!(EfficiencyReport::from_record(&r, true).gpu.is_none());
        // ...but collector samples exist from the first tick.
        let live = EfficiencyReport::from_record_with_gpu(&r, true, Some(0.6));
        assert_eq!(live.gpu, Some(600));
    }

    #[test]
    fn unlimited_timelimit_has_no_time_eff() {
        let mut r = rec(3_600, 7_200, 8, Some(100), Some(100), 1_024);
        r.timelimit = TimeLimit::Unlimited;
        let e = EfficiencyReport::from_record(&r, false);
        assert_eq!(e.time, None);
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(percent(Some(500)), "50.0%");
        assert_eq!(percent(Some(18)), "1.8%");
        assert_eq!(percent(Some(1_000)), "100.0%");
        assert_eq!(percent(Some(0)), "0.0%");
        assert_eq!(percent(None), "—");
    }

    /// The three sentences as `format!` worded them, from the unrounded
    /// ratios: the reference the warnings are held to.
    fn formatted_warnings(r: &SacctRecord<'_>) -> Vec<String> {
        let mut out = Vec::new();
        let e = r.elapsed_secs;
        if !r.state.is_finished() || e < MIN_ELAPSED_FOR_WARNING {
            return out;
        }
        if let Some(total) = r.total_cpu_secs.filter(|_| r.alloc_cpus > 0) {
            let c = (total as f64 / (e as f64 * r.alloc_cpus as f64)).min(1.0);
            if c < CPU_WARN_BELOW {
                out.push(format!(
                    "This job used only {:.0}% of the {} CPUs it requested. Requesting fewer CPUs will reduce your queue wait times and leave more resources for others.",
                    c * 100.0,
                    r.alloc_cpus
                ));
            }
        }
        if let Some(rss) = r.max_rss_mb.filter(|_| r.req_mem_mb > 0) {
            let m = (rss as f64 / r.req_mem_mb as f64).min(1.0);
            if m < MEM_WARN_BELOW {
                out.push(format!(
                    "This job used only {:.0}% of its requested memory. Requesting less memory will reduce your queue wait times and leave more resources for others.",
                    m * 100.0
                ));
            }
        }
        if let TimeLimit::Limited(limit) = r.timelimit {
            let t = (e as f64 / limit as f64).min(1.0);
            if limit > 0 && t < TIME_WARN_BELOW {
                out.push(format!(
                    "This job used only {:.0}% of its requested time limit. A shorter limit helps the scheduler start your jobs sooner.",
                    t * 100.0
                ));
            }
        }
        out
    }

    /// Up to about `n` values from `0..=top`, always with the last few.
    fn spread(top: u64, n: u64) -> impl Iterator<Item = u64> {
        let step = (top / n).max(1) as usize;
        (0..=top).step_by(step).chain(top.saturating_sub(3)..=top)
    }

    #[test]
    fn warnings_are_worded_as_format_worded_them() {
        let mut checked = 0;
        let mut check = |r: SacctRecord<'static>| {
            let got = EfficiencyReport::from_record(&r, false).warnings;
            assert_eq!(got, formatted_warnings(&r), "{r:?}");
            checked += got.len();
        };
        // CPU: every total up to just past the 25 % threshold.
        for cpus in [1, 3, 8, 16, 128] {
            for elapsed in [300, 800, 1_000, 3_600, 86_400] {
                for total in spread(elapsed * u64::from(cpus) / 4 + 2, 2_000) {
                    check(rec(elapsed, 10 * elapsed, cpus, Some(total), None, 1_024));
                }
            }
        }
        // Memory: every MaxRSS up to just past the 25 % threshold.
        for req in [3, 200, 1_000, 1_024, 16_384, 100_000] {
            for rss in spread(req / 4 + 2, 2_000) {
                check(rec(3_600, 7_200, 8, None, Some(rss), req));
            }
        }
        // Time: limits from the elapsed time to 400 times it, and around the
        // 30 % threshold.
        for elapsed in [300, 301, 450, 1_000, 3_600] {
            for limit in spread(400 * elapsed, 4_000).filter(|l| *l >= elapsed) {
                check(rec(elapsed, limit, 8, None, None, 1_024));
            }
            for limit in elapsed * 10 / 3 - 3..elapsed * 10 / 3 + 3 {
                check(rec(elapsed, limit, 8, None, None, 1_024));
            }
        }
        // Just under the minimum run time, and a job still running: none.
        check(rec(299, 36_000, 16, Some(1), Some(1), 1_024));
        let mut running = rec(3_600, 36_000, 16, Some(1), Some(1), 1_024);
        running.state = JobState::Running;
        check(running);
        assert!(checked > 20_000, "{checked} sentences");
    }

    #[test]
    fn warning_percentages_round_half_to_even() {
        // 12.5 % prints as 12 and 0.5 % as 0: at a tie `{:.0}` goes to
        // the even neighbour. 1.5 % lies just above its tie and prints as 2.
        for (total, elapsed, want) in [(100, 800, "12%"), (5, 1_000, "0%"), (15, 1_000, "2%")] {
            let r = rec(elapsed, 10 * elapsed, 1, Some(total), None, 1_024);
            let warnings = EfficiencyReport::from_record(&r, false).warnings;
            assert!(
                warnings[0].starts_with(&format!("This job used only {want} of the 1 CPUs")),
                "{warnings:?}"
            );
        }
    }

    /// Per mille, printed, reads as the unrounded ratio printed with
    /// `{:.1}%` on every row of the seeded campus site: every job of every
    /// user after four simulated hours, each of its ratios (and the GPU
    /// approximation a finished GPU job gets). A row may differ only where
    /// its ratio sits on a rounding tie; there is none on this site.
    #[test]
    fn per_mille_prints_as_the_unrounded_ratio_printed_on_every_campus_row() {
        let mut config = hpcdash_workload::ScenarioConfig::campus();
        config.free_daemons = true;
        let scenario = hpcdash_workload::Scenario::build(config);
        scenario.driver(4 * 3_600).advance(4 * 3_600);
        let text = hpcdash_slurmcli::sacct(
            &scenario.dbd,
            &hpcdash_slurmcli::SacctArgs::default(),
            hpcdash_simtime::Clock::now(&scenario.clock),
        )
        .unwrap();
        let records = hpcdash_slurmcli::parse_sacct(&text).unwrap();
        let (mut cells, mut differ) = (0, Vec::new());
        for rec in &records {
            let r = Ratios::of(rec);
            let gpu = has_gpus(rec).then(|| r.cpu.map(|c| (c * 0.9).min(1.0)));
            for (what, ratio) in [
                ("cpu", r.cpu),
                ("memory", r.memory),
                ("time", r.time),
                ("gpu", gpu.flatten()),
            ] {
                let Some(ratio) = ratio else { continue };
                cells += 1;
                let (old, new) = (
                    format!("{:.1}%", ratio * 100.0),
                    percent(Some(per_mille(ratio))),
                );
                if old != new {
                    differ.push((rec.job_id, what, ratio, old, new));
                }
            }
        }
        assert!(cells > 1_500, "{cells} cells over {} rows", records.len());
        assert_eq!(differ, vec![], "cells that print differently");
    }
}
