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

use hpcdash_simtime::TimeLimit;
use hpcdash_slurmcli::SacctRecord;
use serde::Serialize;

/// Thresholds for warnings. A job must have run a while before we judge it.
pub const MIN_ELAPSED_FOR_WARNING: u64 = 300;
pub const CPU_WARN_BELOW: f64 = 0.25;
pub const MEM_WARN_BELOW: f64 = 0.25;
pub const TIME_WARN_BELOW: f64 = 0.30;

/// A job's efficiency report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EfficiencyReport {
    /// `None` when the underlying usage data is not (yet) available.
    pub cpu: Option<f64>,
    pub memory: Option<f64>,
    pub time: Option<f64>,
    /// Only set when the GPU-efficiency feature flag is on and the job used
    /// GPUs. Measured from the telemetry collector's GPU-utilization series
    /// when one exists ([`EfficiencyReport::from_record_with_gpu`]); the
    /// old CPU-activity approximation remains as the fallback for jobs that
    /// predate the collectors or whose series has aged out of retention.
    pub gpu: Option<f64>,
    pub warnings: Vec<String>,
}

impl EfficiencyReport {
    /// Compute from an accounting record alone (no collector samples; GPU
    /// efficiency, if enabled, falls back to the CPU approximation).
    pub fn from_record(rec: &SacctRecord<'_>, gpu_flag: bool) -> EfficiencyReport {
        EfficiencyReport::from_record_with_gpu(rec, gpu_flag, None)
    }

    /// Compute from an accounting record plus, when available, the mean of
    /// the telemetry collector's GPU-utilization series for this job.
    /// Collector samples win over the approximation — and unlike it they
    /// work for still-running jobs, since the series exists from the first
    /// tick.
    pub fn from_record_with_gpu(
        rec: &SacctRecord<'_>,
        gpu_flag: bool,
        collector_gpu: Option<f64>,
    ) -> EfficiencyReport {
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
        let gpu = if gpu_flag && has_gpus(rec) {
            match collector_gpu {
                Some(g) => Some(g.clamp(0.0, 1.0)),
                // Fallback proxy when no series exists: GPU jobs in this
                // simulator drive GPUs roughly in proportion to their CPU
                // activity. Only meaningful once the job has finished.
                None if rec.state.is_finished() => cpu.map(|c| (c * 0.9).min(1.0)),
                None => None,
            }
        } else {
            None
        };

        let mut warnings = Vec::new();
        if rec.state.is_finished() && elapsed >= MIN_ELAPSED_FOR_WARNING {
            if let Some(c) = cpu {
                if c < CPU_WARN_BELOW {
                    warnings.push(format!(
                        "This job used only {:.0}% of the {} CPUs it requested. Requesting fewer CPUs will reduce your queue wait times and leave more resources for others.",
                        c * 100.0,
                        rec.alloc_cpus
                    ));
                }
            }
            if let Some(m) = memory {
                if m < MEM_WARN_BELOW {
                    warnings.push(format!(
                        "This job used only {:.0}% of its requested memory. Requesting less memory will reduce your queue wait times and leave more resources for others.",
                        m * 100.0
                    ));
                }
            }
            if let Some(t) = time {
                if t < TIME_WARN_BELOW {
                    warnings.push(format!(
                        "This job used only {:.0}% of its requested time limit. A shorter limit helps the scheduler start your jobs sooner.",
                        t * 100.0
                    ));
                }
            }
        }

        EfficiencyReport {
            cpu,
            memory,
            time,
            gpu,
            warnings,
        }
    }
}

fn has_gpus(rec: &SacctRecord<'_>) -> bool {
    // GPU jobs in this stack run on the gpu partition.
    rec.partition == "gpu"
}

/// Format a fraction as the table shows it.
pub fn percent(f: Option<f64>) -> String {
    match f {
        Some(v) => format!("{:.1}%", v * 100.0),
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
        assert!((e.cpu.unwrap() - 0.5).abs() < 1e-9);
        assert!((e.memory.unwrap() - 0.5).abs() < 1e-9);
        assert!((e.time.unwrap() - 0.5).abs() < 1e-9);
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
        assert_eq!(e.cpu, Some(1.0));
        assert_eq!(e.memory, Some(1.0));
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
        assert_eq!(measured.gpu, Some(0.83));
        // Out-of-range collector values are clamped, not propagated.
        let clamped = EfficiencyReport::from_record_with_gpu(&r, true, Some(1.7));
        assert_eq!(clamped.gpu, Some(1.0));
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
        assert_eq!(live.gpu, Some(0.6));
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
        assert_eq!(percent(Some(0.5)), "50.0%");
        assert_eq!(percent(Some(0.018)), "1.8%");
        assert_eq!(percent(None), "—");
    }
}
