//! Aggregate job performance metrics (paper §5): totals, queue wait, mean
//! duration, wall time and average efficiencies over a selectable range.

use crate::efficiency::Ratios;
use hpcdash_simtime::Timestamp;
use hpcdash_slurmcli::SacctRecord;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The time ranges the Job Performance Metrics page offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeRange {
    Last24h,
    Last7d,
    Last30d,
    AllTime,
    Custom { start: Timestamp, end: Timestamp },
}

impl TimeRange {
    /// Parse from the page's query parameters (`range`, `start`, `end`).
    pub(crate) fn from_query(
        range: Option<&str>,
        start: Option<&str>,
        end: Option<&str>,
    ) -> Option<TimeRange> {
        match range.unwrap_or("7d") {
            "24h" => Some(TimeRange::Last24h),
            "7d" => Some(TimeRange::Last7d),
            "30d" => Some(TimeRange::Last30d),
            "all" => Some(TimeRange::AllTime),
            "custom" => {
                let s = hpcdash_simtime::parse_timestamp(start?)?;
                let e = hpcdash_simtime::parse_timestamp(end?)?;
                if e < s {
                    return None;
                }
                Some(TimeRange::Custom { start: s, end: e })
            }
            _ => None,
        }
    }

    /// The `(since, until)` pair for the accounting query.
    pub fn window(&self, now: Timestamp) -> (Option<Timestamp>, Option<Timestamp>) {
        match self {
            TimeRange::Last24h => (Some(now.minus(86_400)), None),
            TimeRange::Last7d => (Some(now.minus(7 * 86_400)), None),
            TimeRange::Last30d => (Some(now.minus(30 * 86_400)), None),
            TimeRange::AllTime => (None, None),
            TimeRange::Custom { start, end } => (Some(*start), Some(*end)),
        }
    }

    pub fn label(&self) -> String {
        match self {
            TimeRange::Last24h => "Last 24 hours".to_string(),
            TimeRange::Last7d => "Last 7 days".to_string(),
            TimeRange::Last30d => "Last 30 days".to_string(),
            TimeRange::AllTime => "All time".to_string(),
            TimeRange::Custom { start, end } => format!("{} — {}", start, end),
        }
    }
}

/// The aggregate metrics card data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobMetrics {
    pub total_jobs: usize,
    pub by_state: BTreeMap<String, usize>,
    /// Average queue wait over jobs that started, seconds.
    pub avg_wait_secs: Option<f64>,
    /// Mean duration of finished jobs, seconds.
    pub mean_duration_secs: Option<f64>,
    /// Total wall time across finished jobs, seconds.
    pub total_wall_secs: u64,
    /// Total charged CPU-hours (alloc CPUs × elapsed).
    pub total_cpu_hours: f64,
    /// Total GPU-hours.
    pub total_gpu_hours: f64,
    /// Averages over finished jobs with usage data.
    pub avg_cpu_eff: Option<f64>,
    pub avg_mem_eff: Option<f64>,
    pub avg_time_eff: Option<f64>,
}

impl JobMetrics {
    /// Aggregate a set of accounting records.
    pub fn aggregate(records: &[SacctRecord<'_>]) -> JobMetrics {
        let mut by_state: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut waits = Vec::new();
        let mut durations = Vec::new();
        let mut total_wall = 0u64;
        let mut cpu_hours = 0.0;
        let mut gpu_hours = 0.0;
        let mut cpu_effs = Vec::new();
        let mut mem_effs = Vec::new();
        let mut time_effs = Vec::new();

        for rec in records {
            *by_state.entry(rec.state.to_slurm()).or_insert(0) += 1;
            if let Some(w) = rec.wait_secs() {
                waits.push(w as f64);
            }
            if rec.state.is_finished() {
                durations.push(rec.elapsed_secs as f64);
                total_wall += rec.elapsed_secs;
            }
            cpu_hours += rec.alloc_cpus as f64 * rec.elapsed_secs as f64 / 3_600.0;
            gpu_hours += rec.gpu_hours();
            if rec.state.is_finished() {
                let e = Ratios::of(rec);
                if let Some(c) = e.cpu {
                    cpu_effs.push(c);
                }
                if let Some(m) = e.memory {
                    mem_effs.push(m);
                }
                if let Some(t) = e.time {
                    time_effs.push(t);
                }
            }
        }

        JobMetrics {
            total_jobs: records.len(),
            by_state: by_state
                .into_iter()
                .map(|(state, n)| (state.to_string(), n))
                .collect(),
            avg_wait_secs: mean(&waits),
            mean_duration_secs: mean(&durations),
            total_wall_secs: total_wall,
            total_cpu_hours: cpu_hours,
            total_gpu_hours: gpu_hours,
            avg_cpu_eff: mean(&cpu_effs),
            avg_mem_eff: mean(&mem_effs),
            avg_time_eff: mean(&time_effs),
        }
    }
}

fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hpcdash_simtime::TimeLimit;
    use hpcdash_slurm::job::JobState;
    use hpcdash_slurm::tres::Tres;

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rec(
        user: &'static str,
        state: JobState,
        submit: u64,
        start: Option<u64>,
        end: Option<u64>,
        cpus: u32,
        gpus: u32,
    ) -> SacctRecord<'static> {
        let elapsed = match (start, end) {
            (Some(s), Some(e)) => e - s,
            _ => 0,
        };
        SacctRecord {
            job_id: "1",
            job_name: "j",
            user,
            account: "physics",
            partition: if gpus > 0 { "gpu" } else { "cpu" },
            qos: "normal",
            state,
            submit: Some(Timestamp(submit)),
            start: start.map(Timestamp),
            end: end.map(Timestamp),
            elapsed_secs: elapsed,
            timelimit: TimeLimit::Limited(7_200),
            alloc_cpus: cpus,
            alloc_nodes: 1,
            alloc_tres: Tres::new(cpus, 1_000, gpus, 1),
            req_mem_mb: 16_384,
            max_rss_mb: end.map(|_| 8_192),
            total_cpu_secs: end.map(|_| elapsed * cpus as u64 * 8 / 10),
            exit_code: "0:0",
            nodelist: "a001",
            comment: "",
        }
    }

    #[test]
    fn aggregates_basics() {
        let recs = vec![
            rec(
                "alice",
                JobState::Completed,
                0,
                Some(100),
                Some(3_700),
                8,
                0,
            ),
            rec("alice", JobState::Failed, 0, Some(200), Some(1_200), 4, 0),
            rec("alice", JobState::Pending, 500, None, None, 2, 0),
            rec("alice", JobState::Completed, 0, Some(50), Some(7_250), 8, 2),
        ];
        let m = JobMetrics::aggregate(&recs);
        assert_eq!(m.total_jobs, 4);
        assert_eq!(m.by_state["COMPLETED"], 2);
        assert_eq!(m.by_state["FAILED"], 1);
        assert_eq!(m.by_state["PENDING"], 1);
        // waits: 100, 200, 50 => 116.67
        assert!((m.avg_wait_secs.unwrap() - 350.0 / 3.0).abs() < 1e-6);
        // durations: 3600, 1000, 7200 => mean 3933.33
        assert!((m.mean_duration_secs.unwrap() - 11_800.0 / 3.0).abs() < 1e-6);
        assert_eq!(m.total_wall_secs, 3_600 + 1_000 + 7_200);
        // gpu hours: job4 = 2 gpus * 2h = 4.
        assert!((m.total_gpu_hours - 4.0).abs() < 1e-9);
        assert!((m.avg_cpu_eff.unwrap() - 0.8).abs() < 0.01);
        assert!(m.avg_time_eff.is_some());
    }

    #[test]
    fn empty_set_is_all_none() {
        let m = JobMetrics::aggregate(&[]);
        assert_eq!(m.total_jobs, 0);
        assert_eq!(m.avg_wait_secs, None);
        assert_eq!(m.mean_duration_secs, None);
        assert_eq!(m.total_gpu_hours, 0.0);
        assert!(serde_json::to_value(&m).unwrap()["avg_wait_secs"].is_null());
    }

    #[test]
    fn range_parsing() {
        assert_eq!(
            TimeRange::from_query(Some("24h"), None, None),
            Some(TimeRange::Last24h)
        );
        assert_eq!(
            TimeRange::from_query(None, None, None),
            Some(TimeRange::Last7d)
        );
        assert_eq!(
            TimeRange::from_query(Some("all"), None, None),
            Some(TimeRange::AllTime)
        );
        assert_eq!(TimeRange::from_query(Some("bogus"), None, None), None);
        let custom = TimeRange::from_query(
            Some("custom"),
            Some("2026-07-01T00:00:00"),
            Some("2026-07-03T00:00:00"),
        )
        .unwrap();
        assert!(matches!(custom, TimeRange::Custom { .. }));
        // Reversed custom range rejected.
        assert_eq!(
            TimeRange::from_query(
                Some("custom"),
                Some("2026-07-03T00:00:00"),
                Some("2026-07-01T00:00:00")
            ),
            None
        );
        // Custom without bounds rejected.
        assert_eq!(TimeRange::from_query(Some("custom"), None, None), None);
    }

    #[test]
    fn range_windows() {
        let now = Timestamp(100 * 86_400);
        assert_eq!(
            TimeRange::Last24h.window(now).0,
            Some(Timestamp(99 * 86_400))
        );
        assert_eq!(TimeRange::AllTime.window(now), (None, None));
        let (s, e) = TimeRange::Custom {
            start: Timestamp(5),
            end: Timestamp(9),
        }
        .window(now);
        assert_eq!((s, e), (Some(Timestamp(5)), Some(Timestamp(9))));
    }

    #[test]
    fn labels() {
        assert_eq!(TimeRange::Last7d.label(), "Last 7 days");
        assert!(TimeRange::Custom {
            start: Timestamp(0),
            end: Timestamp(86_400)
        }
        .label()
        .contains("1970"));
    }
}
