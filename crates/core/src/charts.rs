//! Chart data preparation (paper §4.2): the job-state distribution and
//! GPU-hour distribution charts, emitted in the shape Chart.js consumes
//! (`labels` + `datasets`), grouped by user — plus the inline SVG
//! sparklines the telemetry series render as.
//!
//! Both charts read one per-user table (`PerUser`), built in one pass
//! over the table's records and kept in name order as it grows: no sort
//! of every record's user name and no map keyed by state and user.

use crate::api::jobtelemetry::Series;
use crate::colors::job_state_color;
use hpcdash_slurm::job::JobState;
use hpcdash_slurmcli::SacctRecord;
use serde::{Deserialize, Serialize};

/// Stacked-bar data: per-user job counts split by state.
#[derive(Debug, Serialize, Deserialize)]
pub struct StateDistribution {
    pub r#type: String,
    pub labels: Vec<String>,
    pub datasets: Vec<StateCounts>,
}

/// One state's count per label of its [`StateDistribution`].
#[derive(Debug, Serialize, Deserialize)]
pub struct StateCounts {
    pub label: String,
    pub color: String,
    pub data: Vec<usize>,
}

/// Bar data: GPU hours per user.
#[derive(Debug, Serialize, Deserialize)]
pub struct GpuHours {
    pub r#type: String,
    pub labels: Vec<String>,
    pub datasets: Vec<GpuHoursSeries>,
}

#[derive(Debug, Serialize, Deserialize)]
pub struct GpuHoursSeries {
    pub label: String,
    pub data: Vec<f64>,
}

/// The table's jobs per user, in name order: how many are in each state
/// (indexed as [`JobState::ALL`], which lists the states in declaration
/// order) and the GPU hours they used, summed in record order. One pass
/// over the records builds it, and both charts read it.
pub(crate) struct PerUser<'t> {
    rows: Vec<UserRow<'t>>,
}

struct UserRow<'t> {
    user: &'t str,
    states: [usize; JobState::ALL.len()],
    gpu_hours: f64,
}

impl<'t> PerUser<'t> {
    pub(crate) fn of(records: &[SacctRecord<'t>]) -> PerUser<'t> {
        let mut rows: Vec<UserRow<'t>> = Vec::new();
        for r in records {
            let at = match rows.binary_search_by(|row| row.user.cmp(r.user)) {
                Ok(at) => at,
                Err(at) => {
                    rows.insert(
                        at,
                        UserRow {
                            user: r.user,
                            states: [0; JobState::ALL.len()],
                            gpu_hours: 0.0,
                        },
                    );
                    at
                }
            };
            let row = &mut rows[at];
            row.states[r.state as usize] += 1;
            row.gpu_hours += r.gpu_hours();
        }
        PerUser { rows }
    }

    fn labels(&self) -> Vec<String> {
        self.rows.iter().map(|row| row.user.to_string()).collect()
    }

    /// Stacked bars: one dataset per state some job is in.
    pub(crate) fn state_distribution(&self) -> StateDistribution {
        let datasets = JobState::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| self.rows.iter().any(|row| row.states[*i] > 0))
            .map(|(i, state)| StateCounts {
                label: state.to_slurm().to_string(),
                color: job_state_color(*state).to_string(),
                data: self.rows.iter().map(|row| row.states[i]).collect(),
            })
            .collect();
        StateDistribution {
            r#type: "stacked-bar".to_string(),
            labels: self.labels(),
            datasets,
        }
    }

    /// Bars: GPU hours per user, rounded to 0.01.
    pub(crate) fn gpu_hours(&self) -> GpuHours {
        GpuHours {
            r#type: "bar".to_string(),
            labels: self.labels(),
            datasets: vec![GpuHoursSeries {
                label: "GPU hours".to_string(),
                data: self
                    .rows
                    .iter()
                    .map(|row| (row.gpu_hours * 100.0).round() / 100.0)
                    .collect(),
            }],
        }
    }
}

/// An inline SVG sparkline from `(t, v)` pairs where `v` is a
/// utilization fraction in `[0, 1]` (the y axis is fixed to that range so
/// sparklines are comparable across jobs). `kind` becomes a `spark-<kind>`
/// class hook for per-series stroke colors. Empty string when there are
/// fewer than two points — callers show a placeholder instead.
pub(crate) fn sparkline_svg(pairs: &[(i64, f64)], kind: &str, width: u32, height: u32) -> String {
    let [first, .., last] = pairs else {
        return String::new();
    };
    let t0 = first.0 as f64;
    let span = (last.0 as f64 - t0).max(1.0);
    let coords = pairs
        .iter()
        .map(|&(t, v)| {
            let x = (t as f64 - t0) / span * f64::from(width);
            let y = (1.0 - v.clamp(0.0, 1.0)) * f64::from(height);
            format!("{x:.1},{y:.1}")
        })
        .collect::<Vec<_>>()
        .join(" ");
    format!(
        "<svg class=\"sparkline spark-{kind}\" viewBox=\"0 0 {width} {height}\" \
         preserveAspectRatio=\"none\" role=\"img\" \
         aria-label=\"{kind} utilization over time\">\
         <polyline points=\"{coords}\"/></svg>"
    )
}

/// A job's sparklines, one `<row>` per kind of series with points to
/// draw, `height` pixels tall.
pub(crate) fn sparkline_rows(series: &Series, height: u32, row: &str) -> String {
    let gpu = series.gpu.as_deref().unwrap_or_default();
    [
        ("cpu", "CPU", &series.cpu[..]),
        ("mem", "Memory", &series.mem[..]),
        ("gpu", "GPU", gpu),
    ]
    .iter()
    .filter_map(|(key, label, pairs)| {
        let svg = sparkline_svg(pairs, key, 120, height);
        (!svg.is_empty()).then(|| {
            format!(
                "<{row} class=\"telemetry-row\">\
                     <span class=\"telemetry-label\">{label}</span>{svg}</{row}>"
            )
        })
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::tests::rec;
    use serde_json::{json, Value};

    fn value(chart: &impl Serialize) -> Value {
        serde_json::to_value(chart).unwrap()
    }

    #[test]
    fn state_distribution_groups_by_user() {
        let recs = vec![
            rec("alice", JobState::Completed, 0, Some(0), Some(100), 1, 0),
            rec("alice", JobState::Completed, 0, Some(0), Some(100), 1, 0),
            rec("alice", JobState::Failed, 0, Some(0), Some(100), 1, 0),
            rec("bob", JobState::Pending, 0, None, None, 1, 0),
        ];
        let chart = value(&PerUser::of(&recs).state_distribution());
        assert_eq!(chart["labels"], json!(["alice", "bob"]));
        let datasets = chart["datasets"].as_array().unwrap();
        // Only states that occur appear.
        let labels: Vec<&str> = datasets
            .iter()
            .map(|d| d["label"].as_str().unwrap())
            .collect();
        assert!(labels.contains(&"COMPLETED"));
        assert!(labels.contains(&"FAILED"));
        assert!(labels.contains(&"PENDING"));
        assert_eq!(labels.len(), 3);
        let completed = datasets.iter().find(|d| d["label"] == "COMPLETED").unwrap();
        assert_eq!(completed["data"], json!([2, 0]));
        let pending = datasets.iter().find(|d| d["label"] == "PENDING").unwrap();
        assert_eq!(pending["data"], json!([0, 1]));
    }

    #[test]
    fn gpu_hours_summed_per_user() {
        let recs = vec![
            rec("alice", JobState::Completed, 0, Some(0), Some(3_600), 8, 2), // 2 gpu-h
            rec("alice", JobState::Completed, 0, Some(0), Some(1_800), 8, 4), // 2 gpu-h
            rec("bob", JobState::Completed, 0, Some(0), Some(3_600), 8, 0),   // 0
        ];
        let chart = value(&PerUser::of(&recs).gpu_hours());
        assert_eq!(chart["labels"], json!(["alice", "bob"]));
        assert_eq!(chart["datasets"][0]["data"], json!([4.0, 0.0]));
    }

    #[test]
    fn state_indexes_follow_the_all_list() {
        for (i, state) in JobState::ALL.into_iter().enumerate() {
            assert_eq!(state as usize, i, "{state:?}");
        }
    }

    /// The table against the maps it replaced, on records of shuffled
    /// users, states and GPU counts.
    #[test]
    fn per_user_table_matches_a_map_per_chart() {
        use std::collections::BTreeMap;
        let users = ["zoe", "al", "mo", "al2", "b"];
        let mut recs = Vec::new();
        for i in 0..300u64 {
            let state = JobState::ALL[(i * 7 % 10) as usize];
            let user = users[(i * 13 % 5) as usize];
            recs.push(rec(
                user,
                state,
                0,
                Some(0),
                Some(i * 97),
                8,
                (i % 3) as u32,
            ));
        }
        let mut by_user: BTreeMap<&str, (BTreeMap<JobState, usize>, f64)> = BTreeMap::new();
        for r in &recs {
            let entry = by_user.entry(r.user).or_default();
            *entry.0.entry(r.state).or_default() += 1;
            entry.1 += r.gpu_hours();
        }
        let table = PerUser::of(&recs);
        let states = value(&table.state_distribution());
        let labels: Vec<&str> = by_user.keys().copied().collect();
        assert_eq!(states["labels"], json!(labels));
        let seen: Vec<JobState> = JobState::ALL
            .into_iter()
            .filter(|s| by_user.values().any(|(n, _)| n.contains_key(s)))
            .collect();
        let datasets = states["datasets"].as_array().unwrap();
        assert_eq!(datasets.len(), seen.len());
        for (set, state) in datasets.iter().zip(seen) {
            assert_eq!(set["label"], state.to_slurm());
            let counts: Vec<usize> = by_user
                .values()
                .map(|(n, _)| n.get(&state).copied().unwrap_or(0))
                .collect();
            assert_eq!(set["data"], json!(counts));
        }
        let gpu = value(&table.gpu_hours());
        assert_eq!(gpu["labels"], json!(labels));
        let hours: Vec<f64> = by_user
            .values()
            .map(|(_, h)| (h * 100.0).round() / 100.0)
            .collect();
        assert_eq!(gpu["datasets"][0]["data"], json!(hours));
    }

    #[test]
    fn sparkline_scales_points_into_viewbox() {
        let svg = sparkline_svg(&[(1_000, 0.0), (1_030, 0.5), (1_060, 1.0)], "cpu", 120, 32);
        assert!(svg.contains("spark-cpu"));
        assert!(svg.contains("viewBox=\"0 0 120 32\""));
        // First point: x=0, v=0 -> bottom (y=height). Last: x=width, top.
        assert!(svg.contains("0.0,32.0"), "{svg}");
        assert!(svg.contains("120.0,0.0"), "{svg}");
        assert!(svg.contains("60.0,16.0"), "midpoint centered: {svg}");
        assert!(svg.contains("aria-label"), "accessible name present");
    }

    #[test]
    fn sparkline_needs_two_points() {
        assert_eq!(sparkline_svg(&[], "cpu", 120, 32), "");
        assert_eq!(sparkline_svg(&[(0, 0.5)], "cpu", 120, 32), "");
    }

    #[test]
    fn sparkline_clamps_out_of_range_values() {
        let svg = sparkline_svg(&[(0, -0.5), (60, 1.5)], "gpu", 100, 20);
        assert!(svg.contains("0.0,20.0"), "{svg}");
        assert!(svg.contains("100.0,0.0"), "{svg}");
    }

    #[test]
    fn empty_records_give_empty_charts() {
        let chart = value(&PerUser::of(&[]).state_distribution());
        assert_eq!(chart["labels"], json!([]));
        assert_eq!(chart["datasets"].as_array().unwrap().len(), 0);
        let gpu = value(&PerUser::of(&[]).gpu_hours());
        assert_eq!(gpu["labels"], json!([]));
    }
}
