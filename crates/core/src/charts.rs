//! Chart data preparation (paper §4.2): the job-state distribution and
//! GPU-hour distribution charts, emitted in the shape Chart.js consumes
//! (`labels` + `datasets`), grouped by user — plus the inline SVG
//! sparklines the telemetry series render as.

use crate::colors::{job_state_color, ColorClass};
use hpcdash_slurm::job::JobState;
use hpcdash_slurmcli::SacctRecord;
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;

/// Stacked-bar data: per-user job counts split by state. The user names
/// are borrowed from the records counted.
#[derive(Debug, Serialize)]
pub struct StateDistribution<'t> {
    pub r#type: &'static str,
    pub labels: Vec<&'t str>,
    pub datasets: Vec<StateCounts>,
}

/// One state's count per label of its [`StateDistribution`].
#[derive(Debug, Serialize)]
pub struct StateCounts {
    pub label: &'static str,
    pub color: ColorClass,
    pub data: Vec<usize>,
}

/// Bar data: GPU hours per user.
#[derive(Debug, Serialize)]
pub struct GpuHours<'t> {
    pub r#type: &'static str,
    pub labels: Vec<&'t str>,
    pub datasets: [GpuHoursSeries; 1],
}

#[derive(Debug, Serialize)]
pub struct GpuHoursSeries {
    pub label: &'static str,
    pub data: Vec<f64>,
}

pub fn job_state_distribution<'t>(records: &[SacctRecord<'t>]) -> StateDistribution<'t> {
    let mut users: Vec<&'t str> = records.iter().map(|r| r.user).collect();
    users.sort_unstable();
    users.dedup();

    let mut counts: BTreeMap<(JobState, &str), usize> = BTreeMap::new();
    for r in records {
        *counts.entry((r.state, r.user)).or_insert(0) += 1;
    }

    let mut datasets = Vec::new();
    for state in JobState::ALL {
        let data: Vec<usize> = users
            .iter()
            .map(|u| counts.get(&(state, *u)).copied().unwrap_or(0))
            .collect();
        if data.iter().any(|c| *c > 0) {
            datasets.push(StateCounts {
                label: state.to_slurm(),
                color: job_state_color(state),
                data,
            });
        }
    }

    StateDistribution {
        r#type: "stacked-bar",
        labels: users,
        datasets,
    }
}

pub fn gpu_hours_distribution<'t>(records: &[SacctRecord<'t>]) -> GpuHours<'t> {
    let mut by_user: BTreeMap<&'t str, f64> = BTreeMap::new();
    for r in records {
        *by_user.entry(r.user).or_insert(0.0) += r.gpu_hours();
    }
    GpuHours {
        r#type: "bar",
        labels: by_user.keys().copied().collect(),
        datasets: [GpuHoursSeries {
            label: "GPU hours",
            data: by_user
                .values()
                .map(|h| (h * 100.0).round() / 100.0)
                .collect(),
        }],
    }
}

/// An inline SVG sparkline from `[[t, v], ...]` pairs where `v` is a
/// utilization fraction in `[0, 1]` (the y axis is fixed to that range so
/// sparklines are comparable across jobs). `kind` becomes a `spark-<kind>`
/// class hook for per-series stroke colors. Empty string when there are
/// fewer than two points — callers show a placeholder instead.
pub fn sparkline_svg(pairs: &Value, kind: &str, width: u32, height: u32) -> String {
    let pts: Vec<(f64, f64)> = pairs
        .as_array()
        .map(Vec::as_slice)
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| Some((p[0].as_f64()?, p[1].as_f64()?)))
        .collect();
    if pts.len() < 2 {
        return String::new();
    }
    let t0 = pts[0].0;
    let span = (pts[pts.len() - 1].0 - t0).max(1.0);
    let coords = pts
        .iter()
        .map(|(t, v)| {
            let x = (t - t0) / span * f64::from(width);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::tests::rec;
    use serde_json::json;

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
        let chart = value(&job_state_distribution(&recs));
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
        let chart = value(&gpu_hours_distribution(&recs));
        assert_eq!(chart["labels"], json!(["alice", "bob"]));
        assert_eq!(chart["datasets"][0]["data"], json!([4.0, 0.0]));
    }

    #[test]
    fn sparkline_scales_points_into_viewbox() {
        let pairs = json!([[1_000, 0.0], [1_030, 0.5], [1_060, 1.0]]);
        let svg = sparkline_svg(&pairs, "cpu", 120, 32);
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
        assert_eq!(sparkline_svg(&json!([]), "cpu", 120, 32), "");
        assert_eq!(sparkline_svg(&json!([[0, 0.5]]), "cpu", 120, 32), "");
        assert_eq!(sparkline_svg(&json!(null), "cpu", 120, 32), "");
    }

    #[test]
    fn sparkline_clamps_out_of_range_values() {
        let pairs = json!([[0, -0.5], [60, 1.5]]);
        let svg = sparkline_svg(&pairs, "gpu", 100, 20);
        assert!(svg.contains("0.0,20.0"), "{svg}");
        assert!(svg.contains("100.0,0.0"), "{svg}");
    }

    #[test]
    fn empty_records_give_empty_charts() {
        let chart = value(&job_state_distribution(&[]));
        assert_eq!(chart["labels"], json!([]));
        assert_eq!(chart["datasets"].as_array().unwrap().len(), 0);
        let gpu = value(&gpu_hours_distribution(&[]));
        assert_eq!(gpu["labels"], json!([]));
    }
}
