//! `compare a.json b.json`: one row per (workload, end-to-end metric) with
//! base, new, ratio, bound and a verdict; exact counts must repeat when
//! both sets measured the same number of rounds.

use crate::metrics::{is_exact_count, END_TO_END};
use crate::site::WORKLOADS;
use crate::stats::median_f64;
use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// The run-to-run spread is wider than the bound: neither "unchanged"
    /// nor "regressed" can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile distance as a share of the median; 0 for fewer than four
/// values, where quartiles say nothing.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Python's statistics.quantiles(values, n=4), the "exclusive" method.
    let q = |k: f64| {
        let pos = k * (v.len() as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    let median = median_f64(&v);
    if median == 0.0 {
        return 0.0;
    }
    ((q(3.0) - q(1.0)) / median).abs()
}

pub fn verdict(base: &[f64], new: &[f64], better: &str, bound: f64) -> Verdict {
    let (b, n) = (median_f64(base), median_f64(new));
    if b == 0.0 {
        return Verdict::Unresolved;
    }
    // Positive when the new side is worse.
    let worse_by = if better == "lower" {
        (n - b) / b
    } else {
        (b - n) / b
    };
    let every_new_beats_every_base = new.iter().all(|x| {
        base.iter()
            .all(|y| if better == "lower" { x < y } else { x > y })
    });
    let noise = spread(base).max(spread(new));
    if worse_by > bound {
        Verdict::Regressed
    } else if every_new_beats_every_base && -worse_by > noise && new.len() >= 2 {
        Verdict::Improved
    } else if noise > bound {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

fn values(set: &Value, workload: &str, section: &str, metric: &str) -> Vec<f64> {
    set["workloads"][workload]["runs"]
        .as_array()
        .map(Vec::as_slice)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| run[section][metric]["value"].as_f64())
        .collect()
}

/// Differences between the exact counts of two runs that measured the same
/// number of rounds; empty when they repeat.
pub fn count_mismatches(base: &Value, new: &Value) -> Vec<String> {
    let mut out = Vec::new();
    if base["rounds"].as_u64().is_none() || base["rounds"] != new["rounds"] {
        return out;
    }
    for key in [
        "requests",
        "not_modified",
        "visits",
        "sampled",
        "body_digest",
    ] {
        if base[key] != new[key] {
            out.push(format!("{key}: {} vs {}", base[key], new[key]));
        }
    }
    let empty = serde_json::Map::new();
    for (name, b) in base["per_layer"].as_object().unwrap_or(&empty) {
        let (Some(b), Some(n)) = (
            b["value"].as_f64(),
            new["per_layer"][name.as_str()]["value"].as_f64(),
        ) else {
            continue;
        };
        let off = if is_exact_count(name) {
            b != n
        } else {
            // Depends on how the two connections interleave: 1 % instead.
            name == "cache.coalesced_per_kreq" && (b - n).abs() > 0.01 * b.abs().max(n.abs())
        };
        if off {
            out.push(format!("{name}: {b} vs {n}"));
        }
    }
    out
}

/// Print the table; `false` when anything regressed or a count moved.
pub fn compare(base: &Value, new: &Value) -> bool {
    let mut ok = true;
    println!(
        "{:<12} {:<16} {:>12} {:>12} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (b, n) = (
                values(base, w.name, "end_to_end", m.name),
                values(new, w.name, "end_to_end", m.name),
            );
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let v = verdict(&b, &n, m.better, m.bound);
            ok &= v != Verdict::Regressed;
            let (bm, nm) = (median_f64(&b), median_f64(&n));
            println!(
                "{:<12} {:<16} {:>12.4} {:>12.4} {:>7.3} {:>6.2}  {}",
                w.name,
                m.name,
                bm,
                nm,
                nm / bm,
                m.bound,
                v.label()
            );
        }
        let first = |set: &Value| set["workloads"][w.name]["runs"][0].clone();
        for (side, set) in [("base", base), ("new", new)] {
            for run in set["workloads"][w.name]["runs"]
                .as_array()
                .into_iter()
                .flatten()
            {
                if run["failed"].as_u64().unwrap_or(0) != 0 {
                    println!("{:<12} {side}: {} failed requests", w.name, run["failed"]);
                    ok = false;
                }
            }
        }
        for line in count_mismatches(&first(base), &first(new)) {
            if w.ticks {
                // The simulator does not repeat itself exactly from process
                // to process (scheduling follows HashMap iteration order in
                // places), so on a ticking workload a count may move between
                // two runs of one commit: shown, not failed.
                println!("{:<12} count differs (ticking) · {line}", w.name);
            } else {
                println!("{:<12} count mismatch · {line}", w.name);
                ok = false;
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn verdicts_on_synthetic_inputs() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.6];
        assert_eq!(verdict(&base, &slower, "lower", 0.10), Verdict::Regressed);
        assert_eq!(verdict(&base, &faster, "lower", 0.10), Verdict::Improved);
        assert_eq!(verdict(&base, &same, "lower", 0.10), Verdict::WithinBound);
        // For a rate, more is better.
        assert_eq!(verdict(&base, &slower, "higher", 0.10), Verdict::Improved);
        assert_eq!(verdict(&base, &faster, "higher", 0.10), Verdict::Regressed);
        // Noise wider than the bound resolves nothing.
        let noisy = [60.0, 140.0, 80.0, 120.0, 100.0];
        assert_eq!(verdict(&noisy, &noisy, "lower", 0.10), Verdict::Unresolved);
        // One run per side: a small move is within bound, a big one is not.
        assert_eq!(
            verdict(&[100.0], &[104.0], "lower", 0.05),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&[100.0], &[106.0], "lower", 0.05),
            Verdict::Regressed
        );
    }

    #[test]
    fn spread_is_pythons_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn counts_must_repeat_when_the_rounds_do() {
        let run = |digest: &str, rpcs: f64, coalesced: f64, rounds: Value| {
            json!({
                "rounds": rounds, "requests": 10, "not_modified": 4, "visits": 3, "sampled": 1,
                "body_digest": digest,
                "per_layer": {
                    "slurm.ctld_rpcs_per_kreq": {"value": rpcs, "unit": "1/kreq"},
                    "cache.coalesced_per_kreq": {"value": coalesced, "unit": "1/kreq"},
                    "http.parse_us": {"value": rpcs, "unit": "us"},
                },
            })
        };
        let fixed = json!(5);
        let a = run("aa", 2.0, 100.0, fixed.clone());
        assert!(count_mismatches(&a, &run("aa", 2.0, 100.5, fixed.clone())).is_empty());
        assert_eq!(
            count_mismatches(&a, &run("ab", 2.0, 100.0, fixed.clone())).len(),
            1
        );
        assert_eq!(count_mismatches(&a, &run("aa", 3.0, 102.0, fixed)).len(), 2);
        // A run cut short by its deadline did other work: nothing to compare.
        assert!(count_mismatches(
            &run("aa", 2.0, 1.0, json!(5)),
            &run("zz", 9.0, 9.0, json!(4))
        )
        .is_empty());
    }
}
