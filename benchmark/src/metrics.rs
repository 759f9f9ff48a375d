//! The metric catalog: every name the benchmark emits, with its unit, the
//! direction that is better and — end to end — the regression bound.
//! `BENCHMARK.json` repeats it; `--smoke` checks the two agree.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the dashboard would see. `fail_share` and
/// `daemon_rpcs_per_kreq` are not here because the contract wants metrics
/// that are never 0: failures are the result line's `failed`/`attempted`,
/// daemon RPCs a per-layer count.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "req_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "visit_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "visit_p99_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_req",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Widget routes whose `Dashboard::handle` cost is reported per state.
pub const CORE_ROUTES: [(&str, &str); 6] = [
    ("recent_jobs", "/api/recent_jobs"),
    ("system_status", "/api/system_status"),
    ("myjobs", "/api/myjobs"),
    ("jobmetrics", "/api/jobmetrics"),
    ("clusterstatus", "/api/clusterstatus"),
    ("job_overview", "/api/jobs/:id"),
];

pub const SLURMCLI_COMMANDS: [&str; 4] = ["squeue", "sacct", "sinfo", "scontrol_node"];

/// Per-layer metrics, in the order of the README's layer table.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    let mut add = |name: String, unit: &'static str, better: &'static str| {
        out.push(PerLayer { name, unit, better });
    };
    for (name, unit, better) in [
        ("http.parse_us", "us", "lower"),
        ("http.serialize_us", "us", "lower"),
        ("http.wire_residual_us", "us", "lower"),
        ("http.status_304_share", "share", "higher"),
        ("http.wire_bytes_per_req", "B", "lower"),
        ("core.revalidate_us", "us", "lower"),
        ("core.shell_us", "us", "lower"),
    ] {
        add(name.to_string(), unit, better);
    }
    for state in ["hit", "miss"] {
        for (route, _) in CORE_ROUTES {
            add(format!("core.{state}_us.{route}"), "us", "lower");
        }
    }
    for (name, unit, better) in [
        ("core.build_residual_us.myjobs", "us", "lower"),
        ("cache.widget_hit_share", "share", "higher"),
        ("cache.widget_fills_per_kreq", "1/kreq", "lower"),
        ("cache.expirations_per_kreq", "1/kreq", "lower"),
        ("cache.coalesced_per_kreq", "1/kreq", "higher"),
        ("cache.hit_cost_us_per_kb", "us/KB", "lower"),
    ] {
        add(name.to_string(), unit, better);
    }
    for stage in ["render", "parse"] {
        for command in SLURMCLI_COMMANDS {
            add(format!("slurmcli.{command}_{stage}_us"), "us", "lower");
        }
    }
    for (name, unit, better) in [
        ("slurmcli.parse_calls_per_kreq", "1/kreq", "lower"),
        ("slurm.snapshot_load_ns", "ns", "lower"),
        ("slurm.tick_ms", "ms", "lower"),
        ("slurm.ctld_rpcs_per_kreq", "1/kreq", "lower"),
        ("slurm.dbd_rpcs_per_kreq", "1/kreq", "lower"),
        ("slurm.state_locks_per_kreq", "1/kreq", "lower"),
        ("slurm.rows_scanned_per_kreq", "1/kreq", "lower"),
        ("restapi.auth_us", "us", "lower"),
        ("restapi.visible_positions_us", "us", "lower"),
        ("restapi.jobs_body_us", "us", "lower"),
        ("restapi.nodes_body_us", "us", "lower"),
        ("federation.snapshot_merge_us", "us", "lower"),
        ("federation.fanouts_per_kreq", "1/kreq", "lower"),
        ("telemetry.query_range_us", "us", "lower"),
        ("push.updates_poll_us", "us", "lower"),
        ("obs.span_ns", "ns", "lower"),
        ("obs.counter_lookup_inc_ns", "ns", "lower"),
        ("obs.metrics_scrape_ms", "ms", "lower"),
        ("json.to_bytes_us_per_kb", "us/KB", "lower"),
        ("json.clone_us_per_kb", "us/KB", "lower"),
        ("json.parse_us_per_kb", "us/KB", "lower"),
        ("trace.overhead_share", "share", "lower"),
        ("daemon_rpcs_per_kreq", "1/kreq", "lower"),
    ] {
        add(name.to_string(), unit, better);
    }
    out
}

/// Counts that repeat exactly when the rounds do: `compare` wants them
/// identical between two sets of runs of one commit. Not
/// `cache.coalesced_per_kreq`, which depends on how the two connections
/// interleave, nor `trace.overhead_share`, which is a ratio of times.
pub fn is_exact_count(name: &str) -> bool {
    let counted = name.ends_with("_per_kreq") || name.ends_with("_share");
    counted && name != "cache.coalesced_per_kreq" && name != "trace.overhead_share"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        let total = names.len();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used once");
        assert!(per_layer().len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn exact_counts_are_the_per_kreq_and_share_metrics() {
        assert!(is_exact_count("slurm.ctld_rpcs_per_kreq"));
        assert!(is_exact_count("cache.widget_hit_share"));
        assert!(!is_exact_count("cache.coalesced_per_kreq"));
        assert!(!is_exact_count("trace.overhead_share"));
        assert!(!is_exact_count("http.parse_us"));
    }
}
