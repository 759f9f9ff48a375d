//! The surface rule (DESIGN "Public surface"): a `pub fn` in `crates/*/src`
//! is named by another crate's `src`, by `src/`, `examples/` or
//! `benchmark/src`, or it is a test hook listed in `EXCEPTIONS` beside the
//! test that calls it. Everything else is `pub(crate)`, where rustc's
//! dead-code lint (Clippy runs with `-D warnings`) rejects it once only
//! tests call it. A name counts as named wherever it occurs as a whole
//! identifier, comments included.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// `crate function file::test`: the hook, and the test (or the reference
/// implementation a test compares against) that calls it.
const EXCEPTIONS: &[&str] = &[
    "cache etag_for tests/cache_paths.rs::every_cached_route_serves_its_filled_bytes_in_every_form",
    "cache import_json tests/client_persistence.rs::exported_cache_keeps_a_new_session_instant",
    "client admin_observability_paths tests/observatory.rs::observatory_end_to_end",
    "client anchor_at tests/live_updates.rs::streaming_matches_polling_at_equivalent_freshness",
    "client events_applied tests/live_updates.rs::streaming_matches_polling_at_equivalent_freshness",
    "client export_cache tests/client_persistence.rs::exported_cache_keeps_a_new_session_instant",
    "client fetch_shell tests/observability.rs::health_endpoint_reflects_source_outcomes",
    "client tracked_jobs tests/live_updates.rs::streaming_subscriber_recovers_from_overflow",
    "core cached_resilient tests/fill_allocations.rs::a_source_already_seen_is_recorded_without_allocating",
    "core from_request tests/privacy.rs::every_reader_of_the_privacy_rule_agrees_on_every_job",
    "core progress_bar tests/accessibility.rs::progress_bars_expose_aria_values",
    "core render_list tests/pages.rs::f4b_cluster_status_grid_and_list",
    "core render_shell tests/accessibility.rs::page_shells_declare_language_viewport_and_labelled_spinners",
    "core scope_profile tests/privacy.rs::every_reader_of_the_privacy_rule_agrees_on_every_job",
    "core stale_notice tests/accessibility.rs::every_page_labels_a_stale_answer",
    "faults garble_text crates/slurmcli/tests/fuzz_parsers.rs::garbled_live_output_never_panics_and_is_usually_noticed",
    "faults with_probability tests/chaos.rs::same_seed_yields_the_same_outcome_trace",
    "http bind_with crates/http/tests/parser_robustness.rs::idle_connections_are_reaped",
    "http connection_count crates/http/tests/event_loop.rs::shutdown_joins_once_the_running_handler_returns",
    "http internal_error crates/http/tests/event_loop.rs::handler_concurrency_equals_workers",
    "http shutdown crates/http/tests/event_loop.rs::shutdown_joins_once_the_running_handler_returns",
    "http thread_count crates/http/tests/event_loop.rs::handler_concurrency_equals_workers",
    "restapi has_job_scope tests/privacy.rs::visible_job_positions_is_allows_job_indexed",
    "simtime from_unix crates/slurmcli/tests/reference/mod.rs::format_timestamp",
    "simtime to_unix crates/slurmcli/tests/reference/mod.rs::parse_timestamp",
    "slurm active_jobs crates/slurm/tests/invariants.rs::ledgers_balance_under_random_ops",
    "slurm all_nodes crates/slurm/tests/invariants.rs::ledgers_balance_under_random_ops",
    "slurm assoc_store crates/slurm/tests/invariants.rs::ledgers_balance_under_random_ops",
    "slurm chunk_count crates/slurm/tests/tick_allocations.rs::a_publish_allocates_for_what_changed_not_for_the_site",
    "slurm drain_finished crates/slurm/tests/backfill_quality.rs::utilization_with_backfill_beats_strict_fifo_shape",
    "slurm format_mem_mb crates/slurmcli/tests/command_boundary.rs::grammar_writers_match_the_reference",
    "slurm mirror_len tests/recovery.rs::dbd_crash_loses_only_unflushed_batches_and_recovers_lazily",
    "slurm per_node_tres crates/slurm/tests/invariants.rs::ledgers_balance_under_random_ops",
    "slurm record_finished tests/recovery.rs::dbd_crash_loses_only_unflushed_batches_and_recovers_lazily",
    "slurm set_partition_state tests/fault_isolation.rs::drained_partition_surfaces_as_state_not_failure",
    "slurm sink_count tests/live_updates.rs::dropped_dashboards_leave_the_event_log",
    "slurm with_max_time crates/slurmcli/tests/command_boundary.rs::node_tables_match_the_reference",
    "slurmcli display_name crates/slurmcli/tests/command_boundary.rs::job_tables_match_the_reference",
    "slurmcli parse_show_job crates/slurmcli/tests/command_boundary.rs::table_parsers_match_the_reference_on_the_edges",
    "slurmcli parse_sinfo_summary crates/slurmcli/tests/command_boundary.rs::table_parsers_match_the_reference_on_the_edges",
    "slurmcli render_assoc crates/slurmcli/tests/command_boundary.rs::assoc_tables_match_the_reference",
    "slurmcli render_job crates/slurmcli/tests/roundtrip_live.rs::live_cluster_roundtrips_all_commands",
    "slurmcli render_long crates/slurmcli/tests/command_allocations.rs::a_thousand_squeue_rows_cost_the_same_kind",
    "slurmcli render_node crates/slurmcli/tests/command_allocations.rs::a_thousand_node_records_cost_one_vec",
    "slurmcli render_summary_snapshot crates/slurmcli/tests/command_boundary.rs::node_tables_match_the_reference",
    "slurmcli render_usage_snapshot crates/slurmcli/tests/command_boundary.rs::node_tables_match_the_reference",
    "telemetry node_cpu tests/telemetry.rs::telemetry_never_acquires_the_state_mutex",
    "testkit live_bytes tests/teardown.rs::a_dropped_site_frees_what_it_built",
    "workload fault_site tests/federation.rs::same_seed_yields_the_same_federation_trace",
    "workload with_faults tests/chaos.rs::garbled_sacct_output_is_an_error_not_a_panic",
];

/// The text of every `.rs` file under `dir` (nothing if it is missing).
fn source(dir: &Path) -> String {
    let mut text = String::new();
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            text += &source(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            text += &fs::read_to_string(&path).expect("source file reads");
        }
    }
    text
}

fn idents(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

/// Names right after `pub fn `; `pub(crate) fn` does not match.
fn pub_fns(text: &str) -> BTreeSet<&str> {
    text.split("pub fn ")
        .skip(1)
        .map(|rest| {
            let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
            &rest[..end.unwrap_or(rest.len())]
        })
        .filter(|name| !name.is_empty())
        .collect()
}

/// `(crate, function, test)` of one exception.
fn exception(entry: &str) -> (&str, &str, &str) {
    let mut parts = entry.split(' ');
    let mut next = || parts.next().expect("crate function file::test");
    (next(), next(), next())
}

#[test]
fn every_pub_fn_is_named_outside_its_crate_or_listed_with_its_test() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates: BTreeMap<String, String> = fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .flatten()
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                source(&e.path().join("src")),
            )
        })
        .collect();
    let outside = ["src", "examples", "benchmark/src"]
        .map(|d| source(&root.join(d)))
        .concat();
    let named: BTreeMap<&str, BTreeSet<&str>> = crates
        .iter()
        .map(|(name, text)| (name.as_str(), idents(text)))
        .collect();
    let outside = idents(&outside);

    let mut found = BTreeSet::new();
    for (name, text) in &crates {
        for f in pub_fns(text) {
            let elsewhere = named
                .iter()
                .any(|(other, ids)| other != name && ids.contains(f));
            if !elsewhere && !outside.contains(f) {
                found.insert((name.as_str(), f));
            }
        }
    }
    let listed: BTreeSet<(&str, &str)> = EXCEPTIONS
        .iter()
        .map(|e| exception(e))
        .map(|(c, f, _)| (c, f))
        .collect();
    let unlisted: Vec<_> = found.difference(&listed).collect();
    let stale: Vec<_> = listed.difference(&found).collect();
    assert!(
        unlisted.is_empty(),
        "pub fns named only inside their crate: {unlisted:?}"
    );
    assert!(
        stale.is_empty(),
        "exceptions the scan no longer finds: {stale:?}"
    );

    for (_, f, test) in EXCEPTIONS.iter().map(|e| exception(e)) {
        let file = test.split("::").next().expect("a test path");
        let text = fs::read_to_string(root.join(file)).unwrap_or_default();
        let ids = idents(&text);
        let item = test.rsplit("::").next().expect("a test name");
        assert!(
            ids.contains(f) && ids.contains(item),
            "{test} does not call {f}"
        );
    }
}
