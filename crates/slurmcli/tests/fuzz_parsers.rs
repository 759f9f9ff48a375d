//! Robustness property for the command parsers: they are *total*
//! functions. Garbage in, `Err` out — never a panic, never an index out of
//! bounds. The chaos layer garbles daemon output mid-table
//! (`hpcdash_faults::garble_text`), so any parser panic would take a
//! dashboard worker down with it.

use hpcdash_faults::garble_text;
use hpcdash_simtime::Clock;
use hpcdash_slurmcli::{
    parse_sacct, parse_show_assoc, parse_show_job, parse_show_node, parse_sinfo_summary,
    parse_sinfo_usage, parse_squeue, parse_squeue_long,
};
use hpcdash_workload::{Scenario, ScenarioConfig};
use proptest::prelude::*;

/// Feed one text to every parser; the only acceptable outcome is a Result.
fn parse_all(text: &str) {
    let _ = parse_squeue(text);
    let _ = parse_squeue_long(text);
    let _ = parse_sacct(text);
    let _ = parse_sinfo_summary(text);
    let _ = parse_sinfo_usage(text);
    let _ = parse_show_job(text);
    let _ = parse_show_node(text);
    let _ = parse_show_assoc(text);
}

proptest! {
    #[test]
    fn parsers_never_panic_on_arbitrary_text(s in "\\PC{0,400}") {
        parse_all(&s);
    }

    #[test]
    fn parsers_never_panic_on_tablelike_text(
        s in "[0-9A-Za-z?|:=._\\- \n]{0,300}"
    ) {
        // Ink close to the real formats: pipes, columns, key=value runs.
        parse_all(&s);
    }
}

/// Real rendered output, deterministically corrupted the way the fault
/// layer does it: every seed must parse to `Err` or a clean value — and a
/// healthy share must actually be *noticed* (Err), or garbling a daemon
/// would silently feed wrong numbers to the widgets.
#[test]
fn garbled_live_output_never_panics_and_is_usually_noticed() {
    let scenario = Scenario::build(ScenarioConfig::small());
    let mut driver = scenario.driver(3_600);
    driver.advance(3_600);
    let now = scenario.clock.now();

    let jobs = scenario
        .ctld
        .query_jobs(&hpcdash_slurm::ctld::JobQuery::all());
    let recs = scenario
        .dbd
        .query_jobs(&hpcdash_slurm::dbd::JobFilter::default());
    let nodes = scenario.ctld.query_nodes();
    let node_text = nodes
        .iter()
        .map(|n| hpcdash_slurmcli::scontrol::render_node(n))
        .collect::<Vec<_>>()
        .join("\n");

    let corpora: Vec<(&str, String)> = vec![
        ("squeue", hpcdash_slurmcli::squeue::render(&jobs, now)),
        (
            "squeue -l",
            hpcdash_slurmcli::squeue::render_long(&jobs, now),
        ),
        ("sacct", hpcdash_slurmcli::sacct::render(&recs, now)),
        ("scontrol show node", node_text),
    ];

    let mut noticed = 0u32;
    let mut total = 0u32;
    for (name, clean) in &corpora {
        for seed in 0..96u64 {
            let garbled = garble_text(clean, seed);
            assert_ne!(&garbled, clean, "{name}: garble must change the text");
            let errored = match *name {
                "squeue" => parse_squeue(&garbled).is_err(),
                "squeue -l" => parse_squeue_long(&garbled).is_err(),
                "sacct" => parse_sacct(&garbled).is_err(),
                _ => parse_show_node(&garbled).is_err(),
            };
            parse_all(&garbled); // every other parser survives it too
            total += 1;
            if errored {
                noticed += 1;
            }
        }
    }
    assert!(
        noticed * 2 > total,
        "most garbles should be detected: {noticed}/{total}"
    );
}

/// Truncation at every char boundary — the "daemon died mid-write" shape.
#[test]
fn truncated_live_output_never_panics() {
    let scenario = Scenario::build(ScenarioConfig::small());
    let mut driver = scenario.driver(1_800);
    driver.advance(1_800);
    let now = scenario.clock.now();

    let jobs = scenario
        .ctld
        .query_jobs(&hpcdash_slurm::ctld::JobQuery::all());
    let text = hpcdash_slurmcli::squeue::render_long(&jobs, now);
    for at in (0..text.len()).filter(|i| text.is_char_boundary(*i)) {
        parse_all(&text[..at]);
    }
}
