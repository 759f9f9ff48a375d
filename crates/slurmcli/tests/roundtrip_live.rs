//! Command-layer round trips against a *live* simulated cluster: whatever
//! state the scheduler produces, rendering to text and parsing back must
//! preserve the fields the dashboard consumes.

use hpcdash_simtime::Clock;
use hpcdash_workload::{Scenario, ScenarioConfig};

#[test]
fn live_cluster_roundtrips_all_commands() {
    let scenario = Scenario::build(ScenarioConfig::small());
    let mut driver = scenario.driver(2 * 3_600);
    driver.advance(2 * 3_600);
    let now = scenario.clock.now();

    // squeue (both formats).
    let jobs = scenario
        .ctld
        .query_jobs(&hpcdash_slurm::ctld::JobQuery::all());
    let rows = hpcdash_slurmcli::parse_squeue(&hpcdash_slurmcli::squeue::render(&jobs, now))
        .expect("squeue parses");
    assert_eq!(rows.len(), jobs.len());
    let text = hpcdash_slurmcli::squeue::render_long(&jobs, now);
    let long = hpcdash_slurmcli::parse_squeue_long(&text).expect("squeue -l parses");
    for (row, job) in long.iter().zip(&jobs) {
        assert_eq!(row.job_id, job.display_id());
        assert_eq!(row.state, job.state);
        assert_eq!(row.submit_time, Some(job.submit_time));
    }

    // sacct over the whole history.
    let recs = scenario
        .dbd
        .query_jobs(&hpcdash_slurm::dbd::JobFilter::default());
    let text = hpcdash_slurmcli::sacct::render(&recs, now);
    let parsed = hpcdash_slurmcli::parse_sacct(&text).expect("sacct parses");
    assert_eq!(parsed.len(), recs.len());
    for (p, r) in parsed.iter().zip(&recs) {
        assert_eq!(p.state, r.state);
        assert_eq!(p.alloc_cpus, r.alloc_cpus());
        assert_eq!(p.alloc_tres.gpus, r.req.gpus_per_node * r.req.nodes);
    }

    // scontrol show node over every node.
    let nodes = scenario.ctld.query_nodes();
    let text = nodes
        .iter()
        .map(hpcdash_slurmcli::scontrol::render_node)
        .collect::<Vec<_>>()
        .join("\n");
    let parsed = hpcdash_slurmcli::parse_show_node(&text).expect("scontrol parses");
    assert_eq!(parsed.len(), nodes.len());
    for (p, n) in parsed.iter().zip(nodes.iter()) {
        assert_eq!(p.name, n.name);
        assert_eq!(p.state, n.state());
        assert_eq!(p.cpu_alloc, n.alloc.cpus);
        assert_eq!(p.real_memory_mb, n.real_memory_mb);
    }

    // scontrol show job for each active job.
    for job in jobs.iter().take(20) {
        let text = hpcdash_slurmcli::scontrol::render_job(job, now);
        let p = hpcdash_slurmcli::parse_show_job(&text).expect("job parses");
        assert_eq!(p.job_id, job.id);
        assert_eq!(p.state, job.state);
        assert_eq!(p.num_cpus, job.alloc_cpus());
    }

    // sinfo usage totals are consistent with the node set.
    let partitions = scenario.ctld.query_partitions();
    let usage = hpcdash_slurmcli::compute_usage(&partitions, &nodes);
    for u in &usage {
        assert_eq!(
            u.cpus_alloc + u.cpus_idle + u.cpus_other,
            u.cpus_total,
            "{}",
            u.partition
        );
    }

    // sinfo snapshot-indexed renders are byte-identical to the slice-based
    // renders over the same live state.
    let snap = scenario.ctld.query_cluster();
    assert_eq!(
        hpcdash_slurmcli::sinfo::render_summary_snapshot(&snap),
        hpcdash_slurmcli::sinfo::render_summary(&partitions, &nodes),
        "sinfo summary must not change when served from the snapshot index"
    );
    assert_eq!(
        hpcdash_slurmcli::sinfo::render_usage_snapshot(&snap),
        hpcdash_slurmcli::sinfo::render_usage(&partitions, &nodes),
        "sinfo usage must not change when served from the snapshot index"
    );

    // seff agrees with raw stats for a completed job.
    if let Some(done) = recs
        .iter()
        .find(|r| r.stats.is_some() && r.elapsed_secs(now) > 0)
    {
        let report = hpcdash_slurmcli::seff::render(done);
        assert!(report.contains(&format!("Job ID: {}", done.display_id())));
        assert!(report.contains("CPU Efficiency:"));
    }
}
