//! A collection pass costs its new series, not its samples: a job's or a
//! node's series handles are resolved once, so a steady pass formats no
//! name and allocates only when a series seals a chunk or grows a rollup
//! tier — amortized over many samples, never one per sample.
//!
//! Alone in its file because it installs a counting global allocator; the
//! count is kept per thread, so the harness's own threads do not disturb it.

use hpcdash_simtime::{SimClock, TimeLimit, Timestamp};
use hpcdash_slurm::assoc::{Account, AssocStore};
use hpcdash_slurm::cluster::ClusterSpec;
use hpcdash_slurm::ctld::Slurmctld;
use hpcdash_slurm::dbd::Slurmdbd;
use hpcdash_slurm::job::{JobRequest, UsageProfile};
use hpcdash_slurm::joblog::JobLogFs;
use hpcdash_slurm::loadmodel::RpcCostModel;
use hpcdash_slurm::node::Node;
use hpcdash_slurm::partition::Partition;
use hpcdash_slurm::qos::Qos;
use hpcdash_telemetry::TelemetryD;
use hpcdash_testkit::{counted, CountingAlloc};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Sixteen nodes, four of them with GPUs, and a queue of jobs that run for
/// days, so the running set holds still while passes are counted.
fn site() -> (Arc<Slurmctld>, SimClock) {
    let mut assoc = AssocStore::new();
    assoc.add_account(Account::new("physics"));
    assoc.add_user("physics", "alice");
    let cpu: Vec<String> = (1..=12).map(|i| format!("a{i:03}")).collect();
    let gpu: Vec<String> = (1..=4).map(|i| format!("g{i:03}")).collect();
    let nodes = cpu
        .iter()
        .map(|n| Node::new(n, 64, 256_000, 0))
        .chain(gpu.iter().map(|n| Node::new(n, 64, 512_000, 4)))
        .collect();
    let clock = SimClock::new(Timestamp(1_800_000_000));
    let ctld = Arc::new(Slurmctld::with_cost(
        ClusterSpec {
            name: "ingest".to_string(),
            nodes,
            partitions: vec![
                Partition::new("cpu").with_nodes(cpu).default_partition(),
                Partition::new("gpu").with_nodes(gpu),
            ],
            qos: Qos::standard_set(),
            assoc,
        },
        clock.shared(),
        Arc::new(Slurmdbd::with_cost(RpcCostModel::free())),
        Arc::new(JobLogFs::new()),
        RpcCostModel::free(),
    ));
    (ctld, clock)
}

fn job(partition: &str, cpus: u32, gpus: u32) -> JobRequest {
    let mut r = JobRequest::simple("alice", "physics", partition, cpus);
    r.mem_mb_per_node = 8_000;
    r.gpus_per_node = gpus;
    r.usage = UsageProfile::batch(3 * 86_400);
    r.usage.gpu_util = if gpus > 0 { 0.7 } else { 0.0 };
    r.time_limit = TimeLimit::Limited(4 * 86_400);
    r
}

#[test]
fn a_steady_pass_allocates_for_new_series_not_for_samples() {
    let (ctld, clock) = site();
    let telemetry = TelemetryD::free(clock.shared(), ctld.clone());
    for _ in 0..80 {
        ctld.submit(job("cpu", 8, 0)).unwrap();
    }
    for _ in 0..12 {
        ctld.submit(job("gpu", 16, 1)).unwrap();
    }
    let pass = || {
        clock.advance(30);
        ctld.tick();
        counted(|| telemetry.collect_now())
    };
    let (first, _) = pass();
    assert_eq!(first.jobs, 92, "every job runs");

    // Steady: the same jobs and nodes, 300 passes (two and a half hours,
    // so every series seals chunks and closes rollup buckets).
    let (mut samples, mut allocations) = (0, 0);
    for _ in 0..300 {
        let (out, n) = pass();
        assert_eq!(out.jobs, 92);
        samples += out.samples;
        allocations += n;
    }
    assert!(samples > 60_000, "{samples} samples");
    // Measured: one allocation per 15 samples, all of it a series' history
    // growing (a sealed chunk, a rollup deque doubling). Looking a series
    // up by a formatted name costs at least one per sample.
    assert!(
        allocations * 8 <= samples,
        "{allocations} allocations for {samples} samples"
    );

    // New series: a pass that starts jobs pays for their handles.
    let mut grown = Vec::new();
    for _ in 0..8 {
        grown.extend(ctld.submit(job("cpu", 4, 0)).unwrap());
    }
    let (out, n) = pass();
    assert_eq!(out.jobs, 100, "the new jobs run");
    // Measured: about four per new series (its name in the store, its
    // cell, its first points), plus what any steady pass costs.
    let new_series = 2 * grown.len() as u64;
    assert!(
        n <= 6 * new_series + 40,
        "{n} allocations for {new_series} new series"
    );
}
