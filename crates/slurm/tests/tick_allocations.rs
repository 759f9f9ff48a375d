//! A scheduler tick and a snapshot publish cost what changed: their
//! allocations grow with pending + running jobs + nodes, not with products
//! of them, so a site four times the size costs at most about four times
//! as much per tick and per `sbatch`.
//!
//! Alone in its file because it installs a counting global allocator; the
//! count is kept per thread, so the harness's own threads do not disturb it.

use hpcdash_simtime::{SimClock, TimeLimit, Timestamp};
use hpcdash_slurm::assoc::{Account, AssocStore};
use hpcdash_slurm::cluster::ClusterSpec;
use hpcdash_slurm::ctld::Slurmctld;
use hpcdash_slurm::dbd::Slurmdbd;
use hpcdash_slurm::job::{ArraySpec, JobRequest, JobState, PendingReason, UsageProfile};
use hpcdash_slurm::joblog::JobLogFs;
use hpcdash_slurm::loadmodel::RpcCostModel;
use hpcdash_slurm::node::Node;
use hpcdash_slurm::partition::Partition;
use hpcdash_slurm::qos::Qos;
use hpcdash_testkit::{counted, CountingAlloc};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `scale` times a campus-sized site (32 CPU + 4 GPU nodes of 128 cores,
/// ten accounts of five users), saturated: three times its cores queued,
/// and at the head of each partition a high-QoS job that needs every node
/// of it, so each pass walks every running job's end for its reservation.
fn site(scale: usize) -> (Slurmctld, SimClock) {
    let mut assoc = AssocStore::new();
    let accounts: Vec<String> = (0..10 * scale).map(|a| format!("acct{a:03}")).collect();
    let user = |a: usize, u: usize| format!("user{a:03}{u}");
    for (a, account) in accounts.iter().enumerate() {
        assoc.add_account(Account::new(account));
        for u in 0..5 {
            assoc.add_user(account, user(a, u));
        }
    }
    let cpu: Vec<String> = (1..=32 * scale).map(|i| format!("a{i:04}")).collect();
    let gpu: Vec<String> = (1..=4 * scale).map(|i| format!("g{i:04}")).collect();
    let nodes = cpu
        .iter()
        .map(|n| Node::new(n, 128, 257_000, 0))
        .chain(gpu.iter().map(|n| Node::new(n, 128, 512_000, 4)))
        .collect();
    let clock = SimClock::new(Timestamp(1_800_000_000));
    let ctld = Slurmctld::with_cost(
        ClusterSpec {
            name: "alloc".to_string(),
            nodes,
            partitions: vec![
                Partition::new("cpu")
                    .with_nodes(cpu.clone())
                    .default_partition(),
                Partition::new("gpu").with_nodes(gpu.clone()),
            ],
            qos: Qos::standard_set(),
            assoc,
        },
        clock.shared(),
        Arc::new(Slurmdbd::with_cost(RpcCostModel::free())),
        Arc::new(JobLogFs::new()),
        RpcCostModel::free(),
    );
    let job = |a: usize, u: usize, partition: &str, cpus: u32, hours: u64| {
        let mut r = JobRequest::simple(&user(a, u), &accounts[a], partition, cpus);
        r.usage = UsageProfile::batch(hours * 3_600);
        r.time_limit = TimeLimit::Limited((hours + 1) * 3_600);
        r
    };
    for a in 0..accounts.len() {
        for (u, (cpus, hours)) in [(8, 3), (16, 5), (32, 4), (4, 6), (64, 7)]
            .into_iter()
            .enumerate()
        {
            let mut r = job(a, u, "cpu", cpus, hours);
            r.array = Some(ArraySpec {
                first: 0,
                last: 11,
                max_concurrent: None,
            });
            ctld.submit(r).expect("a valid array");
        }
        let mut r = job(a, 0, "gpu", 32, 2 + a as u64 % 5);
        r.gpus_per_node = 1;
        r.array = Some(ArraySpec {
            first: 0,
            last: 2,
            max_concurrent: None,
        });
        ctld.submit(r).expect("a valid array");
    }
    clock.advance(30);
    ctld.tick();
    clock.advance(1);
    for (partition, width, gpus) in [("cpu", cpu.len(), 0), ("gpu", gpu.len(), 4)] {
        let mut r = job(0, 1, partition, 128, 2);
        r.qos = "high".to_string();
        r.nodes = width as u32;
        r.mem_mb_per_node = 200_000;
        r.gpus_per_node = gpus;
        ctld.submit(r).expect("a valid wide job");
    }
    (ctld, clock)
}

/// Allocations of one tick and one `sbatch` on a warm, saturated site,
/// and the size they must be linear in: pending + running jobs + nodes.
fn costs(scale: usize) -> (u64, u64, u64) {
    let (ctld, clock) = site(scale);
    clock.advance(29);
    ctld.tick();
    let snap = ctld.snapshot();
    let heads = snap
        .jobs
        .iter()
        .filter(|j| j.reason == Some(PendingReason::Resources))
        .count();
    assert_eq!(heads, 2, "each partition has its wide job as the blocker");
    let size = (snap.counts.pending + snap.counts.running) as u64 + snap.nodes.len() as u64;

    clock.advance(30);
    let ((), tick) = counted(|| ctld.tick());
    let mut r = JobRequest::simple("user0001", "acct000", "cpu", 4);
    r.usage = UsageProfile::batch(600);
    let (ids, submit) = counted(|| ctld.submit(r).expect("a valid job"));
    assert_eq!(
        ctld.snapshot().job(ids[0]).map(|j| j.state),
        Some(JobState::Pending)
    );
    (tick, submit, size)
}

#[test]
fn a_tick_and_a_publish_cost_what_changed_at_one_and_four_times_the_site() {
    let (tick1, submit1, size1) = costs(1);
    let (tick4, submit4, size4) = costs(4);
    // Measured: about two allocations per job or node for a tick, a quarter
    // of one for a submit. A pass that copied the nodes and the association
    // store and re-ran node selection per released job made 14 to 26, and
    // a publish that copied every row and index key made 3.6.
    for (tick, submit, size) in [(tick1, submit1, size1), (tick4, submit4, size4)] {
        assert!(
            tick <= 3 * size,
            "{tick} allocations per tick, {size} jobs + nodes"
        );
        assert!(
            submit <= size,
            "{submit} allocations per submit, {size} jobs + nodes"
        );
    }
    let ratio = |four: u64, one: u64| four as f64 / one as f64;
    assert!(
        ratio(tick4, tick1) <= 4.5,
        "tick: {tick4} at x4 vs {tick1} at x1"
    );
    assert!(
        ratio(submit4, submit1) <= 4.5,
        "submit: {submit4} at x4 vs {submit1} at x1"
    );
}
