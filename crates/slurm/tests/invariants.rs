//! Property tests: whatever sequence of submissions, cancellations and
//! clock advances the cluster experiences, the simulator's books must
//! balance. These are the invariants every dashboard number sits on.

use hpcdash_simtime::{TimeLimit, Timestamp};
use hpcdash_slurm::assoc::{Account, AssocStore};
use hpcdash_slurm::cluster::{ClusterSpec, ClusterState};
use hpcdash_slurm::job::{ArraySpec, JobId, JobRequest, JobState, PlannedOutcome, UsageProfile};
use hpcdash_slurm::node::Node;
use hpcdash_slurm::partition::Partition;
use hpcdash_slurm::qos::Qos;
use hpcdash_slurm::tres::Tres;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Submit {
        user_idx: usize,
        cpus: u32,
        nodes: u32,
        mem_per_cpu: u64,
        runtime: u64,
        limit: u64,
        outcome: u8,
        array: Option<(u32, Option<u32>)>,
    },
    Cancel {
        nth_active: usize,
    },
    Advance {
        secs: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (
            0usize..4,
            prop_oneof![Just(1u32), Just(2), Just(4), Just(8), Just(16)],
            1u32..=2,
            512u64..3_000,
            30u64..2_000,
            60u64..3_000,
            0u8..5,
            proptest::option::of((1u32..6, proptest::option::of(1u32..3))),
        )
            .prop_map(|(user_idx, cpus, nodes, mem_per_cpu, runtime, limit, outcome, array)| {
                Op::Submit {
                    user_idx,
                    cpus,
                    nodes,
                    mem_per_cpu,
                    runtime,
                    limit,
                    outcome,
                    array,
                }
            }),
        1 => (0usize..8).prop_map(|nth_active| Op::Cancel { nth_active }),
        3 => (1u64..600).prop_map(|secs| Op::Advance { secs }),
    ]
}

fn users() -> [&'static str; 4] {
    ["alice", "bob", "carol", "dave"]
}

fn cluster() -> ClusterState {
    let mut assoc = AssocStore::new();
    assoc.add_account(Account::new("physics").with_cpu_limit(24));
    assoc.add_account(Account::new("bio"));
    for u in users() {
        assoc.add_user("physics", u);
    }
    assoc.add_user("bio", "alice");
    assoc.add_user("bio", "bob");
    let nodes: Vec<Node> = (1..=3)
        .map(|i| Node::new(format!("n{i:02}"), 16, 32_000, 0))
        .collect();
    let names: Vec<String> = nodes.iter().map(|n| n.name.clone()).collect();
    ClusterState::new(ClusterSpec {
        name: "prop".to_string(),
        nodes,
        partitions: vec![Partition::new("cpu").with_nodes(names).default_partition()],
        qos: Qos::standard_set(),
        assoc,
    })
}

fn apply(cluster: &mut ClusterState, op: &Op, now: &mut u64, submitted: &mut u64) {
    match op {
        Op::Submit {
            user_idx,
            cpus,
            nodes,
            mem_per_cpu,
            runtime,
            limit,
            outcome,
            array,
        } => {
            let user = users()[*user_idx];
            let account = if *user_idx < 2 && cpus % 2 == 0 {
                "bio"
            } else {
                "physics"
            };
            // bio membership is alice/bob only.
            let account = if account == "bio" && *user_idx >= 2 {
                "physics"
            } else {
                account
            };
            let mut req = JobRequest::simple(user, account, "cpu", *cpus);
            req.nodes = *nodes;
            req.mem_mb_per_node = (*cpus as u64 * mem_per_cpu).min(32_000);
            req.time_limit = TimeLimit::Limited(*limit);
            req.array = array.map(|(last, thr)| ArraySpec {
                first: 0,
                last,
                max_concurrent: thr,
            });
            req.usage = UsageProfile {
                cpu_util: 0.8,
                mem_util: 0.5,
                gpu_util: 0.0,
                planned_runtime_secs: *runtime,
                outcome: match outcome {
                    0 => PlannedOutcome::Success,
                    1 => PlannedOutcome::Fail { exit_code: 1 },
                    2 => PlannedOutcome::OutOfMemory,
                    3 => PlannedOutcome::RunsOverLimit,
                    _ => PlannedOutcome::CancelledMidway,
                },
            };
            if let Ok(ids) = cluster.submit(req, Timestamp(*now)) {
                *submitted += ids.len() as u64;
            }
        }
        Op::Cancel { nth_active } => {
            let target: Option<(JobId, String)> = cluster
                .active_jobs()
                .nth(*nth_active)
                .map(|j| (j.id, j.req.user.clone()));
            if let Some((id, user)) = target {
                let _ = cluster.cancel(id, &user, Timestamp(*now));
            }
        }
        Op::Advance { secs } => {
            *now += secs;
            cluster.tick(Timestamp(*now));
        }
    }
}

fn check_invariants(cluster: &ClusterState, now: u64) {
    // 1. No node is over-allocated.
    for node in cluster.all_nodes() {
        assert!(node.alloc.cpus <= node.cpus, "{} cpu over-alloc", node.name);
        assert!(
            node.alloc.mem_mb <= node.real_memory_mb,
            "{} mem over-alloc",
            node.name
        );
        assert!(node.alloc.gpus <= node.gpus, "{} gpu over-alloc", node.name);
    }

    // 2. Node allocations equal the sum of running jobs' footprints.
    let mut expected: BTreeMap<&str, Tres> = BTreeMap::new();
    for job in cluster.active_jobs() {
        if job.state == JobState::Running {
            for node in &job.nodes {
                let t = expected.entry(node.as_str()).or_default();
                *t = t.plus(Tres {
                    nodes: 0,
                    ..job.req.per_node_tres()
                });
            }
        }
    }
    for node in cluster.all_nodes() {
        let want = expected
            .get(node.name.as_str())
            .copied()
            .unwrap_or_default();
        assert_eq!(
            node.alloc, want,
            "node {} allocation does not match running jobs at t={now}",
            node.name
        );
    }

    // 3. Association accounting matches the live queue.
    let mut running: BTreeMap<String, u32> = BTreeMap::new();
    let mut queued: BTreeMap<String, u32> = BTreeMap::new();
    for job in cluster.active_jobs() {
        match job.state {
            JobState::Running | JobState::Suspended => {
                *running.entry(job.req.account.clone()).or_insert(0) += job.alloc_cpus();
            }
            JobState::Pending => {
                *queued.entry(job.req.account.clone()).or_insert(0) += job.alloc_cpus();
            }
            _ => {}
        }
    }
    for account in ["physics", "bio"] {
        let usage = cluster
            .assoc_store()
            .usage(account)
            .cloned()
            .unwrap_or_default();
        assert_eq!(
            usage.cpus_running,
            running.get(account).copied().unwrap_or(0),
            "{account} running-cpu ledger at t={now}"
        );
        assert_eq!(
            usage.cpus_queued,
            queued.get(account).copied().unwrap_or(0),
            "{account} queued-cpu ledger at t={now}"
        );
    }

    // 4. Group limits hold for running work.
    let physics_cap = cluster
        .assoc_store()
        .account("physics")
        .unwrap()
        .grp_cpu_limit
        .unwrap();
    assert!(
        running.get("physics").copied().unwrap_or(0) <= physics_cap,
        "GrpTRES cpu cap violated at t={now}"
    );

    // 5. Running jobs sit on distinct existing nodes and have timestamps in
    //    order.
    for job in cluster.active_jobs() {
        if job.state == JobState::Running {
            let mut nodes = job.nodes.clone();
            let before = nodes.len();
            nodes.sort();
            nodes.dedup();
            assert_eq!(
                nodes.len(),
                before,
                "job {} node list has duplicates",
                job.id
            );
            for n in &nodes {
                assert!(
                    cluster.node(n).is_some(),
                    "job {} on unknown node {n}",
                    job.id
                );
            }
            let start = job.start_time.expect("running job has start");
            assert!(start >= job.submit_time);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ledgers_balance_under_random_ops(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut cluster = cluster();
        let mut now = 0u64;
        let mut submitted = 0u64;
        for op in &ops {
            apply(&mut cluster, op, &mut now, &mut submitted);
            check_invariants(&cluster, now);
        }
        // Drain. Jobs stuck behind unsatisfiable group limits pend forever
        // (as in real Slurm), so after letting the queue run down we cancel
        // whatever remains, the way users eventually do.
        for _ in 0..100 {
            now += 600;
            cluster.tick(Timestamp(now));
            check_invariants(&cluster, now);
            if cluster.active_jobs().count() == 0 {
                break;
            }
        }
        let stuck: Vec<(JobId, String)> = cluster
            .active_jobs()
            .map(|j| (j.id, j.req.user.clone()))
            .collect();
        for (id, user) in stuck {
            cluster.cancel(id, &user, Timestamp(now)).expect("cancel leftover");
            check_invariants(&cluster, now);
        }
        now += 600;
        cluster.tick(Timestamp(now));
        check_invariants(&cluster, now);
        prop_assert_eq!(cluster.active_jobs().count(), 0, "queue did not drain");
        for node in cluster.all_nodes() {
            prop_assert_eq!(node.alloc.cpus, 0);
            prop_assert_eq!(node.alloc.mem_mb, 0);
        }
        // Every submission is accounted for in the finished stream.
        let finished = cluster.drain_finished();
        prop_assert_eq!(finished.len() as u64, submitted);
        // Event log recorded a submit event per job.
        let events = cluster.events().read(0, |_| true).entries;
        let submits = events.iter().filter(|e| e.from.is_none()).count() as u64;
        prop_assert!(submits <= submitted, "log is bounded, cannot exceed submissions");
    }
}
