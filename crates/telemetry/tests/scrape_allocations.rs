//! A self-scrape costs its new instruments, not its samples: the registry
//! lends each sample's name and labels in place, the collectors write into
//! a scratch buffer every scrape reuses, and the self-scrape keeps one set
//! of series handles per instrument, so a steady pass allocates only when
//! a series seals a chunk or grows a rollup tier.
//!
//! Alone in its file because it installs a counting global allocator; the
//! count is kept per thread, so the harness's own threads do not disturb it.

use hpcdash_obs::{Registry, SampleSink};
use hpcdash_simtime::{SimClock, Timestamp};
use hpcdash_slurm::assoc::{Account, AssocStore};
use hpcdash_slurm::cluster::ClusterSpec;
use hpcdash_slurm::ctld::Slurmctld;
use hpcdash_slurm::dbd::Slurmdbd;
use hpcdash_slurm::joblog::JobLogFs;
use hpcdash_slurm::loadmodel::RpcCostModel;
use hpcdash_slurm::node::Node;
use hpcdash_slurm::partition::Partition;
use hpcdash_slurm::qos::Qos;
use hpcdash_telemetry::TelemetryD;
use hpcdash_testkit::{counted, CountingAlloc};
use std::sync::Arc;
use std::time::Duration;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One idle node, no jobs: a collection pass is almost all self-scrape.
fn site() -> (Arc<Slurmctld>, SimClock) {
    let mut assoc = AssocStore::new();
    assoc.add_account(Account::new("physics"));
    let clock = SimClock::new(Timestamp(1_800_000_000));
    let ctld = Arc::new(Slurmctld::with_cost(
        ClusterSpec {
            name: "scrape".to_string(),
            nodes: vec![Node::new("n1", 16, 64_000, 0)],
            partitions: vec![Partition::new("cpu")
                .with_nodes(vec!["n1".to_string()])
                .default_partition()],
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

/// `n` labelled counters, `n / 4` gauges and summaries, and a collector
/// writing `n / 2` samples with two labels given out of order.
fn registry(n: usize) -> Arc<Registry> {
    let reg = Arc::new(Registry::new());
    add_instruments(&reg, 0, n);
    let half = n / 2;
    reg.register_collector(move |out: &mut SampleSink| {
        for i in 0..half {
            let kind = ["squeue", "sacct", "sinfo", "scontrol"][i % 4];
            let shard = ["0", "1", "2", "3", "4", "5", "6", "7"][i / 4 % 8];
            out.counter(
                "hpcdash_test_rpc_total",
                &[("shard", shard), ("kind", kind)],
                i as u64,
            );
        }
    });
    reg
}

fn add_instruments(reg: &Registry, from: usize, n: usize) {
    for i in from..from + n {
        let route = format!("/api/r{i:03}");
        reg.counter("hpcdash_test_requests_total", &[("route", &route)])
            .add(i as u64);
        if i % 4 == 0 {
            reg.gauge("hpcdash_test_depth", &[("route", &route)])
                .set(i as i64);
            reg.histogram("hpcdash_test_latency", &[("route", &route)])
                .observe(Duration::from_micros(1 + i as u64));
        }
    }
}

#[test]
fn a_registry_visit_allocates_nothing_once_warm() {
    let reg = registry(80);
    let visit = || {
        let mut seen = 0usize;
        reg.visit(|s| seen += s.name.len() + s.labels.iter().count());
        seen
    };
    let first = visit();
    let (again, allocations) = counted(visit);
    assert_eq!(again, first);
    assert_eq!(allocations, 0, "a warm visit of 160 samples");
}

#[test]
fn a_steady_self_scrape_allocates_for_new_instruments_not_for_samples() {
    let (ctld, clock) = site();
    let telemetry = TelemetryD::free(clock.shared(), ctld.clone());
    let reg = registry(200);
    telemetry.set_registry(&reg);
    let pass = || {
        clock.advance(30);
        counted(|| telemetry.collect_now())
    };
    pass();

    // Steady: the same 400 samples, 200 passes (so series seal chunks and
    // close rollup buckets on the way).
    let ingested = || telemetry.store().stats().samples_ingested;
    let before = ingested();
    let mut allocations = 0;
    for _ in 0..200 {
        allocations += pass().1;
    }
    let samples = ingested() - before;
    assert!(samples > 80_000, "{samples} samples");
    // An owned name and label set per sample, as a scrape that copied its
    // samples out made, is at least two allocations per sample.
    assert!(
        allocations * 8 <= samples,
        "{allocations} allocations for {samples} samples"
    );

    // New instruments: a pass that first sees them pays for their handles.
    // Measured: about a dozen per new series (its owned key, its formatted
    // name, its cell in the store, its first points).
    add_instruments(&reg, 1_000, 40);
    let (_, n) = pass();
    let new_series = 40 + 10 + 10 * 3;
    assert!(
        n <= 16 * new_series + 64,
        "{n} allocations for {new_series} new series"
    );
}
