//! Epoch-published cluster snapshots: the lock-free read path.
//!
//! Every mutation and every scheduler tick publishes an immutable
//! [`ClusterSnapshot`] — jobs, nodes, partitions, associations, plus
//! precomputed per-user / per-account / per-partition indexes — into an
//! [`EpochCell`]. Read RPCs (`squeue`, `sinfo`, `scontrol show ...`) load
//! the current snapshot with two atomic ops and never touch the state
//! mutex, so dashboard query storms cannot delay scheduling. This is the
//! in-process analogue of the RCU / arc-swap pattern, hand-rolled because
//! the workspace is vendor-free (cf. `vendor/parking_lot`).

use crate::ctld::AssocRecord;
use crate::job::{Job, JobId, JobState};
use crate::node::Node;
use crate::partition::Partition;
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// EpochCell: an atomic Arc<T> swap cell
// ---------------------------------------------------------------------------

struct Slot<T> {
    /// Readers currently pinned to this slot (between fetch_add and
    /// fetch_sub in `load`). A writer may only overwrite a slot whose
    /// reader count is zero *and* which `current` no longer points at.
    readers: AtomicUsize,
    value: UnsafeCell<Option<Arc<T>>>,
}

/// A two-slot epoch cell: readers clone the current `Arc<T>` wait-free in
/// the common case; writers (serialized by a mutex) prepare the spare slot
/// and flip one atomic index. Readers never block writers for longer than
/// the two atomic ops around the `Arc` clone, and writers never block
/// readers at all — a reader that races a flip simply retries.
pub struct EpochCell<T> {
    slots: [Slot<T>; 2],
    /// Index (0 or 1) of the slot readers should load from.
    current: AtomicUsize,
    /// Serializes writers; readers never take it.
    write_lock: Mutex<()>,
}

// Safety: the value is only ever accessed as `Arc<T>` clones handed out by
// `load`; the reader-count protocol below guarantees a slot is never
// written while a reader dereferences it.
unsafe impl<T: Send + Sync> Send for EpochCell<T> {}
unsafe impl<T: Send + Sync> Sync for EpochCell<T> {}

impl<T> EpochCell<T> {
    pub fn new(initial: Arc<T>) -> EpochCell<T> {
        EpochCell {
            slots: [
                Slot {
                    readers: AtomicUsize::new(0),
                    value: UnsafeCell::new(Some(initial)),
                },
                Slot {
                    readers: AtomicUsize::new(0),
                    value: UnsafeCell::new(None),
                },
            ],
            current: AtomicUsize::new(0),
            write_lock: Mutex::new(()),
        }
    }

    /// Clone the currently published value. Lock-free: retries only while
    /// racing a concurrent flip, and a flip is two atomic stores.
    ///
    /// Memory ordering: the pin (`readers.fetch_add`) followed by the
    /// `current` re-check, against the writer's `current` flip followed by
    /// its `readers` drain check, is a store-buffering (Dekker) pattern.
    /// Acquire/Release is not enough — both sides could observe stale
    /// values on weakly-ordered hardware and the writer would overwrite a
    /// slot a pinned reader is dereferencing. All four operations are
    /// SeqCst so they take part in the single total order: either the
    /// reader's re-check sees the flip (and retreats), or the writer's
    /// drain check sees the pin (and waits).
    pub fn load(&self) -> Arc<T> {
        let mut spins = 0u32;
        loop {
            let idx = self.current.load(Ordering::SeqCst);
            let slot = &self.slots[idx];
            slot.readers.fetch_add(1, Ordering::SeqCst);
            // Re-check: if a writer flipped `current` between our load and
            // the pin, this slot may be about to be overwritten — unpin and
            // retry. If it still matches, the pin is visible (SeqCst) to any
            // writer that would target this slot, so the value is stable.
            if self.current.load(Ordering::SeqCst) != idx {
                slot.readers.fetch_sub(1, Ordering::Release);
                spins += 1;
                if spins > 64 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                continue;
            }
            // Safety: pinned + current == idx means no writer mutates this
            // slot until our fetch_sub below.
            let value = unsafe {
                (*slot.value.get())
                    .as_ref()
                    .expect("current slot is always populated")
                    .clone()
            };
            slot.readers.fetch_sub(1, Ordering::Release);
            return value;
        }
    }

    /// Publish a new value. Writers are serialized; each waits for readers
    /// still pinned to the spare slot (stragglers from before the previous
    /// flip) to drain, then installs the value and flips `current`.
    pub fn store(&self, value: Arc<T>) {
        let _guard = self.write_lock.lock();
        let spare = 1 - self.current.load(Ordering::Relaxed);
        let slot = &self.slots[spare];
        // SeqCst pairs with the reader's pin/re-check (see `load`); it also
        // carries the Acquire edge against a straggler's `fetch_sub`, so the
        // overwrite below cannot race its `Arc` clone. Yield after a short
        // spin: a reader preempted between pin and unpin must get scheduled
        // for this loop to exit, and `publish_locked` calls us while holding
        // the daemon state mutex.
        let mut spins = 0u32;
        while slot.readers.load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // Safety: `current` does not point at `spare` and its reader count
        // is zero; late pinners re-check `current` and retreat without
        // touching the value.
        unsafe {
            *slot.value.get() = Some(value);
        }
        self.current.store(spare, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// ClusterSnapshot
// ---------------------------------------------------------------------------

/// Active-job counts by state, precomputed at publish time so `sinfo`-style
/// summaries and the scheduler-depth gauge never re-walk the job table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateCounts {
    pub pending: u32,
    pub running: u32,
    pub suspended: u32,
}

/// An immutable, internally consistent view of the whole cluster at one
/// publication epoch. Jobs are shared (`Arc<Job>`), so handing a row to a
/// caller is a refcount bump, not a deep clone.
#[derive(Debug)]
pub struct ClusterSnapshot {
    /// Monotonic publication sequence number (strictly increasing).
    pub seq: u64,
    /// Simulation timestamp at publish.
    pub now: hpcdash_simtime::Timestamp,
    pub name: Arc<str>,
    /// Active jobs in ascending id order (the `squeue` presentation order).
    pub jobs: Arc<[Arc<Job>]>,
    /// Nodes in name order (BTreeMap iteration order of the live state).
    pub nodes: Arc<[Node]>,
    /// Partitions in name order.
    pub partitions: Arc<[Partition]>,
    /// All association records, in `AssocStore::accounts()` order.
    pub assoc: Arc<[AssocRecord]>,
    /// user -> ascending positions into `jobs`.
    pub by_user: HashMap<String, Vec<u32>>,
    /// account -> ascending positions into `jobs`.
    pub by_account: HashMap<String, Vec<u32>>,
    /// partition -> ascending positions into `jobs`.
    pub by_partition: HashMap<String, Vec<u32>>,
    /// Per-partition node groups: `partition_nodes[i]` holds positions into
    /// `nodes` for `partitions[i].nodes`, in the partition's declared node
    /// order (unknown node names are skipped, matching the old lookup).
    pub partition_nodes: Vec<Vec<u32>>,
    pub counts: StateCounts,
}

impl ClusterSnapshot {
    /// An empty snapshot (sequence 0) for daemon construction.
    pub fn empty(name: &str) -> ClusterSnapshot {
        ClusterSnapshot {
            seq: 0,
            now: hpcdash_simtime::Timestamp(0),
            name: Arc::from(name),
            jobs: Arc::from(Vec::new()),
            nodes: Arc::from(Vec::new()),
            partitions: Arc::from(Vec::new()),
            assoc: Arc::from(Vec::new()),
            by_user: HashMap::new(),
            by_account: HashMap::new(),
            by_partition: HashMap::new(),
            partition_nodes: Vec::new(),
            counts: StateCounts::default(),
        }
    }

    /// Build a snapshot from presorted components, deriving every index.
    pub fn build(
        seq: u64,
        now: hpcdash_simtime::Timestamp,
        name: Arc<str>,
        jobs: Vec<Arc<Job>>,
        nodes: Vec<Node>,
        partitions: Vec<Partition>,
        assoc: Vec<AssocRecord>,
    ) -> ClusterSnapshot {
        let mut by_user: HashMap<String, Vec<u32>> = HashMap::new();
        let mut by_account: HashMap<String, Vec<u32>> = HashMap::new();
        let mut by_partition: HashMap<String, Vec<u32>> = HashMap::new();
        let mut counts = StateCounts::default();
        for (pos, job) in jobs.iter().enumerate() {
            let pos = pos as u32;
            by_user.entry(job.req.user.clone()).or_default().push(pos);
            by_account
                .entry(job.req.account.clone())
                .or_default()
                .push(pos);
            by_partition
                .entry(job.req.partition.clone())
                .or_default()
                .push(pos);
            match job.state {
                JobState::Pending => counts.pending += 1,
                JobState::Running => counts.running += 1,
                JobState::Suspended => counts.suspended += 1,
                _ => {}
            }
        }
        let node_pos: HashMap<&str, u32> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.name.as_str(), i as u32))
            .collect();
        let partition_nodes = partitions
            .iter()
            .map(|p| {
                p.nodes
                    .iter()
                    .filter_map(|n| node_pos.get(n.as_str()).copied())
                    .collect()
            })
            .collect();
        ClusterSnapshot {
            seq,
            now,
            name,
            jobs: jobs.into(),
            nodes: nodes.into(),
            partitions: partitions.into(),
            assoc: assoc.into(),
            by_user,
            by_account,
            by_partition,
            partition_nodes,
            counts,
        }
    }

    /// Binary-search one job by id (`jobs` is id-ascending).
    pub fn job(&self, id: JobId) -> Option<&Arc<Job>> {
        self.jobs
            .binary_search_by_key(&id, |j| j.id)
            .ok()
            .map(|i| &self.jobs[i])
    }

    /// The nodes of `partitions[idx]`, in the partition's declared order.
    pub fn nodes_of_partition(&self, idx: usize) -> impl Iterator<Item = &Node> + Clone {
        self.partition_nodes[idx]
            .iter()
            .map(|&i| &self.nodes[i as usize])
    }
}

// ---------------------------------------------------------------------------
// SnapshotStats
// ---------------------------------------------------------------------------

/// Reader-lag buckets: how many publications behind the latest epoch a
/// reader's loaded snapshot was. With publish-inside-the-lock this is
/// almost always 0; the histogram exists to prove it.
pub const LAG_BUCKET_LABELS: [&str; 4] = ["0", "1", "2-7", "8+"];

/// Publication / freshness telemetry for the snapshot path, exported as
/// `hpcdash_ctld_snapshot_*` metrics.
#[derive(Debug)]
pub struct SnapshotStats {
    /// Latest published sequence number.
    latest_seq: AtomicU64,
    /// Total publications.
    publishes: AtomicU64,
    /// Nanoseconds from `origin` to the most recent publication, for the
    /// snapshot-age gauge.
    last_publish_ns: AtomicU64,
    origin: Instant,
    /// Reader-observed epoch lag, bucketed: 0, 1, 2-7, 8+.
    lag: [AtomicU64; 4],
}

impl Default for SnapshotStats {
    fn default() -> SnapshotStats {
        SnapshotStats {
            latest_seq: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            last_publish_ns: AtomicU64::new(0),
            origin: Instant::now(),
            lag: Default::default(),
        }
    }
}

impl SnapshotStats {
    pub fn new() -> SnapshotStats {
        SnapshotStats::default()
    }

    /// Reserve the next publication sequence number (starts at 1; the
    /// empty constructor snapshot is seq 0).
    pub fn next_seq(&self) -> u64 {
        self.latest_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub fn note_publish(&self) {
        self.publishes.fetch_add(1, Ordering::Relaxed);
        self.last_publish_ns.store(
            self.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    /// Record the epoch lag of one reader load.
    pub fn note_read(&self, read_seq: u64) {
        let lag = self
            .latest_seq
            .load(Ordering::Relaxed)
            .saturating_sub(read_seq);
        let bucket = match lag {
            0 => 0,
            1 => 1,
            2..=7 => 2,
            _ => 3,
        };
        self.lag[bucket].fetch_add(1, Ordering::Relaxed);
    }

    pub fn latest_seq(&self) -> u64 {
        self.latest_seq.load(Ordering::Relaxed)
    }

    pub fn publishes(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }

    /// Time since the last publication (zero before the first).
    pub fn age(&self) -> std::time::Duration {
        let last = self.last_publish_ns.load(Ordering::Relaxed);
        self.origin
            .elapsed()
            .saturating_sub(std::time::Duration::from_nanos(last))
    }

    /// Reader-lag counters in `LAG_BUCKET_LABELS` order.
    pub fn lag_buckets(&self) -> [u64; 4] {
        [
            self.lag[0].load(Ordering::Relaxed),
            self.lag[1].load(Ordering::Relaxed),
            self.lag[2].load(Ordering::Relaxed),
            self.lag[3].load(Ordering::Relaxed),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn epoch_cell_load_store_roundtrip() {
        let cell = EpochCell::new(Arc::new(1u64));
        assert_eq!(*cell.load(), 1);
        cell.store(Arc::new(2));
        assert_eq!(*cell.load(), 2);
        cell.store(Arc::new(3));
        cell.store(Arc::new(4));
        assert_eq!(*cell.load(), 4);
    }

    #[test]
    fn epoch_cell_concurrent_readers_never_tear() {
        // Published values are (n, n): a torn read would surface a pair
        // whose halves disagree.
        let cell = Arc::new(EpochCell::new(Arc::new((0u64, 0u64))));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = cell.clone();
                let stop = stop.clone();
                thread::spawn(move || {
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let v = cell.load();
                        assert_eq!(v.0, v.1, "torn snapshot");
                        assert!(v.0 >= last, "epoch went backwards");
                        last = v.0;
                    }
                })
            })
            .collect();
        for n in 1..=20_000u64 {
            cell.store(Arc::new((n, n)));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(cell.load().0, 20_000);
    }

    #[test]
    fn epoch_cell_drops_old_values() {
        let first = Arc::new(7u64);
        let cell = EpochCell::new(first.clone());
        cell.store(Arc::new(8));
        cell.store(Arc::new(9));
        // Both slots have been rewritten; only our local handle remains.
        assert_eq!(Arc::strong_count(&first), 1);
    }

    #[test]
    fn snapshot_stats_lag_buckets() {
        let stats = SnapshotStats::new();
        for _ in 0..10 {
            stats.next_seq();
        }
        stats.note_publish();
        stats.note_read(10); // lag 0
        stats.note_read(9); // lag 1
        stats.note_read(5); // lag 5 -> 2-7
        stats.note_read(1); // lag 9 -> 8+
        assert_eq!(stats.lag_buckets(), [1, 1, 1, 1]);
        assert_eq!(stats.latest_seq(), 10);
        assert_eq!(stats.publishes(), 1);
    }
}
