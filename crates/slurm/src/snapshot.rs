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
use std::sync::{Arc, OnceLock};

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
/// caller is a refcount bump, not a deep clone, and so is every part no
/// mutation touched since the previous publication: a chunk of jobs, a
/// node, the partitions, an association record, an index.
#[derive(Debug)]
pub struct ClusterSnapshot {
    /// Monotonic publication sequence number (strictly increasing).
    pub seq: u64,
    /// Simulation timestamp at publish.
    pub now: hpcdash_simtime::Timestamp,
    pub name: Arc<str>,
    /// Active jobs in ascending id order (the `squeue` presentation order).
    pub jobs: JobTable,
    /// Nodes in name order (BTreeMap iteration order of the live state).
    /// Each is shared with every snapshot published while it is unchanged.
    pub nodes: Arc<[Arc<Node>]>,
    /// Partitions in name order.
    pub partitions: Arc<[Partition]>,
    /// All association records, in `AssocStore::accounts()` order. Each is
    /// shared with every snapshot published while its account is unchanged.
    pub assoc: Arc<[Arc<AssocRecord>]>,
    /// user -> ascending ids of the user's active jobs.
    pub by_user: JobIndex,
    /// account -> ascending ids of the account's active jobs.
    pub by_account: JobIndex,
    /// partition -> ascending ids of the partition's active jobs.
    pub by_partition: JobIndex,
    /// Per-partition node groups: `partition_nodes[i]` holds positions into
    /// `nodes` for `partitions[i].nodes`, in the partition's declared node
    /// order (unknown node names are skipped, matching the old lookup).
    pub partition_nodes: Arc<[Vec<u32>]>,
    pub counts: StateCounts,
}

impl ClusterSnapshot {
    /// An empty snapshot (sequence 0) for daemon construction.
    pub fn empty(name: &str) -> ClusterSnapshot {
        ClusterSnapshot {
            seq: 0,
            now: hpcdash_simtime::Timestamp(0),
            name: Arc::from(name),
            jobs: JobTable::default(),
            nodes: Arc::from(Vec::new()),
            partitions: Arc::from(Vec::new()),
            assoc: Arc::from(Vec::new()),
            by_user: JobIndex::default(),
            by_account: JobIndex::default(),
            by_partition: JobIndex::default(),
            partition_nodes: Arc::from(Vec::new()),
            counts: StateCounts::default(),
        }
    }

    /// A snapshot of `jobs` (id-ascending) and the given parts, sharing
    /// nothing with an earlier one.
    pub fn build(
        seq: u64,
        now: hpcdash_simtime::Timestamp,
        name: Arc<str>,
        jobs: Vec<Arc<Job>>,
        nodes: impl Into<Arc<[Arc<Node>]>>,
        partitions: impl Into<Arc<[Partition]>>,
        assoc: impl Into<Arc<[Arc<AssocRecord>]>>,
    ) -> ClusterSnapshot {
        let mut groups: Vec<(u32, Vec<Arc<Job>>)> = Vec::new();
        for job in jobs {
            match groups.last_mut() {
                Some((key, group)) if *key == chunk_key(job.id) => group.push(job),
                _ => groups.push((chunk_key(job.id), vec![job])),
            }
        }
        ClusterSnapshot::assemble(
            seq,
            now,
            name,
            groups,
            nodes.into(),
            partitions.into(),
            assoc.into(),
            None,
        )
    }

    /// A snapshot that is `prev` with the chunks keyed in `changed` (in
    /// ascending [`chunk_key`] order, each holding id-ascending jobs of
    /// that key) holding the given jobs instead; an empty list drops its
    /// chunk. Every other chunk is `prev`'s, and so are the rows its
    /// readers encoded, so the job table costs the changed chunks plus one
    /// pointer per chunk; the indexes are `prev`'s, changed only where a
    /// job came or went. Without `prev`, `changed` is every chunk.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        seq: u64,
        now: hpcdash_simtime::Timestamp,
        name: Arc<str>,
        changed: impl IntoIterator<Item = (u32, Vec<Arc<Job>>)>,
        nodes: Arc<[Arc<Node>]>,
        partitions: Arc<[Partition]>,
        assoc: Arc<[Arc<AssocRecord>]>,
        prev: Option<&ClusterSnapshot>,
    ) -> ClusterSnapshot {
        let old = prev.map_or(&[][..], |p| &p.jobs.chunks[..]);
        let mut moves = IndexMoves::default();
        let mut chunks: Vec<ChunkAt> = Vec::with_capacity(old.len() + 1);
        let mut rest = old.iter().peekable();
        let mut start = 0u32;
        let mut keep = |chunk: Arc<JobChunk>, chunks: &mut Vec<ChunkAt>| {
            debug_assert!(chunks.last().is_none_or(|c| c.chunk.key < chunk.key));
            let len = chunk.jobs.len() as u32;
            chunks.push(ChunkAt { start, chunk });
            start += len;
        };
        for (key, jobs) in changed {
            debug_assert!(jobs.iter().all(|j| chunk_key(j.id) == key));
            debug_assert!(jobs.windows(2).all(|w| w[0].id < w[1].id));
            while let Some(c) = rest.next_if(|c| c.chunk.key < key) {
                keep(c.chunk.clone(), &mut chunks);
            }
            let was = rest.next_if(|c| c.chunk.key == key).map(|c| &*c.chunk);
            moves.diff(was.map_or(&[][..], |c| &c.jobs[..]), &jobs);
            if !jobs.is_empty() {
                keep(Arc::new(JobChunk::new(key, jobs, was)), &mut chunks);
            }
        }
        for c in rest {
            keep(c.chunk.clone(), &mut chunks);
        }
        let jobs = JobTable {
            len: chunks
                .last()
                .map_or(0, |c| c.start as usize + c.chunk.jobs.len()),
            chunks: chunks.into(),
        };
        let counts = jobs.chunks.iter().fold(StateCounts::default(), |mut t, c| {
            t.pending += c.chunk.counts.pending;
            t.running += c.chunk.counts.running;
            t.suspended += c.chunk.counts.suspended;
            t
        });
        let empty = JobIndex::default();
        let old_index = |i: usize| match prev {
            Some(p) => [&p.by_user, &p.by_account, &p.by_partition][i],
            None => &empty,
        };
        let [by_user, by_account, by_partition] =
            [0, 1, 2].map(|i| old_index(i).moved(&moves, INDEX_KEYS[i]));
        // The groups hold node positions, so they carry over while the
        // partitions and every node's name are `prev`'s (a shared node
        // answers without a compare).
        let partition_nodes = match prev {
            Some(p)
                if Arc::ptr_eq(&p.partitions, &partitions)
                    && p.nodes.len() == nodes.len()
                    && p.nodes
                        .iter()
                        .zip(nodes.iter())
                        .all(|(a, b)| Arc::ptr_eq(a, b) || a.name == b.name) =>
            {
                p.partition_nodes.clone()
            }
            _ => partitions
                .iter()
                .map(|p| {
                    p.nodes
                        .iter()
                        .filter_map(|n| nodes.binary_search_by(|x| x.name.cmp(n)).ok())
                        .map(|i| i as u32)
                        .collect()
                })
                .collect(),
        };
        ClusterSnapshot {
            seq,
            now,
            name,
            jobs,
            nodes,
            partitions,
            assoc,
            by_user,
            by_account,
            by_partition,
            partition_nodes,
            counts,
        }
    }

    /// One job by id.
    pub fn job(&self, id: JobId) -> Option<&Arc<Job>> {
        self.jobs.by_id(id)
    }

    /// The nodes of `partitions[idx]`, in the partition's declared order.
    pub fn nodes_of_partition(&self, idx: usize) -> impl Iterator<Item = &Node> + Clone {
        self.partition_nodes[idx]
            .iter()
            .map(|&i| &*self.nodes[i as usize])
    }
}

// ---------------------------------------------------------------------------
// JobTable
// ---------------------------------------------------------------------------

/// Job ids per chunk: a chunk holds the active jobs whose ids share
/// `id / CHUNK_IDS`. Ids are handed out in ascending order, so new jobs
/// land in the last chunks and a job that leaves changes only its own.
pub const CHUNK_IDS: u32 = 32;

/// The chunk a job id belongs to.
pub fn chunk_key(id: JobId) -> u32 {
    id.0 / CHUNK_IDS
}

/// The active jobs of one id range, with what readers derived from them.
/// Shared by every snapshot published while none of its jobs changed.
struct JobChunk {
    key: u32,
    /// Id-ascending.
    jobs: Box<[Arc<Job>]>,
    /// `rows[i]` is `jobs[i]`'s encoded row, once a reader made it.
    rows: Box<[OnceLock<EncodedRow>]>,
    counts: StateCounts,
}

impl JobChunk {
    /// The chunk `key` holding `jobs`, taking over `was`'s row of every job
    /// whose version there differs at most in its priority (a row leaves
    /// the priority out, see [`EncodedRow`]).
    fn new(key: u32, jobs: Vec<Arc<Job>>, was: Option<&JobChunk>) -> JobChunk {
        let mut counts = StateCounts::default();
        for job in &jobs {
            match job.state {
                JobState::Pending => counts.pending += 1,
                JobState::Running => counts.running += 1,
                JobState::Suspended => counts.suspended += 1,
                _ => {}
            }
        }
        let rows: Box<[OnceLock<EncodedRow>]> = jobs.iter().map(|_| OnceLock::new()).collect();
        if let Some(was) = was {
            // Both lists are id-ascending: one merge walk. Jobs are compared
            // only where a reader left a row to take over.
            let mut old = was.jobs.iter().zip(was.rows.iter()).peekable();
            for (job, slot) in jobs.iter().zip(rows.iter()) {
                while old.next_if(|(j, _)| j.id < job.id).is_some() {}
                let Some((was_job, row)) = old.next_if(|(j, _)| j.id == job.id) else {
                    continue;
                };
                if let Some(row) = row.get() {
                    if Arc::ptr_eq(was_job, job) || was_job.same_but_priority(job) {
                        let _ = slot.set(row.clone());
                    }
                }
            }
        }
        JobChunk {
            key,
            jobs: jobs.into_boxed_slice(),
            rows,
            counts,
        }
    }
}

#[derive(Clone)]
struct ChunkAt {
    /// Position of the chunk's first job in the table.
    start: u32,
    chunk: Arc<JobChunk>,
}

/// The active jobs of a snapshot, id-ascending, in shared chunks. Reads by
/// position, by id, or in order; a position is a job's place in that
/// order, as `squeue` lists them.
#[derive(Clone, Default)]
pub struct JobTable {
    chunks: Arc<[ChunkAt]>,
    len: usize,
}

impl JobTable {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Chunks the jobs sit in.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Every job, id-ascending.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &Arc<Job>> + Clone {
        self.chunks.iter().flat_map(|c| c.chunk.jobs.iter())
    }

    /// The chunk holding position `pos`, and the offset into it.
    fn locate(&self, pos: usize) -> Option<(&JobChunk, usize)> {
        if pos >= self.len {
            return None;
        }
        let at = self.chunks.partition_point(|c| c.start as usize <= pos) - 1;
        let c = &self.chunks[at];
        Some((&c.chunk, pos - c.start as usize))
    }

    /// The job at position `pos`.
    pub fn get(&self, pos: usize) -> Option<&Arc<Job>> {
        self.locate(pos).map(|(c, i)| &c.jobs[i])
    }

    /// Every job, id-ascending, as a list of its own.
    pub fn to_vec(&self) -> Vec<Arc<Job>> {
        self.iter().cloned().collect()
    }

    /// The job with the lowest id.
    pub fn first(&self) -> Option<&Arc<Job>> {
        self.get(0)
    }

    /// The chunk holding job `id`, and the offset into it.
    fn find(&self, id: JobId) -> Option<(&ChunkAt, usize)> {
        let key = chunk_key(id);
        let at = self
            .chunks
            .binary_search_by_key(&key, |c| c.chunk.key)
            .ok()?;
        let c = &self.chunks[at];
        let i = c.chunk.jobs.binary_search_by_key(&id, |j| j.id).ok()?;
        Some((c, i))
    }

    /// The position of job `id`, if it is active.
    pub fn position(&self, id: JobId) -> Option<usize> {
        self.find(id).map(|(c, i)| c.start as usize + i)
    }

    /// Job `id`, if it is active.
    pub fn by_id(&self, id: JobId) -> Option<&Arc<Job>> {
        self.find(id).map(|(c, i)| &c.chunk.jobs[i])
    }

    /// The job at `pos` and its row, made by `encode` if no reader has yet
    /// (in this snapshot, or in an earlier one holding that job version).
    pub fn row(
        &self,
        pos: usize,
        encode: impl FnOnce(&Job) -> EncodedRow,
    ) -> (&Arc<Job>, &EncodedRow) {
        let (c, i) = self.locate(pos).expect("a position in the table");
        let job = &c.jobs[i];
        (job, c.rows[i].get_or_init(|| encode(job)))
    }

    /// Rows encoded so far.
    pub fn rows_encoded(&self) -> usize {
        self.chunks
            .iter()
            .flat_map(|c| c.chunk.rows.iter())
            .filter(|row| row.get().is_some())
            .count()
    }
}

impl std::ops::Index<usize> for JobTable {
    type Output = Arc<Job>;

    fn index(&self, pos: usize) -> &Arc<Job> {
        self.get(pos).expect("a position in the table")
    }
}

impl std::fmt::Debug for JobTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JobTable({} jobs in {} chunks, {} rows)",
            self.len,
            self.chunks.len(),
            self.rows_encoded()
        )
    }
}

// ---------------------------------------------------------------------------
// JobIndex
// ---------------------------------------------------------------------------

/// What `by_user`, `by_account` and `by_partition` are keyed by, in that
/// order. A job's request, and so its keys, never changes.
const INDEX_KEYS: [fn(&Job) -> &str; 3] = [
    |j| j.req.user.as_str(),
    |j| j.req.account.as_str(),
    |j| j.req.partition.as_str(),
];

/// Jobs that came and went between two snapshots.
#[derive(Default)]
struct IndexMoves {
    came: Vec<Arc<Job>>,
    went: Vec<Arc<Job>>,
}

impl IndexMoves {
    /// Note what differs between one chunk's old and new id-ascending jobs.
    fn diff(&mut self, old: &[Arc<Job>], new: &[Arc<Job>]) {
        let (mut o, mut n) = (old.iter().peekable(), new.iter().peekable());
        loop {
            match (o.peek(), n.peek()) {
                (None, None) => break,
                (Some(a), Some(b)) if a.id == b.id => {
                    o.next();
                    n.next();
                }
                (Some(a), b) if b.is_none_or(|b| a.id < b.id) => {
                    self.went.push(Arc::clone(a));
                    o.next();
                }
                _ => self.came.push(Arc::clone(n.next().expect("peeked"))),
            }
        }
    }
}

/// Shards of a [`JobIndex`]: a job that comes or goes copies the map of
/// its key's shard, not the whole index. At four times the campus site a
/// single map's copy (a refcount bump per key) made `snapshot_publish`
/// about 16 % dearer over a warm-up.
const INDEX_SHARDS: usize = 16;

type IndexShard = HashMap<Arc<str>, Arc<[JobId]>>;

/// The shard `key` lives in.
fn shard_of(key: &str) -> usize {
    use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
    let hash = BuildHasherDefault::<DefaultHasher>::default().hash_one(key);
    (hash % INDEX_SHARDS as u64) as usize
}

/// An index of the active jobs by one key: key -> ascending job ids. Each
/// shard, and each list in it, is shared with the snapshots published
/// before while no job of its keys came or went.
#[derive(Clone, PartialEq)]
pub struct JobIndex(Arc<[Arc<IndexShard>]>);

impl Default for JobIndex {
    fn default() -> JobIndex {
        let empty = Arc::new(IndexShard::new());
        JobIndex((0..INDEX_SHARDS).map(|_| empty.clone()).collect())
    }
}

impl JobIndex {
    /// The ascending ids of `key`'s active jobs.
    pub fn get(&self, key: &str) -> Option<&[JobId]> {
        self.0[shard_of(key)].get(key).map(|ids| &ids[..])
    }

    /// Every key with at least one active job, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.0.iter().flat_map(|shard| shard.keys().map(|k| &**k))
    }

    pub fn len(&self) -> usize {
        self.0.iter().map(|shard| shard.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This index with `moves` applied, keyed by `key_of`. Only the shards
    /// and lists of keys whose jobs came or went are rebuilt.
    fn moved(&self, moves: &IndexMoves, key_of: fn(&Job) -> &str) -> JobIndex {
        if moves.came.is_empty() && moves.went.is_empty() {
            return self.clone();
        }
        let mut touched: Vec<(usize, &str, JobId, bool)> = moves
            .came
            .iter()
            .map(|j| (key_of(j), j.id, true))
            .chain(moves.went.iter().map(|j| (key_of(j), j.id, false)))
            .map(|(key, id, came)| (shard_of(key), key, id, came))
            .collect();
        touched.sort_unstable();
        let mut shards = self.0.to_vec();
        for in_shard in touched.chunk_by(|a, b| a.0 == b.0) {
            let shard = Arc::make_mut(&mut shards[in_shard[0].0]);
            for group in in_shard.chunk_by(|a, b| a.1 == b.1) {
                let key = group[0].1;
                let mut ids: Vec<JobId> = shard.get(key).map_or(Vec::new(), |l| l.to_vec());
                for &(_, _, id, came) in group {
                    match (ids.binary_search(&id), came) {
                        (Err(at), true) => ids.insert(at, id),
                        (Ok(at), false) => {
                            ids.remove(at);
                        }
                        _ => {}
                    }
                }
                if ids.is_empty() {
                    shard.remove(key);
                } else if let Some(list) = shard.get_mut(key) {
                    *list = ids.into();
                } else {
                    shard.insert(Arc::from(key), ids.into());
                }
            }
        }
        JobIndex(shards.into())
    }
}

impl std::fmt::Debug for JobIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.0.iter().flat_map(|shard| shard.iter()))
            .finish()
    }
}

// ---------------------------------------------------------------------------
// EncodedRow
// ---------------------------------------------------------------------------

/// A job's row as a reader encoded it, less two values each body splices
/// in at the ascending offsets `gaps`: `bytes[..gaps[0]]`, the first value,
/// `bytes[gaps[0]..gaps[1]]`, the second, `bytes[gaps[1]..]`. One value
/// depends on the snapshot rather than the job (the elapsed time), the
/// other is the job's priority, which the scheduler moves on every pass.
/// The rest must depend on nothing but the job's other fields: a published
/// job is never changed in place (`Arc::make_mut` moves a change to a new
/// allocation), and a row is carried to the next snapshot for the
/// allocation it encoded and for a later version of that job that differs
/// from it only in priority (`Job::same_but_priority`), never for an id
/// alone, which outlives versions.
#[derive(Clone)]
pub struct EncodedRow {
    /// The encoder's buffer, adopted (shrunk to its length, not copied).
    pub bytes: Arc<Vec<u8>>,
    pub gaps: [usize; 2],
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
    pub(crate) fn next_seq(&self) -> u64 {
        self.latest_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub(crate) fn note_publish(&self) {
        self.publishes.fetch_add(1, Ordering::Relaxed);
        self.last_publish_ns.store(
            self.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    /// Record the epoch lag of one reader load.
    pub(crate) fn note_read(&self, read_seq: u64) {
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

    /// Partition node groups carry over only while every node keeps its
    /// name: a node list of the same length with other names regroups.
    #[test]
    fn partition_nodes_follow_the_node_names() {
        let part = Partition::new("cpu").with_nodes(vec!["b".to_string(), "c".to_string()]);
        let nodes = |names: [&str; 3]| -> Arc<[Arc<Node>]> {
            names.map(|n| Arc::new(Node::new(n, 8, 32_000, 0))).into()
        };
        let first = ClusterSnapshot::build(
            1,
            hpcdash_simtime::Timestamp(0),
            Arc::from("t"),
            Vec::new(),
            nodes(["a", "b", "c"]),
            vec![part],
            Vec::new(),
        );
        assert_eq!(&first.partition_nodes[0][..], &[1, 2]);
        let next = |names| {
            ClusterSnapshot::assemble(
                2,
                first.now,
                first.name.clone(),
                Vec::new(),
                nodes(names),
                first.partitions.clone(),
                first.assoc.clone(),
                Some(&first),
            )
        };
        let same = next(["a", "b", "c"]);
        assert!(Arc::ptr_eq(&same.partition_nodes, &first.partition_nodes));
        let other = next(["b", "c", "d"]);
        assert_eq!(&other.partition_nodes[0][..], &[0, 1]);
        let names: Vec<&str> = other.nodes_of_partition(0).map(|n| &*n.name).collect();
        assert_eq!(names, ["b", "c"]);
    }
}
