//! Durable daemon state: checkpoints plus a write-ahead log.
//!
//! The crash-fault model (`hpcdash_faults::FaultKind::Crash`) kills a
//! daemon's *memory*, not its disk. This module is the disk: a periodic
//! [`Checkpoint`] of serialized state paired with a [`Wal`] of the logical
//! operations applied since. A restarted daemon rebuilds itself as
//! `checkpoint + replay(WAL suffix)` — never by resurrecting the in-memory
//! state that died with it.
//!
//! ## The commit contract
//!
//! The WAL is group-committed: records accumulate unflushed and a single
//! [`Wal::flush`] at the end of each successful scheduler tick moves the
//! durable watermark past all of them. A crash therefore loses exactly the
//! records appended after the last flush — the "lost tail". Recovery
//! replays only `(checkpoint.wal_seq, flushed]` and then burns the tail
//! with `Wal::drop_unflushed`, so a post-recovery flush can never
//! resurrect operations the crash destroyed. Sequence numbers are never
//! rewound (see `Journal::truncate_after`): a lost seq stays lost.
//!
//! Built on the same [`Journal`] as the job-event log, so WAL compaction
//! inherits the "truncated means resync" cursor contract tested there.
//!
//! ## Images that grow by segments
//!
//! A checkpoint is a base image plus the segments appended to it since.
//! slurmctld writes a new base every time. slurmdbd's archive only grows, so
//! its checkpoint appends one segment holding the rows archived since the
//! previous one, and folds the segments into a new base (a byte
//! concatenation, see `join_arrays`) once they outgrow it.

use crate::cluster::ClusterState;
use crate::events::Journal;
use crate::job::{JobId, JobRequest};
use crate::node::AdminFlag;
use crate::partition::PartitionState;
use hpcdash_simtime::Timestamp;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One logical operation in slurmctld's write-ahead log. Replaying these
/// against a checkpoint is deterministic: `Submit` carries the full
/// request (job ids re-derive from the checkpointed `next_id`), and `Tick`
/// re-runs the same seeded scheduler pass at the same sim instant.
#[derive(Debug, Clone)]
pub enum WalRecord {
    Submit {
        /// Boxed: a full request dwarfs every other variant, and the WAL
        /// holds thousands of mostly-small records.
        req: Box<JobRequest>,
        now: Timestamp,
    },
    Cancel {
        id: JobId,
        user: String,
        now: Timestamp,
    },
    Hold {
        id: JobId,
        by_admin: bool,
    },
    Release {
        id: JobId,
    },
    SetNodeFlag {
        node: String,
        flag: AdminFlag,
        reason: Option<String>,
    },
    SetPartitionState {
        partition: String,
        state: PartitionState,
    },
    Tick {
        now: Timestamp,
    },
}

impl WalRecord {
    /// Re-apply this operation to a rebuilding [`ClusterState`]. Errors are
    /// swallowed: only operations that succeeded pre-crash were journaled,
    /// and replay against the same prefix reproduces the same outcome.
    pub fn apply(&self, state: &mut ClusterState) {
        match self {
            WalRecord::Submit { req, now } => {
                let _ = state.submit((**req).clone(), *now);
            }
            WalRecord::Cancel { id, user, now } => {
                let _ = state.cancel(*id, user, *now);
            }
            WalRecord::Hold { id, by_admin } => {
                let _ = state.hold(*id, *by_admin);
            }
            WalRecord::Release { id } => {
                let _ = state.release(*id);
            }
            WalRecord::SetNodeFlag { node, flag, reason } => {
                if let Some(n) = state.node_mut(node) {
                    n.admin_flag = *flag;
                    n.reason = reason.clone();
                }
            }
            WalRecord::SetPartitionState {
                partition,
                state: pstate,
            } => {
                if let Some(p) = state.partition_mut(partition) {
                    p.state = *pstate;
                }
            }
            WalRecord::Tick { now } => {
                state.tick(*now);
            }
        }
    }
}

/// A write-ahead log with a group-commit watermark, generic over the
/// record type (slurmctld journals [`WalRecord`]s; slurmdbd journals
/// archived job rows).
pub struct Wal<T> {
    journal: Journal<T>,
    /// Highest sequence number covered by a commit. Records above this are
    /// appended-but-unflushed: applied to live memory, not yet durable.
    flushed: AtomicU64,
}

impl<T: Clone> Wal<T> {
    pub fn new(capacity: usize) -> Wal<T> {
        Wal {
            journal: Journal::new(capacity),
            flushed: AtomicU64::new(0),
        }
    }

    /// Journal a record; returns its sequence number. Not yet durable —
    /// [`Wal::flush`] commits it.
    pub fn append(&self, record: T) -> u64 {
        self.journal.append(record)
    }

    /// Group-commit: everything appended so far becomes durable. Returns
    /// the new watermark.
    pub fn flush(&self) -> u64 {
        let seq = self.journal.latest_seq();
        self.flushed.store(seq, Ordering::Release);
        seq
    }

    /// The durable watermark (0 before the first flush).
    pub(crate) fn flushed_seq(&self) -> u64 {
        self.flushed.load(Ordering::Acquire)
    }

    /// The newest appended seq, flushed or not.
    pub fn latest_seq(&self) -> u64 {
        self.journal.latest_seq()
    }

    /// How many appended records are not yet covered by a flush — the tail
    /// a crash right now would lose.
    pub(crate) fn unflushed_len(&self) -> u64 {
        self.latest_seq().saturating_sub(self.flushed_seq())
    }

    /// The durable records with `seq > after`, oldest first — what recovery
    /// replays on top of a checkpoint taken at watermark `after`.
    /// `truncated` mirrors [`crate::events::Read::truncated`]: true means
    /// compaction moved the retained window past `after`, so a replay from
    /// this cursor would silently skip operations and the caller must not
    /// trust it.
    pub(crate) fn replay_from(&self, after: u64) -> (Vec<(u64, T)>, bool) {
        let flushed = self.flushed_seq();
        let read = self
            .journal
            .read(after, |s, r| (s <= flushed).then(|| (s, r.clone())));
        (read.entries, read.truncated)
    }

    /// Visit the records with `after < seq <= through`, oldest first,
    /// without copying them out. `through` is clamped to the durable
    /// watermark.
    pub(crate) fn for_each_durable(&self, after: u64, through: u64, mut f: impl FnMut(&T)) {
        let through = through.min(self.flushed_seq());
        self.journal.read(after, |s, r| {
            if s <= through {
                f(r);
            }
            None::<()>
        });
    }

    /// Burn the unflushed tail (crash recovery: those operations died with
    /// the daemon's memory). Their seqs are never reissued.
    pub(crate) fn drop_unflushed(&self) {
        self.journal.truncate_after(self.flushed_seq());
    }

    /// Compact the prefix a checkpoint now covers.
    pub(crate) fn trim_through(&self, through: u64) {
        self.journal.trim_through(through);
    }
}

/// A serialized state image plus the WAL position it covers.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The base image: serialized (JSON) daemon state, opaque to this
    /// module.
    pub bytes: Arc<Vec<u8>>,
    /// Images appended to the base since it was written, oldest first.
    /// Recovery reads the base, then each segment, as one state.
    pub segments: Vec<Arc<Vec<u8>>>,
    /// Sim time the checkpoint was taken.
    pub at: Timestamp,
    /// WAL watermark the image includes: recovery replays `seq > wal_seq`.
    pub wal_seq: u64,
}

impl Checkpoint {
    /// The base, then every segment.
    pub(crate) fn images(&self) -> impl Iterator<Item = &[u8]> {
        std::iter::once(&self.bytes[..]).chain(self.segments.iter().map(|s| &s[..]))
    }

    /// Bytes held by the segments.
    pub(crate) fn segment_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }
}

/// Holds the latest checkpoint (the simulator's stand-in for
/// `StateSaveLocation` on disk). Only the newest image matters: recovery
/// always starts from it.
#[derive(Default)]
pub struct DurableStore {
    latest: Mutex<Option<Checkpoint>>,
    saves: AtomicU64,
}

impl DurableStore {
    pub fn new() -> DurableStore {
        DurableStore::default()
    }

    /// Write a new base image, dropping the old one and its segments.
    pub(crate) fn save(&self, bytes: impl Into<Arc<Vec<u8>>>, at: Timestamp, wal_seq: u64) {
        *self.latest.lock() = Some(Checkpoint {
            bytes: bytes.into(),
            segments: Vec::new(),
            at,
            wal_seq,
        });
        self.saves.fetch_add(1, Ordering::Relaxed);
    }

    /// Append `segment` to the latest image, which then covers the WAL
    /// through `wal_seq`.
    ///
    /// # Panics
    /// If no base image was saved first.
    pub fn append(&self, segment: Vec<u8>, at: Timestamp, wal_seq: u64) {
        let mut latest = self.latest.lock();
        let cp = latest.as_mut().expect("a segment extends a saved base");
        cp.segments.push(segment.into());
        cp.at = at;
        cp.wal_seq = wal_seq;
        self.saves.fetch_add(1, Ordering::Relaxed);
    }

    pub fn latest(&self) -> Option<Checkpoint> {
        self.latest.lock().clone()
    }

    /// Read the latest checkpoint in place.
    pub fn peek<R>(&self, f: impl FnOnce(&Checkpoint) -> R) -> Option<R> {
        self.latest.lock().as_ref().map(f)
    }

    /// How many checkpoints have ever been written, bases and segments.
    pub(crate) fn save_count(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }
}

/// JSON arrays joined into one: `[a,b]`, `[]` and `[c]` make `[a,b,c]`.
/// Element bytes are copied, never decoded.
///
/// # Panics
/// If a part is not a JSON array.
pub(crate) fn join_arrays<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut out = vec![b'['];
    for part in parts {
        let inner = part
            .strip_prefix(b"[")
            .and_then(|p| p.strip_suffix(b"]"))
            .expect("each part is a JSON array");
        if inner.is_empty() {
            continue;
        }
        if out.len() > 1 {
            out.push(b',');
        }
        out.extend_from_slice(inner);
    }
    out.push(b']');
    out
}

/// What one crash-recovery cost and recovered — surfaced through
/// `/api/health` and the observatory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sim time the daemon died.
    pub crashed_at: Timestamp,
    /// Sim time the restart completed.
    pub recovered_at: Timestamp,
    /// Sim time of the checkpoint recovery started from.
    pub checkpoint_at: Timestamp,
    /// Durable WAL records replayed on top of the checkpoint.
    pub wal_replayed: u64,
    /// Unflushed records burned — the honest data loss.
    pub wal_lost: u64,
    /// Snapshot epoch before the crash and after republication; strictly
    /// increasing across the restart.
    pub epoch_before: u64,
    pub epoch_after: u64,
    /// Wall-clock cost of the rebuild (deserialize + replay + publish).
    pub duration_micros: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T: Clone> Wal<T> {
        /// Oldest retained seq, if any (compaction observability).
        fn first_seq(&self) -> Option<u64> {
            self.journal.first_seq()
        }
    }

    #[test]
    fn flush_moves_the_watermark_past_appends() {
        let wal: Wal<u32> = Wal::new(100);
        assert_eq!(wal.append(10), 1);
        assert_eq!(wal.append(11), 2);
        assert_eq!(wal.flushed_seq(), 0);
        assert_eq!(wal.unflushed_len(), 2);
        assert_eq!(wal.flush(), 2);
        assert_eq!(wal.flushed_seq(), 2);
        assert_eq!(wal.unflushed_len(), 0);
    }

    #[test]
    fn replay_sees_only_durable_records() {
        let wal: Wal<u32> = Wal::new(100);
        for v in 0..5 {
            wal.append(v);
        }
        wal.flush();
        wal.append(98);
        wal.append(99);
        // The unflushed tail is invisible to replay.
        let (records, truncated) = wal.replay_from(2);
        assert!(!truncated);
        assert_eq!(
            records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
    }

    #[test]
    fn drop_unflushed_burns_the_tail_forever() {
        let wal: Wal<u32> = Wal::new(100);
        wal.append(1);
        wal.flush();
        wal.append(2);
        wal.append(3);
        wal.drop_unflushed();
        assert_eq!(wal.latest_seq(), 3, "seqs 2 and 3 are burned, not reused");
        // A post-recovery flush cannot resurrect the lost records.
        assert_eq!(wal.flush(), 3);
        let (records, _) = wal.replay_from(0);
        assert_eq!(records.len(), 1);
        assert_eq!(wal.append(4), 4, "new records take fresh seqs");
    }

    #[test]
    fn checkpoint_trim_then_stale_cursor_is_flagged() {
        let wal: Wal<u32> = Wal::new(100);
        for v in 0..10 {
            wal.append(v);
        }
        wal.flush();
        // A checkpoint at watermark 6 compacts the covered prefix.
        wal.trim_through(6);
        assert_eq!(wal.first_seq(), Some(7));
        let (records, truncated) = wal.replay_from(6);
        assert!(!truncated, "cursor at the trim point is exact");
        assert_eq!(records.len(), 4);
        let (_, truncated) = wal.replay_from(3);
        assert!(
            truncated,
            "cursor predating the retained window must resync"
        );
    }

    #[test]
    fn durable_store_keeps_only_the_newest_image() {
        let store = DurableStore::new();
        assert!(store.latest().is_none());
        store.save(vec![1], Timestamp(10), 3);
        store.save(vec![2], Timestamp(20), 8);
        let cp = store.latest().unwrap();
        assert_eq!(&*cp.bytes, &[2][..]);
        assert_eq!(cp.at, Timestamp(20));
        assert_eq!(cp.wal_seq, 8);
        assert_eq!(store.save_count(), 2);
        assert!(cp.segments.is_empty());
    }

    #[test]
    fn segments_extend_the_base_until_the_next_one() {
        let store = DurableStore::new();
        store.save(b"[1]".to_vec(), Timestamp(10), 3);
        store.append(b"[2,3]".to_vec(), Timestamp(20), 5);
        store.append(b"[]".to_vec(), Timestamp(30), 6);
        let cp = store.latest().unwrap();
        assert_eq!(
            (cp.at, cp.wal_seq, store.save_count()),
            (Timestamp(30), 6, 3)
        );
        assert_eq!(cp.segment_bytes(), 7);
        assert_eq!(join_arrays(cp.images()), b"[1,2,3]");
        store.save(join_arrays(cp.images()), Timestamp(30), 6);
        assert!(store.latest().unwrap().segments.is_empty());
    }

    #[test]
    fn joined_arrays_skip_empty_parts() {
        assert_eq!(join_arrays([&b"[]"[..], b"[]"]), b"[]");
        assert_eq!(
            join_arrays([&b"[]"[..], b"[{\"a\":[1]}]", b"[]", b"[7]"]),
            b"[{\"a\":[1]},7]"
        );
        assert_eq!(join_arrays(std::iter::empty()), b"[]");
    }
}
