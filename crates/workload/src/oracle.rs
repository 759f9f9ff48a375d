//! Digests of what a simulated site decided and stored, shared by the
//! determinism tests: a refactor of the driver, the scheduler or the way
//! sites are advanced must leave both unchanged.

use crate::scenario::Scenario;
use hpcdash_simtime::{Clock, Timestamp};
use hpcdash_slurm::dbd::JobFilter;
use hpcdash_slurm::job::PendingReason;

/// FNV-1a over byte strings, each closed by a `0xff` separator.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for b in bytes.iter().chain([&0xff]) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Everything the scheduler decided about every job it ever saw (archived
/// and still active), plus the publication count and the state-lock count:
/// `(digest, snapshot seq, state locks)`.
pub(crate) fn decisions(s: &Scenario) -> (u64, u64, u64) {
    let snap = s.ctld.snapshot();
    let archived = s.dbd.query_jobs(&JobFilter::default());
    let mut h = Fnv::new();
    let time = |t: Option<Timestamp>| t.map_or(u64::MAX, Timestamp::as_secs).to_le_bytes();
    for job in archived.iter().chain(snap.jobs.iter()) {
        h.feed(&job.id.0.to_le_bytes());
        h.feed(job.state.to_slurm().as_bytes());
        h.feed(job.reason.map_or("", PendingReason::to_slurm).as_bytes());
        h.feed(&job.priority.to_le_bytes());
        h.feed(&job.submit_time.as_secs().to_le_bytes());
        h.feed(&time(job.start_time));
        h.feed(&time(job.end_time));
        h.feed(job.nodes.join(",").as_bytes());
        let (code, signal) = job.exit_code.unwrap_or((-1, -1));
        h.feed(&code.to_le_bytes());
        h.feed(&signal.to_le_bytes());
    }
    (h.0, snap.seq, s.ctld.stats().state_lock_count())
}

/// Every TSDB series name and its raw, 1m and 10m points up to the site's
/// clock: `(digest, series count)`.
pub(crate) fn tsdb_content(s: &Scenario) -> (u64, usize) {
    let store = s.telemetry.store();
    let end = s.clock.now().as_secs() as i64;
    let names = store.series_names();
    let mut h = Fnv::new();
    for name in &names {
        h.feed(name.as_bytes());
        for resolution in [0, 60, 600] {
            for p in store.query_range(name, 0, end, resolution) {
                h.feed(&p.t.to_le_bytes());
                for v in [p.min, p.max, p.mean] {
                    h.feed(&v.to_bits().to_le_bytes());
                }
                h.feed(&p.count.to_le_bytes());
            }
        }
    }
    (h.0, names.len())
}
