//! Per-job and per-node sample synthesis.
//!
//! Samples are derived deterministically from each job's
//! [`UsageProfile`](hpcdash_slurm::job::UsageProfile) so the sampled series
//! and `sacct`'s point-value accounting agree:
//!
//! * CPU/GPU series jitter around the profile's utilization with a zero-mean
//!   hash-derived perturbation, so the series mean converges to the value
//!   `final_stats` bakes into `TotalCPU`.
//! * The memory series ramps up to the profile's `mem_util` and plateaus
//!   there, so the series max matches `MaxRSS`.
//!
//! Values are quantized to 1/1024 steps — the granularity real exporters
//! report at — which keeps XOR deltas short and the chunks compressible.
//!
//! The [`Collector`] keeps the series handles of every running job and
//! every node between passes, so a steady pass formats no name and looks
//! nothing up: it walks the snapshot's jobs against its own table, both in
//! job-id order. A job's handles leave the table with the job; its series
//! stay in the store (Job Performance reads finished jobs) until their
//! newest point is older than the longest retention tier.

use crate::store::{IngestTally, SeriesHandle, TsdbStore};
use hpcdash_slurm::job::{Job, JobId, JobState};
use hpcdash_slurm::node::Node;
use hpcdash_slurm::snapshot::ClusterSnapshot;
use std::collections::VecDeque;

/// Series-name builders; every producer and consumer goes through these.
pub mod keys {
    use hpcdash_slurm::job::JobId;

    pub fn job_cpu(id: JobId) -> String {
        format!("job:{id}:cpu")
    }

    pub fn job_mem(id: JobId) -> String {
        format!("job:{id}:mem")
    }

    pub fn job_gpu(id: JobId) -> String {
        format!("job:{id}:gpu")
    }

    pub fn node_cpu(name: &str) -> String {
        format!("node:{name}:cpu")
    }

    pub(crate) fn node_mem(name: &str) -> String {
        format!("node:{name}:mem")
    }

    pub(crate) fn node_gpu(name: &str) -> String {
        format!("node:{name}:gpu")
    }

    /// A self-metrics series scraped from the dashboard's own registry:
    /// `self:<metric>` for a bare instrument, `self:<metric>{k=v,...}` for
    /// a labelled one. Summary sub-series append `:p50` / `:p99` /
    /// `:count` to this base.
    pub(crate) fn self_series(name: &str, labels: &[(String, String)]) -> String {
        if labels.is_empty() {
            format!("self:{name}")
        } else {
            let kv: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("self:{name}{{{}}}", kv.join(","))
        }
    }
}

/// Quantize to 1/1024 steps in `[0, 1]` — exact binary fractions, so XOR
/// deltas between neighbouring readings have few meaningful bits.
pub(crate) fn quantize(x: f64) -> f64 {
    (x.clamp(0.0, 1.0) * 1024.0).round() / 1024.0
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic jitter in `[-1, 1)`, keyed by job, metric stream, and
/// sample time. Uniform, hence zero-mean over a trace.
fn jitter(job: u32, stream: u64, ts: i64) -> f64 {
    let h = splitmix64((u64::from(job) << 32) ^ stream ^ (ts as u64).rotate_left(17));
    (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Instantaneous CPU utilization for a running job at `ts`.
pub(crate) fn cpu_sample(job: &Job, ts: i64) -> f64 {
    let base = job.req.usage.cpu_util;
    let amp = (base.min(1.0 - base) * 0.5).min(0.08);
    quantize(base + amp * jitter(job.id.0, 0x6370_7500, ts))
}

/// Instantaneous GPU utilization for a running job at `ts`.
pub fn gpu_sample(job: &Job, ts: i64) -> f64 {
    let base = job.req.usage.gpu_util;
    let amp = (base.min(1.0 - base) * 0.5).min(0.08);
    quantize(base + amp * jitter(job.id.0, 0x6770_7500, ts))
}

/// Instantaneous memory utilization at `ts`: a ramp from ~55% of the final
/// footprint up to `mem_util` over the first fifth of the planned runtime,
/// then a plateau whose maximum is `mem_util` itself (small downward-only
/// dips), so the series max agrees with `MaxRSS`.
pub(crate) fn mem_sample(job: &Job, ts: i64) -> f64 {
    let target = job.req.usage.mem_util;
    let elapsed = job
        .start_time
        .map(|s| (ts - s.as_secs() as i64).max(0))
        .unwrap_or(0) as f64;
    let ramp = (job.req.usage.planned_runtime_secs as f64 / 5.0).clamp(120.0, 900.0);
    if elapsed < ramp {
        quantize(target * (0.55 + 0.45 * elapsed / ramp))
    } else {
        let dip = (jitter(job.id.0, 0x6d65_6d00, ts) + 1.0) / 2.0 * 0.03;
        quantize(target * (1.0 - dip))
    }
}

/// What one collection pass produced.
#[derive(Debug, Default, Clone, Copy)]
pub struct CollectOutcome {
    pub samples: u64,
    pub jobs: u64,
    pub nodes: u64,
    /// The pass was skipped because the controller was crash-injected down.
    /// The published snapshot predates the outage, so sampling it would
    /// backfill the gap with stale data; the honest answer is no points at
    /// all for this timestamp.
    pub skipped_down: bool,
}

/// The series of one running job, and when it was last sampled.
struct JobSeries {
    id: JobId,
    cpu: SeriesHandle,
    mem: SeriesHandle,
    gpu: Option<SeriesHandle>,
    last: i64,
}

impl JobSeries {
    fn resolve(store: &TsdbStore, job: &Job) -> JobSeries {
        JobSeries {
            id: job.id,
            cpu: store.series(&keys::job_cpu(job.id)),
            mem: store.series(&keys::job_mem(job.id)),
            gpu: (job.req.gpus_per_node > 0).then(|| store.series(&keys::job_gpu(job.id))),
            last: i64::MIN,
        }
    }
}

/// The series of one node.
struct NodeSeries {
    name: String,
    cpu: SeriesHandle,
    mem: SeriesHandle,
    gpu: Option<SeriesHandle>,
}

impl NodeSeries {
    fn resolve(store: &TsdbStore, node: &Node) -> NodeSeries {
        NodeSeries {
            name: node.name.clone(),
            cpu: store.series(&keys::node_cpu(&node.name)),
            mem: store.series(&keys::node_mem(&node.name)),
            gpu: (node.gpus > 0).then(|| store.series(&keys::node_gpu(&node.name))),
        }
    }
}

/// Collection state kept between passes: handle tables and the expiry
/// queue of finished jobs' series.
#[derive(Default)]
pub struct Collector {
    /// Handles of the jobs the last pass sampled, ascending by id.
    running: Vec<JobSeries>,
    /// The next pass's table, empty between passes (kept for its capacity).
    next: Vec<JobSeries>,
    /// Jobs that left the running set, in the order they left, which is
    /// the order of their last samples.
    leaving: VecDeque<JobSeries>,
    /// Handles of the snapshot's nodes, in snapshot order.
    nodes: Vec<NodeSeries>,
    /// Positions into `nodes`, sorted by node name.
    by_name: Vec<usize>,
    /// Per-node absolute usage of the current pass, in snapshot order.
    used: Vec<(f64, f64, f64)>,
}

impl Collector {
    /// Sample every running job and every node in the snapshot at `ts`,
    /// counting the appends into `tally`. Node utilization is the
    /// resource-weighted sum of the jobs placed on the node, so job and
    /// node series stay consistent. Then drop the series of jobs whose
    /// newest point fell out of the longest retention tier.
    pub fn collect(
        &mut self,
        store: &TsdbStore,
        snap: &ClusterSnapshot,
        ts: i64,
        tally: &mut IngestTally,
    ) -> CollectOutcome {
        let mut out = CollectOutcome::default();
        self.sync_nodes(store, snap);
        self.used.fill((0.0, 0.0, 0.0));

        let mut prev = std::mem::take(&mut self.running);
        let mut next = std::mem::take(&mut self.next);
        let mut prev_jobs = prev.drain(..).peekable();
        for job in snap.jobs.iter() {
            if job.state != JobState::Running || job.start_time.is_none() {
                continue;
            }
            // Snapshot jobs are in id order, like the table: entries
            // before this job's id have stopped running.
            while let Some(gone) = prev_jobs.next_if(|s| s.id < job.id) {
                self.leaving.push_back(gone);
            }
            let mut series = prev_jobs
                .next_if(|s| s.id == job.id)
                .unwrap_or_else(|| JobSeries::resolve(store, job));
            series.last = ts;
            out.jobs += 1;
            let cpu = cpu_sample(job, ts);
            let mem = mem_sample(job, ts);
            out.samples += tally.add(series.cpu.append(ts, cpu)) as u64;
            out.samples += tally.add(series.mem.append(ts, mem)) as u64;
            let gpu = match &series.gpu {
                Some(handle) => {
                    let g = gpu_sample(job, ts);
                    out.samples += tally.add(handle.append(ts, g)) as u64;
                    g
                }
                None => 0.0,
            };
            for node in &job.nodes {
                let Ok(at) = self
                    .by_name
                    .binary_search_by(|&i| self.nodes[i].name.as_str().cmp(node))
                else {
                    continue;
                };
                let e = &mut self.used[self.by_name[at]];
                e.0 += cpu * f64::from(job.req.cpus_per_node);
                e.1 += mem * job.req.mem_mb_per_node as f64;
                e.2 += gpu * f64::from(job.req.gpus_per_node);
            }
            next.push(series);
        }
        self.leaving.extend(prev_jobs);
        self.running = next;
        self.next = prev;

        for ((node, series), &(cpu, mem, gpu)) in snap.nodes.iter().zip(&self.nodes).zip(&self.used)
        {
            out.nodes += 1;
            let cpu_frac = quantize(cpu / f64::from(node.cpus.max(1)));
            let mem_frac = quantize(mem / node.real_memory_mb.max(1) as f64);
            out.samples += tally.add(series.cpu.append(ts, cpu_frac)) as u64;
            out.samples += tally.add(series.mem.append(ts, mem_frac)) as u64;
            if let Some(handle) = &series.gpu {
                let gpu_frac = quantize(gpu / f64::from(node.gpus));
                out.samples += tally.add(handle.append(ts, gpu_frac)) as u64;
            }
        }
        self.expire(store, ts);
        out
    }

    /// Re-resolve the node handles when the snapshot's node list changed.
    fn sync_nodes(&mut self, store: &TsdbStore, snap: &ClusterSnapshot) {
        let same = self.nodes.len() == snap.nodes.len()
            && self
                .nodes
                .iter()
                .zip(snap.nodes.iter())
                .all(|(s, n)| s.name == n.name);
        if same {
            return;
        }
        self.nodes = snap
            .nodes
            .iter()
            .map(|n| NodeSeries::resolve(store, n))
            .collect();
        self.by_name = (0..self.nodes.len()).collect();
        self.by_name
            .sort_by(|&a, &b| self.nodes[a].name.cmp(&self.nodes[b].name));
        self.used = vec![(0.0, 0.0, 0.0); self.nodes.len()];
    }

    /// Drop the series of jobs whose newest point is older than the
    /// longest retention tier at `ts`. Every tier of such a series is past
    /// retention, so queries could no longer see any of it.
    fn expire(&mut self, store: &TsdbStore, ts: i64) {
        let floor = ts.saturating_sub(store.policy().rollup_10m_secs);
        while self.leaving.front().is_some_and(|s| s.last < floor) {
            let gone = self.leaving.pop_front().expect("front checked");
            // A job that ran again after it left has newer samples and a
            // place in `running`; it queues again when it stops.
            if gone.cpu.last_ts().is_some_and(|t| t >= floor) {
                continue;
            }
            store.remove(&keys::job_cpu(gone.id));
            store.remove(&keys::job_mem(gone.id));
            if gone.gpu.is_some() {
                store.remove(&keys::job_gpu(gone.id));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_snaps_to_1024ths() {
        assert_eq!(quantize(0.5), 0.5);
        assert_eq!(quantize(-3.0), 0.0);
        assert_eq!(quantize(7.0), 1.0);
        let q = quantize(0.123456);
        assert_eq!(q * 1024.0, (q * 1024.0).round());
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for ts in 0..1_000i64 {
            let j = jitter(42, 7, ts * 30);
            assert!((-1.0..1.0).contains(&j));
            assert_eq!(j, jitter(42, 7, ts * 30));
        }
        // Zero-mean to well under the quantization step over a day of ticks.
        let n = 2_880;
        let mean: f64 = (0..n).map(|i| jitter(42, 7, i * 30)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "jitter mean {mean}");
    }
}
