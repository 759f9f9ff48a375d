//! Job trace generation: Poisson arrivals over a realistic job-type mix.

use crate::population::Population;
use hpcdash_simtime::{TimeLimit, Timestamp};
use hpcdash_slurm::job::{ArraySpec, JobRequest, PlannedOutcome, UsageProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Borrow;

/// Hash `seed` to a uniform value in `[0, 1)` (splitmix64 finalizer). Used
/// where a profile field must be deterministic *without* consuming the
/// generator's shared RNG stream.
fn derive_unit(mut x: u64) -> f64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Relative weights of the job types the paper's intro motivates: batch
/// production runs, interactive Open OnDemand apps (Jupyter/RStudio), GPU
/// training jobs, and bulk job arrays.
#[derive(Debug, Clone)]
pub struct JobMix {
    pub batch: f64,
    pub interactive: f64,
    pub gpu: f64,
    pub array: f64,
    /// Mean arrivals per hour across the whole cluster.
    pub arrivals_per_hour: f64,
    /// Modulate arrivals over the day (quiet nights, busy afternoons).
    pub diurnal: bool,
}

impl Default for JobMix {
    fn default() -> JobMix {
        JobMix {
            batch: 0.55,
            interactive: 0.25,
            gpu: 0.12,
            array: 0.08,
            arrivals_per_hour: 120.0,
            diurnal: false,
        }
    }
}

/// The largest request the target cluster can ever satisfy, so generated
/// jobs are schedulable (oversized requests would pend forever with
/// `BadConstraints`).
#[derive(Debug, Clone, Copy)]
pub struct NodeCaps {
    pub cpus_per_node: u32,
    pub mem_mb_per_node: u64,
}

impl Default for NodeCaps {
    fn default() -> NodeCaps {
        NodeCaps {
            cpus_per_node: 128,
            mem_mb_per_node: 257_000,
        }
    }
}

/// Generates a deterministic job trace for a population.
pub struct TraceGenerator {
    rng: StdRng,
    mix: JobMix,
    cpu_partition: String,
    gpu_partition: Option<String>,
    caps: NodeCaps,
}

impl TraceGenerator {
    pub fn new(
        seed: u64,
        mix: JobMix,
        cpu_partition: &str,
        gpu_partition: Option<&str>,
    ) -> TraceGenerator {
        TraceGenerator::with_caps(seed, mix, cpu_partition, gpu_partition, NodeCaps::default())
    }

    pub(crate) fn with_caps(
        seed: u64,
        mix: JobMix,
        cpu_partition: &str,
        gpu_partition: Option<&str>,
        caps: NodeCaps,
    ) -> TraceGenerator {
        TraceGenerator {
            rng: StdRng::seed_from_u64(seed),
            mix,
            cpu_partition: cpu_partition.to_string(),
            gpu_partition: gpu_partition.map(str::to_string),
            caps,
        }
    }

    /// The arrivals in `[start, start+window_secs)`, in time order, each
    /// drawn when the iterator is advanced to it.
    pub fn arrivals<P: Borrow<Population>>(
        self,
        population: P,
        start: Timestamp,
        window_secs: u64,
    ) -> Arrivals<P> {
        Arrivals {
            gen: self,
            population,
            t: start.as_secs() as f64,
            end: (start.as_secs() + window_secs) as f64,
        }
    }

    /// Every submission in `[start, start+window_secs)`, time-sorted: the
    /// [`TraceGenerator::arrivals`] iterator, collected.
    pub fn generate(
        self,
        population: &Population,
        start: Timestamp,
        window_secs: u64,
    ) -> Vec<(Timestamp, JobRequest)> {
        self.arrivals(population, start, window_secs).collect()
    }

    /// Arrival-rate multiplier by local hour of day: ~0.3x at 4am, ~1.5x at
    /// mid-afternoon. Identity when the diurnal profile is off.
    fn diurnal_factor(&self, unix_secs: u64) -> f64 {
        if !self.mix.diurnal {
            return 1.0;
        }
        let hour = (unix_secs % 86_400) as f64 / 3_600.0;
        // Peak at 15:00, trough at 03:00.
        let phase = (hour - 15.0) / 24.0 * std::f64::consts::TAU;
        0.9 + 0.6 * phase.cos()
    }

    fn one_request(&mut self, population: &Population, _when: Timestamp) -> JobRequest {
        let user = population
            .user(self.rng.gen_range(0..population.users.len()))
            .to_string();
        let accounts = population.accounts_of(&user);
        let account = accounts[self.rng.gen_range(0..accounts.len())].clone();

        let total = self.mix.batch + self.mix.interactive + self.mix.gpu + self.mix.array;
        let roll: f64 = self.rng.gen_range(0.0..total);
        if roll < self.mix.batch {
            self.batch_job(&user, &account)
        } else if roll < self.mix.batch + self.mix.interactive {
            self.interactive_job(&user, &account)
        } else if roll < self.mix.batch + self.mix.interactive + self.mix.gpu {
            self.gpu_job(&user, &account)
        } else {
            self.array_job(&user, &account)
        }
    }

    fn outcome(&mut self) -> PlannedOutcome {
        let roll: f64 = self.rng.gen();
        if roll < 0.84 {
            PlannedOutcome::Success
        } else if roll < 0.92 {
            PlannedOutcome::Fail {
                exit_code: *[1, 2, 127, 137].get(self.rng.gen_range(0..4)).unwrap_or(&1),
            }
        } else if roll < 0.95 {
            PlannedOutcome::RunsOverLimit
        } else if roll < 0.97 {
            PlannedOutcome::OutOfMemory
        } else {
            PlannedOutcome::CancelledMidway
        }
    }

    fn batch_job(&mut self, user: &str, account: &str) -> JobRequest {
        let sizes: Vec<u32> = [4u32, 8, 16, 32, 64, 128]
            .into_iter()
            .filter(|c| *c <= self.caps.cpus_per_node)
            .collect();
        let cpus = sizes[self.rng.gen_range(0..sizes.len())];
        let nodes = if cpus >= self.caps.cpus_per_node && self.rng.gen_bool(0.3) {
            2
        } else {
            1
        };
        let runtime = self.rng.gen_range(300..4 * 3_600);
        // Users over-request time by 1.5-6x (the efficiency-warning story).
        let limit = (runtime as f64 * self.rng.gen_range(1.5..6.0)) as u64;
        let mut req = JobRequest::simple(user, account, &self.cpu_partition, cpus);
        req.name = format!(
            "{}-{}",
            pick_batch_name(&mut self.rng),
            self.rng.gen_range(1..999)
        );
        req.nodes = nodes;
        let max_per_cpu = (self.caps.mem_mb_per_node / cpus as u64).max(1_025);
        req.mem_mb_per_node = (cpus as u64 * self.rng.gen_range(1_024..max_per_cpu.min(4_096)))
            .min(self.caps.mem_mb_per_node);
        req.time_limit = TimeLimit::Limited(limit.max(600));
        req.usage = UsageProfile {
            cpu_util: self.rng.gen_range(0.55..0.99),
            mem_util: self.rng.gen_range(0.3..0.95),
            gpu_util: 0.0,
            planned_runtime_secs: runtime,
            outcome: self.outcome(),
        };
        req
    }

    fn interactive_job(&mut self, user: &str, account: &str) -> JobRequest {
        let apps = ["jupyter", "rstudio", "matlab", "vscode", "desktop"];
        let app = apps[self.rng.gen_range(0..apps.len())];
        let sizes: Vec<u32> = [2u32, 4, 8, 16]
            .into_iter()
            .filter(|c| *c <= self.caps.cpus_per_node)
            .collect();
        let cpus = sizes[self.rng.gen_range(0..sizes.len())];
        let limit = self.rng.gen_range(2..=8) * 3_600;
        // The paper's observation: interactive jobs request hours of many
        // CPUs and barely use them.
        let runtime = self.rng.gen_range(600..limit.min(3 * 3_600));
        let session_id = format!("s{:08x}", self.rng.gen::<u32>());
        let mut req = JobRequest::simple(user, account, &self.cpu_partition, cpus);
        req.name = format!("sys/dashboard/{app}");
        req.mem_mb_per_node = (cpus as u64 * 4_096).min(self.caps.mem_mb_per_node / 2);
        req.time_limit = TimeLimit::Limited(limit);
        req.comment = Some(format!(
            "ood:{app}:{session_id}:/home/{user}/ondemand/data/sys/dashboard/batch_connect/{app}/output/{session_id}"
        ));
        req.usage = UsageProfile {
            cpu_util: self.rng.gen_range(0.02..0.18),
            mem_util: self.rng.gen_range(0.05..0.35),
            gpu_util: 0.0,
            planned_runtime_secs: runtime,
            outcome: if self.rng.gen_bool(0.3) {
                PlannedOutcome::CancelledMidway
            } else {
                PlannedOutcome::Success
            },
        };
        req
    }

    fn gpu_job(&mut self, user: &str, account: &str) -> JobRequest {
        let partition = self
            .gpu_partition
            .clone()
            .unwrap_or_else(|| self.cpu_partition.clone());
        let gpus = *[1u32, 2, 4].get(self.rng.gen_range(0..3)).unwrap_or(&1);
        let runtime = self.rng.gen_range(1_800..8 * 3_600);
        let mut req = JobRequest::simple(user, account, &partition, 8 * gpus);
        req.name = format!("train-{}", self.rng.gen_range(1..999));
        req.gpus_per_node = gpus;
        req.mem_mb_per_node = 32_768 * gpus as u64;
        req.time_limit = TimeLimit::Limited((runtime as f64 * self.rng.gen_range(1.2..2.5)) as u64);
        let cpu_util: f64 = self.rng.gen_range(0.2..0.6);
        let mem_util: f64 = self.rng.gen_range(0.4..0.9);
        // Derived from the draws above rather than drawn itself: an extra
        // RNG call here would shift the shared stream and silently reshape
        // every seeded workload that contains a GPU job.
        let mix = derive_unit(cpu_util.to_bits() ^ mem_util.to_bits().rotate_left(32));
        req.usage = UsageProfile {
            cpu_util,
            mem_util,
            gpu_util: 0.45 + 0.53 * mix,
            planned_runtime_secs: runtime,
            outcome: self.outcome(),
        };
        req
    }

    fn array_job(&mut self, user: &str, account: &str) -> JobRequest {
        let tasks = self.rng.gen_range(4..24);
        let runtime = self.rng.gen_range(120..1_800);
        let mut req = JobRequest::simple(user, account, &self.cpu_partition, 1);
        req.name = format!("sweep-{}", self.rng.gen_range(1..999));
        req.mem_mb_per_node = 2_048;
        req.time_limit = TimeLimit::Limited(runtime * 3);
        req.array = Some(ArraySpec {
            first: 0,
            last: tasks - 1,
            max_concurrent: if self.rng.gen_bool(0.5) {
                Some(self.rng.gen_range(2..8))
            } else {
                None
            },
        });
        req.usage = UsageProfile {
            cpu_util: self.rng.gen_range(0.7..0.99),
            mem_util: self.rng.gen_range(0.2..0.8),
            gpu_util: 0.0,
            planned_runtime_secs: runtime,
            outcome: self.outcome(),
        };
        req
    }
}

/// A window of job arrivals, drawn one at a time (a Poisson process over
/// the window). It holds no requests: a ten-day window costs what a
/// one-hour one does until the clock plays it.
pub struct Arrivals<P> {
    gen: TraceGenerator,
    population: P,
    /// Arrival instant of the last draw, in fractional seconds.
    t: f64,
    end: f64,
}

impl<P: Borrow<Population>> Iterator for Arrivals<P> {
    type Item = (Timestamp, JobRequest);

    fn next(&mut self) -> Option<(Timestamp, JobRequest)> {
        if self.t >= self.end {
            return None;
        }
        // Exponential inter-arrival times (an inhomogeneous Poisson
        // process when the diurnal profile is on, via thinning-free
        // local-rate stepping).
        let gen = &mut self.gen;
        let rate = gen.mix.arrivals_per_hour / 3_600.0 * gen.diurnal_factor(self.t as u64);
        let u: f64 = gen.rng.gen_range(1e-12..1.0);
        self.t += -u.ln() / rate;
        if self.t >= self.end {
            return None;
        }
        let when = Timestamp(self.t as u64);
        Some((when, gen.one_request(self.population.borrow(), when)))
    }
}

impl<P: Borrow<Population>> std::iter::FusedIterator for Arrivals<P> {}

fn pick_batch_name(rng: &mut StdRng) -> &'static str {
    const NAMES: [&str; 8] = [
        "cfd-solve",
        "md-run",
        "genome-align",
        "climate-ens",
        "fft-bench",
        "qchem",
        "lattice",
        "render",
    ];
    NAMES[rng.gen_range(0..NAMES.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{Population, PopulationConfig};

    fn pop() -> Population {
        Population::generate(&PopulationConfig::default())
    }

    #[test]
    fn deterministic_trace() {
        let p = pop();
        let g1 = TraceGenerator::new(3, JobMix::default(), "cpu", Some("gpu"));
        let g2 = TraceGenerator::new(3, JobMix::default(), "cpu", Some("gpu"));
        let t1 = g1.generate(&p, Timestamp(0), 3_600);
        let t2 = g2.generate(&p, Timestamp(0), 3_600);
        assert_eq!(t1.len(), t2.len());
        for ((ts1, r1), (ts2, r2)) in t1.iter().zip(&t2) {
            assert_eq!(ts1, ts2);
            assert_eq!(r1.name, r2.name);
            assert_eq!(r1.user, r2.user);
        }
    }

    #[test]
    fn arrival_rate_roughly_matches() {
        let p = pop();
        let mix = JobMix {
            arrivals_per_hour: 120.0,
            ..JobMix::default()
        };
        let g = TraceGenerator::new(1, mix, "cpu", None);
        let trace = g.generate(&p, Timestamp(0), 10 * 3_600);
        // Expect ~1200 arrivals; allow generous tolerance.
        assert!((800..1600).contains(&trace.len()), "got {}", trace.len());
    }

    #[test]
    fn timestamps_sorted_within_window() {
        let p = pop();
        let g = TraceGenerator::new(5, JobMix::default(), "cpu", None);
        let trace = g.generate(&p, Timestamp(1_000), 3_600);
        for w in trace.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        for (ts, _) in &trace {
            assert!(ts.as_secs() >= 1_000 && ts.as_secs() < 1_000 + 3_600);
        }
    }

    #[test]
    fn mix_includes_all_types() {
        let p = pop();
        let g = TraceGenerator::new(2, JobMix::default(), "cpu", Some("gpu"));
        let trace = g.generate(&p, Timestamp(0), 24 * 3_600);
        let interactive = trace
            .iter()
            .filter(|(_, r)| {
                r.comment
                    .as_deref()
                    .map(|c| c.starts_with("ood:"))
                    .unwrap_or(false)
            })
            .count();
        let gpu = trace.iter().filter(|(_, r)| r.gpus_per_node > 0).count();
        let arrays = trace.iter().filter(|(_, r)| r.array.is_some()).count();
        let batch = trace.len() - interactive - gpu - arrays;
        assert!(interactive > 0 && gpu > 0 && arrays > 0 && batch > 0);
        // Interactive jobs carry the OOD session comment and low utilization.
        let sample = trace
            .iter()
            .find(|(_, r)| r.comment.is_some())
            .map(|(_, r)| r)
            .unwrap();
        assert!(sample.usage.cpu_util < 0.2);
        // GPU jobs land on the GPU partition.
        let gpu_sample = trace
            .iter()
            .find(|(_, r)| r.gpus_per_node > 0)
            .map(|(_, r)| r)
            .unwrap();
        assert_eq!(gpu_sample.partition, "gpu");
    }

    #[test]
    fn diurnal_profile_shifts_load_to_the_afternoon() {
        let p = pop();
        let mix = JobMix {
            arrivals_per_hour: 120.0,
            diurnal: true,
            ..JobMix::default()
        };
        let g = TraceGenerator::new(4, mix, "cpu", None);
        // Day 0: count arrivals in the 02:00-05:00 trough vs 13:00-16:00 peak.
        let trace = g.generate(&p, Timestamp(0), 86_400);
        let in_window = |from: u64, to: u64| {
            trace
                .iter()
                .filter(|(t, _)| t.as_secs() >= from && t.as_secs() < to)
                .count()
        };
        let night = in_window(2 * 3_600, 5 * 3_600);
        let afternoon = in_window(13 * 3_600, 16 * 3_600);
        assert!(
            afternoon > night * 2,
            "expected an afternoon peak: night={night} afternoon={afternoon}"
        );
    }

    #[test]
    fn requests_are_valid_against_population() {
        let p = pop();
        let g = TraceGenerator::new(9, JobMix::default(), "cpu", None);
        let trace = g.generate(&p, Timestamp(0), 3_600);
        for (_, r) in &trace {
            assert!(
                p.assoc.is_member(&r.account, &r.user),
                "{} not in {}",
                r.user,
                r.account
            );
            assert!(r.cpus_per_node > 0 && r.nodes > 0);
            assert!(r.usage.planned_runtime_secs > 0);
        }
    }
}
