//! The seeded request schedule: which consumer loads which page in which
//! round. The program under test sees only the resulting requests.

use crate::stats::{mix, Rng};

/// Every route pattern the benchmark requests; `Req::route` indexes this,
/// so per-route statistics are arrays, not maps.
pub const ROUTES: &[&str] = &[
    "/",
    "/api/announcements",
    "/api/recent_jobs",
    "/api/system_status",
    "/api/accounts",
    "/api/storage",
    "/api/updates",
    "/myjobs",
    "/api/myjobs",
    "/jobperf",
    "/api/jobmetrics",
    "/api/jobtelemetry",
    "/clusterstatus",
    "/api/clusterstatus",
    "/jobs/:id",
    "/api/jobs/:id",
    "/api/jobs/:id/logs",
    "/nodes/:name",
    "/api/nodes/:name",
    "/slurm/v0/jobs",
    "/slurm/v0/associations",
    "/api/federation/status",
    "/api/federation/jobs",
    "/slurm/v0/nodes",
    "/slurm/v0/partitions",
    "/slurm/v0/diag",
    "/slurm/v0/clusters/:cluster/jobs",
    "/slurm/v0/clusters/:cluster/nodes",
    "/api/federation/nodes",
];

pub const UPDATES: u8 = 6;

pub fn route_id(pattern: &str) -> u8 {
    ROUTES
        .iter()
        .position(|r| *r == pattern)
        .unwrap_or_else(|| panic!("route {pattern} is not in ROUTES")) as u8
}

/// A page shell answers HTML; everything else is a JSON payload.
pub fn is_shell(route: u8) -> bool {
    let p = ROUTES[route as usize];
    !p.starts_with("/api/") && !p.starts_with("/slurm/")
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub route: u8,
    /// Concrete path. For `/api/updates` the browser appends its cursor.
    pub path: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    Home,
    MyJobs,
    JobPerf,
    Cluster,
    Job,
    Node,
    /// One `/slurm/v0` + federation poll cycle (`rest_fed`).
    Poll,
}

impl PageKind {
    pub const ALL: [PageKind; 7] = [
        PageKind::Home,
        PageKind::MyJobs,
        PageKind::JobPerf,
        PageKind::Cluster,
        PageKind::Job,
        PageKind::Node,
        PageKind::Poll,
    ];

    pub fn label(self) -> &'static str {
        match self {
            PageKind::Home => "home",
            PageKind::MyJobs => "myjobs",
            PageKind::JobPerf => "jobperf",
            PageKind::Cluster => "cluster",
            PageKind::Job => "job",
            PageKind::Node => "node",
            PageKind::Poll => "poll",
        }
    }
}

/// One page load: a fixed request sequence on one connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Visit {
    pub consumer: usize,
    pub kind: PageKind,
    pub reqs: Vec<Req>,
}

/// Someone who loads pages: a portal user, or an API consumer with a token.
#[derive(Debug, Clone, Default)]
pub struct Consumer {
    pub name: String,
    /// Header lines identifying the consumer, each ending in `\r\n`.
    pub auth: String,
    pub admin: bool,
    /// Accounts whose job rows this consumer may see (the privacy check).
    pub accounts: Vec<String>,
    /// Job ids this consumer can open a Job Overview page for.
    pub jobs: Vec<String>,
}

/// Pages per 100 portal visits: home 50, myjobs 20, jobperf 10, cluster 10,
/// job 5, node 5.
const PAGE_MIX: [(PageKind, usize); 6] = [
    (PageKind::Home, 50),
    (PageKind::MyJobs, 20),
    (PageKind::JobPerf, 10),
    (PageKind::Cluster, 10),
    (PageKind::Job, 5),
    (PageKind::Node, 5),
];

/// How often each API consumer runs its poll cycle per round: one fill and
/// three hits per snapshot epoch.
pub const POLLS_PER_ROUND: usize = 4;

pub enum Plan {
    /// Portal users drawing pages from `PAGE_MIX`.
    Portal { nodes: Vec<String> },
    /// Token holders polling `/slurm/v0` and the federation aggregates.
    Fed { clusters: Vec<String> },
}

pub struct Schedule {
    pub seed: u64,
    pub plan: Plan,
    pub consumers: Vec<Consumer>,
}

fn req(pattern: &str, path: String) -> Req {
    Req {
        route: route_id(pattern),
        path,
    }
}

fn plain(patterns: &[&str]) -> Vec<Req> {
    patterns
        .iter()
        .map(|p| {
            let path = if *p == "/api/updates" {
                "/api/updates?since=".to_string()
            } else {
                p.to_string()
            };
            req(p, path)
        })
        .collect()
}

/// The request sequence of a page that is the same for every visit.
fn fixed_page(kind: PageKind) -> Vec<Req> {
    match kind {
        PageKind::Home => plain(&[
            "/",
            "/api/announcements",
            "/api/recent_jobs",
            "/api/system_status",
            "/api/accounts",
            "/api/storage",
            "/api/updates",
        ]),
        PageKind::MyJobs => plain(&["/myjobs", "/api/myjobs"]),
        PageKind::JobPerf => plain(&["/jobperf", "/api/jobmetrics", "/api/jobtelemetry"]),
        PageKind::Cluster => plain(&["/clusterstatus", "/api/clusterstatus"]),
        PageKind::Job | PageKind::Node | PageKind::Poll => {
            unreachable!("{kind:?} pages take a target or a token")
        }
    }
}

fn job_page(id: &str) -> Vec<Req> {
    vec![
        req("/jobs/:id", format!("/jobs/{id}")),
        req("/api/jobs/:id", format!("/api/jobs/{id}")),
        req("/api/jobs/:id/logs", format!("/api/jobs/{id}/logs")),
    ]
}

fn node_page(name: &str) -> Vec<Req> {
    vec![
        req("/nodes/:name", format!("/nodes/{name}")),
        req("/api/nodes/:name", format!("/api/nodes/{name}")),
    ]
}

impl Schedule {
    /// The visits of round `round`, in execution order. A pure function of
    /// `(seed, round)`: run length never changes what a round contains.
    pub fn round(&self, round: u64) -> Vec<Visit> {
        match &self.plan {
            Plan::Portal { nodes } => (0..self.consumers.len())
                .map(|c| self.portal_visit(round, c, nodes))
                .collect(),
            // Every consumer polls in every cycle; the seed decides who goes
            // first, which is all a fixed poll loop leaves to chance.
            Plan::Fed { clusters } => (0..POLLS_PER_ROUND as u64)
                .flat_map(|cycle| {
                    let n = self.consumers.len();
                    let turn = round * POLLS_PER_ROUND as u64 + cycle;
                    let first = mix(self.seed ^ mix(turn)) as usize % n;
                    (0..n).map(move |i| self.poll_visit((first + i) % n, clusters))
                })
                .collect(),
        }
    }

    /// One visit by every consumer to every page it can draw — the four
    /// fixed pages and each of its job pages — and one to every node page.
    /// Run before the warm-up rounds of a cached portal workload, so that
    /// the measured phase starts from the steady state instead of drifting
    /// into it (a user opens Job Performance in one round out of ten).
    pub fn prime(&self) -> Vec<Visit> {
        let Plan::Portal { nodes } = &self.plan else {
            return Vec::new();
        };
        let mut visits = Vec::new();
        for (consumer, c) in self.consumers.iter().enumerate() {
            let fixed = [
                PageKind::Home,
                PageKind::MyJobs,
                PageKind::JobPerf,
                PageKind::Cluster,
            ];
            for kind in fixed {
                visits.push(Visit {
                    consumer,
                    kind,
                    reqs: fixed_page(kind),
                });
            }
            for id in &c.jobs {
                visits.push(Visit {
                    consumer,
                    kind: PageKind::Job,
                    reqs: job_page(id),
                });
            }
        }
        for name in nodes {
            visits.push(Visit {
                consumer: 0,
                kind: PageKind::Node,
                reqs: node_page(name),
            });
        }
        visits
    }

    fn portal_visit(&self, round: u64, consumer: usize, nodes: &[String]) -> Visit {
        let mut rng =
            Rng::new(mix(self.seed
                ^ mix(round
                    .wrapping_mul(0x1_0000)
                    .wrapping_add(consumer as u64))));
        let mut draw = rng.below(100);
        let mut kind = PageKind::Home;
        for (k, weight) in PAGE_MIX {
            if draw < weight {
                kind = k;
                break;
            }
            draw -= weight;
        }
        let jobs = &self.consumers[consumer].jobs;
        // A user with no job to open looks at the job table instead.
        if kind == PageKind::Job && jobs.is_empty() {
            kind = PageKind::MyJobs;
        }
        let reqs = match kind {
            PageKind::Job => job_page(&jobs[rng.below(jobs.len())]),
            PageKind::Node => node_page(&nodes[rng.below(nodes.len())]),
            fixed => fixed_page(fixed),
        };
        Visit {
            consumer,
            kind,
            reqs,
        }
    }

    fn poll_visit(&self, consumer: usize, clusters: &[String]) -> Visit {
        let reqs = if self.consumers[consumer].admin {
            let mut reqs = plain(&[
                "/slurm/v0/jobs",
                "/slurm/v0/nodes",
                "/slurm/v0/partitions",
                "/slurm/v0/diag",
            ]);
            for c in clusters {
                reqs.push(req(
                    "/slurm/v0/clusters/:cluster/jobs",
                    format!("/slurm/v0/clusters/{c}/jobs"),
                ));
                reqs.push(req(
                    "/slurm/v0/clusters/:cluster/nodes",
                    format!("/slurm/v0/clusters/{c}/nodes"),
                ));
            }
            reqs.extend(plain(&["/api/federation/nodes"]));
            reqs
        } else {
            plain(&[
                "/slurm/v0/jobs",
                "/slurm/v0/associations",
                "/api/federation/status",
                "/api/federation/jobs",
            ])
        };
        Visit {
            consumer,
            kind: PageKind::Poll,
            reqs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn portal(seed: u64) -> Schedule {
        Schedule {
            seed,
            plan: Plan::Portal {
                nodes: vec!["a001".into(), "a002".into(), "g001".into()],
            },
            consumers: (0..40)
                .map(|i| Consumer {
                    name: format!("u{i}"),
                    jobs: if i % 4 == 0 {
                        Vec::new()
                    } else {
                        vec!["11".into(), "12".into()]
                    },
                    ..Consumer::default()
                })
                .collect(),
        }
    }

    #[test]
    fn same_seed_same_schedule_other_seed_differs() {
        let a: Vec<_> = (0..8).map(|r| portal(42).round(r)).collect();
        let b: Vec<_> = (0..8).map(|r| portal(42).round(r)).collect();
        let c: Vec<_> = (0..8).map(|r| portal(43).round(r)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a[0], a[1], "rounds differ from each other");
    }

    #[test]
    fn every_user_visits_once_per_round_and_the_mix_holds() {
        let s = portal(7);
        let mut counts = [0usize; 7];
        for r in 0..200 {
            let visits = s.round(r);
            assert_eq!(visits.len(), s.consumers.len());
            for (i, v) in visits.iter().enumerate() {
                assert_eq!(v.consumer, i);
                assert!(is_shell(v.reqs[0].route), "a visit starts with its shell");
                counts[PageKind::ALL.iter().position(|k| *k == v.kind).unwrap()] += 1;
                if v.kind == PageKind::Job {
                    assert!(!s.consumers[i].jobs.is_empty());
                }
            }
        }
        let total: usize = counts.iter().sum();
        let home = counts[0] as f64 / total as f64;
        assert!((0.47..0.53).contains(&home), "home share {home}");
        assert_eq!(counts[6], 0, "no poll visits on a portal plan");
    }

    #[test]
    fn prime_opens_every_page_once() {
        let s = portal(3);
        let prime = s.prime();
        let jobs: usize = s.consumers.iter().map(|c| c.jobs.len()).sum();
        assert_eq!(prime.len(), 4 * s.consumers.len() + jobs + 3);
        let nodes = prime.iter().filter(|v| v.kind == PageKind::Node).count();
        assert_eq!(nodes, 3);
    }

    #[test]
    fn fed_plan_polls_four_times_and_root_walks_every_cluster() {
        let s = Schedule {
            seed: 1,
            plan: Plan::Fed {
                clusters: vec!["alpha".into(), "beta".into()],
            },
            consumers: vec![
                Consumer {
                    name: "wei000".into(),
                    ..Consumer::default()
                },
                Consumer {
                    name: "root".into(),
                    admin: true,
                    ..Consumer::default()
                },
            ],
        };
        let visits = s.round(0);
        assert_eq!(visits.len(), 2 * POLLS_PER_ROUND);
        let of = |consumer: usize| visits.iter().find(|v| v.consumer == consumer).unwrap();
        assert_eq!(of(0).reqs.len(), 4);
        assert_eq!(of(1).reqs.len(), 4 + 2 * 2 + 1);
        for cycle in visits.chunks(2) {
            let mut who: Vec<usize> = cycle.iter().map(|v| v.consumer).collect();
            who.sort_unstable();
            assert_eq!(who, [0, 1], "every consumer polls in every cycle");
        }
    }
}
