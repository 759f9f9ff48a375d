//! The measured phase: a closed loop of two keep-alive connections driven
//! by two generator threads, organised in rounds.
//!
//! A dashboard tab waits for its reply before its next fetch, so the loop
//! is closed; two clients because the box has two cores (an open-loop rate
//! here would measure the OS scheduler). In a round every consumer makes
//! its visits on its own connection, a barrier closes the round, and only
//! between rounds does the main thread check sampled outputs and advance
//! the simulation — none of that is inside request or visit timing.

use crate::checks::{self, Sample};
use crate::client::{latest_seq, Browser, Conn};
use crate::schedule::{Consumer, PageKind, Schedule, Visit, ROUTES, UPDATES};
use crate::site::{Site, TICK_SECS};
use crate::stats::Fnv;
use crate::usage::usage;
use std::collections::VecDeque;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Generator threads, and connections: one each per core of the box the
/// benchmark was calibrated on.
pub const CLIENTS: usize = 2;

/// Untimed rounds before measuring, by default: caches fill, ETags are
/// learned, the first `/api/updates` backlog drains.
pub const WARM_UP_ROUNDS: u64 = 10;

/// `peak_rss_mb` is read after this many measured rounds (or at the end of
/// a shorter run): `portal_live` never evicts a My Jobs entry whose key
/// carries an old `now`, so its memory grows with every round, and a
/// faster commit must not look worse for fitting more rounds in a run.
pub const RSS_ROUNDS: u64 = 50;

/// The closing table compares the traced replay with the socket latencies
/// of the same, last rounds only: on the ticking workloads the cluster's
/// history grows with every round, and the replay runs after the last one.
pub const TAIL_ROUNDS: u64 = crate::replay::REPLAY_ROUNDS;

/// How long the measured phase runs: a fixed number of rounds, so that
/// every count repeats exactly and a faster commit is not shown a later,
/// slower regime of a cache that grows with every tick — but never longer
/// than the deadline, counted from the first measured round.
#[derive(Debug, Clone, Copy)]
pub struct Length {
    pub rounds: u64,
    pub deadline: Option<Duration>,
}

/// Latencies of one route, split by what the client saw.
#[derive(Debug, Clone, Default)]
pub struct RouteLat {
    pub ok_ns: Vec<u32>,
    pub not_modified_ns: Vec<u32>,
}

impl RouteLat {
    fn absorb(&mut self, other: &RouteLat) {
        self.ok_ns.extend(&other.ok_ns);
        self.not_modified_ns.extend(&other.not_modified_ns);
    }
}

/// Add `from`'s latencies to `into`, route by route.
fn absorb_all(into: &mut [RouteLat], from: &[RouteLat]) {
    for (sum, part) in into.iter_mut().zip(from) {
        sum.absorb(part);
    }
}

#[derive(Default)]
struct Tally {
    routes: Vec<RouteLat>,
    visits: Vec<(PageKind, u64)>,
    requests: u64,
    failed: u64,
    wire_bytes: u64,
    samples: Vec<Sample>,
    errors: Vec<String>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            routes: vec![RouteLat::default(); ROUTES.len()],
            ..Tally::default()
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// One measured round: wall and process CPU time from the barrier that
/// opens it to the one that closes it, and what was done in between.
#[derive(Debug, Clone, Copy)]
pub struct RoundStat {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub requests: u64,
}

/// Everything the measured phase observed from outside the program.
pub struct Measured {
    /// Schedule index of the first measured round (the warm-up rounds come
    /// before it).
    pub first_round: u64,
    pub requests: u64,
    pub failed: u64,
    pub wire_bytes: u64,
    /// Every measured round, in order.
    pub per_round: Vec<RoundStat>,
    /// High-water mark of resident memory after `RSS_ROUNDS` rounds.
    pub peak_rss_kb: u64,
    /// Per route (index into `ROUTES`), each list ascending.
    pub routes: Vec<RouteLat>,
    /// The same over the last `TAIL_ROUNDS` rounds only.
    pub tail_routes: Vec<RouteLat>,
    pub visits: Vec<(PageKind, u64)>,
    pub sampled: u64,
    pub body_digest: u64,
    pub errors: Vec<String>,
    /// Browser state at the end, per consumer: the traced replay starts
    /// from what the socket clients had learned.
    pub browsers: Vec<Browser>,
}

impl Measured {
    pub fn all_request_ns(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .routes
            .iter()
            .flat_map(|r| r.ok_ns.iter().chain(&r.not_modified_ns))
            .map(|ns| u64::from(*ns))
            .collect();
        all.sort_unstable();
        all
    }

    pub fn rounds(&self) -> u64 {
        self.per_round.len() as u64
    }

    /// Wall time inside rounds, all rounds together.
    pub fn wall_ns(&self) -> u64 {
        self.per_round.iter().map(|r| r.wall_ns).sum()
    }

    pub fn not_modified(&self) -> u64 {
        self.routes
            .iter()
            .map(|r| r.not_modified_ns.len() as u64)
            .sum()
    }
}

struct Work {
    round: u64,
    measured: bool,
    /// `(index in the round, visit)` for this generator's consumers.
    visits: Vec<(usize, Visit)>,
}

/// One generator thread: serve rounds until the slot comes up empty.
fn generate(
    addr: std::net::SocketAddr,
    seed: u64,
    consumers: &[Consumer],
    slot: &Mutex<Option<Work>>,
    gate: &Barrier,
    out: &Mutex<Tally>,
) -> Vec<Browser> {
    let mut conn = Conn::connect(addr).expect("connect to the server under test");
    // One per consumer; only this generator's consumers ever use theirs.
    let mut browsers = vec![Browser::default(); consumers.len()];
    loop {
        gate.wait();
        let Some(work) = slot.lock().expect("slot mutex").take() else {
            break;
        };
        let mut tally = Tally::new();
        for (index, visit) in &work.visits {
            let consumer = &consumers[visit.consumer];
            let browser = &mut browsers[visit.consumer];
            let visit_start = Instant::now();
            for (ri, req) in visit.reqs.iter().enumerate() {
                let path = if req.route == UPDATES {
                    format!("{}{}", req.path, browser.cursor)
                } else {
                    req.path.clone()
                };
                let tag = browser.etags.get(&path).cloned();
                let sent = Instant::now();
                let framed = match conn.get(&path, &consumer.auth, tag.as_deref()) {
                    Ok(f) => f,
                    Err(e) => {
                        // The connection's framing is lost; start a new one
                        // so one failure cannot fail the rest of the run.
                        tally.requests += 1;
                        tally.fail(format!("{path}: {e}"));
                        conn = Conn::connect(addr).expect("reconnect");
                        continue;
                    }
                };
                let ns = sent.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32;
                tally.requests += 1;
                tally.wire_bytes += framed.wire_bytes() as u64;
                let lat = &mut tally.routes[req.route as usize];
                match framed.status {
                    200 => lat.ok_ns.push(ns),
                    304 => lat.not_modified_ns.push(ns),
                    _ => {}
                }
                let expected = match framed.status {
                    200 => true,
                    304 => tag.is_some() && framed.content_length == 0,
                    _ => false,
                };
                if !expected {
                    tally.fail(format!("{path}: unexpected status {}", framed.status));
                } else if conn.surplus() != 0 {
                    tally.fail(format!("{path}: bytes beyond Content-Length"));
                }
                if framed.status == 200 {
                    if let Some(etag) = &framed.etag {
                        browser.etags.insert(path.clone(), etag.clone());
                    }
                    if req.route == UPDATES {
                        match latest_seq(conn.body(&framed)) {
                            Some(seq) => browser.cursor = seq,
                            None => tally.fail(format!("{path}: no latest_seq")),
                        }
                    }
                }
                if work.measured && checks::sampled(seed, work.round, *index, ri) {
                    tally.samples.push(Sample {
                        order: (work.round, *index, ri),
                        consumer: visit.consumer,
                        route: req.route,
                        request: conn.last_request().to_vec(),
                        status: framed.status,
                        body: conn.body(&framed).to_vec(),
                    });
                }
            }
            tally.visits.push((
                visit.kind,
                visit_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            ));
        }
        *out.lock().expect("tally mutex") = tally;
        gate.wait();
    }
    browsers
}

/// Send one round's visits to the generators and wait for the barrier that
/// closes it. Consumers keep their connection: consumer i is always served
/// by generator i mod 2. Returns the wall and process CPU time of the round.
fn play(
    slots: &[Mutex<Option<Work>>],
    gate: &Barrier,
    round: u64,
    measured: bool,
    visits: Vec<Visit>,
) -> (u64, u64) {
    let mut split: Vec<Vec<(usize, Visit)>> = vec![Vec::new(); CLIENTS];
    for (index, visit) in visits.into_iter().enumerate() {
        split[visit.consumer % CLIENTS].push((index, visit));
    }
    for (slot, visits) in slots.iter().zip(split) {
        *slot.lock().expect("slot mutex") = Some(Work {
            round,
            measured,
            visits,
        });
    }
    let before = usage();
    let started = Instant::now();
    gate.wait();
    gate.wait();
    (
        started.elapsed().as_nanos() as u64,
        usage().cpu_ns - before.cpu_ns,
    )
}

/// Run the priming round (cached portal workloads), the warm-up rounds,
/// then the measured phase. `after_warm_up` runs on the main thread once
/// the last warm-up round is over (the layer counters are read there).
/// Only measured rounds are tallied.
pub fn run(
    site: &mut Site,
    schedule: &Schedule,
    length: Length,
    warm_up_rounds: u64,
    mut after_warm_up: impl FnMut(&Site),
) -> Measured {
    let addr = site.addr();
    let slots: Vec<Mutex<Option<Work>>> = (0..CLIENTS).map(|_| Mutex::new(None)).collect();
    let tallies: Vec<Mutex<Tally>> = (0..CLIENTS).map(|_| Mutex::new(Tally::new())).collect();
    // Both generators and the main thread meet at the start and at the end
    // of every round.
    let gate = Barrier::new(CLIENTS + 1);
    let mut total = Tally::new();
    let mut tail: VecDeque<Vec<RouteLat>> = VecDeque::new();
    let mut digest = Fnv::default();
    let mut sampled = 0u64;
    let mut peak_rss_kb = None;
    let mut per_round = Vec::new();
    let mut browsers = Vec::new();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|g| {
                let (slot, tally, gate) = (&slots[g], &tallies[g], &gate);
                let consumers = &schedule.consumers;
                let seed = schedule.seed;
                scope.spawn(move || generate(addr, seed, consumers, slot, gate, tally))
            })
            .collect();

        // With the caches off there is nothing to prime.
        if !site.workload.uncached {
            play(&slots, &gate, 0, false, schedule.prime());
        }
        let mut phase_start = Instant::now();
        let mut round = 0u64;
        loop {
            let measured = round >= warm_up_rounds;
            if round == warm_up_rounds {
                after_warm_up(site);
                phase_start = Instant::now();
            }
            let late = length.deadline.is_some_and(|d| phase_start.elapsed() >= d);
            let rounds = per_round.len() as u64;
            if rounds == length.rounds || (rounds > 0 && late) {
                break;
            }
            let (wall_ns, cpu_ns) = play(&slots, &gate, round, measured, schedule.round(round));

            let mut samples = Vec::new();
            let mut round_routes = vec![RouteLat::default(); ROUTES.len()];
            let requests_before = total.requests;
            for tally in &tallies {
                let t = std::mem::replace(&mut *tally.lock().expect("tally mutex"), Tally::new());
                if measured {
                    total.requests += t.requests;
                    total.failed += t.failed;
                    total.errors.extend(t.errors);
                    total.wire_bytes += t.wire_bytes;
                    total.visits.extend(t.visits);
                    absorb_all(&mut round_routes, &t.routes);
                    samples.extend(t.samples);
                }
            }
            if measured {
                per_round.push(RoundStat {
                    wall_ns,
                    cpu_ns,
                    requests: total.requests - requests_before,
                });
                if per_round.len() as u64 == RSS_ROUNDS {
                    peak_rss_kb = Some(usage().peak_rss_kb);
                }
                absorb_all(&mut total.routes, &round_routes);
                tail.push_back(round_routes);
                if tail.len() as u64 > TAIL_ROUNDS {
                    tail.pop_front();
                }
            }
            samples.sort_by_key(|s| s.order);
            for sample in &samples {
                sampled += 1;
                // The order of the events of one tick follows a HashMap's
                // iteration order inside the simulator, which differs from
                // process to process: checked like every body, not digested.
                if sample.route != UPDATES {
                    digest.write(&sample.body);
                }
                if let Err(why) = checks::check(site, &schedule.consumers[sample.consumer], sample)
                {
                    let request = String::from_utf8_lossy(&sample.request);
                    total.fail(format!(
                        "round {} {}: {why}",
                        sample.order.0,
                        request.lines().next().unwrap_or("")
                    ));
                }
            }
            if site.workload.ticks {
                site.advance(TICK_SECS);
            }
            round += 1;
        }
        // Empty slots tell the generators to stop.
        gate.wait();
        let mut by_generator: Vec<Vec<Browser>> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        browsers = (0..schedule.consumers.len())
            .map(|i| std::mem::take(&mut by_generator[i % CLIENTS][i]))
            .collect();
    });

    let mut tail_routes = vec![RouteLat::default(); ROUTES.len()];
    for round_routes in &tail {
        absorb_all(&mut tail_routes, round_routes);
    }
    for lat in total.routes.iter_mut().chain(&mut tail_routes) {
        lat.ok_ns.sort_unstable();
        lat.not_modified_ns.sort_unstable();
    }
    total.errors.truncate(8);
    Measured {
        first_round: warm_up_rounds,
        requests: total.requests,
        failed: total.failed,
        wire_bytes: total.wire_bytes,
        per_round,
        peak_rss_kb: peak_rss_kb.unwrap_or_else(|| usage().peak_rss_kb),
        routes: total.routes,
        tail_routes,
        visits: total.visits,
        sampled,
        body_digest: digest.finish(),
        errors: total.errors,
        browsers,
    }
}
