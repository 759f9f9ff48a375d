//! The traced run: replay the schedule's last measured rounds in-process,
//! on one thread, with a span around each layer's public entry point.
//!
//! Per request: `visit → request → {http.parse, core.handle,
//! http.serialize}` — `Request::parse_buf` on the exact bytes the socket
//! client sends, `Dashboard::handle`, `Response::serialize_into`. What the
//! socket adds on top (reactor, worker hand-off, syscalls, loopback, the
//! client) is the residual the layer table closes with.

use crate::client::{latest_seq, render_request, Browser};
use crate::schedule::{Schedule, UPDATES};
use crate::site::{parse, Site, TICK_SECS};
use crate::spans::Spans;
use std::time::Instant;

/// Rounds replayed (fewer when the measured phase was shorter).
pub const REPLAY_ROUNDS: u64 = 20;

/// The three states of `Dashboard::handle`, told apart from outside: an
/// answer that made a daemon RPC or parsed command text was built (a miss);
/// otherwise a 304 was revalidated and a 200 was served from a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Revalidated,
    Hit,
    Miss,
    /// Neither 200 nor 304; the socket run counts these as failures.
    Other,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Revalidated => "revalidated",
            Verdict::Hit => "hit",
            Verdict::Miss => "miss",
            Verdict::Other => "other",
        }
    }

    fn from_bits(bits: u32) -> Verdict {
        [
            Verdict::Revalidated,
            Verdict::Hit,
            Verdict::Miss,
            Verdict::Other,
        ][(bits & 3) as usize]
    }
}

pub fn tag(route: u8, verdict: Verdict) -> u32 {
    u32::from(route) << 2 | verdict as u32
}

pub fn untag(tag: u32) -> (u8, Verdict) {
    ((tag >> 2) as u8, Verdict::from_bits(tag))
}

/// What a replayed request answered, in request-span order (the span's
/// tag carries route and verdict, its children the three stage times).
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub status: u16,
    pub body_len: u32,
}

/// Daemon RPCs plus command-text parses so far: if a request moves this,
/// its payload was built, not served from a cache.
fn backend_touches(site: &Site) -> u64 {
    site.scenarios()
        .iter()
        .map(|s| s.ctld.stats().total_rpcs() + s.dbd.stats().total_rpcs())
        .sum::<u64>()
        + hpcdash::slurmcli::parse_call_count()
}

/// Replay the given schedule rounds. With `spans` not recording this is
/// the untraced twin whose wall time `trace.overhead_share` is measured
/// against. Returns the wall time and every request's answer.
pub fn replay(
    site: &mut Site,
    schedule: &Schedule,
    browsers: &mut [Browser],
    rounds: std::ops::Range<u64>,
    spans: &mut Spans,
) -> (u64, Vec<Answer>) {
    let mut out = Vec::new();
    let mut request = Vec::new();
    let mut wire = Vec::new();
    let started = Instant::now();
    for round in rounds {
        for visit in schedule.round(round) {
            let consumer = &schedule.consumers[visit.consumer];
            let browser = &mut browsers[visit.consumer];
            spans.begin_visit();
            let visit_span = spans.enter("visit");
            for req in &visit.reqs {
                let path = if req.route == UPDATES {
                    format!("{}{}", req.path, browser.cursor)
                } else {
                    req.path.clone()
                };
                let etag = browser.etags.get(&path).map(String::as_str);
                render_request(&mut request, &path, &consumer.auth, etag);
                let touches = backend_touches(site);

                let request_span = spans.enter("request");
                let parsed = spans.time("http.parse", || parse(&request));
                let resp = spans.time("core.handle", || site.dashboard().handle(&parsed));
                wire.clear();
                spans.time("http.serialize", || {
                    resp.serialize_into(&mut wire, true, false)
                });
                spans.exit(request_span);

                // A 304 can follow a fill (the fresh bytes hash to the tag
                // the browser holds), so the backend decides first.
                let verdict = match resp.status {
                    200 | 304 if backend_touches(site) != touches => Verdict::Miss,
                    304 => Verdict::Revalidated,
                    200 => Verdict::Hit,
                    _ => Verdict::Other,
                };
                spans.set_tag(request_span, tag(req.route, verdict));
                out.push(Answer {
                    status: resp.status,
                    body_len: resp.body.len() as u32,
                });
                if resp.status == 200 {
                    if let Some(etag) = resp.header("etag") {
                        browser.etags.insert(path, etag.to_string());
                    }
                    if req.route == UPDATES {
                        if let Some(seq) = latest_seq(&resp.body) {
                            browser.cursor = seq;
                        }
                    }
                }
            }
            spans.exit(visit_span);
        }
        if site.workload.ticks {
            site.advance(TICK_SECS);
        }
    }
    (started.elapsed().as_nanos() as u64, out)
}
