//! Spans recorded from the benchmark's own files, around each layer's
//! public entry point. Kept in a `Vec`, written out when the run ends.

use serde_json::{json, Value};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one visit share this id (0 outside visits).
    pub visit: u32,
    /// How many operations the span covers: a probe that loops a 30 ns call
    /// ten thousand times records one span with `ops = 10_000`.
    pub ops: u32,
    /// For `request` spans: `route << 2 | verdict`; otherwise 0.
    pub tag: u32,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

pub struct Spans {
    /// With recording off `enter`/`exit` do nothing, so the same replay
    /// code gives the untraced time that `trace.overhead_share` is against.
    recording: bool,
    epoch: Instant,
    pub recs: Vec<SpanRec>,
    open: Vec<u32>,
    visit: u32,
}

impl Spans {
    pub fn new(recording: bool) -> Spans {
        Spans {
            recording,
            epoch: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
            visit: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin_visit(&mut self) {
        self.visit += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.recording {
            return SpanId(0);
        }
        let id = self.recs.len() as u32;
        let rec = SpanRec {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            visit: self.visit,
            ops: 1,
            tag: 0,
        };
        self.recs.push(rec);
        self.open.push(id);
        // Clock read last, so the bookkeeping above is billed to the parent.
        self.recs[id as usize].start_ns = self.now_ns();
        SpanId(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        if !self.recording {
            return;
        }
        let end = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans close innermost first");
        self.recs[id.0 as usize].end_ns = end;
    }

    pub fn set_ops(&mut self, id: SpanId, ops: u32) {
        if self.recording {
            self.recs[id.0 as usize].ops = ops;
        }
    }

    pub fn set_tag(&mut self, id: SpanId, tag: u32) {
        if self.recording {
            self.recs[id.0 as usize].tag = tag;
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Run `f` `ops` times inside one span.
    pub fn time_ops(&mut self, name: &'static str, ops: u32, mut f: impl FnMut()) {
        let id = self.enter(name);
        for _ in 0..ops {
            f();
        }
        self.exit(id);
        self.set_ops(id, ops);
    }

    /// Self time per span: its duration minus the time its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.recs.iter().map(SpanRec::duration_ns).collect();
        for rec in &self.recs {
            if let Some(p) = rec.parent {
                own[p as usize] = own[p as usize].saturating_sub(rec.duration_ns());
            }
        }
        own
    }

    /// Mean time per operation over every span called `name`, in ns.
    pub fn mean_ns(&self, name: &str) -> Option<f64> {
        let (mut total, mut ops) = (0u64, 0u64);
        for rec in self.recs.iter().filter(|r| r.name == name) {
            total += rec.duration_ns();
            ops += u64::from(rec.ops);
        }
        (ops > 0).then(|| total as f64 / ops as f64)
    }

    /// The trace file: one object per span, in start order.
    pub fn to_json(&self, describe_tag: impl Fn(u32) -> Value) -> Value {
        let own = self.self_ns();
        Value::Array(
            self.recs
                .iter()
                .zip(own)
                .map(|(r, self_ns)| {
                    let mut span = json!({
                        "name": r.name,
                        "start_ns": r.start_ns,
                        "end_ns": r.end_ns,
                        "self_ns": self_ns,
                        "parent": r.parent,
                        "visit": r.visit,
                        "ops": r.ops,
                    });
                    if r.name == "request" {
                        span["request"] = describe_tag(r.tag);
                    }
                    span
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            visit: 1,
            ops: 1,
            tag: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::new(true);
        s.recs = vec![
            rec("visit", 0, 1_000, None),
            rec("request", 100, 900, Some(0)),
            rec("http.parse", 110, 210, Some(1)),
            rec("core.handle", 220, 720, Some(1)),
            rec("http.serialize", 730, 880, Some(1)),
        ];
        assert_eq!(s.self_ns(), vec![200, 50, 100, 500, 150]);
    }

    #[test]
    fn mean_divides_by_operations() {
        let mut s = Spans::new(true);
        s.recs = vec![
            rec("obs.span", 0, 30_000, None),
            rec("obs.span", 0, 10_000, None),
        ];
        s.recs[0].ops = 1_000;
        s.recs[1].ops = 1_000;
        assert_eq!(s.mean_ns("obs.span"), Some(20.0));
        assert_eq!(s.mean_ns("absent"), None);
    }

    #[test]
    fn nesting_records_parents_and_recording_off_records_nothing() {
        let mut s = Spans::new(true);
        s.begin_visit();
        let outer = s.enter("visit");
        let got = s.time("request", || 7);
        s.exit(outer);
        assert_eq!(got, 7);
        assert_eq!(s.recs[1].parent, Some(0));
        assert_eq!(s.recs[1].visit, 1);
        assert!(s.recs[0].end_ns >= s.recs[1].end_ns);

        let mut off = Spans::new(false);
        let id = off.enter("visit");
        off.time_ops("x", 3, || {});
        off.exit(id);
        assert!(off.recs.is_empty());
    }
}
