//! Per-connection state, and the table the loop threads share.

use crate::longpoll::ParkDirective;
use crate::request::Request;
use crate::response::{Body, Response};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{ErrorKind, IoSlice, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// Where a connection is in its request/response lifecycle. It *rests* in
/// the table, armed, in every state but `Dispatching`; a loop thread owns
/// it from the readiness report until it re-arms it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Keep-alive, no bytes pending; armed for read with the idle timeout.
    Idle,
    /// A partial request is buffered; armed for read with the read timeout.
    Reading,
    /// Its owner is parsing, routing or writing; not armed, not in the table.
    Dispatching,
    /// Response bytes remain; armed for write with the write timeout.
    Writing,
    /// A long-poll holds the connection open (no thread); armed for read
    /// so a client hangup is noticed, deadline = the poll's max wait.
    Parked,
}

impl ConnState {
    /// The metrics label for `hpcdash_http_connections{state=...}`.
    pub fn label(self) -> &'static str {
        match self {
            ConnState::Idle => "idle",
            ConnState::Reading => "reading",
            ConnState::Dispatching => "dispatching",
            ConnState::Writing => "writing",
            ConnState::Parked => "parked",
        }
    }
}

/// A parked long-poll: the original request (re-dispatched on wake) and
/// the handler's directive (whose drop releases the park-budget permit).
pub(crate) struct ParkedExchange {
    pub req: Request,
    pub directive: ParkDirective,
}

pub(crate) struct Conn {
    /// Monotonic, never reused: a stale event or wake finds no slot.
    pub token: u64,
    pub stream: TcpStream,
    pub state: ConnState,
    pub read_buf: Vec<u8>,
    pub out: Outgoing,
    /// When the sweeper may take the connection (close it, or answer a
    /// parked poll). The heap may hold an earlier entry; it is checked
    /// against this field before anyone acts.
    pub deadline: Option<Instant>,
    pub close_after_write: bool,
    pub parked: Option<ParkedExchange>,
}

impl Conn {
    pub fn new(token: u64, stream: TcpStream) -> Conn {
        Conn {
            token,
            stream,
            state: ConnState::Idle,
            read_buf: Vec::new(),
            out: Outgoing::default(),
            deadline: None,
            close_after_write: false,
            parked: None,
        }
    }
}

/// Slices handed to one vectored write.
const MAX_SLICES: usize = 16;

/// The answers a connection has queued, in order: heads and owned bodies
/// copied into `buf`, shared bodies (cached bytes) kept by reference and
/// written from where they are with the heads around them, one vectored
/// write at a time.
#[derive(Default)]
pub(crate) struct Outgoing {
    pub buf: Vec<u8>,
    /// `(at, body)`, `at` ascending: `body` goes out after `buf[..at]`.
    shared: Vec<(usize, Arc<Vec<u8>>)>,
    /// Bytes of the whole already written.
    written: usize,
}

impl Outgoing {
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty() && self.shared.is_empty()
    }

    /// Queue `resp` behind what is queued.
    pub fn push(&mut self, resp: &Response, keep_alive: bool, head_only: bool) {
        match resp.head_into(&mut self.buf, keep_alive, head_only) {
            Some(Body::Shared(body)) if !body.is_empty() => {
                self.shared.push((self.buf.len(), body.clone()));
            }
            Some(body) => self.buf.extend_from_slice(body),
            None => {}
        }
    }

    /// Write as much as `w` takes. `Ok(true)`: everything went out and the
    /// queue is empty again; `Ok(false)`: `w` would block.
    pub(crate) fn write_to(&mut self, mut w: impl Write) -> std::io::Result<bool> {
        loop {
            let mut iov = [IoSlice::new(&[]); MAX_SLICES];
            let n = self.unwritten(&mut iov);
            if n == 0 {
                self.buf.clear();
                self.shared.clear();
                self.written = 0;
                release_excess(&mut self.buf);
                return Ok(true);
            }
            match w.write_vectored(&iov[..n]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(k) => self.written += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The unwritten rest, in order, in as many of `iov`'s slices as it
    /// fills; how many it filled.
    fn unwritten<'a>(&'a self, iov: &mut [IoSlice<'a>]) -> usize {
        let (mut skip, mut n) = (self.written, 0);
        let mut add = |part: &'a [u8]| {
            if skip >= part.len() {
                skip -= part.len();
            } else if n < iov.len() {
                iov[n] = IoSlice::new(&part[skip..]);
                skip = 0;
                n += 1;
            }
        };
        let mut from = 0;
        for (at, body) in &self.shared {
            add(&self.buf[from..*at]);
            add(body);
            from = *at;
        }
        add(&self.buf[from..]);
        n
    }
}

/// Largest buffer a connection keeps between requests. One several-hundred-KB
/// body must not pin that much memory for the life of a keep-alive tab.
pub(crate) const MAX_RETAINED: usize = 64 * 1024;

/// Give back whatever `buf` holds beyond [`MAX_RETAINED`] and its contents.
pub(crate) fn release_excess(buf: &mut Vec<u8>) {
    if buf.capacity() > MAX_RETAINED {
        if buf.is_empty() {
            *buf = Vec::new();
        } else {
            buf.shrink_to(MAX_RETAINED);
        }
    }
}

#[derive(Default)]
struct Slot {
    /// `None` while a loop thread owns the connection.
    conn: Option<Box<Conn>>,
    /// Someone came for the connection while it was owned (an event that
    /// beat its owner back to the table, a long-poll wake): the owner looks
    /// at it once more instead of resting it.
    knocked: bool,
    /// The earliest heap entry that still speaks for this connection.
    filed: Option<Instant>,
}

/// Token → connection for every live connection, and their deadlines. The
/// one structure every loop thread shares; its lock is held for a lookup or
/// a state change, never across a handler or a syscall.
#[derive(Default)]
pub(crate) struct Table {
    slots: HashMap<u64, Slot>,
    /// Lazily maintained: a deadline that only moves later (the idle
    /// timeout after every response) is not re-filed; the old entry fires,
    /// finds the connection not due, and files the current one.
    deadlines: BinaryHeap<Reverse<(Instant, u64)>>,
}

impl Table {
    /// A new connection, owned by the caller until it first rests.
    pub fn open(&mut self, token: u64) {
        self.slots.insert(token, Slot::default());
    }

    /// Take ownership of a resting connection. `None`: the token is gone
    /// (stale event) or the connection is owned — then its owner is told.
    pub fn claim(&mut self, token: u64) -> Option<Box<Conn>> {
        let slot = self.slots.get_mut(&token)?;
        let conn = slot.conn.take();
        slot.knocked |= conn.is_none();
        conn
    }

    /// Put an armed connection back; `Ok(true)` if its deadline is now the
    /// nearest of all (the timer must move). Gives the connection straight
    /// back if someone knocked while it was owned: drive it once more.
    pub fn rest(&mut self, conn: Box<Conn>) -> Result<bool, Box<Conn>> {
        let token = conn.token;
        let slot = self.slots.get_mut(&token).expect("an owned slot");
        if std::mem::take(&mut slot.knocked) {
            return Err(conn);
        }
        let file = conn
            .deadline
            .filter(|&at| slot.filed.is_none_or(|filed| at < filed));
        slot.filed = file.or(slot.filed);
        slot.conn = Some(conn);
        let Some(at) = file else { return Ok(false) };
        self.deadlines.push(Reverse((at, token)));
        Ok(self.next_deadline() == Some(at))
    }

    /// Forget a connection its caller owns.
    pub fn close(&mut self, token: u64) {
        self.slots.remove(&token);
    }

    /// What the timer should be set to.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.deadlines.peek().map(|&Reverse((at, _))| at)
    }

    /// Pop what the heap says is due and hand over the first resting
    /// connection whose deadline has really passed.
    pub(crate) fn take_due(&mut self, now: Instant) -> Option<Box<Conn>> {
        while let Some(&Reverse((at, token))) = self.deadlines.peek() {
            if at > now {
                break;
            }
            self.deadlines.pop();
            let Some(slot) = self.slots.get_mut(&token) else {
                continue; // closed since
            };
            if slot.filed != Some(at) {
                continue; // superseded by an earlier entry
            }
            slot.filed = None;
            // Owned: its owner files the deadline again when it rests.
            match slot.conn.as_ref().map(|c| c.deadline) {
                Some(Some(d)) if d <= now => return slot.conn.take(),
                Some(Some(d)) => {
                    slot.filed = Some(d);
                    self.deadlines.push(Reverse((d, token)));
                }
                _ => {}
            }
        }
        None
    }

    /// Every resting connection, for shutdown. (Boxes, as they are stored.)
    #[allow(clippy::vec_box)]
    pub(crate) fn take_all(&mut self) -> Vec<Box<Conn>> {
        let resting = self.slots.values_mut().filter_map(|s| s.conn.take());
        resting.collect()
    }

    #[cfg(test)]
    pub(crate) fn resting(&self) -> impl Iterator<Item = &Conn> {
        self.slots.values().filter_map(|s| s.conn.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A socket that takes one byte per write and pushes back on every
    /// other call.
    #[derive(Default)]
    struct Trickle {
        got: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(ErrorKind::WouldBlock.into());
            }
            self.got.extend_from_slice(&buf[..buf.len().min(1)]);
            Ok(buf.len().min(1))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn shared(text: &str) -> Response {
        let body = Arc::new(text.as_bytes().to_vec());
        Response::new(200).with_body(body)
    }

    fn not_modified(text: &str) -> Response {
        Response {
            status: 304,
            ..shared(text)
        }
    }

    /// `(response, keep_alive, head_only)`: what each queued answer is.
    fn answers() -> Vec<(Response, bool, bool)> {
        vec![
            (shared("{\"rows\":[1,2,3]}"), true, false),
            (Response::text("owned body"), true, false),
            (not_modified("cached"), true, false),
            (shared("not for a HEAD"), true, true),
            (Response::new(204), true, false),
            (shared(""), true, false),
            (shared("last, then close"), false, false),
        ]
    }

    /// What `serialize_into` writes for the same answers, one after another.
    fn serialized(answers: &[(Response, bool, bool)]) -> Vec<u8> {
        let mut want = Vec::new();
        for (resp, keep, head) in answers {
            resp.serialize_into(&mut want, *keep, *head);
        }
        want
    }

    #[test]
    fn a_socket_taking_a_byte_at_a_time_gets_the_serialized_bytes() {
        let answers = answers();
        let mut out = Outgoing::default();
        for (resp, keep, head) in &answers {
            out.push(resp, *keep, *head);
        }
        let mut socket = Trickle::default();
        while !out.write_to(&mut socket).expect("no socket error") {}
        assert_eq!(socket.got, serialized(&answers));
        assert!(out.is_empty());
    }

    #[test]
    fn pipelined_answers_keep_their_order() {
        // More parts than one vectored write takes.
        let answers: Vec<(Response, bool, bool)> = (0..40)
            .map(|i| {
                let resp = match i % 3 {
                    0 => shared(&format!("shared {i}")),
                    1 => Response::text(format!("owned {i}")),
                    _ => not_modified(&format!("etag {i}")),
                };
                (resp, true, false)
            })
            .collect();
        let mut out = Outgoing::default();
        for (resp, keep, head) in &answers {
            out.push(resp, *keep, *head);
        }
        let mut socket = Vec::new();
        assert!(out.write_to(&mut socket).expect("a Vec takes everything"));
        assert_eq!(socket, serialized(&answers));
        // The queue is reusable once written.
        out.push(&answers[0].0, true, false);
        let mut again = Vec::new();
        assert!(out.write_to(&mut again).expect("a Vec takes everything"));
        assert_eq!(again, serialized(&answers[..1]));
    }

    #[test]
    fn head_and_304_answers_queue_no_body() {
        let mut out = Outgoing::default();
        out.push(&not_modified("body"), true, false);
        out.push(&shared("body"), true, true);
        assert!(out.shared.is_empty(), "no body is kept for them");
        let mut want = Vec::new();
        not_modified("body").serialize_into(&mut want, true, false);
        shared("body").serialize_into(&mut want, true, true);
        assert_eq!(out.buf, want);
    }
}
