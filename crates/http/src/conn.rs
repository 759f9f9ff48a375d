//! Per-connection state, and the table the loop threads share.

use crate::longpoll::ParkDirective;
use crate::request::Request;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::TcpStream;
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
    pub write_buf: Vec<u8>,
    pub write_pos: usize,
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
            write_buf: Vec::new(),
            write_pos: 0,
            deadline: None,
            close_after_write: false,
            parked: None,
        }
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
    pub fn next_deadline(&self) -> Option<Instant> {
        self.deadlines.peek().map(|&Reverse((at, _))| at)
    }

    /// Pop what the heap says is due and hand over the first resting
    /// connection whose deadline has really passed.
    pub fn take_due(&mut self, now: Instant) -> Option<Box<Conn>> {
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
    pub fn take_all(&mut self) -> Vec<Box<Conn>> {
        let resting = self.slots.values_mut().filter_map(|s| s.conn.take());
        resting.collect()
    }

    #[cfg(test)]
    pub fn resting(&self) -> impl Iterator<Item = &Conn> {
        self.slots.values().filter_map(|s| s.conn.as_deref())
    }
}
