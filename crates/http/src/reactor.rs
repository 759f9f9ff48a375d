//! The readiness event loop: `workers` identical threads block in `wait` on
//! one shared [`Poller`](crate::sys::Poller), and each runs whatever it is
//! handed to completion.
//!
//! The ownership rule: **the thread that receives a one-shot event owns the
//! connection until it re-arms it.** Connection fds are armed
//! `EPOLLONESHOT`, so the kernel reports each readiness to exactly one
//! thread; that thread takes the connection out of the shared table, reads,
//! parses, routes, serializes into the connection's own write buffer,
//! writes, re-arms and puts it back — no other thread, queue, wake-up or
//! copy in between. Ownership follows the *event*, not a thread: a handler
//! that blocks occupies one thread and nothing else, and the next ready
//! connection goes to whichever thread is free (each `wait` takes a single
//! event, so nothing queues behind a slow handler).
//!
//! What the threads share is the [`Table`](crate::conn::Table) (token →
//! resting connection, plus the deadline heap) and the queue of long-poll
//! wakes. **No lock is held while a handler runs or a socket syscall is in
//! flight**: the table lock covers a lookup or a state change only, and an
//! owned connection is a local `Box`, invisible to everyone else. Whoever
//! comes for a connection that is owned (an event that beat its owner back
//! to the table, a long-poll wake, the sweeper) leaves a knock or moves on;
//! the owner sees the knock when it tries to rest the connection and drives
//! it once more. Tokens are monotonic and never reused, so anything stale
//! finds no slot and is dropped.
//!
//! ```text
//!   Idle --bytes--> Reading --full request--> Dispatching --response-->
//!   (Writing, if the socket pushes back) --flushed--> Idle (keep-alive)
//!   or Parked, for long-polls: the connection rests armed-for-EOF until
//!   the push hub fires the directive's waker or the deadline lapses, then
//!   whichever thread hears of it routes the request once more
//! ```
//!
//! Idle threads burn zero CPU: `epoll_wait` blocks until readiness. The
//! nearest connection deadline (idle/read/write timeout, park wait) is the
//! poller's one-shot timer — one more event, for one thread.

use crate::conn::{release_excess, Conn, ConnState, ParkedExchange};
use crate::longpoll::{CONN_PARK_HEADER, PARK_FINAL_HEADER};
use crate::request::{Method, ParseError, ParseStatus, Request};
use crate::response::Response;
use crate::router::Router;
use crate::server::{Metrics, Shared};
use crate::sys::{Interest, Waker, TIMER_TOKEN};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::time::Instant;

pub(crate) const TOKEN_STOP: u64 = 0;
pub(crate) const TOKEN_WAKES: u64 = 1;
pub(crate) const TOKEN_LISTENER: u64 = 2;
pub(crate) const FIRST_CONN_TOKEN: u64 = 3;
/// Cap on requests routed per dispatch batch (pipelining fairness bound).
const MAX_BATCH: usize = 32;
const READ_CHUNK: usize = 16 * 1024;

/// Tokens of parked connections whose [`ParkWaker`](crate::ParkWaker)
/// fired, pushed from whatever thread published the data.
pub(crate) struct WakeQueue {
    pub tokens: Mutex<VecDeque<u64>>,
    pub waker: Waker,
}

impl WakeQueue {
    fn push(&self, token: u64) {
        self.tokens.lock().push_back(token);
        self.waker.wake();
    }
}

/// What became of a connection its owner drove as far as it would go.
enum Next {
    /// Armed; back to the table.
    Rest,
    Close,
}

/// The loop every server thread runs; they are all alike.
impl Shared {
    pub(crate) fn run(&self, ix: usize) {
        let mut events: Vec<u64> = Vec::with_capacity(1);
        while !self.shutdown.load(Ordering::Acquire) {
            events.clear();
            // One event per wait: the next ready connection is for the next
            // free thread, not for the back of this one's batch.
            if self.poller.wait(&mut events, 1, None).is_err() {
                break;
            }
            match events.first() {
                None | Some(&TOKEN_STOP) => {}
                Some(&TOKEN_WAKES) => self.wake_ready(),
                Some(&TOKEN_LISTENER) => self.accept_ready(),
                Some(&TIMER_TOKEN) => self.timer_ready(ix),
                Some(&token) => self.conn_ready(token),
            }
        }
        // Shutdown: account every resting connection back out of the gauges.
        // A connection still inside a handler is rested by its owner, which
        // then comes through here itself.
        let resting = self.table.lock().take_all();
        for conn in resting {
            self.close(conn);
        }
    }

    // ---- accept path -----------------------------------------------------

    fn accept_ready(&self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // One atomic reserve (never check-then-add): the count
                    // cannot pass the watermark, not even for an instant,
                    // whoever else accepts or closes meanwhile.
                    let max = self.cfg.max_connections;
                    let reserve = |n| (n < max).then_some(n + 1);
                    let count = &self.conn_count;
                    match count.fetch_update(Ordering::AcqRel, Ordering::Acquire, reserve) {
                        Ok(_) => self.adopt(stream),
                        Err(_) => shed(stream, &self.metrics),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: the backlog is drained
            }
        }
        // The listener is one-shot like everything else: one thread accepts
        // at a time, and a connect wakes one sleeper, not all of them.
        let fd = self.listener.as_raw_fd();
        let _ = self.poller.modify(fd, TOKEN_LISTENER, Interest::Read, true);
    }

    /// Take ownership of an accepted connection (conn_count already ours).
    fn adopt(&self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.conn_count.fetch_sub(1, Ordering::AcqRel);
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let mut conn = Box::new(Conn::new(token, stream));
        conn.deadline = Some(Instant::now() + self.cfg.idle_timeout);
        if let Some(m) = &self.metrics {
            m.conn_gauge(conn.state).inc();
        }
        self.table.lock().open(token);
        let fd = conn.stream.as_raw_fd();
        match self.poller.add(fd, token, Interest::Read, true) {
            Ok(()) => self.settle(conn, Next::Rest),
            Err(_) => self.close(conn),
        }
    }

    // ---- ownership -------------------------------------------------------

    fn conn_ready(&self, token: u64) {
        let claimed = self.table.lock().claim(token);
        if let Some(mut conn) = claimed {
            let next = self.drive(&mut conn);
            self.settle(conn, next);
        }
    }

    /// Act on whatever brought an owned connection here.
    fn drive(&self, conn: &mut Conn) -> Next {
        match conn.state {
            ConnState::Idle | ConnState::Reading => match fill(conn) {
                Fill::Closed => Next::Close,
                Fill::Bytes | Fill::Nothing => self.pump(conn),
            },
            ConnState::Writing => self.pump(conn),
            ConnState::Parked => self.parked_ready(conn),
            ConnState::Dispatching => unreachable!("a connection never rests mid-dispatch"),
        }
    }

    /// Give up an owned connection: close it, or put it (armed) back in the
    /// table — unless someone knocked meanwhile, then drive it once more.
    fn settle(&self, mut conn: Box<Conn>, mut next: Next) {
        loop {
            if let Next::Close = next {
                return self.close(conn);
            }
            let rested = self.table.lock().rest(conn);
            match rested {
                Ok(false) => return,
                Ok(true) => return self.retime(),
                Err(knocked) => conn = knocked,
            }
            next = self.drive(&mut conn);
        }
    }

    fn close(&self, conn: Box<Conn>) {
        if let Some(m) = &self.metrics {
            m.conn_gauge(conn.state).dec();
        }
        // Out of the poller before the fd number can be reused.
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        self.table.lock().close(conn.token);
        self.conn_count.fetch_sub(1, Ordering::AcqRel);
        // conn (and any ParkedExchange with its permit) drops here.
    }

    // ---- deadlines -------------------------------------------------------

    /// Point the poller's timer at the nearest deadline. Serialized, so
    /// that the last `set_timer` is the one that saw the latest heap.
    fn retime(&self) {
        let mut armed = self.timer.lock();
        let next = self.table.lock().next_deadline();
        let _ = self.poller.set_timer(next);
        *armed = next;
    }

    /// The sweeper's turn: take one connection that rested past its
    /// deadline, then re-set the timer *first* — if more are due it fires
    /// at once, on another thread. How late this thread came to the armed
    /// deadline is its loop lag.
    fn timer_ready(&self, ix: usize) {
        let now = Instant::now();
        if let (Some(m), Some(armed)) = (&self.metrics, *self.timer.lock()) {
            m.loop_lag[ix].set(now.saturating_duration_since(armed).as_micros() as i64);
        }
        let due = self.table.lock().take_due(now);
        self.retime();
        if let Some(mut conn) = due {
            let next = match conn.state {
                // A parked long-poll reaching its wait budget is the normal
                // empty-poll case, not an error.
                ConnState::Parked => self.drive(&mut conn),
                _ => Next::Close,
            };
            self.settle(conn, next);
        }
    }

    // ---- read, route, write ----------------------------------------------

    /// Flush what is queued, answer what is buffered, repeat; stop when the
    /// socket pushes back, the buffer runs out of whole requests, a
    /// long-poll parks, or the connection is done for.
    fn pump(&self, conn: &mut Conn) -> Next {
        // `answered`: a response went out since the socket was last read.
        let (mut answered, mut looks) = (false, 0);
        loop {
            if !conn.write_buf.is_empty() {
                match flush(conn) {
                    Flush::Failed => return Next::Close,
                    Flush::Blocked => {
                        self.set_state(conn, ConnState::Writing);
                        conn.deadline = Some(Instant::now() + self.cfg.write_timeout);
                        return self.arm(conn, Interest::Write);
                    }
                    Flush::Done if conn.close_after_write => return Next::Close,
                    Flush::Done => {}
                }
            }
            // Back to keep-alive; pipelined leftovers are answered now.
            let (batch, parse_error) = next_batch(conn);
            if let Some(e) = parse_error {
                let resp = match e {
                    ParseError::BodyTooLarge(_) => Response::error(413, "body too large"),
                    ParseError::HeadersTooLarge(_) => {
                        Response::error(431, "request header fields too large")
                    }
                    _ => Response::bad_request("malformed request"),
                };
                conn.read_buf = Vec::new();
                resp.serialize_into(&mut conn.write_buf, false, false);
                conn.close_after_write = true;
            } else if !batch.is_empty() {
                self.set_state(conn, ConnState::Dispatching);
                answered = true;
                if let Some(exchange) = route_batch(&self.router, conn, batch) {
                    return self.park(conn, exchange);
                }
            } else {
                // A closed-loop client has often sent its next request by
                // the time its answer is flushed (the write wakes it, and it
                // may run before we do). Look once before going back through
                // the poller, where the same bytes would cost a re-arm, a
                // wait and the wake-up of another thread — but only so many
                // times in a row, so a busy connection still yields.
                if std::mem::take(&mut answered) && looks < MAX_BATCH && conn.read_buf.is_empty() {
                    looks += 1;
                    match fill(conn) {
                        Fill::Closed => return Next::Close,
                        Fill::Bytes => continue,
                        Fill::Nothing => {}
                    }
                }
                // Partial (or nothing): arm for more bytes. A half-read
                // request rides the shorter read timeout; a quiet
                // keep-alive connection the idle timeout.
                let (state, timeout) = if conn.read_buf.is_empty() {
                    (ConnState::Idle, self.cfg.idle_timeout)
                } else {
                    (ConnState::Reading, self.cfg.read_timeout)
                };
                self.set_state(conn, state);
                conn.deadline = Some(Instant::now() + timeout);
                return self.arm(conn, Interest::Read);
            }
        }
    }

    // ---- parked connections ---------------------------------------------

    /// Hold the exchange open; the hub's waker (or the deadline) has some
    /// loop thread route it once more. Armed for read so a vanished client
    /// is noticed instead of parked forever.
    fn park(&self, conn: &mut Conn, exchange: ParkedExchange) -> Next {
        let (wakes, token) = (self.wakes.clone(), conn.token);
        // If the waker has fired already the hook runs here and now; the
        // thread that takes the token finds the connection owned and
        // knocks, and `settle` drives it again.
        exchange.directive.waker.set_hook(move || wakes.push(token));
        conn.deadline = Some(Instant::now() + exchange.directive.max_wait);
        conn.parked = Some(exchange);
        self.set_state(conn, ConnState::Parked);
        self.arm(conn, Interest::Read)
    }

    /// Someone came for a parked connection: its waker fired or its wait is
    /// over (answer it), the client hung up (tear down, freeing the park
    /// slot immediately), or it sent pipelined bytes (buffer them — they
    /// are answered after the park resolves).
    fn parked_ready(&self, conn: &mut Conn) -> Next {
        let exchange = conn.parked.as_ref().expect("parked state carries exchange");
        if exchange.directive.waker.fired() || conn.deadline.is_some_and(|d| d <= Instant::now()) {
            return self.resolve_park(conn);
        }
        match fill(conn) {
            Fill::Closed => return Next::Close,
            _ if conn.read_buf.len() > crate::request::MAX_HEAD => return Next::Close,
            _ => {}
        }
        self.arm(conn, Interest::Read)
    }

    /// Route a parked request again with the park-final marker; the handler
    /// drains instantly and the response flows out the normal path.
    fn resolve_park(&self, conn: &mut Conn) -> Next {
        let ParkedExchange { mut req, directive } =
            conn.parked.take().expect("parked state carries exchange");
        self.set_state(conn, ConnState::Dispatching);
        let keep = req.keep_alive();
        req.headers
            .insert(PARK_FINAL_HEADER.to_string(), "1".to_string());
        let resp = route_on_worker(&self.router, &req);
        resp.serialize_into(&mut conn.write_buf, keep, req.method == Method::Head);
        drop(directive); // park slot free the instant the answer exists
        conn.close_after_write = !keep;
        self.pump(conn)
    }

    /// A thread that hears the wake fd takes one token and passes the rest
    /// on, so a publish that wakes a thousand tabs is spread over every
    /// free thread instead of queueing behind this one.
    fn wake_ready(&self) {
        let waker = &self.wakes.waker;
        waker.drain();
        let (token, more) = {
            let mut tokens = self.wakes.tokens.lock();
            (tokens.pop_front(), !tokens.is_empty())
        };
        let _ = self
            .poller
            .modify(waker.fd(), TOKEN_WAKES, Interest::Read, true);
        if more {
            waker.wake();
        }
        if let Some(token) = token {
            self.conn_ready(token);
        }
    }

    // ---- small helpers ---------------------------------------------------

    /// Re-arm an owned connection; from here on the next event may already
    /// be on another thread, knocking.
    fn arm(&self, conn: &Conn, interest: Interest) -> Next {
        let fd = conn.stream.as_raw_fd();
        match self.poller.modify(fd, conn.token, interest, true) {
            Ok(()) => Next::Rest,
            Err(_) => Next::Close,
        }
    }

    fn set_state(&self, conn: &mut Conn, state: ConnState) {
        if conn.state == state {
            return;
        }
        if let Some(m) = &self.metrics {
            m.conn_gauge(conn.state).dec();
            m.conn_gauge(state).inc();
        }
        conn.state = state;
    }
}

/// Parse whole requests off the front of the read buffer, up to
/// [`MAX_BATCH`]. A parse error is reported only when nothing precedes it:
/// requests already parsed are answered first, and the error goes out when
/// the poisoned buffer is parsed again.
fn next_batch(conn: &mut Conn) -> (Vec<Request>, Option<ParseError>) {
    let mut batch: Vec<Request> = Vec::new();
    let mut parse_error = None;
    let mut consumed_total = 0;
    while batch.len() < MAX_BATCH {
        match Request::parse_buf(&conn.read_buf[consumed_total..]) {
            ParseStatus::Complete { req, consumed } => {
                consumed_total += consumed;
                let keep = req.keep_alive();
                batch.push(req);
                if !keep {
                    // Nothing after an explicit close is answerable.
                    consumed_total = conn.read_buf.len();
                    break;
                }
            }
            ParseStatus::Partial => break,
            ParseStatus::Error(e) => {
                if batch.is_empty() {
                    parse_error = Some(e);
                }
                break;
            }
        }
    }
    conn.read_buf.drain(..consumed_total);
    release_excess(&mut conn.read_buf);
    (batch, parse_error)
}

/// Route one batch on the calling thread, serializing each answer straight
/// into the connection's write buffer. Returns the exchange to park when
/// the batch's only request asked for that instead of an answer.
fn route_batch(router: &Router, conn: &mut Conn, batch: Vec<Request>) -> Option<ParkedExchange> {
    let n = batch.len();
    for mut req in batch {
        let keep = req.keep_alive();
        let head_only = req.method == Method::Head;
        // The park protocol is the server's, never the client's.
        req.headers.remove(PARK_FINAL_HEADER);
        req.headers
            .insert(CONN_PARK_HEADER.to_string(), "1".to_string());
        let mut resp = route_on_worker(router, &req);
        if let Some(directive) = resp.park.take() {
            if n == 1 {
                // Sole request of the batch: park the connection.
                return Some(ParkedExchange { req, directive });
            }
            // Pipelined company: resolve immediately (a long-poll
            // sandwiched in a pipeline gets a fast empty poll).
            req.headers
                .insert(PARK_FINAL_HEADER.to_string(), "1".to_string());
            resp = route_on_worker(router, &req);
        }
        resp.serialize_into(&mut conn.write_buf, keep, head_only);
        if !keep {
            conn.close_after_write = true;
            break;
        }
    }
    None
}

enum Fill {
    Bytes,
    /// The socket has nothing more for now.
    Nothing,
    /// End of stream or a dead socket.
    Closed,
}

/// Read whatever the socket holds into the connection's read buffer.
fn fill(conn: &mut Conn) -> Fill {
    let mut chunk = [0u8; READ_CHUNK];
    let before = conn.read_buf.len();
    loop {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => return Fill::Closed,
            Ok(n) => {
                conn.read_buf.extend_from_slice(&chunk[..n]);
                if n < chunk.len() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Fill::Closed,
        }
    }
    if conn.read_buf.len() > before {
        Fill::Bytes
    } else {
        Fill::Nothing
    }
}

enum Flush {
    Done,
    Blocked,
    Failed,
}

/// Write as much of the queued response bytes as the socket takes.
fn flush(conn: &mut Conn) -> Flush {
    while conn.write_pos < conn.write_buf.len() {
        match (&conn.stream).write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return Flush::Failed,
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Flush::Blocked,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Flush::Failed,
        }
    }
    conn.write_buf.clear();
    conn.write_pos = 0;
    release_excess(&mut conn.write_buf);
    Flush::Done
}

/// Best-effort 503 to a connection over the watermark. One optimistic
/// write — the response is ~120 bytes and the socket buffer is empty, so
/// in practice it always lands; a client that still misses it sees ECONNRESET,
/// which it treats the same way (back off and retry).
fn shed(stream: TcpStream, metrics: &Option<Metrics>) {
    let _ = stream.set_nonblocking(true);
    let resp = Response::service_unavailable("connection capacity reached")
        .with_header("Retry-After", "1");
    let mut buf = Vec::new();
    resp.serialize_into(&mut buf, false, false);
    let _ = (&stream).write(&buf);
    if let Some(m) = metrics {
        m.sheds.inc();
    }
}

/// One request's trip through the router, wrapped in the wire-level "http"
/// span (same shape the thread-per-connection server had, so traces and
/// the chaos suite see an identical hop sequence).
fn route_on_worker(router: &Router, req: &Request) -> Response {
    let _scope = req
        .header(crate::router::TRACE_HEADER)
        .and_then(hpcdash_obs::TraceId::from_hex)
        .map(hpcdash_obs::trace::TraceScope::enter);
    let _span = hpcdash_obs::Span::enter("http").attr("path", &req.path);
    router.handle(req)
}
