//! The event loop's connection state machine under real concurrency: several
//! loop threads on one poller, each owning a connection from the readiness
//! report until it re-arms it. Interleavings are forced with channels and
//! barriers; a sleep only ever lets something *not* happen.

use hpcdash_http::{
    ConnState, ParkBudget, ParkDirective, ParkWaker, Response, Router, Server, ServerConfig,
    CONN_PARK_HEADER, PARK_FINAL_HEADER,
};
use hpcdash_obs::Registry;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

const LONG: Duration = Duration::from_secs(10);

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(LONG)).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

fn send(stream: &mut TcpStream, path: &str) {
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
}

/// One response off a keep-alive stream: (status, body).
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, Vec<u8>) {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let status = line
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("no status line, got {line:?}"))
        .parse()
        .unwrap();
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).unwrap();
        if h.trim_end().is_empty() {
            break;
        }
        if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, body)
}

fn get(stream: &mut TcpStream, path: &str) -> (u16, Vec<u8>) {
    send(stream, path);
    read_response(&mut BufReader::new(stream.try_clone().unwrap()))
}

/// Poll `cond` until it holds; panics with `what` after [`LONG`].
fn eventually(what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < LONG, "never happened: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A handler that reports it is running and then stays inside until told to
/// leave: `(entered, release)`.
fn gate(router: &mut Router, path: &str) -> (Receiver<()>, Sender<()>) {
    let (entered_tx, entered_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    let (entered_tx, release_rx) = (Mutex::new(entered_tx), Mutex::new(release_rx));
    router.get(path, move |_| {
        entered_tx.lock().unwrap().send(()).unwrap();
        let _ = release_rx.lock().unwrap().recv_timeout(LONG);
        Response::text("slow done")
    });
    (entered_rx, release_tx)
}

fn bind(router: Router, workers: usize) -> Server {
    let cfg = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    Server::bind_with("127.0.0.1:0", Arc::new(router), cfg).unwrap()
}

/// (a) A handler that blocks occupies one loop thread and nothing else.
#[test]
fn a_blocked_handler_does_not_stall_other_connections() {
    let mut router = Router::new();
    router.get("/ping", |_| Response::text("pong"));
    let (entered, release) = gate(&mut router, "/slow");
    let server = bind(router, 2);

    // Eight established keep-alive connections, resting idle.
    let mut others: Vec<TcpStream> = (0..8).map(|_| connect(&server)).collect();
    for stream in &mut others {
        assert_eq!(get(stream, "/ping").1, b"pong");
    }
    let mut slow = connect(&server);
    send(&mut slow, "/slow");
    entered.recv_timeout(LONG).expect("slow handler running");

    // One of the two threads is inside the handler; every other connection
    // is served, promptly, by the one that is left.
    for stream in &mut others {
        let t0 = Instant::now();
        assert_eq!(get(stream, "/ping").1, b"pong");
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(100), "ping took {took:?}");
    }
    release.send(()).unwrap();
    let (status, body) = read_response(&mut BufReader::new(slow));
    assert_eq!((status, body.as_slice()), (200, &b"slow done"[..]));
}

/// A deadline that falls due while the only loop thread is inside a
/// handler waits for it, and that wait is the thread's loop lag; the quick
/// wake-ups after it do not hide it.
#[test]
fn a_blocked_loop_thread_shows_its_lag() {
    const IDLE: Duration = Duration::from_millis(100);
    let registry = Arc::new(Registry::new());
    let mut router = Router::new();
    router.set_registry(registry.clone());
    router.get("/ping", |_| Response::text("pong"));
    let (entered, release) = gate(&mut router, "/slow");
    let cfg = ServerConfig {
        workers: 1,
        idle_timeout: IDLE,
        ..ServerConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", Arc::new(router), cfg).unwrap();
    let lag = registry.gauge("hpcdash_http_reactor_loop_lag_us", &[("reactor", "0")]);

    // A resting connection whose idle deadline is armed on the timer.
    let mut idle = connect(&server);
    assert_eq!(get(&mut idle, "/ping").1, b"pong");
    // The one loop thread blocks; the deadline passes while it is inside.
    // `Connection: close` files no new deadline after the answer.
    let mut slow = connect(&server);
    write!(
        slow,
        "GET /slow HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    entered.recv_timeout(LONG).expect("slow handler running");
    std::thread::sleep(3 * IDLE);
    release.send(()).unwrap();
    assert_eq!(read_response(&mut BufReader::new(slow)).0, 200);

    // Free again, the thread takes the overdue deadline and reaps the idle
    // connection: it came at least two idle periods late. The quick
    // wake-ups that follow must not hide that.
    assert_eq!(
        idle.read(&mut [0u8; 1]).unwrap(),
        0,
        "idle connection reaped"
    );
    std::thread::sleep(IDLE);
    assert!(
        lag.get() >= (2 * IDLE).as_micros() as i64,
        "lag {} µs",
        lag.get()
    );
}

/// (b) Exactly `workers` handlers run at once: a rendezvous of four opens on
/// four threads, and eight concurrent requests never see a fifth inside.
#[test]
fn handler_concurrency_equals_workers() {
    const WORKERS: usize = 4;
    let inside = Arc::new((Mutex::new((0usize, 0usize)), Condvar::new())); // (now, peak)
    let mut router = Router::new();
    let rendezvous = inside.clone();
    router.get("/meet", move |_| {
        let (lock, cv) = &*rendezvous;
        let mut st = lock.lock().unwrap();
        st.0 += 1;
        st.1 = st.1.max(st.0);
        cv.notify_all();
        // All four must be in flight at once for anyone to leave.
        let (mut st, timeout) = cv
            .wait_timeout_while(st, LONG, |st| st.1 < WORKERS)
            .unwrap();
        st.0 -= 1;
        if timeout.timed_out() {
            return Response::internal_error("the others never arrived");
        }
        Response::text("met")
    });
    let server = bind(router, WORKERS);
    let clients: Vec<_> = (0..2 * WORKERS)
        .map(|_| {
            let mut stream = connect(&server);
            std::thread::spawn(move || get(&mut stream, "/meet").0)
        })
        .collect();
    for c in clients {
        assert_eq!(c.join().unwrap(), 200);
    }
    assert_eq!(
        inside.0.lock().unwrap().1,
        WORKERS,
        "peak handlers in flight"
    );
    assert_eq!(server.thread_count(), WORKERS);
}

/// (c) A response the socket will not take in one go is parked in `Writing`
/// under `Interest::Write`, arrives byte-exact, and holds nobody up.
#[test]
fn large_response_to_a_slow_reader_goes_through_writing() {
    const LEN: usize = 4 * 1024 * 1024;
    let body: Arc<Vec<u8>> = Arc::new((0..LEN).map(|i| (i * 31 % 251) as u8).collect());
    let registry = Arc::new(Registry::new());
    let mut router = Router::new();
    router.set_registry(registry.clone());
    router.get("/ping", |_| Response::text("pong"));
    let big = body.clone();
    router.get("/big", move |_| {
        Response::new(200).with_body((*big).clone())
    });
    let server = bind(router, 2);
    let writing = registry.gauge(
        "hpcdash_http_connections",
        &[("state", ConnState::Writing.label())],
    );

    let mut slow = connect(&server);
    send(&mut slow, "/big");
    // Not reading: the kernel's buffers fill and the write blocks.
    eventually("response parked in Writing", || writing.get() == 1);
    // No thread is held by it: two workers, two more connections served.
    for _ in 0..2 {
        assert_eq!(get(&mut connect(&server), "/ping").1, b"pong");
    }
    assert_eq!(writing.get(), 1, "still waiting for the reader");

    let (status, got) = read_response(&mut BufReader::new(slow.try_clone().unwrap()));
    assert_eq!(status, 200);
    assert!(got == *body, "4 MB arrived byte-exact");
    eventually("back to idle", || writing.get() == 0);
    // The connection survived it.
    assert_eq!(get(&mut slow, "/ping").1, b"pong");
}

/// A long-poll route speaking the park protocol, with the test holding the
/// other end of every waker.
struct Polls {
    budget: Arc<ParkBudget>,
    wakers: Mutex<HashMap<String, Arc<ParkWaker>>>,
    finals: Mutex<HashMap<String, usize>>,
}

impl Polls {
    fn install(router: &mut Router, max_wait: Duration) -> Arc<Polls> {
        let polls = Arc::new(Polls {
            budget: Arc::new(ParkBudget::new(64)),
            wakers: Mutex::new(HashMap::new()),
            finals: Mutex::new(HashMap::new()),
        });
        let p = polls.clone();
        router.get("/poll/:id", move |req| {
            let id = req.param("id").unwrap().to_string();
            if req.header(PARK_FINAL_HEADER).is_some() {
                *p.finals.lock().unwrap().entry(id.clone()).or_default() += 1;
                return Response::text(format!("final {id}"));
            }
            assert!(
                req.header(CONN_PARK_HEADER).is_some(),
                "event-loop dispatch"
            );
            let permit = p.budget.try_acquire().expect("budget");
            let waker = ParkWaker::new();
            p.wakers.lock().unwrap().insert(id, waker.clone());
            Response::text("parked").with_park(ParkDirective {
                waker,
                max_wait,
                permit: Some(Arc::new(permit)),
            })
        });
        polls
    }

    /// Block until poll `id` is parked, and return its waker.
    fn parked(&self, id: &str) -> Arc<ParkWaker> {
        eventually("poll parked", || {
            self.wakers.lock().unwrap().contains_key(id)
        });
        self.wakers.lock().unwrap()[id].clone()
    }

    fn finals(&self, id: &str) -> usize {
        self.finals.lock().unwrap().get(id).copied().unwrap_or(0)
    }
}

fn poll_server(max_wait: Duration) -> (Server, Arc<Polls>) {
    let mut router = Router::new();
    router.get("/ping", |_| Response::text("pong"));
    let polls = Polls::install(&mut router, max_wait);
    (bind(router, 3), polls)
}

/// (d) A parked long-poll is resolved exactly once, whoever comes for it.
#[test]
fn parked_poll_resolves_once_on_wake_and_on_deadline() {
    // Hub wake, long before the deadline.
    let (server, polls) = poll_server(LONG);
    let mut stream = connect(&server);
    send(&mut stream, "/poll/woken");
    let waker = polls.parked("woken");
    eventually("permit held", || polls.budget.parked() == 1);
    waker.wake();
    waker.wake(); // a second publish is not a second answer
    assert_eq!(
        read_response(&mut BufReader::new(stream.try_clone().unwrap())).1,
        b"final woken"
    );
    assert_eq!(polls.finals("woken"), 1);
    eventually("permit returned", || polls.budget.parked() == 0);
    // Keep-alive survives a park.
    assert_eq!(get(&mut stream, "/ping").1, b"pong");
    drop(server);

    // Deadline: nobody wakes it, the sweeper answers the empty poll.
    let (server, polls) = poll_server(Duration::from_millis(60));
    let mut stream = connect(&server);
    let t0 = Instant::now();
    send(&mut stream, "/poll/lapsed");
    assert_eq!(
        read_response(&mut BufReader::new(stream.try_clone().unwrap())).1,
        b"final lapsed"
    );
    assert!(
        t0.elapsed() >= Duration::from_millis(55),
        "not before its wait"
    );
    assert_eq!(polls.finals("lapsed"), 1);
    eventually("permit returned", || polls.budget.parked() == 0);
    // A late wake finds a resolved exchange and changes nothing.
    polls.parked("lapsed").wake();
    assert_eq!(get(&mut stream, "/ping").1, b"pong");
    assert_eq!(polls.finals("lapsed"), 1);
}

#[test]
fn parked_poll_notices_hangup_and_buffers_pipelined_bytes() {
    let (server, polls) = poll_server(LONG);

    // Client hang-up: the park slot is free at once, not at the deadline,
    // and nothing is routed for a connection that is gone.
    let mut stream = connect(&server);
    send(&mut stream, "/poll/gone");
    let waker = polls.parked("gone");
    eventually("permit held", || polls.budget.parked() == 1);
    drop(stream);
    eventually("permit returned on hang-up", || polls.budget.parked() == 0);
    eventually("connection closed", || server.connection_count() == 0);
    waker.wake(); // a stale wake finds no connection
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(polls.finals("gone"), 0);

    // Pipelined bytes while parked are buffered, and answered in order
    // after the poll.
    let mut stream = connect(&server);
    send(&mut stream, "/poll/piped");
    let waker = polls.parked("piped");
    send(&mut stream, "/ping");
    std::thread::sleep(Duration::from_millis(20)); // let the loop read them
    assert_eq!(polls.finals("piped"), 0, "bytes are not a wake");
    waker.wake();
    let mut reader = BufReader::new(stream);
    assert_eq!(read_response(&mut reader).1, b"final piped");
    assert_eq!(read_response(&mut reader).1, b"pong");
    assert_eq!(polls.finals("piped"), 1);
    eventually("permit returned", || polls.budget.parked() == 0);
}

#[test]
fn wake_racing_hangup_resolves_at_most_once_and_leaks_nothing() {
    let (server, polls) = poll_server(LONG);
    for round in 0..40 {
        let id = format!("race{round}");
        let mut stream = connect(&server);
        send(&mut stream, &format!("/poll/{id}"));
        let waker = polls.parked(&id);
        eventually("permit held", || polls.budget.parked() == 1);
        // Wake and hang-up start together; either may reach the loop first.
        let start = Arc::new(Barrier::new(2));
        let racer = {
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                waker.wake();
            })
        };
        start.wait();
        drop(stream);
        racer.join().unwrap();
        eventually("permit returned", || polls.budget.parked() == 0);
        eventually("connection closed", || server.connection_count() == 0);
        assert!(polls.finals(&id) <= 1, "resolved twice");
    }
    // The server is none the worse for it.
    assert_eq!(get(&mut connect(&server), "/ping").1, b"pong");
}

/// (e) Many connections, keep-alive and pipelined, over few threads: every
/// response matches its request, in order, and nothing is left behind.
#[test]
fn stress_every_response_matches_its_request() {
    const THREADS: usize = 8;
    const CONNS: usize = 8;
    const REQUESTS: usize = 200;
    let registry = Arc::new(Registry::new());
    let mut router = Router::new();
    router.set_registry(registry.clone());
    router.get("/echo/:word", |req| {
        Response::text(req.param("word").unwrap().to_string())
    });
    let server = bind(router, 4);
    let addr = server.addr();

    let clients: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut conns: Vec<(TcpStream, BufReader<TcpStream>)> = (0..CONNS)
                    .map(|_| {
                        let s = TcpStream::connect(addr).unwrap();
                        s.set_read_timeout(Some(LONG)).unwrap();
                        (s.try_clone().unwrap(), BufReader::new(s))
                    })
                    .collect();
                let mut sent = 0;
                while sent < REQUESTS {
                    // Alternate single requests with pipelined bursts of 5.
                    let burst = if sent % 2 == 0 {
                        1
                    } else {
                        5.min(REQUESTS - sent)
                    };
                    for (c, (w, _)) in conns.iter_mut().enumerate() {
                        let mut wire = String::new();
                        for i in sent..sent + burst {
                            wire.push_str(&format!(
                                "GET /echo/t{t}c{c}r{i} HTTP/1.1\r\nHost: x\r\n\r\n"
                            ));
                        }
                        w.write_all(wire.as_bytes()).unwrap();
                    }
                    for (c, (_, r)) in conns.iter_mut().enumerate() {
                        for i in sent..sent + burst {
                            let (status, body) = read_response(r);
                            assert_eq!(status, 200);
                            assert_eq!(body, format!("t{t}c{c}r{i}").into_bytes());
                        }
                    }
                    sent += burst;
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    eventually("every connection closed", || server.connection_count() == 0);
    let states = [
        ConnState::Idle,
        ConnState::Reading,
        ConnState::Dispatching,
        ConnState::Writing,
        ConnState::Parked,
    ];
    let in_state = |s: ConnState| {
        registry
            .gauge("hpcdash_http_connections", &[("state", s.label())])
            .get()
    };
    for s in states {
        assert_eq!(in_state(s), 0, "{} gauge", s.label());
    }
}

/// (f) Shutdown does not wait for idle or parked connections, only for the
/// handler that is running — and that one still gets its answer out.
#[test]
fn shutdown_joins_once_the_running_handler_returns() {
    let mut router = Router::new();
    router.get("/ping", |_| Response::text("pong"));
    let (entered, release) = gate(&mut router, "/slow");
    let polls = Polls::install(&mut router, LONG);
    let server = bind(router, 3);

    let mut idle = connect(&server);
    assert_eq!(get(&mut idle, "/ping").1, b"pong");
    let mut parked = connect(&server);
    send(&mut parked, "/poll/held");
    polls.parked("held");
    let mut busy = connect(&server);
    send(&mut busy, "/slow");
    entered.recv_timeout(LONG).expect("slow handler running");

    server.shutdown();
    // The idle and parked connections are closed by the threads that exit.
    eventually("resting connections closed", || {
        server.connection_count() == 1
    });
    assert_eq!(
        polls.budget.parked(),
        0,
        "parked exchange dropped its permit"
    );
    let mut rest = Vec::new();
    assert_eq!(
        idle.read_to_end(&mut rest).unwrap_or(0),
        0,
        "idle conn: EOF"
    );

    release.send(()).unwrap();
    let t0 = Instant::now();
    let answer = read_response(&mut BufReader::new(busy));
    drop(server); // joins every loop thread
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "join took {:?}",
        t0.elapsed()
    );
    assert_eq!(answer.1, b"slow done");
}

/// (g) Idle keep-alive connections rest in the poller, not on threads:
/// holding a few hundred of them leaves the process's thread count where it
/// was. A thread count only means something with no sibling test running,
/// so under a parallel harness the test reruns itself alone in a child.
#[test]
fn idle_keep_alive_connections_cost_no_threads() {
    const NAME: &str = "idle_keep_alive_connections_cost_no_threads";
    if !std::env::args().any(|a| a == "--test-threads=1") {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([NAME, "--exact", "--test-threads=1"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }
    // Both ends live in this process: two fds per connection, well inside
    // the common 1024 soft limit.
    const CONNS: usize = 256;
    let mut router = Router::new();
    router.get("/ping", |_| Response::text("pong"));
    let server = bind(router, 4);
    let threads = || std::fs::read_dir("/proc/self/task").unwrap().count();
    let baseline = threads();

    let mut conns: Vec<TcpStream> = (0..CONNS)
        .map(|_| {
            let mut stream = connect(&server);
            assert_eq!(get(&mut stream, "/ping").1, b"pong");
            stream
        })
        .collect();
    assert_eq!(server.connection_count(), CONNS);
    assert_eq!(
        threads(),
        baseline,
        "{CONNS} idle connections added threads"
    );
    // The resting connections are still live.
    for stream in conns.iter_mut().step_by(32) {
        assert_eq!(get(stream, "/ping").1, b"pong");
    }
    assert_eq!(threads(), baseline);
}
