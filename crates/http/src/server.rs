//! The event-driven HTTP server: one kind of thread, one loop, one poller.
//!
//! Replaces the thread-per-connection design (whose concurrent-connection
//! ceiling *was* the worker count) with a readiness loop:
//! [`ServerConfig::workers`] identical threads wait on one shared poller,
//! and the thread that is handed a connection's readiness event runs the
//! request to completion — read, parse, route, serialize, write — before it
//! re-arms the connection (see the `reactor` module's ownership rule). Ten
//! thousand keep-alive dashboard tabs cost ten thousand sockets — not ten
//! thousand threads — and an idle server sleeps in `epoll_wait` at zero CPU.

use crate::conn::{ConnState, Table};
use crate::reactor::{WakeQueue, FIRST_CONN_TOKEN, TOKEN_LISTENER, TOKEN_STOP, TOKEN_WAKES};
use crate::router::Router;
use crate::sys::{Interest, Poller, Waker};
use hpcdash_obs::{Counter, Gauge, Registry};
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Event-loop tuning. The defaults suit tests and the simulated site; a
/// deployment holding 10k+ connections raises `max_connections` and the
/// idle timeout.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Loop threads — every thread the server runs. Each serves one ready
    /// connection at a time, so this is also how many handlers can run (or
    /// block) at once.
    pub workers: usize,
    /// Watermark past which new connections are shed with 503+Retry-After.
    pub max_connections: usize,
    /// Keep-alive connections quiet longer than this are closed.
    pub idle_timeout: Duration,
    /// A connection may not dribble a single request longer than this.
    pub read_timeout: Duration,
    /// A connection may not absorb its response slower than this.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 8,
            max_connections: 16_384,
            idle_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// Connection/shed/lag instruments, built when the router has a registry.
pub(crate) struct Metrics {
    idle: Arc<Gauge>,
    reading: Arc<Gauge>,
    dispatching: Arc<Gauge>,
    writing: Arc<Gauge>,
    parked: Arc<Gauge>,
    pub sheds: Arc<Counter>,
    /// Per loop thread: µs by which the last connection deadline it took
    /// off the timer was late, i.e. how long due work waited for a free
    /// loop thread. Handlers that block every thread show up here.
    pub loop_lag: Vec<Arc<Gauge>>,
}

impl Metrics {
    fn new(reg: &Registry, threads: usize) -> Metrics {
        let state_gauge = |s: &str| reg.gauge("hpcdash_http_connections", &[("state", s)]);
        Metrics {
            idle: state_gauge("idle"),
            reading: state_gauge("reading"),
            dispatching: state_gauge("dispatching"),
            writing: state_gauge("writing"),
            parked: state_gauge("parked"),
            sheds: reg.counter("hpcdash_http_sheds_total", &[]),
            loop_lag: (0..threads)
                .map(|i| {
                    reg.gauge(
                        "hpcdash_http_reactor_loop_lag_us",
                        &[("reactor", &i.to_string())],
                    )
                })
                .collect(),
        }
    }

    pub(crate) fn conn_gauge(&self, state: ConnState) -> &Arc<Gauge> {
        match state {
            ConnState::Idle => &self.idle,
            ConnState::Reading => &self.reading,
            ConnState::Dispatching => &self.dispatching,
            ConnState::Writing => &self.writing,
            ConnState::Parked => &self.parked,
        }
    }
}

/// State shared by every loop thread and the server handle.
pub(crate) struct Shared {
    pub router: Arc<Router>,
    pub cfg: ServerConfig,
    pub shutdown: AtomicBool,
    pub conn_count: AtomicUsize,
    pub next_token: AtomicU64,
    /// The one poller: connections, the listener, the two wakers, and
    /// its timer, set to the nearest connection deadline.
    pub poller: Poller,
    /// The deadline the poller's timer is armed for; the lock also
    /// serializes re-arming it.
    pub timer: Mutex<Option<Instant>>,
    pub listener: TcpListener,
    pub table: Mutex<Table>,
    pub wakes: Arc<WakeQueue>,
    /// Level-triggered and never drained: once `shutdown()` has written to
    /// it, every `wait` on every thread returns at once.
    stop: Waker,
    pub metrics: Option<Metrics>,
}

/// A running HTTP server. Dropping it shuts the event loop down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port) and serve `router`
    /// on `workers` loop threads with default event-loop settings.
    pub fn bind(addr: &str, router: Arc<Router>, workers: usize) -> std::io::Result<Server> {
        Server::bind_with(
            addr,
            router,
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        )
    }

    /// Bind with explicit event-loop tuning.
    pub fn bind_with(
        addr: &str,
        router: Arc<Router>,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let cfg = ServerConfig {
            workers: cfg.workers.max(1),
            max_connections: cfg.max_connections.max(1),
            ..cfg
        };
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let poller = Poller::new()?;
        let (stop, wakes) = (Waker::new()?, Waker::new()?);
        poller.add(stop.fd(), TOKEN_STOP, Interest::Read, false)?;
        poller.add(wakes.fd(), TOKEN_WAKES, Interest::Read, true)?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::Read, true)?;

        let metrics = router.registry().map(|reg| Metrics::new(reg, cfg.workers));
        let shared = Arc::new(Shared {
            router,
            cfg,
            shutdown: AtomicBool::new(false),
            conn_count: AtomicUsize::new(0),
            next_token: AtomicU64::new(FIRST_CONN_TOKEN),
            poller,
            timer: Mutex::new(None),
            listener,
            table: Mutex::new(Table::default()),
            wakes: Arc::new(WakeQueue {
                tokens: Mutex::default(),
                waker: wakes,
            }),
            stop,
            metrics,
        });

        let threads = (0..shared.cfg.workers)
            .map(|ix| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("http-loop-{ix}"))
                    .spawn(move || shared.run(ix))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        Ok(Server {
            addr: local,
            shared,
            threads,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `http://host:port`
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Total threads this server runs: `workers`, whatever the number of
    /// connections. The bench asserts 10k concurrent connections fit under
    /// exactly this number.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Connections currently held by the event loop (any state).
    pub fn connection_count(&self) -> usize {
        self.shared.conn_count.load(Ordering::Acquire)
    }

    /// Stop the loop threads: each finishes the request it is serving,
    /// closes the connections it finds resting, and exits.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.stop.wake();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::request::Method;
    use crate::response::Response;
    use crate::Request;
    use serde_json::json;

    fn test_server() -> Server {
        let mut router = Router::new();
        router.get("/ping", |_| Response::text("pong"));
        router.get("/echo/:word", |req| {
            Response::json(&json!({"word": req.param("word").unwrap()}))
        });
        router.get("/whoami", |req| {
            Response::json(&json!({"user": req.remote_user().unwrap_or("anonymous")}))
        });
        router.post("/submit", |req| {
            Response::json(&json!({"received": req.body.len()}))
        });
        router.get("/boom", |_| panic!("kaboom"));
        Server::bind("127.0.0.1:0", Arc::new(router), 4).unwrap()
    }

    #[test]
    fn end_to_end_get() {
        let server = test_server();
        let client = HttpClient::new();
        let resp = client
            .get(&format!("{}/ping", server.base_url()), &[])
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_string(), "pong");
    }

    #[test]
    fn params_and_headers_flow_through() {
        let server = test_server();
        let client = HttpClient::new();
        let resp = client
            .get(&format!("{}/echo/hello", server.base_url()), &[])
            .unwrap();
        assert_eq!(resp.json().unwrap()["word"], "hello");
        let resp = client
            .get(
                &format!("{}/whoami", server.base_url()),
                &[("X-Remote-User", "alice")],
            )
            .unwrap();
        assert_eq!(resp.json().unwrap()["user"], "alice");
    }

    #[test]
    fn post_body() {
        let server = test_server();
        let client = HttpClient::new();
        let resp = client
            .post(
                &format!("{}/submit", server.base_url()),
                &[],
                b"0123456789".to_vec(),
            )
            .unwrap();
        assert_eq!(resp.json().unwrap()["received"], 10);
    }

    #[test]
    fn not_found_and_panics_over_the_wire() {
        let server = test_server();
        let client = HttpClient::new();
        let resp = client
            .get(&format!("{}/nope", server.base_url()), &[])
            .unwrap();
        assert_eq!(resp.status, 404);
        let resp = client
            .get(&format!("{}/boom", server.base_url()), &[])
            .unwrap();
        assert_eq!(resp.status, 500);
        // Server survives the panic.
        let resp = client
            .get(&format!("{}/ping", server.base_url()), &[])
            .unwrap();
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn many_concurrent_clients() {
        let server = test_server();
        let base = server.base_url();
        let mut handles = Vec::new();
        for i in 0..8 {
            let base = base.clone();
            handles.push(std::thread::spawn(move || {
                let client = HttpClient::new();
                for j in 0..20 {
                    let resp = client.get(&format!("{base}/echo/t{i}x{j}"), &[]).unwrap();
                    assert_eq!(resp.json().unwrap()["word"], format!("t{i}x{j}"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn in_process_dispatch_matches_wire() {
        // Routers can also be exercised without sockets (used heavily by
        // tests to separate routing cost from network cost).
        let mut router = Router::new();
        router.get("/x", |_| Response::text("y"));
        let resp = router.handle(&Request::new(Method::Get, "/x"));
        assert_eq!(resp.body_string(), "y");
    }

    /// One large exchange must not pin its buffers for the life of a
    /// keep-alive connection.
    #[test]
    fn large_exchange_does_not_keep_its_buffers() {
        use crate::conn::MAX_RETAINED;
        use std::io::{Read, Write};
        let mut router = Router::new();
        router.get("/ping", |_| Response::text("pong"));
        router.post("/mirror", |req| {
            Response::new(200).with_body(req.body.clone())
        });
        let server = Server::bind("127.0.0.1:0", Arc::new(router), 2).unwrap();
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();

        // 1 MB in (read buffer), 1 MB out (write buffer), read to the end.
        let body = vec![b'x'; 1 << 20];
        let head = format!(
            "POST /mirror HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(&body).unwrap();
        let mut got = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        while !got.ends_with(&body) {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server hung up");
            got.extend_from_slice(&chunk[..n]);
        }
        stream.write_all(b"GET /ping HTTP/1.1\r\n\r\n").unwrap();
        let n = stream.read(&mut chunk).unwrap();
        assert!(chunk[..n].ends_with(b"pong"));

        // The connection rests idle once the answer is out; look at it there.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let table = server.shared.table.lock();
            if let Some(conn) = table.resting().next() {
                assert_eq!(conn.state, ConnState::Idle);
                assert!(conn.read_buf.capacity() <= MAX_RETAINED, "read buffer kept");
                assert!(
                    conn.write_buf.capacity() <= MAX_RETAINED,
                    "write buffer kept"
                );
                break;
            }
            drop(table);
            assert!(
                std::time::Instant::now() < deadline,
                "connection never rested"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn thread_count_is_workers_clamped_to_one() {
        let bind = |workers| {
            let mut router = Router::new();
            router.get("/ping", |_| Response::text("pong"));
            Server::bind("127.0.0.1:0", Arc::new(router), workers).unwrap()
        };
        assert_eq!(bind(3).thread_count(), 3);
        // A lone loop thread accepts, serves and sweeps by itself.
        let server = bind(0);
        assert_eq!(server.thread_count(), 1);
        let resp = HttpClient::new()
            .get(&format!("{}/ping", server.base_url()), &[])
            .unwrap();
        assert_eq!(resp.body_string(), "pong");
    }
}
