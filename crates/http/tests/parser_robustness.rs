//! Parser and connection robustness: the incremental request parser must
//! survive anything a network can do to a byte stream — partial reads,
//! CRLFs split across reads, pipelined requests, hostile oversized heads —
//! with bounded memory and a definite answer (parse, wait, or reject),
//! never a hang. The wire tests at the bottom hold the same line at the
//! socket level: oversized input earns 431/413, idle connections are
//! reaped, and the max-connections watermark sheds with 503+Retry-After.

use hpcdash_http::{
    Method, ParseError, ParseStatus, Request, Response, Router, Server, ServerConfig,
};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Serialize a request the way a well-behaved client would.
fn wire_request(method: &str, path: &str, headers: &[(String, String)], body: &[u8]) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\n");
    for (k, v) in headers {
        out.push_str(&format!("{k}: {v}\r\n"));
    }
    if !body.is_empty() {
        out.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    out.push_str("\r\n");
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// A strategy for header names/values that are valid enough to survive the
/// parser (no colons in names, no CR/LF anywhere). The `x-` prefix keeps
/// generated names from ever colliding with `Content-Length`.
fn header_strategy() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec(
        ("[abcdefgh]{1,12}", "[abcXYZ 0123._=]{0,40}")
            .prop_map(|(k, v)| (format!("x-{k}"), v.trim().to_string())),
        0..8,
    )
}

proptest! {
    /// Feeding a valid request in arbitrary chunk sizes must produce
    /// Partial until the last byte, then Complete with identical fields —
    /// split CRLFs and mid-body cuts included.
    #[test]
    fn partial_reads_converge(
        path in "[abcdefgh019/]{0,30}".prop_map(|s| format!("/{s}")),
        headers in header_strategy(),
        body in proptest::collection::vec(any::<u8>(), 0..256),
        cuts in proptest::collection::vec(1usize..64, 0..12),
    ) {
        let wire = wire_request("POST", &path, &headers, &body);
        let mut buf = Vec::new();
        let mut fed = 0usize;
        let mut offsets: Vec<usize> = cuts.iter().scan(0usize, |acc, c| {
            *acc += c; Some(*acc)
        }).filter(|&o| o < wire.len()).collect();
        offsets.push(wire.len());
        for off in offsets {
            // Before the final byte arrives the parser must wait, not err.
            match Request::parse_buf(&buf) {
                ParseStatus::Complete { .. } if fed < wire.len() => {
                    // A shorter prefix can only be complete if the body is
                    // empty and the head closed early — impossible here
                    // because we always send Content-Length for bodies.
                    prop_assert!(buf.len() >= wire.len() - body.len());
                }
                ParseStatus::Error(e) => prop_assert!(false, "spurious error: {e:?}"),
                _ => {}
            }
            buf.extend_from_slice(&wire[fed..off]);
            fed = off;
        }
        match Request::parse_buf(&buf) {
            ParseStatus::Complete { req, consumed } => {
                prop_assert_eq!(consumed, wire.len());
                prop_assert_eq!(req.method, Method::Post);
                prop_assert_eq!(req.body, body);
            }
            other => prop_assert!(false, "expected Complete, got {other:?}"),
        }
    }

    /// Pipelined requests: k requests concatenated parse out one at a time,
    /// each consuming exactly its own bytes.
    #[test]
    fn pipelined_requests_split_cleanly(
        paths in proptest::collection::vec(
            "[abcdefgh019]{1,12}".prop_map(|s| format!("/{s}")),
            1..6,
        ),
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut wire = Vec::new();
        for p in &paths {
            wire.extend_from_slice(&wire_request("GET", p, &[], &[]));
        }
        // A trailing POST with a body, to prove bodies don't bleed.
        wire.extend_from_slice(&wire_request("POST", "/last", &[], &body));

        let mut parsed = Vec::new();
        let mut cursor = 0usize;
        while cursor < wire.len() {
            match Request::parse_buf(&wire[cursor..]) {
                ParseStatus::Complete { req, consumed } => {
                    prop_assert!(consumed > 0);
                    cursor += consumed;
                    parsed.push(req);
                }
                other => prop_assert!(false, "mid-pipeline stall: {other:?}"),
            }
        }
        prop_assert_eq!(cursor, wire.len());
        prop_assert_eq!(parsed.len(), paths.len() + 1);
        for (req, p) in parsed.iter().zip(&paths) {
            prop_assert_eq!(&req.path, p);
        }
        let last = parsed.last().unwrap();
        prop_assert_eq!(&last.path, "/last");
        prop_assert_eq!(&last.body, &body);
    }

    /// Arbitrary garbage never panics and never reports Partial once the
    /// buffer exceeds the head bound — memory stays bounded no matter what
    /// the peer streams at us.
    #[test]
    fn garbage_never_wedges_the_parser(
        junk in proptest::collection::vec(any::<u8>(), 0..1024),
        repeat in 1usize..200,
    ) {
        let mut buf = Vec::new();
        for _ in 0..repeat {
            buf.extend_from_slice(&junk);
            if buf.len() > hpcdash_http::request::MAX_HEAD * 2 {
                break;
            }
        }
        match Request::parse_buf(&buf) {
            ParseStatus::Partial => prop_assert!(
                buf.len() <= hpcdash_http::request::MAX_HEAD,
                "parser must reject once the head bound is crossed ({} bytes buffered)",
                buf.len()
            ),
            ParseStatus::Complete { consumed, .. } => prop_assert!(consumed <= buf.len()),
            ParseStatus::Error(_) => {}
        }
    }
}

#[test]
fn oversized_head_is_rejected_not_buffered() {
    // A header that never ends: the parser must flag it as soon as the
    // bound is crossed, even with no terminating CRLFCRLF in sight.
    let mut wire = b"GET / HTTP/1.1\r\nX-Flood: ".to_vec();
    wire.extend(std::iter::repeat_n(
        b'a',
        hpcdash_http::request::MAX_HEAD + 1,
    ));
    match Request::parse_buf(&wire) {
        ParseStatus::Error(ParseError::HeadersTooLarge(_)) => {}
        other => panic!("expected HeadersTooLarge, got {other:?}"),
    }
}

#[test]
fn oversized_declared_body_is_rejected_upfront() {
    let wire = format!(
        "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        hpcdash_http::request::MAX_BODY + 1
    );
    match Request::parse_buf(wire.as_bytes()) {
        ParseStatus::Error(ParseError::BodyTooLarge(_)) => {}
        other => panic!("expected BodyTooLarge, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Wire-level robustness: the same guarantees over real sockets.
// ---------------------------------------------------------------------------

fn ping_router() -> Arc<Router> {
    let mut router = Router::new();
    router.get("/ping", |_| Response::text("pong"));
    Arc::new(router)
}

fn read_status(stream: &TcpStream) -> u16 {
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn oversized_head_earns_431_over_the_wire() {
    let server = Server::bind("127.0.0.1:0", ping_router(), 2).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /ping HTTP/1.1\r\nX-Flood: ")
        .unwrap();
    let chunk = vec![b'a'; 8 * 1024];
    // Stream until the server gives up on us; it must answer, not buffer.
    let mut status = None;
    for _ in 0..32 {
        if stream.write_all(&chunk).is_err() {
            break;
        }
        stream.set_nonblocking(true).unwrap();
        let mut probe = [0u8; 16];
        match stream.peek(&mut probe) {
            Ok(n) if n > 0 => {
                stream.set_nonblocking(false).unwrap();
                status = Some(read_status(&stream));
                break;
            }
            _ => stream.set_nonblocking(false).unwrap(),
        }
    }
    if status.is_none() {
        // The reply may still be in flight after the last write.
        status = Some(read_status(&stream));
    }
    assert_eq!(status, Some(431));
    server.shutdown();
}

#[test]
fn oversized_declared_body_earns_413_over_the_wire() {
    let server = Server::bind("127.0.0.1:0", ping_router(), 2).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let head = format!(
        "POST /ping HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        hpcdash_http::request::MAX_BODY + 1
    );
    stream.write_all(head.as_bytes()).unwrap();
    assert_eq!(read_status(&stream), 413);
    server.shutdown();
}

#[test]
fn malformed_request_earns_400_over_the_wire() {
    let server = Server::bind("127.0.0.1:0", ping_router(), 2).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
    assert_eq!(read_status(&stream), 400);
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped() {
    let cfg = ServerConfig {
        workers: 2,
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", ping_router(), cfg).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Complete one exchange so the connection is established and idle.
    stream
        .write_all(b"GET /ping HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    assert_eq!(read_status(&stream), 200);
    let mut rest = Vec::new();
    // The server must close the idle connection: read returns 0 (EOF)
    // within the timeout rather than blocking forever.
    stream.read_to_end(&mut rest).unwrap();
    assert_eq!(server.connection_count(), 0);
    server.shutdown();
}

#[test]
fn watermark_sheds_with_503_and_retry_after() {
    let cfg = ServerConfig {
        workers: 2,
        max_connections: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", ping_router(), cfg).unwrap();
    let mut keep = Vec::new();
    for _ in 0..2 {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"GET /ping HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
            .unwrap();
        assert_eq!(read_status(&s), 200);
        keep.push(s);
    }
    // Above the watermark: the next connection is answered 503 and closed.
    let over = TcpStream::connect(server.addr()).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(over.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("503"), "expected shed, got {line:?}");
    let mut saw_retry_after = false;
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h).unwrap() == 0 {
            break;
        }
        if h.to_ascii_lowercase().starts_with("retry-after:") {
            saw_retry_after = true;
        }
        if h.trim().is_empty() {
            break;
        }
    }
    assert!(saw_retry_after, "shed must advertise Retry-After");

    // Admission is one atomic reserve: sixteen connectors at once, with
    // both slots taken, can never push the count over the watermark, and
    // every one of them is told so (or reset) — none is left hanging.
    let start = std::sync::Arc::new(std::sync::Barrier::new(17));
    let connectors: Vec<_> = (0..16)
        .map(|_| {
            let (addr, start) = (server.addr(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                let stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut answer = String::new();
                match BufReader::new(stream).read_to_string(&mut answer) {
                    Ok(_) => {
                        assert!(answer.starts_with("HTTP/1.1 503 "), "got {answer:?}");
                        assert!(answer.to_ascii_lowercase().contains("\r\nretry-after:"));
                    }
                    Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
                }
            })
        })
        .collect();
    start.wait();
    while connectors.iter().any(|c| !c.is_finished()) {
        assert!(server.connection_count() <= 2, "watermark overshot");
    }
    for c in connectors {
        c.join().unwrap();
    }
    assert_eq!(server.connection_count(), 2);
    server.shutdown();
}
