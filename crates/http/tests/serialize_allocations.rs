//! A response head costs no allocation: `Response::serialize_into` writes
//! the status line, every header and `Content-Length` straight into the
//! caller's buffer, so a 304 into a buffer with room allocates nothing.
//!
//! Alone in its file because it installs a counting global allocator; the
//! count is kept per thread, so the harness's own threads do not disturb it.

use hpcdash_http::Response;
use hpcdash_testkit::{counted, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_304_head_serializes_without_allocating() {
    let resp = Response::not_modified("\"9f86d081884c7d65\"")
        .with_header("Cache-Control", "private, max-age=0, must-revalidate")
        .with_header("X-Trace-Id", "00f067aa0ba902b7");
    let mut out = Vec::with_capacity(1024);
    let ((), allocations) = counted(|| resp.serialize_into(&mut out, true, false));
    assert_eq!(
        String::from_utf8(out).unwrap(),
        "HTTP/1.1 304 Not Modified\r\n\
         Cache-Control: private, max-age=0, must-revalidate\r\n\
         ETag: \"9f86d081884c7d65\"\r\n\
         X-Trace-Id: 00f067aa0ba902b7\r\n\
         Content-Length: 0\r\n\
         Connection: keep-alive\r\n\
         \r\n"
    );
    assert_eq!(allocations, 0, "serializing the head allocated");
}

#[test]
fn body_lengths_are_written_in_decimal() {
    for len in [0, 7, 10, 99, 100, 65_536, 1_000_007] {
        let resp = Response::new(200).with_body(vec![b'x'; len]);
        let mut out = Vec::new();
        resp.serialize_into(&mut out, false, true);
        let head = String::from_utf8(out).unwrap();
        assert_eq!(
            head,
            format!("HTTP/1.1 200 OK\r\nContent-Length: {len}\r\nConnection: close\r\n\r\n"),
            "HEAD of a {len}-byte body"
        );
    }
}
