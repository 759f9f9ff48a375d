//! The load generator's HTTP/1.1 client: a raw keep-alive `TcpStream`, a
//! response reader framed by `Content-Length`, and per-consumer browser
//! state (ETags and the live-updates cursor).
//!
//! It is deliberately lean — no JSON parse, no header map — so the CPU it
//! adds to `cpu_ms_per_req` is small and the same on every commit.

use std::collections::HashMap;
use std::io::{self, Read, Write};

/// One response as framed on the wire. Offsets index the reader's buffer
/// and stay valid until the next `read_response`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framed {
    pub status: u16,
    /// `Content-Length` as declared (a response without one is refused).
    pub content_length: usize,
    pub etag: Option<String>,
    head_len: usize,
}

impl Framed {
    /// Head plus body: what this response cost on the wire.
    pub fn wire_bytes(&self) -> usize {
        self.head_len + self.content_length
    }
}

/// Reads `Content-Length`-framed responses from any byte stream, across
/// split reads and with several responses in one buffer.
pub struct ResponseReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Bytes of `buf` that hold data.
    len: usize,
    /// Bytes at the front that belong to the response already returned.
    consumed: usize,
}

impl<R: Read> ResponseReader<R> {
    pub fn new(inner: R) -> ResponseReader<R> {
        ResponseReader {
            inner,
            buf: vec![0; 64 * 1024],
            len: 0,
            consumed: 0,
        }
    }

    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Bytes buffered beyond the response last returned. In a closed loop
    /// without pipelining anything here was sent beyond `Content-Length`.
    pub fn surplus(&self) -> usize {
        self.len - self.consumed
    }

    /// Body of the response last returned.
    pub fn body(&self, framed: &Framed) -> &[u8] {
        &self.buf[framed.head_len..framed.head_len + framed.content_length]
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.len == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = self.inner.read(&mut self.buf[self.len..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.len += n;
        Ok(())
    }

    pub fn read_response(&mut self) -> io::Result<Framed> {
        // Drop the previous response; what follows it starts the next one.
        self.buf.copy_within(self.consumed..self.len, 0);
        self.len -= self.consumed;
        self.consumed = 0;
        let head_len = loop {
            if let Some(end) = find_head_end(&self.buf[..self.len]) {
                break end;
            }
            self.fill()?;
        };
        let mut framed = parse_head(&self.buf[..head_len])?;
        framed.head_len = head_len;
        while self.len < head_len + framed.content_length {
            self.fill()?;
        }
        self.consumed = head_len + framed.content_length;
        Ok(framed)
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn parse_head(head: &[u8]) -> io::Result<Framed> {
    let text = std::str::from_utf8(head).map_err(|_| bad("head is not utf-8"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|l| l.get(..3))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut content_length = None;
    let mut etag = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().ok();
        } else if name.eq_ignore_ascii_case("etag") {
            etag = Some(value.trim().to_string());
        }
    }
    Ok(Framed {
        status,
        content_length: content_length.ok_or_else(|| bad("no Content-Length"))?,
        etag,
        head_len: 0,
    })
}

/// One keep-alive connection to the server under test.
pub struct Conn {
    reader: ResponseReader<std::net::TcpStream>,
    out: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: std::net::SocketAddr) -> io::Result<Conn> {
        let stream = std::net::TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A stuck server fails the run instead of hanging it.
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        Ok(Conn {
            reader: ResponseReader::new(stream),
            out: Vec::with_capacity(512),
        })
    }

    /// Send one GET and read its response.
    pub fn get(
        &mut self,
        path: &str,
        auth: &str,
        if_none_match: Option<&str>,
    ) -> io::Result<Framed> {
        render_request(&mut self.out, path, auth, if_none_match);
        self.reader.get_mut().write_all(&self.out)?;
        self.reader.read_response()
    }

    pub fn body(&self, framed: &Framed) -> &[u8] {
        self.reader.body(framed)
    }

    /// The exact bytes of the request last sent; the output check replays
    /// them through `Dashboard::handle`.
    pub fn last_request(&self) -> &[u8] {
        &self.out
    }

    pub fn surplus(&self) -> usize {
        self.reader.surplus()
    }
}

/// The request bytes the generator sends: the same bytes are parsed with
/// `Request::parse_buf` in the traced replay. No `X-Trace-Id` on purpose.
pub fn render_request(out: &mut Vec<u8>, path: &str, auth: &str, if_none_match: Option<&str>) {
    out.clear();
    out.extend_from_slice(b"GET ");
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\n");
    out.extend_from_slice(auth.as_bytes());
    if let Some(tag) = if_none_match {
        out.extend_from_slice(b"If-None-Match: ");
        out.extend_from_slice(tag.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// What one consumer's browser tab remembers between requests.
#[derive(Debug, Clone, Default)]
pub struct Browser {
    /// path -> last ETag seen, sent back as `If-None-Match`.
    pub etags: HashMap<String, String>,
    /// `latest_seq` of the last `/api/updates` reply.
    pub cursor: u64,
}

/// `latest_seq` out of an `/api/updates` body without a JSON parse.
pub fn latest_seq(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"latest_seq\":";
    let at = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits: Vec<u8> = body[at..]
        .iter()
        .skip_while(|b| **b == b' ')
        .take_while(|b| b.is_ascii_digit())
        .copied()
        .collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out its bytes in fixed-size pieces, like a slow socket.
    struct Chunked {
        data: Vec<u8>,
        at: usize,
        step: usize,
    }

    impl Read for Chunked {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(self.data.len() - self.at).min(out.len());
            out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    fn reader(data: &[u8], step: usize) -> ResponseReader<Chunked> {
        ResponseReader::new(Chunked {
            data: data.to_vec(),
            at: 0,
            step,
        })
    }

    const OK: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nETag: \"abc\"\r\nContent-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"a\": true}";
    const NOT_MODIFIED: &[u8] =
        b"HTTP/1.1 304 Not Modified\r\nETag: \"abc\"\r\nContent-Length: 0\r\n\r\n";

    #[test]
    fn reads_across_split_reads() {
        for step in [1, 3, 7, 4096] {
            let mut r = reader(OK, step);
            let f = r.read_response().unwrap();
            assert_eq!(f.status, 200);
            assert_eq!(f.etag.as_deref(), Some("\"abc\""));
            assert_eq!(r.body(&f), b"{\"a\": true}");
            assert_eq!(f.wire_bytes(), OK.len());
            assert_eq!(r.surplus(), 0);
        }
    }

    #[test]
    fn bodiless_304() {
        let mut r = reader(NOT_MODIFIED, 5);
        let f = r.read_response().unwrap();
        assert_eq!((f.status, f.content_length), (304, 0));
        assert!(r.body(&f).is_empty());
    }

    #[test]
    fn two_pipelined_responses_in_one_buffer() {
        let mut both = OK.to_vec();
        both.extend_from_slice(NOT_MODIFIED);
        let mut r = reader(&both, both.len());
        let first = r.read_response().unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(r.surplus(), NOT_MODIFIED.len());
        let second = r.read_response().unwrap();
        assert_eq!(second.status, 304);
        assert_eq!(r.surplus(), 0);
        assert!(r.read_response().is_err(), "stream is drained");
    }

    #[test]
    fn missing_content_length_is_refused() {
        let mut r = reader(b"HTTP/1.1 200 OK\r\n\r\n", 64);
        assert!(r.read_response().is_err());
    }

    #[test]
    fn request_bytes_and_cursor() {
        let mut out = Vec::new();
        render_request(&mut out, "/api/x", "X-Remote-User: u\r\n", Some("\"t\""));
        assert_eq!(
            out,
            b"GET /api/x HTTP/1.1\r\nHost: bench\r\nX-Remote-User: u\r\nIf-None-Match: \"t\"\r\n\r\n"
        );
        assert_eq!(
            latest_seq(b"{\"events\":[],\"latest_seq\": 412,\"x\":1}"),
            Some(412)
        );
        assert_eq!(latest_seq(b"{}"), None);
    }
}
