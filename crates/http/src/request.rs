//! HTTP request parsing.

use std::collections::BTreeMap;

/// Request methods the dashboard uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    Get,
    Post,
    Put,
    Delete,
    Head,
    Options,
}

impl Method {
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            "HEAD" => Some(Method::Head),
            "OPTIONS" => Some(Method::Options),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Head => "HEAD",
            Method::Options => "OPTIONS",
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: Method,
    /// Path without the query string, e.g. `/api/myjobs`.
    pub path: String,
    pub query: BTreeMap<String, String>,
    /// Header names lower-cased.
    pub headers: BTreeMap<String, String>,
    pub body: Vec<u8>,
    /// Path parameters captured by the router (`:name` segments).
    pub params: BTreeMap<String, String>,
}

/// Errors from request parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    Malformed(String),
    BodyTooLarge(usize),
    /// Request line + headers exceed [`MAX_HEAD`] — answered with 431 so a
    /// peer streaming an unbounded header can never grow our buffers.
    HeadersTooLarge(usize),
}

/// Largest accepted body (the dashboard only posts small forms).
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// Largest accepted request head (request line + headers). Anything the
/// dashboard or its API clients send fits in a fraction of this.
pub const MAX_HEAD: usize = 64 * 1024;

/// Result of [`Request::parse_buf`]: incremental parsing over whatever
/// bytes have arrived so far on a non-blocking connection.
#[derive(Debug)]
pub enum ParseStatus {
    /// One full request parsed; `consumed` bytes belong to it (any
    /// remainder is the start of the next pipelined request).
    Complete { req: Request, consumed: usize },
    /// Not enough bytes yet — keep the buffer, wait for more.
    Partial,
    /// Protocol violation; the connection must answer an error and close.
    Error(ParseError),
}

impl Request {
    /// Construct a request directly (tests and in-process dispatch).
    pub fn new(method: Method, path_and_query: &str) -> Request {
        let (path, query) = split_query(path_and_query);
        Request {
            method,
            path,
            query,
            headers: BTreeMap::new(),
            body: Vec::new(),
            params: BTreeMap::new(),
        }
    }

    pub fn with_header(mut self, name: &str, value: &str) -> Request {
        self.headers
            .insert(name.to_ascii_lowercase(), value.to_string());
        self
    }

    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// The authenticated user, from the reverse proxy's `X-Remote-User`
    /// header (how Open OnDemand passes identity to the dashboard).
    pub fn remote_user(&self) -> Option<&str> {
        self.header("x-remote-user")
    }

    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }

    pub fn param(&self, name: &str) -> Option<&str> {
        self.params.get(name).map(String::as_str)
    }

    /// Parse one request out of an in-memory byte buffer, without consuming
    /// it — the event loop's entry point. This never blocks: a half-arrived request is [`ParseStatus::Partial`]
    /// and the caller retries when more bytes land. Bounded by construction:
    /// a head larger than [`MAX_HEAD`] or a declared body over [`MAX_BODY`]
    /// is an error, so a hostile peer cannot grow our buffers or wedge the
    /// parser.
    pub fn parse_buf(buf: &[u8]) -> ParseStatus {
        let head_end = match find_head_end(buf) {
            Some(end) if end <= MAX_HEAD => end,
            Some(end) => return ParseStatus::Error(ParseError::HeadersTooLarge(end)),
            None if buf.len() > MAX_HEAD => {
                return ParseStatus::Error(ParseError::HeadersTooLarge(buf.len()))
            }
            None => return ParseStatus::Partial,
        };
        let head = match std::str::from_utf8(&buf[..head_end]) {
            Ok(s) => s,
            Err(_) => {
                return ParseStatus::Error(ParseError::Malformed("head is not utf-8".to_string()))
            }
        };
        let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let method = match parts.next().and_then(Method::parse) {
            Some(m) => m,
            None => {
                return ParseStatus::Error(ParseError::Malformed(format!(
                    "bad request line: {request_line:?}"
                )))
            }
        };
        let target = match parts.next() {
            Some(t) => t,
            None => {
                return ParseStatus::Error(ParseError::Malformed(
                    "missing request target".to_string(),
                ))
            }
        };
        let version = parts.next().unwrap_or("HTTP/1.1");
        if !version.starts_with("HTTP/1.") {
            return ParseStatus::Error(ParseError::Malformed(format!(
                "unsupported version {version:?}"
            )));
        }
        let mut headers = BTreeMap::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = match line.split_once(':') {
                Some(kv) => kv,
                None => {
                    return ParseStatus::Error(ParseError::Malformed(format!(
                        "bad header: {line:?}"
                    )))
                }
            };
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }

        let content_length: usize = headers
            .get("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        if content_length > MAX_BODY {
            return ParseStatus::Error(ParseError::BodyTooLarge(content_length));
        }
        let total = head_end + content_length;
        if buf.len() < total {
            return ParseStatus::Partial;
        }
        let body = buf[head_end..total].to_vec();
        let (path, query) = split_query(target);
        ParseStatus::Complete {
            req: Request {
                method,
                path,
                query,
                headers,
                body,
                params: BTreeMap::new(),
            },
            consumed: total,
        }
    }

    /// Does the peer want the connection kept open after this exchange?
    pub fn keep_alive(&self) -> bool {
        !matches!(
            self.header("connection").map(str::to_ascii_lowercase),
            Some(v) if v == "close"
        )
    }
}

/// Index one past the blank line terminating the head, accepting both
/// `\r\n\r\n` and bare `\n\n` (mirrors the lenient line-based reader).
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        match buf[i] {
            b'\n' => {
                if buf.get(i + 1) == Some(&b'\n') {
                    return Some(i + 2);
                }
                if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                    return Some(i + 3);
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    None
}

fn split_query(target: &str) -> (String, BTreeMap<String, String>) {
    match target.split_once('?') {
        None => (target.to_string(), BTreeMap::new()),
        Some((path, qs)) => {
            let mut query = BTreeMap::new();
            for pair in qs.split('&') {
                if pair.is_empty() {
                    continue;
                }
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                query.insert(urldecode(k), urldecode(v));
            }
            (path.to_string(), query)
        }
    }
}

/// Percent-decoding (plus `+` for spaces), enough for the dashboard's query
/// strings.
pub(crate) fn urldecode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                if i + 2 < bytes.len() {
                    let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or("!");
                    if let Ok(b) = u8::from_str_radix(hex, 16) {
                        out.push(b);
                        i += 3;
                        continue;
                    }
                }
                out.push(b'%');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    impl Request {
        /// Parse one request from a buffered stream; `None` when the
        /// stream ends before a request line.
        fn read_from(reader: &mut impl BufRead) -> Result<Option<Request>, ParseError> {
            let mut line = String::new();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| ParseError::Malformed(e.to_string()))?;
            if n == 0 {
                return Ok(None);
            }
            let mut parts = line.split_whitespace();
            let method = parts
                .next()
                .and_then(Method::parse)
                .ok_or_else(|| ParseError::Malformed(format!("bad request line: {line:?}")))?;
            let target = parts
                .next()
                .ok_or_else(|| ParseError::Malformed("missing request target".to_string()))?;
            let version = parts.next().unwrap_or("HTTP/1.1");
            if !version.starts_with("HTTP/1.") {
                return Err(ParseError::Malformed(format!(
                    "unsupported version {version:?}"
                )));
            }

            let mut headers = BTreeMap::new();
            loop {
                let mut hline = String::new();
                let n = reader
                    .read_line(&mut hline)
                    .map_err(|e| ParseError::Malformed(e.to_string()))?;
                if n == 0 {
                    return Err(ParseError::Malformed("eof in headers".to_string()));
                }
                let trimmed = hline.trim_end_matches(['\r', '\n']);
                if trimmed.is_empty() {
                    break;
                }
                let (name, value) = trimmed
                    .split_once(':')
                    .ok_or_else(|| ParseError::Malformed(format!("bad header: {trimmed:?}")))?;
                headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
            }

            let content_length: usize = headers
                .get("content-length")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            if content_length > MAX_BODY {
                return Err(ParseError::BodyTooLarge(content_length));
            }
            let mut body = vec![0u8; content_length];
            if content_length > 0 {
                reader
                    .read_exact(&mut body)
                    .map_err(|e| ParseError::Malformed(e.to_string()))?;
            }

            let (path, query) = split_query(target);
            Ok(Some(Request {
                method,
                path,
                query,
                headers,
                body,
                params: BTreeMap::new(),
            }))
        }
    }

    fn parse(raw: &str) -> Result<Request, ParseError> {
        let req = Request::read_from(&mut BufReader::new(raw.as_bytes()))?;
        Ok(req.expect("a request line before the end of the stream"))
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse("GET /api/myjobs?range=7d&user=alice HTTP/1.1\r\nHost: x\r\nX-Remote-User: alice\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/api/myjobs");
        assert_eq!(req.query_param("range"), Some("7d"));
        assert_eq!(req.query_param("user"), Some("alice"));
        assert_eq!(req.remote_user(), Some("alice"));
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            "POST /api/jobs HTTP/1.1\r\nContent-Length: 7\r\nConnection: close\r\n\r\npayload",
        )
        .unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"payload");
        assert!(!req.keep_alive());
    }

    #[test]
    fn eof_is_distinguished() {
        // Nothing read yet is not an error: the event loop waits for more.
        assert!(matches!(Request::parse_buf(b""), ParseStatus::Partial));
        let mut empty = BufReader::new(&b""[..]);
        assert_eq!(
            Request::read_from(&mut empty).map(|r| r.is_none()),
            Ok(true)
        );
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(
            parse("BLARGH\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nno-colon-header\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_body() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(parse(&raw), Err(ParseError::BodyTooLarge(_))));
    }

    #[test]
    fn url_decode() {
        assert_eq!(urldecode("a+b%20c"), "a b c");
        assert_eq!(urldecode("100%"), "100%");
        assert_eq!(urldecode("%zz"), "%zz");
        assert_eq!(urldecode("node%5B1-4%5D+%26+pi%C3%B9"), "node[1-4] & più");
    }

    #[test]
    fn parse_buf_matches_reader_and_pipelines() {
        let raw = b"GET /api/myjobs?range=7d HTTP/1.1\r\nX-Remote-User: alice\r\n\r\nPOST /api/jobs HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /next HTTP/1.1\r\n\r\n";
        let mut offset = 0;
        let mut reqs = Vec::new();
        while offset < raw.len() {
            match Request::parse_buf(&raw[offset..]) {
                ParseStatus::Complete { req, consumed } => {
                    offset += consumed;
                    reqs.push(req);
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].path, "/api/myjobs");
        assert_eq!(reqs[0].remote_user(), Some("alice"));
        assert_eq!(reqs[1].method, Method::Post);
        assert_eq!(reqs[1].body, b"abc");
        assert_eq!(reqs[2].path, "/next");
    }

    #[test]
    fn parse_buf_partial_until_complete() {
        let raw = b"GET /x HTTP/1.1\r\nHost: a\r\n\r\n";
        for cut in 0..raw.len() {
            match Request::parse_buf(&raw[..cut]) {
                ParseStatus::Partial => {}
                other => panic!("cut {cut}: expected Partial, got {other:?}"),
            }
        }
        assert!(matches!(
            Request::parse_buf(raw),
            ParseStatus::Complete { consumed, .. } if consumed == raw.len()
        ));
        // Body split the same way: head complete, body short -> Partial.
        let post = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nab";
        assert!(matches!(Request::parse_buf(post), ParseStatus::Partial));
    }

    #[test]
    fn parse_buf_bounds_heads_and_bodies() {
        let mut big = b"GET / HTTP/1.1\r\n".to_vec();
        big.extend(std::iter::repeat_n(b'a', MAX_HEAD + 10));
        assert!(matches!(
            Request::parse_buf(&big),
            ParseStatus::Error(ParseError::HeadersTooLarge(_))
        ));
        let huge_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            Request::parse_buf(huge_body.as_bytes()),
            ParseStatus::Error(ParseError::BodyTooLarge(_))
        ));
        assert!(matches!(
            Request::parse_buf(b"BLARGH / HTTP/1.1\r\n\r\n"),
            ParseStatus::Error(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn header_case_insensitive() {
        let req = Request::new(Method::Get, "/x").with_header("X-Thing", "1");
        assert_eq!(req.header("x-thing"), Some("1"));
        assert_eq!(req.header("X-THING"), Some("1"));
    }
}
