//! A blocking HTTP client used by the headless browser and the load
//! generator. Two modes: the default one-request-per-connection client
//! (`Connection: close`, zero state), and a keep-alive client that pools
//! one connection per host and reuses it across requests — the shape a
//! real dashboard tab presents to the server.

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Read and write timeout on every client socket.
const TIMEOUT: Duration = Duration::from_secs(10);

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    BadUrl(String),
    Io(std::io::Error),
    Malformed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::BadUrl(u) => write!(f, "bad url: {u}"),
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Malformed(m) => write!(f, "malformed response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A received response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    pub status: u16,
    pub headers: BTreeMap<String, String>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    pub fn body_string(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    pub fn json(&self) -> Result<serde_json::Value, serde_json::Error> {
        serde_json::from_slice(&self.body)
    }

    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }
}

/// One pooled connection per host, plus open/reuse counters so the load
/// generator can report connection-reuse ratios.
#[derive(Debug, Default)]
struct Pool {
    conns: Mutex<HashMap<String, BufReader<TcpStream>>>,
    opened: AtomicU64,
    reused: AtomicU64,
}

/// The client. Safe to share across threads by cloning; clones of a
/// keep-alive client share one connection pool.
#[derive(Debug, Clone)]
pub struct HttpClient {
    pool: Option<Arc<Pool>>,
}

impl HttpClient {
    /// The stateless one-shot client: every request opens a fresh
    /// connection and sends `Connection: close`.
    pub fn new() -> HttpClient {
        HttpClient { pool: None }
    }

    /// A keep-alive client: requests reuse one pooled connection per host
    /// when the server allows it, reconnecting transparently when a pooled
    /// connection has gone stale.
    pub fn keep_alive() -> HttpClient {
        HttpClient {
            pool: Some(Arc::new(Pool::default())),
        }
    }

    /// `(connections_opened, connections_reused)` — zeros for the
    /// one-shot client, which never reuses anything.
    pub fn connection_stats(&self) -> (u64, u64) {
        match &self.pool {
            Some(p) => (
                p.opened.load(Ordering::Relaxed),
                p.reused.load(Ordering::Relaxed),
            ),
            None => (0, 0),
        }
    }

    pub fn get(&self, url: &str, headers: &[(&str, &str)]) -> Result<ClientResponse, ClientError> {
        self.request("GET", url, headers, Vec::new())
    }

    pub fn post(
        &self,
        url: &str,
        headers: &[(&str, &str)],
        body: Vec<u8>,
    ) -> Result<ClientResponse, ClientError> {
        self.request("POST", url, headers, body)
    }

    fn request(
        &self,
        method: &str,
        url: &str,
        headers: &[(&str, &str)],
        body: Vec<u8>,
    ) -> Result<ClientResponse, ClientError> {
        let (host, path) = split_url(url).ok_or_else(|| ClientError::BadUrl(url.to_string()))?;
        match &self.pool {
            None => self.request_oneshot(method, &host, &path, headers, &body),
            Some(pool) => self.request_pooled(pool, method, &host, &path, headers, &body),
        }
    }

    fn connect(&self, host: &str) -> Result<TcpStream, ClientError> {
        let stream = TcpStream::connect(host)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    fn request_oneshot(
        &self,
        method: &str,
        host: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        let stream = self.connect(host)?;
        let req = build_request(method, host, path, headers, body, false);
        let mut write_half = stream.try_clone()?;
        write_half.write_all(&req)?;
        write_half.write_all(body)?;
        write_half.flush()?;
        read_response(&mut BufReader::new(stream))
    }

    fn request_pooled(
        &self,
        pool: &Arc<Pool>,
        method: &str,
        host: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        let req = build_request(method, host, path, headers, body, true);

        // One attempt on a pooled connection (which may be stale — the
        // server is free to close an idle keep-alive at any time), then
        // one on a fresh connection before giving up. The guard must drop
        // before the exchange: maybe_pool re-locks the pool.
        let pooled = pool.conns.lock().remove(host);
        if let Some(mut reader) = pooled {
            if let Ok(resp) = exchange(&mut reader, &req, body) {
                pool.reused.fetch_add(1, Ordering::Relaxed);
                maybe_pool(pool, host, reader, &resp);
                return Ok(resp);
            }
        }

        let stream = self.connect(host)?;
        pool.opened.fetch_add(1, Ordering::Relaxed);
        let mut reader = BufReader::new(stream);
        let resp = exchange(&mut reader, &req, body)?;
        maybe_pool(pool, host, reader, &resp);
        Ok(resp)
    }
}

impl Default for HttpClient {
    fn default() -> HttpClient {
        HttpClient::new()
    }
}

fn build_request(
    method: &str,
    host: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut req =
        format!("{method} {path} HTTP/1.1\r\nHost: {host}\r\nConnection: {connection}\r\n");
    for (k, v) in headers {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    if !body.is_empty() {
        req.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    req.push_str("\r\n");
    req.into_bytes()
}

/// Write one request and read one response on a (possibly reused) stream.
fn exchange(
    reader: &mut BufReader<TcpStream>,
    req: &[u8],
    body: &[u8],
) -> Result<ClientResponse, ClientError> {
    let mut write_half = reader.get_ref().try_clone()?;
    write_half.write_all(req)?;
    write_half.write_all(body)?;
    write_half.flush()?;
    read_response(reader)
}

/// Put a connection back only when the response both declared a length
/// (so the stream position is known) and didn't ask to close.
fn maybe_pool(pool: &Arc<Pool>, host: &str, reader: BufReader<TcpStream>, resp: &ClientResponse) {
    let framed = resp.headers.contains_key("content-length");
    let closing = resp
        .header("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
    if framed && !closing {
        pool.conns.lock().insert(host.to_string(), reader);
    }
}

fn split_url(url: &str) -> Option<(String, String)> {
    let rest = url.strip_prefix("http://")?;
    let (host, path) = match rest.split_once('/') {
        Some((h, p)) => (h.to_string(), format!("/{p}")),
        None => (rest.to_string(), "/".to_string()),
    };
    if host.is_empty() {
        return None;
    }
    Some((host, path))
}

fn read_response(reader: &mut impl BufRead) -> Result<ClientResponse, ClientError> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let mut parts = status_line.split_whitespace();
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(ClientError::Malformed(format!(
            "bad status line: {status_line:?}"
        )));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ClientError::Malformed("missing status code".to_string()))?;

    let mut headers = BTreeMap::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Malformed("eof in headers".to_string()));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((k, v)) = trimmed.split_once(':') {
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
        }
    }

    let body = match headers
        .get("content-length")
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(len) => {
            let mut buf = vec![0u8; len];
            reader.read_exact(&mut buf)?;
            buf
        }
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
    };

    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_splitting() {
        assert_eq!(
            split_url("http://127.0.0.1:8080/api/jobs?x=1"),
            Some(("127.0.0.1:8080".to_string(), "/api/jobs?x=1".to_string()))
        );
        assert_eq!(
            split_url("http://localhost:9"),
            Some(("localhost:9".to_string(), "/".to_string()))
        );
        assert!(split_url("https://secure").is_none());
        assert!(split_url("ftp://x").is_none());
        assert!(split_url("http://").is_none());
    }

    #[test]
    fn parses_response_with_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\nhello";
        let resp = read_response(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.is_success());
        assert_eq!(resp.header("content-type"), Some("text/plain"));
        assert_eq!(resp.body_string(), "hello");
    }

    #[test]
    fn parses_response_without_length() {
        let raw = b"HTTP/1.1 404 Not Found\r\n\r\ngone";
        let resp = read_response(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(resp.status, 404);
        assert_eq!(resp.body_string(), "gone");
    }

    #[test]
    fn rejects_non_http() {
        let raw = b"SPDY/3 200\r\n\r\n";
        assert!(read_response(&mut BufReader::new(&raw[..])).is_err());
    }

    #[test]
    fn request_heads_carry_connection_mode() {
        let close = build_request("GET", "h:1", "/p", &[("A", "b")], b"", false);
        let close = String::from_utf8(close).unwrap();
        assert!(close.contains("Connection: close\r\n"));
        assert!(close.contains("A: b\r\n"));
        assert!(!close.contains("Content-Length"));

        let ka = build_request("POST", "h:1", "/p", &[], b"xyz", true);
        let ka = String::from_utf8(ka).unwrap();
        assert!(ka.contains("Connection: keep-alive\r\n"));
        assert!(ka.contains("Content-Length: 3\r\n"));
    }
}
