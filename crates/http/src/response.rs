//! HTTP response construction and serialization.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Response payload bytes. Most handlers build an [`Body::Owned`] vector;
/// cached routes serve [`Body::Shared`] so a hot widget response is an
/// `Arc` clone, not a copy, no matter how many connections poll it. The
/// shared vector is the one its encoder filled, adopted as it was.
#[derive(Debug, Clone)]
pub enum Body {
    Owned(Vec<u8>),
    Shared(Arc<Vec<u8>>),
}

impl Body {
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Body::Owned(v) => v,
            Body::Shared(a) => a,
        }
    }
}

impl Default for Body {
    fn default() -> Body {
        Body::Owned(Vec::new())
    }
}

impl std::ops::Deref for Body {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Body {
        Body::Owned(v)
    }
}

impl From<Arc<Vec<u8>>> for Body {
    fn from(a: Arc<Vec<u8>>) -> Body {
        Body::Shared(a)
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Body {}

impl PartialEq<Vec<u8>> for Body {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Body {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Body {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub headers: BTreeMap<String, String>,
    pub body: Body,
    /// Set by long-poll handlers running on the event loop: "park this
    /// *connection* (not a thread) and re-dispatch me on wake". Never
    /// serialized; the wire layer intercepts it.
    pub park: Option<crate::longpoll::ParkDirective>,
}

impl Response {
    pub fn new(status: u16) -> Response {
        Response {
            status,
            headers: BTreeMap::new(),
            body: Body::default(),
            park: None,
        }
    }

    /// 200 with a JSON body (the shape of every dashboard API route):
    /// `payload` — a typed struct or a `json!` value — encoded once,
    /// straight into the body bytes.
    pub fn json<T: serde::Serialize + ?Sized>(payload: &T) -> Response {
        Response::new(200)
            .with_header("Content-Type", "application/json")
            .with_body(serde_json::to_vec(payload).expect("json serializes"))
    }

    /// 200 with an HTML body (the ERB-rendered page shells).
    pub fn html(body: impl Into<String>) -> Response {
        Response::new(200)
            .with_header("Content-Type", "text/html; charset=utf-8")
            .with_body(body.into().into_bytes())
    }

    /// 200 with a plain-text body.
    pub fn text(body: impl Into<String>) -> Response {
        Response::new(200)
            .with_header("Content-Type", "text/plain; charset=utf-8")
            .with_body(body.into().into_bytes())
    }

    /// A CSV download (the Accounts widget's per-user export, paper §3.4).
    pub fn csv(filename: &str, body: impl Into<String>) -> Response {
        Response::new(200)
            .with_header("Content-Type", "text/csv; charset=utf-8")
            .with_header(
                "Content-Disposition",
                &format!("attachment; filename=\"{filename}\""),
            )
            .with_body(body.into().into_bytes())
    }

    /// 304 against the given strong ETag: the client's copy is current, no
    /// body crosses the wire.
    pub fn not_modified(etag: &str) -> Response {
        Response::new(304).with_header("ETag", etag)
    }

    pub fn not_found(msg: &str) -> Response {
        Response::error(404, msg)
    }

    pub fn bad_request(msg: &str) -> Response {
        Response::error(400, msg)
    }

    pub fn unauthorized(msg: &str) -> Response {
        Response::error(401, msg)
    }

    pub fn forbidden(msg: &str) -> Response {
        Response::error(403, msg)
    }

    pub fn internal_error(msg: &str) -> Response {
        Response::error(500, msg)
    }

    pub fn service_unavailable(msg: &str) -> Response {
        Response::error(503, msg)
    }

    /// Error responses are JSON too, so the frontend can render the failing
    /// widget's error card without special cases. The body repeats the
    /// status code so API consumers (the `/slurm/v0` family in particular)
    /// can log one self-contained object.
    pub fn error(status: u16, msg: &str) -> Response {
        let body = serde_json::json!({ "error": msg, "status": status });
        Response::new(status)
            .with_header("Content-Type", "application/json")
            .with_body(serde_json::to_vec(&body).expect("json serializes"))
    }

    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.insert(name.to_string(), value.to_string());
        self
    }

    pub fn with_body(mut self, body: impl Into<Body>) -> Response {
        self.body = body.into();
        self
    }

    /// Attach a park directive (event-loop long-poll). See
    /// [`crate::longpoll::ParkDirective`].
    pub fn with_park(mut self, park: crate::longpoll::ParkDirective) -> Response {
        self.park = Some(park);
        self
    }

    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    pub fn body_string(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    pub fn body_json(&self) -> Result<serde_json::Value, serde_json::Error> {
        serde_json::from_slice(&self.body)
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialize into a byte buffer. `head_only` is the HEAD-request rule:
    /// real `Content-Length`, zero body bytes. 204 and 304 never carry a
    /// body; they advertise `Content-Length: 0` explicitly because every
    /// client of this stack (including our own keep-alive client) frames
    /// responses by that header.
    pub fn serialize_into(&self, out: &mut Vec<u8>, keep_alive: bool, head_only: bool) {
        if let Some(body) = self.head_into(out, keep_alive, head_only) {
            out.extend_from_slice(body);
        }
    }

    /// Append the head to `out`; the body to send after it, if any (none
    /// for a HEAD request, a 204 or a 304).
    pub(crate) fn head_into(
        &self,
        out: &mut Vec<u8>,
        keep_alive: bool,
        head_only: bool,
    ) -> Option<&Body> {
        let bodyless_status = self.status == 204 || self.status == 304;
        let content_length = if bodyless_status { 0 } else { self.body.len() };
        out.extend_from_slice(b"HTTP/1.1 ");
        push_decimal(out, self.status.into());
        out.push(b' ');
        out.extend_from_slice(self.reason().as_bytes());
        out.extend_from_slice(b"\r\n");
        for (k, v) in &self.headers {
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"Content-Length: ");
        push_decimal(out, content_length as u64);
        out.extend_from_slice(if keep_alive {
            b"\r\nConnection: keep-alive\r\n\r\n"
        } else {
            b"\r\nConnection: close\r\n\r\n"
        });
        (!bodyless_status && !head_only).then_some(&self.body)
    }
}

/// Append `n` in decimal, without a temporary string.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn json_response_shape() {
        let r = Response::json(&json!({"ok": true}));
        assert_eq!(r.status, 200);
        assert!(r.is_success());
        assert_eq!(r.header("content-type"), Some("application/json"));
        assert_eq!(r.body_json().unwrap(), json!({"ok": true}));
    }

    #[test]
    fn error_bodies_are_json() {
        let r = Response::forbidden("not your job");
        assert_eq!(r.status, 403);
        assert!(!r.is_success());
        assert_eq!(r.header("content-type"), Some("application/json"));
        let body = r.body_json().unwrap();
        assert_eq!(body["error"], "not your job");
        assert_eq!(body["status"], 403, "body repeats the status code");
        let r = Response::unauthorized("who are you");
        assert_eq!(r.body_json().unwrap()["status"], 401);
        let r = Response::not_found("nope");
        assert_eq!(r.body_json().unwrap()["status"], 404);
    }

    #[test]
    fn csv_has_attachment_disposition() {
        let r = Response::csv("usage.csv", "user,cpu\nalice,5\n");
        assert!(r
            .header("content-disposition")
            .unwrap()
            .contains("usage.csv"));
        assert!(r.body_string().starts_with("user,cpu"));
    }

    #[test]
    fn serialization_includes_length_and_connection() {
        let r = Response::text("hi");
        let mut buf = Vec::new();
        r.serialize_into(&mut buf, false, false);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));

        let mut buf2 = Vec::new();
        r.serialize_into(&mut buf2, true, false);
        assert!(String::from_utf8(buf2)
            .unwrap()
            .contains("Connection: keep-alive"));
    }

    #[test]
    fn bodyless_statuses_and_head_omit_the_body() {
        // 304: ETag present, explicit zero length, no body bytes even if
        // someone attached one.
        let r = Response::not_modified("\"abc\"").with_body(b"sneaky".to_vec());
        let mut buf = Vec::new();
        r.serialize_into(&mut buf, true, false);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 304 Not Modified\r\n"));
        assert!(text.contains("ETag: \"abc\"\r\n"));
        assert!(text.contains("Content-Length: 0\r\n"));
        assert!(text.ends_with("\r\n\r\n"), "no body on 304");

        let mut buf = Vec::new();
        Response::new(204).serialize_into(&mut buf, false, false);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("Content-Length: 0\r\n"));
        assert!(text.ends_with("\r\n\r\n"), "no body on 204");

        // HEAD: the GET representation's length, zero body bytes.
        let r = Response::text("hello");
        let mut buf = Vec::new();
        r.serialize_into(&mut buf, true, true);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.ends_with("\r\n\r\n"), "no body on HEAD");
    }

    #[test]
    fn shared_bodies_compare_and_share() {
        let owned = Response::text("payload");
        let shared = Response::new(200).with_body(Arc::new(owned.body.to_vec()));
        assert_eq!(owned.body, shared.body);
        assert!(matches!(shared.body, Body::Shared(_)));
        assert_eq!(shared.body_string(), "payload");
    }

    #[test]
    fn status_helpers() {
        assert_eq!(Response::not_found("x").status, 404);
        assert_eq!(Response::bad_request("x").status, 400);
        assert_eq!(Response::unauthorized("x").status, 401);
        assert_eq!(Response::internal_error("x").status, 500);
        assert_eq!(Response::service_unavailable("x").status, 503);
        assert_eq!(Response::not_modified("\"e\"").status, 304);
    }
}
