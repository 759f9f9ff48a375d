//! [`Body`]: what the server cache stores — a payload serialized once, on
//! fill, plus the validator clients revalidate it with.
//!
//! Also the degradation wire format, in one place: [`annotate_stale`]
//! writes the members a stale answer carries into a cached body, and
//! [`Degradation`] reads them back out of an answer.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Serialized response bytes and their strong ETag. A cache hit hands out
/// two `Arc` clones; nothing is re-encoded, re-parsed or copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Body {
    /// The encoder's own buffer, shrunk to its length in place, or a copy
    /// of its bytes when it holds more slack than `exact` keeps.
    pub bytes: Arc<Vec<u8>>,
    /// [`etag_for`]`(bytes)`. Content-derived (not epoch-prefixed) on
    /// purpose: when a new epoch serializes to identical bytes the tag
    /// survives and `If-None-Match` still collapses to a 304. Empty for a
    /// body that was never meant to be stored ([`Body::unvalidated`]).
    pub etag: Arc<str>,
}

impl Body {
    pub fn new(bytes: Vec<u8>) -> Body {
        Body {
            etag: Arc::from(Etag::of(&bytes).as_str()),
            bytes: exact(bytes),
        }
    }

    /// Encode `payload` — a typed row struct or a `json!` value alike —
    /// straight into the bytes this body shares out: the only time the
    /// payload is serialized, with no tree built or cloned on the way.
    pub fn json<T: Serialize + ?Sized>(payload: &T) -> Body {
        Body::new(serde_json::to_vec(payload).expect("json serializes"))
    }

    /// A body with no validator, for answers that bypass the cache (the
    /// `ttl = 0` ablation): it skips the hash, and the response built from
    /// it carries no `ETag`.
    pub fn unvalidated(bytes: Vec<u8>) -> Body {
        Body {
            etag: Arc::from(""),
            bytes: exact(bytes),
        }
    }

    /// The ETag to send, if this body has one.
    pub fn validator(&self) -> Option<&str> {
        (!self.etag.is_empty()).then_some(&*self.etag)
    }
}

/// `bytes` to share in an allocation of their length. A buffer with little
/// slack is shrunk, a `realloc` that gives the tail back where it lies, so
/// its bytes are not copied; a presized encode such as a job list leaves a
/// few percent. A buffer grown by doubling can hold almost as much slack
/// as bytes, and tails that large, freed between the bodies a cache keeps,
/// fragment the heap (DESIGN "Serialization" has the measurement): its
/// bytes are copied instead.
fn exact(mut bytes: Vec<u8>) -> Arc<Vec<u8>> {
    if bytes.capacity() - bytes.len() > bytes.len() / 4 {
        return Arc::new(bytes.as_slice().to_vec());
    }
    bytes.shrink_to_fit();
    Arc::new(bytes)
}

/// How an answer says its data is old. A stale widget answer carries all
/// three members, written by [`annotate_stale`]; a federation aggregate
/// carries only the flag, its ages being per site.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Degradation {
    pub degraded: bool,
    /// How old the served copy is.
    pub stale_age_secs: Option<u64>,
    /// Why it was not refreshed.
    pub stale_error: Option<String>,
}

impl Degradation {
    /// The degradation an answer declares; `None` when it declares none.
    pub fn of(body: &[u8]) -> Option<Degradation> {
        serde_json::from_slice(body)
            .ok()
            .filter(|d: &Degradation| d.degraded)
    }
}

/// The members [`annotate_stale`] writes, in byte order.
const STALE_KEYS: [&str; 3] = ["degraded", "stale_age_secs", "stale_error"];

/// `body`, a cached JSON object as the encoder writes it (compact, keys in
/// byte order), annotated as a stale answer: `"degraded": true`, its age
/// and the error that kept it from being refreshed. Each
/// member goes in at its byte-sorted place among the object's top-level
/// keys (replacing a member of the same name), so the bytes are those a
/// parse, insert and sorted-key encode would give, with nothing decoded.
/// `None` when `body` is not an object.
pub fn annotate_stale(body: &[u8], age_secs: u64, error: &str) -> Option<Vec<u8>> {
    if body.first() != Some(&b'{') || body.last() != Some(&b'}') {
        return None;
    }
    let mut out = Vec::with_capacity(body.len() + 80 + error.len());
    // Every member after the opening brace follows a comma.
    let comma = |out: &mut Vec<u8>| {
        if out.len() > 1 {
            out.push(b',');
        }
    };
    let write = |i: usize, out: &mut Vec<u8>| {
        comma(out);
        STALE_KEYS[i].write_json(out);
        out.push(b':');
        match i {
            0 => true.write_json(out),
            1 => age_secs.write_json(out),
            _ => error.write_json(out),
        }
    };
    out.push(b'{');
    let mut next = 0;
    for (key, member) in members(&body[1..body.len() - 1]) {
        let mut replaced = false;
        while let Some(k) = STALE_KEYS.get(next).filter(|k| k.as_bytes() <= key) {
            replaced |= k.as_bytes() == key;
            write(next, &mut out);
            next += 1;
        }
        if !replaced {
            comma(&mut out);
            out.extend_from_slice(member);
        }
    }
    for i in next..STALE_KEYS.len() {
        write(i, &mut out);
    }
    out.push(b'}');
    Some(out)
}

/// The top-level members of a compact object's inside, each as its key's
/// text and its whole `"key":value` bytes. The scan counts nesting and
/// skips strings, so a comma inside a nested value or a string never ends
/// a member.
fn members(inside: &[u8]) -> impl Iterator<Item = (&[u8], &[u8])> {
    let mut rest = inside;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
        let mut key_end = 0;
        let mut end = rest.len();
        for (i, &b) in rest.iter().enumerate() {
            if in_str {
                match b {
                    _ if escaped => escaped = false,
                    b'\\' => escaped = true,
                    b'"' => {
                        in_str = false;
                        if key_end == 0 {
                            key_end = i;
                        }
                    }
                    _ => {}
                }
                continue;
            }
            match b {
                b'"' => in_str = true,
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth -= 1,
                b',' if depth == 0 => {
                    end = i;
                    break;
                }
                _ => {}
            }
        }
        let member = &rest[..end];
        rest = rest.get(end + 1..).unwrap_or_default();
        Some((&member[1..key_end], member))
    })
}

/// Strong ETag for a body: its quoted 64-bit content hash.
pub fn etag_for(bytes: &[u8]) -> String {
    Etag::of(bytes).as_str().to_string()
}

/// An ETag's text, `"` and sixteen lowercase hex digits and `"`, written
/// where it is held rather than through `fmt`.
struct Etag([u8; 18]);

impl Etag {
    fn of(bytes: &[u8]) -> Etag {
        let hash = fnv64(bytes);
        let mut text = [b'"'; 18];
        for (i, digit) in text[1..17].iter_mut().enumerate() {
            *digit = b"0123456789abcdef"[(hash >> (60 - 4 * i) & 0xf) as usize];
        }
        Etag(text)
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("ASCII")
    }
}

/// FNV-1a's xor-then-multiply, 64-bit, a little-endian word at a time in
/// four lanes: each 32-byte block gives every lane a word, so four multiply
/// chains run side by side. Each round folds the high half down and is a
/// bijection of its lane, so every changed byte changes the hash. The
/// lanes fold together after the length, then the tail a word, then a byte
/// at a time. A collision costs one client one stale render, no more.
fn fnv64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    let round = |h: u64, word: &[u8]| {
        let h = (h ^ u64::from_le_bytes(word.try_into().expect("8-byte word"))).wrapping_mul(PRIME);
        h ^ (h >> 32)
    };
    let mut lanes = [BASIS; 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in blocks.by_ref() {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = round(*lane, word);
        }
    }
    let lanes = lanes.iter().map(|lane| lane.to_le_bytes());
    let mut h = lanes.fold(BASIS ^ bytes.len() as u64, |h, lane| round(h, &lane));
    let mut words = blocks.remainder().chunks_exact(8);
    for word in words.by_ref() {
        h = round(h, word);
    }
    for &b in words.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn etags_are_content_derived_and_quoted() {
        let a = Body::new(b"same-bytes".to_vec());
        let b = Body::new(b"same-bytes".to_vec());
        assert_eq!(a.etag, b.etag, "identical bytes keep the ETag");
        assert_ne!(a.etag, Body::new(b"other".to_vec()).etag);
        assert!(a.etag.starts_with('"') && a.etag.ends_with('"'));
        let digits = &a.etag[1..a.etag.len() - 1];
        assert!(digits.len() == 16 && digits.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(a.validator(), Some(&*a.etag));
    }

    #[test]
    fn etags_are_the_hash_in_sixteen_hex_digits() {
        for bytes in [&b""[..], b"same-bytes", &[0xff; 109]] {
            assert_eq!(etag_for(bytes), format!("\"{:016x}\"", fnv64(bytes)));
        }
    }

    #[test]
    fn hash_sees_every_byte_and_the_length() {
        // Three whole blocks (every lane), one tail word and five tail bytes.
        let base: Vec<u8> = (0..109u8).collect();
        let h = fnv64(&base);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 1;
            assert_ne!(fnv64(&flipped), h, "byte {i} is hashed");
        }
        let mut longer = base.clone();
        longer.push(0);
        assert_ne!(fnv64(&longer), h, "a trailing zero byte changes the hash");
        assert_ne!(fnv64(&[0u8; 8]), fnv64(&[0u8; 16]));
    }

    #[test]
    fn json_bodies_serialize_once() {
        let v = serde_json::json!({"b": 1, "a": [true, null]});
        let body = Body::json(&v);
        assert_eq!(*body.bytes, serde_json::to_vec(&v).unwrap());
    }

    /// The splice against the parse, insert and encode it replaces.
    fn reparsed(body: &str, age_secs: u64, error: &str) -> String {
        let mut v: serde_json::Value = serde_json::from_str(body).unwrap();
        v["degraded"] = serde_json::json!(true);
        v["stale_age_secs"] = serde_json::json!(age_secs);
        v["stale_error"] = serde_json::json!(error);
        v.to_string()
    }

    #[test]
    fn stale_members_land_where_sorted_keys_put_them() {
        for body in [
            r#"{}"#,
            r#"{"a":1}"#,
            r#"{"jobs":[{"a":"x,}\"{"}],"range":"7d","z":{"s":[1,[2]]}}"#,
            r#"{"charts":{},"degraded":false,"stale_b":"q","stale_error":null,"zz":0}"#,
            r#"{"e":"\\","stale_age_secs":3,"stale_f":[]}"#,
        ] {
            let spliced = annotate_stale(body.as_bytes(), 90, "sinfo: \"down\"").unwrap();
            assert_eq!(
                String::from_utf8(spliced).unwrap(),
                reparsed(body, 90, "sinfo: \"down\""),
                "{body}"
            );
        }
        assert_eq!(annotate_stale(b"[1,2]", 1, "e"), None);
        assert_eq!(annotate_stale(b"\"text\"", 1, "e"), None);
    }

    #[test]
    fn degradation_reads_what_the_splice_wrote() {
        let stale = annotate_stale(br#"{"jobs":[]}"#, 300, "sacct: timeout").unwrap();
        assert_eq!(
            Degradation::of(&stale),
            Some(Degradation {
                degraded: true,
                stale_age_secs: Some(300),
                stale_error: Some("sacct: timeout".to_string()),
            })
        );
        assert_eq!(Degradation::of(br#"{"jobs":[]}"#), None);
        assert_eq!(Degradation::of(br#"{"degraded":false}"#), None);
        let aggregate = Degradation::of(br#"{"degraded":true,"notices":["beta"]}"#).unwrap();
        assert_eq!(aggregate.stale_age_secs, None);
        assert_eq!(Degradation::of(b"[]"), None);
    }

    #[test]
    fn a_body_keeps_a_buffer_with_little_slack_and_copies_one_with_much() {
        for make in [Body::new, Body::unvalidated] {
            let mut bytes = Vec::with_capacity(1_250);
            bytes.extend_from_slice(&[b'x'; 1_000]);
            let at = bytes.as_ptr();
            let body = make(bytes);
            assert_eq!(body.bytes.as_ptr(), at, "shared where it was encoded");
            assert_eq!(body.bytes.capacity(), 1_000, "no slack held");

            let mut bytes = Vec::with_capacity(1_251);
            bytes.extend_from_slice(&[b'x'; 1_000]);
            let at = bytes.as_ptr();
            let body = make(bytes);
            assert_ne!(body.bytes.as_ptr(), at, "copied out of a grown buffer");
            assert_eq!(body.bytes.capacity(), 1_000, "no slack held");
        }
    }

    #[test]
    fn unvalidated_bodies_have_no_validator() {
        let body = Body::unvalidated(b"{}".to_vec());
        assert_eq!(body.validator(), None);
        assert_eq!(&body.bytes[..], b"{}");
    }
}
