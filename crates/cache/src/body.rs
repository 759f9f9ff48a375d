//! [`Body`]: what the server cache stores — a payload serialized once, on
//! fill, plus the validator clients revalidate it with.

use serde::Serialize;
use std::sync::Arc;

/// Serialized response bytes and their strong ETag. A cache hit hands out
/// two `Arc` clones; nothing is re-encoded, re-parsed or copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Body {
    pub bytes: Arc<[u8]>,
    /// [`etag_for`]`(bytes)`. Content-derived (not epoch-prefixed) on
    /// purpose: when a new epoch serializes to identical bytes the tag
    /// survives and `If-None-Match` still collapses to a 304. Empty for a
    /// body that was never meant to be stored ([`Body::unvalidated`]).
    pub etag: Arc<str>,
}

impl Body {
    pub fn new(bytes: Vec<u8>) -> Body {
        Body {
            etag: Arc::from(etag_for(&bytes)),
            bytes: Arc::from(bytes),
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
            bytes: Arc::from(bytes),
        }
    }

    /// The ETag to send, if this body has one.
    pub fn validator(&self) -> Option<&str> {
        (!self.etag.is_empty()).then_some(&*self.etag)
    }
}

/// Strong ETag for a body: its quoted 64-bit content hash.
pub fn etag_for(bytes: &[u8]) -> String {
    format!("\"{:016x}\"", fnv64(bytes))
}

/// FNV-1a's xor-then-multiply, 64-bit, taken a little-endian word at a time
/// (byte-at-a-time FNV costs ~1.5 µs/KB, which a fill of a several-hundred-KB
/// `/slurm/v0` body pays in full; this is ~5x cheaper). Each round folds the
/// high half back down so every input bit reaches the low bits, and the
/// length is mixed in so trailing zero bytes still change the hash. Tiny,
/// dependency-free, and plenty for cache validators: a collision costs one
/// client one stale render, never wrong bytes in the cache.
fn fnv64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for word in words.by_ref() {
        h ^= u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(PRIME);
        h ^= h >> 32;
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
        assert_eq!(a.validator(), Some(&*a.etag));
    }

    #[test]
    fn hash_sees_every_byte_and_the_length() {
        let base: Vec<u8> = (0..100u8).collect();
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
        assert_eq!(&*body.bytes, serde_json::to_vec(&v).unwrap().as_slice());
    }

    #[test]
    fn unvalidated_bodies_have_no_validator() {
        let body = Body::unvalidated(b"{}".to_vec());
        assert_eq!(body.validator(), None);
        assert_eq!(&*body.bytes, b"{}");
    }
}
