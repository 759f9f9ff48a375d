//! API tokens: minting, revocation, and bearer authentication.
//!
//! Secrets are derived from a seeded splitmix64 stream, so a given site
//! configuration mints the same token sequence every run — chaos tests and
//! the load generator stay reproducible, mirroring the seeded backoff
//! jitter in the resilience layer. Every lifecycle event and every
//! authentication attempt is audited via `hpcdash_api_token_*` counters.

use crate::scope::ScopeSet;
use hpcdash_obs::{Counter, Registry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Why a bearer secret was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthError {
    /// No `Authorization: Bearer` header at all.
    Missing,
    /// The secret matches no token ever minted.
    Unknown,
    /// The token exists but has been revoked.
    Revoked,
}

impl AuthError {
    /// Stable label for the `hpcdash_api_token_auth_total{outcome}` counter.
    pub fn outcome(&self) -> &'static str {
        match self {
            AuthError::Missing => "missing",
            AuthError::Unknown => "unknown",
            AuthError::Revoked => "revoked",
        }
    }

    /// The 401 body text.
    pub fn message(&self) -> &'static str {
        match self {
            AuthError::Missing => "missing bearer token",
            AuthError::Unknown => "unknown token",
            AuthError::Revoked => "token revoked",
        }
    }
}

/// What `mint` hands back — the only place the secret is ever shown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MintedToken {
    pub id: String,
    pub subject: String,
    pub scopes: ScopeSet,
    pub secret: String,
}

/// A successfully authenticated bearer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthedToken {
    pub id: String,
    pub subject: String,
    pub scopes: ScopeSet,
}

/// Listing row for the admin endpoint (no secret: show-once semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenInfo {
    pub id: String,
    pub subject: String,
    pub scopes: ScopeSet,
    pub revoked: bool,
}

struct Record {
    id: String,
    subject: String,
    scopes: ScopeSet,
    revoked: bool,
}

struct Inner {
    rng: u64,
    tokens: Vec<Record>,
    by_secret: HashMap<String, usize>,
}

/// The token registry: mint, revoke, list, authenticate.
pub struct TokenStore {
    inner: Mutex<Inner>,
    registry: OnceLock<Arc<Registry>>,
    /// `hpcdash_api_token_auth_total{outcome="ok"}`, the count every
    /// admitted request bumps: resolved on its first use and kept.
    auth_ok: OnceLock<Arc<Counter>>,
}

/// One step of the splitmix64 stream (same generator family the fault
/// layer's jitter uses; good enough for simulation secrets, not crypto).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TokenStore {
    pub fn new(seed: u64) -> TokenStore {
        TokenStore {
            inner: Mutex::new(Inner {
                // Offset the stream so token secrets never collide with the
                // backoff jitter derived from the same site seed.
                rng: seed ^ 0x70_6b_65_6e, // "tokn"
                tokens: Vec::new(),
                by_secret: HashMap::new(),
            }),
            registry: OnceLock::new(),
            auth_ok: OnceLock::new(),
        }
    }

    /// Attach the metrics registry (idempotent; first caller wins).
    pub fn set_registry(&self, registry: &Arc<Registry>) {
        let _ = self.registry.set(registry.clone());
    }

    fn count(&self, name: &str, labels: &[(&str, &str)]) {
        if let Some(reg) = self.registry.get() {
            reg.counter(name, labels).inc();
        }
    }

    /// Mint a token for `subject` with `scopes`. Scope narrowing against
    /// the subject's profile is the caller's job (it owns the association
    /// lookup); the store records whatever passed validation.
    pub fn mint(&self, subject: &str, scopes: ScopeSet) -> MintedToken {
        let mut inner = self.inner.lock();
        let a = splitmix64(&mut inner.rng);
        let b = splitmix64(&mut inner.rng);
        let secret = format!("hpcd_{a:016x}{b:016x}");
        let id = format!("tok-{}", inner.tokens.len() + 1);
        let idx = inner.tokens.len();
        // The plaintext secret lives only in `by_secret`'s keys (and in the
        // one-time mint response) — listings can never leak it.
        inner.tokens.push(Record {
            id: id.clone(),
            subject: subject.to_string(),
            scopes: scopes.clone(),
            revoked: false,
        });
        inner.by_secret.insert(secret.clone(), idx);
        drop(inner);
        self.count("hpcdash_api_token_minted_total", &[]);
        MintedToken {
            id,
            subject: subject.to_string(),
            scopes,
            secret,
        }
    }

    /// Revoke by token id. Returns false for unknown ids; revoking twice is
    /// idempotent (and only counted once).
    pub fn revoke(&self, id: &str) -> bool {
        let mut inner = self.inner.lock();
        let Some(rec) = inner.tokens.iter_mut().find(|r| r.id == id) else {
            return false;
        };
        let fresh = !rec.revoked;
        rec.revoked = true;
        drop(inner);
        if fresh {
            self.count("hpcdash_api_token_revoked_total", &[]);
        }
        true
    }

    pub fn list(&self) -> Vec<TokenInfo> {
        self.inner
            .lock()
            .tokens
            .iter()
            .map(|r| TokenInfo {
                id: r.id.clone(),
                subject: r.subject.clone(),
                scopes: r.scopes.clone(),
                revoked: r.revoked,
            })
            .collect()
    }

    /// Tokens minted and still valid (for `/slurm/v0/diag`).
    pub fn active_count(&self) -> usize {
        self.inner
            .lock()
            .tokens
            .iter()
            .filter(|r| !r.revoked)
            .count()
    }

    /// Resolve a bearer secret. Every attempt lands in
    /// `hpcdash_api_token_auth_total{outcome}`.
    pub fn authenticate(&self, secret: &str) -> Result<AuthedToken, AuthError> {
        let inner = self.inner.lock();
        let result = match inner.by_secret.get(secret) {
            None => Err(AuthError::Unknown),
            Some(&idx) => {
                let rec = &inner.tokens[idx];
                if rec.revoked {
                    Err(AuthError::Revoked)
                } else {
                    Ok(AuthedToken {
                        id: rec.id.clone(),
                        subject: rec.subject.clone(),
                        scopes: rec.scopes.clone(),
                    })
                }
            }
        };
        drop(inner);
        match (&result, self.registry.get()) {
            (Ok(_), Some(reg)) => self
                .auth_ok
                .get_or_init(|| reg.counter("hpcdash_api_token_auth_total", &[("outcome", "ok")]))
                .inc(),
            (Ok(_), None) => {}
            (Err(e), _) => self.count("hpcdash_api_token_auth_total", &[("outcome", e.outcome())]),
        }
        result
    }

    /// Audit a request that authenticated but lacked the scope for `route`.
    pub fn note_denied(&self, route: &str) {
        self.count("hpcdash_api_token_denied_total", &[("route", route)]);
    }

    /// Audit a request with no bearer header at all.
    pub fn note_missing(&self) {
        self.count(
            "hpcdash_api_token_auth_total",
            &[("outcome", AuthError::Missing.outcome())],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::Scope;

    fn scopes() -> ScopeSet {
        ScopeSet::new([Scope::ReadOwnJobs])
    }

    #[test]
    fn mint_authenticate_revoke_cycle() {
        let store = TokenStore::new(0x5eed);
        let minted = store.mint("alice", scopes());
        assert!(minted.secret.starts_with("hpcd_"));
        assert_eq!(minted.id, "tok-1");

        let authed = store.authenticate(&minted.secret).unwrap();
        assert_eq!(authed.subject, "alice");
        assert_eq!(authed.scopes, scopes());

        assert!(store.revoke(&minted.id));
        assert_eq!(store.authenticate(&minted.secret), Err(AuthError::Revoked));
        assert!(store.revoke(&minted.id), "idempotent");
        assert!(!store.revoke("tok-99"));
        assert_eq!(store.active_count(), 0);
    }

    #[test]
    fn unknown_secret_rejected() {
        let store = TokenStore::new(1);
        assert_eq!(store.authenticate("nope"), Err(AuthError::Unknown));
    }

    #[test]
    fn secrets_are_deterministic_per_seed_and_unique() {
        let a = TokenStore::new(42);
        let b = TokenStore::new(42);
        let s1 = a.mint("alice", scopes()).secret;
        let s2 = a.mint("bob", scopes()).secret;
        assert_ne!(s1, s2);
        assert_eq!(b.mint("alice", scopes()).secret, s1, "seeded stream");
        let c = TokenStore::new(43);
        assert_ne!(c.mint("alice", scopes()).secret, s1);
    }

    #[test]
    fn listing_never_shows_secrets() {
        let store = TokenStore::new(7);
        store.mint("alice", scopes());
        let rows = store.list();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].subject, "alice");
        assert!(!rows[0].revoked);
        // TokenInfo has no secret field by construction; this test documents
        // the show-once contract.
    }

    #[test]
    fn audit_counters_flow_to_registry() {
        let reg = Arc::new(Registry::new());
        let store = TokenStore::new(9);
        store.set_registry(&reg);
        let t = store.mint("alice", scopes());
        store.authenticate(&t.secret).unwrap();
        store.authenticate("bad").unwrap_err();
        store.note_missing();
        store.note_denied("/slurm/v0/diag");
        store.revoke(&t.id);
        assert_eq!(reg.counter("hpcdash_api_token_minted_total", &[]).get(), 1);
        assert_eq!(reg.counter("hpcdash_api_token_revoked_total", &[]).get(), 1);
        assert_eq!(
            reg.counter("hpcdash_api_token_auth_total", &[("outcome", "ok")])
                .get(),
            1
        );
        assert_eq!(
            reg.counter("hpcdash_api_token_auth_total", &[("outcome", "unknown")])
                .get(),
            1
        );
        assert_eq!(
            reg.counter("hpcdash_api_token_auth_total", &[("outcome", "missing")])
                .get(),
            1
        );
        assert_eq!(
            reg.counter(
                "hpcdash_api_token_denied_total",
                &[("route", "/slurm/v0/diag")]
            )
            .get(),
            1
        );
    }
}
