//! Identity and the privacy filter (paper §2.4, "Privacy").
//!
//! Open OnDemand authenticates at the reverse proxy and hands the app the
//! username; this dashboard reads it from `X-Remote-User`. Every route then
//! restricts data to "the user, or allocations/groups the user is a part
//! of". Admins (behind the `admin_view` feature flag) may act as others via
//! `X-Act-As`, the permission-based-accounting extension from §9 — every
//! identity switch is audited in `hpcdash_act_as_total{admin,target}`.
//!
//! This module writes no privacy rule of its own. A viewer's rights are the
//! [`ScopeSet`] profile tokens are validated against (`profile_of`),
//! resolved once per request and memoized in [`CurrentUser`]. Every check —
//! here, in the routes, in the push hub's per-subscriber filter — evaluates
//! that profile's [`ScopeSet::allows_job`]. A token can never see
//! more than the widget routes would show its subject, because both answer
//! through one predicate.

use crate::ctx::DashboardContext;
use hpcdash_http::{Request, Response};
use hpcdash_restapi::ScopeSet;
use hpcdash_slurm::ctld::Slurmctld;
use std::sync::OnceLock;

/// The authenticated viewer.
#[derive(Debug, Clone)]
pub struct CurrentUser {
    pub username: String,
    pub is_admin: bool,
    /// The viewer's [`profile_of`], memoized for the life of this request:
    /// routes consult it several times while building one response, and
    /// each resolution is an `scontrol show assoc` RPC.
    profile: OnceLock<ScopeSet>,
}

impl PartialEq for CurrentUser {
    fn eq(&self, other: &CurrentUser) -> bool {
        self.username == other.username && self.is_admin == other.is_admin
    }
}

impl Eq for CurrentUser {}

impl CurrentUser {
    pub fn new(username: impl Into<String>, is_admin: bool) -> CurrentUser {
        CurrentUser {
            username: username.into(),
            is_admin,
            profile: OnceLock::new(),
        }
    }

    /// Resolve identity from a request, or produce the HTTP error to send.
    pub fn from_request(ctx: &DashboardContext, req: &Request) -> Result<CurrentUser, Response> {
        let Some(remote) = req.remote_user() else {
            return Err(Response::unauthorized("missing X-Remote-User"));
        };
        if remote.is_empty() {
            return Err(Response::unauthorized("empty X-Remote-User"));
        }
        let is_admin = ctx.cfg.is_admin(remote);
        // Admins may view as another user; everyone else is themselves.
        let username = match (is_admin, req.header("x-act-as")) {
            (true, Some(other)) if !other.is_empty() => {
                if other != remote {
                    note_act_as(ctx, remote, other);
                }
                other.to_string()
            }
            _ => remote.to_string(),
        };
        Ok(CurrentUser::new(username, is_admin))
    }

    /// This viewer's rights as the scope vocabulary the `/slurm/v0` token
    /// family uses. Resolved against slurmctld once per request, then
    /// reused. Minted tokens are validated against this same profile,
    /// which is what makes token visibility provably a subset of widget
    /// visibility.
    pub fn scope_profile(&self, ctx: &DashboardContext) -> &ScopeSet {
        self.profile
            .get_or_init(|| profile_of(&ctx.ctld, &self.username, self.is_admin))
    }

    /// The accounts this user belongs to (their own allocations).
    pub fn visible_accounts(&self, ctx: &DashboardContext) -> Vec<String> {
        self.scope_profile(ctx)
            .accounts()
            .map(str::to_string)
            .collect()
    }

    /// May this user inspect `job_user`'s job, charged to `job_account`?
    pub fn may_view_job_of(
        &self,
        job_user: &str,
        job_account: &str,
        ctx: &DashboardContext,
    ) -> bool {
        self.scope_profile(ctx)
            .allows_job(&self.username, job_user, job_account, "")
    }
}

/// `user`'s widget-route view as scopes: own jobs, one `read-account` per
/// association slurmctld reports for them, and the cluster-wide scopes when
/// `is_admin`. One `scontrol show assoc` RPC.
pub(crate) fn profile_of(ctld: &Slurmctld, user: &str, is_admin: bool) -> ScopeSet {
    let accounts: Vec<String> = ctld
        .query_assoc(Some(user))
        .into_iter()
        .map(|r| r.account.name)
        .collect();
    ScopeSet::profile_for(&accounts, is_admin)
}

/// Audit an admin viewing as somebody else, wherever the switch came from
/// (the `X-Act-As` header or an `admin-act-as` token scope). Surfaced on
/// `/observatory`.
pub(crate) fn note_act_as(ctx: &DashboardContext, admin: &str, target: &str) {
    ctx.obs
        .counter(
            "hpcdash_act_as_total",
            &[("admin", admin), ("target", target)],
        )
        .inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::test_ctx;
    use hpcdash_http::Method;

    #[test]
    fn requires_remote_user() {
        let ctx = test_ctx();
        let req = Request::new(Method::Get, "/api/x");
        let err = CurrentUser::from_request(&ctx, &req).unwrap_err();
        assert_eq!(err.status, 401);
        let req = Request::new(Method::Get, "/api/x").with_header("X-Remote-User", "");
        assert!(CurrentUser::from_request(&ctx, &req).is_err());
    }

    #[test]
    fn plain_user_resolves() {
        let ctx = test_ctx();
        let req = Request::new(Method::Get, "/x").with_header("X-Remote-User", "alice");
        let user = CurrentUser::from_request(&ctx, &req).unwrap();
        assert_eq!(user.username, "alice");
        assert!(!user.is_admin);
    }

    #[test]
    fn act_as_requires_admin() {
        let ctx = test_ctx();
        // alice is not an admin: X-Act-As ignored, and no audit line.
        let req = Request::new(Method::Get, "/x")
            .with_header("X-Remote-User", "alice")
            .with_header("X-Act-As", "bob");
        let user = CurrentUser::from_request(&ctx, &req).unwrap();
        assert_eq!(user.username, "alice");
        assert_eq!(
            ctx.obs
                .counter(
                    "hpcdash_act_as_total",
                    &[("admin", "alice"), ("target", "bob")]
                )
                .get(),
            0
        );
    }

    #[test]
    fn act_as_switch_is_audited() {
        let mut cfg = crate::config::DashboardConfig::generic("Test");
        cfg.admins = vec!["root".to_string()];
        cfg.features.admin_view = true;
        let ctx = crate::ctx::tests::test_ctx_with(cfg);
        let req = Request::new(Method::Get, "/x")
            .with_header("X-Remote-User", "root")
            .with_header("X-Act-As", "alice");
        let user = CurrentUser::from_request(&ctx, &req).unwrap();
        assert_eq!(user.username, "alice");
        assert!(user.is_admin);
        assert_eq!(
            ctx.obs
                .counter(
                    "hpcdash_act_as_total",
                    &[("admin", "root"), ("target", "alice")]
                )
                .get(),
            1
        );
        // Acting as yourself is not a switch.
        let req = Request::new(Method::Get, "/x")
            .with_header("X-Remote-User", "root")
            .with_header("X-Act-As", "root");
        CurrentUser::from_request(&ctx, &req).unwrap();
        assert_eq!(
            ctx.obs
                .counter(
                    "hpcdash_act_as_total",
                    &[("admin", "root"), ("target", "root")]
                )
                .get(),
            0
        );
    }

    #[test]
    fn visible_accounts_filter() {
        let ctx = test_ctx();
        let alice = CurrentUser::new("alice", false);
        assert_eq!(alice.visible_accounts(&ctx), ["physics"]);
        let stranger = CurrentUser::new("mallory", false);
        assert!(stranger.visible_accounts(&ctx).is_empty());
    }

    #[test]
    fn visible_accounts_resolve_once_per_request() {
        let ctx = test_ctx();
        let alice = CurrentUser::new("alice", false);
        let before = ctx.ctld.stats().count_of("scontrol_assoc");
        alice.visible_accounts(&ctx);
        alice.may_view_job_of("bob", "physics", &ctx);
        alice.may_view_job_of("carol", "chem", &ctx);
        let after = ctx.ctld.stats().count_of("scontrol_assoc");
        assert_eq!(after - before, 1, "one association query per request");
    }

    #[test]
    fn job_visibility_rules() {
        let ctx = test_ctx();
        let alice = CurrentUser::new("alice", false);
        assert!(alice.may_view_job_of("alice", "physics", &ctx), "own job");
        assert!(alice.may_view_job_of("bob", "physics", &ctx), "group job");
        assert!(
            !alice.may_view_job_of("mallory", "secret", &ctx),
            "unrelated job"
        );
        let admin = CurrentUser::new("root", true);
        assert!(admin.may_view_job_of("anyone", "anything", &ctx));
    }

    #[test]
    fn scope_profile_mirrors_privacy_filter() {
        let ctx = test_ctx();
        let alice = CurrentUser::new("alice", false);
        let profile = alice.scope_profile(&ctx);
        assert!(profile.allows_job("alice", "alice", "physics", ""));
        assert!(profile.allows_job("alice", "bob", "physics", ""));
        assert!(!profile.allows_job("alice", "mallory", "secret", ""));
        assert!(!profile.has_cluster());
        let admin = CurrentUser::new("root", true);
        assert!(admin.scope_profile(&ctx).has_cluster());
        assert!(admin.scope_profile(&ctx).has_act_as());
    }
}
