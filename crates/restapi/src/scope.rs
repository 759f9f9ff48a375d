//! Token scopes: the permission vocabulary of the `/slurm/v0` API, and the
//! one place the paper's privacy rule (§2.4) is written.
//!
//! A viewer may see a job they submitted, or one charged to an account they
//! belong to; an admin may see every job. [`ScopeSet::allows_job`] states
//! that rule, and every consumer evaluates it instead of restating it:
//!
//! - the widget routes, through `CurrentUser`'s [`ScopeSet::profile_for`]
//!   profile (`may_view_job_of`, `visible_accounts`, the account export's
//!   [`ScopeSet::allows_account`], the legacy `/api/updates` filter);
//! - the push hub, whose per-subscriber check the dashboard builds from the
//!   same profile;
//! - every `/slurm/v0` job view, through the token's own scopes, and
//!   `visible_job_positions`, the rule's indexed form over a snapshot.
//!
//! Tokens can only *narrow* a profile, never widen it
//! ([`ScopeSet::validate_against`], enforced at mint time). So whatever a
//! token reveals, the subject's `X-Remote-User` view already revealed.

use std::collections::BTreeSet;
use std::fmt;

/// One grantable permission.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// Jobs submitted by the token's subject.
    ReadOwnJobs,
    /// Jobs charged to one account (the group-visibility rule, paper §2.4).
    ReadAccount(String),
    /// Jobs in one partition, and that partition's nodes.
    ReadPartition(String),
    /// Everything: all jobs, nodes, partitions, associations, diagnostics.
    ReadCluster,
    /// May switch the effective subject via `X-Act-As` (audited).
    AdminActAs,
}

impl Scope {
    /// Parse the wire form (`read-account:physics`).
    pub fn parse(s: &str) -> Result<Scope, String> {
        match s {
            "read-own-jobs" => Ok(Scope::ReadOwnJobs),
            "read-cluster" => Ok(Scope::ReadCluster),
            "admin-act-as" => Ok(Scope::AdminActAs),
            _ => {
                if let Some(acct) = s.strip_prefix("read-account:") {
                    if acct.is_empty() {
                        return Err("read-account: requires an account name".to_string());
                    }
                    return Ok(Scope::ReadAccount(acct.to_string()));
                }
                if let Some(part) = s.strip_prefix("read-partition:") {
                    if part.is_empty() {
                        return Err("read-partition: requires a partition name".to_string());
                    }
                    return Ok(Scope::ReadPartition(part.to_string()));
                }
                Err(format!("unknown scope: {s}"))
            }
        }
    }

    /// Does this scope grant visibility of jobs at all?
    fn is_job_scope(&self) -> bool {
        !matches!(self, Scope::AdminActAs)
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::ReadOwnJobs => f.write_str("read-own-jobs"),
            Scope::ReadAccount(a) => write!(f, "read-account:{a}"),
            Scope::ReadPartition(p) => write!(f, "read-partition:{p}"),
            Scope::ReadCluster => f.write_str("read-cluster"),
            Scope::AdminActAs => f.write_str("admin-act-as"),
        }
    }
}

/// A sorted, deduplicated set of scopes attached to one token.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScopeSet {
    scopes: Vec<Scope>,
}

impl ScopeSet {
    pub fn new(scopes: impl IntoIterator<Item = Scope>) -> ScopeSet {
        let set: BTreeSet<Scope> = scopes.into_iter().collect();
        ScopeSet {
            scopes: set.into_iter().collect(),
        }
    }

    /// Parse a list of wire-form scope strings; any bad entry fails the lot
    /// (deny-by-default: a token never silently loses part of its request).
    pub fn parse_list<S: AsRef<str>>(items: &[S]) -> Result<ScopeSet, String> {
        let mut scopes = Vec::with_capacity(items.len());
        for item in items {
            scopes.push(Scope::parse(item.as_ref())?);
        }
        if scopes.is_empty() {
            return Err("a token needs at least one scope".to_string());
        }
        Ok(ScopeSet::new(scopes))
    }

    pub fn iter(&self) -> impl Iterator<Item = &Scope> {
        self.scopes.iter()
    }

    pub fn contains(&self, scope: &Scope) -> bool {
        self.scopes.binary_search(scope).is_ok()
    }

    pub fn has_cluster(&self) -> bool {
        self.contains(&Scope::ReadCluster)
    }

    pub fn has_act_as(&self) -> bool {
        self.contains(&Scope::AdminActAs)
    }

    /// Any scope that could reveal a job?
    pub fn has_job_scope(&self) -> bool {
        self.scopes.iter().any(Scope::is_job_scope)
    }

    /// Accounts named by `read-account:` scopes.
    pub fn accounts(&self) -> impl Iterator<Item = &str> {
        self.scopes.iter().filter_map(|s| match s {
            Scope::ReadAccount(a) => Some(a.as_str()),
            _ => None,
        })
    }

    /// Partitions named by `read-partition:` scopes.
    pub fn partitions(&self) -> impl Iterator<Item = &str> {
        self.scopes.iter().filter_map(|s| match s {
            Scope::ReadPartition(p) => Some(p.as_str()),
            _ => None,
        })
    }

    /// The privacy verdict: may a holder of these scopes, acting for
    /// `subject`, see a job owned by `job_user`, charged to `job_account`,
    /// in `job_partition`? The one rule every consumer evaluates (see the
    /// module docs).
    pub fn allows_job(
        &self,
        subject: &str,
        job_user: &str,
        job_account: &str,
        job_partition: &str,
    ) -> bool {
        self.scopes.iter().any(|s| match s {
            Scope::ReadCluster => true,
            Scope::ReadOwnJobs => subject == job_user,
            Scope::ReadAccount(a) => a == job_account,
            Scope::ReadPartition(p) => !job_partition.is_empty() && p == job_partition,
            Scope::AdminActAs => false,
        })
    }

    /// May a holder of these scopes see a whole account's jobs and usage
    /// (the account export)? Exactly when [`ScopeSet::allows_job`] admits
    /// every job charged to `account`, whoever submitted it.
    pub fn allows_account(&self, account: &str) -> bool {
        self.has_cluster() || self.accounts().any(|a| a == account)
    }

    /// The implicit widget-route view of a user, expressed as scopes: own
    /// jobs + every account membership; admins additionally see the whole
    /// cluster and may act as others. (The subject's *name* binds at
    /// evaluation time, via [`ScopeSet::allows_job`]'s `subject` argument,
    /// not at grant time.)
    pub fn profile_for(accounts: &[String], is_admin: bool) -> ScopeSet {
        let mut scopes = vec![Scope::ReadOwnJobs];
        scopes.extend(accounts.iter().map(|a| Scope::ReadAccount(a.clone())));
        if is_admin {
            scopes.push(Scope::ReadCluster);
            scopes.push(Scope::AdminActAs);
        }
        ScopeSet::new(scopes)
    }

    /// The mint-time narrowing rule: every requested scope must already be
    /// implied by the subject's `profile`. `read-cluster` in the profile
    /// implies every read scope but never `admin-act-as`.
    pub fn validate_against(&self, profile: &ScopeSet) -> Result<(), String> {
        for scope in &self.scopes {
            let implied =
                profile.contains(scope) || (scope.is_job_scope() && profile.has_cluster());
            if !implied {
                return Err(format!("scope {scope} exceeds the subject's own view"));
            }
        }
        Ok(())
    }

    /// A stable string form, used in cache keys and token listings.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.scopes.iter().enumerate() {
            if i > 0 {
                out.push('+');
            }
            out.push_str(&s.to_string());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> ScopeSet {
        ScopeSet::parse_list(items).unwrap()
    }

    #[test]
    fn wire_roundtrip() {
        for s in [
            "read-own-jobs",
            "read-account:physics",
            "read-partition:gpu",
            "read-cluster",
            "admin-act-as",
        ] {
            assert_eq!(Scope::parse(s).unwrap().to_string(), s);
        }
        assert!(Scope::parse("read-account:").is_err());
        assert!(Scope::parse("write-cluster").is_err());
        assert!(
            ScopeSet::parse_list::<&str>(&[]).is_err(),
            "empty is denied"
        );
    }

    #[test]
    fn sets_sort_and_dedupe() {
        let a = set(&["read-cluster", "read-own-jobs", "read-own-jobs"]);
        let b = set(&["read-own-jobs", "read-cluster"]);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), "read-own-jobs+read-cluster");
    }

    #[test]
    fn job_visibility_per_scope() {
        let own = set(&["read-own-jobs"]);
        assert!(own.allows_job("alice", "alice", "physics", "cpu"));
        assert!(!own.allows_job("alice", "bob", "physics", "cpu"));

        let acct = set(&["read-account:physics"]);
        assert!(acct.allows_job("alice", "bob", "physics", "cpu"));
        assert!(!acct.allows_job("alice", "bob", "chem", "cpu"));

        let part = set(&["read-partition:gpu"]);
        assert!(part.allows_job("alice", "bob", "chem", "gpu"));
        assert!(!part.allows_job("alice", "bob", "chem", "cpu"));
        assert!(!part.allows_job("alice", "bob", "chem", ""));

        let cluster = set(&["read-cluster"]);
        assert!(cluster.allows_job("alice", "anyone", "anything", "anywhere"));

        let act = set(&["admin-act-as"]);
        assert!(!act.allows_job("root", "root", "physics", "cpu"));
        assert!(!act.has_job_scope());
    }

    #[test]
    fn profile_matches_widget_privacy_rule() {
        let alice = ScopeSet::profile_for(&["physics".to_string()], false);
        assert!(alice.allows_job("alice", "alice", "other", "cpu"), "own");
        assert!(alice.allows_job("alice", "bob", "physics", "cpu"), "group");
        assert!(!alice.allows_job("alice", "mallory", "secret", "cpu"));
        assert!(!alice.has_cluster());

        let admin = ScopeSet::profile_for(&[], true);
        assert!(admin.allows_job("root", "anyone", "anything", "p"));
        assert!(admin.has_act_as());
    }

    #[test]
    fn account_visibility_is_every_job_of_the_account() {
        let alice = ScopeSet::profile_for(&["physics".to_string()], false);
        let admin = ScopeSet::profile_for(&[], true);
        for (scopes, account) in [(&alice, "physics"), (&alice, "chem"), (&admin, "chem")] {
            assert_eq!(
                scopes.allows_account(account),
                scopes.allows_job("alice", "someone-else", account, ""),
                "{account}"
            );
        }
        assert!(alice.allows_account("physics"));
        assert!(!alice.allows_account("chem"));
        assert!(admin.allows_account("chem"));
        assert!(!set(&["read-own-jobs"]).allows_account("physics"));
    }

    #[test]
    fn narrowing_validation() {
        let alice = ScopeSet::profile_for(&["physics".to_string()], false);
        assert!(set(&["read-own-jobs"]).validate_against(&alice).is_ok());
        assert!(set(&["read-account:physics"])
            .validate_against(&alice)
            .is_ok());
        assert!(
            set(&["read-account:chem"])
                .validate_against(&alice)
                .is_err(),
            "not a member"
        );
        assert!(set(&["read-cluster"]).validate_against(&alice).is_err());
        assert!(set(&["read-partition:cpu"])
            .validate_against(&alice)
            .is_err());
        assert!(set(&["admin-act-as"]).validate_against(&alice).is_err());

        let admin = ScopeSet::profile_for(&[], true);
        assert!(set(&["read-partition:cpu"])
            .validate_against(&admin)
            .is_ok());
        assert!(set(&["read-account:anything"])
            .validate_against(&admin)
            .is_ok());
        assert!(set(&["admin-act-as"]).validate_against(&admin).is_ok());
    }
}
