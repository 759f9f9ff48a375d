//! Accounts (allocations) and associations, with `GrpTRES`-style limits and
//! live usage tracking.
//!
//! The dashboard's Accounts widget (paper §3.4) shows, per allocation the
//! user belongs to: CPUs in use, CPUs queued, GPU hours used against the
//! account's limits, and a per-user breakdown for export. All of that state
//! lives here and is kept current by the scheduler.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An account (a.k.a. allocation) in the accounting hierarchy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Account {
    pub name: String,
    pub description: String,
    pub parent: Option<String>,
    /// Group cap on simultaneously allocated CPUs (`GrpTRES=cpu=N`).
    pub grp_cpu_limit: Option<u32>,
    /// Group cap on cumulative GPU minutes (`GrpTRESMins=gres/gpu=N`).
    pub grp_gpu_mins_limit: Option<u64>,
}

impl Account {
    pub fn new(name: impl Into<String>) -> Account {
        Account {
            name: name.into(),
            description: String::new(),
            parent: Some("root".to_string()),
            grp_cpu_limit: None,
            grp_gpu_mins_limit: None,
        }
    }

    pub fn with_cpu_limit(mut self, cpus: u32) -> Account {
        self.grp_cpu_limit = Some(cpus);
        self
    }

    pub fn with_gpu_mins_limit(mut self, mins: u64) -> Account {
        self.grp_gpu_mins_limit = Some(mins);
        self
    }
}

/// Per-user usage within one account, for the export breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct UserUsage {
    pub cpu_seconds: u64,
    pub gpu_seconds: u64,
    pub jobs_run: u64,
}

/// Live usage attached to one account.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccountUsage {
    /// CPUs of currently running jobs.
    pub cpus_running: u32,
    /// CPUs requested by currently pending jobs.
    pub cpus_queued: u32,
    /// Cumulative charged CPU seconds (decays for fairshare separately).
    pub cpu_seconds: u64,
    /// Cumulative charged GPU seconds.
    pub gpu_seconds: u64,
    /// Per-user breakdown.
    pub by_user: BTreeMap<String, UserUsage>,
}

impl AccountUsage {
    pub fn gpu_hours(&self) -> f64 {
        self.gpu_seconds as f64 / 3_600.0
    }
}

/// Errors from limit checks, mapped 1:1 onto Slurm pending reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitViolation {
    /// Starting the job would exceed the account's group CPU cap.
    GrpCpuLimit,
    /// The account has exhausted its GPU-minutes allocation.
    GrpGpuMinsLimit,
}

/// The association store: accounts, membership, and usage.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct AssocStore {
    accounts: BTreeMap<String, Account>,
    /// account name -> member usernames
    members: BTreeMap<String, Vec<String>>,
    usage: BTreeMap<String, AccountUsage>,
}

impl AssocStore {
    pub fn new() -> AssocStore {
        let mut s = AssocStore::default();
        s.accounts.insert(
            "root".to_string(),
            Account {
                name: "root".to_string(),
                description: "root account".to_string(),
                parent: None,
                grp_cpu_limit: None,
                grp_gpu_mins_limit: None,
            },
        );
        s
    }

    pub fn add_account(&mut self, account: Account) {
        self.usage.entry(account.name.clone()).or_default();
        self.members.entry(account.name.clone()).or_default();
        self.accounts.insert(account.name.clone(), account);
    }

    pub fn add_user(&mut self, account: &str, user: impl Into<String>) {
        let user = user.into();
        let members = self.members.entry(account.to_string()).or_default();
        if !members.contains(&user) {
            members.push(user);
        }
    }

    pub fn account(&self, name: &str) -> Option<&Account> {
        self.accounts.get(name)
    }

    pub fn usage(&self, account: &str) -> Option<&AccountUsage> {
        self.usage.get(account)
    }

    /// All non-root accounts, sorted by name.
    pub fn accounts(&self) -> impl Iterator<Item = &Account> {
        self.accounts.values().filter(|a| a.name != "root")
    }

    /// Accounts a user belongs to (drives the privacy filter).
    pub fn accounts_of_user(&self, user: &str) -> Vec<String> {
        self.members
            .iter()
            .filter(|(_, users)| users.iter().any(|u| u == user))
            .map(|(a, _)| a.clone())
            .collect()
    }

    pub(crate) fn users_of_account(&self, account: &str) -> &[String] {
        self.members.get(account).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn is_member(&self, account: &str, user: &str) -> bool {
        self.users_of_account(account).iter().any(|u| u == user)
    }

    /// Would starting a job that allocates `cpus` / uses `gpus` violate the
    /// account's group limits right now?
    pub(crate) fn check_start(
        &self,
        account: &str,
        cpus: u32,
        gpus: u32,
    ) -> Result<(), LimitViolation> {
        let Some(acct) = self.accounts.get(account) else {
            return Ok(());
        };
        let usage = self.usage.get(account);
        if let Some(cap) = acct.grp_cpu_limit {
            if usage.map_or(0, |u| u.cpus_running) + cpus > cap {
                return Err(LimitViolation::GrpCpuLimit);
            }
        }
        if let Some(cap_mins) = acct.grp_gpu_mins_limit {
            if gpus > 0 && usage.map_or(0, |u| u.gpu_seconds) / 60 >= cap_mins {
                return Err(LimitViolation::GrpGpuMinsLimit);
            }
        }
        Ok(())
    }

    /// The usage row of `account`, created on first use. Looked up by
    /// `&str` first: only a new row allocates its key.
    fn usage_mut(&mut self, account: &str) -> &mut AccountUsage {
        if !self.usage.contains_key(account) {
            self.usage
                .insert(account.to_string(), AccountUsage::default());
        }
        self.usage.get_mut(account).expect("inserted above")
    }

    /// Record that a pending job joined the queue under `account`.
    pub(crate) fn note_queued(&mut self, account: &str, cpus: u32) {
        self.usage_mut(account).cpus_queued += cpus;
    }

    /// Record that a pending job left the queue (started or was cancelled).
    pub(crate) fn note_dequeued(&mut self, account: &str, cpus: u32) {
        let u = self.usage_mut(account);
        u.cpus_queued = u.cpus_queued.saturating_sub(cpus);
    }

    /// Record a job start.
    pub(crate) fn note_start(&mut self, account: &str, cpus: u32) {
        self.usage_mut(account).cpus_running += cpus;
    }

    /// Record a job end, charging `elapsed`-scaled usage to the account and
    /// the submitting user.
    pub(crate) fn note_end(
        &mut self,
        account: &str,
        user: &str,
        cpus: u32,
        gpus: u32,
        elapsed_secs: u64,
        usage_factor: f64,
    ) {
        let u = self.usage_mut(account);
        u.cpus_running = u.cpus_running.saturating_sub(cpus);
        let cpu_secs = (cpus as u64 * elapsed_secs) as f64 * usage_factor;
        let gpu_secs = (gpus as u64 * elapsed_secs) as f64 * usage_factor;
        u.cpu_seconds += cpu_secs as u64;
        u.gpu_seconds += gpu_secs as u64;
        let per_user = u.by_user.entry(user.to_string()).or_default();
        per_user.cpu_seconds += cpu_secs as u64;
        per_user.gpu_seconds += gpu_secs as u64;
        per_user.jobs_run += 1;
    }

    /// Fairshare factor in `(0, 1]`: inverse to accumulated charged usage.
    pub(crate) fn fairshare(&self, account: &str) -> f64 {
        let used = self
            .usage
            .get(account)
            .map(|u| u.cpu_seconds + u.gpu_seconds * 10)
            .unwrap_or(0);
        1.0 / (1.0 + used as f64 / 3.6e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> AssocStore {
        let mut s = AssocStore::new();
        s.add_account(
            Account::new("physics")
                .with_cpu_limit(256)
                .with_gpu_mins_limit(6_000),
        );
        s.add_user("physics", "alice");
        s.add_user("physics", "bob");
        s.add_account(Account::new("bio"));
        s.add_user("bio", "alice");
        s
    }

    #[test]
    fn membership_queries() {
        let s = store();
        assert_eq!(
            s.accounts_of_user("alice"),
            vec!["bio".to_string(), "physics".to_string()]
        );
        assert_eq!(s.accounts_of_user("bob"), vec!["physics".to_string()]);
        assert!(s.accounts_of_user("carol").is_empty());
        assert!(s.is_member("physics", "bob"));
        assert!(!s.is_member("bio", "bob"));
        assert_eq!(
            s.users_of_account("physics"),
            &["alice".to_string(), "bob".to_string()]
        );
    }

    #[test]
    fn duplicate_add_user_is_idempotent() {
        let mut s = store();
        s.add_user("physics", "alice");
        assert_eq!(s.users_of_account("physics").len(), 2);
    }

    #[test]
    fn grp_cpu_limit_enforced() {
        let mut s = store();
        assert!(s.check_start("physics", 256, 0).is_ok());
        s.note_start("physics", 200);
        assert!(s.check_start("physics", 56, 0).is_ok());
        assert_eq!(
            s.check_start("physics", 57, 0),
            Err(LimitViolation::GrpCpuLimit)
        );
        // Unlimited account never trips.
        s.note_start("bio", 100_000);
        assert!(s.check_start("bio", 100_000, 0).is_ok());
    }

    #[test]
    fn gpu_mins_limit_enforced() {
        let mut s = store();
        // Exhaust the GPU budget: 6000 minutes = 360000 seconds.
        s.note_start("physics", 4);
        s.note_end("physics", "alice", 4, 2, 180_000, 1.0);
        assert_eq!(
            s.check_start("physics", 1, 1),
            Err(LimitViolation::GrpGpuMinsLimit)
        );
        // CPU-only jobs are still allowed.
        assert!(s.check_start("physics", 1, 0).is_ok());
    }

    #[test]
    fn usage_accounting() {
        let mut s = store();
        s.note_queued("physics", 32);
        assert_eq!(s.usage("physics").unwrap().cpus_queued, 32);
        s.note_dequeued("physics", 32);
        s.note_start("physics", 32);
        assert_eq!(s.usage("physics").unwrap().cpus_running, 32);
        s.note_end("physics", "alice", 32, 0, 3_600, 1.0);
        let u = s.usage("physics").unwrap();
        assert_eq!(u.cpus_running, 0);
        assert_eq!(u.cpu_seconds, 32 * 3_600);
        assert_eq!(u.by_user["alice"].jobs_run, 1);
        assert_eq!(u.by_user["alice"].cpu_seconds, 32 * 3_600);
    }

    #[test]
    fn usage_factor_scales_charge() {
        let mut s = store();
        s.note_start("physics", 10);
        s.note_end("physics", "bob", 10, 0, 1_000, 0.0);
        assert_eq!(
            s.usage("physics").unwrap().cpu_seconds,
            0,
            "standby bills nothing"
        );
    }

    #[test]
    fn fairshare_decreases_with_usage() {
        let mut s = store();
        let fresh = s.fairshare("physics");
        assert!(fresh > 0.99);
        s.note_start("physics", 100);
        s.note_end("physics", "alice", 100, 0, 36_000, 1.0);
        let used = s.fairshare("physics");
        assert!(used < fresh);
        assert!(used > 0.0);
    }

    #[test]
    fn gpu_hours_conversion() {
        let u = AccountUsage {
            gpu_seconds: 7_200,
            ..Default::default()
        };
        assert!((u.gpu_hours() - 2.0).abs() < 1e-9);
    }
}
