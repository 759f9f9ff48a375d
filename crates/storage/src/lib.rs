//! A ZFS/GPFS quota-database simulator.
//!
//! The paper's Storage widget (§3.5) lists "disks the user has access to"
//! — home (ZFS), scratch (GPFS) and group depot directories — with usage in
//! bytes and file count against quota. Production clusters answer those
//! queries from a periodically refreshed quota database; this crate plays
//! that database, including its latency and the possibility of being down
//! (used by the fault-isolation experiment).

use hpcdash_simtime::Timestamp;
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Which filesystem a directory lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilesystemKind {
    /// ZFS home directories.
    ZfsHome,
    /// GPFS scratch.
    GpfsScratch,
    /// GPFS group depot space.
    GpfsDepot,
}

impl FilesystemKind {
    pub fn label(self) -> &'static str {
        match self {
            FilesystemKind::ZfsHome => "zfs-home",
            FilesystemKind::GpfsScratch => "gpfs-scratch",
            FilesystemKind::GpfsDepot => "gpfs-depot",
        }
    }
}

/// Who a directory belongs to (drives the privacy filter).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DirOwner {
    User(String),
    Group(String),
}

/// One directory row in the quota database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DirectoryUsage {
    pub path: String,
    pub filesystem: FilesystemKind,
    pub owner: DirOwner,
    pub bytes_used: u64,
    pub bytes_quota: u64,
    pub files_used: u64,
    pub files_quota: u64,
    /// When the quota scanner last refreshed this row.
    pub scanned_at: Timestamp,
}

impl DirectoryUsage {
    pub fn bytes_fraction(&self) -> f64 {
        if self.bytes_quota == 0 {
            0.0
        } else {
            self.bytes_used as f64 / self.bytes_quota as f64
        }
    }

    pub fn files_fraction(&self) -> f64 {
        if self.files_quota == 0 {
            0.0
        } else {
            self.files_used as f64 / self.files_quota as f64
        }
    }
}

/// Storage query errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The quota database is unreachable (fault injection).
    Unavailable,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Unavailable => write!(f, "storage quota database unavailable"),
        }
    }
}

impl std::error::Error for StorageError {}

pub const GB: u64 = 1_073_741_824;
pub const TB: u64 = 1_099_511_627_776;

/// The quota database.
pub struct StorageDb {
    dirs: RwLock<Vec<DirectoryUsage>>,
    available: RwLock<bool>,
    /// Artificial per-query latency (quota DBs are not fast).
    query_cost: Duration,
}

impl StorageDb {
    pub fn new() -> StorageDb {
        StorageDb::with_cost(Duration::from_micros(400))
    }

    pub fn with_cost(query_cost: Duration) -> StorageDb {
        StorageDb {
            dirs: RwLock::new(Vec::new()),
            available: RwLock::new(true),
            query_cost,
        }
    }

    /// Provision the standard pair for a user: home (ZFS) + scratch (GPFS).
    pub fn provision_user(&self, user: &str, now: Timestamp) {
        let mut dirs = self.dirs.write();
        dirs.push(DirectoryUsage {
            path: format!("/home/{user}"),
            filesystem: FilesystemKind::ZfsHome,
            owner: DirOwner::User(user.to_string()),
            bytes_used: 0,
            bytes_quota: 25 * GB,
            files_used: 0,
            files_quota: 400_000,
            scanned_at: now,
        });
        dirs.push(DirectoryUsage {
            path: format!("/scratch/{user}"),
            filesystem: FilesystemKind::GpfsScratch,
            owner: DirOwner::User(user.to_string()),
            bytes_used: 0,
            bytes_quota: TB,
            files_used: 0,
            files_quota: 2_000_000,
            scanned_at: now,
        });
    }

    /// Provision a group depot directory.
    pub fn provision_group(&self, group: &str, quota_bytes: u64, now: Timestamp) {
        self.dirs.write().push(DirectoryUsage {
            path: format!("/depot/{group}"),
            filesystem: FilesystemKind::GpfsDepot,
            owner: DirOwner::Group(group.to_string()),
            bytes_used: 0,
            bytes_quota: quota_bytes,
            files_used: 0,
            files_quota: 20_000_000,
            scanned_at: now,
        });
    }

    /// Set a directory's usage outright (workload generator).
    pub fn set_usage(&self, path: &str, bytes_used: u64, files_used: u64, now: Timestamp) -> bool {
        let mut dirs = self.dirs.write();
        match dirs.iter_mut().find(|d| d.path == path) {
            Some(d) => {
                d.bytes_used = bytes_used;
                d.files_used = files_used;
                d.scanned_at = now;
                true
            }
            None => false,
        }
    }

    /// Nudge every directory's usage up or down, as a day of user activity
    /// would. Deterministic for a given seed.
    pub fn drift(&self, seed: u64, now: Timestamp) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dirs = self.dirs.write();
        for d in dirs.iter_mut() {
            let delta = rng.gen_range(-0.02f64..0.05);
            let new = (d.bytes_used as f64 + delta * d.bytes_quota as f64)
                .clamp(0.0, d.bytes_quota as f64);
            d.bytes_used = new as u64;
            let fdelta = rng.gen_range(-500i64..2_000);
            d.files_used = (d.files_used as i64 + fdelta).clamp(0, d.files_quota as i64) as u64;
            d.scanned_at = now;
        }
    }

    /// The privacy-filtered query the Storage widget runs: the user's own
    /// directories plus the depot spaces of groups they belong to.
    pub fn dirs_for_user(
        &self,
        user: &str,
        groups: &[String],
    ) -> Result<Vec<DirectoryUsage>, StorageError> {
        self.check_available()?;
        burn(self.query_cost);
        let dirs = self.dirs.read();
        Ok(dirs
            .iter()
            .filter(|d| match &d.owner {
                DirOwner::User(u) => u == user,
                DirOwner::Group(g) => groups.contains(g),
            })
            .cloned()
            .collect())
    }

    /// Fault injection: take the quota DB down / bring it back.
    pub fn set_available(&self, up: bool) {
        *self.available.write() = up;
    }

    pub fn is_available(&self) -> bool {
        *self.available.read()
    }

    fn check_available(&self) -> Result<(), StorageError> {
        if *self.available.read() {
            Ok(())
        } else {
            Err(StorageError::Unavailable)
        }
    }
}

impl Default for StorageDb {
    fn default() -> StorageDb {
        StorageDb::new()
    }
}

fn burn(cost: Duration) {
    if cost.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < cost {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StorageDb {
        /// Admin view of every directory.
        fn all_dirs(&self) -> Result<Vec<DirectoryUsage>, StorageError> {
            self.check_available()?;
            burn(self.query_cost);
            Ok(self.dirs.read().clone())
        }
    }

    fn db() -> StorageDb {
        let db = StorageDb::with_cost(Duration::ZERO);
        db.provision_user("alice", Timestamp(0));
        db.provision_user("bob", Timestamp(0));
        db.provision_group("physics", 10 * TB, Timestamp(0));
        db.provision_group("bio", 5 * TB, Timestamp(0));
        db
    }

    #[test]
    fn provisioning_creates_standard_dirs() {
        let db = db();
        let all = db.all_dirs().unwrap();
        assert_eq!(all.len(), 6);
        assert!(all.iter().any(|d| d.path == "/home/alice"));
        assert!(all.iter().any(|d| d.path == "/scratch/alice"));
        assert!(all.iter().any(|d| d.path == "/depot/physics"));
    }

    #[test]
    fn privacy_filter() {
        let db = db();
        let mine = db.dirs_for_user("alice", &["physics".to_string()]).unwrap();
        let paths: Vec<&str> = mine.iter().map(|d| d.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["/home/alice", "/scratch/alice", "/depot/physics"]
        );
        // bob without groups sees only his own.
        let bobs = db.dirs_for_user("bob", &[]).unwrap();
        assert_eq!(bobs.len(), 2);
        assert!(bobs.iter().all(|d| d.path.contains("bob")));
    }

    #[test]
    fn set_usage_and_fractions() {
        let db = db();
        assert!(db.set_usage("/home/alice", 20 * GB, 100_000, Timestamp(50)));
        assert!(!db.set_usage("/nope", 1, 1, Timestamp(50)));
        let mine = db.dirs_for_user("alice", &[]).unwrap();
        let home = mine.iter().find(|d| d.path == "/home/alice").unwrap();
        assert_eq!(home.bytes_used, 20 * GB);
        assert!((home.bytes_fraction() - 0.8).abs() < 1e-9);
        assert!((home.files_fraction() - 0.25).abs() < 1e-9);
        assert_eq!(home.scanned_at, Timestamp(50));
    }

    #[test]
    fn zero_quota_fraction_is_zero() {
        let d = DirectoryUsage {
            path: "/x".into(),
            filesystem: FilesystemKind::GpfsDepot,
            owner: DirOwner::Group("g".into()),
            bytes_used: 5,
            bytes_quota: 0,
            files_used: 5,
            files_quota: 0,
            scanned_at: Timestamp(0),
        };
        assert_eq!(d.bytes_fraction(), 0.0);
        assert_eq!(d.files_fraction(), 0.0);
    }

    #[test]
    fn drift_is_deterministic_and_bounded() {
        let db1 = db();
        let db2 = db();
        db1.drift(42, Timestamp(100));
        db2.drift(42, Timestamp(100));
        assert_eq!(db1.all_dirs().unwrap(), db2.all_dirs().unwrap());
        for d in db1.all_dirs().unwrap() {
            assert!(d.bytes_used <= d.bytes_quota);
            assert!(d.files_used <= d.files_quota);
        }
        // A different seed gives a different trajectory.
        let db3 = db();
        db3.drift(43, Timestamp(100));
        assert_ne!(db1.all_dirs().unwrap(), db3.all_dirs().unwrap());
    }

    #[test]
    fn fault_injection() {
        let db = db();
        db.set_available(false);
        assert!(!db.is_available());
        assert_eq!(
            db.dirs_for_user("alice", &[]),
            Err(StorageError::Unavailable)
        );
        assert_eq!(db.all_dirs(), Err(StorageError::Unavailable));
        db.set_available(true);
        assert!(db.dirs_for_user("alice", &[]).is_ok());
    }

    #[test]
    fn filesystem_labels() {
        assert_eq!(FilesystemKind::ZfsHome.label(), "zfs-home");
        assert_eq!(FilesystemKind::GpfsScratch.label(), "gpfs-scratch");
        assert_eq!(FilesystemKind::GpfsDepot.label(), "gpfs-depot");
    }
}
