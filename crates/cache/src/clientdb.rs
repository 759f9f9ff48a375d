//! An IndexedDB analog: the client-side structured store each simulated
//! browser keeps, so the dashboard renders instantly from cached API
//! responses while fresh data loads (paper §2.4).
//!
//! Mirrors the IndexedDB shape the paper's frontend uses: named object
//! stores holding keyed records, each stamped with when it was fetched.
//! Supports JSON export/import, standing in for the on-disk persistence a
//! real browser provides across sessions.

use hpcdash_simtime::Timestamp;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One cached API response: its body text, decoded when it renders.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredRecord {
    pub value: String,
    pub fetched_at: Timestamp,
}

impl StoredRecord {
    pub fn age(&self, now: Timestamp) -> u64 {
        now.since(self.fetched_at)
    }

    /// Fresh with respect to a TTL?
    pub fn fresh(&self, now: Timestamp, ttl_secs: u64) -> bool {
        self.age(now) < ttl_secs
    }
}

type Store = BTreeMap<String, StoredRecord>;

/// The client database: object stores of keyed records.
#[derive(Debug, Default)]
pub struct IndexedDb {
    stores: RwLock<BTreeMap<String, Store>>,
}

impl IndexedDb {
    pub fn new() -> IndexedDb {
        IndexedDb::default()
    }

    /// Store an API response under `store`/`key`.
    pub fn put(&self, store: &str, key: &str, value: String, fetched_at: Timestamp) {
        self.stores
            .write()
            .entry(store.to_string())
            .or_default()
            .insert(key.to_string(), StoredRecord { value, fetched_at });
    }

    pub fn get(&self, store: &str, key: &str) -> Option<StoredRecord> {
        self.stores.read().get(store)?.get(key).cloned()
    }

    pub fn clear_store(&self, store: &str) {
        if let Some(s) = self.stores.write().get_mut(store) {
            s.clear();
        }
    }

    pub fn record_count(&self) -> usize {
        self.stores.read().values().map(|s| s.len()).sum()
    }

    /// Serialize the whole database (the "persist to disk" analog).
    pub fn export_json(&self) -> String {
        let stores = self.stores.read();
        serde_json::to_string(&*stores).expect("db contents are serializable")
    }

    /// Restore a database exported with [`IndexedDb::export_json`].
    pub fn import_json(json: &str) -> Result<IndexedDb, serde_json::Error> {
        let stores: BTreeMap<String, Store> = serde_json::from_str(json)?;
        Ok(IndexedDb {
            stores: RwLock::new(stores),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let db = IndexedDb::new();
        db.put(
            "widgets",
            "recent_jobs",
            r#"{"jobs":[1,2]}"#.to_string(),
            Timestamp(100),
        );
        let rec = db.get("widgets", "recent_jobs").unwrap();
        assert_eq!(rec.value, r#"{"jobs":[1,2]}"#.to_string());
        assert_eq!(rec.fetched_at, Timestamp(100));
        assert!(db.get("widgets", "nope").is_none());
        assert!(db.get("other", "recent_jobs").is_none());
    }

    #[test]
    fn freshness_math() {
        let rec = StoredRecord {
            value: "1".to_string(),
            fetched_at: Timestamp(100),
        };
        assert_eq!(rec.age(Timestamp(130)), 30);
        assert!(rec.fresh(Timestamp(129), 30));
        assert!(!rec.fresh(Timestamp(130), 30));
    }

    #[test]
    fn clear_store_empties_the_store() {
        let db = IndexedDb::new();
        db.put("w", "a", "1".to_string(), Timestamp(0));
        db.put("w", "b", "2".to_string(), Timestamp(0));
        assert_eq!(db.record_count(), 2);
        db.clear_store("w");
        assert_eq!(db.record_count(), 0);
    }

    #[test]
    fn export_import_preserves_everything() {
        let db = IndexedDb::new();
        db.put(
            "widgets",
            "storage",
            r#"{"disks":["home"]}"#.to_string(),
            Timestamp(5),
        );
        db.put("pages", "myjobs", "[1,2,3]".to_string(), Timestamp(9));
        let exported = db.export_json();
        let restored = IndexedDb::import_json(&exported).unwrap();
        assert_eq!(restored.record_count(), 2);
        assert_eq!(
            restored.get("widgets", "storage").unwrap().value,
            r#"{"disks":["home"]}"#.to_string()
        );
        assert_eq!(
            restored.get("pages", "myjobs").unwrap().fetched_at,
            Timestamp(9)
        );
    }

    #[test]
    fn import_rejects_garbage() {
        assert!(IndexedDb::import_json("not json").is_err());
    }

    #[test]
    fn overwrite_updates_timestamp() {
        let db = IndexedDb::new();
        db.put("w", "k", "1".to_string(), Timestamp(0));
        db.put("w", "k", "2".to_string(), Timestamp(50));
        let rec = db.get("w", "k").unwrap();
        assert_eq!(rec.value, "2".to_string());
        assert_eq!(rec.fetched_at, Timestamp(50));
    }
}
