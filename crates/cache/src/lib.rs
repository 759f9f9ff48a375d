//! Dual-layer caching, mirroring the paper's design (§2.4):
//!
//! * **Server side** — [`ttl::TtlCache`] plus [`singleflight::SingleFlight`],
//!   combined in [`fetch::CachedFetcher`]: the Rails in-memory cache analog
//!   that absorbs repeated Slurm queries, with a different expiration time
//!   per data source. It is the dashboard's *only* server cache: it stores
//!   [`body::Body`] values (bytes serialized once on fill, plus their ETag),
//!   tags every entry with the publisher version it was built from, and has
//!   one freshness rule (`version >= min_version` and younger than its TTL),
//!   one last-good read, one single-flight fill and one `purge_below`.
//! * **Client side** — [`clientdb::IndexedDb`]: an IndexedDB-analog keyed
//!   store the headless "browser" uses to render instantly from cached data
//!   and revalidate in the background.
//!
//! All expiry is driven by `hpcdash_simtime::Clock`, so cache behaviour is
//! deterministic under simulated time.

pub mod body;
pub mod breaker;
pub mod clientdb;
pub mod fetch;
pub mod singleflight;
pub mod stats;
pub mod ttl;

pub use body::{etag_for, Body};
pub use breaker::{BreakerBoard, BreakerConfig, BreakerSnapshot, BreakerState};
pub use clientdb::{IndexedDb, StoredRecord};
pub use fetch::{CachedFetcher, GraceOutcome};
pub use singleflight::SingleFlight;
pub use stats::{CacheStats, CacheStatsSnapshot};
pub use ttl::{LastGood, TtlCache, NO_TTL};
