//! The headless "browser": what a user's browser tab does in the paper's
//! design, implemented natively so experiments can measure it.
//!
//! Each client keeps an IndexedDB-analog cache of API responses
//! ([`hpcdash_cache::IndexedDb`]). On page load it renders instantly from
//! cache when possible and revalidates stale entries — so *perceived*
//! latency (time until the user sees data) is separated from *network*
//! traffic (requests that actually hit the backend), which is exactly the
//! distinction the paper's dual-caching argument rests on (§2.4).

#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_macros))]

pub mod browser;
pub mod live;
pub mod loadgen;

pub use browser::{DashboardClient, FetchOutcome, FetchResult, PageLoad};
pub use live::{Event, LiveSubscriber, PollOutcome, StreamTransport, Updates};
pub use loadgen::{admin_observability_paths, LoadConfig, LoadReport};
