//! `hpcdash-push` — the real-time event fan-out hub.
//!
//! The legacy updates feed is a stateless poll: every `/api/updates` request
//! scans the whole `EventLog` and re-resolves the viewer's account set, so N
//! users cost N scans + N `scontrol show assoc` RPCs per refresh interval —
//! the same shape as the squeue storms the paper's caching exists to prevent
//! (§3.2). This crate inverts the data flow: `slurmctld` publishes each job
//! transition once into a [`Hub`], which fans it out to pre-filtered,
//! bounded per-subscriber queues. A long-poll route then parks a server
//! worker on the subscriber's condvar until events arrive or a deadline
//! passes; delivery cost no longer touches the daemons at all.
//!
//! Design points (see DESIGN.md §3):
//! - **Sharded registry** — subscribers are spread over shards so subscribe
//!   and fan-out contend on a fraction of the registry, not all of it.
//! - **Pre-filtered visibility** — each subscriber's [`Visibility`] check is
//!   built once at subscribe time by the owner's [`VisibilityResolver`] and
//!   rebuilt on a TTL, so fan-out evaluates a resolved check per event
//!   instead of a per-poll daemon query. The hub holds no privacy rule; the
//!   dashboard builds each check from the viewer's scope profile.
//! - **Coalesce-to-resync overflow** — a subscriber that stops draining is
//!   never allowed to block the publisher: when its bounded queue fills,
//!   the queue is dropped wholesale and the subscriber is marked
//!   `resync_required` (it refetches tables, like a truncated poll cursor).
//! - **Condvar wakeups** — `wait` parks until the queue is non-empty, a
//!   resync is pending, or the deadline passes, so a long-poll route holds
//!   a worker without burning CPU.

mod hub;

pub use hub::{Delivery, Hub, HubConfig, SubscriberHandle, Visibility, VisibilityResolver};
