//! `hpcdash-push` — the real-time event fan-out hub.
//!
//! Every live-updates reader is a cursor into slurmctld's one `EventLog`.
//! The legacy poll (`/api/updates?since=`) leaves the cursor with the client
//! and re-resolves the viewer's account set per request, so N pollers cost N
//! `scontrol show assoc` RPCs per refresh interval — the same shape as the
//! squeue storms the paper's caching exists to prevent (§3.2). A [`Hub`]
//! holds the cursor for each live tab instead, with the tab's visibility
//! check resolved once: a long-poll reads the log past the cursor and, when
//! there is nothing to read, parks until a visible event is appended or a
//! deadline passes. Delivery no longer touches the daemons at all.
//!
//! Design points (see DESIGN.md §3):
//! - **Sharded registry** — subscribers are spread over shards so subscribe
//!   and fan-out contend on a fraction of the registry, not all of it.
//! - **Pre-filtered visibility** — each subscriber's [`Visibility`] check is
//!   built once at subscribe time by the owner's [`VisibilityResolver`] and
//!   rebuilt on a TTL, so a read evaluates a resolved check per event
//!   instead of a per-poll daemon query. The hub holds no privacy rule; the
//!   dashboard builds each check from the viewer's scope profile.
//! - **Cursors, not copies** — an appended event is stored once, in the
//!   log; publishing it only wakes the subscribers that may see it. A
//!   subscriber that stops reading is never allowed to block the publisher
//!   and costs no memory as events pile up: once the log's bounded window
//!   moves past its cursor, its next read reports `resync_required` (it
//!   refetches tables, like a truncated poll cursor).
//! - **Condvar wakeups** — `wait` parks until a visible event lands, a
//!   discontinuity passes, or the deadline does, so a long-poll route holds
//!   a worker without burning CPU.

mod hub;

pub use hub::{Delivery, Hub, HubConfig, SubscriberHandle, Visibility, VisibilityResolver};
