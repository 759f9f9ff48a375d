//! Full-page renderers (paper §4-§7).
//!
//! Every page has two render paths, mirroring the paper's load strategy
//! (§2.3):
//!
//! * [`shell`](layout::shell) — the instantly served HTML scaffold with
//!   loading placeholders; component data arrives afterwards from the API
//!   routes. Time-to-first-byte is independent of any Slurm query.
//! * `render_full(payload)` — the fully materialized page given the API
//!   payloads, used by server-side tests and examples.

pub mod clusterstatus;
pub mod federation;
pub mod homepage;
pub mod joboverview;
pub mod jobperf;
pub mod layout;
pub mod myjobs;
pub mod newsall;
pub mod nodeoverview;
pub mod observatory;
