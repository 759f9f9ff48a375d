//! The scheduler: multifactor priority, node selection, and EASY backfill.
//!
//! The goal is not to clone slurmctld's scheduler bit-for-bit but to produce
//! the *observable behaviour* the dashboard reports on: realistic mixes of
//! `Priority`/`Resources`/limit pending reasons, queue wait times that react
//! to load, backfilled short jobs, and per-account usage accounting.

pub mod backfill;
pub mod fit;
pub mod priority;

pub use backfill::{PlanInputs, ScheduleDecision};
pub use priority::{PassTerms, PriorityWeights, SharedTerms};
