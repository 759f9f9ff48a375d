//! Synthetic workload generation: the stand-in for a production cluster's
//! users and traffic.
//!
//! Everything is seeded and deterministic: the same scenario seed produces
//! the same accounts, users, job trace, storage usage and announcements, so
//! tests and the benchmark are reproducible run to run.

pub mod driver;
pub mod federation;
pub mod jobs;
pub mod population;
pub mod scenario;

pub use driver::SimDriver;
pub use federation::{FederatedScenario, FederationConfig, FederationDriver};
pub use jobs::{JobMix, TraceGenerator};
pub use population::{Population, PopulationConfig};
pub use scenario::{Scenario, ScenarioConfig};
