//! Quality-of-Service levels: priority boosts plus per-user limits.

use serde::{Deserialize, Serialize};

/// A QoS definition. The dashboard surfaces the QoS name in the My Jobs
/// table (paper §4.1); the scheduler uses priority and the per-user caps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Qos {
    pub name: String,
    /// Additive priority contribution.
    pub priority: u32,
    /// Cap on simultaneously running jobs per user, if any.
    pub max_jobs_per_user: Option<u32>,
    /// Cap on simultaneously submitted (pending+running) jobs per user.
    pub max_submit_per_user: Option<u32>,
    /// Usage multiplier applied when charging the association
    /// (e.g. a "standby" QoS bills at 0).
    pub usage_factor: f64,
}

impl Qos {
    pub fn new(name: impl Into<String>, priority: u32) -> Qos {
        Qos {
            name: name.into(),
            priority,
            max_jobs_per_user: None,
            max_submit_per_user: None,
            usage_factor: 1.0,
        }
    }

    pub(crate) fn with_max_jobs_per_user(mut self, n: u32) -> Qos {
        self.max_jobs_per_user = Some(n);
        self
    }

    /// The standard trio most clusters configure.
    pub fn standard_set() -> Vec<Qos> {
        vec![
            Qos::new("normal", 0),
            Qos::new("high", 10_000).with_max_jobs_per_user(8),
            Qos {
                usage_factor: 0.0,
                ..Qos::new("standby", 0).with_max_jobs_per_user(4)
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let q = Qos::new("high", 10_000).with_max_jobs_per_user(8);
        assert_eq!(q.priority, 10_000);
        assert_eq!(q.max_jobs_per_user, Some(8));
        assert_eq!(q.usage_factor, 1.0);
    }

    #[test]
    fn standard_set_contains_normal() {
        let set = Qos::standard_set();
        assert!(set.iter().any(|q| q.name == "normal"));
        let standby = set.iter().find(|q| q.name == "standby").unwrap();
        assert_eq!(standby.usage_factor, 0.0);
    }
}
