//! Colour-coding rules, centralized so widgets and pages agree.
//!
//! * Utilization bars: green < 70% ≤ yellow < 90% ≤ red (paper §3.3).
//! * Node grid: green in use / faded green idle / yellow drained / orange
//!   maintenance / red offline (paper §6).
//! * Announcements: outage red, maintenance yellow, rest gray (paper §3.1).
//! * Job states: the state chip colours used across My Jobs & Job Overview.

use hpcdash_news::Category;
use hpcdash_slurm::job::JobState;
use hpcdash_slurm::node::NodeState;

/// A named colour class (maps to a CSS class in the frontend).
pub type ColorClass = &'static str;

/// Utilization fraction (0..=1) to bar colour: the 70/90 thresholds.
pub(crate) fn utilization_color(fraction: f64) -> ColorClass {
    if fraction < 0.70 {
        "green"
    } else if fraction < 0.90 {
        "yellow"
    } else {
        "red"
    }
}

/// Node-grid cell colour (paper §6's legend).
pub(crate) fn node_color(state: NodeState) -> ColorClass {
    match state {
        NodeState::Allocated | NodeState::Mixed => "green",
        NodeState::Idle => "faded-green",
        NodeState::Drained => "yellow",
        NodeState::Maint => "orange",
        NodeState::Down => "red",
    }
}

/// Announcement urgency colour (paper §3.1).
pub(crate) fn announcement_color(category: Category) -> ColorClass {
    match category {
        Category::Outage => "red",
        Category::Maintenance => "yellow",
        Category::Feature | Category::News => "gray",
    }
}

/// Job-state chip colour.
pub(crate) fn job_state_color(state: JobState) -> ColorClass {
    match state {
        JobState::Running => "green",
        JobState::Pending => "blue",
        JobState::Suspended => "orange",
        JobState::Completed => "gray-green",
        JobState::Failed | JobState::NodeFail | JobState::OutOfMemory => "red",
        JobState::Cancelled => "gray",
        JobState::Timeout => "orange",
        JobState::Preempted => "purple",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_thresholds_match_paper() {
        assert_eq!(utilization_color(0.0), "green");
        assert_eq!(utilization_color(0.6999), "green");
        assert_eq!(utilization_color(0.70), "yellow");
        assert_eq!(utilization_color(0.8999), "yellow");
        assert_eq!(utilization_color(0.90), "red");
        assert_eq!(utilization_color(1.0), "red");
    }

    #[test]
    fn node_legend() {
        assert_eq!(node_color(NodeState::Allocated), "green");
        assert_eq!(node_color(NodeState::Mixed), "green");
        assert_eq!(node_color(NodeState::Idle), "faded-green");
        assert_eq!(node_color(NodeState::Drained), "yellow");
        assert_eq!(node_color(NodeState::Maint), "orange");
        assert_eq!(node_color(NodeState::Down), "red");
    }

    #[test]
    fn announcement_urgency() {
        assert_eq!(announcement_color(Category::Outage), "red");
        assert_eq!(announcement_color(Category::Maintenance), "yellow");
        assert_eq!(announcement_color(Category::News), "gray");
        assert_eq!(announcement_color(Category::Feature), "gray");
    }

    #[test]
    fn job_states_have_colors() {
        for s in JobState::ALL {
            assert!(!job_state_color(s).is_empty());
        }
        assert_eq!(job_state_color(JobState::Failed), "red");
        assert_eq!(job_state_color(JobState::Running), "green");
    }
}
