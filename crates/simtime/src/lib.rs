//! Simulated and real clocks, plus Slurm-style time parsing and formatting.
//!
//! Everything in the `hpcdash` workspace that needs to know "what time is it"
//! goes through the [`Clock`] trait so that simulations and tests are fully
//! deterministic. [`SimClock`] is a shared, atomically advanced clock;
//! [`SystemClock`] reads the host's wall clock for live deployments.
//!
//! The module also implements the subset of Slurm's time grammar the
//! dashboard needs: ISO-like timestamps (`2026-07-04T09:30:00`), elapsed
//! durations (`1-02:03:04`), and time limits (`30:00`, `2-00:00:00`,
//! `UNLIMITED`).

mod civil;
mod clock;
mod timefmt;

pub use civil::CivilDateTime;
pub use clock::{Clock, SharedClock, SimClock, SystemClock};
pub use timefmt::{
    format_duration, parse_duration, parse_timelimit, parse_timestamp, write_num, Ascii, Elapsed,
    Sink, TimeLimit,
};

use serde::{Deserialize, Serialize};

/// Seconds since the Unix epoch. The simulator usually starts at some
/// realistic 2026 date so formatted timestamps look like production output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Timestamp(pub u64);

impl Timestamp {
    pub const ZERO: Timestamp = Timestamp(0);

    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Saturating difference `self - earlier` in seconds.
    pub fn since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    pub fn plus(self, secs: u64) -> Timestamp {
        Timestamp(self.0 + secs)
    }

    pub fn minus(self, secs: u64) -> Timestamp {
        Timestamp(self.0.saturating_sub(secs))
    }

    /// Render in Slurm's `%Y-%m-%dT%H:%M:%S` format.
    pub fn to_slurm(self) -> String {
        self.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp(1_000);
        assert_eq!(t.plus(50).as_secs(), 1_050);
        assert_eq!(t.minus(2_000), Timestamp::ZERO);
        assert_eq!(t.plus(70).since(t), 70);
        assert_eq!(t.since(t.plus(70)), 0, "since saturates at zero");
    }

    #[test]
    fn timestamp_display_is_slurm_format() {
        // 2026-07-04 00:00:00 UTC
        let t = Timestamp(1_783_123_200);
        assert_eq!(t.to_string(), "2026-07-04T00:00:00");
    }

    #[test]
    fn timestamp_ordering() {
        assert!(Timestamp(5) < Timestamp(6));
        assert_eq!(Timestamp(5), Timestamp(5));
    }
}
