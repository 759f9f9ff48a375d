//! The [`Clock`] abstraction and its two implementations.

use crate::Timestamp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// Source of "now". All simulator components take a [`SharedClock`] so a test
/// or a benchmark can drive time explicitly.
pub trait Clock: Send + Sync {
    fn now(&self) -> Timestamp;
}

/// A reference-counted clock handle.
pub type SharedClock = Arc<dyn Clock>;

/// A deterministic, manually advanced clock. Cloning shares the underlying
/// time, so daemons, caches and clients all observe the same instant.
#[derive(Debug, Clone)]
pub struct SimClock {
    now: Arc<AtomicU64>,
}

impl SimClock {
    /// Create a clock starting at `start` (seconds since the Unix epoch).
    pub fn new(start: Timestamp) -> SimClock {
        SimClock {
            now: Arc::new(AtomicU64::new(start.0)),
        }
    }

    /// A clock starting at 2026-07-04T08:00:00Z, a plausible "weekday
    /// morning" on a production cluster.
    pub fn default_epoch() -> SimClock {
        SimClock::new(Timestamp(20_638 * 86_400 + 8 * 3_600))
    }

    /// Advance time by `secs` seconds and return the new instant.
    pub fn advance(&self, secs: u64) -> Timestamp {
        Timestamp(self.now.fetch_add(secs, Ordering::SeqCst) + secs)
    }

    /// Jump to an absolute instant. Panics if this would move time backwards;
    /// the simulator's invariant is that time is monotone.
    pub fn set(&self, t: Timestamp) {
        let prev = self.now.swap(t.0, Ordering::SeqCst);
        assert!(
            prev <= t.0,
            "SimClock must not move backwards ({prev} -> {})",
            t.0
        );
    }

    /// An `Arc<dyn Clock>` view of this clock.
    pub fn shared(&self) -> SharedClock {
        Arc::new(self.clone())
    }
}

impl Clock for SimClock {
    fn now(&self) -> Timestamp {
        Timestamp(self.now.load(Ordering::SeqCst))
    }
}

/// Wall-clock time, for running the dashboard "live".
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Timestamp {
        let secs = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("system clock set before 1970")
            .as_secs();
        Timestamp(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_advances() {
        let clock = SimClock::new(Timestamp(100));
        assert_eq!(clock.now(), Timestamp(100));
        assert_eq!(clock.advance(25), Timestamp(125));
        assert_eq!(clock.now(), Timestamp(125));
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new(Timestamp(0));
        let b = a.clone();
        a.advance(10);
        assert_eq!(b.now(), Timestamp(10));
        let shared: SharedClock = b.shared();
        a.advance(5);
        assert_eq!(shared.now(), Timestamp(15));
    }

    #[test]
    fn set_moves_forward() {
        let clock = SimClock::new(Timestamp(50));
        clock.set(Timestamp(80));
        assert_eq!(clock.now(), Timestamp(80));
    }

    #[test]
    #[should_panic(expected = "must not move backwards")]
    fn set_backwards_panics() {
        let clock = SimClock::new(Timestamp(50));
        clock.set(Timestamp(10));
    }

    #[test]
    fn system_clock_is_sane() {
        // Any machine running this test is well past 2020.
        assert!(SystemClock.now().as_secs() > 1_577_836_800);
    }

    #[test]
    fn concurrent_advance_is_atomic() {
        let clock = SimClock::new(Timestamp(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = clock.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1_000 {
                    c.advance(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(clock.now(), Timestamp(8_000));
    }
}
