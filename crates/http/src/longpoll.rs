//! Long-poll support: the park budget, and the event-loop park protocol.
//!
//! Two generations coexist here. [`ParkBudget`]/[`ParkPermit`] are the
//! thread-era cap: a blocking handler reserves a slot before occupying a
//! worker and sheds with `503 + Retry-After` past the cap. On the event
//! loop the same budget still gates *parked connections*, but no thread
//! waits: a handler that would block instead returns a [`ParkDirective`]
//! (via `Response::with_park`) and the event loop keeps the connection in a
//! `Parked` state. When data arrives, whoever produced it fires the
//! directive's [`ParkWaker`]; a loop thread re-dispatches the original
//! request with a `x-hpcdash-park-final` marker and the handler answers
//! immediately with whatever is there — park-at-most-once, so the exchange
//! always terminates.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A cap on concurrently parked workers.
#[derive(Debug)]
pub struct ParkBudget {
    max: usize,
    parked: AtomicUsize,
}

impl ParkBudget {
    /// Allow at most `max` workers to park at once (at least one).
    pub fn new(max: usize) -> ParkBudget {
        ParkBudget {
            max: max.max(1),
            parked: AtomicUsize::new(0),
        }
    }

    /// Try to reserve a parking slot; `None` means the handler must shed.
    pub fn try_acquire(self: &Arc<Self>) -> Option<ParkPermit> {
        let acquired = self
            .parked
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.max).then_some(n + 1)
            })
            .is_ok();
        acquired.then(|| ParkPermit {
            budget: self.clone(),
        })
    }

    /// Workers currently parked.
    pub fn parked(&self) -> usize {
        self.parked.load(Ordering::Acquire)
    }

    pub fn max(&self) -> usize {
        self.max
    }
}

/// RAII parking slot: dropping it (on response, panic, or timeout) frees
/// the slot for the next long-poller.
#[derive(Debug)]
pub struct ParkPermit {
    budget: Arc<ParkBudget>,
}

impl Drop for ParkPermit {
    fn drop(&mut self) {
        self.budget.parked.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Inserted (forcibly, overwriting anything the client sent) into every
/// request dispatched from the event loop. Handlers that see it may return
/// a [`ParkDirective`] instead of blocking; handlers dispatched any other
/// way (tests, in-process dispatch) fall back to blocking waits.
pub const CONN_PARK_HEADER: &str = "x-hpcdash-conn-park";

/// Marks the re-dispatch of a previously parked request (wake or deadline).
/// The handler must answer immediately with whatever is available — a park
/// happens at most once per exchange.
pub const PARK_FINAL_HEADER: &str = "x-hpcdash-park-final";

/// A one-shot, edge-coalescing wake signal connecting a data producer (the
/// push hub) to whatever holds the parked connection (the event loop). `wake` is
/// idempotent; if it fires before the owner installs its hook, the hook
/// runs immediately on installation — no lost wakeup either way.
#[derive(Default)]
pub struct ParkWaker {
    inner: Mutex<WakerState>,
}

#[derive(Default)]
struct WakerState {
    fired: bool,
    hook: Option<Box<dyn FnOnce() + Send>>,
}

impl ParkWaker {
    pub fn new() -> Arc<ParkWaker> {
        Arc::new(ParkWaker::default())
    }

    /// Signal that data is ready. The first call runs the hook (if any);
    /// later calls are no-ops until the owner re-parks with a fresh waker.
    pub fn wake(&self) {
        let hook = {
            let mut st = self.inner.lock();
            if st.fired {
                return;
            }
            st.fired = true;
            st.hook.take()
        };
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Install the owner's callback. Runs it on the spot when the waker
    /// already fired (the producer won the race).
    pub fn set_hook(&self, hook: impl FnOnce() + Send + 'static) {
        let mut st = self.inner.lock();
        if st.fired {
            drop(st);
            hook();
        } else {
            st.hook = Some(Box::new(hook));
        }
    }

    pub fn fired(&self) -> bool {
        self.inner.lock().fired
    }
}

impl std::fmt::Debug for ParkWaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParkWaker")
            .field("fired", &self.fired())
            .finish()
    }
}

/// A handler's instruction to the event loop: hold this connection open
/// for up to `max_wait`, re-dispatch when `waker` fires (or the deadline
/// lapses). The permit keeps the park accounted against [`ParkBudget`]
/// until the exchange completes, so shed semantics are identical to the
/// thread era — only the unit changed from worker to connection.
#[derive(Clone)]
pub struct ParkDirective {
    pub waker: Arc<ParkWaker>,
    pub max_wait: Duration,
    pub permit: Option<Arc<ParkPermit>>,
}

impl std::fmt::Debug for ParkDirective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParkDirective")
            .field("max_wait", &self.max_wait)
            .field("fired", &self.waker.fired())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waker_hook_runs_once_whoever_wins() {
        // Hook installed first, then wake.
        let w = ParkWaker::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        w.set_hook(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        w.wake();
        w.wake();
        assert_eq!(hits.load(Ordering::SeqCst), 1, "double wake coalesced");

        // Wake first, then hook: runs immediately.
        let w = ParkWaker::new();
        w.wake();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        w.set_hook(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1, "late hook fires on install");
        assert!(w.fired());
    }

    #[test]
    fn directive_releases_permit_on_drop() {
        let budget = Arc::new(ParkBudget::new(1));
        let permit = budget.try_acquire().unwrap();
        let d = ParkDirective {
            waker: ParkWaker::new(),
            max_wait: Duration::from_secs(1),
            permit: Some(Arc::new(permit)),
        };
        let d2 = d.clone();
        assert_eq!(budget.parked(), 1, "clones share one slot");
        drop(d);
        assert_eq!(budget.parked(), 1);
        drop(d2);
        assert_eq!(budget.parked(), 0, "last clone frees the slot");
    }

    #[test]
    fn budget_caps_and_releases() {
        let budget = Arc::new(ParkBudget::new(2));
        let a = budget.try_acquire().expect("slot 1");
        let _b = budget.try_acquire().expect("slot 2");
        assert_eq!(budget.parked(), 2);
        assert!(budget.try_acquire().is_none(), "third parker is shed");
        drop(a);
        assert_eq!(budget.parked(), 1);
        assert!(budget.try_acquire().is_some(), "freed slot is reusable");
    }

    #[test]
    fn zero_budget_clamped_to_one() {
        let budget = Arc::new(ParkBudget::new(0));
        let _a = budget.try_acquire().expect("at least one slot");
        assert!(budget.try_acquire().is_none());
    }

    #[test]
    fn concurrent_acquires_never_exceed_cap() {
        let budget = Arc::new(ParkBudget::new(4));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let budget = budget.clone();
            let peak = peak.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    if let Some(permit) = budget.try_acquire() {
                        peak.fetch_max(budget.parked(), Ordering::AcqRel);
                        drop(permit);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::Acquire) <= 4, "cap never exceeded");
        assert_eq!(budget.parked(), 0, "all permits returned");
    }
}
