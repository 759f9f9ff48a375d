//! Request coalescing: when many dashboard users miss the cache for the same
//! key at once (e.g. the squeue entry just expired and 50 browsers refresh),
//! only one backend query runs; the rest wait for its result. This is the
//! mechanism that protects the Slurm daemons "from repeated queries in close
//! succession" (paper §2.4).

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;

struct Flight<T> {
    result: Mutex<Option<T>>,
    done: Condvar,
}

/// Coalesces concurrent computations keyed by string.
pub struct SingleFlight<T> {
    inflight: Mutex<HashMap<String, Arc<Flight<T>>>>,
}

impl<T: Clone> SingleFlight<T> {
    pub fn new() -> SingleFlight<T> {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Run `load` for `key`, unless an identical load is already running, in
    /// which case wait for its result. Returns `(value, was_leader)`.
    pub fn work(&self, key: &str, load: impl FnOnce() -> T) -> (T, bool) {
        let (flight, leader) = {
            let mut inflight = self.inflight.lock();
            match inflight.get(key) {
                Some(f) => (f.clone(), false),
                None => {
                    let f = Arc::new(Flight {
                        result: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    inflight.insert(key.to_string(), f.clone());
                    (f, true)
                }
            }
        };

        if leader {
            let value = load();
            {
                let mut slot = flight.result.lock();
                *slot = Some(value.clone());
            }
            flight.done.notify_all();
            self.inflight.lock().remove(key);
            (value, true)
        } else {
            let mut slot = flight.result.lock();
            while slot.is_none() {
                flight.done.wait(&mut slot);
            }
            (slot.clone().expect("leader stored a value"), false)
        }
    }
}

impl<T: Clone> Default for SingleFlight<T> {
    fn default() -> SingleFlight<T> {
        SingleFlight::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    impl<T: Clone> SingleFlight<T> {
        /// How many distinct keys are currently being computed.
        fn inflight_count(&self) -> usize {
            self.inflight.lock().len()
        }
    }

    #[test]
    fn single_caller_is_leader() {
        let sf = SingleFlight::<u32>::new();
        let (v, leader) = sf.work("k", || 42);
        assert_eq!(v, 42);
        assert!(leader);
        assert_eq!(sf.inflight_count(), 0);
    }

    #[test]
    fn concurrent_callers_coalesce() {
        let sf = Arc::new(SingleFlight::<u64>::new());
        let loads = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let sf = sf.clone();
            let loads = loads.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let (v, leader) = sf.work("slow", || {
                    loads.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(50));
                    7
                });
                (v, leader)
            }));
        }
        let results: Vec<(u64, bool)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.iter().all(|(v, _)| *v == 7));
        let leaders = results.iter().filter(|(_, l)| *l).count();
        assert_eq!(leaders, 1, "exactly one leader");
        assert_eq!(loads.load(Ordering::SeqCst), 1, "the load ran once");
    }

    #[test]
    fn different_keys_run_independently() {
        let sf = Arc::new(SingleFlight::<String>::new());
        let mut handles = Vec::new();
        for i in 0..4 {
            let sf = sf.clone();
            handles.push(std::thread::spawn(move || {
                sf.work(&format!("k{i}"), move || format!("v{i}")).0
            }));
        }
        let mut got: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec!["v0", "v1", "v2", "v3"]);
    }

    #[test]
    fn sequential_calls_each_lead() {
        let sf = SingleFlight::<u32>::new();
        let (_, l1) = sf.work("k", || 1);
        let (_, l2) = sf.work("k", || 2);
        assert!(l1 && l2, "no coalescing without concurrency");
    }
}
