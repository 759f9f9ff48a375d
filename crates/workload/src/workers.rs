//! The process's site workers: the calling thread plus
//! `available_parallelism() − 1` helper threads.
//!
//! Helpers are spawned together on first use and live until the process
//! exits, each looping over its own task queue. A short-lived thread per
//! call would be simpler, but each new thread takes whichever glibc malloc
//! arena was freed last, so the heap a dropped set-up gave back is not
//! reused and the peak RSS climbs; a helper that persists keeps one arena.
//!
//! A task must not unwind: callers catch their own panics and carry them
//! back, so a helper survives every task it runs.

use std::num::NonZeroUsize;
use std::sync::mpsc::{self, Sender};
use std::sync::OnceLock;
use std::thread;

type Task = Box<dyn FnOnce() + Send>;

/// Workers available to share work: the calling thread counts as one.
pub(crate) fn count() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Queue `task` on helper `helper` (`0..count() - 1`), spawning the helpers
/// if none runs yet.
pub(crate) fn run_on(helper: usize, task: impl FnOnce() + Send + 'static) {
    static HELPERS: OnceLock<Vec<Sender<Task>>> = OnceLock::new();
    let helpers = HELPERS.get_or_init(|| {
        (1..count())
            .map(|i| {
                let (tx, rx) = mpsc::channel::<Task>();
                thread::Builder::new()
                    .name(format!("site-worker-{i}"))
                    .spawn(move || rx.into_iter().for_each(|task| task()))
                    .expect("spawn a site worker");
                tx
            })
            .collect()
    });
    helpers[helper]
        .send(Box::new(task))
        .expect("site workers live as long as the process");
}
