//! Readiness polling without a dependency: raw-FFI `epoll` on Linux, a
//! `poll(2)` emulation elsewhere.
//!
//! The surface is the small slice of an event-loop API the server needs —
//! add/modify/remove an fd under a `u64` token, one timer, wait — plus
//! one-shot arming, the event loop's ownership rule: every loop thread
//! waits on the *same* poller, a one-shot fd (or the timer) is reported to
//! exactly one of them per arm, and nobody else hears of it until that
//! thread re-arms it. A report is the token alone: its owner finds out
//! what is ready by trying the I/O. No `mio`, no `libc` crate: the handful
//! of syscalls are declared here and fds live in [`OwnedFd`]s so they close
//! without an FFI `close`.
//!
//! [`OwnedFd`]: std::os::fd::OwnedFd

use std::io;

/// What to watch an fd for. Errors and hang-ups are reported under either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    Read,
    Write,
}

/// The token the poller's own timer (`Poller::set_timer`) reports under.
pub const TIMER_TOKEN: u64 = u64::MAX;

#[cfg(target_os = "linux")]
pub use epoll::Poller;

#[cfg(target_os = "linux")]
mod epoll {
    use super::{Interest, TIMER_TOKEN};
    use std::ffi::c_long;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::time::{Duration, Instant};

    // The kernel ABI: `struct epoll_event` is packed on x86 so the 12-byte
    // layout matches 32-bit userspace.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// `struct itimerspec`: two `timespec`s, interval then first expiry.
    #[repr(C)]
    struct ITimerSpec([c_long; 4]);

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLONESHOT: u32 = 1 << 30;
    const CLOCK_MONOTONIC: i32 = 1;
    const TFD_NONBLOCK_CLOEXEC: i32 = 0o4000 | 0o2000000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn timerfd_create(clockid: i32, flags: i32) -> i32;
        fn timerfd_settime(
            fd: i32,
            flags: i32,
            new: *const ITimerSpec,
            old: *mut ITimerSpec,
        ) -> i32;
    }

    fn owned(fd: i32) -> io::Result<OwnedFd> {
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: a non-negative return of `epoll_create1`/`timerfd_create`
        // is a fresh descriptor nobody else owns.
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    /// An epoll instance, shared by every loop thread: any of them may
    /// `add`/`modify`/`remove` while others are parked in `wait`, and the
    /// kernel hands each one-shot report to exactly one waiter.
    pub struct Poller {
        epfd: OwnedFd,
        timer: OwnedFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscalls, no pointers.
            let epfd = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            let timer = owned(unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK_CLOEXEC) })?;
            let poller = Poller { epfd, timer };
            poller.add(poller.timer.as_raw_fd(), TIMER_TOKEN, Interest::Read, true)?;
            Ok(poller)
        }

        fn ctl(
            &self,
            op: i32,
            fd: RawFd,
            interest: Interest,
            oneshot: bool,
            token: u64,
        ) -> io::Result<()> {
            let mut events = match interest {
                Interest::Read => EPOLLIN | EPOLLRDHUP,
                Interest::Write => EPOLLOUT,
            };
            if oneshot {
                events |= EPOLLONESHOT;
            }
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn add(
            &self,
            fd: RawFd,
            token: u64,
            interest: Interest,
            oneshot: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest, oneshot, token)
        }

        /// Rearm (or switch interest on) an fd added earlier — the one-shot
        /// partner of [`Poller::add`]. An fd that is ready already is
        /// reported again.
        pub(crate) fn modify(
            &self,
            fd: RawFd,
            token: u64,
            interest: Interest,
            oneshot: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest, oneshot, token)
        }

        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            // A disarmed one-shot fd still needs DEL before close (the epoll
            // registration survives disarm).
            self.ctl(EPOLL_CTL_DEL, fd, Interest::Read, false, 0)
        }

        /// Have [`TIMER_TOKEN`] reported once, to one waiter, at `at` (at
        /// once if that is past); `None` cancels. Replaces whatever was set.
        /// Callers serialize: two racing calls may leave either's time.
        pub(crate) fn set_timer(&self, at: Option<Instant>) -> io::Result<()> {
            // Relative, and never zero: an all-zero expiry disarms.
            let d = at.map(|at| {
                at.saturating_duration_since(Instant::now())
                    .max(Duration::from_nanos(1))
            });
            let spec = ITimerSpec([
                0,
                0,
                d.map_or(0, |d| d.as_secs().min(c_long::MAX as u64) as c_long),
                d.map_or(0, |d| d.subsec_nanos() as c_long),
            ]);
            // SAFETY: `spec` is a live `struct itimerspec`; no old value is
            // asked for. Setting the time also clears a pending expiry.
            let rc =
                unsafe { timerfd_settime(self.timer.as_raw_fd(), 0, &spec, std::ptr::null_mut()) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            self.modify(self.timer.as_raw_fd(), TIMER_TOKEN, Interest::Read, true)
        }

        /// Block until readiness or `timeout` (`None` = forever). The tokens
        /// of at most `max` reports are appended to `out`; the rest stay
        /// queued for the next `wait`, on whichever thread makes it.
        pub fn wait(
            &self,
            out: &mut Vec<u64>,
            max: usize,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; 64];
            let max = max.clamp(1, buf.len());
            let timeout_ms: i32 = match timeout {
                None => -1,
                // Round up so a 100µs deadline doesn't spin at timeout 0.
                Some(d) => d.as_micros().div_ceil(1_000).min(i32::MAX as u128) as i32,
            };
            let n = loop {
                // SAFETY: `buf` is live and holds at least `max` entries.
                let n = unsafe {
                    epoll_wait(
                        self.epfd.as_raw_fd(),
                        buf.as_mut_ptr(),
                        max as i32,
                        timeout_ms,
                    )
                };
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            out.extend(buf[..n].iter().map(|ev| ev.data));
            Ok(())
        }
    }
}

#[cfg(not(target_os = "linux"))]
pub use fallback::Poller;

/// `poll(2)` emulation for non-Linux unix: same API, O(fds) per wait. The
/// event loop never sees the difference. `poll` knows neither one-shot, nor
/// a timer, nor a set that changes under it, so all three are emulated: a
/// reported one-shot fd is disarmed until the next `modify`, which is only
/// race-free if one thread polls at a time (the others queue for the
/// turn); the timer caps that thread's timeout; and `add`/`modify`/
/// `set_timer` interrupt it through a socketpair so that it polls the new
/// set. Compiled into Linux test builds too — `poll(2)` exists there — so
/// the unit tests below hold both pollers to one contract.
#[cfg(any(test, not(target_os = "linux")))]
mod fallback {
    use super::{Interest, Waker, TIMER_TOKEN};
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::time::{Duration, Instant};

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;

    // `nfds_t`: unsigned long on Linux, unsigned int on the BSDs and macOS.
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    struct Reg {
        token: u64,
        interest: Interest,
        oneshot: bool,
        armed: bool,
    }

    #[derive(Default)]
    struct State {
        regs: HashMap<RawFd, Reg>,
        timer: Option<Instant>,
    }

    pub struct Poller {
        state: Mutex<State>,
        /// Held by the one thread inside `poll(2)`.
        turn: Mutex<()>,
        /// Woken on every change to `state`, always in the poll set.
        interrupt: Waker,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                state: Mutex::new(State::default()),
                turn: Mutex::new(()),
                interrupt: Waker::new()?,
            })
        }

        fn change(&self, apply: impl FnOnce(&mut State)) -> io::Result<()> {
            apply(&mut self.state.lock());
            self.interrupt.wake();
            Ok(())
        }

        pub fn add(
            &self,
            fd: RawFd,
            token: u64,
            interest: Interest,
            oneshot: bool,
        ) -> io::Result<()> {
            let reg = Reg {
                token,
                interest,
                oneshot,
                armed: true,
            };
            self.change(|st| {
                st.regs.insert(fd, reg);
            })
        }

        pub(crate) fn modify(
            &self,
            fd: RawFd,
            token: u64,
            interest: Interest,
            oneshot: bool,
        ) -> io::Result<()> {
            self.add(fd, token, interest, oneshot)
        }

        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            self.state.lock().regs.remove(&fd);
            Ok(())
        }

        pub(crate) fn set_timer(&self, at: Option<Instant>) -> io::Result<()> {
            self.change(|st| st.timer = at)
        }

        pub fn wait(
            &self,
            out: &mut Vec<u64>,
            max: usize,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let deadline = timeout.map(|d| Instant::now() + d);
            let _turn = self.turn.lock();
            loop {
                let (mut fds, timer) = {
                    let st = self.state.lock();
                    let armed = st.regs.iter().filter(|(_, r)| r.armed);
                    let fds = armed.map(|(fd, r)| PollFd {
                        fd: *fd,
                        events: match r.interest {
                            Interest::Read => POLLIN,
                            Interest::Write => POLLOUT,
                        },
                        revents: 0,
                    });
                    (fds.collect::<Vec<_>>(), st.timer)
                };
                fds.push(PollFd {
                    fd: self.interrupt.fd(),
                    events: POLLIN,
                    revents: 0,
                });
                let until = match (deadline, timer) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                let timeout_ms: i32 = match until {
                    None => -1,
                    // Round up so a 100µs deadline doesn't spin at timeout 0.
                    Some(t) => {
                        let d = t.saturating_duration_since(Instant::now());
                        d.as_micros().div_ceil(1_000).min(i32::MAX as u128) as i32
                    }
                };
                // SAFETY: `fds` is a live, exclusively borrowed array of
                // `fds.len()` `struct pollfd`-layout entries for the call.
                let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() != io::ErrorKind::Interrupted {
                        return Err(err);
                    }
                    continue;
                }
                let interrupt = fds.pop().expect("pushed above");
                if interrupt.revents != 0 {
                    self.interrupt.drain();
                }
                let now = Instant::now();
                let mut st = self.state.lock();
                if st.timer.is_some_and(|at| at <= now) {
                    st.timer = None;
                    out.push(TIMER_TOKEN);
                }
                for pfd in fds.iter().filter(|p| p.revents != 0) {
                    if out.len() >= max {
                        break; // still armed: the next turn reports it
                    }
                    // The set may have changed while `poll` slept.
                    if let Some(reg) = st.regs.get_mut(&pfd.fd).filter(|r| r.armed) {
                        reg.armed = !reg.oneshot;
                        out.push(reg.token);
                    }
                }
                if !out.is_empty() || deadline.is_some_and(|d| d <= now) {
                    return Ok(());
                }
                // Only the interrupt fired: poll again over the new set.
            }
        }
    }
}

/// A self-wakeup channel: its read half is registered with the poller, any
/// thread can `wake()` it. Built on a socketpair so no `pipe` FFI is
/// needed; a pending-wake flag keeps N queued wakes to one syscall.
pub struct Waker {
    tx: std::os::unix::net::UnixStream,
    rx: std::os::unix::net::UnixStream,
    pending: std::sync::atomic::AtomicBool,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker {
            tx,
            rx,
            pending: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// The fd to register for read.
    pub fn fd(&self) -> std::os::fd::RawFd {
        std::os::fd::AsRawFd::as_raw_fd(&self.rx)
    }

    /// Make the fd readable (idempotent until it is drained).
    pub fn wake(&self) {
        use std::io::Write;
        use std::sync::atomic::Ordering;
        if !self.pending.swap(true, Ordering::AcqRel) {
            let _ = (&self.tx).write(&[1u8]);
        }
    }

    /// Drain queued wake bytes; call before reading whatever the wake
    /// announced, so a wake that lands afterwards writes a fresh byte.
    pub fn drain(&self) {
        use std::io::Read;
        use std::sync::atomic::Ordering;
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
        self.pending.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// One body, both pollers: the event loop relies on exactly this much.
    macro_rules! poller_contract {
        ($name:ident, $Poller:ty) => {
            mod $name {
                use super::*;

                #[test]
                fn waits_for_readable_socket() {
                    let poller = <$Poller>::new().unwrap();
                    let (mut a, b) = std::os::unix::net::UnixStream::pair().unwrap();
                    b.set_nonblocking(true).unwrap();
                    poller.add(b.as_raw_fd(), 7, Interest::Read, true).unwrap();

                    let mut events = Vec::new();
                    poller
                        .wait(&mut events, 8, Some(Duration::from_millis(10)))
                        .unwrap();
                    assert!(events.is_empty(), "nothing readable yet");

                    a.write_all(b"x").unwrap();
                    poller
                        .wait(&mut events, 8, Some(Duration::from_secs(2)))
                        .unwrap();
                    assert_eq!(events.len(), 1);
                    assert_eq!(events, [7]);

                    // One-shot: without a rearm the same readiness is not re-reported.
                    events.clear();
                    poller
                        .wait(&mut events, 8, Some(Duration::from_millis(10)))
                        .unwrap();
                    assert!(events.is_empty(), "one-shot disarmed after report");

                    // Rearm and it fires again (data still buffered).
                    poller
                        .modify(b.as_raw_fd(), 7, Interest::Read, true)
                        .unwrap();
                    poller
                        .wait(&mut events, 8, Some(Duration::from_secs(2)))
                        .unwrap();
                    assert_eq!(events.len(), 1);
                    let mut one = [0u8; 1];
                    let _ = (&b).read(&mut one);
                    poller.remove(b.as_raw_fd()).unwrap();
                }

                #[test]
                fn timeout_elapses_without_events() {
                    let poller = <$Poller>::new().unwrap();
                    let (_a, b) = std::os::unix::net::UnixStream::pair().unwrap();
                    poller.add(b.as_raw_fd(), 1, Interest::Read, true).unwrap();
                    let start = Instant::now();
                    let mut events = Vec::new();
                    poller
                        .wait(&mut events, 8, Some(Duration::from_millis(30)))
                        .unwrap();
                    assert!(events.is_empty());
                    assert!(start.elapsed() >= Duration::from_millis(25));
                }

                #[test]
                fn waker_crosses_threads_and_coalesces() {
                    let poller = <$Poller>::new().unwrap();
                    let waker = Arc::new(Waker::new().unwrap());
                    poller.add(waker.fd(), 0, Interest::Read, false).unwrap();
                    let w2 = waker.clone();
                    let t = std::thread::spawn(move || {
                        for _ in 0..100 {
                            w2.wake();
                        }
                    });
                    let mut events = Vec::new();
                    poller
                        .wait(&mut events, 8, Some(Duration::from_secs(2)))
                        .unwrap();
                    assert_eq!(events, [0]);
                    t.join().unwrap();
                    waker.drain();
                    // Drained: no stale readiness left.
                    events.clear();
                    poller
                        .wait(&mut events, 8, Some(Duration::from_millis(10)))
                        .unwrap();
                    assert!(events.is_empty(), "wake bytes fully drained");
                    // And a wake after drain is delivered again.
                    waker.wake();
                    poller
                        .wait(&mut events, 8, Some(Duration::from_secs(2)))
                        .unwrap();
                    assert_eq!(events.len(), 1);
                }

                /// The ownership rule the event loop is built on: with two
                /// threads parked on one poller, a one-shot fd is reported
                /// once in total per arm — never to both.
                #[test]
                fn one_shot_report_goes_to_exactly_one_of_two_waiters() {
                    let poller = Arc::new(<$Poller>::new().unwrap());
                    let (mut a, b) = std::os::unix::net::UnixStream::pair().unwrap();
                    b.set_nonblocking(true).unwrap();
                    poller.add(b.as_raw_fd(), 9, Interest::Read, true).unwrap();

                    // Two waiters enter `wait` as the fd fires (on whichever
                    // side of it) and stay well past; count all they hear.
                    let round = |poller: &Arc<$Poller>, fire: &mut dyn FnMut()| -> usize {
                        let barrier = Arc::new(std::sync::Barrier::new(3));
                        let waiters: Vec<_> = (0..2)
                            .map(|_| {
                                let poller = poller.clone();
                                let barrier = barrier.clone();
                                std::thread::spawn(move || {
                                    let mut events = Vec::new();
                                    barrier.wait();
                                    poller
                                        .wait(&mut events, 8, Some(Duration::from_millis(300)))
                                        .unwrap();
                                    events.iter().filter(|&&t| t == 9).count()
                                })
                            })
                            .collect();
                        barrier.wait();
                        fire();
                        waiters.into_iter().map(|t| t.join().unwrap()).sum()
                    };

                    let reports = round(&poller, &mut || a.write_all(b"x").unwrap());
                    assert_eq!(reports, 1, "one readable one-shot fd, one report");
                    // Still readable, not re-armed: silence.
                    assert_eq!(round(&poller, &mut || {}), 0);
                    // A re-arm from a third thread, while both are parked,
                    // earns exactly one more.
                    let reports = round(&poller, &mut || {
                        poller
                            .modify(b.as_raw_fd(), 9, Interest::Read, true)
                            .unwrap()
                    });
                    assert_eq!(reports, 1, "one re-arm, one more report");
                }

                /// The timer is one more one-shot event: reported once, to
                /// one waiter, not before its time; re-set to fire again.
                #[test]
                fn timer_reports_once_and_can_be_moved_or_cancelled() {
                    let poller = <$Poller>::new().unwrap();
                    let mut events = Vec::new();
                    let start = Instant::now();
                    poller
                        .set_timer(Some(start + Duration::from_millis(30)))
                        .unwrap();
                    poller
                        .wait(&mut events, 8, Some(Duration::from_secs(2)))
                        .unwrap();
                    assert_eq!(events, [TIMER_TOKEN]);
                    assert!(start.elapsed() >= Duration::from_millis(25));
                    events.clear();
                    poller
                        .wait(&mut events, 8, Some(Duration::from_millis(20)))
                        .unwrap();
                    assert!(events.is_empty(), "fired once, not re-set");

                    // Set far out, moved earlier; a time already past fires now.
                    poller
                        .set_timer(Some(start + Duration::from_secs(60)))
                        .unwrap();
                    poller.set_timer(Some(start)).unwrap();
                    poller
                        .wait(&mut events, 8, Some(Duration::from_secs(2)))
                        .unwrap();
                    assert_eq!(events, [TIMER_TOKEN]);
                    events.clear();

                    poller
                        .set_timer(Some(Instant::now() + Duration::from_millis(10)))
                        .unwrap();
                    poller.set_timer(None).unwrap();
                    poller
                        .wait(&mut events, 8, Some(Duration::from_millis(40)))
                        .unwrap();
                    assert!(events.is_empty(), "cancelled");
                }
            }
        };
    }

    #[cfg(target_os = "linux")]
    poller_contract!(epoll, super::super::epoll::Poller);
    poller_contract!(poll_fallback, super::super::fallback::Poller);
}
