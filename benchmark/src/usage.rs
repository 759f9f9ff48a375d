//! Process CPU time and peak resident memory from `getrusage(2)`: both are
//! end-to-end metrics, and the call touches no file.

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU of every thread of this process.
    pub cpu_ns: u64,
    pub peak_rss_kb: u64,
}

pub fn usage() -> Usage {
    let mut ru = RUsage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines (144 bytes), and RUSAGE_SELF is a valid
    // `who`; the call writes only into `ru`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let micros = |t: &Timeval| (t.sec as u64) * 1_000_000 + t.usec as u64;
    Usage {
        cpu_ns: (micros(&ru.utime) + micros(&ru.stime)) * 1_000,
        peak_rss_kb: ru.maxrss as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_and_rss_is_plausible() {
        let before = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let after = usage();
        assert!(after.cpu_ns > before.cpu_ns, "spinning burns CPU time");
        assert!(after.peak_rss_kb > 500, "a process holds more than 0.5 MB");
        assert_eq!(std::mem::size_of::<RUsage>(), 144);
    }
}
