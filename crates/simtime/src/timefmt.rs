//! Slurm time grammar: timestamps, elapsed durations, and time limits.
//!
//! Every element of the grammar has one writer, a byte writer:
//! `write_slurm(out)` appends the element's ASCII text to a [`Sink`] — a
//! command's output bytes or a JSON body — with no `fmt::Formatter` and no
//! `String` in between. `Display` is the same writer into an [`Ascii`] on
//! the stack, and `to_slurm()` and `format_*` are `to_string()`, for
//! callers that keep the text. The parsers allocate nothing and try the
//! writer's own fixed shape before the general grammar.

use crate::civil::CivilDateTime;
use crate::Timestamp;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Where the byte writers of the Slurm grammar append their text, which is
/// ASCII: a command's output or a JSON body (a `Vec<u8>`), or an [`Ascii`]
/// on the stack.
pub trait Sink {
    fn put(&mut self, ascii: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, ascii: &[u8]) {
        self.extend_from_slice(ascii);
    }
}

/// Up to `N` bytes of a byte writer's text, on the stack: what the
/// grammar's `Display` impls write from.
pub struct Ascii<const N: usize> {
    bytes: [u8; N],
    len: usize,
}

impl<const N: usize> Default for Ascii<N> {
    fn default() -> Self {
        Ascii {
            bytes: [0; N],
            len: 0,
        }
    }
}

impl<const N: usize> Sink for Ascii<N> {
    fn put(&mut self, ascii: &[u8]) {
        let end = self.len + ascii.len();
        self.bytes[self.len..end].copy_from_slice(ascii);
        self.len = end;
    }
}

impl<const N: usize> Ascii<N> {
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("a byte writer writes ASCII")
    }
}

/// Write `v` in decimal, zero-padded to at least `width`: the digit writer
/// under every byte writer of the Slurm grammar, here and in
/// `hpcdash-slurm`.
pub fn write_num(out: &mut impl Sink, mut v: u64, width: usize) {
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    while v > 0 || at == digits.len() {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    // The array starts out as zeros, so padding is a longer slice of it.
    let at = at.min(digits.len() - width.min(digits.len()));
    out.put(&digits[at..]);
}

/// A job time limit: either a number of seconds or `UNLIMITED`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimeLimit {
    /// Limit in seconds.
    Limited(u64),
    Unlimited,
}

impl TimeLimit {
    pub fn as_secs(self) -> Option<u64> {
        match self {
            TimeLimit::Limited(s) => Some(s),
            TimeLimit::Unlimited => None,
        }
    }

    /// Render in Slurm's `[D-]HH:MM:SS` / `UNLIMITED` form.
    pub fn to_slurm(self) -> String {
        self.to_string()
    }

    /// The byte writer of a time limit.
    pub fn write_slurm(self, out: &mut impl Sink) {
        match self {
            TimeLimit::Limited(s) => Elapsed(s).write_slurm(out),
            TimeLimit::Unlimited => out.put(b"UNLIMITED"),
        }
    }
}

impl fmt::Display for TimeLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = Ascii::<32>::default();
        self.write_slurm(&mut text);
        f.write_str(text.as_str())
    }
}

/// Store `v < 100` as two digits at `buf[at..at + 2]`.
fn put_two(buf: &mut [u8], at: usize, v: u32) {
    buf[at] = b'0' + (v / 10) as u8;
    buf[at + 1] = b'0' + (v % 10) as u8;
}

impl Timestamp {
    /// The byte writer of `%Y-%m-%dT%H:%M:%S`, Slurm's ISO form. Every digit
    /// of a four-digit year has a fixed place: it is filled in on the stack
    /// and written at once. (A u64 of seconds never lands before 1970, so
    /// the year is positive; past 9999 its century takes more than the two
    /// digits it is padded to, and the widest text takes 27 bytes.)
    pub fn write_slurm(self, out: &mut impl Sink) {
        let dt = CivilDateTime::from_unix(self.0);
        let (century, year) = ((dt.year / 100) as u64, (dt.year % 100) as u32);
        let mut text = *b"0000-00-00T00:00:00";
        let parts = [year, dt.month, dt.day, dt.hour, dt.minute, dt.second];
        for (at, part) in (2..).step_by(3).zip(parts) {
            put_two(&mut text, at, part);
        }
        if century < 100 {
            put_two(&mut text, 0, century as u32);
            return out.put(&text);
        }
        write_num(out, century, 2);
        out.put(&text[2..]);
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = Ascii::<32>::default();
        self.write_slurm(&mut text);
        f.write_str(text.as_str())
    }
}

/// Two ASCII digits at `b[i..i + 2]`.
fn two_digits(b: &[u8], i: usize) -> Option<u32> {
    let (hi, lo) = (b[i].wrapping_sub(b'0'), b[i + 1].wrapping_sub(b'0'));
    (hi < 10 && lo < 10).then(|| u32::from(hi) * 10 + u32::from(lo))
}

/// Parse a `%Y-%m-%dT%H:%M:%S` timestamp. Also accepts a trailing `Z` and the
/// Slurm sentinels `Unknown`/`N/A`/`None` (which yield `None`).
pub fn parse_timestamp(s: &str) -> Option<Timestamp> {
    // The writer's shape, `dddd-dd-ddTdd:dd:dd`, skips the general grammar.
    if let [_, _, _, _, b'-', _, _, b'-', _, _, b'T', _, _, b':', _, _, b':', _, _] = s.as_bytes() {
        let at = |i| two_digits(s.as_bytes(), i);
        if let (Some(c), Some(y), Some(mo), Some(d), Some(h), Some(mi), Some(sec)) =
            (at(0), at(2), at(5), at(8), at(11), at(14), at(17))
        {
            return checked_unix(i64::from(c * 100 + y), [mo, d, h, mi, sec]);
        }
    }
    let s = s.trim().trim_end_matches('Z');
    if s.is_empty() || s == "Unknown" || s == "N/A" || s == "None" {
        return None;
    }
    let (date, time) = s.split_once('T')?;
    let mut dp = date.split('-');
    let year: i64 = dp.next()?.parse().ok()?;
    let month: u32 = dp.next()?.parse().ok()?;
    let day: u32 = dp.next()?.parse().ok()?;
    if dp.next().is_some() {
        return None;
    }
    let mut tp = time.split(':');
    let hour: u32 = tp.next()?.parse().ok()?;
    let minute: u32 = tp.next()?.parse().ok()?;
    let second: u32 = tp.next()?.parse().ok()?;
    if tp.next().is_some() {
        return None;
    }
    checked_unix(year, [month, day, hour, minute, second])
}

/// The range checks both timestamp paths share (the day's upper end is left
/// to the calendar arithmetic, as it always was).
fn checked_unix(year: i64, [month, day, hour, minute, second]: [u32; 5]) -> Option<Timestamp> {
    if month == 0 || month > 12 || day == 0 || hour > 23 || minute > 59 || second > 59 {
        return None;
    }
    let dt = CivilDateTime {
        year,
        month,
        day,
        hour,
        minute,
        second,
    };
    dt.to_unix().map(Timestamp)
}

/// Seconds as Slurm elapsed time: `HH:MM:SS`, or `D-HH:MM:SS` from one day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed(pub u64);

impl Elapsed {
    /// The byte writer of an elapsed time (the widest, `u64::MAX` seconds,
    /// takes 24 bytes).
    pub fn write_slurm(self, out: &mut impl Sink) {
        let secs = self.0;
        if secs >= 86_400 {
            write_num(out, secs / 86_400, 1);
            out.put(b"-");
        }
        let mut text = *b"00:00:00";
        put_two(&mut text, 0, (secs % 86_400 / 3_600) as u32);
        put_two(&mut text, 3, (secs % 3_600 / 60) as u32);
        put_two(&mut text, 6, (secs % 60) as u32);
        out.put(&text);
    }
}

impl fmt::Display for Elapsed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = Ascii::<32>::default();
        self.write_slurm(&mut text);
        f.write_str(text.as_str())
    }
}

/// Format seconds as Slurm elapsed time: `HH:MM:SS` or `D-HH:MM:SS`.
pub fn format_duration(total_secs: u64) -> String {
    Elapsed(total_secs).to_string()
}

/// Parse a Slurm elapsed duration. Accepted forms (per `sacct`/`squeue`):
/// `SS`, `MM:SS`, `HH:MM:SS`, `D-HH`, `D-HH:MM`, `D-HH:MM:SS`.
pub fn parse_duration(s: &str) -> Option<u64> {
    // The writer's shape, `[D-]dd:dd:dd`, skips the general grammar.
    if let Some((head, hms @ [_, _, b':', _, _, b':', _, _])) = s.as_bytes().split_last_chunk() {
        let days = match head {
            [] => Some(0),
            [days @ .., b'-'] if (1..=9).contains(&days.len()) => {
                days.iter().try_fold(0, |d, c| {
                    c.is_ascii_digit().then(|| d * 10 + u64::from(c - b'0'))
                })
            }
            _ => None,
        };
        if let (Some(days), Some(h), Some(m), Some(sec)) = (
            days,
            two_digits(hms, 0),
            two_digits(hms, 3),
            two_digits(hms, 6),
        ) {
            return Some(days * 86_400 + u64::from(h * 3_600 + m * 60 + sec));
        }
    }
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    let (days, rest) = match s.split_once('-') {
        Some((d, rest)) => (d.parse::<u64>().ok()?, rest),
        None => (0, s),
    };
    let mut nums = [0u64; 3];
    let mut count = 0;
    for part in rest.split(':') {
        let num = part.parse::<u64>().ok()?;
        if let Some(slot) = nums.get_mut(count) {
            *slot = num;
        }
        count += 1;
    }
    let [a, b, c] = nums;
    // Day-prefixed forms are hour-first.
    let secs = match (count, days > 0) {
        (1, true) => a * 3_600,
        (2, true) => a * 3_600 + b * 60,
        (1, false) => a,
        (2, false) => a * 60 + b,
        (3, _) => a * 3_600 + b * 60 + c,
        _ => return None,
    };
    Some(days * 86_400 + secs)
}

/// Parse a Slurm time limit: any [`parse_duration`] form, or `UNLIMITED`,
/// `infinite`, `Partition_Limit`-style sentinels are rejected (caller decides).
pub fn parse_timelimit(s: &str) -> Option<TimeLimit> {
    let s = s.trim();
    if s.eq_ignore_ascii_case("unlimited") || s.eq_ignore_ascii_case("infinite") {
        return Some(TimeLimit::Unlimited);
    }
    parse_duration(s).map(TimeLimit::Limited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn format_known_timestamp() {
        let t = Timestamp(20_638 * 86_400 + 9 * 3_600 + 5 * 60 + 7);
        assert_eq!(t.to_string(), "2026-07-04T09:05:07");
    }

    #[test]
    fn parse_known_timestamp() {
        assert_eq!(
            parse_timestamp("2026-07-04T09:05:07"),
            Some(Timestamp(20_638 * 86_400 + 9 * 3_600 + 5 * 60 + 7))
        );
        assert_eq!(
            parse_timestamp("2026-07-04T09:05:07Z"),
            parse_timestamp("2026-07-04T09:05:07")
        );
    }

    #[test]
    fn parse_sentinels() {
        assert_eq!(parse_timestamp("Unknown"), None);
        assert_eq!(parse_timestamp("N/A"), None);
        assert_eq!(parse_timestamp(""), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse_timestamp("2026-13-01T00:00:00"), None);
        assert_eq!(parse_timestamp("2026-02-00T00:00:00"), None);
        assert_eq!(parse_timestamp("2026-07-04T24:00:00"), None);
        assert_eq!(parse_timestamp("not-a-date"), None);
        assert_eq!(parse_timestamp("2026-07-04T09:05"), None);
    }

    #[test]
    fn duration_formats() {
        assert_eq!(format_duration(0), "00:00:00");
        assert_eq!(format_duration(59), "00:00:59");
        assert_eq!(format_duration(61), "00:01:01");
        assert_eq!(format_duration(3_661), "01:01:01");
        assert_eq!(
            format_duration(86_400 + 2 * 3_600 + 3 * 60 + 4),
            "1-02:03:04"
        );
        assert_eq!(format_duration(10 * 86_400), "10-00:00:00");
    }

    #[test]
    fn duration_parses() {
        assert_eq!(parse_duration("45"), Some(45));
        assert_eq!(parse_duration("30:00"), Some(1_800));
        assert_eq!(parse_duration("01:01:01"), Some(3_661));
        assert_eq!(parse_duration("1-02:03:04"), Some(86_400 + 7_384));
        assert_eq!(parse_duration("2-00"), Some(2 * 86_400));
        assert_eq!(
            parse_duration("2-12:30"),
            Some(2 * 86_400 + 12 * 3_600 + 30 * 60)
        );
        assert_eq!(parse_duration(""), None);
        assert_eq!(parse_duration("a:b"), None);
    }

    #[test]
    fn timelimit_parses() {
        assert_eq!(parse_timelimit("UNLIMITED"), Some(TimeLimit::Unlimited));
        assert_eq!(parse_timelimit("infinite"), Some(TimeLimit::Unlimited));
        assert_eq!(parse_timelimit("4:00:00"), Some(TimeLimit::Limited(14_400)));
        assert_eq!(TimeLimit::Limited(14_400).to_slurm(), "04:00:00");
        assert_eq!(TimeLimit::Unlimited.to_slurm(), "UNLIMITED");
        assert_eq!(TimeLimit::Unlimited.as_secs(), None);
        assert_eq!(TimeLimit::Limited(5).as_secs(), Some(5));
    }

    proptest! {
        #[test]
        fn timestamp_roundtrip(secs in 0u64..10_000_000_000) {
            let t = Timestamp(secs);
            prop_assert_eq!(parse_timestamp(&t.to_string()), Some(t));
        }

        #[test]
        fn duration_roundtrip(secs in 0u64..10_000_000) {
            prop_assert_eq!(parse_duration(&format_duration(secs)), Some(secs));
        }

        #[test]
        fn timelimit_roundtrip(secs in 0u64..10_000_000) {
            let tl = TimeLimit::Limited(secs);
            prop_assert_eq!(parse_timelimit(&tl.to_slurm()), Some(tl));
        }
    }
}
