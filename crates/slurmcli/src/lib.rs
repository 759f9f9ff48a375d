//! The Slurm command layer: textual `squeue` / `sinfo` / `sacct` /
//! `scontrol` implementations over the simulated daemons, plus parsers.
//!
//! The paper's backend "runs Slurm commands to gather job details,
//! allocation information, and system statuses" (§2.2.2). This crate keeps
//! that exact boundary: the dashboard invokes a command, gets *text* in the
//! real tool's format, and parses it back into records. The round-trip is
//! property-tested, so dashboards built on it behave like dashboards built
//! on real Slurm output.

use std::fmt::{self, Write as _};

pub mod sacct;
pub mod scontrol;
pub mod seff;
pub mod sinfo;
pub mod squeue;

pub use sacct::{parse_sacct, sacct, SacctArgs, SacctRecord, SACCT_FIELDS};
pub use scontrol::{
    parse_show_assoc, parse_show_job, parse_show_node, show_assoc, show_node, AssocRow,
    ScontrolJob, ScontrolNode,
};
pub use seff::seff;
pub use sinfo::{parse_sinfo_summary, parse_sinfo_usage, sinfo_usage, PartitionUsage, SinfoRow};
pub use squeue::{
    display_name, parse_squeue, parse_squeue_long, squeue, squeue_long, SqueueArgs, SqueueLongRow,
    SqueueRow,
};

/// Total invocations of every public `parse_*` in this crate, however the
/// text got to them. The `/slurm/v0` tests assert this stays flat across
/// structured requests — the proof that the REST family really bypasses the
/// command→text→parse boundary.
static PARSE_CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Snapshot of the global parse counter (monotonic, process-wide).
pub fn parse_call_count() -> u64 {
    PARSE_CALLS.load(std::sync::atomic::Ordering::Relaxed)
}

pub(crate) fn note_parse() {
    PARSE_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

/// Apply a daemon's boundary faults to a rendered command output: an
/// `Error` fault fails the command (the `Err` a real popen would surface),
/// a `Garble` fault deterministically corrupts the text so the caller's
/// parser must cope. Latency faults already burned inside the daemon RPC,
/// so they are not re-burned here. Disarmed this is one relaxed load.
pub(crate) fn boundary(
    host: &hpcdash_faults::FaultHost,
    cmd: &str,
    text: String,
) -> Result<String, String> {
    if !host.is_armed() {
        return Ok(text);
    }
    let mut check = host.check(cmd);
    check.latency_micros = 0;
    check.apply_to_output(text)
}

// ---- the command boundary's shared pieces -----------------------------------
//
// Renderers stream: every row is `put!` straight into the command's one
// pre-sized `String` through `Display` values, never through a `String` per
// field. Parsers borrow: a line is split into a fixed array of `&str` and
// only what a record keeps is copied.

/// `write!` into a command's output `String`, which cannot fail.
macro_rules! put {
    ($out:expr, $($arg:tt)*) => {
        std::fmt::Write::write_fmt($out, format_args!($($arg)*)).expect("a String takes every write")
    };
}
pub(crate) use put;

/// `items` joined by commas, or `empty` when there are none.
pub(crate) fn joined<'a>(items: &'a [String], empty: &'a str) -> impl fmt::Display + 'a {
    fmt::from_fn(move |f| {
        let Some((first, rest)) = items.split_first() else {
            return f.write_str(empty);
        };
        f.write_str(first)?;
        rest.iter()
            .try_for_each(|item| f.write_str(",").and_then(|()| f.write_str(item)))
    })
}

/// Free text kept inside one column: `map` applied to every char of `text`,
/// or `empty` when there is none.
pub(crate) fn cleaned<'a>(
    text: &'a str,
    map: fn(char) -> char,
    empty: &'a str,
) -> impl fmt::Display + 'a {
    fmt::from_fn(move |f| {
        if text.is_empty() {
            return f.write_str(empty);
        }
        let mut clean_from = 0;
        for (at, c) in text.char_indices().filter(|(_, c)| map(*c) != *c) {
            f.write_str(&text[clean_from..at])?;
            f.write_char(map(c))?;
            clean_from = at + c.len_utf8();
        }
        f.write_str(&text[clean_from..])
    })
}

/// Whitespace cannot sit inside a `squeue` column or a `scontrol` value.
pub(crate) fn no_space(c: char) -> char {
    if c.is_whitespace() {
        '_'
    } else {
        c
    }
}

/// A timestamp, or the word the command prints for a missing one.
pub(crate) fn time_or(t: Option<hpcdash_simtime::Timestamp>, word: &str) -> impl fmt::Display + '_ {
    fmt::from_fn(move |f| match t {
        Some(t) => fmt::Display::fmt(&t, f),
        None => f.write_str(word),
    })
}

/// `str::split_whitespace`, by bytes where that is the same thing: in ASCII
/// text (what the commands emit) without a vertical tab, which only the
/// Unicode rule counts as a blank.
pub(crate) fn words(text: &str) -> impl Iterator<Item = &str> {
    let plain = text.is_ascii() && !text.as_bytes().contains(&0x0b);
    let (bytewise, charwise) = if plain {
        (Some(text.split_ascii_whitespace()), None)
    } else {
        (None, Some(text.split_whitespace()))
    };
    bytewise
        .into_iter()
        .flatten()
        .chain(charwise.into_iter().flatten())
}

/// `line.split(sep)` for a nonzero ASCII `sep`, found eight bytes at a
/// time: the fields of a `sacct` line are a few bytes each, too short for a
/// `memchr` call per field to pay, and a branch per byte mispredicts at
/// every separator.
pub(crate) fn split_ascii(line: &str, sep: u8) -> impl Iterator<Item = &str> {
    debug_assert!(sep.is_ascii() && sep != 0, "a cut must fall between chars");
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let bytes = line.as_bytes();
    let pattern = u64::from_ne_bytes([sep; 8]);
    // `mask` holds the high bit of each separator byte of the word at
    // `word_at` not yet cut at; `from` is where the next field starts.
    let (mut word_at, mut mask, mut from) = (0, 0u64, Some(0));
    std::iter::from_fn(move || {
        let start = from?;
        while mask == 0 {
            let Some(rest) = bytes.get(word_at..).filter(|r| !r.is_empty()) else {
                from = None;
                return Some(&line[start..]);
            };
            // A short tail is padded with zero bytes, which are not `sep`.
            let mut word = [0u8; 8];
            let take = rest.len().min(8);
            word[..take].copy_from_slice(&rest[..take]);
            // Zero bytes of `x` are the separators; the sum cannot carry
            // out of a byte, so each byte's high bit is exact.
            let x = u64::from_le_bytes(word) ^ pattern;
            mask = !(((x & LOW7) + LOW7) | x) & !LOW7;
            word_at += 8;
        }
        let at = word_at - 8 + (mask.trailing_zeros() / 8) as usize;
        mask &= mask - 1;
        from = Some(at + 1);
        Some(&line[start..at])
    })
}

/// The `N` fields of one line, borrowed; `Err` is how many there were.
pub(crate) fn fields<'a, const N: usize>(
    mut split: impl Iterator<Item = &'a str>,
) -> Result<[&'a str; N], usize> {
    let mut out = [""; N];
    let mut filled = 0;
    // `zip` asks for a slot first, so a field too many is not lost to it.
    for (slot, field) in out.iter_mut().zip(&mut split) {
        *slot = field;
        filled += 1;
    }
    match filled + split.count() {
        count if count == N => Ok(out),
        count => Err(count),
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn split_ascii_cuts_where_split_does(line in "[a-c|é\\-]{0,40}") {
            let got: Vec<&str> = super::split_ascii(&line, b'|').collect();
            let want: Vec<&str> = line.split('|').collect();
            prop_assert_eq!(got, want);
        }
    }
}
