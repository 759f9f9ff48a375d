//! The Slurm command layer: textual `squeue` / `sinfo` / `sacct` /
//! `scontrol` implementations over the simulated daemons, plus parsers.
//!
//! The paper's backend "runs Slurm commands to gather job details,
//! allocation information, and system statuses" (§2.2.2). This crate keeps
//! that exact boundary: the dashboard invokes a command, gets *text* in the
//! real tool's format, and parses it back into records. The round-trip is
//! property-tested, so dashboards built on it behave like dashboards built
//! on real Slurm output.

use hpcdash_simtime::{write_num, Elapsed, TimeLimit, Timestamp};
use hpcdash_slurm::job::{Job, JobId};
use hpcdash_slurm::tres::{MemMb, Tres};

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
    display_name, parse_squeue, parse_squeue_long, squeue, squeue_long, squeue_long_in, SqueueArgs,
    SqueueLongRow, SqueueRow,
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
// Renderers append bytes: every line is `push!`ed straight into the
// command's one pre-sized buffer, piece by piece through [`Put`], and each
// element of the Slurm grammar through its byte writer
// (`Timestamp::write_slurm`, `Tres::write_slurm`, `Job::write_shown_id`,
// ...). No `fmt::Formatter` and no `String` per field stands in between;
// [`text`] checks the whole output once and hands it out as the `String` a
// command returns. Parsers borrow: a `sacct` table is cut into lines and
// fields in one pass ([`rows`]), and so is a table of blank-separated
// columns (`squeue`, `sinfo`, the assoc dump) by [`blank_rows`], each line
// into a fixed array of `&str`; only what a record keeps is copied.

/// A piece of a command's output, appended to it as it is.
pub(crate) trait Put {
    fn put(&self, out: &mut Vec<u8>);
}

/// Append each piece to a command's output, in order.
macro_rules! push {
    ($out:expr; $($piece:expr),+ $(,)?) => {{
        let out: &mut Vec<u8> = $out;
        $( $crate::Put::put(&$piece, out); )+
    }};
}
pub(crate) use push;

/// Append the pieces as one line of columns: `sep` between them, a line
/// break after the last.
macro_rules! columns {
    ($out:expr, $sep:expr; $first:expr $(, $piece:expr)* $(,)?) => {{
        let out: &mut Vec<u8> = $out;
        $crate::Put::put(&$first, out);
        $( out.push($sep); $crate::Put::put(&$piece, out); )*
        out.push(b'\n');
    }};
}
pub(crate) use columns;

/// A command's output as the `String` it returns. Every piece was a `str`
/// or a byte writer's ASCII, so the one check of the whole text holds.
pub(crate) fn text(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("every piece is whole UTF-8")
}

impl Put for str {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

impl Put for String {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

/// An ASCII char.
impl Put for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        debug_assert!(self.is_ascii());
        out.push(*self);
    }
}

impl<T: Put + ?Sized> Put for &T {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
}

/// Nothing for `None`.
impl<T: Put> Put for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        if let Some(piece) = self {
            piece.put(out);
        }
    }
}

impl<A: Put, B: Put, C: Put> Put for (A, B, C) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
}

impl Put for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        write_num(out, (*self).into(), 1);
    }
}

impl Put for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        write_num(out, *self, 1);
    }
}

/// An exit code or a signal, which may be negative.
impl Put for i32 {
    fn put(&self, out: &mut Vec<u8>) {
        if *self < 0 {
            out.push(b'-');
        }
        write_num(out, self.unsigned_abs().into(), 1);
    }
}

/// The grammar elements, through their byte writers.
macro_rules! put_by_writer {
    ($($element:ty),*) => {$(
        impl Put for $element {
            fn put(&self, out: &mut Vec<u8>) {
                self.write_slurm(out);
            }
        }
    )*};
}
put_by_writer!(Timestamp, Elapsed, TimeLimit, JobId, MemMb, Tres);

/// The id users see: `1234` or `1234_7`.
pub(crate) struct ShownId<'a>(pub &'a Job);

impl Put for ShownId<'_> {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.write_shown_id(out);
    }
}

/// A value, or the word the command prints for a missing one.
pub(crate) struct Or<T>(pub Option<T>, pub &'static str);

impl<T: Put> Put for Or<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match &self.0 {
            Some(piece) => piece.put(out),
            None => self.1.put(out),
        }
    }
}

/// `items` joined by commas, or `empty` when there are none.
pub(crate) struct Joined<'a>(pub &'a [String], pub &'a str);

impl Put for Joined<'_> {
    fn put(&self, out: &mut Vec<u8>) {
        let Some((first, rest)) = self.0.split_first() else {
            return self.1.put(out);
        };
        first.put(out);
        for item in rest {
            out.push(b',');
            item.put(out);
        }
    }
}

/// Free text kept inside one column: `map` applied to every char of
/// `text`, or `empty` when there is none.
pub(crate) fn cleaned<'a, F: Fn(char) -> char>(
    text: &'a str,
    map: F,
    empty: &'a str,
) -> Cleaned<'a, F> {
    Cleaned { text, map, empty }
}

/// What [`cleaned`] returns.
pub(crate) struct Cleaned<'a, F> {
    text: &'a str,
    map: F,
    empty: &'a str,
}

impl<F: Fn(char) -> char> Put for Cleaned<'_, F> {
    fn put(&self, out: &mut Vec<u8>) {
        let text = self.text;
        if text.is_empty() {
            return self.empty.put(out);
        }
        let mut clean_from = 0;
        for (at, c) in text.char_indices() {
            let clean = (self.map)(c);
            if clean != c {
                text[clean_from..at].put(out);
                clean.encode_utf8(&mut [0; 4]).put(out);
                clean_from = at + c.len_utf8();
            }
        }
        text[clean_from..].put(out);
    }
}

/// Whitespace cannot sit inside a `squeue` column or a `scontrol` value.
pub(crate) fn no_space(c: char) -> char {
    if c.is_whitespace() {
        '_'
    } else {
        c
    }
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

/// One line of a table as `str::lines` cuts it: its first `N` fields at a
/// separator, borrowed, and how many fields it has.
pub(crate) struct Row<'t, const N: usize> {
    pub line: &'t str,
    pub fields: [&'t str; N],
    pub count: usize,
}

/// The lines of `text`, each cut at `sep`, in one pass over its bytes:
/// separators and line breaks are found together, eight bytes at a time.
/// The fields of a `sacct` line are a few bytes each, too short for a
/// `memchr` call per field to pay, and a branch per byte mispredicts at
/// every separator.
pub(crate) fn rows<const N: usize>(text: &str, sep: u8) -> impl Iterator<Item = Row<'_, N>> {
    debug_assert!(sep.is_ascii() && sep != 0 && sep != b'\n');
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    // The high bit of each zero byte of `x`: the sum cannot carry out of a
    // byte, so each byte's high bit is exact.
    let zeros = |x: u64| !(((x & LOW7) + LOW7) | x) & !LOW7;
    let bytes = text.as_bytes();
    let (sep_in_every_byte, newline_in_every_byte) =
        (u64::from_ne_bytes([sep; 8]), u64::from_ne_bytes([b'\n'; 8]));
    // `mask` holds the high bit of each cut of the word at `word_at` not yet
    // taken; `line_at` is where the next line starts.
    let (mut word_at, mut mask, mut line_at) = (0, 0u64, 0);
    std::iter::from_fn(move || {
        if line_at >= bytes.len() {
            return None;
        }
        let mut row = Row {
            line: "",
            fields: [""; N],
            count: 0,
        };
        let mut field_at = line_at;
        loop {
            while mask == 0 {
                let word = match bytes.get(word_at..word_at + 8) {
                    Some(word) => u64::from_le_bytes(word.try_into().expect("eight bytes")),
                    None if word_at < bytes.len() => {
                        // A short tail is padded with zero bytes, which are
                        // no cut.
                        let mut word = [0u8; 8];
                        word[..bytes.len() - word_at].copy_from_slice(&bytes[word_at..]);
                        u64::from_le_bytes(word)
                    }
                    None => {
                        // The last line, without a line break.
                        row.line = &text[line_at..];
                        row.add(&text[field_at..]);
                        line_at = bytes.len();
                        return Some(row);
                    }
                };
                mask = zeros(word ^ sep_in_every_byte) | zeros(word ^ newline_in_every_byte);
                word_at += 8;
            }
            let at = word_at - 8 + (mask.trailing_zeros() / 8) as usize;
            mask &= mask - 1;
            if bytes[at] == sep {
                row.add(&text[field_at..at]);
                field_at = at + 1;
                continue;
            }
            // A line break, and a carriage return before it, end the line.
            let end = if at > line_at && bytes[at - 1] == b'\r' {
                at - 1
            } else {
                at
            };
            row.line = &text[line_at..end];
            row.add(&text[field_at..end]);
            line_at = at + 1;
            return Some(row);
        }
    })
}

/// The lines of `text` as `str::lines` cuts them, each cut into its words
/// as `str::split_whitespace` cuts it, in one pass over the bytes: the
/// blank-separated tables (`squeue`, `sinfo`, the assoc dump). The ASCII
/// blanks are the five that rule counts, vertical tab included; a line
/// with a byte past ASCII is cut again by `split_whitespace`, which knows
/// the Unicode blanks too.
pub(crate) fn blank_rows<const N: usize>(text: &str) -> impl Iterator<Item = Row<'_, N>> {
    let bytes = text.as_bytes();
    let mut line_at = 0;
    std::iter::from_fn(move || {
        if line_at >= bytes.len() {
            return None;
        }
        let mut row = Row {
            line: "",
            fields: [""; N],
            count: 0,
        };
        let (mut at, mut word_at, mut ascii) = (line_at, None, true);
        while let Some(&b) = bytes.get(at).filter(|b| **b != b'\n') {
            if matches!(b, b' ' | b'\t' | 0x0b | 0x0c | b'\r') {
                if let Some(word_at) = word_at.take() {
                    row.add(&text[word_at..at]);
                }
            } else {
                ascii &= b.is_ascii();
                word_at.get_or_insert(at);
            }
            at += 1;
        }
        if let Some(word_at) = word_at {
            row.add(&text[word_at..at]);
        }
        // A carriage return before a line break ends the line with it.
        let end = if at < bytes.len() && at > line_at && bytes[at - 1] == b'\r' {
            at - 1
        } else {
            at
        };
        row.line = &text[line_at..end];
        line_at = at + 1;
        if !ascii {
            row.count = 0;
            for word in row.line.split_whitespace() {
                row.add(word);
            }
        }
        Some(row)
    })
}

impl<'t, const N: usize> Row<'t, N> {
    fn add(&mut self, field: &'t str) {
        if let Some(slot) = self.fields.get_mut(self.count) {
            *slot = field;
        }
        self.count += 1;
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn rows_cut_where_lines_and_split_do(text in "[a-c|é\\-\r\n]{0,60}") {
            let got: Vec<(&str, Vec<&str>, usize)> = super::rows::<3>(&text, b'|')
                .map(|row| (row.line, row.fields[..row.count.min(3)].to_vec(), row.count))
                .collect();
            let want: Vec<(&str, Vec<&str>, usize)> = text
                .lines()
                .map(|line| {
                    let fields: Vec<&str> = line.split('|').collect();
                    (line, fields.iter().copied().take(3).collect(), fields.len())
                })
                .collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn blank_rows_cut_where_lines_and_split_whitespace_do(
            text in "[ab \t\x0b\x0c\r\n\u{85}\u{a0}\u{2003}\u{3000}é]{0,60}"
        ) {
            let got: Vec<(&str, Vec<&str>, usize)> = super::blank_rows::<3>(&text)
                .map(|row| (row.line, row.fields[..row.count.min(3)].to_vec(), row.count))
                .collect();
            let want: Vec<(&str, Vec<&str>, usize)> = text
                .lines()
                .map(|line| {
                    let words: Vec<&str> = line.split_whitespace().collect();
                    (line, words.iter().copied().take(3).collect(), words.len())
                })
                .collect();
            prop_assert_eq!(got, want);
        }
    }
}
