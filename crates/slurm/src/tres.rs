//! Trackable resources (TRES): the `cpu=4,mem=16G,gres/gpu=2,node=1` strings
//! that appear throughout Slurm's command output, plus a structured form.

use hpcdash_simtime::write_num;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A bundle of trackable resources. Memory is in megabytes, matching
/// slurmctld's internal unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Tres {
    pub cpus: u32,
    pub mem_mb: u64,
    pub gpus: u32,
    pub nodes: u32,
}

impl Tres {
    pub fn new(cpus: u32, mem_mb: u64, gpus: u32, nodes: u32) -> Tres {
        Tres {
            cpus,
            mem_mb,
            gpus,
            nodes,
        }
    }

    /// Component-wise sum.
    pub fn plus(self, other: Tres) -> Tres {
        Tres {
            cpus: self.cpus + other.cpus,
            mem_mb: self.mem_mb + other.mem_mb,
            gpus: self.gpus + other.gpus,
            nodes: self.nodes + other.nodes,
        }
    }

    /// Component-wise saturating subtraction.
    pub fn minus(self, other: Tres) -> Tres {
        Tres {
            cpus: self.cpus.saturating_sub(other.cpus),
            mem_mb: self.mem_mb.saturating_sub(other.mem_mb),
            gpus: self.gpus.saturating_sub(other.gpus),
            nodes: self.nodes.saturating_sub(other.nodes),
        }
    }

    /// True when every component of `self` fits within `avail`.
    pub fn fits_in(self, avail: Tres) -> bool {
        self.cpus <= avail.cpus
            && self.mem_mb <= avail.mem_mb
            && self.gpus <= avail.gpus
            && self.nodes <= avail.nodes
    }

    /// Render as Slurm's comma-separated TRES string. Zero components other
    /// than `cpu` are omitted, as slurmctld does.
    pub fn to_slurm(self) -> String {
        self.to_string()
    }

    /// Parse a Slurm TRES string. Unknown keys are ignored (real TRES strings
    /// carry `billing=`, `energy=` and similar components the dashboard does
    /// not use).
    pub fn parse(s: &str) -> Option<Tres> {
        let mut t = Tres::default();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part.split_once('=')?;
            match key {
                "cpu" => t.cpus = value.parse().ok()?,
                "mem" => t.mem_mb = parse_mem_mb(value)?,
                "node" => t.nodes = value.parse().ok()?,
                "gres/gpu" | "gpu" => t.gpus = value.parse().ok()?,
                _ => {}
            }
        }
        Some(t)
    }
}

/// The one writer of a TRES string (digits by `hpcdash_simtime::write_num`).
impl fmt::Display for Tres {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("cpu=")?;
        write_num(f, self.cpus.into(), 1)?;
        if self.mem_mb > 0 {
            f.write_str(",mem=")?;
            MemMb(self.mem_mb).fmt(f)?;
        }
        if self.nodes > 0 {
            f.write_str(",node=")?;
            write_num(f, self.nodes.into(), 1)?;
        }
        if self.gpus > 0 {
            f.write_str(",gres/gpu=")?;
            write_num(f, self.gpus.into(), 1)?;
        }
        Ok(())
    }
}

/// Megabytes the way Slurm prints them: `512M`, `16G`, `1T`.
pub struct MemMb(pub u64);

impl fmt::Display for MemMb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const G: u64 = 1_024;
        const T: u64 = 1_024 * 1_024;
        let (value, unit) = match self.0 {
            mb if mb >= T && mb.is_multiple_of(T) => (mb / T, "T"),
            mb if mb >= G && mb.is_multiple_of(G) => (mb / G, "G"),
            mb => (mb, "M"),
        };
        write_num(f, value, 1)?;
        f.write_str(unit)
    }
}

/// Format megabytes the way Slurm does: `512M`, `16G`, `1T`.
pub fn format_mem_mb(mem_mb: u64) -> String {
    MemMb(mem_mb).to_string()
}

/// Parse a Slurm memory string (`4000M`, `16G`, `2T`, bare `4096` = MB,
/// fractional `1.5G`). Returns megabytes.
pub fn parse_mem_mb(s: &str) -> Option<u64> {
    // The writer's shape, whole megabytes with a binary suffix, needs no
    // float: up to nine digits times 2^20 is exact either way.
    let digits = s.trim_end_matches(['M', 'G', 'T', 'm', 'g', 't']);
    if (1..=9).contains(&digits.len()) && digits.bytes().all(|b| b.is_ascii_digit()) {
        let value: u64 = digits.parse().expect("nine digits fit");
        match s.as_bytes()[digits.len()..] {
            [] | [b'M' | b'm'] => return Some(value),
            [b'G' | b'g'] => return Some(value * 1_024),
            [b'T' | b't'] => return Some(value * 1_024 * 1_024),
            _ => {}
        }
    }
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    let (num, mult) = match s.as_bytes()[s.len() - 1].to_ascii_uppercase() {
        b'K' => (&s[..s.len() - 1], 0.001),
        b'M' => (&s[..s.len() - 1], 1.0),
        b'G' => (&s[..s.len() - 1], 1_024.0),
        b'T' => (&s[..s.len() - 1], 1_024.0 * 1_024.0),
        b'0'..=b'9' => (s, 1.0),
        _ => return None,
    };
    let value: f64 = num.parse().ok()?;
    if value.is_nan() || value < 0.0 {
        return None;
    }
    Some((value * mult).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn arithmetic() {
        let a = Tres::new(4, 8_192, 1, 1);
        let b = Tres::new(2, 4_096, 0, 1);
        assert_eq!(a.plus(b), Tres::new(6, 12_288, 1, 2));
        assert_eq!(a.minus(b), Tres::new(2, 4_096, 1, 0));
        assert_eq!(b.minus(a), Tres::new(0, 0, 0, 0), "minus saturates");
    }

    #[test]
    fn fits() {
        let avail = Tres::new(8, 16_384, 2, 1);
        assert!(Tres::new(8, 16_384, 2, 1).fits_in(avail));
        assert!(Tres::new(1, 1, 0, 0).fits_in(avail));
        assert!(!Tres::new(9, 1, 0, 0).fits_in(avail));
        assert!(!Tres::new(1, 16_385, 0, 0).fits_in(avail));
        assert!(!Tres::new(1, 1, 3, 0).fits_in(avail));
    }

    #[test]
    fn to_slurm_string() {
        assert_eq!(
            Tres::new(4, 16_384, 0, 1).to_slurm(),
            "cpu=4,mem=16G,node=1"
        );
        assert_eq!(
            Tres::new(128, 257_000, 4, 2).to_slurm(),
            "cpu=128,mem=257000M,node=2,gres/gpu=4"
        );
        assert_eq!(Tres::new(1, 0, 0, 0).to_slurm(), "cpu=1");
    }

    #[test]
    fn parse_tres_string() {
        assert_eq!(
            Tres::parse("cpu=4,mem=16G,node=1"),
            Some(Tres::new(4, 16_384, 0, 1))
        );
        assert_eq!(
            Tres::parse("cpu=128,mem=257000M,node=2,gres/gpu=4,billing=128"),
            Some(Tres::new(128, 257_000, 4, 2))
        );
        assert_eq!(Tres::parse(""), Some(Tres::default()));
        assert_eq!(Tres::parse("cpu"), None);
        assert_eq!(Tres::parse("cpu=x"), None);
    }

    #[test]
    fn mem_formats() {
        assert_eq!(format_mem_mb(512), "512M");
        assert_eq!(format_mem_mb(16_384), "16G");
        assert_eq!(format_mem_mb(1_024 * 1_024), "1T");
        assert_eq!(format_mem_mb(1_500), "1500M");
    }

    #[test]
    fn mem_parses() {
        assert_eq!(parse_mem_mb("4096"), Some(4_096));
        assert_eq!(parse_mem_mb("4096M"), Some(4_096));
        assert_eq!(parse_mem_mb("16G"), Some(16_384));
        assert_eq!(parse_mem_mb("1.5G"), Some(1_536));
        assert_eq!(parse_mem_mb("2T"), Some(2 * 1_024 * 1_024));
        assert_eq!(parse_mem_mb("1024K"), Some(1));
        assert_eq!(parse_mem_mb(""), None);
        assert_eq!(parse_mem_mb("abc"), None);
        assert_eq!(parse_mem_mb("-5G"), None);
    }

    proptest! {
        #[test]
        fn tres_roundtrip(cpus in 0u32..100_000, mem in 0u64..10_000_000, gpus in 0u32..1_000, nodes in 0u32..10_000) {
            let t = Tres::new(cpus, mem, gpus, nodes);
            prop_assert_eq!(Tres::parse(&t.to_slurm()), Some(t));
        }

        #[test]
        fn mem_roundtrip(mem in 0u64..100_000_000) {
            prop_assert_eq!(parse_mem_mb(&format_mem_mb(mem)), Some(mem));
        }

        #[test]
        fn plus_minus_inverse(a_c in 0u32..1000, a_m in 0u64..10_000, b_c in 0u32..1000, b_m in 0u64..10_000) {
            let a = Tres::new(a_c, a_m, 0, 0);
            let b = Tres::new(b_c, b_m, 0, 0);
            prop_assert_eq!(a.plus(b).minus(b), a);
        }
    }
}
