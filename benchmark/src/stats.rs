//! Small numeric helpers: percentiles, the sample-count rule, a seeded
//! generator and the FNV digest. No dependencies, so every count the
//! benchmark reports can be re-derived by hand.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending-sorted slice.
/// `None` on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A percentile is reported only when at least ten samples lie beyond it:
/// p99 needs 1 000 samples, p95 needs 200.
pub fn supports_percentile(samples: usize, p: f64) -> bool {
    samples as f64 * (1.0 - p / 100.0) >= 10.0
}

/// Median of unsorted floats (used for repeated set-ups and `compare`).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// splitmix64: the whole benchmark's only source of randomness, so a seed
/// fixes the schedule bit for bit.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// list sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The splitmix64 finalizer, also used as a stateless hash of
/// `(seed, round, visit, request)` for the 1-in-16 output sample.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a, folded incrementally over the sampled bodies.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn sample_count_rule_wants_ten_beyond() {
        assert!(supports_percentile(1_000, 99.0));
        assert!(!supports_percentile(999, 99.0));
        assert!(supports_percentile(200, 95.0));
        assert!(!supports_percentile(180, 99.0));
        assert!(supports_percentile(20, 50.0));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(9);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(9);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, {
            let mut r = Rng::new(10);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        });
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
