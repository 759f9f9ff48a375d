//! Gorilla-style chunk codec: delta-of-delta timestamps, XOR-ed values.
//!
//! Utilization traces are ideal for this encoding — collectors fire on a
//! fixed cadence (delta-of-delta is almost always zero) and consecutive
//! utilization readings share most of their float bits, so the XOR of
//! adjacent values has long runs of zeros at both ends. The encoder is
//! lossless: `decompress(compress(s)) == s` bit-for-bit, including NaNs.
//!
//! Layout: a little-endian `u32` sample count, then a bitstream. The first
//! sample stores its timestamp and value raw (64 bits each). Every later
//! sample stores the delta-of-delta of its timestamp in one of five
//! variable-width buckets and its value XOR-ed against the previous value,
//! reusing the previous meaningful-bit window when it still fits. All
//! timestamp arithmetic wraps, so adversarial `i64` extremes round-trip.

/// Appends bits to a byte buffer, most-significant bit of each value first.
/// Bits gather in an accumulator and leave it a whole byte at a time;
/// [`BitWriter::finish`] pads the last byte with zeros.
struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, right-aligned: fewer than 8 between writes.
    acc: u128,
    pending: u32,
}

impl BitWriter {
    fn new() -> BitWriter {
        BitWriter {
            bytes: Vec::new(),
            acc: 0,
            pending: 0,
        }
    }

    fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Write the low `n` bits of `value`, most-significant first.
    fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        let bits = u128::from(value) & ((1u128 << n) - 1);
        self.acc = (self.acc << n) | bits;
        self.pending += n;
        while self.pending >= 8 {
            self.pending -= 8;
            self.bytes.push((self.acc >> self.pending) as u8);
        }
        self.acc &= (1 << self.pending) - 1;
    }

    fn finish(mut self) -> Vec<u8> {
        if self.pending > 0 {
            self.bytes.push((self.acc << (8 - self.pending)) as u8);
        }
        self.bytes.shrink_to_fit();
        self.bytes
    }
}

/// Reads bits back in `BitWriter` order. Returns `None` past the end.
struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit position.
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, pos: 0 }
    }

    fn read_bit(&mut self) -> Option<bool> {
        let byte = self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8) as u32)) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Read `n` bits, most-significant first, a byte's worth at a time.
    fn read_bits(&mut self, mut n: u32) -> Option<u64> {
        let mut out = 0u64;
        while n > 0 {
            let byte = *self.bytes.get(self.pos / 8)?;
            let offset = (self.pos % 8) as u32;
            let take = (8 - offset).min(n);
            let chunk = (u64::from(byte) >> (8 - offset - take)) & ((1 << take) - 1);
            // `take` is at most 8, so a 64-bit read never shifts by 64.
            out = (out << take) | chunk;
            self.pos += take as usize;
            n -= take;
        }
        Some(out)
    }
}

/// Delta-of-delta buckets, smallest first. Each row is
/// (inclusive magnitude bound, payload bits); the control prefix is `1^i 0`
/// for row `i` and `1111` for the raw 64-bit escape.
const DOD_BUCKETS: [(i64, u32); 3] = [(63, 7), (255, 9), (2047, 12)];

/// Compress `(timestamp, value)` samples into a self-delimiting chunk.
pub fn compress(samples: &[(i64, f64)]) -> Vec<u8> {
    let mut w = BitWriter::new();
    // Room for two bytes a sample, about what utilization traces take, so
    // the buffer is allocated once; `finish` returns the excess.
    w.bytes.reserve(4 + 16 + 2 * samples.len());
    w.bytes
        .extend_from_slice(&(samples.len() as u32).to_le_bytes());
    let Some(&(first_ts, first_v)) = samples.first() else {
        return w.finish();
    };
    w.write_bits(first_ts as u64, 64);
    w.write_bits(first_v.to_bits(), 64);

    let mut prev_ts = first_ts;
    let mut prev_delta: i64 = 0;
    let mut prev_bits = first_v.to_bits();
    // Meaningful-bit window carried between `11`-control values; invalid
    // until the first explicit window is written.
    let mut window: Option<(u32, u32)> = None;

    for &(ts, v) in &samples[1..] {
        let delta = ts.wrapping_sub(prev_ts);
        let dod = delta.wrapping_sub(prev_delta);
        prev_ts = ts;
        prev_delta = delta;
        if dod == 0 {
            w.write_bit(false);
        } else {
            let mut encoded = false;
            for (i, &(bound, bits)) in DOD_BUCKETS.iter().enumerate() {
                // Bucket i covers [-bound, bound+1] biased to 0..2^bits.
                if -bound <= dod && dod <= bound + 1 {
                    // Prefix `1^(i+1) 0`: 0b10, 0b110, 0b1110.
                    w.write_bits(((1u64 << (i + 1)) - 1) << 1, (i + 2) as u32);
                    w.write_bits((dod + bound) as u64, bits);
                    encoded = true;
                    break;
                }
            }
            if !encoded {
                w.write_bits(0b1111, 4);
                w.write_bits(dod as u64, 64);
            }
        }

        let bits = v.to_bits();
        let xor = bits ^ prev_bits;
        prev_bits = bits;
        if xor == 0 {
            w.write_bit(false);
            continue;
        }
        let leading = xor.leading_zeros();
        let trailing = xor.trailing_zeros();
        match window {
            Some((wl, wt)) if leading >= wl && trailing >= wt => {
                w.write_bits(0b10, 2);
                w.write_bits(xor >> wt, 64 - wl - wt);
            }
            _ => {
                // 6+6 bits cover leading in 0..=63 (xor != 0 guarantees
                // leading <= 63) and meaningful length minus one in 0..=63.
                let meaningful = 64 - leading - trailing;
                w.write_bits(0b11, 2);
                w.write_bits(leading as u64, 6);
                w.write_bits((meaningful - 1) as u64, 6);
                w.write_bits(xor >> trailing, meaningful);
                window = Some((leading, trailing));
            }
        }
    }
    w.finish()
}

/// Decompress a chunk produced by [`compress`]. Returns `None` if the bytes
/// are truncated or malformed.
pub fn decompress(bytes: &[u8]) -> Option<Vec<(i64, f64)>> {
    let count = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let mut r = BitReader::new(bytes.get(4..)?);
    let mut out = Vec::with_capacity(count);
    if count == 0 {
        return Some(out);
    }
    let mut ts = r.read_bits(64)? as i64;
    let mut val_bits = r.read_bits(64)?;
    out.push((ts, f64::from_bits(val_bits)));

    let mut delta: i64 = 0;
    let mut window: Option<(u32, u32)> = None;
    for _ in 1..count {
        let dod = if !r.read_bit()? {
            0
        } else {
            let mut bucket = None;
            for (i, &(bound, bits)) in DOD_BUCKETS.iter().enumerate() {
                if i + 1 == DOD_BUCKETS.len() || !r.read_bit()? {
                    // Reached bucket i either by its terminating 0 bit or by
                    // exhausting the prefix (last bucket vs raw escape).
                    if i + 1 == DOD_BUCKETS.len() && r.read_bit()? {
                        break; // 1111: raw escape
                    }
                    bucket = Some((bound, bits));
                    break;
                }
            }
            match bucket {
                Some((bound, bits)) => (r.read_bits(bits)? as i64).wrapping_sub(bound),
                None => r.read_bits(64)? as i64,
            }
        };
        delta = delta.wrapping_add(dod);
        ts = ts.wrapping_add(delta);

        if r.read_bit()? {
            let xor = if !r.read_bit()? {
                let (wl, wt) = window?;
                r.read_bits(64 - wl - wt)? << wt
            } else {
                let leading = r.read_bits(6)? as u32;
                let meaningful = r.read_bits(6)? as u32 + 1;
                if leading + meaningful > 64 {
                    return None;
                }
                let trailing = 64 - leading - meaningful;
                window = Some((leading, trailing));
                r.read_bits(meaningful)? << trailing
            };
            val_bits ^= xor;
        }
        out.push((ts, f64::from_bits(val_bits)));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(samples: &[(i64, f64)]) {
        let bytes = compress(samples);
        let back = decompress(&bytes).expect("well-formed chunk");
        assert_eq!(back.len(), samples.len());
        for (a, b) in samples.iter().zip(&back) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "value bits must survive");
        }
    }

    /// The accumulating writer and the byte-wise reader agree with one bit
    /// at a time, most-significant first, the last byte zero-padded.
    #[test]
    fn multi_bit_writes_and_reads_match_single_bits() {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut fields = Vec::new();
        for _ in 0..2_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            fields.push((x.rotate_left(17), (x >> 58) as u32 + 1));
        }
        let mut w = BitWriter::new();
        let mut one_by_one = Vec::new();
        let mut used = 0;
        for &(value, n) in &fields {
            w.write_bits(value, n);
            for i in (0..n).rev() {
                if used == 0 {
                    one_by_one.push(0u8);
                }
                let last = one_by_one.last_mut().expect("byte pushed above");
                *last |= (((value >> i) & 1) as u8) << (7 - used);
                used = (used + 1) % 8;
            }
        }
        let bytes = w.finish();
        assert_eq!(bytes, one_by_one);
        let mut r = BitReader::new(&bytes);
        for &(value, n) in &fields {
            let mask = if n == 64 { u64::MAX } else { (1 << n) - 1 };
            assert_eq!(r.read_bits(n), Some(value & mask));
        }
    }

    #[test]
    fn empty_and_single() {
        roundtrip(&[]);
        roundtrip(&[(0, 0.0)]);
        roundtrip(&[(-7, f64::NAN)]);
    }

    #[test]
    fn steady_cadence_quantized_values() {
        let samples: Vec<(i64, f64)> = (0..500)
            .map(|i| (i * 30, ((i % 40) * 25) as f64 / 1024.0))
            .collect();
        roundtrip(&samples);
        let bytes = compress(&samples);
        let raw = samples.len() * 16;
        assert!(
            raw as f64 / bytes.len() as f64 >= 4.0,
            "steady traces must compress >=4x ({} -> {} bytes)",
            raw,
            bytes.len()
        );
    }

    #[test]
    fn constant_series_is_tiny() {
        let samples: Vec<(i64, f64)> = (0..1000).map(|i| (i * 60, 0.25)).collect();
        let bytes = compress(&samples);
        // 2 bits per sample after the header: ~250 bytes for 16k raw.
        assert!(bytes.len() < 300, "got {} bytes", bytes.len());
        roundtrip(&samples);
    }

    #[test]
    fn adversarial_extremes() {
        roundtrip(&[
            (i64::MIN, f64::MIN_POSITIVE),
            (i64::MAX, -0.0),
            (0, f64::INFINITY),
            (i64::MIN / 2, f64::NEG_INFINITY),
            (i64::MAX / 2, f64::MAX),
            (1, f64::from_bits(1)),
        ]);
    }

    #[test]
    fn every_dod_bucket() {
        // Deltas chosen so consecutive delta-of-deltas land in each bucket.
        let mut ts = 0i64;
        let mut delta = 0i64;
        let mut samples = vec![(ts, 1.0)];
        for dod in [0, 1, -63, 64, 200, -255, 256, 2048, -2047, 5000, -900000] {
            delta += dod;
            ts += delta;
            samples.push((ts, 1.0));
        }
        roundtrip(&samples);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let samples: Vec<(i64, f64)> = (0..50).map(|i| (i * 30, i as f64 * 0.01)).collect();
        let bytes = compress(&samples);
        for cut in [0, 3, 4, 10, bytes.len() - 1] {
            assert!(decompress(&bytes[..cut]).is_none(), "cut at {cut}");
        }
    }
}
