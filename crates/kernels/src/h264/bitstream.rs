//! Bit-level stream writer/reader with unsigned and signed exp-Golomb codes,
//! the entropy-coding workhorse of H.264's CAVLC mode.

/// Writes bits MSB-first into a byte vector.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the last byte (0..8).
    bit_pos: u8,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of whole bytes written so far (including the partially filled
    /// one).
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Total number of bits written.
    pub fn len_bits(&self) -> usize {
        if self.bit_pos == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + self.bit_pos as usize
        }
    }

    /// Append a single bit.
    pub fn put_bit(&mut self, bit: bool) {
        if self.bit_pos == 0 {
            self.bytes.push(0);
        }
        if bit {
            let last = self.bytes.last_mut().expect("byte pushed above");
            *last |= 1 << (7 - self.bit_pos);
        }
        self.bit_pos = (self.bit_pos + 1) % 8;
    }

    /// Append the `count` least-significant bits of `value`, MSB first.
    ///
    /// # Panics
    /// Panics if `count > 32`.
    pub fn put_bits(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "at most 32 bits at a time");
        for i in (0..count).rev() {
            self.put_bit((value >> i) & 1 == 1);
        }
    }

    /// Append an unsigned exp-Golomb code (`ue(v)` in the H.264 spec).
    pub fn put_ue(&mut self, value: u32) {
        let v = value as u64 + 1;
        let bits = 64 - v.leading_zeros() as u8; // position of the MSB
                                                 // (bits - 1) zeros, then the value itself in `bits` bits.
        for _ in 0..bits - 1 {
            self.put_bit(false);
        }
        for i in (0..bits).rev() {
            self.put_bit((v >> i) & 1 == 1);
        }
    }

    /// Append a signed exp-Golomb code (`se(v)`).
    pub fn put_se(&mut self, value: i32) {
        let mapped = if value <= 0 {
            (-(value as i64) * 2) as u32
        } else {
            (value as u32) * 2 - 1
        };
        self.put_ue(mapped);
    }

    /// Pad to a byte boundary with zero bits and return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        while self.bit_pos != 0 {
            self.put_bit(false);
        }
        self.bytes
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next bit index.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Create a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Bits remaining in the stream.
    pub fn remaining_bits(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// Read one bit; `None` at end of stream.
    pub fn get_bit(&mut self) -> Option<bool> {
        if self.pos >= self.bytes.len() * 8 {
            return None;
        }
        let byte = self.bytes[self.pos / 8];
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Read `count` bits MSB-first.
    pub fn get_bits(&mut self, count: u8) -> Option<u32> {
        assert!(count <= 32, "at most 32 bits at a time");
        let mut out = 0u32;
        for _ in 0..count {
            out = (out << 1) | u32::from(self.get_bit()?);
        }
        Some(out)
    }

    /// Read an unsigned exp-Golomb code.
    pub fn get_ue(&mut self) -> Option<u32> {
        let mut zeros = 0u8;
        while !self.get_bit()? {
            zeros += 1;
            if zeros > 32 {
                return None;
            }
        }
        let mut v: u64 = 1;
        for _ in 0..zeros {
            v = (v << 1) | u64::from(self.get_bit()?);
        }
        Some((v - 1) as u32)
    }

    /// Read a signed exp-Golomb code.
    pub fn get_se(&mut self) -> Option<i32> {
        let mapped = self.get_ue()?;
        Some(if mapped % 2 == 0 {
            -((mapped / 2) as i32)
        } else {
            mapped.div_ceil(2) as i32
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bit_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.put_bit(b);
        }
        assert_eq!(w.len_bits(), 9);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.get_bit(), Some(b));
        }
    }

    #[test]
    fn fixed_width_fields_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bits(0b1011, 4);
        w.put_bits(300, 12);
        w.put_bits(0, 3);
        w.put_bits(u32::MAX, 32);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(4), Some(0b1011));
        assert_eq!(r.get_bits(12), Some(300));
        assert_eq!(r.get_bits(3), Some(0));
        assert_eq!(r.get_bits(32), Some(u32::MAX));
    }

    #[test]
    fn ue_known_codewords() {
        // The first few exp-Golomb codewords from the H.264 spec:
        // 0 -> "1", 1 -> "010", 2 -> "011", 3 -> "00100".
        let mut w = BitWriter::new();
        for v in 0..4u32 {
            w.put_ue(v);
        }
        let bytes = w.finish();
        // 1 010 011 00100 -> 1010 0110 0100 0000
        assert_eq!(bytes, vec![0b1010_0110, 0b0100_0000]);
    }

    #[test]
    fn end_of_stream_returns_none() {
        let bytes = [0b1000_0000u8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(8), Some(0b1000_0000));
        assert_eq!(r.get_bit(), None);
        assert_eq!(r.get_bits(4), None);
        assert_eq!(r.get_ue(), None);
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn empty_writer_finishes_empty() {
        assert!(BitWriter::new().finish().is_empty());
        assert_eq!(BitWriter::new().len_bits(), 0);
    }

    proptest! {
        /// ue/se round-trip for arbitrary values.
        #[test]
        fn prop_ue_roundtrip(values in proptest::collection::vec(0u32..1_000_000, 0..100)) {
            let mut w = BitWriter::new();
            for &v in &values {
                w.put_ue(v);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                prop_assert_eq!(r.get_ue(), Some(v));
            }
        }

        #[test]
        fn prop_se_roundtrip(values in proptest::collection::vec(-500_000i32..500_000, 0..100)) {
            let mut w = BitWriter::new();
            for &v in &values {
                w.put_se(v);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                prop_assert_eq!(r.get_se(), Some(v));
            }
        }

        /// Mixed fixed-width and exp-Golomb fields round-trip.
        #[test]
        fn prop_mixed_roundtrip(fields in proptest::collection::vec((0u32..4096, 1u8..16), 0..50)) {
            let mut w = BitWriter::new();
            for &(v, width) in &fields {
                let v = v & ((1u32 << width) - 1);
                w.put_bits(v, width);
                w.put_ue(v);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &(v, width) in &fields {
                let v = v & ((1u32 << width) - 1);
                prop_assert_eq!(r.get_bits(width), Some(v));
                prop_assert_eq!(r.get_ue(), Some(v));
            }
        }
    }
}
