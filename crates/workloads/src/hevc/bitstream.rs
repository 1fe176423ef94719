//! Bit-level I/O with unsigned/signed Exp-Golomb codes (the entropy
//! coding layer of the mini-HEVC codec, matching HEVC's `ue(v)` /
//! `se(v)` descriptors).

/// MSB-first bit writer.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits used in the current partial byte (0..8).
    fill: u32,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one bit.
    pub fn put_bit(&mut self, bit: bool) {
        if self.fill == 0 {
            self.bytes.push(0);
        }
        // `fill == 0` pushed a byte just above; `fill > 0` implies a
        // partial byte already exists, so the `if let` always binds.
        if bit {
            if let Some(last) = self.bytes.last_mut() {
                *last |= 1 << (7 - self.fill);
            }
        }
        self.fill = (self.fill + 1) % 8;
    }

    /// Appends `count` bits of `value`, MSB first.
    pub fn put_bits(&mut self, value: u32, count: u32) {
        assert!(count <= 32);
        for i in (0..count).rev() {
            self.put_bit((value >> i) & 1 != 0);
        }
    }

    /// Unsigned Exp-Golomb.
    pub fn put_ue(&mut self, value: u32) {
        assert!(value < u32::MAX, "ue range");
        let v = value + 1;
        let bits = 32 - v.leading_zeros();
        for _ in 0..bits - 1 {
            self.put_bit(false);
        }
        self.put_bits(v, bits);
    }

    /// Signed Exp-Golomb (HEVC mapping: 1 -> 1, -1 -> 2, 2 -> 3, …).
    pub fn put_se(&mut self, value: i32) {
        let mapped = if value > 0 {
            (value as u32) * 2 - 1
        } else {
            (-(value as i64) as u32) * 2
        };
        self.put_ue(mapped);
    }

    /// Finishes the stream, byte-aligned with zero padding.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// MSB-first bit reader. Reads past the end yield zero bits, mirroring
/// the zero padding `finish` applies (the mini-C decoder behaves the
/// same way).
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Reader over a byte stream.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads one bit.
    pub fn get_bit(&mut self) -> bool {
        let byte = self.pos / 8;
        let bit = 7 - (self.pos % 8);
        self.pos += 1;
        match self.bytes.get(byte) {
            Some(b) => (b >> bit) & 1 != 0,
            None => false,
        }
    }

    /// Reads `count` bits, MSB first.
    pub fn get_bits(&mut self, count: u32) -> u32 {
        let mut v = 0;
        for _ in 0..count {
            v = (v << 1) | self.get_bit() as u32;
        }
        v
    }

    /// Unsigned Exp-Golomb.
    pub fn get_ue(&mut self) -> u32 {
        let mut zeros = 0;
        while !self.get_bit() {
            zeros += 1;
            if zeros > 32 {
                return 0; // corrupt stream; degrade gracefully
            }
        }
        let rest = self.get_bits(zeros);
        ((1u64 << zeros) as u32).wrapping_add(rest).wrapping_sub(1)
    }

    /// Signed Exp-Golomb.
    pub fn get_se(&mut self) -> i32 {
        let v = self.get_ue();
        if v % 2 == 1 {
            ((v / 2) + 1) as i32
        } else {
            -((v / 2) as i32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bits(0b1011, 4);
        w.put_bits(0x1ff, 9);
        w.put_bit(true);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(4), 0b1011);
        assert_eq!(r.get_bits(9), 0x1ff);
        assert!(r.get_bit());
    }

    #[test]
    fn ue_roundtrip() {
        let values = [0u32, 1, 2, 3, 7, 8, 100, 255, 1000, 65535];
        let mut w = BitWriter::new();
        for &v in &values {
            w.put_ue(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.get_ue(), v);
        }
    }

    #[test]
    fn se_roundtrip() {
        let values = [0i32, 1, -1, 2, -2, 17, -17, 500, -500];
        let mut w = BitWriter::new();
        for &v in &values {
            w.put_se(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.get_se(), v);
        }
    }

    #[test]
    fn ue_known_codes() {
        // ue(0) = "1", ue(1) = "010", ue(2) = "011"
        let mut w = BitWriter::new();
        w.put_ue(0);
        w.put_ue(1);
        w.put_ue(2);
        let bytes = w.finish();
        assert_eq!(
            w_bits(&bytes, 7),
            vec![true, false, true, false, false, true, true]
        );
    }

    fn w_bits(bytes: &[u8], n: usize) -> Vec<bool> {
        let mut r = BitReader::new(bytes);
        (0..n).map(|_| r.get_bit()).collect()
    }

    #[test]
    fn reading_past_end_yields_zeros() {
        let mut r = BitReader::new(&[0x80]);
        assert!(r.get_bit());
        assert_eq!(r.get_bits(20), 0);
    }
}
