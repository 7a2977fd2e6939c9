//! Bit-granular readers and writers used by the entropy-coded codecs.
//!
//! Bits are packed least-significant-first within each byte, matching the
//! DEFLATE convention, so canonical Huffman codes can be emitted directly.

use crate::{CodecError, Result};

/// Append-only bit writer that emits straight into the caller's buffer.
///
/// Bits accumulate in a 64-bit register and are flushed 32 at a time, so a
/// write costs one shift-or and, on average, one branch.
#[derive(Debug)]
pub struct BitWriter<'a> {
    dst: &'a mut Vec<u8>,
    /// Bits accumulated but not yet flushed to `dst` (LSB-first).
    acc: u64,
    /// Number of valid bits in `acc` (always < 32 between calls).
    nbits: u32,
}

impl<'a> BitWriter<'a> {
    /// Create a writer that appends to `dst`.
    pub fn new(dst: &'a mut Vec<u8>) -> Self {
        BitWriter {
            dst,
            acc: 0,
            nbits: 0,
        }
    }

    /// Write the low `count` bits of `bits` (LSB-first). `count` must be <= 32.
    #[inline]
    pub fn write_bits(&mut self, bits: u64, count: u32) {
        debug_assert!(count <= 32);
        debug_assert!(bits < (1u64 << count));
        self.acc |= bits << self.nbits;
        self.nbits += count;
        if self.nbits >= 32 {
            self.dst.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.nbits -= 32;
        }
    }

    /// Pad to a byte boundary with zero bits and flush the pending bytes.
    pub fn finish(self) {
        let bytes = self.acc.to_le_bytes();
        self.dst
            .extend_from_slice(&bytes[..self.nbits.div_ceil(8) as usize]);
    }
}

/// Reverse the low `len` bits of `code`.
#[inline]
pub fn reverse_bits(code: u32, len: u32) -> u32 {
    if len == 0 {
        return 0;
    }
    code.reverse_bits() >> (32 - len)
}

/// Bit reader over a byte slice, LSB-first.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Bits `0..nbits` are unread input. Higher bits are either zero or a
    /// copy of the input bytes from `pos` on, so OR-ing those bytes in again
    /// is harmless.
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Create a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Top up `acc` to at least 56 valid bits, or to the end of the input.
    #[inline]
    fn refill(&mut self) {
        if !self.refill_word() {
            while self.nbits <= 56 && self.pos < self.buf.len() {
                self.acc |= (self.buf[self.pos] as u64) << self.nbits;
                self.pos += 1;
                self.nbits += 8;
            }
        }
    }

    /// Top up to at least 56 buffered bits with one whole-word load, if at
    /// least eight unread input bytes remain; returns whether it did. A
    /// `true` return guarantees [`BitReader::bits`] holds 56 valid bits.
    #[inline]
    pub(crate) fn refill_word(&mut self) -> bool {
        let Some(word) = self.buf.get(self.pos..self.pos + 8) else {
            return false;
        };
        // Only the bytes that fit completely count.
        let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        self.acc |= word << self.nbits;
        let n = (63 - self.nbits) / 8;
        self.pos += n as usize;
        self.nbits += n * 8;
        true
    }

    /// The buffered bits, next bit lowest. Only as many low bits are valid
    /// as the last refill guaranteed minus those skipped since.
    #[inline]
    pub(crate) fn bits(&self) -> u64 {
        self.acc
    }

    /// Drop `count` buffered bits; the caller knows that many are buffered
    /// (after a `true` [`BitReader::refill_word`], up to 56 in total).
    #[inline]
    pub(crate) fn skip(&mut self, count: u32) {
        debug_assert!(count <= self.nbits);
        self.acc >>= count;
        self.nbits -= count;
    }

    /// Read `count` bits (LSB-first). `count` must be <= 32.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] if the stream is exhausted.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64> {
        debug_assert!(count <= 32);
        if self.nbits < count {
            self.refill();
            if self.nbits < count {
                return Err(CodecError::Corrupt("bitstream underrun"));
            }
        }
        let v = self.acc & ((1u64 << count) - 1);
        self.acc >>= count;
        self.nbits -= count;
        Ok(v)
    }

    /// Peek up to `count` (<= 32) bits without consuming. Missing trailing
    /// bits are zero-filled (needed by table-driven Huffman decode at stream
    /// end).
    #[inline]
    pub fn peek_bits(&mut self, count: u32) -> u64 {
        debug_assert!(count <= 32);
        if self.nbits < count {
            self.refill();
        }
        self.acc & ((1u64 << count) - 1)
    }

    /// Consume `count` bits previously peeked.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] if fewer than `count` bits remain.
    #[inline]
    pub fn consume(&mut self, count: u32) -> Result<()> {
        if self.nbits < count {
            return Err(CodecError::Corrupt("bitstream underrun on consume"));
        }
        self.acc >>= count;
        self.nbits -= count;
        Ok(())
    }
}

/// Write an unsigned LEB128 varint to `dst`.
pub fn write_varint(dst: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            dst.push(byte);
            return;
        }
        dst.push(byte | 0x80);
    }
}

/// Read an unsigned LEB128 varint from `src` starting at `*pos`.
///
/// # Errors
///
/// Returns [`CodecError::Corrupt`] on truncation or overlong encoding.
pub fn read_varint(src: &[u8], pos: &mut usize) -> Result<u64> {
    let mut shift = 0u32;
    let mut v = 0u64;
    loop {
        let byte = *src
            .get(*pos)
            .ok_or(CodecError::Corrupt("varint truncated"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::Corrupt("varint overlong"));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip() {
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        let values: Vec<(u64, u32)> = vec![
            (0b1, 1),
            (0b1010, 4),
            (0x3ff, 10),
            (0, 3),
            (0x1ffff, 17),
            (42, 7),
        ];
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            assert_eq!(r.read_bits(n).unwrap(), v);
        }
    }

    #[test]
    fn long_stream_round_trips_across_word_refills() {
        // Widths 1..=32 in a pseudo-random order cross every flush and
        // refill boundary, including the bytewise tail.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let values: Vec<(u64, u32)> = (0..2000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let n = (x % 32) as u32 + 1;
                (x >> 32 & ((1u64 << n) - 1), n)
            })
            .collect();
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        w.finish();
        let total: u32 = values.iter().map(|&(_, n)| n).sum();
        assert_eq!(bytes.len(), total.div_ceil(8) as usize);
        let mut r = BitReader::new(&bytes);
        for (i, &(v, n)) in values.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(r.read_bits(n).unwrap(), v);
            } else {
                assert_eq!(r.peek_bits(n), v);
                r.consume(n).unwrap();
            }
        }
        assert!(r.read_bits(8).is_err());
    }

    #[test]
    fn peek_then_consume() {
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        w.write_bits(0b1101, 4);
        w.write_bits(0b111, 3);
        w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(4) & 0xf, 0b1101);
        r.consume(4).unwrap();
        assert_eq!(r.read_bits(3).unwrap(), 0b111);
    }

    #[test]
    fn underrun_is_error() {
        let bytes = [0xffu8];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(8).is_ok());
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn reverse_bits_examples() {
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b10, 2), 0b01);
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0, 0), 0);
    }

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 16384, u32::MAX as u64, u64::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_truncated_is_error() {
        let buf = [0x80u8, 0x80];
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos).is_err());
    }
}
