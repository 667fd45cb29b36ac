//! MSB-first bit-level readers and writers.
//!
//! Every entropy-coding stage in the workspace (Huffman codes in the SZ-like
//! codec, the embedded bit-plane coder in the ZFP-like codec, the dictionary
//! coder in this crate) packs variable-width fields into a byte stream.  The
//! two types here provide that plumbing with a single convention:
//! **most-significant-bit first within each byte**, bytes appended in order.
//!
//! Both sides work a *word* at a time rather than a bit at a time.  The
//! writer keeps a 64-bit accumulator and spills four bytes at once — one
//! spill per 32 bits written, not one per byte, which is what a short
//! Huffman code per call costs; the reader keeps
//! an absolute bit cursor and serves every request from one unaligned 8-byte
//! load, which also gives the decoder a branch-light
//! [`BitReader::peek_bits`] / [`BitReader::consume`] pair: the table-driven
//! Huffman decoder peeks a fixed-width window, looks the symbol up, and
//! consumes only the bits the code actually used.  The byte layout is
//! identical to the historical per-bit implementation, so existing payloads
//! decode unchanged.

use crate::{CodingError, Result};

/// Maximum width [`BitReader::peek_bits`] supports (one word minus the worst
/// intra-byte misalignment of 7 bits).
pub const MAX_PEEK_BITS: u32 = 57;

/// Accumulates bits MSB-first into a growable byte vector.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits: the low `nbits` bits of `acc` have been written but not
    /// yet spilled to `buf` (most significant pending bit first).  Between
    /// public calls `nbits` is at most 31.
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a writer with `bytes` of pre-reserved capacity.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
            acc: 0,
            nbits: 0,
        }
    }

    /// Number of whole bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Append up to 32 bits.  `self.nbits <= 31` on entry, so the shifted
    /// accumulator never overflows 64 bits.
    #[inline]
    fn push_small(&mut self, value: u64, nbits: u32) {
        debug_assert!(nbits <= 32 && self.nbits <= 31);
        if nbits == 0 {
            return;
        }
        let value = value & (u64::MAX >> (64 - nbits));
        self.acc = (self.acc << nbits) | value;
        self.nbits += nbits;
        if self.nbits >= 32 {
            self.nbits -= 32;
            let word = (self.acc >> self.nbits) as u32;
            self.buf.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Append a single bit (`true` = 1).
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.push_small(bit as u64, 1);
    }

    /// Append the lowest `nbits` bits of `value`, most significant first.
    ///
    /// `nbits` may be 0 (no-op) up to 64.
    #[inline]
    pub fn write_bits(&mut self, value: u64, nbits: u32) {
        debug_assert!(nbits <= 64);
        if nbits > 32 {
            self.push_small(value >> 32, nbits - 32);
            self.push_small(value & 0xFFFF_FFFF, 32);
        } else {
            self.push_small(value, nbits);
        }
    }

    /// Append `count` copies of `bit`.
    pub fn write_run(&mut self, bit: bool, count: usize) {
        let fill = if bit { u64::MAX } else { 0 };
        let mut remaining = count;
        while remaining > 0 {
            let chunk = remaining.min(32) as u32;
            self.push_small(fill, chunk);
            remaining -= chunk as usize;
        }
    }

    /// Align to the next byte boundary by writing zero bits.
    pub fn align_byte(&mut self) {
        let bytes = self.nbits.div_ceil(8);
        // The pending bits, zero-padded on the low side to whole bytes.
        let padded = (self.acc << (8 * bytes - self.nbits)) as u32;
        self.buf
            .extend_from_slice(&padded.to_be_bytes()[4 - bytes as usize..]);
        self.nbits = 0;
    }

    /// Finish writing and return the backing byte vector.  Any partial final
    /// byte is zero-padded on the low (least significant) side.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align_byte();
        self.buf
    }
}

/// Reads bits MSB-first from a byte slice.
///
/// Sequential reads ([`read_bit`](Self::read_bit) /
/// [`read_bits`](Self::read_bits)) report [`CodingError::UnexpectedEof`] past
/// the end.  The speculative pair [`peek_bits`](Self::peek_bits) /
/// [`consume`](Self::consume) instead zero-pads past the end, which lets a
/// table decoder look at a fixed window near the end of the stream and then
/// validate the *actual* code length against
/// [`bits_remaining`](Self::bits_remaining).
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Absolute cursor: index of the next unread bit.
    bit_pos: usize,
}

impl<'a> BitReader<'a> {
    /// Wrap a byte slice for bit-level reading.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, bit_pos: 0 }
    }

    /// Number of bits consumed so far.
    pub fn bits_consumed(&self) -> usize {
        self.bit_pos
    }

    /// Number of whole bits still available.
    pub fn bits_remaining(&self) -> usize {
        self.data.len() * 8 - self.bit_pos
    }

    /// The next (up to 57) bits of the stream, MSB-aligned into the *top* of
    /// the returned word; bits past the end of the data read as zero.
    #[inline]
    fn peek_word(&self) -> u64 {
        let byte = self.bit_pos >> 3;
        let word = if byte + 8 <= self.data.len() {
            u64::from_be_bytes(self.data[byte..byte + 8].try_into().expect("8-byte slice"))
        } else {
            let mut tmp = [0u8; 8];
            if byte < self.data.len() {
                tmp[..self.data.len() - byte].copy_from_slice(&self.data[byte..]);
            }
            u64::from_be_bytes(tmp)
        };
        word << (self.bit_pos & 7)
    }

    /// Look at the next `nbits` (0..=57) bits without consuming them,
    /// returned in the low bits of a `u64`.  Bits past the end of the stream
    /// read as zero — callers that may overrun must validate the consumed
    /// length against [`bits_remaining`](Self::bits_remaining).
    #[inline]
    pub fn peek_bits(&self, nbits: u32) -> u64 {
        debug_assert!(nbits <= MAX_PEEK_BITS);
        if nbits == 0 {
            return 0;
        }
        self.peek_word() >> (64 - nbits)
    }

    /// Advance the cursor by `nbits` previously peeked bits.
    #[inline]
    pub fn consume(&mut self, nbits: u32) {
        debug_assert!(nbits as usize <= self.bits_remaining());
        self.bit_pos += nbits as usize;
    }

    /// Read one bit, returning `Err(UnexpectedEof)` past the end.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        let byte = self.bit_pos >> 3;
        if byte >= self.data.len() {
            return Err(CodingError::UnexpectedEof);
        }
        let bit = (self.data[byte] >> (7 - (self.bit_pos & 7))) & 1 == 1;
        self.bit_pos += 1;
        Ok(bit)
    }

    /// Read `nbits` bits (MSB first) into the low bits of a `u64`.
    #[inline]
    pub fn read_bits(&mut self, nbits: u32) -> Result<u64> {
        debug_assert!(nbits <= 64);
        if nbits as usize > self.bits_remaining() {
            return Err(CodingError::UnexpectedEof);
        }
        if nbits == 0 {
            return Ok(0);
        }
        if nbits <= MAX_PEEK_BITS {
            let v = self.peek_word() >> (64 - nbits);
            self.bit_pos += nbits as usize;
            Ok(v)
        } else {
            // 58..=64 bits: split into two in-range reads.
            let hi_bits = nbits - 32;
            let hi = self.peek_word() >> (64 - hi_bits);
            self.bit_pos += hi_bits as usize;
            let lo = self.peek_word() >> 32;
            self.bit_pos += 32;
            Ok((hi << 32) | lo)
        }
    }

    /// Skip to the next byte boundary (no-op if already aligned).
    pub fn align_byte(&mut self) {
        self.bit_pos = (self.bit_pos + 7) & !7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let pattern = [
            true, false, true, true, false, false, true, false, true, true, true,
        ];
        let mut w = BitWriter::new();
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), pattern.len());
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_fields_roundtrip() {
        let fields: &[(u64, u32)] = &[
            (0, 1),
            (1, 1),
            (0b101, 3),
            (0xdead_beef, 32),
            (0x1234_5678_9abc_def0, 64),
            (0, 0),
            (7, 5),
            (u64::MAX, 63),
            (u64::MAX, 58),
        ];
        let mut w = BitWriter::new();
        for &(v, n) in fields {
            w.write_bits(v, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in fields {
            let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
            assert_eq!(r.read_bits(n).unwrap(), masked, "field {v}:{n}");
        }
    }

    #[test]
    fn eof_is_reported() {
        let mut w = BitWriter::new();
        w.write_bits(0b1010, 4);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0b1010_0000);
        assert_eq!(r.read_bit(), Err(CodingError::UnexpectedEof));
    }

    #[test]
    fn alignment() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.align_byte();
        w.write_bits(0xab, 8);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1000_0000, 0xab]);
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit().unwrap());
        r.align_byte();
        assert_eq!(r.read_bits(8).unwrap(), 0xab);
    }

    #[test]
    fn bit_accounting() {
        let mut w = BitWriter::new();
        w.write_run(true, 13);
        assert_eq!(w.bit_len(), 13);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits_remaining(), 16);
        r.read_bits(13).unwrap();
        assert_eq!(r.bits_consumed(), 13);
        assert_eq!(r.bits_remaining(), 3);
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bits(0b1100_0001, 8);
        assert_eq!(w.into_bytes(), vec![0b1100_0001]);
    }

    #[test]
    fn long_runs_match_per_bit_layout() {
        // write_run spills in 32-bit chunks; the byte layout must match what
        // bit-at-a-time writing would have produced.
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_run(false, 70);
        w.write_run(true, 9);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit().unwrap());
        for _ in 0..70 {
            assert!(!r.read_bit().unwrap());
        }
        for _ in 0..9 {
            assert!(r.read_bit().unwrap());
        }
    }

    #[test]
    fn peek_and_consume_mirror_reads() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011_0110_0101, 12);
        w.write_bits(0x3FFF, 14);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(12), 0b1011_0110_0101);
        // Peeking is idempotent.
        assert_eq!(r.peek_bits(12), 0b1011_0110_0101);
        r.consume(5);
        assert_eq!(r.peek_bits(7), 0b110_0101);
        r.consume(7);
        assert_eq!(r.read_bits(14).unwrap(), 0x3FFF);
    }

    #[test]
    fn peek_past_end_is_zero_padded() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(12), 0b1111_1111_0000);
        r.consume(8);
        assert_eq!(r.bits_remaining(), 0);
        assert_eq!(r.peek_bits(10), 0);
    }

    #[test]
    fn upper_bit_widths_roundtrip() {
        for n in 55..=64u32 {
            let v = 0xA5A5_A5A5_A5A5_A5A5u64 & if n == 64 { u64::MAX } else { (1 << n) - 1 };
            let mut w = BitWriter::new();
            w.write_bits(0b101, 3); // misalign
            w.write_bits(v, n);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.read_bits(3).unwrap(), 0b101);
            assert_eq!(r.read_bits(n).unwrap(), v, "width {n}");
        }
    }
}
