//! Variable-length integers, zig-zag mapping and run-length helpers.
//!
//! These small utilities are shared by the Huffman table serializer, the LZSS
//! container and the lossy codec crates (which store block headers and
//! unpredictable-value indices with them).

use crate::bitio::{BitReader, BitWriter};
use crate::Result;

/// Write an unsigned LEB128-style varint: 7 value bits per group, MSB-first
/// groups, each prefixed by a continuation bit.
pub fn write_uvarint(w: &mut BitWriter, mut value: u64) {
    loop {
        let group = (value & 0x7f) as u64;
        value >>= 7;
        let more = value != 0;
        w.write_bit(more);
        w.write_bits(group, 7);
        if !more {
            break;
        }
    }
}

/// Read a varint written by [`write_uvarint`].
pub fn read_uvarint(r: &mut BitReader<'_>) -> Result<u64> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let more = r.read_bit()?;
        let group = r.read_bits(7)?;
        value |= group << shift;
        shift += 7;
        if !more || shift >= 64 {
            break;
        }
    }
    Ok(value)
}

/// Map a signed integer to an unsigned one so small magnitudes stay small
/// (0, -1, 1, -2, 2, ... -> 0, 1, 2, 3, 4, ...).
#[inline]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Write a signed varint (zig-zag + [`write_uvarint`]).
pub fn write_ivarint(w: &mut BitWriter, value: i64) {
    write_uvarint(w, zigzag_encode(value));
}

/// Read a signed varint written by [`write_ivarint`].
pub fn read_ivarint(r: &mut BitReader<'_>) -> Result<i64> {
    Ok(zigzag_decode(read_uvarint(r)?))
}

/// Run-length encode a `u32` sequence as `(value, run length)` pairs.
pub fn rle_encode(values: &[u32]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut iter = values.iter();
    if let Some(&first) = iter.next() {
        let mut current = first;
        let mut run = 1u32;
        for &v in iter {
            if v == current && run < u32::MAX {
                run += 1;
            } else {
                out.push((current, run));
                current = v;
                run = 1;
            }
        }
        out.push((current, run));
    }
    out
}

/// Expand `(value, run length)` pairs back into the original sequence.
/// Run lengths are declared, not demonstrated, so the reservation is
/// fallible: an absurd total is an error, not an allocation abort.
pub fn rle_decode(pairs: &[(u32, u32)]) -> Result<Vec<u32>> {
    let total = pairs
        .iter()
        .try_fold(0usize, |t, &(_, r)| t.checked_add(r as usize))
        .unwrap_or(usize::MAX);
    let mut out = crate::try_vec(total)?;
    for &(v, r) in pairs {
        out.extend(std::iter::repeat(v).take(r as usize));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_roundtrip() {
        let values = [
            0u64,
            1,
            127,
            128,
            255,
            300,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ];
        let mut w = BitWriter::new();
        for &v in &values {
            write_uvarint(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(read_uvarint(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn ivarint_roundtrip() {
        let values = [
            0i64,
            -1,
            1,
            -64,
            64,
            i32::MIN as i64,
            i32::MAX as i64,
            i64::MIN,
            i64::MAX,
        ];
        let mut w = BitWriter::new();
        for &v in &values {
            write_ivarint(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(read_ivarint(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_is_order_preserving_in_magnitude() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        for v in [-1000i64, -5, 0, 5, 1000, i64::MAX, i64::MIN] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn small_varints_are_one_byte_group() {
        let mut w = BitWriter::new();
        write_uvarint(&mut w, 100);
        assert_eq!(w.bit_len(), 8);
    }

    #[test]
    fn rle_roundtrip() {
        let values = vec![5u32, 5, 5, 1, 2, 2, 2, 2, 9];
        let pairs = rle_encode(&values);
        assert_eq!(pairs, vec![(5, 3), (1, 1), (2, 4), (9, 1)]);
        assert_eq!(rle_decode(&pairs).unwrap(), values);
    }

    #[test]
    fn rle_empty() {
        assert!(rle_encode(&[]).is_empty());
        assert!(rle_decode(&[]).unwrap().is_empty());
    }
}
