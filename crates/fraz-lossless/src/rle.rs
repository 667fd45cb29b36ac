//! The unsigned variable-length integer the Huffman table serializer counts
//! and delta-codes its symbols with.

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
    fn small_varints_are_one_byte_group() {
        let mut w = BitWriter::new();
        write_uvarint(&mut w, 100);
        assert_eq!(w.bit_len(), 8);
    }
}
