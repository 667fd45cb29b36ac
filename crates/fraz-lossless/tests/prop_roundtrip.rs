//! Property-based tests for the lossless substrate: every byte sequence must
//! survive a compress/decompress roundtrip bit-exactly, and the Huffman coder
//! must roundtrip arbitrary symbol streams.

use proptest::prelude::*;

use fraz_lossless::huffman;
use fraz_lossless::lzss::{self, LzssEncoder};
use fraz_lossless::rle;

mod reference;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn framed_roundtrip_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let packed = fraz_lossless::compress(&data);
        let restored = fraz_lossless::decompress(&packed).unwrap();
        prop_assert_eq!(restored, data);
    }

    #[test]
    fn framed_roundtrip_low_entropy(data in proptest::collection::vec(0u8..4, 0..8192)) {
        let packed = fraz_lossless::compress(&data);
        prop_assert_eq!(fraz_lossless::decompress(&packed).unwrap(), data);
    }

    #[test]
    fn lzss_payload_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let packed = LzssEncoder::new().compress(&data);
        prop_assert_eq!(lzss::decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn huffman_roundtrip_arbitrary_symbols(symbols in proptest::collection::vec(0u32..100_000, 0..2048)) {
        let packed = huffman::encode_symbols(&symbols);
        prop_assert_eq!(huffman::decode_symbols(&packed).unwrap(), symbols);
    }

    #[test]
    fn huffman_roundtrip_skewed_symbols(symbols in proptest::collection::vec(
        prop_oneof![9 => Just(512u32), 1 => 0u32..1024], 1..4096)) {
        let packed = huffman::encode_symbols(&symbols);
        prop_assert_eq!(huffman::decode_symbols(&packed).unwrap(), symbols);
    }

    #[test]
    fn varint_roundtrip(values in proptest::collection::vec(any::<u64>(), 0..256)) {
        let mut w = fraz_lossless::bitio::BitWriter::new();
        for &v in &values {
            rle::write_uvarint(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut r = fraz_lossless::bitio::BitReader::new(&bytes);
        for &v in &values {
            prop_assert_eq!(rle::read_uvarint(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn bitio_roundtrip(fields in proptest::collection::vec((any::<u64>(), 0u32..=64), 0..256)) {
        let mut w = fraz_lossless::bitio::BitWriter::new();
        for &(v, n) in &fields {
            let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
            w.write_bits(masked, n);
        }
        let bytes = w.into_bytes();
        let mut r = fraz_lossless::bitio::BitReader::new(&bytes);
        for &(v, n) in &fields {
            let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
            prop_assert_eq!(r.read_bits(n).unwrap(), masked);
        }
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Corrupted/arbitrary input must produce Ok or Err, never a panic.
        let _ = fraz_lossless::decompress(&data);
    }
}

// The optimized encoder against the naive reference decoder (an independent,
// bit-at-a-time implementation of the frozen wire format under
// `tests/reference/`): if the fast paths ever drift from the format, these
// disagree immediately.  Fewer cases than above — the reference decoder is
// deliberately slow.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn framed_output_decodes_with_reference_decoder(
        data in proptest::collection::vec(any::<u8>(), 0..1024)
    ) {
        let packed = fraz_lossless::compress(&data);
        prop_assert_eq!(reference::decompress_framed(&packed).unwrap(), data);
    }

    #[test]
    fn lzss_payload_decodes_with_reference_decoder(
        data in proptest::collection::vec(0u8..16, 0..1024)
    ) {
        let packed = LzssEncoder::new().compress(&data);
        prop_assert_eq!(reference::decompress_lzss(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn huffman_output_decodes_with_reference_decoder(
        symbols in proptest::collection::vec(0u32..50_000, 0..768)
    ) {
        let packed = huffman::encode_symbols(&symbols);
        prop_assert_eq!(reference::decode_huffman_symbols(&packed).unwrap(), symbols);
    }
}
