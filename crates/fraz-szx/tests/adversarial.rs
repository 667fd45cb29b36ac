//! Adversarial-input tests: a corrupt or truncated stream must yield a
//! corrupt-stream `Err(CodecError::Codec)` — never a panic, an abort, or an
//! out-of-bounds read.  Every assertion here is on `Err`; there is no
//! `#[should_panic]` anywhere because panicking *is* the failure mode under
//! test.

use fraz_data::{CodecError, Dataset, Dims};
use fraz_szx::{compress, decompress, SzxConfig};

/// A small valid stream: f32, 1-D, app "t", field "f" (1-byte strings keep
/// the header offsets below stable).
fn valid_stream() -> Vec<u8> {
    let values: Vec<f32> = (0..500).map(|i| (i as f32 * 0.11).sin() * 3.0).collect();
    let dataset = Dataset::from_f32("t", "f", 9, Dims::d1(500), values);
    compress(&dataset, &SzxConfig::with_error_bound(1e-3)).unwrap()
}

// Header layout for the `valid_stream` dataset (1-D, 1-byte strings):
// magic u32 | version u8 | dtype u8 | ndims u8 | axis u64 | timestep u64 |
// app (u16 len + 1) | field (u16 len + 1) | error_bound f64 | block u32 |
// n_blocks u64 | constant_count u64 | ...
const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 4;
const OFF_DTYPE: usize = 5;
const OFF_NDIMS: usize = 6;
const OFF_AXIS: usize = 7;
const OFF_BOUND: usize = 7 + 8 + 8 + 3 + 3;
const OFF_BLOCK: usize = OFF_BOUND + 8;
const OFF_NBLOCKS: usize = OFF_BLOCK + 4;
const OFF_CONSTANT_COUNT: usize = OFF_NBLOCKS + 8;

fn expect_corrupt(data: &[u8], what: &str) {
    match decompress(data) {
        Err(CodecError::Codec(_)) => {}
        Err(other) => panic!("{what}: wrong error variant: {other}"),
        Ok(_) => panic!("{what}: decoded successfully"),
    }
}

fn patched(base: &[u8], offset: usize, bytes: &[u8]) -> Vec<u8> {
    let mut out = base.to_vec();
    out[offset..offset + bytes.len()].copy_from_slice(bytes);
    out
}

#[test]
fn empty_and_tiny_inputs_are_errors() {
    expect_corrupt(&[], "empty input");
    expect_corrupt(&[0x46], "one byte");
    expect_corrupt(&0x4653_5A58u32.to_le_bytes(), "magic only");
}

#[test]
fn every_truncated_prefix_is_an_error() {
    let stream = valid_stream();
    for cut in 0..stream.len() {
        let result = decompress(&stream[..cut]);
        assert!(
            result.is_err(),
            "prefix of {cut}/{} bytes decoded",
            stream.len()
        );
    }
}

#[test]
fn trailing_garbage_is_an_error() {
    let mut stream = valid_stream();
    stream.push(0);
    expect_corrupt(&stream, "one trailing byte");
    stream.extend_from_slice(&[0xAB; 64]);
    expect_corrupt(&stream, "65 trailing bytes");
}

#[test]
fn bad_magic_and_version_are_errors() {
    let stream = valid_stream();
    expect_corrupt(
        &patched(&stream, OFF_MAGIC, &0xDEAD_BEEFu32.to_le_bytes()),
        "wrong magic",
    );
    expect_corrupt(&patched(&stream, OFF_VERSION, &[0]), "version 0");
    expect_corrupt(&patched(&stream, OFF_VERSION, &[99]), "future version");
}

#[test]
fn bad_dtype_and_ndims_are_errors() {
    let stream = valid_stream();
    for dtype in [2u8, 7, 255] {
        expect_corrupt(&patched(&stream, OFF_DTYPE, &[dtype]), "unknown dtype");
    }
    for ndims in [0u8, 5, 200] {
        expect_corrupt(&patched(&stream, OFF_NDIMS, &[ndims]), "bad ndims");
    }
    // Flipping f32 → f64 can stay self-consistent (the width range and
    // payload length still line up, and there is no checksum), so decode may
    // succeed — but it must not panic, and any success must honour the header.
    match decompress(&patched(&stream, OFF_DTYPE, &[1])) {
        Ok(restored) => assert_eq!(restored.dtype(), fraz_data::DType::F64),
        Err(CodecError::Codec(_)) => {}
        Err(other) => panic!("dtype flip: wrong error variant: {other}"),
    }
}

#[test]
fn bad_axes_are_errors_not_allocations() {
    let stream = valid_stream();
    expect_corrupt(
        &patched(&stream, OFF_AXIS, &0u64.to_le_bytes()),
        "zero axis",
    );
    // An absurd axis length must be rejected before any allocation sized by
    // it happens (decode validates section lengths against the input first).
    expect_corrupt(
        &patched(&stream, OFF_AXIS, &u64::MAX.to_le_bytes()),
        "huge axis",
    );
    expect_corrupt(
        &patched(&stream, OFF_AXIS, &(1u64 << 41).to_le_bytes()),
        "axis above cap",
    );
    // 4 × 2^40 axes would overflow the usize element count.
    let mut four_d = patched(&stream, OFF_NDIMS, &[4]);
    four_d = patched(&four_d, OFF_AXIS, &(1u64 << 40).to_le_bytes());
    expect_corrupt(&four_d, "ndims raised without payload");
}

#[test]
fn bad_bound_and_block_size_are_errors() {
    let stream = valid_stream();
    for bound in [0.0f64, -1e-3, f64::NAN, f64::INFINITY] {
        expect_corrupt(
            &patched(&stream, OFF_BOUND, &bound.to_le_bytes()),
            "bad header bound",
        );
    }
    expect_corrupt(&patched(&stream, OFF_BLOCK, &0u32.to_le_bytes()), "block 0");
    expect_corrupt(
        &patched(&stream, OFF_BLOCK, &u32::MAX.to_le_bytes()),
        "block above cap",
    );
}

#[test]
fn inconsistent_section_counts_are_errors() {
    let stream = valid_stream();
    // 500 values at block 128 means exactly 4 blocks; anything else lies.
    for n_blocks in [0u64, 3, 5, u64::MAX] {
        expect_corrupt(
            &patched(&stream, OFF_NBLOCKS, &n_blocks.to_le_bytes()),
            "wrong block count",
        );
    }
    for constant_count in [1u64, 4, u64::MAX] {
        // The valid stream has 0 constant blocks; a nonzero claim must be
        // caught by the flag-bitmap cross-check (or the count cap).
        expect_corrupt(
            &patched(&stream, OFF_CONSTANT_COUNT, &constant_count.to_le_bytes()),
            "wrong constant count",
        );
    }
}

#[test]
fn corrupt_flags_and_widths_are_errors() {
    let stream = valid_stream();
    // 4 blocks → 1 flag byte.
    let flags_off = OFF_CONSTANT_COUNT + 8;
    // A stray bit above block 3 in the flag byte is non-canonical…
    expect_corrupt(&patched(&stream, flags_off, &[0x10]), "stray flag bit");
    // …and a genuine flag bit contradicts constant_count = 0.
    expect_corrupt(&patched(&stream, flags_off, &[0x01]), "flag vs count");
    let widths_off = flags_off + 1;
    for width in [0u8, 8, 33, 255] {
        // f32 kept widths live in [9, 32].
        expect_corrupt(
            &patched(&stream, widths_off, &[width]),
            "width out of range",
        );
    }
}

#[test]
fn wrong_payload_length_is_an_error() {
    let stream = valid_stream();
    let payload_len_off = OFF_CONSTANT_COUNT + 8 + 1 + 4; // flags + 4 widths
    expect_corrupt(
        &patched(&stream, payload_len_off, &0u64.to_le_bytes()),
        "payload length zeroed",
    );
    expect_corrupt(
        &patched(&stream, payload_len_off, &u64::MAX.to_le_bytes()),
        "payload length huge",
    );
}

#[test]
fn random_single_byte_corruption_never_panics() {
    // No checksum means some corruptions still decode (to different values);
    // the contract here is only that none of them panic or read OOB.
    let stream = valid_stream();
    for i in 0..stream.len() {
        for flip in [0x01u8, 0xFF] {
            let mut copy = stream.clone();
            copy[i] ^= flip;
            let _ = decompress(&copy);
        }
    }
}

#[test]
fn random_garbage_inputs_never_panic() {
    let mut state = 0x0BAD_5EED_u64;
    for len in [1usize, 7, 16, 64, 256, 4096] {
        for _ in 0..50 {
            let garbage: Vec<u8> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) as u8
                })
                .collect();
            let _ = decompress(&garbage);
        }
    }
}
