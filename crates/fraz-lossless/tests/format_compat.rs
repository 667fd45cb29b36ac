//! Cross-version format compatibility: payloads produced by *older* builds of
//! this crate must keep decoding byte-for-byte forever.
//!
//! The committed fixtures under `tests/fixtures/` were generated by the
//! pre-optimization (PR 4-era) encoder — per-bit `BitWriter`, tree-walk
//! Huffman decoder, allocation-per-call LZSS.  Every later rewrite of the
//! fast paths must still restore them exactly: the on-wire format is frozen
//! even when the implementation underneath it is not.
//!
//! The raw inputs are deterministic (seeded LCG / fixed patterns) so only the
//! compressed payloads need committing.  To regenerate after an *intentional,
//! versioned* format change (which also requires new magic / version bytes):
//!
//! ```text
//! cargo test -p fraz-lossless --test format_compat -- --ignored regenerate
//! ```

use std::path::PathBuf;

use fraz_lossless::huffman;
use fraz_lossless::lzss::{self, LzssEncoder};

mod reference;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn read_fixture(name: &str) -> Vec<u8> {
    let path = fixture_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Deterministic inputs (identical across versions by construction).

fn lcg_bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

fn input_text() -> Vec<u8> {
    b"the quick brown fox jumps over the lazy dog. ".repeat(120)
}

fn input_random() -> Vec<u8> {
    lcg_bytes(0x5eed_f00d, 4096)
}

fn input_low_entropy() -> Vec<u8> {
    (0..8192u32).map(|i| ((i / 13) % 4) as u8).collect()
}

fn input_allbytes() -> Vec<u8> {
    (0..=255u8).cycle().take(2048).collect()
}

fn input_overlap() -> Vec<u8> {
    // Distance-1 overlapping matches plus a literal island.
    let mut v = vec![b'a'; 700];
    v.extend_from_slice(b"island");
    v.extend(vec![b'z'; 700]);
    v
}

fn framed_inputs() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("framed_text.bin", input_text()),
        ("framed_random.bin", input_random()),
        ("framed_low_entropy.bin", input_low_entropy()),
        ("framed_allbytes.bin", input_allbytes()),
        ("framed_overlap.bin", input_overlap()),
        ("framed_empty.bin", Vec::new()),
    ]
}

/// Raw LZSS payloads of [`input_text`].  The `fast` (16 KiB window, chain 8,
/// greedy) and `high` (64 KiB window, chain 256) fixtures come from encoder
/// profiles that no longer exist: they are frozen, decode-only evidence that
/// the format carries no encoder setting.
const LZSS_FIXTURES: [&str; 3] = [
    "lzss_default_text.bin",
    "lzss_fast_text.bin",
    "lzss_high_text.bin",
];

fn huffman_skewed_symbols() -> Vec<u32> {
    // SZ-like quantization codes: heavily centred with sparse outliers.
    let mut symbols = Vec::with_capacity(5000);
    for i in 0..5000u32 {
        let s = match i % 100 {
            0..=79 => 512,
            80..=89 => 511,
            90..=95 => 513,
            96..=98 => 500 + (i % 30),
            _ => i % 1024,
        };
        symbols.push(s);
    }
    symbols
}

fn huffman_sparse_symbols() -> Vec<u32> {
    (0..3000u32).map(|i| (i * 7919) % 60000).collect()
}

// ---------------------------------------------------------------------------
// The compatibility assertions.

#[test]
fn framed_fixtures_decode_byte_identically() {
    for (name, input) in framed_inputs() {
        let packed = read_fixture(name);
        let restored = fraz_lossless::decompress(&packed)
            .unwrap_or_else(|e| panic!("fixture {name} failed to decode: {e}"));
        assert_eq!(restored, input, "fixture {name} decoded to different bytes");
    }
}

#[test]
fn lzss_payload_fixtures_decode_byte_identically() {
    let input = input_text();
    for name in LZSS_FIXTURES {
        let packed = read_fixture(name);
        let restored = lzss::decompress(&packed, input.len())
            .unwrap_or_else(|e| panic!("fixture {name} failed to decode: {e}"));
        assert_eq!(restored, input, "fixture {name} decoded to different bytes");
    }
}

#[test]
fn huffman_fixtures_decode_byte_identically() {
    for (name, symbols) in [
        ("huffman_skewed.bin", huffman_skewed_symbols()),
        ("huffman_sparse.bin", huffman_sparse_symbols()),
    ] {
        let packed = read_fixture(name);
        let restored = huffman::decode_symbols(&packed)
            .unwrap_or_else(|e| panic!("fixture {name} failed to decode: {e}"));
        assert_eq!(restored, symbols, "fixture {name} decoded differently");
    }
}

#[test]
fn fixtures_also_decode_with_the_naive_reference_decoder() {
    // The reference decoder is written against the format specification, not
    // against either implementation; fixtures must satisfy it too.
    for (name, input) in framed_inputs() {
        let packed = read_fixture(name);
        let restored = reference::decompress_framed(&packed)
            .unwrap_or_else(|e| panic!("reference decode of {name} failed: {e}"));
        assert_eq!(restored, input, "reference decode of {name} differs");
    }
    for (name, symbols) in [
        ("huffman_skewed.bin", huffman_skewed_symbols()),
        ("huffman_sparse.bin", huffman_sparse_symbols()),
    ] {
        let packed = read_fixture(name);
        let restored = reference::decode_huffman_symbols(&packed)
            .unwrap_or_else(|e| panic!("reference decode of {name} failed: {e}"));
        assert_eq!(restored, symbols, "reference decode of {name} differs");
    }
}

// ---------------------------------------------------------------------------
// Regeneration (run explicitly; see module docs).

#[test]
#[ignore = "writes fixtures; run only for an intentional format change"]
fn regenerate() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (name, input) in framed_inputs() {
        std::fs::write(dir.join(name), fraz_lossless::compress(&input)).unwrap();
    }
    std::fs::write(
        dir.join(LZSS_FIXTURES[0]),
        LzssEncoder::new().compress(&input_text()),
    )
    .unwrap();
    std::fs::write(
        dir.join("huffman_skewed.bin"),
        huffman::encode_symbols(&huffman_skewed_symbols()),
    )
    .unwrap();
    std::fs::write(
        dir.join("huffman_sparse.bin"),
        huffman::encode_symbols(&huffman_sparse_symbols()),
    )
    .unwrap();
}
