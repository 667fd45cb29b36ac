//! The codecs' bytes, pinned: an FNV-1a hash of what `compress` writes and
//! of what `decompress` gives back, for every error-bounded codec the build
//! registers × the six regimes × seven shapes (full, ragged and degenerate
//! blocks in 1-D to 4-D) × both dtypes × nine log-spaced bounds across the
//! codec's own `bound_range`, both ends included.
//!
//! The `format_compat` fixtures pin one blob per wire format and the
//! conformance suites pin the *contract*; this table pins the *function*:
//! a kernel rewrite that moves one quantisation code, one coefficient bit
//! or one decoded ULP anywhere in that grid fails here first, naming the
//! codec, field and bound.  Regenerate only at the **parent** of a change
//! that is meant to leave the bytes alone (copy this file there), or when a
//! format bump is the point:
//!
//! ```text
//! cargo test --release --test codec_golden -- --ignored regenerate
//! ```
//!
//! Rows are keyed by codec name, so a slim build (`--no-default-features
//! --features szx`) checks the rows of the codecs it has and skips the rest.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use fraz::data::synthetic::{self, REGIMES};
use fraz::data::{DType, DataBuffer, Dataset, Dims};
use fraz::pressio::registry;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/codec_golden.txt")
}

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.eat(bytes);
    h.0
}

fn hash_values(dataset: &Dataset) -> u64 {
    let mut h = Fnv1a::new();
    match &dataset.buffer {
        DataBuffer::F32(values) => values.iter().for_each(|v| h.eat(&v.to_le_bytes())),
        DataBuffer::F64(values) => values.iter().for_each(|v| h.eat(&v.to_le_bytes())),
    }
    h.0
}

/// Nine bounds from `lo` to `hi`, both included, evenly spaced on the log
/// axis by repeated geometric bisection — `sqrt` and `*` are correctly
/// rounded everywhere, `powf` and `exp` are not.
fn bounds(lo: f64, hi: f64) -> [f64; 9] {
    let mut b = [0.0; 9];
    (b[0], b[8]) = (lo, hi);
    for half in [4, 2, 1] {
        for mid in (half..8).step_by(2 * half) {
            b[mid] = (b[mid - half] * b[mid + half]).sqrt();
        }
    }
    b
}

fn shapes() -> [Dims; 7] {
    [
        Dims::d3(16, 16, 16),
        Dims::d3(13, 17, 19),
        Dims::d3(32, 32, 32),
        Dims::d2(48, 48),
        Dims::d2(37, 37),
        Dims::d1(2501),
        Dims::d4(3, 4, 5, 6),
    ]
}

/// One row per (codec, regime, shape, dtype): `bytes-hash:values-hash` at
/// each of the nine bounds.
fn table() -> BTreeMap<String, String> {
    let mut rows = BTreeMap::new();
    for name in registry::error_bounded_names() {
        let codec = registry::build_default(&name).unwrap();
        for regime in REGIMES {
            for dims in shapes() {
                if !codec.supports_dims(&dims) {
                    continue;
                }
                for dtype in [DType::F32, DType::F64] {
                    let dataset = synthetic::generate(regime.name(), &dims, dtype, 11, 1).unwrap();
                    let (lo, hi) = codec.bound_range(&dataset);
                    let mut cells = String::new();
                    for bound in bounds(lo, hi) {
                        let packed = codec.compress(&dataset, bound).unwrap_or_else(|e| {
                            panic!("{name} {regime} {dims:?} {dtype:?} at {bound:e}: {e}")
                        });
                        let restored = codec.decompress(&packed).unwrap_or_else(|e| {
                            panic!("{name} {regime} {dims:?} {dtype:?} at {bound:e}: {e}")
                        });
                        assert_eq!(restored.dims, dataset.dims);
                        assert_eq!(restored.dtype(), dtype);
                        write!(
                            cells,
                            "{:016x}:{:016x} ",
                            hash_bytes(&packed),
                            hash_values(&restored)
                        )
                        .unwrap();
                    }
                    rows.insert(
                        format!("{name} {regime} {dims:?} {dtype:?}"),
                        cells.trim_end().to_string(),
                    );
                }
            }
        }
    }
    rows
}

fn parse(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .map(|line| {
            let (key, cells) = line.split_once('\t').expect("`key<TAB>cells` rows");
            (key.to_string(), cells.to_string())
        })
        .collect()
}

#[test]
fn codecs_reproduce_the_committed_table_byte_for_byte() {
    let expected = std::fs::read_to_string(fixture_path())
        .unwrap_or_else(|e| panic!("missing golden table ({e}); run the regenerate test"));
    let expected = parse(&expected);
    let actual = table();
    assert!(!actual.is_empty(), "no error-bounded codec is registered");
    for (key, got) in &actual {
        let want = expected
            .get(key)
            .unwrap_or_else(|| panic!("no golden row for `{key}`; regenerate at the parent"));
        for (i, (g, w)) in got
            .split_whitespace()
            .zip(want.split_whitespace())
            .enumerate()
        {
            assert_eq!(
                g, w,
                "`{key}` moved at bound {i} of 9 (compressed-bytes hash : decoded-values hash)"
            );
        }
        assert_eq!(got, want, "`{key}`");
    }
}

#[test]
#[ignore = "writes tests/fixtures/codec_golden.txt; run explicitly to regenerate"]
fn regenerate() {
    let mut out = String::new();
    for (key, cells) in table() {
        writeln!(out, "{key}\t{cells}").unwrap();
    }
    std::fs::write(fixture_path(), out).unwrap();
}
