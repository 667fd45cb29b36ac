//! Property tests: random subregion reads round-trip within the per-chunk
//! tuned bound for every rank (1-D/2-D/3-D), both dtypes (f32/f64) and every
//! absolute-error builtin codec (sz, zfp, szx).
//!
//! Each case derives a field shape, chunk shape, codec, dtype, error bound
//! and request region from the sampled integers, writes the field through
//! [`write_array`], reads the region back, and checks every element of the
//! subregion against the source — the error must stay within the bound
//! recorded for the chunk the element came from.

use std::ops::Range;

use proptest::prelude::*;

use fraz_data::{Dataset, Dims};
use fraz_store::{write_array, ArrayReader, ChunkTarget, MemoryStore, StoreWriteConfig};

const CODECS: [&str; 3] = ["sz", "zfp", "szx"];

/// Deterministic pseudo-random values: a seeded LCG smoothed with a short
/// moving average so every codec can actually compress the field.
fn field_values(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    let raw: Vec<f64> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 200.0
        })
        .collect();
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(3);
            let window = &raw[lo..=i];
            window.iter().sum::<f64>() / window.len() as f64
        })
        .collect()
}

fn build_dataset(dims: &[usize], seed: u64, f64_values: bool) -> Dataset {
    let n: usize = dims.iter().product();
    let values = field_values(n, seed);
    if f64_values {
        Dataset::from_f64("prop", "field", 0, Dims::new(dims), values)
    } else {
        let values: Vec<f32> = values.iter().map(|&v| v as f32).collect();
        Dataset::from_f32("prop", "field", 0, Dims::new(dims), values)
    }
}

/// Write with a fixed per-chunk-clamped bound, read `region` back, and
/// assert the subregion honours each source chunk's recorded bound and is
/// bit-equal to the same slice of the full decode.
fn check_roundtrip(dims: &[usize], chunk: &[usize], region: &[Range<u64>], seed: u64) {
    let codec = CODECS[(seed % 3) as usize];
    let f64_values = (seed >> 2) % 2 == 1;
    let dataset = build_dataset(dims, seed, f64_values);
    let range = dataset.stats().value_range();
    let bound = range * [1e-3, 1e-2, 5e-2][((seed >> 4) % 3) as usize];

    let store = MemoryStore::new();
    let config = StoreWriteConfig::new(chunk.to_vec(), codec, ChunkTarget::FixedBound(bound));
    let report = write_array(&store, "prop", &dataset, &config).unwrap();
    let reader = ArrayReader::open(&store, "prop").unwrap();
    assert_eq!(reader.meta().index.len(), report.chunks.len());

    let got = reader.read_region(region).unwrap();
    let shape: Vec<usize> = region.iter().map(|r| (r.end - r.start) as usize).collect();
    assert_eq!(got.dims.as_slice(), shape.as_slice());
    assert_eq!(got.buffer.dtype(), dataset.buffer.dtype());

    let grid = reader.grid();
    let src = dataset.buffer.to_f64_vec();
    let full = reader.read_all().unwrap().buffer.to_f64_vec();
    let out = got.buffer.to_f64_vec();
    let src_dims = dataset.dims.as_slice();
    for (i, &value) in out.iter().enumerate() {
        // Global coordinates of element i of the region.
        let mut rem = i;
        let mut coords = vec![0usize; shape.len()];
        for axis in (0..shape.len()).rev() {
            coords[axis] = rem % shape[axis] + region[axis].start as usize;
            rem /= shape[axis];
        }
        let mut src_idx = 0usize;
        for (axis, &c) in coords.iter().enumerate() {
            src_idx = src_idx * src_dims[axis] + c;
        }
        assert_eq!(
            value.to_bits(),
            full[src_idx].to_bits(),
            "codec {codec}, f64 {f64_values}: element {i} at {coords:?} differs from read_all"
        );
        // The bound that applies is the recorded bound of this element's
        // chunk (clamping can tighten it below the requested bound).
        let chunk_coords: Vec<usize> = coords
            .iter()
            .zip(grid.chunk_shape())
            .map(|(&c, &s)| c / s)
            .collect();
        let entry = reader.meta().index[grid.chunk_index(&chunk_coords)];
        let tolerance = entry.bound.max(bound) * (1.0 + 1e-6) + 1e-12;
        let err = (value - src[src_idx]).abs();
        assert!(
            err <= tolerance,
            "codec {codec}, f64 {f64_values}: element {i} at {coords:?} \
             err {err} > bound {} (requested {bound})",
            entry.bound
        );
    }
}

fn span(start: u64, len: u64, dim: usize) -> Range<u64> {
    let start = start % dim as u64;
    let end = (start + 1 + len % (dim as u64 - start).max(1)).min(dim as u64);
    start..end
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn subregion_roundtrips_1d(
        dim in 24usize..96,
        chunk in 3usize..40,
        start in 0u64..96,
        len in 1u64..96,
        seed in 1u64..u64::MAX,
    ) {
        let region = [span(start, len, dim)];
        check_roundtrip(&[dim], &[chunk], &region, seed);
    }

    #[test]
    fn subregion_roundtrips_2d(
        rows in 6usize..28,
        cols in 6usize..28,
        chunk_r in 2usize..12,
        chunk_c in 2usize..12,
        rseed in 0u64..u64::MAX,
        seed in 1u64..u64::MAX,
    ) {
        let (start, len) = (rseed & 0xFFFF, (rseed >> 16) & 0xFFFF);
        let region = [span(start, len + 1, rows), span(rseed >> 32, (rseed >> 48) + 1, cols)];
        check_roundtrip(&[rows, cols], &[chunk_r, chunk_c], &region, seed);
    }

    #[test]
    fn subregion_roundtrips_3d(
        nz in 4usize..12,
        ny in 4usize..12,
        nx in 4usize..12,
        cseed in 0u64..u64::MAX,
        rseed in 0u64..u64::MAX,
        seed in 1u64..u64::MAX,
    ) {
        let chunk = [
            2 + (cseed % 4) as usize,
            2 + ((cseed >> 8) % 4) as usize,
            2 + ((cseed >> 16) % 4) as usize,
        ];
        let region = [
            span(rseed & 0xFF, (rseed >> 8 & 0xFF) + 1, nz),
            span(rseed >> 16 & 0xFF, (rseed >> 24 & 0xFF) + 1, ny),
            span(rseed >> 32 & 0xFF, (rseed >> 40 & 0xFF) + 1, nx),
        ];
        check_roundtrip(&[nz, ny, nx], &chunk, &region, seed);
    }
}
