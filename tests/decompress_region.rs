//! `Compressor::decompress_region` is a crop of `decompress`, bit for bit.
//!
//! The suite is registry-driven (sibling of `error_bound_conformance.rs`
//! and `adversarial_decode.rs`): it loops over **every** registered codec,
//! so a backend that overrides the region decode is held to the whole-grid
//! decode the moment it registers, and one that keeps the trait's default
//! (decode, then crop) is held to it too.  A codec whose descriptor has a
//! `<name>:block_size` option (sz, szx) runs at its default block size and
//! at 4, so the blocks a region needs are cut both ways.
//!
//! Fields are f32 and f64, in 1-D, 2-D, 3-D and 4-D (the 4-D grid folds its
//! two leading axes into one for sz's traversal), each once finite and once
//! with NaN and ±∞ holes (a codec may refuse the holes; then it is held to
//! the finite field only).  Regions are the near and far corner points, a
//! point in the middle, the box from the middle to the far corner, a face
//! on the first and on the last axis, the whole grid and a proptest box.
//! A region that is empty, out of range or of the wrong rank, and a stream
//! of another grid than the one asked for, are typed errors, never panics.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use fraz::data::{Dataset, Dims};
use fraz::pressio::{registry, Compressor, Options, PressioError};

fn grids() -> [Dims; 4] {
    [
        Dims::d1(700),
        Dims::d2(37, 45),
        Dims::d3(11, 13, 15),
        Dims::new(&[3, 5, 7, 9]),
    ]
}

/// A wave with noise and steps, so blockwise codecs meet predictable,
/// unpredictable and regression-friendly blocks; `holes` puts NaN, +∞ and
/// −∞ at a few points.
fn field(dims: &Dims, seed: u64, f64_values: bool, holes: bool) -> Dataset {
    let mut state = seed | 1;
    let mut values: Vec<f64> = (0..dims.len())
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let x = i as f64;
            (x * 0.037).sin() * 4.0
                + (x * 0.0021).cos() * 9.0
                + 0.05 * noise
                + if (i / 61) % 4 == 0 { 3.0 } else { 0.0 }
        })
        .collect();
    if holes {
        let n = values.len();
        values[n / 3] = f64::NAN;
        values[n / 2] = f64::INFINITY;
        values[n - 2] = f64::NEG_INFINITY;
    }
    if f64_values {
        Dataset::from_f64("app", "field", 3, dims.clone(), values)
    } else {
        let narrow = values.into_iter().map(|v| v as f32).collect();
        Dataset::from_f32("app", "field", 3, dims.clone(), narrow)
    }
}

/// The named regions of a grid, plus `extra`.
fn regions(dims: &Dims, extra: Vec<Range<usize>>) -> Vec<(&'static str, Vec<Range<usize>>)> {
    let d = dims.as_slice();
    let each = |f: &dyn Fn(usize, usize) -> Range<usize>| -> Vec<Range<usize>> {
        d.iter().enumerate().map(|(axis, &n)| f(axis, n)).collect()
    };
    let last = d.len() - 1;
    vec![
        ("near corner", each(&|_, _| 0..1)),
        ("far corner", each(&|_, n| n - 1..n)),
        ("middle point", each(&|_, n| n / 2..n / 2 + 1)),
        ("middle to far corner", each(&|_, n| n / 2..n)),
        (
            "far face of the first axis",
            each(&|a, n| if a == 0 { n - 1..n } else { 0..n }),
        ),
        (
            "face of the last axis",
            each(&|a, n| if a == last { 2..3 } else { 0..n }),
        ),
        ("whole grid", each(&|_, n| 0..n)),
        ("proptest box", extra),
    ]
}

/// Every registered codec, once per option set worth a region test: its
/// defaults, and a 4-point block where it has a block-size option.
fn codecs() -> Vec<(String, Box<dyn Compressor>)> {
    let mut out = Vec::new();
    for name in registry::names() {
        out.push((name.clone(), registry::build_default(&name).unwrap()));
        let key = format!("{name}:block_size");
        let descriptor = registry::describe(&name).unwrap();
        if descriptor.option(&key).is_some() {
            let options = Options::new().with(&key, 4u64);
            let codec = registry::build(&name, &options).unwrap();
            out.push((format!("{name} block 4"), codec));
        }
    }
    assert!(!out.is_empty(), "no codec is registered");
    out
}

fn region_of(
    codec: &dyn Compressor,
    what: &str,
    stream: &[u8],
    dims: &Dims,
    region: &[Range<usize>],
) -> Result<Dataset, PressioError> {
    catch_unwind(AssertUnwindSafe(|| {
        codec.decompress_region(stream, dims, region)
    }))
    .unwrap_or_else(|_| panic!("{what}: decompress_region panicked"))
}

fn check_codec(name: &str, codec: &dyn Compressor, seed: u64, boxes: &[Vec<Range<usize>>; 4]) {
    for (dims, extra) in grids().iter().zip(boxes) {
        if !codec.supports_dims(dims) {
            continue;
        }
        for f64_values in [false, true] {
            for holes in [false, true] {
                let dataset = field(dims, seed, f64_values, holes);
                let (lo, hi) = codec.bound_range(&dataset);
                let bound = lo.powf(0.7) * hi.powf(0.3);
                let stream = match codec.compress(&dataset, bound) {
                    Ok(stream) => stream,
                    // A codec may refuse non-finite values, not a finite field.
                    Err(_) if holes => continue,
                    Err(e) => panic!("{name}: compressing {dataset} failed: {e}"),
                };
                let whole = codec.decompress(&stream).unwrap();
                for (label, region) in regions(dims, extra.clone()) {
                    let what = format!("{name} on {dataset} (holes {holes}), {label} {region:?}");
                    let got = region_of(codec, &what, &stream, dims, &region)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    let origin: Vec<usize> = region.iter().map(|r| r.start).collect();
                    let shape: Vec<usize> = region.iter().map(|r| r.len()).collect();
                    let want = whole.sub_box(&origin, &shape);
                    assert_eq!(got.dims, want.dims, "{what}");
                    assert_eq!(got.dtype(), want.dtype(), "{what}");
                    assert_eq!(
                        (&got.application, &got.field, got.timestep),
                        (&want.application, &want.field, want.timestep),
                        "{what}"
                    );
                    // Bit for bit, NaN and infinities included.
                    assert!(
                        got.buffer.to_le_bytes() == want.buffer.to_le_bytes(),
                        "{what}: the values differ"
                    );
                }
            }
        }
    }
}

/// A non-empty box of each grid, from one pair of fractions per axis.
fn boxes() -> impl Strategy<Value = [Vec<Range<usize>>; 4]> {
    proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 4).prop_map(|picks| {
        grids().map(|dims| {
            dims.as_slice()
                .iter()
                .zip(&picks)
                .map(|(&n, &(a, b))| {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let start = ((lo * n as f64) as usize).min(n - 1);
                    start..(((hi * n as f64) as usize) + 1).clamp(start + 1, n)
                })
                .collect()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn a_region_is_the_crop_of_the_whole_decode(seed in any::<u64>(), boxes in boxes()) {
        for (name, codec) in codecs() {
            check_codec(&name, codec.as_ref(), seed, &boxes);
        }
    }
}

#[test]
fn bad_requests_are_typed_errors() {
    for (name, codec) in codecs() {
        let dims = Dims::d3(11, 13, 15);
        if !codec.supports_dims(&dims) {
            continue;
        }
        let dataset = field(&dims, 7, false, false);
        let (lo, hi) = codec.bound_range(&dataset);
        let stream = codec.compress(&dataset, (lo * hi).sqrt()).unwrap();
        for (label, region) in [
            ("empty", vec![0..11, 4..4, 0..15]),
            ("reversed", vec![0..11, Range { start: 5, end: 4 }, 0..15]),
            ("past the end", vec![0..11, 0..13, 10..16]),
            ("wrong rank", vec![0..11, 0..13]),
            ("no axes", vec![]),
            ("too many axes", vec![0..11, 0..13, 0..15, 0..1]),
        ] {
            let what = format!("{name}: {label} region {region:?}");
            match region_of(codec.as_ref(), &what, &stream, &dims, &region) {
                Err(PressioError::InvalidRegion(_)) => {}
                other => panic!("{what}: {:?}", other.map(|d| d.dims)),
            }
        }
        // A stream of another grid than the one asked for.
        for other in [
            Dims::d3(11, 13, 16),
            Dims::d3(15, 13, 11),
            Dims::d2(11, 195),
        ] {
            let region: Vec<Range<usize>> = other.as_slice().iter().map(|&n| 0..n.min(2)).collect();
            let what = format!("{name}: a {dims} stream read as {other}");
            match region_of(codec.as_ref(), &what, &stream, &other, &region) {
                Err(PressioError::Codec(e)) => {
                    assert!(e.contains("do not match grid shape"), "{what}: {e}")
                }
                other => panic!("{what}: {:?}", other.map(|d| d.dims)),
            }
        }
    }
}
