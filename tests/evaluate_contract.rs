//! `Compressor::evaluate` is `compress(..).len()`, and a step is the
//! codec's: the two promises the search's cheap evaluations rest on, held
//! against every codec the build registers.
//!
//! **The size.**  A backend may answer a ratio evaluation
//! (`evaluate(.., false)`) from less work than writing the stream — the
//! SZx-like codec's length is a closed form of its block classification.
//! Whatever route it takes, the outcome — or the error — must be the one
//! `compress` gives: same `compressed_bytes`, `compression_ratio` and
//! `bit_rate`, same `PressioError`.  Checked on `codec_golden`'s grid (six
//! regimes × seven shapes × both dtypes) × 41 log-spaced bounds from far
//! below to far above the codec's `bound_range` plus the bounds no codec
//! accepts, on fields holding a NaN or an infinity, on fields shorter than
//! one block and on every `*:block_size` option a descriptor declares.  A
//! codec that does not override `evaluate` passes trivially; one that later
//! does inherits the suite.
//!
//! **The bytes.**  An outcome hands back the stream it was measured on, so a
//! search's answer need not be compressed again: an outcome that carries a
//! stream carries `compress`'s, byte for byte, at that bound.  An evaluation
//! that wrote nothing — a size or a report from the classification alone —
//! carries nothing, and its caller compresses once for the bytes;
//! `evaluation_allocs.rs`, which can see what was written, holds the two
//! apart.
//!
//! **The measurement.**  A backend may also answer a quality evaluation
//! from less work than decoding its stream — sz, mgard and szx measure the
//! reconstruction their encoders already built.  Whatever route it takes,
//! the report must be the one `QualityReport::evaluate` gives for the
//! decoded stream, every field by its bits (NaN and ∞ included), so an
//! override can report no PSNR but the decoder's.
//!
//! **The step.**  A codec whose [`BoundKind::step_of`] is `Some` promises
//! that bounds on one step compress to one stream (outside the parameter
//! recorded in it) and decode to one reconstruction — which is what lets a
//! search call it once per step.  Checked at both edges of every binade of
//! the codec's range and their one-ulp neighbours, together with the
//! converse (adjacent steps do differ somewhere), so a `step_of` that
//! disagrees with the codec by one ulp, or returns a constant, fails.
//!
//! Registry-driven like `error_bound_conformance.rs`: no codec is named.

use fraz::data::synthetic::{self, REGIMES};
use fraz::data::{DType, DataBuffer, Dataset, Dims};
use fraz::metrics::QualityReport;
use fraz::pressio::options::OptionKind;
use fraz::pressio::{registry, Compressor, Options};

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

/// 41 bounds evenly spaced on the log axis from `1e-3 · lo` to `1e3 · hi`,
/// then the ones no codec accepts and the extremes of the type.
fn bounds((lo, hi): (f64, f64)) -> Vec<f64> {
    let (from, to) = ((lo * 1e-3).ln(), (hi * 1e3).ln());
    let mut bounds: Vec<f64> = (0..=40)
        .map(|i| (from + (to - from) * i as f64 / 40.0).exp())
        .collect();
    bounds.extend([
        0.0,
        -1.0,
        f64::NAN,
        f64::INFINITY,
        f64::MIN_POSITIVE,
        5e-324,
        1e300,
    ]);
    bounds
}

/// Every field of a report as bits, so NaN equals NaN and `-0.0` is not
/// `0.0`.
fn report_bits(report: &QualityReport) -> [u64; 10] {
    [
        report.compression_ratio.to_bits(),
        report.bit_rate.to_bits(),
        report.max_abs_error.to_bits(),
        report.rmse.to_bits(),
        report.psnr.to_bits(),
        report.ssim.to_bits(),
        report.acf_error.to_bits(),
        report.num_points as u64,
        report.original_bytes as u64,
        report.compressed_bytes as u64,
    ]
}

/// `evaluate` against `compress` at one bound, as `Result`s: size-only, or
/// with the quality pass — whose report is the decoded stream's, and whose
/// size is the one `compress` gives.
fn assert_evaluate_agrees(
    codec: &dyn Compressor,
    dataset: &Dataset,
    bound: f64,
    measure_quality: bool,
    what: &str,
) {
    let what = format!(
        "{} {what} at {bound:e}, quality {measure_quality}",
        codec.name()
    );
    match (
        codec.compress(dataset, bound),
        codec.evaluate(dataset, bound, measure_quality),
    ) {
        (Ok(packed), Ok(outcome)) => {
            assert_eq!(outcome.compressed_bytes, packed.len(), "{what}");
            assert_eq!(outcome.original_bytes, dataset.byte_size(), "{what}");
            let ratio = dataset.byte_size() as f64 / packed.len() as f64;
            assert_eq!(outcome.compression_ratio, ratio, "{what}");
            let bit_rate = packed.len() as f64 * 8.0 / dataset.len() as f64;
            assert_eq!(outcome.bit_rate, bit_rate, "{what}");
            assert_eq!(outcome.compressor, codec.name(), "{what}");
            assert_eq!(outcome.error_bound, bound, "{what}");
            assert_eq!(outcome.quality.is_some(), measure_quality, "{what}");
            assert!(
                outcome
                    .stream
                    .as_ref()
                    .is_none_or(|stream| *stream == packed),
                "{what}: carries a stream that is not compress's"
            );
            if let Some(quality) = outcome.quality {
                let decoded = codec.decompress(&packed).unwrap();
                let expected = QualityReport::evaluate(dataset, &decoded, packed.len());
                assert_eq!(
                    report_bits(&quality),
                    report_bits(&expected),
                    "{what}: the report is not the decoded stream's\n{quality:?}\n{expected:?}"
                );
            }
        }
        (Err(compress), Err(evaluate)) => assert_eq!(evaluate, compress, "{what}"),
        (compress, evaluate) => panic!(
            "{what}: compress gave {:?}, evaluate gave {:?}",
            compress.map(|packed| packed.len()),
            evaluate.map(|outcome| outcome.compressed_bytes)
        ),
    }
}

/// Every bound of [`bounds`] size-only, and the quality pass at the two ends
/// and the middle of the codec's own range (and at a bound it refuses).
fn assert_contract(codec: &dyn Compressor, dataset: &Dataset, what: &str) {
    let (lo, hi) = codec.bound_range(dataset);
    for bound in bounds((lo, hi)) {
        assert_evaluate_agrees(codec, dataset, bound, false, what);
    }
    for bound in [lo, (lo * hi).sqrt(), hi, f64::NAN] {
        assert_evaluate_agrees(codec, dataset, bound, true, what);
    }
}

fn codecs() -> Vec<Box<dyn Compressor>> {
    let names = registry::error_bounded_names();
    assert!(!names.is_empty(), "no error-bounded codec is registered");
    names
        .iter()
        .map(|name| registry::build_default(name).unwrap())
        .collect()
}

/// One dtype of the grid (the two run side by side).  The slow codecs pass
/// trivially and cost the most: in the dev profile, where they run ten
/// times slower, the 32³ shape — two thirds of the grid's points, and
/// nothing a smaller cube does not show a length formula — is left to the
/// release run CI makes.
fn assert_contract_on_the_golden_grid(dtype: DType) {
    for codec in codecs() {
        for regime in REGIMES {
            for dims in shapes() {
                if !codec.supports_dims(&dims) || (cfg!(debug_assertions) && dims.len() > 8192) {
                    continue;
                }
                let dataset = synthetic::generate(regime.name(), &dims, dtype, 11, 1).unwrap();
                assert_contract(&*codec, &dataset, &format!("{regime} {dims:?} {dtype:?}"));
            }
        }
    }
}

#[test]
fn evaluate_is_the_length_of_compress_on_the_golden_grid_f32() {
    assert_contract_on_the_golden_grid(DType::F32);
}

#[test]
fn evaluate_is_the_length_of_compress_on_the_golden_grid_f64() {
    assert_contract_on_the_golden_grid(DType::F64);
}

#[test]
fn evaluate_is_the_length_of_compress_on_non_finite_and_tiny_fields() {
    for codec in codecs() {
        // One NaN, +∞ or −∞ in an otherwise ordinary field: the codec may
        // carry it or refuse the field, and `evaluate` does the same.
        for hostile in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for dtype in [DType::F32, DType::F64] {
                let dims = Dims::d3(9, 10, 11);
                let mut dataset = synthetic::generate("turbulence", &dims, dtype, 3, 0).unwrap();
                match &mut dataset.buffer {
                    DataBuffer::F32(values) => values[500] = hostile as f32,
                    DataBuffer::F64(values) => values[500] = hostile,
                }
                assert_contract(&*codec, &dataset, &format!("{hostile} in {dtype:?}"));
            }
        }
        // Shorter than one block of any codec, in every rank it takes.
        for dims in [Dims::d1(5), Dims::d2(2, 3), Dims::d3(1, 2, 3), Dims::d1(1)] {
            if codec.supports_dims(&dims) {
                let dataset = synthetic::generate("smooth", &dims, DType::F32, 3, 0).unwrap();
                assert_contract(&*codec, &dataset, &format!("tiny {dims:?}"));
            }
        }
    }
}

#[test]
fn evaluate_is_the_length_of_compress_at_every_declared_block_size() {
    // Block sizes that divide nothing: not the field, not a vector lane
    // count, and one longer than the field.
    for name in registry::error_bounded_names() {
        let descriptor = registry::describe(&name).unwrap();
        for option in &descriptor.options {
            if option.kind != OptionKind::U64 || !option.key.ends_with(":block_size") {
                continue;
            }
            for block in [1u64, 7, 100, 1517] {
                if option
                    .range
                    .is_some_and(|(lo, hi)| (block as f64) < lo || block as f64 > hi)
                {
                    continue;
                }
                let codec = registry::build(&name, &Options::new().with(&option.key, block))
                    .unwrap_or_else(|e| panic!("{} = {block}: {e}", option.key));
                for dims in [Dims::d3(13, 17, 19), Dims::d2(37, 37), Dims::d1(2501)] {
                    if !codec.supports_dims(&dims) {
                        continue;
                    }
                    for dtype in [DType::F32, DType::F64] {
                        let dataset = synthetic::generate("shock", &dims, dtype, 11, 1).unwrap();
                        let what = format!("{} = {block}, {dims:?} {dtype:?}", option.key);
                        assert_contract(&*codec, &dataset, &what);
                    }
                }
            }
        }
    }
}

/// True when `x` and `y` are one stream but for the parameter recorded in
/// it: equal everywhere, or everywhere outside one `f64` field that holds
/// `a` in `x` and `b` in `y`.
fn same_outside_the_parameter(x: &[u8], y: &[u8], a: f64, b: f64) -> bool {
    if x.len() != y.len() {
        return false;
    }
    let Some(first) = x.iter().zip(y).position(|(p, q)| p != q) else {
        return true;
    };
    let (in_x, in_y) = (a.to_le_bytes(), b.to_le_bytes());
    (first.saturating_sub(7)..=first).any(|at| {
        x.get(at..at + 8) == Some(&in_x[..])
            && y.get(at..at + 8) == Some(&in_y[..])
            && x[at + 8..] == y[at + 8..]
    })
}

fn bits(dataset: &Dataset) -> Vec<u64> {
    match &dataset.buffer {
        DataBuffer::F32(values) => values.iter().map(|v| v.to_bits() as u64).collect(),
        DataBuffer::F64(values) => values.iter().map(|v| v.to_bits()).collect(),
    }
}

#[test]
fn bounds_on_one_step_are_one_stream_and_adjacent_steps_are_not() {
    for codec in codecs() {
        let kind = codec.bound_kind();
        if kind.step_of(1.0).is_none() {
            continue;
        }
        for (regime, dims, dtype) in [
            ("turbulence", Dims::d3(16, 16, 16), DType::F32),
            ("smooth", Dims::d2(37, 37), DType::F64),
        ] {
            if !codec.supports_dims(&dims) {
                continue;
            }
            let dataset = synthetic::generate(regime, &dims, dtype, 11, 1).unwrap();
            let (lo, hi) = codec.bound_range(&dataset);
            let mut adjacent_steps_differ = false;
            for k in lo.log2().floor() as i32..=hi.log2().floor() as i32 {
                // Both edges of the binade [2^k, 2^(k+1)) and their one-ulp
                // neighbours on either side.
                let (low, high) = (2f64.powi(k), 2f64.powi(k + 1));
                let candidates = [
                    low.next_down(),
                    low,
                    low.next_up(),
                    high.next_down().next_down(),
                    high.next_down(),
                    high,
                ];
                let measured: Vec<(f64, i64, Vec<u8>, Vec<u64>)> = candidates
                    .iter()
                    .map(|&bound| {
                        let step = kind.step_of(bound).expect("a usable bound has a step");
                        let packed = codec.compress(&dataset, bound).unwrap();
                        let decoded = bits(&codec.decompress(&packed).unwrap());
                        (bound, step, packed, decoded)
                    })
                    .collect();
                for (i, (a, step_a, packed_a, decoded_a)) in measured.iter().enumerate() {
                    for (b, step_b, packed_b, decoded_b) in &measured[i + 1..] {
                        let what = format!("{} {regime}: {a:e} and {b:e}", codec.name());
                        let one_stream = same_outside_the_parameter(packed_a, packed_b, *a, *b);
                        if step_a == step_b {
                            assert!(one_stream, "{what}: one step, two streams");
                            assert_eq!(decoded_a, decoded_b, "{what}: one step, two decodes");
                        } else if !one_stream {
                            adjacent_steps_differ = true;
                        }
                    }
                }
                // The steps are the binade's, give or take the ulp at which
                // the codec's own logarithm rounds.
                assert_eq!(measured[1].1, measured[2].1, "{}: 2^{k}", codec.name());
                assert_ne!(measured[1].1, measured[5].1, "{}: 2^{k}", codec.name());
            }
            assert!(
                adjacent_steps_differ,
                "{} {regime}: every step compresses alike — steps that mean nothing",
                codec.name()
            );
        }
    }
}
