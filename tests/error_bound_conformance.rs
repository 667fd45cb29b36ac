//! Cross-codec error-bound conformance: the contract every FRaZ search
//! target must honour is `max_i |x_i − x̂_i| ≤ e` for the requested bound
//! `e` — a fast-but-wrong codec would silently corrupt every search result.
//!
//! The suite loops over **every** error-bounded codec in the default
//! registry, so a future backend is covered the moment it registers; it
//! never hard-codes codec names.  Fields are proptest-generated in 1-D, 2-D
//! and 3-D at several amplitudes, in both f32 and f64, and each codec is
//! exercised across a log-spaced grid of absolute bounds down to 1e-12.
//!
//! The assertion is keyed on the codec's [`BoundKind`]: max-error kinds
//! (absolute error, accuracy tolerance, ∞-norm) must bound the element-wise
//! worst case; the L2-norm kind bounds the RMS error instead (it makes no
//! pointwise promise).
//!
//! A field that holds a NaN or an infinity gets the same contract on its
//! finite values, and the non-finite ones come back as they went in — or
//! the codec refuses the field with an error.  What it may not do is
//! succeed and hand back something else.

use proptest::prelude::*;

use fraz::data::{DType, Dataset, Dims};
use fraz::pressio::{registry, BoundKind};
use fraz::scenarios::{by_name, Oracle, Regime, ScenarioConfig, REGIMES};

/// Log-spaced absolute bounds; the tightest settings force the codecs into
/// their exact/lossless fallback paths, which must *still* conform.
const BOUNDS: [f64; 6] = [1e-1, 1e-3, 1e-5, 1e-7, 1e-9, 1e-12];

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// A synthetic field mixing smooth waves, low-amplitude noise, and flat
/// plateaus, so blockwise codecs see constant, predictable and
/// unpredictable regions in one dataset.
fn synth(n: usize, mut seed: u64, amplitude: f64) -> Vec<f64> {
    seed |= 1;
    (0..n)
        .map(|i| {
            let noise = (lcg(&mut seed) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            if (i / 97) % 5 == 0 {
                amplitude * 0.25
            } else {
                let x = i as f64;
                ((x * 0.021).sin() + 0.5 * (x * 0.0013).cos() + 0.01 * noise) * amplitude
            }
        })
        .collect()
}

/// Dims with ~`n` points at the requested dimensionality.
fn dims_for(ndims: usize, size_seed: u64) -> Dims {
    let w = 12 + (size_seed % 9) as usize; // 12..=20
    match ndims {
        1 => Dims::d1(w * w * w),
        2 => Dims::d2(w * w / 2, 2 * w),
        _ => Dims::d3(w, w, w),
    }
}

/// Compress + decompress `dataset` with every error-bounded registry codec
/// at every grid bound, asserting the codec's conformance contract
/// element-wise on the round-tripped values.
fn assert_all_codecs_conform(dataset: &Dataset) {
    let names = registry::error_bounded_names();
    assert!(
        names.len() >= 4,
        "expected at least sz/zfp/mgard/szx to be registered, got {names:?}"
    );
    for name in names {
        let codec = registry::build_default(&name)
            .unwrap_or_else(|e| panic!("building {name} failed: {e}"));
        if !codec.supports_dims(&dataset.dims) {
            continue;
        }
        for bound in BOUNDS {
            let compressed = codec
                .compress(dataset, bound)
                .unwrap_or_else(|e| panic!("{name} at bound {bound:e}: compress failed: {e}"));
            let restored = codec
                .decompress(&compressed)
                .unwrap_or_else(|e| panic!("{name} at bound {bound:e}: decompress failed: {e}"));
            assert_eq!(restored.dims, dataset.dims, "{name} at bound {bound:e}");
            assert_eq!(
                restored.dtype(),
                dataset.dtype(),
                "{name} at bound {bound:e}"
            );

            let original = dataset.values_f64();
            let recovered = restored.values_f64();
            assert_eq!(recovered.len(), original.len(), "{name} at bound {bound:e}");
            match codec.bound_kind() {
                BoundKind::AbsoluteError
                | BoundKind::AccuracyTolerance
                | BoundKind::InfinityNorm => {
                    for (i, (x, y)) in original.iter().zip(recovered.iter()).enumerate() {
                        let err = (x - y).abs();
                        assert!(
                            err <= bound,
                            "{name} at bound {bound:e}: |x[{i}] - x̂[{i}]| = {err:e} \
                             (x = {x}, x̂ = {y})"
                        );
                    }
                }
                BoundKind::L2Norm => {
                    let mse = original
                        .iter()
                        .zip(recovered.iter())
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum::<f64>()
                        / original.len() as f64;
                    let rmse = mse.sqrt();
                    // The RMS is an n-term floating-point aggregate, so the
                    // comparison tolerates summation-order roundoff (relative
                    // 1e-9); the pointwise kinds above stay exact.
                    assert!(
                        rmse <= bound * (1.0 + 1e-9),
                        "{name} at bound {bound:e}: rmse = {rmse:e}"
                    );
                }
                other => panic!("{name}: unexpected bound kind {other:?} in error-bounded set"),
            }
        }
    }
}

proptest! {
    // Each case sweeps every codec × every bound, so a handful of cases
    // already covers hundreds of (codec, field, bound) combinations.
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn f32_fields_conform(
        ndims in 1usize..=3,
        size_seed in 0u64..1000,
        amp_exp in -2i32..4,
        seed in 0u64..1_000_000,
    ) {
        let dims = dims_for(ndims, size_seed);
        let amplitude = 10f64.powi(amp_exp);
        let values: Vec<f32> = synth(dims.len(), seed, amplitude)
            .into_iter()
            .map(|v| v as f32)
            .collect();
        let dataset = Dataset::from_f32("conformance", "f32", 0, dims, values);
        assert_all_codecs_conform(&dataset);
    }

    /// The named scenario regimes are the workloads the oracle matrix and
    /// the CLI's zero-file manifests run on; sample them across seeds and
    /// dimensionalities so codec conformance is pinned on exactly the data
    /// shapes the rest of the suite trusts.
    #[test]
    fn scenario_fields_conform(
        regime_idx in 0usize..REGIMES.len(),
        ndims in 1usize..=3,
        size_seed in 0u64..1000,
        seed in 0u64..1_000_000,
        wide in 0u8..2,
    ) {
        let dims = dims_for(ndims, size_seed);
        let dtype = if wide == 1 { DType::F64 } else { DType::F32 };
        let config = by_name(REGIMES[regime_idx].name()).unwrap().with_seed(seed);
        let field = config.generate(&dims, dtype, 0);
        prop_assert!(
            field.dataset.values_f64().iter().all(|v| v.is_finite()),
            "scenario generators must never emit NaN/inf"
        );
        assert_all_codecs_conform(&field.dataset);
    }

    #[test]
    fn f64_fields_conform(
        ndims in 1usize..=3,
        size_seed in 0u64..1000,
        amp_exp in -2i32..4,
        seed in 0u64..1_000_000,
    ) {
        let dims = dims_for(ndims, size_seed);
        let amplitude = 10f64.powi(amp_exp);
        let values = synth(dims.len(), seed, amplitude);
        let dataset = Dataset::from_f64("conformance", "f64", 0, dims, values);
        assert_all_codecs_conform(&dataset);
    }
}

/// Constant and degenerate fields are the classic codec edge cases; pin
/// them deterministically on top of the property sweep.
#[test]
fn degenerate_fields_conform() {
    for values in [vec![0.0f64; 4096], vec![-7.25; 4096], {
        let mut v = vec![1.0; 4096];
        v[0] = -1.0; // one outlier in a constant sea
        v
    }] {
        let dataset = Dataset::from_f64("conformance", "degenerate", 0, Dims::d2(64, 64), values);
        assert_all_codecs_conform(&dataset);
    }
}

/// Scenario-specific edge cases, pinned deterministically: a sparse field
/// with zero blobs degenerates to an all-constant plane (the descriptor
/// must agree), and a non-zero background shifts every plateau off zero —
/// both classic traps for blockwise constant detection.
#[test]
fn sparse_scenario_edge_cases_conform() {
    let dims = Dims::d2(64, 64);
    for (blob_count, background) in [(0, 0.0), (0, 2.5), (5, -1.75)] {
        let mut config = ScenarioConfig::new(Regime::Sparse);
        config.blob_count = blob_count;
        config.background = background;
        for dtype in [DType::F32, DType::F64] {
            let field = config.generate(&dims, dtype, 0);
            let d = &field.descriptor;
            assert!(field.dataset.values_f64().iter().all(|v| v.is_finite()));
            if blob_count == 0 {
                assert_eq!(d.constant_fraction, Some(1.0), "all-constant expected");
                assert_eq!(d.min, d.max);
                assert_eq!(d.min, background);
            } else {
                assert!(d.constant_fraction.unwrap() > 0.0, "plateaus expected");
            }
            assert_all_codecs_conform(&field.dataset);
        }
    }
}

/// One NaN, one +∞ and one −∞ in an otherwise ordinary field, and NetCDF's
/// f32 fill value (finite, but 2^123) at every 97th point of an O(1) field:
/// a codec either keeps them (and still honours the bound on every other
/// value, neighbours of the outliers included) or refuses the field with an
/// error — never silently.
#[test]
fn non_finite_values_are_kept_or_refused_never_dropped() {
    let holes = Dims::d3(8, 9, 10);
    let mut with_holes = synth(holes.len(), 17, 1.0);
    with_holes[37] = f64::NAN;
    with_holes[311] = f64::INFINITY;
    with_holes[640] = f64::NEG_INFINITY;
    let filled = Dims::d3(16, 32, 32);
    let mut with_fill = synth(filled.len(), 29, 1.0);
    for v in with_fill.iter_mut().step_by(97) {
        *v = 9.96921e36f32 as f64;
    }
    for (dims, values) in [(holes, with_holes), (filled, with_fill)] {
        let narrow = values.iter().map(|&v| v as f32).collect();
        for dataset in [
            Dataset::from_f32("conformance", "outliers", 0, dims.clone(), narrow),
            Dataset::from_f64("conformance", "outliers", 0, dims, values),
        ] {
            assert_kept_or_refused(&dataset);
        }
    }
}

fn assert_kept_or_refused(dataset: &Dataset) {
    let original = dataset.values_f64();
    let finite = original.iter().filter(|x| x.is_finite()).count();
    for name in registry::error_bounded_names() {
        let codec = registry::build_default(&name).unwrap();
        if !codec.supports_dims(&dataset.dims) {
            continue;
        }
        for bound in [1e-1, 1e-3, 1e-6] {
            let what = format!(
                "{name} on {:?} {} at bound {bound:e}",
                dataset.dtype(),
                dataset.dims
            );
            let Ok(compressed) = codec.compress(dataset, bound) else {
                continue; // refused, with an error: allowed
            };
            let restored = codec
                .decompress(&compressed)
                .unwrap_or_else(|e| panic!("{what}: compressed, then failed to decompress: {e}"));
            let recovered = restored.values_f64();
            assert_eq!(recovered.len(), original.len(), "{what}");
            let mut squares = 0.0;
            for (i, (x, y)) in original.iter().zip(recovered.iter()).enumerate() {
                if !x.is_finite() {
                    assert!(
                        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                        "{what}: x[{i}] = {x} came back as {y}"
                    );
                    continue;
                }
                let err = (x - y).abs();
                squares += err * err;
                if codec.bound_kind() != BoundKind::L2Norm {
                    assert!(
                        err <= bound,
                        "{what}: |x[{i}] - x̂[{i}]| = {err:e} (x = {x}, x̂ = {y})"
                    );
                }
            }
            let rmse = (squares / finite as f64).sqrt();
            assert!(rmse <= bound * (1.0 + 1e-9), "{what}: rmse = {rmse:e}");
        }
    }
}
