//! The scenario × codec oracle matrix: every error-bounded codec in the
//! registry is exercised over every synthetic regime, and the regimes'
//! *known* ground truth ([`fraz::scenarios::ScenarioDescriptor`]) turns
//! into hard assertions — bound conformance per regime, the predicted
//! cross-regime compressibility ordering (asserted, not logged), PSNR-model
//! first-guess quality on smooth vs. shock fields, and tune-cache
//! fingerprint stability across regenerated identical scenarios.
//!
//! The suite never hard-codes codec names: it runs for whatever the
//! default registry registers (including slim feature builds with a single
//! codec), so a future backend is covered the moment it registers.
//!
//! Ordering is asserted on the geometric mean of each regime's ratios
//! across the canonical workloads the codec supports (1-D 8192 and 2-D
//! 64×64 at an absolute bound of 2e-2, f32) — the standard way compression
//! papers aggregate across datasets, and robust to a codec family being
//! layout-biased toward one dimensionality.

use fraz::data::{DType, Dims};
use fraz::pressio::{registry, uniform_quantization_bound, BoundKind, Compressor};
use fraz::scenarios::{
    all_scenarios, by_name, ChainRank, Oracle, Regime, ScenarioField, DEFAULT_SEED, REGIMES,
};
use fraz::tune::fingerprint;

/// The canonical ordering workloads (every codec supports at least one).
fn canonical_dims() -> [Dims; 2] {
    [Dims::d1(8192), Dims::d2(64, 64)]
}

/// The absolute bound the compressibility ordering is defined at.
const ORDERING_BOUND: f64 = 2e-2;

fn error_bounded_codecs() -> Vec<(String, Box<dyn Compressor>)> {
    let names = registry::error_bounded_names();
    assert!(
        !names.is_empty(),
        "no error-bounded codecs registered — nothing to test"
    );
    names
        .into_iter()
        .map(|name| {
            let codec = registry::build_default(&name)
                .unwrap_or_else(|e| panic!("building {name} failed: {e}"));
            (name, codec)
        })
        .collect()
}

/// Every regime, every registered codec, every supported canonical
/// workload, both dtypes, across three decades of bounds: the decompressed
/// field must honour the codec's bound contract.
#[test]
fn every_regime_conforms_to_every_codec_bound() {
    let bounds = [2e-2, 1e-3, 1e-5];
    for (name, codec) in error_bounded_codecs() {
        for dims in &canonical_dims() {
            if !codec.supports_dims(dims) {
                continue;
            }
            for dtype in [DType::F32, DType::F64] {
                for config in all_scenarios(DEFAULT_SEED) {
                    let field = config.generate(dims, dtype, 0);
                    for bound in bounds {
                        assert_conforms(&name, codec.as_ref(), &field, bound);
                    }
                }
            }
        }
    }
}

fn assert_conforms(name: &str, codec: &dyn Compressor, field: &ScenarioField, bound: f64) {
    let regime = field.descriptor.name;
    let ctx = || {
        format!(
            "{name} on {regime} {:?} at bound {bound:e}",
            field.dataset.dims
        )
    };
    let compressed = codec
        .compress(&field.dataset, bound)
        .unwrap_or_else(|e| panic!("{}: compress failed: {e}", ctx()));
    let restored = codec
        .decompress(&compressed)
        .unwrap_or_else(|e| panic!("{}: decompress failed: {e}", ctx()));
    let original = field.dataset.values_f64();
    let recovered = restored.values_f64();
    assert_eq!(recovered.len(), original.len(), "{}", ctx());
    match codec.bound_kind() {
        BoundKind::AbsoluteError | BoundKind::AccuracyTolerance | BoundKind::InfinityNorm => {
            for (i, (x, y)) in original.iter().zip(recovered.iter()).enumerate() {
                let err = (x - y).abs();
                assert!(
                    err <= bound,
                    "{}: |x[{i}] - x̂[{i}]| = {err:e} (x = {x}, x̂ = {y})",
                    ctx()
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
            assert!(rmse <= bound * (1.0 + 1e-9), "{}: rmse = {rmse:e}", ctx());
        }
        other => panic!("{name}: unexpected bound kind {other:?} in error-bounded set"),
    }
}

/// Geometric-mean ratio of one regime across the codec's supported
/// canonical workloads at the ordering bound.
fn aggregate_ratio(codec: &dyn Compressor, regime: Regime) -> f64 {
    let config = by_name(regime.name()).unwrap();
    let mut log_sum = 0.0;
    let mut count = 0usize;
    for dims in &canonical_dims() {
        if !codec.supports_dims(dims) {
            continue;
        }
        let field = config.generate(dims, DType::F32, 0);
        let out = codec
            .evaluate(&field.dataset, ORDERING_BOUND, false)
            .unwrap_or_else(|e| panic!("{} on {regime}: {e}", codec.name()));
        log_sum += out.compression_ratio.ln();
        count += 1;
    }
    assert!(
        count > 0,
        "{}: no supported canonical workload",
        codec.name()
    );
    (log_sum / count as f64).exp()
}

/// The descriptors' compressibility promises, asserted per codec:
/// the universal chain `smooth ≻ turbulence ≻ noise` (the regimes carrying
/// a `compress_rank`), and `{oscillatory, shock, sparse} ≻ noise` for the
/// rank-less regimes.
#[test]
fn compressibility_ordering_holds_for_every_codec() {
    for (name, codec) in error_bounded_codecs() {
        let ratio_of = |regime: Regime| aggregate_ratio(codec.as_ref(), regime);

        // The ranked chain, driven by the descriptors themselves so a new
        // ranked regime is asserted the moment it declares a rank.
        let mut chain: Vec<(u8, Regime, f64)> = REGIMES
            .iter()
            .filter_map(|&r| r.compress_rank().map(|rank| (rank, r, ratio_of(r))))
            .collect();
        chain.sort_by_key(|&(rank, _, _)| rank);
        assert!(chain.len() >= 3, "chain regimes went missing");
        for pair in chain.windows(2) {
            let (_, better, a) = pair[0];
            let (_, worse, b) = pair[1];
            assert!(
                a > b,
                "{name}: {better} must out-compress {worse} at equal bound \
                 {ORDERING_BOUND:e}, got {a:.3} vs {b:.3}"
            );
        }

        // Rank-less regimes still beat noise under every codec.
        let noise = ratio_of(Regime::Noise);
        for regime in [Regime::Oscillatory, Regime::Shock, Regime::Sparse] {
            let ratio = ratio_of(regime);
            assert!(
                ratio > noise,
                "{name}: {regime} must out-compress noise, got {ratio:.3} vs {noise:.3}"
            );
        }
    }
}

/// For codecs whose bound is pointwise, the uniform-quantization first
/// guess must land where a slope step or two of the quality walk finishes
/// the job, on every regime: no more than 2 dB short of the requested PSNR,
/// and above it by no more than the bound kind explains — 8 dB on an
/// absolute-error codec, whose error sits just under its bound (sz: −1.4 …
/// +1.5 dB, szx: +0.8 … +7.7), 24 dB on a transform codec, whose error sits
/// well under its tolerance (zfp: +12 … +20).  On the smooth field an
/// absolute-error codec must land at-or-above the target and be at least as
/// accurate as on the shock field — discontinuities are exactly where the
/// uniform-quantization assumption degrades.
#[test]
fn psnr_model_first_guess_is_tight_on_smooth_and_conservative_on_shock() {
    let dims = Dims::d1(8192);
    let mut modeled = 0usize;
    for (name, codec) in error_bounded_codecs() {
        let kind = registry::describe(&name).unwrap().bound_kind;
        if !kind.is_pointwise() || !codec.supports_dims(&dims) {
            continue;
        }
        modeled += 1;
        let overshoot = if kind == BoundKind::AbsoluteError {
            8.0
        } else {
            24.0
        };
        for target in [50.0f64, 70.0] {
            let error_on = |regime: Regime| {
                let field = by_name(regime.name())
                    .unwrap()
                    .generate(&dims, DType::F32, 0);
                let range = field.descriptor.value_range();
                let bound = uniform_quantization_bound(range, target)
                    .expect("scenario ranges are non-degenerate");
                let out = codec
                    .evaluate(&field.dataset, bound, true)
                    .unwrap_or_else(|e| panic!("{name} on {regime}: {e}"));
                let error = out.quality.expect("quality requested").psnr - target;
                assert!(
                    (-2.0..=overshoot).contains(&error),
                    "{name} on {regime}: first guess is {error:.2} dB off {target} dB — \
                     short of it, or more than {overshoot} dB of wasted compression above"
                );
                error
            };
            let errors: Vec<f64> = REGIMES.iter().map(|&regime| error_on(regime)).collect();
            let of = |regime: Regime| errors[REGIMES.iter().position(|&r| r == regime).unwrap()];
            if kind == BoundKind::AbsoluteError {
                let (smooth_err, shock_err) = (of(Regime::Smooth), of(Regime::Shock));
                assert!(
                    smooth_err >= 0.0,
                    "{name} on smooth: first guess must reach the target \
                     (target {target} dB, got {smooth_err:.2} dB short)"
                );
                assert!(
                    smooth_err <= shock_err,
                    "{name} at {target} dB: model error on smooth ({smooth_err:.2} dB) \
                     must not exceed shock ({shock_err:.2} dB)"
                );
            }
        }
    }
    // At least sz/szx are pointwise in the default build; a slim build
    // without any such codec legitimately skips the loop body.
    if registry::error_bounded_names()
        .iter()
        .any(|n| n == "sz" || n == "szx")
    {
        assert!(modeled > 0, "expected at least one pointwise codec");
    }
}

/// The tune cache keys on a dataset fingerprint: regenerating the *same*
/// scenario must fingerprint identically (cache hits across runs), and
/// changing the seed, regime, or time-step must move the fingerprint
/// (no false sharing of tuned bounds).
#[test]
fn tune_cache_fingerprints_are_stable_across_regeneration() {
    let dims = Dims::d2(64, 64);
    for regime in REGIMES {
        let config = by_name(regime.name()).unwrap();
        let a = config.generate(&dims, DType::F32, 0);
        let b = config.generate(&dims, DType::F32, 0);
        assert_eq!(
            fingerprint(&a.dataset),
            fingerprint(&b.dataset),
            "{regime}: regenerated identical scenario must fingerprint identically"
        );

        let reseeded = config
            .clone()
            .with_seed(DEFAULT_SEED + 1)
            .generate(&dims, DType::F32, 0);
        assert_ne!(
            fingerprint(&a.dataset),
            fingerprint(&reseeded.dataset),
            "{regime}: a different seed must change the fingerprint"
        );

        if regime != Regime::Sparse || config.blob_count > 0 {
            let stepped = config.generate(&dims, DType::F32, 1);
            assert_ne!(
                fingerprint(&a.dataset),
                fingerprint(&stepped.dataset),
                "{regime}: a different time-step must change the fingerprint"
            );
        }
    }

    // Distinct regimes never collide at the default seed.
    let prints: Vec<u64> = REGIMES
        .iter()
        .map(|r| {
            fingerprint(
                &by_name(r.name())
                    .unwrap()
                    .generate(&dims, DType::F32, 0)
                    .dataset,
            )
        })
        .collect();
    for i in 0..prints.len() {
        for j in (i + 1)..prints.len() {
            assert_ne!(
                prints[i], prints[j],
                "{} and {} fingerprints collide",
                REGIMES[i], REGIMES[j]
            );
        }
    }
}
