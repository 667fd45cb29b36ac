//! Property tests pinning the scenario oracle away from the stock knobs:
//! for arbitrary dims/seeds/slopes/shock counts, generation is
//! seed-deterministic (same seed → bit-identical field) and every
//! [`ScenarioDescriptor`] ground-truth statistic matches the emitted data
//! *exactly* — the oracle test matrix is only as trustworthy as these
//! invariants.
#![recursion_limit = "256"]

use proptest::prelude::*;

use fraz_data::{DType, Dims};
use fraz_scenarios::{ChainRank, Oracle, Regime, ScenarioConfig, REGIMES};

fn regime_strategy() -> impl Strategy<Value = Regime> {
    (0usize..REGIMES.len()).prop_map(|i| REGIMES[i])
}

fn dims_strategy() -> impl Strategy<Value = Dims> {
    prop_oneof![
        (64usize..2048).prop_map(Dims::d1),
        ((8usize..48), (8usize..48)).prop_map(|(r, c)| Dims::d2(r, c)),
        ((4usize..14), (4usize..14), (4usize..14)).prop_map(|(z, y, x)| Dims::d3(z, y, x)),
    ]
}

fn dtype_strategy() -> impl Strategy<Value = DType> {
    prop_oneof![Just(DType::F32), Just(DType::F64)]
}

proptest! {
    // Each case generates up to three fields over every assertion below,
    // so a modest case count still covers a wide knob space.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn same_seed_is_bit_identical_and_descriptors_are_exact(
        regime in regime_strategy(),
        dims in dims_strategy(),
        dtype in dtype_strategy(),
        seed in 0u64..1_000_000,
        // (spectral slope, shock count, blob count) — grouped so the
        // parameter list stays within the tuple-strategy arity.
        knobs in (0.5f64..3.0, 1usize..6, 0usize..8),
        timestep in 0usize..4,
    ) {
        let (slope, shock_count, blob_count) = knobs;
        let mut config = ScenarioConfig::new(regime).with_seed(seed);
        config.spectral_slope = slope;
        config.shock_count = shock_count;
        config.blob_count = blob_count;

        let a = config.generate(&dims, dtype, timestep);
        let b = config.generate(&dims, dtype, timestep);
        prop_assert_eq!(&a, &b, "same config must be bit-identical");

        let values = a.dataset.values_f64();
        prop_assert_eq!(values.len(), dims.len());
        prop_assert!(values.iter().all(|v| v.is_finite()), "NaN/inf leaked");

        // Ground truth is measured from the *stored* values: recomputing
        // with the documented left-to-right f64 summation must agree to
        // the bit, for both dtypes.
        let d = &a.descriptor;
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let rms = (values.iter().map(|v| v * v).sum::<f64>() / values.len() as f64).sqrt();
        prop_assert_eq!(d.min, min);
        prop_assert_eq!(d.max, max);
        prop_assert_eq!(d.mean, mean);
        prop_assert_eq!(d.rms, rms);
        prop_assert_eq!(d.regime, regime);
        prop_assert_eq!(d.seed, seed);
        prop_assert_eq!(d.timestep, timestep);
        prop_assert_eq!(&d.dims, &dims);
        prop_assert_eq!(d.dtype, dtype);
        prop_assert_eq!(d.compress_rank, regime.compress_rank());

        // A different seed must actually change the bits.
        let reseeded = config.clone().with_seed(seed ^ 0x9e37_79b9).generate(&dims, dtype, timestep);
        prop_assert!(
            a.dataset.buffer != reseeded.dataset.buffer,
            "a different seed must change the bits"
        );
    }

    #[test]
    fn regime_specific_ground_truth_holds_off_the_defaults(
        dims in dims_strategy(),
        seed in 0u64..1_000_000,
        slope in 0.5f64..3.0,
        shock_count in 1usize..6,
        blob_count in 0usize..8,
    ) {
        // Turbulence reports exactly the slope it was asked for.
        let mut turb = ScenarioConfig::new(Regime::Turbulence).with_seed(seed);
        turb.spectral_slope = slope;
        let field = turb.generate(&dims, DType::F64, 0);
        prop_assert_eq!(field.descriptor.spectral_slope, Some(slope));

        // Shock reports one sorted in-range front per requested shock.
        let mut shock = ScenarioConfig::new(Regime::Shock).with_seed(seed);
        shock.shock_count = shock_count;
        let field = shock.generate(&dims, DType::F64, 0);
        let fronts = field.descriptor.shock_fronts.clone().unwrap();
        prop_assert_eq!(fronts.len(), shock_count);
        prop_assert!(fronts.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(fronts.iter().all(|p| (0.0..1.0).contains(p)));

        // Sparse's constant fraction counts the exact background matches in
        // the emitted f64 data; zero blobs means an all-constant field.
        let mut sparse = ScenarioConfig::new(Regime::Sparse).with_seed(seed);
        sparse.blob_count = blob_count;
        let field = sparse.generate(&dims, DType::F64, 0);
        let d = &field.descriptor;
        let background = d.background.unwrap();
        let matches = field
            .dataset
            .values_f64()
            .iter()
            .filter(|&&v| v == background)
            .count();
        prop_assert_eq!(
            d.constant_fraction.unwrap(),
            matches as f64 / dims.len() as f64
        );
        if blob_count == 0 {
            prop_assert_eq!(d.constant_fraction, Some(1.0));
            prop_assert_eq!(d.min, d.max);
        }
    }

    #[test]
    fn wave_regimes_peak_exactly_at_the_amplitude(
        dims in dims_strategy(),
        seed in 0u64..1_000_000,
        amp_exp in -2i32..3,
    ) {
        let amplitude = 10f64.powi(amp_exp);
        for regime in [Regime::Smooth, Regime::Turbulence, Regime::Oscillatory] {
            let mut config = ScenarioConfig::new(regime).with_seed(seed);
            config.amplitude = amplitude;
            let d = config.generate(&dims, DType::F64, 0).descriptor;
            let peak = d.max.abs().max(d.min.abs());
            prop_assert_eq!(peak, amplitude, "{} peak", regime);
        }
        // Noise stays strictly inside the open interval.
        let mut config = ScenarioConfig::new(Regime::Noise).with_seed(seed);
        config.amplitude = amplitude;
        let d = config.generate(&dims, DType::F64, 0).descriptor;
        prop_assert!(d.max < amplitude && d.min > -amplitude);
    }
}
