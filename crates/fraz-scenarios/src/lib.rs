//! Synthetic workloads with *known* ground truth — the oracle side of the
//! FRaZ test matrix.
//!
//! The six regime generators (smooth advection, broadband turbulence,
//! oscillatory telemetry, shock fronts, sparse-with-constant-regions, pure
//! noise) live in [`fraz_data::synthetic`], next to the Table-III
//! application mimics and behind the same name lookup; their names are
//! re-exported here.  What this crate owns is what it *knows to be true* of
//! a generated field, independent of any codec: [`Oracle::generate`] hands
//! back the dataset with a [`ScenarioDescriptor`] — exact value range, mean
//! and RMS over the stored values, the spectral slope, discontinuity
//! positions and constant fraction the generator counted, and the regime's
//! place in the cross-regime compressibility chain
//! ([`ChainRank::compress_rank`]) — which the registry-driven oracle suite
//! (`tests/scenario_matrix.rs` at the workspace root) asserts against for
//! **every** error-bounded codec.
//!
//! Determinism is a hard contract: the same [`ScenarioConfig`] (regime,
//! seed, knobs) over the same dims/dtype/time-step yields a bit-identical
//! field on every run and platform — scenarios are reproducible workloads,
//! not random test data.
//!
//! ```
//! use fraz_data::{DType, Dims};
//! use fraz_scenarios::{by_name, Oracle, Regime};
//!
//! let field = by_name("turbulence").unwrap().generate(&Dims::d2(32, 32), DType::F32, 0);
//! assert_eq!(field.descriptor.regime, Regime::Turbulence);
//! assert_eq!(field.descriptor.spectral_slope, Some(5.0 / 3.0));
//! // The descriptor's range is exact over the emitted values.
//! let values = field.dataset.values_f64();
//! let max = values.iter().cloned().fold(f64::MIN, f64::max);
//! assert_eq!(max, field.descriptor.max);
//! ```

#![forbid(unsafe_code)]

use fraz_data::synthetic::GroundTruth;
use fraz_data::{DType, Dataset, Dims};

pub use fraz_data::synthetic::{Regime, ScenarioConfig, DEFAULT_SEED, REGIMES};

/// The ordering promise: a regime's place in the *universal
/// compressibility chain*.
pub trait ChainRank {
    /// Position in the chain, when the regime has one: `smooth(0) ≻
    /// turbulence(1) ≻ noise(2)`, where `a ≻ b` promises a strictly greater
    /// ratio for `a` at an equal absolute bound under *every* error-bounded
    /// codec.  `None` for the regimes (oscillatory, shock, sparse) whose
    /// ordering against the chain is codec-specific — they behave too
    /// differently across codec families for a universal claim beyond "more
    /// compressible than noise", which the oracle suite asserts separately.
    fn compress_rank(self) -> Option<u8>;
}

impl ChainRank for Regime {
    fn compress_rank(self) -> Option<u8> {
        match self {
            Regime::Smooth => Some(0),
            Regime::Turbulence => Some(1),
            Regime::Noise => Some(2),
            Regime::Oscillatory | Regime::Shock | Regime::Sparse => None,
        }
    }
}

/// A scenario the oracle can describe.
pub trait Oracle {
    /// Generate the field at one time-step, with its oracle descriptor.
    ///
    /// The descriptor's statistics are computed from the *stored* values
    /// (so they are exact for what a codec actually sees, including `f32`
    /// rounding).
    ///
    /// # Panics
    /// As [`ScenarioConfig::synthesize`].
    fn generate(&self, dims: &Dims, dtype: DType, timestep: usize) -> ScenarioField;
}

impl Oracle for ScenarioConfig {
    fn generate(&self, dims: &Dims, dtype: DType, timestep: usize) -> ScenarioField {
        let (dataset, truth) = self.synthesize(dims, dtype, timestep);
        let descriptor = ScenarioDescriptor::new(self, &dataset, truth);
        ScenarioField {
            dataset,
            descriptor,
        }
    }
}

/// The oracle: everything the test matrix knows to be true of a generated
/// field, independent of any codec.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDescriptor {
    /// Regime registry name (`"smooth"`, …).
    pub name: &'static str,
    /// The regime.
    pub regime: Regime,
    /// Grid shape of the emitted dataset.
    pub dims: Dims,
    /// Element type of the emitted dataset.
    pub dtype: DType,
    /// Seed the field was generated from.
    pub seed: u64,
    /// Time-step the field was generated at.
    pub timestep: usize,
    /// Exact minimum of the stored values (after any dtype narrowing).
    pub min: f64,
    /// Exact maximum of the stored values.
    pub max: f64,
    /// Mean of the stored values: left-to-right `f64` summation over the
    /// widened values, divided by the point count.  Exactly reproducible.
    pub mean: f64,
    /// Root-mean-square of the stored values, same summation contract.
    pub rms: f64,
    /// Turbulence: the amplitude-decay slope (None for other regimes).
    pub spectral_slope: Option<f64>,
    /// Shock: normalized discontinuity positions along the slowest axis at
    /// this time-step, sorted ascending (None for other regimes).
    pub shock_fronts: Option<Vec<f64>>,
    /// Sparse: exact fraction of samples equal to [`Self::background`].
    pub constant_fraction: Option<f64>,
    /// Sparse: the exactly-constant background value.
    pub background: Option<f64>,
    /// Position in the universal compressibility chain (see
    /// [`ChainRank::compress_rank`]).
    pub compress_rank: Option<u8>,
}

impl ScenarioDescriptor {
    fn new(config: &ScenarioConfig, dataset: &Dataset, truth: GroundTruth) -> Self {
        let values = dataset.values_f64();
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
        for &v in &values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
            sum_sq += v * v;
        }
        let n = values.len() as f64;
        Self {
            name: config.regime.name(),
            regime: config.regime,
            dims: dataset.dims.clone(),
            dtype: dataset.dtype(),
            seed: config.seed,
            timestep: dataset.timestep,
            min,
            max,
            mean: sum / n,
            rms: (sum_sq / n).sqrt(),
            spectral_slope: truth.spectral_slope,
            shock_fronts: truth.shock_fronts,
            constant_fraction: truth.constant_fraction,
            background: truth.background,
            compress_rank: config.regime.compress_rank(),
        }
    }

    /// `max - min`, the normalization for value-range-relative bounds.
    pub fn value_range(&self) -> f64 {
        self.max - self.min
    }
}

/// A generated field with its oracle descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioField {
    /// The dataset, ready for any `Compressor`-shaped API.
    pub dataset: Dataset,
    /// What the test matrix knows to be true of it.
    pub descriptor: ScenarioDescriptor,
}

/// Stock scenario for a regime name (default knobs, default seed); `None`
/// for unknown names.
pub fn by_name(name: &str) -> Option<ScenarioConfig> {
    Regime::parse(name).map(ScenarioConfig::new)
}

/// The six stock scenarios at one seed, in chain order.
pub fn all_scenarios(seed: u64) -> Vec<ScenarioConfig> {
    REGIMES
        .iter()
        .map(|&r| ScenarioConfig::new(r).with_seed(seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_round_trip() {
        for regime in REGIMES {
            assert_eq!(Regime::parse(regime.name()), Some(regime));
            assert_eq!(by_name(regime.name()).unwrap().regime, regime);
        }
        assert_eq!(Regime::parse("turbulance"), None);
        assert!(by_name("").is_none());
    }

    #[test]
    fn chain_ranks_cover_the_committed_ordering() {
        assert_eq!(Regime::Smooth.compress_rank(), Some(0));
        assert_eq!(Regime::Turbulence.compress_rank(), Some(1));
        assert_eq!(Regime::Noise.compress_rank(), Some(2));
        for regime in [Regime::Oscillatory, Regime::Shock, Regime::Sparse] {
            assert_eq!(regime.compress_rank(), None);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let dims = Dims::d2(24, 24);
        for regime in REGIMES {
            let config = ScenarioConfig::new(regime).with_seed(7);
            let a = config.generate(&dims, DType::F32, 1);
            let b = config.generate(&dims, DType::F32, 1);
            assert_eq!(a, b, "{regime} must be bit-identical per seed");
            let c = config.with_seed(8).generate(&dims, DType::F32, 1);
            assert_ne!(
                a.dataset.buffer, c.dataset.buffer,
                "{regime} must depend on the seed"
            );
        }
    }

    #[test]
    fn descriptor_stats_are_exact_for_both_dtypes() {
        let dims = Dims::d3(8, 10, 12);
        for regime in REGIMES {
            for dtype in [DType::F32, DType::F64] {
                let field = ScenarioConfig::new(regime).generate(&dims, dtype, 2);
                let values = field.dataset.values_f64();
                let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                let rms = (values.iter().map(|v| v * v).sum::<f64>() / values.len() as f64).sqrt();
                let d = &field.descriptor;
                assert_eq!((d.min, d.max), (min, max), "{regime:?}/{dtype:?}");
                assert_eq!(d.mean, mean, "{regime:?}/{dtype:?}");
                assert_eq!(d.rms, rms, "{regime:?}/{dtype:?}");
                assert!(values.iter().all(|v| v.is_finite()), "{regime:?}/{dtype:?}");
            }
        }
    }

    #[test]
    fn wave_regimes_hit_the_requested_amplitude() {
        // Peak-normalized regimes: the largest |value| equals the amplitude
        // exactly in f64 (f32 narrows it by at most one ulp).
        for regime in [Regime::Smooth, Regime::Turbulence, Regime::Oscillatory] {
            let field = ScenarioConfig::new(regime).generate(&Dims::d1(4096), DType::F64, 0);
            let peak = field.descriptor.max.abs().max(field.descriptor.min.abs());
            assert_eq!(peak, 1.0, "{regime}");
        }
    }

    #[test]
    fn sparse_ground_truth_counts_background_exactly() {
        let config = ScenarioConfig::new(Regime::Sparse);
        let field = config.generate(&Dims::d2(48, 48), DType::F64, 0);
        let d = &field.descriptor;
        let background = d.background.unwrap();
        let zeros = field
            .dataset
            .values_f64()
            .iter()
            .filter(|&&v| v == background)
            .count();
        assert_eq!(
            d.constant_fraction.unwrap(),
            zeros as f64 / field.dataset.len() as f64
        );
        assert!(d.constant_fraction.unwrap() > 0.3, "mostly background");

        // Zero blobs degenerates to an all-constant field.
        let mut all_constant = config.clone();
        all_constant.blob_count = 0;
        let field = all_constant.generate(&Dims::d1(512), DType::F32, 0);
        assert_eq!(field.descriptor.constant_fraction, Some(1.0));
        assert_eq!(field.descriptor.min, field.descriptor.max);
    }

    #[test]
    fn shock_fronts_are_reported_sorted_in_unit_range() {
        let field = ScenarioConfig::new(Regime::Shock).generate(&Dims::d1(2048), DType::F64, 3);
        let fronts = field.descriptor.shock_fronts.clone().unwrap();
        assert_eq!(fronts.len(), 3);
        assert!(fronts.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(fronts.iter().all(|p| (0.0..1.0).contains(p)));
    }

    #[test]
    fn timesteps_are_coherent_except_noise() {
        let dims = Dims::d1(4096);
        let rmse = |a: &[f64], b: &[f64]| {
            (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64).sqrt()
        };
        for regime in REGIMES {
            let config = ScenarioConfig::new(regime);
            let t0 = config.generate(&dims, DType::F64, 0).dataset.values_f64();
            let t1 = config.generate(&dims, DType::F64, 1).dataset.values_f64();
            let step = rmse(&t0, &t1);
            assert!(step > 0.0, "{regime}: steps must differ");
            if regime != Regime::Noise {
                let spread = rmse(&t0, &vec![0.0; t0.len()]);
                assert!(
                    step < spread,
                    "{regime}: consecutive steps should be correlated \
                     (step rmse {step}, field rms {spread})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "amplitude must be finite")]
    fn bad_amplitude_panics() {
        let mut config = ScenarioConfig::new(Regime::Noise);
        config.amplitude = 0.0;
        config.generate(&Dims::d1(8), DType::F32, 0);
    }
}
