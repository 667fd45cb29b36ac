//! The one spectral core every generator shares: the seeded RNG streams,
//! the travelling Fourier [`Mode`], the row-major walk over normalized
//! coordinates, and the value transforms.
//!
//! Both families — the Table-III application mimics (`apps.rs`) and the
//! oracle regimes (`regimes.rs`) — are sums of modes
//! `amp · sin(k · x + phase + ω t)` sampled on a grid; the per-mode temporal
//! frequency keeps consecutive time-steps strongly correlated but not
//! identical, which is the property FRaZ's time-step prediction reuse
//! (Algorithm 1) exploits.  Each family draws its own modes (they take a
//! different number of wave-vector components per mode, and the RNG stream
//! is part of the bit-for-bit contract); everything after the draw is here.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::dims::Dims;

/// Derive a deterministic child seed from a base seed and a label, so every
/// (application, field) pair gets an independent but reproducible stream.
pub(crate) fn derive_seed(base: u64, label: &str) -> u64 {
    // FNV-1a over the label, mixed with the base seed.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ base.rotate_left(17);
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Deterministic RNG used by all generators.
pub(crate) fn rng_for(seed: u64, label: &str) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(derive_seed(seed, label))
}

/// Sample a standard normal deviate via Box–Muller (rand_distr is not a
/// workspace dependency; two uniforms per call are cheap enough here).
pub(crate) fn normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// One travelling Fourier mode over normalized coordinates — the only mode
/// type in the tree.  Slot 0 of `k` is the fastest (last) axis.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mode {
    /// Spatial angular frequency per axis (radians per normalized axis).
    pub k: [f64; 4],
    /// Amplitude.
    pub amp: f64,
    /// Spatial phase.
    pub phase: f64,
    /// Temporal angular frequency (radians per time-step).
    pub omega: f64,
}

impl Mode {
    /// `amp · sin(k · c + phase + ω t)`.
    #[inline]
    pub fn eval(&self, c: &[f64; 4], t: f64) -> f64 {
        let arg = self.k[0] * c[0]
            + self.k[1] * c[1]
            + self.k[2] * c[2]
            + self.k[3] * c[3]
            + self.phase
            + self.omega * t;
        self.amp * arg.sin()
    }
}

/// The sum of `modes` at normalized coordinates `c` and time-step `t`,
/// accumulated in mode order.
#[inline]
pub(crate) fn eval_modes(modes: &[Mode], c: &[f64; 4], t: f64) -> f64 {
    let mut sum = 0.0;
    for mode in modes {
        sum += mode.eval(c, t);
    }
    sum
}

/// The one grid walk: `value` at every point of `dims` in row-major order,
/// handed the point's normalized `[0,1)` coordinates — slot 0 the fastest
/// (last) axis, slot `ndims - 1` the slowest, unused slots 0.
pub(crate) fn sample_grid(dims: &Dims, mut value: impl FnMut(&[f64; 4]) -> f64) -> Vec<f64> {
    let shape = dims.as_slice();
    let mut c = [0.0f64; 4];
    (0..dims.len())
        .map(|mut idx| {
            for (slot, &len) in shape.iter().rev().enumerate() {
                c[slot] = (idx % len) as f64 / len as f64;
                idx /= len;
            }
            value(&c)
        })
        .collect()
}

/// Rescale so the largest |value| equals `amplitude` *exactly*: the peak
/// element maps through `±m / m * amplitude = ±amplitude`, and correctly
/// rounded division keeps every other |value| ≤ amplitude.
pub(crate) fn normalize_peak(values: &mut [f64], amplitude: f64) {
    let m = values.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
    if m == 0.0 {
        return;
    }
    for v in values.iter_mut() {
        *v = *v / m * amplitude;
    }
}

/// Value transforms applied on top of a sampled sum of modes to mimic the
/// statistics of specific application fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Transform {
    /// Use the raw smooth field (temperature-, pressure-, velocity-like).
    Identity,
    /// `exp(scale * v)` — log-normal positive fields (densities).
    Exponential(f64),
    /// `max(v - threshold, 0) * scale` — sparse non-negative fields (cloud
    /// mixing ratios, precipitation).
    Sparse(f64, f64),
    /// `log10(max(v - threshold, 0) * scale + floor)` — the `.log10`
    /// variants SDRBench ships for highly skewed fields (QCLOUDf.log10).
    SparseLog10(f64, f64, f64),
}

impl Transform {
    /// Apply the transform to a single value.
    #[inline]
    pub(crate) fn apply(&self, v: f64) -> f64 {
        match *self {
            Transform::Identity => v,
            Transform::Exponential(scale) => (scale * v).exp(),
            Transform::Sparse(threshold, scale) => (v - threshold).max(0.0) * scale,
            Transform::SparseLog10(threshold, scale, floor) => {
                ((v - threshold).max(0.0) * scale + floor).log10()
            }
        }
    }

    /// Apply the transform to every value in place.
    pub(crate) fn apply_all(&self, values: &mut [f64]) {
        if *self == Transform::Identity {
            return;
        }
        for v in values.iter_mut() {
            *v = self.apply(*v);
        }
    }
}

/// Add white measurement noise with the given standard deviation.
pub(crate) fn add_noise(values: &mut [f64], rng: &mut impl Rng, std_dev: f64) {
    if std_dev <= 0.0 {
        return;
    }
    for v in values.iter_mut() {
        *v += normal(rng) * std_dev;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_deterministic_and_label_sensitive() {
        assert_eq!(derive_seed(42, "CLOUDf"), derive_seed(42, "CLOUDf"));
        assert_ne!(derive_seed(42, "CLOUDf"), derive_seed(42, "TCf"));
        assert_ne!(derive_seed(42, "CLOUDf"), derive_seed(43, "CLOUDf"));
    }

    #[test]
    fn normal_has_roughly_unit_variance() {
        let mut rng = rng_for(7, "normal-test");
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn grid_walk_is_row_major_with_the_fastest_axis_in_slot_zero() {
        for dims in [
            Dims::d1(17),
            Dims::d2(5, 9),
            Dims::d3(3, 4, 5),
            Dims::d4(2, 3, 4, 5),
        ] {
            let coords = sample_grid(&dims, |c| c[0] + 10.0 * c[1] + 100.0 * c[2] + 1000.0 * c[3]);
            assert_eq!(coords.len(), dims.len());
        }
        let mut seen = Vec::new();
        sample_grid(&Dims::d2(2, 3), |c| {
            seen.push(*c);
            0.0
        });
        let thirds = [0.0, 1.0 / 3.0, 2.0 / 3.0];
        for (i, c) in seen.iter().enumerate() {
            assert_eq!(*c, [thirds[i % 3], (i / 3) as f64 / 2.0, 0.0, 0.0]);
        }
    }

    #[test]
    fn a_mode_is_a_travelling_sinusoid() {
        let mode = Mode {
            k: [std::f64::consts::TAU, 0.0, 0.0, 0.0],
            amp: 2.0,
            phase: 0.0,
            omega: std::f64::consts::FRAC_PI_2,
        };
        assert!((mode.eval(&[0.25, 0.9, 0.9, 0.9], 0.0) - 2.0).abs() < 1e-12);
        assert!((mode.eval(&[0.0; 4], 1.0) - 2.0).abs() < 1e-12);
        assert_eq!(eval_modes(&[mode, mode], &[0.25, 0.0, 0.0, 0.0], 0.0), {
            let one = mode.eval(&[0.25, 0.0, 0.0, 0.0], 0.0);
            0.0 + one + one
        });
    }

    #[test]
    fn peak_normalization_is_exact() {
        let mut values = vec![0.3, -0.7, 0.1];
        normalize_peak(&mut values, 4.0);
        assert_eq!(values[1], -4.0);
        assert!(values.iter().all(|v| v.abs() <= 4.0));
        let mut zeros = vec![0.0; 3];
        normalize_peak(&mut zeros, 4.0);
        assert_eq!(zeros, vec![0.0; 3]);
    }

    #[test]
    fn transforms_behave() {
        assert_eq!(Transform::Identity.apply(3.5), 3.5);
        assert!((Transform::Exponential(1.0).apply(0.0) - 1.0).abs() < 1e-12);
        assert_eq!(Transform::Sparse(1.0, 2.0).apply(0.5), 0.0);
        assert_eq!(Transform::Sparse(1.0, 2.0).apply(2.0), 2.0);
        let v = Transform::SparseLog10(0.0, 1.0, 1e-6).apply(0.0);
        assert!((v - (-6.0)).abs() < 1e-9);
    }

    #[test]
    fn noise_changes_values() {
        let mut rng = rng_for(33, "noise");
        let mut values = vec![0.0f64; 100];
        add_noise(&mut values, &mut rng, 0.1);
        assert!(values.iter().any(|&v| v != 0.0));
        let mut untouched = vec![1.0f64; 10];
        add_noise(&mut untouched, &mut rng, 0.0);
        assert_eq!(untouched, vec![1.0; 10]);
    }
}
