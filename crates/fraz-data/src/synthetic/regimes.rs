//! The six oracle regimes: field classes with *countable* ground truth.
//!
//! The error-bounded-compression literature (Di et al.'s 2024 survey; the
//! SZx design study) identifies a handful of field classes that stress
//! different codec paths: smooth advective fields, broadband turbulence,
//! oscillatory telemetry, shock fronts, sparse fields with exactly-constant
//! regions, and pure noise.  A [`ScenarioConfig`] generates any of them in
//! 1-D to 4-D at either dtype and hands back, beside the dataset, the
//! [`GroundTruth`] it counted while generating — what the `fraz-scenarios`
//! oracle turns into the descriptor its test matrix asserts against.
//!
//! Everything here is pure `ChaCha8Rng` + IEEE-754 arithmetic over
//! normalized `[0,1)^d` coordinates, so a `(regime, seed, knobs, dims,
//! dtype, timestep)` tuple always reproduces the same bits.

use std::f64::consts::TAU;
use std::fmt;

use rand::Rng;

use crate::buffer::DType;
use crate::dims::Dims;
use crate::Dataset;

use super::field_gen::{eval_modes, normal, normalize_peak, rng_for, sample_grid, Mode};

/// Default seed for scenario generation (the workspace experiment seed, so
/// bench workloads and manifests agree by default).
pub const DEFAULT_SEED: u64 = 20200118;

/// The six field classes the suite covers, in the order of the oracle's
/// compressibility chain (smooth first, noise last).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// Smooth advection: a few low-wavenumber cosine modes plus drifting
    /// Gaussian bumps.  The most compressible non-degenerate class.
    Smooth,
    /// Kolmogorov-spectrum turbulence: broadband spectral synthesis with a
    /// tunable amplitude-decay slope (default 5/3).
    Turbulence,
    /// Multi-channel oscillatory telemetry: contiguous channels, log-spaced
    /// amplitudes, distinct carrier frequencies and drifting baselines.
    Oscillatory,
    /// Shock/discontinuity fronts: a smooth base field plus step jumps
    /// across planar fronts at known positions along the slowest axis.
    Shock,
    /// Sparse-with-constant-regions: an exactly-constant background with a
    /// few compactly supported blobs (blob count 0 = all-constant field).
    Sparse,
    /// Pure i.i.d. uniform noise — the incompressible floor.
    Noise,
}

/// All six regimes, in chain order.
pub const REGIMES: [Regime; 6] = [
    Regime::Smooth,
    Regime::Turbulence,
    Regime::Oscillatory,
    Regime::Shock,
    Regime::Sparse,
    Regime::Noise,
];

impl Regime {
    /// The regime's generator name.
    pub fn name(self) -> &'static str {
        match self {
            Regime::Smooth => "smooth",
            Regime::Turbulence => "turbulence",
            Regime::Oscillatory => "oscillatory",
            Regime::Shock => "shock",
            Regime::Sparse => "sparse",
            Regime::Noise => "noise",
        }
    }

    /// Parse a generator name (exact, case-sensitive — manifest values are
    /// machine-written).
    pub fn parse(name: &str) -> Option<Self> {
        REGIMES.iter().copied().find(|r| r.name() == name)
    }
}

impl fmt::Display for Regime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A parameterized, seed-deterministic scenario.
///
/// Every knob has a default chosen so the six stock scenarios honour the
/// oracle's ordering promises; the proptest oracle suite additionally
/// sweeps the knobs to pin determinism and ground-truth exactness away from
/// the defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Which field class to generate.
    pub regime: Regime,
    /// Base seed; every (regime, seed) pair is an independent stream.
    pub seed: u64,
    /// Peak amplitude: wave-like regimes are normalized so the largest
    /// absolute value equals this exactly; noise is uniform in ±amplitude.
    pub amplitude: f64,
    /// Turbulence amplitude-decay slope (`a(k) ∝ k^{-slope}`, default 5/3,
    /// the Kolmogorov label).  Larger = smoother spectrum.
    pub spectral_slope: f64,
    /// Number of random Fourier modes for turbulence.
    pub modes: usize,
    /// Number of discontinuity fronts for the shock regime.
    pub shock_count: usize,
    /// Number of telemetry channels for the oscillatory regime.
    pub channels: usize,
    /// Number of compact blobs for the sparse regime (0 = all-constant).
    pub blob_count: usize,
    /// Exact background value of the sparse regime.
    pub background: f64,
}

/// Regime-specific analytic ground truth counted during generation (the
/// parts that cannot be recomputed from the values alone).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroundTruth {
    /// Turbulence: the amplitude-decay slope actually used.
    pub spectral_slope: Option<f64>,
    /// Shock: normalized front positions along the slowest axis, sorted.
    pub shock_fronts: Option<Vec<f64>>,
    /// Sparse: exact fraction of samples equal to the background value
    /// (counted during generation, before dtype narrowing — the background
    /// is dtype-exact by construction).
    pub constant_fraction: Option<f64>,
    /// Sparse: the exact background value.
    pub background: Option<f64>,
}

impl ScenarioConfig {
    /// The stock configuration of a regime at the default seed.
    pub fn new(regime: Regime) -> Self {
        Self {
            regime,
            seed: DEFAULT_SEED,
            amplitude: 1.0,
            spectral_slope: 5.0 / 3.0,
            modes: 96,
            shock_count: 3,
            channels: 8,
            blob_count: 5,
            background: 0.0,
        }
    }

    /// Same scenario, different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generate the field at one time-step, with the ground truth counted
    /// on the way.
    ///
    /// Values are synthesized in `f64` and stored at `dtype`.  Consecutive
    /// time-steps are coherent for every regime except noise, which is
    /// resampled per step.
    ///
    /// # Panics
    /// Panics if `amplitude` is not finite and positive, or a count knob
    /// needed by the regime is degenerate (`channels == 0` for oscillatory).
    pub fn synthesize(&self, dims: &Dims, dtype: DType, timestep: usize) -> (Dataset, GroundTruth) {
        assert!(
            self.amplitude.is_finite() && self.amplitude > 0.0,
            "scenario amplitude must be finite and positive, got {}",
            self.amplitude
        );
        let (values, truth) = match self.regime {
            Regime::Smooth => (self.smooth(dims, timestep), GroundTruth::default()),
            Regime::Turbulence => self.turbulence(dims, timestep),
            Regime::Oscillatory => (self.oscillatory(dims, timestep), GroundTruth::default()),
            Regime::Shock => self.shock(dims, timestep),
            Regime::Sparse => self.sparse(dims, timestep),
            Regime::Noise => (self.noise(dims, timestep), GroundTruth::default()),
        };
        let name = self.regime.name();
        let dataset = super::store("scenario", name, timestep, dims, dtype, values);
        (dataset, truth)
    }

    /// Smooth advection: four low-wavenumber (≤ 1.5 cycles/axis) travelling
    /// cosines plus two wide drifting Gaussian bumps.  Peak-normalized.
    fn smooth(&self, dims: &Dims, timestep: usize) -> Vec<f64> {
        let mut rng = rng_for(self.seed, "scenario/smooth");
        let t = timestep as f64;

        let modes: Vec<Mode> = (0..4)
            .map(|m| {
                let mut k = [0.0; 4];
                for slot in k.iter_mut() {
                    *slot = rng.gen_range(-1.5..1.5) * TAU;
                }
                Mode {
                    k,
                    amp: 1.0 / (1.0 + m as f64),
                    phase: rng.gen_range(0.0..TAU),
                    omega: normal(&mut rng) * 0.2,
                }
            })
            .collect();

        struct Bump {
            center: [f64; 4],
            vel: [f64; 4],
            width: f64,
            height: f64,
        }
        let bumps: Vec<Bump> = (0..2)
            .map(|_| {
                let mut center = [0.0; 4];
                let mut vel = [0.0; 4];
                for (c, v) in center.iter_mut().zip(vel.iter_mut()) {
                    *c = rng.gen_range(0.0..1.0);
                    *v = rng.gen_range(-0.03..0.03);
                }
                Bump {
                    center,
                    vel,
                    width: rng.gen_range(0.22..0.40),
                    height: if rng.gen_bool(0.5) { 0.9 } else { -0.9 },
                }
            })
            .collect();

        let ndims = dims.ndims();
        let mut values = sample_grid(dims, |c| {
            let mut v = eval_modes(&modes, c, t);
            for bump in &bumps {
                let mut d2 = 0.0;
                let axes = c.iter().zip(&bump.center).zip(&bump.vel).take(ndims);
                for ((&ca, &center), &vel) in axes {
                    let center = (center + vel * t).rem_euclid(1.0);
                    let dx = (ca - center).abs();
                    let dx = dx.min(1.0 - dx);
                    d2 += dx * dx;
                }
                v += bump.height * (-d2 / (2.0 * bump.width * bump.width)).exp();
            }
            v
        });
        normalize_peak(&mut values, self.amplitude);
        values
    }

    /// Kolmogorov-like turbulence: `modes` random Fourier modes with
    /// log-uniform wavenumber magnitude in `[4, 64]` and amplitude
    /// `(k/4)^{-slope}`, so energy concentrates at the largest resolved
    /// scales for slope > 0 but broadband structure persists everywhere.
    /// The wavenumber floor keeps the regime strictly rougher than the
    /// smooth one (≤ 1.5 cycles), which the compressibility chain depends
    /// on.  Peak-normalized.
    fn turbulence(&self, dims: &Dims, timestep: usize) -> (Vec<f64>, GroundTruth) {
        let mut rng = rng_for(self.seed, "scenario/turbulence");
        let ndims = dims.ndims();
        let min_wavenumber: f64 = 4.0;
        let max_wavenumber: f64 = 64.0;

        let modes: Vec<Mode> = (0..self.modes.max(1))
            .map(|_| {
                let u = rng.gen_range(0.0f64..1.0);
                let kmag = min_wavenumber * (u * (max_wavenumber / min_wavenumber).ln()).exp();
                let mut dir = [0.0f64; 4];
                let mut norm = 0.0;
                for slot in dir.iter_mut().take(ndims) {
                    *slot = normal(&mut rng);
                    norm += *slot * *slot;
                }
                let norm = norm.sqrt().max(1e-9);
                let mut k = [0.0; 4];
                for a in 0..ndims {
                    k[a] = dir[a] / norm * kmag * TAU;
                }
                Mode {
                    k,
                    amp: (kmag / min_wavenumber).powf(-self.spectral_slope)
                        * (0.5 + rng.gen_range(0.0..1.0)),
                    phase: rng.gen_range(0.0..TAU),
                    omega: normal(&mut rng) * 0.1,
                }
            })
            .collect();

        let mut values = sample_grid(dims, |c| eval_modes(&modes, c, timestep as f64));
        normalize_peak(&mut values, self.amplitude);
        let truth = GroundTruth {
            spectral_slope: Some(self.spectral_slope),
            ..GroundTruth::default()
        };
        (values, truth)
    }

    /// Multi-channel telemetry: the flat buffer is split into `channels`
    /// contiguous channel slices with log-spaced amplitudes (3 decades),
    /// distinct carrier frequencies, and a slow baseline wander.
    /// Peak-normalized.
    fn oscillatory(&self, dims: &Dims, timestep: usize) -> Vec<f64> {
        assert!(self.channels > 0, "oscillatory scenario needs channels > 0");
        let mut rng = rng_for(self.seed, "scenario/oscillatory");
        let t = timestep as f64;
        let n = dims.len();
        let channels = self.channels.min(n).max(1);
        let denom = (channels - 1).max(1) as f64;

        let mut values = vec![0.0f64; n];
        let base = n / channels;
        let rem = n % channels;
        let mut start = 0;
        for ch in 0..channels {
            let len = base + usize::from(ch < rem);
            let amp = 10f64.powf(-3.0 * ch as f64 / denom);
            let freq: f64 = rng.gen_range(16.0..48.0);
            let phase: f64 = rng.gen_range(0.0..TAU);
            let omega: f64 = rng.gen_range(0.05..0.25);
            let drift_freq: f64 = rng.gen_range(0.5..2.0);
            let drift_phase: f64 = rng.gen_range(0.0..TAU);
            for (i, v) in values[start..start + len].iter_mut().enumerate() {
                let x = i as f64 / len as f64;
                let carrier = (TAU * freq * x + phase + omega * t).sin();
                let baseline = 0.15 * (TAU * drift_freq * x + drift_phase + 0.1 * t).sin();
                *v = amp * (carrier + baseline);
            }
            start += len;
        }
        normalize_peak(&mut values, self.amplitude);
        values
    }

    /// Shock fronts: a gentle smooth base (≤ 0.4·amplitude) plus
    /// `shock_count` alternating-sign step jumps across planar fronts normal
    /// to the slowest axis, at known drifting positions.  Not normalized —
    /// the jump magnitudes are the ground truth.
    fn shock(&self, dims: &Dims, timestep: usize) -> (Vec<f64>, GroundTruth) {
        let mut rng = rng_for(self.seed, "scenario/shock");
        let t = timestep as f64;

        let modes: Vec<Mode> = (0..3)
            .map(|_| {
                let mut k = [0.0; 4];
                for slot in k.iter_mut() {
                    *slot = rng.gen_range(-2.0..2.0) * TAU;
                }
                Mode {
                    k,
                    amp: 0.4 * self.amplitude / 3.0,
                    phase: rng.gen_range(0.0..TAU),
                    omega: normal(&mut rng) * 0.2,
                }
            })
            .collect();

        struct Front {
            position: f64,
            jump: f64,
        }
        let mut fronts: Vec<Front> = (0..self.shock_count)
            .map(|i| {
                let p0: f64 = rng.gen_range(0.05..0.95);
                let vel: f64 = rng.gen_range(-0.02..0.02);
                let magnitude = self.amplitude * rng.gen_range(0.4..0.7);
                Front {
                    position: (p0 + vel * t).rem_euclid(1.0),
                    jump: if i % 2 == 0 { magnitude } else { -magnitude },
                }
            })
            .collect();
        fronts.sort_by(|a, b| a.position.total_cmp(&b.position));

        let slow_slot = dims.ndims() - 1;
        let values = sample_grid(dims, |c| {
            let mut v = eval_modes(&modes, c, t);
            for front in &fronts {
                if c[slow_slot] >= front.position {
                    v += front.jump;
                }
            }
            v
        });
        let truth = GroundTruth {
            shock_fronts: Some(fronts.iter().map(|f| f.position).collect()),
            ..GroundTruth::default()
        };
        (values, truth)
    }

    /// Sparse field: an exactly-constant background with `blob_count`
    /// drifting compact-support bumps `h·(1 − u²)²` for `u < 1` (exactly
    /// zero outside), so the background fraction is countable during
    /// generation.  `blob_count == 0` degenerates to an all-constant field.
    fn sparse(&self, dims: &Dims, timestep: usize) -> (Vec<f64>, GroundTruth) {
        let mut rng = rng_for(self.seed, "scenario/sparse");
        let t = timestep as f64;
        let ndims = dims.ndims();

        struct Blob {
            center: [f64; 4],
            vel: [f64; 4],
            radius: f64,
            height: f64,
        }
        let blobs: Vec<Blob> = (0..self.blob_count)
            .map(|_| {
                let mut center = [0.0; 4];
                let mut vel = [0.0; 4];
                for (c, v) in center.iter_mut().zip(vel.iter_mut()) {
                    *c = rng.gen_range(0.0..1.0);
                    *v = rng.gen_range(-0.02..0.02);
                }
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                Blob {
                    center,
                    vel,
                    radius: rng.gen_range(0.08..0.22),
                    height: sign * self.amplitude * rng.gen_range(0.4..1.0),
                }
            })
            .collect();

        let mut background_count = 0usize;
        let values = sample_grid(dims, |c| {
            let mut s = 0.0;
            for blob in &blobs {
                let mut u2 = 0.0;
                let axes = c.iter().zip(&blob.center).zip(&blob.vel).take(ndims);
                for ((&ca, &center), &vel) in axes {
                    let center = (center + vel * t).rem_euclid(1.0);
                    let dx = (ca - center).abs();
                    let dx = dx.min(1.0 - dx) / blob.radius;
                    u2 += dx * dx;
                    if u2 >= 1.0 {
                        break;
                    }
                }
                if u2 < 1.0 {
                    let w = 1.0 - u2;
                    s += blob.height * w * w;
                }
            }
            if s == 0.0 {
                background_count += 1;
                self.background
            } else {
                self.background + s
            }
        });
        let truth = GroundTruth {
            constant_fraction: Some(background_count as f64 / dims.len() as f64),
            background: Some(self.background),
            ..GroundTruth::default()
        };
        (values, truth)
    }

    /// Pure noise: i.i.d. uniform in `(-amplitude, amplitude)`, resampled
    /// per time-step (noise has no temporal coherence to model).
    fn noise(&self, dims: &Dims, timestep: usize) -> Vec<f64> {
        let mut rng = rng_for(self.seed, &format!("scenario/noise/t{timestep}"));
        (0..dims.len())
            .map(|_| rng.gen_range(-self.amplitude..self.amplitude))
            .collect()
    }
}
