//! The benchmark's own seed-deterministic field generator.
//!
//! Deliberately independent of `fraz-scenarios` and `fraz-data::synthetic`:
//! folding or rewriting those generators later must not change the load
//! this benchmark puts on the product.  The product only ever sees the
//! generated values, never the seed.
//!
//! Every field is a sum of *separable* modes,
//! `v[i][j][k] = Σ_m a_m · X_m[i] · Y_m[j] · Z_m[k]`, so generation costs
//! three multiplies per mode per point and no trigonometry in the inner
//! loop — set-up time stays small next to the measured work.  The seed
//! picks phases, front positions and the noise sample; wavenumbers and
//! amplitudes are fixed, so two seeds give different inputs with the same
//! spectrum and therefore nearly the same compressibility.

use std::f64::consts::TAU;

/// splitmix64: small, fast, and good enough to decorrelate streams.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair, so a field's values
    /// do not depend on how many other fields were generated before it.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// The four field families of the search workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A handful of modes with at most 1.5 cycles across the box.
    Smooth,
    /// 40 modes, wavenumbers 2..=16 cycles, amplitude `|k|^(-5/3)`.
    Turbulent,
    /// A quiet smooth base plus four alternating step fronts.
    Shock,
    /// `Smooth` plus uniform noise of 1 % of the amplitude.
    SmoothNoise,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Smooth,
        Kind::Turbulent,
        Kind::Shock,
        Kind::SmoothNoise,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Smooth => "smooth",
            Kind::Turbulent => "turbulent",
            Kind::Shock => "shock",
            Kind::SmoothNoise => "smooth-noise",
        }
    }
}

/// Wavenumbers (cycles across the box, per axis) of the smooth modes.
const SMOOTH_K: [[f64; 3]; 6] = [
    [0.5, 1.0, 0.75],
    [1.0, 0.5, 1.25],
    [1.5, 0.75, 0.5],
    [0.75, 1.5, 1.0],
    [1.25, 1.25, 1.5],
    [0.5, 0.5, 0.5],
];

/// `amplitude · sin(τ·k·x/n + phase)` sampled on one axis.
fn axis_table(n: usize, k: f64, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| (TAU * k * i as f64 / n as f64 + phase).sin())
        .collect()
}

/// Add one separable mode to `out` (shape `dims`, slowest axis first).
fn add_mode(out: &mut [f64], dims: [usize; 3], amplitude: f64, k: [f64; 3], phase: [f64; 3]) {
    let x = axis_table(dims[0], k[0], phase[0]);
    let y = axis_table(dims[1], k[1], phase[1]);
    let z = axis_table(dims[2], k[2], phase[2]);
    let mut rows = out.chunks_exact_mut(dims[2]);
    for xi in &x {
        for yj in &y {
            let w = amplitude * xi * yj;
            let row = rows.next().expect("dims cover the buffer");
            for (v, zk) in row.iter_mut().zip(&z) {
                *v += w * zk;
            }
        }
    }
}

/// The turbulent wavenumber table: a fixed low-discrepancy walk over
/// 2..=16 cycles per axis, so the spectrum is the same for every seed.
fn turbulent_k(mode: usize) -> [f64; 3] {
    let pick = |salt: usize| 2.0 + ((mode * 7 + salt * 5 + mode * mode * salt) % 15) as f64;
    [pick(1), pick(2), pick(3)]
}

/// One 3-D field.  `drift` advances every phase (radians), which is how a
/// time series of slowly changing steps is made from one `(seed, stream)`.
pub fn field3d(kind: Kind, dims: [usize; 3], seed: u64, stream: u64, drift: f64) -> Vec<f32> {
    let mut rng = Rng::new(seed, stream);
    let mut out = vec![0.0f64; dims[0] * dims[1] * dims[2]];
    let phases = |rng: &mut Rng| [0, 1, 2].map(|_| rng.unit() * TAU + drift);
    match kind {
        Kind::Smooth | Kind::SmoothNoise | Kind::Shock => {
            let base = if kind == Kind::Shock { 0.05 } else { 1.0 };
            for (m, k) in SMOOTH_K.iter().enumerate() {
                let p = phases(&mut rng);
                add_mode(&mut out, dims, base / (1.0 + m as f64 * 0.5), *k, p);
            }
        }
        Kind::Turbulent => {
            for m in 0..40 {
                let k = turbulent_k(m);
                let norm = (k[0] * k[0] + k[1] * k[1] + k[2] * k[2]).sqrt();
                let p = phases(&mut rng);
                add_mode(&mut out, dims, (norm / 3.5).powf(-5.0 / 3.0), k, p);
            }
        }
    }
    match kind {
        Kind::Shock => {
            // Four tilted planar fronts, one per quarter of the diagonal
            // coordinate, each a unit step of alternating sign.
            let fronts: Vec<f64> = (0..4)
                .map(|f| (f as f64 + 0.2 + 0.6 * rng.unit()) / 4.0 + drift * 0.02)
                .collect();
            let mut idx = 0;
            for i in 0..dims[0] {
                for j in 0..dims[1] {
                    let u = (i as f64 / dims[0] as f64 + 0.3 * j as f64 / dims[1] as f64) / 1.3;
                    for k in 0..dims[2] {
                        let w = u + 0.05 * k as f64 / dims[2] as f64;
                        for (f, &pos) in fronts.iter().enumerate() {
                            if w > pos {
                                out[idx] += if f % 2 == 0 { 1.0 } else { -1.0 };
                            }
                        }
                        idx += 1;
                    }
                }
            }
        }
        Kind::SmoothNoise => {
            for v in out.iter_mut() {
                *v += 0.01 * (rng.unit() * 2.0 - 1.0);
            }
        }
        Kind::Smooth | Kind::Turbulent => {}
    }
    out.into_iter().map(|v| v as f32).collect()
}

/// One `n × n` job field for the service workload: five smooth 2-D modes
/// plus a weak ripple.  Each `(seed, stream)` gives different phases, so
/// the tune cache's content fingerprint sees every stream as new data.
pub fn field2d(n: usize, seed: u64, stream: u64) -> Vec<f32> {
    let mut rng = Rng::new(seed, stream);
    let mut out = vec![0.0f64; n * n];
    for m in 0..6 {
        let (kx, ky, a) = if m < 5 {
            (
                0.5 + 0.4 * m as f64,
                1.6 - 0.25 * m as f64,
                1.0 / (1.0 + m as f64),
            )
        } else {
            (9.0, 7.0, 0.02)
        };
        let x = axis_table(n, kx, rng.unit() * TAU);
        let y = axis_table(n, ky, rng.unit() * TAU);
        for (row, xi) in out.chunks_exact_mut(n).zip(&x) {
            for (v, yj) in row.iter_mut().zip(&y) {
                *v += a * xi * yj;
            }
        }
    }
    out.into_iter().map(|v| v as f32).collect()
}

/// `(min, max)` of a field, with the benchmark's own arithmetic.
pub fn value_range(values: &[f32]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v as f64), hi.max(v as f64))
        })
}

/// The benchmark's own 8-bit uniform quantisation codes of a field: what
/// an error-bounded codec hands its lossless stage, without asking one.
pub fn quantisation_codes(values: &[f32]) -> Vec<u8> {
    let (lo, hi) = value_range(values);
    let scale = if hi > lo { 255.0 / (hi - lo) } else { 0.0 };
    let mut prev = 0u8;
    values
        .iter()
        .map(|&v| {
            // First-order prediction residual of the code, as SZ-style
            // pipelines emit: mostly near zero on smooth data.
            let code = ((v as f64 - lo) * scale).round() as u8;
            let residual = code.wrapping_sub(prev);
            prev = code;
            residual
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_field_other_seed_other_field() {
        for kind in Kind::ALL {
            let a = field3d(kind, [8, 8, 8], 7, 3, 0.0);
            let b = field3d(kind, [8, 8, 8], 7, 3, 0.0);
            let c = field3d(kind, [8, 8, 8], 8, 3, 0.0);
            assert_eq!(a, b, "{}", kind.name());
            assert_ne!(a, c, "{}", kind.name());
            assert!(a.iter().all(|v| v.is_finite()));
        }
        assert_ne!(field2d(16, 1, 0), field2d(16, 1, 1));
    }

    #[test]
    fn drift_changes_a_step_only_slightly() {
        let a = field3d(Kind::Smooth, [8, 8, 8], 1, 0, 0.0);
        let b = field3d(Kind::Smooth, [8, 8, 8], 1, 0, 0.02);
        let worst = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max);
        assert!(worst > 0.0 && worst < 0.2, "{worst}");
    }
}
