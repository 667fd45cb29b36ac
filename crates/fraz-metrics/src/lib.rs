//! Compression-quality metrics used throughout the FRaZ evaluation.
//!
//! The paper reports, per compressed field: compression ratio and bit-rate
//! (Figs 7–9), PSNR / RMSE / maximum error (Figs 1, 9, 10), SSIM over a 2-D
//! slice (Figs 1, 10) and the lag-1 autocorrelation of the pointwise error
//! (Figs 1, 10).  This crate computes all of them from an original dataset, a
//! reconstructed dataset and the compressed byte count.
//!
//! * [`error_stats`] — max error, MSE, RMSE, PSNR.
//! * [`ssim`] — windowed structural similarity on 2-D slices.
//! * [`acf`] — autocorrelation of the error field.
//! * [`ratio`] — compression ratio and bit-rate bookkeeping.
//!
//! [`QualityReport::evaluate`] bundles everything into a single serializable
//! record, which the experiment binaries append to their JSON output.

#![forbid(unsafe_code)]

pub mod acf;
pub mod error_stats;
pub mod ratio;
pub mod ssim;

use serde::{Deserialize, Serialize};

use fraz_data::{DataBuffer, Dataset};

/// All quality metrics for one (original, reconstructed, compressed-size)
/// triple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityReport {
    /// `s(D) / s(D')` — the paper's ρ.
    pub compression_ratio: f64,
    /// Bits per data point after compression.
    pub bit_rate: f64,
    /// `max_i |d_i - d'_i|`.
    pub max_abs_error: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Peak signal-to-noise ratio in dB (normalized by the value range).
    pub psnr: f64,
    /// Mean SSIM over the central 2-D slice.
    pub ssim: f64,
    /// Lag-1 autocorrelation of the pointwise error.
    pub acf_error: f64,
    /// Number of data points.
    pub num_points: usize,
    /// Original size in bytes.
    pub original_bytes: usize,
    /// Compressed size in bytes.
    pub compressed_bytes: usize,
}

impl QualityReport {
    /// Compute every metric for `original` vs `reconstructed` given the
    /// compressed payload size in bytes.
    ///
    /// # Panics
    /// Panics if the two datasets have different lengths.
    pub fn evaluate(original: &Dataset, reconstructed: &Dataset, compressed_bytes: usize) -> Self {
        Self::measure(original, &reconstructed.buffer, compressed_bytes)
    }

    /// [`evaluate`](Self::evaluate) against a reconstruction held as a bare
    /// buffer laid out like `original` — what an encoder that rebuilds the
    /// field as it goes has in hand.
    ///
    /// One pass over the typed buffers and no allocation: it takes the
    /// error statistics and the moments the error's lag-1 autocorrelation
    /// is read from, and SSIM reads the central plane in place.  Every
    /// field but `acf_error` sums in the order the per-metric functions
    /// take it, so it is theirs bit for bit; `acf_error` is
    /// [`acf::autocorrelation`]'s to rounding (the one-pass moments are
    /// summed in another order).
    ///
    /// # Panics
    /// Panics if the two buffers have different lengths.
    pub fn measure(
        original: &Dataset,
        reconstructed: &DataBuffer,
        compressed_bytes: usize,
    ) -> Self {
        assert_eq!(
            original.len(),
            reconstructed.len(),
            "original and reconstructed datasets must have the same length"
        );
        let fidelity = match (&original.buffer, reconstructed) {
            (DataBuffer::F32(a), DataBuffer::F32(b)) => Fidelity::of(original, a, b),
            (DataBuffer::F32(a), DataBuffer::F64(b)) => Fidelity::of(original, a, b),
            (DataBuffer::F64(a), DataBuffer::F32(b)) => Fidelity::of(original, a, b),
            (DataBuffer::F64(a), DataBuffer::F64(b)) => Fidelity::of(original, a, b),
        };
        let original_bytes = original.byte_size();
        Self {
            compression_ratio: ratio::compression_ratio(original_bytes, compressed_bytes),
            bit_rate: ratio::bit_rate(compressed_bytes, original.len()),
            max_abs_error: fidelity.stats.max_abs_error,
            rmse: fidelity.stats.rmse,
            psnr: fidelity.stats.psnr,
            ssim: fidelity.ssim,
            acf_error: fidelity.acf_error,
            num_points: original.len(),
            original_bytes,
            compressed_bytes,
        }
    }
}

/// What a report reads from the two value arrays.
struct Fidelity {
    stats: error_stats::ErrorStats,
    ssim: f64,
    acf_error: f64,
}

impl Fidelity {
    fn of<A, B>(original: &Dataset, a: &[A], b: &[B]) -> Self
    where
        A: Copy + Into<f64>,
        B: Copy + Into<f64>,
    {
        let (stats, acf_error) = error_stats::ErrorStats::with_lag1(a, b);
        let (rows, cols, plane) = original.plane2d(original.dims.as_slice()[0] / 2);
        Self {
            stats,
            ssim: ssim::mean_ssim(&a[plane.clone()], &b[plane], rows, cols),
            acf_error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fraz_data::{Dataset, Dims};

    fn make_pair(n: usize, noise: f64) -> (Dataset, Dataset) {
        let original: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).sin() * 10.0).collect();
        let reconstructed: Vec<f32> = original
            .iter()
            .enumerate()
            .map(|(i, &v)| v + noise as f32 * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        (
            Dataset::from_f32("t", "f", 0, Dims::d1(n), original),
            Dataset::from_f32("t", "f", 0, Dims::d1(n), reconstructed),
        )
    }

    #[test]
    fn perfect_reconstruction_has_infinite_psnr_and_unit_ssim() {
        let (a, _) = make_pair(1000, 0.0);
        let report = QualityReport::evaluate(&a, &a, 500);
        assert_eq!(report.max_abs_error, 0.0);
        assert_eq!(report.rmse, 0.0);
        assert!(report.psnr.is_infinite());
        assert!((report.ssim - 1.0).abs() < 1e-9);
        assert_eq!(report.compression_ratio, 8.0);
        assert_eq!(report.bit_rate, 4.0);
    }

    #[test]
    fn noisier_reconstruction_scores_worse() {
        let (a, b_small) = make_pair(4096, 0.01);
        let (_, b_large) = make_pair(4096, 0.5);
        let small = QualityReport::evaluate(&a, &b_small, 1024);
        let large = QualityReport::evaluate(&a, &b_large, 1024);
        assert!(small.psnr > large.psnr);
        assert!(small.rmse < large.rmse);
        assert!(small.max_abs_error < large.max_abs_error);
        assert!(small.ssim >= large.ssim);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_lengths_panic() {
        let a = Dataset::from_f32("t", "f", 0, Dims::d1(10), vec![0.0; 10]);
        let b = Dataset::from_f32("t", "f", 0, Dims::d1(5), vec![0.0; 5]);
        let _ = QualityReport::evaluate(&a, &b, 1);
    }

    /// The report as it was composed before it was fused: both fields
    /// widened into copies, the statistics loop, two widened planes for
    /// SSIM, and a materialised error series for the autocorrelation, taken
    /// by the compensated oracle.
    fn composed_report(original: &Dataset, reconstructed: &Dataset, bytes: usize) -> QualityReport {
        let a = original.values_f64();
        let b = reconstructed.values_f64();
        let (mut max_abs_error, mut sq_sum) = (0.0f64, 0.0f64);
        let (mut dmin, mut dmax) = (f64::INFINITY, f64::NEG_INFINITY);
        for (&x, &y) in a.iter().zip(b.iter()) {
            let diff = x - y;
            max_abs_error = max_abs_error.max(diff.abs());
            sq_sum += diff * diff;
            dmin = dmin.min(x);
            dmax = dmax.max(x);
        }
        let rmse = (sq_sum / a.len() as f64).sqrt();
        let psnr = error_stats::psnr_from_rmse(dmax - dmin, rmse);
        let plane = |values: &[f64], d: &Dataset| {
            let dims = d.dims.as_slice();
            match dims.len() {
                1 => (1, dims[0], values.to_vec()),
                2 => (dims[0], dims[1], values.to_vec()),
                _ => {
                    let (rows, cols) = (dims[dims.len() - 2], dims[dims.len() - 1]);
                    let nplanes = d.len() / (rows * cols);
                    let start = (dims[0] / 2).min(nplanes.saturating_sub(1)) * rows * cols;
                    (rows, cols, values[start..start + rows * cols].to_vec())
                }
            }
        };
        let (rows, cols, slice_a) = plane(&a, original);
        let (_, _, slice_b) = plane(&b, reconstructed);
        let errors: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x - y).collect();
        let original_bytes = original.byte_size();
        QualityReport {
            compression_ratio: ratio::compression_ratio(original_bytes, bytes),
            bit_rate: ratio::bit_rate(bytes, original.len()),
            max_abs_error,
            rmse,
            psnr,
            ssim: ssim::mean_ssim(&slice_a, &slice_b, rows, cols),
            acf_error: acf_oracle(&errors),
            num_points: original.len(),
            original_bytes,
            compressed_bytes: bytes,
        }
    }

    /// A NaN as NaN, every other value by its bits — signed zeros and
    /// infinities included: Rust leaves which NaN an operation on two NaNs
    /// returns unspecified (LLVM may commute the add), so two code paths
    /// that agree on every number may still disagree on a NaN's sign, and
    /// do in the dev profile.  (One compiled function is deterministic:
    /// `tests/evaluate_contract.rs` compares NaN bits through `measure`.)
    fn bits(x: f64) -> u64 {
        if x.is_nan() { f64::NAN } else { x }.to_bits()
    }

    /// Every field by its bits.
    fn report_bits(r: &QualityReport) -> [u64; 10] {
        [
            bits(r.compression_ratio),
            bits(r.bit_rate),
            bits(r.max_abs_error),
            bits(r.rmse),
            bits(r.psnr),
            bits(r.ssim),
            bits(r.acf_error),
            r.num_points as u64,
            r.original_bytes as u64,
            r.compressed_bytes as u64,
        ]
    }

    /// The nine fields a report sums in the per-metric functions' order,
    /// by their bits: all but `acf_error`.
    fn fields_but_acf(r: &QualityReport) -> [u64; 9] {
        let all = report_bits(r);
        std::array::from_fn(|i| all[if i < 6 { i } else { i + 1 }])
    }

    /// Neumaier's compensated sum.
    fn neumaier(values: impl Iterator<Item = f64>) -> f64 {
        let (mut sum, mut carry) = (0.0f64, 0.0f64);
        for v in values {
            let t = sum + v;
            carry += if sum.abs() >= v.abs() {
                (sum - t) + v
            } else {
                (v - t) + sum
            };
            sum = t;
        }
        sum + carry
    }

    /// The lag-1 autocorrelation of `series` by two compensated passes: the
    /// mean as a sum of two doubles — a compensated mean and the
    /// compensated mean of the deviations from it, so a mean far from zero
    /// is not rounded into every deviation — then Neumaier sums of the
    /// centred products.  0 below 3 values and for a constant series, as
    /// [`acf::autocorrelation`] defines it.
    fn acf_oracle(series: &[f64]) -> f64 {
        let n = series.len();
        if n < 3 || series.iter().all(|&x| x == series[0]) {
            return 0.0;
        }
        let mean = neumaier(series.iter().copied()) / n as f64;
        let rest = neumaier(series.iter().map(|x| x - mean)) / n as f64;
        let centred: Vec<f64> = series.iter().map(|x| (x - mean) - rest).collect();
        let denom = neumaier(centred.iter().map(|d| d * d));
        if denom == 0.0 {
            return 0.0;
        }
        neumaier(centred.windows(2).map(|w| w[0] * w[1])) / denom
    }

    /// How far the one-pass `acf_error` may sit from [`acf_oracle`]: in
    /// ulps of 1 (the ACF lies in [−1, 1]), NaN only where the oracle is.
    /// These tests' series (up to 4 099 values) reach 45; an 80³ field's
    /// reaches about 280 (6e-14), where the two-pass sums sat 88 from the
    /// oracle.
    const ACF_ULPS: f64 = 64.0;

    fn assert_acf_near(fused: f64, oracle: f64, what: &str) {
        if oracle.is_nan() || fused.is_nan() {
            assert!(
                oracle.is_nan() && fused.is_nan(),
                "{what}: {fused} vs {oracle}"
            );
            return;
        }
        let off = (fused - oracle).abs() / f64::EPSILON;
        assert!(off <= ACF_ULPS, "{what}: {fused} vs {oracle}, {off} ulps");
    }

    /// `fused` is `composed` bit for bit on the nine summed fields, and its
    /// `acf_error` is within [`ACF_ULPS`] of the oracle's.
    fn assert_composed(fused: &QualityReport, composed: &QualityReport, what: &str) {
        assert_eq!(
            fields_but_acf(fused),
            fields_but_acf(composed),
            "{what}:\n{fused:?}\n{composed:?}"
        );
        assert_acf_near(fused.acf_error, composed.acf_error, what);
    }

    #[test]
    fn the_fused_report_is_the_composed_one() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-310,
        ];
        let shapes = [
            Dims::d1(1),
            Dims::d1(2),
            Dims::d1(3),
            Dims::d1(257),
            Dims::d2(1, 2),
            Dims::d2(9, 13),
            Dims::d3(1, 1, 2),
            Dims::d3(5, 12, 10),
            Dims::d4(3, 2, 9, 8),
        ];
        let mut cases = 0;
        for dims in shapes {
            // 0: smooth + noise; 1: a constant original; 2: specials sprinkled
            // in; 3: all signed zeros; 4: exact reconstruction.
            for kind in 0..5 {
                let n = dims.len();
                let mut a: Vec<f64> = (0..n)
                    .map(|i| match kind {
                        1 => 2.5,
                        3 if i % 2 == 0 => -0.0,
                        3 => 0.0,
                        _ => (i as f64 * 0.21).sin() * 40.0,
                    })
                    .collect();
                let mut b: Vec<f64> = a
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| match kind {
                        3 if i % 3 == 0 => 0.0,
                        3 => -0.0,
                        4 => v,
                        _ => v + (next() % 2001) as f64 * 1e-3 - 1.0,
                    })
                    .collect();
                if kind == 2 {
                    for _ in 0..n.div_ceil(7) {
                        let at = next() as usize % n;
                        let special = specials[next() as usize % specials.len()];
                        if next() % 2 == 0 {
                            a[at] = special;
                        } else {
                            b[at] = special;
                        }
                    }
                }
                let narrow = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
                let as_f32 = |v: &[f64]| Dataset::from_f32("t", "f", 0, dims.clone(), narrow(v));
                let as_f64 = |v: &[f64]| Dataset::from_f64("t", "f", 0, dims.clone(), v.to_vec());
                for (x, y) in [
                    (as_f32(&a), as_f32(&b)),
                    (as_f32(&a), as_f64(&b)),
                    (as_f64(&a), as_f32(&b)),
                    (as_f64(&a), as_f64(&b)),
                ] {
                    let bytes = 1 + next() as usize % 4096;
                    let fused = QualityReport::evaluate(&x, &y, bytes);
                    let composed = composed_report(&x, &y, bytes);
                    let what = format!("{dims:?} kind {kind} ({:?}, {:?})", x.dtype(), y.dtype());
                    assert_composed(&fused, &composed, &what);
                    assert_eq!(
                        report_bits(&QualityReport::measure(&x, &y.buffer, bytes)),
                        report_bits(&fused)
                    );
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 9 * 5 * 4);
    }

    /// The statistics pass keeps max|e|, the minimum and the maximum in
    /// lanes (index mod 4, the tail included) and merges them after the
    /// loop: whichever lane, and whichever position in it, holds an extreme
    /// — or a NaN, a signed zero or an infinity beside it — the report is
    /// the serial chain's, bit for bit (its ACF, the oracle's to
    /// [`ACF_ULPS`]).
    #[test]
    fn the_laned_pass_keeps_every_extreme() {
        type Place = fn(&mut [f64], &mut [f64], usize);
        let places: [(&str, Place); 14] = [
            ("max |e|", |_, b, i| b[i] += 50.0),
            ("min", |a, b, i| (a[i], b[i]) = (-60.0, -60.001)),
            ("max", |a, b, i| (a[i], b[i]) = (70.0, 70.002)),
            ("NaN original", |a, _, i| a[i] = f64::NAN),
            ("NaN reconstruction", |_, b, i| b[i] = f64::NAN),
            ("+0 both", |a, b, i| (a[i], b[i]) = (0.0, 0.0)),
            ("-0 both", |a, b, i| (a[i], b[i]) = (-0.0, -0.0)),
            ("+0 original", |a, _, i| a[i] = 0.0),
            ("-0 original", |a, _, i| a[i] = -0.0),
            ("-0 reconstruction", |_, b, i| b[i] = -0.0),
            ("+inf original", |a, _, i| a[i] = f64::INFINITY),
            ("-inf original", |a, _, i| a[i] = f64::NEG_INFINITY),
            ("+inf reconstruction", |_, b, i| b[i] = f64::INFINITY),
            ("-inf reconstruction", |_, b, i| b[i] = f64::NEG_INFINITY),
        ];
        let mut cases = 0;
        for n in 1..=13 {
            // Values of one sign, so a placed zero is the minimum of a
            // positive field and the maximum of a negative one.
            for sign in [1.0, -1.0] {
                let a: Vec<f64> = (0..n)
                    .map(|i| sign * (2.0 + (i as f64 * 0.7).sin()))
                    .collect();
                let b: Vec<f64> = a
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| v + (i as f64 * 1.3).cos() * 1e-3)
                    .collect();
                for (what, place) in places {
                    for at in 0..n {
                        let (mut a, mut b) = (a.clone(), b.clone());
                        place(&mut a, &mut b, at);
                        let narrow = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
                        let dims = Dims::d1(n);
                        let as_f32 =
                            |v: &[f64]| Dataset::from_f32("t", "f", 0, dims.clone(), narrow(v));
                        let as_f64 =
                            |v: &[f64]| Dataset::from_f64("t", "f", 0, dims.clone(), v.to_vec());
                        for (x, y) in [
                            (as_f32(&a), as_f32(&b)),
                            (as_f32(&a), as_f64(&b)),
                            (as_f64(&a), as_f32(&b)),
                            (as_f64(&a), as_f64(&b)),
                        ] {
                            assert_composed(
                                &QualityReport::measure(&x, &y.buffer, 64),
                                &composed_report(&x, &y, 64),
                                &format!(
                                    "n {n}, sign {sign}, {what} at {at} ({:?}, {:?})",
                                    x.dtype(),
                                    y.dtype()
                                ),
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 91 * 2 * 14 * 4);
    }

    /// The error's lag-1 ACF comes from moments the statistics pass
    /// carries (`acf::Lag1`); it is held to the compensated two-pass oracle
    /// on white, correlated and alternating errors, on errors a million
    /// away from zero (where unshifted moments would cancel to noise), at
    /// every length below the definition's floor and just above it, with
    /// NaN and infinities, for every dtype pairing.  A constant error is
    /// exactly 0.
    #[test]
    fn the_folded_acf_is_the_compensated_two_pass_one() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut noise = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        // (what, original, reconstruction)
        let mut cases: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
        for n in [1usize, 2, 3, 4, 5, 13, 257, 4099] {
            let wave: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 50.0).collect();
            let off_by = |errors: Vec<f64>| -> Vec<f64> {
                wave.iter().zip(&errors).map(|(a, e)| a - e).collect()
            };
            let white: Vec<f64> = (0..n).map(|_| noise()).collect();
            let mut level = 0.0;
            let red: Vec<f64> = (0..n)
                .map(|_| {
                    level = 0.9 * level + noise();
                    level
                })
                .collect();
            let alternating: Vec<f64> = (0..n)
                .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 } * (1.0 + 0.1 * noise()))
                .collect();
            let shifted = |errors: &[f64]| errors.iter().map(|e| 1e6 + 1e-3 * e).collect();
            cases.push((format!("white, n {n}"), wave.clone(), off_by(white.clone())));
            cases.push((format!("red, n {n}"), wave.clone(), off_by(red.clone())));
            cases.push((
                format!("alternating, n {n}"),
                wave.clone(),
                off_by(alternating),
            ));
            cases.push((
                format!("1e6 + white, n {n}"),
                wave.clone(),
                off_by(shifted(&white)),
            ));
            cases.push((
                format!("1e6 + red, n {n}"),
                wave.clone(),
                off_by(shifted(&red)),
            ));
            // Integers, so every pairing reads the same constant error.
            let ramp: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for constant in [0.0, 3.0, -7.0, 1e6] {
                let below = ramp.iter().map(|a| a - constant).collect();
                cases.push((format!("constant {constant}, n {n}"), ramp.clone(), below));
            }
            for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for at in [0, n / 2, n - 1] {
                    let mut b = off_by(white.clone());
                    b[at] = special;
                    cases.push((format!("{special} at {at}, n {n}"), wave.clone(), b));
                }
            }
            if n >= 2 {
                let mut b = off_by(white.clone());
                (b[0], b[n - 1]) = (f64::INFINITY, f64::NEG_INFINITY);
                cases.push((format!("±inf, n {n}"), wave.clone(), b));
            }
        }
        let mut checked = 0;
        for (what, a, b) in &cases {
            let n = a.len();
            let narrow = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
            let as_f32 = |v: &[f64]| Dataset::from_f32("t", "f", 0, Dims::d1(n), narrow(v));
            let as_f64 = |v: &[f64]| Dataset::from_f64("t", "f", 0, Dims::d1(n), v.to_vec());
            for (x, y) in [
                (as_f32(a), as_f32(b)),
                (as_f32(a), as_f64(b)),
                (as_f64(a), as_f32(b)),
                (as_f64(a), as_f64(b)),
            ] {
                let what = format!("{what} ({:?}, {:?})", x.dtype(), y.dtype());
                let errors: Vec<f64> = x
                    .values_f64()
                    .iter()
                    .zip(y.values_f64())
                    .map(|(a, b)| a - b)
                    .collect();
                let fused = QualityReport::measure(&x, &y.buffer, 64).acf_error;
                let constant = errors.iter().all(|e| e.is_finite() && *e == errors[0]);
                if n < 3 || constant {
                    assert_eq!(fused.to_bits(), 0f64.to_bits(), "{what}");
                }
                assert_acf_near(fused, acf_oracle(&errors), &what);
                checked += 1;
            }
        }
        assert_eq!(checked, cases.len() * 4);
    }

    #[test]
    fn report_fields_are_consistent() {
        let (a, b) = make_pair(2048, 0.1);
        let report = QualityReport::evaluate(&a, &b, 2048);
        assert_eq!(report.num_points, 2048);
        assert_eq!(report.original_bytes, 2048 * 4);
        assert_eq!(report.compressed_bytes, 2048);
        assert!((report.compression_ratio - 4.0).abs() < 1e-12);
        assert!((report.bit_rate - 8.0).abs() < 1e-12);
        assert!(report.max_abs_error >= report.rmse);
    }
}
