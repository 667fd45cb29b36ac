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

use fraz_data::Dataset;

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
        assert_eq!(
            original.len(),
            reconstructed.len(),
            "original and reconstructed datasets must have the same length"
        );
        let a = original.values_f64();
        let b = reconstructed.values_f64();
        let stats = error_stats::ErrorStats::compute(&a, &b);
        let original_bytes = original.byte_size();
        let (rows, cols, slice_a) = original.slice2d(original.dims.as_slice()[0] / 2);
        let (_, _, slice_b) = reconstructed.slice2d(original.dims.as_slice()[0] / 2);
        let ssim = ssim::mean_ssim(&slice_a, &slice_b, rows, cols);
        let errors: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x - y).collect();
        Self {
            compression_ratio: ratio::compression_ratio(original_bytes, compressed_bytes),
            bit_rate: ratio::bit_rate(compressed_bytes, original.len()),
            max_abs_error: stats.max_abs_error,
            rmse: stats.rmse,
            psnr: stats.psnr,
            ssim,
            acf_error: acf::autocorrelation(&errors, 1),
            num_points: original.len(),
            original_bytes,
            compressed_bytes,
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
