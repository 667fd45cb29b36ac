//! Pointwise error statistics: max error, MSE, RMSE and PSNR.

/// Error statistics between an original and a reconstructed field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// `max_i |d_i - d'_i|` — the quantity bounded by an absolute error
    /// bound.
    pub max_abs_error: f64,
    /// Mean squared error.
    pub mse: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Peak signal-to-noise ratio in dB, using the *value range* of the
    /// original data as the peak (the convention used by SDRBench, SZ and the
    /// FRaZ paper: `PSNR = 20·log10((dmax − dmin)/rmse)`).
    pub psnr: f64,
    /// Value range `dmax - dmin` of the original data.
    pub value_range: f64,
}

impl ErrorStats {
    /// Compute the statistics.  Empty inputs yield zeros (and infinite PSNR).
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn compute(original: &[f64], reconstructed: &[f64]) -> Self {
        Self::with_error_sum(original, reconstructed).0
    }

    /// [`compute`](Self::compute) over typed slices (widening is exact, so
    /// an `f32` array gives what its `f64` copy would), together with the
    /// sum of the errors `d_i − d'_i` — from `-0.0`, in index order, as
    /// `Iterator::sum` takes it — which is what the error's mean needs.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub(crate) fn with_error_sum<A, B>(original: &[A], reconstructed: &[B]) -> (Self, f64)
    where
        A: Copy + Into<f64>,
        B: Copy + Into<f64>,
    {
        assert_eq!(original.len(), reconstructed.len());
        if original.is_empty() {
            let empty = Self {
                max_abs_error: 0.0,
                mse: 0.0,
                rmse: 0.0,
                psnr: f64::INFINITY,
                value_range: 0.0,
            };
            return (empty, -0.0);
        }
        // The two sums are one chain each, in index order.  The extremes
        // are not sums: max|e|, min and max each run in `LANES` independent
        // chains, merged after the loop, so the NaN-aware comparisons do not
        // pace the additions.  A maximum or minimum is the same value taken
        // in any order — NaNs are skipped, and |e| is never −0 — save for
        // the sign of a zero minimum or maximum: `value_range` is then the
        // same number, and the PSNR the same bits.
        const LANES: usize = 4;
        let mut max_abs_error = [0.0f64; LANES];
        let mut dmin = [f64::INFINITY; LANES];
        let mut dmax = [f64::NEG_INFINITY; LANES];
        let mut sq_sum = 0.0f64;
        let mut error_sum = -0.0f64;
        let mut visit = |lane: usize, a: A, b: B| {
            let (a, b): (f64, f64) = (a.into(), b.into());
            let diff = a - b;
            max_abs_error[lane] = max_abs_error[lane].max(diff.abs());
            sq_sum += diff * diff;
            error_sum += diff;
            dmin[lane] = dmin[lane].min(a);
            dmax[lane] = dmax[lane].max(a);
        };
        let (whole, tail) = original.split_at(original.len() / LANES * LANES);
        for (a, b) in whole
            .chunks_exact(LANES)
            .zip(reconstructed.chunks_exact(LANES))
        {
            for lane in 0..LANES {
                visit(lane, a[lane], b[lane]);
            }
        }
        for (lane, (&a, &b)) in tail.iter().zip(&reconstructed[whole.len()..]).enumerate() {
            visit(lane, a, b);
        }
        let max_abs_error = max_abs_error.into_iter().fold(0.0, f64::max);
        let dmin = dmin.into_iter().fold(f64::INFINITY, f64::min);
        let dmax = dmax.into_iter().fold(f64::NEG_INFINITY, f64::max);
        let mse = sq_sum / original.len() as f64;
        let rmse = mse.sqrt();
        let value_range = dmax - dmin;
        let psnr = psnr_from_rmse(value_range, rmse);
        let stats = Self {
            max_abs_error,
            mse,
            rmse,
            psnr,
            value_range,
        };
        (stats, error_sum)
    }
}

/// `PSNR = 20·log10(range / rmse)`; infinite when the reconstruction is
/// exact, 0 when the original field is constant and the error is not.
pub fn psnr_from_rmse(value_range: f64, rmse: f64) -> f64 {
    if rmse == 0.0 {
        f64::INFINITY
    } else if value_range <= 0.0 {
        0.0
    } else {
        20.0 * (value_range / rmse).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_error() {
        let a = vec![1.0, 2.0, 3.0];
        let s = ErrorStats::compute(&a, &a);
        assert_eq!(s.max_abs_error, 0.0);
        assert_eq!(s.rmse, 0.0);
        assert!(s.psnr.is_infinite());
        assert_eq!(s.value_range, 2.0);
    }

    #[test]
    fn known_values() {
        let a = vec![0.0, 0.0, 0.0, 0.0];
        let b = vec![1.0, -1.0, 1.0, -1.0];
        let s = ErrorStats::compute(&a, &b);
        assert_eq!(s.max_abs_error, 1.0);
        assert_eq!(s.mse, 1.0);
        assert_eq!(s.rmse, 1.0);
        // Constant original: range 0 -> PSNR defined as 0.
        assert_eq!(s.psnr, 0.0);
    }

    #[test]
    fn psnr_formula() {
        // range 100, rmse 1 -> 40 dB.
        assert!((psnr_from_rmse(100.0, 1.0) - 40.0).abs() < 1e-12);
        // range 100, rmse 0.01 -> 80 dB.
        assert!((psnr_from_rmse(100.0, 0.01) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn psnr_decreases_with_error() {
        let a: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin()).collect();
        let small: Vec<f64> = a.iter().map(|v| v + 1e-4).collect();
        let large: Vec<f64> = a.iter().map(|v| v + 1e-2).collect();
        assert!(ErrorStats::compute(&a, &small).psnr > ErrorStats::compute(&a, &large).psnr + 30.0);
    }

    #[test]
    fn empty_input() {
        let s = ErrorStats::compute(&[], &[]);
        assert_eq!(s.max_abs_error, 0.0);
        assert!(s.psnr.is_infinite());
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let _ = ErrorStats::compute(&[1.0], &[1.0, 2.0]);
    }
}
