//! Autocorrelation of the compression-error field.
//!
//! The paper reports `ACF(error)` — the lag-1 autocorrelation of the
//! pointwise error `d_i − d'_i` — as a fidelity indicator alongside PSNR and
//! SSIM (Figs 1 and 10): error that is *white* (ACF near zero) distorts
//! downstream analyses less than error that is spatially correlated.

use crate::error_stats::LANES;

/// Sample autocorrelation of `series` at the given `lag`.
///
/// Returns 0 for series shorter than `lag + 2` or with zero variance (a
/// constant error field — including the all-zero error of a lossless
/// reconstruction — has no meaningful autocorrelation).
pub fn autocorrelation(series: &[f64], lag: usize) -> f64 {
    if series.len() < lag + 2 {
        return 0.0;
    }
    let n = series.len();
    let mean = series.iter().sum::<f64>() / n as f64;
    let denom: f64 = series.iter().map(|&v| (v - mean) * (v - mean)).sum();
    if denom == 0.0 {
        return 0.0;
    }
    let numer: f64 = (0..n - lag)
        .map(|i| (series[i] - mean) * (series[i + lag] - mean))
        .sum();
    numer / denom
}

/// [`autocorrelation`] at lag 1 of a series seen once, in index order,
/// without the series: the moments `Σf`, `Σf²` and `Σfᵢfᵢ₊₁` of the values
/// `f = x − c` (each summed in [`LANES`] chains, by the caller's lane),
/// plus the first and last `f`, are all it keeps.  The shift `c` is a value
/// of the series near its mean, so the moments do not cancel: the answer
/// is the two-pass one to rounding, not bit for bit.  A constant series
/// gives exactly 0, as does one shorter than 3; a non-finite value makes it
/// NaN.
#[derive(Debug)]
pub(crate) struct Lag1 {
    shift: f64,
    sum: [f64; LANES],
    squares: [f64; LANES],
    products: [f64; LANES],
    first: f64,
    last: f64,
}

/// How many values [`Lag1::new`] reads to pick the shift.
const SHIFT_SAMPLE: usize = 64;

impl Lag1 {
    /// Ready for the `n` values `value(0)`, `value(1)`, …, which it reads
    /// a few of to pick the shift: the value nearest the mean of up to
    /// [`SHIFT_SAMPLE`] evenly spaced finite ones.  It is one of the values,
    /// so a constant series shifts to exact zeros, and it sits near their
    /// mean, so the moments hardly cancel.
    ///
    /// # Panics
    /// Panics if `n` is 0.
    pub(crate) fn new(n: usize, value: impl Fn(usize) -> f64) -> Self {
        let sample = || {
            (0..n)
                .step_by(n.div_ceil(SHIFT_SAMPLE))
                .map(&value)
                .filter(|v| v.is_finite())
        };
        let (count, sum) = sample().fold((0, 0.0), |(count, sum), v| (count + 1, sum + v));
        let mean = sum / count as f64;
        let shift = sample()
            .min_by(|a, b| (a - mean).abs().total_cmp(&(b - mean).abs()))
            .unwrap_or(0.0);
        Self {
            shift,
            sum: [0.0; LANES],
            squares: [0.0; LANES],
            products: [0.0; LANES],
            first: value(0) - shift,
            last: 0.0,
        }
    }

    /// The next value of the series (the first one included).
    #[inline(always)]
    pub(crate) fn push(&mut self, lane: usize, x: f64) {
        let f = x - self.shift;
        self.sum[lane] += f;
        self.squares[lane] += f * f;
        self.products[lane] += self.last * f;
        self.last = f;
    }

    /// The lag-1 autocorrelation of the `n` values pushed.
    pub(crate) fn value(&self, n: usize) -> f64 {
        if n < 3 {
            return 0.0;
        }
        let merged = |lanes: [f64; LANES]| lanes.iter().sum::<f64>();
        let (sum, squares, products) = (
            merged(self.sum),
            merged(self.squares),
            merged(self.products),
        );
        let mean = sum / n as f64;
        // Σ(fᵢ − m)² and Σ(fᵢ − m)(fᵢ₊₁ − m), expanded: the lagged sum
        // leaves out the last value on one side and the first on the other.
        let denom = squares - mean * sum;
        let numer = products - mean * ((sum - self.first) + (sum - self.last))
            + (n - 1) as f64 * mean * mean;
        // No spread (a rounding below zero included): no autocorrelation.
        if denom <= 0.0 {
            return 0.0;
        }
        numer / denom
    }
}

/// Autocorrelation function for lags `1..=max_lag`.
pub fn acf(series: &[f64], max_lag: usize) -> Vec<f64> {
    (1..=max_lag)
        .map(|lag| autocorrelation(series, lag))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_has_zero_acf() {
        assert_eq!(autocorrelation(&[3.0; 100], 1), 0.0);
        assert_eq!(autocorrelation(&[0.0; 100], 1), 0.0);
    }

    #[test]
    fn short_series_is_zero() {
        assert_eq!(autocorrelation(&[1.0, 2.0], 5), 0.0);
        assert_eq!(autocorrelation(&[], 1), 0.0);
    }

    #[test]
    fn alternating_series_has_negative_lag1() {
        let series: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let r = autocorrelation(&series, 1);
        assert!(r < -0.9, "lag-1 ACF of alternating series was {r}");
    }

    #[test]
    fn smooth_series_has_high_lag1() {
        let series: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin()).collect();
        let r = autocorrelation(&series, 1);
        assert!(r > 0.95, "lag-1 ACF of smooth series was {r}");
    }

    #[test]
    fn white_noise_has_low_acf() {
        // Deterministic pseudo-noise via a simple LCG.
        let mut state = 123456789u64;
        let series: Vec<f64> = (0..10_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect();
        let r = autocorrelation(&series, 1);
        assert!(r.abs() < 0.05, "lag-1 ACF of white noise was {r}");
    }

    #[test]
    fn acf_returns_requested_lags() {
        let series: Vec<f64> = (0..500).map(|i| (i as f64 * 0.1).sin()).collect();
        let values = acf(&series, 5);
        assert_eq!(values.len(), 5);
        assert_eq!(values[0], autocorrelation(&series, 1));
        assert_eq!(values[4], autocorrelation(&series, 5));
    }

    #[test]
    fn lag_zero_equivalent_is_one() {
        let series: Vec<f64> = (0..100).map(|i| i as f64).collect();
        // autocorrelation at lag 0 is not exposed, but lag 1 of a linear ramp
        // should be close to 1.
        assert!(autocorrelation(&series, 1) > 0.95);
    }
}
