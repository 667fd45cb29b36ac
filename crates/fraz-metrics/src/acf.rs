//! Autocorrelation of the compression-error field.
//!
//! The paper reports `ACF(error)` — the lag-1 autocorrelation of the
//! pointwise error `d_i − d'_i` — as a fidelity indicator alongside PSNR and
//! SSIM (Figs 1 and 10): error that is *white* (ACF near zero) distorts
//! downstream analyses less than error that is spatially correlated.

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

/// [`autocorrelation`] at lag 1 of the series `a_i − b_i`, without the
/// series: one pass over the two arrays, given the series' sum (from `-0.0`,
/// in index order — `Iterator::sum`'s).  Both sums are taken in the order
/// [`autocorrelation`] takes them, so the answer is its answer bit for bit.
pub(crate) fn lag1_of_difference<A, B>(a: &[A], b: &[B], sum: f64) -> f64
where
    A: Copy + Into<f64>,
    B: Copy + Into<f64>,
{
    let n = a.len();
    if n < 3 {
        return 0.0;
    }
    let mean = sum / n as f64;
    let centred = |i: usize| (a[i].into() - b[i].into()) - mean;
    let mut prev = centred(0);
    let mut denom = -0.0 + prev * prev;
    let mut numer = -0.0;
    for (&x, &y) in a[1..].iter().zip(&b[1..]) {
        let d = (x.into() - y.into()) - mean;
        denom += d * d;
        numer += prev * d;
        prev = d;
    }
    if denom == 0.0 {
        return 0.0;
    }
    numer / denom
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
