//! Structural similarity (SSIM) over 2-D slices.
//!
//! The paper uses SSIM (Wang et al., 2004) to compare visual quality of
//! decompressed slices (Figs 1 and 10).  This implementation follows the
//! standard formulation: the image is scanned with a sliding 8×8 window at
//! stride 4 (fixed: every caller is a quality report), the
//! luminance/contrast/structure statistics are computed per window, and the
//! mean over all windows is reported.  Scientific data is not 8-bit imagery,
//! so the dynamic range `L` is taken from the original slice's value range.

/// Window side length (the classic choice; windows are square).
const WINDOW: usize = 8;
/// Window stride: a quarter of the dense definition's windows, which is what
/// keeps SSIM affordable inside a quality search.
const STRIDE: usize = 4;
/// Stabilization constant scales (C1 = (K1·L)², C2 = (K2·L)²).
const K1: f64 = 0.01;
const K2: f64 = 0.03;

/// Mean SSIM between two 2-D slices stored row-major as `rows` x `cols`,
/// read in place at either precision (widening to `f64` is exact).
///
/// Identical slices return exactly 1.0.  Degenerate inputs (empty, smaller
/// than one window) fall back to a single window covering the whole slice.
///
/// # Panics
/// Panics if the slice lengths do not match `rows * cols`.
pub fn mean_ssim<A, B>(a: &[A], b: &[B], rows: usize, cols: usize) -> f64
where
    A: Copy + Into<f64>,
    B: Copy + Into<f64>,
{
    assert_eq!(a.len(), rows * cols, "slice A shape mismatch");
    assert_eq!(b.len(), rows * cols, "slice B shape mismatch");
    if a.is_empty() {
        return 1.0;
    }

    // Dynamic range from the original slice.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in a {
        let v: f64 = v.into();
        lo = lo.min(v);
        hi = hi.max(v);
    }
    // A constant slice has zero range; fall back to its magnitude (or 1) so
    // the stabilization constants stay non-zero and identical inputs still
    // score exactly 1.
    let mut range = hi - lo;
    if range <= 0.0 {
        range = hi.abs().max(1.0);
    }
    let c1 = (K1 * range).powi(2);
    let c2 = (K2 * range).powi(2);

    let window_r = WINDOW.min(rows).max(1);
    let window_c = WINDOW.min(cols).max(1);

    let mut total = 0.0;
    let mut count = 0usize;
    let mut r = 0;
    loop {
        let r0 = r.min(rows.saturating_sub(window_r));
        let mut c = 0;
        loop {
            let c0 = c.min(cols.saturating_sub(window_c));
            total += window_ssim(a, b, cols, r0, c0, window_r, window_c, c1, c2);
            count += 1;
            if c0 + window_c >= cols {
                break;
            }
            c += STRIDE;
        }
        if r0 + window_r >= rows {
            break;
        }
        r += STRIDE;
    }
    total / count as f64
}

#[allow(clippy::too_many_arguments)]
fn window_ssim<A: Copy + Into<f64>, B: Copy + Into<f64>>(
    a: &[A],
    b: &[B],
    cols: usize,
    r0: usize,
    c0: usize,
    window_r: usize,
    window_c: usize,
    c1: f64,
    c2: f64,
) -> f64 {
    let n = (window_r * window_c) as f64;
    let mut mean_a = 0.0;
    let mut mean_b = 0.0;
    for r in r0..r0 + window_r {
        for c in c0..c0 + window_c {
            let (va, vb): (f64, f64) = (a[r * cols + c].into(), b[r * cols + c].into());
            mean_a += va;
            mean_b += vb;
        }
    }
    mean_a /= n;
    mean_b /= n;

    let mut var_a = 0.0;
    let mut var_b = 0.0;
    let mut cov = 0.0;
    for r in r0..r0 + window_r {
        for c in c0..c0 + window_c {
            let (va, vb): (f64, f64) = (a[r * cols + c].into(), b[r * cols + c].into());
            let da = va - mean_a;
            let db = vb - mean_b;
            var_a += da * da;
            var_b += db * db;
            cov += da * db;
        }
    }
    var_a /= n;
    var_b /= n;
    cov /= n;

    ((2.0 * mean_a * mean_b + c1) * (2.0 * cov + c2))
        / ((mean_a * mean_a + mean_b * mean_b + c1) * (var_a + var_b + c2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize) -> Vec<f64> {
        (0..rows * cols)
            .map(|i| (i % cols) as f64 + (i / cols) as f64 * 0.5)
            .collect()
    }

    #[test]
    fn identical_slices_score_one() {
        let a = ramp(32, 32);
        let s = mean_ssim(&a, &a, 32, 32);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_perturbation_scores_near_one() {
        let a = ramp(32, 32);
        let b: Vec<f64> = a.iter().map(|v| v + 1e-6).collect();
        let s = mean_ssim(&a, &b, 32, 32);
        assert!(s > 0.999);
    }

    #[test]
    fn heavy_noise_scores_lower_than_light_noise() {
        let a = ramp(64, 64);
        let light: Vec<f64> = a
            .iter()
            .enumerate()
            .map(|(i, v)| v + 0.05 * ((i * 31 % 7) as f64 - 3.0))
            .collect();
        let heavy: Vec<f64> = a
            .iter()
            .enumerate()
            .map(|(i, v)| v + 5.0 * ((i * 31 % 7) as f64 - 3.0))
            .collect();
        let s_light = mean_ssim(&a, &light, 64, 64);
        let s_heavy = mean_ssim(&a, &heavy, 64, 64);
        assert!(s_light > s_heavy);
        assert!(s_heavy < 0.9);
    }

    #[test]
    fn structural_destruction_scores_low() {
        let a = ramp(32, 32);
        let mut b = a.clone();
        b.reverse();
        let s = mean_ssim(&a, &b, 32, 32);
        assert!(s < 0.5, "reversed slice scored {s}");
    }

    #[test]
    fn small_slices_are_handled() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let s = mean_ssim(&a, &a, 2, 2);
        assert!((s - 1.0).abs() < 1e-12);
        let one = vec![5.0];
        assert!((mean_ssim(&one, &one, 1, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slice_scores_one() {
        assert_eq!(mean_ssim::<f64, f64>(&[], &[], 0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = mean_ssim(&[1.0f64, 2.0], &[1.0f64, 2.0], 3, 3);
    }
}
