//! Error-bound range splitting (paper Fig. 5).
//!
//! The parallel orchestrator divides the `[lower, upper]` error-bound range
//! into `k` slightly overlapping regions and searches them concurrently.  The
//! overlap (a fixed 10 % of the region width) avoids the pathological case
//! where the target bound coincides with a region border and the owning rank
//! lacks interior points for quadratic refinement.  Regions are equal-width
//! on the `log10(bound)` axis — error bounds span many decades — where the
//! paper lays them out on the raw bound axis.

use serde::{Deserialize, Serialize};

/// Fractional overlap between adjacent regions (the paper's 10 %).
const REGION_OVERLAP: f64 = 0.1;

/// Position of `bound` on the search axis, `log10(bound)`.
pub(crate) fn to_axis(bound: f64) -> f64 {
    bound.log10()
}

/// The bound at axis position `x`.
pub(crate) fn from_axis(x: f64) -> f64 {
    10f64.powf(x)
}

/// One search region `[lower, upper]` of the error-bound axis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Region lower bound.
    pub lower: f64,
    /// Region upper bound.
    pub upper: f64,
}

impl Region {
    /// Width of the region.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// True if the value lies inside the region.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lower && x <= self.upper
    }
}

/// Split `[lower, upper]` (`lower > 0`) into `k` regions of equal width on
/// the log axis, each widened by 10 % of that width.  The first
/// and last regions are clamped to the overall range, so the union is
/// `[lower, upper]`.
pub fn make_error_bounds(lower: f64, upper: f64, k: usize) -> Vec<Region> {
    assert!(
        lower.is_finite() && upper.is_finite() && lower < upper,
        "invalid bound range [{lower}, {upper}]"
    );
    assert!(k >= 1, "at least one region is required");
    assert!(lower > 0.0, "regions require a positive lower bound");
    let (lo, hi) = (to_axis(lower), to_axis(upper));
    let width = (hi - lo) / k as f64;
    let pad = width * REGION_OVERLAP;
    let mut regions = Vec::with_capacity(k);
    for i in 0..k {
        let a = (lo + i as f64 * width - pad).max(lo);
        let b = (lo + (i + 1) as f64 * width + pad).min(hi);
        let (mut a, mut b) = (from_axis(a), from_axis(b));
        // Guard against floating-point drift producing inverted or outside
        // ranges after the inverse transform.
        a = a.max(lower);
        b = b.min(upper);
        if b <= a {
            b = (a + (upper - lower) * 1e-12).min(upper);
        }
        regions.push(Region { lower: a, upper: b });
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_cover_range_and_overlap() {
        let regions = make_error_bounds(1e-6, 1.2, 12);
        assert_eq!(regions.len(), 12);
        assert_eq!(regions[0].lower, 1e-6);
        assert_eq!(regions.last().unwrap().upper, 1.2);
        // Interior neighbours overlap.
        for w in regions.windows(2) {
            assert!(w[0].upper > w[1].lower, "{w:?}");
        }
        // End regions are slightly smaller on the axis (clamped), as Fig. 5
        // notes.
        let decades = |r: &Region| to_axis(r.upper) - to_axis(r.lower);
        assert!(decades(&regions[0]) < decades(&regions[1]));
        // Every point of the range is inside at least one region.
        for i in 0..=100 {
            let x = (1e-6 * 1.2e6f64.powf(i as f64 / 100.0)).clamp(1e-6, 1.2);
            assert!(regions.iter().any(|r| r.contains(x)), "{x}");
        }
    }

    #[test]
    fn regions_cover_decades() {
        let regions = make_error_bounds(1e-9, 1.0, 9);
        assert_eq!(regions.len(), 9);
        assert!((regions[0].lower - 1e-9).abs() < 1e-18);
        assert!((regions.last().unwrap().upper - 1.0).abs() < 1e-12);
        // Each region spans roughly one decade.
        for r in &regions {
            let decades = (r.upper / r.lower).log10();
            assert!(decades > 0.9 && decades < 1.5, "{decades}");
        }
        for exp in -9..=0 {
            let x = 10f64.powi(exp);
            assert!(regions.iter().any(|r| r.contains(x)), "1e{exp}");
        }
    }

    #[test]
    fn single_region_is_the_whole_range() {
        let regions = make_error_bounds(0.5, 2.0, 1);
        assert_eq!(regions.len(), 1);
        assert_eq!(
            regions[0],
            Region {
                lower: 0.5,
                upper: 2.0
            }
        );
    }

    #[test]
    #[should_panic(expected = "invalid bound range")]
    fn inverted_range_panics() {
        let _ = make_error_bounds(1.0, 0.5, 4);
    }

    #[test]
    #[should_panic(expected = "positive lower bound")]
    fn zero_lower_bound_panics() {
        let _ = make_error_bounds(0.0, 1.0, 4);
    }
}
