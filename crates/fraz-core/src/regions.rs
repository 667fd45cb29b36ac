//! Error-bound range splitting (paper Fig. 5).
//!
//! The parallel orchestrator divides the `[lower, upper]` error-bound range
//! into `k` slightly overlapping regions and searches them concurrently.  The
//! overlap (a small fixed percentage of the region width, 10 % by default)
//! avoids the pathological case where the target bound coincides with a
//! region border and the owning rank lacks interior points for quadratic
//! refinement.  Regions can be laid out on a linear or a logarithmic axis;
//! the logarithmic layout is an implementation refinement (error bounds span
//! many decades) and is ablated in the benchmark suite.

use serde::{Deserialize, Serialize};

/// How the error-bound axis is partitioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BoundScale {
    /// Equal-width regions on the raw bound axis (the paper's layout).
    Linear,
    /// Equal-width regions on the log10(bound) axis; better suited to bounds
    /// spanning several orders of magnitude.
    Log,
}

impl BoundScale {
    /// Position of `bound` on this axis.
    pub(crate) fn to_axis(self, bound: f64) -> f64 {
        match self {
            BoundScale::Linear => bound,
            BoundScale::Log => bound.log10(),
        }
    }

    /// The bound at axis position `x`.
    pub(crate) fn from_axis(self, x: f64) -> f64 {
        match self {
            BoundScale::Linear => x,
            BoundScale::Log => 10f64.powf(x),
        }
    }
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

/// Split `[lower, upper]` into `k` regions overlapping by `overlap` (a
/// fraction of the region width, e.g. 0.1 for 10 %).  The first and last
/// regions are clamped to the overall range, so the union is exactly
/// `[lower, upper]`.
pub fn make_error_bounds(
    lower: f64,
    upper: f64,
    k: usize,
    overlap: f64,
    scale: BoundScale,
) -> Vec<Region> {
    assert!(
        lower.is_finite() && upper.is_finite() && lower < upper,
        "invalid bound range [{lower}, {upper}]"
    );
    assert!(k >= 1, "at least one region is required");
    assert!((0.0..0.5).contains(&overlap), "overlap must be in [0, 0.5)");

    assert!(
        scale == BoundScale::Linear || lower > 0.0,
        "log-scale regions require a positive lower bound"
    );
    let (lo, hi) = (scale.to_axis(lower), scale.to_axis(upper));
    let width = (hi - lo) / k as f64;
    let pad = width * overlap;
    let mut regions = Vec::with_capacity(k);
    for i in 0..k {
        let a = (lo + i as f64 * width - pad).max(lo);
        let b = (lo + (i + 1) as f64 * width + pad).min(hi);
        let (mut a, mut b) = (scale.from_axis(a), scale.from_axis(b));
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
    fn linear_regions_cover_range_and_overlap() {
        let regions = make_error_bounds(0.0, 1.2, 12, 0.1, BoundScale::Linear);
        assert_eq!(regions.len(), 12);
        assert_eq!(regions[0].lower, 0.0);
        assert_eq!(regions.last().unwrap().upper, 1.2);
        // Interior neighbours overlap.
        for w in regions.windows(2) {
            assert!(w[0].upper > w[1].lower, "{w:?}");
        }
        // End regions are slightly smaller (clamped), as Fig. 5 notes.
        assert!(regions[0].width() < regions[1].width());
        // Every point of the range is inside at least one region.
        for i in 0..=100 {
            let x = 1.2 * i as f64 / 100.0;
            assert!(regions.iter().any(|r| r.contains(x)), "{x}");
        }
    }

    #[test]
    fn log_regions_cover_decades() {
        let regions = make_error_bounds(1e-9, 1.0, 9, 0.1, BoundScale::Log);
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
        let regions = make_error_bounds(0.5, 2.0, 1, 0.1, BoundScale::Linear);
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
    fn zero_overlap_produces_contiguous_regions() {
        let regions = make_error_bounds(0.0, 10.0, 5, 0.0, BoundScale::Linear);
        for w in regions.windows(2) {
            assert!((w[0].upper - w[1].lower).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "invalid bound range")]
    fn inverted_range_panics() {
        let _ = make_error_bounds(1.0, 0.5, 4, 0.1, BoundScale::Linear);
    }

    #[test]
    #[should_panic(expected = "positive lower bound")]
    fn log_scale_with_zero_lower_panics() {
        let _ = make_error_bounds(0.0, 1.0, 4, 0.1, BoundScale::Log);
    }
}
