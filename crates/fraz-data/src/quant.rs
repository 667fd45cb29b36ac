//! Linear-scaling quantization of prediction errors — the step the SZ-like
//! and MGARD-like codecs share.
//!
//! Both predict a value (from reconstructed neighbours, a fitted plane or a
//! coarser grid), store how many steps of `2·bound` the original lies from
//! the prediction, and fall back to storing the value exactly when that
//! count does not fit the code range or the reconstruction would miss the
//! bound.  [`LinearQuantizer::encode`] and [`LinearQuantizer::decode`]
//! reconstruct with the same expression, which is what keeps a compressor
//! and its decompressor bit-identical.
//!
//! `encode` sits on the critical path of a Lorenzo-predicted stream — the
//! next prediction waits for this reconstruction — so it rounds without a
//! libm call and without leaving the floating-point unit.

/// Quantizer for one absolute error bound and one code range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearQuantizer {
    bound: f64,
    radius: i64,
}

impl LinearQuantizer {
    /// The code reserved for values stored exactly.
    pub const UNPREDICTABLE: u32 = 0;

    /// Quantizer with `capacity` codes (`UNPREDICTABLE` included) around
    /// predictions, under the absolute error bound `bound`.
    pub fn new(bound: f64, capacity: u32) -> Self {
        Self {
            bound,
            radius: (capacity / 2) as i64,
        }
    }

    /// Quantize `orig` against its prediction: the code to store and the
    /// value the decoder will reconstruct from it, or `None` when the value
    /// has to be stored exactly.
    ///
    /// `finalize` rounds a reconstruction to the precision of the buffer it
    /// will be stored in (an `f32` cast for single-precision data); the
    /// bound is checked on the finalized value, so it holds end to end.
    #[inline]
    pub fn encode(
        &self,
        orig: f64,
        pred: f64,
        finalize: impl Fn(f64) -> f64,
    ) -> Option<(u32, f64)> {
        let steps = round_within((orig - pred) / (2.0 * self.bound), self.radius)?;
        let recon = finalize(pred + 2.0 * self.bound * steps);
        // `|steps| < radius`, so the code is in `1..capacity` and never
        // `UNPREDICTABLE`.
        ((recon - orig).abs() <= self.bound && recon.is_finite())
            .then_some(((self.radius + steps as i64) as u32, recon))
    }

    /// Reconstruct the value `code` (not `UNPREDICTABLE`) stands for.
    #[inline]
    pub fn decode(&self, code: u32, pred: f64, finalize: impl Fn(f64) -> f64) -> f64 {
        finalize(pred + 2.0 * self.bound * (code as i64 - self.radius) as f64)
    }
}

/// `q.round()` when its magnitude is below `radius`, else `None`.
///
/// `f64::round` is a libm call on a baseline x86-64.  Ties round away from
/// zero, so `|round(q)| < radius` exactly when `|q| < radius − ½` (false
/// for a NaN).  Adding and subtracting 1.5·2^52 rounds to the nearest
/// integer, ties to even, exactly; a tie (rare, and the only case the two
/// roundings differ in) is redone by hand.
#[inline]
fn round_within(q: f64, radius: i64) -> Option<f64> {
    const SHIFTER: f64 = 6_755_399_441_055_744.0;
    let in_range = q.abs() < radius as f64 - 0.5;
    if !in_range {
        return None;
    }
    let nearest = (q + SHIFTER) - SHIFTER;
    if (q - nearest).abs() == 0.5 {
        return Some(tie_away_from_zero(q));
    }
    Some(nearest)
}

/// `round(q)` for a `q` halfway between two integers.  Out of line, so the
/// test for it stays a branch beside the hot path and not a select on it.
#[cold]
fn tie_away_from_zero(q: f64) -> f64 {
    q + 0.5f64.copysign(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_within_is_round_where_round_is_in_range() {
        let radius = 32_768i64;
        let mut state = 0x9E37_79B9u64;
        let mut cases = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999999999999994,
            -0.49999999999999994,
            32_766.5,
            32_767.25,
            32_767.5,
            -32_767.5,
            32_768.0,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            -4.9e-324,
        ];
        for i in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            cases.push((unit - 0.5) * 70_000.0);
            // Exact halves and their neighbours one ulp either side.
            let half = (i - 10_000) as f64 + 0.5;
            cases.extend([
                half,
                f64::from_bits(half.to_bits() + 1),
                f64::from_bits(half.to_bits() - 1),
            ]);
        }
        for q in cases {
            let rounded = q.round();
            let expected =
                (rounded.abs() < radius as f64 && rounded.is_finite()).then_some(rounded);
            assert_eq!(round_within(q, radius), expected, "q = {q:?}");
        }
    }

    #[test]
    fn encode_and_decode_reconstruct_the_same_value_within_the_bound() {
        let q = LinearQuantizer::new(1e-3, 65_536);
        let narrow = |v: f64| v as f32 as f64;
        for (orig, pred) in [(1.0, 0.9), (-3.25, -3.2501), (0.0, 0.0), (7.0, 7.0004)] {
            let orig = narrow(orig);
            let (code, recon) = q.encode(orig, pred, narrow).expect("a few steps away");
            assert_ne!(code, LinearQuantizer::UNPREDICTABLE);
            assert!((recon - orig).abs() <= 1e-3);
            assert_eq!(q.decode(code, pred, narrow).to_bits(), recon.to_bits());
        }
        // Too many steps away, or not a number: stored exactly.
        assert_eq!(q.encode(1e3, 0.0, narrow), None);
        assert_eq!(q.encode(f64::NAN, 0.0, narrow), None);
        assert_eq!(q.encode(1.0, f64::INFINITY, narrow), None);
        // A reconstruction the cast pushes past the bound is refused too.
        let tight = LinearQuantizer::new(1e-12, 65_536);
        assert_eq!(tight.encode(0.1, 0.1 + 4e-12, narrow), None);
    }
}
