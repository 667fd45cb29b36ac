//! The reversible decorrelating block transform used by the ZFP-like codec.
//!
//! ZFP transforms each 4^d block of integers with a separable lifting scheme
//! (a fixed-point approximation of a Gram polynomial basis).  The forward and
//! inverse lifts below are the integer-exact pair from the ZFP specification;
//! applying `inv_lift` after `fwd_lift` restores the original four integers
//! up to the scheme's intrinsic (bounded, reversible-in-structure) rounding,
//! and the full transform pair is exactly invertible at the precision the
//! coder retains.

/// Block edge length (ZFP always uses 4).
pub const BLOCK_EDGE: usize = 4;

/// Forward lifting of four coefficients (in place).
///
/// Intermediates are computed in 128-bit arithmetic: the transform's output
/// magnitudes never exceed the inputs' (the matrix rows have unit ∞-norm),
/// but individual lifting steps can transiently exceed the 64-bit range when
/// the inputs use the full 62-bit fixed-point width.
#[inline]
pub fn fwd_lift(v: &mut [i64; 4]) {
    let mut x = v[0] as i128;
    let mut y = v[1] as i128;
    let mut z = v[2] as i128;
    let mut w = v[3] as i128;
    // Non-orthogonal transform from the ZFP specification:
    //        ( 4  4  4  4) (x)
    // 1/16 * ( 5  1 -1 -5) (y)
    //        (-4  4  4 -4) (z)
    //        (-2  6 -6  2) (w)
    x += w;
    x >>= 1;
    w -= x;
    z += y;
    z >>= 1;
    y -= z;
    x += z;
    x >>= 1;
    z -= x;
    w += y;
    w >>= 1;
    y -= w;
    w += y >> 1;
    y -= w >> 1;
    *v = [x as i64, y as i64, z as i64, w as i64];
}

/// Inverse lifting of four coefficients (in place); exact inverse of
/// [`fwd_lift`] whenever the forward pass's floor divisions were exact.
#[inline]
pub fn inv_lift(v: &mut [i64; 4]) {
    let mut x = v[0] as i128;
    let mut y = v[1] as i128;
    let mut z = v[2] as i128;
    let mut w = v[3] as i128;
    y += w >> 1;
    w -= y >> 1;
    y += w;
    w <<= 1;
    w -= y;
    z += x;
    x <<= 1;
    x -= z;
    y += z;
    z <<= 1;
    z -= y;
    w += x;
    x <<= 1;
    x -= w;
    *v = [x as i64, y as i64, z as i64, w as i64];
}

/// Apply [`fwd_lift`] along one axis of a 4^d block stored in local raster
/// order (`x` fastest).  `dims` is the block dimensionality (1–3).
pub fn fwd_xform(block: &mut [i64], dims: usize) {
    match dims {
        1 => {
            let mut v = [block[0], block[1], block[2], block[3]];
            fwd_lift(&mut v);
            block[..4].copy_from_slice(&v);
        }
        2 => {
            // Along x (rows), then along y (columns).
            for y in 0..4 {
                lift_strided(block, y * 4, 1, true);
            }
            for x in 0..4 {
                lift_strided(block, x, 4, true);
            }
        }
        _ => {
            for z in 0..4 {
                for y in 0..4 {
                    lift_strided(block, (z * 4 + y) * 4, 1, true);
                }
            }
            for z in 0..4 {
                for x in 0..4 {
                    lift_strided(block, z * 16 + x, 4, true);
                }
            }
            for y in 0..4 {
                for x in 0..4 {
                    lift_strided(block, y * 4 + x, 16, true);
                }
            }
        }
    }
}

/// Inverse of [`fwd_xform`] (axes visited in reverse order).
pub fn inv_xform(block: &mut [i64], dims: usize) {
    match dims {
        1 => {
            let mut v = [block[0], block[1], block[2], block[3]];
            inv_lift(&mut v);
            block[..4].copy_from_slice(&v);
        }
        2 => {
            for x in 0..4 {
                lift_strided(block, x, 4, false);
            }
            for y in 0..4 {
                lift_strided(block, y * 4, 1, false);
            }
        }
        _ => {
            for y in 0..4 {
                for x in 0..4 {
                    lift_strided(block, y * 4 + x, 16, false);
                }
            }
            for z in 0..4 {
                for x in 0..4 {
                    lift_strided(block, z * 16 + x, 4, false);
                }
            }
            for z in 0..4 {
                for y in 0..4 {
                    lift_strided(block, (z * 4 + y) * 4, 1, false);
                }
            }
        }
    }
}

#[inline]
fn lift_strided(block: &mut [i64], base: usize, stride: usize, forward: bool) {
    let mut v = [
        block[base],
        block[base + stride],
        block[base + 2 * stride],
        block[base + 3 * stride],
    ];
    if forward {
        fwd_lift(&mut v);
    } else {
        inv_lift(&mut v);
    }
    block[base] = v[0];
    block[base + stride] = v[1];
    block[base + 2 * stride] = v[2];
    block[base + 3 * stride] = v[3];
}

/// Total-sequency permutation of block coefficients: indices of the 4^d block
/// ordered by the sum of their local coordinates (low-frequency coefficients
/// first), matching the intent of ZFP's `PERM` tables.  The same permutation
/// is used by encoder and decoder.
pub fn sequency_permutation(dims: usize) -> Vec<usize> {
    let n = BLOCK_EDGE.pow(dims as u32);
    let mut indices: Vec<usize> = (0..n).collect();
    indices.sort_by_key(|&i| {
        let (x, y, z) = crate::block::local_coords(i, dims);
        (x + y + z, z, y, x)
    });
    indices
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lift_pair_is_exact_on_aligned_values() {
        // The lifting steps use arithmetic right shifts; when every
        // intermediate division is exact (values with enough trailing zero
        // bits) the inverse reproduces the input bit-for-bit.
        let cases: Vec<[i64; 4]> = vec![
            [0, 0, 0, 0],
            [1 << 8, 2 << 8, 3 << 8, 4 << 8],
            [-1000 << 10, 500 << 10, -250 << 10, 125 << 10],
            [
                (i32::MAX as i64) << 8,
                (i32::MIN as i64) << 8,
                7 << 8,
                -7 << 8,
            ],
            [1 << 40, -(1 << 41), 1 << 39, -(1 << 38)],
        ];
        for case in cases {
            let mut v = case;
            fwd_lift(&mut v);
            inv_lift(&mut v);
            assert_eq!(v, case, "lift roundtrip failed for {case:?}");
        }
    }

    #[test]
    fn lift_roundtrip_error_is_tiny_for_arbitrary_values() {
        // For unaligned values the floor divisions may drop low bits, exactly
        // as in ZFP; the resulting error is a few ULPs of the integer
        // representation, far below any quantization level the coder keeps.
        for a in -4i64..4 {
            for b in -4i64..4 {
                for c in -4i64..4 {
                    for d in -4i64..4 {
                        let orig = [a * 3, b * 5, c * 7, d * 11];
                        let mut v = orig;
                        fwd_lift(&mut v);
                        inv_lift(&mut v);
                        for (x, y) in v.iter().zip(orig.iter()) {
                            assert!((x - y).abs() <= 4, "{orig:?} -> {v:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn xform_roundtrip_1d_2d_3d() {
        for dims in 1..=3usize {
            let n = BLOCK_EDGE.pow(dims as u32);
            let original: Vec<i64> = (0..n as i64).map(|i| (i * 97 - 31) << 20).collect();
            let mut block = original.clone();
            fwd_xform(&mut block, dims);
            assert_ne!(
                block, original,
                "transform should change the data (d={dims})"
            );
            inv_xform(&mut block, dims);
            for (a, b) in block.iter().zip(original.iter()) {
                // Values are multiples of 2^20: the roundtrip is exact except
                // possibly for a handful of low bits introduced per axis.
                assert!((a - b).abs() <= 16, "dims={dims}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn smooth_block_energy_compacts_into_low_coefficients() {
        // A linear ramp should end up with most energy in the first
        // (low-sequency) coefficients after the transform.
        let mut block: Vec<i64> = (0..64).map(|i| (i as i64) << 30).collect();
        fwd_xform(&mut block, 3);
        let perm = sequency_permutation(3);
        let first: i64 = perm[..8].iter().map(|&i| block[i].abs()).sum();
        let last: i64 = perm[56..].iter().map(|&i| block[i].abs()).sum();
        assert!(first > last, "first={first} last={last}");
    }

    #[test]
    fn sequency_permutation_is_a_permutation() {
        for dims in 1..=3usize {
            let perm = sequency_permutation(dims);
            let n = BLOCK_EDGE.pow(dims as u32);
            assert_eq!(perm.len(), n);
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
            // The DC coefficient (index 0) always comes first.
            assert_eq!(perm[0], 0);
        }
    }
}
