//! Block gather/scatter and block-floating-point conversion.
//!
//! ZFP partitions the grid into 4^d blocks, converts each block to a common
//! power-of-two scale (the block exponent) and represents the scaled values
//! as fixed-point integers before transforming and coding them.  Partial
//! blocks at the domain boundary are padded by edge replication; the decoder
//! simply ignores the padded lanes when scattering values back.
//!
//! A block is at most [`MAX_BLOCK`] lanes, so every stage works in a
//! caller-provided slice of a stack array: a field of any size is coded
//! without one heap request per block.

use crate::transform::BLOCK_EDGE;

/// Lanes of the largest block, 4^3.
pub const MAX_BLOCK: usize = BLOCK_EDGE * BLOCK_EDGE * BLOCK_EDGE;

/// Number of fraction bits in the fixed-point representation (ZFP's
/// `intprec - 2`, leaving two guard bits for transform growth).
pub const FIXED_POINT_FRACTION_BITS: i32 = 62;

/// Enumerate block origins over the active (non-degenerate) axes of a padded
/// 3-D grid, in raster order.
pub fn block_origins(dims: [usize; 3]) -> impl Iterator<Item = [usize; 3]> {
    let along = move |axis: usize| (0..dims[axis]).step_by(BLOCK_EDGE);
    along(0).flat_map(move |z| along(1).flat_map(move |y| along(2).map(move |x| [z, y, x])))
}

/// Lanes along `[z, y, x]` of a block of the given dimensionality: four on
/// the block's own axes, one on the padded leading ones.
#[inline]
fn lanes(block_dims: usize) -> [usize; 3] {
    match block_dims {
        1 => [1, 1, BLOCK_EDGE],
        2 => [1, BLOCK_EDGE, BLOCK_EDGE],
        _ => [BLOCK_EDGE; 3],
    }
}

/// Gather the full 4^d block starting at `origin` into `block` (lane order:
/// `x` fastest), replicating edge values to pad partial blocks.
/// `block_dims` is the dataset dimensionality (1–3) and `block` holds its
/// 4^`block_dims` lanes.
pub fn gather<T: Copy + Into<f64>>(
    values: &[T],
    dims: [usize; 3],
    origin: [usize; 3],
    block_dims: usize,
    block: &mut [f64],
) {
    let [nz, ny, nx] = lanes(block_dims);
    debug_assert_eq!(block.len(), nz * ny * nx);
    // The last valid sample along each axis, which padded lanes clamp onto
    // (edge replication).
    let last = |axis: usize| BLOCK_EDGE.min(dims[axis] - origin[axis]) - 1;
    let (last_z, last_y, last_x) = (last(0), last(1), last(2));
    let mut lane = block.iter_mut();
    for lz in 0..nz {
        for ly in 0..ny {
            let (cz, cy) = (origin[0] + lz.min(last_z), origin[1] + ly.min(last_y));
            let row = (cz * dims[1] + cy) * dims[2] + origin[2];
            for lx in 0..nx {
                *lane.next().expect("4^d lanes") = values[row + lx.min(last_x)].into();
            }
        }
    }
}

/// Scatter a decoded block back into the grid, skipping padded lanes.
pub fn scatter(
    block: &[f64],
    values: &mut [f64],
    dims: [usize; 3],
    origin: [usize; 3],
    block_dims: usize,
) {
    let [nz, ny, nx] = lanes(block_dims);
    debug_assert_eq!(block.len(), nz * ny * nx);
    let extent = |axis: usize, lanes: usize| lanes.min(dims[axis] - origin[axis]);
    let (ez, ey, ex) = (extent(0, nz), extent(1, ny), extent(2, nx));
    for lz in 0..ez {
        for ly in 0..ey {
            let row = ((origin[0] + lz) * dims[1] + origin[1] + ly) * dims[2] + origin[2];
            let lane = (lz * ny + ly) * nx;
            values[row..row + ex].copy_from_slice(&block[lane..lane + ex]);
        }
    }
}

/// Local `(x, y, z)` coordinates of block lane `i` for the given block
/// dimensionality (x fastest).
#[inline]
pub fn local_coords(i: usize, block_dims: usize) -> (usize, usize, usize) {
    match block_dims {
        1 => (i, 0, 0),
        2 => (i % BLOCK_EDGE, i / BLOCK_EDGE, 0),
        _ => (
            i % BLOCK_EDGE,
            (i / BLOCK_EDGE) % BLOCK_EDGE,
            i / (BLOCK_EDGE * BLOCK_EDGE),
        ),
    }
}

/// The grid index of the block's (first) largest magnitude, the value its
/// exponent comes from; a padded lane names the edge value it replicates.
pub fn widest(dims: [usize; 3], origin: [usize; 3], block_dims: usize, block: &[f64]) -> usize {
    let lane = (0..block.len())
        .rev()
        .max_by(|&a, &b| block[a].abs().total_cmp(&block[b].abs()))
        .unwrap_or(0);
    let (x, y, z) = local_coords(lane, block_dims);
    let at = |axis: usize, lane: usize| origin[axis] + lane.min(dims[axis] - origin[axis] - 1);
    (at(0, z) * dims[1] + at(1, y)) * dims[2] + at(2, x)
}

/// The block exponent: the smallest `e` such that every `|v| < 2^e`.
/// Returns `None` for an all-zero (or all-subnormal-zero) block.
pub fn block_exponent(block: &[f64]) -> Option<i32> {
    let max = block.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if max == 0.0 || !max.is_finite() {
        return None;
    }
    // frexp-style exponent: max = m * 2^e with 0.5 <= m < 1.
    let e = max.log2().floor() as i32 + 1;
    // Guard against log2 rounding at exact powers of two.
    let e = if max >= (2.0f64).powi(e) { e + 1 } else { e };
    let e = if max < (2.0f64).powi(e - 1) { e - 1 } else { e };
    Some(e)
}

/// Convert block values to fixed-point integers at the given block exponent.
pub fn to_ints(block: &[f64], emax: i32, ints: &mut [i64]) {
    let scale = (2.0f64).powi(FIXED_POINT_FRACTION_BITS - emax);
    let limit = (2.0f64).powi(FIXED_POINT_FRACTION_BITS);
    for (int, &v) in ints.iter_mut().zip(block) {
        // Saturate defensively (cannot trigger when emax was computed
        // from this block, but keeps the conversion total).
        *int = (v * scale).clamp(-limit, limit) as i64;
    }
}

/// Convert fixed-point integers back to floating point.
pub fn from_ints(ints: &[i64], emax: i32, block: &mut [f64]) {
    let scale = (2.0f64).powi(emax - FIXED_POINT_FRACTION_BITS);
    for (v, &int) in block.iter_mut().zip(ints) {
        *v = int as f64 * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origins_cover_partial_grids() {
        let origins: Vec<[usize; 3]> = block_origins([1, 6, 9]).collect();
        // 1 x ceil(6/4) x ceil(9/4) = 1 * 2 * 3.
        assert_eq!(origins.len(), 6);
        assert_eq!(origins[0], [0, 0, 0]);
        assert!(origins.contains(&[0, 4, 8]));
    }

    #[test]
    fn gather_scatter_roundtrip_full_blocks() {
        let dims = [4, 8, 8];
        let values: Vec<f64> = (0..dims[0] * dims[1] * dims[2]).map(|i| i as f64).collect();
        let mut restored = vec![0.0; values.len()];
        for origin in block_origins(dims) {
            let mut block = [0.0; MAX_BLOCK];
            gather(&values, dims, origin, 3, &mut block);
            scatter(&block, &mut restored, dims, origin, 3);
        }
        assert_eq!(restored, values);
    }

    #[test]
    fn gather_scatter_roundtrip_partial_blocks() {
        for dims in [[1, 1, 13], [1, 7, 9], [5, 6, 7]] {
            let block_dims = if dims[0] > 1 {
                3
            } else if dims[1] > 1 {
                2
            } else {
                1
            };
            let n = dims[0] * dims[1] * dims[2];
            let values: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let mut restored = vec![0.0; n];
            for origin in block_origins(dims) {
                let mut block = [0.0; MAX_BLOCK];
                let block = &mut block[..BLOCK_EDGE.pow(block_dims as u32)];
                gather(&values, dims, origin, block_dims, block);
                scatter(block, &mut restored, dims, origin, block_dims);
            }
            assert_eq!(restored, values, "dims {dims:?}");
        }
    }

    #[test]
    fn padding_replicates_edges() {
        // 1-D grid of 5 values, second block covers indices 4..8 -> lanes
        // 1..3 replicate index 4.
        let values = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut block = [0.0; 4];
        gather(&values, [1, 1, 5], [0, 0, 4], 1, &mut block);
        assert_eq!(block.to_vec(), vec![5.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn block_exponent_brackets_magnitude() {
        for &(v, expected) in &[
            (1.0, 1),
            (0.5, 0),
            (0.75, 0),
            (3.9, 2),
            (4.0, 3),
            (1e-3, -9),
        ] {
            let e = block_exponent(&[v, -v / 2.0, 0.0]).unwrap();
            assert_eq!(e, expected, "value {v}");
            assert!(v.abs() < (2.0f64).powi(e));
            assert!(v.abs() >= (2.0f64).powi(e - 1));
        }
        assert_eq!(block_exponent(&[0.0, 0.0]), None);
    }

    #[test]
    fn fixed_point_roundtrip_is_accurate() {
        let block: Vec<f64> = (0..64)
            .map(|i| ((i as f64) * 0.37 - 11.0).sin() * 123.456)
            .collect();
        let emax = block_exponent(&block).unwrap();
        let (mut ints, mut back) = ([0i64; MAX_BLOCK], [0.0; MAX_BLOCK]);
        to_ints(&block, emax, &mut ints);
        from_ints(&ints, emax, &mut back);
        for (a, b) in block.iter().zip(back.iter()) {
            // Quantization step is 2^(emax-62) — far below f64 noise here.
            assert!((a - b).abs() <= (2.0f64).powi(emax - 60), "{a} vs {b}");
        }
    }

    #[test]
    fn local_coords_are_consistent() {
        assert_eq!(local_coords(5, 1), (5, 0, 0));
        assert_eq!(local_coords(5, 2), (1, 1, 0));
        assert_eq!(local_coords(21, 3), (1, 1, 1));
        assert_eq!(local_coords(63, 3), (3, 3, 3));
    }
}
