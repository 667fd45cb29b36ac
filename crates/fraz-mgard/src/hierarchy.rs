//! Dyadic grid hierarchy and multilevel interpolation.
//!
//! MGARD represents a field as multilevel coefficients: each node of a finer
//! level stores its deviation from the (multi)linear interpolation of the
//! surrounding coarser-level nodes.  This module provides the level
//! enumeration and the interpolation operator used by the codec:
//!
//! * [`level_steps`] — the dyadic step sizes from the coarsest level to the
//!   finest (step 1),
//! * [`level_nodes`] — the grid nodes introduced at a given level (present on
//!   the level's lattice but not on the next-coarser one),
//! * [`interpolate`] — multilinear interpolation of a node from the
//!   already-reconstructed nodes of the coarser lattice, with boundary
//!   clamping so arbitrary (non power-of-two-plus-one) grids work.
//!
//! Both are per-point work on the codec's hot path, so neither touches the
//! heap: the nodes of a level are enumerated, never listed (the finest
//! level alone is seven eighths of a 3-D grid), and a node's at most two
//! neighbours per axis sit in fixed arrays.

/// Padded 3-D grid dimensions, slowest axis first.
pub type Dims3 = [usize; 3];

/// Dyadic step sizes from coarse to fine: `[S, S/2, …, 2, 1]` where `S` is
/// the largest power of two not exceeding the longest axis (capped so the
/// coarsest grid keeps at least two nodes per non-degenerate axis).
pub fn level_steps(dims: Dims3) -> Vec<usize> {
    let longest = dims.iter().copied().max().unwrap_or(1).max(2);
    let mut s = 1usize;
    while s * 2 < longest {
        s *= 2;
    }
    let mut steps = Vec::new();
    while s >= 1 {
        steps.push(s);
        if s == 1 {
            break;
        }
        s /= 2;
    }
    steps
}

/// Nodes introduced at the level with step `s`, in raster order: points on
/// the `s`-lattice that are not on the `2s`-lattice.  For the coarsest level
/// (`coarsest = true`) every `s`-lattice node is included.
///
/// Iteration is internal — `visit` is called once per node — so a level
/// costs three nested loops and no state machine.
#[inline(always)]
pub fn level_nodes(dims: Dims3, s: usize, coarsest: bool, mut visit: impl FnMut([usize; 3])) {
    let on_coarser = |c: usize| c % (2 * s) == 0;
    for z in (0..dims[0]).step_by(s) {
        for y in (0..dims[1]).step_by(s) {
            let row_on_coarser = on_coarser(z) && on_coarser(y);
            for x in (0..dims[2]).step_by(s) {
                if coarsest || !(row_on_coarser && on_coarser(x)) {
                    visit([z, y, x]);
                }
            }
        }
    }
}

/// Multilinear interpolation of the node at `coord` from the surrounding
/// `2s`-lattice nodes of `grid`.  Axes on which the coordinate already lies
/// on the coarser lattice contribute the node itself; other axes average the
/// two neighbours at `±s` (clamped to the domain).
#[inline]
pub fn interpolate(grid: &[f64], dims: Dims3, coord: [usize; 3], s: usize) -> f64 {
    // Per axis, the coarser-lattice coordinates that bracket this node with
    // their weights: one or two of them.
    let mut points = [[(0usize, 0.0f64); 2]; 3];
    let mut count = [1usize; 3];
    for axis in 0..3 {
        let c = coord[axis];
        if c % (2 * s) == 0 {
            points[axis][0] = (c, 1.0);
        } else if c + s < dims[axis] {
            points[axis] = [(c - s, 0.5), (c + s, 0.5)];
            count[axis] = 2;
        } else {
            // Clamped boundary: only the lower neighbour exists.
            points[axis][0] = (c - s, 1.0);
        }
    }
    let mut value = 0.0;
    for &(z, wz) in &points[0][..count[0]] {
        for &(y, wy) in &points[1][..count[1]] {
            for &(x, wx) in &points[2][..count[2]] {
                value += wz * wy * wx * grid[(z * dims[1] + y) * dims[2] + x];
            }
        }
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes_of(dims: Dims3, s: usize, coarsest: bool) -> Vec<[usize; 3]> {
        let mut nodes = Vec::new();
        level_nodes(dims, s, coarsest, |node| nodes.push(node));
        nodes
    }

    #[test]
    fn steps_descend_to_one() {
        assert_eq!(level_steps([1, 16, 16]), vec![8, 4, 2, 1]);
        assert_eq!(level_steps([1, 5, 7]), vec![4, 2, 1]);
        assert_eq!(level_steps([1, 2, 2]), vec![1]);
        assert_eq!(level_steps([9, 9, 9]), vec![8, 4, 2, 1]);
    }

    #[test]
    fn level_nodes_partition_the_grid() {
        let dims = [1, 9, 13];
        let steps = level_steps(dims);
        let mut seen = std::collections::HashSet::new();
        for (i, &s) in steps.iter().enumerate() {
            for node in nodes_of(dims, s, i == 0) {
                assert!(seen.insert(node), "node {node:?} visited twice");
            }
        }
        assert_eq!(seen.len(), dims[0] * dims[1] * dims[2]);
    }

    #[test]
    fn level_nodes_partition_3d_grid() {
        let dims = [5, 6, 7];
        let steps = level_steps(dims);
        let total: usize = steps
            .iter()
            .enumerate()
            .map(|(i, &s)| nodes_of(dims, s, i == 0).len())
            .sum();
        assert_eq!(total, 5 * 6 * 7);
    }

    #[test]
    fn interpolation_is_exact_for_linear_fields() {
        let dims = [1, 9, 9];
        let f = |y: usize, x: usize| 2.0 * y as f64 - 3.0 * x as f64 + 1.0;
        let mut grid = vec![0.0; 81];
        for y in 0..9 {
            for x in 0..9 {
                grid[y * 9 + x] = f(y, x);
            }
        }
        // Interior odd nodes at any level are interpolated exactly.
        for s in [1usize, 2, 4] {
            for node in nodes_of(dims, s, false) {
                let [_, y, x] = node;
                if y + s < 9 && x + s < 9 && y >= s && x >= s {
                    let interp = interpolate(&grid, dims, node, s);
                    assert!((interp - f(y, x)).abs() < 1e-9, "s={s} node={node:?}");
                }
            }
        }
    }

    #[test]
    fn interpolation_on_lattice_nodes_returns_the_node() {
        let dims = [4, 4, 4];
        let grid: Vec<f64> = (0..64).map(|i| i as f64).collect();
        // A node whose coordinates are all multiples of 2s is its own
        // interpolant.
        assert_eq!(interpolate(&grid, dims, [0, 0, 0], 1), grid[0]);
        assert_eq!(
            interpolate(&grid, dims, [2, 2, 2], 1),
            grid[(2 * 4 + 2) * 4 + 2]
        );
    }

    #[test]
    fn boundary_nodes_clamp_to_existing_neighbours() {
        let dims = [1, 1, 6];
        let grid = vec![0.0, 10.0, 20.0, 30.0, 40.0, 50.0];
        // Node x=5 at step 1: neighbour x=6 does not exist, so it takes x=4.
        let v = interpolate(&grid, dims, [0, 0, 5], 1);
        assert_eq!(v, 40.0);
        // Node x=3 at step 1 averages x=2 and x=4.
        let v = interpolate(&grid, dims, [0, 0, 3], 1);
        assert_eq!(v, 30.0);
    }
}
