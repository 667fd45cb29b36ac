//! Data predictors used by the SZ-like codec.
//!
//! SZ's compression model predicts every point from its already-processed
//! neighbourhood and entropy-codes only the quantized prediction error.  Two
//! predictors are provided, mirroring SZ 2.x's hybrid design:
//!
//! * [`lorenzo3`] — the 1-layer Lorenzo predictor, evaluated on *reconstructed*
//!   values so compressor and decompressor stay bit-identical,
//! * [`RegressionPlane`] — a per-block linear (hyper-plane) fit on the
//!   original values, whose four coefficients are stored in the stream.
//!
//! Everything operates on grids padded to three dimensions (leading axes of
//! length 1), which makes the 3-D Lorenzo stencil degrade gracefully to the
//! 2-D and 1-D forms because out-of-range neighbours contribute zero.
//!
//! Grids are read through `T: Into<f64>`, so the stencil runs on a
//! dataset's own `f32` buffer as it does on the `f64` reconstruction:
//! widening is exact, the arithmetic is the same.

/// Padded 3-D grid description: `[d0, d1, d2]`, slowest first.
pub type Dims3 = [usize; 3];

/// Value of `grid[z][y][x]` with zero extension outside the domain.
#[inline]
fn sample<T: Copy + Into<f64>>(grid: &[T], dims: Dims3, z: isize, y: isize, x: isize) -> f64 {
    if z < 0 || y < 0 || x < 0 {
        return 0.0;
    }
    let (z, y, x) = (z as usize, y as usize, x as usize);
    if z >= dims[0] || y >= dims[1] || x >= dims[2] {
        return 0.0;
    }
    grid[(z * dims[1] + y) * dims[2] + x].into()
}

/// 1-layer Lorenzo prediction of the point at `(z, y, x)` from its
/// already-reconstructed causal neighbourhood.
///
/// In 3-D this is the inclusion–exclusion sum over the seven causal corner
/// neighbours; with degenerate leading axes it reduces to the classic 2-D
/// (`a + b - c`) and 1-D (previous value) forms.
///
/// Away from the low faces (`z, y, x > 0` — all but a sliver of a 3-D
/// grid) every neighbour exists, so the seven values are loaded straight
/// from their offsets and summed in the same order as the general form:
/// the same bits, without fourteen range tests per point.  On the `z = 0`
/// plane — the whole of a 2-D or 1-D grid, which is padded to `[1, ny, nx]`
/// — the same holds away from its low edges with the four `z − 1`
/// neighbours absent: they stay in the sum as the literal `0.0` they
/// contribute, so it rounds (and signs its zeros) as the general form does.
#[inline]
pub fn lorenzo3<T: Copy + Into<f64>>(
    recon: &[T],
    dims: Dims3,
    z: usize,
    y: usize,
    x: usize,
) -> f64 {
    if z > 0 && y > 0 && x > 0 {
        let (row, plane) = (dims[2], dims[1] * dims[2]);
        let idx = (z * dims[1] + y) * dims[2] + x;
        // One slice, so one range check covers all seven loads.
        let window = &recon[idx - plane - row - 1..idx];
        let at = |back: usize| -> f64 { window[window.len() - back].into() };
        return at(plane) + at(row) + at(1) - at(plane + row) - at(plane + 1) - at(row + 1)
            + at(plane + row + 1);
    }
    if z == 0 && y > 0 && x > 0 {
        let row = dims[2];
        let idx = y * row + x;
        let window = &recon[idx - row - 1..idx];
        let at = |back: usize| -> f64 { window[window.len() - back].into() };
        return 0.0 + at(row) + at(1) - 0.0 - 0.0 - at(row + 1) + 0.0;
    }
    let (zi, yi, xi) = (z as isize, y as isize, x as isize);
    sample(recon, dims, zi - 1, yi, xi)
        + sample(recon, dims, zi, yi - 1, xi)
        + sample(recon, dims, zi, yi, xi - 1)
        - sample(recon, dims, zi - 1, yi - 1, xi)
        - sample(recon, dims, zi - 1, yi, xi - 1)
        - sample(recon, dims, zi, yi - 1, xi - 1)
        + sample(recon, dims, zi - 1, yi - 1, xi - 1)
}

/// A least-squares plane `v ≈ b0 + b1·dz + b2·dy + b3·dx` fitted over one
/// block (`dz/dy/dx` are coordinates relative to the block origin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressionPlane {
    /// Coefficients `[b0, b1(dz), b2(dy), b3(dx)]`.
    pub coeffs: [f64; 4],
}

/// The row of the design matrix `A` for local coordinates `c`.
#[inline]
fn design_row(c: [usize; 3]) -> [f64; 4] {
    [1.0, c[0] as f64, c[1] as f64, c[2] as f64]
}

#[inline]
fn add_to_gram(ata: &mut [[f64; 4]; 4], row: [f64; 4]) {
    for i in 0..4 {
        for j in 0..4 {
            ata[i][j] += row[i] * row[j];
        }
    }
}

impl RegressionPlane {
    /// Fit the plane to the original values of one block.
    ///
    /// `block` iterates the block's values in raster order together with
    /// their local `(dz, dy, dx)` coordinates.  A tiny ridge term keeps the
    /// normal equations solvable for degenerate blocks (single row/column).
    ///
    /// This is the definition; the pipeline reaches the same plane through
    /// [`gram`](Self::gram), [`add_to_rhs`](Self::add_to_rhs) and
    /// [`solve`](Self::solve) without listing the points.
    pub fn fit(points: &[([usize; 3], f64)]) -> Self {
        // Normal equations A^T A b = A^T v with A rows [1, dz, dy, dx].
        let mut ata = [[0.0f64; 4]; 4];
        let mut atv = [0.0f64; 4];
        for &(c, v) in points {
            add_to_gram(&mut ata, design_row(c));
            Self::add_to_rhs(&mut atv, c, v);
        }
        Self::solve(ata, atv, points.len())
    }

    /// `AᵀA` over every point of a block of the given extent: the sums
    /// [`fit`](Self::fit) makes, in the order it makes them, so the same
    /// matrix — which depends on the extent alone, and a grid has at most
    /// eight of those.
    pub fn gram(extent: [usize; 3]) -> [[f64; 4]; 4] {
        let mut ata = [[0.0f64; 4]; 4];
        for dz in 0..extent[0] {
            for dy in 0..extent[1] {
                for dx in 0..extent[2] {
                    add_to_gram(&mut ata, design_row([dz, dy, dx]));
                }
            }
        }
        ata
    }

    /// Add the point at local coordinates `c` with value `v` to `Aᵀv`.
    /// Points must be added in raster order: the sums round.
    #[inline]
    pub fn add_to_rhs(atv: &mut [f64; 4], c: [usize; 3], v: f64) {
        let row = design_row(c);
        for i in 0..4 {
            atv[i] += row[i] * v;
        }
    }

    /// Solve the (ridged) normal equations of a block of `points` points.
    pub fn solve(mut ata: [[f64; 4]; 4], atv: [f64; 4], points: usize) -> Self {
        let ridge = 1e-9 * points.max(1) as f64;
        for (i, row) in ata.iter_mut().enumerate() {
            row[i] += ridge;
        }
        let coeffs = solve4(ata, atv);
        Self { coeffs }
    }

    /// Reconstruct a plane from stored (f32-rounded) coefficients.
    pub fn from_coeffs(coeffs: [f64; 4]) -> Self {
        Self { coeffs }
    }

    /// Round the coefficients to `f32` precision, exactly as they will be
    /// stored in the stream, so compressor and decompressor predict from the
    /// same numbers.
    pub fn quantized(&self) -> Self {
        Self {
            coeffs: [
                self.coeffs[0] as f32 as f64,
                self.coeffs[1] as f32 as f64,
                self.coeffs[2] as f32 as f64,
                self.coeffs[3] as f32 as f64,
            ],
        }
    }

    /// Predict the value at local coordinates `(dz, dy, dx)`.
    #[inline]
    pub fn predict(&self, dz: usize, dy: usize, dx: usize) -> f64 {
        self.coeffs[0]
            + self.coeffs[1] * dz as f64
            + self.coeffs[2] * dy as f64
            + self.coeffs[3] * dx as f64
    }
}

/// Solve a 4x4 linear system with partial pivoting.  Singular (or nearly
/// singular) pivots yield zero for the remaining unknowns, which simply
/// disables the corresponding term of the plane.
fn solve4(mut a: [[f64; 4]; 4], mut b: [f64; 4]) -> [f64; 4] {
    let n = 4;
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        for row in col + 1..n {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        if a[pivot][col].abs() < 1e-30 {
            continue;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate.
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            let pivot_row = a[col];
            for (x, &p) in a[row][col..n].iter_mut().zip(&pivot_row[col..n]) {
                *x -= factor * p;
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = [0.0f64; 4];
    for col in (0..n).rev() {
        if a[col][col].abs() < 1e-30 {
            x[col] = 0.0;
            continue;
        }
        let mut sum = b[col];
        for k in col + 1..n {
            sum -= a[col][k] * x[k];
        }
        x[col] = sum / a[col][col];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lorenzo_1d_is_previous_value() {
        let dims = [1, 1, 5];
        let recon = vec![1.0, 2.0, 3.0, 0.0, 0.0];
        assert_eq!(lorenzo3(&recon, dims, 0, 0, 0), 0.0);
        assert_eq!(lorenzo3(&recon, dims, 0, 0, 3), 3.0);
    }

    #[test]
    fn lorenzo_2d_is_a_plus_b_minus_c() {
        let dims = [1, 2, 3];
        // grid: [[1, 2, 3], [4, ?, ?]]
        let recon = vec![1.0, 2.0, 3.0, 4.0, 0.0, 0.0];
        // predict (y=1, x=1): left(4) + up(2) - diag(1) = 5.
        assert_eq!(lorenzo3(&recon, dims, 0, 1, 1), 5.0);
    }

    #[test]
    fn lorenzo_3d_is_exact_for_linear_fields() {
        // A perfectly linear field is predicted exactly by the Lorenzo
        // stencil (away from the boundary).
        let dims = [4, 4, 4];
        let f =
            |z: usize, y: usize, x: usize| 2.0 * z as f64 - 3.0 * y as f64 + 0.5 * x as f64 + 7.0;
        let mut grid = vec![0.0; 64];
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    grid[(z * 4 + y) * 4 + x] = f(z, y, x);
                }
            }
        }
        for z in 1..4 {
            for y in 1..4 {
                for x in 1..4 {
                    let pred = lorenzo3(&grid, dims, z, y, x);
                    assert!((pred - f(z, y, x)).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn interior_fast_path_is_the_general_form_bit_for_bit() {
        // Signed zeros, huge cancellations and non-finite values included:
        // the direct loads must sum in the order `sample` does — in the
        // interior of a 3-D grid, on its `z = 0` plane, and on the 2-D and
        // 1-D grids that are nothing else.
        for dims in [[4, 5, 6], [1, 20, 6], [1, 1, 120]] {
            fast_paths_agree_on(dims);
        }
    }

    fn fast_paths_agree_on(dims: Dims3) {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let grid: Vec<f64> = (0..dims[0] * dims[1] * dims[2])
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                match i % 11 {
                    0 => -0.0,
                    1 => 0.0,
                    2 => 1e300,
                    3 => f64::INFINITY,
                    _ => (state >> 11) as f64 / (1u64 << 40) as f64 - 4096.0,
                }
            })
            .collect();
        let narrow: Vec<f32> = grid.iter().map(|&v| v as f32).collect();
        let widened: Vec<f64> = narrow.iter().map(|&v| v as f64).collect();
        for z in 0..dims[0] {
            for y in 0..dims[1] {
                for x in 0..dims[2] {
                    let (zi, yi, xi) = (z as isize, y as isize, x as isize);
                    let s = |dz, dy, dx| sample(&grid, dims, zi - dz, yi - dy, xi - dx);
                    let general =
                        s(1, 0, 0) + s(0, 1, 0) + s(0, 0, 1) - s(1, 1, 0) - s(1, 0, 1) - s(0, 1, 1)
                            + s(1, 1, 1);
                    let fast = lorenzo3(&grid, dims, z, y, x);
                    assert_eq!(fast.to_bits(), general.to_bits(), "({z}, {y}, {x})");
                    // An f32 grid predicts what its widened copy does.
                    assert_eq!(
                        lorenzo3(&narrow, dims, z, y, x).to_bits(),
                        lorenzo3(&widened, dims, z, y, x).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn regression_recovers_exact_plane() {
        let truth = [5.0, 1.5, -2.0, 0.25];
        let mut points = Vec::new();
        for dz in 0..6 {
            for dy in 0..6 {
                for dx in 0..6 {
                    let v = truth[0]
                        + truth[1] * dz as f64
                        + truth[2] * dy as f64
                        + truth[3] * dx as f64;
                    points.push(([dz, dy, dx], v));
                }
            }
        }
        let plane = RegressionPlane::fit(&points);
        for (c, t) in plane.coeffs.iter().zip(truth.iter()) {
            assert!((c - t).abs() < 1e-6, "{:?} vs {:?}", plane.coeffs, truth);
        }
        assert!((plane.predict(2, 3, 4) - (5.0 + 3.0 - 6.0 + 1.0)).abs() < 1e-6);
    }

    #[test]
    fn gram_rhs_and_solve_reproduce_fit_bit_for_bit() {
        for extent in [[6, 6, 6], [1, 16, 16], [1, 1, 256], [2, 5, 3], [1, 1, 1]] {
            let mut points = Vec::new();
            let mut atv = [0.0; 4];
            for dz in 0..extent[0] {
                for dy in 0..extent[1] {
                    for dx in 0..extent[2] {
                        let v = ((dz * 31 + dy * 7 + dx) as f64 * 0.37).sin() * 1e3 + 0.1;
                        points.push(([dz, dy, dx], v));
                        RegressionPlane::add_to_rhs(&mut atv, [dz, dy, dx], v);
                    }
                }
            }
            let split = RegressionPlane::solve(RegressionPlane::gram(extent), atv, points.len());
            let whole = RegressionPlane::fit(&points);
            assert_eq!(
                split.coeffs.map(f64::to_bits),
                whole.coeffs.map(f64::to_bits),
                "{extent:?}"
            );
        }
    }

    #[test]
    fn regression_handles_degenerate_blocks() {
        // A single row (1-D block): dy and dz columns are constant zero.
        let points: Vec<([usize; 3], f64)> = (0..8)
            .map(|dx| ([0, 0, dx], 3.0 + 2.0 * dx as f64))
            .collect();
        let plane = RegressionPlane::fit(&points);
        assert!((plane.predict(0, 0, 5) - 13.0).abs() < 1e-6);
        // A single point.
        let plane = RegressionPlane::fit(&[([0, 0, 0], 42.0)]);
        assert!((plane.predict(0, 0, 0) - 42.0).abs() < 1e-3);
    }

    #[test]
    fn quantized_coeffs_match_f32_storage() {
        let plane = RegressionPlane::fit(&[
            ([0, 0, 0], 1.000000123),
            ([0, 0, 1], 2.000000456),
            ([0, 1, 0], 3.1),
            ([1, 0, 0], 4.7),
        ]);
        let q = plane.quantized();
        for (orig, stored) in plane.coeffs.iter().zip(q.coeffs.iter()) {
            assert_eq!(*stored, *orig as f32 as f64);
        }
    }

    #[test]
    fn solve4_on_identity() {
        let a = [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ];
        assert_eq!(solve4(a, [1.0, 2.0, 3.0, 4.0]), [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn solve4_singular_does_not_blow_up() {
        let a = [[0.0; 4]; 4];
        let x = solve4(a, [1.0, 2.0, 3.0, 4.0]);
        assert!(x.iter().all(|v| v.is_finite()));
    }
}
