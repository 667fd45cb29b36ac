//! Grid dimensions and index arithmetic for 1-D to 4-D structured fields.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::wire::WireError;

/// Dimensions of a structured grid, slowest-varying axis first (C order).
///
/// SDRBench fields are 1-D (HACC, EXAALT), 2-D (CESM-ATM) or 3-D (Hurricane,
/// NYX); 4-D is supported for completeness (e.g. stacking time into one
/// buffer).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Dims(Vec<usize>);

impl Dims {
    /// Create from an explicit axis list (slowest first).
    ///
    /// # Panics
    /// Panics where [`Dims::try_new`] fails: the list is empty, longer than
    /// 4 axes, contains a zero, or its product overflows `usize`.
    pub fn new(axes: &[usize]) -> Self {
        Self::try_new(axes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor for shapes that come from outside the program
    /// (wire headers, containers, frames): 1 to 4 axes, none of them zero,
    /// and a point count that fits `usize`.
    pub fn try_new(axes: &[usize]) -> Result<Self, WireError> {
        if axes.is_empty() || axes.len() > 4 {
            return Err(WireError::Invalid(format!(
                "1 to 4 dimensions are supported, got {}",
                axes.len()
            )));
        }
        if axes.contains(&0) {
            return Err(WireError::Invalid(format!(
                "all dimensions must be non-zero: {axes:?}"
            )));
        }
        axes.iter()
            .try_fold(1usize, |n, &a| n.checked_mul(a))
            .ok_or_else(|| WireError::Invalid(format!("grid size overflows: {axes:?}")))?;
        Ok(Self(axes.to_vec()))
    }

    /// 1-D grid of `n` points.
    pub fn d1(n: usize) -> Self {
        Self::new(&[n])
    }

    /// 2-D grid (`rows` x `cols`, `cols` fastest).
    pub fn d2(rows: usize, cols: usize) -> Self {
        Self::new(&[rows, cols])
    }

    /// 3-D grid (`d0` slowest, `d2` fastest).
    pub fn d3(d0: usize, d1: usize, d2: usize) -> Self {
        Self::new(&[d0, d1, d2])
    }

    /// 4-D grid.
    pub fn d4(d0: usize, d1: usize, d2: usize, d3: usize) -> Self {
        Self::new(&[d0, d1, d2, d3])
    }

    /// Number of axes.
    pub fn ndims(&self) -> usize {
        self.0.len()
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// True if any axis has length zero (cannot happen through the
    /// constructors; kept for defensive call sites).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The axis lengths, slowest first.
    pub fn as_slice(&self) -> &[usize] {
        &self.0
    }

    /// The same row-major layout as a 3-D grid `[slowest, middle, fastest]`:
    /// a 1-D or 2-D grid gains leading unit axes, a 4-D grid folds its two
    /// leading axes into one.  The codecs' block traversals all work on
    /// this view.
    pub fn fold_3d(&self) -> [usize; 3] {
        let d = &self.0;
        let lead: usize = d[..d.len().saturating_sub(2)].iter().product();
        match d.len() {
            1 => [1, 1, d[0]],
            _ => [lead, d[d.len() - 2], d[d.len() - 1]],
        }
    }

    /// Row-major strides (elements, not bytes): `stride[i]` is the linear
    /// distance between neighbours along axis `i`.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Linear index of the point at `coords` (one coordinate per axis).
    ///
    /// # Panics
    /// Panics (in debug builds) if a coordinate is out of range or the
    /// coordinate count is wrong.
    #[inline]
    pub fn linear_index(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.0.len());
        let strides = self.strides();
        let mut idx = 0;
        for (i, (&c, &s)) in coords.iter().zip(strides.iter()).enumerate() {
            debug_assert!(c < self.0[i], "coordinate {c} out of range on axis {i}");
            idx += c * s;
        }
        idx
    }

    /// Coordinates of the point at linear index `idx`.
    #[inline]
    pub fn coords(&self, mut idx: usize) -> Vec<usize> {
        let strides = self.strides();
        let mut coords = vec![0usize; self.0.len()];
        for (i, &s) in strides.iter().enumerate() {
            coords[i] = idx / s;
            idx %= s;
        }
        coords
    }

    /// Iterate over the origins of non-overlapping blocks of `block` points
    /// per axis, covering the whole grid (edge blocks may be smaller).
    pub fn block_origins(&self, block: usize) -> Vec<Vec<usize>> {
        assert!(block > 0);
        let mut origins = vec![vec![]];
        for &axis_len in &self.0 {
            let mut next = Vec::new();
            for origin in &origins {
                let mut start = 0;
                while start < axis_len {
                    let mut o = origin.clone();
                    o.push(start);
                    next.push(o);
                    start += block;
                }
            }
            origins = next;
        }
        origins
    }
}

impl fmt::Display for Dims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|d| d.to_string()).collect();
        write!(f, "{}", parts.join("x"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_len() {
        assert_eq!(Dims::d1(10).len(), 10);
        assert_eq!(Dims::d2(3, 4).len(), 12);
        assert_eq!(Dims::d3(2, 3, 4).len(), 24);
        assert_eq!(Dims::d4(2, 2, 2, 2).len(), 16);
        assert_eq!(Dims::d3(2, 3, 4).ndims(), 3);
        assert_eq!(Dims::d2(3, 4).to_string(), "3x4");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_axis_panics() {
        let _ = Dims::new(&[4, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "1 to 4 dimensions")]
    fn too_many_axes_panic() {
        let _ = Dims::new(&[1, 2, 3, 4, 5]);
    }

    #[test]
    fn try_new_reports_instead_of_panicking() {
        assert_eq!(Dims::try_new(&[2, 3]).unwrap(), Dims::d2(2, 3));
        assert!(Dims::try_new(&[]).is_err());
        assert!(Dims::try_new(&[1, 2, 3, 4, 5]).is_err());
        assert!(Dims::try_new(&[4, 0, 2]).is_err());
        assert!(Dims::try_new(&[usize::MAX, 2]).is_err());
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Dims::d3(2, 3, 4).strides(), vec![12, 4, 1]);
        assert_eq!(Dims::d2(5, 7).strides(), vec![7, 1]);
        assert_eq!(Dims::d1(9).strides(), vec![1]);
    }

    #[test]
    fn fold_3d_keeps_the_row_major_layout() {
        assert_eq!(Dims::d1(9).fold_3d(), [1, 1, 9]);
        assert_eq!(Dims::d2(5, 7).fold_3d(), [1, 5, 7]);
        assert_eq!(Dims::d3(2, 3, 4).fold_3d(), [2, 3, 4]);
        assert_eq!(Dims::d4(2, 3, 4, 5).fold_3d(), [6, 4, 5]);
    }

    #[test]
    fn linear_index_and_coords_are_inverse() {
        let dims = Dims::d3(3, 4, 5);
        for idx in 0..dims.len() {
            let c = dims.coords(idx);
            assert_eq!(dims.linear_index(&c), idx);
        }
    }

    #[test]
    fn specific_index() {
        let dims = Dims::d3(2, 3, 4);
        assert_eq!(dims.linear_index(&[1, 2, 3]), 12 + 2 * 4 + 3);
        assert_eq!(dims.coords(23), vec![1, 2, 3]);
    }

    #[test]
    fn block_origins_cover_grid() {
        let dims = Dims::d2(5, 7);
        let origins = dims.block_origins(3);
        // ceil(5/3) * ceil(7/3) = 2 * 3 = 6 blocks.
        assert_eq!(origins.len(), 6);
        assert!(origins.contains(&vec![0, 0]));
        assert!(origins.contains(&vec![3, 6]));
    }

    #[test]
    fn block_origins_1d() {
        let dims = Dims::d1(10);
        assert_eq!(dims.block_origins(4), vec![vec![0], vec![4], vec![8]]);
    }
}
