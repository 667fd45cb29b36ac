//! Regular chunk grid over an n-dimensional field.
//!
//! The grid divides a field of shape `dims` (slowest-varying axis first, the
//! same convention as [`fraz_data::Dims`]) into chunks of shape
//! `chunk_shape`.  Chunks on the trailing edge of an axis are clamped, so
//! every element belongs to exactly one chunk and no chunk is empty.  Chunks
//! are numbered row-major over the per-axis chunk counts, mirroring element
//! order.

use std::ops::Range;

use crate::StoreError;

/// A regular chunk grid: field shape, chunk shape, per-axis chunk counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkGrid {
    dims: Vec<usize>,
    chunk_shape: Vec<usize>,
    counts: Vec<usize>,
}

impl ChunkGrid {
    /// Build a grid over a field of shape `dims` with the given chunk shape.
    ///
    /// `chunk_shape` must have the same rank as `dims`; each chunk axis is
    /// clamped into `1..=dims[axis]` (a zero chunk axis is an error, an
    /// oversized one simply means a single chunk along that axis).
    pub fn new(dims: &[usize], chunk_shape: &[usize]) -> Result<Self, StoreError> {
        if dims.is_empty() || dims.len() > 4 {
            return Err(StoreError::InvalidRegion(format!(
                "grid rank must be 1..=4, got {}",
                dims.len()
            )));
        }
        if chunk_shape.len() != dims.len() {
            return Err(StoreError::InvalidRegion(format!(
                "chunk shape rank {} does not match field rank {}",
                chunk_shape.len(),
                dims.len()
            )));
        }
        if dims.iter().any(|&d| d == 0) {
            return Err(StoreError::InvalidRegion("zero-length axis".into()));
        }
        if chunk_shape.iter().any(|&c| c == 0) {
            return Err(StoreError::InvalidRegion("zero-length chunk axis".into()));
        }
        let chunk_shape: Vec<usize> = chunk_shape
            .iter()
            .zip(dims)
            .map(|(&c, &d)| c.min(d))
            .collect();
        let counts = dims
            .iter()
            .zip(&chunk_shape)
            .map(|(&d, &c)| d.div_ceil(c))
            .collect();
        Ok(Self {
            dims: dims.to_vec(),
            chunk_shape,
            counts,
        })
    }

    /// Field shape, slowest axis first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Nominal (non-edge) chunk shape.
    pub fn chunk_shape(&self) -> &[usize] {
        &self.chunk_shape
    }

    /// Number of chunks along each axis.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Rank of the grid.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Total number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.counts.iter().product()
    }

    /// Per-axis chunk coordinates of chunk `idx` (row-major decomposition).
    pub fn chunk_coords(&self, idx: usize) -> Vec<usize> {
        debug_assert!(idx < self.n_chunks());
        let mut rem = idx;
        let mut coords = vec![0usize; self.counts.len()];
        for axis in (0..self.counts.len()).rev() {
            coords[axis] = rem % self.counts[axis];
            rem /= self.counts[axis];
        }
        coords
    }

    /// Linear chunk index of the given per-axis chunk coordinates.
    pub fn chunk_index(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.counts.len());
        let mut idx = 0usize;
        for (axis, &c) in coords.iter().enumerate() {
            debug_assert!(c < self.counts[axis]);
            idx = idx * self.counts[axis] + c;
        }
        idx
    }

    /// Element origin (slowest axis first) of chunk `idx`.
    pub fn chunk_origin(&self, idx: usize) -> Vec<usize> {
        self.chunk_coords(idx)
            .iter()
            .zip(&self.chunk_shape)
            .map(|(&c, &s)| c * s)
            .collect()
    }

    /// Actual shape of chunk `idx` (edge chunks are clamped to the field).
    pub fn chunk_shape_at(&self, idx: usize) -> Vec<usize> {
        self.chunk_origin(idx)
            .iter()
            .zip(self.chunk_shape.iter().zip(&self.dims))
            .map(|(&origin, (&chunk, &dim))| chunk.min(dim - origin))
            .collect()
    }

    /// Validate a requested region against the field shape.
    ///
    /// A region must have the grid's rank and every axis range must be
    /// non-empty and end within the axis.
    pub fn validate_region(&self, region: &[Range<u64>]) -> Result<(), StoreError> {
        if region.len() != self.dims.len() {
            return Err(StoreError::InvalidRegion(format!(
                "region rank {} does not match field rank {}",
                region.len(),
                self.dims.len()
            )));
        }
        for (axis, r) in region.iter().enumerate() {
            if r.start >= r.end {
                return Err(StoreError::InvalidRegion(format!(
                    "axis {axis}: empty range {}..{}",
                    r.start, r.end
                )));
            }
            if r.end > self.dims[axis] as u64 {
                return Err(StoreError::InvalidRegion(format!(
                    "axis {axis}: range {}..{} exceeds axis length {}",
                    r.start, r.end, self.dims[axis]
                )));
            }
        }
        Ok(())
    }

    /// Linear indices of every chunk that intersects `region`, in ascending
    /// order.  The region must already be valid (see
    /// [`validate_region`](Self::validate_region)).
    pub fn chunks_intersecting(&self, region: &[Range<u64>]) -> Result<Vec<usize>, StoreError> {
        self.validate_region(region)?;
        // Per-axis inclusive chunk-coordinate ranges.
        let spans: Vec<Range<usize>> = region
            .iter()
            .zip(&self.chunk_shape)
            .map(|(r, &c)| {
                let lo = (r.start as usize) / c;
                let hi = ((r.end - 1) as usize) / c;
                lo..hi + 1
            })
            .collect();
        let mut out = Vec::new();
        let mut coords: Vec<usize> = spans.iter().map(|s| s.start).collect();
        'outer: loop {
            out.push(self.chunk_index(&coords));
            // Row-major odometer over the spans.
            for axis in (0..coords.len()).rev() {
                coords[axis] += 1;
                if coords[axis] < spans[axis].end {
                    continue 'outer;
                }
                coords[axis] = spans[axis].start;
            }
            break;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_grid_has_expected_counts_and_shapes() {
        let grid = ChunkGrid::new(&[8, 16], &[4, 8]).unwrap();
        assert_eq!(grid.counts(), &[2, 2]);
        assert_eq!(grid.n_chunks(), 4);
        for idx in 0..4 {
            assert_eq!(grid.chunk_shape_at(idx), vec![4, 8]);
        }
        assert_eq!(grid.chunk_origin(3), vec![4, 8]);
    }

    #[test]
    fn edge_chunks_are_clamped() {
        let grid = ChunkGrid::new(&[10, 7], &[4, 4]).unwrap();
        assert_eq!(grid.counts(), &[3, 2]);
        assert_eq!(grid.chunk_shape_at(0), vec![4, 4]);
        assert_eq!(grid.chunk_shape_at(1), vec![4, 3]);
        assert_eq!(grid.chunk_shape_at(4), vec![2, 4]);
        assert_eq!(grid.chunk_shape_at(5), vec![2, 3]);
        // Every element is covered exactly once.
        let covered: usize = (0..grid.n_chunks())
            .map(|i| grid.chunk_shape_at(i).iter().product::<usize>())
            .sum();
        assert_eq!(covered, 70);
    }

    #[test]
    fn oversized_chunk_shape_collapses_to_one_chunk() {
        let grid = ChunkGrid::new(&[5, 5], &[100, 100]).unwrap();
        assert_eq!(grid.chunk_shape(), &[5, 5]);
        assert_eq!(grid.n_chunks(), 1);
    }

    #[test]
    fn coords_and_index_are_inverse() {
        let grid = ChunkGrid::new(&[9, 9, 9], &[2, 3, 4]).unwrap();
        for idx in 0..grid.n_chunks() {
            assert_eq!(grid.chunk_index(&grid.chunk_coords(idx)), idx);
        }
    }

    #[test]
    fn intersection_picks_exactly_the_overlapping_chunks() {
        let grid = ChunkGrid::new(&[8, 8], &[4, 4]).unwrap();
        assert_eq!(grid.chunks_intersecting(&[0..4, 0..4]).unwrap(), vec![0]);
        assert_eq!(
            grid.chunks_intersecting(&[0..8, 0..8]).unwrap(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(grid.chunks_intersecting(&[3..5, 0..4]).unwrap(), vec![0, 2]);
        assert_eq!(grid.chunks_intersecting(&[4..5, 3..5]).unwrap(), vec![2, 3]);
        // A single element touches a single chunk.
        assert_eq!(grid.chunks_intersecting(&[7..8, 7..8]).unwrap(), vec![3]);
    }

    #[test]
    fn invalid_regions_are_rejected() {
        let grid = ChunkGrid::new(&[8, 8], &[4, 4]).unwrap();
        assert!(grid.chunks_intersecting(&[0..8]).is_err());
        assert!(grid.chunks_intersecting(&[0..0, 0..8]).is_err());
        assert!(grid.chunks_intersecting(&[0..9, 0..8]).is_err());
        let reversed = Range { start: 5, end: 3 };
        assert!(grid.chunks_intersecting(&[reversed, 0..8]).is_err());
    }

    #[test]
    fn bad_grids_are_rejected() {
        assert!(ChunkGrid::new(&[], &[]).is_err());
        assert!(ChunkGrid::new(&[4, 4], &[4]).is_err());
        assert!(ChunkGrid::new(&[4, 0], &[2, 2]).is_err());
        assert!(ChunkGrid::new(&[4, 4], &[2, 0]).is_err());
    }
}
