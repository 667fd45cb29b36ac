//! Row-run copies between n-dimensional arrays.
//!
//! `copy_box` moves whole rows along the fastest-varying (last) axis, so
//! the inner loop is a contiguous `copy_from_slice` and the odometer only
//! walks the outer axes.  It is the one box cut of the workspace:
//! [`Dataset::sub_box`](crate::Dataset::sub_box) cuts a store chunk or a
//! search's sample out of a field, and the store's reader pastes each
//! decoded chunk's intersection with a request straight into the output
//! with [`copy_box_buffer`].
//!
//! A region request to a codec (`Compressor::decompress_region`) is checked
//! here too: [`check_region`] before anything is decoded, and
//! [`check_stream_dims`] once the stream's own grid is known, so every
//! codec refuses a bad request with the same typed error.

use std::ops::Range;

use crate::{CodecError, DataBuffer, Dims};

/// Check that `region` (one range per axis, slowest first) is a non-empty
/// box of a `dims` grid; anything else is [`CodecError::InvalidRegion`].
pub fn check_region(dims: &Dims, region: &[Range<usize>]) -> Result<(), CodecError> {
    if region.len() != dims.ndims() {
        return Err(CodecError::InvalidRegion(format!(
            "a {}-D region of a {}-D grid",
            region.len(),
            dims.ndims()
        )));
    }
    for (axis, (r, &d)) in region.iter().zip(dims.as_slice()).enumerate() {
        if r.start >= r.end || r.end > d {
            return Err(CodecError::InvalidRegion(format!(
                "axis {axis}: {r:?} is not a non-empty range of 0..{d}"
            )));
        }
    }
    Ok(())
}

/// Check that a stream holds the grid its caller expects: a region of any
/// other grid would be cut from the wrong values, so a mismatch is a corrupt
/// stream ([`CodecError::Codec`]).
pub fn check_stream_dims(stream: &Dims, expected: &Dims) -> Result<(), CodecError> {
    if stream != expected {
        return Err(CodecError::Codec(format!(
            "stream dims {:?} do not match grid shape {:?}",
            stream.as_slice(),
            expected.as_slice()
        )));
    }
    Ok(())
}

fn strides(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for axis in (0..dims.len().saturating_sub(1)).rev() {
        strides[axis] = strides[axis + 1] * dims[axis + 1];
    }
    strides
}

/// Copy the box of shape `shape` at `src_origin` of an array of shape
/// `src_dims` to `dst_origin` of an array of shape `dst_dims`.
fn copy_box<T: Copy>(
    src: &[T],
    src_dims: &[usize],
    src_origin: &[usize],
    dst: &mut [T],
    dst_dims: &[usize],
    dst_origin: &[usize],
    shape: &[usize],
) {
    let fits = |dims: &[usize], origin: &[usize]| {
        dims.len() == shape.len()
            && origin.len() == shape.len()
            && origin
                .iter()
                .zip(shape.iter().zip(dims))
                .all(|(&o, (&s, &d))| o + s <= d)
    };
    debug_assert!(fits(src_dims, src_origin) && fits(dst_dims, dst_origin));
    let (src_strides, dst_strides) = (strides(src_dims), strides(dst_dims));
    let last = shape.len() - 1;
    let row = shape[last];
    let outer: usize = shape[..last].iter().product();
    let mut coords = vec![0usize; last];
    for _ in 0..outer {
        let at = |origin: &[usize], strides: &[usize]| {
            let rows: usize = coords
                .iter()
                .enumerate()
                .map(|(axis, &c)| (origin[axis] + c) * strides[axis])
                .sum();
            rows + origin[last]
        };
        let (s, d) = (at(src_origin, &src_strides), at(dst_origin, &dst_strides));
        dst[d..d + row].copy_from_slice(&src[s..s + row]);
        for axis in (0..last).rev() {
            coords[axis] += 1;
            if coords[axis] < shape[axis] {
                break;
            }
            coords[axis] = 0;
        }
    }
}

/// Copy the box `origin..origin+shape` out of an array of shape `dims`.
fn extract<T: Copy + Default>(
    src: &[T],
    dims: &[usize],
    origin: &[usize],
    shape: &[usize],
) -> Vec<T> {
    let mut out = vec![T::default(); shape.iter().product()];
    copy_box(
        src,
        dims,
        origin,
        &mut out,
        shape,
        &vec![0; shape.len()],
        shape,
    );
    out
}

/// `extract` lifted over [`DataBuffer`], preserving the element type.
pub(crate) fn extract_buffer(
    src: &DataBuffer,
    dims: &[usize],
    origin: &[usize],
    shape: &[usize],
) -> DataBuffer {
    match src {
        DataBuffer::F32(values) => DataBuffer::F32(extract(values, dims, origin, shape)),
        DataBuffer::F64(values) => DataBuffer::F64(extract(values, dims, origin, shape)),
    }
}

/// `copy_box` lifted over [`DataBuffer`]; panics if the element types
/// differ (the store's reader validates chunk dtypes before calling this).
pub fn copy_box_buffer(
    src: &DataBuffer,
    src_dims: &[usize],
    src_origin: &[usize],
    dst: &mut DataBuffer,
    dst_dims: &[usize],
    dst_origin: &[usize],
    shape: &[usize],
) {
    match (src, dst) {
        (DataBuffer::F32(src), DataBuffer::F32(dst)) => {
            copy_box(src, src_dims, src_origin, dst, dst_dims, dst_origin, shape)
        }
        (DataBuffer::F64(src), DataBuffer::F64(dst)) => {
            copy_box(src, src_dims, src_origin, dst, dst_dims, dst_origin, shape)
        }
        _ => panic!("dtype mismatch between copy source and destination"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_checks_are_typed_errors() {
        let dims = Dims::d3(4, 5, 6);
        assert_eq!(check_region(&dims, &[0..4, 0..5, 0..6]), Ok(()));
        assert_eq!(check_region(&dims, &[3..4, 4..5, 5..6]), Ok(()));
        for bad in [
            vec![0..4, 0..5],
            vec![0..4, 0..5, 0..6, 0..1],
            vec![0..4, 2..2, 0..6],
            vec![0..4, Range { start: 3, end: 2 }, 0..6],
            vec![0..4, 0..5, 0..7],
        ] {
            assert!(
                matches!(check_region(&dims, &bad), Err(CodecError::InvalidRegion(_))),
                "{bad:?}"
            );
        }
        assert_eq!(check_stream_dims(&dims, &Dims::d3(4, 5, 6)), Ok(()));
        assert!(matches!(
            check_stream_dims(&Dims::d3(4, 5, 7), &dims),
            Err(CodecError::Codec(msg)) if msg.contains("do not match grid shape")
        ));
    }

    #[test]
    fn extract_1d_is_a_plain_slice() {
        let src: Vec<i32> = (0..10).collect();
        assert_eq!(extract(&src, &[10], &[3], &[4]), vec![3, 4, 5, 6]);
    }

    #[test]
    fn extract_2d_cuts_the_expected_box() {
        // 3 x 4, row-major.
        let src: Vec<i32> = (0..12).collect();
        assert_eq!(extract(&src, &[3, 4], &[1, 1], &[2, 2]), vec![5, 6, 9, 10]);
    }

    #[test]
    fn extract_3d_cuts_the_expected_box() {
        let src: Vec<i32> = (0..24).collect(); // 2 x 3 x 4
        assert_eq!(
            extract(&src, &[2, 3, 4], &[0, 1, 2], &[2, 1, 2]),
            vec![6, 7, 18, 19]
        );
    }

    #[test]
    fn copy_box_pastes_what_extract_cut() {
        let dims = [3usize, 4, 5];
        let src: Vec<i32> = (0..60).collect();
        let origin = [1usize, 2, 1];
        let shape = [2usize, 2, 3];
        let cut = extract(&src, &dims, &origin, &shape);
        let mut dst = vec![0i32; 60];
        copy_box(&cut, &shape, &[0, 0, 0], &mut dst, &dims, &origin, &shape);
        for (i, (&got, &want)) in dst.iter().zip(&src).enumerate() {
            let coords = [i / 20, (i / 5) % 4, i % 5];
            let inside = coords
                .iter()
                .zip(origin.iter().zip(&shape))
                .all(|(&c, (&o, &s))| c >= o && c < o + s);
            if inside {
                assert_eq!(got, want, "inside at {coords:?}");
            } else {
                assert_eq!(got, 0, "outside at {coords:?}");
            }
        }
    }

    #[test]
    fn copy_box_is_extract_then_paste_between_unequal_arrays() {
        // A 3 x 5 chunk's lower-right 2 x 3 corner into a 4 x 6 region at
        // (1, 2): what the reader does with one chunk of a request.
        let chunk: Vec<i32> = (0..15).collect();
        let mut region = vec![-1i32; 24];
        copy_box(
            &chunk,
            &[3, 5],
            &[1, 2],
            &mut region,
            &[4, 6],
            &[1, 2],
            &[2, 3],
        );
        let mut expected = vec![-1i32; 24];
        for (r, c) in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)] {
            expected[(1 + r) * 6 + 2 + c] = chunk[(1 + r) * 5 + 2 + c];
        }
        assert_eq!(region, expected);
        // 1-D: a plain slice copy.
        let mut line = vec![0i32; 10];
        copy_box(&[7, 8, 9, 10], &[4], &[1], &mut line, &[10], &[6], &[3]);
        assert_eq!(line, vec![0, 0, 0, 0, 0, 0, 8, 9, 10, 0]);
    }

    #[test]
    fn whole_array_extract_is_identity() {
        let src: Vec<i32> = (0..24).collect();
        assert_eq!(extract(&src, &[4, 6], &[0, 0], &[4, 6]), src);
    }
}
