//! Scientific floating-point dataset substrate for FRaZ-rs.
//!
//! The FRaZ paper evaluates on five SDRBench applications (Hurricane, HACC,
//! CESM-ATM, EXAALT, NYX), each a collection of *fields* sampled over a
//! sequence of *time-steps*, stored as flat little-endian `f32` arrays.  Those
//! raw archives are tens of gigabytes and cannot be redistributed, so this
//! crate provides:
//!
//! * [`Dataset`] / [`buffer::DataBuffer`] / [`dims::Dims`] — an N-dimensional
//!   (1-D to 4-D) container for single- or double-precision fields, with the
//!   statistics the codecs and the metrics crate need,
//! * [`Want`] / [`Encoded`] — what one codec `encode` call is asked for
//!   (length, stream or measured reconstruction) and what it produced,
//! * [`wire`] — the one little-endian [`wire::ByteWriter`] /
//!   [`wire::ByteReader`] pair every codec blob, FRZS container and service
//!   frame is written and parsed with, the validated reads of everything a
//!   decoder must not trust (dtype tag, grid shape, counts) and the blob
//!   prefix the codecs share ([`wire::DatasetHeader`]) and the one error
//!   every codec call fails with ([`CodecError`]),
//! * [`quant`] — the linear-scaling quantizer of prediction errors the
//!   SZ-like and MGARD-like codecs share, so the two sides of each stay
//!   bit-identical through one expression,
//! * [`region`] — row-run copies of n-dimensional boxes: the one box cut
//!   ([`Dataset::sub_box`]) and the paste the store's reader places decoded
//!   chunks with,
//! * [`io`] — readers and writers for the flat `.f32` / `.f64` layout used by
//!   SDRBench, so real archive files can be dropped in when available,
//! * [`synthetic`] — the one generator home: deterministic mimics of each
//!   application's dimensionality, field structure, smoothness, value range
//!   and temporal coherence, and the six oracle regimes (smooth … noise),
//!   on one spectral core and behind one name lookup
//!   ([`synthetic::generate`]).  These are the workloads every experiment
//!   reproduction, baseline and fixture stands on,
//! * [`catalog`] — Table-III-style descriptors of the synthetic applications,
//! * [`manifest`] — declarative dataset manifests (field name, file or
//!   generator, dtype, dims, target) that let the `fraz` CLI run FRaZ over a
//!   directory of real archive files — or no files at all — without any
//!   Rust code.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod catalog;
pub mod dims;
pub mod io;
pub mod manifest;
pub mod quant;
pub mod region;
pub mod synthetic;
pub mod wire;

use std::fmt;
use std::ops::Range;

pub use buffer::{DType, DataBuffer};
pub use dims::Dims;
pub use wire::CodecError;

/// What one codec `encode` call is asked to produce.  Each codec has one
/// encoder; the caller says how much of its work it needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Want {
    /// At least the stream's length.  A codec that has to write its stream
    /// to know the length hands the stream back too, and one that rebuilt
    /// the field as it encoded hands that back as well.
    Size,
    /// The stream.
    Stream,
    /// The length and the reconstruction the decoder rebuilds from the
    /// stream, bit for bit — plus, as for [`Want::Size`], the stream where
    /// the encoder had to write it to learn the length (sz, zfp, mgard; szx
    /// sizes and rebuilds without packing).  No encoder decodes its stream
    /// to get it: each rebuilds the field as it encodes (zfp from the bits
    /// it wrote, through its decoder's block tail).
    Measured,
}

/// What one codec `encode` call produced.
#[derive(Debug)]
pub struct Encoded {
    /// The stream's length in bytes.
    pub len: usize,
    /// The stream, when the encoder wrote it: always for [`Want::Stream`],
    /// and for the other two wants only where the length took it (sz, zfp,
    /// mgard — not szx).
    pub stream: Option<Vec<u8>>,
    /// The decoder's reconstruction, bit for bit: always for
    /// [`Want::Measured`], in the dataset's dtype, whether or not a stream
    /// was written; for [`Want::Size`] when the encoder built it anyway
    /// (sz, mgard), as the encoder's own `f64` buffer — its values already
    /// rounded to the dataset's precision, so any report over it is the
    /// report over the narrowed buffer.
    pub recon: Option<DataBuffer>,
}

impl Encoded {
    /// A written `stream`, with the reconstruction when one was asked for.
    pub fn written(stream: Vec<u8>, recon: Option<DataBuffer>) -> Self {
        Self {
            len: stream.len(),
            stream: Some(stream),
            recon,
        }
    }

    /// The stream of a [`Want::Stream`] encode.
    ///
    /// # Panics
    /// Panics if the encoder wrote no stream — which a [`Want::Size`] or
    /// [`Want::Measured`] encode need not have.
    pub fn into_stream(self) -> Vec<u8> {
        self.stream.expect("a stream was asked for")
    }
}

/// One field of one application at one time-step — the unit of compression
/// (the paper's `D_{f,t}`).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Application name, e.g. `"hurricane"`.
    pub application: String,
    /// Field name, e.g. `"CLOUDf"`.
    pub field: String,
    /// Time-step index within the field's series.
    pub timestep: usize,
    /// Grid dimensions (slowest-varying first).
    pub dims: Dims,
    /// The values themselves.
    pub buffer: DataBuffer,
}

impl Dataset {
    /// Construct a dataset from single-precision values.
    ///
    /// # Panics
    /// Panics if `values.len()` does not match `dims.len()`.
    pub fn from_f32(
        application: impl Into<String>,
        field: impl Into<String>,
        timestep: usize,
        dims: Dims,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(
            values.len(),
            dims.len(),
            "value count must match the grid size"
        );
        Self {
            application: application.into(),
            field: field.into(),
            timestep,
            dims,
            buffer: DataBuffer::F32(values),
        }
    }

    /// Construct a dataset from double-precision values.
    ///
    /// # Panics
    /// Panics if `values.len()` does not match `dims.len()`.
    pub fn from_f64(
        application: impl Into<String>,
        field: impl Into<String>,
        timestep: usize,
        dims: Dims,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(
            values.len(),
            dims.len(),
            "value count must match the grid size"
        );
        Self {
            application: application.into(),
            field: field.into(),
            timestep,
            dims,
            buffer: DataBuffer::F64(values),
        }
    }

    /// Number of data points (`n` in the paper).
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// True when the grid holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Uncompressed size in bytes (`s(D_{f,t})`).
    pub fn byte_size(&self) -> usize {
        self.buffer.byte_size()
    }

    /// Element type of the buffer.
    pub fn dtype(&self) -> DType {
        self.buffer.dtype()
    }

    /// Values widened to `f64` regardless of storage type.
    pub fn values_f64(&self) -> Vec<f64> {
        self.buffer.to_f64_vec()
    }

    /// Summary statistics over the field, read from the typed buffer.
    pub fn stats(&self) -> FieldStats {
        match &self.buffer {
            DataBuffer::F32(v) => FieldStats::of(v),
            DataBuffer::F64(v) => FieldStats::of(v),
        }
    }

    /// `max - min` over the field — [`FieldStats::value_range`] of
    /// [`Dataset::stats`], bit for bit, in one pass and without the mean
    /// and deviation nobody asked for.  This is what a value-range-relative
    /// bound is relative to, so every search pays it at least once.
    pub fn value_range(&self) -> f64 {
        let (min, max) = match &self.buffer {
            DataBuffer::F32(v) => min_max(v),
            DataBuffer::F64(v) => min_max(v),
        };
        max - min
    }

    /// Extract a 2-D slice (the last two dimensions) at the given index of
    /// the slowest dimension, for visual-quality metrics.  For 1-D and 2-D
    /// data the whole field is returned reshaped to 2-D.  Only the slice is
    /// widened to `f64`.
    pub fn slice2d(&self, index: usize) -> (usize, usize, Vec<f64>) {
        let (rows, cols, range) = self.plane2d(index);
        let values = match &self.buffer {
            DataBuffer::F32(v) => v[range].iter().map(|&x| x as f64).collect(),
            DataBuffer::F64(v) => v[range].to_vec(),
        };
        (rows, cols, values)
    }

    /// Where [`slice2d`](Self::slice2d)'s slice lies: `(rows, cols, range)`
    /// with `range` the buffer indices it spans — a plane is contiguous, so
    /// a reader can take it in place at the buffer's own precision.
    pub fn plane2d(&self, index: usize) -> (usize, usize, Range<usize>) {
        let d = self.dims.as_slice();
        match d.len() {
            0 => (0, 0, 0..0),
            1 => (1, d[0], 0..self.len()),
            2 => (d[0], d[1], 0..self.len()),
            _ => {
                let rows = d[d.len() - 2];
                let cols = d[d.len() - 1];
                let plane = rows * cols;
                let nplanes = self.len() / plane;
                let idx = index.min(nplanes.saturating_sub(1));
                let start = idx * plane;
                (rows, cols, start..start + plane)
            }
        }
    }

    /// The box `origin..origin + shape` of this field, as a field of its
    /// own: same names and time-step, same precision, values in row-major
    /// order.
    pub fn sub_box(&self, origin: &[usize], shape: &[usize]) -> Dataset {
        Dataset {
            application: self.application.clone(),
            field: self.field.clone(),
            timestep: self.timestep,
            dims: Dims::new(shape),
            buffer: region::extract_buffer(&self.buffer, self.dims.as_slice(), origin, shape),
        }
    }

    /// A descriptive identifier used in experiment logs.
    pub fn label(&self) -> String {
        format!("{}:{}:t{}", self.application, self.field, self.timestep)
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} field={} t={} dims={} dtype={:?}",
            self.application,
            self.field,
            self.timestep,
            self.dims,
            self.dtype()
        )
    }
}

/// Summary statistics of a field, used by codecs (value-range-relative error
/// bounds) and metrics (PSNR normalization).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldStats {
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub std_dev: f64,
}

/// `(min, max)` of the values, NaNs ignored; `(0, 0)` when there are none.
///
/// Eight running extremes side by side, folded at the end: a compare and a
/// select per value compile to packed `min`/`max`, where one running
/// extreme is a chain of dependent scalar ones.  The extremes do not depend
/// on the order they are found in (the sign of a zero extreme is whichever
/// zero was met first, as unspecified as `f64::min` leaves it).
fn min_max<T: Copy + Into<f64>>(values: &[T]) -> (f64, f64) {
    const LANES: usize = 8;
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mut min = [f64::INFINITY; LANES];
    let mut max = [f64::NEG_INFINITY; LANES];
    let mut meet = |lane: usize, v: f64| {
        min[lane] = if v < min[lane] { v } else { min[lane] };
        max[lane] = if v > max[lane] { v } else { max[lane] };
    };
    let chunks = values.chunks_exact(LANES);
    for &v in chunks.remainder() {
        meet(0, v.into());
    }
    for chunk in chunks {
        for (lane, &v) in chunk.iter().enumerate() {
            meet(lane, v.into());
        }
    }
    (
        min.into_iter().fold(f64::INFINITY, f64::min),
        max.into_iter().fold(f64::NEG_INFINITY, f64::max),
    )
}

impl FieldStats {
    /// Compute statistics over a slice; an empty slice yields all zeros.
    pub fn compute(values: &[f64]) -> Self {
        Self::of(values)
    }

    /// [`compute`](Self::compute) over a typed buffer: widening is exact, so
    /// an `f32` field sums to what its `f64` copy would, without the copy.
    fn of<T: Copy + Into<f64>>(values: &[T]) -> Self {
        if values.is_empty() {
            return Self {
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                std_dev: 0.0,
            };
        }
        let n = values.len() as f64;
        let (min, max) = min_max(values);
        let mut sum = 0.0;
        for &v in values {
            sum += v.into();
        }
        let mean = sum / n;
        let var = values
            .iter()
            .map(|&v| (v.into() - mean) * (v.into() - mean))
            .sum::<f64>()
            / n;
        Self {
            min,
            max,
            mean,
            std_dev: var.sqrt(),
        }
    }

    /// `max - min`, the normalization used for value-range-relative bounds
    /// and PSNR.
    pub fn value_range(&self) -> f64 {
        self.max - self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_construction_and_accessors() {
        let d = Dataset::from_f32("app", "field", 3, Dims::d2(4, 5), vec![1.0; 20]);
        assert_eq!(d.len(), 20);
        assert_eq!(d.byte_size(), 80);
        assert_eq!(d.dtype(), DType::F32);
        assert_eq!(d.timestep, 3);
        assert!(!d.is_empty());
        assert_eq!(d.label(), "app:field:t3");
        assert!(d.to_string().contains("field=field"));
    }

    #[test]
    #[should_panic(expected = "value count must match")]
    fn mismatched_length_panics() {
        let _ = Dataset::from_f32("a", "b", 0, Dims::d1(10), vec![0.0; 5]);
    }

    #[test]
    fn stats_are_correct() {
        let d = Dataset::from_f64("a", "b", 0, Dims::d1(4), vec![1.0, 2.0, 3.0, 4.0]);
        let s = d.stats();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.value_range(), 3.0);
    }

    #[test]
    fn value_range_is_the_stats_range_bit_for_bit() {
        let mixed = vec![0.1f32, -3.75, 2.5e-7, 1.0e9, -0.0, 42.0];
        for d in [
            Dataset::from_f32("a", "b", 0, Dims::d1(6), mixed.clone()),
            Dataset::from_f64(
                "a",
                "b",
                0,
                Dims::d2(2, 3),
                mixed.iter().map(|&v| v as f64 / 3.0).collect(),
            ),
            Dataset::from_f64("a", "b", 0, Dims::d1(3), vec![7.0, f64::NAN, 9.0]),
            Dataset::from_f32("a", "b", 0, Dims::d1(2), vec![f32::INFINITY, 1.0]),
            Dataset::from_f32("a", "b", 0, Dims::d1(3), vec![4.0; 3]),
        ] {
            let expected = FieldStats::compute(&d.values_f64());
            assert_eq!(
                d.value_range().to_bits(),
                expected.value_range().to_bits(),
                "{d}"
            );
            let streamed = d.stats();
            assert_eq!(streamed.mean.to_bits(), expected.mean.to_bits(), "{d}");
            assert_eq!(
                streamed.std_dev.to_bits(),
                expected.std_dev.to_bits(),
                "{d}"
            );
        }
        let mut empty = Dataset::from_f32("a", "b", 0, Dims::d1(1), vec![1.0]);
        empty.buffer = DataBuffer::F32(Vec::new());
        assert_eq!(empty.value_range(), 0.0);
    }

    #[test]
    fn stats_of_empty_are_zero() {
        let s = FieldStats::compute(&[]);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.value_range(), 0.0);
    }

    #[test]
    fn slice2d_of_3d_extracts_plane() {
        // dims 2x3x4: plane = 12 values.
        let values: Vec<f32> = (0..24).map(|i| i as f32).collect();
        let d = Dataset::from_f32("a", "b", 0, Dims::d3(2, 3, 4), values);
        let (rows, cols, plane) = d.slice2d(1);
        assert_eq!((rows, cols), (3, 4));
        assert_eq!(plane.len(), 12);
        assert_eq!(plane[0], 12.0);
    }

    #[test]
    fn slice2d_of_1d_and_2d() {
        let d1 = Dataset::from_f32("a", "b", 0, Dims::d1(6), vec![0.0; 6]);
        assert_eq!(d1.slice2d(0).0, 1);
        let d2 = Dataset::from_f32("a", "b", 0, Dims::d2(2, 3), vec![0.0; 6]);
        assert_eq!(d2.slice2d(5), (2, 3, vec![0.0; 6]));
    }

    /// `slice2d` as it was: widen the whole field, then cut the plane.
    fn slice2d_widening_everything(d: &Dataset, index: usize) -> (usize, usize, Vec<f64>) {
        let values = d.buffer.to_f64_vec();
        let dims = d.dims.as_slice();
        match dims.len() {
            0 => (0, 0, Vec::new()),
            1 => (1, dims[0], values),
            2 => (dims[0], dims[1], values),
            _ => {
                let rows = dims[dims.len() - 2];
                let cols = dims[dims.len() - 1];
                let plane = rows * cols;
                let nplanes = d.len() / plane;
                let idx = index.min(nplanes.saturating_sub(1));
                let start = idx * plane;
                (rows, cols, values[start..start + plane].to_vec())
            }
        }
    }

    #[test]
    fn slice2d_is_the_old_definition_for_every_rank() {
        let shapes = [
            Dims::d1(1),
            Dims::d1(7),
            Dims::d2(1, 1),
            Dims::d2(3, 5),
            Dims::d3(1, 2, 3),
            Dims::d3(4, 3, 2),
            Dims::d4(1, 1, 1, 1),
            Dims::d4(3, 2, 4, 5),
        ];
        for dims in shapes {
            let n = dims.len();
            let wide: Vec<f64> = (0..n).map(|i| i as f64 * 0.37 - 1.5).collect();
            let narrow: Vec<f32> = wide.iter().map(|&v| v as f32).collect();
            for d in [
                Dataset::from_f64("a", "b", 0, dims.clone(), wide.clone()),
                Dataset::from_f32("a", "b", 0, dims.clone(), narrow),
            ] {
                for index in [0, 1, 2, 3, 1000] {
                    let (rows, cols, plane) = d.slice2d(index);
                    let (old_rows, old_cols, old_plane) = slice2d_widening_everything(&d, index);
                    assert_eq!((rows, cols), (old_rows, old_cols), "{d} at {index}");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&plane), bits(&old_plane), "{d} at {index}");
                    let (_, _, range) = d.plane2d(index);
                    assert_eq!(range.len(), plane.len(), "{d} at {index}");
                }
            }
        }
    }

    #[test]
    fn values_f64_widens() {
        let d = Dataset::from_f32("a", "b", 0, Dims::d1(2), vec![1.5, -2.25]);
        assert_eq!(d.values_f64(), vec![1.5, -2.25]);
    }
}
