//! An SZ-like error-bounded lossy compressor for scientific floating-point
//! data.
//!
//! This crate re-implements, from scratch and in safe Rust, the four-stage
//! compression model the FRaZ paper describes for SZ 2.x (§II-A1):
//!
//! 1. **Data prediction** — each grid block chooses between a 1-layer Lorenzo
//!    predictor and a per-block linear regression plane ([`predict`]).
//! 2. **Linear-scaling quantization** — prediction errors are quantized to
//!    integer codes under a user-specified absolute error bound
//!    ([`pipeline`]); points that cannot be represented within the bound are
//!    stored exactly.
//! 3. **Entropy encoding** — the quantization codes are Huffman coded
//!    (via [`fraz_lossless::huffman`]).
//! 4. **Dictionary encoding** — the entropy-coded stream (plus block
//!    metadata and unpredictable values) is passed through the LZSS
//!    dictionary coder (via [`fraz_lossless::compress`]), the stage that
//!    produces the non-monotonic ratio-vs-bound behaviour the paper
//!    documents in Fig. 3.  `fraz_lossless::compress` holds one reusable
//!    [`fraz_lossless::lzss::LzssEncoder`] per thread, so the fixed-ratio
//!    search loop — which calls [`compress`] once per candidate bound from
//!    the shared work-stealing pool — reuses one hash-chain/token scratch
//!    per pool worker instead of reallocating it every evaluation.
//!
//! [`decompress_region`] decodes one box of the grid for less than the
//! whole: only the blocks from the grid's origin to the box's far corner
//! (see [`pipeline`]).  [`decompress`] is the same decoder run to the
//! grid's far corner.
//!
//! The absolute error bound is a hard guarantee:
//! `max_i |d_i − d'_i| ≤ error_bound` for every input (verified by unit and
//! property tests).
//!
//! # Example
//!
//! ```
//! use fraz_data::{Dataset, Dims};
//! use fraz_sz::{compress, decompress, SzConfig};
//!
//! let values: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
//! let original = Dataset::from_f32("demo", "wave", 0, Dims::d3(16, 16, 16), values);
//! let config = SzConfig::with_error_bound(1e-3);
//! let compressed = compress(&original, &config).unwrap();
//! let restored = decompress(&compressed).unwrap();
//! let worst = original
//!     .values_f64()
//!     .iter()
//!     .zip(restored.values_f64().iter())
//!     .map(|(a, b)| (a - b).abs())
//!     .fold(0.0f64, f64::max);
//! assert!(worst <= 1e-3);
//! assert!(compressed.len() < original.byte_size());
//! ```

#![forbid(unsafe_code)]

pub mod pipeline;
pub mod predict;

use std::ops::Range;

use fraz_data::wire::{ByteReader, ByteWriter, DatasetHeader};
use fraz_data::{CodecError, DType, DataBuffer, Dataset, Dims, Element, Encoded, Want};
use fraz_lossless::huffman;

use pipeline::{EncodedBlocks, PipelineParams};

/// Stream magic ("FSZ1").
const MAGIC: u32 = 0x4653_5A31;
/// Format version.
const VERSION: u8 = 1;

/// Configuration of the SZ-like compressor.
#[derive(Debug, Clone, PartialEq)]
pub struct SzConfig {
    /// Absolute error bound (must be positive and finite).
    pub error_bound: f64,
    /// Block edge length; `None` selects 6 for 3-D, 16 for 2-D and 256 for
    /// 1-D data (the defaults the SZ papers use).
    pub block_size: Option<usize>,
    /// Number of linear-scaling quantization bins.
    pub quant_capacity: u32,
}

impl Default for SzConfig {
    fn default() -> Self {
        Self {
            error_bound: 1e-3,
            block_size: None,
            quant_capacity: 65536,
        }
    }
}

impl SzConfig {
    /// Configuration with the given absolute error bound and default
    /// block/quantization settings.
    pub fn with_error_bound(error_bound: f64) -> Self {
        Self {
            error_bound,
            ..Default::default()
        }
    }

    fn block_for(&self, ndims: usize) -> usize {
        self.block_size.unwrap_or(match ndims {
            1 => 256,
            2 => 16,
            _ => 6,
        })
    }

    fn validate(&self) -> Result<(), CodecError> {
        if !(self.error_bound > 0.0 && self.error_bound.is_finite()) {
            return Err(CodecError::InvalidBound(format!(
                "error bound must be positive and finite, got {}",
                self.error_bound
            )));
        }
        if self.quant_capacity < 4 || self.quant_capacity > (1 << 24) {
            return Err(CodecError::InvalidBound(format!(
                "quantization capacity {} out of range [4, 2^24]",
                self.quant_capacity
            )));
        }
        if let Some(b) = self.block_size {
            if b == 0 {
                return Err(CodecError::InvalidBound(
                    "block size must be non-zero".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Compress a dataset under an absolute error bound.
pub fn compress(dataset: &Dataset, config: &SzConfig) -> Result<Vec<u8>, CodecError> {
    encode(dataset, config, Want::Stream).map(Encoded::into_stream)
}

/// The one encoder.  Every `want` writes the stream; [`Want::Measured`]
/// adds the reconstruction [`decompress`] would rebuild from it — bit for
/// bit, since the encoder computes every value the decoder will (it
/// predicts from them) — without decoding anything.  [`Want::Size`] hands
/// the same values back as the encoder's own `f64` buffer, without
/// narrowing it.
pub fn encode(dataset: &Dataset, config: &SzConfig, want: Want) -> Result<Encoded, CodecError> {
    config.validate()?;
    let dims3 = dataset.dims.fold_3d();
    let block = config.block_for(dataset.dims.ndims());
    let params = PipelineParams {
        error_bound: config.error_bound,
        block_size: block,
        capacity: config.quant_capacity,
    };
    let dtype = dataset.dtype();
    let (enc, recon) = match &dataset.buffer {
        DataBuffer::F32(values) => pipeline::encode(values, dims3, &params, |v| v as f32 as f64),
        DataBuffer::F64(values) => pipeline::encode(values, dims3, &params, |v| v),
    };

    // ---- header (uncompressed) ----
    let mut header = ByteWriter::with_capacity(64);
    DatasetHeader::write(dataset, MAGIC, VERSION, &mut header);
    header.put_f64(config.error_bound);
    header.put_u32(block as u32);
    header.put_u32(config.quant_capacity);

    // ---- body (dictionary-coded) ----
    let mut body = ByteWriter::with_capacity(dataset.len());
    body.put_u64(enc.regression_flags.len() as u64);
    let mut flag_bytes = vec![0u8; enc.regression_flags.len().div_ceil(8)];
    for (i, &flag) in enc.regression_flags.iter().enumerate() {
        if flag {
            flag_bytes[i / 8] |= 1 << (i % 8);
        }
    }
    body.put_bytes(&flag_bytes);
    body.put_u64(enc.reg_coeffs.len() as u64);
    for c in &enc.reg_coeffs {
        for &v in c {
            body.put_f32(v);
        }
    }
    body.put_section(&huffman::encode_symbols(&enc.quant_codes));
    body.put_values(&enc.unpredictable, dtype);

    let mut out = header.into_bytes();
    out.extend_from_slice(&fraz_lossless::compress(&body.into_bytes()));
    let recon = match want {
        Want::Size => Some(DataBuffer::F64(recon)),
        Want::Stream => None,
        Want::Measured => Some(DataBuffer::from_f64(recon, dtype)),
    };
    Ok(Encoded::written(out, recon))
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Dataset, CodecError> {
    decode(data, None)
}

/// Decompress the box `region` (one range per axis, slowest first) of a
/// stream produced by [`compress`] from a `dims` grid: the region's values,
/// bit for bit the ones [`decompress`] gives there, shaped like the region.
///
/// Only the blocks whose origin lies below the region's far corner on every
/// axis are rebuilt ([`pipeline::Reach`]), and only the Huffman codes up to
/// the last of them are decoded.  A region that is not a non-empty box of
/// `dims` is [`CodecError::InvalidRegion`]; a stream of another grid is
/// [`CodecError::Codec`].
pub fn decompress_region(
    data: &[u8],
    dims: &Dims,
    region: &[Range<usize>],
) -> Result<Dataset, CodecError> {
    fraz_data::region::check_region(dims, region)?;
    decode(data, Some((dims, region)))
}

/// The one decoder: the region `want` names of a stream of the grid it
/// names, or for `None` the stream's whole grid.
fn decode(data: &[u8], want: Option<(&Dims, &[Range<usize>])>) -> Result<Dataset, CodecError> {
    let mut r = ByteReader::new(data);
    let head = DatasetHeader::read(&mut r, MAGIC, VERSION)?;
    let (dtype, dims) = (head.dtype, &head.dims);
    let whole: Vec<Range<usize>>;
    let region = match want {
        Some((expected, region)) => {
            fraz_data::region::check_stream_dims(dims, expected)?;
            region
        }
        None => {
            whole = dims.as_slice().iter().map(|&d| 0..d).collect();
            &whole
        }
    };
    let error_bound = r.get_f64()?;
    let block = r.get_u32()? as usize;
    let capacity = r.get_u32()?;
    if !(error_bound > 0.0 && error_bound.is_finite()) || block == 0 || capacity < 4 {
        return Err(CodecError::Codec(
            "invalid codec parameters in header".into(),
        ));
    }
    let dims3 = dims.fold_3d();
    let upto = folded_end(dims, region);
    let reach = pipeline::Reach::of(dims3, upto, block);

    let body = fraz_lossless::decompress(r.rest()).map_err(CodecError::corrupt)?;
    let mut b = ByteReader::new(&body);
    let num_blocks = b.get_u64()? as usize;
    let flag_bytes = b.get_bytes(num_blocks.div_ceil(8))?;
    let regression_flags: Vec<bool> = (0..num_blocks)
        .map(|i| flag_bytes[i / 8] & (1 << (i % 8)) != 0)
        .collect();
    let num_coeffs = b.get_count(16)?;
    if num_coeffs > num_blocks {
        return Err(CodecError::Codec(
            "more coefficient sets than blocks".into(),
        ));
    }
    let mut reg_coeffs = Vec::with_capacity(num_coeffs);
    for _ in 0..num_coeffs {
        let mut c = [0f32; 4];
        for v in c.iter_mut() {
            *v = b.get_f32()?;
        }
        reg_coeffs.push(c);
    }
    // The codes up to the last block the region needs; the section's length
    // prefix steps over the rest to the unpredictable values.
    let quant_codes =
        huffman::decode_prefix(b.get_section()?, reach.points).map_err(CodecError::corrupt)?;
    let unpredictable = b.get_values(dtype)?;
    if unpredictable.len() > dims.len() {
        return Err(CodecError::Codec(
            "unpredictable count exceeds grid size".into(),
        ));
    }

    let enc = EncodedBlocks {
        regression_flags,
        reg_coeffs,
        quant_codes,
        unpredictable,
    };
    let params = PipelineParams {
        error_bound,
        block_size: block,
        capacity,
    };
    let values = match dtype {
        DType::F32 => pipeline::decode(&enc, dims3, upto, &params, |v| v as f32 as f64),
        DType::F64 => pipeline::decode(&enc, dims3, upto, &params, |v| v),
    }?;

    let shape: Vec<usize> = region.iter().map(|r| r.len()).collect();
    let buffer = if shape.iter().product::<usize>() == values.len() {
        // The region is the whole box: the values are its, in order.
        DataBuffer::from_f64(values, dtype)
    } else {
        match dtype {
            DType::F32 => DataBuffer::F32(crop(&values, reach.box_dims, dims, region)),
            DType::F64 => DataBuffer::F64(crop(&values, reach.box_dims, dims, region)),
        }
    };
    let mut head = head;
    head.dims = Dims::new(&shape);
    Ok(head.into_dataset(buffer))
}

/// The position of the point `at` (one coordinate per axis) of a `dims`
/// grid on the grid folded to 3-D, the way [`Dims::fold_3d`] folds it: a
/// 1-D or 2-D point gains leading zeros, and a 4-D point's two leading
/// coordinates fold into one.
fn folded(dims: &[usize], at: &[usize]) -> [usize; 3] {
    let k = at.len();
    let lead = at[..k.saturating_sub(2)]
        .iter()
        .zip(dims)
        .fold(0, |z, (&c, &d)| z * d + c);
    match k {
        1 => [0, 0, at[0]],
        _ => [lead, at[k - 2], at[k - 1]],
    }
}

/// The end of `region` on the grid folded to 3-D: past the folded position
/// of its last point on every axis.
fn folded_end(dims: &Dims, region: &[Range<usize>]) -> [usize; 3] {
    let last: Vec<usize> = region.iter().map(|r| r.end - 1).collect();
    folded(dims.as_slice(), &last).map(|c| c + 1)
}

/// The values of `region` of a `dims` grid, out of the decoded lower box
/// of its 3-D fold (`boxd`, row-major), narrowed to `T`: one run per row of
/// the region.
fn crop<T: Element>(
    box_values: &[f64],
    boxd: [usize; 3],
    dims: &Dims,
    region: &[Range<usize>],
) -> Vec<T> {
    let k = region.len();
    let width = region[k - 1].len();
    let mut out = Vec::with_capacity(region.iter().map(|r| r.len()).product());
    // The first point of each row, an odometer over the outer axes.
    let mut at: Vec<usize> = region.iter().map(|r| r.start).collect();
    loop {
        let [z, y, x] = folded(dims.as_slice(), &at);
        let start = (z * boxd[1] + y) * boxd[2] + x;
        out.extend(
            box_values[start..start + width]
                .iter()
                .map(|&v| T::narrow(v)),
        );
        let Some(axis) = (0..k - 1).rev().find(|&a| at[a] + 1 < region[a].end) else {
            return out;
        };
        at[axis] += 1;
        for a in axis + 1..k - 1 {
            at[a] = region[a].start;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave_dataset(dims: Dims) -> Dataset {
        let n = dims.len();
        let values: Vec<f32> = (0..n)
            .map(|i| {
                let x = i as f32;
                (x * 0.013).sin() * 5.0 + (x * 0.0007).cos() * 20.0
            })
            .collect();
        Dataset::from_f32("test", "wave", 2, dims, values)
    }

    fn max_error(a: &Dataset, b: &Dataset) -> f64 {
        a.values_f64()
            .iter()
            .zip(b.values_f64().iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn roundtrip_3d_respects_bound_and_metadata() {
        let original = wave_dataset(Dims::d3(12, 15, 17));
        for eb in [1e-1, 1e-3, 1e-5] {
            let compressed = compress(&original, &SzConfig::with_error_bound(eb)).unwrap();
            let restored = decompress(&compressed).unwrap();
            assert!(max_error(&original, &restored) <= eb, "eb={eb}");
            assert_eq!(restored.dims, original.dims);
            assert_eq!(restored.application, "test");
            assert_eq!(restored.field, "wave");
            assert_eq!(restored.timestep, 2);
            assert_eq!(restored.dtype(), DType::F32);
        }
    }

    #[test]
    fn roundtrip_1d_and_2d() {
        for dims in [Dims::d1(5000), Dims::d2(60, 83)] {
            let original = wave_dataset(dims);
            let compressed = compress(&original, &SzConfig::with_error_bound(1e-3)).unwrap();
            let restored = decompress(&compressed).unwrap();
            assert!(max_error(&original, &restored) <= 1e-3);
        }
    }

    #[test]
    fn roundtrip_4d_folds_its_leading_axes() {
        let original = wave_dataset(Dims::new(&[3, 5, 7, 9]));
        let compressed = compress(&original, &SzConfig::with_error_bound(1e-3)).unwrap();
        let restored = decompress(&compressed).unwrap();
        assert_eq!(restored.dims, original.dims);
        assert!(max_error(&original, &restored) <= 1e-3);
    }

    #[test]
    fn roundtrip_f64_dataset() {
        let values: Vec<f64> = (0..3000).map(|i| (i as f64 * 0.01).sin() * 1e6).collect();
        let original = Dataset::from_f64("test", "wave64", 0, Dims::d1(3000), values);
        let compressed = compress(&original, &SzConfig::with_error_bound(1e-2)).unwrap();
        let restored = decompress(&compressed).unwrap();
        assert_eq!(restored.dtype(), DType::F64);
        assert!(max_error(&original, &restored) <= 1e-2);
    }

    #[test]
    fn smooth_data_compresses_well() {
        let original = wave_dataset(Dims::d3(16, 32, 32));
        let compressed = compress(&original, &SzConfig::with_error_bound(1e-2)).unwrap();
        let ratio = original.byte_size() as f64 / compressed.len() as f64;
        assert!(
            ratio > 8.0,
            "expected a high ratio on smooth data, got {ratio:.2}"
        );
    }

    #[test]
    fn larger_bound_gives_higher_ratio_on_smooth_data() {
        let original = wave_dataset(Dims::d3(16, 24, 24));
        let small = compress(&original, &SzConfig::with_error_bound(1e-6)).unwrap();
        let large = compress(&original, &SzConfig::with_error_bound(1e-1)).unwrap();
        assert!(large.len() < small.len());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let original = wave_dataset(Dims::d1(100));
        assert!(matches!(
            compress(&original, &SzConfig::with_error_bound(0.0)),
            Err(CodecError::InvalidBound(_))
        ));
        assert!(matches!(
            compress(&original, &SzConfig::with_error_bound(f64::NAN)),
            Err(CodecError::InvalidBound(_))
        ));
        let bad_block = SzConfig {
            block_size: Some(0),
            ..Default::default()
        };
        assert!(matches!(
            compress(&original, &bad_block),
            Err(CodecError::InvalidBound(_))
        ));
        let bad_capacity = SzConfig {
            quant_capacity: 2,
            ..Default::default()
        };
        assert!(matches!(
            compress(&original, &bad_capacity),
            Err(CodecError::InvalidBound(_))
        ));
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let original = wave_dataset(Dims::d2(20, 20));
        let mut compressed = compress(&original, &SzConfig::default()).unwrap();
        // Bad magic.
        let mut bad = compressed.clone();
        bad[0] ^= 0xff;
        assert!(matches!(decompress(&bad), Err(CodecError::Codec(_))));
        // Truncation.
        compressed.truncate(compressed.len() / 2);
        assert!(decompress(&compressed).is_err());
        // Garbage.
        assert!(decompress(&[0u8; 3]).is_err());
    }

    #[test]
    fn custom_block_size_still_roundtrips() {
        let original = wave_dataset(Dims::d3(9, 9, 9));
        let config = SzConfig {
            error_bound: 1e-4,
            block_size: Some(4),
            quant_capacity: 1024,
        };
        let compressed = compress(&original, &config).unwrap();
        let restored = decompress(&compressed).unwrap();
        assert!(max_error(&original, &restored) <= 1e-4);
    }

    #[test]
    fn encode_is_compress_and_the_decoded_field_for_every_want() {
        let mut holes = wave_dataset(Dims::d3(7, 9, 11));
        if let DataBuffer::F32(values) = &mut holes.buffer {
            values[3] = f32::NAN;
            values[200] = f32::INFINITY;
        }
        let wide = Dataset::from_f64(
            "t",
            "w",
            0,
            Dims::d2(30, 41),
            (0..30 * 41)
                .map(|i| (i as f64 * 0.03).sin() * 1e3)
                .collect(),
        );
        for original in [wave_dataset(Dims::d1(900)), holes, wide] {
            for eb in [1e-6, 1e-3, 1e-1, 10.0] {
                let what = format!("{original} at {eb}");
                let config = SzConfig::with_error_bound(eb);
                let stream = compress(&original, &config).unwrap();
                let size = encode(&original, &config, Want::Size).unwrap();
                assert_eq!(size.len, stream.len(), "{what}");
                assert!(size.stream.is_none_or(|s| s == stream), "{what}");
                let written = encode(&original, &config, Want::Stream).unwrap();
                assert_eq!(written.len, stream.len(), "{what}");
                assert!(written.recon.is_none(), "{what}");
                assert_eq!(written.stream.as_ref(), Some(&stream), "{what}");
                let measured = encode(&original, &config, Want::Measured).unwrap();
                assert_eq!(measured.len, stream.len(), "{what}");
                assert_eq!(measured.stream.as_ref(), Some(&stream), "{what}");
                let decoded = decompress(&stream).unwrap().buffer;
                // Bit for bit, NaN and infinity included.
                assert!(
                    measured.recon.unwrap().to_le_bytes() == decoded.to_le_bytes(),
                    "{what}"
                );
                // A size evaluation keeps the encoder's own buffer: the
                // decoded values widened, bit for bit.
                let widened = DataBuffer::F64(decoded.to_f64_vec()).to_le_bytes();
                let kept = size.recon.expect("the encoder's reconstruction");
                assert_eq!(kept.dtype(), DType::F64, "{what}");
                assert!(kept.to_le_bytes() == widened, "{what}");
            }
        }
    }

    #[test]
    fn unicode_metadata_roundtrips() {
        let mut original = wave_dataset(Dims::d1(64));
        original.field = "QCLOUDf.log10-μ".to_string();
        let compressed = compress(&original, &SzConfig::default()).unwrap();
        assert_eq!(decompress(&compressed).unwrap().field, original.field);
    }
}
