//! An SZx-like **ultra-fast** error-bounded lossy compressor for scientific
//! floating-point data.
//!
//! SZ-style codecs pay for their ratios with prediction chains and an entropy
//! stage; SZx (Yu, Di et al., see PAPERS.md) showed that a far simpler design
//! recovers an order of magnitude of throughput while keeping the hard
//! absolute-error guarantee.  This crate implements that tier:
//!
//! 1. **Blockwise classification** — the field is split into fixed-size
//!    blocks ([`SzxConfig::block_size`], default 128 values).  A block whose
//!    value spread fits inside the error bound is *constant*: it costs one
//!    flag bit plus a single midrange value.  Everything else is
//!    *unpredictable*.
//! 2. **Bitwise truncation** — an unpredictable block stores each value's
//!    IEEE-754 bit pattern truncated to the precision the absolute bound
//!    allows: from the block's largest exponent `E` and the bound's exponent
//!    `K = ⌊log₂ e⌋`, keeping `m = clamp(E − K, 0, mantissa bits)` mantissa
//!    bits guarantees a truncation error strictly below `2^(E−m) ≤ e`.  The
//!    kept width (sign + exponent + `m`) is one byte of metadata per block;
//!    the payload is a dense bit-packed array with no per-value branches.
//!
//! There is **no prediction, no quantization and no entropy stage** on the
//! hot path — compression is two passes over each block (classify, pack) and
//! decompression is a single bit-unpack pass, which is what makes this
//! backend roughly an order of magnitude faster than the SZ-like codec and
//! changes the economics of FRaZ's iterative search twice over: a
//! compression is cheap, and an evaluation does not even cost one — the
//! stream's length is a closed form of the classification, and so is the
//! reconstruction, so [`encode`] answers [`Want::Size`] and
//! [`Want::Measured`] in the first pass alone and packs nothing.
//!
//! The absolute error bound is a hard guarantee for every finite input:
//! `max_i |d_i − d'_i| ≤ error_bound` (pinned by unit, property and
//! conformance tests).  Non-finite values (NaN, ±∞) force their block to the
//! full-width path and round-trip bit-exactly.
//!
//! # Example
//!
//! ```
//! use fraz_data::{Dataset, Dims};
//! use fraz_szx::{compress, decompress, SzxConfig};
//!
//! let values: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
//! let original = Dataset::from_f32("demo", "wave", 0, Dims::d3(16, 16, 16), values);
//! let compressed = compress(&original, &SzxConfig::with_error_bound(1e-3)).unwrap();
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

pub mod block;
mod pack;

use fraz_data::wire::{ByteReader, ByteWriter, DatasetHeader};
use fraz_data::{CodecError, DType, DataBuffer, Dataset, Encoded, Want};

/// Stream magic ("FSZX").
const MAGIC: u32 = 0x4653_5A58;
/// Format version.
const VERSION: u8 = 1;
/// Largest accepted block size (also enforced on decode so a corrupt header
/// cannot demand absurd allocations).
pub const MAX_BLOCK_SIZE: usize = 1 << 20;

/// Configuration of the SZx-like compressor.
#[derive(Debug, Clone, PartialEq)]
pub struct SzxConfig {
    /// Absolute error bound (must be positive and finite).
    pub error_bound: f64,
    /// Values per classification block; `None` selects 128 (the SZx paper's
    /// default granularity).
    pub block_size: Option<usize>,
}

impl Default for SzxConfig {
    fn default() -> Self {
        Self {
            error_bound: 1e-3,
            block_size: None,
        }
    }
}

impl SzxConfig {
    /// Configuration with the given absolute error bound and the default
    /// block size.
    pub fn with_error_bound(error_bound: f64) -> Self {
        Self {
            error_bound,
            ..Default::default()
        }
    }

    fn block(&self) -> usize {
        self.block_size.unwrap_or(128)
    }

    fn validate(&self) -> Result<(), CodecError> {
        if !(self.error_bound > 0.0 && self.error_bound.is_finite()) {
            return Err(CodecError::InvalidBound(format!(
                "error bound must be positive and finite, got {}",
                self.error_bound
            )));
        }
        let block = self.block();
        if block == 0 || block > MAX_BLOCK_SIZE {
            return Err(CodecError::InvalidBound(format!(
                "block size {block} out of range [1, {MAX_BLOCK_SIZE}]"
            )));
        }
        Ok(())
    }
}

/// Append everything that precedes the block section — the dataset header,
/// the bound and the block size — and return the block size.
fn write_prefix(dataset: &Dataset, config: &SzxConfig, out: &mut ByteWriter) -> usize {
    let block = config.block();
    DatasetHeader::write(dataset, MAGIC, VERSION, out);
    out.put_f64(config.error_bound);
    out.put_u32(block as u32);
    block
}

/// Compress a dataset under an absolute error bound.
pub fn compress(dataset: &Dataset, config: &SzxConfig) -> Result<Vec<u8>, CodecError> {
    encode(dataset, config, Want::Stream).map(Encoded::into_stream)
}

/// The one encoder.  Only [`Want::Stream`] writes a stream.
///
/// An SZx stream's length is a closed form of its blockwise classification
/// (flags, one width byte per truncated block, one value per constant
/// block, `⌈Σ len·width / 8⌉` payload bytes), and so is the field
/// [`decompress`] rebuilds from it.  One classification pass answers
/// [`Want::Size`] — what a fixed-ratio search pays per candidate bound —
/// and, filling the reconstruction as it goes, [`Want::Measured`].
pub fn encode(dataset: &Dataset, config: &SzxConfig, want: Want) -> Result<Encoded, CodecError> {
    config.validate()?;
    let eb = config.error_bound;
    if want == Want::Stream {
        let mut out = ByteWriter::with_capacity(64 + dataset.byte_size() / 2);
        let block = write_prefix(dataset, config, &mut out);
        match &dataset.buffer {
            DataBuffer::F32(values) => block::encode(values, block, eb, &mut out),
            DataBuffer::F64(values) => block::encode(values, block, eb, &mut out),
        }
        return Ok(Encoded::written(out.into_bytes(), None));
    }
    let mut prefix = ByteWriter::with_capacity(128);
    let block = write_prefix(dataset, config, &mut prefix);
    let rebuild = want == Want::Measured;
    let (section, recon) = match &dataset.buffer {
        DataBuffer::F32(values) => {
            let (len, recon) = block::encoded_len(values, block, eb, rebuild);
            (len, recon.map(DataBuffer::F32))
        }
        DataBuffer::F64(values) => {
            let (len, recon) = block::encoded_len(values, block, eb, rebuild);
            (len, recon.map(DataBuffer::F64))
        }
    };
    Ok(Encoded {
        len: prefix.len() + section,
        stream: None,
        recon,
    })
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Dataset, CodecError> {
    let mut r = ByteReader::new(data);
    let head = DatasetHeader::read(&mut r, MAGIC, VERSION)?;
    let n = head.dims.len();
    let error_bound = r.get_f64()?;
    let block = r.get_u32()? as usize;
    if !(error_bound > 0.0 && error_bound.is_finite()) {
        return Err(CodecError::Codec(format!(
            "invalid error bound {error_bound} in header"
        )));
    }
    if block == 0 || block > MAX_BLOCK_SIZE {
        return Err(CodecError::Codec(format!(
            "invalid block size {block} in header"
        )));
    }

    let buffer = match head.dtype {
        DType::F32 => DataBuffer::F32(block::decode::<f32>(&mut r, n, block)?),
        DType::F64 => DataBuffer::F64(block::decode::<f64>(&mut r, n, block)?),
    };
    r.finish()?;
    Ok(head.into_dataset(buffer))
}

/// The exponent of the largest representable truncation step not exceeding
/// the bound: `K = ⌊log₂ e⌋`, read straight off the IEEE representation.
pub(crate) fn bound_exponent(error_bound: f64) -> i32 {
    let bits = error_bound.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    if biased == 0 {
        // Subnormal bound: fall back to the (slower) libm path.
        error_bound.log2().floor() as i32
    } else {
        biased - 1023
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fraz_data::Dims;

    fn wave_f32(dims: Dims) -> Dataset {
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
        let original = wave_f32(Dims::d3(12, 15, 17));
        for eb in [1e-1, 1e-3, 1e-5, 1e-9] {
            let compressed = compress(&original, &SzxConfig::with_error_bound(eb)).unwrap();
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
    fn roundtrip_1d_2d_4d() {
        for dims in [Dims::d1(5000), Dims::d2(60, 83), Dims::d4(3, 4, 5, 6)] {
            let original = wave_f32(dims);
            let compressed = compress(&original, &SzxConfig::with_error_bound(1e-3)).unwrap();
            let restored = decompress(&compressed).unwrap();
            assert!(max_error(&original, &restored) <= 1e-3);
            assert_eq!(restored.dims, original.dims);
        }
    }

    #[test]
    fn roundtrip_f64_down_to_tiny_bounds() {
        let values: Vec<f64> = (0..3000).map(|i| (i as f64 * 0.01).sin() * 1e6).collect();
        let original = Dataset::from_f64("test", "wave64", 0, Dims::d1(3000), values);
        for eb in [1e-2, 1e-6, 1e-12] {
            let compressed = compress(&original, &SzxConfig::with_error_bound(eb)).unwrap();
            let restored = decompress(&compressed).unwrap();
            assert_eq!(restored.dtype(), DType::F64);
            assert!(max_error(&original, &restored) <= eb, "eb={eb}");
        }
    }

    #[test]
    fn constant_field_costs_almost_nothing() {
        let original = Dataset::from_f32("t", "flat", 0, Dims::d2(64, 64), vec![3.25; 4096]);
        let compressed = compress(&original, &SzxConfig::with_error_bound(1e-6)).unwrap();
        // 4096 values · 4 B = 16 KiB raw; 32 constant blocks cost ~4 B each.
        assert!(
            compressed.len() < 512,
            "constant field took {} bytes",
            compressed.len()
        );
        let restored = decompress(&compressed).unwrap();
        assert_eq!(restored.buffer, original.buffer);
    }

    #[test]
    fn larger_bound_never_produces_larger_output() {
        let original = wave_f32(Dims::d3(16, 24, 24));
        let mut last = usize::MAX;
        for eb in [1e-9, 1e-6, 1e-3, 1e-1, 10.0] {
            let size = compress(&original, &SzxConfig::with_error_bound(eb))
                .unwrap()
                .len();
            assert!(size <= last, "eb={eb}: {size} > {last}");
            last = size;
        }
    }

    #[test]
    fn nonfinite_values_roundtrip_bit_exactly() {
        let mut values: Vec<f32> = (0..300).map(|i| (i as f32 * 0.1).sin()).collect();
        values[7] = f32::NAN;
        values[130] = f32::INFINITY;
        values[131] = f32::NEG_INFINITY;
        let original = Dataset::from_f32("t", "holes", 0, Dims::d1(300), values.clone());
        let compressed = compress(&original, &SzxConfig::with_error_bound(1e-3)).unwrap();
        let restored = decompress(&compressed).unwrap();
        let DataBuffer::F32(out) = &restored.buffer else {
            panic!("dtype changed");
        };
        for (i, (a, b)) in values.iter().zip(out.iter()).enumerate() {
            if !a.is_finite() {
                // The non-finite value itself is preserved bit-exactly…
                assert_eq!(a.to_bits(), b.to_bits(), "[{i}] {a} vs {b}");
            } else if i / 128 == 7 / 128 || i / 128 == 130 / 128 {
                // …and so is every neighbour sharing its (full-width) block…
                assert_eq!(a.to_bits(), b.to_bits(), "[{i}] {a} vs {b}");
            } else {
                // …while untouched blocks are truncated as usual.
                assert!((a - b).abs() <= 1e-3, "[{i}] {a} vs {b}");
            }
        }
    }

    #[test]
    fn subnormal_values_respect_the_bound() {
        let values: Vec<f32> = (0..256)
            .map(|i| f32::from_bits(1 + (i as u32 * 977) % 0x007f_ffff))
            .collect();
        let original = Dataset::from_f32("t", "tiny", 0, Dims::d1(256), values);
        for eb in [1e-3, 1e-30, 1e-42] {
            let compressed = compress(&original, &SzxConfig::with_error_bound(eb)).unwrap();
            let restored = decompress(&compressed).unwrap();
            assert!(max_error(&original, &restored) <= eb, "eb={eb}");
        }
    }

    #[test]
    fn mixed_sign_extremes_are_not_misclassified_constant() {
        // min + max overflows to ±∞ when computing the midrange naively; the
        // classifier must fall back to truncation, not emit a bogus constant.
        let mut values = vec![0.0f32; 256];
        values[0] = f32::MAX;
        values[1] = f32::MIN;
        let original = Dataset::from_f32("t", "extreme", 0, Dims::d1(256), values);
        let compressed = compress(&original, &SzxConfig::with_error_bound(1e30)).unwrap();
        let restored = decompress(&compressed).unwrap();
        assert!(max_error(&original, &restored) <= 1e30);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let original = wave_f32(Dims::d1(100));
        for eb in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                compress(&original, &SzxConfig::with_error_bound(eb)),
                Err(CodecError::InvalidBound(_))
            ));
        }
        for block in [0usize, MAX_BLOCK_SIZE + 1] {
            let config = SzxConfig {
                block_size: Some(block),
                ..Default::default()
            };
            assert!(matches!(
                compress(&original, &config),
                Err(CodecError::InvalidBound(_))
            ));
        }
    }

    #[test]
    fn custom_block_sizes_roundtrip() {
        let original = wave_f32(Dims::d2(37, 41));
        for block in [1usize, 8, 100, 1517, 4096] {
            let config = SzxConfig {
                error_bound: 1e-4,
                block_size: Some(block),
            };
            let compressed = compress(&original, &config).unwrap();
            let restored = decompress(&compressed).unwrap();
            assert!(max_error(&original, &restored) <= 1e-4, "block={block}");
        }
    }

    #[test]
    fn encode_is_compress_and_the_decoded_field_for_every_want() {
        let mut holes = wave_f32(Dims::d2(20, 33));
        if let DataBuffer::F32(values) = &mut holes.buffer {
            values[7] = f32::NAN;
            values[400] = f32::INFINITY;
            values[401..520].fill(2.5);
        }
        let wide = Dataset::from_f64(
            "t",
            "w",
            0,
            Dims::d1(1000),
            (0..1000).map(|i| (i as f64 * 0.01).sin() * 1e6).collect(),
        );
        for original in [wave_f32(Dims::d3(5, 6, 7)), holes, wide] {
            for eb in [1e-9, 1e-3, 0.5, 1e3] {
                let what = format!("{original} at {eb}");
                let config = SzxConfig::with_error_bound(eb);
                let stream = compress(&original, &config).unwrap();
                let size = encode(&original, &config, Want::Size).unwrap();
                assert_eq!(size.len, stream.len(), "{what}");
                assert!(size.stream.is_none() && size.recon.is_none(), "{what}");
                let written = encode(&original, &config, Want::Stream).unwrap();
                assert_eq!(written.len, stream.len(), "{what}");
                assert!(written.recon.is_none(), "{what}");
                assert_eq!(written.stream.as_ref(), Some(&stream), "{what}");
                let measured = encode(&original, &config, Want::Measured).unwrap();
                assert_eq!(measured.len, stream.len(), "{what}");
                assert!(measured.stream.is_none(), "{what}");
                let decoded = decompress(&stream).unwrap().buffer;
                // Bit for bit, NaN and infinity included.
                assert!(
                    measured.recon.unwrap().to_le_bytes() == decoded.to_le_bytes(),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn unicode_metadata_roundtrips() {
        let mut original = wave_f32(Dims::d1(64));
        original.field = "QCLOUDf.log10-μ".to_string();
        let compressed = compress(&original, &SzxConfig::default()).unwrap();
        assert_eq!(decompress(&compressed).unwrap().field, original.field);
    }

    #[test]
    fn bound_exponent_matches_log2_floor() {
        for eb in [1e-12, 1e-3, 0.5, 1.0, 1.5, 2.0, 1e9] {
            assert_eq!(bound_exponent(eb), eb.log2().floor() as i32, "{eb}");
        }
        // Exact powers of two are their own exponent.
        assert_eq!(bound_exponent(0.25), -2);
        // Subnormal bounds take the libm path.
        assert_eq!(bound_exponent(f64::from_bits(1) * 4.0), -1072);
    }
}
