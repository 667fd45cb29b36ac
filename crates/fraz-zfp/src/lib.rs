//! A ZFP-like transform-based lossy compressor with fixed-accuracy and
//! fixed-rate modes.
//!
//! The codec follows the structure of ZFP 0.5 as described in the FRaZ paper
//! (§II-A2 and §III):
//!
//! 1. the grid is partitioned into 4^d blocks ([`block`]),
//! 2. each block is aligned to a common power-of-two exponent and converted
//!    to 62-bit fixed point,
//! 3. a separable integer lifting transform decorrelates the block
//!    ([`transform`]),
//! 4. coefficients are reordered by total sequency, mapped to negabinary and
//!    coded one bit plane at a time with group testing ([`coder`]).
//!
//! Two rate-control modes are provided because the FRaZ evaluation compares
//! them directly (Figs 1, 9, 10):
//!
//! * [`ZfpMode::FixedAccuracy`] — bit planes below
//!   `⌊log2(tolerance)⌋` are discarded.  The flooring makes the achievable
//!   compression ratios a step function of the tolerance, which is exactly
//!   why FRaZ sometimes cannot hit a requested ratio with ZFP (paper
//!   §VI-B3).
//! * [`ZfpMode::FixedRate`] — every block gets the same bit budget, giving
//!   precise ratio control and random access but visibly worse quality at
//!   the same ratio.
//!
//! # Example
//!
//! ```
//! use fraz_data::{Dataset, Dims};
//! use fraz_zfp::{compress, decompress, ZfpConfig, ZfpMode};
//!
//! let values: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.02).cos()).collect();
//! let original = Dataset::from_f32("demo", "wave", 0, Dims::d3(16, 16, 16), values);
//! let config = ZfpConfig { mode: ZfpMode::FixedAccuracy { tolerance: 1e-3 } };
//! let packed = compress(&original, &config).unwrap();
//! let restored = decompress(&packed).unwrap();
//! let max_err = original.values_f64().iter().zip(restored.values_f64().iter())
//!     .map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
//! assert!(max_err <= 1e-3);
//! ```

#![forbid(unsafe_code)]

pub mod block;
pub mod coder;
pub mod transform;

use fraz_data::wire::{try_vec, ByteReader, ByteWriter, DatasetHeader};
use fraz_data::{CodecError, DType, DataBuffer, Dataset, Dims, Element, Encoded, Want};
use fraz_lossless::bitio::{BitReader, BitWriter};

use block::MAX_BLOCK;
use transform::BLOCK_EDGE;

/// Stream magic ("FZP1").
const MAGIC: u32 = 0x465A_5031;
/// Format version.
const VERSION: u8 = 1;
/// Bits used to store a block exponent.
const EBITS: u32 = 12;
/// Bias added to block exponents before storage.
const EBIAS: i32 = 2048;
/// Effectively unlimited per-block budget for the accuracy mode.
const UNLIMITED_BITS: u64 = 1 << 40;

/// Rate-control mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZfpMode {
    /// Error-bounded ("accuracy") mode: absolute error at most `tolerance`.
    FixedAccuracy {
        /// Absolute error tolerance (must be positive and finite).
        tolerance: f64,
    },
    /// Fixed-rate mode: every block is coded with exactly
    /// `bits_per_value * 4^d` bits.
    FixedRate {
        /// Average number of bits per value (0.5 ..= 64).
        bits_per_value: f64,
    },
}

/// Compressor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZfpConfig {
    /// Rate-control mode.
    pub mode: ZfpMode,
}

impl ZfpConfig {
    /// Fixed-accuracy configuration with the given tolerance.
    pub fn accuracy(tolerance: f64) -> Self {
        Self {
            mode: ZfpMode::FixedAccuracy { tolerance },
        }
    }

    /// Fixed-rate configuration with the given bits-per-value budget.
    pub fn rate(bits_per_value: f64) -> Self {
        Self {
            mode: ZfpMode::FixedRate { bits_per_value },
        }
    }

    fn validate(&self) -> Result<(), CodecError> {
        match self.mode {
            ZfpMode::FixedAccuracy { tolerance } => {
                if !(tolerance > 0.0 && tolerance.is_finite()) {
                    return Err(CodecError::InvalidBound(format!(
                        "tolerance must be positive and finite, got {tolerance}"
                    )));
                }
            }
            ZfpMode::FixedRate { bits_per_value } => {
                if !(0.1..=64.0).contains(&bits_per_value) {
                    return Err(CodecError::InvalidBound(format!(
                        "bits per value must be in [0.1, 64], got {bits_per_value}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// `minexp = ⌊log2 tolerance⌋`: everything the accuracy mode reads of its
/// tolerance, and the flooring responsible for the step-like ratio
/// behaviour — two tolerances with one `minexp` produce one stream (but for
/// the tolerance recorded in the header) and one reconstruction.  The
/// expression, libm's rounding at the top edge of a binade included, *is*
/// the definition: `fraz_pressio::BoundKind::step_of` repeats it.
pub fn accuracy_minexp(tolerance: f64) -> i32 {
    tolerance.log2().floor() as i32
}

/// The bit planes the accuracy mode codes for a block: ZFP's
/// `emax - minexp + 2·(dims+1)`, the last term the transform's growth.
fn planes_wanted(emax: i32, minexp: i32, dims: usize) -> i32 {
    emax - minexp + 2 * (dims as i32 + 1)
}

/// Per-block precision: [`planes_wanted`] within `0..=maxprec` in the
/// accuracy mode (`minexp` is `Some`, taken once per call), the full
/// precision in the rate mode.
fn block_precision(emax: i32, minexp: Option<i32>, dims: usize) -> u32 {
    match minexp {
        Some(minexp) => {
            planes_wanted(emax, minexp, dims).clamp(0, coder::INT_PRECISION as i32) as u32
        }
        None => coder::INT_PRECISION,
    }
}

/// The accuracy mode's `minexp`; `None` in the rate mode.
fn mode_minexp(mode: &ZfpMode) -> Option<i32> {
    match *mode {
        ZfpMode::FixedAccuracy { tolerance } => Some(accuracy_minexp(tolerance)),
        ZfpMode::FixedRate { .. } => None,
    }
}

fn mode_tag(mode: &ZfpMode) -> (u8, f64) {
    match *mode {
        ZfpMode::FixedAccuracy { tolerance } => (0, tolerance),
        ZfpMode::FixedRate { bits_per_value } => (1, bits_per_value),
    }
}

fn mode_from_tag(tag: u8, param: f64) -> Result<ZfpMode, CodecError> {
    match tag {
        0 => Ok(ZfpMode::FixedAccuracy { tolerance: param }),
        1 => Ok(ZfpMode::FixedRate {
            bits_per_value: param,
        }),
        other => Err(CodecError::Codec(format!("unknown mode tag {other}"))),
    }
}

/// Per-block bit budget (including the zero-flag and exponent header) for
/// the given mode.
fn block_bit_budget(mode: &ZfpMode, block_dims: usize) -> u64 {
    match *mode {
        ZfpMode::FixedAccuracy { .. } => UNLIMITED_BITS,
        ZfpMode::FixedRate { bits_per_value } => {
            let points = BLOCK_EDGE.pow(block_dims as u32) as f64;
            ((bits_per_value * points).round() as u64).max(1 + EBITS as u64)
        }
    }
}

/// Compress a dataset.
pub fn compress(dataset: &Dataset, config: &ZfpConfig) -> Result<Vec<u8>, CodecError> {
    encode(dataset, config, Want::Stream).map(Encoded::into_stream)
}

/// The one encoder.  Every `want` writes the stream; [`Want::Measured`]
/// also rebuilds each block as it goes, from the bits it conveyed, through
/// the decoder's own block tail — the field [`decompress`] returns, bit for
/// bit, without reading the stream back.
pub fn encode(dataset: &Dataset, config: &ZfpConfig, want: Want) -> Result<Encoded, CodecError> {
    config.validate()?;
    let mut header = ByteWriter::with_capacity(64);
    DatasetHeader::write(dataset, MAGIC, VERSION, &mut header);
    let (tag, param) = mode_tag(&config.mode);
    header.put_u8(tag);
    header.put_f64(param);

    let rebuild = want == Want::Measured;
    let (payload, recon) = match &dataset.buffer {
        DataBuffer::F32(values) => encode_blocks(values, &dataset.dims, &config.mode, rebuild)?,
        DataBuffer::F64(values) => encode_blocks(values, &dataset.dims, &config.mode, rebuild)?,
    };
    let mut out = header.into_bytes();
    out.extend_from_slice(&payload);
    Ok(Encoded::written(out, recon))
}

/// How a grid is cut into blocks: the grid folded to 3-D, the blocks'
/// dimensionality and the sequency order of their coefficients.
struct Blocks {
    dims3: [usize; 3],
    block_dims: usize,
    perm: Vec<usize>,
}

impl Blocks {
    fn of(dims: &Dims) -> Self {
        let block_dims = dims.ndims().min(3);
        Self {
            dims3: dims.fold_3d(),
            block_dims,
            perm: transform::sequency_permutation(block_dims),
        }
    }

    /// The decoder's block tail: `coded` (negabinary coefficients in
    /// sequency order, as [`coder::decode_ints`] reads them) back to values,
    /// written into `values` — the field's own element type — at `origin`.
    /// [`decompress`] runs it on what it read, a measured [`encode`] on what
    /// it conveyed; `ints` and `raw` are scratch of the block's size.
    fn rebuild<T: Element>(
        &self,
        coded: &[u64],
        emax: i32,
        origin: [usize; 3],
        (ints, raw): (&mut [i64], &mut [f64]),
        values: &mut [T],
    ) {
        for (&coded, &dst) in coded.iter().zip(&self.perm) {
            ints[dst] = coder::uint_to_int(coded);
        }
        transform::inv_xform(ints, self.block_dims);
        block::from_ints(ints, emax, raw);
        block::scatter(raw, values, self.dims3, origin, self.block_dims);
    }
}

/// The block payload of [`compress`]: every block gathered, aligned,
/// transformed and bit-plane coded through stack arrays — and, when
/// `rebuild` is set, decoded again from what was coded, into a buffer of
/// the field's own element type holding the decoder's values.
///
/// Two fields are refused rather than coded wrong.  A block shares one
/// exponent, so a single NaN or infinity would take the 4^d − 1 finite
/// values beside it down with it: a non-finite value fails the call.  And in
/// the accuracy mode a block whose range from its largest value down to the
/// tolerance needs more bit planes than the 64-bit integers hold (a fill
/// value of 1e36 among O(1) values) would lose its small values to the
/// fixed point: its tolerance is an invalid bound for this field.
fn encode_blocks<T: Element>(
    values: &[T],
    dims: &Dims,
    mode: &ZfpMode,
    rebuild: bool,
) -> Result<(Vec<u8>, Option<DataBuffer>), CodecError> {
    if let Some(index) = values.iter().position(|&v| !v.into().is_finite()) {
        return Err(CodecError::Codec(format!(
            "value {index} is not finite: the ZFP-like codec codes finite values only"
        )));
    }
    let blocks = Blocks::of(dims);
    let (dims3, block_dims) = (blocks.dims3, blocks.block_dims);
    let budget = block_bit_budget(mode, block_dims);
    let minexp = mode_minexp(mode);
    let size = blocks.perm.len();
    let (mut raw, mut ints, mut reordered) =
        ([0.0; MAX_BLOCK], [0i64; MAX_BLOCK], [0u64; MAX_BLOCK]);
    let (raw, ints, reordered) = (&mut raw[..size], &mut ints[..size], &mut reordered[..size]);
    let mut recon = rebuild.then(|| vec![T::default(); values.len()]);

    let mut w = BitWriter::with_capacity(values.len());
    for origin in block::block_origins(dims3) {
        let start_bits = w.bit_len() as u64;
        block::gather(values, dims3, origin, block_dims, raw);
        match block::block_exponent(raw) {
            None => {
                // Empty (all-zero) block.
                w.write_bit(false);
            }
            Some(emax) => {
                if let Some(planes) = minexp
                    .map(|minexp| planes_wanted(emax, minexp, block_dims))
                    .filter(|&planes| planes > coder::INT_PRECISION as i32)
                {
                    let index = block::widest(dims3, origin, block_dims, raw);
                    return Err(CodecError::InvalidBound(format!(
                        "value {index} needs {planes} bit planes at this tolerance, \
                         more than the ZFP-like codec's {} hold",
                        coder::INT_PRECISION
                    )));
                }
                w.write_bit(true);
                w.write_bits((emax + EBIAS) as u64, EBITS);
                block::to_ints(raw, emax, ints);
                transform::fwd_xform(ints, block_dims);
                for (slot, &src) in reordered.iter_mut().zip(&blocks.perm) {
                    *slot = coder::int_to_uint(ints[src]);
                }
                let max_prec = block_precision(emax, minexp, block_dims);
                let remaining = budget.saturating_sub(1 + EBITS as u64);
                let coded = coder::encode_ints(&mut w, reordered, remaining, max_prec);
                if let Some(recon) = &mut recon {
                    coded.conveyed(reordered);
                    blocks.rebuild(reordered, emax, origin, (ints, raw), recon);
                }
            }
        }
        if matches!(mode, ZfpMode::FixedRate { .. }) {
            // Pad so every block occupies exactly `budget` bits.
            let written = w.bit_len() as u64 - start_bits;
            if written < budget {
                w.write_run(false, (budget - written) as usize);
            }
        }
    }
    Ok((w.into_bytes(), recon.map(T::into_buffer)))
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Dataset, CodecError> {
    let mut r = ByteReader::new(data);
    let head = DatasetHeader::read(&mut r, MAGIC, VERSION)?;
    let mode = mode_from_tag(r.get_u8()?, r.get_f64()?)?;
    let config = ZfpConfig { mode };
    config
        .validate()
        .map_err(|e| CodecError::Codec(format!("invalid header parameters: {e}")))?;

    let blocks = Blocks::of(&head.dims);
    let mut bits = BitReader::new(r.rest());
    // Every block costs at least its one flag bit, so the payload bounds
    // the grid; an all-zero field still expands 4^d values per bit, hence
    // the fallible reservation.
    let n_blocks: usize = blocks
        .dims3
        .iter()
        .map(|d| d.div_ceil(BLOCK_EDGE))
        .product();
    if n_blocks > bits.bits_remaining() {
        return Err(CodecError::Codec(format!(
            "{n_blocks} blocks cannot fit in {} payload bits",
            bits.bits_remaining()
        )));
    }
    let buffer = match head.dtype {
        DType::F32 => decode_blocks::<f32>(&mut bits, &blocks, &mode, head.dims.len())?,
        DType::F64 => decode_blocks::<f64>(&mut bits, &blocks, &mode, head.dims.len())?,
    };
    Ok(head.into_dataset(buffer))
}

/// The block payload of [`decompress`] back to the `n` values of a field of
/// element type `T`, each written straight into its buffer.
fn decode_blocks<T: Element>(
    bits: &mut BitReader<'_>,
    blocks: &Blocks,
    mode: &ZfpMode,
    n: usize,
) -> Result<DataBuffer, CodecError> {
    let (dims3, block_dims) = (blocks.dims3, blocks.block_dims);
    let budget = block_bit_budget(mode, block_dims);
    let minexp = mode_minexp(mode);
    let mut values = try_vec(n)?;
    values.resize(n, T::default());
    let size = blocks.perm.len();
    let (mut raw, mut ints, mut reordered) =
        ([0.0; MAX_BLOCK], [0i64; MAX_BLOCK], [0u64; MAX_BLOCK]);
    let (raw, ints, reordered) = (&mut raw[..size], &mut ints[..size], &mut reordered[..size]);

    for origin in block::block_origins(dims3) {
        let start_bits = bits.bits_consumed() as u64;
        let nonzero = bits.read_bit().map_err(CodecError::corrupt)?;
        if nonzero {
            let emax = bits.read_bits(EBITS).map_err(CodecError::corrupt)? as i64 as i32 - EBIAS;
            if !(-2000..=2000).contains(&emax) {
                return Err(CodecError::Codec(format!(
                    "implausible block exponent {emax}"
                )));
            }
            let max_prec = block_precision(emax, minexp, block_dims);
            let remaining = budget.saturating_sub(1 + EBITS as u64);
            coder::decode_ints(bits, reordered, remaining, max_prec)
                .map_err(CodecError::corrupt)?;
            blocks.rebuild(reordered, emax, origin, (ints, raw), &mut values);
        }
        if matches!(mode, ZfpMode::FixedRate { .. }) {
            // Skip the block's padding so the next block starts on budget.
            let consumed = bits.bits_consumed() as u64 - start_bits;
            if consumed < budget {
                for _ in 0..(budget - consumed) {
                    bits.read_bit().map_err(CodecError::corrupt)?;
                }
            }
        }
    }

    Ok(T::into_buffer(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(dims: Dims, scale: f64) -> Dataset {
        let n = dims.len();
        let values: Vec<f32> = (0..n)
            .map(|i| {
                let x = i as f64;
                ((x * 0.021).sin() * 3.0 + (x * 0.0013).cos() * 10.0) as f32 * scale as f32
            })
            .collect();
        Dataset::from_f32("test", "wave", 0, dims, values)
    }

    fn max_error(a: &Dataset, b: &Dataset) -> f64 {
        a.values_f64()
            .iter()
            .zip(b.values_f64().iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn accuracy_mode_respects_tolerance_1d_2d_3d() {
        for dims in [Dims::d1(3000), Dims::d2(50, 61), Dims::d3(13, 17, 19)] {
            let original = wave(dims, 1.0);
            for tol in [1e-1, 1e-3, 1e-6] {
                let packed = compress(&original, &ZfpConfig::accuracy(tol)).unwrap();
                let restored = decompress(&packed).unwrap();
                let err = max_error(&original, &restored);
                assert!(err <= tol, "dims {:?} tol {tol}: err {err}", original.dims);
            }
        }
    }

    #[test]
    fn accuracy_mode_compresses_smooth_data() {
        // A genuinely smooth 3-D field (smooth along every axis, unlike the
        // index-based `wave` helper) should compress well at a loose bound.
        let (nz, ny, nx) = (16usize, 32usize, 32usize);
        let mut values = Vec::with_capacity(nz * ny * nx);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    values.push(
                        ((x as f32 * 0.2).sin() + (y as f32 * 0.15).cos()) * 5.0 + z as f32 * 0.1,
                    );
                }
            }
        }
        let original = Dataset::from_f32("t", "smooth", 0, Dims::d3(nz, ny, nx), values);
        let packed = compress(&original, &ZfpConfig::accuracy(1e-2)).unwrap();
        let ratio = original.byte_size() as f64 / packed.len() as f64;
        assert!(ratio > 4.0, "ratio {ratio:.2}");
        let restored = decompress(&packed).unwrap();
        assert!(max_error(&original, &restored) <= 1e-2);
    }

    #[test]
    fn accuracy_ratio_is_a_step_function_of_tolerance() {
        // Tolerances within the same power of two produce identical streams
        // (the minexp flooring), which is the behaviour FRaZ has to cope
        // with.
        let original = wave(Dims::d3(12, 12, 12), 1.0);
        let a = compress(&original, &ZfpConfig::accuracy(0.010)).unwrap();
        let b = compress(&original, &ZfpConfig::accuracy(0.013)).unwrap();
        let c = compress(&original, &ZfpConfig::accuracy(0.020)).unwrap();
        assert_eq!(a.len(), b.len(), "same power of two => same size");
        assert!(c.len() <= a.len());
    }

    #[test]
    fn fixed_rate_mode_hits_its_budget_exactly() {
        let original = wave(Dims::d3(16, 16, 16), 1.0);
        for bpv in [2.0, 4.0, 8.0] {
            let packed = compress(&original, &ZfpConfig::rate(bpv)).unwrap();
            let payload_bits = (packed.len() as f64 - 60.0) * 8.0; // minus header estimate
            let expected_bits = bpv * original.len() as f64;
            let rel = (payload_bits - expected_bits).abs() / expected_bits;
            assert!(
                rel < 0.05,
                "bpv {bpv}: payload {payload_bits} vs {expected_bits}"
            );
            // And it must still decompress to the right shape.
            let restored = decompress(&packed).unwrap();
            assert_eq!(restored.len(), original.len());
        }
    }

    #[test]
    fn fixed_rate_quality_improves_with_rate() {
        let original = wave(Dims::d3(16, 16, 16), 100.0);
        let low = decompress(&compress(&original, &ZfpConfig::rate(2.0)).unwrap()).unwrap();
        let high = decompress(&compress(&original, &ZfpConfig::rate(16.0)).unwrap()).unwrap();
        assert!(max_error(&original, &high) < max_error(&original, &low));
    }

    #[test]
    fn fixed_rate_is_worse_than_accuracy_at_same_ratio() {
        // The core observation of the paper's Fig. 1: at an equal compression
        // ratio the accuracy mode reconstructs better than the rate mode.
        let original = wave(Dims::d3(16, 16, 16), 50.0);
        let accuracy_packed = compress(&original, &ZfpConfig::accuracy(0.05)).unwrap();
        let achieved_bpv = accuracy_packed.len() as f64 * 8.0 / original.len() as f64;
        let rate_packed = compress(&original, &ZfpConfig::rate(achieved_bpv)).unwrap();
        let acc_err = max_error(&original, &decompress(&accuracy_packed).unwrap());
        let rate_err = max_error(&original, &decompress(&rate_packed).unwrap());
        assert!(
            rate_err > acc_err,
            "rate-mode error {rate_err} should exceed accuracy-mode error {acc_err}"
        );
    }

    #[test]
    fn zero_field_compresses_to_almost_nothing() {
        let original = Dataset::from_f32("t", "zero", 0, Dims::d3(8, 8, 8), vec![0.0; 512]);
        let packed = compress(&original, &ZfpConfig::accuracy(1e-6)).unwrap();
        assert!(packed.len() < 80, "{}", packed.len());
        let restored = decompress(&packed).unwrap();
        assert_eq!(restored.values_f64(), vec![0.0; 512]);
    }

    #[test]
    fn f64_datasets_roundtrip() {
        let values: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.01).sin() * 1e8).collect();
        let original = Dataset::from_f64("t", "f64", 3, Dims::d1(2000), values);
        let packed = compress(&original, &ZfpConfig::accuracy(1.0)).unwrap();
        let restored = decompress(&packed).unwrap();
        assert_eq!(restored.dtype(), DType::F64);
        assert!(max_error(&original, &restored) <= 1.0);
        assert_eq!(restored.timestep, 3);
        assert_eq!(restored.field, "f64");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let original = wave(Dims::d1(64), 1.0);
        assert!(compress(&original, &ZfpConfig::accuracy(0.0)).is_err());
        assert!(compress(&original, &ZfpConfig::accuracy(f64::NAN)).is_err());
        assert!(compress(&original, &ZfpConfig::rate(0.0)).is_err());
        assert!(compress(&original, &ZfpConfig::rate(1000.0)).is_err());
    }

    #[test]
    fn non_finite_values_are_refused_by_index() {
        // An infinity used to turn its whole block into "all zero" and a
        // NaN used to decode as zero, both without an error.
        let mut original = wave(Dims::d3(8, 9, 10), 1.0);
        for (index, hostile) in [
            (317, f32::INFINITY),
            (5, f32::NAN),
            (719, f32::NEG_INFINITY),
        ] {
            let DataBuffer::F32(values) = &mut original.buffer else {
                unreachable!()
            };
            let kept = std::mem::replace(&mut values[index], hostile);
            for config in [ZfpConfig::accuracy(1e-3), ZfpConfig::rate(8.0)] {
                assert_eq!(
                    compress(&original, &config),
                    Err(non_finite(index)),
                    "{hostile} at {index}"
                );
            }
            let DataBuffer::F32(values) = &mut original.buffer else {
                unreachable!()
            };
            values[index] = kept;
        }
        let mut values = vec![1.0f64; 64];
        (values[40], values[9]) = (f64::NAN, f64::INFINITY);
        let original = Dataset::from_f64("t", "f", 0, Dims::d1(64), values);
        let refused = compress(&original, &ZfpConfig::accuracy(1e-3)).unwrap_err();
        assert_eq!(refused, non_finite(9), "the first one is named");
        assert!(refused.to_string().contains("value 9"), "{refused}");
    }

    fn non_finite(index: usize) -> CodecError {
        CodecError::Codec(format!(
            "value {index} is not finite: the ZFP-like codec codes finite values only"
        ))
    }

    #[test]
    fn a_block_wider_than_the_fixed_point_refuses_its_tolerance() {
        // A fill value of 2^60 (block exponent 61) among O(1) values: at
        // tolerance 2^-7 the accuracy mode would want 61 + 7 + 2·(d+1) bit
        // planes, and the fixed point would round the small values to 0.
        for dims in [Dims::d1(64), Dims::d2(8, 8), Dims::d3(4, 4, 4)] {
            let mut values: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
            values[37] = 2f64.powi(60);
            let original = Dataset::from_f64("t", "fill", 0, dims, values);
            let refused = compress(&original, &ZfpConfig::accuracy(2f64.powi(-7))).unwrap_err();
            assert!(
                matches!(&refused, CodecError::InvalidBound(msg) if msg.starts_with("value 37 ")),
                "{refused:?}"
            );
            // A looser tolerance, or the rate mode, codes the same field.
            compress(&original, &ZfpConfig::rate(8.0)).unwrap();
            let packed = compress(&original, &ZfpConfig::accuracy(1024.0)).unwrap();
            assert!(max_error(&original, &decompress(&packed).unwrap()) <= 1024.0);
        }
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let original = wave(Dims::d2(20, 20), 1.0);
        let packed = compress(&original, &ZfpConfig::accuracy(1e-3)).unwrap();
        let mut bad = packed.clone();
        bad[0] ^= 0xff;
        assert!(decompress(&bad).is_err());
        assert!(decompress(&packed[..10]).is_err());
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn encode_is_compress_and_the_decoded_field_for_every_want() {
        // A field with holes and one with a fill value too wide for the
        // accuracy mode's tolerances: every `want` fails as `compress` does.
        let mut holes = wave(Dims::d3(7, 9, 11), 1.0);
        if let DataBuffer::F32(values) = &mut holes.buffer {
            values[3] = f32::NAN;
            values[200] = f32::INFINITY;
        }
        let mut fill: Vec<f64> = (0..30 * 41).map(|i| (i as f64 * 0.03).sin()).collect();
        fill[77] = 2f64.powi(60);
        let fill = Dataset::from_f64("t", "fill", 0, Dims::d2(30, 41), fill);
        let wide = Dataset::from_f64(
            "t",
            "w",
            0,
            Dims::d2(30, 41),
            (0..30 * 41)
                .map(|i| (i as f64 * 0.03).sin() * 1e3)
                .collect(),
        );
        let configs = [
            ZfpConfig::accuracy(1e-6),
            ZfpConfig::accuracy(1e-3),
            ZfpConfig::accuracy(1e-1),
            ZfpConfig::rate(4.0),
            ZfpConfig::rate(16.0),
        ];
        let mut refused = 0;
        for original in [wave(Dims::d1(900), 1.0), holes, fill, wide] {
            for config in configs {
                let what = format!("{original} {config:?}");
                let stream = match compress(&original, &config) {
                    Ok(stream) => stream,
                    Err(error) => {
                        for want in [Want::Size, Want::Stream, Want::Measured] {
                            let encoded = encode(&original, &config, want);
                            assert_eq!(encoded.err(), Some(error.clone()), "{what} {want:?}");
                        }
                        refused += 1;
                        continue;
                    }
                };
                let size = encode(&original, &config, Want::Size).unwrap();
                assert_eq!(size.len, stream.len(), "{what}");
                assert!(size.stream.is_none_or(|s| s == stream), "{what}");
                assert!(size.recon.is_none(), "{what}");
                let written = encode(&original, &config, Want::Stream).unwrap();
                assert_eq!(written.len, stream.len(), "{what}");
                assert!(written.recon.is_none(), "{what}");
                assert_eq!(written.stream.as_ref(), Some(&stream), "{what}");
                let measured = encode(&original, &config, Want::Measured).unwrap();
                assert_eq!(measured.len, stream.len(), "{what}");
                assert_eq!(measured.stream.as_ref(), Some(&stream), "{what}");
                let decoded = decompress(&stream).unwrap().buffer;
                assert!(
                    measured.recon.unwrap().to_le_bytes() == decoded.to_le_bytes(),
                    "{what}"
                );
            }
        }
        // Every config refuses the holes, every tolerance the fill value.
        assert_eq!(refused, configs.len() + 3);
    }
}
