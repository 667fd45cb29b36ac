//! Blockwise constant/unpredictable classification with IEEE-754 bit
//! truncation — the SZx hot path.
//!
//! The serialized section (after the stream header) is:
//!
//! ```text
//! n_blocks        u64
//! constant_count  u64
//! flags           ⌈n_blocks/8⌉ bytes, bit i set ⇔ block i is constant
//! widths          one u8 per non-constant block (kept bits, in block order)
//! constants       one native-width value per constant block (in block order)
//! payload_len     u64
//! payload         dense LSB-first bit-packed truncated values
//! ```
//!
//! Every count is cross-checked on decode before anything proportional to it
//! is allocated, so a corrupt header yields a corrupt-stream
//! [`CodecError::Codec`], never a panic or an out-of-bounds read.

use fraz_data::wire::{try_vec, ByteReader, ByteWriter, WireError};
use fraz_data::CodecError;

use crate::pack::{PackReader, PackWriter};

/// An IEEE-754 scalar the blockwise codec can process (`f32` or `f64`).
pub trait SzxFloat: Copy + PartialOrd {
    /// The bit pattern at native width, so sixteen magnitudes of a block
    /// sit in as many vector lanes as sixteen values do.
    type Bits: Copy + Ord + Default + Into<u64>;
    /// Total bit width (32 or 64).
    const WIDTH: u32;
    /// Fraction (mantissa) bits.
    const MANT_BITS: u32;
    /// Exponent bias.
    const EXP_BIAS: i32;
    /// Sign + exponent bits — the minimum kept width, at which the entire
    /// mantissa is dropped.
    const SIGN_EXP_BITS: u32;
    /// Everything but the sign bit, widened to `u64`.
    const ABS_MASK: u64;
    /// Exponent-all-ones threshold: `bits & ABS_MASK >= EXP_MASK` ⇔ NaN/±∞.
    const EXP_MASK: u64;

    /// The raw bit pattern, widened to `u64`.
    fn to_bits64(self) -> u64;
    /// The bit pattern without its sign, at native width.
    fn magnitude(self) -> Self::Bits;
    /// Rebuild from a (zero-extended) bit pattern.
    fn from_bits64(bits: u64) -> Self;
    /// Widen to `f64` (exact for both supported types).
    fn to_f64(self) -> f64;
    /// Midrange of two finite values in the native type.  May overflow to
    /// `+∞` for extreme spreads — the caller's two-sided bound check rejects
    /// that case and falls back to truncation.
    fn midrange(lo: Self, hi: Self) -> Self;
    /// Append at native width.
    fn write_to(self, out: &mut ByteWriter);
    /// Read at native width.
    fn read_from(r: &mut ByteReader) -> Result<Self, WireError>;
}

impl SzxFloat for f32 {
    type Bits = u32;
    const WIDTH: u32 = 32;
    const MANT_BITS: u32 = 23;
    const EXP_BIAS: i32 = 127;
    const SIGN_EXP_BITS: u32 = 9;
    const ABS_MASK: u64 = 0x7fff_ffff;
    const EXP_MASK: u64 = 0x7f80_0000;

    #[inline]
    fn to_bits64(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline]
    fn magnitude(self) -> u32 {
        self.to_bits() & Self::ABS_MASK as u32
    }
    #[inline]
    fn from_bits64(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn midrange(lo: Self, hi: Self) -> Self {
        lo + (hi - lo) * 0.5
    }
    fn write_to(self, out: &mut ByteWriter) {
        out.put_f32(self);
    }
    fn read_from(r: &mut ByteReader) -> Result<Self, WireError> {
        r.get_f32()
    }
}

impl SzxFloat for f64 {
    type Bits = u64;
    const WIDTH: u32 = 64;
    const MANT_BITS: u32 = 52;
    const EXP_BIAS: i32 = 1023;
    const SIGN_EXP_BITS: u32 = 12;
    const ABS_MASK: u64 = 0x7fff_ffff_ffff_ffff;
    const EXP_MASK: u64 = 0x7ff0_0000_0000_0000;

    #[inline]
    fn to_bits64(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn magnitude(self) -> u64 {
        self.to_bits() & Self::ABS_MASK
    }
    #[inline]
    fn from_bits64(bits: u64) -> Self {
        f64::from_bits(bits)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn midrange(lo: Self, hi: Self) -> Self {
        lo + (hi - lo) * 0.5
    }
    fn write_to(self, out: &mut ByteWriter) {
        out.put_f64(self);
    }
    fn read_from(r: &mut ByteReader) -> Result<Self, WireError> {
        r.get_f64()
    }
}

/// Kept width for an unpredictable block whose largest magnitude has bit
/// pattern `abs_max`, under a bound with exponent `k = ⌊log₂ e⌋`.
///
/// With block exponent `E` (subnormals act at the minimum normal exponent,
/// hence the `.max(1)`), keeping `m = clamp(E − k, 0, MANT_BITS)` mantissa
/// bits makes the truncation error of every member strictly less than
/// `2^(E−m) ≤ 2^k ≤ e`.  Non-finite payloads force the full width so NaN/±∞
/// round-trip bit-exactly.
#[inline]
fn kept_width<F: SzxFloat>(abs_max: u64, k: i32) -> u32 {
    if abs_max >= F::EXP_MASK {
        return F::WIDTH;
    }
    let e = ((abs_max >> F::MANT_BITS) as i32).max(1) - F::EXP_BIAS;
    let m = (e - k).clamp(0, F::MANT_BITS as i32) as u32;
    F::SIGN_EXP_BITS + m
}

/// Lanes the block statistics are folded in: wide enough for the widest
/// vector unit, and a block's tail (or a block shorter than this) fills
/// the low lanes only.
const LANES: usize = 16;

/// `a` where `a < b`, else `b` — the selection of a `<`-based running
/// minimum, so a NaN `a` is skipped and a NaN `b` sticks.
#[inline(always)]
fn lesser<F: PartialOrd>(a: F, b: F) -> F {
    if a < b {
        a
    } else {
        b
    }
}

/// `a` where `a > b`, else `b`.
#[inline(always)]
fn greater<F: PartialOrd>(a: F, b: F) -> F {
    if a > b {
        a
    } else {
        b
    }
}

/// A block's smallest value, largest value and largest magnitude (as a bit
/// pattern), folded lane-wise: the same `<` / `>` selections as one
/// sequential pass, taken in another order.  Every extreme is therefore the
/// same *value*; only the sign of a zero extreme may differ, which
/// [`SzxFloat::midrange`] cannot see, and a NaN — which `<` and `>` skip
/// unless it opens the block — is reported by the magnitude either way.
#[inline]
fn block_stats<F: SzxFloat>(chunk: &[F]) -> (F, F, u64) {
    let mut mn = [chunk[0]; LANES];
    let mut mx = [chunk[0]; LANES];
    let mut mag = [F::Bits::default(); LANES];
    let mut rows = chunk.chunks_exact(LANES);
    for row in &mut rows {
        for l in 0..LANES {
            mn[l] = lesser(row[l], mn[l]);
            mx[l] = greater(row[l], mx[l]);
            mag[l] = mag[l].max(row[l].magnitude());
        }
    }
    for (l, &v) in rows.remainder().iter().enumerate() {
        mn[l] = lesser(v, mn[l]);
        mx[l] = greater(v, mx[l]);
        mag[l] = mag[l].max(v.magnitude());
    }
    let (mut lo, mut hi, mut abs_max) = (mn[0], mx[0], mag[0]);
    for l in 1..LANES {
        lo = lesser(mn[l], lo);
        hi = greater(mx[l], hi);
        abs_max = abs_max.max(mag[l]);
    }
    (lo, hi, abs_max.into())
}

/// What one block costs: a flag bit and one value, or a flag bit, a width
/// byte and `width` bits per member.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum BlockClass<F> {
    /// Every member is within the bound of this midrange value.
    Constant(F),
    /// Members are stored truncated to this many leading bits.
    Packed(u32),
}

/// The one block classification, read by [`encode`] and [`encoded_len`]
/// alike (`k` is the bound's exponent, [`crate::bound_exponent`]).
///
/// Only all-finite blocks can be constant (NaN slips through `<`-based
/// min/max), and the midrange must verifiably sit within the bound of
/// *both* extremes — this is what rejects a midrange that overflowed to +∞.
#[inline]
pub(crate) fn classify<F: SzxFloat>(chunk: &[F], error_bound: f64, k: i32) -> BlockClass<F> {
    let (mn, mx, abs_max) = block_stats(chunk);
    if abs_max < F::EXP_MASK {
        let mid = F::midrange(mn, mx);
        if mx.to_f64() - mid.to_f64() <= error_bound && mid.to_f64() - mn.to_f64() <= error_bound {
            return BlockClass::Constant(mid);
        }
    }
    BlockClass::Packed(kept_width::<F>(abs_max, k))
}

/// Encode `values` in blocks of `block` values under `error_bound`,
/// appending the serialized section to `out`.
pub fn encode<F: SzxFloat>(values: &[F], block: usize, error_bound: f64, out: &mut ByteWriter) {
    let k = crate::bound_exponent(error_bound);
    let n_blocks = values.len().div_ceil(block);
    let mut flags = vec![0u8; n_blocks.div_ceil(8)];
    let mut widths: Vec<u8> = Vec::with_capacity(n_blocks);
    let mut constants = ByteWriter::with_capacity(256);
    let mut packer =
        PackWriter::with_bit_capacity(values.len().saturating_mul(F::WIDTH as usize) / 2);

    for (bi, chunk) in values.chunks(block).enumerate() {
        match classify(chunk, error_bound, k) {
            BlockClass::Constant(mid) => {
                flags[bi >> 3] |= 1 << (bi & 7);
                mid.write_to(&mut constants);
            }
            BlockClass::Packed(w) => {
                widths.push(w as u8);
                let drop = F::WIDTH - w;
                for &v in chunk {
                    packer.push(v.to_bits64() >> drop, w);
                }
            }
        }
    }

    let constant_count = (n_blocks - widths.len()) as u64;
    out.put_u64(n_blocks as u64);
    out.put_u64(constant_count);
    out.put_bytes(&flags);
    out.put_bytes(&widths);
    out.put_bytes(&constants.into_bytes());
    let packed_bits = packer.bit_len();
    let payload = packer.into_bytes();
    debug_assert_eq!(payload.len(), packed_bits.div_ceil(8));
    out.put_u64(payload.len() as u64);
    out.put_bytes(&payload);
}

/// The number of bytes [`encode`] appends for the same arguments, from the
/// classification alone: nothing is packed.  With `rebuild`, the same pass
/// forms the values [`decode`] rebuilds — each block's midrange, or its
/// members truncated to the kept width — in the one buffer it allocates.
pub fn encoded_len<F: SzxFloat>(
    values: &[F],
    block: usize,
    error_bound: f64,
    rebuild: bool,
) -> (usize, Option<Vec<F>>) {
    let k = crate::bound_exponent(error_bound);
    let n_blocks = values.len().div_ceil(block);
    let (mut packed_blocks, mut packed_bits) = (0usize, 0usize);
    let mut recon = rebuild.then(|| Vec::with_capacity(values.len()));
    for chunk in values.chunks(block) {
        match classify(chunk, error_bound, k) {
            BlockClass::Constant(mid) => {
                if let Some(recon) = &mut recon {
                    recon.resize(recon.len() + chunk.len(), mid);
                }
            }
            BlockClass::Packed(w) => {
                packed_blocks += 1;
                packed_bits += chunk.len() * w as usize;
                if let Some(recon) = &mut recon {
                    let drop = F::WIDTH - w;
                    let truncated = chunk.iter().map(|&v| v.to_bits64() >> drop << drop);
                    recon.extend(truncated.map(F::from_bits64));
                }
            }
        }
    }
    let constants = (n_blocks - packed_blocks) * (F::WIDTH / 8) as usize;
    // The three `u64` fields are the two counts and the payload length.
    let len = 3 * 8 + n_blocks.div_ceil(8) + packed_blocks + constants + packed_bits.div_ceil(8);
    (len, recon)
}

/// Decode `n` values that were encoded in blocks of `block` values.
pub fn decode<F: SzxFloat>(
    r: &mut ByteReader,
    n: usize,
    block: usize,
) -> Result<Vec<F>, CodecError> {
    let n_blocks = r.get_u64()?;
    if n_blocks != n.div_ceil(block) as u64 {
        return Err(CodecError::Codec(format!(
            "block count {n_blocks} inconsistent with {n} values at block size {block}"
        )));
    }
    let n_blocks = n_blocks as usize;
    let constant_count = r.get_u64()? as usize;
    if constant_count > n_blocks {
        return Err(CodecError::Codec(format!(
            "constant count {constant_count} exceeds block count {n_blocks}"
        )));
    }

    let flags = r.get_bytes(n_blocks.div_ceil(8))?;
    let flagged = |bi: usize| flags[bi >> 3] >> (bi & 7) & 1 == 1;
    if (0..n_blocks).filter(|&bi| flagged(bi)).count() != constant_count {
        return Err(CodecError::Codec(
            "constant flag bitmap disagrees with constant count".into(),
        ));
    }
    if n_blocks % 8 != 0 && flags[n_blocks >> 3] >> (n_blocks & 7) != 0 {
        return Err(CodecError::Codec(
            "stray bits set past the end of the flag bitmap".into(),
        ));
    }

    let widths = r.get_bytes(n_blocks - constant_count)?;
    for &w in widths {
        if (w as u32) < F::SIGN_EXP_BITS || (w as u32) > F::WIDTH {
            return Err(CodecError::Codec(format!(
                "kept width {w} outside [{}, {}]",
                F::SIGN_EXP_BITS,
                F::WIDTH
            )));
        }
    }

    let elem = (F::WIDTH / 8) as usize;
    let constants_len = constant_count
        .checked_mul(elem)
        .ok_or_else(|| CodecError::Codec("constant section length overflows".into()))?;
    let constants = r.get_bytes(constants_len)?;

    // `(n_blocks - 1) * block < n` whenever `n_blocks` is consistent with
    // `n`, so the last-block length below cannot underflow or overflow.
    let block_len = |bi: usize| {
        if bi + 1 == n_blocks {
            n - (n_blocks - 1) * block
        } else {
            block
        }
    };
    let mut total_bits: u128 = 0;
    let mut widx = 0usize;
    for bi in 0..n_blocks {
        if flagged(bi) {
            continue;
        }
        total_bits += block_len(bi) as u128 * widths[widx] as u128;
        widx += 1;
    }

    let payload_len = r.get_u64()? as usize;
    if payload_len as u128 != total_bits.div_ceil(8) {
        return Err(CodecError::Codec(format!(
            "payload length {payload_len} does not match {total_bits} packed bits"
        )));
    }
    let payload = r.get_bytes(payload_len)?;

    // Everything is length-validated; from here on decode is branch-light.
    // A constant block expands one flag bit into `block` values, so `n` is
    // consistent with the input yet not bounded by it: reserve fallibly.
    let mut out: Vec<F> = try_vec(n)?;
    let mut creader = ByteReader::new(constants);
    let mut preader = PackReader::new(payload);
    let mut widx = 0usize;
    for bi in 0..n_blocks {
        let len = block_len(bi);
        if flagged(bi) {
            let c = F::read_from(&mut creader)?;
            out.extend(std::iter::repeat_n(c, len));
        } else {
            let w = widths[widx] as u32;
            widx += 1;
            let shift = F::WIDTH - w;
            for _ in 0..len {
                out.push(F::from_bits64(preader.read(w) << shift));
            }
        }
    }
    debug_assert_eq!(preader.bits_consumed() as u128, total_bits);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kept_width_tracks_block_exponent() {
        // Block max ≈ 1.0 (E = 0), bound 2^-10 → keep 10 mantissa bits.
        let abs_max = 1.0f32.to_bits() as u64;
        assert_eq!(kept_width::<f32>(abs_max, -10), 9 + 10);
        // Bound larger than the block max → sign+exponent only.
        assert_eq!(kept_width::<f32>(abs_max, 4), 9);
        // Bound far below the ulp → full width.
        assert_eq!(kept_width::<f32>(abs_max, -60), 32);
        // Non-finite forces full width.
        assert_eq!(kept_width::<f32>(f32::NAN.to_bits() as u64, 4), 32);
        // Subnormal blocks act at the minimum normal exponent.
        let tiny = 1u64; // smallest positive subnormal f32
        assert_eq!(kept_width::<f32>(tiny, -127), 9 + 1);
        assert_eq!(kept_width::<f64>(1u64, -1023), 12 + 1);
    }

    /// The statistics as one sequential pass takes them — what
    /// [`block_stats`] folds lane-wise.
    fn sequential_stats<F: SzxFloat>(chunk: &[F]) -> (F, F, u64) {
        let (mut mn, mut mx, mut abs_max) = (chunk[0], chunk[0], 0u64);
        for &v in chunk {
            if v < mn {
                mn = v;
            }
            if v > mx {
                mx = v;
            }
            abs_max = abs_max.max(v.to_bits64() & F::ABS_MASK);
        }
        (mn, mx, abs_max)
    }

    fn assert_stats_agree<F: SzxFloat + std::fmt::Debug>(chunk: &[F], what: &str) {
        let (mn, mx, abs_max) = block_stats(chunk);
        let (smn, smx, sabs_max) = sequential_stats(chunk);
        assert_eq!(abs_max, sabs_max, "{what}: magnitude");
        // `==` holds between the two zeros and fails on a NaN extreme, which
        // both passes report exactly when a NaN opens the block.
        let same = |a: F, b: F| a == b || (a.to_f64().is_nan() && b.to_f64().is_nan());
        assert!(same(mn, smn), "{what}: min {mn:?} vs {smn:?}");
        assert!(same(mx, smx), "{what}: max {mx:?} vs {smx:?}");
        for eb in [1e-300, 1e-3, 0.75, 1e300] {
            let k = crate::bound_exponent(eb);
            let sequential = if sabs_max < F::EXP_MASK
                && smx.to_f64() - F::midrange(smn, smx).to_f64() <= eb
                && F::midrange(smn, smx).to_f64() - smn.to_f64() <= eb
            {
                BlockClass::Constant(F::midrange(smn, smx).to_bits64())
            } else {
                BlockClass::Packed(kept_width::<F>(sabs_max, k))
            };
            let lanewise = match classify(chunk, eb, k) {
                BlockClass::Constant(mid) => BlockClass::Constant(mid.to_bits64()),
                BlockClass::Packed(w) => BlockClass::Packed(w),
            };
            assert_eq!(lanewise, sequential, "{what} at {eb:e}");
        }
    }

    #[test]
    fn lanewise_and_sequential_statistics_agree_on_special_values() {
        // Two full rows and a ragged tail; the special value visits every
        // lane of every row, alone and against its opposite in lane 0.
        let base: Vec<f32> = (0..2 * LANES + 5)
            .map(|i| (i as f32 * 0.7).sin() * 0.5)
            .collect();
        let specials = [
            0.0f32,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            f32::MAX,
            f32::MIN,
        ];
        for len in [1, 3, LANES - 1, LANES, LANES + 1, base.len()] {
            for &special in &specials {
                for at in 0..len {
                    let mut chunk = base[..len].to_vec();
                    chunk[at] = special;
                    assert_stats_agree(&chunk, &format!("{special} at {at} of {len}"));
                    let wide: Vec<f64> = chunk.iter().map(|&v| v as f64).collect();
                    assert_stats_agree(&wide, &format!("{special} at {at} of {len} (f64)"));
                    chunk[0] = -special;
                    assert_stats_agree(&chunk, &format!("±{special}, {at} of {len}"));
                }
            }
            // Zeros of both signs only: the extremes differ in sign at most.
            for at in 0..len {
                let mut zeros = vec![0.0f32; len];
                zeros[at] = -0.0;
                assert_stats_agree(&zeros, &format!("-0 at {at} among {len} zeros"));
                let mut zeros = vec![-0.0f32; len];
                zeros[at] = 0.0;
                assert_stats_agree(&zeros, &format!("+0 at {at} among {len} -zeros"));
            }
        }
    }

    #[test]
    fn encoded_len_is_what_encode_appends() {
        let values: Vec<f64> = (0..999)
            .map(|i| {
                if (300..600).contains(&i) {
                    2.5
                } else {
                    (i as f64 * 0.37).sin() * 3e4
                }
            })
            .collect();
        for block in [1, 7, 64, 100, 999, 1517] {
            for eb in [1e-12, 1e-3, 1.0, 1e6] {
                let mut w = ByteWriter::new();
                encode(&values, block, eb, &mut w);
                let (len, _) = encoded_len(&values, block, eb, false);
                assert_eq!(len, w.len(), "{block} {eb}");
            }
        }
    }

    #[test]
    fn truncation_error_is_below_bound_at_every_width() {
        let values: Vec<f64> = (0..999).map(|i| (i as f64 * 0.37).sin() * 3e4).collect();
        for k in [-40i32, -20, -6, 0, 10, 20] {
            let eb = 2f64.powi(k);
            let mut w = ByteWriter::new();
            encode(&values, 64, eb, &mut w);
            let bytes = w.into_bytes();
            let decoded = decode::<f64>(&mut ByteReader::new(&bytes), values.len(), 64).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let rebuilt = encoded_len(&values, 64, eb, true).1.expect("rebuilt");
            assert_eq!(bits(&rebuilt), bits(&decoded), "k={k}: the rebuilt values");
            let worst = values
                .iter()
                .zip(&decoded)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(worst <= eb, "k={k}: worst error {worst} > {eb}");
        }
    }

    #[test]
    fn truncated_section_is_an_error_not_a_panic() {
        let values: Vec<f32> = (0..500).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut w = ByteWriter::new();
        encode(&values, 128, 1e-4, &mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let result = decode::<f32>(&mut ByteReader::new(&bytes[..cut]), values.len(), 128);
            assert!(
                result.is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }
}
