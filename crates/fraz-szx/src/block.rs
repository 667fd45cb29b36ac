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
//! is allocated, so a corrupt header yields [`SzxError::Corrupt`], never a
//! panic or an out-of-bounds read.

use fraz_data::wire::{try_vec, ByteReader, ByteWriter, WireError};

use crate::pack::{PackReader, PackWriter};
use crate::SzxError;

/// An IEEE-754 scalar the blockwise codec can process (`f32` or `f64`).
pub trait SzxFloat: Copy + PartialOrd {
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
        let mut mn = chunk[0];
        let mut mx = chunk[0];
        let mut abs_max = 0u64;
        for &v in chunk {
            if v < mn {
                mn = v;
            }
            if v > mx {
                mx = v;
            }
            let a = v.to_bits64() & F::ABS_MASK;
            if a > abs_max {
                abs_max = a;
            }
        }

        // Constant classification: only all-finite blocks qualify (NaN slips
        // through `<`-based min/max), and the midrange must verifiably sit
        // within the bound of *both* extremes — this is what rejects a
        // midrange that overflowed to +∞.
        if abs_max < F::EXP_MASK {
            let mid = F::midrange(mn, mx);
            if mx.to_f64() - mid.to_f64() <= error_bound
                && mid.to_f64() - mn.to_f64() <= error_bound
            {
                flags[bi >> 3] |= 1 << (bi & 7);
                mid.write_to(&mut constants);
                continue;
            }
        }

        let w = kept_width::<F>(abs_max, k);
        widths.push(w as u8);
        let drop = F::WIDTH - w;
        for &v in chunk {
            packer.push(v.to_bits64() >> drop, w);
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

/// Decode `n` values that were encoded in blocks of `block` values.
pub fn decode<F: SzxFloat>(r: &mut ByteReader, n: usize, block: usize) -> Result<Vec<F>, SzxError> {
    let n_blocks = r.get_u64()?;
    if n_blocks != n.div_ceil(block) as u64 {
        return Err(SzxError::Corrupt(format!(
            "block count {n_blocks} inconsistent with {n} values at block size {block}"
        )));
    }
    let n_blocks = n_blocks as usize;
    let constant_count = r.get_u64()? as usize;
    if constant_count > n_blocks {
        return Err(SzxError::Corrupt(format!(
            "constant count {constant_count} exceeds block count {n_blocks}"
        )));
    }

    let flags = r.get_bytes(n_blocks.div_ceil(8))?;
    let flagged = |bi: usize| flags[bi >> 3] >> (bi & 7) & 1 == 1;
    if (0..n_blocks).filter(|&bi| flagged(bi)).count() != constant_count {
        return Err(SzxError::Corrupt(
            "constant flag bitmap disagrees with constant count".into(),
        ));
    }
    if n_blocks % 8 != 0 && flags[n_blocks >> 3] >> (n_blocks & 7) != 0 {
        return Err(SzxError::Corrupt(
            "stray bits set past the end of the flag bitmap".into(),
        ));
    }

    let widths = r.get_bytes(n_blocks - constant_count)?;
    for &w in widths {
        if (w as u32) < F::SIGN_EXP_BITS || (w as u32) > F::WIDTH {
            return Err(SzxError::Corrupt(format!(
                "kept width {w} outside [{}, {}]",
                F::SIGN_EXP_BITS,
                F::WIDTH
            )));
        }
    }

    let elem = (F::WIDTH / 8) as usize;
    let constants_len = constant_count
        .checked_mul(elem)
        .ok_or_else(|| SzxError::Corrupt("constant section length overflows".into()))?;
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
        return Err(SzxError::Corrupt(format!(
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
            out.extend(std::iter::repeat(c).take(len));
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

    #[test]
    fn truncation_error_is_below_bound_at_every_width() {
        let values: Vec<f64> = (0..999).map(|i| (i as f64 * 0.37).sin() * 3e4).collect();
        for k in [-40i32, -20, -6, 0, 10, 20] {
            let eb = 2f64.powi(k);
            let mut w = ByteWriter::new();
            encode(&values, 64, eb, &mut w);
            let bytes = w.into_bytes();
            let decoded = decode::<f64>(&mut ByteReader::new(&bytes), values.len(), 64).unwrap();
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
