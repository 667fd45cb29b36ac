//! Negabinary conversion and embedded bit-plane coding of block
//! coefficients.
//!
//! This mirrors ZFP's `encode_ints` / `decode_ints`: transform coefficients
//! are mapped from two's complement to negabinary (so magnitude ordering is
//! monotone in the unsigned representation), then bit planes are emitted from
//! most to least significant with a group-testing scheme that spends very few
//! bits on planes where most coefficients are still insignificant.  Both the
//! per-block bit budget (`max_bits`, used by the fixed-rate mode) and the
//! per-block precision (`max_prec`, used by the fixed-accuracy mode) limit
//! how much of each block is emitted.
//!
//! Neither side works a bit at a time.  A full 4^3 block is a 64×64 bit
//! matrix, so its planes are cut all at once by transposing it (and the
//! decoder turns its planes back into coefficients the same way); the 16-
//! and 4-coefficient blocks of 2-D and 1-D data would transpose mostly
//! zeros and take each plane as it is coded.  A verbatim run of plane bits is one
//! bit-reversed word — ZFP's stream is
//! least-significant-bit first, the workspace's bit I/O most-significant
//! first — and a unary run (zeros up to the next significant coefficient)
//! is one `trailing_zeros` and one write, or one peek and one
//! `leading_zeros`.  The bits are the ones the bit-at-a-time form emits;
//! the tests keep that form and compare.

use fraz_lossless::bitio::{BitReader, BitWriter, MAX_PEEK_BITS};
use fraz_lossless::{CodingError, Result};

/// Number of bit planes in the integer representation.
pub const INT_PRECISION: u32 = 64;

const NEGABINARY_MASK: u64 = 0xaaaa_aaaa_aaaa_aaaa;

/// Map a two's-complement integer to negabinary.
#[inline]
pub fn int_to_uint(x: i64) -> u64 {
    ((x as u64).wrapping_add(NEGABINARY_MASK)) ^ NEGABINARY_MASK
}

/// Inverse of [`int_to_uint`].
#[inline]
pub fn uint_to_int(x: u64) -> i64 {
    ((x ^ NEGABINARY_MASK).wrapping_sub(NEGABINARY_MASK)) as i64
}

/// Write the low `n <= 64` bits of `x`, least significant first.
#[inline]
fn write_bits_lsb(w: &mut BitWriter, x: u64, n: u64) {
    if n > 0 {
        w.write_bits(x.reverse_bits() >> (64 - n), n as u32);
    }
}

/// Read `n <= 64` bits, the first into bit 0.
#[inline]
fn read_bits_lsb(r: &mut BitReader<'_>, n: u64) -> Result<u64> {
    if n == 0 {
        return Ok(0);
    }
    Ok(r.read_bits(n as u32)?.reverse_bits() >> (64 - n))
}

/// Transpose a 64×64 bit matrix in place (row `r`, column `c` is bit `c` of
/// `m[r]`): six rounds of swapping the off-diagonal halves of ever smaller
/// square tiles.
fn transpose_bits(m: &mut [u64; 64]) {
    let mut half = 32;
    let mut mask = u64::MAX >> 32;
    while half != 0 {
        let mut r = 0;
        while r < 64 {
            let t = ((m[r] >> half) ^ m[r + half]) & mask;
            m[r] ^= t << half;
            m[r + half] ^= t;
            r = (r + half + 1) & !half;
        }
        half >>= 1;
        mask ^= mask << half;
    }
}

/// Whether a block's planes are cut and joined by [`transpose_bits`]: a
/// full 4^3 block is the whole matrix.  The 16- and 4-coefficient blocks of
/// 2-D and 1-D data would transpose mostly zeros; they take each plane as
/// it is coded, a loop over their few coefficients.
#[inline]
fn transposes(size: usize) -> bool {
    size == 64
}

/// The lowest bit plane coded at precision `max_prec`.
#[inline]
fn lowest_plane(max_prec: u32) -> u32 {
    INT_PRECISION.saturating_sub(max_prec)
}

/// Encode up to `max_prec` bit planes of `data` (negabinary coefficients in
/// sequency order), spending at most `max_bits` bits.  Returns the number of
/// bits written.
pub fn encode_ints(w: &mut BitWriter, data: &[u64], max_bits: u64, max_prec: u32) -> u64 {
    let size = data.len();
    debug_assert!(size <= 64, "blocks never exceed 4^3 coefficients");
    let kmin = lowest_plane(max_prec);
    // Step 1, for a full block: cut every plane at once (coefficient i ->
    // bit i of plane k).
    let planes = transposes(size).then(|| {
        let mut planes = [0u64; 64];
        planes.copy_from_slice(data);
        transpose_bits(&mut planes);
        planes
    });
    let mut bits = max_bits;
    let mut n: usize = 0;
    let mut k = INT_PRECISION;
    while bits > 0 && k > kmin {
        k -= 1;
        let mut x = match &planes {
            Some(planes) => planes[k as usize],
            None => data
                .iter()
                .enumerate()
                .fold(0, |x, (i, &d)| x | ((d >> k) & 1) << i),
        };
        // Step 2: verbatim-encode the bits of coefficients already known to
        // be significant.
        let m = (n as u64).min(bits);
        bits -= m;
        write_bits_lsb(w, x, m);
        x = if m >= 64 { 0 } else { x >> m };
        // Step 3: group-test / unary encode the remainder of the plane.
        while n < size && bits > 0 {
            bits -= 1;
            let group = x != 0;
            w.write_bit(group);
            if !group {
                break;
            }
            // The zeros up to the next significant coefficient, then its
            // one — unless the run reaches the last coefficient (whose one
            // is implied) or the budget first.
            let limit = ((size - 1 - n) as u64).min(bits);
            let zeros = x.trailing_zeros() as u64;
            let run = if zeros < limit {
                w.write_bits(1, zeros as u32 + 1);
                bits -= zeros + 1;
                zeros
            } else {
                w.write_bits(0, limit as u32);
                bits -= limit;
                limit
            };
            x = x >> run >> 1;
            n += run as usize + 1;
        }
    }
    max_bits - bits
}

/// Decode the bit planes written by [`encode_ints`] with identical
/// parameters into `data` (one coefficient per lane of the block).  Returns
/// the number of bits consumed.
pub fn decode_ints(
    r: &mut BitReader<'_>,
    data: &mut [u64],
    max_bits: u64,
    max_prec: u32,
) -> Result<u64> {
    let size = data.len();
    debug_assert!(size <= 64);
    let kmin = lowest_plane(max_prec);
    let mut planes = transposes(size).then_some([0u64; 64]);
    data.fill(0);
    let mut bits = max_bits;
    let mut n: usize = 0;
    let mut k = INT_PRECISION;
    while bits > 0 && k > kmin {
        k -= 1;
        let m = (n as u64).min(bits);
        bits -= m;
        let mut x = read_bits_lsb(r, m)?;
        // Group-test / unary decode the remainder of the plane.
        while n < size && bits > 0 {
            bits -= 1;
            let group = r.read_bit()?;
            if !group {
                break;
            }
            // Zeros up to the one that ends the run; the one is implied if
            // the run reaches the last coefficient or the budget first.
            loop {
                let limit = ((size - 1 - n) as u64).min(bits);
                if limit == 0 {
                    break;
                }
                let chunk = limit
                    .min(MAX_PEEK_BITS as u64)
                    .min(r.bits_remaining() as u64) as u32;
                if chunk == 0 {
                    return Err(CodingError::UnexpectedEof);
                }
                // The next stream bit is the top bit of the shifted window.
                let zeros = (r.peek_bits(chunk) << (64 - chunk)).leading_zeros();
                if zeros < chunk {
                    r.consume(zeros + 1);
                    bits -= zeros as u64 + 1;
                    n += zeros as usize;
                    break;
                }
                r.consume(chunk);
                bits -= chunk as u64;
                n += chunk as usize;
            }
            x |= 1u64 << n;
            n += 1;
        }
        // Bit `i` of the plane belongs to coefficient `i` (and `i < size`).
        match &mut planes {
            Some(planes) => planes[k as usize] = x,
            None => {
                while x != 0 {
                    data[x.trailing_zeros() as usize] |= 1 << k;
                    x &= x - 1;
                }
            }
        }
    }
    if let Some(mut planes) = planes {
        transpose_bits(&mut planes);
        data.copy_from_slice(&planes);
    }
    Ok(max_bits - bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negabinary_roundtrip() {
        for v in [
            0i64,
            1,
            -1,
            2,
            -2,
            1234567,
            -987654321,
            i64::MAX / 2,
            i64::MIN / 2,
        ] {
            assert_eq!(uint_to_int(int_to_uint(v)), v);
        }
    }

    #[test]
    fn negabinary_magnitude_monotonicity() {
        // Small-magnitude integers map to small negabinary codes, which is
        // what makes dropping low bit planes a graceful degradation.
        assert!(int_to_uint(0) < int_to_uint(1000));
        assert!(int_to_uint(3).leading_zeros() > int_to_uint(1 << 40).leading_zeros());
    }

    fn roundtrip(data: &[u64], max_bits: u64, max_prec: u32) -> (Vec<u64>, u64, u64) {
        let mut w = BitWriter::new();
        let written = encode_ints(&mut w, data, max_bits, max_prec);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut decoded = vec![u64::MAX; data.len()];
        let consumed = decode_ints(&mut r, &mut decoded, max_bits, max_prec).unwrap();
        (decoded, written, consumed)
    }

    /// The coder as ZFP states it, one bit at a time: the form the batched
    /// encoder must match bit for bit.
    fn encode_ints_bitwise(w: &mut BitWriter, data: &[u64], max_bits: u64, max_prec: u32) -> u64 {
        let size = data.len();
        let kmin = INT_PRECISION.saturating_sub(max_prec);
        let (mut bits, mut n, mut k) = (max_bits, 0usize, INT_PRECISION);
        while bits > 0 && k > kmin {
            k -= 1;
            let mut x: u64 = 0;
            for (i, &d) in data.iter().enumerate() {
                x |= ((d >> k) & 1) << i;
            }
            let m = (n as u64).min(bits);
            bits -= m;
            for i in 0..m {
                w.write_bit((x >> i) & 1 == 1);
            }
            x = if m >= 64 { 0 } else { x >> m };
            while n < size && bits > 0 {
                bits -= 1;
                let group = x != 0;
                w.write_bit(group);
                if !group {
                    break;
                }
                while n < size - 1 && bits > 0 {
                    bits -= 1;
                    let bit = x & 1 == 1;
                    w.write_bit(bit);
                    if bit {
                        break;
                    }
                    x >>= 1;
                    n += 1;
                }
                x >>= 1;
                n += 1;
            }
        }
        max_bits - bits
    }

    /// The bit-at-a-time decoder, as above.
    fn decode_ints_bitwise(
        r: &mut BitReader<'_>,
        size: usize,
        max_bits: u64,
        max_prec: u32,
    ) -> Result<(Vec<u64>, u64)> {
        let kmin = INT_PRECISION.saturating_sub(max_prec);
        let mut data = vec![0u64; size];
        let (mut bits, mut n, mut k) = (max_bits, 0usize, INT_PRECISION);
        while bits > 0 && k > kmin {
            k -= 1;
            let m = (n as u64).min(bits);
            bits -= m;
            let mut x = 0u64;
            for i in 0..m {
                x |= (r.read_bit()? as u64) << i;
            }
            while n < size && bits > 0 {
                bits -= 1;
                if !r.read_bit()? {
                    break;
                }
                while n < size - 1 && bits > 0 {
                    bits -= 1;
                    if r.read_bit()? {
                        break;
                    }
                    n += 1;
                }
                x |= 1u64 << n;
                n += 1;
            }
            for (i, d) in data.iter_mut().enumerate() {
                *d |= ((x >> i) & 1) << k;
            }
        }
        Ok((data, max_bits - bits))
    }

    #[test]
    fn transpose_moves_bit_c_of_row_r_to_bit_r_of_row_c() {
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        let mut m = [0u64; 64];
        for row in m.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *row = state ^ (state >> 29);
        }
        let original = m;
        transpose_bits(&mut m);
        for (r, row) in original.iter().enumerate() {
            for (c, column) in m.iter().enumerate() {
                assert_eq!((column >> r) & 1, (row >> c) & 1, "({r}, {c})");
            }
        }
        transpose_bits(&mut m);
        assert_eq!(m, original);
    }

    #[test]
    fn batched_coder_is_the_bitwise_coder_bit_for_bit() {
        let mut state = 0x853C_49E6_748F_EA9Bu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..2000 {
            let size = [1, 3, 4, 16, 37, 64][case % 6];
            // Magnitudes fall off with the index, as transform coefficients
            // do; some cases are dense, some all zero.
            let falloff = next() % 4;
            let data: Vec<u64> = (0..size)
                .map(|i| match case % 11 {
                    0 => 0,
                    1 => u64::MAX,
                    _ => next() >> ((i as u64 * falloff) % 64),
                })
                .collect();
            let max_prec = [0, 1, 7, 20, 33, 63, 64][next() as usize % 7];
            let max_bits = [0, 1, 13, 64, 200, 1 << 40][next() as usize % 6];

            let (mut fast, mut slow) = (BitWriter::new(), BitWriter::new());
            let written = encode_ints(&mut fast, &data, max_bits, max_prec);
            assert_eq!(
                written,
                encode_ints_bitwise(&mut slow, &data, max_bits, max_prec),
                "case {case}"
            );
            assert_eq!(fast.bit_len(), slow.bit_len(), "case {case}");
            let bytes = fast.into_bytes();
            assert_eq!(bytes, slow.into_bytes(), "case {case}");

            let mut decoded = vec![u64::MAX; size];
            let mut r = BitReader::new(&bytes);
            let consumed = decode_ints(&mut r, &mut decoded, max_bits, max_prec).unwrap();
            let mut r = BitReader::new(&bytes);
            let (expected, expected_consumed) =
                decode_ints_bitwise(&mut r, size, max_bits, max_prec).unwrap();
            assert_eq!(
                (decoded, consumed),
                (expected, expected_consumed),
                "case {case}"
            );

            // Cut short or corrupted, both decoders agree on values or on
            // failing.
            let mut hostile = bytes[..bytes.len() / 2].to_vec();
            if let Some(byte) = hostile.first_mut() {
                *byte ^= next() as u8;
            }
            let mut decoded = vec![0u64; size];
            let fast = decode_ints(
                &mut BitReader::new(&hostile),
                &mut decoded,
                max_bits,
                max_prec,
            )
            .map(|consumed| (decoded, consumed));
            let slow = decode_ints_bitwise(&mut BitReader::new(&hostile), size, max_bits, max_prec);
            assert_eq!(fast, slow, "case {case}, hostile input");
        }
    }

    #[test]
    fn lossless_roundtrip_with_full_budget() {
        let data: Vec<u64> = (0..64u64)
            .map(|i| int_to_uint((i as i64 - 32) << 33))
            .collect();
        let (decoded, written, consumed) = roundtrip(&data, u64::MAX / 2, 64);
        assert_eq!(decoded, data);
        assert_eq!(written, consumed);
    }

    #[test]
    fn all_zero_block_costs_few_bits() {
        let data = vec![0u64; 64];
        let (decoded, written, _) = roundtrip(&data, u64::MAX / 2, 64);
        assert_eq!(decoded, data);
        // One group-test bit per plane.
        assert_eq!(written, 64);
    }

    #[test]
    fn truncated_precision_zeroes_low_planes() {
        let data: Vec<u64> = (0..16u64).map(|i| (i * 0x0123_4567) | 1).collect();
        let (decoded, _, _) = roundtrip(&data, u64::MAX / 2, 32);
        for (d, o) in decoded.iter().zip(data.iter()) {
            // Upper 32 planes must match exactly; lower ones are zeroed.
            assert_eq!(d >> 32, o >> 32);
            assert_eq!(d & 0xffff_ffff & !(u64::MAX << 32), d & 0xffff_ffff);
        }
    }

    #[test]
    fn bit_budget_is_respected_and_consistent() {
        let data: Vec<u64> = (0..64u64)
            .map(|i| int_to_uint(((i * i) as i64) << 40))
            .collect();
        for budget in [16u64, 64, 256, 1024] {
            let mut w = BitWriter::new();
            let written = encode_ints(&mut w, &data, budget, 64);
            assert!(written <= budget);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            let mut decoded = vec![0u64; data.len()];
            let consumed = decode_ints(&mut r, &mut decoded, budget, 64).unwrap();
            assert_eq!(consumed, written, "budget {budget}");
            // Reconstruction error must shrink as the budget grows.
            let err: i64 = decoded
                .iter()
                .zip(data.iter())
                .map(|(&d, &o)| (uint_to_int(d) - uint_to_int(o)).abs())
                .max()
                .unwrap();
            if budget >= 1024 {
                assert_eq!(err, 0);
            }
        }
    }

    #[test]
    fn larger_budget_never_increases_error() {
        let data: Vec<u64> = (0..64u64)
            .map(|i| int_to_uint((((i * 2654435761) as i64) % (1 << 45)) - (1 << 44)))
            .collect();
        let mut prev_err = i64::MAX;
        for budget in [32u64, 512, 8192] {
            let (decoded, _, _) = roundtrip(&data, budget, 64);
            let err: i64 = decoded
                .iter()
                .zip(data.iter())
                .map(|(&d, &o)| (uint_to_int(d) - uint_to_int(o)).abs())
                .max()
                .unwrap();
            assert!(err <= prev_err, "budget {budget}: {err} > {prev_err}");
            prev_err = err;
        }
        assert_eq!(prev_err, 0);
    }

    #[test]
    fn partial_block_sizes_roundtrip() {
        for size in [1usize, 3, 4, 15, 16, 37, 64] {
            let data: Vec<u64> = (0..size as u64)
                .map(|i| int_to_uint((i as i64 - 5) << 30))
                .collect();
            let (decoded, _, _) = roundtrip(&data, u64::MAX / 2, 64);
            assert_eq!(decoded, data, "size {size}");
        }
    }
}
