//! Compression-ratio and bit-rate bookkeeping.
//!
//! The paper's central quantity is the compression ratio
//! `ρ = s(D) / s(D')` (original bytes over compressed bytes); rate-distortion
//! plots use the *bit rate*, the average number of bits per data point after
//! compression.  The two are related by `bit_rate = bits_per_value / ρ`.

/// `original_bytes / compressed_bytes`.  A zero-byte compressed size (never
/// produced by the codecs, but possible in degenerate tests) yields infinity;
/// a zero-byte original yields 0.
pub fn compression_ratio(original_bytes: usize, compressed_bytes: usize) -> f64 {
    if compressed_bytes == 0 {
        if original_bytes == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        original_bytes as f64 / compressed_bytes as f64
    }
}

/// Average number of bits used per data point after compression.
pub fn bit_rate(compressed_bytes: usize, num_points: usize) -> f64 {
    if num_points == 0 {
        0.0
    } else {
        compressed_bytes as f64 * 8.0 / num_points as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ratio() {
        assert_eq!(compression_ratio(1000, 100), 10.0);
        assert_eq!(compression_ratio(0, 0), 0.0);
        assert!(compression_ratio(10, 0).is_infinite());
    }

    #[test]
    fn basic_bit_rate() {
        // 4-byte floats compressed 8:1 -> 4 bits/value.
        assert_eq!(bit_rate(500, 1000), 4.0);
        assert_eq!(bit_rate(0, 0), 0.0);
    }
}
