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

/// Accumulates sizes over many buffers (e.g. all fields of a time-step) and
/// reports the aggregate ratio, as done for the whole-dataset numbers in the
/// evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RatioAccumulator {
    /// Total original bytes seen.
    pub original_bytes: u64,
    /// Total compressed bytes seen.
    pub compressed_bytes: u64,
    /// Total number of data points seen.
    pub num_points: u64,
}

impl RatioAccumulator {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one compressed buffer.
    pub fn record(&mut self, original_bytes: usize, compressed_bytes: usize, num_points: usize) {
        self.original_bytes += original_bytes as u64;
        self.compressed_bytes += compressed_bytes as u64;
        self.num_points += num_points as u64;
    }

    /// Aggregate compression ratio so far.
    pub fn ratio(&self) -> f64 {
        compression_ratio(self.original_bytes as usize, self.compressed_bytes as usize)
    }

    /// Aggregate bit rate so far.
    pub fn bit_rate(&self) -> f64 {
        bit_rate(self.compressed_bytes as usize, self.num_points as usize)
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

    #[test]
    fn accumulator_aggregates() {
        let mut acc = RatioAccumulator::new();
        acc.record(4000, 1000, 1000);
        acc.record(4000, 100, 1000);
        assert!((acc.ratio() - 8000.0 / 1100.0).abs() < 1e-9);
        assert!((acc.bit_rate() - 1100.0 * 8.0 / 2000.0).abs() < 1e-9);
    }
}
