//! `encode(.., Want::Size).len` is `compress(..).map(|b| b.len())` — the same `Result`,
//! errors included — over random lengths, block sizes, element types, value
//! populations (raw bit patterns with their NaNs and infinities, narrow
//! plateaus that classify constant, subnormals) and bounds from far below
//! the smallest subnormal (which rounds to zero and must be refused by both)
//! to far above any value.  `encode(.., Want::Measured)`, which packs
//! nothing, has that length too, and its reconstruction is what
//! `decompress` rebuilds from `compress`'s stream, bit for bit.

use proptest::prelude::*;

use fraz_data::{Dataset, Dims, Want};
use fraz_szx::{compress, decompress, encode, SzxConfig};

/// One value per draw: `kind` picks the population.
fn value(kind: u8, i: usize, bits: u32) -> f32 {
    let unit = bits as f32 / u32::MAX as f32;
    match kind {
        // Every bit pattern: NaN, ±∞, ±0 and subnormals included.
        0 => f32::from_bits(bits),
        // Plateaus of 40 values a hair apart, so blocks classify constant.
        1 => (i / 40) as f32 * 3.0 + unit * 1e-4,
        // Subnormals of both signs.
        2 => f32::from_bits(bits & 0x807f_ffff),
        // A plateau field with a raw bit pattern every 97 values.
        _ if i % 97 == 0 => f32::from_bits(bits),
        _ => 7.0 + unit * 1e-3,
    }
}

/// The field and config one draw describes.
fn draw(bits: &[u32], kind: u8, block: usize, double: bool, bound: f64) -> (Dataset, SzxConfig) {
    let n = bits.len();
    let values = bits.iter().enumerate().map(|(i, &b)| value(kind, i, b));
    let dataset = if double {
        let wide = values.map(|v| v as f64 * if kind == 2 { 1e-270 } else { 1.0 });
        Dataset::from_f64("prop", "len", 3, Dims::d1(n), wide.collect())
    } else {
        Dataset::from_f32("prop", "len", 3, Dims::d1(n), values.collect())
    };
    let config = SzxConfig {
        error_bound: bound,
        block_size: Some(block),
    };
    (dataset, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn the_size_encode_is_the_length_of_compress(
        bits in proptest::collection::vec(any::<u32>(), 1..2500),
        kind in 0u8..4,
        block in 1usize..400,
        double in any::<bool>(),
        bound_exp in -330i32..40,
        bound_digits in 1.0f64..10.0,
    ) {
        let bound = bound_digits * 10f64.powi(bound_exp);
        let (dataset, config) = draw(&bits, kind, block, double, bound);
        prop_assert_eq!(
            encode(&dataset, &config, Want::Size).map(|encoded| encoded.len),
            compress(&dataset, &config).map(|bytes| bytes.len()),
            "{} values, kind {}, {:?}", bits.len(), kind, config
        );
    }

    #[test]
    fn the_measured_encode_is_the_decoded_stream(
        bits in proptest::collection::vec(any::<u32>(), 1..2500),
        kind in 0u8..4,
        block in 1usize..400,
        double in any::<bool>(),
        bound_exp in -330i32..40,
        bound_digits in 1.0f64..10.0,
    ) {
        let bound = bound_digits * 10f64.powi(bound_exp);
        let (dataset, config) = draw(&bits, kind, block, double, bound);
        let what = format!("{} values, kind {}, {:?}", bits.len(), kind, config);
        match (compress(&dataset, &config), encode(&dataset, &config, Want::Measured)) {
            (Ok(stream), Ok(measured)) => {
                prop_assert_eq!(measured.len, stream.len(), "{}", what);
                prop_assert!(measured.stream.is_none(), "{}", what);
                // Bit for bit, NaN payloads included.
                let decoded = decompress(&stream).unwrap().buffer.to_le_bytes();
                prop_assert!(measured.recon.unwrap().to_le_bytes() == decoded, "{}", what);
            }
            (stream, measured) => prop_assert_eq!(
                measured.map(|encoded| encoded.len),
                stream.map(|bytes| bytes.len()),
                "{}", what
            ),
        }
    }
}
