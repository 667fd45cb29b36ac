//! Property tests for the ZFP-like codec: the fixed-accuracy mode must
//! respect its tolerance, the fixed-rate mode must hit its size budget,
//! decompression must never panic, and a measured encode's rebuilt field is
//! the decoded one.

use proptest::prelude::*;

use fraz_data::{Dataset, Dims, Want};
use fraz_zfp::{compress, decompress, encode, ZfpConfig, ZfpMode};

fn max_error(a: &Dataset, b: &Dataset) -> f64 {
    a.values_f64()
        .iter()
        .zip(b.values_f64().iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn smooth3d(nz: usize, ny: usize, nx: usize, amp: f32, fx: f32, fy: f32) -> Vec<f32> {
    let mut values = Vec::with_capacity(nz * ny * nx);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                values
                    .push(amp * ((x as f32 * fx).sin() + (y as f32 * fy).cos() + z as f32 * 0.05));
            }
        }
    }
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn accuracy_tolerance_holds_on_smooth_fields(
        amp in 0.01f32..1e4,
        fx in 0.01f32..0.8,
        fy in 0.01f32..0.8,
        tol_exp in -6i32..2,
    ) {
        let tol = 10f64.powi(tol_exp);
        let values = smooth3d(8, 12, 12, amp, fx, fy);
        let original = Dataset::from_f32("prop", "smooth", 0, Dims::d3(8, 12, 12), values);
        let packed = compress(&original, &ZfpConfig::accuracy(tol)).unwrap();
        let restored = decompress(&packed).unwrap();
        prop_assert!(max_error(&original, &restored) <= tol,
            "tol {} err {}", tol, max_error(&original, &restored));
        prop_assert_eq!(&restored.dims, &original.dims);
    }

    #[test]
    fn accuracy_tolerance_holds_on_arbitrary_finite_data(
        values in proptest::collection::vec(proptest::num::f32::NORMAL, 64..256),
        tol_exp in -4i32..4,
    ) {
        // Clamp to a sane magnitude so the tolerance is meaningful relative
        // to the data (f32::NORMAL can produce 1e38).
        let values: Vec<f32> = values.iter().map(|v| v.clamp(-1e6, 1e6)).collect();
        let n = values.len();
        let tol = 10f64.powi(tol_exp);
        let original = Dataset::from_f32("prop", "rand", 0, Dims::d1(n), values);
        let packed = compress(&original, &ZfpConfig::accuracy(tol)).unwrap();
        let restored = decompress(&packed).unwrap();
        prop_assert!(max_error(&original, &restored) <= tol,
            "tol {} err {}", tol, max_error(&original, &restored));
    }

    #[test]
    fn fixed_rate_size_scales_with_rate(
        amp in 0.1f32..1e3,
        bpv in 1.0f64..24.0,
    ) {
        let values = smooth3d(8, 8, 8, amp, 0.3, 0.2);
        let original = Dataset::from_f32("prop", "rate", 0, Dims::d3(8, 8, 8), values);
        let packed = compress(&original, &ZfpConfig { mode: ZfpMode::FixedRate { bits_per_value: bpv } }).unwrap();
        // Payload = rate * points (within rounding and a small header).
        let expected = bpv * original.len() as f64 / 8.0;
        prop_assert!((packed.len() as f64) < expected + 128.0);
        prop_assert!((packed.len() as f64) > expected * 0.8);
        let restored = decompress(&packed).unwrap();
        prop_assert_eq!(restored.len(), original.len());
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decompress(&data);
    }
}

/// A ragged grid of 1 to 3 dimensions, none a multiple of the block edge
/// unless drawn so: a smooth wave of amplitude `amp` under noise of up to
/// `noise` × `amp` (none for one seed in four), offset by up to ±3 `amp`.
fn ragged(extents: &[usize], amp: f64, noise: f64, seed: u64) -> (Dims, Vec<f64>) {
    let dims = match *extents {
        [n] => Dims::d1(n),
        [ny, nx] => Dims::d2(ny, nx),
        [nz, ny, nx] => Dims::d3(nz, ny, nx),
        _ => unreachable!("one to three extents"),
    };
    let noise = if seed % 4 == 0 { 0.0 } else { noise };
    let offset = ((seed >> 40) % 7) as f64 - 3.0;
    let mut state = seed | 1;
    let values = (0..dims.len())
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let jitter = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            amp * ((i as f64 * 0.37).sin() + noise * jitter + offset)
        })
        .collect();
    (dims, values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// `encode(.., Want::Measured)` rebuilds each block from the bits it
    /// conveyed: the reconstruction is, bit for bit, `decompress` of
    /// `compress`'s stream, and the stream and its length are `compress`'s —
    /// on `f32` and `f64`, in the accuracy mode at bounds across the range,
    /// and in the rate mode, whose budget stops inside a bit plane.
    #[test]
    fn a_measured_encode_rebuilds_the_decoded_field(
        extents in proptest::collection::vec(1usize..=19, 1..=3),
        amp_exp in -3.0f64..4.0,
        noise in 0.0f64..2.0,
        seed in any::<u64>(),
        bound in 0.0f64..1.0,
        flags in 0u8..4,
    ) {
        let (dims, values) = ragged(&extents, 10f64.powf(amp_exp), noise, seed);
        let (wide, rate) = (flags & 1 == 1, flags & 2 == 2);
        let original = if wide {
            Dataset::from_f64("prop", "ragged", 0, dims, values)
        } else {
            let narrow = values.iter().map(|&v| v as f32).collect();
            Dataset::from_f32("prop", "ragged", 0, dims, narrow)
        };
        let config = if rate {
            ZfpConfig::rate(0.5 + 40.0 * bound)
        } else {
            // 1e-7 to 1e-1 of the value range (of the amplitude, on a
            // constant field).
            let range = original.value_range().max(10f64.powf(amp_exp));
            ZfpConfig::accuracy(range * 10f64.powf(-7.0 + 6.0 * bound))
        };
        let stream = compress(&original, &config).unwrap();
        let measured = encode(&original, &config, Want::Measured).unwrap();
        prop_assert_eq!(measured.len, stream.len());
        prop_assert_eq!(measured.stream.as_ref(), Some(&stream));
        let decoded = decompress(&stream).unwrap().buffer;
        let recon = measured.recon.expect("a measured encode rebuilds the field");
        prop_assert_eq!(recon.dtype(), decoded.dtype());
        prop_assert!(recon.to_le_bytes() == decoded.to_le_bytes(), "{:?}", config);
    }
}

#[test]
fn accuracy_mode_on_synthetic_nyx_temperature() {
    let app = fraz_data::synthetic::nyx(16, 16, 16, 2, 9);
    let original = app.field("temperature", 0);
    let stats = original.stats();
    let tol = stats.value_range() * 1e-3;
    let packed = compress(&original, &ZfpConfig::accuracy(tol)).unwrap();
    let restored = decompress(&packed).unwrap();
    assert!(max_error(&original, &restored) <= tol);
    assert!(packed.len() < original.byte_size());
}
