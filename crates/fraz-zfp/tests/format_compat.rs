//! Wire-format regression fixtures for the ZFP-like codec, one per
//! registry name it backs (`zfp` = fixed accuracy, `zfp-rate` = fixed
//! rate): the committed blobs under `tests/fixtures/` pin the exact bytes
//! the encoder produces.
//!
//! Inputs are fixed formulas, so only the blobs are committed.  Regenerate
//! only for an *intentional, versioned* format change:
//!
//! ```text
//! cargo test -p fraz-zfp --test format_compat -- --ignored regenerate
//! ```

use std::path::PathBuf;

use fraz_data::{Dataset, Dims};
use fraz_zfp::{compress, decompress, ZfpConfig, ZfpMode};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn wave(i: usize) -> f64 {
    let x = i as f64;
    (x * 0.021).sin() * 3.0 + (x * 0.0013).cos() * 10.0
}

fn fixtures() -> Vec<(&'static str, Dataset, ZfpConfig)> {
    let d3 = Dims::d3(13, 17, 19);
    let d2 = Dims::d2(50, 61);
    vec![
        (
            "wave_f32_3d_tol1e-3.zfp",
            Dataset::from_f32(
                "fixture",
                "wave32",
                3,
                d3.clone(),
                (0..d3.len()).map(|i| wave(i) as f32).collect(),
            ),
            ZfpConfig::accuracy(1e-3),
        ),
        (
            "wave_f64_1d_tol1e-6.zfp",
            Dataset::from_f64(
                "fixture",
                "wave64",
                0,
                Dims::d1(3001),
                (0..3001).map(wave).collect(),
            ),
            ZfpConfig::accuracy(1e-6),
        ),
        (
            "wave_f32_2d_rate6.zfp",
            Dataset::from_f32(
                "fixture",
                "rate-μ",
                9,
                d2.clone(),
                (0..d2.len()).map(|i| wave(i) as f32).collect(),
            ),
            ZfpConfig::rate(6.0),
        ),
    ]
}

#[test]
fn current_encoder_reproduces_fixtures_byte_for_byte() {
    for (name, dataset, config) in fixtures() {
        let committed = std::fs::read(fixture(name)).expect(name);
        assert_eq!(
            compress(&dataset, &config).unwrap(),
            committed,
            "fixture {name}: the encoder's bytes changed — a wire-format break"
        );
    }
}

#[test]
fn fixtures_decode_with_metadata_and_accuracy_mode_within_tolerance() {
    for (name, dataset, config) in fixtures() {
        let restored = decompress(&std::fs::read(fixture(name)).expect(name))
            .unwrap_or_else(|e| panic!("fixture {name} failed to decode: {e}"));
        assert_eq!(restored.dims, dataset.dims, "{name}");
        assert_eq!(restored.dtype(), dataset.dtype(), "{name}");
        assert_eq!(restored.label(), dataset.label(), "{name}");
        if let ZfpMode::FixedAccuracy { tolerance } = config.mode {
            let worst = dataset
                .values_f64()
                .iter()
                .zip(restored.values_f64())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(worst <= tolerance, "{name}: max error {worst:e}");
        }
    }
}

#[test]
#[ignore = "writes fixtures; run only for an intentional format change"]
fn regenerate() {
    for (name, dataset, config) in fixtures() {
        std::fs::write(fixture(name), compress(&dataset, &config).unwrap()).unwrap();
    }
}
