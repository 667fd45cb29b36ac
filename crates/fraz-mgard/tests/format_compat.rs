//! Wire-format regression fixtures for the MGARD-like codec, one per
//! registry name it backs (`mgard` = ∞-norm, `mgard-l2` = L2 norm): the
//! committed blobs under `tests/fixtures/` pin the exact bytes the encoder
//! produces.
//!
//! Inputs are fixed formulas, so only the blobs are committed.  Regenerate
//! only for an *intentional, versioned* format change:
//!
//! ```text
//! cargo test -p fraz-mgard --test format_compat -- --ignored regenerate
//! ```

use std::path::PathBuf;

use fraz_data::{Dataset, Dims};
use fraz_mgard::{compress, decompress, ErrorNorm, MgardConfig};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn wave(i: usize) -> f64 {
    let x = i as f64;
    (x * 0.017).sin() * 4.0 + (x * 0.0011).cos() * 15.0
}

fn fixtures() -> Vec<(&'static str, Dataset, MgardConfig)> {
    let d2 = Dims::d2(45, 52);
    let d3 = Dims::d3(9, 14, 11);
    vec![
        (
            "wave_f32_2d_inf1e-3.mgard",
            Dataset::from_f32(
                "fixture",
                "wave32",
                3,
                d2.clone(),
                (0..d2.len()).map(|i| wave(i) as f32).collect(),
            ),
            MgardConfig::infinity_norm(1e-3),
        ),
        (
            "wave_f64_3d_l2_1e-2.mgard",
            Dataset::from_f64(
                "fixture",
                "wave-μ",
                5,
                d3.clone(),
                (0..d3.len()).map(wave).collect(),
            ),
            MgardConfig::l2_norm(1e-2),
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
fn fixtures_decode_within_their_norm_with_metadata() {
    for (name, dataset, config) in fixtures() {
        let restored = decompress(&std::fs::read(fixture(name)).expect(name))
            .unwrap_or_else(|e| panic!("fixture {name} failed to decode: {e}"));
        assert_eq!(restored.dims, dataset.dims, "{name}");
        assert_eq!(restored.dtype(), dataset.dtype(), "{name}");
        assert_eq!(restored.label(), dataset.label(), "{name}");
        let errors: Vec<f64> = dataset
            .values_f64()
            .iter()
            .zip(restored.values_f64())
            .map(|(a, b)| (a - b).abs())
            .collect();
        let achieved = match config.norm {
            ErrorNorm::Infinity => errors.iter().copied().fold(0.0, f64::max),
            ErrorNorm::L2 => {
                (errors.iter().map(|e| e * e).sum::<f64>() / errors.len() as f64).sqrt()
            }
        };
        assert!(achieved <= config.tolerance, "{name}: error {achieved:e}");
    }
}

#[test]
#[ignore = "writes fixtures; run only for an intentional format change"]
fn regenerate() {
    for (name, dataset, config) in fixtures() {
        std::fs::write(fixture(name), compress(&dataset, &config).unwrap()).unwrap();
    }
}
