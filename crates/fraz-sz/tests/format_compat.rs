//! Wire-format regression fixtures for the SZ-like codec: the committed
//! blobs under `tests/fixtures/` pin the exact bytes the encoder produces
//! (shared dataset prefix, codec parameters, dictionary-coded body), so a
//! refactor of the header or byte plumbing cannot silently move a byte.
//!
//! Inputs are fixed formulas, so only the blobs are committed.  Regenerate
//! only for an *intentional, versioned* format change:
//!
//! ```text
//! cargo test -p fraz-sz --test format_compat -- --ignored regenerate
//! ```

use std::path::PathBuf;

use fraz_data::{Dataset, Dims};
use fraz_sz::{compress, decompress, SzConfig};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn wave(i: usize) -> f64 {
    let x = i as f64;
    (x * 0.013).sin() * 5.0 + (x * 0.0007).cos() * 20.0
}

fn fixtures() -> Vec<(&'static str, Dataset, SzConfig)> {
    let d3 = Dims::d3(12, 15, 17);
    let d2 = Dims::d2(40, 33);
    vec![
        (
            "wave_f32_3d_eb1e-3.sz",
            Dataset::from_f32(
                "fixture",
                "wave32",
                3,
                d3.clone(),
                (0..d3.len()).map(|i| wave(i) as f32).collect(),
            ),
            SzConfig::with_error_bound(1e-3),
        ),
        (
            "wave_f64_1d_eb1e-2.sz",
            Dataset::from_f64(
                "fixture",
                "wave64",
                0,
                Dims::d1(3000),
                (0..3000).map(|i| wave(i) * 1e4).collect(),
            ),
            SzConfig::with_error_bound(1e-2),
        ),
        (
            "wave_f32_2d_eb1e-4_block8_cap1024.sz",
            Dataset::from_f32(
                "fixture",
                "wave-μ",
                7,
                d2.clone(),
                (0..d2.len()).map(|i| wave(i) as f32).collect(),
            ),
            SzConfig {
                error_bound: 1e-4,
                block_size: Some(8),
                quant_capacity: 1024,
            },
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
fn fixtures_decode_within_their_bound_with_metadata() {
    for (name, dataset, config) in fixtures() {
        let restored = decompress(&std::fs::read(fixture(name)).expect(name))
            .unwrap_or_else(|e| panic!("fixture {name} failed to decode: {e}"));
        assert_eq!(restored.dims, dataset.dims, "{name}");
        assert_eq!(restored.dtype(), dataset.dtype(), "{name}");
        assert_eq!(restored.label(), dataset.label(), "{name}");
        let worst = dataset
            .values_f64()
            .iter()
            .zip(restored.values_f64())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(worst <= config.error_bound, "{name}: max error {worst:e}");
    }
}

#[test]
#[ignore = "writes fixtures; run only for an intentional format change"]
fn regenerate() {
    for (name, dataset, config) in fixtures() {
        std::fs::write(fixture(name), compress(&dataset, &config).unwrap()).unwrap();
    }
}
