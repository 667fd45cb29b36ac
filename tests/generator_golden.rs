//! The generators' bits, pinned: an FNV-1a hash of the little-endian bytes
//! of every stock regime (1-D to 4-D, both dtypes, two time-steps), two
//! non-default knob settings per regime, and every field of the five
//! Table-III applications at their `synthetic::by_name` sizes.
//!
//! Every other determinism test compares a run with itself; this one
//! compares it with a committed table, so it is the first test to fail when
//! a generator moves by one ULP — before a ratio baseline or a wire fixture
//! three crates away does.  If a generator change is intentional, regenerate
//! (and expect `baselines/nothing_moved.jsonl` and the codec fixtures to move):
//!
//! ```text
//! cargo test --test generator_golden -- --ignored regenerate
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use fraz::data::{synthetic, DType, DataBuffer, Dataset, Dims};
// A glob, so the file compiles unchanged whether `generate` is an inherent
// method or comes from a trait of the oracle crate.
#[allow(unused_imports)]
use fraz::scenarios::*;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/generator_golden.txt")
}

fn fnv1a(dataset: &Dataset) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    match &dataset.buffer {
        DataBuffer::F32(values) => values.iter().for_each(|v| eat(&v.to_le_bytes())),
        DataBuffer::F64(values) => values.iter().for_each(|v| eat(&v.to_le_bytes())),
    }
    hash
}

/// Two non-default knob settings per regime.
fn knob_variants(regime: Regime) -> [ScenarioConfig; 2] {
    let mut a = ScenarioConfig::new(regime).with_seed(7);
    let mut b = ScenarioConfig::new(regime).with_seed(0xfeed_beef);
    a.amplitude = 3.5;
    b.amplitude = 0.125;
    match regime {
        Regime::Smooth | Regime::Noise => {}
        Regime::Turbulence => {
            (a.spectral_slope, a.modes) = (0.5, 17);
            (b.spectral_slope, b.modes) = (3.0, 160);
        }
        Regime::Oscillatory => {
            a.channels = 1;
            b.channels = 13;
        }
        Regime::Shock => {
            a.shock_count = 0;
            b.shock_count = 7;
        }
        Regime::Sparse => {
            (a.blob_count, a.background) = (0, -2.5);
            (b.blob_count, b.background) = (11, 1.0e3);
        }
    }
    [a, b]
}

fn table() -> String {
    let mut out = String::new();
    let shapes = [
        Dims::d1(257),
        Dims::d2(17, 19),
        Dims::d3(5, 6, 7),
        Dims::d4(3, 4, 5, 6),
    ];
    for regime in REGIMES {
        let stock = ScenarioConfig::new(regime);
        for dims in &shapes {
            for dtype in [DType::F32, DType::F64] {
                for t in [0, 3] {
                    let dataset = stock.generate(dims, dtype, t).dataset;
                    writeln!(
                        out,
                        "{regime} {dims:?} {dtype:?} t{t} {:016x}",
                        fnv1a(&dataset)
                    )
                    .unwrap();
                }
            }
        }
        for (i, config) in knob_variants(regime).iter().enumerate() {
            for (dims, dtype) in [(&shapes[1], DType::F64), (&shapes[2], DType::F32)] {
                let dataset = config.generate(dims, dtype, 3).dataset;
                writeln!(
                    out,
                    "{regime} knobs{i} {dims:?} {dtype:?} t3 {:016x}",
                    fnv1a(&dataset)
                )
                .unwrap();
            }
        }
    }
    for app_name in ["hurricane", "hacc", "cesm", "exaalt", "nyx"] {
        let app = synthetic::by_name(app_name, 7).unwrap();
        for field in app.field_names() {
            for t in [0, 1] {
                let dataset = app.field(&field, t);
                writeln!(
                    out,
                    "{app_name}/{field} {:?} t{t} {:016x}",
                    app.dims(),
                    fnv1a(&dataset)
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn generators_reproduce_the_committed_table_bit_for_bit() {
    let expected = std::fs::read_to_string(fixture_path())
        .unwrap_or_else(|e| panic!("missing golden table ({e}); run the regenerate test"));
    let actual = table();
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(got, want, "a generator moved");
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}

#[test]
#[ignore = "writes tests/fixtures/generator_golden.txt; run explicitly to regenerate"]
fn regenerate() {
    std::fs::write(fixture_path(), table()).unwrap();
}
