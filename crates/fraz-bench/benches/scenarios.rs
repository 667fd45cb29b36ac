//! The synthetic-scenario baseline table: per (regime × codec) compression
//! ratios over the canonical ordering workloads, recorded as deterministic
//! `{"group":"scenarios",...,"ratio":R}` rows next to the criterion
//! timings — the committed `baselines/scenarios.jsonl` pins the regimes'
//! known compressibility ordering (smooth ≻ turbulence ≻ noise) the same
//! way `tests/scenario_matrix.rs` asserts it, but as floor-checked numbers
//! CI can diff across commits.
//!
//! The criterion group times scenario *generation* itself (the zero-file
//! manifest path synthesizes fields on every run, so generation throughput
//! is a user-visible cost).

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};

use fraz_bench::scale::Scale;
use fraz_bench::workloads;
use fraz_pressio::registry;
use fraz_scenarios::{by_name, Oracle, REGIMES};

/// The bound the ordering baselines are recorded at — the same value the
/// oracle matrix (`tests/scenario_matrix.rs`) asserts ordering at.
const ORDERING_BOUND: f64 = 2e-2;

/// The two codecs the committed baseline table tracks: the paper's primary
/// codec and the throughput-oriented backend, both always registered in the
/// default build.
const BASELINE_CODECS: [&str; 2] = ["sz", "szx"];

/// One timed sample per point under `FRAZ_BENCH_SMOKE=1` (CI bitrot +
/// regression guard), ten otherwise.
fn sample_size() -> usize {
    if std::env::var_os("FRAZ_BENCH_SMOKE").is_some() {
        1
    } else {
        10
    }
}

fn generation_benchmarks(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_gen");
    group.sample_size(sample_size());
    let side = Scale::from_env().pick(64, 512);
    let dims = fraz_data::Dims::d2(side, side);
    let bytes = (dims.len() * 4) as u64;
    for regime in REGIMES {
        let config = by_name(regime.name()).unwrap();
        group.throughput(Throughput::Bytes(bytes));
        group.bench_with_input(
            BenchmarkId::from_parameter(regime.name()),
            &config,
            |b, config| {
                b.iter(|| config.generate(&dims, fraz_data::DType::F32, 0));
            },
        );
    }
    group.finish();
}

/// Append one deterministic ratio row next to the criterion records (same
/// file, same `--check` tooling — compression ratios of fixed inputs are
/// machine-noise-free, so the committed floors are sharp).
fn record_ratio(id: &str, ratio: f64) {
    println!("scenarios/{id}: ratio {ratio:.3} at bound {ORDERING_BOUND:e}");
    let Ok(dir) = std::env::var("FRAZ_BENCH_RECORD_DIR") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join("scenarios.jsonl");
    let line = format!(
        "{{\"group\":\"scenarios\",\"id\":{id:?},\"ratio\":{ratio:.3},\"bound\":{ORDERING_BOUND:e}}}"
    );
    use std::io::Write;
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        Ok(mut f) => {
            if let Err(e) = writeln!(f, "{line}") {
                eprintln!("warning: cannot write to {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot open {}: {e}", path.display()),
    }
}

/// The baseline table proper: for each codec, each regime's geometric-mean
/// ratio across the canonical workloads (quick scale — the committed
/// baselines must match what CI records).
fn ratio_table() {
    let fields = workloads::scenario_fields(Scale::Quick);
    for codec_name in BASELINE_CODECS {
        let codec = registry::build_default(codec_name).expect("default codec");
        for regime in REGIMES {
            let mut log_sum = 0.0;
            let mut count = 0usize;
            for field in fields.iter().filter(|f| f.descriptor.regime == regime) {
                if !codec.supports_dims(&field.dataset.dims) {
                    continue;
                }
                let out = codec
                    .evaluate(&field.dataset, ORDERING_BOUND, false)
                    .unwrap_or_else(|e| panic!("{codec_name} on {regime}: {e}"));
                log_sum += out.compression_ratio.ln();
                count += 1;
            }
            assert!(
                count > 0,
                "{codec_name}: no supported workload for {regime}"
            );
            record_ratio(
                &format!("{}_{codec_name}", regime.name()),
                (log_sum / count as f64).exp(),
            );
        }
    }
}

criterion_group!(benches, generation_benchmarks);

fn main() {
    benches();
    ratio_table();
}
