//! Criterion benchmarks for the chunked array store: end-to-end write
//! throughput at a fixed bound, full-array read, and partial (slab) read —
//! the three paths a consumer actually pays for.  A separate non-timed
//! section records the warm-start effect on per-chunk `Ratio` tuning: the
//! same write with and without bound propagation between neighbouring
//! chunks, reported as total search evaluations (fewer is better; the
//! timed rows would smear this into wall-clock noise).
//!
//! `FRAZ_BENCH_SMOKE=1` drops to one timed sample per benchmark; CI
//! combines it with `FRAZ_BENCH_RECORD_DIR` to guard the committed
//! `baselines/store_throughput.jsonl` rows against large regressions.

use std::io::Write as _;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use fraz_bench::scale::Scale;
use fraz_bench::workloads;
use fraz_store::{write_array, ArrayReader, ChunkTarget, MemoryStore, StoreWriteConfig};

/// One timed sample per point under `FRAZ_BENCH_SMOKE=1` (CI bitrot +
/// regression guard), ten otherwise.
fn sample_size() -> usize {
    if std::env::var_os("FRAZ_BENCH_SMOKE").is_some() {
        1
    } else {
        10
    }
}

/// Append a hand-written row to the same JSONL file the criterion groups
/// record into (the recorder appends, so the streams interleave safely).
fn record_extra_row(fields: &str) {
    let Ok(dir) = std::env::var("FRAZ_BENCH_RECORD_DIR") else {
        return;
    };
    let path = std::path::PathBuf::from(dir).join("store_throughput.jsonl");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(f, "{{{fields}}}");
    }
}

fn store_benchmarks(c: &mut Criterion) {
    let app = workloads::hurricane(Scale::Quick);
    let dataset = app.field("TCf", 0);
    let bound = dataset.stats().value_range() * 1e-3;
    // Chunks of 16x24x24 = 9216 elements: 8 chunks at Quick scale, big
    // enough to amortize the codecs' per-stream headers.
    let chunk = vec![16usize, 24, 24];

    let mut group = c.benchmark_group("store_throughput");
    group.throughput(Throughput::Bytes(dataset.byte_size() as u64));
    group.sample_size(sample_size());

    let config = StoreWriteConfig::new(chunk.clone(), "szx", ChunkTarget::FixedBound(bound));
    group.bench_function("write_fixed_bound", |b| {
        b.iter(|| {
            let store = MemoryStore::new();
            write_array(&store, "bench", &dataset, &config).unwrap()
        });
    });

    let store = MemoryStore::new();
    write_array(&store, "bench", &dataset, &config).unwrap();
    group.bench_function("read_full", |b| {
        b.iter(|| {
            let reader = ArrayReader::open(&store, "bench").unwrap();
            reader.read_all().unwrap()
        });
    });
    group.finish();

    // A z-slab covering one chunk layer: 1/2 of the chunks, 3/8 of the
    // bytes — the partial-decode path (open + ranged reads + scatter).
    let dims = dataset.dims.as_slice().to_vec();
    let slab = [
        0..chunk[0] as u64,
        0..dims[1] as u64,
        0..(dims[2] / 2) as u64,
    ];
    let slab_bytes: u64 = slab.iter().map(|r| r.end - r.start).product::<u64>()
        * dataset.buffer.dtype().byte_width() as u64;
    let mut group = c.benchmark_group("store_throughput");
    group.throughput(Throughput::Bytes(slab_bytes));
    group.sample_size(sample_size());
    group.bench_function("read_region_slab", |b| {
        b.iter(|| {
            let reader = ArrayReader::open(&store, "bench").unwrap();
            reader.read_region(&slab).unwrap()
        });
    });
    group.finish();

    // Warm-start ablation (not timed): per-chunk Ratio tuning with bound
    // propagation between chunks vs. fully independent searches.  On a
    // spatially coherent field the predecessor's converged bound seeds the
    // next chunk's search one prediction probe away from its answer.
    let target = ChunkTarget::Ratio {
        target_ratio: 8.0,
        tolerance: 0.15,
    };
    let mut evals = [0usize; 2];
    for (slot, warm) in evals.iter_mut().zip([true, false]) {
        let store = MemoryStore::new();
        let config = StoreWriteConfig::new(chunk.clone(), "sz", target.clone())
            .with_warm_start(warm)
            .with_regions(6)
            .with_max_iterations(16);
        let report = write_array(&store, "bench", &dataset, &config).unwrap();
        *slot = report.evaluations;
    }
    let [warm_evals, cold_evals] = evals;
    println!(
        "store_tuning/ratio_warm_start: {warm_evals} evaluations (cold: {cold_evals}, \
         saved {})",
        cold_evals.saturating_sub(warm_evals)
    );
    record_extra_row(&format!(
        "\"group\":\"store_tuning\",\"id\":\"ratio_warm_start\",\"evaluations\":{warm_evals},\
         \"cold_evaluations\":{cold_evals},\"evaluations_saved\":{}",
        cold_evals.saturating_sub(warm_evals)
    ));
}

criterion_group!(benches, store_benchmarks);
criterion_main!(benches);
