//! The "nothing moved" gate for refactors: the 38 machine-noise-free rows
//! this repository owns must EQUAL `baselines/nothing_moved.jsonl` — not
//! stay under a ceiling or over a floor.
//!
//! * `search_sensitivity` — 19 evaluation counts: analytic seed vs cold
//!   sweep, the tuning cache, and every regime × {quality, ratio},
//! * `scenarios` — 12 compression ratios, one per regime × {sz, szx},
//! * `store_tuning/ratio_warm_start` — a per-chunk `Ratio` write with and
//!   without warm start between chunks,
//! * `quality_frontier` — per seeded codec, *where* the PSNR ≥ 60 dB search
//!   lands: geometric-mean ratio and total evaluations over the six regimes
//!   (and, per transform codec, where its max-error search does).
//!
//! Evaluation counts are exact only when region races and chunk tasks run
//! one after another, so every search and store write here runs on its own
//! one-worker [`Pool`]: the test thread is not a worker of it, so it parks
//! in `scope` instead of helping, and the order is serial whatever the CPU
//! count.  Timing is `bench/`'s business, not this file's.
//!
//! If a move is intended (a new search strategy, a codec format change),
//! regenerate and say so, with before/after, in CHANGES.md:
//!
//! ```text
//! cargo test -p fraz-bench --test nothing_moved -- --ignored regenerate
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use fraz_bench::scale::Scale;
use fraz_bench::{workloads, EXPERIMENT_SEED};
use fraz_core::{
    FixedQualitySearch, FixedRatioSearch, QualityMetric, QualitySearchConfig, SearchConfig,
};
use fraz_data::{synthetic, DType, Dataset, Dims};
use fraz_pool::Pool;
use fraz_pressio::{registry, BoundKind};
use fraz_store::{write_array_on, ChunkTarget, MemoryStore, StoreWriteConfig};
use fraz_tune::CachePredictor;

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines/nothing_moved.jsonl")
}

fn evaluations_row(id: &str, evaluations: usize) -> String {
    format!("{{\"group\":\"search_sensitivity\",\"id\":{id:?},\"evaluations\":{evaluations}}}")
}

fn quality_search(codec: &str, analytic: bool, pool: &Arc<Pool>) -> FixedQualitySearch {
    search_for(QualityMetric::PsnrAtLeast(60.0), codec, analytic, pool)
}

fn search_for(
    metric: QualityMetric,
    codec: &str,
    analytic: bool,
    pool: &Arc<Pool>,
) -> FixedQualitySearch {
    let mut config = QualitySearchConfig::new(metric);
    config.analytic_seed = analytic;
    FixedQualitySearch::new(registry::build_default(codec).unwrap(), config).with_pool(pool.clone())
}

fn ratio_search(target: f64, max_iterations: usize, pool: &Arc<Pool>) -> FixedRatioSearch {
    let config = SearchConfig {
        measure_final_quality: false,
        max_iterations,
        threads: 1,
        ..SearchConfig::new(target, 0.1).with_regions(4)
    };
    FixedRatioSearch::new(registry::build_default("sz").unwrap(), config).with_pool(pool.clone())
}

/// What each seeding mode spends on one Hurricane field: the closed-form
/// PSNR first guess against a cold bracketing sweep, and a second run over
/// a persistent tuning cache (one verified probe, ratio and quality alike).
fn seeding_rows(pool: &Arc<Pool>, rows: &mut Vec<String>) {
    let dataset = workloads::hurricane(Scale::Quick).field("CLOUDf", 0);
    for codec in ["sz", "szx"] {
        let cold = quality_search(codec, false, pool).run(&dataset);
        let seeded = quality_search(codec, true, pool).run(&dataset);
        rows.push(evaluations_row(
            &format!("quality_{codec}_cold"),
            cold.evaluations,
        ));
        rows.push(evaluations_row(
            &format!("quality_{codec}_analytic"),
            seeded.evaluations,
        ));
    }

    let dir = std::env::temp_dir().join(format!("fraz-nothing-moved-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let predictor = Arc::new(CachePredictor::open(&dir).expect("tune cache dir"));
    let search = ratio_search(10.0, 12, pool).with_predictor(Some(predictor.clone()));
    let cold = search.run(&dataset);
    let warm = search.run(&dataset);
    rows.push(evaluations_row("ratio_cold", cold.evaluations));
    rows.push(evaluations_row("ratio_warm_cache", warm.evaluations));

    let search = quality_search("sz", true, pool).with_predictor(Some(predictor));
    let _ = search.run(&dataset);
    let warm = search.run(&dataset);
    rows.push(evaluations_row("quality_warm_cache", warm.evaluations));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Search effort per regime on its canonical 1-D field: a regime whose
/// structure stops matching its seeding assumptions (the PSNR model
/// drifting on shocks, say) jumps on its own row.  4:1 is feasible for
/// every regime under sz, so the ratio counts measure convergence, not
/// bail-out.
fn regime_rows(pool: &Arc<Pool>, rows: &mut Vec<String>) {
    let dims = Dims::d1(8192);
    for regime in synthetic::REGIMES {
        let dataset: Dataset =
            synthetic::generate(regime.name(), &dims, DType::F32, EXPERIMENT_SEED, 0)
                .expect("a regime is a generator name");
        let quality = quality_search("sz", true, pool).run(&dataset);
        rows.push(evaluations_row(
            &format!("scenario_{regime}_quality"),
            quality.evaluations,
        ));
        let ratio = ratio_search(4.0, 16, pool).run(&dataset);
        rows.push(evaluations_row(
            &format!("scenario_{regime}_ratio"),
            ratio.evaluations,
        ));
    }
}

/// Per (regime × codec) geometric-mean ratio over the canonical 1-D/2-D
/// ordering workloads at the bound `tests/scenario_matrix.rs` asserts the
/// smooth ≻ turbulence ≻ noise ordering at.
fn ratio_rows(rows: &mut Vec<String>) {
    const ORDERING_BOUND: f64 = 2e-2;
    let fields = workloads::scenario_fields(Scale::Quick);
    for codec_name in ["sz", "szx"] {
        let codec = registry::build_default(codec_name).expect("default codec");
        for regime in synthetic::REGIMES {
            let logs: Vec<f64> = fields
                .iter()
                .filter(|f| f.descriptor.regime == regime)
                .filter(|f| codec.supports_dims(&f.dataset.dims))
                .map(|f| {
                    codec
                        .evaluate(&f.dataset, ORDERING_BOUND, false)
                        .unwrap_or_else(|e| panic!("{codec_name} on {regime}: {e}"))
                        .compression_ratio
                        .ln()
                })
                .collect();
            assert!(
                !logs.is_empty(),
                "{codec_name}: no supported workload for {regime}"
            );
            let ratio = (logs.iter().sum::<f64>() / logs.len() as f64).exp();
            rows.push(format!(
                "{{\"group\":\"scenarios\",\"id\":\"{}_{codec_name}\",\"ratio\":{ratio:.3},\
                 \"bound\":{ORDERING_BOUND:e}}}",
                regime.name()
            ));
        }
    }
}

/// Per-chunk `Ratio` tuning with the predecessor's converged bound seeding
/// the next chunk's search against fully independent searches (8 chunks of
/// 16×24×24 on a spatially coherent field).
fn warm_start_row(pool: &Arc<Pool>, rows: &mut Vec<String>) {
    let dataset = workloads::hurricane(Scale::Quick).field("TCf", 0);
    let target = ChunkTarget::Ratio {
        target_ratio: 8.0,
        tolerance: 0.15,
    };
    let [warm, cold] = [true, false].map(|warm| {
        let config = StoreWriteConfig::new(vec![16, 24, 24], "sz", target)
            .with_warm_start(warm)
            .with_regions(6)
            .with_max_iterations(16);
        write_array_on(&MemoryStore::new(), "t", &dataset, &config, pool.clone())
            .unwrap()
            .evaluations
    });
    rows.push(format!(
        "{{\"group\":\"store_tuning\",\"id\":\"ratio_warm_start\",\"evaluations\":{warm},\
         \"cold_evaluations\":{cold},\"evaluations_saved\":{}}}",
        cold.saturating_sub(warm)
    ));
}

/// Where the quality search lands, per codec it seeds: the geometric-mean
/// ratio of its PSNR ≥ 60 dB answers over the six regimes' 24³ fields, and
/// what they cost.  A change that trades compression for evaluations (a
/// looser tolerance, an earlier stop) moves the first number, not only the
/// second.  A transform codec's error sits well under its tolerance, so for
/// it a max-error target (1e-3 of the range) is a search too, not the
/// one-evaluation answer it is on an absolute-error codec: one more row each.
fn frontier_rows(pool: &Arc<Pool>, rows: &mut Vec<String>) {
    let dims = Dims::d3(24, 24, 24);
    for codec in registry::error_bounded_names() {
        let kind = registry::describe(&codec).map(|d| d.bound_kind);
        let Some(kind) = kind.filter(|kind| kind.is_pointwise()) else {
            continue;
        };
        let walked_max_error = (kind != BoundKind::AbsoluteError).then_some("_max_error");
        for suffix in [Some(""), walked_max_error].into_iter().flatten() {
            let (mut log_ratio, mut evaluations) = (0.0, 0);
            for regime in synthetic::REGIMES {
                let dataset: Dataset =
                    synthetic::generate(regime.name(), &dims, DType::F32, EXPERIMENT_SEED, 0)
                        .expect("a regime is a generator name");
                let metric = if suffix.is_empty() {
                    QualityMetric::PsnrAtLeast(60.0)
                } else {
                    QualityMetric::MaxErrorAtMost(1e-3 * dataset.value_range())
                };
                let outcome = search_for(metric, &codec, true, pool).run(&dataset);
                assert!(outcome.satisfiable, "{codec}{suffix} on {regime}");
                log_ratio += outcome.best.compression_ratio.ln();
                evaluations += outcome.evaluations;
            }
            let ratio = (log_ratio / synthetic::REGIMES.len() as f64).exp();
            rows.push(format!(
                "{{\"group\":\"quality_frontier\",\"id\":\"{codec}{suffix}\",\
                 \"ratio\":{ratio:.3},\"evaluations\":{evaluations}}}"
            ));
        }
    }
}

fn rows() -> Vec<String> {
    let pool = Arc::new(Pool::new(1));
    let mut rows = Vec::new();
    seeding_rows(&pool, &mut rows);
    regime_rows(&pool, &mut rows);
    ratio_rows(&mut rows);
    warm_start_row(&pool, &mut rows);
    frontier_rows(&pool, &mut rows);
    rows
}

#[test]
fn nothing_moved() {
    let path = baseline_path();
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; run the regenerate test", path.display()));
    let expected: Vec<&str> = expected.lines().collect();
    let actual = rows();
    let moved: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  baseline {want}\n  measured {got}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} deterministic rows moved:\n{}",
        moved.len(),
        expected.len(),
        moved.join("\n")
    );
    assert_eq!(actual.len(), expected.len(), "row count");
}

#[test]
#[ignore = "writes baselines/nothing_moved.jsonl; run explicitly to regenerate"]
fn regenerate() {
    std::fs::write(baseline_path(), rows().join("\n") + "\n").unwrap();
}
