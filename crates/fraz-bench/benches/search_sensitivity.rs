//! Criterion benchmark behind Figure 7: how long one FRaZ search takes as a
//! function of the target compression ratio (feasible vs infeasible
//! targets) — plus the `search_sensitivity` evaluation-count rows that pin
//! the SearchHint seeding layer (analytic first guess, persistent tuning
//! cache) to its committed baselines.

use criterion::{criterion_group, BenchmarkId, Criterion};

use fraz_bench::scale::Scale;
use fraz_bench::workloads;
use std::sync::Arc;

use fraz_core::{
    FixedQualitySearch, FixedRatioSearch, HintSource, QualityMetric, QualitySearchConfig,
    SearchConfig, SearchHint,
};
use fraz_pressio::registry;
use fraz_tune::CachePredictor;

fn search_benchmarks(c: &mut Criterion) {
    let app = workloads::hurricane(Scale::Quick);
    let dataset = app.field("CLOUDf", 0);

    let mut group = c.benchmark_group("fixed_ratio_search");
    group.sample_size(10);
    // 3:1 is typically below the SZ floor (infeasible, worst case); 10:1 and
    // 30:1 are feasible.
    for target in [3.0f64, 10.0, 30.0] {
        group.bench_with_input(
            BenchmarkId::from_parameter(target as u64),
            &target,
            |b, &t| {
                b.iter(|| {
                    let config = SearchConfig {
                        measure_final_quality: false,
                        max_iterations: 12,
                        ..SearchConfig::new(t, 0.1).with_regions(4).with_threads(4)
                    };
                    FixedRatioSearch::new(registry::build_default("sz").unwrap(), config)
                        .run(&dataset)
                });
            },
        );
    }
    group.finish();

    // Prediction reuse (Algorithm 1): the steady-state cost per time-step.
    let mut group = c.benchmark_group("prediction_reuse");
    group.sample_size(10);
    let config = SearchConfig {
        measure_final_quality: false,
        ..SearchConfig::new(10.0, 0.1).with_regions(4).with_threads(4)
    };
    let search = FixedRatioSearch::new(registry::build_default("sz").unwrap(), config);
    let prediction = SearchHint::converged(search.run(&dataset).error_bound, HintSource::External);
    group.bench_function("with_good_prediction", |b| {
        b.iter(|| search.run_with_hint(&dataset, Some(&prediction)));
    });
    group.finish();
}

/// Append one `{"group":"search_sensitivity","id":ID,"evaluations":N}` row
/// next to the criterion records (same file, same `--check` tooling — the
/// metric is compressor invocations, which is machine-noise-free).
fn record_evaluations(id: &str, evaluations: usize) {
    println!("search_sensitivity/{id}: {evaluations} evaluation(s)");
    let Ok(dir) = std::env::var("FRAZ_BENCH_RECORD_DIR") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join("search_sensitivity.jsonl");
    let line =
        format!("{{\"group\":\"search_sensitivity\",\"id\":{id:?},\"evaluations\":{evaluations}}}");
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

fn quality_search(codec: &str, analytic: bool) -> FixedQualitySearch {
    let mut config = QualitySearchConfig::new(QualityMetric::PsnrAtLeast(60.0));
    config.analytic_seed = analytic;
    FixedQualitySearch::new(registry::build_default(codec).unwrap(), config)
}

/// How many compressor invocations each seeding mode spends; deterministic
/// counts, not wall-clock, so the committed baselines are exact.
fn evaluation_sensitivity() {
    let app = workloads::hurricane(Scale::Quick);
    let dataset = app.field("CLOUDf", 0);

    // Analytic first guess: the closed-form PSNR model of sz/szx against a
    // cold bracketing sweep on the same codec.
    for codec in ["sz", "szx"] {
        let cold = quality_search(codec, false).run(&dataset);
        let seeded = quality_search(codec, true).run(&dataset);
        record_evaluations(&format!("quality_{codec}_cold"), cold.evaluations);
        record_evaluations(&format!("quality_{codec}_analytic"), seeded.evaluations);
    }

    // Persistent tuning cache: a second run over the same field should be
    // one verified probe (ratio and quality alike).
    let dir = std::env::temp_dir().join(format!("fraz-bench-tune-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let predictor = Arc::new(CachePredictor::open(&dir).expect("tune cache dir"));

    let config = SearchConfig {
        measure_final_quality: false,
        max_iterations: 12,
        threads: 1,
        ..SearchConfig::new(10.0, 0.1).with_regions(4)
    };
    let search = FixedRatioSearch::new(registry::build_default("sz").unwrap(), config)
        .with_predictor(Some(predictor.clone()));
    let cold = search.run(&dataset);
    let warm = search.run(&dataset);
    record_evaluations("ratio_cold", cold.evaluations);
    record_evaluations("ratio_warm_cache", warm.evaluations);

    let qsearch = quality_search("sz", true).with_predictor(Some(predictor));
    let _ = qsearch.run(&dataset);
    let warm = qsearch.run(&dataset);
    record_evaluations("quality_warm_cache", warm.evaluations);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Search effort per synthetic scenario regime: the analytic-seeded quality
/// search and a single-threaded fixed-ratio search over every regime's
/// canonical 1-D field.  Evaluation counts are deterministic, so the
/// committed rows are per-scenario ceilings — a regime whose structure
/// stops matching its seeding assumptions (e.g. the PSNR model drifting on
/// shocks) shows up as an exact count jump on its own row.
fn scenario_sensitivity() {
    let dims = fraz_data::Dims::d1(8192);
    for regime in fraz_data::synthetic::REGIMES {
        let seed = fraz_bench::EXPERIMENT_SEED;
        let dataset =
            fraz_data::synthetic::generate(regime.name(), &dims, fraz_data::DType::F32, seed, 0)
                .expect("a regime is a generator name");

        let quality = quality_search("sz", true).run(&dataset);
        record_evaluations(&format!("scenario_{regime}_quality"), quality.evaluations);

        // 4:1 is feasible for every regime under sz (even noise reaches it
        // at a loose bound), so the counts measure convergence, not bailout.
        let search_config = SearchConfig {
            measure_final_quality: false,
            max_iterations: 16,
            threads: 1,
            ..SearchConfig::new(4.0, 0.1).with_regions(4)
        };
        let ratio = FixedRatioSearch::new(registry::build_default("sz").unwrap(), search_config)
            .run(&dataset);
        record_evaluations(&format!("scenario_{regime}_ratio"), ratio.evaluations);
    }
}

criterion_group!(benches, search_benchmarks);

fn main() {
    benches();
    evaluation_sensitivity();
    scenario_sensitivity();
}
