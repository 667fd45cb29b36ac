//! What a cold fixed-ratio search promises now that it walks before it
//! races, for every error-bounded codec the registry holds (slim feature
//! builds included):
//!
//! * below the sampling floor — a field under 16 384 values, such as the
//!   service's 48×48 first-seen fields — a cold search is Algorithm 2's race
//!   alone: the same compressor calls, in the same order, and the same bound
//!   with `sampled_seed` on and off;
//! * above it, on the scenario regimes, the seeded search's answer is in
//!   band, or it is `infeasible` where the race alone is too;
//! * whatever route found the answer, the final quality pass reports what a
//!   quality evaluation at the answer's bound reports, and the answer's
//!   bytes come without another compression.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use fraz::core::{answer_bytes, FixedRatioSearch, SearchConfig, SearchOutcome};
use fraz::data::{DType, Dataset, Dims};
use fraz::metrics::QualityReport;
use fraz::pool::Pool;
use fraz::pressio::{registry, BoundKind, CompressionOutcome, Compressor, PressioError};
use fraz::scenarios::{all_scenarios, Oracle, DEFAULT_SEED};

/// Forwards to a registry codec and logs every evaluation it is asked for:
/// how many values, the bound's bits, and whether quality was measured.
/// Counts its `compress` calls apart.
struct Logged {
    inner: Box<dyn Compressor>,
    asked: Mutex<Vec<(usize, u64, bool)>>,
    compressions: AtomicUsize,
}

impl Compressor for Logged {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn bound_kind(&self) -> BoundKind {
        self.inner.bound_kind()
    }
    fn supports_dims(&self, dims: &Dims) -> bool {
        self.inner.supports_dims(dims)
    }
    fn bound_range(&self, dataset: &Dataset) -> (f64, f64) {
        self.inner.bound_range(dataset)
    }
    fn compress(&self, dataset: &Dataset, bound: f64) -> Result<Vec<u8>, PressioError> {
        self.compressions.fetch_add(1, Ordering::Relaxed);
        self.inner.compress(dataset, bound)
    }
    fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
        self.inner.decompress(data)
    }
    fn evaluate(
        &self,
        dataset: &Dataset,
        bound: f64,
        measure_quality: bool,
    ) -> Result<CompressionOutcome, PressioError> {
        self.asked
            .lock()
            .unwrap()
            .push((dataset.len(), bound.to_bits(), measure_quality));
        self.inner.evaluate(dataset, bound, measure_quality)
    }
}

/// One cold search of `codec` for `target` ± 10 % on a one-worker pool
/// (the race's calls in a fixed order), and every evaluation it made.
fn cold(
    codec: &str,
    dataset: &Dataset,
    config: SearchConfig,
) -> (SearchOutcome, Vec<(usize, u64, bool)>) {
    let (outcome, logged) = logged_search(codec, dataset, config);
    let asked = logged.asked.lock().unwrap().clone();
    (outcome, asked)
}

/// One cold search of `codec` on a one-worker pool, and its logged codec.
fn logged_search(
    codec: &str,
    dataset: &Dataset,
    config: SearchConfig,
) -> (SearchOutcome, Arc<Logged>) {
    let logged = Arc::new(Logged {
        inner: registry::build_default(codec).unwrap(),
        asked: Mutex::default(),
        compressions: AtomicUsize::new(0),
    });
    let outcome = FixedRatioSearch::new(logged.clone() as Arc<dyn Compressor>, config)
        .with_pool(Arc::new(Pool::new(1)))
        .run(dataset);
    (outcome, logged)
}

/// What `codec` achieves on `dataset` at `fraction` of its value range: a
/// target the race can meet by construction.
fn reachable(codec: &str, dataset: &Dataset, fraction: f64) -> f64 {
    registry::build_default(codec)
        .unwrap()
        .evaluate(dataset, fraction * dataset.value_range(), false)
        .unwrap()
        .compression_ratio
}

fn smooth(dims: Dims) -> Dataset {
    let cols = *dims.as_slice().last().unwrap();
    let values = (0..dims.len())
        .map(|i| {
            let (r, c) = ((i / cols) as f32, (i % cols) as f32);
            ((c * 0.31).sin() + (r * 0.17).cos()) * 5.0 + (r * 0.041).sin() * 2.0
        })
        .collect();
    Dataset::from_f32("contract", "smooth", 0, dims, values)
}

#[test]
fn below_the_sampling_floor_a_cold_search_is_the_race_alone() {
    for dims in [Dims::d2(48, 48), Dims::d3(8, 20, 20)] {
        let dataset = smooth(dims.clone());
        for codec in registry::error_bounded_names() {
            if !registry::build_default(&codec)
                .unwrap()
                .supports_dims(&dims)
            {
                continue;
            }
            let target = reachable(&codec, &dataset, 1e-3);
            let config = |sampled_seed| SearchConfig {
                sampled_seed,
                ..SearchConfig::new(target, 0.1)
            };
            let (on, on_asked) = cold(&codec, &dataset, config(true));
            let (off, off_asked) = cold(&codec, &dataset, config(false));
            let what = format!("{codec} on {dims}");
            assert_eq!(on_asked, off_asked, "{what}: the calls moved");
            assert!(
                on_asked.iter().all(|a| a.0 == dataset.len()),
                "{what}: a field this small is never sampled"
            );
            assert_eq!(
                on.error_bound.to_bits(),
                off.error_bound.to_bits(),
                "{what}"
            );
            assert_eq!(on.evaluations, off.evaluations, "{what}");
            assert_eq!(on.regions, off.regions, "{what}");
            assert!(on.feasible, "{what}: pick a target the race meets");
        }
    }
}

#[test]
fn above_the_floor_a_seeded_answer_is_in_band_or_infeasible_where_the_race_is() {
    // The scenario regimes at the smallest size a field is sampled at, a
    // thread per codec; a small race keeps the out-of-reach target cheap.
    let dims = Dims::d2(128, 128);
    let fields: Vec<(String, Dataset)> = all_scenarios(DEFAULT_SEED)
        .iter()
        .map(|s| {
            (
                s.regime.to_string(),
                s.generate(&dims, DType::F32, 0).dataset,
            )
        })
        .collect();
    let walked: usize = std::thread::scope(|scope| {
        let threads: Vec<_> = registry::error_bounded_names()
            .into_iter()
            .filter(|codec| registry::build_default(codec).unwrap().supports_dims(&dims))
            .map(|codec| scope.spawn(|| in_band_or_infeasible(codec, &fields)))
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).sum()
    });
    assert!(walked > 0, "no search was answered by the walk");
}

#[test]
fn a_subnormal_value_range_is_searched_without_a_panic() {
    // An 8×8 f64 field of zeros and one subnormal: `range · 1e-9` underflows
    // to 0, so every built-in codec's own range starts at 0.
    let mut values = vec![0.0; 64];
    values[27] = 5e-324;
    let dataset = Dataset::from_f64("contract", "subnormal", 0, Dims::d2(8, 8), values);
    for codec in registry::error_bounded_names() {
        let compressor = registry::build_default(&codec).unwrap();
        if !compressor.supports_dims(&dataset.dims) {
            continue;
        }
        let search = FixedRatioSearch::new(compressor, SearchConfig::new(10.0, 0.1))
            .with_pool(Arc::new(Pool::new(2)));
        let (lower, upper) = search.bound_range(&dataset);
        assert!(
            lower.is_normal() && lower < upper,
            "{codec}: ({lower:e}, {upper:e})"
        );
        let outcome = search.run(&dataset);
        assert!(outcome.evaluations > 0, "{codec}");
        assert!(
            (lower..=upper).contains(&outcome.error_bound),
            "{codec}: {:e}",
            outcome.error_bound
        );
    }
}

/// The clause on every field for `codec`; how many searches the walk
/// answered.
fn in_band_or_infeasible(codec: String, fields: &[(String, Dataset)]) -> usize {
    let mut walked = 0;
    for (regime, dataset) in fields {
        let targets = [
            reachable(&codec, dataset, 1e-3),
            reachable(&codec, dataset, 2e-2),
            1e6,
        ];
        for target in targets {
            let config = |sampled_seed| SearchConfig {
                regions: 4,
                max_iterations: 8,
                measure_final_quality: false,
                sampled_seed,
                ..SearchConfig::new(target, 0.1)
            };
            let (seeded, asked) = cold(&codec, dataset, config(true));
            let (raced, _) = cold(&codec, dataset, config(false));
            let what = format!("{codec} on {regime} for {target:.3}:1");
            assert!(
                asked.iter().any(|a| a.0 < dataset.len()),
                "{what}: the field was not sampled"
            );
            // In band, or infeasible where the race alone is too (the walk
            // may meet a target the small race misses).
            if seeded.feasible {
                let deviation = (seeded.best.compression_ratio - target).abs();
                assert!(deviation <= 0.1 * target * (1.0 + 1e-9), "{what}");
            } else {
                assert!(!raced.feasible, "{what}: a false infeasible");
            }
            walked += seeded.regions.is_empty() as usize;
        }
    }
    walked
}

/// Every field of a report by its bits, a NaN as NaN.
fn report_bits(report: &QualityReport) -> [u64; 10] {
    let bits = |x: f64| if x.is_nan() { f64::NAN } else { x }.to_bits();
    [
        bits(report.compression_ratio),
        bits(report.bit_rate),
        bits(report.max_abs_error),
        bits(report.rmse),
        bits(report.psnr),
        bits(report.ssim),
        bits(report.acf_error),
        report.num_points as u64,
        report.original_bytes as u64,
        report.compressed_bytes as u64,
    ]
}

#[test]
fn the_final_pass_reports_a_quality_evaluation_at_the_answer() {
    // Above the sampling floor, so the answer comes from the walk: a held
    // stream (sz, zfp, mgard) is decoded, a size-only answer (szx) is
    // evaluated again with quality — from its classification, which writes
    // no stream, so szx's bytes cost `answer_bytes` one `compress` and every
    // other codec's none.
    let dims = Dims::d3(32, 32, 32);
    let f32_field = smooth(dims.clone());
    let f64_field = Dataset::from_f64(
        "contract",
        "smooth",
        0,
        dims.clone(),
        f32_field.values_f64(),
    );
    for dataset in [f32_field, f64_field] {
        for codec in registry::error_bounded_names() {
            let direct = registry::build_default(&codec).unwrap();
            if !direct.supports_dims(&dims) {
                continue;
            }
            let target = reachable(&codec, &dataset, 1e-3);
            let (mut outcome, logged) =
                logged_search(&codec, &dataset, SearchConfig::new(target, 0.1));
            let what = format!("{codec} on {:?}", dataset.dtype());
            let bound = outcome.error_bound;
            let measured = direct.evaluate(&dataset, bound, true).unwrap();
            let reported = outcome.best.quality.as_ref().expect("the final pass ran");
            assert_eq!(
                report_bits(reported),
                report_bits(measured.quality.as_ref().unwrap()),
                "{what}"
            );

            let compressions = logged.compressions.load(Ordering::Relaxed);
            let held = outcome.best.stream.is_some();
            assert_eq!(held, codec != "szx", "{what}: the answer's stream");
            let bytes = answer_bytes(&*logged, &dataset, &mut outcome).unwrap();
            assert_eq!(
                logged.compressions.load(Ordering::Relaxed),
                compressions + usize::from(!held),
                "{what}: compressions for the answer's bytes"
            );
            assert_eq!(bytes, direct.compress(&dataset, bound).unwrap(), "{what}");
        }
    }
}
