//! Stress tests for the shared work-stealing pool under the real FRaZ
//! task graph: concurrent applications on one pool, nested field→region
//! scopes, and early-termination promptness.
//!
//! CI runs this file in `--release` as well — scoped-pool bugs (lost
//! wakeups, help-loop races) often only surface under optimized timing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fraz::core::{FieldTask, FixedRatioSearch, Orchestrator, OrchestratorConfig, SearchConfig};
use fraz::data::{synthetic, Dataset, Dims};
use fraz::pool::Pool;
use fraz::pressio::PressioError;
use fraz::Compressor;

fn quick_search(target: f64) -> SearchConfig {
    SearchConfig {
        regions: 4,
        max_iterations: 10,
        threads: 2,
        measure_final_quality: false,
        ..SearchConfig::new(target, 0.15)
    }
}

fn hurricane_fields(fields: usize, steps: usize, seed: u64) -> Vec<FieldTask> {
    let app = synthetic::hurricane(6, 12, 12, steps, seed);
    app.field_names()
        .into_iter()
        .take(fields)
        .map(|f| FieldTask::new(f.clone(), app.series(&f)))
        .collect()
}

#[test]
fn concurrent_run_tasks_calls_share_one_pool() {
    // Two orchestrators over different backends draw from a single
    // 4-worker pool, driven from independent caller threads at once.
    // Every field of both applications must complete, and neither call
    // may deadlock even though their field and region tasks interleave
    // on the same workers.
    let pool = Arc::new(Pool::new(4));
    let orch_sz = Orchestrator::new(
        "sz",
        OrchestratorConfig {
            total_workers: 4,
            ..OrchestratorConfig::new(quick_search(8.0))
        },
    )
    .unwrap()
    .with_pool(Arc::clone(&pool));
    let orch_zfp = Orchestrator::new(
        "zfp",
        OrchestratorConfig {
            total_workers: 4,
            ..OrchestratorConfig::new(quick_search(8.0))
        },
    )
    .unwrap()
    .with_pool(Arc::clone(&pool));

    let fields_a = hurricane_fields(3, 2, 7);
    let fields_b = hurricane_fields(3, 2, 19);
    let (a, b) = std::thread::scope(|s| {
        let ha = s.spawn(|| orch_sz.run_tasks(&fields_a));
        let hb = s.spawn(|| orch_zfp.run_tasks(&fields_b));
        (ha.join().unwrap(), hb.join().unwrap())
    });

    assert_eq!(a.fields.len(), 3);
    assert_eq!(b.fields.len(), 3);
    for series in a.fields.iter().chain(b.fields.iter()) {
        assert_eq!(series.steps.len(), 2);
        for step in &series.steps {
            assert!(step.best.compression_ratio > 1.0);
        }
    }
    // The shared pool really was shared.
    assert!(Arc::ptr_eq(orch_sz.pool(), orch_zfp.pool()));
    assert_eq!(pool.threads(), 4);
}

#[test]
fn nested_region_scopes_complete_on_a_one_worker_pool() {
    // The deadlock canary for the real task graph: with a single worker,
    // a field task can only finish if the worker executes the region
    // tasks that field submitted to the same pool.
    let pool = Arc::new(Pool::new(1));
    let orch = Orchestrator::new(
        "sz",
        OrchestratorConfig {
            total_workers: 1,
            ..OrchestratorConfig::new(quick_search(8.0))
        },
    )
    .unwrap()
    .with_pool(pool);
    let fields = hurricane_fields(2, 2, 3);
    let outcome = orch.run_tasks(&fields);
    assert_eq!(outcome.fields.len(), 2);
    for series in &outcome.fields {
        assert_eq!(series.steps.len(), 2);
    }
}

#[test]
fn repeated_runs_reuse_the_pool() {
    // Back-to-back applications on one orchestrator: the pool is built
    // once and every run just enqueues tasks.  (The zero-OS-thread claim
    // itself is enforced structurally — search.rs/orchestrator.rs no
    // longer reference std::thread::scope/spawn at all.)
    let orch = Orchestrator::new(
        "sz",
        OrchestratorConfig {
            total_workers: 2,
            ..OrchestratorConfig::new(quick_search(8.0))
        },
    )
    .unwrap();
    let fields = hurricane_fields(2, 1, 5);
    for _ in 0..5 {
        let outcome = orch.run_tasks(&fields);
        assert_eq!(outcome.fields.len(), 2);
        assert_eq!(outcome.total_workers, 2);
    }
}

/// A synthetic compressor whose ratio is exactly `100 x bound` (so a
/// 10:1 target is trivially feasible at bound 0.1) but which *stalls* on every evaluation
/// outside the winning neighbourhood — making slow sibling regions
/// observable: if cancellation were not prompt, the search would grind
/// through every stalled evaluation of every region.
struct StallingCodec {
    calls: AtomicUsize,
    stall: Duration,
}

impl Compressor for StallingCodec {
    fn name(&self) -> &str {
        "stalling"
    }
    fn supports_dims(&self, _dims: &Dims) -> bool {
        true
    }
    fn bound_range(&self, _dataset: &Dataset) -> (f64, f64) {
        (1e-6, 1.0)
    }
    fn compress(&self, dataset: &Dataset, error_bound: f64) -> Result<Vec<u8>, PressioError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        // The acceptable window for the 10:1 target sits at bound = 0.1
        // (ratio = 100 x bound), in a high region — one of the regions the
        // descending stripes reach first; evaluations far from it are
        // slow, like a hard region's would be.
        if !(0.05..=0.2).contains(&error_bound) {
            std::thread::sleep(self.stall);
        }
        let original = dataset.byte_size();
        let ratio = (100.0 * error_bound).max(1.01);
        let compressed = ((original as f64) / ratio).max(1.0) as usize;
        Ok(vec![0u8; compressed])
    }
    fn decompress(&self, _data: &[u8]) -> Result<Dataset, PressioError> {
        Err(PressioError::Codec(
            "stalling codec cannot decompress".into(),
        ))
    }
}

#[test]
fn early_termination_stops_sibling_regions_promptly_under_the_pool() {
    let codec = Arc::new(StallingCodec {
        calls: AtomicUsize::new(0),
        stall: Duration::from_millis(5),
    });
    let dataset = Dataset::from_f32("t", "f", 0, Dims::d1(4096), vec![1.0; 4096]);
    let config = SearchConfig {
        regions: 8,
        max_iterations: 24,
        threads: 4,
        measure_final_quality: false,
        ..SearchConfig::new(10.0, 0.1)
    };
    let budget = config.regions * config.max_iterations;
    let search = FixedRatioSearch::new(Arc::clone(&codec) as Arc<dyn Compressor>, config)
        .with_pool(Arc::new(Pool::new(4)));

    let outcome = search.run(&dataset);
    assert!(outcome.feasible, "10:1 is feasible by construction");
    let calls = codec.calls.load(Ordering::Relaxed);
    // Early termination must cut the race short: without prompt
    // cancellation every region would burn its whole budget.
    assert!(
        calls < budget / 2,
        "cancellation was not prompt: {calls} compressor calls of a {budget} budget"
    );
    // The winner's measurement was reused, so the search spent exactly as
    // many compressor calls as it reported.
    assert_eq!(outcome.evaluations, calls);
    // Regions either won, were cancelled mid-flight, or never started.
    assert!(outcome.regions.len() <= 8);
    assert!(outcome
        .regions
        .iter()
        .any(|r| r.cancelled || r.reached_cutoff));
}
