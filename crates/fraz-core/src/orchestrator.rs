//! The parallel orchestrator: time-step prediction reuse and
//! parallel-by-field scheduling (paper Algorithm 3 and §V-C).
//!
//! FRaZ exploits two levels of structure in scientific archives:
//!
//! * consecutive **time-steps** of a field usually compress alike, so the
//!   error bound found for step `t` is tried as a *prediction* for step
//!   `t+1` and full training only re-runs when the prediction misses (the
//!   paper retrained only 4 of 48 Hurricane-CLOUD steps),
//! * different **fields** are independent, so their searches run in
//!   parallel; the whole-application runtime is bounded by the slowest
//!   field, which is what limits strong scaling in the paper's Fig. 8.
//!
//! The original implementation distributed this over MPI ranks; here the
//! same task graph runs on a shared work-stealing thread pool
//! ([`fraz_pool::Pool`]) with a `total_workers` knob standing in for the
//! paper's core counts.  The pool is built once, on the orchestrator's
//! first run; field tasks and their nested region tasks are all submitted
//! to it, so repeated [`Orchestrator::run_tasks`] calls spawn no OS threads
//! at all.  A field's race runs as many runners as its own
//! [`SearchConfig::threads`] asks for, and for 0 one per region up to the
//! pool's size; idle workers take whatever field or region task is queued.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use fraz_data::Dataset;
use fraz_pool::Pool;
use fraz_pressio::registry;
use fraz_pressio::Compressor;

use crate::hint::{BoundPredictor, HintSource, LastConverged, PredictorChain};
use crate::quality::QualitySearchConfig;
use crate::ratio::{SearchConfig, SearchOutcome};
use crate::search::{Objective, Search};

/// Outcome of tuning one field across all of its time-steps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesOutcome {
    /// Field name.
    pub field: String,
    /// Per-time-step search outcomes, in time order.
    pub steps: Vec<SearchOutcome>,
    /// Indices of the time-steps that required (re)training.
    pub retrain_steps: Vec<usize>,
    /// Wall-clock time for the whole series.
    pub elapsed: Duration,
}

impl SeriesOutcome {
    /// Fraction of time-steps whose achieved ratio was inside the acceptable
    /// region.
    pub fn convergence_rate(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps.iter().filter(|s| s.feasible).count() as f64 / self.steps.len() as f64
    }

    /// Total number of compressor invocations across the series.
    pub fn total_evaluations(&self) -> usize {
        self.steps.iter().map(|s| s.evaluations).sum()
    }
}

/// Outcome of tuning a whole application (all fields, all time-steps).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApplicationOutcome {
    /// Per-field outcomes (in the order the fields were given).
    pub fields: Vec<SeriesOutcome>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Number of worker threads that were available to the run.
    pub total_workers: usize,
}

impl ApplicationOutcome {
    /// The longest single-field wall-clock time — the lower bound on the
    /// run's total time regardless of parallelism (paper §VI-B3).
    pub fn longest_field_time(&self) -> Duration {
        self.fields
            .iter()
            .map(|f| f.elapsed)
            .max()
            .unwrap_or_default()
    }
}

/// Configuration of the orchestrator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrchestratorConfig {
    /// The per-dataset search configuration (target ratio, tolerance, …).
    pub search: SearchConfig,
    /// Worker threads of the private pool the fields and their regions run
    /// on; this is the "cores" axis of the scalability experiment.  0 means
    /// the machine's available parallelism ([`Pool::new`]).
    pub total_workers: usize,
    /// Reuse the previous time-step's error bound as a prediction
    /// (Algorithm 1 / §V-C); disabling this is the ablation knob.
    pub reuse_prediction: bool,
}

impl OrchestratorConfig {
    /// Orchestrator with the given search settings and automatic worker
    /// count.
    pub fn new(search: SearchConfig) -> Self {
        Self {
            search,
            total_workers: 0,
            reuse_prediction: true,
        }
    }
}

/// What one field's search optimises: a fixed ratio or a fixed quality.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldSearch {
    /// A fixed-ratio search with time-step prediction reuse.
    Ratio(SearchConfig),
    /// A fixed-quality search (seeded by the external predictor, then the
    /// codec's analytic model; a previous step's ratio-agnostic bound is no
    /// better a seed than the model, so there is no previous-step slot).
    Quality(QualitySearchConfig),
}

impl From<SearchConfig> for FieldSearch {
    fn from(config: SearchConfig) -> Self {
        FieldSearch::Ratio(config)
    }
}

impl From<QualitySearchConfig> for FieldSearch {
    fn from(config: QualitySearchConfig) -> Self {
        FieldSearch::Quality(config)
    }
}

/// One field's worth of work for [`Orchestrator::run_tasks`]: a named time
/// series plus an optional per-field search override.
///
/// The CLI builds these from dataset manifests, where individual fields may
/// override the application-wide target ratio or ask for a quality target
/// instead.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldTask {
    /// Field name, reported in the [`SeriesOutcome`].
    pub field: String,
    /// The field's datasets in time order.
    pub series: Vec<Dataset>,
    /// Per-field search settings; `None` uses the orchestrator's
    /// configured [`SearchConfig`].  A ratio search's race runs its own
    /// `threads` runners on the orchestrator's pool.
    pub search: Option<FieldSearch>,
}

impl FieldTask {
    /// A task using the orchestrator's default search settings.
    pub fn new(field: impl Into<String>, series: Vec<Dataset>) -> Self {
        Self {
            field: field.into(),
            series,
            search: None,
        }
    }

    /// Builder-style per-field search override: a [`SearchConfig`] or a
    /// [`QualitySearchConfig`].
    pub fn with_search(mut self, search: impl Into<FieldSearch>) -> Self {
        self.search = Some(search.into());
        self
    }
}

/// The parallel orchestrator for one compressor backend.
///
/// Holds a shared `Arc<dyn Compressor>` handle (`Compressor` is `Send +
/// Sync`, so every field worker drives the same backend instance) and one
/// shared work-stealing [`Pool`] of `total_workers` threads.  Field tasks
/// and their nested region tasks all run on that pool, so once it exists
/// a run spawns **zero** OS threads.  The pool is created lazily, on the
/// first run (or by [`Orchestrator::pool`]): an orchestrator that is
/// handed a shared pool via [`Orchestrator::with_pool`] never builds —
/// and then throws away — a private one.
pub struct Orchestrator {
    compressor: Arc<dyn Compressor>,
    config: OrchestratorConfig,
    pool: OnceLock<Arc<Pool>>,
    predictor: Option<Arc<dyn BoundPredictor>>,
}

impl Orchestrator {
    /// Create an orchestrator for a backend from the process-wide default
    /// registry, with default codec settings.
    ///
    /// Returns `None` if the backend name is unknown.  Use
    /// [`Orchestrator::with_compressor`] to bring your own backend (e.g.
    /// one built from validated options by `Registry::build`).
    pub fn new(compressor_name: &str, config: OrchestratorConfig) -> Option<Self> {
        let compressor = registry::build_default(compressor_name).ok()?;
        Some(Self::with_compressor(compressor, config))
    }

    /// Create an orchestrator over an already-constructed backend (owned
    /// box or shared handle).
    pub fn with_compressor(
        compressor: impl Into<Arc<dyn Compressor>>,
        config: OrchestratorConfig,
    ) -> Self {
        Self {
            compressor: compressor.into(),
            config,
            pool: OnceLock::new(),
            predictor: None,
        }
    }

    /// Install an external [`BoundPredictor`] (e.g. the `fraz-tune` cache)
    /// consulted before the in-series previous-step slot on every step and
    /// taught every converged bound.  Shared across the parallel field
    /// tasks.
    pub fn with_predictor(mut self, predictor: Option<Arc<dyn BoundPredictor>>) -> Self {
        self.predictor = predictor;
        self
    }

    /// Use `pool` instead of a private one, e.g. so several orchestrators
    /// (or concurrent `run_tasks` calls) draw from a single worker
    /// budget instead of oversubscribing the machine.  Because the private
    /// pool is created lazily, calling this right after construction
    /// spawns no threads at all for the replaced pool.
    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = OnceLock::from(pool);
        self
    }

    /// The pool every field and region task of this orchestrator runs on,
    /// creating the private `total_workers`-sized pool on first use.
    pub fn pool(&self) -> &Arc<Pool> {
        self.pool
            .get_or_init(|| Arc::new(Pool::new(self.config.total_workers)))
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &OrchestratorConfig {
        &self.config
    }

    /// Borrow the backend every worker shares.
    pub fn compressor(&self) -> &dyn Compressor {
        self.compressor.as_ref()
    }

    /// Tune one field's time series sequentially, reusing the previous
    /// step's error bound as a prediction (Algorithm 1 applied over time,
    /// §V-C).
    fn run_field(&self, task: &FieldTask) -> SeriesOutcome {
        let ratio = match &task.search {
            Some(FieldSearch::Quality(config)) => {
                let search = Search::new(Arc::clone(&self.compressor), config.clone())
                    .with_predictor(self.predictor.clone());
                return self.tune_series(task, search);
            }
            Some(FieldSearch::Ratio(config)) => config,
            None => &self.config.search,
        };
        // Algorithm 3's time-step prediction is a [`LastConverged`] slot
        // (it learns a bound only when the objective was met, lines 5-7)
        // chained behind any externally installed predictor: the external
        // predictor (a tuning cache keyed by each step's own data) answers
        // first where it knows the step, the previous step seeds the rest,
        // and both observe every converged bound.
        let mut predictors: Vec<Arc<dyn BoundPredictor>> = self.predictor.iter().cloned().collect();
        if self.config.reuse_prediction {
            predictors.push(Arc::new(LastConverged::new(HintSource::PreviousStep)));
        }
        let search = Search::new(Arc::clone(&self.compressor), ratio.clone())
            .with_predictor(Some(Arc::new(PredictorChain::new(predictors))));
        self.tune_series(task, search)
    }

    /// Run `search` over every step of `task`'s series, in time order, on
    /// the shared pool.
    fn tune_series<O: Objective>(&self, task: &FieldTask, search: Search<O>) -> SeriesOutcome {
        let start = Instant::now();
        let search = search.with_pool(Arc::clone(self.pool()));
        // A series reports bounds: the stream each step's answer was
        // measured on is not kept for the length of the run.
        let tuned = |step: &Dataset| {
            let mut outcome: SearchOutcome = search.run(step).into();
            outcome.best.stream = None;
            outcome
        };
        let steps: Vec<SearchOutcome> = task.series.iter().map(tuned).collect();
        let retrain_steps = (0..steps.len()).filter(|&t| steps[t].retrained).collect();
        SeriesOutcome {
            field: task.field.clone(),
            steps,
            retrain_steps,
            elapsed: start.elapsed(),
        }
    }

    /// Algorithm 3: tune every field of an application, fields in parallel.
    ///
    /// Every field becomes one task on the shared pool and each field's
    /// region race runs as nested tasks on the *same* pool, so the worker
    /// budget flows to wherever work remains: when a field finishes early
    /// its workers steal region tasks from the fields still running.  A
    /// task may bring its own target ratio / tolerance / region layout /
    /// runner count, or a quality target (a manifest's per-field
    /// `target_ratio` or `min_psnr`); quality steps are reported in the same
    /// [`SearchOutcome`] shape.
    pub fn run_tasks(&self, tasks: &[FieldTask]) -> ApplicationOutcome {
        let start = Instant::now();
        let mut results: Vec<Option<SeriesOutcome>> = vec![None; tasks.len()];
        self.pool().scope(|scope| {
            for (slot, task) in results.iter_mut().zip(tasks) {
                scope.spawn(move || *slot = Some(self.run_field(task)));
            }
        });
        ApplicationOutcome {
            fields: results
                .into_iter()
                .map(|o| o.expect("every field processed"))
                .collect(),
            elapsed: start.elapsed(),
            // The pool that really ran the tasks: `with_pool` may have
            // installed one of another size than `total_workers`.
            total_workers: self.pool().threads(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::QualityMetric;
    use fraz_data::synthetic;
    use fraz_pressio::PressioError;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    fn quick_search(target: f64) -> SearchConfig {
        SearchConfig {
            regions: 4,
            max_iterations: 12,
            measure_final_quality: false,
            ..SearchConfig::new(target, 0.15)
        }
    }

    fn hurricane_series(field: &str, steps: usize) -> Vec<Dataset> {
        let app = synthetic::hurricane(6, 16, 16, steps, 11);
        app.series(field)
    }

    /// `orch`'s outcome for an application of the one field `task`.
    fn run_one(orch: &Orchestrator, task: FieldTask) -> SeriesOutcome {
        orch.run_tasks(&[task]).fields.remove(0)
    }

    #[test]
    fn series_reuses_predictions_across_timesteps() {
        let series = hurricane_series("TCf", 5);
        let orch = Orchestrator::new(
            "sz",
            OrchestratorConfig {
                total_workers: 4,
                ..OrchestratorConfig::new(quick_search(8.0).with_threads(2))
            },
        )
        .unwrap();
        let outcome = run_one(&orch, FieldTask::new("TCf", series));
        assert_eq!(outcome.steps.len(), 5);
        // The first step always trains; later ones should mostly reuse the
        // previous bound because consecutive synthetic steps are coherent.
        assert!(outcome.retrain_steps.contains(&0));
        assert!(
            outcome.retrain_steps.len() < 5,
            "every step retrained: {:?}",
            outcome.retrain_steps
        );
        assert!(outcome.convergence_rate() > 0.5);
        assert!(outcome.total_evaluations() >= 5);
    }

    #[test]
    fn disabling_prediction_reuse_retrains_every_step() {
        let series = hurricane_series("TCf", 3);
        let orch = Orchestrator::new(
            "sz",
            OrchestratorConfig {
                total_workers: 4,
                reuse_prediction: false,
                ..OrchestratorConfig::new(quick_search(8.0).with_threads(2))
            },
        )
        .unwrap();
        let outcome = run_one(&orch, FieldTask::new("TCf", series));
        assert_eq!(outcome.retrain_steps, vec![0, 1, 2]);
    }

    #[test]
    fn application_run_covers_all_fields() {
        let app = synthetic::cesm(24, 48, 2, 5);
        let tasks: Vec<FieldTask> = app
            .field_names()
            .into_iter()
            .take(3)
            .map(|f| FieldTask::new(f.clone(), app.series(&f)))
            .collect();
        let orch = Orchestrator::new(
            "sz",
            OrchestratorConfig {
                total_workers: 8,
                ..OrchestratorConfig::new(quick_search(6.0))
            },
        )
        .unwrap();
        let outcome = orch.run_tasks(&tasks);
        assert_eq!(outcome.fields.len(), 3);
        for (task, series) in tasks.iter().zip(outcome.fields.iter()) {
            assert_eq!(series.field, task.field);
            assert_eq!(series.steps.len(), 2);
        }
        assert!(outcome.longest_field_time() <= outcome.elapsed + Duration::from_millis(50));
        assert_eq!(outcome.total_workers, 8);
    }

    #[test]
    fn run_tasks_honours_per_field_search_overrides() {
        let orch = Orchestrator::new(
            "sz",
            OrchestratorConfig {
                total_workers: 4,
                ..OrchestratorConfig::new(quick_search(6.0))
            },
        )
        .unwrap();
        let tasks = vec![
            FieldTask::new("TCf", hurricane_series("TCf", 2)),
            FieldTask::new("Pf", hurricane_series("Pf", 2)).with_search(quick_search(12.0)),
            FieldTask::new("Uf", hurricane_series("Uf", 2))
                .with_search(QualitySearchConfig::new(QualityMetric::PsnrAtLeast(60.0))),
        ];
        let outcome = orch.run_tasks(&tasks);
        assert_eq!(outcome.fields.len(), 3);
        for (series, target) in outcome.fields.iter().zip([6.0, 12.0]) {
            for step in &series.steps {
                assert!(
                    step.feasible,
                    "{}: target {target} infeasible at ratio {}",
                    series.field, step.best.compression_ratio
                );
                let deviation = (step.best.compression_ratio - target).abs() / target;
                assert!(
                    deviation <= 0.15 + 1e-9,
                    "{}: ratio {} is not within 15% of {target}",
                    series.field,
                    step.best.compression_ratio
                );
            }
        }
        // The quality field reports through the same outcome shape: every
        // step trains (seeded analytically, no previous-step slot).
        let quality = &outcome.fields[2];
        assert_eq!(quality.retrain_steps, vec![0, 1]);
        for step in &quality.steps {
            assert!(step.feasible && step.regions.is_empty());
            assert!(step.best.quality.as_ref().unwrap().psnr >= 60.0);
            assert_eq!(step.hint.as_ref().unwrap().source, HintSource::Analytic);
        }
    }

    #[test]
    fn with_pool_schedules_and_reports_the_actual_pool_budget() {
        // A shared pool's size wins over the config's total_workers: the
        // outcome must attribute timings to the budget that really ran.
        let orch = Orchestrator::new(
            "sz",
            OrchestratorConfig {
                total_workers: 8,
                ..OrchestratorConfig::new(quick_search(8.0))
            },
        )
        .unwrap()
        .with_pool(std::sync::Arc::new(fraz_pool::Pool::new(2)));
        let tasks = vec![
            FieldTask::new("TCf", hurricane_series("TCf", 1)),
            FieldTask::new("Pf", hurricane_series("Pf", 1)),
        ];
        let outcome = orch.run_tasks(&tasks);
        assert_eq!(outcome.total_workers, 2);
        assert_eq!(orch.pool().threads(), 2);
    }

    /// A size-only codec whose ratio rises with the bound and whose every
    /// call sleeps, recording the most calls that were ever in flight at
    /// once.
    #[derive(Default)]
    struct PeakCodec {
        in_flight: AtomicUsize,
        peak: AtomicUsize,
    }

    impl Compressor for PeakCodec {
        fn name(&self) -> &str {
            "peak"
        }
        fn supports_dims(&self, _dims: &fraz_data::Dims) -> bool {
            true
        }
        fn bound_range(&self, _dataset: &Dataset) -> (f64, f64) {
            (1e-6, 1.0)
        }
        fn compress(&self, dataset: &Dataset, bound: f64) -> Result<Vec<u8>, PressioError> {
            let now = self.in_flight.fetch_add(1, SeqCst) + 1;
            self.peak.fetch_max(now, SeqCst);
            std::thread::sleep(Duration::from_millis(5));
            self.in_flight.fetch_sub(1, SeqCst);
            let ratio = 8.0 + bound.log10();
            Ok(vec![0; (dataset.byte_size() as f64 / ratio) as usize])
        }
        fn decompress(&self, _data: &[u8]) -> Result<Dataset, PressioError> {
            Err(PressioError::Unsupported("size only".into()))
        }
    }

    #[test]
    fn a_tasks_threads_bound_its_race_and_zero_means_the_pool() {
        // A field under the sampling floor and an unreachable target: the
        // search is the race alone, and every region spends its budget.
        let field = crate::search::tests::smooth_field();
        for (workers, regions, threads, peak) in [
            (4, 4, 1, 1),
            (4, 4, 2, 2),
            (4, 4, 0, 4),
            (4, 2, 0, 2),
            (2, 4, 0, 2),
        ] {
            let codec = Arc::new(PeakCodec::default());
            let search = SearchConfig {
                regions,
                threads,
                max_iterations: 6,
                measure_final_quality: false,
                ..SearchConfig::new(1e6, 0.1)
            };
            // The orchestrator's own search (12 regions, 0 threads) is
            // not the task's.
            let orch = Orchestrator::with_compressor(
                Arc::clone(&codec) as Arc<dyn Compressor>,
                OrchestratorConfig::new(SearchConfig::new(1e6, 0.1)),
            )
            .with_pool(Arc::new(Pool::new(workers)));
            let task = FieldTask::new("smooth", vec![field.clone()]).with_search(search);
            let outcome = run_one(&orch, task);
            assert!(!outcome.steps[0].regions.is_empty(), "the race ran");
            assert_eq!(
                codec.peak.load(SeqCst),
                peak,
                "{threads} threads, {regions} regions on {workers} workers"
            );
        }
    }

    #[test]
    fn with_compressor_shares_one_backend() {
        // A shared handle can serve the orchestrator and other users at once.
        let shared: Arc<dyn Compressor> = registry::build_default("zfp").unwrap().into();
        let orch = Orchestrator::with_compressor(
            Arc::clone(&shared),
            OrchestratorConfig::new(quick_search(8.0).with_threads(2)),
        );
        assert_eq!(orch.compressor().name(), shared.name());
        let outcome = run_one(&orch, FieldTask::new("TCf", hurricane_series("TCf", 2)));
        assert_eq!(outcome.steps.len(), 2);
    }

    #[test]
    fn unknown_backend_is_rejected() {
        assert!(Orchestrator::new(
            "nope",
            OrchestratorConfig::new(SearchConfig::new(10.0, 0.1))
        )
        .is_none());
    }
}
