//! Online (in-situ) fixed-ratio control — the paper's second future-work
//! item (§VII).
//!
//! The offline orchestrator can afford a full region-parallel search per
//! field because the archive already exists on disk.  An *in-situ* producer
//! (a running simulation or an instrument) sees one time-step at a time and
//! can only spare a handful of extra compressions per step.  The
//! [`OnlineController`] provides that mode as the [`Search`](crate::Search)
//! shell plus a nudge: every step is one search, and the step's output is
//! that search's answer as it was measured ([`answer_bytes`]).
//!
//! * The first step searches for the target band, seeded by the installed
//!   predictor.
//! * Every later step is a search hinted with the previous step's bound
//!   times a multiplicative correction (a fixed proportional gain), judged
//!   against a *soft* window three times as wide as the band.  The ratio is
//!   locally an increasing function of the bound even though it is globally
//!   spiky, so in steady state the hint's probe lands and is the whole step.
//!   A probe that drifted outside the window re-syncs through the shell's
//!   own walk from that probe, with the region race as its fallback.
//! * The user's error ceiling `U` is never exceeded, and the controller
//!   reports per-step telemetry so the producer can react (e.g. fall back to
//!   a different compressor if the target keeps being infeasible).

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use fraz_data::Dataset;
use fraz_metrics::ratio::compression_ratio;
use fraz_pressio::{Compressor, PressioError};

use crate::hint::{BoundPredictor, HintSource, SearchHint};
use crate::loss::RatioLoss;
use crate::ratio::{FixedRatioSearch, SearchConfig};
use crate::search::answer_bytes;

/// Soft window, as a multiple of the acceptance tolerance: a later step
/// whose probe lands inside it is accepted as probed.
const RESYNC_WINDOW: f64 = 3.0;
/// Proportional gain of the per-step bound correction.
const GAIN: f64 = 0.6;

/// `config` judged against the soft window.
fn soft(config: &SearchConfig) -> SearchConfig {
    SearchConfig {
        tolerance: config.tolerance * RESYNC_WINDOW,
        ..config.clone()
    }
}

/// Telemetry for one streamed time-step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineStepReport {
    /// Time-step index (in arrival order).
    pub step: usize,
    /// Error bound used for this step.
    pub error_bound: f64,
    /// Achieved compression ratio.
    pub compression_ratio: f64,
    /// Compressed size in bytes.
    pub compressed_bytes: usize,
    /// True when the ratio landed inside the hard acceptance window.
    pub on_target: bool,
    /// Compressor calls spent on this step, every one counted: the step's
    /// search evaluations, plus the write when its answer was measured
    /// without one (1 in steady state on a codec whose evaluation writes
    /// the stream, 2 on one that only sizes it).
    pub compressions: usize,
    /// True when this step's search trained: the first step without a
    /// usable prediction, and every step whose probe drifted outside the
    /// soft window.
    pub recalibrated: bool,
    /// Wall-clock time spent on this step.
    pub elapsed: Duration,
}

/// Streaming fixed-ratio controller.
pub struct OnlineController {
    /// The first step's search, for the target band.
    calibration: FixedRatioSearch,
    /// Every later step's search: the same, in the soft window.
    step: FixedRatioSearch,
    current_bound: Option<f64>,
    history: Vec<OnlineStepReport>,
}

impl OnlineController {
    /// The in-situ budget for `target_ratio` within `tolerance`: a search
    /// small enough for a producer's critical path — 4 regions of 12
    /// evaluations on 4 tasks — and no final quality pass, so a step's
    /// `compressions` are every compressor call it made.
    pub fn budget(target_ratio: f64, tolerance: f64) -> SearchConfig {
        SearchConfig {
            regions: 4,
            max_iterations: 12,
            threads: 4,
            measure_final_quality: false,
            ..SearchConfig::new(target_ratio, tolerance)
        }
    }

    /// Create a controller over the given compressor backend (owned box or
    /// shared handle) for the target, tolerance, ceiling `U` and budget of
    /// `config` (typically [`OnlineController::budget`]).
    pub fn new(compressor: impl Into<Arc<dyn Compressor>>, config: SearchConfig) -> Self {
        let compressor = compressor.into();
        Self {
            step: FixedRatioSearch::new(Arc::clone(&compressor), soft(&config)),
            calibration: FixedRatioSearch::new(compressor, config),
            current_bound: None,
            history: Vec::new(),
        }
    }

    /// Seed the first step's search from an external [`BoundPredictor`]
    /// (e.g. the `fraz-tune` cache), which then observes its answer.
    pub fn with_predictor(mut self, predictor: Option<Arc<dyn BoundPredictor>>) -> Self {
        self.calibration = self.calibration.with_predictor(predictor);
        self
    }

    /// Run this controller's searches on `pool` instead of the process-wide
    /// [`fraz_pool::global`] pool.  An in-situ producer typically owns one
    /// small pool sized to the cores it can spare and points every
    /// controller (one per field) at it.
    pub fn with_pool(mut self, pool: Arc<fraz_pool::Pool>) -> Self {
        self.calibration = self.calibration.with_pool(Arc::clone(&pool));
        self.step = self.step.with_pool(pool);
        self
    }

    /// The bound the controller will try first on the next step, if any.
    pub fn current_bound(&self) -> Option<f64> {
        self.current_bound
    }

    /// Telemetry for every step processed so far.
    pub fn history(&self) -> &[OnlineStepReport] {
        &self.history
    }

    /// Fraction of processed steps that landed inside the acceptance window.
    pub fn on_target_rate(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        self.history.iter().filter(|s| s.on_target).count() as f64 / self.history.len() as f64
    }

    /// Average number of compressions per processed step (1.0 is the ideal
    /// steady state; the first step and re-syncs raise it).
    pub fn mean_compressions_per_step(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        self.history.iter().map(|s| s.compressions).sum::<usize>() as f64
            / self.history.len() as f64
    }

    /// Compress one arriving time-step, returning the compressed bytes and
    /// the step's telemetry.  A frame the compressor cannot write at the
    /// step's answer is an error, and leaves the next bound and the history
    /// as they were.
    pub fn compress_step(
        &mut self,
        dataset: &Dataset,
    ) -> Result<(Vec<u8>, OnlineStepReport), PressioError> {
        let start = Instant::now();
        let mut outcome = match self.current_bound {
            None => self.calibration.run(dataset),
            Some(bound) => {
                let hint = SearchHint::converged(bound, HintSource::PreviousStep);
                self.step.run_with_hint(dataset, Some(&hint))
            }
        };
        let compressions = outcome.evaluations + usize::from(outcome.best.stream.is_none());
        let compressed = answer_bytes(self.step.compressor(), dataset, &mut outcome)?;
        let ratio = compression_ratio(dataset.byte_size(), compressed.len());
        let bound = outcome.error_bound;

        // Proportional correction for the next step: if the ratio is high the
        // bound can shrink (better fidelity), if it is low the bound grows.
        let config = self.calibration.config();
        let next_bound = if ratio > 0.0 {
            bound * (config.target_ratio / ratio).powf(GAIN)
        } else {
            bound
        };
        self.current_bound = Some(self.step.clamp_bound(next_bound, dataset));

        let report = OnlineStepReport {
            step: self.history.len(),
            error_bound: bound,
            compression_ratio: ratio,
            compressed_bytes: compressed.len(),
            on_target: RatioLoss::new(config.target_ratio, config.tolerance).is_acceptable(ratio),
            compressions,
            recalibrated: outcome.retrained,
            elapsed: start.elapsed(),
        };
        self.history.push(report.clone());
        Ok((compressed, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchOutcome;
    use fraz_data::{synthetic, Dims};
    use fraz_pool::Pool;
    use fraz_pressio::registry;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn controller(target: f64) -> OnlineController {
        OnlineController::new(
            registry::build_default("sz").unwrap(),
            OnlineController::budget(target, 0.1),
        )
    }

    #[test]
    fn stream_stays_on_target_with_one_compression_per_step() {
        let app = synthetic::hurricane(6, 16, 16, 8, 3);
        let mut ctl = controller(10.0);
        for t in 0..app.timesteps() {
            let frame = app.field("TCf", t);
            let (compressed, report) = ctl.compress_step(&frame).unwrap();
            assert_eq!(report.step, t);
            assert!(!compressed.is_empty());
            assert!(report.compression_ratio > 1.0);
        }
        assert!(ctl.on_target_rate() >= 0.5, "rate {}", ctl.on_target_rate());
        // Steady state should be cheap: well under the 48 evaluations the
        // budget's race may spend on a frame this small, averaged over the
        // stream.
        assert!(
            ctl.mean_compressions_per_step() < 20.0,
            "{} compressions/step",
            ctl.mean_compressions_per_step()
        );
        // After the calibration step, most steps cost exactly one compression.
        let steady: Vec<_> = ctl.history().iter().skip(1).collect();
        let single = steady.iter().filter(|s| s.compressions == 1).count();
        assert!(single * 2 >= steady.len(), "{single}/{}", steady.len());
    }

    #[test]
    fn controller_never_exceeds_the_error_ceiling() {
        let app = synthetic::cesm(24, 32, 4, 9);
        let ceiling = app.field("FLDSC", 0).stats().value_range() * 1e-3;
        let config = OnlineController::budget(50.0, 0.1).with_max_error(ceiling);
        let mut ctl = OnlineController::new(registry::build_default("sz").unwrap(), config);
        for t in 0..app.timesteps() {
            let frame = app.field("FLDSC", t);
            let (_, report) = ctl.compress_step(&frame).unwrap();
            assert!(report.error_bound <= ceiling * (1.0 + 1e-9));
        }
    }

    /// Ratio rises log-linearly with the bound (1:1 at 1e-6, 100:1 at 1)
    /// and is divided by `1 + timestep`, so a jump in `timestep` is a drift
    /// the controller must re-sync on.  Counts every `compress` call.
    #[derive(Default)]
    struct DriftingCodec {
        calls: AtomicUsize,
    }

    impl Compressor for DriftingCodec {
        fn name(&self) -> &str {
            "drifting"
        }
        fn supports_dims(&self, _dims: &Dims) -> bool {
            true
        }
        fn bound_range(&self, _dataset: &Dataset) -> (f64, f64) {
            (1e-6, 1.0)
        }
        fn compress(&self, dataset: &Dataset, bound: f64) -> Result<Vec<u8>, PressioError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let ratio =
                (1.0 + 99.0 * (bound / 1e-6).ln() / 1e6f64.ln()) / (1 + dataset.timestep) as f64;
            let len = (dataset.byte_size() as f64 / ratio.max(1.0)).ceil();
            Ok(vec![0u8; len as usize])
        }
        fn decompress(&self, _data: &[u8]) -> Result<Dataset, PressioError> {
            unimplemented!("ratio searches never decompress")
        }
    }

    /// A 64×64 frame of the drifting codec: under the sampling floor, so a
    /// cold search is the race alone.
    fn frame(timestep: usize) -> Dataset {
        Dataset::from_f32("t", "f", timestep, Dims::d2(64, 64), vec![0.0; 4096])
    }

    /// `config`'s search of `frame(timestep)`, hinted with `hint`, on a
    /// codec of its own so a controller's call count stays the
    /// controller's.
    fn searched(
        config: &SearchConfig,
        pool: &Arc<Pool>,
        timestep: usize,
        hint: Option<f64>,
    ) -> SearchOutcome {
        let hint = hint.map(|bound| SearchHint::converged(bound, HintSource::PreviousStep));
        FixedRatioSearch::new(
            Arc::new(DriftingCodec::default()) as Arc<dyn Compressor>,
            config.clone(),
        )
        .with_pool(Arc::clone(pool))
        .run_with_hint(&frame(timestep), hint.as_ref())
    }

    /// What a step whose search ended in `outcome` costs: its evaluations,
    /// plus the write when the answer carried no stream.
    fn cost(outcome: &SearchOutcome) -> usize {
        outcome.evaluations + usize::from(outcome.best.stream.is_none())
    }

    #[test]
    fn reported_compressions_are_exactly_the_compressor_calls() {
        let codec = Arc::new(DriftingCodec::default());
        let config = OnlineController::budget(10.0, 0.1);
        // One worker, so the region race is serial and its count repeats.
        let pool = Arc::new(Pool::new(1));
        let mut ctl = OnlineController::new(codec.clone() as Arc<dyn Compressor>, config.clone())
            .with_pool(pool.clone());
        let mut reported = 0;
        // Calibration, three steady steps, a drift that forces a re-sync,
        // then steady again on the drifted field.
        for (step, timestep) in [0, 0, 0, 0, 3, 3, 3].into_iter().enumerate() {
            let nudged = ctl.current_bound();
            let (blob, report) = ctl.compress_step(&frame(timestep)).unwrap();
            reported += report.compressions;
            assert_eq!(reported, codec.calls.load(Ordering::Relaxed), "step {step}");
            assert_eq!(blob.len(), report.compressed_bytes);
            let resync = step == 0 || step == 4;
            assert_eq!(report.recalibrated, resync, "step {step}: {report:?}");
            assert_eq!(report.compressions == 1, !resync, "step {step}: {report:?}");
            if step == 0 {
                // The calibration search's answer is the blob returned.
                let calibration = searched(&config, &pool, 0, None);
                assert_eq!(report.compressions, cost(&calibration));
                assert_eq!(report.error_bound, calibration.error_bound);
            }
            if step == 4 {
                // The probe that drifted is the first answer of the walk the
                // step goes on with: one search, no second cold one.
                let resynced = searched(&soft(&config), &pool, 3, nudged);
                assert_eq!(report.compressions, cost(&resynced), "{report:?}");
                assert_eq!(report.error_bound, resynced.error_bound);
                assert!(report.compressions < searched(&config, &pool, 3, None).evaluations);
            }
        }
    }

    #[test]
    fn an_unreachable_target_costs_one_search_on_the_first_step() {
        // 500:1 on a codec that tops out at 100:1: the first step's answer
        // is best-effort, outside even the soft window, and ships as found.
        let codec = Arc::new(DriftingCodec::default());
        let config = OnlineController::budget(500.0, 0.1);
        let pool = Arc::new(Pool::new(1));
        let mut ctl = OnlineController::new(codec.clone() as Arc<dyn Compressor>, config.clone())
            .with_pool(pool.clone());
        let (_, report) = ctl.compress_step(&frame(0)).unwrap();
        let cold = searched(&config, &pool, 0, None);
        assert!(!cold.feasible && !report.on_target);
        assert_eq!(report.compressions, cost(&cold));
        assert_eq!(report.compressions, codec.calls.load(Ordering::Relaxed));
        assert_eq!(report.error_bound, cold.error_bound);
    }

    #[test]
    fn a_frame_the_codec_rejects_is_an_error_that_changes_nothing() {
        let line = Dataset::from_f32("t", "line", 0, Dims::d1(4096), vec![0.5; 4096]);
        let plane = synthetic::cesm(24, 32, 1, 9).field("FLDSC", 0);
        let mut ctl = OnlineController::new(
            registry::build_default("mgard").unwrap(),
            OnlineController::budget(10.0, 0.1),
        )
        .with_pool(Arc::new(Pool::new(1)));
        let rejects = |ctl: &mut OnlineController| {
            matches!(ctl.compress_step(&line), Err(PressioError::Unsupported(_)))
        };
        assert!(rejects(&mut ctl));
        assert!(ctl.history().is_empty() && ctl.current_bound().is_none());

        let (compressed, report) = ctl.compress_step(&plane).unwrap();
        assert!(!compressed.is_empty() && report.step == 0);
        let next = ctl.current_bound();
        assert!(next.is_some() && rejects(&mut ctl));
        assert_eq!((ctl.history().len(), ctl.current_bound()), (1, next));
    }

    #[test]
    fn first_step_calibrates_and_later_steps_reuse() {
        let app = synthetic::nyx(12, 12, 12, 3, 5);
        let mut ctl = controller(8.0);
        let (_, first) = ctl.compress_step(&app.field("temperature", 0)).unwrap();
        assert!(first.recalibrated);
        assert!(first.compressions > 1);
        let (_, second) = ctl.compress_step(&app.field("temperature", 1)).unwrap();
        // The second step starts from the calibrated bound.
        assert!(second.compressions < first.compressions);
        assert!(ctl.current_bound().is_some());
    }

    #[test]
    fn controller_runs_on_a_dedicated_pool() {
        let pool = Arc::new(Pool::new(2));
        let app = synthetic::hurricane(4, 12, 12, 2, 21);
        let mut ctl = controller(10.0).with_pool(pool);
        for t in 0..app.timesteps() {
            let (compressed, report) = ctl.compress_step(&app.field("TCf", t)).unwrap();
            assert!(!compressed.is_empty());
            assert!(report.compression_ratio > 1.0);
        }
    }

    #[test]
    fn telemetry_accumulates() {
        let app = synthetic::hurricane(4, 12, 12, 3, 8);
        let mut ctl = controller(12.0);
        assert_eq!(ctl.history().len(), 0);
        assert_eq!(ctl.on_target_rate(), 0.0);
        for t in 0..3 {
            ctl.compress_step(&app.field("Pf", t)).unwrap();
        }
        assert_eq!(ctl.history().len(), 3);
        assert!(ctl.mean_compressions_per_step() >= 1.0);
    }
}
