//! Online (in-situ) fixed-ratio control — the paper's second future-work
//! item (§VII).
//!
//! The offline orchestrator can afford a full region-parallel search per
//! field because the archive already exists on disk.  An *in-situ* producer
//! (a running simulation or an instrument) sees one time-step at a time and
//! can only spare a handful of extra compressions per step.  The
//! [`OnlineController`] provides that mode:
//!
//! * the first step (and any step whose ratio drifts outside a *soft* window,
//!   three times the acceptance tolerance) runs a bounded search,
//! * a search's answer is this step's output as the search measured it —
//!   calibration and re-sync compress nothing after the search returns,
//! * in steady state every step costs exactly one compression: the current
//!   bound is applied and a multiplicative correction (a fixed proportional
//!   gain) nudges it whenever the achieved ratio drifts, exploiting the fact
//!   that the ratio is locally an increasing function of the bound even
//!   though it is globally spiky,
//! * the user's error ceiling `U` is never exceeded, and the controller
//!   reports per-step telemetry so the producer can react (e.g. fall back to
//!   a different compressor if the target keeps being infeasible).

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use fraz_data::Dataset;
use fraz_metrics::ratio::compression_ratio;
use fraz_pressio::Compressor;

use crate::hint::BoundPredictor;
use crate::loss::RatioLoss;
use crate::ratio::{FixedRatioSearch, SearchConfig, SearchOutcome};
use crate::search::answer_bytes;

/// Configuration of the online controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineControllerConfig {
    /// Target compression ratio.
    pub target_ratio: f64,
    /// Hard acceptance window (the offline ε): a step is "on target" when its
    /// ratio is within this relative deviation.
    pub tolerance: f64,
    /// Maximum error bound (`U`) the controller may ever use.
    pub max_error_bound: Option<f64>,
    /// Search settings used for the initial calibration and re-syncs; keep
    /// the budget small — this runs inside the producer's critical path.
    pub calibration: SearchConfig,
}

impl OnlineControllerConfig {
    /// A controller for the given target ratio with defaults tuned for a
    /// handful of calibration compressions and one compression per step in
    /// steady state.
    pub fn new(target_ratio: f64, tolerance: f64) -> Self {
        let calibration = SearchConfig {
            regions: 4,
            max_iterations: 12,
            threads: 4,
            measure_final_quality: false,
            ..SearchConfig::new(target_ratio, tolerance)
        };
        Self {
            target_ratio,
            tolerance,
            max_error_bound: None,
            calibration,
        }
    }
}

/// Soft window, as a multiple of the acceptance tolerance: drift beyond it
/// triggers a re-search instead of a proportional nudge.
const RESYNC_WINDOW: f64 = 3.0;
/// Proportional gain of the per-step bound correction.
const GAIN: f64 = 0.6;

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
    /// Compressor calls spent on this step, every one counted (1 in steady
    /// state: the call that produced the returned blob).
    pub compressions: usize,
    /// True when this step triggered a full re-calibration search.
    pub recalibrated: bool,
    /// Wall-clock time spent on this step.
    pub elapsed: Duration,
}

/// Streaming fixed-ratio controller.
pub struct OnlineController {
    search: FixedRatioSearch,
    config: OnlineControllerConfig,
    loss: RatioLoss,
    current_bound: Option<f64>,
    steps_processed: usize,
    history: Vec<OnlineStepReport>,
}

impl OnlineController {
    /// Create a controller over the given compressor backend (owned box or
    /// shared handle).
    pub fn new(compressor: impl Into<Arc<dyn Compressor>>, config: OnlineControllerConfig) -> Self {
        let mut calibration = config.calibration.clone();
        calibration.max_error_bound = config.max_error_bound;
        let loss = RatioLoss::new(config.target_ratio, config.tolerance);
        Self {
            search: FixedRatioSearch::new(compressor, calibration),
            config,
            loss,
            current_bound: None,
            steps_processed: 0,
            history: Vec::new(),
        }
    }

    /// Seed the first-step calibration from an external [`BoundPredictor`]
    /// (e.g. the `fraz-tune` cache), which then observes every calibration
    /// and re-sync result.
    pub fn with_predictor(mut self, predictor: Option<Arc<dyn BoundPredictor>>) -> Self {
        self.search = self.search.with_predictor(predictor);
        self
    }

    /// Run this controller's calibration and re-sync searches on `pool`
    /// instead of the process-wide [`fraz_pool::global`] pool.  An in-situ
    /// producer typically owns one small pool sized to the cores it can
    /// spare and points every controller (one per field) at it.
    pub fn with_pool(mut self, pool: Arc<fraz_pool::Pool>) -> Self {
        self.search = self.search.with_pool(pool);
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
    /// the step's telemetry.
    pub fn compress_step(&mut self, dataset: &Dataset) -> (Vec<u8>, OnlineStepReport) {
        let start = Instant::now();
        let step = self.steps_processed;
        self.steps_processed += 1;
        let mut compressions = 0usize;
        let mut recalibrated = false;

        let compressor = self.search.compressor();
        let ratio_of = |blob: &[u8]| compression_ratio(dataset.byte_size(), blob.len());
        // A search's answer arrives with the bytes it was measured on; only
        // an answer measured without writing them costs a call more.
        let answer = |mut searched: SearchOutcome, compressions: &mut usize| {
            *compressions += searched.evaluations + usize::from(searched.best.stream.is_none());
            let blob = answer_bytes(compressor, dataset, &mut searched);
            (searched.error_bound, blob)
        };

        // Decide the bound for this step and compress at it; the blob is
        // this step's output unless a re-sync below replaces it.
        let (mut bound, blob) = match self.current_bound {
            Some(b) => {
                let bound = self.search.clamp_bound(b, dataset);
                compressions += 1;
                (bound, compressor.compress(dataset, bound))
            }
            None => {
                // First step: full (bounded) calibration search, seeded by
                // the external predictor when one is installed.
                recalibrated = true;
                answer(self.search.run(dataset), &mut compressions)
            }
        };
        let mut compressed = blob.unwrap_or_else(|_| {
            // An invalid bound (e.g. after clamping on a degenerate field)
            // falls back to the lower end of the valid range.
            compressions += 1;
            bound = compressor.bound_range(dataset).0;
            compressor
                .compress(dataset, bound)
                .expect("lower end of the bound range is always valid")
        });
        let mut ratio = ratio_of(&compressed);

        // If the ratio drifted far outside the soft window, re-calibrate now
        // (this is the expensive path; it should be rare).
        let soft_window = self.config.tolerance * RESYNC_WINDOW;
        let soft = RatioLoss::new(self.config.target_ratio, soft_window);
        if !soft.is_acceptable(ratio) {
            recalibrated = true;
            // Cold: `bound` was measured on this very frame a few lines up
            // and missed the wider window, so probing it again cannot hit.
            let (resynced, blob) =
                answer(self.search.run_with_hint(dataset, None), &mut compressions);
            // A failed re-compression keeps the blob (and bound) in hand.
            if let Ok(blob) = blob {
                (bound, ratio, compressed) = (resynced, ratio_of(&blob), blob);
            }
        }

        let on_target = self.loss.is_acceptable(ratio);

        // Proportional correction for the next step: if the ratio is high the
        // bound can shrink (better fidelity), if it is low the bound grows.
        let next_bound = if ratio > 0.0 {
            let error = self.config.target_ratio / ratio;
            bound * error.powf(GAIN)
        } else {
            bound
        };
        self.current_bound = Some(self.search.clamp_bound(next_bound, dataset));

        let report = OnlineStepReport {
            step,
            error_bound: bound,
            compression_ratio: ratio,
            compressed_bytes: compressed.len(),
            on_target,
            compressions,
            recalibrated,
            elapsed: start.elapsed(),
        };
        self.history.push(report.clone());
        (compressed, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fraz_data::synthetic;
    use fraz_pressio::registry;

    fn controller(target: f64) -> OnlineController {
        OnlineController::new(
            registry::build_default("sz").unwrap(),
            OnlineControllerConfig::new(target, 0.1),
        )
    }

    #[test]
    fn stream_stays_on_target_with_one_compression_per_step() {
        let app = synthetic::hurricane(6, 16, 16, 8, 3);
        let mut ctl = controller(10.0);
        for t in 0..app.timesteps() {
            let frame = app.field("TCf", t);
            let (compressed, report) = ctl.compress_step(&frame);
            assert_eq!(report.step, t);
            assert!(!compressed.is_empty());
            assert!(report.compression_ratio > 1.0);
        }
        assert!(ctl.on_target_rate() >= 0.5, "rate {}", ctl.on_target_rate());
        // Steady state should be cheap: well under the ~50+ compressions a
        // full search costs, averaged over the stream.
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
        let mut config = OnlineControllerConfig::new(50.0, 0.1);
        config.max_error_bound = Some(ceiling);
        let mut ctl = OnlineController::new(registry::build_default("sz").unwrap(), config);
        for t in 0..app.timesteps() {
            let frame = app.field("FLDSC", t);
            let (_, report) = ctl.compress_step(&frame);
            assert!(report.error_bound <= ceiling * (1.0 + 1e-9));
        }
    }

    /// Ratio rises log-linearly with the bound (1:1 at 1e-6, 100:1 at 1)
    /// and is divided by `1 + timestep`, so a jump in `timestep` is a drift
    /// the controller must re-sync on.  Counts every `compress` call.
    #[derive(Default)]
    struct DriftingCodec {
        calls: std::sync::atomic::AtomicUsize,
    }

    impl Compressor for DriftingCodec {
        fn name(&self) -> &str {
            "drifting"
        }
        fn supports_dims(&self, _dims: &fraz_data::Dims) -> bool {
            true
        }
        fn bound_range(&self, _dataset: &Dataset) -> (f64, f64) {
            (1e-6, 1.0)
        }
        fn compress(
            &self,
            dataset: &Dataset,
            bound: f64,
        ) -> Result<Vec<u8>, fraz_pressio::PressioError> {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let ratio =
                (1.0 + 99.0 * (bound / 1e-6).ln() / 1e6f64.ln()) / (1 + dataset.timestep) as f64;
            Ok(vec![
                0u8;
                (dataset.byte_size() as f64 / ratio.max(1.0)).ceil()
                    as usize
            ])
        }
        fn decompress(&self, _data: &[u8]) -> Result<Dataset, fraz_pressio::PressioError> {
            unimplemented!("ratio searches never decompress")
        }
    }

    #[test]
    fn reported_compressions_are_exactly_the_compressor_calls() {
        let codec = Arc::new(DriftingCodec::default());
        let handle: Arc<dyn Compressor> = codec.clone();
        let config = OnlineControllerConfig::new(10.0, 0.1);
        // One worker, so the region race is serial and its count repeats.
        let pool = Arc::new(fraz_pool::Pool::new(1));
        let mut ctl = OnlineController::new(handle, config.clone()).with_pool(pool.clone());
        let frame = |timestep: usize| {
            Dataset::from_f32(
                "t",
                "f",
                timestep,
                fraz_data::Dims::d2(64, 64),
                vec![0.0; 4096],
            )
        };
        // What a cold search of a frame costs, on a codec of its own so the
        // controller's call count stays the controller's.
        let cold_search = |timestep| {
            FixedRatioSearch::new(
                Arc::new(DriftingCodec::default()) as Arc<dyn Compressor>,
                config.calibration.clone(),
            )
            .with_pool(pool.clone())
            .run_with_hint(&frame(timestep), None)
        };
        let mut reported = 0;
        // Calibration, three steady steps, a drift that forces a re-sync,
        // then steady again on the drifted field.
        for (step, timestep) in [0, 0, 0, 0, 3, 3, 3].into_iter().enumerate() {
            let (blob, report) = ctl.compress_step(&frame(timestep));
            reported += report.compressions;
            assert_eq!(
                reported,
                codec.calls.load(std::sync::atomic::Ordering::Relaxed),
                "step {step}: {report:?}"
            );
            assert_eq!(blob.len(), report.compressed_bytes);
            let resync = step == 0 || step == 4;
            assert_eq!(report.recalibrated, resync, "step {step}: {report:?}");
            assert_eq!(report.compressions == 1, !resync, "step {step}: {report:?}");
            if step == 0 {
                // The calibration search's answer is the blob returned.
                let calibration = cold_search(0);
                assert_eq!(report.compressions, calibration.evaluations);
                assert_eq!(report.error_bound, calibration.error_bound);
            }
            if step == 4 {
                // The blob that drifted and the cold search, whose answer
                // is the blob returned: no probe of a bound already
                // measured on this frame, no compression after the search.
                assert_eq!(report.compressions, cold_search(3).evaluations + 1);
            }
        }
    }

    #[test]
    fn first_step_calibrates_and_later_steps_reuse() {
        let app = synthetic::nyx(12, 12, 12, 3, 5);
        let mut ctl = controller(8.0);
        let (_, first) = ctl.compress_step(&app.field("temperature", 0));
        assert!(first.recalibrated);
        assert!(first.compressions > 1);
        let (_, second) = ctl.compress_step(&app.field("temperature", 1));
        // The second step starts from the calibrated bound.
        assert!(second.compressions < first.compressions);
        assert!(ctl.current_bound().is_some());
    }

    #[test]
    fn controller_runs_on_a_dedicated_pool() {
        let pool = Arc::new(fraz_pool::Pool::new(2));
        let app = synthetic::hurricane(4, 12, 12, 2, 21);
        let mut ctl = OnlineController::new(
            registry::build_default("sz").unwrap(),
            OnlineControllerConfig::new(10.0, 0.1),
        )
        .with_pool(pool);
        for t in 0..app.timesteps() {
            let (compressed, report) = ctl.compress_step(&app.field("TCf", t));
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
            ctl.compress_step(&app.field("Pf", t));
        }
        assert_eq!(ctl.history().len(), 3);
        assert!(ctl.mean_compressions_per_step() >= 1.0);
    }
}
