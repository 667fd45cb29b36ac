//! Fixed-*quality* search — the paper's first future-work item (§VII).
//!
//! FRaZ's conclusion asks for "arbitrary user error bounds … that correspond
//! with the quality of a scientist's analysis result", citing work that
//! prescribes a minimum SSIM for valid climate analyses.  This module
//! generalizes the fixed-ratio machinery to that setting: instead of a target
//! compression ratio, the user states a target value of a *quality metric*
//! (PSNR, SSIM, or a bound on the RMSE/maximum error) and FRaZ searches the
//! error-bound space for the setting that **maximizes compression while still
//! meeting the quality target**.
//!
//! Unlike the ratio objective, quality metrics are (noisily) monotone in the
//! error bound, so a different search strategy is appropriate: the search
//! brackets the constraint boundary — by a coarse logarithmic sweep, or by
//! expanding from the hint the [`Search`] shell probed — and then bisects
//! it, keeping the most compressive setting that still satisfies the
//! constraint.  (The ratio search's MaxLIPO machinery is unnecessary here —
//! there is no spiky multi-modal landscape to escape.)  Every evaluation
//! goes through the shell's [`Evaluator`].

use std::time::Duration;

use serde::{Deserialize, Serialize};

use fraz_data::Dataset;
use fraz_pressio::{registry, BoundKind, CompressionOutcome, Compressor};

use crate::hint::{HintReport, HintSource, HintTarget, SearchHint};
use crate::ratio::SearchOutcome;
use crate::regions::{from_axis, to_axis};
use crate::search::{Evaluator, Found, Objective, Search};

/// The quality metric a [`FixedQualitySearch`] constrains.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum QualityMetric {
    /// Peak signal-to-noise ratio in dB; the constraint is `psnr >= target`.
    PsnrAtLeast(f64),
    /// Mean SSIM over the central slice; the constraint is `ssim >= target`.
    SsimAtLeast(f64),
    /// Root-mean-square error; the constraint is `rmse <= target`.
    RmseAtMost(f64),
    /// Maximum pointwise error; the constraint is `max_error <= target`.
    MaxErrorAtMost(f64),
}

impl QualityMetric {
    /// True when the measured quality report satisfies the constraint.
    pub fn is_satisfied(&self, quality: &fraz_metrics::QualityReport) -> bool {
        match *self {
            QualityMetric::PsnrAtLeast(target) => quality.psnr >= target,
            QualityMetric::SsimAtLeast(target) => quality.ssim >= target,
            QualityMetric::RmseAtMost(target) => quality.rmse <= target,
            QualityMetric::MaxErrorAtMost(target) => quality.max_abs_error <= target,
        }
    }

    /// A human-readable description of the constraint.
    pub fn describe(&self) -> String {
        match *self {
            QualityMetric::PsnrAtLeast(t) => format!("PSNR >= {t} dB"),
            QualityMetric::SsimAtLeast(t) => format!("SSIM >= {t}"),
            QualityMetric::RmseAtMost(t) => format!("RMSE <= {t}"),
            QualityMetric::MaxErrorAtMost(t) => format!("max error <= {t}"),
        }
    }
}

/// Configuration of a fixed-quality search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualitySearchConfig {
    /// The quality constraint to honour.
    pub metric: QualityMetric,
    /// Maximum objective evaluations (each is a compress + decompress +
    /// measure round, so noticeably more expensive than a ratio evaluation).
    pub max_iterations: usize,
    /// Maximum allowed error bound (the same `U` as the ratio search).
    pub max_error_bound: Option<f64>,
    /// Seed the search from the codec's closed-form PSNR↔bound model when
    /// its descriptor declares one (see [`fraz_pressio::PsnrBoundModel`]);
    /// codecs without a model bracket as before.  On by default.
    pub analytic_seed: bool,
}

impl QualitySearchConfig {
    /// A search for the given quality constraint with sensible defaults.
    pub fn new(metric: QualityMetric) -> Self {
        Self {
            metric,
            max_iterations: 24,
            max_error_bound: None,
            analytic_seed: true,
        }
    }

    /// True when `outcome`'s quality report satisfies the constraint (an
    /// outcome measured without one never does).
    fn satisfied(&self, outcome: &CompressionOutcome) -> bool {
        outcome
            .quality
            .as_ref()
            .is_some_and(|q| self.metric.is_satisfied(q))
    }
}

/// Result of a fixed-quality search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualitySearchOutcome {
    /// Recommended error-bound setting.
    pub error_bound: f64,
    /// The outcome at that setting (always includes the quality report).
    pub best: CompressionOutcome,
    /// True when at least one evaluated setting satisfied the constraint.
    pub satisfiable: bool,
    /// Number of compress+measure rounds performed.
    pub evaluations: usize,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
    /// What the search did with its seeding hint (`None` on cold runs).
    pub hint: Option<HintReport>,
    /// True when a [`CancelToken`](crate::CancelToken) stopped the search early (deadline or
    /// explicit cancel): `best` is then the best-so-far acceptable setting,
    /// not the boundary-polished one.
    pub deadline_hit: bool,
}

impl From<QualitySearchOutcome> for SearchOutcome {
    /// A quality search in the shape the orchestrator and the CLI report:
    /// `satisfiable` is the quality objective's `feasible`, and every step
    /// counts as trained (there is no previous-step prediction to reuse).
    fn from(outcome: QualitySearchOutcome) -> Self {
        SearchOutcome {
            error_bound: outcome.error_bound,
            best: outcome.best,
            feasible: outcome.satisfiable,
            retrained: true,
            evaluations: outcome.evaluations,
            elapsed: outcome.elapsed,
            regions: Vec::new(),
            hint: outcome.hint,
            deadline_hit: outcome.deadline_hit,
        }
    }
}

impl From<SearchOutcome> for QualitySearchOutcome {
    /// The shell's common outcome, minus what a quality search has none of
    /// (regions, prediction reuse).
    fn from(outcome: SearchOutcome) -> Self {
        QualitySearchOutcome {
            error_bound: outcome.error_bound,
            best: outcome.best,
            satisfiable: outcome.feasible,
            evaluations: outcome.evaluations,
            elapsed: outcome.elapsed,
            hint: outcome.hint,
            deadline_hit: outcome.deadline_hit,
        }
    }
}

/// Searches for the most compressive error bound that still satisfies a
/// quality constraint: the [`Search`] shell running the bracket-and-bisect
/// below.  The phase-1 bracketing sweep runs its (independent) evaluations
/// as tasks on the shell's pool.
pub type FixedQualitySearch = Search<QualitySearchConfig>;

/// Bisection stops once the bracket is narrower than this fraction of the
/// searched axis.
const BRACKET_TOLERANCE: f64 = 0.02;

impl Objective for QualitySearchConfig {
    type Outcome = QualitySearchOutcome;

    /// Every evaluation is a compress + decompress + measure round.
    const JUDGES_QUALITY: bool = true;

    fn hint_target(&self) -> HintTarget {
        match self.metric {
            QualityMetric::PsnrAtLeast(t) => HintTarget::MinPsnr(t),
            QualityMetric::SsimAtLeast(t) => HintTarget::MinSsim(t),
            QualityMetric::RmseAtMost(t) => HintTarget::MaxRmse(t),
            QualityMetric::MaxErrorAtMost(t) => HintTarget::MaxError(t),
        }
    }

    fn max_error_bound(&self) -> Option<f64> {
        self.max_error_bound
    }

    /// The analytic first guess (unless [`analytic_seed`] is off), when the
    /// codec's registry descriptor covers the metric:
    ///
    /// * PSNR targets invert the descriptor's
    ///   [`PsnrBoundModel`](fraz_pressio::PsnrBoundModel);
    /// * RMSE targets use the same uniform-quantization assumption
    ///   (`rmse = e/√3` ⇒ `e = √3·rmse`);
    /// * max-error targets on pointwise-guaranteed codecs *are* the answer
    ///   (bound = target), so the hint is marked converged;
    /// * SSIM has no closed form — `None`, bracket cold.
    ///
    /// [`analytic_seed`]: QualitySearchConfig::analytic_seed
    fn default_hint(&self, compressor: &dyn Compressor, dataset: &Dataset) -> Option<SearchHint> {
        if !self.analytic_seed {
            return None;
        }
        let descriptor = registry::describe(compressor.name())?;
        // The first guess of the uniform-quantization model.
        let bound = match self.metric {
            QualityMetric::PsnrAtLeast(target) => {
                let range = dataset.value_range();
                descriptor.psnr_model?.bound_for_psnr(range, target)?
            }
            QualityMetric::RmseAtMost(target) => {
                descriptor.psnr_model?;
                3f64.sqrt() * target
            }
            QualityMetric::MaxErrorAtMost(target) => {
                let pointwise = matches!(
                    descriptor.bound_kind,
                    BoundKind::AbsoluteError | BoundKind::AccuracyTolerance
                );
                let hint = SearchHint::converged(target, HintSource::Analytic);
                return (pointwise && hint.is_valid()).then_some(hint);
            }
            QualityMetric::SsimAtLeast(_) => return None,
        };
        let hint =
            SearchHint::seed(bound, HintSource::Analytic).with_bracket(bound / 16.0, bound * 16.0);
        hint.is_valid().then_some(hint)
    }

    /// Every bound this strategy tries is a point of the log axis.
    fn on_axis(&self, bound: f64) -> f64 {
        from_axis(to_axis(bound))
    }

    /// A converged hint that verifies is accepted outright — the probe *is*
    /// the verify pass.  A seed that verifies is only a starting point: more
    /// compression may lie above it.
    fn settles(&self, hint: &SearchHint, probe: &CompressionOutcome) -> bool {
        hint.converged && self.satisfied(probe)
    }

    /// A missed probe replaces the coarse sweep with a geometric expansion
    /// from the probed point; the usual bisection polishes the bracket
    /// either way.
    fn search(
        eval: &Evaluator<'_, Self>,
        (lower, upper): (f64, f64),
        probe: Option<(&HintReport, &CompressionOutcome)>,
    ) -> Found {
        let config = eval.config();
        // Work on the log axis (bounds span decades).
        let (xlo, xhi) = (to_axis(lower), to_axis(upper));

        // The most compressive outcome that satisfied the constraint so far.
        let mut best: Option<CompressionOutcome> = None;
        // Fold one measured outcome into `best`; true when it satisfied.
        let mut keep = |outcome: CompressionOutcome| {
            let ok = config.satisfied(&outcome);
            if ok
                && best
                    .as_ref()
                    .is_none_or(|b| outcome.compression_ratio > b.compression_ratio)
            {
                best = Some(outcome);
            }
            ok
        };
        // One compress + decompress + measure round at axis position `x`.
        // `None` (token fired, or the compressor rejected the bound) is the
        // break signal of every loop below.
        let measure = |x: f64| eval.measure(from_axis(x).clamp(lower, upper)).ok();

        let bracket = if let Some((hint, probe)) = probe {
            // The probe anchors a geometric expansion along the axis that
            // brackets the constraint boundary without the coarse sweep.
            // Constraint holds at the probe: the boundary (and better
            // compression) lies above, so walk up until it is violated.
            // Constraint violated: walk down until it holds.  Either way
            // stop when the axis runs out.
            let ok0 = keep(probe.clone());
            let expansion_budget = (config.max_iterations / 2).max(2);
            let mut step = (xhi - xlo).abs() / 8.0;
            if step <= 0.0 {
                step = 1.0;
            }
            let mut at = to_axis(hint.bound);
            let mut bracket = None;
            while eval.answered() < expansion_budget && if ok0 { at < xhi } else { at > xlo } {
                let next = if ok0 {
                    (at + step).min(xhi)
                } else {
                    (at - step).max(xlo)
                };
                step *= 2.0;
                match measure(next).map(&mut keep) {
                    Some(ok) if ok == ok0 => at = next,
                    Some(_) => {
                        bracket = Some(if ok0 { (at, next) } else { (next, at) });
                        break;
                    }
                    None => break,
                }
            }
            bracket
        } else {
            // Cold: coarse sweep to bracket the constraint boundary.  The
            // quality degrades (noisily) as the bound grows, so the boundary
            // is the largest bound that still satisfies the constraint.  The
            // sweep points are independent, so each round runs as a task on
            // the shared work-stealing pool, writing into its own slot; the
            // fold below stays in sweep order, so the outcome is identical
            // to a serial sweep.
            let sweep_points = (config.max_iterations / 2).clamp(4, 12);
            let sweep_xs: Vec<f64> = (0..sweep_points)
                .map(|i| xlo + (xhi - xlo) * i as f64 / (sweep_points - 1) as f64)
                .collect();
            let mut sweep_results: Vec<Option<CompressionOutcome>> = vec![None; sweep_points];
            eval.pool().scope(|scope| {
                let measure = &measure;
                for (slot, &x) in sweep_results.iter_mut().zip(&sweep_xs) {
                    scope.spawn(move || *slot = measure(x));
                }
            });
            let mut last_ok: Option<f64> = None;
            let mut first_bad: Option<f64> = None;
            for (&x, outcome) in sweep_xs.iter().zip(sweep_results) {
                match outcome.map(&mut keep) {
                    Some(true) => last_ok = Some(x),
                    Some(false) if last_ok.is_some() && first_bad.is_none() => first_bad = Some(x),
                    _ => {}
                }
            }
            last_ok.zip(first_bad)
        };

        // Bisect between the last satisfying and the first violating bound
        // to squeeze out the remaining compression.  Each step depends on
        // the previous verdict, so this phase is inherently serial.
        if let Some((mut ok_x, mut bad_x)) = bracket {
            for _ in 0..config.max_iterations.saturating_sub(eval.answered()) {
                if (bad_x - ok_x).abs() <= BRACKET_TOLERANCE * (xhi - xlo).abs() {
                    break;
                }
                let mid = 0.5 * (ok_x + bad_x);
                match measure(mid).map(&mut keep) {
                    Some(true) => ok_x = mid,
                    Some(false) => bad_x = mid,
                    None => break,
                }
            }
        }

        // Nothing satisfied the constraint: recommend the smallest bound
        // (the highest fidelity the compressor offers), left to the shell
        // to measure.
        Found {
            bound: best.as_ref().map_or(lower, |b| b.error_bound),
            met: best.is_some(),
            measured: best,
            regions: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fraz_data::synthetic;
    use fraz_pressio::registry;

    fn dataset() -> Dataset {
        synthetic::hurricane(8, 20, 20, 1, 77).field("TCf", 0)
    }

    #[test]
    fn metric_satisfaction_logic() {
        let report = fraz_metrics::QualityReport {
            compression_ratio: 10.0,
            bit_rate: 3.2,
            max_abs_error: 0.5,
            rmse: 0.1,
            psnr: 60.0,
            ssim: 0.95,
            acf_error: 0.2,
            num_points: 100,
            original_bytes: 400,
            compressed_bytes: 40,
        };
        assert!(QualityMetric::PsnrAtLeast(50.0).is_satisfied(&report));
        assert!(!QualityMetric::PsnrAtLeast(70.0).is_satisfied(&report));
        assert!(QualityMetric::SsimAtLeast(0.9).is_satisfied(&report));
        assert!(!QualityMetric::SsimAtLeast(0.99).is_satisfied(&report));
        assert!(QualityMetric::RmseAtMost(0.2).is_satisfied(&report));
        assert!(!QualityMetric::RmseAtMost(0.05).is_satisfied(&report));
        assert!(QualityMetric::MaxErrorAtMost(1.0).is_satisfied(&report));
        assert!(!QualityMetric::MaxErrorAtMost(0.1).is_satisfied(&report));
        assert!(QualityMetric::PsnrAtLeast(50.0).describe().contains("PSNR"));
    }

    #[test]
    fn psnr_target_is_met_and_ratio_is_maximized() {
        let d = dataset();
        let config = QualitySearchConfig {
            max_iterations: 20,
            ..QualitySearchConfig::new(QualityMetric::PsnrAtLeast(60.0))
        };
        let search = FixedQualitySearch::new(registry::build_default("sz").unwrap(), config);
        let outcome = search.run(&d);
        assert!(outcome.satisfiable);
        let quality = outcome.best.quality.as_ref().unwrap();
        assert!(quality.psnr >= 60.0, "psnr {}", quality.psnr);
        // The point of the search: it should compress much better than the
        // most conservative setting while still meeting the target.
        let conservative = search
            .compressor()
            .evaluate(&d, search.compressor().bound_range(&d).0, false)
            .unwrap();
        assert!(outcome.best.compression_ratio > conservative.compression_ratio);
    }

    #[test]
    fn stricter_targets_give_lower_ratios() {
        let d = dataset();
        let run = |psnr: f64| {
            let config = QualitySearchConfig {
                max_iterations: 20,
                ..QualitySearchConfig::new(QualityMetric::PsnrAtLeast(psnr))
            };
            FixedQualitySearch::new(registry::build_default("sz").unwrap(), config).run(&d)
        };
        let loose = run(40.0);
        let strict = run(90.0);
        assert!(loose.satisfiable && strict.satisfiable);
        assert!(
            loose.best.compression_ratio >= strict.best.compression_ratio,
            "loose {} vs strict {}",
            loose.best.compression_ratio,
            strict.best.compression_ratio
        );
        assert!(strict.best.quality.as_ref().unwrap().psnr >= 90.0);
    }

    #[test]
    fn analytic_seed_reduces_evaluations_and_still_meets_target() {
        let d = dataset();
        let run = |codec: &str, seed: bool| {
            let config = QualitySearchConfig {
                max_iterations: 20,
                analytic_seed: seed,
                ..QualitySearchConfig::new(QualityMetric::PsnrAtLeast(60.0))
            };
            FixedQualitySearch::new(registry::build_default(codec).unwrap(), config).run(&d)
        };
        for codec in ["sz", "szx"] {
            let cold = run(codec, false);
            let seeded = run(codec, true);
            assert!(cold.hint.is_none(), "{codec}: cold runs carry no hint");
            let report = seeded
                .hint
                .expect("sz-family descriptors declare a psnr model");
            assert_eq!(report.source, HintSource::Analytic);
            assert!(seeded.satisfiable);
            assert!(seeded.best.quality.as_ref().unwrap().psnr >= 60.0);
            assert!(
                seeded.evaluations < cold.evaluations,
                "{codec}: seeded {} vs cold {}",
                seeded.evaluations,
                cold.evaluations
            );
        }
        // ZFP declares no model: run() stays cold and unhinted.
        let zfp = run("zfp", true);
        assert!(zfp.hint.is_none());
        assert!(zfp.satisfiable);
    }

    #[test]
    fn max_error_target_on_pointwise_codec_accepts_in_one_evaluation() {
        let d = dataset();
        let ceiling = d.stats().value_range() * 1e-3;
        let config = QualitySearchConfig {
            max_iterations: 16,
            ..QualitySearchConfig::new(QualityMetric::MaxErrorAtMost(ceiling))
        };
        let outcome =
            FixedQualitySearch::new(registry::build_default("sz").unwrap(), config).run(&d);
        // bound = target IS the answer for an absolute-error codec, so the
        // analytic hint is converged and the probe verifies it outright.
        assert!(outcome.satisfiable);
        assert_eq!(outcome.evaluations, 1);
        let report = outcome.hint.unwrap();
        assert!(report.hit);
        assert_eq!(report.source, HintSource::Analytic);
        assert!(outcome.best.quality.as_ref().unwrap().max_abs_error <= ceiling);
    }

    #[test]
    fn impossible_target_reports_unsatisfiable() {
        let d = dataset();
        // SSIM cannot exceed 1, so this constraint is unsatisfiable by
        // construction (a tiny error bound can reach infinite PSNR, so a
        // PSNR target would not work for this test).
        let config = QualitySearchConfig {
            max_iterations: 8,
            ..QualitySearchConfig::new(QualityMetric::SsimAtLeast(1.5))
        };
        let outcome =
            FixedQualitySearch::new(registry::build_default("sz").unwrap(), config).run(&d);
        assert!(!outcome.satisfiable);
        assert!(outcome.evaluations >= 4);
    }

    #[test]
    fn max_error_constraint_is_respected() {
        let d = dataset();
        let ceiling = d.stats().value_range() * 1e-3;
        let config = QualitySearchConfig {
            max_iterations: 16,
            ..QualitySearchConfig::new(QualityMetric::MaxErrorAtMost(ceiling))
        };
        let outcome =
            FixedQualitySearch::new(registry::build_default("zfp").unwrap(), config).run(&d);
        assert!(outcome.satisfiable);
        assert!(outcome.best.quality.as_ref().unwrap().max_abs_error <= ceiling);
    }
}
