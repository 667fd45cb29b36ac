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
//! error bound, so the strategy is a bracketing **walk** along the log₁₀
//! axis: it keeps the largest satisfying and the smallest violating position
//! it has measured and stops once they are [`TOLERANCE`] apart — an absolute
//! distance, under 1 dB of PSNR, whatever the codec's range.  Every
//! measurement also says *how far* it is from the target
//! ([`QualityMetric::margin_db`]), and that margin falls about 20 dB per
//! decade of bound, so the next position is where the measured points put
//! the boundary (their secant once there are two) — unless the answers
//! still affordable could not bisect what would be left of the bracket, in
//! which case it is moved towards the midpoint until they can.  No search is
//! answered more often than bisection would be from the same start — both
//! ends, `⌈log₂(axis / TOLERANCE)⌉` halvings and the probe, if the [`Search`]
//! shell made one — staircase, noisy and refusing codecs included.  A hinted
//! search starts the walk at that probe, a cold one at the top of the range.
//! The walk (`walk.rs`) is the one the ratio search drives towards its band
//! too; a quality curve has no saw-tooth for a region race to escape, so
//! here the walk is the whole strategy.  Every evaluation goes through the
//! shell's [`Evaluator`].
//!
//! On a pool of two workers or more the walk *hedges*: beside each position
//! it measures — the probe included — an idle worker evaluates the position
//! a [`TOLERANCE`] above, where the walk goes next when the position
//! satisfies by under a tolerance's worth of margin.  A seed from the closed
//! form usually does, so a seeded search often closes its bracket in one
//! round of two evaluations.  The answer is the one-worker walk's bit for
//! bit: a hedge answers the next step only if the walk asks for exactly its
//! bound, and a run stops hedging once it asks for something else.  Every
//! hedge that ran counts in `evaluations`.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use fraz_data::Dataset;
use fraz_pressio::{
    registry, uniform_quantization_bound, BoundKind, CompressionOutcome, Compressor,
};

use crate::hint::{HintReport, HintSource, HintTarget, SearchHint};
use crate::ratio::SearchOutcome;
use crate::regions::{from_axis, to_axis};
use crate::search::{Evaluator, Found, Objective, Search};
use crate::walk::{walk, Goal, Plan, Verdict};

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

    /// How far `quality` is from the constraint in dB of error amplitude,
    /// positive on the satisfying side: the quantity that falls 20 dB per
    /// decade of bound under uniform quantisation.  Infinities (a
    /// lossless reconstruction, an infinite target) are clamped; `None` for
    /// SSIM, which has no such scale, and when the report or the target is
    /// NaN.
    pub fn margin_db(&self, quality: &fraz_metrics::QualityReport) -> Option<f64> {
        let db = match *self {
            QualityMetric::PsnrAtLeast(target) => quality.psnr - target,
            QualityMetric::RmseAtMost(target) => 20.0 * (target / quality.rmse).log10(),
            QualityMetric::MaxErrorAtMost(target) => {
                20.0 * (target / quality.max_abs_error).log10()
            }
            QualityMetric::SsimAtLeast(_) => return None,
        };
        (!db.is_nan()).then(|| db.clamp(-MARGIN_LIMIT, MARGIN_LIMIT))
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

/// Configuration of a fixed-quality search.  On a pool of two workers or
/// more the walk hedges (see the module docs): the answer does not change,
/// and `evaluations` counts the hedges that ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualitySearchConfig {
    /// The quality constraint to honour.
    pub metric: QualityMetric,
    /// Maximum objective evaluations answered (each is a compress +
    /// decompress + measure round, so noticeably more expensive than a ratio
    /// evaluation; a hedge counts once the walk asks for it).
    pub max_iterations: usize,
    /// Maximum allowed error bound (the same `U` as the ratio search).
    pub max_error_bound: Option<f64>,
    /// Start the walk at the uniform-quantisation first guess
    /// ([`fraz_pressio::uniform_quantization_bound`]) when the codec's
    /// registry descriptor says its bound is pointwise; otherwise, and when
    /// off, it starts at the top of the range.  On by default.
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
/// quality constraint: the [`Search`] shell running the walk below.
pub type FixedQualitySearch = Search<QualitySearchConfig>;

/// The walk stops once the largest satisfying and the smallest violating
/// position it has seen are this close on the log₁₀ axis: 0.04 decade is
/// 0.8 dB of PSNR at the −20 dB per decade of uniform quantisation.
pub const TOLERANCE: f64 = 0.04;

/// dB of margin per decade of bound under uniform quantisation: what the
/// walk assumes until two measured points give it a secant of its own.
const SLOPE: f64 = -20.0;

/// A measured secant is trusted between these slopes only.
const SLOPE_LIMITS: (f64, f64) = (-60.0, -5.0);

/// [`QualityMetric::margin_db`] clamps to ± this many dB.
const MARGIN_LIMIT: f64 = 200.0;

/// The walk over `(lower, upper)`, from the shell's probe when `probed`.
/// What bisection would be answered from the same start — the probe, both
/// ends, then halvings — is all it may ask for.
fn plan(config: &QualitySearchConfig, (lower, upper): (f64, f64), probed: bool) -> Plan {
    let (xlo, xhi) = (to_axis(lower), to_axis(upper));
    let halvings = ((xhi - xlo) / TOLERANCE).max(1.0).log2().ceil() as usize;
    let bisection = probed as usize + 2 + halvings;
    Plan {
        goal: Goal::Boundary,
        range: (lower, upper),
        tolerance: TOLERANCE,
        answers: config.max_iterations.min(bisection) as i32,
        start: f64::INFINITY,
        slope: SLOPE,
        slope_limits: SLOPE_LIMITS,
        descent: f64::INFINITY,
    }
}

/// What the walk reads off an outcome: ok when it satisfies the constraint
/// (one measured without a quality report never does), its margin in dB.
fn verdict(config: &QualitySearchConfig, outcome: &CompressionOutcome) -> Verdict {
    let quality = outcome.quality.as_ref();
    Verdict {
        ok: quality.is_some_and(|q| config.metric.is_satisfied(q)),
        hit: false,
        margin: quality.and_then(|q| config.metric.margin_db(q)),
    }
}

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

    /// The analytic first guess (unless [`analytic_seed`] is off) for every
    /// codec whose registry descriptor says its bound is pointwise — the
    /// uniform-quantisation closed form of Tao et al.'s Fixed-PSNR, which the
    /// walk corrects by measuring it:
    ///
    /// * PSNR targets invert `PSNR = 20·log10(R / e) + 10·log10 3`;
    /// * RMSE targets use the same assumption (`rmse = e/√3` ⇒ `e = √3·rmse`);
    /// * max-error targets *are* the bound, and on an absolute-error codec,
    ///   whose worst error sits just under its bound, the answer: converged;
    /// * SSIM has no closed form — `None`, start at the top.
    ///
    /// [`analytic_seed`]: QualitySearchConfig::analytic_seed
    fn default_hint(&self, compressor: &dyn Compressor, dataset: &Dataset) -> Option<SearchHint> {
        if !self.analytic_seed {
            return None;
        }
        let kind = registry::describe(compressor.name())?.bound_kind;
        let hint = match self.metric {
            _ if !kind.is_pointwise() => return None,
            QualityMetric::PsnrAtLeast(target) => SearchHint::seed(
                uniform_quantization_bound(dataset.value_range(), target)?,
                HintSource::Analytic,
            ),
            QualityMetric::RmseAtMost(target) => {
                SearchHint::seed(3f64.sqrt() * target, HintSource::Analytic)
            }
            QualityMetric::MaxErrorAtMost(target) => SearchHint {
                converged: kind == BoundKind::AbsoluteError,
                ..SearchHint::seed(target, HintSource::Analytic)
            },
            QualityMetric::SsimAtLeast(_) => return None,
        };
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

    /// A [`TOLERANCE`] above the probe: where the walk goes next when the
    /// probe satisfies by under a tolerance's worth of margin, as a good
    /// seed does.
    fn hedge(&self, range: (f64, f64), bound: f64) -> Option<f64> {
        Some(plan(self, range, true).bound_at(to_axis(bound) + TOLERANCE))
    }

    /// The walk of the module docs, from the missed probe when there is one.
    fn search(
        eval: &Evaluator<'_, Self>,
        (lower, upper): (f64, f64),
        probe: Option<(&HintReport, CompressionOutcome)>,
    ) -> Found {
        let config = eval.config();
        let seen = walk(
            &plan(config, (lower, upper), probe.is_some()),
            probe.map(|(_, probe)| probe),
            || eval.answered(),
            |bound, hedge| eval.measure_hedged(bound, hedge),
            |outcome| verdict(config, outcome),
        );

        // The outcome at the largest satisfying position; when nothing
        // satisfied, the smallest bound (the highest fidelity the compressor
        // offers), left to the shell to measure.
        let best = seen.into_iter().filter(|p| p.verdict.ok);
        let best = best
            .max_by(|a, b| a.x.total_cmp(&b.x))
            .and_then(|p| p.outcome);
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::search::tests::{smooth_field, CountingCodec};
    use crate::CancelToken;
    use fraz_data::{synthetic, Dims};
    use fraz_pool::Pool;
    use fraz_pressio::{registry, PressioError};

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
        // The walk's serial cost: on one worker, no hedge adds a call.
        let serial = Arc::new(Pool::new(1));
        let run = |codec: &str, seed: bool, psnr: f64| {
            let config = QualitySearchConfig {
                max_iterations: 20,
                analytic_seed: seed,
                ..QualitySearchConfig::new(QualityMetric::PsnrAtLeast(psnr))
            };
            FixedQualitySearch::new(registry::build_default(codec).unwrap(), config)
                .with_pool(Arc::clone(&serial))
                .run(&d)
        };
        // Every pointwise codec is seeded now, zfp and mgard included.
        for codec in ["sz", "szx", "zfp", "mgard"] {
            let (mut seeded_total, mut cold_total) = (0, 0);
            for psnr in [40.0, 50.0, 60.0, 70.0, 80.0, 90.0] {
                let cold = run(codec, false, psnr);
                let seeded = run(codec, true, psnr);
                assert!(cold.hint.is_none(), "{codec}: cold runs carry no hint");
                assert!(cold.satisfiable, "{codec}");
                let report = seeded
                    .hint
                    .unwrap_or_else(|| panic!("{codec}: a pointwise bound kind is seeded"));
                assert_eq!(report.source, HintSource::Analytic);
                assert!(seeded.satisfiable);
                assert!(seeded.best.quality.as_ref().unwrap().psnr >= psnr);
                // The seed saves evaluations on every search — except on szx,
                // whose quality is a 6 dB staircase: seeded or cold, its walk
                // ends bisecting one step, and which of the two starts that
                // with the luckier bracket varies (here 9 against 8 at 50 dB,
                // 5 against 7 at 70).  There the seed must save over the set.
                assert!(
                    seeded.evaluations < cold.evaluations || codec == "szx",
                    "{codec} at {psnr} dB: seeded {} vs cold {}",
                    seeded.evaluations,
                    cold.evaluations
                );
                seeded_total += seeded.evaluations;
                cold_total += cold.evaluations;
            }
            assert!(
                seeded_total < cold_total,
                "{codec}: seeded {seeded_total} vs cold {cold_total}"
            );
        }
        // A norm over the whole field is not pointwise: cold and unhinted.
        let l2 = run("mgard-l2", true, 60.0);
        assert!(l2.hint.is_none());
        assert!(l2.satisfiable);
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

    /// PSNR in dB as a function of the axis position `log10(bound)`.
    type Shape = fn(f64) -> f64;

    /// [`CountingCodec`] with its quality bent into a shape a secant trips
    /// over: the reconstruction is off by whatever amplitude makes the PSNR
    /// at axis position `x` equal `psnr(x)` (`+∞`: lossless).  Optionally
    /// refuses every second bound it is asked for.
    struct Shaped {
        inner: CountingCodec,
        psnr: Shape,
        refuses_every_second: bool,
    }

    impl Shaped {
        fn new(psnr: Shape, refuses_every_second: bool) -> Arc<Self> {
            Arc::new(Self {
                inner: CountingCodec::new(smooth_field()),
                psnr,
                refuses_every_second,
            })
        }
    }

    impl Compressor for Shaped {
        fn name(&self) -> &str {
            "shaped"
        }
        fn supports_dims(&self, _dims: &Dims) -> bool {
            true
        }
        fn bound_range(&self, dataset: &Dataset) -> (f64, f64) {
            self.inner.bound_range(dataset)
        }
        fn compress(&self, dataset: &Dataset, bound: f64) -> Result<Vec<u8>, PressioError> {
            // Counted (and the token fired) whether or not it is refused.
            let blob = self.inner.compress(dataset, bound)?;
            if self.refuses_every_second && self.inner.calls() % 2 == 0 {
                return Err(PressioError::InvalidBound(format!("{bound}")));
            }
            Ok(blob)
        }
        fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
            let original = smooth_field();
            let bound = f64::from_le_bytes(data[..8].try_into().unwrap());
            let psnr = (self.psnr)(bound.log10());
            let off = (original.value_range() / 10f64.powf(psnr / 20.0)) as f32;
            let values = original.buffer.to_f32_vec();
            let shifted = values
                .iter()
                .enumerate()
                .map(|(i, v)| if i % 2 == 0 { v + off } else { v - off })
                .collect();
            Ok(Dataset::from_f32(
                "test",
                "smooth",
                0,
                original.dims.clone(),
                shifted,
            ))
        }
    }

    /// The shapes, each over `CountingCodec`'s six decades (`x` from −6 to 0):
    /// 6 dB steps; a ±1.5 dB saw-tooth on the −20 dB/decade line; slopes of −8
    /// and −45 dB/decade; lossless below 1e-3.  None but the last climbs past
    /// 120 dB, where an `f32` field stops telling a small error from none.
    const SHAPES: [(&str, Shape); 5] = [
        ("staircase", |x| {
            30.0 + 6.0 * (-20.0 * x.max(-4.5) / 6.0).floor()
        }),
        ("noisy", |x| {
            30.0 - 20.0 * x.max(-4.4) + 1.5 * (2.0 * (-37.0 * x).fract() - 1.0)
        }),
        ("shallow", |x| 30.0 - 8.0 * x),
        ("steep", |x| 30.0 - 45.0 * x.max(-2.0)),
        ("plateau", |x| {
            if x < -3.0 {
                f64::INFINITY
            } else {
                30.0 - 20.0 * x
            }
        }),
    ];

    /// Where a dense sweep of the shape puts the answer to `psnr ≥ target`:
    /// the first violating and the last satisfying position of 6001.
    fn swept(psnr: Shape, target: f64) -> (Option<f64>, Option<f64>) {
        let xs = (0..=6000).map(|i| -6.0 + i as f64 / 1000.0);
        let first_bad = xs.clone().find(|&x| psnr(x) < target);
        let last_ok = xs.rev().find(|&x| psnr(x) >= target);
        (first_bad, last_ok)
    }

    fn walk_on(
        codec: &Arc<Shaped>,
        target: f64,
        hint: Option<&SearchHint>,
        pool: &Arc<Pool>,
        token: Option<CancelToken>,
    ) -> QualitySearchOutcome {
        let config = QualitySearchConfig::new(QualityMetric::PsnrAtLeast(target));
        let search = FixedQualitySearch::new(codec.clone() as Arc<dyn Compressor>, config)
            .with_pool(Arc::clone(pool));
        match token {
            Some(token) => search.with_cancel(token),
            None => search,
        }
        .run_with_hint(&smooth_field(), hint)
    }

    /// What bisection costs over the six decades, plus the shell's two: its
    /// probe, and its measurement of the lowest bound when nothing satisfied.
    fn bisection_cap(hint: Option<&SearchHint>, outcome: &QualitySearchOutcome) -> usize {
        let halvings = (6.0 / TOLERANCE).log2().ceil() as usize;
        2 + halvings + hint.is_some() as usize + !outcome.satisfiable as usize
    }

    #[test]
    fn the_walk_is_safeguarded_on_shapes_built_to_break_a_secant() {
        let pools = [Arc::new(Pool::new(1)), Arc::new(Pool::new(2))];
        for (shape, psnr) in SHAPES {
            // (Targets off the staircase's levels: measured in `f32`, a level
            // sits a rounding error under itself.)
            for target in [45.0, 58.0, 100.0, 400.0] {
                let (first_bad, last_ok) = swept(psnr, target);
                // Cold, from a seed on either side, and from a seed a hair off.
                let far = SearchHint::seed(3e-6, HintSource::External);
                let near = last_ok.map(|x| SearchHint::seed(10f64.powf(x + 0.01), far.source));
                let hints = [
                    None,
                    Some(far),
                    Some(SearchHint::seed(0.5, HintSource::External)),
                    near,
                ];
                for hint in hints.iter().map(Option::as_ref) {
                    let what = format!("{shape} ≥ {target} dB from {:?}", hint.map(|h| h.bound));
                    let codec = Shaped::new(psnr, false);
                    let outcome = walk_on(&codec, target, hint, &pools[0], None);
                    assert_eq!(outcome.evaluations, codec.inner.calls(), "{what}");
                    assert!(
                        outcome.evaluations <= bisection_cap(hint, &outcome),
                        "{what}: {} evaluations",
                        outcome.evaluations
                    );
                    // Verdict and answer agree with the sweep: satisfying,
                    // no more than a tolerance under the first violating
                    // position (the noisy shape's sits under its last
                    // satisfying one) and never above the last satisfying.
                    assert_eq!(outcome.satisfiable, last_ok.is_some(), "{what}");
                    let x = outcome.error_bound.log10();
                    match (first_bad, last_ok) {
                        (_, None) => assert_eq!(outcome.error_bound, CountingCodec::LO, "{what}"),
                        (first_bad, Some(last_ok)) => {
                            // (To `f32` rounding: the shape is applied in `f32`.)
                            assert!(psnr(x) >= target - 1e-3, "{what}: {} dB", psnr(x));
                            let boundary = first_bad.unwrap_or(0.0);
                            assert!(
                                x >= boundary - TOLERANCE - 2e-3 && x <= last_ok + 1e-3,
                                "{what}: answer at {x}, boundary {boundary}..{last_ok}"
                            );
                        }
                    }
                    // A second worker changes nothing.
                    let again = walk_on(&Shaped::new(psnr, false), target, hint, &pools[1], None);
                    assert_eq!(again.error_bound, outcome.error_bound, "{what}");
                    assert_eq!(again.satisfiable, outcome.satisfiable, "{what}");

                    // A token fired during any call stops the walk within
                    // one more, every call counted.
                    for fire_at in 0..outcome.evaluations {
                        let codec = Shaped::new(psnr, false);
                        let token = codec.inner.token_fired_during(fire_at);
                        let stopped = walk_on(&codec, target, hint, &pools[0], Some(token));
                        assert!(stopped.deadline_hit, "{what} @ {fire_at}");
                        assert_eq!(
                            stopped.evaluations,
                            codec.inner.calls(),
                            "{what} @ {fire_at}"
                        );
                        assert!(codec.inner.calls() <= fire_at + 1, "{what} @ {fire_at}");
                        assert!(
                            !stopped.satisfiable
                                || psnr(stopped.error_bound.log10()) >= target - 1e-3
                        );
                    }
                }
            }
        }
    }

    /// [`Shaped`] taking `DELAY` per compression, and counting the most it
    /// was asked for at once.
    struct Slow {
        shaped: Arc<Shaped>,
        in_flight: AtomicUsize,
        peak: AtomicUsize,
    }

    impl Slow {
        const DELAY: Duration = Duration::from_millis(100);
    }

    impl Compressor for Slow {
        fn name(&self) -> &str {
            "slow"
        }
        fn supports_dims(&self, _dims: &Dims) -> bool {
            true
        }
        fn bound_range(&self, dataset: &Dataset) -> (f64, f64) {
            self.shaped.bound_range(dataset)
        }
        fn compress(&self, dataset: &Dataset, bound: f64) -> Result<Vec<u8>, PressioError> {
            let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Self::DELAY);
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            self.shaped.compress(dataset, bound)
        }
        fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
            self.shaped.decompress(data)
        }
    }

    #[test]
    fn a_hedge_runs_beside_the_probe_and_answers_the_walks_next_step() {
        // −20 dB per decade, and a seed that satisfies 50 dB by 0.4 dB: the
        // walk's next position is a tolerance above the seed — where the
        // hedge went — and violates, so the bracket closes in one round.
        let line: Shape = |x| 30.0 - 20.0 * x;
        let seed = SearchHint::seed(10f64.powf(-20.4 / 20.0), HintSource::External);
        let at = from_axis(to_axis(seed.bound));
        for workers in [1, 2] {
            let codec = Arc::new(Slow {
                shaped: Shaped::new(line, false),
                in_flight: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
            });
            let config = QualitySearchConfig::new(QualityMetric::PsnrAtLeast(50.0));
            let outcome = FixedQualitySearch::new(codec.clone() as Arc<dyn Compressor>, config)
                .with_pool(Arc::new(Pool::new(workers)))
                .run_with_hint(&smooth_field(), Some(&seed));
            assert!(outcome.satisfiable, "{workers} workers");
            assert_eq!(outcome.error_bound, at, "{workers} workers");
            // The probe and the step above it, made one after the other on
            // one worker and side by side on two.
            assert_eq!(outcome.evaluations, 2, "{workers} workers");
            assert_eq!(codec.shaped.inner.calls(), 2, "{workers} workers");
            assert_eq!(
                codec.peak.load(Ordering::SeqCst),
                workers,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn a_refused_bound_counts_against_the_constraint_not_against_the_budget() {
        // Every second call refused: the walk treats a refusal as a violating
        // position, so it still ends inside bisection's budget on an answer
        // that satisfies — under the boundary, though not within a tolerance
        // of it — and with the verdict a codec that refuses nothing gets.
        let pool = Arc::new(Pool::new(1));
        let line: Shape = |x| 30.0 - 20.0 * x.max(-4.5);
        for target in [45.0, 60.0, 100.0, 400.0] {
            let (_, last_ok) = swept(line, target);
            let seed = SearchHint::seed(3e-6, HintSource::External);
            for hint in [None, Some(&seed)] {
                let what = format!("≥ {target} dB from {:?}", hint.map(|h| h.bound));
                let codec = Shaped::new(line, true);
                let outcome = walk_on(&codec, target, hint, &pool, None);
                assert_eq!(outcome.evaluations, codec.inner.calls(), "{what}");
                assert!(
                    outcome.evaluations <= bisection_cap(hint, &outcome),
                    "{what}"
                );
                assert_eq!(outcome.satisfiable, last_ok.is_some(), "{what}");
                if let Some(last_ok) = last_ok {
                    let x = outcome.error_bound.log10();
                    assert!(
                        line(x) >= target - 1e-3 && x <= last_ok + 1e-3,
                        "{what}: {x}"
                    );
                }
            }
        }
    }
}
