//! Search seeding: one first-class abstraction for "try this bound first".
//!
//! Every warm start — the orchestrator's previous time-step bound, the store
//! writer's last converged chunk bound, a tuning-cache entry — speaks
//! [`SearchHint`]: a candidate bound with provenance (and optionally a
//! bracket that narrows the fallback search).
//! A [`BoundPredictor`] installed with
//! [`Search::with_predictor`](crate::Search::with_predictor) produces the
//! hint [`Search::run`](crate::Search::run) tries first;
//! [`Search::run_with_hint`](crate::Search::run_with_hint) takes one
//! explicitly.  Either way the shell clamps the bound into its `U`-clipped
//! range before probing it — no hint, whatever its source, can take a
//! search above the error ceiling — records whether it landed in a
//! [`HintReport`], and [`BoundPredictor::observe`] closes the loop so a
//! predictor can learn from every run (the persistent tuning cache in
//! `fraz-tune` is one such predictor; [`LastConverged`] is the in-process
//! one).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use fraz_data::Dataset;

/// Where a [`SearchHint`] came from.  Provenance is carried through to the
/// [`HintReport`] so telemetry can distinguish "the previous time-step's
/// answer landed" from "the tuning cache landed".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HintSource {
    /// The previous time-step of the same field (Algorithm 3's prediction).
    PreviousStep,
    /// The most recently converged chunk of the same store write.
    WarmStart,
    /// The closed-form uniform-quantisation PSNR↔bound model.
    Analytic,
    /// The persistent cross-run tuning cache (`fraz-tune`).
    TuneCache,
    /// A caller-supplied bound with no further provenance.
    External,
}

impl fmt::Display for HintSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HintSource::PreviousStep => "previous-step",
            HintSource::WarmStart => "warm-start",
            HintSource::Analytic => "analytic",
            HintSource::TuneCache => "tune-cache",
            HintSource::External => "external",
        })
    }
}

/// A candidate error bound to try before (or instead of) a full search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHint {
    /// The candidate bound.
    pub bound: f64,
    /// Optional bracket `(lo, hi)` believed to contain the answer; when the
    /// probe misses, the fallback search is narrowed to this range (clipped
    /// to the compressor's valid range) instead of re-bracketing the whole
    /// axis.
    pub bracket: Option<(f64, f64)>,
    /// Provenance of the hint.
    pub source: HintSource,
    /// True when the bound is a previously *converged* answer (cache entry,
    /// previous step, warm start) rather than a model's first guess.  A
    /// converged hint that verifies is accepted outright; a non-converged
    /// seed still anchors a local refinement around it.
    pub converged: bool,
}

impl SearchHint {
    /// A converged hint (a previously accepted answer) from `source`.
    pub fn converged(bound: f64, source: HintSource) -> Self {
        Self {
            bound,
            bracket: None,
            source,
            converged: true,
        }
    }

    /// A non-converged seed (a model's first guess) from `source`.
    pub fn seed(bound: f64, source: HintSource) -> Self {
        Self {
            bound,
            bracket: None,
            source,
            converged: false,
        }
    }

    /// Attach a bracket believed to contain the answer (builder style).
    pub fn with_bracket(mut self, lo: f64, hi: f64) -> Self {
        if lo.is_finite() && hi.is_finite() && lo > 0.0 && hi > lo {
            self.bracket = Some((lo, hi));
        }
        self
    }

    /// True when the candidate bound is usable at all.
    pub fn is_valid(&self) -> bool {
        self.bound.is_finite() && self.bound > 0.0
    }
}

/// What the search did with its hint — attached to
/// [`SearchOutcome`](crate::SearchOutcome) and
/// [`QualitySearchOutcome`](crate::QualitySearchOutcome).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HintReport {
    /// Provenance of the hint that was tried.
    pub source: HintSource,
    /// The hinted bound, clamped into the search's range: where the probe
    /// was made (at the nearest point of the strategy's axis, for one that
    /// walks a transformed axis).
    pub bound: f64,
    /// True when the probe satisfied the objective and the search stopped
    /// there (no fallback training ran).
    pub hit: bool,
    /// Compressor invocations spent on the probe (included in the outcome's
    /// `evaluations`): 1, or 0 when the cancel token had already fired.
    pub probes: usize,
}

/// What a search is optimizing for, in predictor-readable form.  The display
/// form is canonical (used verbatim in tuning-cache keys), so two searches
/// with the same objective always produce the same string.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HintTarget {
    /// Fixed-ratio search: `target_ratio` within relative `tolerance`.
    Ratio {
        /// Target compression ratio `ρt`.
        target_ratio: f64,
        /// Acceptable relative deviation `ε`.
        tolerance: f64,
    },
    /// Quality search: PSNR at least this many dB.
    MinPsnr(f64),
    /// Quality search: SSIM at least this value.
    MinSsim(f64),
    /// Quality search: RMSE at most this value.
    MaxRmse(f64),
    /// Quality search: pointwise error at most this value.
    MaxError(f64),
}

impl fmt::Display for HintTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            HintTarget::Ratio {
                target_ratio,
                tolerance,
            } => write!(f, "ratio:{target_ratio:.6e}:{tolerance:.6e}"),
            HintTarget::MinPsnr(t) => write!(f, "psnr:{t:.6e}"),
            HintTarget::MinSsim(t) => write!(f, "ssim:{t:.6e}"),
            HintTarget::MaxRmse(t) => write!(f, "rmse:{t:.6e}"),
            HintTarget::MaxError(t) => write!(f, "maxerr:{t:.6e}"),
        }
    }
}

/// Everything a predictor may consult to produce a hint for one search.
pub struct HintQuery<'a> {
    /// The dataset about to be searched.
    pub dataset: &'a Dataset,
    /// Registry name of the compressor.
    pub codec: &'a str,
    /// Canonical signature of the codec options (empty for defaults); see
    /// `fraz_pressio::Options::signature`.
    pub codec_config: &'a str,
    /// The search objective.
    pub target: HintTarget,
}

/// A source of search hints that also learns from search results.
///
/// `predict` runs *before* a search and may return a hint; `observe` runs
/// *after* it with the converged bound and whether the objective was met, so
/// stateful predictors (the warm-start slot, the tuning cache) can update.
/// Both take `&self`: one predictor instance is shared across the parallel
/// chunk/field tasks of a run.
pub trait BoundPredictor: Send + Sync {
    /// Propose a hint for the given search, or `None` to search cold.
    fn predict(&self, query: &HintQuery<'_>) -> Option<SearchHint>;

    /// Record a finished search: the bound it settled on and whether the
    /// objective was met.  The default does nothing (stateless predictors).
    fn observe(&self, query: &HintQuery<'_>, bound: f64, hit: bool) {
        let _ = (query, bound, hit);
    }
}

/// The in-process "last converged bound" predictor — the common core of the
/// orchestrator's previous-step prediction and the store writer's per-write
/// warm start.  Stores the most recently observed *successful* bound in an
/// atomic (bounds are always > 0, so the zero bit pattern means "none yet")
/// and proposes it, as a converged hint, for every subsequent search.
pub struct LastConverged {
    bits: AtomicU64,
    source: HintSource,
}

impl LastConverged {
    /// An empty slot whose hints will carry `source`.
    pub fn new(source: HintSource) -> Self {
        Self {
            bits: AtomicU64::new(0),
            source,
        }
    }

    /// The currently remembered bound, if any search has converged yet.
    pub fn bound(&self) -> Option<f64> {
        match self.bits.load(Ordering::Relaxed) {
            0 => None,
            bits => Some(f64::from_bits(bits)),
        }
    }

    /// Seed the slot directly with a bound known to meet the objective.
    pub fn store(&self, bound: f64) {
        if bound.is_finite() && bound > 0.0 {
            self.bits.store(bound.to_bits(), Ordering::Relaxed);
        }
    }
}

impl BoundPredictor for LastConverged {
    fn predict(&self, _query: &HintQuery<'_>) -> Option<SearchHint> {
        self.bound().map(|b| SearchHint::converged(b, self.source))
    }

    fn observe(&self, _query: &HintQuery<'_>, bound: f64, hit: bool) {
        // Only propagate bounds that actually met the objective
        // (Algorithm 3 lines 5-7: `p <- e` only on success).
        if hit {
            self.store(bound);
        }
    }
}

/// Ask several predictors in order: the first hint wins, every predictor
/// observes.  The orchestrator and the store writer chain an externally
/// installed predictor (e.g. the tuning cache, keyed by each search's own
/// data) in front of their in-run [`LastConverged`] slot, so a step or
/// chunk the cache knows starts at its own remembered bound, the rest at
/// the previous converged one, and the cache learns every converged bound
/// for the *next* run.
pub struct PredictorChain {
    predictors: Vec<Arc<dyn BoundPredictor>>,
}

impl PredictorChain {
    /// A chain asking `predictors` in the given order.
    pub fn new(predictors: Vec<Arc<dyn BoundPredictor>>) -> Self {
        Self { predictors }
    }
}

impl BoundPredictor for PredictorChain {
    fn predict(&self, query: &HintQuery<'_>) -> Option<SearchHint> {
        self.predictors.iter().find_map(|p| p.predict(query))
    }

    fn observe(&self, query: &HintQuery<'_>, bound: f64, hit: bool) {
        for p in &self.predictors {
            p.observe(query, bound, hit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fraz_data::Dims;

    fn dataset() -> Dataset {
        Dataset::from_f32("app", "f", 0, Dims::d1(4), vec![0.0, 1.0, 2.0, 3.0])
    }

    fn query(dataset: &Dataset) -> HintQuery<'_> {
        HintQuery {
            dataset,
            codec: "sz",
            codec_config: "",
            target: HintTarget::Ratio {
                target_ratio: 10.0,
                tolerance: 0.1,
            },
        }
    }

    #[test]
    fn hint_constructors_and_validity() {
        let h = SearchHint::converged(1e-3, HintSource::TuneCache);
        assert!(h.converged && h.is_valid() && h.bracket.is_none());
        let s = SearchHint::seed(1e-3, HintSource::Analytic).with_bracket(1e-4, 1e-2);
        assert!(!s.converged);
        assert_eq!(s.bracket, Some((1e-4, 1e-2)));
        // Degenerate brackets are dropped, not stored.
        assert!(SearchHint::seed(1.0, HintSource::External)
            .with_bracket(2.0, 1.0)
            .bracket
            .is_none());
        assert!(!SearchHint::seed(f64::NAN, HintSource::External).is_valid());
        assert!(!SearchHint::seed(0.0, HintSource::External).is_valid());
    }

    #[test]
    fn target_display_is_canonical() {
        let a = HintTarget::Ratio {
            target_ratio: 10.0,
            tolerance: 0.1,
        };
        assert_eq!(a.to_string(), "ratio:1.000000e1:1.000000e-1");
        assert_eq!(HintTarget::MinPsnr(60.0).to_string(), "psnr:6.000000e1");
        // Same objective, same string — the tuning-cache key depends on it.
        let b = HintTarget::Ratio {
            target_ratio: 10.0,
            tolerance: 0.1,
        };
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn last_converged_learns_only_from_hits() {
        let d = dataset();
        let q = query(&d);
        let slot = LastConverged::new(HintSource::WarmStart);
        assert!(slot.predict(&q).is_none());
        slot.observe(&q, 2e-3, false);
        assert!(slot.predict(&q).is_none(), "misses must not be stored");
        slot.observe(&q, 2e-3, true);
        let hint = slot.predict(&q).unwrap();
        assert_eq!(hint.bound, 2e-3);
        assert_eq!(hint.source, HintSource::WarmStart);
        assert!(hint.converged);
    }

    #[test]
    fn chain_takes_first_hint_and_fans_out_observations() {
        let d = dataset();
        let q = query(&d);
        let a = Arc::new(LastConverged::new(HintSource::PreviousStep));
        let b = Arc::new(LastConverged::new(HintSource::TuneCache));
        b.store(5e-4);
        let chain = PredictorChain::new(vec![a.clone(), b.clone()]);
        // `a` is empty, so `b`'s hint surfaces.
        assert_eq!(chain.predict(&q).unwrap().source, HintSource::TuneCache);
        // Once `a` converges it shadows `b` on predict, but both observe.
        chain.observe(&q, 3e-4, true);
        assert_eq!(a.bound(), Some(3e-4));
        assert_eq!(b.bound(), Some(3e-4));
        assert_eq!(chain.predict(&q).unwrap().source, HintSource::PreviousStep);
        // An empty chain proposes nothing and swallows observations.
        assert!(PredictorChain::new(Vec::new()).predict(&q).is_none());
    }
}
