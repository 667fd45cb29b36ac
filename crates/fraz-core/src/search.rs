//! The one search shell: everything a FRaZ search needs that does *not*
//! depend on what is being optimised.
//!
//! The paper has one algorithm — minimise a loss over one scalar error
//! bound, probing a prediction first (Algorithm 1).  What varies is the
//! [`Objective`]: the fixed-ratio region race ([`crate::ratio`], Algorithms
//! 1–2) and the fixed-quality bracket-and-bisect ([`crate::quality`]) are
//! the two implementations.  [`Search`] owns the rest exactly once — the
//! compressor handle, pool, cancel token, codec-config signature and the
//! optional [`BoundPredictor`], the `U`-clipped bound range, the hint
//! bracket narrowing, and the two entry points [`Search::run`] and
//! [`Search::run_with_hint`].

use std::sync::Arc;

use fraz_data::Dataset;
use fraz_pool::Pool;
use fraz_pressio::{CompressionOutcome, Compressor};

use crate::cancel::CancelToken;
use crate::hint::{BoundPredictor, HintQuery, HintTarget, SearchHint};
use crate::ratio::SearchOutcome;

/// What a [`Search`] optimises: a target, its acceptance test and the
/// algorithm that walks the error-bound axis towards it.  Implemented by the
/// two config types, [`SearchConfig`](crate::SearchConfig) (fixed ratio) and
/// [`QualitySearchConfig`](crate::QualitySearchConfig) (fixed quality); a new
/// metric is one more implementation, not another engine.
pub trait Objective: Sized + Send + Sync {
    /// What a finished search reports; convertible into the common
    /// [`SearchOutcome`] shape the orchestrator, store and service report.
    type Outcome: Into<SearchOutcome>;

    /// This objective in predictor-readable form.
    fn hint_target(&self) -> HintTarget;

    /// The user's error ceiling `U`, if any.
    fn max_error_bound(&self) -> Option<f64>;

    /// The objective's own first guess, tried by [`Search::run`] when no
    /// predictor supplies a usable hint (the closed-form PSNR seed for
    /// quality targets; nothing for ratio targets).
    fn default_hint(&self, _compressor: &dyn Compressor, _dataset: &Dataset) -> Option<SearchHint> {
        None
    }

    /// The algorithm: probe `hint` (already validated by the shell), then
    /// search `shell`'s range for `dataset`.
    fn search(shell: &Search<Self>, dataset: &Dataset, hint: Option<&SearchHint>) -> Self::Outcome;

    /// `(error bound, objective met)` of a finished search — what a
    /// [`BoundPredictor`] observes.
    fn settled(outcome: &Self::Outcome) -> (f64, bool);
}

/// A FRaZ search of one [`Objective`] over one compressor.
/// [`FixedRatioSearch`](crate::FixedRatioSearch) and
/// [`FixedQualitySearch`](crate::FixedQualitySearch) are its two
/// instantiations.
pub struct Search<O: Objective> {
    compressor: Arc<dyn Compressor>,
    config: O,
    pool: Option<Arc<Pool>>,
    codec_config: String,
    cancel: Option<CancelToken>,
    predictor: Option<Arc<dyn BoundPredictor>>,
}

impl<O: Objective> Search<O> {
    /// Create a search driver over the given compressor backend.
    ///
    /// Accepts either an owned `Box<dyn Compressor>` (e.g. fresh from
    /// `registry::build`) or a shared `Arc<dyn Compressor>` handle, so one
    /// backend instance can serve several searches concurrently.
    ///
    /// Search tasks run on the process-wide [`fraz_pool::global`] pool
    /// unless [`Search::with_pool`] installs a dedicated one; no call to
    /// [`Search::run`] ever spawns an OS thread.
    pub fn new(compressor: impl Into<Arc<dyn Compressor>>, config: O) -> Self {
        Self {
            compressor: compressor.into(),
            config,
            pool: None,
            codec_config: String::new(),
            cancel: None,
            predictor: None,
        }
    }

    /// Cooperatively stop the search when `token` fires (deadline passed or
    /// explicit cancel).  Checked between compressor evaluations only — a
    /// single evaluation is the atom of work — so the outcome after a fired
    /// token is the best-so-far answer with `deadline_hit: true`.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Run this search's tasks on `pool` instead of the global pool.  The
    /// orchestrator uses this to put every field's tasks on its single
    /// shared pool.
    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Record the canonical codec-options signature
    /// (`fraz_pressio::Options::signature`) so predictors keying on
    /// (codec + options) see the configuration this search actually runs
    /// with.  Defaults to the empty string (default options).
    pub fn with_codec_config(mut self, codec_config: impl Into<String>) -> Self {
        self.codec_config = codec_config.into();
        self
    }

    /// Install the [`BoundPredictor`] that [`Search::run`] consults before
    /// searching and that every search teaches afterwards (`None` searches
    /// unseeded).
    pub fn with_predictor(mut self, predictor: Option<Arc<dyn BoundPredictor>>) -> Self {
        self.predictor = predictor;
        self
    }

    /// Borrow the underlying compressor.
    pub fn compressor(&self) -> &dyn Compressor {
        self.compressor.as_ref()
    }

    /// Borrow the objective's configuration.
    pub fn config(&self) -> &O {
        &self.config
    }

    /// The pool this search's tasks run on.
    pub fn pool(&self) -> &Pool {
        self.pool.as_deref().unwrap_or_else(|| fraz_pool::global())
    }

    /// True once the installed [`CancelToken`] has fired.
    pub fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }

    /// The `(lower, upper)` error-bound range the search may use for this
    /// dataset: the compressor's valid range clipped to the objective's
    /// error ceiling `U`.
    pub fn bound_range(&self, dataset: &Dataset) -> (f64, f64) {
        let (lower, mut upper) = self.compressor.bound_range(dataset);
        if let Some(u) = self.config.max_error_bound() {
            if u > lower {
                upper = upper.min(u);
            }
        }
        (lower, upper.max(lower * (1.0 + 1e-9)))
    }

    /// `bound` clamped into [`Search::bound_range`].
    pub fn clamp_bound(&self, bound: f64, dataset: &Dataset) -> f64 {
        let (lower, upper) = self.bound_range(dataset);
        bound.clamp(lower, upper)
    }

    /// [`Search::bound_range`] narrowed to the hint's bracket, when it
    /// carries one that overlaps the range.
    pub fn searched_range(&self, dataset: &Dataset, hint: Option<&SearchHint>) -> (f64, f64) {
        let (lower, upper) = self.bound_range(dataset);
        if let Some((blo, bhi)) = hint.and_then(|h| h.bracket) {
            let (nlo, nhi) = (lower.max(blo), upper.min(bhi));
            if nlo < nhi {
                return (nlo, nhi);
            }
        }
        (lower, upper)
    }

    /// Measure `bound`, substituting an all-zero outcome when the compressor
    /// rejects it, so a search can always report *something* at its
    /// best-effort bound.
    pub fn measure_or_zero(
        &self,
        dataset: &Dataset,
        bound: f64,
        measure_quality: bool,
    ) -> CompressionOutcome {
        self.compressor
            .evaluate(dataset, bound, measure_quality)
            .unwrap_or(CompressionOutcome {
                compressor: self.compressor.name().to_string(),
                error_bound: bound,
                compression_ratio: 0.0,
                bit_rate: 0.0,
                compressed_bytes: 0,
                original_bytes: dataset.byte_size(),
                quality: None,
            })
    }

    /// The [`HintQuery`] a [`BoundPredictor`] is consulted with for this
    /// search on `dataset`.
    pub fn hint_query<'a>(&'a self, dataset: &'a Dataset) -> HintQuery<'a> {
        HintQuery {
            dataset,
            codec: self.compressor.name(),
            codec_config: &self.codec_config,
            target: self.config.hint_target(),
        }
    }

    /// Search `dataset`: ask the installed predictor for a hint, falling
    /// back to the objective's own first guess when it has none.
    pub fn run(&self, dataset: &Dataset) -> O::Outcome {
        let hint = self
            .predictor
            .as_ref()
            .and_then(|p| p.predict(&self.hint_query(dataset)))
            .filter(SearchHint::is_valid)
            .or_else(|| self.config.default_hint(self.compressor(), dataset));
        self.run_with_hint(dataset, hint.as_ref())
    }

    /// Algorithm 1 with an explicit hint (cold when `None` or unusable):
    /// probe the hinted bound first and fall back to the objective's full
    /// search — narrowed to the hint's bracket, if it carries one — when the
    /// probe misses.  The installed predictor is not consulted, but the
    /// result is reported back to it via [`BoundPredictor::observe`], so it
    /// learns from every search through this shell.
    pub fn run_with_hint(&self, dataset: &Dataset, hint: Option<&SearchHint>) -> O::Outcome {
        let outcome = O::search(self, dataset, hint.filter(|h| h.is_valid()));
        if let Some(predictor) = &self.predictor {
            let (bound, met) = O::settled(&outcome);
            predictor.observe(&self.hint_query(dataset), bound, met);
        }
        outcome
    }
}

/// Shell behaviour every [`Objective`] inherits, checked once and run for
/// both: hints change a search's speed and never its answer, a predictor
/// learns and is reused, `evaluations` is the exact compressor-call count,
/// and a fired [`CancelToken`] yields a consistent best-so-far.
#[cfg(test)]
pub(crate) mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    use fraz_data::Dims;
    use fraz_pressio::PressioError;

    use super::*;
    use crate::hint::{HintReport, HintSource, LastConverged};
    use crate::{
        QualityMetric, QualitySearchConfig, QualitySearchOutcome, SearchConfig, SearchOutcome,
    };

    pub(crate) fn smooth_field() -> Dataset {
        let (nz, ny, nx) = (8usize, 20usize, 20usize);
        let mut values = Vec::with_capacity(nz * ny * nx);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    values.push(
                        ((x as f32 * 0.31).sin() + (y as f32 * 0.17).cos()) * 5.0
                            + (z as f32 * 0.41).sin() * 2.0,
                    );
                }
            }
        }
        Dataset::from_f32("test", "smooth", 0, Dims::d3(nz, ny, nx), values)
    }

    /// A deterministic codec whose ratio is a known monotone function of the
    /// bound and whose reconstruction is off by exactly the bound
    /// everywhere (so PSNR is `20·log10(range / bound)`), counting every
    /// `compress` call — the ground truth against which `evaluations`
    /// accounting is pinned exactly.  Optionally fires a [`CancelToken`]
    /// during its n-th call.
    pub(crate) struct CountingCodec {
        calls: AtomicUsize,
        original: Dataset,
        cancel_at: Mutex<Option<(usize, CancelToken)>>,
    }

    impl CountingCodec {
        pub(crate) const LO: f64 = 1e-6;
        pub(crate) const HI: f64 = 1.0;

        pub(crate) fn new(original: Dataset) -> Self {
            Self {
                calls: AtomicUsize::new(0),
                original,
                cancel_at: Mutex::new(None),
            }
        }

        pub(crate) fn calls(&self) -> usize {
            self.calls.load(Ordering::Relaxed)
        }

        fn ratio_at(bound: f64) -> f64 {
            1.0 + 99.0 * ((bound / Self::LO).ln() / (Self::HI / Self::LO).ln())
        }

        /// The bound at which [`CountingCodec::ratio_at`] equals `ratio`.
        pub(crate) fn bound_for(ratio: f64) -> f64 {
            Self::LO * (((ratio - 1.0) / 99.0) * (Self::HI / Self::LO).ln()).exp()
        }
    }

    impl Compressor for CountingCodec {
        fn name(&self) -> &str {
            "counting"
        }
        fn supports_dims(&self, _dims: &Dims) -> bool {
            true
        }
        fn bound_range(&self, _dataset: &Dataset) -> (f64, f64) {
            (Self::LO, Self::HI)
        }
        fn compress(&self, dataset: &Dataset, bound: f64) -> Result<Vec<u8>, PressioError> {
            let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some((at, token)) = &*self.cancel_at.lock().unwrap() {
                if call == *at {
                    token.cancel();
                }
            }
            let bytes = (dataset.byte_size() as f64 / Self::ratio_at(bound)).ceil() as usize;
            let mut blob = vec![0u8; bytes.max(8)];
            blob[..8].copy_from_slice(&bound.to_le_bytes());
            Ok(blob)
        }
        fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
            let bound = f64::from_le_bytes(data[..8].try_into().unwrap()) as f32;
            let values = self.original.buffer.to_f32_vec();
            let shifted = values
                .iter()
                .enumerate()
                .map(|(i, v)| if i % 2 == 0 { v + bound } else { v - bound })
                .collect();
            Ok(Dataset::from_f32(
                "test",
                "smooth",
                0,
                self.original.dims.clone(),
                shifted,
            ))
        }
    }

    /// What the shared checks read off either outcome type.
    trait Verdict {
        fn met(&self) -> bool;
        fn bound(&self) -> f64;
        fn best(&self) -> &CompressionOutcome;
        fn evaluations(&self) -> usize;
        fn deadline_hit(&self) -> bool;
        fn hint(&self) -> Option<&HintReport>;
    }

    macro_rules! verdict {
        ($outcome:ty, $met:ident) => {
            impl Verdict for $outcome {
                fn met(&self) -> bool {
                    self.$met
                }
                fn bound(&self) -> f64 {
                    self.error_bound
                }
                fn best(&self) -> &CompressionOutcome {
                    &self.best
                }
                fn evaluations(&self) -> usize {
                    self.evaluations
                }
                fn deadline_hit(&self) -> bool {
                    self.deadline_hit
                }
                fn hint(&self) -> Option<&HintReport> {
                    self.hint.as_ref()
                }
            }
        };
    }
    verdict!(SearchOutcome, feasible);
    verdict!(QualitySearchOutcome, satisfiable);

    /// One objective under test: its config and what "in tolerance" means.
    struct Case<O> {
        name: &'static str,
        config: O,
        in_tolerance: fn(&O, &CompressionOutcome) -> bool,
    }

    impl<O: Objective + Clone> Case<O> {
        /// A fresh search on a one-worker pool, so even the quality sweep
        /// makes its compressor calls one at a time, in a fixed order.
        fn search(&self) -> (Search<O>, Arc<CountingCodec>) {
            static SERIAL: OnceLock<Arc<Pool>> = OnceLock::new();
            let pool = SERIAL.get_or_init(|| Arc::new(Pool::new(1)));
            let codec = Arc::new(CountingCodec::new(smooth_field()));
            let search = Search::new(codec.clone() as Arc<dyn Compressor>, self.config.clone())
                .with_pool(Arc::clone(pool));
            (search, codec)
        }
    }

    /// A serial (deterministic) ratio search for `target` ± 10 %.
    pub(crate) fn ratio_config(target: f64) -> SearchConfig {
        SearchConfig {
            regions: 4,
            max_iterations: 16,
            threads: 1,
            measure_final_quality: false,
            ..SearchConfig::new(target, 0.1)
        }
    }

    fn ratio_case(target: f64) -> Case<SearchConfig> {
        Case {
            name: "ratio",
            config: ratio_config(target),
            in_tolerance: |c, o| {
                (o.compression_ratio - c.target_ratio).abs() <= c.tolerance * c.target_ratio + 1e-9
            },
        }
    }

    fn psnr_case(target: f64) -> Case<QualitySearchConfig> {
        Case {
            name: "psnr",
            config: QualitySearchConfig::new(QualityMetric::PsnrAtLeast(target)),
            in_tolerance: |c, o| o.quality.as_ref().is_some_and(|q| c.metric.is_satisfied(q)),
        }
    }

    /// The shared checks, instantiated once per objective and target.
    macro_rules! shell_contract {
        ($($module:ident: $case:expr, $feasible:expr;)*) => {$(
            mod $module {
                use super::*;

                #[test]
                fn hints_change_speed_never_the_answer() {
                    hint_invariance(&$case, $feasible);
                }

                #[test]
                fn predictor_learns_then_reuses_in_one_verified_evaluation() {
                    predictor_round_trip(&$case, $feasible);
                }

                #[test]
                fn fired_token_returns_a_consistent_best_so_far() {
                    cancel_consistency(&$case, $feasible);
                }
            }
        )*};
    }

    // A satisfiable and an unsatisfiable target of each objective: 10:1 and
    // 500:1 on a codec that tops out at 100:1; 60 dB and 400 dB on a codec
    // that tops out near 150 dB.
    shell_contract! {
        ratio_in_reach: ratio_case(10.0), true;
        ratio_out_of_reach: ratio_case(500.0), false;
        psnr_in_reach: psnr_case(60.0), true;
        psnr_out_of_reach: psnr_case(400.0), false;
    }

    fn check_answer<V: Verdict>(name: &str, what: &str, outcome: &V, feasible: bool, ok: bool) {
        assert_eq!(outcome.met(), feasible, "{name}/{what}: feasibility moved");
        assert_eq!(
            outcome.best().error_bound,
            outcome.bound(),
            "{name}/{what}: `best` was not measured at the reported bound"
        );
        if feasible {
            assert!(ok, "{name}/{what}: answer out of tolerance");
        }
    }

    fn hint_invariance<O: Objective + Clone>(case: &Case<O>, feasible: bool)
    where
        O::Outcome: Verdict,
    {
        let dataset = smooth_field();
        let (search, codec) = case.search();
        let cold = search.run_with_hint(&dataset, None);
        assert_eq!(
            cold.evaluations(),
            codec.calls(),
            "{}: cold count",
            case.name
        );
        check_answer(
            case.name,
            "cold",
            &cold,
            feasible,
            (case.in_tolerance)(&case.config, cold.best()),
        );
        assert!(cold.hint().is_none(), "cold runs carry no hint report");

        let bare = |bound: f64| SearchHint::converged(bound, HintSource::External);
        let bracketed = |lo: f64, hi: f64| SearchHint {
            bracket: Some((lo, hi)),
            ..SearchHint::seed(1e-3, HintSource::External)
        };
        let hints = [
            ("stale-low", bare(CountingCodec::LO * 3.0)),
            ("stale-high", bare(CountingCodec::HI / 2.0)),
            ("below-range", bare(1e-12)),
            ("above-range", bare(1e6)),
            ("nan", bare(f64::NAN)),
            ("infinite", bare(f64::INFINITY)),
            ("negative", bare(-1e-3)),
            ("zero", bare(0.0)),
            ("inverted-bracket", bracketed(0.5, 1e-4)),
            ("nan-bracket", bracketed(f64::NAN, f64::NAN)),
            (
                "infinite-bracket",
                bracketed(f64::NEG_INFINITY, f64::INFINITY),
            ),
            ("disjoint-bracket", bracketed(1e3, 1e4)),
        ];
        for (what, hint) in hints {
            let (search, codec) = case.search();
            let hinted = search.run_with_hint(&dataset, Some(&hint));
            assert_eq!(
                hinted.evaluations(),
                codec.calls(),
                "{}/{what}: evaluations must equal compressor calls",
                case.name
            );
            check_answer(
                case.name,
                what,
                &hinted,
                feasible,
                (case.in_tolerance)(&case.config, hinted.best()),
            );
            assert!(
                hinted.evaluations() <= cold.evaluations() + 1,
                "{}/{what}: {} evaluations vs {} cold",
                case.name,
                hinted.evaluations(),
                cold.evaluations()
            );
            assert_eq!(hinted.hint().is_some(), hint.is_valid(), "{what}");
        }
    }

    fn predictor_round_trip<O: Objective + Clone>(case: &Case<O>, feasible: bool)
    where
        O::Outcome: Verdict,
    {
        let dataset = smooth_field();
        let predictor = Arc::new(LastConverged::new(HintSource::WarmStart));
        let (search, codec) = case.search();
        let search = search.with_predictor(Some(predictor.clone()));
        let first = search.run(&dataset);
        assert_eq!(first.met(), feasible, "{}", case.name);
        assert!(first.hint().is_none(), "an empty slot proposes nothing");
        // Only bounds that met the objective are learned.
        assert_eq!(predictor.bound(), feasible.then_some(first.bound()));
        let before = codec.calls();
        let second = search.run(&dataset);
        assert_eq!(second.met(), feasible, "{}", case.name);
        if feasible {
            // The learned bound is verified in one evaluation and reused.
            assert_eq!(second.evaluations(), 1, "{}", case.name);
            assert_eq!(codec.calls(), before + 1, "{}", case.name);
            assert_eq!(second.bound(), first.bound());
            let report = second.hint().expect("hinted run reports its hint");
            assert!(report.hit && report.probes == 1);
            assert_eq!(report.source, HintSource::WarmStart);
        } else {
            assert_eq!(second.evaluations(), first.evaluations(), "{}", case.name);
        }
    }

    fn cancel_consistency<O: Objective + Clone>(case: &Case<O>, feasible: bool)
    where
        O::Outcome: Verdict,
    {
        let dataset = smooth_field();
        let (search, _) = case.search();
        let cold = search.run_with_hint(&dataset, None);

        // A live token changes nothing.
        let (search, _) = case.search();
        let live = search
            .with_cancel(CancelToken::with_timeout(Duration::from_secs(3600)))
            .run_with_hint(&dataset, None);
        assert!(!live.deadline_hit());
        assert_eq!(live.evaluations(), cold.evaluations(), "{}", case.name);
        assert_eq!(live.bound(), cold.bound(), "{}", case.name);

        // A token fired before the search, or during any evaluation but its
        // last: the search stops within one more compressor call, counts
        // every call it made, and reports an answer it actually measured.
        for fire_at in 0..cold.evaluations() {
            let what = format!("fired during call {fire_at}");
            let (search, codec) = case.search();
            let token = CancelToken::new();
            if fire_at == 0 {
                token.cancel();
            } else {
                *codec.cancel_at.lock().unwrap() = Some((fire_at, token.clone()));
            }
            let outcome = search.with_cancel(token).run_with_hint(&dataset, None);
            assert!(outcome.deadline_hit(), "{}: {what}", case.name);
            assert_eq!(
                outcome.evaluations(),
                codec.calls(),
                "{}: {what}",
                case.name
            );
            assert!(codec.calls() <= fire_at + 1, "{}: {what}", case.name);
            check_answer(
                case.name,
                &what,
                &outcome,
                outcome.met(),
                (case.in_tolerance)(&case.config, outcome.best()),
            );
            assert!(feasible || !outcome.met(), "{}: {what}", case.name);
        }
    }

    #[test]
    fn unsatisfiable_quality_fallback_is_counted() {
        // The fallback measurement at the lowest bound is a compressor call
        // like any other (it used to go uncounted).
        let dataset = smooth_field();
        let (search, codec) = psnr_case(400.0).search();
        let outcome = search.run(&dataset);
        assert!(!outcome.satisfiable);
        assert_eq!(outcome.error_bound, CountingCodec::LO);
        assert_eq!(outcome.evaluations, codec.calls());
    }

    #[test]
    fn bound_range_honours_the_error_ceiling() {
        let dataset = smooth_field();
        let codec = || Arc::new(CountingCodec::new(smooth_field())) as Arc<dyn Compressor>;
        let capped = Search::new(codec(), SearchConfig::new(10.0, 0.1).with_max_error(1e-3));
        assert_eq!(capped.bound_range(&dataset), (CountingCodec::LO, 1e-3));
        assert_eq!(capped.clamp_bound(0.5, &dataset), 1e-3);
        assert_eq!(capped.clamp_bound(1e-9, &dataset), CountingCodec::LO);
        // A ceiling below the compressor's floor is ignored, not inverted.
        let absurd = Search::new(codec(), SearchConfig::new(10.0, 0.1).with_max_error(1e-9));
        assert_eq!(
            absurd.bound_range(&dataset),
            (CountingCodec::LO, CountingCodec::HI)
        );
        // A hint bracket narrows the searched range only where they overlap.
        let hint = SearchHint::seed(1e-4, HintSource::Analytic).with_bracket(1e-5, 1e-2);
        assert_eq!(capped.searched_range(&dataset, Some(&hint)), (1e-5, 1e-3));
    }
}
