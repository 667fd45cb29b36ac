//! The one search shell: everything a FRaZ search needs that does *not*
//! depend on what is being optimised — including the one evaluation.
//!
//! The paper has one algorithm — minimise a loss over one scalar error
//! bound, probing a prediction first (Algorithm 1).  What varies is the
//! [`Objective`]: the fixed-ratio walk with the region race as its fallback
//! ([`crate::ratio`], Algorithm 2) and the fixed-quality bracketing walk
//! ([`crate::quality`]) are the two strategies, and they share the walk.
//! [`Search`] owns the rest exactly once — the compressor handle, pool,
//! cancel token, codec-config signature and the optional
//! [`BoundPredictor`], the `U`-clipped bound range, and the two entry points
//! [`Search::run`] and [`Search::run_with_hint`].
//!
//! Every compressor call of a search goes through its per-run
//! [`Evaluator`], whose private `call` is the only
//! [`Compressor::evaluate`] site in this crate.  That one site decides, for
//! every objective: what counts as an evaluation
//! (every call, read back as `evaluations` when the search ends), when a
//! search may stop (a fired [`CancelToken`] turns the next evaluation into
//! [`Miss::Cancelled`] without calling), which bounds may be tried (a
//! hint is clamped into [`Search::bound_range`] before it is probed, so the
//! error ceiling `U` binds whatever the hint's source) and which calls need
//! not be made: a codec that reads its bound through a step function
//! ([`BoundKind::step_of`](fraz_pressio::BoundKind::step_of)) is called once
//! per step a run visits, and every other bound on that step is answered
//! from the run's memo — the answer the call would have given, so the
//! strategy sees the same losses in the same order and only `evaluations`,
//! still the exact call count, is smaller.
//!
//! **And its bytes.**  An evaluation that wrote a stream hands it back on
//! its [`CompressionOutcome`] — with the reconstruction its encoder built,
//! for sz and mgard; a strategy keeps them on the outcome it still holds as
//! its best and nowhere else (the memo, losing regions and
//! [`SearchOutcome::regions`] hold measurements only), so the search's
//! answer arrives with the stream it was measured on and [`answer_bytes`]
//! is how a caller that wants the compressed field gets it — one
//! `compress` only when the answer was measured without writing one.  The
//! reconstruction serves the final quality pass and goes no further.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fraz_data::Dataset;
use fraz_metrics::QualityReport;
use fraz_pool::Pool;
use fraz_pressio::{measure_stream, CompressionOutcome, Compressor, PressioError};

use crate::cancel::CancelToken;
use crate::hint::{BoundPredictor, HintQuery, HintReport, HintTarget, SearchHint};
use crate::ratio::{RegionOutcome, SearchOutcome};

/// What a [`Search`] optimises: a target, its acceptance test and the
/// strategy that walks the error-bound axis towards it.  Implemented by the
/// two config types, [`SearchConfig`](crate::SearchConfig) (fixed ratio) and
/// [`QualitySearchConfig`](crate::QualitySearchConfig) (fixed quality); a new
/// metric is one more implementation, not another engine.
pub trait Objective: Sized + Send + Sync {
    /// What a finished search reports: built from, and convertible back
    /// into, the common [`SearchOutcome`] shape the shell assembles and the
    /// orchestrator, store and service report.
    type Outcome: From<SearchOutcome> + Into<SearchOutcome>;

    /// True when an evaluation is judged by its quality report, so every
    /// search evaluation decompresses and measures; false when the
    /// compressed size alone decides.
    const JUDGES_QUALITY: bool;

    /// This objective in predictor-readable form.
    fn hint_target(&self) -> HintTarget;

    /// The user's error ceiling `U`, if any.
    fn max_error_bound(&self) -> Option<f64>;

    /// Whether the reported answer carries a quality report.  The hint
    /// probe is measured this way (a probe that lands *is* the verify
    /// pass), and an answer found without one gets the final quality pass,
    /// outside `evaluations` and only while the token is live: a report over
    /// the reconstruction the answer holds, else a decode of the stream it
    /// holds, else one measured evaluation.
    fn reports_quality(&self) -> bool {
        Self::JUDGES_QUALITY
    }

    /// The objective's own first guess, tried by [`Search::run`] when no
    /// predictor supplies a usable hint (the closed-form PSNR seed for
    /// quality targets; nothing for ratio targets).
    fn default_hint(&self, _compressor: &dyn Compressor, _dataset: &Dataset) -> Option<SearchHint> {
        None
    }

    /// `bound` as the strategy's search axis represents it: a strategy
    /// that walks a transformed axis only ever tries points of that axis,
    /// the hint probe included.
    fn on_axis(&self, bound: f64) -> f64 {
        bound
    }

    /// Algorithm 1 step 1's verdict: does `probe`, measured at `hint`'s
    /// bound, settle the search without training?
    fn settles(&self, hint: &SearchHint, probe: &CompressionOutcome) -> bool;

    /// The strategy alone: search `range` (already `U`-clipped and narrowed
    /// to the hint's bracket) through `eval`, starting from the missed hint
    /// `probe` — its report and what was measured, stream included — when
    /// there is one.
    fn search(
        eval: &Evaluator<'_, Self>,
        range: (f64, f64),
        probe: Option<(&HintReport, CompressionOutcome)>,
    ) -> Found;
}

/// What an [`Objective::search`] strategy hands back to the shell.
pub struct Found {
    /// The recommended bound (the best-effort one when nothing met the
    /// objective).
    pub bound: f64,
    /// The outcome measured at `bound`, when the strategy holds one — with
    /// its stream, if the evaluation wrote one; the shell measures the bound
    /// itself otherwise.
    pub measured: Option<CompressionOutcome>,
    /// True when `measured` meets the objective.
    pub met: bool,
    /// Per-region detail (ratio searches only).
    pub regions: Vec<RegionOutcome>,
}

/// Why [`Evaluator::measure`] returned no outcome.  Both objectives treat
/// either as the worst possible loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miss {
    /// The [`CancelToken`] had fired: the compressor was not called.
    Cancelled,
    /// The compressor rejected the bound (the call is still counted).
    Rejected,
}

/// One run's access to the compressor: the shell, the dataset, the call
/// counter `evaluations` is read from, the count of answers a strategy
/// budgets by, the clock `elapsed` is read from and the step memo.
pub struct Evaluator<'a, O: Objective> {
    shell: &'a Search<O>,
    dataset: &'a Dataset,
    calls: AtomicUsize,
    answered: AtomicUsize,
    start: Instant,
    /// What this run measured on each `(step, measure_quality, sampled)` it
    /// visited: at most one outcome per binade of the range per flag and per
    /// dataset (the field, or the sample a strategy measured instead) — the
    /// measurement, not its stream — dropped with the run.  Stays empty for
    /// a codec without steps.
    memo: Mutex<BTreeMap<MemoKey, CompressionOutcome>>,
}

/// `(step, measure_quality, sampled)`.
type MemoKey = (i64, bool, bool);

impl<'a, O: Objective> Evaluator<'a, O> {
    fn new(shell: &'a Search<O>, dataset: &'a Dataset) -> Self {
        Self {
            shell,
            dataset,
            calls: AtomicUsize::new(0),
            answered: AtomicUsize::new(0),
            start: Instant::now(),
            memo: Mutex::default(),
        }
    }

    /// One search evaluation at `bound`, or the reason there was none.
    pub fn measure(&self, bound: f64) -> Result<CompressionOutcome, Miss> {
        self.call(None, bound, O::JUDGES_QUALITY, false)
    }

    /// One size-only evaluation of `sample` — a part of the run's dataset a
    /// strategy measures instead of the whole — at `bound`: a compressor call
    /// like any other (counted, cancellable, memoised), remembered apart
    /// from the field's.
    pub(crate) fn measure_sample(
        &self,
        sample: &Dataset,
        bound: f64,
    ) -> Result<CompressionOutcome, Miss> {
        self.call(Some(sample), bound, false, false)
    }

    /// The one compressor call site: on the run's dataset, or on `sample`
    /// when a strategy measures one.  Only the shell's fallback measurement
    /// is `forced` past a fired token: it turns a search that measured
    /// nothing into a reportable answer.
    ///
    /// A bound on a step this run already measured — on the same dataset,
    /// with the same flag — is answered from the memo: after the cancel
    /// check, without a stream, and counted as an answer but not as a call:
    /// `calls` stays the exact number of compressor calls.  Two runners that
    /// miss the same step at once both call; the outcomes are equal and both
    /// are counted.
    fn call(
        &self,
        sample: Option<&Dataset>,
        bound: f64,
        measure_quality: bool,
        forced: bool,
    ) -> Result<CompressionOutcome, Miss> {
        if !forced && self.cancelled() {
            return Err(Miss::Cancelled);
        }
        self.answered.fetch_add(1, Ordering::Relaxed);
        let compressor = &self.shell.compressor;
        let key = compressor
            .bound_kind()
            .step_of(bound)
            .map(|step| (step, measure_quality, sample.is_some()));
        if let Some(seen) = key.and_then(|key| self.memo().get(&key).cloned()) {
            return Ok(CompressionOutcome {
                error_bound: bound,
                ..seen
            });
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        let outcome = compressor
            .evaluate(sample.unwrap_or(self.dataset), bound, measure_quality)
            .map_err(|_| Miss::Rejected)?;
        if let Some(key) = key {
            self.memo().insert(key, outcome.without_stream());
        }
        Ok(outcome)
    }

    /// The final quality pass: `seen`, the answer measured without a
    /// report, measured with one — after the search, so outside
    /// `evaluations`, and not at all once the token has fired (`seen` is
    /// then the answer as it was measured).  Each case gives the report a
    /// quality evaluation at its bound gives, bit for bit, without
    /// compressing again where it can:
    ///
    /// 1. an answer that holds its encoder's reconstruction (sz, mgard) is
    ///    measured over it, and keeps its stream;
    /// 2. one that holds its stream (zfp) is decoded ([`measure_stream`]);
    /// 3. one measured without writing a stream (szx's size-only
    ///    evaluation, a step-memo answer) pays one measured evaluation.
    fn final_quality(&self, mut seen: CompressionOutcome) -> CompressionOutcome {
        if self.cancelled() {
            return seen;
        }
        if let Some(recon) = seen.recon.take() {
            let report = QualityReport::measure(self.dataset, &recon, seen.compressed_bytes);
            return CompressionOutcome {
                quality: Some(report),
                ..seen
            };
        }
        let bound = seen.error_bound;
        let measured = match seen.stream.take() {
            Some(stream) => {
                measure_stream(&*self.shell.compressor, self.dataset, bound, stream).ok()
            }
            None => self.call(None, bound, true, false).ok(),
        };
        measured.unwrap_or(seen)
    }

    fn memo(&self) -> std::sync::MutexGuard<'_, BTreeMap<MemoKey, CompressionOutcome>> {
        // Every critical section is one map operation, so a poisoned lock
        // still guards a consistent map.
        self.memo.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Compressor calls made so far in this run.
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }

    /// Evaluations answered so far in this run, by a compressor call or
    /// from the step memo — what a strategy budgets by, so its walk does not
    /// depend on which answers were remembered.  Equal to
    /// [`calls`](Self::calls) for a codec without steps.
    pub fn answered(&self) -> usize {
        self.answered.load(Ordering::Relaxed)
    }

    /// True once the search's [`CancelToken`] has fired.
    pub fn cancelled(&self) -> bool {
        self.shell.cancelled()
    }

    /// A token that fires with the search's and can be fired alone: how a
    /// strategy stops its own tasks (the race's early termination) without
    /// stopping the search.
    pub(crate) fn child_token(&self) -> CancelToken {
        self.shell.cancel.child()
    }

    /// The objective's configuration.
    pub fn config(&self) -> &O {
        &self.shell.config
    }

    /// The dataset this run searches.
    pub(crate) fn dataset(&self) -> &Dataset {
        self.dataset
    }

    /// The pool the search's tasks run on.
    pub fn pool(&self) -> &Pool {
        self.shell.pool()
    }
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
    cancel: CancelToken,
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
            cancel: CancelToken::new(),
            predictor: None,
        }
    }

    /// Cooperatively stop the search when `token` fires (deadline passed or
    /// explicit cancel).  Checked between compressor evaluations only — a
    /// single evaluation is the atom of work — so the outcome after a fired
    /// token is the best-so-far answer with `deadline_hit: true`.  Without
    /// one, the search holds a token nothing fires.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
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

    /// True once the search's [`CancelToken`] has fired.
    pub fn cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// The `(lower, upper)` error-bound range the search may use for this
    /// dataset: the compressor's valid range intersected with `(0, U]`.  A
    /// ceiling at or below the compressor's floor is still a bound the
    /// compressor accepts, so the intersection is never empty: it collapses
    /// to the sliver just under `U` (as a degenerate compressor range
    /// collapses to the sliver under its upper end).  The lower end is
    /// always positive and below the upper one, and a normal number unless
    /// a ceiling under `2 · f64::MIN_POSITIVE` leaves no room for one: a
    /// compressor range reaching under the normal numbers — a field whose
    /// value range is subnormal, or a codec answering 0 — is lifted to them.
    pub fn bound_range(&self, dataset: &Dataset) -> (f64, f64) {
        let (lower, upper) = self.compressor.bound_range(dataset);
        let (lower, upper) = (
            lower.max(f64::MIN_POSITIVE),
            upper.max(2.0 * f64::MIN_POSITIVE),
        );
        let upper = match self.config.max_error_bound() {
            // Not zero, negative, NaN — no bound could honour it — nor a
            // subnormal, which has no room for a sliver beneath it.
            Some(u) if u >= f64::MIN_POSITIVE => upper.min(u),
            _ => upper,
        };
        (lower.min(upper * (1.0 - 1e-9)), upper)
    }

    /// `bound` clamped into [`Search::bound_range`].
    pub fn clamp_bound(&self, bound: f64, dataset: &Dataset) -> f64 {
        let (lower, upper) = self.bound_range(dataset);
        bound.clamp(lower, upper)
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

    /// Algorithm 1 with an explicit hint (cold when `None` or unusable).
    /// Step 1, written once for every objective: clamp the hinted bound into
    /// [`Search::bound_range`], probe it, and stop there when the objective
    /// says the probe [`settles`](Objective::settles) the search.  Otherwise
    /// the objective's strategy searches the range — narrowed to the hint's
    /// bracket, if it carries one that overlaps — and the shell turns what it
    /// found into the outcome.  The installed predictor is not consulted, but
    /// the result is reported back to it via [`BoundPredictor::observe`], so
    /// it learns from every search through this shell.
    pub fn run_with_hint(&self, dataset: &Dataset, hint: Option<&SearchHint>) -> O::Outcome {
        let eval = Evaluator::new(self, dataset);
        let range = self.bound_range(dataset);
        let hint = hint.filter(|h| h.is_valid());
        let mut probe = None;
        let report = hint.map(|h| {
            let bound = h.bound.clamp(range.0, range.1);
            let at = self.config.on_axis(bound).clamp(range.0, range.1);
            probe = eval
                .call(None, at, self.config.reports_quality(), false)
                .ok();
            HintReport {
                source: h.source,
                bound,
                hit: probe.as_ref().is_some_and(|p| self.config.settles(h, p)),
                probes: eval.calls(),
            }
        });
        let hit = report.as_ref().is_some_and(|r| r.hit);

        let found = match probe {
            Some(probe) if hit => Found {
                bound: probe.error_bound,
                measured: Some(probe),
                met: true,
                regions: Vec::new(),
            },
            probe => O::search(&eval, narrowed(range, hint), report.as_ref().zip(probe)),
        };
        // Nothing measured at the recommended bound: measure it, token fired
        // or not, so the search always reports an answer it actually saw.
        let measured = found
            .measured
            .or_else(|| eval.call(None, found.bound, O::JUDGES_QUALITY, true).ok());
        // The search ends here; the final quality pass below is not a search
        // evaluation and is skipped once the token fired.
        let evaluations = eval.calls();
        let deadline_hit = !hit && self.cancelled();
        let mut best = match measured {
            Some(seen) if seen.quality.is_none() && self.config.reports_quality() => {
                eval.final_quality(seen)
            }
            Some(seen) => seen,
            // The compressor rejected even the fallback bound.
            None => CompressionOutcome {
                compressor: self.compressor.name().to_string(),
                error_bound: found.bound,
                compression_ratio: 0.0,
                bit_rate: 0.0,
                compressed_bytes: 0,
                original_bytes: dataset.byte_size(),
                quality: None,
                stream: None,
                recon: None,
            },
        };
        // The reconstruction served the final pass: no caller gets it.
        best.recon = None;
        let outcome = SearchOutcome {
            error_bound: found.bound,
            best,
            feasible: found.met,
            retrained: !hit,
            evaluations,
            elapsed: eval.start.elapsed(),
            regions: found.regions,
            hint: report,
            deadline_hit,
        };
        if let Some(predictor) = &self.predictor {
            predictor.observe(
                &self.hint_query(dataset),
                outcome.error_bound,
                outcome.feasible,
            );
        }
        outcome.into()
    }
}

/// The answer's bytes: the stream the search measured at
/// `outcome.error_bound` when it still holds one, else one `compress` there.
/// Every caller that follows a search with the compressed field goes through
/// here (`scripts/one_evaluation_site.py` fails on a second site).
pub fn answer_bytes(
    compressor: &dyn Compressor,
    dataset: &Dataset,
    outcome: &mut SearchOutcome,
) -> Result<Vec<u8>, PressioError> {
    match outcome.best.stream.take() {
        Some(stream) if outcome.best.error_bound == outcome.error_bound => Ok(stream),
        _ => compressor.compress(dataset, outcome.error_bound),
    }
}

/// `range` narrowed to the hint's bracket, when it carries one that overlaps
/// the range.
fn narrowed((lower, upper): (f64, f64), hint: Option<&SearchHint>) -> (f64, f64) {
    if let Some((blo, bhi)) = hint.and_then(|h| h.bracket) {
        let (nlo, nhi) = (lower.max(blo), upper.min(bhi));
        if nlo < nhi {
            return (nlo, nhi);
        }
    }
    (lower, upper)
}

/// Shell behaviour every [`Objective`] inherits, checked once and run for
/// both: hints change a search's speed and never its answer, a predictor
/// learns and is reused, `evaluations` is the exact compressor-call count,
/// and a fired [`CancelToken`] yields a consistent best-so-far.
#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicU64;
    use std::sync::OnceLock;
    use std::time::Duration;

    use fraz_data::{synthetic, DType, Dims};
    use fraz_pressio::{registry, BoundKind};

    use super::*;
    use crate::hint::{HintSource, LastConverged};
    use crate::ratio::WALK_BUDGET;
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
    /// accounting is pinned exactly — and remembering the highest bound it
    /// was asked for.  Below its floor it is lossless (1:1).  Optionally
    /// fires a [`CancelToken`] during its n-th call.  Counts its
    /// `decompress` calls apart.
    pub(crate) struct CountingCodec {
        calls: AtomicUsize,
        decodes: AtomicUsize,
        /// Bits of the highest bound compressed at (bounds are positive, so
        /// their bit patterns order like the numbers).
        highest_bound: AtomicU64,
        original: Dataset,
        cancel_at: Mutex<Option<(usize, CancelToken)>>,
    }

    impl CountingCodec {
        pub(crate) const LO: f64 = 1e-6;
        pub(crate) const HI: f64 = 1.0;

        pub(crate) fn new(original: Dataset) -> Self {
            Self {
                calls: AtomicUsize::new(0),
                decodes: AtomicUsize::new(0),
                highest_bound: AtomicU64::new(0),
                original,
                cancel_at: Mutex::new(None),
            }
        }

        pub(crate) fn calls(&self) -> usize {
            self.calls.load(Ordering::Relaxed)
        }

        fn decodes(&self) -> usize {
            self.decodes.load(Ordering::Relaxed)
        }

        fn highest_bound(&self) -> f64 {
            f64::from_bits(self.highest_bound.load(Ordering::Relaxed))
        }

        /// A token that fires during this codec's `call`-th compression
        /// (already fired for 0).
        pub(crate) fn token_fired_during(&self, call: usize) -> CancelToken {
            let token = CancelToken::new();
            if call == 0 {
                token.cancel();
            } else {
                *self.cancel_at.lock().unwrap() = Some((call, token.clone()));
            }
            token
        }

        fn ratio_at(bound: f64) -> f64 {
            (1.0 + 99.0 * ((bound / Self::LO).ln() / (Self::HI / Self::LO).ln())).max(1.0)
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
            self.highest_bound
                .fetch_max(bound.to_bits(), Ordering::Relaxed);
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
            self.decodes.fetch_add(1, Ordering::Relaxed);
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

    /// One objective under test: its config, what "in tolerance" means, the
    /// bound that meets the target exactly when no ceiling `U` is set, and
    /// the most evaluations a hint that misses may add to a cold search —
    /// the probe, and for a ratio the walk it starts ([`WALK_BUDGET`]
    /// answers, the probe included).
    struct Case<O> {
        name: &'static str,
        config: O,
        in_tolerance: fn(&O, &CompressionOutcome) -> bool,
        oracle: f64,
        hint_cost: usize,
    }

    impl<O: Objective + Clone> Case<O> {
        /// A fresh search on a one-worker pool, so the region race makes its
        /// compressor calls one at a time, in a fixed order.
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
            oracle: CountingCodec::bound_for(target),
            hint_cost: WALK_BUDGET,
        }
    }

    fn psnr_case(target: f64) -> Case<QualitySearchConfig> {
        Case {
            name: "psnr",
            config: QualitySearchConfig::new(QualityMetric::PsnrAtLeast(target)),
            in_tolerance: |c, o| o.quality.as_ref().is_some_and(|q| c.metric.is_satisfied(q)),
            oracle: smooth_field().stats().value_range() / 10f64.powf(target / 20.0),
            hint_cost: 1,
        }
    }

    /// `case` under an error ceiling `U`.
    fn capped<O>(mut case: Case<O>, cap: fn(O, f64) -> O, ceiling: f64) -> Case<O> {
        case.config = cap(case.config, ceiling);
        case
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
    // that tops out near 150 dB.  Then each satisfiable target under a
    // ceiling `U` below its cold answer: 10:1 is out of reach at `U` (6:1
    // there); 60 dB still holds, with `U` itself the most compressive answer.
    // Then under a ceiling below the codec's floor, where every bound the
    // search may try is a hair under `U`: 10:1 is out of reach there, 60 dB
    // holds.
    shell_contract! {
        ratio_in_reach: ratio_case(10.0), true;
        ratio_out_of_reach: ratio_case(500.0), false;
        ratio_capped: capped(ratio_case(10.0), SearchConfig::with_max_error, 2e-6), false;
        ratio_capped_below_floor: capped(
            ratio_case(10.0),
            SearchConfig::with_max_error,
            CountingCodec::LO / 1e3,
        ), false;
        psnr_in_reach: psnr_case(60.0), true;
        psnr_out_of_reach: psnr_case(400.0), false;
        psnr_capped: capped(
            psnr_case(60.0),
            |c, u| QualitySearchConfig { max_error_bound: Some(u), ..c },
            1e-3,
        ), true;
        psnr_capped_below_floor: capped(
            psnr_case(60.0),
            |c, u| QualitySearchConfig { max_error_bound: Some(u), ..c },
            CountingCodec::LO / 1e3,
        ), true;
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

    /// The ceiling binds every bound tried, not only the one reported.
    fn assert_evaluated_under(codec: &CountingCodec, ceiling: f64, name: &str, what: &str) {
        let highest = codec.highest_bound();
        assert!(
            highest <= ceiling,
            "{name}/{what}: evaluated {highest} above U = {ceiling}"
        );
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
        // The error ceiling binds every answer, however it was seeded.
        let ceiling = case.config.max_error_bound().unwrap_or(CountingCodec::HI);
        assert!(cold.bound() <= ceiling, "{}: cold above U", case.name);
        assert_evaluated_under(&codec, ceiling, case.name, "cold");

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
            // The answer of the same search without a ceiling — what a
            // predictor taught before `U` was set proposes.
            ("uncapped-answer", bare(case.oracle)),
            (
                "uncapped-bracket",
                SearchHint::seed(case.oracle, HintSource::External)
                    .with_bracket(case.oracle / 2.0, case.oracle * 2.0),
            ),
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
                hinted.evaluations() <= cold.evaluations() + case.hint_cost,
                "{}/{what}: {} evaluations vs {} cold",
                case.name,
                hinted.evaluations(),
                cold.evaluations()
            );
            assert_eq!(hinted.hint().is_some(), hint.is_valid(), "{what}");
            assert!(
                hinted.bound() <= ceiling,
                "{}/{what}: bound {} above U = {ceiling}",
                case.name,
                hinted.bound()
            );
            assert_evaluated_under(&codec, ceiling, case.name, what);
        }

        // The same through `run`: a predictor that learned the uncapped
        // answer proposes it to the capped search.
        let predictor = Arc::new(LastConverged::new(HintSource::WarmStart));
        predictor.store(case.oracle);
        let (search, codec) = case.search();
        let taught = search.with_predictor(Some(predictor)).run(&dataset);
        assert_eq!(taught.met(), feasible, "{}: taught predictor", case.name);
        assert!(taught.bound() <= ceiling, "{}: taught above U", case.name);
        assert_evaluated_under(&codec, ceiling, case.name, "taught predictor");
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
            let token = codec.token_fired_during(fire_at);
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

    /// Cold, on a hint that lands and on one that misses: the answer carries
    /// the stream it was measured on, nothing else the caller gets does, and
    /// [`answer_bytes`] hands it over without a compressor call.
    fn answer_is_carried<O: Objective + Clone>(case: &Case<O>) {
        let dataset = smooth_field();
        let lands = SearchHint::converged(case.oracle, HintSource::External);
        let misses = SearchHint::converged(CountingCodec::LO * 3.0, HintSource::External);
        for (what, hint) in [
            ("cold", None),
            ("landing hint", Some(&lands)),
            ("missed hint", Some(&misses)),
        ] {
            let what = format!("{}/{what}", case.name);
            let (search, codec) = case.search();
            let mut outcome: SearchOutcome = search.run_with_hint(&dataset, hint).into();
            let streams_left = outcome.regions.iter().filter_map(|r| r.measured.as_ref());
            assert_eq!(streams_left.filter(|m| m.stream.is_some()).count(), 0);
            let calls = codec.calls();
            let bytes = answer_bytes(&*codec, &dataset, &mut outcome).unwrap();
            assert_eq!(
                codec.calls(),
                calls,
                "{what}: the answer came without bytes"
            );
            assert_eq!(
                Ok(&bytes),
                codec.compress(&dataset, outcome.error_bound).as_ref(),
                "{what}: not the stream of the reported bound"
            );
            // Handed over once; after that the bytes cost a compression.
            assert!(outcome.best.stream.is_none(), "{what}");
            assert_eq!(
                answer_bytes(&*codec, &dataset, &mut outcome),
                Ok(bytes),
                "{what}"
            );
            assert_eq!(codec.calls(), calls + 2, "{what}");
        }
    }

    #[test]
    fn the_answer_arrives_with_the_stream_it_was_measured_on() {
        // In reach and out of it: a best-effort answer is measured too.
        for target in [10.0, 500.0] {
            answer_is_carried(&ratio_case(target));
            let mut with_final_quality = ratio_case(target);
            with_final_quality.config.measure_final_quality = true;
            answer_is_carried(&with_final_quality);
        }
        answer_is_carried(&psnr_case(60.0));
        answer_is_carried(&psnr_case(400.0));

        // An answer remembered from the step memo was measured on another
        // bound's stream and carries none: then the bytes are compressed.
        let dataset = smooth_field();
        let codec = SteppedCounting::new(None);
        let search = Search::new(codec.clone() as Arc<dyn Compressor>, ratio_config(10.0));
        let mut outcome = search.run_with_hint(&dataset, None);
        let (calls, held) = (codec.inner.calls(), outcome.best.stream.is_some());
        let bytes = answer_bytes(&*codec, &dataset, &mut outcome);
        assert_eq!(bytes, codec.compress(&dataset, outcome.error_bound));
        assert_eq!(codec.inner.calls(), calls + 1 + usize::from(!held));
    }

    #[test]
    fn final_quality_pass_is_the_one_uncounted_call() {
        // `SearchConfig::new` — what the CLI and orchestrator run — asks for
        // the final quality pass: outside `evaluations`, made exactly when a
        // trained search ends with its token live, and a decode of the
        // stream the answer holds, so every compression is an evaluation.
        let dataset = smooth_field();
        for target in [10.0, 500.0] {
            let mut case = ratio_case(target);
            case.config.measure_final_quality = true;
            let (search, codec) = case.search();
            let cold = search.run_with_hint(&dataset, None);
            let counts = (codec.calls(), codec.decodes());
            assert_eq!(counts, (cold.evaluations, 1), "cold {target}");
            assert!(cold.best.quality.is_some());

            // A hint that lands is measured with quality: the probe *is*
            // the verify pass.  One that misses is a trained search: its
            // probe decoded once, and the pass decodes the answer.
            let (search, codec) = case.search();
            let hint = SearchHint::converged(cold.error_bound, HintSource::External);
            let hinted = search.run_with_hint(&dataset, Some(&hint));
            let counts = (codec.calls(), codec.decodes());
            if cold.feasible {
                assert_eq!((counts, hinted.evaluations), ((1, 1), 1));
                assert!(!hinted.retrained && hinted.best.quality.is_some());
            } else {
                assert_eq!(counts, (hinted.evaluations, 2), "missed {target}");
                assert!(hinted.best.quality.is_some());
            }

            // A fired token ships the answer as measured.
            for fire_at in 0..cold.evaluations {
                let (search, codec) = case.search();
                let token = codec.token_fired_during(fire_at);
                let outcome = search.with_cancel(token).run_with_hint(&dataset, None);
                assert!(outcome.deadline_hit && outcome.best.quality.is_none());
                let counts = (codec.calls(), codec.decodes());
                assert_eq!(counts, (outcome.evaluations, 0), "{target} @ {fire_at}");
            }
        }

        // An answer remembered from the step memo holds no stream (2:1 is
        // out of the stepped codec's reach, and its best effort, on the
        // floor's step, is a memo answer): the pass is one measured
        // evaluation, a compression outside `evaluations`.  The probe was
        // measured with quality, so it decoded too.
        let codec = SteppedCounting::new(None);
        let config = SearchConfig {
            measure_final_quality: true,
            ..ratio_config(2.0)
        };
        let seed = SearchHint::seed(1e-3, HintSource::External);
        let outcome = Search::new(codec.clone() as Arc<dyn Compressor>, config)
            .run_with_hint(&dataset, Some(&seed));
        assert!(!outcome.feasible && outcome.best.quality.is_some());
        let counts = (codec.inner.calls(), codec.inner.decodes());
        assert_eq!(counts, (outcome.evaluations + 1, 2), "memo answer");
        assert!(outcome.best.stream.is_some());
    }

    /// sz and mgard hand a size evaluation back with the reconstruction
    /// their encoder built, so the final pass of a ratio answer measures
    /// that — no decode, no evaluation beyond the search's — and reports
    /// what decoding the answer's stream reports, bit for bit.  Cold (the
    /// race under the sampling floor, the sampled walk above it), from a
    /// missed hint and from one that lands, on f32 and f64, with the pass on
    /// and off: no outcome a caller gets holds a reconstruction.
    #[test]
    fn the_final_pass_measures_what_sz_and_mgard_rebuilt() {
        let small = smooth_field();
        let large = synthetic::generate("smooth", &Dims::d3(16, 32, 32), DType::F32, 7, 0).unwrap();
        let wide =
            |d: &Dataset| Dataset::from_f64("test", "wide", 0, d.dims.clone(), d.values_f64());
        for codec in ["sz", "mgard"] {
            for dataset in [small.clone(), wide(&small), large.clone(), wide(&large)] {
                let range = dataset.value_range();
                let at = |bound: f64| {
                    let answer = SteplessTwin::of(codec).evaluate(&dataset, bound, false);
                    answer.unwrap().compression_ratio
                };
                let target = at(1e-3 * range);
                let lands = SearchHint::converged(1e-3 * range, HintSource::External);
                let misses = SearchHint::converged(1e-7 * range, HintSource::External);
                for (how, hint) in [
                    ("cold", None),
                    ("missed", Some(&misses)),
                    ("landing", Some(&lands)),
                ] {
                    for final_pass in [true, false] {
                        let what =
                            format!("{codec} on {dataset}, {how} hint, final pass {final_pass}");
                        let twin = SteplessTwin::of(codec);
                        let config = SearchConfig {
                            measure_final_quality: final_pass,
                            ..ratio_config(target)
                        };
                        let outcome = Search::new(twin.clone() as Arc<dyn Compressor>, config)
                            .run_with_hint(&dataset, hint);
                        assert!(outcome.best.recon.is_none(), "{what}");
                        let regions = outcome.regions.iter().filter_map(|r| r.measured.as_ref());
                        assert!(regions.clone().all(|m| m.recon.is_none()), "{what}");
                        assert_eq!(twin.decodes.load(Ordering::Relaxed), 0, "{what}");
                        let asked = twin.asked.lock().unwrap().len();
                        assert_eq!(asked, outcome.evaluations, "{what}");
                        if !final_pass {
                            assert!(outcome.best.quality.is_none(), "{what}");
                            continue;
                        }
                        let stream = outcome.best.stream.clone().expect("the answer's stream");
                        let decoded =
                            measure_stream(&*twin.inner, &dataset, outcome.error_bound, stream)
                                .unwrap();
                        let report = outcome.best.quality.as_ref().expect("the final pass ran");
                        let expected = decoded.quality.as_ref().unwrap();
                        let bits = |r: &QualityReport| {
                            [
                                r.compression_ratio,
                                r.bit_rate,
                                r.max_abs_error,
                                r.rmse,
                                r.psnr,
                                r.ssim,
                                r.acf_error,
                            ]
                            .map(f64::to_bits)
                        };
                        assert_eq!(bits(report), bits(expected), "{what}");
                        assert_eq!(report, expected, "{what}");
                    }
                }
            }
        }
    }

    /// Paper Fig. 3: the ratio climbs with the bound overall but saw-tooths
    /// on the way (five teeth of ±15 %), so a target ratio is met on several
    /// disjoint slivers of the axis and missed in between.  The valid range
    /// spans one decade: a region is minimised on a linear axis, so a lone
    /// region cannot resolve the low decades of a wider one.
    struct SawtoothCodec;

    impl SawtoothCodec {
        const LO: f64 = 0.1;
        const HI: f64 = 1.1;

        fn ratio_at(bound: f64) -> f64 {
            let t = (bound - Self::LO) / (Self::HI - Self::LO);
            (2.0 + 98.0 * t) * (0.85 + 0.3 * (t * 5.0).fract())
        }
    }

    impl Compressor for SawtoothCodec {
        fn name(&self) -> &str {
            "sawtooth"
        }
        fn supports_dims(&self, _dims: &Dims) -> bool {
            true
        }
        fn bound_range(&self, _dataset: &Dataset) -> (f64, f64) {
            (Self::LO, Self::HI)
        }
        fn compress(&self, dataset: &Dataset, bound: f64) -> Result<Vec<u8>, PressioError> {
            let bytes = dataset.byte_size() as f64 / Self::ratio_at(bound);
            Ok(vec![0u8; bytes.round() as usize])
        }
        fn decompress(&self, _data: &[u8]) -> Result<Dataset, PressioError> {
            Err(PressioError::Unsupported("size-only test codec".into()))
        }
    }

    #[test]
    fn a_target_a_dense_sweep_can_meet_is_never_reported_infeasible() {
        let dataset = smooth_field();
        let in_band = |target: f64, ratio: f64| (ratio - target).abs() <= 0.1 * target;
        for target in [4.0, 10.0, 25.0, 50.0, 75.0, 100.0] {
            let swept = (0..=5000)
                .map(|i| SawtoothCodec::LO + i as f64 / 5000.0)
                .any(|bound| {
                    let outcome = SawtoothCodec.evaluate(&dataset, bound, false).unwrap();
                    in_band(target, outcome.compression_ratio)
                });
            assert!(swept, "{target}: pick targets the sweep can meet");
            for regions in [1, 4, 12] {
                let config = SearchConfig::new(target, 0.1)
                    .with_regions(regions)
                    .with_threads(1);
                let outcome = Search::new(Arc::new(SawtoothCodec) as Arc<dyn Compressor>, config)
                    .run(&dataset);
                assert!(outcome.feasible, "{target}:1 over {regions} regions");
                assert!(in_band(target, outcome.best.compression_ratio));
            }
        }
    }

    #[test]
    fn above_the_sampling_floor_the_walk_meets_every_target_a_dense_sweep_can() {
        // 32³ values: a cold search walks from a seed fitted on a sample,
        // and races only where the walk fails — a saw-tooth tooth edge can
        // contradict it — so the verdicts are the race's.
        let values = (0..32 * 32 * 32).map(|i| (i % 97) as f32).collect();
        let dataset = Dataset::from_f32("test", "cube", 0, Dims::d3(32, 32, 32), values);
        let in_band = |target: f64, ratio: f64| (ratio - target).abs() <= 0.1 * target;
        let (mut walked, mut raced) = (0, 0);
        for target in [4.0, 10.0, 25.0, 50.0, 75.0, 100.0] {
            let swept = (0..=5000)
                .map(|i| SawtoothCodec::LO + i as f64 / 5000.0)
                .any(|bound| {
                    let outcome = SawtoothCodec.evaluate(&dataset, bound, false).unwrap();
                    in_band(target, outcome.compression_ratio)
                });
            assert!(swept, "{target}: pick targets the sweep can meet");
            for regions in [1, 4, 12] {
                let config = SearchConfig::new(target, 0.1)
                    .with_regions(regions)
                    .with_threads(1);
                let outcome = Search::new(Arc::new(SawtoothCodec) as Arc<dyn Compressor>, config)
                    .run(&dataset);
                assert!(outcome.feasible, "{target}:1 over {regions} regions");
                assert!(in_band(target, outcome.best.compression_ratio));
                if outcome.regions.is_empty() {
                    walked += 1;
                } else {
                    raced += 1;
                }
            }
        }
        // Both paths ran: the walk's hits, and the race where a tooth's
        // edge contradicted the walk or its budget ran out.
        assert!(walked > 0 && raced > 0, "{walked} walked, {raced} raced");
    }

    #[test]
    fn worker_count_changes_counts_never_verdicts() {
        let dataset = smooth_field();
        let pool = Arc::new(Pool::new(2));
        for (codec, target, feasible) in [
            (Arc::new(SawtoothCodec) as Arc<dyn Compressor>, 20.0, true),
            (Arc::new(CountingCodec::new(smooth_field())), 10.0, true),
            (Arc::new(CountingCodec::new(smooth_field())), 500.0, false),
        ] {
            for threads in [1, 2, 8] {
                let config = SearchConfig::new(target, 0.1).with_threads(threads);
                let outcome = Search::new(Arc::clone(&codec), config)
                    .with_pool(Arc::clone(&pool))
                    .run(&dataset);
                let what = format!("{} {target}:1 on {threads} threads", codec.name());
                assert_eq!(outcome.feasible, feasible, "{what}");
                let deviation = (outcome.best.compression_ratio - target).abs();
                assert_eq!(deviation <= 0.1 * target, feasible, "{what}");
            }
        }
    }

    /// Forwards everything to `inner` — `evaluate` included, so the codec
    /// under it takes whatever path it takes — but reports a kind without
    /// steps, which leaves the memo empty; and logs what it was asked: the
    /// bound, the flag and how many values, and how many decodes.
    struct SteplessTwin {
        inner: Box<dyn Compressor>,
        asked: Mutex<Vec<(f64, bool, usize)>>,
        decodes: AtomicUsize,
    }

    impl SteplessTwin {
        fn of(codec: &str) -> Arc<Self> {
            Arc::new(Self {
                inner: registry::build_default(codec).unwrap(),
                asked: Mutex::default(),
                decodes: AtomicUsize::new(0),
            })
        }
    }

    impl Compressor for SteplessTwin {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn bound_kind(&self) -> BoundKind {
            BoundKind::AbsoluteError
        }
        fn supports_dims(&self, dims: &Dims) -> bool {
            self.inner.supports_dims(dims)
        }
        fn bound_range(&self, dataset: &Dataset) -> (f64, f64) {
            self.inner.bound_range(dataset)
        }
        fn compress(&self, dataset: &Dataset, bound: f64) -> Result<Vec<u8>, PressioError> {
            self.inner.compress(dataset, bound)
        }
        fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
            self.decodes.fetch_add(1, Ordering::Relaxed);
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
                .push((bound, measure_quality, dataset.len()));
            self.inner.evaluate(dataset, bound, measure_quality)
        }
    }

    /// One search run twice on a one-worker pool — on zfp, whose kind has
    /// steps, and on its stepless twin: the memo may change how many times
    /// the codec is called and nothing a caller can read besides.  A
    /// `sampled` search (a cold ratio search above the sampling floor)
    /// measures a sample of the field before the field, and the memo keys
    /// those calls apart from the field's: were the sample to read the
    /// field's memo, its seed — and so the walk and the answer — would move.
    fn memo_differential<O: Objective + Clone>(
        what: &str,
        dataset: &Dataset,
        config: O,
        hint: Option<&SearchHint>,
        sampled: bool,
    ) {
        let pool = Arc::new(Pool::new(1));
        let zfp = || registry::build_default("zfp").unwrap();
        let steps = zfp().bound_kind();
        let memo: SearchOutcome = Search::new(zfp(), config.clone())
            .with_pool(Arc::clone(&pool))
            .run_with_hint(dataset, hint)
            .into();
        let twin_codec = SteplessTwin::of("zfp");
        let twin: SearchOutcome = Search::new(twin_codec.clone() as Arc<dyn Compressor>, config)
            .with_pool(pool)
            .run_with_hint(dataset, hint)
            .into();

        assert_eq!(
            memo.error_bound.to_bits(),
            twin.error_bound.to_bits(),
            "{what}"
        );
        assert_eq!(memo.best, twin.best, "{what}");
        assert_eq!(memo.feasible, twin.feasible, "{what}");
        assert!(twin.feasible, "{what}: pick a target the codec reaches");
        assert_eq!(memo.hint, twin.hint, "{what}");
        assert_eq!(memo.regions.len(), twin.regions.len(), "{what}");
        for (m, t) in memo.regions.iter().zip(&twin.regions) {
            // Whole region outcomes: bound, ratio, loss, the carried
            // measurement, and `iterations` — objective evaluations, which
            // the memo answers but does not skip.
            assert_eq!(m, t, "{what}");
        }

        // Without a final quality pass every call the twin saw is a search
        // evaluation; the memo makes one call per distinct step, flag and
        // dataset.
        let asked = twin_codec.asked.lock().unwrap();
        assert_eq!(twin.evaluations, asked.len(), "{what}");
        let on_sample = |len: usize| len != dataset.len();
        assert_eq!(
            asked.iter().any(|a| on_sample(a.2)),
            sampled,
            "{what}: sampled"
        );
        if !twin.regions.is_empty() && !sampled {
            let iterations: usize = twin.regions.iter().map(|r| r.iterations).sum();
            assert_eq!(iterations, twin.evaluations, "{what}");
        }
        let distinct: BTreeSet<(i64, bool, bool)> = asked
            .iter()
            .map(|&(bound, quality, len)| (steps.step_of(bound).unwrap(), quality, on_sample(len)))
            .collect();
        assert_eq!(memo.evaluations, distinct.len(), "{what}");
        // (A seeded walk may visit every step once.)
        assert!(
            memo.evaluations < twin.evaluations || sampled,
            "{what}: {} calls with the memo, {} without",
            memo.evaluations,
            twin.evaluations
        );
    }

    #[test]
    fn the_step_memo_changes_the_call_count_and_nothing_else() {
        for regime in ["smooth", "turbulence", "shock"] {
            let dims = Dims::d3(16, 16, 16);
            let dataset = synthetic::generate(regime, &dims, DType::F32, 20200118, 0).unwrap();
            let range = dataset.value_range();
            // A ratio the codec reaches: what it achieves at 1e-3 of the
            // value range.
            let reachable = registry::build_default("zfp")
                .unwrap()
                .evaluate(&dataset, 1e-3 * range, false)
                .unwrap()
                .compression_ratio;
            let ratio = SearchConfig {
                threads: 1,
                measure_final_quality: false,
                ..SearchConfig::new(reachable, 0.1)
            };
            memo_differential(
                &format!("{regime} ratio"),
                &dataset,
                ratio.clone(),
                None,
                false,
            );

            let psnr = QualitySearchConfig::new(QualityMetric::PsnrAtLeast(60.0));
            memo_differential(
                &format!("{regime} psnr"),
                &dataset,
                psnr.clone(),
                None,
                false,
            );
            // A budget that binds: the strategy counts answers, not calls,
            // so remembered answers do not buy it extra steps.
            let tight = QualitySearchConfig {
                max_iterations: 8,
                ..QualitySearchConfig::new(QualityMetric::PsnrAtLeast(40.0))
            };
            memo_differential(
                &format!("{regime} psnr, 8 steps"),
                &dataset,
                tight,
                None,
                false,
            );
            // A missed seed: the expansion walk instead of the sweep.
            let seed = SearchHint::seed(1e-6 * range, HintSource::External);
            memo_differential(
                &format!("{regime} psnr, seeded"),
                &dataset,
                psnr,
                Some(&seed),
                false,
            );

            // Above the sampling floor the cold ratio search walks from a
            // seed fitted on a sample.
            let cube = synthetic::generate(regime, &Dims::d3(32, 32, 32), DType::F32, 20200118, 0)
                .unwrap();
            let reachable = registry::build_default("zfp")
                .unwrap()
                .evaluate(&cube, 1e-3 * cube.value_range(), false)
                .unwrap()
                .compression_ratio;
            let seeded = SearchConfig {
                target_ratio: reachable,
                ..ratio
            };
            memo_differential(&format!("{regime} ratio, 32³"), &cube, seeded, None, true);
        }
    }

    /// [`CountingCodec`] read through a step function: the bound is floored
    /// to its power of two before the codec sees it, so everything it
    /// returns depends on the step alone, as `AccuracyTolerance` promises.
    /// Refuses (and counts) every bound on the `refused` step.
    struct SteppedCounting {
        inner: CountingCodec,
        refused: Option<i64>,
    }

    impl SteppedCounting {
        fn new(refused: Option<i64>) -> Arc<Self> {
            Arc::new(Self {
                inner: CountingCodec::new(smooth_field()),
                refused,
            })
        }
    }

    impl Compressor for SteppedCounting {
        fn name(&self) -> &str {
            "stepped"
        }
        fn bound_kind(&self) -> BoundKind {
            BoundKind::AccuracyTolerance
        }
        fn supports_dims(&self, _dims: &Dims) -> bool {
            true
        }
        fn bound_range(&self, dataset: &Dataset) -> (f64, f64) {
            self.inner.bound_range(dataset)
        }
        fn compress(&self, dataset: &Dataset, bound: f64) -> Result<Vec<u8>, PressioError> {
            let step = self.bound_kind().step_of(bound);
            if step.is_none() || step == self.refused {
                self.inner.calls.fetch_add(1, Ordering::Relaxed);
                return Err(PressioError::InvalidBound(format!("{bound}")));
            }
            self.inner
                .compress(dataset, 2f64.powi(step.unwrap() as i32))
        }
        fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
            self.inner.decompress(data)
        }
    }

    #[test]
    fn a_memo_answer_is_uncounted_cancellable_and_never_a_remembered_rejection() {
        let dataset = smooth_field();
        // Step −5 is [2⁻⁵, 2⁻⁴) = [0.03125, 0.0625).
        let codec = SteppedCounting::new(Some(-5));
        let token = CancelToken::new();
        let search = Search::new(codec.clone() as Arc<dyn Compressor>, ratio_config(10.0))
            .with_cancel(token.clone());
        let eval = Evaluator::new(&search, &dataset);
        let counts = || (eval.calls(), eval.answered(), codec.inner.calls());

        // 0.3 and 0.4 share step −2: one call, two answers, each carrying
        // the bound it was asked for.
        let first = eval.call(None, 0.3, false, false).unwrap();
        let remembered_at = |bound: f64| CompressionOutcome {
            error_bound: bound,
            ..first.clone()
        };
        assert_eq!(first.error_bound, 0.3);
        assert_eq!(eval.call(None, 0.4, false, false), Ok(remembered_at(0.4)));
        assert_eq!(counts(), (1, 2, 1));
        // The flag is part of the key, and another step is another call.
        assert!(eval.call(None, 0.4, true, false).unwrap().quality.is_some());
        assert!(eval
            .call(None, 0.35, true, false)
            .unwrap()
            .quality
            .is_some());
        assert!(eval.call(None, 0.6, false, false).is_ok());
        assert_eq!(counts(), (3, 5, 3));

        // A rejection is not remembered, as a failure or as a success: the
        // same step is asked again, and counted again.
        assert_eq!(eval.call(None, 0.04, false, false), Err(Miss::Rejected));
        assert_eq!(eval.call(None, 0.05, false, false), Err(Miss::Rejected));
        assert_eq!(counts(), (5, 7, 5));

        // A fired token wins over a remembered answer; only the shell's
        // forced fallback is served, and from the memo.
        token.cancel();
        assert_eq!(eval.call(None, 0.3, false, false), Err(Miss::Cancelled));
        assert_eq!(eval.call(None, 0.3, false, true), Ok(remembered_at(0.3)));
        assert_eq!(counts(), (5, 8, 5));
    }

    #[test]
    fn two_runners_share_the_memo_and_every_call_is_counted() {
        let dataset = smooth_field();
        let pool = Arc::new(Pool::new(2));
        for (target, feasible) in [(10.0, true), (500.0, false)] {
            let codec = SteppedCounting::new(None);
            let config = SearchConfig {
                measure_final_quality: false,
                ..SearchConfig::new(target, 0.1).with_threads(2)
            };
            let outcome = Search::new(codec.clone() as Arc<dyn Compressor>, config)
                .with_pool(Arc::clone(&pool))
                .run(&dataset);
            assert_eq!(outcome.evaluations, codec.inner.calls(), "{target}:1");
            assert_eq!(outcome.feasible, feasible, "{target}:1");
            let in_band = (outcome.best.compression_ratio - target).abs() <= 0.1 * target;
            assert_eq!(in_band, feasible, "{target}:1");
            // The reported outcome is what the codec gives at that bound.
            let direct = codec
                .evaluate(&dataset, outcome.error_bound, false)
                .unwrap();
            assert_eq!(outcome.best, direct, "{target}:1");
            // Twenty-one steps cover the codec's range, and two runners can
            // both miss a step once.
            assert!(outcome.evaluations <= 2 * 21, "{}", outcome.evaluations);
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
        // A hint bracket narrows the searched range only where they overlap.
        let hint = SearchHint::seed(1e-4, HintSource::Analytic).with_bracket(1e-5, 1e-2);
        assert_eq!(
            narrowed(capped.bound_range(&dataset), Some(&hint)),
            (1e-5, 1e-3)
        );
    }

    /// [`CountingCodec`] behind a codec range of `(0, 0)`.
    struct ZeroRange(CountingCodec);

    impl Compressor for ZeroRange {
        fn name(&self) -> &str {
            "zero-range"
        }
        fn supports_dims(&self, _dims: &Dims) -> bool {
            true
        }
        fn bound_range(&self, _dataset: &Dataset) -> (f64, f64) {
            (0.0, 0.0)
        }
        fn compress(&self, dataset: &Dataset, bound: f64) -> Result<Vec<u8>, PressioError> {
            self.0.compress(dataset, bound)
        }
        fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
            self.0.decompress(data)
        }
    }

    #[test]
    fn a_range_under_the_normal_numbers_is_lifted_to_them() {
        let dataset = smooth_field();
        let codec = Arc::new(ZeroRange(CountingCodec::new(smooth_field())));
        let search = Search::new(codec.clone() as Arc<dyn Compressor>, ratio_config(10.0));
        let (lower, upper) = search.bound_range(&dataset);
        assert_eq!((lower, upper), (f64::MIN_POSITIVE, 2.0 * f64::MIN_POSITIVE));
        // The race over it answers, best effort, instead of panicking.
        let outcome = search.run(&dataset);
        assert!(!outcome.feasible);
        assert_eq!(outcome.evaluations, codec.0.calls());
        assert!((lower..=upper).contains(&outcome.error_bound));
    }

    #[test]
    fn a_ceiling_below_the_floor_still_binds() {
        let dataset = smooth_field();
        let codec = || Arc::new(CountingCodec::new(smooth_field())) as Arc<dyn Compressor>;
        // A ceiling at or below the compressor's floor still binds: the
        // range is the sliver just under it.
        for u in [f64::MIN_POSITIVE, 1e-9, CountingCodec::LO] {
            let below = Search::new(codec(), SearchConfig::new(10.0, 0.1).with_max_error(u));
            let (lower, upper) = below.bound_range(&dataset);
            assert!(
                0.0 < lower && lower < upper && upper == u,
                "{lower} {upper}"
            );
            assert_eq!(below.clamp_bound(0.5, &dataset), u);
        }
        // A ceiling no bound could honour is no ceiling.
        for u in [0.0, -1.0, f64::NAN, 5e-324] {
            let unusable = Search::new(codec(), SearchConfig::new(10.0, 0.1).with_max_error(u));
            assert_eq!(
                unusable.bound_range(&dataset),
                (CountingCodec::LO, CountingCodec::HI)
            );
        }
    }
}
