//! The fixed-ratio [`Objective`]: a walk towards the band, and
//! region-parallel training (Algorithm 2) when the walk fails.
//!
//! Given a black-box error-bounded compressor, a dataset and a target
//! compression ratio, [`FixedRatioSearch`] finds an error-bound setting whose
//! achieved ratio falls inside the user's acceptable region
//! `[ρt(1−ε), ρt(1+ε)]`, never exceeding an optional maximum allowed error
//! `U`.  The [`Search`] shell probes the prediction (Algorithm 1) and makes
//! every compressor call; this module is the strategy it falls back to.
//!
//! The ratio saw-tooths locally but rises with the bound globally (paper
//! Fig. 3), so the strategy first **walks** — the bracketing walk
//! (`walk.rs`) the quality search drives, here in `ln(target / ratio)` with
//! a two-sided stop at the first in-band ratio — from the missed probe, or
//! on a cold search from a seed fitted on a sample of the field
//! (`SearchConfig::sampled_seed`).  Only when the walk spends
//! [`WALK_BUDGET`] answers without a hit, or its points contradict a ratio
//! that rises with the bound, does the paper's **race** run: the
//! error-bound range is split into overlapping regions searched
//! concurrently, the first region to find an acceptable setting cancels the
//! others (early termination), and if none succeeds the closest observed
//! ratio — the walk's included — is reported as an infeasible-but-best-effort
//! answer.  So a non-monotone curve is never a false `infeasible` that the
//! race alone would have met.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use fraz_data::DataBuffer;
use fraz_pressio::CompressionOutcome;

use crate::cancel::CancelToken;
use crate::hint::{HintReport, HintTarget, SearchHint};
use crate::loss::RatioLoss;
use crate::optim::{GlobalMinimizer, OptimizerConfig};
use crate::regions::{make_error_bounds, to_axis, Region};
use crate::sample;
use crate::search::{Evaluator, Found, Miss, Objective, Search};
use crate::walk::{nearest, walk, Goal, Plan, Verdict};

/// The most positions a ratio walk answers — the missed probe it starts
/// from included — before it leaves the search to the region race.  A
/// hinted search therefore costs at most this many evaluations more than a
/// cold one.
pub const WALK_BUDGET: usize = 8;

/// Positions of the sample a cold walk's seed is fitted from: two, and a
/// third when the second misses the band.
const SAMPLE_ANSWERS: usize = 3;

/// `ln(target / ratio)` per decade of bound a walk assumes from a single
/// point.  Near 1e-3 of the value range the built-in codecs' ratios grow
/// `e^0.15` (szx) to `e^0.7` (sz) per decade.
const SLOPE: f64 = -0.5;

/// A measured secant is trusted between these slopes only.
const SLOPE_LIMITS: (f64, f64) = (-5.0, -0.05);

/// The most decades a ratio walk steps below its lowest measured position.
/// Extrapolated from a point far above the band on a shallow slope — a
/// sample's ratio plateau — a step would otherwise reach the bottom of the
/// range, where the stream is nearly the field's size, the evaluation is
/// the slowest of the range, and the allocator keeps the memory it took.
const DESCENT: f64 = 2.0;

/// A ratio walk's bracket counts as closed this narrow (in decades): the
/// band was stepped over.  Well under the band's own width, so it only
/// decides when bisection takes over from the secant.
const TOLERANCE: f64 = 1e-3;

/// Configuration of a fixed-ratio search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Target compression ratio `ρt`.
    pub target_ratio: f64,
    /// Acceptable relative deviation `ε` from the target ratio.
    pub tolerance: f64,
    /// Maximum allowed compression error `U`; `None` uses the compressor's
    /// full valid range (the paper's default upper bound).
    pub max_error_bound: Option<f64>,
    /// Number of overlapping search regions (the paper found 12 to be a good
    /// default).
    pub regions: usize,
    /// Maximum objective evaluations per region.
    pub max_iterations: usize,
    /// Concurrent worker tasks for region-parallel training; 0 means one
    /// per region, capped by the pool's workers.  Region tasks run on the
    /// search's [`fraz_pool::Pool`], so this caps the number of regions in
    /// flight for *this* search, not OS threads.
    pub threads: usize,
    /// After the search, attach full quality metrics to the answer: the
    /// final quality pass measures the reconstruction the answer's encoder
    /// built (sz, mgard), decodes the stream the answer holds (zfp), or,
    /// for an answer measured without writing one (szx's size-only
    /// evaluation, a step-memo answer), evaluates its bound once more with
    /// quality.  Not a search evaluation either way; skipped once the token
    /// has fired.
    pub measure_final_quality: bool,
    /// Walk towards the band before racing (on by default): from the missed
    /// hint probe, or on a cold search from a seed fitted on a sample of the
    /// field — its central box, an eighth to a quarter of its values and at
    /// least 4 096, so a field under 16 384 values is never sampled and its
    /// cold search is the race alone.  Off, every search that misses its
    /// probe is Algorithm 2's race, as the paper runs it.
    pub sampled_seed: bool,
}

impl SearchConfig {
    /// A search for `target_ratio` within relative tolerance `tolerance`,
    /// with the paper's defaults for everything else.
    pub fn new(target_ratio: f64, tolerance: f64) -> Self {
        Self {
            target_ratio,
            tolerance,
            max_error_bound: None,
            regions: 12,
            max_iterations: 24,
            threads: 0,
            measure_final_quality: true,
            sampled_seed: true,
        }
    }

    /// Builder-style setter for the maximum allowed compression error `U`.
    pub fn with_max_error(mut self, max_error_bound: f64) -> Self {
        self.max_error_bound = Some(max_error_bound);
        self
    }

    /// Builder-style setter for the number of regions.
    pub fn with_regions(mut self, regions: usize) -> Self {
        self.regions = regions.max(1);
        self
    }

    /// Builder-style setter for the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn loss(&self) -> RatioLoss {
        RatioLoss::new(self.target_ratio, self.tolerance)
    }

    /// What the walk reads off an outcome: ok below the target, a hit
    /// inside the band, its margin `ln(target / ratio)`.
    fn verdict(&self, outcome: &CompressionOutcome) -> Verdict {
        let ratio = outcome.compression_ratio;
        let margin = (self.target_ratio / ratio).ln();
        Verdict {
            ok: ratio < self.target_ratio,
            hit: self.loss().is_acceptable(ratio),
            margin: margin.is_finite().then_some(margin),
        }
    }

    /// A walk over `range` until the run has answered `answers` times,
    /// starting at `start` (when nothing is measured yet) on `slope`.
    fn plan(&self, range: (f64, f64), answers: usize, start: f64, slope: f64) -> Plan {
        Plan {
            goal: Goal::Band,
            range,
            tolerance: TOLERANCE,
            answers: answers as i32,
            start,
            slope,
            slope_limits: SLOPE_LIMITS,
            descent: DESCENT,
        }
    }

    /// The race's runners on a pool of `pool_threads` workers.
    fn worker_count(&self, pool_threads: usize) -> usize {
        if self.threads == 0 {
            self.regions.min(pool_threads)
        } else {
            self.threads.min(self.regions).max(1)
        }
    }
}

/// Result of searching one region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionOutcome {
    /// The region that was searched.
    pub region: Region,
    /// Best error bound found in the region.
    pub error_bound: f64,
    /// Compression ratio achieved at that bound.
    pub compression_ratio: f64,
    /// Loss at that bound.
    pub loss: f64,
    /// Number of objective evaluations spent in the region: every bound the
    /// optimiser had answered, whether by a compressor call or from the
    /// run's step memo (the calls alone are
    /// [`SearchOutcome::evaluations`]).
    pub iterations: usize,
    /// True if the region's search hit the early-termination cutoff.
    pub reached_cutoff: bool,
    /// True if the region was stopped by another region's success or by the
    /// search's token.
    pub cancelled: bool,
    /// The full compression outcome measured at `error_bound`, carried out
    /// of the region so the winning bound need not be re-compressed after
    /// the race (absent only if the best evaluation errored).  Its stream
    /// and reconstruction leave with the search's answer: neither is held
    /// here once the race is over.
    pub measured: Option<CompressionOutcome>,
}

/// Result of a fixed-ratio search on one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// The recommended error-bound setting.
    pub error_bound: f64,
    /// The outcome of compressing at that setting, usually with the stream
    /// it was measured on ([`answer_bytes`](crate::answer_bytes) hands it
    /// over), and with quality metrics when `measure_final_quality` is set
    /// and the token did not fire: the report a quality evaluation at
    /// `error_bound` gives, bit for bit.
    pub best: CompressionOutcome,
    /// True when the achieved ratio lies inside the acceptable region —
    /// i.e. the requested ratio was feasible.
    pub feasible: bool,
    /// Whether a fresh training search ran (false when a previous time-step's
    /// prediction was reused, Algorithm 1).
    pub retrained: bool,
    /// Total number of compressor invocations the *search* spent (the
    /// optional final quality pass of `measure_final_quality` — a report
    /// over the held reconstruction, a decode of the held stream, or one
    /// measured evaluation — is not a search evaluation and is not
    /// counted).
    pub evaluations: usize,
    /// Wall-clock time of the whole search.
    pub elapsed: Duration,
    /// Per-region details (empty when no race ran: the prediction was
    /// reused, or the walk answered).
    pub regions: Vec<RegionOutcome>,
    /// What the search did with its seeding hint (`None` on cold runs).
    pub hint: Option<HintReport>,
    /// True when the search's [`CancelToken`] stopped it early (deadline or
    /// explicit cancel; the race's own early termination never sets it):
    /// `best` is then the best-so-far answer, not a converged one.
    pub deadline_hit: bool,
}

/// The FRaZ fixed-ratio search driver for a single compressor: the
/// [`Search`] shell running this module's walk, with the region race below
/// as its fallback.
pub type FixedRatioSearch = Search<SearchConfig>;

impl Objective for SearchConfig {
    type Outcome = SearchOutcome;

    /// The compressed size alone decides a ratio evaluation.
    const JUDGES_QUALITY: bool = false;

    fn hint_target(&self) -> HintTarget {
        HintTarget::Ratio {
            target_ratio: self.target_ratio,
            tolerance: self.tolerance,
        }
    }

    fn max_error_bound(&self) -> Option<f64> {
        self.max_error_bound
    }

    fn reports_quality(&self) -> bool {
        self.measure_final_quality
    }

    /// Any in-band ratio is an answer, whatever the hint's provenance.
    fn settles(&self, _hint: &SearchHint, probe: &CompressionOutcome) -> bool {
        self.loss().is_acceptable(probe.compression_ratio)
    }

    /// The walk from the missed probe, or from a sampled seed; the race
    /// over `range` when it fails.
    fn search(
        eval: &Evaluator<'_, Self>,
        range: (f64, f64),
        probe: Option<(&HintReport, CompressionOutcome)>,
    ) -> Found {
        let config = eval.config();
        let (first, plan) = match probe {
            _ if !config.sampled_seed => (None, None),
            // The missed probe is the walk's first answer.
            Some((_, probe)) => {
                let answers = eval.answered() + WALK_BUDGET - 1;
                let x = to_axis(probe.error_bound);
                (Some(probe), Some(config.plan(range, answers, x, SLOPE)))
            }
            None => (None, seeded(eval, range)),
        };
        let mut walked = plan.map_or_else(Vec::new, |plan| {
            walk(
                &plan,
                first,
                || eval.answered(),
                |bound, _| eval.measure(bound),
                |outcome| config.verdict(outcome),
            )
        });
        // The hit — or, when the race finds nothing in the band either, the
        // walk's position nearest the target if it beats the race's — with
        // the bytes it holds.
        let walked = nearest(&walked).and_then(|i| {
            let step = walked.swap_remove(i);
            Some((step.verdict.hit, step.outcome?))
        });
        if let Some((true, hit)) = walked {
            return Found {
                bound: hit.error_bound,
                measured: Some(hit),
                met: true,
                regions: Vec::new(),
            };
        }
        let mut found = race(eval, range);
        let loss = config.loss();
        let race_loss = found
            .measured
            .as_ref()
            .map_or(f64::INFINITY, |m| loss.loss(m.compression_ratio));
        match walked {
            Some((_, near)) if !found.met && loss.loss(near.compression_ratio) < race_loss => {
                found.bound = near.error_bound;
                found.measured = Some(near);
            }
            _ => {}
        }
        found
    }
}

/// A cold walk's plan: it starts where a sample of the field puts the
/// target, on the slope the sample measured there — the secant, in
/// `ln ratio` against `log10 bound`, through the two sample positions
/// nearest the target (the default slope from one).  `None` when the field
/// is too small to sample or the sample's ratio does not rise with the
/// bound.  The sample is walked like the field, size-only, through
/// [`Evaluator::measure_sample`]: from the middle of the axis, for at most
/// [`SAMPLE_ANSWERS`] answers.
fn seeded(eval: &Evaluator<'_, SearchConfig>, range: (f64, f64)) -> Option<Plan> {
    let config = eval.config();
    let sample = sample::central(eval.dataset())?;
    let (xlo, xhi) = (to_axis(range.0), to_axis(range.1));
    let plan = config.plan(
        range,
        eval.answered() + SAMPLE_ANSWERS,
        0.5 * (xlo + xhi),
        SLOPE,
    );
    let steps = walk(
        &plan,
        None,
        || eval.answered(),
        |bound, _| eval.measure_sample(&sample, bound),
        |outcome| config.verdict(outcome),
    );
    let mut points: Vec<(f64, f64)> = steps
        .iter()
        .filter_map(|s| Some((s.x, s.verdict.margin?)))
        .collect();
    points.sort_by(|a, b| a.1.abs().total_cmp(&b.1.abs()));
    let &(x, margin) = points.first()?;
    let slope = match points.iter().find(|p| p.0 != x) {
        Some(&(x2, margin2)) => (margin2 - margin) / (x2 - x),
        None => SLOPE,
    };
    (slope < 0.0).then(|| {
        let slope = slope.clamp(SLOPE_LIMITS.0, SLOPE_LIMITS.1);
        let start = (x - margin / slope).clamp(xlo, xhi);
        config.plan(range, eval.answered() + WALK_BUDGET, start, slope)
    })
}

/// Algorithm 2: region-parallel training over `(lower, upper)`.
fn race(eval: &Evaluator<'_, SearchConfig>, (lower, upper): (f64, f64)) -> Found {
    let config = eval.config();
    let mut regions = make_error_bounds(lower, upper, config.regions);
    let workers = config
        .worker_count(eval.pool().threads())
        .min(regions.len())
        .max(1);

    // `workers` runner tasks drain the regions through a shared atomic
    // cursor — any idle runner claims the next region — with no queue or
    // result mutex, and zero OS threads spawned here.  Highest-bound regions
    // go first: for targets well above 1:1 they are the likeliest to contain
    // the answer, which is what makes early termination pay.
    regions.reverse();
    let race = Race {
        eval,
        loss: config.loss(),
        regions,
        next: AtomicUsize::new(0),
        cancel: eval.child_token(),
        held: Mutex::new(None),
    };
    let mut slots: Vec<Vec<RegionOutcome>> = vec![Vec::new(); workers];
    if workers == 1 {
        race.run_queue(0, &mut slots[0]);
    } else {
        eval.pool().scope(|scope| {
            let race = &race;
            for (runner, slot) in slots.iter_mut().enumerate() {
                scope.spawn(move || race.run_queue(runner, slot));
            }
        });
    }
    let regions: Vec<RegionOutcome> = slots.into_iter().flatten().collect();

    // The first region with the smallest loss wins; it already measured its
    // best bound, so that outcome — and the stream it was measured on, with
    // the encoder's reconstruction, which the race held for it — is reused
    // instead of re-running the compressor (absent only if the best
    // evaluation errored).
    let best = regions
        .iter()
        .reduce(|best, r| if r.loss < best.loss { r } else { best });
    let held = race.held.into_inner().unwrap_or_else(|e| e.into_inner());
    let (bound, measured, met) = match best {
        Some(b) => (
            b.error_bound,
            b.measured.clone().map(|measured| {
                let held = held.filter(|held| held.bound == b.error_bound);
                let (stream, recon) = held.map_or((None, None), |h| (Some(h.stream), h.recon));
                CompressionOutcome {
                    stream,
                    recon,
                    ..measured
                }
            }),
            race.loss.is_acceptable(b.compression_ratio),
        ),
        None => (lower, None, false),
    };
    Found {
        bound,
        measured,
        met,
        regions,
    }
}

/// What the runner tasks of one race share.
struct Race<'a, 'e> {
    eval: &'a Evaluator<'e, SearchConfig>,
    loss: RatioLoss,
    /// In the order they are claimed.
    regions: Vec<Region>,
    next: AtomicUsize,
    /// Early termination: a child of the search's token, so one check sees
    /// both a region's hit and the search's deadline.
    cancel: CancelToken,
    /// The one stream (and reconstruction) the race holds on to: that of
    /// the region outcome that would win if the race ended now.
    held: Mutex<Option<Held>>,
}

/// A finished region's bytes, and what ranks them: the winner is the
/// smallest loss, the first in `(runner, claim)` order among equals.
struct Held {
    loss: f64,
    runner: usize,
    bound: f64,
    stream: Vec<u8>,
    recon: Option<DataBuffer>,
}

impl Race<'_, '_> {
    /// One runner task: repeatedly claim the next unstarted region via the
    /// shared cursor and search it, observing and firing the shared
    /// early-termination token (Algorithm 2, lines 9-14).
    fn run_queue(&self, runner: usize, out: &mut Vec<RegionOutcome>) {
        let (loss, cancel) = (&self.loss, &self.cancel);
        loop {
            if cancel.is_cancelled() {
                break;
            }
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(region) = self.regions.get(index) else {
                break;
            };
            let mut outcome = search_region(self.eval, loss, *region, cancel);
            self.offer(runner, &mut outcome);
            let acceptable = loss.is_acceptable(outcome.compression_ratio);
            out.push(outcome);
            if acceptable {
                // Early termination: cancel every region that has not
                // finished yet.
                cancel.cancel();
                break;
            }
        }
    }

    /// A region outcome is a measurement: its stream and reconstruction
    /// stay with the race if it would win now, and are dropped otherwise.
    fn offer(&self, runner: usize, outcome: &mut RegionOutcome) {
        let Some(measured) = outcome.measured.as_mut() else {
            return;
        };
        let recon = measured.recon.take();
        let Some(stream) = measured.stream.take() else {
            return;
        };
        let mut held = self.held.lock().unwrap_or_else(|e| e.into_inner());
        let wins = held.as_ref().is_none_or(|held| {
            outcome.loss < held.loss || (outcome.loss == held.loss && runner < held.runner)
        });
        if wins {
            *held = Some(Held {
                loss: outcome.loss,
                runner,
                bound: outcome.error_bound,
                stream,
                recon,
            });
        }
    }
}

/// Worker task for one region (the inner call of Algorithm 1:
/// `train_with_cutoff`).
fn search_region(
    eval: &Evaluator<'_, SearchConfig>,
    loss: &RatioLoss,
    region: Region,
    cancel: &CancelToken,
) -> RegionOutcome {
    // Track the best full outcome seen so the caller can reuse the
    // winning measurement instead of re-compressing after the race.
    let mut best_seen: Option<(f64, CompressionOutcome)> = None;
    // Per-region detail: the minimizer also records the call-free step a
    // fired token answers below.
    let mut iterations = 0usize;
    let mut objective = |e: f64| match eval.measure(e) {
        Ok(outcome) => {
            iterations += 1;
            let l = loss.loss(outcome.compression_ratio);
            let ratio = outcome.compression_ratio;
            if best_seen.as_ref().is_none_or(|(seen, _)| l < *seen) {
                best_seen = Some((l, outcome));
            }
            (l, ratio)
        }
        Err(miss) => {
            // A fired search token has fired `cancel` too, which the
            // minimizer polls between evaluations; the gamma loss can never
            // displace a real best-so-far observation.
            if miss == Miss::Rejected {
                iterations += 1;
            }
            (loss.gamma, 0.0)
        }
    };
    let config = eval.config();
    let optimizer = GlobalMinimizer::new(OptimizerConfig {
        max_evaluations: config.max_iterations,
        cutoff: loss.cutoff(),
    });
    let trace = optimizer.minimize(&mut objective, region.lower, region.upper, Some(cancel));
    // Both trackers keep the *first* minimum in evaluation order, so
    // this equality holds whenever the best evaluation succeeded; the
    // comparison guards the corner where it errored (loss = gamma).
    let measured = best_seen
        .map(|(_, outcome)| outcome)
        .filter(|outcome| outcome.error_bound == trace.best.x);
    RegionOutcome {
        region,
        error_bound: trace.best.x,
        compression_ratio: trace.best.ratio,
        loss: trace.best.loss,
        iterations,
        reached_cutoff: trace.reached_cutoff,
        cancelled: trace.cancelled,
        measured,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::hint::HintSource;
    use crate::search::tests::{ratio_config, smooth_field, CountingCodec};
    use fraz_pressio::{registry, Compressor};

    fn quick_config(target: f64) -> SearchConfig {
        SearchConfig {
            regions: 4,
            max_iterations: 16,
            threads: 2,
            ..SearchConfig::new(target, 0.1)
        }
    }

    #[test]
    fn feasible_target_is_hit_within_tolerance() {
        let dataset = smooth_field();
        let search =
            FixedRatioSearch::new(registry::build_default("sz").unwrap(), quick_config(10.0));
        let outcome = search.run(&dataset);
        assert!(outcome.feasible, "10:1 should be feasible on smooth data");
        assert!(
            (outcome.best.compression_ratio - 10.0).abs() <= 1.0 + 1e-9,
            "ratio {}",
            outcome.best.compression_ratio
        );
        assert!(outcome.retrained);
        assert!(outcome.evaluations >= 1);
        assert!(outcome.best.quality.is_some());
        // The recommended bound really is what produced that ratio.
        let check = search
            .compressor()
            .evaluate(&dataset, outcome.error_bound, false)
            .unwrap();
        assert!((check.compression_ratio - outcome.best.compression_ratio).abs() < 1e-9);
    }

    #[test]
    fn infeasible_target_reports_closest_ratio() {
        let dataset = smooth_field();
        // A ratio below the codec's effective floor (headers alone prevent
        // 1.01:1 exactly) is infeasible; FRaZ must say so and return its
        // closest observation rather than erroring.
        let config = SearchConfig {
            tolerance: 0.001,
            ..quick_config(1.01)
        };
        let search = FixedRatioSearch::new(registry::build_default("sz").unwrap(), config);
        let outcome = search.run(&dataset);
        assert!(!outcome.feasible);
        assert!(outcome.best.compression_ratio > 0.0);
        assert!(!outcome.regions.is_empty());
    }

    #[test]
    fn prediction_reuse_skips_training() {
        let dataset = smooth_field();
        let search =
            FixedRatioSearch::new(registry::build_default("sz").unwrap(), quick_config(10.0));
        let first = search.run(&dataset);
        assert!(first.feasible);
        let hint = SearchHint::converged(first.error_bound, HintSource::External);
        let second = search.run_with_hint(&dataset, Some(&hint));
        assert!(second.feasible);
        assert!(!second.retrained, "prediction should have been reused");
        assert_eq!(second.evaluations, 1);
        assert!(second.regions.is_empty());
    }

    #[test]
    fn bad_prediction_falls_back_to_training() {
        let dataset = smooth_field();
        let search =
            FixedRatioSearch::new(registry::build_default("sz").unwrap(), quick_config(10.0));
        let hint = SearchHint::converged(1e-12, HintSource::External);
        let outcome = search.run_with_hint(&dataset, Some(&hint));
        assert!(
            outcome.retrained,
            "a useless prediction must trigger training"
        );
        assert!(outcome.feasible);
    }

    #[test]
    fn max_error_bound_is_respected() {
        let dataset = smooth_field();
        let range = dataset.stats().value_range();
        let cap = range * 1e-6;
        let config = quick_config(200.0).with_max_error(cap);
        let search = FixedRatioSearch::new(registry::build_default("sz").unwrap(), config);
        let (_, upper) = search.bound_range(&dataset);
        assert!(upper <= cap * (1.0 + 1e-9));
        let outcome = search.run(&dataset);
        // With such a tight error ceiling a 200:1 ratio is infeasible, and
        // the recommended bound must never exceed the ceiling.
        assert!(outcome.error_bound <= cap * (1.0 + 1e-9));
        assert!(!outcome.feasible);
    }

    #[test]
    fn works_with_every_error_bounded_backend() {
        let dataset = smooth_field();
        for name in registry::error_bounded_names() {
            let backend = registry::build_default(&name).unwrap();
            if !backend.supports_dims(&dataset.dims) {
                continue;
            }
            let search = FixedRatioSearch::new(backend, quick_config(8.0));
            let outcome = search.run(&dataset);
            assert!(
                outcome.best.compression_ratio > 1.0,
                "{name}: ratio {}",
                outcome.best.compression_ratio
            );
        }
    }

    #[test]
    fn single_threaded_and_parallel_agree_on_feasibility() {
        let dataset = smooth_field();
        let serial = FixedRatioSearch::new(
            registry::build_default("sz").unwrap(),
            SearchConfig {
                threads: 1,
                ..quick_config(12.0)
            },
        )
        .run(&dataset);
        let parallel = FixedRatioSearch::new(
            registry::build_default("sz").unwrap(),
            SearchConfig {
                threads: 4,
                ..quick_config(12.0)
            },
        )
        .run(&dataset);
        assert_eq!(serial.feasible, parallel.feasible);
    }

    fn counting_search(
        target: f64,
        measure_final_quality: bool,
    ) -> (FixedRatioSearch, Arc<CountingCodec>) {
        let codec = Arc::new(CountingCodec::new(smooth_field()));
        let config = SearchConfig {
            measure_final_quality,
            ..ratio_config(target)
        };
        let search = FixedRatioSearch::new(codec.clone() as Arc<dyn Compressor>, config);
        (search, codec)
    }

    #[test]
    fn hinted_hit_costs_exactly_one_compression() {
        let dataset = smooth_field();
        for mfq in [false, true] {
            let (search, codec) = counting_search(10.0, mfq);
            let hint = SearchHint::converged(CountingCodec::bound_for(10.0), HintSource::TuneCache);
            let outcome = search.run_with_hint(&dataset, Some(&hint));
            assert!(outcome.feasible && !outcome.retrained);
            // The probe IS the verify pass: one compressor call total, and
            // `evaluations` reports that true count (the pre-refactor code
            // spent a second, uncounted call on the quality pass).
            assert_eq!(outcome.evaluations, 1, "mfq={mfq}");
            assert_eq!(codec.calls(), 1, "mfq={mfq}");
            assert_eq!(outcome.best.quality.is_some(), mfq);
            let report = outcome.hint.expect("hinted run reports its hint");
            assert!(report.hit);
            assert_eq!(report.probes, 1);
            assert_eq!(report.source, HintSource::TuneCache);
            assert!(outcome.regions.is_empty());
        }
    }

    #[test]
    fn hint_bracket_narrows_the_fallback_range() {
        let dataset = smooth_field();
        let (search, _) = counting_search(10.0, false);
        let answer = CountingCodec::bound_for(10.0);
        // A missing hint bound with a tight bracket around the answer: the
        // fallback race must stay inside the bracket and still converge.
        let hint = SearchHint::seed(CountingCodec::LO, HintSource::Analytic)
            .with_bracket(answer / 10.0, answer * 10.0);
        let outcome = search.run_with_hint(&dataset, Some(&hint));
        assert!(outcome.feasible);
        for region in &outcome.regions {
            assert!(region.region.lower >= answer / 10.0 * (1.0 - 1e-9));
            assert!(region.region.upper <= answer * 10.0 * (1.0 + 1e-9));
        }
    }

    #[test]
    fn config_builders() {
        let c = SearchConfig::new(50.0, 0.05)
            .with_regions(6)
            .with_threads(3)
            .with_max_error(0.5);
        assert_eq!(c.regions, 6);
        assert_eq!(c.threads, 3);
        assert_eq!(c.max_error_bound, Some(0.5));
        assert_eq!(c.worker_count(8), 3);
        assert_eq!(c.worker_count(2), 3);
        assert_eq!(c.clone().with_threads(0).worker_count(4), 4);
        assert_eq!(c.with_threads(0).worker_count(8), 6);
        assert_eq!(SearchConfig::new(10.0, 0.1).with_regions(0).regions, 1);
    }

    #[test]
    fn a_walk_descends_at_most_descent_below_what_it_measured() {
        // The top of the range is 30× above the band, and the walk's slope is
        // a sample's plateau: extrapolated from the top, one step lands 48
        // decades down.  `ln ratio` rises 1.3 per decade of bound.
        let config = SearchConfig::new(13.8, 0.05);
        let measure = |bound: f64| {
            Ok(CompressionOutcome {
                compressor: "shaped".into(),
                error_bound: bound,
                compression_ratio: 13.8 * (1.3 * (bound.log10() + 2.6)).exp(),
                bit_rate: 0.0,
                compressed_bytes: 0,
                original_bytes: 0,
                quality: None,
                stream: None,
                recon: None,
            })
        };
        let positions = |descent: f64| {
            let plan = Plan {
                descent,
                ..config.plan((1e-9, 1.0), WALK_BUDGET, 0.0, -0.07)
            };
            let answered = std::cell::Cell::new(0);
            let steps = walk(
                &plan,
                None,
                || answered.get(),
                |bound, _| {
                    answered.set(answered.get() + 1);
                    measure(bound)
                },
                |outcome| config.verdict(outcome),
            );
            assert!(steps.last().unwrap().verdict.hit, "descent {descent}");
            steps.iter().map(|s| s.x).collect::<Vec<f64>>()
        };

        let limited = positions(DESCENT);
        for (i, x) in limited.iter().enumerate().skip(1) {
            let lowest = limited[..i].iter().copied().fold(f64::INFINITY, f64::min);
            assert!(*x >= lowest - DESCENT - 1e-12, "{limited:?}");
        }
        assert_eq!(limited.len(), 3, "{limited:?}");
        // Unlimited, the second position is the bottom of the range.
        assert_eq!(positions(f64::INFINITY)[1], to_axis(1e-9));
    }
}
