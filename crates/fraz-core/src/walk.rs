//! The bracketing walk both objectives drive.
//!
//! A walk moves along the `log10(bound)` axis of a search's range.  Every
//! position it measures is a [`Step`]: on the *ok* side of the target (the
//! answer lies at or above it) or not, and — when the objective can say —
//! how far from the target, as a signed margin that is positive on the ok
//! side and falls as the bound grows.  The walk keeps the largest ok
//! position and the smallest other one above it, and puts the next position
//! where the measured margins put the crossing: on the secant through the
//! two margin-carrying points nearest the bracket's middle, or from a single
//! point along the [`Plan`]'s slope — unless the answers still affordable
//! could not bisect what would be left of the bracket, in which case it is
//! moved towards the midpoint until they can.
//!
//! The two objectives differ only in their [`Plan`]:
//!
//! * a quality constraint ([`crate::quality`]) wants the **largest**
//!   satisfying position: [`Goal::Boundary`], in dB of margin, closed to
//!   [`quality::TOLERANCE`](crate::quality::TOLERANCE) inside bisection's
//!   budget;
//! * a ratio target ([`crate::ratio`]) wants **any** position in its band:
//!   [`Goal::Band`], in `ln(target / ratio)`, on a fixed budget — it stops at
//!   the first hit, and gives up as soon as its points contradict a ratio
//!   that rises with the bound (the saw-tooth of paper Fig. 3), leaving the
//!   rest to the region race.
//!
//! A walk never calls the compressor itself: every position is answered by
//! the `measure` it is handed — the search's [`Evaluator`](crate::search::Evaluator),
//! on the field or on a sample of it.  A [`Goal::Boundary`] walk hands it a
//! *hedge* with each position, too: the bound a tolerance above, where the
//! walk goes next when the position satisfies by less than a tolerance's
//! worth of margin — which `measure` may evaluate at the same time
//! ([`Evaluator::measure_hedged`](crate::search::Evaluator::measure_hedged)).
//! Which positions the walk asks for does not depend on it.

use fraz_pressio::CompressionOutcome;

use crate::regions::{from_axis, to_axis};
use crate::search::Miss;

/// What a walk looks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Goal {
    /// The largest ok position, to within the plan's tolerance.
    Boundary,
    /// Any position that hits the target: the walk stops at the first, and
    /// gives up once an ok position lies above one that is not.
    Band,
}

/// What an objective reads off one measured outcome.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Verdict {
    /// The answer lies at or above the outcome's bound.
    pub ok: bool,
    /// The outcome meets the target outright ([`Goal::Band`] only).
    pub hit: bool,
    /// Signed distance to the target: positive on the ok side, falling as
    /// the bound grows.
    pub margin: Option<f64>,
}

/// One answered position of a walk.  A bound the codec refuses cannot be
/// the answer, so it counts as not ok (and carries nothing).  Only the
/// position the walk would answer with now keeps its outcome's stream and
/// reconstruction.
pub(crate) struct Step {
    /// Position on the `log10(bound)` axis.
    pub x: f64,
    /// What the objective read off the outcome (the default for a refusal).
    pub verdict: Verdict,
    /// What was measured at `x`.
    pub outcome: Option<CompressionOutcome>,
}

impl Step {
    /// The answer at `x` as judged by `judge`, unless the token had fired.
    fn new(
        x: f64,
        answer: Result<CompressionOutcome, Miss>,
        judge: impl Fn(&CompressionOutcome) -> Verdict,
    ) -> Option<Self> {
        let outcome = match answer {
            Err(Miss::Cancelled) => return None,
            Err(Miss::Rejected) => None,
            Ok(outcome) => Some(outcome),
        };
        Some(Self {
            x,
            verdict: outcome.as_ref().map(judge).unwrap_or_default(),
            outcome,
        })
    }
}

/// Everything a walk is told before it starts.
pub(crate) struct Plan {
    pub goal: Goal,
    /// The `(lower, upper)` bound range the walk may try.
    pub range: (f64, f64),
    /// The bracket width, on the axis, that counts as closed.
    pub tolerance: f64,
    /// The run's answer count ([`Evaluator::answered`](crate::search::Evaluator::answered))
    /// at which the walk stops.
    pub answers: i32,
    /// Where the first position goes when nothing is measured yet (`+∞`:
    /// the top of the range).
    pub start: f64,
    /// Margin per decade of bound assumed until two measured points give a
    /// secant of their own.
    pub slope: f64,
    /// A measured secant is trusted between these slopes only.
    pub slope_limits: (f64, f64),
    /// The farthest, on the axis, a position goes below the lowest one
    /// measured (`+∞`: no limit).  Low bounds are where a codec's streams,
    /// time and working memory are largest.
    pub descent: f64,
}

impl Plan {
    /// The range on the walk's axis.
    pub fn axis(&self) -> (f64, f64) {
        (to_axis(self.range.0), to_axis(self.range.1))
    }

    /// The bound at axis position `x`, inside the range.
    pub fn bound_at(&self, x: f64) -> f64 {
        let (lower, upper) = self.range;
        let (xlo, xhi) = self.axis();
        match x {
            x if x >= xhi => upper,
            x if x <= xlo => lower,
            x => from_axis(x).clamp(lower, upper),
        }
    }
}

/// Walk from `first` (an outcome already measured, if any): ask `measure`
/// for each bound the walk picks, with the hedge a [`Goal::Boundary`] walk
/// might want next — a fired token stops the walk — have `judge` read each
/// outcome, and hand back every step.  `answered` is the run's answer
/// count, which [`Plan::answers`] is measured against.
pub(crate) fn walk(
    plan: &Plan,
    first: Option<CompressionOutcome>,
    answered: impl Fn() -> usize,
    measure: impl Fn(f64, Option<f64>) -> Result<CompressionOutcome, Miss>,
    judge: impl Fn(&CompressionOutcome) -> Verdict,
) -> Vec<Step> {
    let (xlo, xhi) = plan.axis();
    // The widest bracket `answers` bisections close.
    let reach = |answers: i32| plan.tolerance * 2f64.powi(answers);
    let mut seen: Vec<Step> = Vec::new();
    if let Some(first) = first.and_then(|o| Step::new(to_axis(o.error_bound), Ok(o), &judge)) {
        push(&mut seen, first, plan.goal);
    }

    loop {
        let left = plan.answers - answered() as i32;
        let (ok, bad) = bracket(&seen);
        let (lo, hi) = (ok.unwrap_or(xlo), bad.unwrap_or(xhi));
        // (A closing position is a tolerance from its side up to rounding.)
        let closed = hi - lo <= plan.tolerance + 1e-9;
        let over = plan.goal == Goal::Band
            && (seen.last().is_some_and(|s| s.verdict.hit) || contradicted(&seen));
        // A hit or a contradiction, the budget is spent, the top is ok, the
        // floor is not, or the two sides have met.
        if over || left <= 0 || lo >= xhi || hi <= xlo || (closed && ok.is_some()) {
            break;
        }
        let at = predicted(plan, &seen, 0.5 * (lo + hi));
        let x = if at >= hi && bad.is_none() {
            xhi
        } else if closed || (at <= lo && ok.is_none()) {
            xlo
        } else {
            // Contradicted by the bracket, or no margin to go by: bisect.
            let at = if at > lo && at < hi {
                at
            } else {
                0.5 * (lo + hi)
            };
            // Within a tolerance of a known side, the position a tolerance
            // from that side closes the bracket if it lands as predicted.
            let near_ok = ok.is_some() && at - lo < plan.tolerance;
            let near_bad = bad.is_some() && hi - at < plan.tolerance;
            let at = if near_ok && (!near_bad || at - lo <= hi - at) {
                lo + plan.tolerance
            } else if near_bad {
                hi - plan.tolerance
            } else {
                at
            };
            // No further from the midpoint than lets bisection close
            // whichever side the boundary turns out to be on with the
            // answers left (closing onto the unmeasured floor costs one
            // more).
            let (min, max) = (
                hi - reach(left - 1),
                lo + reach(left - 1 - ok.is_none() as i32),
            );
            if min <= max {
                at.clamp(min, max)
            } else {
                at
            }
        };
        let x = match seen.iter().map(|s| s.x).reduce(f64::min) {
            Some(lowest) => x.max(lowest - plan.descent),
            None => x,
        };
        // Where a boundary walk goes next when `x` satisfies by under a
        // tolerance (the near-side rule above) — unless the walk stops after
        // `x` anyway: the budget spent, or the bracket closed.
        let hedge = plan.goal == Goal::Boundary
            && left > 1
            && bad.is_none_or(|_| hi - x > plan.tolerance + 1e-9);
        let hedge = hedge.then(|| plan.bound_at(x + plan.tolerance));
        match Step::new(x, measure(plan.bound_at(x), hedge), &judge) {
            Some(step) => push(&mut seen, step, plan.goal),
            None => break,
        }
    }
    seen
}

/// Record `new`, leaving the bytes — stream and reconstruction — with the
/// position the walk would answer with now — the largest ok one
/// ([`Goal::Boundary`]), the hit or else the one nearest the target
/// ([`Goal::Band`]) — and with nothing else.
fn push(seen: &mut Vec<Step>, new: Step, goal: Goal) {
    seen.push(new);
    let answer = match goal {
        Goal::Boundary => bracket(seen).0,
        Goal::Band => nearest(seen).map(|i| seen[i].x),
    };
    for passed in seen.iter_mut().filter(|p| Some(p.x) != answer) {
        if let Some(outcome) = &mut passed.outcome {
            outcome.drop_bytes();
        }
    }
}

/// The largest ok position, and the smallest other one above it.
fn bracket(seen: &[Step]) -> (Option<f64>, Option<f64>) {
    let ok = seen
        .iter()
        .filter(|p| p.verdict.ok)
        .map(|p| p.x)
        .reduce(f64::max);
    let above = |x: &f64| ok.is_none_or(|ok| *x > ok);
    let bad = seen
        .iter()
        .filter(|p| !p.verdict.ok)
        .map(|p| p.x)
        .filter(above);
    (ok, bad.reduce(f64::min))
}

/// An ok position above one that is not: the target is crossed more than
/// once, so no bracket the walk keeps is sure to hold it.
fn contradicted(seen: &[Step]) -> bool {
    let ok = bracket(seen).0;
    ok.is_some_and(|ok| seen.iter().any(|p| !p.verdict.ok && p.x < ok))
}

/// Where the hit is in `seen`, or else the measured step with the smallest
/// margin.
pub(crate) fn nearest(seen: &[Step]) -> Option<usize> {
    seen.iter().position(|s| s.verdict.hit).or_else(|| {
        seen.iter()
            .enumerate()
            .filter_map(|(i, s)| Some((i, s.verdict.margin?.abs())))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
    })
}

/// Where the measured margins put the crossing: on the secant (from a
/// single point, on the plan's slope) through the two margin-carrying points
/// nearest `middle`, the bracket's.  NaN without a margin to go by; the
/// plan's start before anything is measured.
fn predicted(plan: &Plan, seen: &[Step], middle: f64) -> f64 {
    if seen.is_empty() {
        return plan.start;
    }
    let mut points: Vec<(f64, f64)> = seen
        .iter()
        .filter_map(|p| Some((p.x, p.verdict.margin?)))
        .collect();
    points.sort_by(|a, b| (a.0 - middle).abs().total_cmp(&(b.0 - middle).abs()));
    let Some(&(x, margin)) = points.first() else {
        return f64::NAN;
    };
    let slope = match points.get(1) {
        Some(&(x2, margin2)) if x2 != x => {
            ((margin2 - margin) / (x2 - x)).clamp(plan.slope_limits.0, plan.slope_limits.1)
        }
        _ => plan.slope,
    };
    x - margin / slope
}
