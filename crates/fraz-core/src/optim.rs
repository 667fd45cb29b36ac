//! Derivative-free scalar global minimization (paper §V-B1).
//!
//! FRaZ's autotuner is built on Dlib's `find_global_min`, Davis King's
//! combination of MaxLIPO global exploration (Malherbe & Vayatis' Lipschitz
//! lower bounds) with a local quadratic trust-region refinement (in the
//! spirit of Powell's NEWUOA), modified with an early-termination cutoff.
//! [`GlobalMinimizer`] re-implements that 1-D algorithm:
//!
//! * every evaluated point contributes a cone `f(x_i) − k·|x − x_i|` to a
//!   piecewise-linear *lower bound* of the objective; the exploration step
//!   evaluates the candidate with the smallest lower bound,
//! * every other iteration a parabola is fitted through the incumbent best
//!   point and its neighbours and its minimizer is evaluated (the
//!   trust-region step),
//! * the search stops when the loss drops below the caller's cutoff (FRaZ's
//!   modification), the evaluation budget is exhausted, or an external
//!   [`CancelToken`] fires (the region race's early termination, a child
//!   of its search's token).
//!
//! [`binary_search`] and [`grid_search`] provide the baselines the paper
//! discusses (binary search needs monotonicity and wastes evaluations; see
//! the `tab_iterations` experiment).

use crate::cancel::CancelToken;

/// One objective evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// The evaluated input (an error-bound setting).
    pub x: f64,
    /// The loss at `x`.
    pub loss: f64,
    /// The raw compression ratio observed at `x` (carried for reporting).
    pub ratio: f64,
}

/// Result of a search over one interval.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchTrace {
    /// The best evaluation found.
    pub best: Evaluation,
    /// Every evaluation, in the order performed.
    pub evaluations: Vec<Evaluation>,
    /// True if the cutoff terminated the search early.
    pub reached_cutoff: bool,
    /// True if an external cancellation stopped the search.
    pub cancelled: bool,
}

impl SearchTrace {
    /// Number of objective evaluations performed.
    pub fn iterations(&self) -> usize {
        self.evaluations.len()
    }
}

/// Configuration of the global minimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Maximum number of objective evaluations.
    pub max_evaluations: usize,
    /// Early-termination cutoff: stop as soon as a loss ≤ cutoff is found
    /// (0.0 disables it — the paper's §V-B1 ablation).
    pub cutoff: f64,
}

/// Candidates closer than this fraction of the interval to an evaluated
/// point are replaced by the midpoint of the largest unexplored gap.
const X_TOLERANCE: f64 = 1e-10;

/// An objective evaluation: maps a candidate `x` to `(loss, ratio)`.
pub trait Objective {
    /// Evaluate the objective at `x`.
    fn eval(&mut self, x: f64) -> (f64, f64);
}

impl<F> Objective for F
where
    F: FnMut(f64) -> (f64, f64),
{
    fn eval(&mut self, x: f64) -> (f64, f64) {
        self(x)
    }
}

/// The MaxLIPO + trust-region global minimizer.
#[derive(Debug, Clone)]
pub struct GlobalMinimizer {
    config: OptimizerConfig,
}

impl GlobalMinimizer {
    /// Create a minimizer with the given configuration.
    pub fn new(config: OptimizerConfig) -> Self {
        Self { config }
    }

    /// Minimize `objective` over `[lower, upper]`.
    ///
    /// `cancel` is polled between evaluations; once it has fired the search
    /// returns immediately with whatever it has (the region race passes its
    /// early-termination token, which also fires with the search's).
    pub fn minimize(
        &self,
        objective: &mut dyn Objective,
        lower: f64,
        upper: f64,
        cancel: Option<&CancelToken>,
    ) -> SearchTrace {
        assert!(
            lower.is_finite() && upper.is_finite() && lower < upper,
            "invalid search interval [{lower}, {upper}]"
        );
        let mut evaluations: Vec<Evaluation> = Vec::new();
        let mut reached_cutoff = false;
        let mut cancelled = false;
        let cancelled_now = || cancel.is_some_and(CancelToken::is_cancelled);

        // Golden-ratio low-discrepancy sequence for deterministic,
        // well-spread exploration candidates (stands in for Dlib's RNG while
        // keeping runs reproducible).
        let golden = 0.618_033_988_749_894_9_f64;
        let mut golden_state = 0.5_f64;
        let mut next_golden = move || {
            golden_state = (golden_state + golden).fract();
            golden_state
        };

        macro_rules! evaluate {
            ($x:expr) => {{
                let x: f64 = $x;
                let x = x.clamp(lower, upper);
                let (loss, ratio) = objective.eval(x);
                let e = Evaluation { x, loss, ratio };
                evaluations.push(e);
                if self.config.cutoff > 0.0 && loss <= self.config.cutoff {
                    reached_cutoff = true;
                }
                e
            }};
        }

        // Seed with the two endpoints and one interior point.
        for x in [lower, upper, lower + (upper - lower) * next_golden()] {
            if evaluations.len() >= self.config.max_evaluations || reached_cutoff || cancelled_now()
            {
                break;
            }
            evaluate!(x);
        }

        while evaluations.len() < self.config.max_evaluations && !reached_cutoff {
            if cancelled_now() {
                cancelled = true;
                break;
            }
            // Alternate: even iterations explore (MaxLIPO), odd refine (TR).
            let explore = evaluations.len() % 2 == 0;
            let candidate = if explore {
                self.lipo_candidate(&evaluations, lower, upper, &mut next_golden)
            } else {
                self.trust_region_candidate(&evaluations, lower, upper)
                    .unwrap_or_else(|| self.largest_gap_candidate(&evaluations, lower, upper))
            };
            // Avoid re-evaluating (numerically) identical points.
            let candidate = if evaluations
                .iter()
                .any(|e| (e.x - candidate).abs() <= X_TOLERANCE * (upper - lower))
            {
                self.largest_gap_candidate(&evaluations, lower, upper)
            } else {
                candidate
            };
            evaluate!(candidate);
        }

        let best = evaluations
            .iter()
            .copied()
            .min_by(|a, b| {
                a.loss
                    .partial_cmp(&b.loss)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(Evaluation {
                x: lower,
                loss: f64::INFINITY,
                ratio: 0.0,
            });
        SearchTrace {
            best,
            evaluations,
            reached_cutoff,
            cancelled,
        }
    }

    /// MaxLIPO exploration: pick the candidate minimizing the piecewise
    /// Lipschitz lower bound `max_i (f_i − k·|x − x_i|)`.
    fn lipo_candidate(
        &self,
        evals: &[Evaluation],
        lower: f64,
        upper: f64,
        next_golden: &mut impl FnMut() -> f64,
    ) -> f64 {
        if evals.len() < 2 {
            return lower + (upper - lower) * next_golden();
        }
        // Estimate the Lipschitz constant from observed slopes.
        let mut k = 0.0f64;
        for i in 0..evals.len() {
            for j in (i + 1)..evals.len() {
                let dx = (evals[i].x - evals[j].x).abs();
                if dx > 1e-300 {
                    k = k.max((evals[i].loss - evals[j].loss).abs() / dx);
                }
            }
        }
        if !(k.is_finite() && k > 0.0) {
            return lower + (upper - lower) * next_golden();
        }
        k *= 1.1; // margin, as Dlib inflates its Lipschitz estimate

        // Scan a dense candidate grid (plus a jitter offset) for the point
        // with the smallest lower bound; prefer candidates away from existing
        // samples.
        let samples = 256;
        let jitter = next_golden() / samples as f64;
        let mut best_x = lower;
        let mut best_bound = f64::INFINITY;
        for s in 0..samples {
            let t = (s as f64 + 0.5) / samples as f64 + jitter;
            let x = lower + (upper - lower) * t.clamp(0.0, 1.0);
            let mut bound = f64::NEG_INFINITY;
            for e in evals {
                bound = bound.max(e.loss - k * (x - e.x).abs());
            }
            if bound < best_bound {
                best_bound = bound;
                best_x = x;
            }
        }
        best_x
    }

    /// Trust-region refinement: fit a parabola through the best point and its
    /// nearest neighbours on either side and jump to its minimizer.
    fn trust_region_candidate(&self, evals: &[Evaluation], lower: f64, upper: f64) -> Option<f64> {
        if evals.len() < 3 {
            return None;
        }
        let mut sorted: Vec<&Evaluation> = evals.iter().collect();
        sorted.sort_by(|a, b| a.x.partial_cmp(&b.x).unwrap_or(std::cmp::Ordering::Equal));
        let best_idx = sorted
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.loss
                    .partial_cmp(&b.1.loss)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)?;
        // Pick a bracketing triple around the best point.
        let (i0, i1, i2) = if best_idx == 0 {
            (0, 1, 2)
        } else if best_idx == sorted.len() - 1 {
            (sorted.len() - 3, sorted.len() - 2, sorted.len() - 1)
        } else {
            (best_idx - 1, best_idx, best_idx + 1)
        };
        let (x0, f0) = (sorted[i0].x, sorted[i0].loss);
        let (x1, f1) = (sorted[i1].x, sorted[i1].loss);
        let (x2, f2) = (sorted[i2].x, sorted[i2].loss);
        // Parabolic interpolation minimizer.
        let denom = (x1 - x0) * (f1 - f2) - (x1 - x2) * (f1 - f0);
        if denom.abs() < 1e-300 {
            return None;
        }
        let numer = (x1 - x0).powi(2) * (f1 - f2) - (x1 - x2).powi(2) * (f1 - f0);
        let candidate = x1 - 0.5 * numer / denom;
        if !candidate.is_finite() {
            return None;
        }
        Some(candidate.clamp(lower, upper))
    }

    /// Fallback: bisect the largest gap between consecutive samples.
    fn largest_gap_candidate(&self, evals: &[Evaluation], lower: f64, upper: f64) -> f64 {
        let mut xs: Vec<f64> = evals.iter().map(|e| e.x).collect();
        xs.push(lower);
        xs.push(upper);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        xs.dedup();
        let mut best_gap = 0.0;
        let mut best_mid = (lower + upper) / 2.0;
        for w in xs.windows(2) {
            let gap = w[1] - w[0];
            if gap > best_gap {
                best_gap = gap;
                best_mid = (w[0] + w[1]) / 2.0;
            }
        }
        best_mid
    }
}

/// Classic bisection on the *ratio* (not the loss), assuming the ratio grows
/// with the error bound — the baseline FRaZ compares against in §V-B1.
/// Returns the trace of evaluations; stops when the ratio is acceptable or
/// the budget is exhausted.
pub fn binary_search(
    objective: &mut dyn Objective,
    lower: f64,
    upper: f64,
    target_ratio: f64,
    tolerance: f64,
    max_evaluations: usize,
) -> SearchTrace {
    let mut evaluations = Vec::new();
    let mut lo = lower;
    let mut hi = upper;
    let mut reached_cutoff = false;
    for _ in 0..max_evaluations {
        let mid = 0.5 * (lo + hi);
        let (loss, ratio) = objective.eval(mid);
        evaluations.push(Evaluation {
            x: mid,
            loss,
            ratio,
        });
        if ratio >= target_ratio * (1.0 - tolerance) && ratio <= target_ratio * (1.0 + tolerance) {
            reached_cutoff = true;
            break;
        }
        if ratio < target_ratio {
            // Need a larger ratio -> (assume) larger error bound.
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo) <= f64::EPSILON * upper.abs() {
            break;
        }
    }
    let best = evaluations
        .iter()
        .copied()
        .min_by(|a, b| {
            a.loss
                .partial_cmp(&b.loss)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap_or(Evaluation {
            x: lower,
            loss: f64::INFINITY,
            ratio: 0.0,
        });
    SearchTrace {
        best,
        evaluations,
        reached_cutoff,
        cancelled: false,
    }
}

/// Uniform grid sweep baseline (used by ablations and the figure binaries to
/// chart the ratio-vs-bound landscape).
pub fn grid_search(
    objective: &mut dyn Objective,
    lower: f64,
    upper: f64,
    points: usize,
    cutoff: f64,
) -> SearchTrace {
    let mut evaluations = Vec::new();
    let mut reached_cutoff = false;
    for i in 0..points.max(2) {
        let x = lower + (upper - lower) * i as f64 / (points.max(2) - 1) as f64;
        let (loss, ratio) = objective.eval(x);
        evaluations.push(Evaluation { x, loss, ratio });
        if cutoff > 0.0 && loss <= cutoff {
            reached_cutoff = true;
            break;
        }
    }
    let best = evaluations
        .iter()
        .copied()
        .min_by(|a, b| {
            a.loss
                .partial_cmp(&b.loss)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap();
    SearchTrace {
        best,
        evaluations,
        reached_cutoff,
        cancelled: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimize_fn(
        f: impl Fn(f64) -> f64,
        lower: f64,
        upper: f64,
        config: OptimizerConfig,
    ) -> SearchTrace {
        let mut obj = |x: f64| (f(x), 0.0);
        GlobalMinimizer::new(config).minimize(&mut obj, lower, upper, None)
    }

    #[test]
    fn finds_minimum_of_smooth_convex_function() {
        let trace = minimize_fn(
            |x| (x - 3.7).powi(2),
            0.0,
            10.0,
            OptimizerConfig {
                max_evaluations: 30,
                cutoff: 0.0,
            },
        );
        assert!((trace.best.x - 3.7).abs() < 0.05, "best {}", trace.best.x);
        assert!(trace.best.loss < 0.01);
    }

    #[test]
    fn escapes_local_minima_of_multimodal_function() {
        // Global minimum at x ≈ 8.05 (value -1 - 0.8), local minima elsewhere.
        let f = |x: f64| (x * 2.0).sin() + 0.8 * ((x - 8.05) / 4.0).powi(2) - 1.0;
        let trace = minimize_fn(
            f,
            0.0,
            12.0,
            OptimizerConfig {
                max_evaluations: 60,
                cutoff: 0.0,
            },
        );
        // The true minimizer is near 8.64 (balancing both terms); accept a
        // small neighbourhood around the global basin rather than a local one.
        assert!(
            (7.0..10.5).contains(&trace.best.x),
            "stuck at {} (loss {})",
            trace.best.x,
            trace.best.loss
        );
    }

    #[test]
    fn handles_step_functions_like_zfp_ratios() {
        // A staircase with the acceptable step at [4, 6).
        let f = |x: f64| {
            let level = x.floor();
            (level - 5.0).powi(2)
        };
        let trace = minimize_fn(
            f,
            0.0,
            20.0,
            OptimizerConfig {
                max_evaluations: 50,
                cutoff: 0.5,
            },
        );
        assert!(trace.best.loss <= 0.5);
        assert!((5.0..6.0).contains(&trace.best.x), "{}", trace.best.x);
    }

    #[test]
    fn cutoff_terminates_early() {
        let mut calls = 0usize;
        let mut obj = |x: f64| {
            calls += 1;
            ((x - 5.0).powi(2), 0.0)
        };
        let trace = GlobalMinimizer::new(OptimizerConfig {
            max_evaluations: 200,
            cutoff: 1.0,
        })
        .minimize(&mut obj, 0.0, 10.0, None);
        assert!(trace.reached_cutoff);
        assert!(trace.iterations() < 200);
        assert_eq!(trace.iterations(), calls);
        assert!(trace.best.loss <= 1.0);
    }

    #[test]
    fn without_cutoff_uses_full_budget() {
        let trace = minimize_fn(
            |x| (x - 5.0).powi(2),
            0.0,
            10.0,
            OptimizerConfig {
                max_evaluations: 25,
                cutoff: 0.0,
            },
        );
        assert!(!trace.reached_cutoff);
        assert_eq!(trace.iterations(), 25);
    }

    #[test]
    fn cancellation_stops_the_search() {
        let cancel = CancelToken::new();
        let mut calls = 0usize;
        let mut obj = |x: f64| {
            calls += 1;
            if calls == 5 {
                cancel.cancel();
            }
            ((x - 5.0).powi(2), 0.0)
        };
        let trace = GlobalMinimizer::new(OptimizerConfig {
            max_evaluations: 100,
            cutoff: 0.0,
        })
        .minimize(&mut obj, 0.0, 10.0, Some(&cancel));
        assert!(trace.cancelled);
        assert!(trace.iterations() <= 6);
    }

    #[test]
    #[should_panic(expected = "invalid search interval")]
    fn invalid_interval_panics() {
        let config = OptimizerConfig {
            max_evaluations: 40,
            cutoff: 0.0,
        };
        let _ = minimize_fn(|x| x, 5.0, 5.0, config);
    }

    #[test]
    fn binary_search_converges_on_monotone_ratio() {
        // ratio(e) = 100·e (monotone), target 25 -> e = 0.25.
        let mut obj = |x: f64| {
            let ratio = 100.0 * x;
            ((ratio - 25.0f64).powi(2), ratio)
        };
        let trace = binary_search(&mut obj, 0.0, 1.0, 25.0, 0.05, 50);
        assert!(trace.reached_cutoff);
        assert!((trace.best.x - 0.25).abs() < 0.02);
    }

    #[test]
    fn binary_search_fails_on_non_monotonic_ratio_but_global_minimizer_converges() {
        // The paper's first argument against bisection (§V-B1): the ratio is
        // not always monotone in the error bound (Fig 3).  Here the ratio
        // *decreases* with the bound, so bisection walks the wrong way and
        // never lands in the acceptable region, while the global minimizer
        // treats it as an arbitrary landscape and converges.
        let ratio_fn = |x: f64| 30.0 - 25.0 * x;
        let loss = crate::loss::RatioLoss::new(15.0, 0.05);

        let mut bs_obj = |x: f64| {
            let r = ratio_fn(x);
            (loss.loss(r), r)
        };
        let bs = binary_search(&mut bs_obj, 0.0, 1.0, 15.0, 0.05, 40);
        assert!(!bs.reached_cutoff, "bisection should not converge here");

        let mut gm_obj = |x: f64| {
            let r = ratio_fn(x);
            (loss.loss(r), r)
        };
        let gm = GlobalMinimizer::new(OptimizerConfig {
            max_evaluations: 40,
            cutoff: loss.cutoff(),
        })
        .minimize(&mut gm_obj, 0.0, 1.0, None);
        assert!(gm.reached_cutoff, "global minimizer should converge");
        assert!((ratio_fn(gm.best.x) - 15.0).abs() <= 0.05 * 15.0);
        assert!(gm.iterations() < bs.iterations());
    }

    #[test]
    fn global_minimizer_converges_quickly_when_target_is_near_range_bottom() {
        // When the useful bound sits near the very bottom of the search range
        // (ratio grows like sqrt), the early-termination cutoff still lets
        // the optimizer stop within a modest budget.
        let ratio_fn = |x: f64| 300.0 * x.sqrt();
        let loss = crate::loss::RatioLoss::new(15.0, 0.1);
        let mut gm_obj = |x: f64| {
            let r = ratio_fn(x);
            (loss.loss(r), r)
        };
        let gm = GlobalMinimizer::new(OptimizerConfig {
            max_evaluations: 64,
            cutoff: loss.cutoff(),
        })
        .minimize(&mut gm_obj, 1e-12, 1.0, None);
        assert!(gm.reached_cutoff, "should converge within 64 evaluations");
        assert!((ratio_fn(gm.best.x) - 15.0).abs() <= 1.5 + 1e-9);
    }

    #[test]
    fn grid_search_charts_the_landscape() {
        let mut obj = |x: f64| ((x - 2.0).powi(2), x * 10.0);
        let trace = grid_search(&mut obj, 0.0, 4.0, 21, 0.0);
        assert_eq!(trace.iterations(), 21);
        assert!((trace.best.x - 2.0).abs() < 0.11);
        // With a cutoff the sweep stops early.
        let mut obj = |x: f64| ((x - 2.0).powi(2), x * 10.0);
        let trace = grid_search(&mut obj, 0.0, 4.0, 21, 0.05);
        assert!(trace.reached_cutoff);
        assert!(trace.iterations() < 21);
    }
}
