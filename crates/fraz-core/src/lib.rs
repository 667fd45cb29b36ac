//! # FRaZ — fixed-ratio error-controlled lossy compression
//!
//! This crate is the Rust reproduction of the FRaZ framework itself (the
//! paper's primary contribution): a generic, parallel, black-box autotuner
//! that makes *error-bounded* lossy compressors behave as *fixed-ratio*
//! compressors.
//!
//! Given
//!
//! * a compressor behind the [`fraz_pressio::Compressor`] trait (SZ-like,
//!   ZFP-like, MGARD-like, or anything else),
//! * a dataset `D_{f,t}` (one field at one time-step),
//! * a target compression ratio `ρt` and an acceptable relative deviation
//!   `ε`, and optionally a maximum allowed compression error `U`,
//!
//! FRaZ searches the compressor's error-bound space for a setting `e` whose
//! achieved ratio `ρr(D, e)` lands inside `[ρt(1−ε), ρt(1+ε)]`:
//!
//! * [`loss`] — the clamped-square loss `min((ρr − ρt)², γ)` and its
//!   early-termination cutoff,
//! * [`optim`] — the MaxLIPO + trust-region global minimizer (a
//!   re-implementation of Dlib's `find_global_min` with the paper's cutoff
//!   modification), plus binary-search and grid baselines,
//! * [`regions`] — splitting the error-bound range into overlapping regions,
//! * [`search`] — the one [`Search`] shell: compressor, pool, cancel token,
//!   predictor, bound range, the hint probe (Algorithm 1), the one
//!   compressor call site and the `run` / `run_with_hint` entry points,
//!   generic over an [`Objective`]; a search's answer carries the stream it
//!   was measured on, and [`answer_bytes`] hands it over,
//! * [`ratio`] — the fixed-ratio strategy: the bracketing walk towards the
//!   band, from a missed probe or from a seed fitted on a sample of the
//!   field, and region-parallel training (Algorithm 2) when the walk fails,
//! * [`quality`] — the fixed-quality strategy: the same margin-guided
//!   bracketing walk, from an analytic first guess,
//! * [`orchestrator`] — time-step prediction reuse and parallel-by-field
//!   scheduling (Algorithm 3),
//! * [`hint`] — the [`SearchHint`] / [`BoundPredictor`] seeding layer that
//!   lets analytic models, warm-start state, and tuning caches feed every
//!   search through one API.
//!
//! # Quick start
//!
//! ```
//! use fraz_core::{FixedRatioSearch, SearchConfig};
//! use fraz_data::synthetic;
//! use fraz_pressio::registry;
//!
//! let dataset = synthetic::hurricane(8, 16, 16, 1, 42).field("TCf", 0);
//! let compressor = registry::build_default("sz").unwrap();
//! // Ask for 10:1 within 10 %.
//! let config = SearchConfig::new(10.0, 0.1).with_regions(4).with_threads(2);
//! let outcome = FixedRatioSearch::new(compressor, config).run(&dataset);
//! assert!(outcome.best.compression_ratio > 1.0);
//! if outcome.feasible {
//!     assert!((outcome.best.compression_ratio - 10.0).abs() <= 1.0 + 1e-9);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod cancel;
pub mod hint;
pub mod loss;
pub mod online;
pub mod optim;
pub mod orchestrator;
pub mod quality;
pub mod ratio;
pub mod regions;
mod sample;
pub mod search;
mod walk;

pub use cancel::CancelToken;
pub use hint::{
    BoundPredictor, HintQuery, HintReport, HintSource, HintTarget, LastConverged, PredictorChain,
    SearchHint,
};
pub use loss::RatioLoss;
pub use online::{OnlineController, OnlineStepReport};
pub use optim::{binary_search, grid_search, GlobalMinimizer, OptimizerConfig, SearchTrace};
pub use orchestrator::{
    ApplicationOutcome, FieldSearch, FieldTask, Orchestrator, OrchestratorConfig, SeriesOutcome,
};
pub use quality::{FixedQualitySearch, QualityMetric, QualitySearchConfig, QualitySearchOutcome};
pub use ratio::{FixedRatioSearch, RegionOutcome, SearchConfig, SearchOutcome};
pub use regions::{make_error_bounds, Region};
pub use search::{answer_bytes, Objective, Search};

#[cfg(test)]
mod tests {
    use super::*;
    use fraz_pressio::registry;

    #[test]
    fn public_api_round_trip() {
        // The README / crate-level example, kept as a compiled test so the
        // documented entry points cannot drift.
        let dataset = fraz_data::synthetic::hurricane(6, 12, 12, 1, 1).field("TCf", 0);
        let compressor = registry::build_default("zfp").unwrap();
        let config = SearchConfig::new(6.0, 0.2).with_regions(3).with_threads(1);
        let outcome = FixedRatioSearch::new(compressor, config).run(&dataset);
        assert!(outcome.best.compression_ratio > 1.0);
        assert!(outcome.evaluations > 0);
    }
}
