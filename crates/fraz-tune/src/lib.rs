//! # fraz-tune — persistent cross-run search seeding
//!
//! FRaZ's search converges, the process exits, and the next run starts
//! from scratch — even on the very same field.  This crate closes that
//! loop: converged bounds are remembered in a small on-disk cache keyed by
//! *what was searched* (codec + canonical options signature + search
//! target + a content [`fingerprint()`] of the data), and the next search
//! over a matching field starts at the remembered bound.  Because every
//! hinted search verifies its probe before accepting it, a stale or
//! colliding entry costs one evaluation and the search goes on from that
//! probe — the bracketing walk, and for a ratio the region race behind it —
//! so the cache can make a run faster, never wrong.
//!
//! [`CachePredictor`] adapts the cache to `fraz-core`'s
//! [`BoundPredictor`] seeding API, so the orchestrator, the quality
//! search, the store writer, and the online controller can all share one
//! cache:
//!
//! ```
//! use std::sync::Arc;
//! use fraz_core::{FixedRatioSearch, SearchConfig};
//! use fraz_tune::CachePredictor;
//!
//! let dir = std::env::temp_dir().join(format!("fraz-tune-doc-{}", std::process::id()));
//! let predictor = Arc::new(CachePredictor::open(&dir).unwrap());
//! let dataset = fraz_data::synthetic::hurricane(6, 12, 12, 1, 7).field("TCf", 0);
//! let compressor = fraz_pressio::registry::build_default("sz").unwrap();
//! let search = FixedRatioSearch::new(compressor, SearchConfig::new(8.0, 0.2))
//!     .with_predictor(Some(predictor));
//!
//! let cold = search.run(&dataset);
//! let warm = search.run(&dataset);
//! if cold.feasible {
//!     // The second run starts from the first run's answer.
//!     assert!(warm.evaluations <= 2);
//! }
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod fingerprint;

pub use cache::{CacheStats, TuneCache, CACHE_FILE};
pub use fingerprint::fingerprint;

use std::io;
use std::path::Path;
use std::sync::Arc;

use fraz_core::{BoundPredictor, HintQuery, HintSource, SearchHint};

/// A [`BoundPredictor`] backed by a shared [`TuneCache`].
///
/// `predict` proposes the cached bound (as a converged
/// [`HintSource::TuneCache`] hint) when the query's key is present;
/// `observe` records every bound that met its objective.  Clone-cheap via
/// the inner [`Arc`]; share one instance across fields, chunks, and runs.
pub struct CachePredictor {
    cache: Arc<TuneCache>,
}

impl CachePredictor {
    /// Open (creating if needed) the cache in directory `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let cache = Arc::new(TuneCache::open(dir)?);
        Ok(Self { cache })
    }

    /// The shared cache (for stats reporting and explicit flushes).
    pub fn cache(&self) -> &Arc<TuneCache> {
        &self.cache
    }

    /// The cache key for one search query: codec, canonical options
    /// signature, canonical target string, content fingerprint.
    pub fn key(query: &HintQuery<'_>) -> String {
        format!(
            "{}|{}|{}|{:016x}",
            query.codec,
            query.codec_config,
            query.target,
            fingerprint(query.dataset)
        )
    }
}

impl BoundPredictor for CachePredictor {
    fn predict(&self, query: &HintQuery<'_>) -> Option<SearchHint> {
        self.cache
            .lookup(&Self::key(query))
            .map(|bound| SearchHint::converged(bound, HintSource::TuneCache))
    }

    fn observe(&self, query: &HintQuery<'_>, bound: f64, hit: bool) {
        // Only objective-meeting bounds are worth replaying (the same rule
        // Algorithm 3 applies to its in-run prediction).
        if hit {
            self.cache.record(Self::key(query), bound);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fraz_core::{
        FieldTask, FixedQualitySearch, FixedRatioSearch, Orchestrator, OrchestratorConfig,
        QualityMetric, QualitySearchConfig, SearchConfig,
    };
    use fraz_data::synthetic;
    use fraz_pressio::registry;

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fraz-tune-lib-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn repeated_ratio_search_converges_in_at_most_two_evaluations() {
        let dir = scratch_dir("ratio");
        let dataset = synthetic::hurricane(8, 16, 16, 1, 42).field("CLOUDf", 0);
        let config = SearchConfig {
            threads: 1,
            ..SearchConfig::new(8.0, 0.2)
        };
        let search = |predictor: &Arc<CachePredictor>| {
            FixedRatioSearch::new(registry::build_default("sz").unwrap(), config.clone())
                .with_predictor(Some(predictor.clone()))
        };

        let predictor = Arc::new(CachePredictor::open(&dir).unwrap());
        let cold = search(&predictor).run(&dataset);
        assert!(cold.feasible);
        assert!(cold.retrained && cold.evaluations > 2);
        predictor.cache().flush().unwrap();

        // A fresh process: reopen the cache from disk.
        let predictor = Arc::new(CachePredictor::open(&dir).unwrap());
        let warm = search(&predictor).run(&dataset);
        assert!(warm.feasible && !warm.retrained);
        assert!(
            warm.evaluations <= 2,
            "warm run took {} evaluations",
            warm.evaluations
        );
        assert_eq!(warm.hint.unwrap().source, HintSource::TuneCache);
        let stats = predictor.cache().stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_warm_series_seeds_every_step_from_its_own_cache_entry() {
        // The cache knows each step by its own data; the previous step's
        // bound only seeds a step the cache does not know.
        let dir = scratch_dir("series");
        let series = synthetic::hurricane(8, 16, 16, 4, 42).series("TCf");
        let run = || {
            let predictor = Arc::new(CachePredictor::open(&dir).unwrap());
            let config = OrchestratorConfig {
                total_workers: 1,
                ..OrchestratorConfig::new(SearchConfig::new(8.0, 0.1))
            };
            let outcome = Orchestrator::new("sz", config)
                .unwrap()
                .with_predictor(Some(predictor.clone()))
                .run_tasks(&[FieldTask::new("TCf", series.clone())])
                .fields
                .remove(0);
            predictor.cache().flush().unwrap();
            (outcome, predictor.cache().stats())
        };

        let (cold, stats) = run();
        assert!(cold.steps.iter().all(|s| s.feasible));
        assert_eq!((stats.hits, stats.misses), (0, series.len()));
        for step in &cold.steps[1..] {
            assert_eq!(step.hint.as_ref().unwrap().source, HintSource::PreviousStep);
        }

        let (warm, stats) = run();
        assert_eq!((stats.hits, stats.misses), (series.len(), 0));
        for (t, step) in warm.steps.iter().enumerate() {
            let hint = step.hint.as_ref().expect("every warm step is seeded");
            assert_eq!(
                (hint.source, hint.hit),
                (HintSource::TuneCache, true),
                "step {t}"
            );
            assert_eq!(step.error_bound, cold.steps[t].error_bound, "step {t}");
        }
        assert!(warm.retrain_steps.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_bound_above_a_later_error_ceiling_is_clamped_not_replayed() {
        // The key does not contain `U`: a bound learned without a ceiling is
        // proposed to the same search run with one, and must not escape it.
        let dir = scratch_dir("ceiling");
        let dataset = synthetic::hurricane(8, 16, 16, 1, 42).field("TCf", 0);
        let predictor = Arc::new(CachePredictor::open(&dir).unwrap());
        let search = |config: SearchConfig| {
            FixedRatioSearch::new(registry::build_default("sz").unwrap(), config)
        };
        let config = SearchConfig::new(8.0, 0.1).with_threads(1);
        let free = search(config.clone())
            .with_predictor(Some(predictor.clone()))
            .run(&dataset);
        assert!(free.feasible);

        let capped = config.with_max_error(free.error_bound / 4.0);
        let cold = search(capped.clone()).run(&dataset);
        let warm = search(capped.clone())
            .with_predictor(Some(predictor.clone()))
            .run(&dataset);
        assert_eq!(warm.hint.as_ref().unwrap().source, HintSource::TuneCache);
        assert!(
            warm.error_bound <= capped.max_error_bound.unwrap(),
            "bound {} above U = {:?}",
            warm.error_bound,
            capped.max_error_bound
        );
        assert_eq!(warm.feasible, cold.feasible);
        assert!(warm.evaluations <= cold.evaluations + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quality_search_and_different_targets_do_not_collide() {
        let dir = scratch_dir("quality");
        let dataset = synthetic::hurricane(8, 16, 16, 1, 43).field("TCf", 0);
        let predictor = Arc::new(CachePredictor::open(&dir).unwrap());
        let make = |psnr: f64| {
            let config = QualitySearchConfig {
                max_iterations: 20,
                ..QualitySearchConfig::new(QualityMetric::PsnrAtLeast(psnr))
            };
            FixedQualitySearch::new(registry::build_default("sz").unwrap(), config)
                .with_predictor(Some(predictor.clone()))
        };

        let cold = make(60.0).run(&dataset);
        assert!(cold.satisfiable);
        let warm = make(60.0).run(&dataset);
        assert!(warm.satisfiable);
        assert_eq!(warm.evaluations, 1, "cached quality bound re-verifies");
        assert_eq!(warm.hint.unwrap().source, HintSource::TuneCache);
        assert!(warm.best.quality.as_ref().unwrap().psnr >= 60.0);

        // A different PSNR target is a different key: no false hit (the
        // analytic model seeds it instead of the cache).
        let other = make(80.0).run(&dataset);
        assert!(other.satisfiable);
        if let Some(report) = &other.hint {
            assert_ne!(report.source, HintSource::TuneCache);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_codec_options_change_the_key() {
        let dataset = synthetic::hurricane(6, 12, 12, 1, 44).field("Pf", 0);
        let config = SearchConfig::new(8.0, 0.2);
        let search_a =
            FixedRatioSearch::new(registry::build_default("sz").unwrap(), config.clone())
                .with_codec_config("sz:block_size=8");
        let qa = search_a.hint_query(&dataset);
        let search_b = FixedRatioSearch::new(registry::build_default("sz").unwrap(), config)
            .with_codec_config("sz:block_size=16");
        let qb = search_b.hint_query(&dataset);
        assert_ne!(CachePredictor::key(&qa), CachePredictor::key(&qb));
    }
}
