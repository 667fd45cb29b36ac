//! Drives a resolved manifest through FRaZ: every field — fixed-ratio or
//! quality-targeted — is one [`FieldTask`] of the [`Orchestrator`] (fields in
//! parallel, time-step prediction reuse — Algorithm 3) on the one shared
//! work-stealing pool, exactly as the paper's evaluation ran whole SDRBench
//! applications.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fraz_core::{
    BoundPredictor, FieldTask, HintSource, Orchestrator, OrchestratorConfig, SearchConfig,
    SeriesOutcome,
};
use fraz_data::manifest::{FieldTarget, Manifest, ManifestError};
use fraz_pressio::registry::RegistryError;
use fraz_pressio::{registry, Options};
use fraz_tune::CachePredictor;

use crate::config::FieldBudget;
use crate::report::{FieldRow, RunReport};

/// Command-line overrides applied on top of the manifest's settings.
#[derive(Debug, Clone, Default)]
pub struct RunOverrides {
    /// Worker threads for the shared pool (overrides the manifest).
    pub workers: Option<usize>,
    /// Compressor registry name (overrides the manifest).
    pub compressor: Option<String>,
    /// Directory of the persistent tuning cache (`--tune-cache`); searches
    /// seed from and record into it.
    pub tune_cache: Option<PathBuf>,
}

/// Errors running a manifest.
#[derive(Debug)]
pub enum RunError {
    /// The manifest failed to load, validate, or resolve.
    Manifest(ManifestError),
    /// The compressor could not be built from the registry.
    Registry(RegistryError),
    /// The `--tune-cache` directory could not be opened.
    TuneCache(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Manifest(e) => write!(f, "{e}"),
            RunError::Registry(e) => write!(f, "{e}"),
            RunError::TuneCache(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ManifestError> for RunError {
    fn from(e: ManifestError) -> Self {
        RunError::Manifest(e)
    }
}

impl From<RegistryError> for RunError {
    fn from(e: RegistryError) -> Self {
        RunError::Registry(e)
    }
}

/// Open the persistent tuning cache in `dir`, when one was requested.
pub(crate) fn open_tune_cache(dir: Option<&Path>) -> Result<Option<Arc<CachePredictor>>, RunError> {
    dir.map(|dir| {
        CachePredictor::open(dir).map(Arc::new).map_err(|e| {
            RunError::TuneCache(format!("cannot open tune cache `{}`: {e}", dir.display()))
        })
    })
    .transpose()
}

/// Resolve `manifest` against `manifest_dir` and run every field,
/// returning the per-field report.
pub fn run(
    manifest: &Manifest,
    manifest_dir: &Path,
    overrides: &RunOverrides,
) -> Result<RunReport, RunError> {
    let start = Instant::now();
    let mut resolved = manifest.resolve(manifest_dir)?;
    let compressor_name = overrides
        .compressor
        .as_deref()
        .unwrap_or(&resolved.compressor);
    let compressor = registry::build_arc(compressor_name, &Options::new())?;

    // One predictor shared by every field's searches.
    let predictor = open_tune_cache(overrides.tune_cache.as_deref())?;

    // Every task below carries its own search: the orchestrator's default
    // search is never read.
    let orchestrator = Orchestrator::with_compressor(
        compressor.clone(),
        OrchestratorConfig {
            total_workers: overrides.workers.or(manifest.workers).unwrap_or(0),
            ..OrchestratorConfig::new(SearchConfig::new(2.0, 0.1))
        },
    )
    .with_predictor(predictor.clone().map(|p| p as Arc<dyn BoundPredictor>));

    // Every field runs as one task of one parallel application (Algorithm
    // 3), carrying its own target through a per-task search override.  The
    // loaded series are *moved* into the tasks (row assembly below only
    // needs the targets) — real SDRBench fields are gigabytes, so cloning
    // them would double peak memory.
    let tasks: Vec<FieldTask> = resolved
        .fields
        .iter_mut()
        .map(|field| {
            FieldTask::new(field.name.clone(), std::mem::take(&mut field.series))
                .with_search(FieldBudget::new(manifest, field.target).search())
        })
        .collect();
    let application = orchestrator.run_tasks(&tasks);

    // Outcomes come back in task order, which is manifest order.
    let rows = resolved
        .fields
        .iter()
        .zip(&application.fields)
        .map(|(field, outcome)| {
            field_row(
                &resolved.application,
                compressor.name(),
                &field.target,
                outcome,
                predictor.is_some(),
            )
        })
        .collect();

    // Persist what this run learned; failing to write the cache must not
    // discard the run's results, so the summary carries the counters and
    // the flush is best-effort (the caller can inspect the path).
    let tune_cache = predictor.map(|p| {
        let _ = p.cache().flush();
        p.cache().stats()
    });

    Ok(RunReport {
        rows,
        workers: orchestrator.pool().threads(),
        elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
        tune_cache,
    })
}

fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    (n > 0).then(|| sum / n as f64)
}

fn field_row(
    application: &str,
    compressor: &str,
    target: &FieldTarget,
    outcome: &SeriesOutcome,
    cache_enabled: bool,
) -> FieldRow {
    let steps = &outcome.steps;
    // The steps a `--tune-cache` run seeded straight from the cache
    // (`None`/`None` when the cache was off, so the table shows `-`).
    let cache_hits = cache_enabled.then(|| {
        steps
            .iter()
            .filter_map(|s| s.hint.as_ref())
            .filter(|h| h.source == HintSource::TuneCache && h.hit)
            .count()
    });
    FieldRow {
        application: application.to_string(),
        field: outcome.field.clone(),
        compressor: compressor.to_string(),
        target: target.to_string(),
        steps: steps.len(),
        error_bound: steps.last().map_or(0.0, |s| s.error_bound),
        ratio: mean(steps.iter().map(|s| s.best.compression_ratio)).unwrap_or(0.0),
        bit_rate: mean(steps.iter().map(|s| s.best.bit_rate)).unwrap_or(0.0),
        psnr: mean(
            steps
                .iter()
                .filter_map(|s| s.best.quality.as_ref())
                .map(|q| q.psnr),
        ),
        max_abs_error: steps
            .iter()
            .filter_map(|s| s.best.quality.as_ref())
            .map(|q| q.max_abs_error)
            .fold(None, |acc, e| Some(acc.map_or(e, |a: f64| a.max(e)))),
        feasible_steps: steps.iter().filter(|s| s.feasible).count(),
        retrained_steps: outcome.retrain_steps.len(),
        evaluations: outcome.total_evaluations(),
        cache_hits,
        cache_misses: cache_hits.map(|hits| steps.len() - hits),
        elapsed_ms: outcome.elapsed.as_secs_f64() * 1e3,
    }
}
