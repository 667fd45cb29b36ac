//! Writing arrays: per-chunk tuned compression on the shared pool.
//!
//! [`write_array`] splits a dataset over a [`ChunkGrid`], compresses every
//! chunk independently as a task on [`fraz_pool`], and assembles the
//! container described in [`crate::format`].  Each chunk gets its **own**
//! error bound: a [`ChunkTarget::Ratio`] target runs a full
//! [`FixedRatioSearch`](fraz_core::FixedRatioSearch) per chunk, a
//! [`ChunkTarget::MinPsnr`] target runs a
//! [`FixedQualitySearch`](fraz_core::FixedQualitySearch), and
//! [`ChunkTarget::FixedBound`] skips the search (useful for deterministic
//! fixtures and raw-throughput benchmarks).
//!
//! Chunk searches are seeded through `fraz-core`'s
//! [`SearchHint`](fraz_core::SearchHint) layer.  Ratio chunks warm-start
//! from the most recently converged bound of the same write (a shared
//! [`LastConverged`] slot): time-adjacent and space-adjacent chunks of a
//! physical field usually want similar bounds, so the hint probe frequently
//! replaces the whole bracketing race with a single evaluation.  Such a
//! write tunes its **leading chunk** first — that search's regions race on
//! the whole pool — and fans the rest out behind its converged bound (the
//! paper's Algorithm 3 applied to chunks: train once, then reuse), instead
//! of letting the first `workers` chunks all train before any has a bound
//! to lend.  Every chunk's payload is the stream its search measured at the
//! bound it settled on ([`fraz_core::answer_bytes`]); a chunk is compressed
//! once more only when that answer was measured without writing one.  An
//! external [`BoundPredictor`] — typically the `fraz-tune` persistent cache
//! via [`write_array_seeded`] — is consulted *before* the warm-start slot
//! (its per-chunk fingerprints are more specific) and observes every
//! converged chunk bound, for both ratio and quality targets.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fraz_core::{
    answer_bytes, BoundPredictor, HintSource, LastConverged, Objective, PredictorChain,
    QualityMetric, QualitySearchConfig, Search, SearchConfig, SearchOutcome,
};
use fraz_data::Dataset;
use fraz_pool::Pool;
use fraz_pressio::{registry, Compressor, Options, PressioError};

use crate::format::{self, ArrayMeta};
use crate::grid::ChunkGrid;
use crate::store::Store;
use crate::StoreError;

/// What each chunk's compression is tuned for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChunkTarget {
    /// Compress every chunk at this absolute error-bound setting — no
    /// search.  Deterministic, so this is what the wire-format fixtures use.
    FixedBound(f64),
    /// Run a per-chunk fixed-ratio search for this compression ratio.
    Ratio {
        /// Target compression ratio `ρt`.
        target_ratio: f64,
        /// Acceptable relative deviation `ε`.
        tolerance: f64,
    },
    /// Run a per-chunk fixed-quality search for `PSNR >= target` dB.
    ///
    /// PSNR is measured against each chunk's own value range, so this target
    /// adapts to non-stationary fields: quiet chunks get proportionally
    /// tighter absolute bounds than loud ones.
    MinPsnr(f64),
}

/// Configuration for [`write_array`].
#[derive(Debug, Clone, PartialEq)]
pub struct StoreWriteConfig {
    /// Chunk shape (same rank as the dataset; clamped per axis).
    pub chunk_shape: Vec<usize>,
    /// Registry name of the codec.
    pub codec: String,
    /// Codec options (validated by the registry at build time).
    pub options: Options,
    /// Per-chunk tuning target.
    pub target: ChunkTarget,
    /// Search regions per chunk (ratio targets only).  Chunks already run in
    /// parallel, so fewer regions than the paper's field-level default keeps
    /// the total task count proportionate.
    pub regions: usize,
    /// Maximum search evaluations per region (or per quality search).
    pub max_iterations: usize,
    /// Hard ceiling `U` on any chunk's error bound.
    pub max_error_bound: Option<f64>,
    /// Warm-start each chunk's ratio search from the most recently converged
    /// bound of this write (on by default).
    pub warm_start: bool,
}

impl StoreWriteConfig {
    /// A config with the given chunk shape, codec and target, and default
    /// search knobs (6 regions, 16 iterations, warm start on).
    pub fn new(chunk_shape: Vec<usize>, codec: impl Into<String>, target: ChunkTarget) -> Self {
        Self {
            chunk_shape,
            codec: codec.into(),
            options: Options::new(),
            target,
            regions: 6,
            max_iterations: 16,
            max_error_bound: None,
            warm_start: true,
        }
    }

    /// Builder-style setter for the codec options.
    pub fn with_options(mut self, options: Options) -> Self {
        self.options = options;
        self
    }

    /// Builder-style setter for the per-chunk region count.
    pub fn with_regions(mut self, regions: usize) -> Self {
        self.regions = regions.max(1);
        self
    }

    /// Builder-style setter for the per-region iteration budget.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations.max(1);
        self
    }

    /// Builder-style setter for the error-bound ceiling `U`.
    pub fn with_max_error_bound(mut self, bound: f64) -> Self {
        self.max_error_bound = Some(bound);
        self
    }

    /// Builder-style setter for warm-starting.
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }
}

/// Telemetry for one written chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkReport {
    /// Linear chunk index.
    pub index: usize,
    /// Element origin of the chunk.
    pub origin: Vec<usize>,
    /// Actual (edge-clamped) chunk shape.
    pub shape: Vec<usize>,
    /// The tuned error bound the chunk was compressed with.
    pub error_bound: f64,
    /// Compressed payload size.
    pub compressed_bytes: u64,
    /// Search evaluations spent on this chunk (0 for fixed bounds).
    pub evaluations: usize,
    /// False when the search could not satisfy its target on this chunk.
    pub feasible: bool,
}

/// Telemetry for a whole [`write_array`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteReport {
    /// The key the container was stored under.
    pub key: String,
    /// Codec used.
    pub codec: String,
    /// Per-chunk telemetry, in chunk order.
    pub chunks: Vec<ChunkReport>,
    /// Uncompressed size of the array.
    pub uncompressed_bytes: u64,
    /// Sum of the compressed chunk payloads.
    pub payload_bytes: u64,
    /// Total container size (header + payloads).
    pub object_bytes: u64,
    /// `uncompressed_bytes / object_bytes` — the honest, header-inclusive
    /// ratio.
    pub compression_ratio: f64,
    /// Total search evaluations across all chunks.
    pub evaluations: usize,
    /// Whether warm-starting was enabled.
    pub warm_start: bool,
    /// Wall-clock time of the write.
    pub elapsed: Duration,
}

impl WriteReport {
    /// Smallest and largest tuned bound across the chunks.
    pub fn bound_range(&self) -> (f64, f64) {
        self.chunks
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), c| {
                (lo.min(c.error_bound), hi.max(c.error_bound))
            })
    }
}

struct ChunkOut {
    payload: Vec<u8>,
    bound: f64,
    evaluations: usize,
    feasible: bool,
}

fn chunk_dataset(dataset: &Dataset, grid: &ChunkGrid, idx: usize) -> Dataset {
    dataset.sub_box(&grid.chunk_origin(idx), &grid.chunk_shape_at(idx))
}

/// What one write's chunk tasks share.
struct ChunkWriter<'a> {
    codec: Arc<dyn Compressor>,
    config: &'a StoreWriteConfig,
    pool: Option<Arc<Pool>>,
    /// Ratio chunks chain the external predictor (if any) in front of the
    /// per-write warm-start slot; quality chunks consult the external
    /// predictor alone (they already seed themselves analytically, and the
    /// warm-start slot's ratio bounds would be meaningless for a PSNR
    /// target).
    predictor: Option<Arc<dyn BoundPredictor>>,
}

impl ChunkWriter<'_> {
    /// One search per chunk, whatever the objective, and the answer's bytes.
    fn tune<O: Objective>(&self, objective: O, chunk: &Dataset) -> Result<ChunkOut, StoreError> {
        let mut search = Search::new(self.codec.clone(), objective)
            .with_codec_config(self.config.options.signature())
            .with_predictor(self.predictor.clone());
        if let Some(pool) = &self.pool {
            search = search.with_pool(pool.clone());
        }
        let mut outcome: SearchOutcome = search.run(chunk).into();
        Ok(ChunkOut {
            payload: answer_bytes(&*self.codec, chunk, &mut outcome).map_err(compress_failed)?,
            bound: outcome.error_bound,
            evaluations: outcome.evaluations,
            feasible: outcome.feasible,
        })
    }

    fn compress(&self, chunk: &Dataset) -> Result<ChunkOut, StoreError> {
        let config = self.config;
        if !self.codec.supports_dims(&chunk.dims) {
            return Err(StoreError::Unsupported(format!(
                "codec {} does not support chunk dims {:?}",
                config.codec,
                chunk.dims.as_slice()
            )));
        }
        match config.target {
            ChunkTarget::FixedBound(bound) => {
                // Clamp into this chunk's valid range: a near-constant chunk
                // can have a much smaller upper bound than the whole field,
                // and a bound the codec would reject must not fail the write.
                let (lo, hi) = self.codec.bound_range(chunk);
                let bound = bound.clamp(lo, hi);
                Ok(ChunkOut {
                    payload: self.codec.compress(chunk, bound).map_err(compress_failed)?,
                    bound,
                    evaluations: 0,
                    feasible: true,
                })
            }
            ChunkTarget::Ratio {
                target_ratio,
                tolerance,
            } => {
                let mut objective =
                    SearchConfig::new(target_ratio, tolerance).with_regions(config.regions);
                objective.max_iterations = config.max_iterations;
                objective.max_error_bound = config.max_error_bound;
                objective.measure_final_quality = false;
                self.tune(objective, chunk)
            }
            ChunkTarget::MinPsnr(psnr) => {
                let mut objective = QualitySearchConfig::new(QualityMetric::PsnrAtLeast(psnr));
                objective.max_iterations = config.max_iterations;
                objective.max_error_bound = config.max_error_bound;
                self.tune(objective, chunk)
            }
        }
    }
}

fn compress_failed(error: PressioError) -> StoreError {
    StoreError::Codec(format!("chunk compress failed: {error}"))
}

/// Chunk, tune, compress and store `dataset` under `key` — the general form
/// behind [`write_array`] and [`write_array_on`].  Chunk tasks (and their
/// searches) run on `pool` (the process-wide [`fraz_pool::global`] pool when
/// `None`).  `predictor` is an external [`BoundPredictor`] — typically the
/// `fraz-tune` persistent cache, so repeat writes of the same fields start
/// each chunk search at the previously converged bound; it is consulted
/// before the per-write warm-start slot and observes every converged chunk
/// bound.
pub fn write_array_seeded(
    store: &dyn Store,
    key: &str,
    dataset: &Dataset,
    config: &StoreWriteConfig,
    pool: Option<Arc<Pool>>,
    predictor: Option<Arc<dyn BoundPredictor>>,
) -> Result<WriteReport, StoreError> {
    let start = Instant::now();
    let grid = ChunkGrid::new(dataset.dims.as_slice(), &config.chunk_shape)?;
    let codec: Arc<dyn Compressor> = registry::build_arc(&config.codec, &config.options)
        .map_err(|e| StoreError::Codec(e.to_string()))?;
    if let ChunkTarget::FixedBound(bound) = config.target {
        if !(bound.is_finite() && bound > 0.0) {
            return Err(StoreError::Codec(format!(
                "fixed bound must be finite and positive, got {bound}"
            )));
        }
    }

    let n_chunks = grid.n_chunks();
    let predictor = if matches!(config.target, ChunkTarget::Ratio { .. }) {
        let mut predictors: Vec<Arc<dyn BoundPredictor>> = predictor.into_iter().collect();
        if config.warm_start {
            predictors.push(Arc::new(LastConverged::new(HintSource::WarmStart)));
        }
        Some(Arc::new(PredictorChain::new(predictors)) as Arc<dyn BoundPredictor>)
    } else {
        predictor
    };
    let writer = ChunkWriter {
        codec,
        config,
        pool,
        predictor,
    };
    let mut slots: Vec<Option<Result<ChunkOut, StoreError>>> = Vec::with_capacity(n_chunks);
    slots.resize_with(n_chunks, || None);
    {
        let (grid, writer) = (&grid, &writer);
        let tuned = |idx: usize| writer.compress(&chunk_dataset(dataset, grid, idx));
        // A warm-started ratio write trains on its leading chunk alone; the
        // rest start from the bound it converged to.
        let leading = matches!(config.target, ChunkTarget::Ratio { .. }) && config.warm_start;
        if leading {
            // (A grid has at least one chunk.)
            slots[0] = Some(tuned(0));
        }
        let scope_pool: &Pool = writer
            .pool
            .as_deref()
            .unwrap_or_else(|| fraz_pool::global());
        scope_pool.scope(|scope| {
            for (idx, slot) in slots.iter_mut().enumerate().skip(usize::from(leading)) {
                scope.spawn(move || *slot = Some(tuned(idx)));
            }
        });
    }

    let mut payloads = Vec::with_capacity(n_chunks);
    let mut bounds = Vec::with_capacity(n_chunks);
    let mut chunks = Vec::with_capacity(n_chunks);
    let mut evaluations = 0usize;
    for (idx, slot) in slots.into_iter().enumerate() {
        let out = slot.expect("every chunk task fills its slot")?;
        evaluations += out.evaluations;
        chunks.push(ChunkReport {
            index: idx,
            origin: grid.chunk_origin(idx),
            shape: grid.chunk_shape_at(idx),
            error_bound: out.bound,
            compressed_bytes: out.payload.len() as u64,
            evaluations: out.evaluations,
            feasible: out.feasible,
        });
        bounds.push(out.bound);
        payloads.push(out.payload);
    }

    let meta = ArrayMeta {
        dtype: dataset.buffer.dtype(),
        dims: dataset.dims.as_slice().to_vec(),
        chunk_shape: grid.chunk_shape().to_vec(),
        timestep: dataset.timestep as u64,
        application: dataset.application.clone(),
        field: dataset.field.clone(),
        codec: config.codec.clone(),
        options: config.options.clone(),
        index: Vec::new(),
    };
    let object = format::encode(&meta, &bounds, &payloads)?;
    let object_bytes = object.len() as u64;
    store.put(key, &object)?;

    let uncompressed_bytes = dataset.byte_size() as u64;
    let payload_bytes = payloads.iter().map(|p| p.len() as u64).sum();
    Ok(WriteReport {
        key: key.to_string(),
        codec: config.codec.clone(),
        chunks,
        uncompressed_bytes,
        payload_bytes,
        object_bytes,
        compression_ratio: uncompressed_bytes as f64 / object_bytes as f64,
        evaluations,
        warm_start: config.warm_start,
        elapsed: start.elapsed(),
    })
}

/// [`write_array_seeded`] on the process-wide [`fraz_pool::global`] pool,
/// unseeded.
pub fn write_array(
    store: &dyn Store,
    key: &str,
    dataset: &Dataset,
    config: &StoreWriteConfig,
) -> Result<WriteReport, StoreError> {
    write_array_seeded(store, key, dataset, config, None, None)
}

/// [`write_array`] on an explicit shared pool (the CLI passes its
/// worker-bounded pool here).
pub fn write_array_on(
    store: &dyn Store,
    key: &str,
    dataset: &Dataset,
    config: &StoreWriteConfig,
    pool: Arc<Pool>,
) -> Result<WriteReport, StoreError> {
    write_array_seeded(store, key, dataset, config, Some(pool), None)
}
