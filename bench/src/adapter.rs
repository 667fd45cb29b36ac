//! Every product item the benchmark touches, in one place.
//!
//! The workloads import product types and call product functions only
//! through this module, so the signatures the benchmark depends on are the
//! `pub use` lines and function bodies below.  A product API change that
//! breaks the benchmark breaks it here.
//!
//! The tracing wrappers live here too, because they implement product
//! traits: [`TracedCompressor`] forwards every `Compressor` method that
//! exists at this commit one-to-one and records a span per call, and
//! [`TracedStore`] does the same for `Store`.  A trait method added later
//! with a default body would bypass the wrapper (see README, "Known limit").

use std::path::Path;
use std::sync::Arc;

pub use fraz_core::{
    FieldTask, FixedQualitySearch, FixedRatioSearch, Orchestrator, OrchestratorConfig,
    QualityMetric, QualitySearchConfig, SearchConfig,
};
pub use fraz_data::{Dataset, Dims};
pub use fraz_metrics::QualityReport;
pub use fraz_pool::Pool;
pub use fraz_pressio::{registry, BoundKind, CompressionOutcome, Compressor, PressioError};
pub use fraz_serve::{Client, Request, Response, ServeConfig, ServerHandle};
pub use fraz_store::{
    write_array_on, ArrayReader, ChunkTarget, FsStore, Store, StoreError, StoreWriteConfig,
};
pub use fraz_tune::{fingerprint, TuneCache};

use crate::trace;

/// The codecs the search workloads cover.
pub const CODECS: [&str; 4] = ["sz", "zfp", "mgard", "szx"];

/// Paper-default search settings (12 regions, 24 iterations per region,
/// log-scale regions) at tolerance ε = 0.10.
pub const TOLERANCE: f64 = 0.10;

/// Every workload runs on a pool of this many workers.
pub const WORKERS: usize = 2;

pub fn dataset3d(label: &str, timestep: usize, dims: [usize; 3], values: Vec<f32>) -> Dataset {
    Dataset::from_f32(
        "fraz-e2e",
        label,
        timestep,
        Dims::d3(dims[0], dims[1], dims[2]),
        values,
    )
}

pub fn dataset2d(label: &str, n: usize, values: Vec<f32>) -> Dataset {
    Dataset::from_f32("fraz-e2e", label, 0, Dims::d2(n, n), values)
}

pub fn values_f32(dataset: &Dataset) -> Vec<f32> {
    dataset.buffer.to_f32_vec()
}

/// The registry name of `codec` for this phase: the real codec when
/// untraced, its `traced-` wrapper when traced.
pub fn codec_name(codec: &str, traced: bool) -> String {
    if traced {
        format!("traced-{codec}")
    } else {
        codec.to_string()
    }
}

pub fn build_codec(name: &str) -> Arc<dyn Compressor> {
    registry::build_arc(name, &fraz_pressio::Options::new())
        .unwrap_or_else(|e| panic!("codec {name} must build: {e}"))
}

pub fn ratio_search(
    codec: Arc<dyn Compressor>,
    target_ratio: f64,
    threads: usize,
    pool: &Arc<Pool>,
) -> FixedRatioSearch {
    let config = SearchConfig::new(target_ratio, TOLERANCE).with_threads(threads);
    FixedRatioSearch::new(codec, config).with_pool(Arc::clone(pool))
}

pub fn psnr_search(
    codec: Arc<dyn Compressor>,
    psnr_db: f64,
    pool: &Arc<Pool>,
) -> FixedQualitySearch {
    let config = QualitySearchConfig::new(QualityMetric::PsnrAtLeast(psnr_db));
    FixedQualitySearch::new(codec, config).with_pool(Arc::clone(pool))
}

/// An orchestrator with prediction reuse on.  Each field task carries its
/// own target, so the config's ratio is only a placeholder.
pub fn orchestrator(codec: Arc<dyn Compressor>, pool: &Arc<Pool>) -> Orchestrator {
    let mut config = OrchestratorConfig::new(SearchConfig::new(2.0, TOLERANCE));
    config.total_workers = WORKERS;
    Orchestrator::with_compressor(codec, config).with_pool(Arc::clone(pool))
}

pub fn field_task(name: &str, series: Vec<Dataset>, target_ratio: f64) -> FieldTask {
    FieldTask::new(name, series).with_search(SearchConfig::new(target_ratio, TOLERANCE))
}

pub fn write_config(codec: &str, chunk: usize, target: ChunkTarget) -> StoreWriteConfig {
    StoreWriteConfig::new(vec![chunk; 3], codec, target)
}

pub fn open_fs_store(dir: &Path) -> FsStore {
    FsStore::open(dir).unwrap_or_else(|e| panic!("store dir {}: {e}", dir.display()))
}

pub fn start_server(tune_dir: &Path) -> ServerHandle {
    fraz_serve::start(ServeConfig {
        workers: WORKERS,
        tune_cache_dir: Some(tune_dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("server must start on a loopback port")
}

pub fn connect(server: &ServerHandle) -> Client {
    Client::connect(&server.local_addr().to_string()).expect("client must connect")
}

pub fn lossless_compress(data: &[u8]) -> Vec<u8> {
    fraz_lossless::compress(data)
}

pub fn lossless_decompress(data: &[u8]) -> Vec<u8> {
    fraz_lossless::decompress(data).expect("own stream must decode")
}

// ---------------------------------------------------------------------------
// Tracing wrappers
// ---------------------------------------------------------------------------

/// Forwards to the real codec and records one span per call.
pub struct TracedCompressor {
    inner: Arc<dyn Compressor>,
}

impl Compressor for TracedCompressor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn bound_kind(&self) -> BoundKind {
        self.inner.bound_kind()
    }

    fn supports_dims(&self, dims: &Dims) -> bool {
        self.inner.supports_dims(dims)
    }

    fn bound_range(&self, dataset: &Dataset) -> (f64, f64) {
        let start = trace::now_ns();
        let range = self.inner.bound_range(dataset);
        trace::record("bound_range", Some(&dataset.field), start, 0.0, false);
        range
    }

    fn compress(&self, dataset: &Dataset, error_bound: f64) -> Result<Vec<u8>, PressioError> {
        let start = trace::now_ns();
        let out = self.inner.compress(dataset, error_bound);
        let bytes = out.as_ref().map_or(0, Vec::len) as f64;
        trace::record("compress", Some(&dataset.field), start, bytes, out.is_err());
        out
    }

    fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
        let start = trace::now_ns();
        let out = self.inner.decompress(data);
        let bytes = out.as_ref().map_or(0, Dataset::byte_size) as f64;
        trace::record("decompress", None, start, bytes, out.is_err());
        out
    }

    fn evaluate(
        &self,
        dataset: &Dataset,
        error_bound: f64,
        measure_quality: bool,
    ) -> Result<CompressionOutcome, PressioError> {
        let start = trace::now_ns();
        let out = self.inner.evaluate(dataset, error_bound, measure_quality);
        let ratio = out.as_ref().map_or(0.0, |o| o.compression_ratio);
        let name = if measure_quality {
            "evaluate_quality"
        } else {
            "evaluate_ratio"
        };
        trace::record(name, Some(&dataset.field), start, ratio, out.is_err());
        out
    }
}

/// Register `traced-<codec>` in the global registry with the inner codec's
/// descriptor (so analytic PSNR seeding, the store writer and the server
/// all reach the wrapper by name).  Idempotent.
pub fn register_traced(codec: &str) {
    let name = codec_name(codec, true);
    if registry::contains(&name) {
        return;
    }
    let mut descriptor = registry::describe(codec).expect("built-in codec is registered");
    descriptor.name = name;
    descriptor.aliases.clear();
    let inner_name = codec.to_string();
    registry::register(descriptor, move |options| {
        let inner = registry::build(&inner_name, options)
            .map_err(|e| PressioError::Codec(e.to_string()))?;
        Ok(Box::new(TracedCompressor {
            inner: Arc::from(inner),
        }))
    })
    .expect("traced name is free");
}

/// A `Store` over `FsStore` that records calls, bytes and time.
pub struct TracedStore {
    pub inner: FsStore,
}

impl Store for TracedStore {
    fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        let start = trace::now_ns();
        let out = self.inner.get(key);
        let bytes = out.as_ref().map_or(0, Vec::len) as f64;
        trace::record("store_get", None, start, bytes, out.is_err());
        out
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        let start = trace::now_ns();
        let out = self.inner.get_range(key, offset, len);
        trace::record("store_get", None, start, len as f64, out.is_err());
        out
    }

    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        let start = trace::now_ns();
        let out = self.inner.put(key, value);
        trace::record("store_put", None, start, value.len() as f64, out.is_err());
        out
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.inner.list()
    }

    fn size(&self, key: &str) -> Result<u64, StoreError> {
        let start = trace::now_ns();
        let out = self.inner.size(key);
        trace::record("store_size", None, start, 0.0, out.is_err());
        out
    }
}
