//! A tuned write compresses each chunk once and trains once — for every
//! registered error-bounded codec.
//!
//! **Once per chunk.**  The writer stores the stream its chunk search
//! measured at the bound it settled on; it does not compress the chunk again.
//! Whatever route the bytes took, every payload of a tuned container must be
//! `codec.compress(chunk, index[c].bound)`, on one worker and on four, for
//! ratio and PSNR targets.
//!
//! **Once per array.**  A warm-started ratio write tunes its leading chunk
//! first and fans the rest out behind the bound it converged to: on a
//! four-worker pool exactly one chunk search starts with nothing to go by (it
//! used to be one per worker).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use fraz_core::{BoundPredictor, HintQuery, SearchHint};
use fraz_data::{synthetic, DType, Dataset, Dims};
use fraz_pool::Pool;
use fraz_pressio::{registry, Compressor};
use fraz_store::{
    write_array_seeded, ArrayReader, ChunkTarget, MemoryStore, Store, StoreWriteConfig,
};

const DIMS: [usize; 3] = [24, 24, 16];
const CHUNK: [usize; 3] = [12, 12, 8];
const N_CHUNKS: usize = 8;

fn field() -> Dataset {
    synthetic::generate("turbulence", &Dims::new(&DIMS), DType::F32, 23, 0).unwrap()
}

/// Chunk `idx` of `dataset` as the writer cuts it.
fn chunk_of(dataset: &Dataset, reader: &ArrayReader<'_>, idx: usize) -> Dataset {
    dataset.sub_box(
        &reader.grid().chunk_origin(idx),
        &reader.grid().chunk_shape_at(idx),
    )
}

/// A ratio one chunk of the field reaches with `codec`.
fn reachable_ratio(codec: &dyn Compressor, dataset: &Dataset) -> f64 {
    let chunk = dataset.sub_box(&[0; 3], &CHUNK);
    let bound = 1e-2 * chunk.stats().value_range();
    codec
        .evaluate(&chunk, bound, false)
        .unwrap()
        .compression_ratio
}

/// Every error-bounded codec of the build that takes the chunks.
fn codecs() -> Vec<(String, Box<dyn Compressor>)> {
    let names = registry::error_bounded_names();
    assert!(!names.is_empty(), "no error-bounded codec is registered");
    names
        .into_iter()
        .map(|name| (name.clone(), registry::build_default(&name).unwrap()))
        .filter(|(_, codec)| codec.supports_dims(&Dims::new(&CHUNK)))
        .collect()
}

#[test]
fn every_payload_is_one_compress_at_the_indexed_bound() {
    let dataset = field();
    for (name, codec) in codecs() {
        let ratio = ChunkTarget::Ratio {
            target_ratio: reachable_ratio(&*codec, &dataset),
            tolerance: 0.15,
        };
        for target in [ratio, ChunkTarget::MinPsnr(55.0)] {
            for workers in [1, 4] {
                let what = format!("{name} {target:?} on {workers} workers");
                let store = MemoryStore::new();
                let config = StoreWriteConfig::new(CHUNK.to_vec(), &name, target);
                let pool = Arc::new(Pool::new(workers));
                let report =
                    write_array_seeded(&store, "a", &dataset, &config, Some(pool), None).unwrap();
                let reader = ArrayReader::open(&store, "a").unwrap();
                let index = &reader.meta().index;
                assert_eq!(index.len(), N_CHUNKS, "{what}");
                assert!(report.evaluations >= N_CHUNKS, "{what}: nothing was tuned");
                for (c, entry) in index.iter().enumerate() {
                    assert_eq!(
                        entry.bound, report.chunks[c].error_bound,
                        "{what} chunk {c}"
                    );
                    let payload = store.get_range("a", entry.offset, entry.length).unwrap();
                    let direct = codec.compress(&chunk_of(&dataset, &reader, c), entry.bound);
                    assert!(
                        direct.as_ref() == Ok(&payload),
                        "{what} chunk {c}: the payload is not compress(chunk, {:e})",
                        entry.bound
                    );
                }
            }
        }
    }
}

/// Proposes nothing; counts the chunk searches that began before any search
/// of the write had converged — which is when the writer's warm-start slot,
/// taught by the same observations, had nothing to propose either.
#[derive(Default)]
struct ColdStarts {
    converged: AtomicBool,
    cold: AtomicUsize,
    searches: AtomicUsize,
}

impl BoundPredictor for ColdStarts {
    fn predict(&self, _query: &HintQuery<'_>) -> Option<SearchHint> {
        self.searches.fetch_add(1, Ordering::SeqCst);
        if !self.converged.load(Ordering::SeqCst) {
            self.cold.fetch_add(1, Ordering::SeqCst);
        }
        None
    }

    fn observe(&self, _query: &HintQuery<'_>, _bound: f64, hit: bool) {
        self.converged.fetch_or(hit, Ordering::SeqCst);
    }
}

#[test]
fn a_warm_started_ratio_write_trains_on_its_leading_chunk_alone() {
    let dataset = field();
    let pool = Arc::new(Pool::new(4));
    for (name, codec) in codecs() {
        let target = ChunkTarget::Ratio {
            target_ratio: reachable_ratio(&*codec, &dataset),
            tolerance: 0.15,
        };
        let spy = Arc::new(ColdStarts::default());
        let config = StoreWriteConfig::new(CHUNK.to_vec(), &name, target);
        assert!(config.warm_start, "warm start is the default");
        let report = write_array_seeded(
            &MemoryStore::new(),
            "a",
            &dataset,
            &config,
            Some(pool.clone()),
            Some(spy.clone() as Arc<dyn BoundPredictor>),
        )
        .unwrap();
        assert!(report.chunks[0].feasible, "{name}: pick a reachable ratio");
        assert_eq!(spy.searches.load(Ordering::SeqCst), N_CHUNKS, "{name}");
        let cold = spy.cold.load(Ordering::SeqCst);
        assert_eq!(cold, 1, "{name}: chunk searches that began with no bound");
    }
}
