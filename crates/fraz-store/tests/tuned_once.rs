//! A tuned write compresses each chunk once and trains once — for every
//! registered error-bounded codec.
//!
//! **Once per chunk.**  The writer stores the stream its chunk search
//! measured at the bound it settled on; it does not compress the chunk again.
//! Whatever route the bytes took, every payload of a tuned container must be
//! `codec.compress(chunk, index[c].bound)`, on one worker and on four, for
//! ratio and PSNR targets.
//!
//! By count, too: a PSNR-target write compresses a chunk once where its
//! search's answer holds no stream, and never otherwise.  That is every
//! chunk for szx, whose quality evaluation measures its classification and
//! packs nothing; no chunk for sz and mgard; and for zfp the chunks whose
//! answer came from its step memo, which keeps no stream.
//!
//! **Once per array.**  A warm-started ratio write tunes its leading chunk
//! first and fans the rest out behind the bound it converged to: on a
//! four-worker pool exactly one chunk search starts with nothing to go by (it
//! used to be one per worker).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use fraz_core::{BoundPredictor, HintQuery, SearchHint};
use fraz_data::{synthetic, DType, Dataset, Dims};
use fraz_pool::Pool;
use fraz_pressio::{
    registry, BoundKind, CodecDescriptor, CompressionOutcome, Compressor, Options, PressioError,
};
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
        .filter(|name| !name.starts_with(COUNTING))
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

/// The name prefix of [`Counting`] registrations, which the other
/// tests leave out.
const COUNTING: &str = "counting-";

/// A chunk's values and a bound, as a set of measurements keys them.
type Key = (Vec<u8>, u64);

fn key(dataset: &Dataset, bound: f64) -> Key {
    (dataset.buffer.to_le_bytes(), bound.to_bits())
}

/// A codec with its `compress` calls counted — what a write pays for its
/// bytes beyond its searches' evaluations — and the evaluations that
/// handed a stream back.
#[derive(Clone)]
struct Counting {
    inner: Arc<dyn Compressor>,
    compresses: Arc<AtomicUsize>,
    streams: Arc<Mutex<HashSet<Key>>>,
}

impl Compressor for Counting {
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
        self.inner.bound_range(dataset)
    }
    fn compress(&self, dataset: &Dataset, error_bound: f64) -> Result<Vec<u8>, PressioError> {
        self.compresses.fetch_add(1, Ordering::SeqCst);
        self.inner.compress(dataset, error_bound)
    }
    fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
        self.inner.decompress(data)
    }
    fn evaluate(
        &self,
        dataset: &Dataset,
        error_bound: f64,
        measure_quality: bool,
    ) -> Result<CompressionOutcome, PressioError> {
        let outcome = self.inner.evaluate(dataset, error_bound, measure_quality)?;
        if outcome.stream.is_some() {
            let mut streams = self.streams.lock().unwrap();
            streams.insert(key(dataset, error_bound));
        }
        Ok(outcome)
    }
}

#[test]
fn a_psnr_write_compresses_only_the_chunks_whose_answer_holds_no_stream() {
    let dataset = field();
    for (name, _) in codecs() {
        let counts = Counting {
            inner: registry::build_arc(&name, &Options::new()).unwrap(),
            compresses: Arc::default(),
            streams: Arc::default(),
        };
        let counting = format!("{COUNTING}{name}");
        let descriptor = CodecDescriptor {
            name: counting.clone(),
            aliases: Vec::new(),
            ..registry::describe(&name).unwrap()
        };
        let codec = counts.clone();
        registry::register(descriptor, move |_| Ok(Box::new(codec.clone()))).unwrap();
        for workers in [1, 4] {
            let what = format!("{name} on {workers} workers");
            let store = MemoryStore::new();
            let target = ChunkTarget::MinPsnr(55.0);
            let config = StoreWriteConfig::new(CHUNK.to_vec(), &counting, target);
            let pool = Arc::new(Pool::new(workers));
            counts.compresses.store(0, Ordering::SeqCst);
            counts.streams.lock().unwrap().clear();
            write_array_seeded(&store, "a", &dataset, &config, Some(pool), None).unwrap();
            let reader = ArrayReader::open(&store, "a").unwrap();
            let streams = counts.streams.lock().unwrap();
            let without_stream = (0..N_CHUNKS)
                .filter(|&c| {
                    let bound = reader.meta().index[c].bound;
                    !streams.contains(&key(&chunk_of(&dataset, &reader, c), bound))
                })
                .count();
            let compressed = counts.compresses.load(Ordering::SeqCst);
            let why = "chunks compressed for their bytes";
            assert_eq!(compressed, without_stream, "{what}: {why}");
            match name.as_str() {
                "szx" => assert_eq!(compressed, N_CHUNKS, "{what}: szx packs for the write"),
                "sz" | "mgard" | "mgard-l2" => assert_eq!(compressed, 0, "{what}"),
                _ => {}
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
