//! The two store workloads: tuned chunked writes, and region reads.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use super::{
    in_band, max_abs_err, pressio_layers, psnr_db, run_rounds, self_time, Cfg, Layers, Samples,
    TempDir, Timed, Workload, OPENING_SLICE_S,
};
use crate::adapter::{
    self, codec_name, dataset3d, values_f32, ArrayReader, ChunkTarget, Dataset, FsStore, Pool,
    Store, TracedStore, TOLERANCE, WORKERS,
};
use crate::calib::{Reference, SHARE};
use crate::fields::{field3d, value_range, Kind, Rng};
use crate::trace::{self, Span};

/// The two array families of the write workload: one broadband, one
/// smooth with a noise floor.
const ARRAY_KINDS: [Kind; 2] = [Kind::Turbulent, Kind::SmoothNoise];

/// Copy the box `origin..origin+shape` out of a row-major array.
fn extract_box(
    values: &[f32],
    dims: [usize; 3],
    origin: [usize; 3],
    shape: [usize; 3],
) -> Vec<f32> {
    let mut out = Vec::with_capacity(shape.iter().product());
    for i in origin[0]..origin[0] + shape[0] {
        for j in origin[1]..origin[1] + shape[1] {
            let row = (i * dims[1] + j) * dims[2] + origin[2];
            out.extend_from_slice(&values[row..row + shape[2]]);
        }
    }
    out
}

/// Every chunk box of a regular grid, in row-major chunk order (edge
/// chunks clamped) — the benchmark's own grid arithmetic.
fn chunk_boxes(dims: [usize; 3], chunk: usize) -> Vec<([usize; 3], [usize; 3])> {
    let mut boxes = Vec::new();
    for i in (0..dims[0]).step_by(chunk) {
        for j in (0..dims[1]).step_by(chunk) {
            for k in (0..dims[2]).step_by(chunk) {
                let origin = [i, j, k];
                let shape = [0, 1, 2].map(|a| chunk.min(dims[a] - origin[a]));
                boxes.push((origin, shape));
            }
        }
    }
    boxes
}

fn full_region(dims: [usize; 3]) -> [Range<u64>; 3] {
    dims.map(|d| 0..d as u64)
}

fn region_of(origin: [usize; 3], shape: [usize; 3]) -> [Range<u64>; 3] {
    [0, 1, 2].map(|a| origin[a] as u64..(origin[a] + shape[a]) as u64)
}

// ---------------------------------------------------------------------------
// store_write
// ---------------------------------------------------------------------------

const WRITE_RATIO: f64 = 8.0;
const WRITE_PSNR_DB: f64 = 60.0;

struct WriteOp {
    /// Its `field` label is the operation id and the key prefix.
    dataset: Dataset,
    target: ChunkTarget,
}

struct Written {
    op: usize,
    key: String,
    /// The writer's own `feasible` flag per chunk.
    feasible: Vec<bool>,
    evaluations: usize,
    object_bytes: u64,
    /// Id of the write's top-level span (0 when untraced).
    top: u64,
}

pub struct StoreWrite {
    store: FsStore,
    traced_store: TracedStore,
    pool: Arc<Pool>,
    dims: [usize; 3],
    chunk: usize,
    ops: Vec<WriteOp>,
    written: Vec<Written>,
    next_key: usize,
    /// Declared last: the directory goes after the stores that use it.
    _dir: TempDir,
}

impl StoreWrite {
    pub fn setup(cfg: &Cfg) -> Self {
        let (dims, chunk) = if cfg.quick {
            ([32, 32, 32], 16)
        } else {
            ([96, 96, 64], 32)
        };
        if cfg.trace {
            adapter::register_traced("sz");
        }
        let mut ops = Vec::new();
        for (i, kind) in ARRAY_KINDS.iter().enumerate() {
            let values = field3d(*kind, dims, cfg.seed, 100 + i as u64, 0.0);
            for (what, target) in [
                (
                    "ratio",
                    ChunkTarget::Ratio {
                        target_ratio: WRITE_RATIO,
                        tolerance: TOLERANCE,
                    },
                ),
                ("psnr", ChunkTarget::MinPsnr(WRITE_PSNR_DB)),
            ] {
                let label = format!("w-{}-{what}", kind.name());
                ops.push(WriteOp {
                    dataset: dataset3d(&label, 0, dims, values.clone()),
                    target,
                });
            }
        }
        let dir = TempDir::new(cfg, "store-write");
        Self {
            store: adapter::open_fs_store(dir.path()),
            traced_store: TracedStore {
                inner: adapter::open_fs_store(dir.path()),
            },
            pool: Arc::new(Pool::new(WORKERS)),
            dims,
            chunk,
            ops,
            written: Vec::new(),
            next_key: 0,
            _dir: dir,
        }
    }

    /// One tuned array write under a fresh key; returns `(seconds, chunks)`.
    fn run_op(&mut self, idx: usize, traced: bool, keep: bool) -> (f64, usize) {
        let op = &self.ops[idx];
        let key = format!("{}/n{}", op.dataset.field, self.next_key);
        self.next_key += 1;
        let config = adapter::write_config(&codec_name("sz", traced), self.chunk, op.target);
        let store: &dyn Store = if traced {
            &self.traced_store
        } else {
            &self.store
        };
        let top = trace::open_top("write", &op.dataset.field);
        let report =
            adapter::write_array_on(store, &key, &op.dataset, &config, Arc::clone(&self.pool))
                .unwrap_or_else(|e| panic!("write {key}: {e}"));
        let id = top.id();
        let ns = trace::close_top(top, report.chunks.len() as f64);
        let chunks = report.chunks.len();
        if keep {
            self.written.push(Written {
                op: idx,
                key,
                feasible: report.chunks.iter().map(|c| c.feasible).collect(),
                evaluations: report.evaluations,
                object_bytes: report.object_bytes,
                top: id,
            });
        }
        (ns as f64 * 1e-9, chunks)
    }
}

impl Workload for StoreWrite {
    fn warm_up(&mut self, traced: bool) {
        self.run_op(0, traced, false);
    }

    /// A round is one write of every (array, target) pair.
    fn measure(
        &mut self,
        traced: bool,
        deadline: Instant,
        host: &mut Reference,
        samples: &mut Samples,
    ) {
        run_rounds(deadline, host, samples, self.ops.len(), |idx| {
            self.run_op(idx, traced, true)
        });
    }

    /// Every container must open and decode; every chunk must honour its
    /// recorded bound and its target (ratio within ε, or PSNR at least the
    /// floor), and must have been reported feasible.
    fn verify(&mut self) -> (u64, u64) {
        let boxes = chunk_boxes(self.dims, self.chunk);
        let (mut attempted, mut failed) = (0, 0);
        for w in &self.written {
            attempted += boxes.len() as u64;
            let op = &self.ops[w.op];
            let original = values_f32(&op.dataset);
            let decoded = ArrayReader::open(&self.store, &w.key).and_then(|reader| {
                let index = reader.meta().index.clone();
                reader
                    .read_region_on(&full_region(self.dims), &self.pool)
                    .map(|d| (index, values_f32(&d)))
            });
            let Ok((index, decoded)) = decoded else {
                failed += boxes.len() as u64;
                continue;
            };
            if index.len() != boxes.len() || decoded.len() != original.len() {
                failed += boxes.len() as u64;
                continue;
            }
            for (c, &(origin, shape)) in boxes.iter().enumerate() {
                let a = extract_box(&original, self.dims, origin, shape);
                let b = extract_box(&decoded, self.dims, origin, shape);
                let entry = &index[c];
                let on_target = match op.target {
                    ChunkTarget::Ratio { target_ratio, .. } => {
                        in_band((a.len() * 4) as f64 / entry.length as f64, target_ratio)
                    }
                    ChunkTarget::MinPsnr(floor) => psnr_db(&a, &b) >= floor - 1e-9,
                    ChunkTarget::FixedBound(_) => true,
                };
                let ok =
                    w.feasible[c] && on_target && max_abs_err(&a, &b) <= entry.bound * (1.0 + 1e-9);
                failed += !ok as u64;
            }
        }
        (attempted, failed)
    }

    fn layers(&self, spans: &[Span], samples: &Samples, out: &mut Layers) -> bool {
        pressio_layers(spans, samples, out);
        let traced: Vec<&Written> = self.written.iter().filter(|w| w.top != 0).collect();
        let chunks: usize = traced.iter().map(|w| w.feasible.len()).sum();
        let evaluations: usize = traced.iter().map(|w| w.evaluations).sum();
        let object_bytes: u64 = traced.iter().map(|w| w.object_bytes).sum();
        let user_bytes = traced.len() * self.dims.iter().product::<usize>() * 4;
        let puts: Vec<&Span> = spans.iter().filter(|s| s.name == "store_put").collect();
        let (own, _, _) = self_time(spans, "write", WORKERS);
        out.set("store.write_chunks", chunks as f64);
        out.set(
            "store.write_evals_per_chunk",
            evaluations as f64 / chunks as f64,
        );
        out.set("store.write_self_s", own);
        out.set("store.backend_put_calls", puts.len() as f64);
        out.set("store.backend_put_bytes", puts.iter().map(|s| s.v).sum());
        out.set("store.backend_put_s", puts.iter().map(|s| s.secs()).sum());
        out.set(
            "store.bytes_per_user_byte",
            object_bytes as f64 / user_bytes as f64,
        );
        // The writer counts search evaluations; the final compress of each
        // chunk and quality evaluations are separate spans.
        let search_evals = spans
            .iter()
            .filter(|s| s.name == "evaluate_ratio" || s.name == "evaluate_quality")
            .count();
        search_evals == evaluations
    }
}

// ---------------------------------------------------------------------------
// store_read
// ---------------------------------------------------------------------------

struct ReadArray {
    key: String,
    traced_key: String,
    /// A full decode made at set-up: what every region must be a slice of.
    reference: Vec<f32>,
}

struct ReadOp {
    array: usize,
    origin: [usize; 3],
    shape: [usize; 3],
}

pub struct StoreRead {
    store: FsStore,
    traced_store: TracedStore,
    pool: Arc<Pool>,
    dims: [usize; 3],
    arrays: Vec<ReadArray>,
    plan: Vec<ReadOp>,
    cursor: usize,
    attempted: u64,
    failed: u64,
    returned_bytes_traced: u64,
    _dir: TempDir,
}

/// Reads per throughput sample: 24 regions and one whole array, so every
/// sample times the same mix.
const RATE_GROUP: usize = 25;

impl StoreRead {
    pub fn setup(cfg: &Cfg) -> Self {
        let (dims, chunk, region) = if cfg.quick {
            ([32, 32, 24], 8, 16)
        } else {
            ([128, 128, 96], 32, 64)
        };
        let dir = TempDir::new(cfg, "store-read");
        let store = adapter::open_fs_store(dir.path());
        let pool = Arc::new(Pool::new(WORKERS));
        if cfg.trace {
            adapter::register_traced("sz");
        }
        // Two arrays of one family: decode cost follows the data, and two
        // families would split the read latencies into two clusters with
        // the median in the gap between them.
        let mut arrays = Vec::new();
        for i in 0..2 {
            let values = field3d(Kind::Turbulent, dims, cfg.seed, 200 + i, 0.0);
            let (lo, hi) = value_range(&values);
            let target = ChunkTarget::FixedBound(1e-3 * (hi - lo));
            let dataset = dataset3d("array", 0, dims, values);
            let key = format!("a{i}/plain");
            let traced_key = format!("a{i}/traced");
            let mut names = vec![(&key, false)];
            if cfg.trace {
                names.push((&traced_key, true));
            }
            for (k, traced) in names {
                let config = adapter::write_config(&codec_name("sz", traced), chunk, target);
                adapter::write_array_on(&store, k, &dataset, &config, Arc::clone(&pool))
                    .unwrap_or_else(|e| panic!("set-up write {k}: {e}"));
            }
            let reference = ArrayReader::open(&store, &key)
                .and_then(|r| r.read_region_on(&full_region(dims), &pool))
                .map(|d| values_f32(&d))
                .unwrap_or_else(|e| panic!("reference decode {key}: {e}"));
            arrays.push(ReadArray {
                key,
                traced_key,
                reference,
            });
        }
        let mut rng = Rng::new(cfg.seed, 299);
        let plan = (0..RATE_GROUP * 16)
            .map(|n| {
                let array = rng.below(arrays.len());
                if n % RATE_GROUP == RATE_GROUP - 1 {
                    ReadOp {
                        array,
                        origin: [0; 3],
                        shape: dims,
                    }
                } else {
                    ReadOp {
                        array,
                        origin: [0, 1, 2].map(|a| rng.below(dims[a] - region + 1)),
                        shape: [region; 3],
                    }
                }
            })
            .collect();
        Self {
            traced_store: TracedStore {
                inner: adapter::open_fs_store(dir.path()),
            },
            store,
            pool,
            dims,
            arrays,
            plan,
            cursor: 0,
            attempted: 0,
            failed: 0,
            returned_bytes_traced: 0,
            _dir: dir,
        }
    }
}

impl Workload for StoreRead {
    fn warm_up(&mut self, traced: bool) {
        let key = if traced {
            &self.arrays[0].traced_key
        } else {
            &self.arrays[0].key
        };
        let op = &self.plan[0];
        ArrayReader::open(&self.store, key)
            .and_then(|r| r.read_region_on(&region_of(op.origin, op.shape), &self.pool))
            .unwrap_or_else(|e| panic!("warm-up read: {e}"));
    }

    /// Reads are timed one by one; each answer is compared with the
    /// reference slice straight away, between timed sections, because
    /// keeping hundreds of decoded regions for later would cost more
    /// memory than the workload itself.
    fn measure(
        &mut self,
        traced: bool,
        deadline: Instant,
        host: &mut Reference,
        samples: &mut Samples,
    ) {
        let store: &dyn Store = if traced {
            &self.traced_store
        } else {
            &self.store
        };
        let readers: Vec<ArrayReader> = self
            .arrays
            .iter()
            .map(|a| {
                let key = if traced { &a.traced_key } else { &a.key };
                ArrayReader::open(store, key).unwrap_or_else(|e| panic!("open {key}: {e}"))
            })
            .collect();
        let mut before = host.slice(OPENING_SLICE_S);
        loop {
            let mut ms = Vec::with_capacity(RATE_GROUP);
            for _ in 0..RATE_GROUP {
                let op = &self.plan[self.cursor % self.plan.len()];
                self.cursor += 1;
                let region = region_of(op.origin, op.shape);
                let top = trace::open_top("read", "read");
                let result = readers[op.array].read_region_on(&region, &self.pool);
                ms.push(trace::close_top(top, 0.0) as f64 * 1e-6);

                self.attempted += 1;
                let expected = extract_box(
                    &self.arrays[op.array].reference,
                    self.dims,
                    op.origin,
                    op.shape,
                );
                let ok = result.is_ok_and(|d| {
                    let got = values_f32(&d);
                    if traced {
                        self.returned_bytes_traced += got.len() as u64 * 4;
                    }
                    got.len() == expected.len()
                        && got
                            .iter()
                            .zip(&expected)
                            .all(|(x, y)| x.to_bits() == y.to_bits())
                });
                self.failed += !ok as u64;
            }
            let group_s = ms.iter().sum::<f64>() * 1e-3;
            let after = host.slice(group_s * SHARE);
            samples.record_slice(ms, Timed::new(group_s, before.plus(after)), None);
            before = after;
            if Instant::now() >= deadline {
                break;
            }
        }
    }

    fn verify(&mut self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    fn layers(&self, spans: &[Span], samples: &Samples, out: &mut Layers) -> bool {
        pressio_layers(spans, samples, out);
        let gets: Vec<&Span> = spans.iter().filter(|s| s.name == "store_get").collect();
        let decodes: Vec<&Span> = spans.iter().filter(|s| s.name == "decompress").collect();
        let (own, _, reads) = self_time(spans, "read", WORKERS);
        out.set("store.backend_get_calls", gets.len() as f64);
        out.set("store.backend_get_bytes", gets.iter().map(|s| s.v).sum());
        out.set("store.backend_get_s", gets.iter().map(|s| s.secs()).sum());
        out.set(
            "store.chunks_decoded_per_read",
            decodes.len() as f64 / reads as f64,
        );
        out.set(
            "store.decoded_bytes_per_returned_byte",
            decodes.iter().map(|s| s.v).sum::<f64>() / self.returned_bytes_traced as f64,
        );
        out.set("store.read_self_s", own);
        true
    }
}
