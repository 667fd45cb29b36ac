//! Partial-decode proof: `read_region` must fetch **exactly** the byte
//! ranges of the chunks intersecting the request — no other chunk, no
//! whole-object read — and the assembled subregion must match the source
//! within each chunk's tuned bound.  And every read takes one path: a
//! counting codec sees each chunk asked for its local intersection with the
//! request (`Compressor::decompress_region`) and never a `decompress`.

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Mutex;

use fraz_data::synthetic;
use fraz_store::{
    write_array, ArrayReader, ChunkTarget, CountingStore, FsStore, MemoryStore, Store,
    StoreWriteConfig,
};

const BOUND: f64 = 0.05;

fn written_store() -> (CountingStore<MemoryStore>, fraz_data::Dataset) {
    let dataset = synthetic::hurricane(8, 16, 16, 1, 42).field("TCf", 0);
    let store = CountingStore::new(MemoryStore::new());
    let config = StoreWriteConfig::new(vec![4, 8, 8], "szx", ChunkTarget::FixedBound(BOUND));
    write_array(&store, "TCf/t0", &dataset, &config).unwrap();
    (store, dataset)
}

fn assert_within_bound(region: &[Range<u64>], got: &fraz_data::Dataset, src: &fraz_data::Dataset) {
    let dims = src.dims.as_slice();
    let got_values = got.buffer.to_f64_vec();
    let src_values = src.buffer.to_f64_vec();
    let shape: Vec<usize> = region.iter().map(|r| (r.end - r.start) as usize).collect();
    assert_eq!(got.dims.as_slice(), shape.as_slice());
    // Walk the region in row-major order and compare element-wise.
    let n: usize = shape.iter().product();
    assert_eq!(got_values.len(), n);
    for (i, &got) in got_values.iter().enumerate() {
        let mut rem = i;
        let mut src_idx = 0usize;
        for axis in (0..shape.len()).rev() {
            let c = rem % shape[axis] + region[axis].start as usize;
            rem /= shape[axis];
            let stride: usize = dims[axis + 1..].iter().product();
            src_idx += c * stride;
        }
        let err = (got - src_values[src_idx]).abs();
        assert!(
            err <= BOUND * (1.0 + 1e-9),
            "element {i}: |{got} - {}| = {err} > {BOUND}",
            src_values[src_idx]
        );
    }
}

#[test]
fn read_region_touches_exactly_the_intersecting_chunks() {
    let (store, _) = written_store();
    let reader = ArrayReader::open(&store, "TCf/t0").unwrap();
    let grid = reader.grid().clone();
    let index = reader.meta().index.clone();

    // A slab crossing the chunk boundary on axis 0 only: chunks (0|1, y, x)
    // for all y, x -> all 8 chunks intersect rows 2..6? No: chunk axis 0 is
    // 4 wide, so 2..6 covers chunk rows 0 and 1 -> every chunk intersects.
    // Use a corner region instead: one chunk.
    for (region, expected) in [
        (vec![0..4u64, 0..8, 0..8], vec![0usize]),
        (vec![0..4, 0..8, 8..16], vec![1]),
        (vec![4..8, 8..16, 8..16], vec![7]),
        (vec![2..6, 0..8, 0..8], vec![0, 4]),
        (vec![0..4, 0..16, 0..8], vec![0, 2]),
        (vec![3..5, 7..9, 7..9], (0..8).collect::<Vec<_>>()),
        (vec![7..8, 15..16, 15..16], vec![7]),
    ] {
        store.clear();
        let got = reader.read_region(&region).unwrap();
        assert_eq!(
            got.len(),
            region
                .iter()
                .map(|r| (r.end - r.start) as usize)
                .product::<usize>()
        );
        let reads: BTreeSet<(String, u64, u64)> = store.reads().into_iter().collect();
        let expected_reads: BTreeSet<(String, u64, u64)> = expected
            .iter()
            .map(|&i| ("TCf/t0".to_string(), index[i].offset, index[i].length))
            .collect();
        assert_eq!(
            reads, expected_reads,
            "region {region:?} should read exactly chunks {expected:?}"
        );
        // And the chunk set must match the grid's own intersection math.
        assert_eq!(grid.chunks_intersecting(&region).unwrap(), expected);
    }
}

#[test]
fn open_reads_only_superblock_and_header() {
    let (store, _) = written_store();
    store.clear();
    let reader = ArrayReader::open(&store, "TCf/t0").unwrap();
    let header_len = store.size("TCf/t0").unwrap() - reader.meta().payload_bytes();
    // size() does not count as a ranged read; open issues exactly two.
    let reads = store.reads();
    assert_eq!(reads.len(), 2, "open issued {reads:?}");
    assert_eq!(reads[0], ("TCf/t0".to_string(), 0, 20));
    assert_eq!(reads[1], ("TCf/t0".to_string(), 20, header_len - 20));
}

#[test]
fn subregion_values_match_the_source_within_the_bound() {
    let (store, dataset) = written_store();
    let reader = ArrayReader::open(&store, "TCf/t0").unwrap();
    for region in [
        vec![0..8u64, 0..16, 0..16], // everything
        vec![2..6, 3..12, 5..13],    // straddles all chunk boundaries
        vec![7..8, 0..1, 15..16],    // single element
        vec![0..1, 0..16, 0..16],    // one plane
    ] {
        let got = reader.read_region(&region).unwrap();
        assert_within_bound(&region, &got, &dataset);
    }
}

#[test]
fn read_all_equals_full_region_read() {
    let (store, dataset) = written_store();
    let reader = ArrayReader::open(&store, "TCf/t0").unwrap();
    let all = reader.read_all().unwrap();
    assert_eq!(all.dims.as_slice(), dataset.dims.as_slice());
    let full = reader.read_region(&[0..8, 0..16, 0..16]).unwrap();
    assert_eq!(all.buffer, full.buffer);
    assert_eq!(all.application, "hurricane");
    assert_eq!(all.field, "TCf");
}

#[test]
fn invalid_regions_are_rejected() {
    let (store, _) = written_store();
    let reader = ArrayReader::open(&store, "TCf/t0").unwrap();
    assert!(reader.read_region(&[0..8, 0..16]).is_err()); // wrong rank
    assert!(reader.read_region(&[0..9, 0..16, 0..16]).is_err()); // out of bounds
    assert!(reader.read_region(&[4..4, 0..16, 0..16]).is_err()); // empty
    assert!(reader.read_chunk(8).is_err()); // chunk index out of range
}

#[test]
fn fs_store_roundtrips_the_same_container() {
    let mut root = std::env::temp_dir();
    root.push(format!("fraz-store-partial-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let fs = FsStore::open(&root).unwrap();

    let dataset = synthetic::cesm(24, 32, 1, 9).field("FLDSC", 0);
    let range = dataset.stats().value_range();
    let config = StoreWriteConfig::new(vec![12, 16], "szx", ChunkTarget::FixedBound(range * 1e-2));
    let report = write_array(&fs, "FLDSC/t0", &dataset, &config).unwrap();
    assert_eq!(report.chunks.len(), 4);
    assert!(report.compression_ratio > 1.0);

    let reader = ArrayReader::open(&fs, "FLDSC/t0").unwrap();
    let strip = reader.read_region(&[10..14, 0..32]).unwrap();
    assert_eq!(strip.dims.as_slice(), &[4, 32]);
    let full = reader.read_all().unwrap();
    assert_eq!(full.len(), dataset.len());
    assert_eq!(fs.list().unwrap(), vec!["FLDSC/t0"]);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn per_chunk_ratio_target_tunes_distinct_bounds() {
    // A ratio target runs an independent search per chunk; on a field whose
    // smoothness varies across space the converged bounds must differ.
    let dataset = synthetic::hurricane(8, 16, 16, 1, 7).field("CLOUDf", 0);
    let store = MemoryStore::new();
    let config = StoreWriteConfig::new(
        vec![4, 8, 8],
        "sz",
        ChunkTarget::Ratio {
            target_ratio: 8.0,
            tolerance: 0.15,
        },
    )
    .with_regions(4)
    .with_max_iterations(10);
    let report = write_array(&store, "CLOUDf/t0", &dataset, &config).unwrap();
    assert_eq!(report.chunks.len(), 8);
    assert!(report.evaluations > 0);
    let (lo, hi) = report.bound_range();
    assert!(lo > 0.0 && hi.is_finite());
    // The reader round-trips every chunk within its own recorded bound.
    let reader = ArrayReader::open(&store, "CLOUDf/t0").unwrap();
    let src = dataset.buffer.to_f64_vec();
    for (idx, entry) in reader.meta().index.iter().enumerate() {
        let chunk = reader.read_chunk(idx).unwrap();
        let origin = reader.grid().chunk_origin(idx);
        let shape = reader.grid().chunk_shape_at(idx);
        let got = chunk.buffer.to_f64_vec();
        let dims = dataset.dims.as_slice();
        for (i, &value) in got.iter().enumerate() {
            let c = [
                origin[0] + i / (shape[1] * shape[2]),
                origin[1] + (i / shape[2]) % shape[1],
                origin[2] + i % shape[2],
            ];
            let src_idx = (c[0] * dims[1] + c[1]) * dims[2] + c[2];
            assert!(
                (value - src[src_idx]).abs() <= entry.bound * (1.0 + 1e-9),
                "chunk {idx} element {i} violates its bound {}",
                entry.bound
            );
        }
    }
}

/// One `decompress_region` call: the stream grid asked for, and the region.
type Ask = (Vec<usize>, Vec<Range<usize>>);

/// What the counting codec was asked: every `decompress_region`, and the
/// number of `decompress` calls.
static ASKED: Mutex<(Vec<Ask>, usize)> = Mutex::new((Vec::new(), 0));

/// sz, with every decode the reader asks of it written down.
struct Counting(Box<dyn fraz_pressio::Compressor>);

impl fraz_pressio::Compressor for Counting {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn supports_dims(&self, dims: &fraz_data::Dims) -> bool {
        self.0.supports_dims(dims)
    }
    fn bound_range(&self, dataset: &fraz_data::Dataset) -> (f64, f64) {
        self.0.bound_range(dataset)
    }
    fn compress(
        &self,
        dataset: &fraz_data::Dataset,
        bound: f64,
    ) -> Result<Vec<u8>, fraz_pressio::PressioError> {
        self.0.compress(dataset, bound)
    }
    fn decompress(&self, data: &[u8]) -> Result<fraz_data::Dataset, fraz_pressio::PressioError> {
        ASKED.lock().unwrap().1 += 1;
        self.0.decompress(data)
    }
    fn decompress_region(
        &self,
        data: &[u8],
        dims: &fraz_data::Dims,
        region: &[Range<usize>],
    ) -> Result<fraz_data::Dataset, fraz_pressio::PressioError> {
        let asked = (dims.as_slice().to_vec(), region.to_vec());
        ASKED.lock().unwrap().0.push(asked);
        self.0.decompress_region(data, dims, region)
    }
}

/// `asks` in one order: chunk tasks finish in any.
fn sorted(mut asks: Vec<Ask>) -> Vec<Ask> {
    asks.sort_by_key(|(dims, region)| {
        let ends: Vec<(usize, usize)> = region.iter().map(|r| (r.start, r.end)).collect();
        (dims.clone(), ends)
    });
    asks
}

/// The asks since the last call, sorted, and the `decompress` count.
fn take_asked() -> (Vec<Ask>, usize) {
    let (asks, decompressed) = std::mem::take(&mut *ASKED.lock().unwrap());
    (sorted(asks), decompressed)
}

#[test]
fn every_read_asks_each_chunk_for_its_intersection_and_never_decompresses() {
    use fraz_pressio::registry;
    let mut descriptor = registry::describe("sz").unwrap();
    descriptor.name = "counting-sz".into();
    descriptor.aliases.clear();
    registry::register(descriptor, |options| {
        let inner = registry::build("sz", options)
            .map_err(|e| fraz_pressio::PressioError::Codec(e.to_string()))?;
        Ok(Box::new(Counting(inner)))
    })
    .unwrap();
    let dataset = synthetic::hurricane(8, 16, 16, 1, 42).field("TCf", 0);
    let store = MemoryStore::new();
    let config =
        StoreWriteConfig::new(vec![4, 8, 8], "counting-sz", ChunkTarget::FixedBound(BOUND));
    write_array(&store, "k", &dataset, &config).unwrap();
    let reader = ArrayReader::open(&store, "k").unwrap();
    let grid = reader.grid().clone();
    let whole_chunk = |idx: usize| {
        let shape = grid.chunk_shape_at(idx);
        (
            shape.clone(),
            shape.iter().map(|&s| 0..s).collect::<Vec<_>>(),
        )
    };
    take_asked();

    let all = reader.read_all().unwrap();
    let expected = sorted((0..grid.n_chunks()).map(whole_chunk).collect());
    assert_eq!(take_asked(), (expected, 0), "read_all");

    for idx in [0, 3, 7] {
        let chunk = reader.read_chunk(idx).unwrap();
        assert_eq!(
            take_asked(),
            (vec![whole_chunk(idx)], 0),
            "read_chunk({idx})"
        );
        let origin = grid.chunk_origin(idx);
        assert!(chunk.buffer == all.sub_box(&origin, &grid.chunk_shape_at(idx)).buffer);
    }

    for region in [
        vec![2..6u64, 3..12, 5..13],
        vec![7..8, 15..16, 15..16],
        vec![0..1, 0..1, 0..1],
        vec![3..5, 0..16, 8..9],
    ] {
        let got = reader.read_region(&region).unwrap();
        let expected = grid
            .chunks_intersecting(&region)
            .unwrap()
            .into_iter()
            .map(|idx| {
                let (origin, shape) = (grid.chunk_origin(idx), grid.chunk_shape_at(idx));
                let local = (0..3)
                    .map(|a| {
                        let (lo, hi) = (region[a].start as usize, region[a].end as usize);
                        lo.max(origin[a]) - origin[a]..hi.min(origin[a] + shape[a]) - origin[a]
                    })
                    .collect::<Vec<_>>();
                (shape, local)
            })
            .collect();
        assert_eq!(
            take_asked(),
            (sorted(expected), 0),
            "read_region({region:?})"
        );
        // The pasted intersections are the whole read's values there.
        let origin: Vec<usize> = region.iter().map(|r| r.start as usize).collect();
        let shape: Vec<usize> = region.iter().map(|r| (r.end - r.start) as usize).collect();
        assert!(
            got.buffer == all.sub_box(&origin, &shape).buffer,
            "{region:?}"
        );
    }
}
