//! Adversarial-input tests for the container format: a corrupt or truncated
//! object must yield `Err` — never a panic, an abort, or an out-of-bounds
//! read.  Every assertion here is on `Err`; there is no `#[should_panic]`
//! anywhere because panicking *is* the failure mode under test (the same
//! posture as `fraz-szx`).

use fraz_data::synthetic;
use fraz_store::{
    write_array, ArrayReader, ChunkTarget, MemoryStore, Store, StoreError, StoreWriteConfig,
};

// Superblock layout (see crates/fraz-store/src/format.rs):
// magic u32 | version u8 | dtype u8 | ndims u8 | reserved u8 |
// header_len u32 | object_len u64
const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 4;
const OFF_DTYPE: usize = 5;
const OFF_NDIMS: usize = 6;
const OFF_RESERVED: usize = 7;
const OFF_HEADER_LEN: usize = 8;
const OFF_OBJECT_LEN: usize = 12;
// Header body starts right after the superblock with ndims x u64 axes.
const OFF_AXIS0: usize = 20;
const OFF_CHUNK0: usize = 20 + 3 * 8; // 3-D container below

/// A small valid container over a 3-D field with 8 chunks.
fn valid_object() -> Vec<u8> {
    let dataset = synthetic::hurricane(4, 8, 8, 1, 11).field("TCf", 0);
    let store = MemoryStore::new();
    let config = StoreWriteConfig::new(vec![2, 4, 4], "szx", ChunkTarget::FixedBound(0.05));
    write_array(&store, "k", &dataset, &config).unwrap();
    store.get("k").unwrap()
}

/// Full strictness: opening must fail, and so must every read path that
/// could still be reached.
fn expect_corrupt(object: &[u8], what: &str) {
    let store = MemoryStore::new();
    store.put("k", object).unwrap();
    match ArrayReader::open(&store, "k") {
        Err(_) => {}
        Ok(reader) => {
            // Some payload corruptions leave the header intact; every chunk
            // and region read must then surface the damage as an Err.
            let any_ok = (0..reader.meta().index.len()).any(|i| reader.read_chunk(i).is_ok())
                && reader.read_all().is_ok();
            assert!(!any_ok, "{what}: decoded successfully");
        }
    }
}

fn patched(base: &[u8], offset: usize, bytes: &[u8]) -> Vec<u8> {
    let mut out = base.to_vec();
    out[offset..offset + bytes.len()].copy_from_slice(bytes);
    out
}

#[test]
fn empty_and_tiny_objects_are_errors() {
    for object in [vec![], vec![0x46], b"FRZS".to_vec(), vec![0u8; 19]] {
        expect_corrupt(&object, "tiny object");
    }
}

#[test]
fn every_truncated_prefix_is_an_error() {
    let object = valid_object();
    for cut in 0..object.len() {
        let store = MemoryStore::new();
        store.put("k", &object[..cut]).unwrap();
        let ok = match ArrayReader::open(&store, "k") {
            Err(_) => true,
            // object_len pins the total size, so open always fails; if it
            // ever didn't, reads must.
            Ok(reader) => reader.read_all().is_err(),
        };
        assert!(ok, "prefix of {cut}/{} bytes decoded", object.len());
    }
}

#[test]
fn trailing_garbage_is_an_error() {
    let mut object = valid_object();
    object.push(0);
    expect_corrupt(&object, "one trailing byte");
    object.extend_from_slice(&[0xAB; 64]);
    expect_corrupt(&object, "65 trailing bytes");
}

#[test]
fn bad_magic_version_and_reserved_are_errors() {
    let object = valid_object();
    expect_corrupt(
        &patched(&object, OFF_MAGIC, &0xDEAD_BEEFu32.to_le_bytes()),
        "wrong magic",
    );
    expect_corrupt(&patched(&object, OFF_VERSION, &[0]), "version 0");
    expect_corrupt(&patched(&object, OFF_VERSION, &[99]), "future version");
    expect_corrupt(&patched(&object, OFF_RESERVED, &[1]), "reserved byte set");
}

#[test]
fn bad_dtype_and_ndims_are_errors() {
    let object = valid_object();
    for dtype in [2u8, 7, 255] {
        expect_corrupt(&patched(&object, OFF_DTYPE, &[dtype]), "unknown dtype");
    }
    // Flipping f32 <-> f64 breaks the header CRC (the superblock is covered).
    expect_corrupt(&patched(&object, OFF_DTYPE, &[1]), "dtype flip");
    for ndims in [0u8, 5, 200] {
        expect_corrupt(&patched(&object, OFF_NDIMS, &[ndims]), "bad ndims");
    }
}

#[test]
fn bad_lengths_are_errors_not_allocations() {
    let object = valid_object();
    for header_len in [0u32, 3, u32::MAX] {
        expect_corrupt(
            &patched(&object, OFF_HEADER_LEN, &header_len.to_le_bytes()),
            "bad header_len",
        );
    }
    for object_len in [0u64, 19, u64::MAX] {
        expect_corrupt(
            &patched(&object, OFF_OBJECT_LEN, &object_len.to_le_bytes()),
            "bad object_len",
        );
    }
}

#[test]
fn bad_axes_and_chunk_shapes_are_errors() {
    let object = valid_object();
    // These all trip the header CRC at the latest; axis caps are also
    // checked before any allocation is sized by them.
    expect_corrupt(
        &patched(&object, OFF_AXIS0, &0u64.to_le_bytes()),
        "zero axis",
    );
    expect_corrupt(
        &patched(&object, OFF_AXIS0, &u64::MAX.to_le_bytes()),
        "huge axis",
    );
    expect_corrupt(
        &patched(&object, OFF_AXIS0, &(1u64 << 41).to_le_bytes()),
        "axis above cap",
    );
    expect_corrupt(
        &patched(&object, OFF_CHUNK0, &0u64.to_le_bytes()),
        "zero chunk axis",
    );
    expect_corrupt(
        &patched(&object, OFF_CHUNK0, &64u64.to_le_bytes()),
        "chunk axis above field axis",
    );
}

#[test]
fn every_single_byte_flip_is_caught() {
    // The header is CRC-pinned and every payload has its own CRC32, so —
    // unlike the checksum-less szx stream — *any* single-bit corruption
    // anywhere in the object must surface as an error on open or on read.
    let object = valid_object();
    for pos in 0..object.len() {
        for flip in [0x01u8, 0xFF] {
            let mut copy = object.clone();
            copy[pos] ^= flip;
            expect_corrupt(&copy, &format!("flip {flip:#x} at {pos}"));
        }
    }
}

#[test]
fn random_garbage_objects_never_panic() {
    let mut state = 0x0BAD_5EED_u64;
    for len in [1usize, 7, 20, 64, 256, 4096] {
        for _ in 0..50 {
            let garbage: Vec<u8> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) as u8
                })
                .collect();
            let store = MemoryStore::new();
            store.put("k", &garbage).unwrap();
            let _ = ArrayReader::open(&store, "k").map(|r| r.read_all());
        }
    }
}

#[test]
fn payload_corruption_is_caught_by_the_chunk_crc() {
    let object = valid_object();
    let store = MemoryStore::new();
    store.put("k", &object).unwrap();
    let reader = ArrayReader::open(&store, "k").unwrap();
    let entry = reader.meta().index[3];
    drop(reader);

    // Flip one payload byte of chunk 3: only reads touching chunk 3 fail.
    let corrupted = patched(
        &object,
        entry.offset as usize + entry.length as usize / 2,
        &[!object[entry.offset as usize + entry.length as usize / 2]],
    );
    store.put("k", &corrupted).unwrap();
    let reader = ArrayReader::open(&store, "k").unwrap();
    match reader.read_chunk(3) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("CRC"), "unexpected: {msg}"),
        other => panic!("chunk 3 should fail its CRC, got {other:?}"),
    }
    assert!(reader.read_all().is_err());
    // Chunks that do not include the damage still decode.
    assert!(reader.read_chunk(0).is_ok());
}

/// A codec whose streams hold the chunk's values under another grid (its
/// axes reversed), decoded by the codec it wraps: what a container whose
/// payload CRCs check out but whose chunk streams disagree with the grid
/// looks like to the reader.
struct ReversedAxes(Box<dyn fraz_pressio::Compressor>);

impl fraz_pressio::Compressor for ReversedAxes {
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
        let mut axes = dataset.dims.as_slice().to_vec();
        axes.reverse();
        let reshaped = fraz_data::Dataset {
            dims: fraz_data::Dims::new(&axes),
            ..dataset.clone()
        };
        self.0.compress(&reshaped, bound)
    }
    fn decompress(&self, data: &[u8]) -> Result<fraz_data::Dataset, fraz_pressio::PressioError> {
        self.0.decompress(data)
    }
    fn decompress_region(
        &self,
        data: &[u8],
        dims: &fraz_data::Dims,
        region: &[std::ops::Range<usize>],
    ) -> Result<fraz_data::Dataset, fraz_pressio::PressioError> {
        self.0.decompress_region(data, dims, region)
    }
}

#[test]
fn a_chunk_stream_of_another_grid_fails_every_read() {
    use fraz_pressio::registry;
    // Both region decodes: sz's own, and the default crop of szx's.
    for inner in ["sz", "szx"] {
        let name = format!("reversed-axes-{inner}");
        let mut descriptor = registry::describe(inner).unwrap();
        descriptor.name = name.clone();
        descriptor.aliases.clear();
        registry::register(descriptor, move |options| {
            Ok(Box::new(ReversedAxes(
                registry::build(inner, options)
                    .map_err(|e| fraz_pressio::PressioError::Codec(e.to_string()))?,
            )))
        })
        .unwrap();
        let dataset = synthetic::hurricane(4, 8, 8, 1, 11).field("TCf", 0);
        let store = MemoryStore::new();
        let config = StoreWriteConfig::new(vec![2, 4, 8], &name, ChunkTarget::FixedBound(0.05));
        write_array(&store, "k", &dataset, &config).unwrap();
        let reader = ArrayReader::open(&store, "k").unwrap();
        let reads = [
            ("region", reader.read_region(&[1..3, 2..6, 3..4])),
            ("corner", reader.read_region(&[0..1, 0..1, 0..1])),
            ("chunk", reader.read_chunk(1)),
            ("all", reader.read_all()),
        ];
        for (what, read) in reads {
            match read {
                Err(StoreError::Corrupt(msg)) => assert!(
                    msg.contains("do not match grid shape"),
                    "{name} {what}: {msg}"
                ),
                other => panic!("{name} {what}: {:?}", other.map(|d| d.dims)),
            }
        }
    }
}
