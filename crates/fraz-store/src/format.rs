//! The self-describing container format (`FRZS` version 1).
//!
//! One store object holds one compressed array.  The layout is designed for
//! ranged reads: a fixed 20-byte superblock, then a variable-length header
//! ending in a CRC32, then the chunk payloads back to back.  A reader needs
//! exactly two ranged reads (superblock, header) before it can fetch any
//! individual chunk by absolute offset.
//!
//! ```text
//! superblock (20 bytes):
//!   magic       u32  = "FRZS" (little-endian)
//!   version     u8   = 1
//!   dtype       u8   (0 = f32, 1 = f64)
//!   ndims       u8   (1..=4)
//!   reserved    u8   = 0
//!   header_len  u32  (bytes following the superblock, incl. header CRC)
//!   object_len  u64  (total container size; pins truncation/garbage)
//! header (header_len bytes):
//!   axes         ndims x u64   (slowest axis first)
//!   chunk_shape  ndims x u64   (1 <= chunk <= axis)
//!   timestep     u64
//!   application  str           (u16 length + UTF-8)
//!   field        str
//!   codec        str
//!   n_options    u16
//!   options      n_options x { key str, tag u8, value }
//!                tags: 0 f64 (8 bytes) | 1 u64 (8 bytes) | 2 bool (1 byte)
//!                      | 3 str; keys strictly ascending (canonical)
//!   n_chunks     u64            (must equal the grid's chunk count)
//!   index        n_chunks x { offset u64, length u64, bound f64, crc32 u32 }
//!   header_crc   u32            (CRC32 of superblock + header up to here)
//! payloads:
//!   chunk 0 .. chunk n-1, contiguous, in chunk order
//! ```
//!
//! Decoding validates *everything* before trusting it: magic/version, the
//! dtype tag and grid shape (through the shared [`fraz_data::wire`] reader:
//! rank 1..=4, non-zero axes of at most 2^40, overflow-checked product; the
//! product is further capped at 2^41 here), chunk-shape sanity, canonical
//! option ordering, an index count the remaining header can actually hold,
//! exact header consumption, the header CRC, and a strictly contiguous
//! index whose last entry ends exactly at `object_len`.  Any violation is
//! [`StoreError::Corrupt`]; nothing panics and no allocation is sized by
//! unvalidated input.

use fraz_data::wire::{ByteReader, ByteWriter, WireError};
use fraz_data::DType;
use fraz_pressio::{OptionValue, Options};

use crate::grid::ChunkGrid;
use crate::StoreError;

/// `"FRZS"` little-endian.
pub const MAGIC: u32 = u32::from_le_bytes(*b"FRZS");
/// Current container version.
pub const VERSION: u8 = 1;
/// Size of the fixed superblock.
pub const SUPERBLOCK_LEN: usize = 20;

/// Elements per array are capped at 2^41.
const MAX_ELEMENTS: u64 = 1 << 41;
/// Strings (application, field, codec, option keys/values) are capped.
const MAX_STR_LEN: usize = 4096;
/// Number of codec options is capped.
const MAX_OPTIONS: usize = 64;
/// The header (everything after the superblock) is capped; with the chunk
/// count bounded by MAX_ELEMENTS this is generous but finite.
const MAX_HEADER_LEN: u64 = 1 << 28;

const INDEX_ENTRY_LEN: usize = 8 + 8 + 8 + 4;

/// Per-chunk index entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkEntry {
    /// Absolute byte offset of the chunk payload within the object.
    pub offset: u64,
    /// Payload length in bytes.
    pub length: u64,
    /// The tuned error bound this chunk was compressed with.
    pub bound: f64,
    /// CRC32 (IEEE) of the payload bytes.
    pub crc32: u32,
}

/// Everything the header describes about an array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayMeta {
    /// Element type.
    pub dtype: DType,
    /// Field shape, slowest axis first.
    pub dims: Vec<usize>,
    /// Nominal chunk shape (edge chunks are clamped).
    pub chunk_shape: Vec<usize>,
    /// Time-step index of the source dataset.
    pub timestep: u64,
    /// Application name of the source dataset.
    pub application: String,
    /// Field name of the source dataset.
    pub field: String,
    /// Registry name of the codec the chunks were compressed with.
    pub codec: String,
    /// Codec options the writer used.
    pub options: Options,
    /// Per-chunk offset/length/bound/CRC index, in chunk order.
    pub index: Vec<ChunkEntry>,
}

impl ArrayMeta {
    /// The chunk grid this container describes.
    pub fn grid(&self) -> ChunkGrid {
        // Validated during decode/encode, so this cannot fail.
        ChunkGrid::new(&self.dims, &self.chunk_shape).expect("meta holds a valid grid")
    }

    /// Total compressed payload bytes across all chunks.
    pub fn payload_bytes(&self) -> u64 {
        self.index.iter().map(|e| e.length).sum()
    }

    /// Uncompressed size of the array in bytes.
    pub fn uncompressed_bytes(&self) -> u64 {
        self.dims.iter().map(|&d| d as u64).product::<u64>() * self.dtype.byte_width() as u64
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) — implemented locally so the
// store adds no dependency; the tables are built at compile time.
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table, and
/// `CRC_TABLES[k][b]` is the CRC register after byte `b` is followed by `k`
/// zero bytes — so eight table lookups advance the register eight bytes.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// CRC32 (IEEE) of `data`: eight bytes per step, the tail bytewise.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Strings are u16-length-prefixed; refuse (rather than truncate) one the
/// decoder's cap would reject.
fn capped(s: &str) -> Result<&str, StoreError> {
    if s.len() > MAX_STR_LEN {
        return Err(StoreError::Unsupported(format!(
            "string of {} bytes exceeds the {MAX_STR_LEN}-byte cap",
            s.len()
        )));
    }
    Ok(s)
}

/// Assemble a complete container object from metadata (whose `index` field
/// is ignored), the per-chunk bounds, and the per-chunk payloads.
pub fn encode(
    meta: &ArrayMeta,
    bounds: &[f64],
    payloads: &[Vec<u8>],
) -> Result<Vec<u8>, StoreError> {
    let grid = ChunkGrid::new(&meta.dims, &meta.chunk_shape)?;
    let n_chunks = grid.n_chunks();
    assert_eq!(bounds.len(), n_chunks, "one bound per chunk");
    assert_eq!(payloads.len(), n_chunks, "one payload per chunk");
    if meta.options.len() > MAX_OPTIONS {
        return Err(StoreError::Unsupported(format!(
            "{} codec options exceed the {MAX_OPTIONS}-option cap",
            meta.options.len()
        )));
    }

    // Header body (everything between the superblock and the header CRC).
    let mut header = ByteWriter::new();
    header.put_axes(&meta.dims);
    header.put_axes(grid.chunk_shape());
    header.put_u64(meta.timestep);
    header.put_str(capped(&meta.application)?);
    header.put_str(capped(&meta.field)?);
    header.put_str(capped(&meta.codec)?);
    header.put_u16(meta.options.len() as u16);
    for (key, value) in meta.options.iter() {
        header.put_str(capped(key)?);
        match value {
            OptionValue::F64(v) => {
                header.put_u8(0);
                header.put_f64(*v);
            }
            OptionValue::U64(v) => {
                header.put_u8(1);
                header.put_u64(*v);
            }
            OptionValue::Bool(v) => {
                header.put_u8(2);
                header.put_u8(u8::from(*v));
            }
            OptionValue::Str(v) => {
                header.put_u8(3);
                header.put_str(capped(v)?);
            }
        }
    }
    header.put_u64(n_chunks as u64);

    let header_len = header.len() + n_chunks * INDEX_ENTRY_LEN + 4;
    if header_len as u64 > MAX_HEADER_LEN {
        return Err(StoreError::Unsupported("header exceeds size cap".into()));
    }
    let data_start = SUPERBLOCK_LEN as u64 + header_len as u64;
    let payload_total: u64 = payloads.iter().map(|p| p.len() as u64).sum();
    let object_len = data_start + payload_total;

    let mut out = ByteWriter::with_capacity(object_len as usize);
    out.put_u32(MAGIC);
    out.put_u8(VERSION);
    out.put_u8(meta.dtype.tag());
    out.put_u8(meta.dims.len() as u8);
    out.put_u8(0); // reserved
    out.put_u32(header_len as u32);
    out.put_u64(object_len);
    out.put_bytes(header.as_bytes());

    let mut offset = data_start;
    for (payload, &bound) in payloads.iter().zip(bounds) {
        out.put_u64(offset);
        out.put_u64(payload.len() as u64);
        out.put_f64(bound);
        out.put_u32(crc32(payload));
        offset += payload.len() as u64;
    }
    out.put_u32(crc32(out.as_bytes()));
    debug_assert_eq!(out.len(), data_start as usize);

    for payload in payloads {
        out.put_bytes(payload);
    }
    debug_assert_eq!(out.len() as u64, object_len);
    Ok(out.into_bytes())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        StoreError::corrupt(format!("header: {e}"))
    }
}

/// A header string: u16-length-prefixed UTF-8 of at most [`MAX_STR_LEN`]
/// bytes.
fn read_str(cur: &mut ByteReader<'_>) -> Result<String, StoreError> {
    let s = cur.get_str()?;
    if s.len() > MAX_STR_LEN {
        return Err(StoreError::corrupt("string length above cap"));
    }
    Ok(s)
}

/// The validated superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperBlock {
    /// Element type of the array.
    pub dtype: DType,
    /// Rank of the array (1..=4).
    pub ndims: usize,
    /// Length of the header that follows the superblock.
    pub header_len: u32,
    /// Total object size in bytes.
    pub object_len: u64,
}

/// Parse and validate the 20-byte superblock.
pub fn decode_superblock(bytes: &[u8]) -> Result<SuperBlock, StoreError> {
    if bytes.len() != SUPERBLOCK_LEN {
        return Err(StoreError::corrupt(format!(
            "superblock is {} bytes, expected {SUPERBLOCK_LEN}",
            bytes.len()
        )));
    }
    let mut cur = ByteReader::new(bytes);
    if cur.get_u32()? != MAGIC {
        return Err(StoreError::corrupt("bad magic (not an FRZS container)"));
    }
    let version = cur.get_u8()?;
    if version != VERSION {
        return Err(StoreError::corrupt(format!(
            "unsupported container version {version}"
        )));
    }
    let dtype = cur.get_dtype()?;
    let ndims = cur.get_u8()? as usize;
    if !(1..=4).contains(&ndims) {
        return Err(StoreError::corrupt(format!("rank {ndims} outside 1..=4")));
    }
    if cur.get_u8()? != 0 {
        return Err(StoreError::corrupt("non-zero reserved byte"));
    }
    let header_len = cur.get_u32()?;
    if header_len as u64 > MAX_HEADER_LEN {
        return Err(StoreError::corrupt("header length above cap"));
    }
    let object_len = cur.get_u64()?;
    if object_len < SUPERBLOCK_LEN as u64 + header_len as u64 {
        return Err(StoreError::corrupt("object length shorter than header"));
    }
    Ok(SuperBlock {
        dtype,
        ndims,
        header_len,
        object_len,
    })
}

/// Parse and validate the header given its superblock.
///
/// `superblock_bytes` are the 20 raw bytes (needed for the header CRC);
/// `header_bytes` must be exactly `sb.header_len` long.
pub fn decode_header(
    sb: &SuperBlock,
    superblock_bytes: &[u8],
    header_bytes: &[u8],
) -> Result<ArrayMeta, StoreError> {
    if header_bytes.len() != sb.header_len as usize {
        return Err(StoreError::corrupt("header length mismatch"));
    }
    if header_bytes.len() < 4 {
        return Err(StoreError::corrupt("header too short for its CRC"));
    }
    let (body, crc_bytes) = header_bytes.split_at(header_bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    let mut crc_input = Vec::with_capacity(SUPERBLOCK_LEN + body.len());
    crc_input.extend_from_slice(superblock_bytes);
    crc_input.extend_from_slice(body);
    if crc32(&crc_input) != stored_crc {
        return Err(StoreError::corrupt("header CRC mismatch"));
    }

    let mut cur = ByteReader::new(body);
    let shape = cur.get_dims(sb.ndims)?;
    if shape.len() as u64 > MAX_ELEMENTS {
        return Err(StoreError::corrupt("element count above cap"));
    }
    let dims = shape.as_slice().to_vec();
    let mut chunk_shape = Vec::with_capacity(sb.ndims);
    for &axis in &dims {
        let chunk = cur.get_u64()?;
        if chunk == 0 || chunk > axis as u64 {
            return Err(StoreError::corrupt("chunk axis outside 1..=axis"));
        }
        chunk_shape.push(chunk as usize);
    }
    let timestep = cur.get_u64()?;
    let application = read_str(&mut cur)?;
    let field = read_str(&mut cur)?;
    let codec = read_str(&mut cur)?;
    let n_options = cur.get_u16()? as usize;
    if n_options > MAX_OPTIONS {
        return Err(StoreError::corrupt("option count above cap"));
    }
    let mut options = Options::new();
    let mut last_key: Option<String> = None;
    for _ in 0..n_options {
        let key = read_str(&mut cur)?;
        if let Some(prev) = &last_key {
            if *prev >= key {
                return Err(StoreError::corrupt("option keys not strictly ascending"));
            }
        }
        let value = match cur.get_u8()? {
            0 => OptionValue::F64(cur.get_f64()?),
            1 => OptionValue::U64(cur.get_u64()?),
            2 => match cur.get_u8()? {
                0 => OptionValue::Bool(false),
                1 => OptionValue::Bool(true),
                _ => return Err(StoreError::corrupt("non-canonical bool option")),
            },
            3 => OptionValue::Str(read_str(&mut cur)?),
            other => return Err(StoreError::corrupt(format!("unknown option tag {other}"))),
        };
        options.set(&key, value);
        last_key = Some(key);
    }

    let grid = ChunkGrid::new(&dims, &chunk_shape)
        .map_err(|e| StoreError::corrupt(format!("invalid grid: {e}")))?;
    let n_chunks = cur.get_count(INDEX_ENTRY_LEN)?;
    if n_chunks != grid.n_chunks() {
        return Err(StoreError::corrupt(format!(
            "index claims {n_chunks} chunks, grid has {}",
            grid.n_chunks()
        )));
    }

    let data_start = SUPERBLOCK_LEN as u64 + sb.header_len as u64;
    let mut index = Vec::with_capacity(grid.n_chunks());
    let mut expected_offset = data_start;
    for _ in 0..grid.n_chunks() {
        let offset = cur.get_u64()?;
        let length = cur.get_u64()?;
        let bound = cur.get_f64()?;
        let crc = cur.get_u32()?;
        if offset != expected_offset {
            return Err(StoreError::corrupt("index offsets are not contiguous"));
        }
        if length == 0 {
            return Err(StoreError::corrupt("zero-length chunk payload"));
        }
        if !(bound.is_finite() && bound > 0.0) {
            return Err(StoreError::corrupt("chunk bound is not finite positive"));
        }
        expected_offset = offset
            .checked_add(length)
            .ok_or_else(|| StoreError::corrupt("index offset overflow"))?;
        index.push(ChunkEntry {
            offset,
            length,
            bound,
            crc32: crc,
        });
    }
    cur.finish()?;
    if expected_offset != sb.object_len {
        return Err(StoreError::corrupt(
            "payloads do not end exactly at object_len",
        ));
    }

    Ok(ArrayMeta {
        dtype: sb.dtype,
        dims,
        chunk_shape,
        timestep,
        application,
        field,
        codec,
        options,
        index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta() -> ArrayMeta {
        ArrayMeta {
            dtype: DType::F32,
            dims: vec![4, 6],
            chunk_shape: vec![2, 3],
            timestep: 7,
            application: "hurricane".into(),
            field: "CLOUDf".into(),
            codec: "szx".into(),
            options: Options::new().with("szx:block_size", 64u64),
            index: Vec::new(),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The CRC one byte at a time, straight from the bit definition.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc32_is_the_bytewise_crc_at_every_length_and_alignment() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        for align in 0..8 {
            for len in 0..=1024 {
                let data = &bytes[align..align + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "{len} bytes at +{align}");
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip_preserves_everything() {
        let meta = sample_meta();
        let payloads: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 + 1; 10 + i]).collect();
        let bounds = vec![0.5, 0.25, 0.125, 1.0];
        let object = encode(&meta, &bounds, &payloads).unwrap();

        let sb = decode_superblock(&object[..SUPERBLOCK_LEN]).unwrap();
        assert_eq!(sb.object_len, object.len() as u64);
        let header = &object[SUPERBLOCK_LEN..SUPERBLOCK_LEN + sb.header_len as usize];
        let decoded = decode_header(&sb, &object[..SUPERBLOCK_LEN], header).unwrap();
        assert_eq!(decoded.dims, meta.dims);
        assert_eq!(decoded.chunk_shape, meta.chunk_shape);
        assert_eq!(decoded.timestep, 7);
        assert_eq!(decoded.application, "hurricane");
        assert_eq!(decoded.field, "CLOUDf");
        assert_eq!(decoded.codec, "szx");
        assert_eq!(decoded.options, meta.options);
        assert_eq!(decoded.index.len(), 4);
        for (entry, (payload, &bound)) in decoded.index.iter().zip(payloads.iter().zip(&bounds)) {
            assert_eq!(entry.length, payload.len() as u64);
            assert_eq!(entry.bound, bound);
            assert_eq!(entry.crc32, crc32(payload));
            let got = &object[entry.offset as usize..(entry.offset + entry.length) as usize];
            assert_eq!(got, payload.as_slice());
        }
    }

    #[test]
    fn all_option_kinds_roundtrip() {
        let mut meta = sample_meta();
        meta.dims = vec![2];
        meta.chunk_shape = vec![2];
        meta.options = Options::new()
            .with("a:f", 0.125f64)
            .with("b:u", 9u64)
            .with("c:b", true)
            .with("d:s", "mode");
        let object = encode(&meta, &[1.0], &[vec![1, 2, 3]]).unwrap();
        let sb = decode_superblock(&object[..SUPERBLOCK_LEN]).unwrap();
        let decoded = decode_header(
            &sb,
            &object[..SUPERBLOCK_LEN],
            &object[SUPERBLOCK_LEN..SUPERBLOCK_LEN + sb.header_len as usize],
        )
        .unwrap();
        assert_eq!(decoded.options, meta.options);
    }

    #[test]
    fn header_crc_pins_every_header_byte() {
        let meta = sample_meta();
        let payloads: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 8]).collect();
        let object = encode(&meta, &[0.1; 4], &payloads).unwrap();
        let sb = decode_superblock(&object[..SUPERBLOCK_LEN]).unwrap();
        let header_end = SUPERBLOCK_LEN + sb.header_len as usize;
        // Flipping any single header-body bit must be caught (by the CRC or
        // by a structural check — either way, an error).
        for pos in SUPERBLOCK_LEN..header_end {
            let mut copy = object.clone();
            copy[pos] ^= 0x01;
            let header = &copy[SUPERBLOCK_LEN..header_end];
            assert!(
                decode_header(&sb, &copy[..SUPERBLOCK_LEN], header).is_err(),
                "flip at {pos} decoded"
            );
        }
    }
}
