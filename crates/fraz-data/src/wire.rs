//! The one byte layer every FRaZ wire format is written and parsed with.
//!
//! Codec blobs, FRZS containers and service frames all serialize small
//! little-endian headers around their payloads.  [`ByteWriter`] and
//! [`ByteReader`] are that plumbing, and this module is also where the
//! *trust boundary* lives — the three decisions every decoder used to
//! re-derive by hand:
//!
//! * **the element-type tag** — [`DType::tag`] / [`DType::from_tag`], read
//!   with [`ByteReader::get_dtype`];
//! * **the grid shape** — [`ByteReader::get_dims`] reads a rank's worth of
//!   `u64` axes, caps each at [`MAX_AXIS_LEN`] and hands them to
//!   [`Dims::try_new`] (rank 1..=4, non-zero axes, overflow-checked
//!   product), so [`Dims::new`] never sees unvalidated input;
//! * **the count / reservation rule** — a decoded number sizes an allocation
//!   only after it is checked against what the remaining input can encode
//!   ([`ByteReader::get_count`], [`ByteReader::get_values`]); where a
//!   legitimate stream can expand far beyond its input (constant blocks,
//!   all-zero transform blocks) the reservation goes through [`try_vec`] and
//!   its failure is the typed error.
//!
//! On top of it sits the blob prefix the four codecs share,
//! [`DatasetHeader`], and beside it [`crc32`], the checksum FRZS containers
//! and tune-cache lines carry.  Every failure is a [`WireError`]; nothing here
//! panics or aborts on hostile bytes.  A codec's own failure is a
//! [`CodecError`]: a [`WireError`] becomes its corrupt-stream class, so a
//! codec's decoder reads through this layer with a bare `?`.

use std::fmt;

use crate::{DType, DataBuffer, Dataset, Dims};

/// Largest axis length accepted off the wire (2^40, the cap the codecs have
/// always applied).
pub const MAX_AXIS_LEN: u64 = 1 << 40;

/// A decode failure: the bytes are not something a FRaZ writer produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a complete field could be read.
    Truncated {
        /// Bytes the field needs.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// A field holds a value no writer produces (or no reader may trust).
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(f, "input ends {} byte(s) short", needed - remaining)
            }
            WireError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for WireError {}

/// A codec call's failure, classed the way a search needs it: a refused
/// setting, an unsupported grid, a corrupt stream or a region outside the
/// stream's grid.  Every codec crate
/// returns it, and `fraz_pressio::PressioError` is its name at the
/// abstraction layer.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The bound/parameter is outside the compressor's valid range.
    InvalidBound(String),
    /// The dataset's dimensionality or type is unsupported by this backend.
    Unsupported(String),
    /// The underlying codec failed.
    Codec(String),
    /// A region request is not a non-empty box of the stream's grid: the
    /// wrong rank, an empty range, or a range past its axis.
    InvalidRegion(String),
}

impl CodecError {
    /// A corrupt stream, from any decoder's error: the `map_err` for the
    /// lossless stage's `CodingError`, which this crate cannot name.
    pub fn corrupt(e: impl fmt::Display) -> Self {
        CodecError::Codec(e.to_string())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::InvalidBound(msg) => write!(f, "invalid error-bound setting: {msg}"),
            CodecError::Unsupported(msg) => write!(f, "unsupported input: {msg}"),
            CodecError::Codec(msg) => write!(f, "codec failure: {msg}"),
            CodecError::InvalidRegion(msg) => write!(f, "invalid region: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> Self {
        CodecError::corrupt(e)
    }
}

fn invalid(msg: String) -> WireError {
    WireError::Invalid(msg)
}

/// An empty vector with room for `capacity` elements — or a typed error
/// where `Vec::with_capacity` would abort the process.
pub fn try_vec<T>(capacity: usize) -> Result<Vec<T>, WireError> {
    let mut v = Vec::new();
    v.try_reserve_exact(capacity)
        .map_err(|_| invalid(format!("cannot reserve {capacity} decoded elements")))?;
    Ok(v)
}

/// Append-only little-endian byte writer.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a writer with reserved capacity.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer and return its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f32`.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed (u32) byte section.
    pub fn put_section(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.put_bytes(bytes);
    }

    /// Append a length-prefixed (u16) UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.put_u16(bytes.len().min(u16::MAX as usize) as u16);
        self.put_bytes(&bytes[..bytes.len().min(u16::MAX as usize)]);
    }

    /// Append axis lengths as `u64`s, slowest first (the rank travels
    /// separately — each format stores it where its layout wants it).
    pub fn put_axes(&mut self, axes: &[usize]) {
        for &axis in axes {
            self.put_u64(axis as u64);
        }
    }

    /// Append a `u64` count followed by the values at `dtype`'s native
    /// width (read back with [`ByteReader::get_values`]).
    pub fn put_values(&mut self, values: &[f64], dtype: DType) {
        self.put_u64(values.len() as u64);
        for &v in values {
            match dtype {
                DType::F32 => self.put_f32(v as f32),
                DType::F64 => self.put_f64(v),
            }
        }
    }
}

/// Sequential little-endian byte reader: every read is bounds-checked
/// slicing over the input, and every decoded size is validated before it
/// is trusted (see the module docs).
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wrap a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes still available.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Borrow the remaining unread bytes without consuming them.
    pub fn rest(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }

    /// Succeeds only when every input byte has been consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(invalid(format!("{n} trailing byte(s) after the payload"))),
        }
    }

    /// Read exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn get_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let bytes = self.get_bytes(N)?;
        Ok(bytes.try_into().expect("get_bytes returned N bytes"))
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.get_array::<1>()?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        self.get_array().map(u16::from_le_bytes)
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        self.get_array().map(u32::from_le_bytes)
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        self.get_array().map(u64::from_le_bytes)
    }

    /// Read a little-endian `f32`.
    pub fn get_f32(&mut self) -> Result<f32, WireError> {
        self.get_array().map(f32::from_le_bytes)
    }

    /// Read a little-endian `f64`.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        self.get_array().map(f64::from_le_bytes)
    }

    /// Read a length-prefixed (u32) byte section.
    pub fn get_section(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        self.get_bytes(len)
    }

    /// Read a length-prefixed (u16) UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let len = self.get_u16()? as usize;
        let bytes = self.get_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| invalid("string is not UTF-8".into()))
    }

    /// Read a one-byte element-type tag.
    pub fn get_dtype(&mut self) -> Result<DType, WireError> {
        let tag = self.get_u8()?;
        DType::from_tag(tag).ok_or_else(|| invalid(format!("unknown dtype tag {tag}")))
    }

    /// Read `rank` `u64` axis lengths (slowest first) as a validated grid
    /// shape: each axis at most [`MAX_AXIS_LEN`], then [`Dims::try_new`].
    pub fn get_dims(&mut self, rank: usize) -> Result<Dims, WireError> {
        let mut axes = Vec::with_capacity(rank.min(4));
        for _ in 0..rank {
            let axis = self.get_u64()?;
            if axis > MAX_AXIS_LEN {
                return Err(invalid(format!("axis length {axis} above the 2^40 cap")));
            }
            axes.push(usize::try_from(axis).map_err(|_| invalid("axis overflows".into()))?);
        }
        Dims::try_new(&axes)
    }

    /// Read a `u64` count of items that each occupy at least
    /// `min_item_bytes` of the remaining input, rejecting counts the input
    /// cannot hold — the caller may size an allocation by the result.
    pub fn get_count(&mut self, min_item_bytes: usize) -> Result<usize, WireError> {
        let count = self.get_u64()?;
        usize::try_from(count)
            .ok()
            .filter(|n| {
                n.checked_mul(min_item_bytes)
                    .is_some_and(|bytes| bytes <= self.remaining())
            })
            .ok_or_else(|| {
                invalid(format!(
                    "count {count} exceeds what the remaining {} byte(s) can hold",
                    self.remaining()
                ))
            })
    }

    /// Read a counted run of `dtype`-width values written by
    /// [`ByteWriter::put_values`], widened to `f64`.
    pub fn get_values(&mut self, dtype: DType) -> Result<Vec<f64>, WireError> {
        let count = self.get_count(dtype.byte_width())?;
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            values.push(match dtype {
                DType::F32 => self.get_f32()? as f64,
                DType::F64 => self.get_f64()?,
            });
        }
        Ok(values)
    }
}

/// The blob prefix shared by every codec:
///
/// ```text
/// magic u32 · version u8 · dtype u8 · rank u8 · axes u64×rank ·
/// timestep u64 · application str16 · field str16
/// ```
///
/// Each codec passes its own magic and version and appends its parameters
/// and payload after it.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetHeader {
    /// Element type of the original buffer.
    pub dtype: DType,
    /// Validated grid shape.
    pub dims: Dims,
    /// Time-step index.
    pub timestep: usize,
    /// Application name.
    pub application: String,
    /// Field name.
    pub field: String,
}

impl DatasetHeader {
    /// Append the prefix describing `dataset`.
    pub fn write(dataset: &Dataset, magic: u32, version: u8, w: &mut ByteWriter) {
        w.put_u32(magic);
        w.put_u8(version);
        w.put_u8(dataset.dtype().tag());
        w.put_u8(dataset.dims.ndims() as u8);
        w.put_axes(dataset.dims.as_slice());
        w.put_u64(dataset.timestep as u64);
        w.put_str(&dataset.application);
        w.put_str(&dataset.field);
    }

    /// Parse and validate the prefix, insisting on the caller's magic and
    /// version.
    pub fn read(r: &mut ByteReader<'_>, magic: u32, version: u8) -> Result<Self, WireError> {
        let found = r.get_u32()?;
        if found != magic {
            return Err(invalid(format!("bad magic 0x{found:08x}")));
        }
        let found = r.get_u8()?;
        if found != version {
            return Err(invalid(format!("unsupported version {found}")));
        }
        let dtype = r.get_dtype()?;
        let rank = r.get_u8()? as usize;
        Ok(Self {
            dtype,
            dims: r.get_dims(rank)?,
            timestep: r.get_u64()? as usize,
            application: r.get_str()?,
            field: r.get_str()?,
        })
    }

    /// Attach the decoded values, completing the dataset.
    pub fn into_dataset(self, buffer: DataBuffer) -> Dataset {
        debug_assert_eq!(buffer.len(), self.dims.len());
        Dataset {
            application: self.application,
            field: self.field,
            timestep: self.timestep,
            dims: self.dims,
            buffer,
        }
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) — the FRZS container's
// chunk and header checksums and the tune cache's line checksum; the tables
// are built at compile time.
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn scalar_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(1024);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_f32(1.5);
        w.put_f64(-2.25e300);
        assert_eq!(w.len(), 1 + 2 + 4 + 8 + 4 + 8);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 1024);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f32().unwrap(), 1.5);
        assert_eq!(r.rest().len(), 8);
        assert!(r.finish().is_err());
        assert_eq!(r.get_f64().unwrap(), -2.25e300);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn section_and_string_roundtrip() {
        let mut w = ByteWriter::new();
        assert!(w.is_empty());
        w.put_str("QCLOUDf.log10");
        w.put_section(&[1, 2, 3, 4, 5]);
        w.put_str("");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_str().unwrap(), "QCLOUDf.log10");
        assert_eq!(r.get_section().unwrap(), &[1, 2, 3, 4, 5]);
        assert_eq!(r.get_str().unwrap(), "");
    }

    #[test]
    fn eof_is_an_error_not_a_panic() {
        assert!(ByteReader::new(&[1, 2]).get_u32().is_err());
        // Declares a 3-byte string but provides none.
        assert!(ByteReader::new(&[3, 0]).get_str().is_err());
        assert!(ByteReader::new(&[2, 0, 0xff, 0xfe]).get_str().is_err());
    }

    #[test]
    fn counts_are_checked_against_the_remaining_input() {
        let mut w = ByteWriter::new();
        w.put_values(&[1.5, -2.0, 3.25], DType::F32);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8 + 3 * 4);
        let values = ByteReader::new(&bytes).get_values(DType::F32).unwrap();
        assert_eq!(values, vec![1.5, -2.0, 3.25]);
        // The same bytes cannot hold three f64s, let alone 2^61 of them.
        assert!(ByteReader::new(&bytes).get_values(DType::F64).is_err());
        let mut hostile = bytes.clone();
        hostile[7] = 0x20;
        assert!(ByteReader::new(&hostile).get_values(DType::F32).is_err());
        assert!(ByteReader::new(&hostile).get_count(1).is_err());
        assert!(try_vec::<f64>(usize::MAX / 4).is_err());
    }

    #[test]
    fn hostile_shapes_are_typed_errors() {
        let shape = |axes: &[u64]| {
            let mut w = ByteWriter::new();
            for &a in axes {
                w.put_u64(a);
            }
            let bytes = w.into_bytes();
            ByteReader::new(&bytes).get_dims(axes.len())
        };
        assert_eq!(shape(&[2, 3, 4]).unwrap(), Dims::d3(2, 3, 4));
        assert!(shape(&[]).is_err(), "rank 0");
        assert!(shape(&[1, 2, 3, 4, 5]).is_err(), "rank 5");
        assert!(shape(&[4, 0]).is_err(), "zero axis");
        assert!(shape(&[1 << 41]).is_err(), "axis above the cap");
        assert!(shape(&[1 << 36; 3]).is_err(), "product overflows");
        assert!(ByteReader::new(&[0; 15]).get_dims(2).is_err(), "truncated");
    }

    #[test]
    fn dataset_header_roundtrips_and_rejects_foreign_streams() {
        let dataset = Dataset::from_f64("app", "fld", 9, Dims::d2(2, 3), vec![0.0; 6]);
        let mut w = ByteWriter::new();
        DatasetHeader::write(&dataset, 0xABCD_0123, 2, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let head = DatasetHeader::read(&mut r, 0xABCD_0123, 2).unwrap();
        assert!(r.finish().is_ok());
        assert_eq!(head.clone().into_dataset(dataset.buffer.clone()), dataset);
        assert_eq!(head.dtype, DType::F64);
        assert!(DatasetHeader::read(&mut ByteReader::new(&bytes), 0xABCD_0124, 2).is_err());
        assert!(DatasetHeader::read(&mut ByteReader::new(&bytes), 0xABCD_0123, 1).is_err());
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(DatasetHeader::read(&mut r, 0xABCD_0123, 2).is_err());
        }
    }
}
