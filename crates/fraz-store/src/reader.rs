//! Reading arrays: header-first open, byte-range partial decode.
//!
//! [`ArrayReader::open`] issues exactly two ranged reads (superblock, then
//! header + index) and validates everything before trusting it.  Every read
//! — [`ArrayReader::read_region`], [`ArrayReader::read_chunk`] and
//! [`ArrayReader::read_all`] — takes one path: it computes the chunk set
//! intersecting the request, fetches **only those chunks' byte ranges**,
//! CRC-checks them and, in parallel on [`fraz_pool`], asks each chunk's
//! codec for that chunk's local intersection with the request
//! ([`Compressor::decompress_region`]) and pastes the answer straight into
//! the output.  Chunks outside the request are never read — the
//! partial-decode tests pin this with a counting `Store`, and pin the one
//! path with a counting codec.
//!
//! Asking for the intersection rather than the chunk lets a codec decode
//! less.  sz's Lorenzo predictor reads only lower neighbours and its
//! regression blocks read none, so the blocks an intersection needs are
//! those whose origin lies below its far corner on every axis: a box from
//! the chunk's origin to that corner.  A 64³ region over 32³ chunks touches
//! about 26 chunk volumes and sz rebuilds about 17 of them.  What is still
//! decoded in full is the chunk's dictionary-coded (LZSS) frame, and the
//! Huffman codes of every block before the last one needed.  The other
//! codecs decode the whole chunk and crop it (the trait's default).

use std::ops::Range;
use std::sync::{Arc, Mutex};

use fraz_data::{region, DataBuffer, Dataset, Dims};
use fraz_pool::Pool;
use fraz_pressio::{registry, Compressor};

use crate::format::{self, ArrayMeta, SUPERBLOCK_LEN};
use crate::grid::ChunkGrid;
use crate::store::Store;
use crate::StoreError;

/// A validated, opened container, ready to serve region reads.
pub struct ArrayReader<'a> {
    store: &'a dyn Store,
    key: String,
    meta: ArrayMeta,
    grid: ChunkGrid,
}

impl<'a> ArrayReader<'a> {
    /// Open and validate the container stored under `key`.
    ///
    /// Fails with [`StoreError::Corrupt`] on any malformed header, including
    /// a stored size that disagrees with the container's own `object_len`
    /// (which catches both truncation and trailing garbage without reading
    /// any payload).
    pub fn open(store: &'a dyn Store, key: &str) -> Result<Self, StoreError> {
        let size = store.size(key)?;
        if size < SUPERBLOCK_LEN as u64 {
            return Err(StoreError::corrupt(format!(
                "object is {size} bytes, smaller than the superblock"
            )));
        }
        let sb_bytes = store.get_range(key, 0, SUPERBLOCK_LEN as u64)?;
        let sb = format::decode_superblock(&sb_bytes)?;
        if sb.object_len != size {
            return Err(StoreError::corrupt(format!(
                "header claims {} bytes, store holds {size}",
                sb.object_len
            )));
        }
        let header = store.get_range(key, SUPERBLOCK_LEN as u64, sb.header_len as u64)?;
        let meta = format::decode_header(&sb, &sb_bytes, &header)?;
        let grid = ChunkGrid::new(&meta.dims, &meta.chunk_shape)
            .map_err(|e| StoreError::corrupt(format!("invalid grid: {e}")))?;
        Ok(Self {
            store,
            key: key.to_string(),
            meta,
            grid,
        })
    }

    /// The validated array metadata (dims, dtype, codec, per-chunk index).
    pub fn meta(&self) -> &ArrayMeta {
        &self.meta
    }

    /// The chunk grid of the container.
    pub fn grid(&self) -> &ChunkGrid {
        &self.grid
    }

    /// The key this reader was opened on.
    pub fn key(&self) -> &str {
        &self.key
    }

    fn codec(&self) -> Result<Arc<dyn Compressor>, StoreError> {
        registry::build_arc(&self.meta.codec, &self.meta.options)
            .map_err(|e| StoreError::Codec(e.to_string()))
    }

    /// Fetch and CRC-check chunk `idx`, and decode its intersection with
    /// `region` (global element ranges): the answer, in the chunk's own
    /// coordinates, and where that intersection starts in the region.
    fn decode_part(
        &self,
        codec: &dyn Compressor,
        idx: usize,
        region: &[Range<u64>],
    ) -> Result<(Dataset, Vec<usize>), StoreError> {
        let entry = self.meta.index[idx];
        let payload = self
            .store
            .get_range(&self.key, entry.offset, entry.length)?;
        if fraz_data::wire::crc32(&payload) != entry.crc32 {
            return Err(StoreError::corrupt(format!("chunk {idx}: CRC mismatch")));
        }
        let chunk_origin = self.grid.chunk_origin(idx);
        let chunk_shape = self.grid.chunk_shape_at(idx);
        let local: Vec<Range<usize>> = chunk_origin
            .iter()
            .zip(&chunk_shape)
            .zip(region)
            .map(|((&c, &s), r)| (r.start as usize).max(c) - c..(r.end as usize).min(c + s) - c)
            .collect();
        // The codec refuses a stream of any other grid than the chunk's.
        let part = codec
            .decompress_region(&payload, &Dims::new(&chunk_shape), &local)
            .map_err(|e| StoreError::Corrupt(format!("chunk {idx}: decode failed: {e}")))?;
        let shape: Vec<usize> = local.iter().map(|r| r.len()).collect();
        if part.dims.as_slice() != shape.as_slice() || part.buffer.len() != part.dims.len() {
            return Err(StoreError::corrupt(format!(
                "chunk {idx}: decoded dims {:?} do not match the requested {shape:?}",
                part.dims.as_slice()
            )));
        }
        if part.buffer.dtype() != self.meta.dtype {
            return Err(StoreError::corrupt(format!(
                "chunk {idx}: payload dtype does not match container dtype"
            )));
        }
        let within_region = chunk_origin
            .iter()
            .zip(&local)
            .zip(region)
            .map(|((&c, l), r)| c + l.start - r.start as usize)
            .collect();
        Ok((part, within_region))
    }

    /// Decode the subregion `region` (per-axis element ranges, slowest axis
    /// first), reading and decoding **only** the chunks it intersects.
    ///
    /// Chunk fetch+decode tasks run on the process-wide
    /// [`fraz_pool::global`] pool; see
    /// [`read_region_on`](Self::read_region_on) to use a specific pool.
    pub fn read_region(&self, region: &[Range<u64>]) -> Result<Dataset, StoreError> {
        self.read_region_impl(region, None)
    }

    /// [`read_region`](Self::read_region) on an explicit shared pool.
    pub fn read_region_on(
        &self,
        region: &[Range<u64>],
        pool: &Pool,
    ) -> Result<Dataset, StoreError> {
        self.read_region_impl(region, Some(pool))
    }

    fn read_region_impl(
        &self,
        region: &[Range<u64>],
        pool: Option<&Pool>,
    ) -> Result<Dataset, StoreError> {
        let chunk_ids = self.grid.chunks_intersecting(region)?;
        let codec = self.codec()?;
        let region_shape: Vec<usize> = region.iter().map(|r| (r.end - r.start) as usize).collect();
        let n_values: usize = region_shape.iter().product();
        let out = Mutex::new(match self.meta.dtype {
            fraz_data::DType::F32 => DataBuffer::F32(vec![0.0; n_values]),
            fraz_data::DType::F64 => DataBuffer::F64(vec![0.0; n_values]),
        });

        // Fetch, decode and paste in parallel: each task decodes its chunk's
        // intersection with the request and copies it straight into the
        // output (a row copy under the lock; decode dominates).
        let mut slots: Vec<Result<(), StoreError>> = Vec::new();
        slots.resize_with(chunk_ids.len(), || Ok(()));
        {
            let codec = codec.as_ref();
            let (out, region_shape) = (&out, &region_shape);
            let scope_pool = pool.unwrap_or_else(|| fraz_pool::global());
            scope_pool.scope(|scope| {
                for (slot, &idx) in slots.iter_mut().zip(&chunk_ids) {
                    scope.spawn(move || {
                        *slot = self
                            .decode_part(codec, idx, region)
                            .map(|(part, at)| paste(&part, &at, region_shape, out));
                    });
                }
            });
        }
        // The first failing chunk in chunk order, not in completion order,
        // so a damaged container reports the same chunk on every read.
        slots.into_iter().collect::<Result<(), StoreError>>()?;

        Ok(Dataset {
            application: self.meta.application.clone(),
            field: self.meta.field.clone(),
            timestep: self.meta.timestep as usize,
            dims: Dims::new(&region_shape),
            // A task that panicked mid-paste re-threw out of the scope above.
            buffer: out.into_inner().expect("no paste task panicked"),
        })
    }

    /// Decode the whole array.
    pub fn read_all(&self) -> Result<Dataset, StoreError> {
        let region: Vec<Range<u64>> = self.meta.dims.iter().map(|&d| 0..d as u64).collect();
        self.read_region(&region)
    }

    /// Decode a single chunk by linear index: the region that is the
    /// chunk's box.
    pub fn read_chunk(&self, idx: usize) -> Result<Dataset, StoreError> {
        if idx >= self.grid.n_chunks() {
            return Err(StoreError::InvalidRegion(format!(
                "chunk {idx} out of range (grid has {})",
                self.grid.n_chunks()
            )));
        }
        let region: Vec<Range<u64>> = self
            .grid
            .chunk_origin(idx)
            .iter()
            .zip(self.grid.chunk_shape_at(idx))
            .map(|(&o, s)| o as u64..(o + s) as u64)
            .collect();
        self.read_region(&region)
    }
}

/// Copy a decoded `part` into `out`, the region's buffer (of shape
/// `region_shape`), at `at`.
fn paste(part: &Dataset, at: &[usize], region_shape: &[usize], out: &Mutex<DataBuffer>) {
    let shape = part.dims.as_slice();
    let mut out = out
        .lock()
        .expect("a paste task panicked; the scope re-throws it");
    region::copy_box_buffer(
        &part.buffer,
        shape,
        &vec![0; shape.len()],
        &mut out,
        region_shape,
        at,
        shape,
    );
}
