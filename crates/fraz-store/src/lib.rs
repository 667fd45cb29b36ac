//! Chunked array store with per-chunk tuned error bounds and partial decode.
//!
//! FRaZ's offline search tunes **one** error bound per field and compresses
//! the field as a monolith.  That caps fidelity on non-stationary data (the
//! loud eye of Hurricane `CLOUDf` and its near-zero far field share a single
//! absolute bound) and forces a reader to decode everything to inspect
//! anything.  This crate provides the zarrs-style alternative:
//!
//! * [`ChunkGrid`] — a regular chunk grid over an n-dimensional field
//!   (configurable chunk shape, clamped edge chunks),
//! * [`Store`] — a storage abstraction (listable, readable, writable, with
//!   byte-range reads) with [`MemoryStore`] and [`FsStore`] backends and
//!   composable decorators: [`CountingStore`] (instrumentation),
//!   [`RetryStore`] (jittered backoff on transient errors), [`FallbackStore`]
//!   (degrade to a second store when the first fails) and [`FaultyStore`]
//!   (seeded fault injection),
//! * a self-describing container format (dims, dtype, chunk shape, codec
//!   name + options in the header; a per-chunk offset/length/bound/CRC32
//!   index; a header CRC) — see [`mod@format`],
//! * [`write_array`] — compresses chunks independently on [`fraz_pool`],
//!   running a [`fraz_core::FixedRatioSearch`] (or
//!   [`fraz_core::FixedQualitySearch`] for PSNR targets) *per chunk* so each
//!   chunk gets its own tuned bound, warm-starting each search from the last
//!   converged bound,
//! * [`ArrayReader`] — opens a container and serves
//!   [`read_region`](ArrayReader::read_region) requests by fetching and
//!   decoding **only** the chunks that intersect the request, via byte-range
//!   reads against the `Store`.
//!
//! Codecs are built through the `fraz-pressio` registry by name, so any
//! current or future backend (feature-gate aware) works unchanged.
//!
//! ```
//! use fraz_store::{write_array, ArrayReader, ChunkTarget, MemoryStore, StoreWriteConfig};
//! # fn main() -> Result<(), fraz_store::StoreError> {
//! let dataset = fraz_data::synthetic::hurricane(8, 16, 16, 1, 42).field("TCf", 0);
//! let store = MemoryStore::new();
//! let config = StoreWriteConfig::new(vec![4, 8, 8], "szx", ChunkTarget::FixedBound(0.05));
//! let report = write_array(&store, "TCf/t0", &dataset, &config)?;
//! assert_eq!(report.chunks.len(), 8);
//!
//! let reader = ArrayReader::open(&store, "TCf/t0")?;
//! // Decodes exactly the two chunks intersecting this slab — nothing else.
//! let slab = reader.read_region(&[2..6, 0..16, 0..8])?;
//! assert_eq!(slab.dims.as_slice(), &[4, 16, 8]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod fallback;
pub mod faulty;
pub mod format;
pub mod grid;
pub mod reader;
pub mod retry;
pub mod store;
pub mod writer;

use std::fmt;

pub use fallback::FallbackStore;
pub use faulty::{FaultConfig, FaultStats, FaultyStore};
pub use format::{ArrayMeta, ChunkEntry};
pub use grid::ChunkGrid;
pub use reader::ArrayReader;
pub use retry::{RetryPolicy, RetryStore};
pub use store::{CountingStore, FsStore, MemoryStore, Store};
pub use writer::{
    write_array, write_array_on, write_array_seeded, ChunkReport, ChunkTarget, StoreWriteConfig,
    WriteReport,
};

/// Everything that can go wrong in the store layer.
///
/// The decode paths treat *any* malformed container as
/// [`Corrupt`](StoreError::Corrupt) — truncation, bit flips, inconsistent counts and
/// garbage must all surface as an `Err`, never a panic or an out-of-bounds
/// read (the same posture as `fraz-szx`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Underlying storage I/O failed in a way that is worth retrying
    /// (interrupted syscall, timeout, resource temporarily busy).  The
    /// [`RetryStore`] decorator keys its backoff off this variant.
    Transient(String),
    /// Underlying storage I/O failed permanently (retrying is pointless).
    Io(String),
    /// The requested key does not exist in the store.
    NotFound(String),
    /// The container bytes are malformed, truncated or inconsistent.
    Corrupt(String),
    /// Building or running the codec failed.
    Codec(String),
    /// The request is structurally valid but not supported (codec cannot
    /// handle the chunk dimensionality, dtype mismatch, ...).
    Unsupported(String),
    /// The requested region is empty, out of bounds, or has the wrong rank.
    InvalidRegion(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Transient(msg) => write!(f, "transient storage error: {msg}"),
            StoreError::Io(msg) => write!(f, "storage I/O error: {msg}"),
            StoreError::NotFound(key) => write!(f, "key not found: {key}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt container: {msg}"),
            StoreError::Codec(msg) => write!(f, "codec error: {msg}"),
            StoreError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            StoreError::InvalidRegion(msg) => write!(f, "invalid region: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    pub(crate) fn corrupt(msg: impl Into<String>) -> Self {
        StoreError::Corrupt(msg.into())
    }

    /// True when retrying the operation may succeed (the retry layer's
    /// classification key).
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Transient(_))
    }

    /// Classify an [`std::io::Error`] under `context` into
    /// [`Transient`](StoreError::Transient) or [`Io`](StoreError::Io) by
    /// its kind: interruptions, timeouts and would-blocks are worth a
    /// retry; everything else (permissions, missing directories, full
    /// disks) is permanent.
    pub fn from_io(context: &str, error: &std::io::Error) -> Self {
        use std::io::ErrorKind;
        let msg = format!("{context}: {error}");
        match error.kind() {
            ErrorKind::Interrupted | ErrorKind::TimedOut | ErrorKind::WouldBlock => {
                StoreError::Transient(msg)
            }
            _ => StoreError::Io(msg),
        }
    }
}
