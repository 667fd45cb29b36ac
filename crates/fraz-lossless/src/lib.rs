//! Lossless coding substrate for FRaZ-rs.
//!
//! The SZ-like and MGARD-like compressors in this workspace finish with a
//! byte-level *dictionary encoder* stage, exactly as the original codecs
//! finish with Gzip or Zstd.  This crate provides that substrate from
//! scratch:
//!
//! * [`bitio`] — MSB-first bit readers and writers used by every entropy
//!   coding stage in the workspace.
//! * [`huffman`] — canonical, length-limited Huffman coding over arbitrary
//!   `u32` symbol alphabets (used both for SZ quantization codes and for the
//!   literal/length/distance alphabets of the dictionary coder).
//! * [`lzss`] — an LZSS (LZ77 with flags) dictionary coder with hash-chain
//!   match search and lazy matching, whose token stream is entropy coded with
//!   the canonical Huffman coder.  Functionally this plays the role Zstd/Gzip
//!   play in SZ's stage 4.
//! * [`rle`] — the unsigned varint the Huffman table serializer uses.
//!
//! The convenience functions [`compress`] and [`decompress`] bundle the LZSS
//! stage behind a stable framed format with a header, so callers can treat
//! this crate as a drop-in "byte squeezer".
//!
//! Every decoder here treats its input as hostile: a declared length or
//! count sizes an allocation only after it is checked against what the
//! input's bits can produce, and the reservation itself is fallible, so a
//! corrupt stream is a [`CodingError`], never an allocation abort.  (The
//! little-endian byte reader/writer the codecs build their headers with
//! lives in `fraz_data::wire`, which applies the same rule to header
//! fields; this crate sits below `fraz-data` and cannot share its helper.)
//!
//! # Example
//!
//! ```
//! let data: Vec<u8> = (0..10_000u32).map(|i| (i % 97) as u8).collect();
//! let packed = fraz_lossless::compress(&data);
//! assert!(packed.len() < data.len());
//! let restored = fraz_lossless::decompress(&packed).unwrap();
//! assert_eq!(restored, data);
//! ```

#![forbid(unsafe_code)]

pub mod bitio;
pub mod huffman;
pub mod lzss;
pub mod rle;

use std::fmt;

/// Errors produced while decoding a lossless stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodingError {
    /// The input ended before a complete symbol or header could be read.
    UnexpectedEof,
    /// A header field contained an invalid or unsupported value.
    InvalidHeader(String),
    /// A symbol outside the declared alphabet was encountered.
    InvalidSymbol(u32),
    /// A back-reference pointed before the start of the output.
    InvalidBackReference { distance: usize, produced: usize },
    /// The declared decoded length does not match what was produced.
    LengthMismatch { expected: usize, actual: usize },
    /// A Huffman code table could not be reconstructed.
    InvalidCodeTable(String),
}

impl fmt::Display for CodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodingError::UnexpectedEof => write!(f, "unexpected end of compressed stream"),
            CodingError::InvalidHeader(msg) => write!(f, "invalid header: {msg}"),
            CodingError::InvalidSymbol(sym) => write!(f, "invalid symbol {sym}"),
            CodingError::InvalidBackReference { distance, produced } => write!(
                f,
                "back-reference distance {distance} exceeds produced output {produced}"
            ),
            CodingError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "decoded length {actual} does not match declared {expected}"
                )
            }
            CodingError::InvalidCodeTable(msg) => write!(f, "invalid Huffman code table: {msg}"),
        }
    }
}

impl std::error::Error for CodingError {}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CodingError>;

/// An empty vector with room for `capacity` decoded elements — as a typed
/// error where `Vec::with_capacity` would abort on a corrupt length field.
pub(crate) fn try_vec<T>(capacity: usize) -> Result<Vec<T>> {
    let mut v = Vec::new();
    v.try_reserve_exact(capacity).map_err(|_| {
        CodingError::InvalidHeader(format!("cannot reserve {capacity} decoded elements"))
    })?;
    Ok(v)
}

/// Magic marker for the framed LZSS container produced by [`compress`].
const FRAME_MAGIC: u32 = 0x465A_4C31; // "FZL1"

std::thread_local! {
    /// One reusable [`lzss::LzssEncoder`] per thread.  The fixed-ratio
    /// search loop calls [`compress`] once per evaluated error bound from
    /// the shared work-stealing pool, so this amounts to one hash-chain /
    /// token scratch per pool worker instead of a fresh ~256 KB allocation
    /// per compressor call.
    static FRAME_ENCODER: std::cell::RefCell<lzss::LzssEncoder> =
        std::cell::RefCell::new(lzss::LzssEncoder::new());
}

/// Compress an arbitrary byte slice with the LZSS + Huffman dictionary coder.
///
/// The output is self-describing (magic, original length, payload) and can be
/// restored with [`decompress`].  Incompressible data grows by a small
/// constant number of header bytes plus a bounded per-block overhead.
///
/// Uses a per-thread reusable [`lzss::LzssEncoder`], so hot loops (the FRaZ
/// search evaluates one compression per candidate error bound) pay no
/// per-call scratch allocations.
pub fn compress(data: &[u8]) -> Vec<u8> {
    FRAME_ENCODER.with(|encoder| {
        let payload = encoder.borrow_mut().compress(data);
        let mut out = Vec::with_capacity(payload.len() + 12);
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    })
}

/// Decompress a buffer produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    if data.len() < 12 {
        return Err(CodingError::UnexpectedEof);
    }
    let magic = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    if magic != FRAME_MAGIC {
        return Err(CodingError::InvalidHeader(format!(
            "bad magic 0x{magic:08x}, expected 0x{FRAME_MAGIC:08x}"
        )));
    }
    let len = u64::from_le_bytes([
        data[4], data[5], data[6], data[7], data[8], data[9], data[10], data[11],
    ]) as usize;
    let decoded = lzss::decompress(&data[12..], len)?;
    if decoded.len() != len {
        return Err(CodingError::LengthMismatch {
            expected: len,
            actual: decoded.len(),
        });
    }
    Ok(decoded)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_empty() {
        let packed = compress(&[]);
        assert_eq!(decompress(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn roundtrip_single_byte() {
        let packed = compress(&[42]);
        assert_eq!(decompress(&packed).unwrap(), vec![42]);
    }

    #[test]
    fn roundtrip_repetitive() {
        let data = b"abcabcabcabcabcabcabcabcabcabc".repeat(100);
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 4);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn roundtrip_all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut packed = compress(b"hello world hello world");
        packed[0] ^= 0xff;
        assert!(matches!(
            decompress(&packed),
            Err(CodingError::InvalidHeader(_))
        ));
    }

    #[test]
    fn rejects_truncated_stream() {
        let packed = compress(b"some reasonably long input string for truncation");
        let truncated = &packed[..packed.len() / 2];
        assert!(decompress(truncated).is_err());
    }

    #[test]
    fn rejects_too_short_input() {
        assert_eq!(decompress(&[1, 2, 3]), Err(CodingError::UnexpectedEof));
    }

    #[test]
    fn error_display_is_informative() {
        let err = CodingError::InvalidBackReference {
            distance: 10,
            produced: 5,
        };
        assert!(err.to_string().contains("back-reference"));
        assert!(CodingError::UnexpectedEof
            .to_string()
            .contains("unexpected"));
    }
}
