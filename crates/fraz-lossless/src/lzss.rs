//! LZSS dictionary coder with hash-chain match search and Huffman-coded
//! tokens.
//!
//! This module plays the role that Gzip/Zstd play as SZ's fourth stage: a
//! byte-level dictionary encoder applied to the output of the entropy stage.
//! The design follows the classic DEFLATE recipe, simplified where the full
//! generality is not needed:
//!
//! * a 32 KiB sliding window,
//! * hash-chain match search over 4-byte anchors, at most 64 candidates per
//!   position, with lazy (one-step) matching,
//! * a combined literal/length alphabet (`0..=255` literals, `256 + (len-4)`
//!   match lengths) and a log2-bucketed distance alphabet, both entropy coded
//!   with the canonical [`crate::huffman`] coder,
//! * the decoded length is carried externally (the framed container in
//!   [`crate::compress`] stores it), so no end-of-block symbol is required.
//!
//! # Fast paths
//!
//! The encoder lives in a reusable [`LzssEncoder`] so the FRaZ search loop —
//! which compresses the same field dozens of times while hunting an error
//! bound — pays the ~160 KB hash-chain allocation once per worker thread
//! instead of once per call.  Match lengths are measured a word at a time
//! (u64 XOR + `trailing_zeros`), candidates are rejected with a one-byte
//! probe at the current best length before any full comparison, and very
//! long matches insert only a stride of their positions into the hash chains
//! (the skipped anchors could only produce matches the emitted one already
//! covers).  The decoder copies back-references in chunks with the bounds
//! check hoisted out of the loop.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::CodeBook;
use crate::{CodingError, Result};

/// Shortest match worth emitting.
pub const MIN_MATCH: usize = 4;
/// Longest representable match.
pub const MAX_MATCH: usize = 258;
/// First symbol of the match-length range in the literal/length alphabet.
const LEN_SYMBOL_BASE: u32 = 256;
/// Size of the combined literal/length alphabet
/// (`256` literals + `MAX_MATCH - MIN_MATCH + 1` lengths).
const LITLEN_ALPHABET: usize = 256 + MAX_MATCH - MIN_MATCH + 1;
/// Matches longer than this insert only a stride of their interior positions
/// into the hash chains (DEFLATE's "too long to bother" heuristic).
const INSERT_ALL_LIMIT: usize = 64;
/// Matches at least this long are emitted without the lazy one-step
/// look-ahead: a second full chain search can no longer buy enough ratio to
/// justify its cost (zlib's `good_length` idea).
const LAZY_CUTOFF: usize = 32;

/// Sliding-window size in bytes (maximum back-reference distance).
const WINDOW_SIZE: usize = 32 * 1024;
/// Maximum number of hash-chain candidates examined per position.
const MAX_CHAIN: usize = 64;

/// Compact token: literals carry the byte, matches their length
/// (`..=MAX_MATCH`) and distance (`..=WINDOW_SIZE`) as `u16`s — 6 bytes per
/// token keeps the scratch buffer, two full passes per compress call and
/// kept by every thread that compresses, small and cache-friendly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token {
    Literal(u8),
    Match { length: u16, distance: u16 },
}

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Chain terminator / "no entry" marker in `head`/`prev`.
const NIL: i32 = -1;

#[inline]
fn hash4(data: &[u8], pos: usize) -> usize {
    let v = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]` (`a < b`),
/// capped at `MAX_MATCH` and at the end of `data`.  Compares a word at a
/// time; the first mismatching byte index falls out of the XOR's trailing
/// zero count.
#[inline]
fn match_length(data: &[u8], a: usize, b: usize) -> usize {
    debug_assert!(a < b);
    let limit = MAX_MATCH.min(data.len() - b);
    let mut len = 0;
    while len + 8 <= limit {
        let x = u64::from_le_bytes(data[a + len..a + len + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(data[b + len..b + len + 8].try_into().expect("8 bytes"));
        let xor = x ^ y;
        if xor != 0 {
            return len + (xor.trailing_zeros() >> 3) as usize;
        }
        len += 8;
    }
    while len < limit && data[a + len] == data[b + len] {
        len += 1;
    }
    len
}

/// A reusable LZSS compressor.
///
/// Holds the hash-chain heads, the window's chain links, and the token
/// scratch buffer across calls, so repeated compression (the fixed-ratio
/// search loop evaluates the same dataset at dozens of error bounds) costs no
/// per-call allocations once the buffers have grown to the working-set size.
/// The framed [`crate::compress`] entry point keeps one encoder per thread,
/// which on the shared work-stealing pool means one scratch per pool worker.
#[derive(Debug, Clone)]
pub struct LzssEncoder {
    /// Most recent position for each hash bucket, `NIL` when empty.
    head: Vec<i32>,
    /// Previous position with the same hash, indexed by position modulo
    /// the window: a chain is never followed past the window, so a slot is
    /// only read while it still holds its position's link.
    prev: Vec<i32>,
    /// Token scratch reused between calls.
    tokens: Vec<Token>,
}

impl Default for LzssEncoder {
    fn default() -> Self {
        Self {
            head: vec![NIL; HASH_SIZE],
            prev: vec![NIL; WINDOW_SIZE],
            tokens: Vec::new(),
        }
    }
}

impl LzssEncoder {
    /// Create an encoder with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn insert(&mut self, data: &[u8], pos: usize) {
        if pos + MIN_MATCH > data.len() {
            return;
        }
        self.insert_hashed(pos, hash4(data, pos));
    }

    /// Insert `pos` whose anchor hash is already known.
    #[inline]
    fn insert_hashed(&mut self, pos: usize, h: usize) {
        self.prev[pos % WINDOW_SIZE] = self.head[h];
        self.head[h] = pos as i32;
    }

    /// Best `(length, distance)` match for position `pos`, if any reaches
    /// `MIN_MATCH`.
    fn find(&self, data: &[u8], pos: usize) -> Option<(usize, usize)> {
        if pos + MIN_MATCH > data.len() {
            return None;
        }
        self.find_hashed(data, pos, hash4(data, pos))
    }

    /// [`Self::find`] with the anchor hash already computed (the tokenizer
    /// hashes each position once and shares it between find and insert).
    fn find_hashed(&self, data: &[u8], pos: usize, h: usize) -> Option<(usize, usize)> {
        let mut candidate = self.head[h];
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut chain = 0usize;
        while candidate >= 0 && chain < MAX_CHAIN {
            let cand = candidate as usize;
            if pos - cand > WINDOW_SIZE {
                break;
            }
            // Cheap reject: to beat `best_len` the candidate must at least
            // match the byte at that offset, so probe it before paying for
            // the full word-level comparison.
            if pos + best_len < data.len() && data[cand + best_len] == data[pos + best_len] {
                let len = match_length(data, cand, pos);
                if len > best_len {
                    best_len = len;
                    best_dist = pos - cand;
                    if len >= MAX_MATCH || pos + len >= data.len() {
                        break;
                    }
                }
            }
            candidate = self.prev[cand % WINDOW_SIZE];
            chain += 1;
        }
        if best_len >= MIN_MATCH {
            Some((best_len, best_dist))
        } else {
            None
        }
    }

    /// Insert positions `from..to` into the hash chains.  Interior positions
    /// of a long emitted match are strided: any match starting there would be
    /// a (shorter) suffix of content the chains already reach, so sampling
    /// them costs almost no ratio and saves the dominant insertion work on
    /// highly repetitive data.
    fn insert_range(&mut self, data: &[u8], from: usize, to: usize) {
        let span = to.saturating_sub(from);
        let step = if span > INSERT_ALL_LIMIT {
            (span / INSERT_ALL_LIMIT).max(1)
        } else {
            1
        };
        let mut p = from;
        while p < to {
            self.insert(data, p);
            p += step;
        }
    }

    /// Tokenize one segment of input, *appending* to the token scratch and
    /// counting the two alphabets' frequencies on the fly (one pass instead
    /// of a second sweep over the token buffer).  Chain state is reset per
    /// segment; positions are relative to `data`'s start.
    fn tokenize(
        &mut self,
        data: &[u8],
        litlen_freq: &mut [u64; LITLEN_ALPHABET],
        dist_freq: &mut [u64; 64],
    ) {
        debug_assert!(data.len() <= i32::MAX as usize);
        self.head.fill(NIL);
        let mut pos = 0usize;
        while pos < data.len() {
            if pos + MIN_MATCH > data.len() {
                // Too close to the end for any match anchor: flush literals.
                for &b in &data[pos..] {
                    self.tokens.push(Token::Literal(b));
                    litlen_freq[b as usize] += 1;
                }
                break;
            }
            // One hash per position, shared between find and insert.
            let h = hash4(data, pos);
            match self.find_hashed(data, pos, h) {
                Some((mut length, mut distance)) => {
                    if length < LAZY_CUTOFF && pos + 1 < data.len() {
                        // Peek one position ahead; if a strictly longer match
                        // starts there, emit a literal instead and take it
                        // next iteration (classic lazy matching).
                        self.insert_hashed(pos, h);
                        if let Some((next_len, _)) = self.find(data, pos + 1) {
                            if next_len > length + 1 {
                                self.tokens.push(Token::Literal(data[pos]));
                                litlen_freq[data[pos] as usize] += 1;
                                pos += 1;
                                continue;
                            }
                        }
                        // We already inserted `pos`; insert the remainder of
                        // the match below starting from pos+1.
                        length = length.min(data.len() - pos);
                        distance = distance.min(pos);
                        self.tokens.push(Token::Match {
                            length: length as u16,
                            distance: distance as u16,
                        });
                        litlen_freq[LEN_SYMBOL_BASE as usize + (length - MIN_MATCH)] += 1;
                        dist_freq[distance_slot(distance).0 as usize] += 1;
                        self.insert_range(data, pos + 1, pos + length);
                        pos += length;
                        continue;
                    }
                    self.tokens.push(Token::Match {
                        length: length as u16,
                        distance: distance as u16,
                    });
                    litlen_freq[LEN_SYMBOL_BASE as usize + (length - MIN_MATCH)] += 1;
                    dist_freq[distance_slot(distance).0 as usize] += 1;
                    self.insert_range(data, pos, pos + length);
                    pos += length;
                }
                None => {
                    self.tokens.push(Token::Literal(data[pos]));
                    litlen_freq[data[pos] as usize] += 1;
                    self.insert_hashed(pos, h);
                    pos += 1;
                }
            }
        }
    }

    /// Compress `data` into an LZSS+Huffman payload (no framing header),
    /// reusing this encoder's scratch buffers.
    pub fn compress(&mut self, data: &[u8]) -> Vec<u8> {
        self.compress_segmented(data, SEGMENT_SIZE)
    }

    /// [`Self::compress`] with an explicit tokenization segment size
    /// (separated out so tests can exercise the segment boundary without a
    /// multi-hundred-megabyte input).
    fn compress_segmented(&mut self, data: &[u8], segment_size: usize) -> Vec<u8> {
        if data.is_empty() {
            return Vec::new();
        }
        // Frequency tables for the two alphabets, counted into flat arrays
        // during tokenization (the alphabets are small and dense by
        // construction).  Tokenization runs per segment so chain positions
        // always fit the `i32` tables regardless of input size; matches
        // never cross a segment boundary, which with a >=256 MiB segment and
        // a <=64 KiB window costs a vanishing fraction of the ratio.
        let mut litlen_freq = [0u64; LITLEN_ALPHABET];
        let mut dist_freq = [0u64; 64];
        self.tokens.clear();
        for segment in data.chunks(segment_size) {
            self.tokenize(segment, &mut litlen_freq, &mut dist_freq);
        }

        let collect = |freq: &[u64]| -> Vec<(u32, u64)> {
            let mut used = Vec::with_capacity(freq.len());
            used.extend(
                freq.iter()
                    .enumerate()
                    .filter(|&(_, &f)| f > 0)
                    .map(|(s, &f)| (s as u32, f)),
            );
            used
        };
        let litlen_book = CodeBook::from_frequencies(&collect(&litlen_freq));
        let dist_book = CodeBook::from_frequencies(&collect(&dist_freq));

        let mut w = BitWriter::with_capacity(data.len() / 2 + 64);
        litlen_book.write_table(&mut w);
        dist_book.write_table(&mut w);
        for t in &self.tokens {
            match *t {
                Token::Literal(b) => {
                    litlen_book
                        .encode_symbol(b as u32, &mut w)
                        .expect("literal in book");
                }
                Token::Match { length, distance } => {
                    litlen_book
                        .encode_symbol(
                            LEN_SYMBOL_BASE + (length as usize - MIN_MATCH) as u32,
                            &mut w,
                        )
                        .expect("length in book");
                    let (slot, extra_bits, extra) = distance_slot(distance as usize);
                    dist_book.encode_symbol(slot, &mut w).expect("slot in book");
                    w.write_bits(extra, extra_bits);
                }
            }
        }
        self.release_oversized_scratch();
        w.into_bytes()
    }

    /// Cap the scratch retained between calls.  The buffers grow to the
    /// largest input a thread has compressed; without a cap, one huge field
    /// would pin its working set on every pool worker for the process
    /// lifetime.  Typical codec bodies are far below the caps, so steady
    /// state still reuses everything.
    fn release_oversized_scratch(&mut self) {
        const MAX_RETAINED_TOKENS: usize = 1 << 22; // 24 MiB of tokens
        if self.tokens.capacity() > MAX_RETAINED_TOKENS {
            self.tokens = Vec::new();
        }
    }
}

/// Tokenization segment: chain positions are segment-relative `i32`s, so one
/// segment must stay addressable.
const SEGMENT_SIZE: usize = 1 << 28;

#[inline]
fn distance_slot(distance: usize) -> (u32, u32, u64) {
    // slot = floor(log2(distance)); extra bits = slot; extra = distance - 2^slot
    debug_assert!(distance >= 1);
    let slot = 63 - (distance as u64).leading_zeros();
    let extra = distance as u64 - (1u64 << slot);
    (slot, slot, extra)
}

/// Decompress an LZSS+Huffman payload into exactly `expected_len` bytes.
/// The format carries no encoder setting: any window size or chain depth
/// decodes, [`LzssEncoder::compress`]'s included.
pub fn decompress(data: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    if expected_len == 0 {
        return Ok(Vec::new());
    }
    let mut r = BitReader::new(data);
    let litlen_book = CodeBook::read_table(&mut r)?;
    let dist_book = CodeBook::read_table(&mut r)?;
    let litlen_dec = litlen_book.decoder();
    let dist_dec = if dist_book.is_empty() {
        None
    } else {
        Some(dist_book.decoder())
    };

    // Every token costs at least one bit and yields at most MAX_MATCH
    // bytes, so a longer declared length is corrupt whatever follows.
    let producible = r.bits_remaining().saturating_mul(MAX_MATCH);
    if expected_len > producible {
        return Err(CodingError::LengthMismatch {
            expected: expected_len,
            actual: producible,
        });
    }
    let mut out: Vec<u8> = crate::try_vec(expected_len)?;
    while out.len() < expected_len {
        // A run of literals, up to the next match symbol.
        let mut sym = 0;
        litlen_dec.decode_each(&mut r, expected_len - out.len(), |s| {
            sym = s;
            let literal = s < LEN_SYMBOL_BASE;
            if literal {
                out.push(s as u8);
            }
            literal
        })?;
        if sym < LEN_SYMBOL_BASE {
            continue;
        }
        if sym as usize >= LITLEN_ALPHABET {
            return Err(CodingError::InvalidSymbol(sym));
        } else {
            let length = (sym - LEN_SYMBOL_BASE) as usize + MIN_MATCH;
            let dist_dec = dist_dec.as_ref().ok_or_else(|| {
                CodingError::InvalidCodeTable("match without distance table".into())
            })?;
            let slot = dist_dec.decode_symbol(&mut r)?;
            if slot > 63 {
                return Err(CodingError::InvalidSymbol(slot));
            }
            let extra = r.read_bits(slot)?;
            let distance = ((1u64 << slot) + extra) as usize;
            if distance == 0 || distance > out.len() {
                return Err(CodingError::InvalidBackReference {
                    distance,
                    produced: out.len(),
                });
            }
            // Bounds check hoisted out of the copy: the whole match either
            // fits the declared length or the stream is corrupt.
            if out.len() + length > expected_len {
                return Err(CodingError::LengthMismatch {
                    expected: expected_len,
                    actual: out.len() + length,
                });
            }
            let start = out.len() - distance;
            if distance >= length {
                // Non-overlapping: one chunked copy.
                out.extend_from_within(start..start + length);
            } else {
                // Overlapping (distance < length): the output from `start`
                // is periodic with period `distance`; doubling chunk copies
                // reproduce it without a per-byte loop.
                let mut copied = 0usize;
                while copied < length {
                    let n = (out.len() - start).min(length - copied);
                    out.extend_from_within(start..start + n);
                    copied += n;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compress(data: &[u8]) -> Vec<u8> {
        LzssEncoder::new().compress(data)
    }

    fn roundtrip(data: &[u8]) {
        let packed = compress(data);
        let restored = decompress(&packed, data.len()).unwrap();
        assert_eq!(restored, data);
    }

    #[test]
    fn empty_input() {
        assert!(compress(&[]).is_empty());
        assert_eq!(decompress(&[], 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn short_inputs() {
        for n in 1..=8usize {
            let data: Vec<u8> = (0..n as u8).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn highly_repetitive_compresses_well() {
        let data = vec![7u8; 100_000];
        let packed = compress(&data);
        assert!(packed.len() < 2_000, "got {} bytes", packed.len());
        roundtrip(&data);
    }

    #[test]
    fn periodic_pattern() {
        let data: Vec<u8> = (0..50_000u32).map(|i| ((i * i) % 251) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn text_like_data() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(500);
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 5);
        roundtrip(&data);
    }

    #[test]
    fn overlapping_back_references() {
        // "aaaa..." forces distance-1 matches that overlap their own output.
        let mut data = vec![b'a'; 1000];
        data.extend_from_slice(b"bcd");
        data.extend(vec![b'a'; 1000]);
        roundtrip(&data);
    }

    #[test]
    fn reused_encoder_matches_one_shot_compression() {
        // The scratch state (hash chains, token buffer) must be fully reset
        // between calls: a reused encoder and a fresh one must produce
        // identical payloads, in both call orders.
        let inputs: Vec<Vec<u8>> = vec![
            b"the quick brown fox jumps over the lazy dog. ".repeat(100),
            vec![42u8; 10_000],
            (0..9_000u32).map(|i| ((i * 37) % 256) as u8).collect(),
            vec![],
            b"tiny".to_vec(),
        ];
        let mut reused = LzssEncoder::new();
        for data in &inputs {
            let from_reused = reused.compress(data);
            let from_fresh = compress(data);
            assert_eq!(from_reused, from_fresh);
            let restored = decompress(&from_reused, data.len()).unwrap();
            assert_eq!(&restored, data);
        }
        // And again in reverse order on the same encoder.
        for data in inputs.iter().rev() {
            assert_eq!(reused.compress(data), compress(data));
        }
    }

    #[test]
    fn segmented_tokenization_roundtrips_across_boundaries() {
        // Force many tiny segments (the production size is 256 MiB): matches
        // must never cross a boundary, and the stream must stay decodable by
        // the ordinary decoder.
        let data = b"boundary boundary boundary boundary ".repeat(200);
        for segment in [64usize, 1000, 4096, usize::MAX] {
            let mut enc = LzssEncoder::new();
            let packed = enc.compress_segmented(&data, segment);
            let restored = decompress(&packed, data.len()).unwrap();
            assert_eq!(restored, data, "segment size {segment}");
        }
        // Small segments lose cross-boundary matches but not much more.
        let mut enc = LzssEncoder::new();
        let chunked = enc.compress_segmented(&data, 1000).len();
        let whole = enc.compress_segmented(&data, usize::MAX).len();
        assert!(chunked < data.len() / 4, "chunked {} bytes", chunked);
        assert!(whole <= chunked);
    }

    #[test]
    fn long_match_insertion_stride_keeps_ratio() {
        // A long run exercises the strided interior insertion; the emitted
        // stream must stay both correct and small.
        let mut data = Vec::new();
        for block in 0..8u8 {
            data.extend(vec![block; 4096]);
        }
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 50, "got {} bytes", packed.len());
        roundtrip(&data);
    }

    #[test]
    fn truncation_is_detected() {
        let data = b"repeat repeat repeat repeat repeat repeat repeat".repeat(20);
        let packed = compress(&data);
        assert!(decompress(&packed[..packed.len() / 3], data.len()).is_err());
    }

    #[test]
    fn distance_slots_are_consistent() {
        for d in [1usize, 2, 3, 4, 7, 8, 255, 256, 1023, 32768] {
            let (slot, extra_bits, extra) = distance_slot(d);
            assert_eq!((1usize << slot) + extra as usize, d);
            assert_eq!(slot, extra_bits);
        }
    }

    #[test]
    fn match_length_agrees_with_naive_scan() {
        let mut data: Vec<u8> = (0..600u32).map(|i| ((i / 3) % 7) as u8).collect();
        data.extend_from_slice(&data.clone());
        for &(a, b) in &[(0usize, 21usize), (0, 300), (5, 599), (100, 101), (0, 596)] {
            let naive = {
                let limit = MAX_MATCH.min(data.len() - b);
                let mut l = 0;
                while l < limit && data[a + l] == data[b + l] {
                    l += 1;
                }
                l
            };
            assert_eq!(match_length(&data, a, b), naive, "a={a} b={b}");
        }
    }
}
