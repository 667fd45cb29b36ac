//! Canonical Huffman coding over arbitrary `u32` symbol alphabets.
//!
//! The SZ-like codec entropy-codes linear-scaling quantization codes (an
//! alphabet of up to 2^16 symbols, most of which never occur), and the LZSS
//! dictionary coder entropy-codes its literal/length and distance alphabets.
//! Both use this module.
//!
//! Codes are *canonical*: only the code length of each used symbol is stored
//! in the stream; both sides reconstruct identical codes by assigning
//! consecutive codewords to symbols sorted by `(length, symbol)`.  This keeps
//! the table overhead proportional to the number of *distinct* symbols rather
//! than the alphabet size.
//!
//! # Fast paths
//!
//! The hot loops avoid hashing and per-bit work entirely:
//!
//! * frequency counting and the symbol→code map use flat arrays indexed by
//!   `symbol − smallest symbol`, so they are sized by the *span* of the
//!   symbols in use, not by the largest one: quantization codes cluster in
//!   a few hundred values around 2^15, and a table sized by the largest
//!   code is three quarters of a mebibyte to zero-fill per call — most of
//!   this stage's time on a small field.  A `HashMap` remains only for
//!   spans too wide for a flat table;
//! * the code book is built by the two-queue method (leaves sorted once,
//!   merged nodes in a FIFO) instead of a binary heap: the same pops in the
//!   same order — ties included, so the same code lengths — in one sort
//!   and a linear merge, which matters at tight bounds where nearly every
//!   value has its own quantization code;
//! * [`Decoder::decode_symbol`] is table-driven in the style of DEFLATE
//!   decoders: it peeks a fixed [`TABLE_BITS`]-wide window, resolves codes of
//!   up to that length with one load from a primary lookup table, and only
//!   chains into the canonical per-length range test for longer codes;
//!   [`Decoder::decode_each`] serves several short codes from one load.

use std::collections::HashMap;

use crate::bitio::{BitReader, BitWriter, MAX_PEEK_BITS};
use crate::rle;
use crate::{CodingError, Result};

/// Maximum admissible code length.  Huffman depth grows at most
/// logarithmically (base golden ratio) in the total symbol count, so 64 bits
/// covers any realistic input; we still verify it defensively.
pub const MAX_CODE_LEN: u8 = 64;

/// Width of the primary decode lookup table: codes at most this long resolve
/// with a single peek + load.
pub const TABLE_BITS: u32 = 10;

/// Widest symbol span (`largest − smallest`) for which counting and the
/// symbol→code map use a flat array (2^16 covers any SZ quantization
/// capacity in use and both LZSS alphabets).
const DENSE_LIMIT: u32 = 1 << 16;

/// Encoding map: symbol → `(length, canonical code)`.
#[derive(Debug, Clone)]
enum CodeStore {
    /// Indexed by `symbol - base`; a length of 0 marks an uncoded symbol.
    /// Lengths and codes apart: 9 bytes a slot, not a padded 16, on the
    /// wide spans of a low bound.
    Dense {
        base: u32,
        lens: Vec<u8>,
        codes: Vec<u64>,
    },
    /// Fallback for alphabets spanning more than [`DENSE_LIMIT`] values.
    Sparse(HashMap<u32, (u8, u64)>),
}

impl Default for CodeStore {
    fn default() -> Self {
        CodeStore::Dense {
            base: 0,
            lens: Vec::new(),
            codes: Vec::new(),
        }
    }
}

impl CodeStore {
    #[inline]
    fn get(&self, symbol: u32) -> Option<(u8, u64)> {
        match self {
            CodeStore::Dense { base, lens, codes } => {
                let slot = symbol.checked_sub(*base)? as usize;
                match lens.get(slot) {
                    Some(&len) if len != 0 => Some((len, codes[slot])),
                    _ => None,
                }
            }
            CodeStore::Sparse(map) => map.get(&symbol).copied(),
        }
    }
}

/// A canonical Huffman code book mapping symbols to `(length, code)` pairs.
#[derive(Debug, Clone, Default)]
pub struct CodeBook {
    /// `(symbol, code length)` sorted by `(length, symbol)`.
    lengths: Vec<(u32, u8)>,
    /// Encoding map: symbol -> (length, canonical code value).
    codes: CodeStore,
}

impl CodeBook {
    /// Build a code book from `(symbol, frequency)` pairs.  Zero-frequency
    /// entries are ignored.  An empty or all-zero input yields an empty book.
    pub fn from_frequencies(freqs: &[(u32, u64)]) -> Self {
        // Sized up front: a filtered `collect` grows by doubling.
        let mut used: Vec<(u32, u64)> = Vec::with_capacity(freqs.len());
        used.extend(freqs.iter().copied().filter(|&(_, f)| f > 0));
        used.sort_unstable_by_key(|&(s, _)| s);
        used.dedup_by(|a, b| {
            if a.0 == b.0 {
                b.1 += a.1;
                true
            } else {
                false
            }
        });

        if used.is_empty() {
            return Self::default();
        }
        if used.len() == 1 {
            // A single distinct symbol still needs one bit so the stream has
            // a well-defined length.
            return Self::from_lengths(&[(used[0].0, 1)]).expect("single-symbol book");
        }

        // Huffman's algorithm by the two-queue method.  Leaves wait sorted
        // by `(weight, slot)`; merged nodes are made in non-decreasing
        // weight, so a FIFO keeps them sorted too, and a leaf goes before a
        // merged node of equal weight.  That is the order a min-heap keyed
        // on `(weight, creation order)` pops in, so the tree — and every
        // code length — is the one the heap-based builder made.
        let n = used.len();
        let mut leaves: Vec<(u64, u32)> = used
            .iter()
            .enumerate()
            .map(|(slot, &(_, f))| (f, slot as u32))
            .collect();
        leaves.sort_unstable();
        // Nodes `0..n` are the leaves by slot, `n..2n-1` the merged nodes in
        // creation order; the last one made is the root.
        let mut weight: Vec<u64> = Vec::with_capacity(n - 1);
        let mut parent = vec![0u32; 2 * n - 1];
        let (mut next_leaf, mut next_merged) = (0usize, 0usize);
        for made in 0..n - 1 {
            let mut sum = 0;
            for _ in 0..2 {
                let take_leaf = next_leaf < n
                    && (next_merged == made || leaves[next_leaf].0 <= weight[next_merged]);
                let node = if take_leaf {
                    let (w, slot) = leaves[next_leaf];
                    next_leaf += 1;
                    sum += w;
                    slot as usize
                } else {
                    sum += weight[next_merged];
                    next_merged += 1;
                    n + next_merged - 1
                };
                parent[node] = (n + made) as u32;
            }
            weight.push(sum);
        }
        drop((leaves, weight));
        // A node's parent is always made after it, so one backward sweep
        // turns parents into depths.
        let mut depth = vec![0u8; 2 * n - 1];
        for node in (0..2 * n - 2).rev() {
            depth[node] = depth[parent[node] as usize] + 1;
        }
        drop(parent);
        let lengths = &depth[..n];

        let pairs: Vec<(u32, u8)> = used
            .iter()
            .zip(lengths.iter())
            .map(|(&(s, _), &l)| (s, l))
            .collect();
        drop((used, depth));
        Self::from_lengths(&pairs).expect("lengths from a Huffman tree are always valid")
    }

    /// Count frequencies in `symbols` and build a code book.
    ///
    /// Counting is done into a flat array indexed by `symbol − smallest`
    /// when the symbols span few enough values (the common case); the
    /// `HashMap` path only exists for alphabets scattered over a huge range.
    pub fn from_symbols(symbols: &[u32]) -> Self {
        let (Some(&min), Some(&max)) = (symbols.iter().min(), symbols.iter().max()) else {
            return Self::default();
        };
        if max - min < DENSE_LIMIT {
            let mut counts = vec![0u64; (max - min) as usize + 1];
            for &s in symbols {
                counts[(s - min) as usize] += 1;
            }
            let distinct = counts.iter().filter(|&&f| f > 0).count();
            let mut freqs: Vec<(u32, u64)> = Vec::with_capacity(distinct);
            freqs.extend(
                counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &f)| f > 0)
                    .map(|(i, &f)| (min + i as u32, f)),
            );
            // Each buffer goes as soon as the next is built: on a wide
            // alphabet (a low bound) they are the bulk of a codec call's
            // working memory.
            drop(counts);
            Self::from_frequencies(&freqs)
        } else {
            let mut counts: HashMap<u32, u64> = HashMap::new();
            for &s in symbols {
                *counts.entry(s).or_insert(0) += 1;
            }
            let freqs: Vec<(u32, u64)> = counts.into_iter().collect();
            Self::from_frequencies(&freqs)
        }
    }

    /// Build a canonical code book directly from `(symbol, code length)`
    /// pairs.  Returns an error if the lengths over-subscribe the code space
    /// (Kraft inequality violated) or exceed [`MAX_CODE_LEN`].
    pub fn from_lengths(pairs: &[(u32, u8)]) -> Result<Self> {
        let mut lengths: Vec<(u32, u8)> = Vec::with_capacity(pairs.len());
        lengths.extend(pairs.iter().copied().filter(|&(_, l)| l > 0));
        if lengths.iter().any(|&(_, l)| l > MAX_CODE_LEN) {
            return Err(CodingError::InvalidCodeTable(format!(
                "code length exceeds {MAX_CODE_LEN}"
            )));
        }
        lengths.sort_unstable_by_key(|&(s, l)| (l, s));

        // Kraft check (in 128-bit arithmetic to avoid overflow).
        let mut kraft: u128 = 0;
        for &(_, l) in &lengths {
            kraft += 1u128 << (MAX_CODE_LEN - l);
        }
        if kraft > 1u128 << MAX_CODE_LEN {
            return Err(CodingError::InvalidCodeTable(
                "code lengths violate the Kraft inequality".to_string(),
            ));
        }

        let base = lengths.iter().map(|&(s, _)| s).min().unwrap_or(0);
        let span = lengths.iter().map(|&(s, _)| s - base).max();
        let mut codes = match span {
            None => CodeStore::default(),
            Some(span) if span < DENSE_LIMIT => CodeStore::Dense {
                base,
                lens: vec![0; span as usize + 1],
                codes: vec![0; span as usize + 1],
            },
            Some(_) => CodeStore::Sparse(HashMap::with_capacity(lengths.len())),
        };
        let mut code: u64 = 0;
        let mut prev_len: u8 = 0;
        for &(sym, len) in &lengths {
            if prev_len != 0 {
                code = (code + 1) << (len - prev_len);
            } else {
                code <<= len - prev_len;
            }
            prev_len = len;
            match &mut codes {
                CodeStore::Dense { base, lens, codes } => {
                    let slot = (sym - *base) as usize;
                    (lens[slot], codes[slot]) = (len, code);
                }
                CodeStore::Sparse(map) => {
                    map.insert(sym, (len, code));
                }
            }
        }

        Ok(Self { lengths, codes })
    }

    /// True if no symbol has a code (empty input).
    pub fn is_empty(&self) -> bool {
        self.lengths.is_empty()
    }

    /// Number of distinct coded symbols.
    pub fn len(&self) -> usize {
        self.lengths.len()
    }

    /// `(length, canonical code)` for `symbol`, if coded.
    #[inline]
    pub fn lookup(&self, symbol: u32) -> Option<(u8, u64)> {
        self.codes.get(symbol)
    }

    /// Code length for `symbol`, if coded.
    pub fn code_len(&self, symbol: u32) -> Option<u8> {
        self.lookup(symbol).map(|(l, _)| l)
    }

    /// Expected encoded size in bits for the given `(symbol, frequency)`
    /// histogram (excluding the table).
    pub fn expected_bits(&self, freqs: &[(u32, u64)]) -> Option<u64> {
        let mut total = 0u64;
        for &(s, f) in freqs {
            if f == 0 {
                continue;
            }
            total += f * self.code_len(s)? as u64;
        }
        Some(total)
    }

    /// Append the code for `symbol` to `w`.
    #[inline]
    pub fn encode_symbol(&self, symbol: u32, w: &mut BitWriter) -> Result<()> {
        match self.codes.get(symbol) {
            Some((len, code)) => {
                w.write_bits(code, len as u32);
                Ok(())
            }
            None => Err(CodingError::InvalidSymbol(symbol)),
        }
    }

    /// Serialize the table (distinct symbols and their code lengths).
    ///
    /// Layout: varint count, then for each entry a varint symbol delta
    /// (relative to the previous symbol in ascending-symbol order) and a
    /// 6-bit code length.
    pub fn write_table(&self, w: &mut BitWriter) {
        let mut by_symbol = self.lengths.clone();
        by_symbol.sort_unstable_by_key(|&(s, _)| s);
        rle::write_uvarint(w, by_symbol.len() as u64);
        let mut prev: u64 = 0;
        for &(sym, len) in &by_symbol {
            rle::write_uvarint(w, sym as u64 - prev);
            w.write_bits(len as u64, 6);
            prev = sym as u64;
        }
    }

    /// Deserialize a table produced by [`CodeBook::write_table`].
    pub fn read_table(r: &mut BitReader<'_>) -> Result<Self> {
        let count = rle::read_uvarint(r)? as usize;
        // Each entry is an 8-bit varint group plus a 6-bit length at least.
        if count > r.bits_remaining() / 14 {
            return Err(CodingError::InvalidCodeTable(format!(
                "implausible symbol count {count}"
            )));
        }
        let mut pairs = Vec::with_capacity(count);
        let mut prev: u64 = 0;
        for _ in 0..count {
            let delta = rle::read_uvarint(r)?;
            let len = r.read_bits(6)? as u8;
            let sym = prev
                .checked_add(delta)
                .filter(|&sym| sym <= u32::MAX as u64)
                .ok_or_else(|| CodingError::InvalidCodeTable("symbol overflow".into()))?;
            if len == 0 || len > MAX_CODE_LEN {
                return Err(CodingError::InvalidCodeTable(format!(
                    "invalid code length {len}"
                )));
            }
            pairs.push((sym as u32, len));
            prev = sym;
        }
        Self::from_lengths(&pairs)
    }

    /// Build a decoder for this code book.
    pub fn decoder(&self) -> Decoder {
        Decoder::new(self)
    }
}

/// Primary-table entry: the symbol and its code length, or `len == 0` for
/// windows whose prefix is either invalid or belongs to a code longer than
/// the table width.
#[derive(Debug, Clone, Copy)]
struct TableEntry {
    sym: u32,
    len: u8,
}

/// Canonical Huffman decoder: a [`TABLE_BITS`]-wide primary lookup table for
/// the short codes that dominate real streams, chained to per-length
/// first-code tables for the rare long codes.
#[derive(Debug, Clone)]
pub struct Decoder {
    /// For each length `l`, the first canonical code of that length.
    first_code: Vec<u64>,
    /// For each length `l`, index into `symbols` of the first symbol with
    /// that length.
    first_index: Vec<usize>,
    /// Number of symbols at each length.
    count: Vec<usize>,
    /// Symbols sorted by `(length, symbol)` — canonical order.
    symbols: Vec<u32>,
    max_len: u8,
    /// Primary lookup table, `1 << table_bits` entries.
    table: Vec<TableEntry>,
    /// Actual table width: `min(max_len, TABLE_BITS)`.
    table_bits: u32,
}

impl Decoder {
    fn new(book: &CodeBook) -> Self {
        let max_len = book.lengths.iter().map(|&(_, l)| l).max().unwrap_or(0);
        let mut first_code = vec![0u64; max_len as usize + 2];
        let mut first_index = vec![0usize; max_len as usize + 2];
        let mut count = vec![0usize; max_len as usize + 2];
        let symbols: Vec<u32> = book.lengths.iter().map(|&(s, _)| s).collect();
        for &(_, l) in &book.lengths {
            count[l as usize] += 1;
        }
        let mut code = 0u64;
        let mut index = 0usize;
        for l in 1..=max_len as usize {
            code <<= 1;
            first_code[l] = code;
            first_index[l] = index;
            code += count[l] as u64;
            index += count[l];
        }

        // Primary table: every `table_bits`-wide window whose prefix is a
        // code of length <= table_bits maps straight to its symbol.
        let table_bits = (max_len as u32).min(TABLE_BITS);
        let mut table = vec![TableEntry { sym: 0, len: 0 }; 1usize << table_bits];
        let mut canon_code = 0u64;
        let mut prev_len = 0u8;
        for &(sym, len) in &book.lengths {
            if prev_len != 0 {
                canon_code = (canon_code + 1) << (len - prev_len);
            }
            prev_len = len;
            if len as u32 <= table_bits {
                let shift = table_bits - len as u32;
                let base = (canon_code << shift) as usize;
                for slot in &mut table[base..base + (1usize << shift)] {
                    *slot = TableEntry { sym, len };
                }
            }
        }

        Self {
            first_code,
            first_index,
            count,
            symbols,
            max_len,
            table,
            table_bits,
        }
    }

    /// Decode one symbol from `r`: one peek + one table load for codes of up
    /// to [`TABLE_BITS`] bits, falling back to the canonical per-length
    /// range test for longer codes.
    #[inline]
    pub fn decode_symbol(&self, r: &mut BitReader<'_>) -> Result<u32> {
        if self.symbols.is_empty() {
            return Err(CodingError::InvalidCodeTable("empty code book".into()));
        }
        let window = r.peek_bits(self.table_bits) as usize;
        let entry = self.table[window];
        if entry.len != 0 {
            if entry.len as usize > r.bits_remaining() {
                return Err(CodingError::UnexpectedEof);
            }
            r.consume(entry.len as u32);
            return Ok(entry.sym);
        }
        self.decode_symbol_slow(r)
    }

    /// Canonical decode of a code longer than the primary table: the next
    /// bits are read once, then each longer length is a shift and a range
    /// test against that length's run of consecutive codes.  (An invalid
    /// prefix matches no length and falls off the end.)  Not a rare path at
    /// tight bounds, where nearly every value has its own long code.
    fn decode_symbol_slow(&self, r: &mut BitReader<'_>) -> Result<u32> {
        let max_len = self.max_len as usize;
        let avail = r.bits_remaining().min(max_len);
        let window = r.clone().read_bits(avail as u32)?;
        for len in self.table_bits as usize + 1..=avail {
            let code = window >> (avail - len);
            let first = self.first_code[len];
            if code >= first && code - first < self.count[len] as u64 {
                r.consume(len as u32);
                return Ok(self.symbols[self.first_index[len] + (code - first) as usize]);
            }
        }
        Err(if avail < max_len {
            CodingError::UnexpectedEof
        } else {
            CodingError::InvalidCodeTable("bit pattern matches no code".into())
        })
    }

    /// Decode symbols into `sink` until it has taken `n` of them or returns
    /// `false` (the symbol it declined is consumed all the same).
    ///
    /// One 57-bit load serves as many short codes as fit in it — five or
    /// more at typical code lengths — instead of one load per symbol; a long
    /// code, an invalid prefix or the end of the stream is left to
    /// [`decode_symbol`](Self::decode_symbol).
    #[inline]
    pub fn decode_each(
        &self,
        r: &mut BitReader<'_>,
        n: usize,
        mut sink: impl FnMut(u32) -> bool,
    ) -> Result<()> {
        if n > 0 && self.symbols.is_empty() {
            // `decode_symbol` reports the empty book.
            return self.decode_symbol(r).map(drop);
        }
        let mut left = n;
        while left > 0 {
            // The next `valid` bits of the stream, first bit on top.
            let valid = r.bits_remaining().min(MAX_PEEK_BITS as usize) as u32;
            let mut window = r.peek_bits(MAX_PEEK_BITS) << (64 - MAX_PEEK_BITS);
            let mut used = 0u32;
            while left > 0 {
                let entry = self.table[(window >> (64 - self.table_bits)) as usize];
                // A code that ends inside the window was looked up by real
                // bits only, whatever padded the index below them.
                if entry.len == 0 || used + entry.len as u32 > valid {
                    break;
                }
                window <<= entry.len;
                used += entry.len as u32;
                left -= 1;
                if !sink(entry.sym) {
                    r.consume(used);
                    return Ok(());
                }
            }
            r.consume(used);
            if used == 0 {
                left -= 1;
                if !sink(self.decode_symbol(r)?) {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Decode exactly `n` symbols.
    pub fn decode_all(&self, r: &mut BitReader<'_>, n: usize) -> Result<Vec<u32>> {
        // Every code is at least one bit long.
        if n > r.bits_remaining() {
            return Err(CodingError::UnexpectedEof);
        }
        let mut out = Vec::with_capacity(n);
        self.decode_each(r, n, |symbol| {
            out.push(symbol);
            true
        })?;
        Ok(out)
    }
}

/// Encode a symbol sequence into a self-contained byte buffer
/// (count + table + payload).
pub fn encode_symbols(symbols: &[u32]) -> Vec<u8> {
    let book = CodeBook::from_symbols(symbols);
    let mut w = BitWriter::with_capacity(symbols.len() / 2 + 64);
    rle::write_uvarint(&mut w, symbols.len() as u64);
    book.write_table(&mut w);
    match &book.codes {
        // The book was built from these symbols, so every one is in the
        // table: the loop is a load and a `write_bits`, nothing to check.
        CodeStore::Dense { base, lens, codes } => {
            // (Cut to one length, so one bounds check covers both loads.)
            let lens = &lens[..codes.len()];
            for &s in symbols {
                let slot = (s - base) as usize;
                w.write_bits(codes[slot], lens[slot] as u32);
            }
        }
        CodeStore::Sparse(_) => {
            for &s in symbols {
                book.encode_symbol(s, &mut w)
                    .expect("book built from these exact symbols");
            }
        }
    }
    w.into_bytes()
}

/// Decode a buffer produced by [`encode_symbols`].
pub fn decode_symbols(data: &[u8]) -> Result<Vec<u32>> {
    let mut r = BitReader::new(data);
    let n = rle::read_uvarint(&mut r)? as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    let book = CodeBook::read_table(&mut r)?;
    let decoder = book.decoder();
    decoder.decode_all(&mut r, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_roundtrip() {
        let packed = encode_symbols(&[]);
        assert_eq!(decode_symbols(&packed).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn single_symbol_roundtrip() {
        let symbols = vec![7u32; 1000];
        let packed = encode_symbols(&symbols);
        assert!(packed.len() < 200);
        assert_eq!(decode_symbols(&packed).unwrap(), symbols);
    }

    #[test]
    fn skewed_distribution_roundtrip() {
        let mut symbols = Vec::new();
        for i in 0..5000u32 {
            // Heavily skewed toward symbol 512 (like SZ quantization codes).
            let s = match i % 100 {
                0..=79 => 512,
                80..=89 => 511,
                90..=95 => 513,
                96..=98 => 500 + (i % 30),
                _ => i % 1024,
            };
            symbols.push(s);
        }
        let packed = encode_symbols(&symbols);
        // Entropy is far below 10 bits/symbol so this must compress well
        // against the 4-byte raw representation.
        assert!(packed.len() < symbols.len());
        assert_eq!(decode_symbols(&packed).unwrap(), symbols);
    }

    #[test]
    fn large_sparse_alphabet_roundtrip() {
        let symbols: Vec<u32> = (0..3000u32).map(|i| (i * 7919) % 60000).collect();
        let packed = encode_symbols(&symbols);
        assert_eq!(decode_symbols(&packed).unwrap(), symbols);
    }

    #[test]
    fn huge_symbol_values_use_the_sparse_store() {
        // Symbols far above DENSE_LIMIT: the flat-array store would need
        // gigabytes, so the sparse fallback must kick in and still roundtrip.
        let symbols: Vec<u32> = (0..500u32)
            .map(|i| u32::MAX - (i % 37) * 1_000_000)
            .collect();
        let packed = encode_symbols(&symbols);
        assert_eq!(decode_symbols(&packed).unwrap(), symbols);
    }

    #[test]
    fn tables_are_sized_by_the_span_in_use() {
        // Quantization codes cluster around 2^15: the flat table holds the
        // span, not every value up to the largest symbol.
        let symbols: Vec<u32> = (0..4096u32).map(|i| 32_768 - 40 + i % 81).collect();
        let book = CodeBook::from_symbols(&symbols);
        match &book.codes {
            CodeStore::Dense { base, lens, codes } => {
                assert_eq!(*base, 32_768 - 40);
                assert_eq!((lens.len(), codes.len()), (81, 81));
            }
            CodeStore::Sparse(_) => panic!("a span of 81 values is dense"),
        }
        assert_eq!(book.lookup(32_768 - 41), None);
        assert_eq!(book.lookup(0), None);
        assert_eq!(book.lookup(32_768 + 41), None);
        assert_eq!(decode_symbols(&encode_symbols(&symbols)).unwrap(), symbols);
        // A narrow span far above 2^16 no longer needs the hash map.
        let high: Vec<u32> = (0..500u32).map(|i| u32::MAX - i % 37).collect();
        assert!(matches!(
            CodeBook::from_symbols(&high).codes,
            CodeStore::Dense { .. }
        ));
    }

    /// The builder this module used to have: a min-heap keyed on
    /// `(weight, creation order)`.  The wire format fixes only how lengths
    /// become codes; *which* optimal lengths a histogram gets is this
    /// tie-break, and every committed fixture depends on it.
    fn heap_built_lengths(freqs: &[(u32, u64)]) -> Vec<(u32, u8)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = freqs.len();
        let mut children: Vec<Option<(usize, usize)>> = vec![None; n];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = freqs
            .iter()
            .enumerate()
            .map(|(i, &(_, f))| Reverse((f, i)))
            .collect();
        while heap.len() > 1 {
            let Reverse((wa, a)) = heap.pop().unwrap();
            let Reverse((wb, b)) = heap.pop().unwrap();
            children.push(Some((a, b)));
            heap.push(Reverse((wa + wb, children.len() - 1)));
        }
        let mut lengths = vec![0u8; n];
        let mut stack = vec![(children.len() - 1, 0u8)];
        while let Some((node, depth)) = stack.pop() {
            match children[node] {
                Some((l, r)) => stack.extend([(l, depth + 1), (r, depth + 1)]),
                None => lengths[node] = depth,
            }
        }
        freqs.iter().map(|&(s, _)| s).zip(lengths).collect()
    }

    #[test]
    fn two_queue_builder_breaks_ties_like_the_heap() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..300 {
            let n = 2 + (next() % 400) as usize;
            // Few distinct weights, so nearly every comparison is a tie.
            let spread = [1, 2, 3, 8, 1000][case % 5];
            let freqs: Vec<(u32, u64)> = (0..n as u32)
                .map(|s| (s * 3, 1 + next() % spread))
                .collect();
            let book = CodeBook::from_frequencies(&freqs);
            for (s, len) in heap_built_lengths(&freqs) {
                assert_eq!(book.code_len(s), Some(len), "case {case}, symbol {s}");
            }
        }
        // Power-of-two and Fibonacci ladders: deep, lopsided trees.
        for ladder in [
            (0..40u32).map(|s| (s, 1u64 << s)).collect::<Vec<_>>(),
            (0..60u32)
                .scan((1u64, 1u64), |f, s| {
                    *f = (f.1, f.0 + f.1);
                    Some((s, f.0))
                })
                .collect(),
        ] {
            let book = CodeBook::from_frequencies(&ladder);
            for (s, len) in heap_built_lengths(&ladder) {
                assert_eq!(book.code_len(s), Some(len), "ladder symbol {s}");
            }
        }
    }

    #[test]
    fn expected_bits_matches_actual_payload() {
        let symbols: Vec<u32> = (0..2048u32).map(|i| i % 17).collect();
        let book = CodeBook::from_symbols(&symbols);
        let mut freqs: HashMap<u32, u64> = HashMap::new();
        for &s in &symbols {
            *freqs.entry(s).or_insert(0) += 1;
        }
        let freqs: Vec<(u32, u64)> = freqs.into_iter().collect();
        let expected = book.expected_bits(&freqs).unwrap();
        let mut w = BitWriter::new();
        for &s in &symbols {
            book.encode_symbol(s, &mut w).unwrap();
        }
        assert_eq!(expected as usize, w.bit_len());
    }

    #[test]
    fn unknown_symbol_is_rejected() {
        let book = CodeBook::from_symbols(&[1, 2, 3]);
        let mut w = BitWriter::new();
        assert_eq!(
            book.encode_symbol(42, &mut w),
            Err(CodingError::InvalidSymbol(42))
        );
    }

    #[test]
    fn kraft_violation_is_rejected() {
        // Three symbols with length 1 cannot coexist.
        let res = CodeBook::from_lengths(&[(0, 1), (1, 1), (2, 1)]);
        assert!(matches!(res, Err(CodingError::InvalidCodeTable(_))));
    }

    #[test]
    fn table_roundtrip_preserves_codes() {
        let symbols: Vec<u32> = (0..500u32).map(|i| i % 37).collect();
        let book = CodeBook::from_symbols(&symbols);
        let mut w = BitWriter::new();
        book.write_table(&mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let book2 = CodeBook::read_table(&mut r).unwrap();
        assert_eq!(book.len(), book2.len());
        for s in 0..37u32 {
            assert_eq!(book.code_len(s), book2.code_len(s));
        }
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let symbols: Vec<u32> = (0..1000u32).map(|i| i % 13).collect();
        let packed = encode_symbols(&symbols);
        let truncated = &packed[..packed.len() - 10];
        assert!(decode_symbols(truncated).is_err());
    }

    #[test]
    fn two_symbol_codes_are_one_bit() {
        let book = CodeBook::from_symbols(&[0, 0, 0, 1]);
        assert_eq!(book.code_len(0), Some(1));
        assert_eq!(book.code_len(1), Some(1));
    }

    #[test]
    fn long_codes_chain_past_the_primary_table() {
        // An exponential frequency ladder forces code lengths well beyond
        // TABLE_BITS, exercising the slow-path chaining.
        let freqs: Vec<(u32, u64)> = (0..24u32).map(|s| (s, 1u64 << s)).collect();
        let book = CodeBook::from_frequencies(&freqs);
        let max_len = (0..24u32)
            .filter_map(|s| book.code_len(s))
            .max()
            .unwrap_or(0);
        assert!(
            max_len as u32 > TABLE_BITS,
            "ladder should exceed the table width, got {max_len}"
        );
        let mut w = BitWriter::new();
        let symbols: Vec<u32> = (0..24u32).chain((0..24).rev()).collect();
        for &s in &symbols {
            book.encode_symbol(s, &mut w).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let decoder = book.decoder();
        for &s in &symbols {
            assert_eq!(decoder.decode_symbol(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let symbols: Vec<u32> = (0..4096u32).map(|i| i % 300).collect();
        let book = CodeBook::from_symbols(&symbols);
        let mut codes: Vec<(u8, u64)> = (0..300u32).filter_map(|s| book.lookup(s)).collect();
        codes.sort();
        for i in 0..codes.len() {
            for j in (i + 1)..codes.len() {
                let (l1, c1) = codes[i];
                let (l2, c2) = codes[j];
                if l1 == l2 {
                    assert_ne!(c1, c2);
                } else {
                    // No shorter code is a prefix of a longer one.
                    assert_ne!(c2 >> (l2 - l1), c1, "prefix violation");
                }
            }
        }
    }
}
