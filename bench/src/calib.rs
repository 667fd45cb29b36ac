//! The host-speed reference: fixed work of the benchmark's own, run in
//! short slices between the product's operations.
//!
//! The box this benchmark runs on is a few cores of a shared host.  Its
//! speed moves by a quarter within a minute and by a factor of two within
//! ten (other tenants; nothing shows in the guest: no steal time, CPU time
//! tracks wall time), so the same binary on the same inputs reads 7
//! operations a second in one run and 20 in another.  No run length the
//! driver allows averages that away.  What does cancel it is measuring, in
//! the same seconds and on the same cores, how fast the host runs work that
//! never changes, and reporting the product's times at a fixed reference
//! speed: each duration is divided by the host's [slowness] in the slices
//! just before and just after it.
//!
//! Tight loops do not serve as that work: when the host slowed the
//! product's codecs by half, latency-bound, integer, streaming and
//! pointer-chasing loops slowed by a tenth to a fifth.  A pass of the
//! reference therefore does what the product does.  One half is a small
//! error-bounded codec — predict and quantise a 3-D field against its own
//! reconstruction, build a Huffman code with a heap, pack bits, search
//! matches through a hash table, decode through a table, check the bound,
//! allocate and drop every buffer on the way.  The other half is a document
//! round trip — a tree of small allocations printed through `std::fmt` and
//! parsed back byte by byte — which loses more than the codecs when the
//! host is busy, as the codec half loses less; together they lose about
//! what the product loses.  Nothing here calls the product: a product
//! change cannot move the reference, so it still moves every metric by what
//! it gains or loses.
//!
//! [slowness]: Reading::slowness

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

/// Reference passes per second and thread on the quiet box the first
/// result was taken on.  It only fixes the scale of the reported numbers:
/// they read as seconds on a host that runs the reference at this rate.
pub const NOMINAL_RATE: f64 = 350.0;

/// The reference runs after every timed call of the product for this
/// share of the call's duration, so a third of a window is reference work.
/// Equal shares would halve the noise of the quotient for the least window;
/// a half keeps two thirds of the window for the product.
pub const SHARE: f64 = 0.5;

/// Passes of the hand-off reference ([`Reference::handoff_slice`]) per
/// second on the same quiet box.
pub const NOMINAL_HANDOFF_RATE: f64 = 8500.0;

const EDGE: usize = 32;
const CELLS: usize = EDGE * EDGE * EDGE;
/// Quantisation codes are `1..2*RADIUS`; 0 marks a value stored verbatim.
const RADIUS: i32 = 512;
const SYMBOLS: usize = 2 * RADIUS as usize;
/// Cells per record of the document.
const BLOCK: usize = 64;
/// Records in one turn of the hand-off reference: a fraction of a
/// millisecond of work, which is what a thread of the service does between
/// two hand-offs.
const HANDOFF_BLOCKS: usize = 32;
/// Longest Huffman code the decode table resolves in one lookup.
const TABLE_BITS: u32 = 12;

/// The reference field; one per thread.
pub struct Kernel {
    field: Vec<f32>,
}

impl Default for Kernel {
    fn default() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut field = Vec::with_capacity(CELLS);
        for z in 0..EDGE {
            for y in 0..EDGE {
                for x in 0..EDGE {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let noise = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                    let (x, y, z) = (x as f32, y as f32, z as f32);
                    field.push(
                        (0.21 * x).sin() * (0.13 * y).cos()
                            + (0.17 * z + 0.05 * x).sin()
                            + 0.01 * noise,
                    );
                }
            }
        }
        Self { field }
    }
}

/// Code lengths of a Huffman code for `counts`, by the textbook heap
/// merge; symbols that do not occur get length 0.
fn code_lengths(counts: &[u32]) -> Vec<u8> {
    // Nodes: leaves first, then internal nodes with a parent link each.
    let mut parent: Vec<usize> = vec![usize::MAX; counts.len()];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(s, &c)| Reverse((c as u64, s)))
        .collect();
    while heap.len() > 1 {
        let Reverse((a, i)) = heap.pop().expect("two nodes");
        let Reverse((b, j)) = heap.pop().expect("two nodes");
        let node = parent.len();
        parent.push(usize::MAX);
        parent[i] = node;
        parent[j] = node;
        heap.push(Reverse((a + b, node)));
    }
    (0..counts.len())
        .map(|s| {
            let (mut depth, mut node) = (0u8, s);
            while parent[node] != usize::MAX {
                node = parent[node];
                depth += 1;
            }
            if counts[s] > 0 {
                depth.max(1)
            } else {
                0
            }
        })
        .collect()
}

/// Canonical codes for `lengths`: `(code, length)` per symbol, codes
/// assigned in (length, symbol) order.
fn canonical(lengths: &[u8]) -> Vec<(u32, u8)> {
    let mut order: Vec<usize> = (0..lengths.len()).filter(|&s| lengths[s] > 0).collect();
    order.sort_by_key(|&s| (lengths[s], s));
    let mut codes = vec![(0u32, 0u8); lengths.len()];
    let (mut code, mut prev) = (0u32, 0u8);
    for s in order {
        code <<= lengths[s] - prev;
        prev = lengths[s];
        codes[s] = (code, prev);
        code += 1;
    }
    codes
}

impl Kernel {
    /// One pass of the reference work.  The return value only defeats the
    /// optimiser.
    pub fn pass(&self, bound: f32) -> u64 {
        self.codec(bound) + self.document(CELLS / BLOCK)
    }

    /// Compress the field within `bound`, decode it again and check the
    /// bound.
    fn codec(&self, bound: f32) -> u64 {
        let at = |r: &[f32], z: usize, y: usize, x: usize| -> f32 {
            // One-based so that index 0 on any axis is the zero border.
            if z == 0 || y == 0 || x == 0 {
                0.0
            } else {
                r[((z - 1) * EDGE + (y - 1)) * EDGE + (x - 1)]
            }
        };
        let lorenzo = |r: &[f32], z: usize, y: usize, x: usize| -> f32 {
            at(r, z, y, x - 1) + at(r, z, y - 1, x) + at(r, z - 1, y, x)
                - at(r, z, y - 1, x - 1)
                - at(r, z - 1, y, x - 1)
                - at(r, z - 1, y - 1, x)
                + at(r, z - 1, y - 1, x - 1)
        };

        // Predict from the reconstruction, quantise the residual.
        let step = 2.0 * bound;
        let mut recon = vec![0.0f32; CELLS];
        let mut codes: Vec<u16> = Vec::with_capacity(CELLS);
        let mut verbatim: Vec<f32> = Vec::new();
        for z in 1..=EDGE {
            for y in 1..=EDGE {
                for x in 1..=EDGE {
                    let i = ((z - 1) * EDGE + (y - 1)) * EDGE + (x - 1);
                    let predicted = lorenzo(&recon, z, y, x);
                    let q = ((self.field[i] - predicted) / step).round() as i32;
                    let value = predicted + q as f32 * step;
                    if q.abs() < RADIUS && (value - self.field[i]).abs() <= bound {
                        codes.push((q + RADIUS) as u16);
                        recon[i] = value;
                    } else {
                        codes.push(0);
                        verbatim.push(self.field[i]);
                        recon[i] = self.field[i];
                    }
                }
            }
        }

        // Huffman-code the quantisation codes.
        let mut counts = vec![0u32; SYMBOLS];
        for &c in &codes {
            counts[c as usize] += 1;
        }
        let lengths = code_lengths(&counts);
        let table = canonical(&lengths);
        let mut packed: Vec<u8> = Vec::with_capacity(CELLS);
        let (mut acc, mut bits) = (0u64, 0u32);
        for &c in &codes {
            let (code, len) = table[c as usize];
            acc = (acc << len) | code as u64;
            bits += len as u32;
            while bits >= 8 {
                bits -= 8;
                packed.push((acc >> bits) as u8);
            }
        }
        packed.push((acc << (8 - bits)) as u8);

        // Dictionary stage: longest match against the previous position
        // with the same 3-byte hash; tokens go to a fresh buffer.
        let mut heads = vec![u32::MAX; 1 << 13];
        let mut tokens: Vec<u8> = Vec::with_capacity(packed.len());
        let mut i = 0;
        while i + 3 <= packed.len() {
            let key = packed[i] as u32 | (packed[i + 1] as u32) << 8 | (packed[i + 2] as u32) << 16;
            let slot = (key.wrapping_mul(0x9e37_79b1) >> 19) as usize;
            let candidate = heads[slot];
            heads[slot] = i as u32;
            let mut len = 0;
            if candidate != u32::MAX {
                let c = candidate as usize;
                while i + len < packed.len() && len < 255 && packed[c + len] == packed[i + len] {
                    len += 1;
                }
            }
            if len >= 4 {
                tokens.extend_from_slice(&[0xff, len as u8, (i - candidate as usize) as u8]);
                i += len;
            } else {
                tokens.push(packed[i]);
                i += 1;
            }
        }

        // Decode: one table lookup per symbol where the code is short, a
        // bit-by-bit walk of the canonical code otherwise.
        let mut lookup = vec![(0u16, 0u8); 1 << TABLE_BITS];
        for (s, &(code, len)) in table.iter().enumerate() {
            if len > 0 && len as u32 <= TABLE_BITS {
                let shift = TABLE_BITS - len as u32;
                let base = (code << shift) as usize;
                lookup[base..base + (1 << shift)].fill((s as u16, len));
            }
        }
        let mut long: Vec<(u32, u8, u16)> = table
            .iter()
            .enumerate()
            .filter(|(_, &(_, len))| len as u32 > TABLE_BITS)
            .map(|(s, &(code, len))| (code, len, s as u16))
            .collect();
        long.sort_unstable();
        packed.extend_from_slice(&[0; 8]);
        let peek = |pos: usize, n: u32| -> u32 {
            let word = u64::from_be_bytes(packed[pos >> 3..(pos >> 3) + 8].try_into().expect("8"));
            ((word << (pos & 7)) >> (64 - n)) as u32
        };
        let mut restored = vec![0.0f32; CELLS];
        let (mut pos, mut next_verbatim, mut worst) = (0usize, 0usize, 0.0f32);
        for z in 1..=EDGE {
            for y in 1..=EDGE {
                for x in 1..=EDGE {
                    let (symbol, len) = match lookup[peek(pos, TABLE_BITS) as usize] {
                        (_, 0) => {
                            let mut found = (0, 0);
                            for len in TABLE_BITS + 1..=32 {
                                let code = peek(pos, len);
                                if let Ok(k) =
                                    long.binary_search_by_key(&(code, len as u8), |e| (e.0, e.1))
                                {
                                    found = (long[k].2, len as u8);
                                    break;
                                }
                            }
                            found
                        }
                        hit => hit,
                    };
                    pos += len as usize;
                    let i = ((z - 1) * EDGE + (y - 1)) * EDGE + (x - 1);
                    restored[i] = if symbol == 0 {
                        next_verbatim += 1;
                        verbatim[next_verbatim - 1]
                    } else {
                        lorenzo(&restored, z, y, x) + (symbol as i32 - RADIUS) as f32 * step
                    };
                    worst = worst.max((restored[i] - self.field[i]).abs());
                }
            }
        }
        assert!(worst <= bound, "the reference codec broke its bound");
        tokens.len() as u64 + verbatim.len() as u64
    }
}

/// A document tree, printed and parsed the way a report, a chunk index or
/// a wire frame is: one small allocation per node, formatting through
/// `std::fmt`, a byte-at-a-time recursive-descent parser.
#[derive(Debug, PartialEq)]
enum Node {
    Number(f64),
    Text(String),
    List(Vec<Node>),
    Map(BTreeMap<String, Node>),
}

fn write_text(f: &mut fmt::Formatter<'_>, text: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in text.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Number(v) => write!(f, "{v}"),
            Node::Text(text) => write_text(f, text),
            Node::List(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Node::Map(map) => {
                f.write_str("{")?;
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_text(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn expect(&mut self, byte: u8) {
        assert_eq!(
            self.bytes[self.pos], byte,
            "reference document, byte {}",
            self.pos
        );
        self.pos += 1;
    }

    fn text(&mut self) -> String {
        self.expect(b'"');
        let mut out = String::new();
        loop {
            let byte = self.bytes[self.pos];
            self.pos += 1;
            match byte {
                b'"' => return out,
                b'\\' => {
                    out.push(self.bytes[self.pos] as char);
                    self.pos += 1;
                }
                byte => out.push(byte as char),
            }
        }
    }

    /// `first, first, ... close`, each item read by `item`.
    fn sequence(&mut self, close: u8, mut item: impl FnMut(&mut Self)) {
        self.pos += 1;
        while self.bytes[self.pos] != close {
            if self.bytes[self.pos] == b',' {
                self.pos += 1;
            }
            item(self);
        }
        self.pos += 1;
    }

    fn node(&mut self) -> Node {
        match self.bytes[self.pos] {
            b'"' => Node::Text(self.text()),
            b'[' => {
                let mut items = Vec::new();
                self.sequence(b']', |p| items.push(p.node()));
                Node::List(items)
            }
            b'{' => {
                let mut map = BTreeMap::new();
                self.sequence(b'}', |p| {
                    let key = p.text();
                    p.expect(b':');
                    map.insert(key, p.node());
                });
                Node::Map(map)
            }
            _ => {
                let start = self.pos;
                while matches!(
                    self.bytes[self.pos],
                    b'0'..=b'9' | b'-' | b'+' | b'.' | b'e'
                ) {
                    self.pos += 1;
                }
                let digits = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
                Node::Number(digits.parse().expect("a number"))
            }
        }
    }
}

impl Kernel {
    /// The other half of a pass: describe the field's first `blocks`
    /// blocks in a document tree, print the tree and parse the text back.
    fn document(&self, blocks: usize) -> u64 {
        let records = self
            .field
            .chunks(BLOCK)
            .take(blocks)
            .enumerate()
            .map(|(b, block)| {
                let (mut lo, mut hi, mut sum) = (f32::MAX, f32::MIN, 0.0f64);
                for &v in block {
                    lo = lo.min(v);
                    hi = hi.max(v);
                    sum += v as f64;
                }
                let range = vec![Node::Number(lo as f64), Node::Number(hi as f64)];
                Node::Map(BTreeMap::from([
                    ("name".to_string(), Node::Text(format!("block \"{b}\""))),
                    ("unit".to_string(), Node::Text("cells".to_string())),
                    ("mean".to_string(), Node::Number(sum / block.len() as f64)),
                    ("range".to_string(), Node::List(range)),
                    ("offset".to_string(), Node::Number((b * BLOCK) as f64)),
                ]))
            })
            .collect();
        let tree = Node::List(records);
        let text = tree.to_string();
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let back = parser.node();
        assert!(
            back == tree && parser.pos == text.len(),
            "the reference document did not survive its text form"
        );
        text.len() as u64
    }
}

/// What a set of slices measured: seconds and passes, summed over the
/// threads.
#[derive(Debug, Default, Clone, Copy)]
pub struct Reading {
    pub thread_s: f64,
    pub passes: u64,
}

impl Reading {
    pub fn plus(self, other: Reading) -> Reading {
        Reading {
            thread_s: self.thread_s + other.thread_s,
            passes: self.passes + other.passes,
        }
    }

    /// Seconds the host took per pass, over the seconds a pass takes at
    /// the reference speed: 1.25 when the host runs a quarter slower.
    pub fn slowness(&self) -> f64 {
        self.slowness_at(NOMINAL_RATE)
    }

    /// The same against another nominal rate of passes per second.
    pub fn slowness_at(&self, nominal_rate: f64) -> f64 {
        self.thread_s / self.passes as f64 * nominal_rate
    }
}

/// The reference on as many threads as the product keeps busy.
pub struct Reference {
    kernels: Vec<Kernel>,
    /// Everything measured since the last [`Reference::take_total`].
    total: Reading,
}

impl Reference {
    pub fn new(threads: usize) -> Self {
        Self {
            kernels: (0..threads.max(1)).map(|_| Kernel::default()).collect(),
            total: Reading::default(),
        }
    }

    /// Run passes on every thread at once until `seconds` have gone by
    /// (always at least one pass each).
    pub fn slice(&mut self, seconds: f64) -> Reading {
        let run = |kernel: &Kernel| {
            let start = Instant::now();
            let mut passes = 0u64;
            loop {
                black_box(kernel.pass(black_box(1e-3 * (1.0 + (passes % 5) as f32))));
                passes += 1;
                let thread_s = start.elapsed().as_secs_f64();
                if thread_s >= seconds {
                    return Reading { thread_s, passes };
                }
            }
        };
        let reading = if let [kernel] = self.kernels.as_slice() {
            run(kernel)
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .kernels
                    .iter()
                    .map(|kernel| scope.spawn(move || run(kernel)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("reference thread"))
                    .fold(Reading::default(), Reading::plus)
            })
        };
        self.total = self.total.plus(reading);
        reading
    }

    /// The hand-off reference: two threads take turns for about `seconds`.
    /// Each does a small piece of the document work, wakes the other and
    /// sleeps until woken — the way a client, a connection thread and a
    /// worker of the service pass a job along.  A sleeping thread's core
    /// goes idle, and a shared host takes far longer to bring an idle core
    /// back when it is busy than it takes to slow a running one down, so
    /// latencies made of hand-offs need this reading and not the other.
    /// A pass is one turn; compare with [`NOMINAL_HANDOFF_RATE`].
    pub fn handoff_slice(&self, seconds: f64) -> Reading {
        let kernel = &self.kernels[0];
        let turn = || black_box(kernel.document(black_box(HANDOFF_BLOCKS)));
        let (to_other, from_main) = mpsc::channel::<bool>();
        let (to_main, from_other) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                while let Ok(true) = from_main.recv() {
                    turn();
                    if to_main.send(()).is_err() {
                        break;
                    }
                }
            });
            let start = Instant::now();
            let mut passes = 0u64;
            loop {
                turn();
                to_other.send(true).expect("the other thread listens");
                from_other.recv().expect("the other thread answers");
                passes += 2;
                let thread_s = start.elapsed().as_secs_f64();
                if thread_s >= seconds {
                    to_other.send(false).expect("the other thread listens");
                    return Reading { thread_s, passes };
                }
            }
        })
    }

    /// The sum of every slice since the last call.
    pub fn take_total(&mut self) -> Reading {
        std::mem::take(&mut self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_codec_honours_its_bound_and_compresses() {
        let kernel = Kernel::default();
        for bound in [1e-3, 5e-3] {
            // The codec asserts the bound itself.
            let bytes = kernel.codec(bound);
            assert!(bytes > 0 && bytes < (CELLS * 4) as u64 / 2, "{bytes}");
        }
    }
}
