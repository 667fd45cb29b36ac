//! Hostile-input contract of every decode path: bytes that cross a trust
//! boundary yield a corrupt-stream error (`PressioError::Codec`) — never a
//! panic, a hang, an abort or an allocation sized by an unchecked field.
//!
//! The suite is registry-driven (sibling of `error_bound_conformance.rs`):
//! it loops over **every** registered codec, so a new backend is attacked
//! the moment it registers, and it passes on a single-codec build.  All it
//! knows about a blob is the prefix every codec shares (`fraz::data::wire`):
//!
//! ```text
//! magic u32 · version u8 · dtype u8 · rank u8 · axes u64×rank ·
//! timestep u64 · application str16 · field str16 · <codec-specific>
//! ```
//!
//! Per codec, and for the lossless stage on its own: truncation at every
//! byte (must be `Err`), a single-bit-flip sweep over the header and the
//! first 256 body bytes, targeted corruption of rank, dtype, every axis and
//! both string lengths (must be `Err`), and hostile 64-bit values stomped
//! over every offset where a codec keeps its parameters and counts — in the
//! clear and, where the blob embeds a lossless frame, inside the frame's
//! decoded body too.  A mutation that lands on a field whose every value is
//! legal (a name byte, the time-step, a bound's mantissa) may still decode;
//! then the result must be self-consistent.  The tune-cache file gets the
//! same truncation and bit-flip sweeps, with its own contract: `open`
//! succeeds and damage costs the damaged lines only.
//!
//! Every mutation that is decoded is also region-decoded
//! (`Compressor::decompress_region`) with three fixed regions — a corner
//! point, an interior slab and the far corner's octant — and each of those
//! calls must end in a corrupt-stream error or a region of the asked-for
//! shape: a region decode reads less of the stream, so it may succeed where
//! the whole decode fails, but never panic, hang or over-allocate.
//!
//! The test binary runs under a counting `#[global_allocator]` that refuses
//! any request taking live bytes above 256 MiB: an unchecked proportional
//! allocation aborts the suite on every host instead of hiding behind
//! overcommit, while a checked one sees `try_reserve` fail and reports it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use fraz::data::{Dataset, Dims};
use fraz::lossless;
use fraz::pressio::{registry, Compressor, PressioError};
use fraz::tune::TuneCache;

// ---------------------------------------------------------------------------
// The allocation cap.

const LIVE_CAP: usize = 256 << 20;
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct CappedAlloc;

impl CappedAlloc {
    /// Account for `grow` more live bytes, or refuse.
    fn admit(grow: usize) -> bool {
        if LIVE.fetch_add(grow, Ordering::Relaxed) + grow > LIVE_CAP {
            LIVE.fetch_sub(grow, Ordering::Relaxed);
            return false;
        }
        true
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged, or returns null (the documented failure value) without
// touching memory; the accounting is a statistic and guards no data.
unsafe impl GlobalAlloc for CappedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !Self::admit(layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !Self::admit(layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() && !Self::admit(new_size - layout.size()) {
            return std::ptr::null_mut();
        }
        if new_size < layout.size() {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CappedAlloc = CappedAlloc;

// ---------------------------------------------------------------------------
// Victims: one small blob per registered codec.

const APPLICATION: &str = "a";
const FIELD: &str = "f";
/// Hostile sizes: 2^33 and 2^36 elements fit `usize` but not memory; the
/// rest overflow products or `isize`.
const HOSTILE: [u64; 4] = [1 << 33, 1 << 36, 1 << 62, u64::MAX];

/// Byte offsets of the shared prefix for a dataset named
/// `APPLICATION`/`FIELD` of the given rank.
struct Prefix {
    rank: usize,
}

impl Prefix {
    const DTYPE: usize = 5;
    const RANK: usize = 6;

    fn axis(&self, i: usize) -> usize {
        7 + 8 * i
    }
    fn application_len(&self) -> usize {
        self.axis(self.rank) + 8
    }
    fn field_len(&self) -> usize {
        self.application_len() + 2 + APPLICATION.len()
    }
    fn end(&self) -> usize {
        self.field_len() + 2 + FIELD.len()
    }
}

fn field() -> Dataset {
    let values: Vec<f32> = (0..4096)
        .map(|i| {
            let (x, y, z) = ((i % 16) as f32, (i / 16 % 16) as f32, (i / 256) as f32);
            (x * 0.4).sin() + (y * 0.3).cos() * 2.0 + z * 0.05
        })
        .collect();
    Dataset::from_f32(APPLICATION, FIELD, 0, Dims::d3(16, 16, 16), values)
}

struct Victim {
    name: String,
    codec: Box<dyn Compressor>,
    blob: Vec<u8>,
    prefix: Prefix,
}

fn victims() -> Vec<Victim> {
    let dataset = field();
    let victims: Vec<Victim> = registry::names()
        .into_iter()
        .filter_map(|name| {
            let codec = registry::build_default(&name).expect("registered codecs build");
            if !codec.supports_dims(&dataset.dims) {
                return None;
            }
            let (lower, upper) = codec.bound_range(&dataset);
            let blob = codec
                .compress(&dataset, (lower * upper).sqrt())
                .unwrap_or_else(|e| panic!("{name}: compressing the victim failed: {e}"));
            let prefix = Prefix {
                rank: dataset.dims.ndims(),
            };
            assert_eq!(blob[Prefix::RANK] as usize, prefix.rank, "{name}: prefix");
            assert_eq!(
                blob[prefix.end() - 1],
                FIELD.as_bytes()[0],
                "{name}: prefix"
            );
            Some(Victim {
                name,
                codec,
                blob,
                prefix,
            })
        })
        .collect();
    assert!(!victims.is_empty(), "no registered codec took the victim");
    victims
}

/// The regions every decoded mutation is also read at: a corner point, an
/// interior slab and the far corner's octant of the 16³ victim.
fn regions() -> [Vec<Range<usize>>; 3] {
    [
        vec![0..1, 0..1, 0..1],
        vec![4..9, 2..14, 7..8],
        vec![8..16, 8..16, 8..16],
    ]
}

/// Region-decode hostile bytes: each region ends in a corrupt-stream error
/// or a dataset of its shape.
fn decode_regions(victim: &Victim, what: &str, bytes: &[u8]) {
    let (name, dims) = (&victim.name, field().dims);
    for region in regions() {
        let read = || victim.codec.decompress_region(bytes, &dims, &region);
        match catch_unwind(AssertUnwindSafe(read)) {
            Err(_) => panic!("{name}: {what}: decompress_region {region:?} panicked"),
            Ok(Err(PressioError::Codec(_))) => {}
            Ok(Err(e)) => panic!("{name}: {what}: {region:?}: {e:?} is not a corrupt-stream error"),
            Ok(Ok(dataset)) => {
                let shape: Vec<usize> = region.iter().map(|r| r.len()).collect();
                assert_eq!(dataset.dims.as_slice(), shape, "{name}: {what}");
                assert_eq!(dataset.len(), dataset.dims.len(), "{name}: {what}");
            }
        }
    }
}

/// Decode hostile bytes: a panic fails the test naming the mutation, a
/// failure must be a corrupt stream (`PressioError::Codec`) and a success a
/// self-consistent dataset.  The same bytes are region-decoded too
/// ([`decode_regions`]).
fn decode(victim: &Victim, what: &str, bytes: &[u8]) -> Result<Dataset, String> {
    decode_regions(victim, what, bytes);
    let name = &victim.name;
    match catch_unwind(AssertUnwindSafe(|| victim.codec.decompress(bytes))) {
        Err(_) => panic!("{name}: {what}: decompress panicked"),
        Ok(Err(PressioError::Codec(e))) => Err(e),
        Ok(Err(e)) => panic!("{name}: {what}: {e:?} is not a corrupt-stream error"),
        Ok(Ok(dataset)) => {
            assert_eq!(dataset.len(), dataset.dims.len(), "{name}: {what}");
            Ok(dataset)
        }
    }
}

fn must_reject(victim: &Victim, what: &str, bytes: &[u8]) {
    if decode(victim, what, bytes).is_ok() {
        panic!("{}: {what}: decoded successfully", victim.name);
    }
}

fn stomp(bytes: &[u8], offset: usize, value: &[u8]) -> Vec<u8> {
    let mut copy = bytes.to_vec();
    let end = (offset + value.len()).min(copy.len());
    copy[offset..end].copy_from_slice(&value[..end - offset]);
    copy
}

// ---------------------------------------------------------------------------
// Every registered codec.

#[test]
fn truncation_at_every_byte_is_an_error() {
    for victim in victims() {
        for cut in 0..victim.blob.len() {
            must_reject(&victim, &format!("cut at {cut}"), &victim.blob[..cut]);
        }
        decode(&victim, "intact", &victim.blob).expect("the intact blob decodes");
    }
}

#[test]
fn single_bit_flips_never_panic_or_overallocate() {
    for victim in victims() {
        // Prefix, codec parameters (a few dozen bytes at most), 256 of body.
        let sweep = (victim.prefix.end() + 64 + 256).min(victim.blob.len());
        for pos in 0..sweep {
            for bit in 0..8 {
                let mut copy = victim.blob.clone();
                copy[pos] ^= 1 << bit;
                let _ = decode(&victim, &format!("bit {bit} of byte {pos}"), &copy);
            }
        }
    }
}

#[test]
fn hostile_prefix_fields_are_rejected() {
    for victim in victims() {
        let (blob, prefix) = (&victim.blob, &victim.prefix);
        for pos in 0..5 {
            let what = format!("magic/version byte {pos} flipped");
            must_reject(&victim, &what, &stomp(blob, pos, &[!blob[pos]]));
        }
        for tag in [2u8, 3, 0x80, 0xff] {
            let what = format!("dtype tag {tag}");
            must_reject(&victim, &what, &stomp(blob, Prefix::DTYPE, &[tag]));
        }
        for rank in [0u8, 5, 8, 0xff] {
            let what = format!("rank {rank}");
            must_reject(&victim, &what, &stomp(blob, Prefix::RANK, &[rank]));
        }
        for value in HOSTILE.into_iter().chain([0]) {
            let mut all = blob.clone();
            for axis in 0..prefix.rank {
                let what = format!("axis {axis} = {value}");
                let at = prefix.axis(axis);
                must_reject(&victim, &what, &stomp(blob, at, &value.to_le_bytes()));
                all = stomp(&all, at, &value.to_le_bytes());
            }
            must_reject(&victim, &format!("every axis = {value}"), &all);
        }
        for at in [prefix.application_len(), prefix.field_len()] {
            assert!(blob.len() < 0xff00, "victim too large for this probe");
            must_reject(
                &victim,
                "string length 0xffff",
                &stomp(blob, at, &[0xff; 2]),
            );
        }
    }
}

/// Offset of the lossless frame a blob embeds after its parameters, if any.
fn embedded_frame(victim: &Victim) -> Option<(usize, Vec<u8>)> {
    let start = victim.prefix.end();
    (start..(start + 64).min(victim.blob.len()))
        .find_map(|at| Some((at, lossless::decompress(&victim.blob[at..]).ok()?)))
}

#[test]
fn hostile_parameters_and_counts_never_panic_or_overallocate() {
    for victim in victims() {
        let start = victim.prefix.end();
        // In the clear: parameters, section lengths, block and value counts.
        for at in start..(start + 96).min(victim.blob.len()) {
            for value in HOSTILE {
                let what = format!("u64 {value:#x} at byte {at}");
                let _ = decode(
                    &victim,
                    &what,
                    &stomp(&victim.blob, at, &value.to_le_bytes()),
                );
                let what = format!("u32 {:#x} at byte {at}", value as u32 | 0x8000_0000);
                let narrow = (value as u32 | 0x8000_0000).to_le_bytes();
                let _ = decode(&victim, &what, &stomp(&victim.blob, at, &narrow));
            }
        }
        // Behind the dictionary coder: re-frame a corrupted body.
        let Some((frame_at, body)) = embedded_frame(&victim) else {
            continue;
        };
        let reframe = |body: &[u8]| {
            let mut blob = victim.blob[..frame_at].to_vec();
            blob.extend_from_slice(&lossless::compress(body));
            blob
        };
        decode(&victim, "re-framed intact body", &reframe(&body)).expect("re-framing is faithful");
        let tail = body.len().saturating_sub(24);
        for at in (0..body.len().min(96)).chain(tail..body.len()) {
            for value in HOSTILE {
                let what = format!("u64 {value:#x} at body byte {at}");
                let _ = decode(
                    &victim,
                    &what,
                    &reframe(&stomp(&body, at, &value.to_le_bytes())),
                );
            }
        }
        for pos in 0..body.len().min(128) {
            let what = format!("body byte {pos} inverted");
            let _ = decode(&victim, &what, &reframe(&stomp(&body, pos, &[!body[pos]])));
        }
    }
}

// ---------------------------------------------------------------------------
// The lossless stage on its own.

fn lossless_decode(what: &str, bytes: &[u8]) -> Result<Vec<u8>, lossless::CodingError> {
    catch_unwind(|| lossless::decompress(bytes))
        .unwrap_or_else(|_| panic!("lossless: {what}: decompress panicked"))
}

#[test]
fn lossless_stage_survives_truncation_flips_and_hostile_lengths() {
    let data: Vec<u8> = (0..6000u32)
        .map(|i| ((i * i / 7) % 251) as u8 ^ (i % 13) as u8)
        .collect();
    let frame = lossless::compress(&data);
    assert_eq!(lossless_decode("intact", &frame).unwrap(), data);
    for cut in 0..frame.len() {
        assert!(
            lossless_decode("cut", &frame[..cut]).is_err(),
            "lossless: cut at {cut} decoded"
        );
    }
    for pos in 0..frame.len().min(12 + 256) {
        for bit in 0..8 {
            let mut copy = frame.clone();
            copy[pos] ^= 1 << bit;
            let _ = lossless_decode(&format!("bit {bit} of byte {pos}"), &copy);
        }
    }
    // The declared length (bytes 4..12) sizes the output buffer.
    for value in HOSTILE {
        let err = lossless_decode("hostile length", &stomp(&frame, 4, &value.to_le_bytes()));
        assert!(
            matches!(
                err,
                Err(lossless::CodingError::LengthMismatch { .. }
                    | lossless::CodingError::InvalidHeader(_))
            ),
            "lossless: declared length {value:#x} gave {err:?}"
        );
    }
    // The entropy stage's own count and table-size varints.
    let symbols: Vec<u32> = (0..5000u32).map(|i| (i * 31) % 600).collect();
    let packed = lossless::huffman::encode_symbols(&symbols);
    for at in 0..packed.len().min(64) {
        for value in [0xffu8, 0x80, 0x7f] {
            let copy = stomp(&packed, at, &[value; 10]);
            let what = format!("huffman: ten {value:#x} bytes at {at}");
            let _ = catch_unwind(|| lossless::huffman::decode_symbols(&copy))
                .unwrap_or_else(|_| panic!("{what}: panicked"));
        }
    }
}

// ---------------------------------------------------------------------------
// The tune-cache file: the one trust boundary that is not a codec blob.  It
// is read at every service and CLI start, so damage must cost the damaged
// lines only — `open` succeeds, intact lines load, the rest are counted.

/// The recorded `(key, bound)` pairs and the bytes a flush writes for them.
fn flushed_tune_cache(dir: &std::path::Path) -> (Vec<(String, f64)>, Vec<u8>) {
    let _ = std::fs::remove_dir_all(dir);
    let recorded: Vec<(String, f64)> = (0..12u32)
        .map(|i| {
            (
                format!("sz|cfg|r{i}|fingerprint-{:08x}", i * 0x9e37),
                1e-4 * 1.37f64.powi(i as i32),
            )
        })
        .collect();
    let cache = TuneCache::open(dir).unwrap();
    for (key, bound) in &recorded {
        cache.record(key.clone(), *bound);
    }
    cache.flush().unwrap();
    let bytes = std::fs::read(cache.path()).unwrap();
    (recorded, bytes)
}

/// Open a cache over `bytes`; returns `(entries equal to a recorded pair,
/// all entries, corrupt lines)`.
fn open_damaged(
    dir: &std::path::Path,
    what: &str,
    bytes: &[u8],
    recorded: &[(String, f64)],
) -> (usize, usize, usize) {
    std::fs::write(dir.join(fraz::tune::CACHE_FILE), bytes).unwrap();
    let cache = catch_unwind(|| TuneCache::open(dir))
        .unwrap_or_else(|_| panic!("tune cache: {what}: open panicked"))
        .unwrap_or_else(|e| panic!("tune cache: {what}: open failed: {e}"));
    let intact = recorded
        .iter()
        .filter(|(key, bound)| cache.lookup(key).map(f64::to_bits) == Some(bound.to_bits()))
        .count();
    let loaded = (intact, cache.len(), cache.stats().corrupt_lines);
    // Dropping a cache flushes it; the next case overwrites the file anyway.
    drop(cache);
    loaded
}

#[test]
fn tune_cache_file_survives_truncation_and_bit_flips() {
    let dir = std::env::temp_dir().join(format!("fraz-adversarial-tune-{}", std::process::id()));
    let (recorded, bytes) = flushed_tune_cache(&dir);
    let lines = recorded.len();
    assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), lines);

    // open ∘ flush is the identity on an intact cache, bytes and entries.
    assert_eq!(
        open_damaged(&dir, "intact", &bytes, &recorded),
        (lines, lines, 0)
    );
    assert_eq!(
        std::fs::read(dir.join(fraz::tune::CACHE_FILE)).unwrap(),
        bytes
    );

    // A cut keeps exactly the complete lines before it; a torn last line is
    // counted, and can never parse (its closing brace is its last byte).
    for cut in 0..bytes.len() {
        let whole = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
        let torn = !matches!(bytes[..cut].last(), None | Some(b'\n'));
        let torn_but_whole = torn && bytes[cut] == b'\n';
        let kept = whole + usize::from(torn_but_whole);
        assert_eq!(
            open_damaged(&dir, &format!("cut at {cut}"), &bytes[..cut], &recorded),
            (kept, kept, usize::from(torn && !torn_but_whole)),
            "tune cache: cut at {cut}"
        );
    }

    // A flipped bit damages the line it lands in — or, on a newline, that
    // line and its neighbour — and nothing else.  A line's checksum covers
    // its key and bound, so a flipped digit or key byte never parses as an
    // entry nobody recorded.
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut copy = bytes.clone();
            copy[pos] ^= 1 << bit;
            let what = format!("bit {bit} of byte {pos}");
            let (intact, entries, corrupt) = open_damaged(&dir, &what, &copy, &recorded);
            assert!(
                intact >= lines - 2,
                "tune cache: {what}: lost {}",
                lines - intact
            );
            let strangers = entries - intact;
            assert_eq!(
                strangers, 0,
                "tune cache: {what}: {strangers} unrecorded entries"
            );
            // Every line is loaded or counted; a flipped newline merges two
            // lines into one corrupt one, which hides a single line.
            assert!(
                entries + corrupt >= lines - 1,
                "tune cache: {what}: {entries} entries + {corrupt} corrupt of {lines} lines"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The probes of the issue that introduced this suite, by name.  Each used to
// abort (allocation failure), get the process OOM-killed, or panic; they are
// skipped on builds that do not register the codec they were found in.

fn probe(name: &str, mutate: impl Fn(&Victim) -> Vec<u8>) {
    for victim in victims().into_iter().filter(|v| v.name == name) {
        let what = "regression probe";
        assert_eq!((victim.prefix.end(), victim.prefix.rank), (45, 3), "{what}");
        must_reject(&victim, what, &mutate(&victim));
    }
}

fn all_axes(victim: &Victim, value: u64) -> Vec<u8> {
    (0..victim.prefix.rank).fold(victim.blob.clone(), |blob, axis| {
        stomp(&blob, victim.prefix.axis(axis), &value.to_le_bytes())
    })
}

#[test]
fn probe_sz_byte_72_flip_asked_for_4_6_exabytes() {
    // Byte 72 is the top byte of the lossless frame's declared length.
    probe("sz", |v| stomp(&v.blob, 72, &[v.blob[72] ^ 0x40]));
}

#[test]
fn probe_zfp_axis_0_of_2_pow_33_asked_for_17_6_terabytes() {
    probe("zfp", |v| {
        stomp(&v.blob, v.prefix.axis(0), &(1u64 << 33).to_le_bytes())
    });
}

#[test]
fn probe_sz_and_zfp_all_axes_2_pow_36_were_oom_killed() {
    probe("sz", |v| all_axes(v, 1 << 36));
    probe("zfp", |v| all_axes(v, 1 << 36));
}

#[test]
fn probe_mgard_all_axes_2_pow_36_indexed_out_of_bounds() {
    probe("mgard", |v| all_axes(v, 1 << 36));
}
