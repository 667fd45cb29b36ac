//! One evaluation allocates O(1) times: for every registered codec, one
//! `compress` and one `decompress` make a bounded number of heap requests,
//! and that number does not grow with the field.
//!
//! The fixed-ratio search pays one whole compression per candidate bound,
//! so a `Vec` per block or per point inside a codec is a cost multiplied by
//! every evaluation of every search.  The suite is registry-driven (sibling
//! of `error_bound_conformance.rs` and `adversarial_decode.rs`): a new
//! backend is counted the moment it registers, and a slim build counts the
//! codecs it has.  The bound is the geometric middle of the codec's own
//! `bound_range`, whatever its parameter means.
//!
//! A ratio evaluation (`evaluate(.., false)`) asks for no more than a
//! `compress` does, and a codec that answers it without writing the stream
//! is recognised by what it does *not* ask for: a handful of small requests
//! at any field size, none anywhere near the size of a payload.  sz and
//! mgard answer it with the reconstruction their encoder built, handed over
//! rather than copied: their size encode asks for nothing their stream
//! encode does not.
//!
//! A quality evaluation (`evaluate(.., true)`) decodes nothing where the
//! encoder rebuilt the field as it went (sz, mgard, szx, zfp), and szx's
//! packs nothing either: it asks for what its size-only encode asks for, the
//! reconstruction and the outcome's name.
//!
//! The test binary runs under a counting `#[global_allocator]`
//! (`adversarial_decode.rs` is the precedent); the count and the largest
//! request are per thread, so the harness's other threads cannot disturb
//! them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

#[cfg(any(feature = "sz", feature = "mgard", feature = "szx"))]
use fraz::data::Want;
use fraz::data::{synthetic, DType, Dims};
#[cfg(any(feature = "sz", feature = "mgard"))]
use fraz::data::{DataBuffer, Dataset, Encoded};
use fraz::pressio::registry;

thread_local! {
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count(bytes: usize) {
        // `try_with`: the allocator outlives a thread's locals.
        let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
        let _ = LARGEST.try_with(|l| l.set(l.get().max(bytes)));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic and guards no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap requests (`alloc`, `alloc_zeroed`, `realloc`) `f` makes on this
/// thread.
fn requests<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, count, _) = requests_and_largest(f);
    (out, count)
}

/// The same, with the size of the largest request among them.
fn requests_and_largest<T>(f: impl FnOnce() -> T) -> (T, u64, usize) {
    let before = REQUESTS.with(Cell::get);
    LARGEST.with(|l| l.set(0));
    let out = f();
    (
        out,
        REQUESTS.with(Cell::get) - before,
        LARGEST.with(Cell::get),
    )
}

/// Ceiling on one call's heap requests at either size.
const MAX_REQUESTS: u64 = 200;

#[test]
fn one_evaluation_allocates_a_bounded_number_of_times() {
    let names = registry::names();
    assert!(!names.is_empty(), "no codec is registered");
    let mut failures = Vec::new();
    for name in names {
        let codec = registry::build_default(&name).unwrap();
        // (compress, decompress) requests at 16³ and at 32³.
        let mut counts = Vec::new();
        for edge in [16, 32] {
            let dims = Dims::d3(edge, edge, edge);
            if !codec.supports_dims(&dims) {
                continue;
            }
            let dataset = synthetic::generate("turbulence", &dims, DType::F32, 5, 0).unwrap();
            let (lo, hi) = codec.bound_range(&dataset);
            let bound = (lo * hi).sqrt();
            // Warm the per-thread scratch (the LZSS encoder) before counting.
            codec.compress(&dataset, bound).unwrap();
            let (packed, compress) = requests(|| codec.compress(&dataset, bound).unwrap());
            let (restored, decompress) = requests(|| codec.decompress(&packed).unwrap());
            assert_eq!(restored.dims, dataset.dims, "{name}");
            counts.push((compress, decompress));
        }
        let [(c16, d16), (c32, d32)] = counts[..] else {
            continue;
        };
        println!(
            "{name}: compress {c16} -> {c32}, decompress {d16} -> {d32} requests (16³ -> 32³)"
        );
        for (what, small, large) in [("compress", c16, c32), ("decompress", d16, d32)] {
            if small > MAX_REQUESTS || large > MAX_REQUESTS {
                failures.push(format!(
                    "{name} {what}: {small} requests at 16³, {large} at 32³ (at most {MAX_REQUESTS})"
                ));
            }
            // Eight times the points, the same requests but for a few more
            // doublings of the growing buffers (which is all a count in
            // single digits can grow by, so it is read as at least eight).
            if 2 * large >= 3 * small.max(8) {
                failures.push(format!(
                    "{name} {what}: {small} requests at 16³ grow to {large} at 32³ (under 1.5x)"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A size-only evaluation is recognised by asking for nothing larger than
/// this, and for no more than [`SIZE_ONLY_REQUESTS`] things, at any size.
const SIZE_ONLY_LARGEST: usize = 4096;
const SIZE_ONLY_REQUESTS: u64 = 8;

#[test]
fn a_ratio_evaluation_asks_for_no_more_than_a_compression() {
    let names = registry::names();
    assert!(!names.is_empty(), "no codec is registered");
    let mut failures = Vec::new();
    // The codecs that answer without ever holding their stream.
    let mut size_only = Vec::new();
    for name in names {
        let codec = registry::build_default(&name).unwrap();
        // (requests, largest request) of one `evaluate(.., false)` per edge.
        let mut rows = Vec::new();
        for edge in [16, 32] {
            let dims = Dims::d3(edge, edge, edge);
            if !codec.supports_dims(&dims) {
                continue;
            }
            let dataset = synthetic::generate("turbulence", &dims, DType::F32, 5, 0).unwrap();
            let (lo, hi) = codec.bound_range(&dataset);
            let bound = (lo * hi).sqrt();
            codec.compress(&dataset, bound).unwrap();
            let (packed, compress) = requests(|| codec.compress(&dataset, bound).unwrap());
            let (outcome, evaluate, largest) =
                requests_and_largest(|| codec.evaluate(&dataset, bound, false).unwrap());
            assert_eq!(outcome.compressed_bytes, packed.len(), "{name}");
            // An evaluation that wrote its stream hands it back; one that
            // asked for less than its length has none to hand.
            assert_eq!(outcome.stream.is_some(), largest >= packed.len(), "{name}");
            assert!(
                outcome.stream.is_none_or(|stream| stream == packed),
                "{name}"
            );
            // The outcome owns its codec's name: one request `compress`
            // has no use for.
            if evaluate > compress + 1 {
                failures.push(format!(
                    "{name} at {edge}³: evaluate makes {evaluate} requests, compress {compress}"
                ));
            }
            rows.push((evaluate, largest, packed.len()));
        }
        let [(e16, l16, _), (e32, l32, packed32)] = rows[..] else {
            continue;
        };
        println!("{name}: evaluate {e16} -> {e32} requests, largest {l16} -> {l32} B");
        // A stream lives in one request at least its length, so a codec that
        // asks for less at 32³ did not write it: then it must not have
        // written anything like it.
        if l32 < packed32 {
            size_only.push(name.clone());
            if e16.max(e32) > SIZE_ONLY_REQUESTS || l16.max(l32) > SIZE_ONLY_LARGEST {
                failures.push(format!(
                    "{name}: a size-only evaluation makes {e16} / {e32} requests of up to \
                     {l16} / {l32} B (at most {SIZE_ONLY_REQUESTS} of {SIZE_ONLY_LARGEST} B)"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // The SZx-like codec's length is a closed form of its classification: a
    // build that has the codec has the size-only evaluation.
    assert!(
        !registry::contains("szx") || size_only.iter().any(|name| name == "szx"),
        "szx evaluates by writing its stream; size-only: {size_only:?}"
    );
}

/// sz and mgard keep the reconstruction their encoder builds when asked for
/// a size only (`Want::Size`): the `f64` buffer the encoder predicted from,
/// handed over.  A narrowing or a copy would be one more request than the
/// stream-only encode (`Want::Stream`) makes, which drops the buffer.
#[cfg(any(feature = "sz", feature = "mgard"))]
#[test]
fn a_size_encode_hands_over_the_reconstruction_it_built() {
    type Encode = fn(&Dataset, f64, Want) -> Encoded;
    let mut encoders: Vec<(&str, Encode)> = Vec::new();
    #[cfg(feature = "sz")]
    encoders.push(("sz", |dataset, bound, want| {
        let config = fraz::sz::SzConfig::with_error_bound(bound);
        fraz::sz::encode(dataset, &config, want).unwrap()
    }));
    #[cfg(feature = "mgard")]
    encoders.push(("mgard", |dataset, bound, want| {
        let config = fraz::mgard::MgardConfig::infinity_norm(bound);
        fraz::mgard::encode(dataset, &config, want).unwrap()
    }));
    #[cfg(feature = "mgard")]
    encoders.push(("mgard-l2", |dataset, bound, want| {
        let config = fraz::mgard::MgardConfig::l2_norm(bound);
        fraz::mgard::encode(dataset, &config, want).unwrap()
    }));
    let mut failures = Vec::new();
    for (name, encode) in encoders {
        let codec = registry::build_default(name).unwrap();
        for edge in [16, 32] {
            for dtype in [DType::F32, DType::F64] {
                let dims = Dims::d3(edge, edge, edge);
                let dataset = synthetic::generate("turbulence", &dims, dtype, 5, 0).unwrap();
                let (lo, hi) = codec.bound_range(&dataset);
                let bound = (lo * hi).sqrt();
                encode(&dataset, bound, Want::Stream);
                let (stream, stream_requests, stream_largest) =
                    requests_and_largest(|| encode(&dataset, bound, Want::Stream));
                let (size, size_requests, size_largest) =
                    requests_and_largest(|| encode(&dataset, bound, Want::Size));
                let what = format!("{name} {dtype:?} at {edge}³");
                assert_eq!(size.len, stream.len, "{what}");
                assert!(stream.recon.is_none(), "{what}");
                match &size.recon {
                    Some(DataBuffer::F64(values)) => assert_eq!(values.len(), dataset.len()),
                    other => panic!("{what}: kept {:?}", other.as_ref().map(DataBuffer::dtype)),
                }
                println!(
                    "{what}: size {size_requests} requests of up to {size_largest} B, \
                     stream {stream_requests} of up to {stream_largest} B"
                );
                if size_requests > stream_requests || size_largest > stream_largest {
                    failures.push(format!(
                        "{what}: a size encode makes {size_requests} requests of up to \
                         {size_largest} B, a stream encode {stream_requests} of up to \
                         {stream_largest} B"
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The codecs whose encoders rebuild the field as they go: a build that has
/// one has its decode-free quality evaluation.  (zfp rebuilds each block
/// from the bits it wrote, straight into the field's own element type:
/// `a_zfp_quality_evaluation_decodes_nothing` holds it closer.)
const MEASURE_THEIR_OWN: [&str; 6] = ["sz", "mgard", "mgard-l2", "szx", "zfp", "zfp-rate"];

#[test]
fn a_quality_evaluation_decodes_only_where_the_encoder_could_not_measure() {
    let names = registry::names();
    assert!(!names.is_empty(), "no codec is registered");
    let mut failures = Vec::new();
    // The codecs whose quality evaluation asked for no more than a
    // `compress`, the outcome's name and one field-sized buffer.
    let mut decode_free = Vec::new();
    for name in names {
        let codec = registry::build_default(&name).unwrap();
        let mut rows = Vec::new();
        for edge in [16, 32] {
            let dims = Dims::d3(edge, edge, edge);
            if !codec.supports_dims(&dims) {
                continue;
            }
            for dtype in [DType::F32, DType::F64] {
                let dataset = synthetic::generate("turbulence", &dims, dtype, 5, 0).unwrap();
                let (lo, hi) = codec.bound_range(&dataset);
                let bound = (lo * hi).sqrt();
                codec.evaluate(&dataset, bound, true).unwrap();
                let (packed, compress) = requests(|| codec.compress(&dataset, bound).unwrap());
                let (_, decompress) = requests(|| codec.decompress(&packed).unwrap());
                let (outcome, evaluate) =
                    requests(|| codec.evaluate(&dataset, bound, true).unwrap());
                // A stream it carries is `compress`'s; szx writes none.
                assert!(
                    outcome.stream.as_ref().is_none_or(|s| *s == packed),
                    "{name}"
                );
                // The report itself asks for nothing: at most a compress, a
                // decode and the outcome's name.
                if evaluate > compress + decompress + 1 {
                    failures.push(format!(
                        "{name} {dtype:?} at {edge}³: a quality evaluation makes {evaluate} \
                         requests, compress {compress} + decompress {decompress} + 1"
                    ));
                }
                // A decode asks for more than the name and one buffer, so
                // an evaluation within that much of a compress decoded
                // nothing.
                assert!(decompress > 2, "{name}: a decode in {decompress} requests");
                rows.push((evaluate, compress, decompress, evaluate <= compress + 2));
            }
        }
        if rows.is_empty() {
            continue;
        }
        println!("{name}: (evaluate, compress, decompress, decode-free) {rows:?}");
        if rows.iter().all(|row| row.3) {
            decode_free.push(name.clone());
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    for name in MEASURE_THEIR_OWN {
        assert!(
            !registry::contains(name) || decode_free.iter().any(|n| n == name),
            "{name} decodes its stream to measure it; decode-free: {decode_free:?}"
        );
    }
}

/// szx's quality evaluation is its classification pass filling the
/// reconstruction: no more requests than `encode(.., Want::Size)` — which
/// packs nothing — plus the reconstruction buffer and the outcome's name,
/// and no stream on the outcome.  Packing the payload would add the
/// stream's writer and its sections' buffers.
#[cfg(feature = "szx")]
#[test]
fn a_szx_quality_evaluation_packs_nothing() {
    let codec = registry::build_default("szx").unwrap();
    let mut failures = Vec::new();
    for edge in [16, 32] {
        for dtype in [DType::F32, DType::F64] {
            let dims = Dims::d3(edge, edge, edge);
            let dataset = synthetic::generate("turbulence", &dims, dtype, 5, 0).unwrap();
            let (lo, hi) = codec.bound_range(&dataset);
            let config = fraz::szx::SzxConfig::with_error_bound((lo * hi).sqrt());
            let size = || fraz::szx::encode(&dataset, &config, Want::Size).unwrap();
            let evaluate = || codec.evaluate(&dataset, config.error_bound, true).unwrap();
            evaluate();
            let (_, size_requests) = requests(size);
            let (outcome, evaluate_requests) = requests(evaluate);
            let (_, compress_requests) =
                requests(|| codec.compress(&dataset, config.error_bound).unwrap());
            let what = format!("szx {dtype:?} at {edge}³");
            println!(
                "{what}: quality evaluation {evaluate_requests}, size encode {size_requests}, \
                 compress {compress_requests} requests"
            );
            assert!(outcome.stream.is_none(), "{what}: a stream was written");
            assert!(outcome.quality.is_some(), "{what}");
            if evaluate_requests > size_requests + 2 {
                failures.push(format!(
                    "{what}: a quality evaluation makes {evaluate_requests} requests, a size \
                     encode {size_requests} + the reconstruction + the name"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// zfp's quality evaluation writes the stream and rebuilds each block from
/// the bits it wrote, through the decoder's block tail: it asks for what
/// `compress` asks for, the reconstruction — written straight in the
/// field's own element type, so an `f32` field is not rebuilt as `f64` and
/// narrowed — and the outcome's name.  Decoding the stream would add the
/// header's strings, the decoded dataset and its buffers.
#[cfg(feature = "zfp")]
#[test]
fn a_zfp_quality_evaluation_decodes_nothing() {
    let codec = registry::build_default("zfp").unwrap();
    let mut failures = Vec::new();
    for edge in [16, 32] {
        for dtype in [DType::F32, DType::F64] {
            let dims = Dims::d3(edge, edge, edge);
            let dataset = synthetic::generate("turbulence", &dims, dtype, 5, 0).unwrap();
            let (lo, hi) = codec.bound_range(&dataset);
            let bound = (lo * hi).sqrt();
            let evaluate = || codec.evaluate(&dataset, bound, true).unwrap();
            evaluate();
            let (packed, compress_requests) = requests(|| codec.compress(&dataset, bound).unwrap());
            let (_, decompress_requests) = requests(|| codec.decompress(&packed).unwrap());
            let (outcome, evaluate_requests) = requests(evaluate);
            let what = format!("zfp {dtype:?} at {edge}³");
            println!(
                "{what}: quality evaluation {evaluate_requests}, compress {compress_requests}, \
                 decompress {decompress_requests} requests"
            );
            assert_eq!(outcome.stream.as_ref(), Some(&packed), "{what}");
            assert!(outcome.quality.is_some(), "{what}");
            if evaluate_requests > compress_requests + 2 {
                failures.push(format!(
                    "{what}: a quality evaluation makes {evaluate_requests} requests, compress \
                     {compress_requests} + the reconstruction + the name"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
