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
//! The test binary runs under a counting `#[global_allocator]`
//! (`adversarial_decode.rs` is the precedent); the count is per thread, so
//! the harness's other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fraz::data::{synthetic, DType, Dims};
use fraz::pressio::registry;

thread_local! {
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        // `try_with`: the allocator outlives a thread's locals.
        let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic and guards no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap requests (`alloc`, `alloc_zeroed`, `realloc`) `f` makes on this
/// thread.
fn requests<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = REQUESTS.with(Cell::get);
    let out = f();
    (out, REQUESTS.with(Cell::get) - before)
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
