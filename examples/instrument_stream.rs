//! I/O-bandwidth matching use case (paper §II-B, third use case).
//!
//! Light-source instruments such as LCLS-II acquire data far faster than the
//! storage system can absorb it (250 GB/s produced vs 25 GB/s of storage
//! bandwidth), so the data must be compressed by at least the bandwidth
//! ratio *on the fly*.  This example simulates such a stream: the required
//! ratio is derived from the two bandwidths, FRaZ tunes the bound on the
//! first frame, and subsequent frames reuse the previous bound as a
//! prediction so the steady-state cost is a single compression per frame.
//!
//! Run with:
//! ```text
//! cargo run --release --example instrument_stream
//! ```

use std::sync::Arc;
use std::time::Instant;

use fraz::core::{FixedRatioSearch, HintSource, LastConverged, SearchConfig};
use fraz::data::synthetic;
use fraz::pressio::registry;

fn main() {
    // Bandwidths (scaled-down stand-ins for the LCLS-II numbers).
    let acquisition_gbps = 250.0;
    let storage_gbps = 25.0;
    let target_ratio = acquisition_gbps / storage_gbps;
    println!("acquisition bandwidth : {acquisition_gbps} GB/s");
    println!("storage bandwidth     : {storage_gbps} GB/s");
    println!("required ratio        : {target_ratio:.0}:1");
    println!();

    // A stream of detector-like frames: the NYX generator's 3-D density
    // field evolves smoothly between "shots".
    let frames = 6usize;
    let app = synthetic::nyx(24, 24, 24, frames, 99);

    let compressor = registry::build_default("zfp").expect("zfp backend registered");
    let config = SearchConfig::new(target_ratio, 0.1)
        .with_regions(6)
        .with_threads(3);
    // Each frame's search starts from the last bound that met the target.
    let search = FixedRatioSearch::new(compressor, config)
        .with_predictor(Some(Arc::new(LastConverged::new(HintSource::PreviousStep))));

    let mut total_in = 0usize;
    let mut total_out = 0usize;
    println!(
        "{:>5} {:>12} {:>10} {:>10} {:>9} {:>8}",
        "frame", "bound", "ratio", "feasible", "calls", "time"
    );
    for t in 0..frames {
        let frame = app.field("baryon_density", t);
        let start = Instant::now();
        let outcome = search.run(&frame);
        let elapsed = start.elapsed();
        total_in += frame.byte_size();
        total_out += outcome.best.compressed_bytes;
        println!(
            "{:>5} {:>12.4e} {:>9.1}x {:>10} {:>9} {:>7.0?}",
            t,
            outcome.error_bound,
            outcome.best.compression_ratio,
            outcome.feasible,
            outcome.evaluations,
            elapsed
        );
    }

    let achieved = total_in as f64 / total_out as f64;
    println!();
    println!("stream ratio achieved : {achieved:.1}:1");
    println!(
        "effective storage load: {:.1} GB/s ({} the {storage_gbps} GB/s budget)",
        acquisition_gbps / achieved,
        if acquisition_gbps / achieved <= storage_gbps * 1.1 {
            "within"
        } else {
            "OVER"
        }
    );
}
