//! Quick start: fixed-ratio compression of one field with one compressor.
//!
//! Generates a small hurricane-like 3-D field, asks FRaZ for a 20:1
//! compression ratio within 10 % using the SZ-like backend, and prints the
//! error bound FRaZ recommends along with the achieved ratio and quality.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use fraz::core::{answer_bytes, FixedRatioSearch, SearchConfig};
use fraz::data::synthetic;
use fraz::pressio::registry;
use fraz::Options;

fn main() {
    // 1. A dataset: one field at one time-step.  Swap this for
    //    `fraz::data::io::read_raw(...)` to use a real SDRBench file.
    let app = synthetic::hurricane(16, 32, 32, 1, 2024);
    let dataset = app.field("TCf", 0);
    println!("dataset: {dataset}");
    println!("original size: {} bytes", dataset.byte_size());

    // 2. A compressor behind the uniform abstraction.  The registry knows
    //    what each codec is and which options it takes — ask before building.
    let descriptor = registry::describe("sz").expect("sz backend is registered");
    println!("codec: {descriptor}");
    for option in &descriptor.options {
        println!("  option {} ({}): {}", option.key, option.kind, option.doc);
    }
    // Construction validates the options bag: a typo'd key or a mistyped
    // value is a RegistryError with a did-you-mean hint, never ignored.
    let options = Options::new().with("sz:block_size", 8u64);
    for key in options.diff(&descriptor.default_options()) {
        println!("  overriding {key} = {}", options.get(key).unwrap());
    }
    let compressor = registry::build("sz", &options).expect("valid options");

    // 3. The fixed-ratio request: 20:1, within 10 %.
    let target_ratio = 20.0;
    let tolerance = 0.10;
    let config = SearchConfig::new(target_ratio, tolerance);
    let search = FixedRatioSearch::new(compressor, config);

    // 4. Run the search.
    let mut outcome = search.run(&dataset);

    println!();
    println!(
        "target ratio          : {target_ratio}:1 (±{:.0}%)",
        tolerance * 100.0
    );
    println!("feasible              : {}", outcome.feasible);
    println!("recommended bound     : {:.6e}", outcome.error_bound);
    println!(
        "achieved ratio        : {:.2}:1",
        outcome.best.compression_ratio
    );
    println!(
        "bit rate              : {:.3} bits/value",
        outcome.best.bit_rate
    );
    println!("compressor calls      : {}", outcome.evaluations);
    println!("search time           : {:.2?}", outcome.elapsed);
    if let Some(quality) = &outcome.best.quality {
        println!("max abs error         : {:.6e}", quality.max_abs_error);
        println!("PSNR                  : {:.2} dB", quality.psnr);
        println!("SSIM                  : {:.4}", quality.ssim);
        println!("ACF(error)            : {:.4}", quality.acf_error);
    }

    // 5. The recommended bound can now be used directly, without FRaZ, for
    //    any data with similar characteristics (e.g. the next time-steps).
    //    The field compressed at it is what the search already measured.
    let compressed = answer_bytes(search.compressor(), &dataset, &mut outcome)
        .expect("recommended bound compresses");
    println!();
    println!(
        "compressed with the recommended bound: {} -> {} bytes ({:.2}:1)",
        dataset.byte_size(),
        compressed.len(),
        dataset.byte_size() as f64 / compressed.len() as f64
    );
}
