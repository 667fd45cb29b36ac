//! Figure 3: the relationship between error bound and compression ratio is
//! not always monotonic (SZ on the Hurricane QCLOUDf.log10 field).
//!
//! Sweeps the SZ error bound over the same range the paper plots and reports
//! the compression ratio at each bound, counting the "dips" (places where a
//! larger bound produced a *smaller* ratio) that break binary search.
//!
//! Run with `cargo run --release -p fraz-bench --bin fig03_nonmonotonic`.

#![forbid(unsafe_code)]

use fraz_bench::records::{append, Record};
use fraz_bench::scale::Scale;
use fraz_bench::table::Table;
use fraz_bench::workloads;
use fraz_pressio::registry;
use serde_json::json;

fn main() {
    let scale = Scale::from_env();
    println!(
        "== Figure 3: non-monotonic ratio vs error bound (scale: {}) ==\n",
        scale.label()
    );
    let dataset = workloads::hurricane(scale).field("QCLOUDf.log10", 0);
    println!("dataset: {dataset}\n");

    let sz = registry::build_default("sz").unwrap();
    let points = scale.pick(56, 112);
    let upper = 0.55 * dataset.stats().value_range() / 8.0; // comparable span to the paper's 0–0.55 on log10 data
    let mut table = Table::new(&["error bound", "compression ratio"]);
    let mut series = Vec::new();
    for i in 1..=points {
        let bound = upper * i as f64 / points as f64;
        let outcome = sz.evaluate(&dataset, bound, false).unwrap();
        series.push((bound, outcome.compression_ratio));
        if i % scale.pick(4, 8) == 0 {
            table.row(vec![
                format!("{bound:.4}"),
                format!("{:.2}", outcome.compression_ratio),
            ]);
        }
    }
    table.print();

    // Count monotonicity violations.
    let mut dips = 0usize;
    let mut largest_dip = 0.0f64;
    for w in series.windows(2) {
        if w[1].1 < w[0].1 {
            dips += 1;
            largest_dip = largest_dip.max(w[0].1 - w[1].1);
        }
    }
    println!("\nsweep points                 : {}", series.len());
    println!("monotonicity violations (dips): {dips}");
    println!("largest single dip            : {largest_dip:.2} in ratio");
    println!(
        "\nPaper expectation: the curve is spiky — the ratio sometimes *decreases* as the bound"
    );
    println!("grows, because the Huffman tree and the dictionary stage react discontinuously.");

    let records: Vec<Record> = series
        .iter()
        .map(|(bound, ratio)| {
            Record::new(
                "fig03",
                "sweep",
                json!({"error_bound": bound, "ratio": ratio}),
            )
        })
        .chain(std::iter::once(Record::new(
            "fig03",
            "summary",
            json!({"points": series.len(), "dips": dips, "largest_dip": largest_dip}),
        )))
        .collect();
    append("fig03", &records);
}
