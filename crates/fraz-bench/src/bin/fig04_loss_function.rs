//! Figure 4: the autotuning loss function.
//!
//! Left panel: a typical relationship between the error bound and the
//! compression ratio (here: ZFP accuracy mode, whose minexp flooring yields
//! the staircase the paper sketches).  Right panel: the corresponding
//! clamped-square loss ("distance from objective") with the acceptable
//! region marked.
//!
//! Run with `cargo run --release -p fraz-bench --bin fig04_loss_function`.

#![forbid(unsafe_code)]

use fraz_bench::records::{append, Record};
use fraz_bench::scale::Scale;
use fraz_bench::table::Table;
use fraz_bench::workloads;
use fraz_core::RatioLoss;
use fraz_pressio::registry;
use serde_json::json;

fn main() {
    let scale = Scale::from_env();
    println!(
        "== Figure 4: ratio landscape and loss function (scale: {}) ==\n",
        scale.label()
    );
    let dataset = workloads::hurricane(scale).field("TCf", 0);
    let zfp = registry::build_default("zfp").unwrap();

    let target_ratio = 15.0;
    let tolerance = 0.1;
    let loss = RatioLoss::new(target_ratio, tolerance);
    println!(
        "target ratio {target_ratio}:1, acceptable region [{:.1}, {:.1}], cutoff {:.2}\n",
        target_ratio * (1.0 - tolerance),
        target_ratio * (1.0 + tolerance),
        loss.cutoff()
    );

    let points = scale.pick(40, 80);
    let (lo, hi) = zfp.bound_range(&dataset);
    let mut table = Table::new(&["error bound", "ratio", "loss", "acceptable"]);
    let mut records = Vec::new();
    let mut feasible_points = 0usize;
    for i in 0..points {
        // Log-spaced sweep so the staircase structure is visible.
        let t = i as f64 / (points - 1) as f64;
        let bound = lo * (hi / lo).powf(t);
        let outcome = zfp.evaluate(&dataset, bound, false).unwrap();
        let l = loss.loss(outcome.compression_ratio);
        let ok = loss.is_acceptable(outcome.compression_ratio);
        feasible_points += ok as usize;
        table.row(vec![
            format!("{bound:.3e}"),
            format!("{:.2}", outcome.compression_ratio),
            if l >= 1e6 {
                format!("{l:.2e}")
            } else {
                format!("{l:.2}")
            },
            if ok { "yes".into() } else { "".into() },
        ]);
        records.push(Record::new(
            "fig04",
            "sweep",
            json!({"error_bound": bound, "ratio": outcome.compression_ratio, "loss": l, "acceptable": ok}),
        ));
    }
    table.print();
    println!("\npoints inside the acceptable region: {feasible_points} / {points}");
    println!("(if zero, the requested ratio is infeasible for this compressor — the situation");
    println!(" the right panel of Fig. 4 illustrates with the acceptable band below the curve)");
    append("fig04", &records);
}
