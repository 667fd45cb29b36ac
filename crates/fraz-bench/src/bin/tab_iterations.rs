//! §V-B1 iteration-count comparison: FRaZ's modified global optimizer vs
//! plain binary search (the paper reports 6 vs 39 iterations for the
//! Hurricane CLOUD field at ρt = 8).
//!
//! Also serves as the optimizer ablation: it reports the global minimizer
//! with and without the early-termination cutoff, and a uniform grid sweep.
//!
//! Run with `cargo run --release -p fraz-bench --bin tab_iterations`.

#![forbid(unsafe_code)]

use fraz_bench::records::{append, Record};
use fraz_bench::scale::Scale;
use fraz_bench::table::Table;
use fraz_bench::workloads;
use fraz_core::{binary_search, grid_search, GlobalMinimizer, OptimizerConfig, RatioLoss};
use fraz_pressio::registry;
use serde_json::json;

fn main() {
    let scale = Scale::from_env();
    println!(
        "== Optimizer comparison (paper §V-B1) (scale: {}) ==\n",
        scale.label()
    );
    let dataset = workloads::hurricane(scale).field("CLOUDf", 0);
    let sz = registry::build_default("sz").unwrap();
    let (lo, hi) = sz.bound_range(&dataset);
    println!("dataset: {dataset}");
    println!("error-bound range: [{lo:.3e}, {hi:.3e}]\n");

    let mut table = Table::new(&["method", "target", "iterations", "ratio found", "converged"]);
    let mut records = Vec::new();
    for &target in &[8.0f64, 15.0] {
        let loss = RatioLoss::new(target, 0.1);
        let budget = 48usize;

        // One objective on the raw bound.  The MaxLIPO+TR variants search
        // it on the log-scaled axis FRaZ's region search uses (error bounds
        // span ~9 decades); binary search and the uniform grid operate on
        // the raw bound, as a user would.
        let mut objective = |bound: f64| match sz.evaluate(&dataset, bound, false) {
            Ok(o) => (loss.loss(o.compression_ratio), o.compression_ratio),
            Err(_) => (loss.gamma, 0.0),
        };
        let mut on_log_axis = |x: f64| objective(10f64.powf(x));
        let minimizer = |cutoff| {
            GlobalMinimizer::new(OptimizerConfig {
                max_evaluations: budget,
                cutoff,
            })
        };

        // FRaZ's optimizer with the early-termination cutoff, and the same
        // optimizer without it (pure Dlib behaviour).
        let fraz =
            minimizer(loss.cutoff()).minimize(&mut on_log_axis, lo.log10(), hi.log10(), None);
        let no_cutoff = minimizer(0.0).minimize(&mut on_log_axis, lo.log10(), hi.log10(), None);
        // Binary search on the ratio, and a uniform grid sweep with the same
        // acceptance cutoff.
        let bisect = binary_search(&mut objective, lo, hi, target, 0.1, budget);
        let grid = grid_search(&mut objective, lo, hi, budget, loss.cutoff());

        for (name, trace) in [
            ("FRaZ (MaxLIPO+TR, cutoff)", &fraz),
            ("MaxLIPO+TR, no cutoff", &no_cutoff),
            ("binary search", &bisect),
            ("uniform grid", &grid),
        ] {
            let converged = loss.is_acceptable(trace.best.ratio);
            table.row(vec![
                name.to_string(),
                format!("{target}:1"),
                trace.iterations().to_string(),
                format!("{:.2}", trace.best.ratio),
                converged.to_string(),
            ]);
            records.push(Record::new(
                "tab_iterations",
                &format!("{name}@{target}"),
                json!({"target": target, "iterations": trace.iterations(),
                       "ratio": trace.best.ratio, "converged": converged}),
            ));
        }
    }
    table.print();
    append("tab_iterations", &records);
    println!("\nPaper expectation: the cutoff-modified global optimizer converges in far fewer");
    println!("compressor invocations than binary search (6 vs 39 in the paper's example), and");
    println!("binary search can fail outright when the ratio is not monotone in the bound.");
}
