//! Figure 7: sensitivity of FRaZ's runtime to the choice of target ratio.
//!
//! For every target ratio ρt in 2..=29 the whole CLOUD-field time series is
//! tuned and the total wall-clock time and the share of it spent inside the
//! compressor are reported.  Low targets sit below the compressor's
//! effective ratio floor and never converge, so they burn the full search
//! budget on every step — the tall bars at the left of the paper's figure.
//! Every search is Algorithm 2's region race (`sampled_seed: false`), whose
//! budget those bars are: the walk the library runs first by default would
//! answer most steps before the race starts.
//!
//! Run with `cargo run --release -p fraz-bench --bin fig07_sensitivity`.

#![forbid(unsafe_code)]

use std::time::Instant;

use fraz_bench::records::{append, Record};
use fraz_bench::scale::Scale;
use fraz_bench::table::Table;
use fraz_bench::workloads;
use fraz_core::{FieldTask, Orchestrator, OrchestratorConfig, SearchConfig};
use fraz_pressio::registry;
use serde_json::json;

fn main() {
    let scale = Scale::from_env();
    println!(
        "== Figure 7: runtime sensitivity to the target ratio (scale: {}) ==\n",
        scale.label()
    );
    let app = workloads::hurricane(scale);
    let field = "CLOUDf";
    // A shorter series keeps the 28-point sweep tractable at quick scale.
    let steps = scale.pick(4, 12);
    let series: Vec<_> = app.series(field).into_iter().take(steps).collect();
    println!(
        "field {field}, {} time-steps, grid {}\n",
        series.len(),
        app.dims()
    );

    // Estimate the per-call compression time once, to split "total" vs
    // "compression" time the way the paper's stacked bars do.
    let sz = registry::build_default("sz").unwrap();
    let probe_bound = series[0].stats().value_range() * 1e-3;
    let probe_start = Instant::now();
    let probe_runs = 3;
    for _ in 0..probe_runs {
        let _ = sz.evaluate(&series[0], probe_bound, false).unwrap();
    }
    let per_call = probe_start.elapsed() / probe_runs;
    let task = FieldTask::new(field, series);

    let targets: Vec<f64> = (2..=29).map(|t| t as f64).collect();
    let targets: Vec<f64> = if scale == Scale::Quick {
        targets.into_iter().step_by(3).collect()
    } else {
        targets
    };

    let mut table = Table::new(&[
        "target",
        "total time (s)",
        "compression time (s)",
        "calls",
        "converged steps",
    ]);
    let mut records = Vec::new();
    for &target in &targets {
        let search = SearchConfig {
            measure_final_quality: false,
            sampled_seed: false,
            ..SearchConfig::new(target, 0.1)
                .with_regions(6)
                .with_threads(6)
        };
        let orch = Orchestrator::new("sz", OrchestratorConfig::new(search)).unwrap();
        let start = Instant::now();
        let outcome = orch.run_tasks(std::slice::from_ref(&task)).fields.remove(0);
        let total = start.elapsed();
        let calls = outcome.total_evaluations();
        let compression_time = per_call * calls as u32;
        let converged = outcome.steps.iter().filter(|s| s.feasible).count();
        table.row(vec![
            format!("{target:.0}"),
            format!("{:.2}", total.as_secs_f64()),
            format!("{:.2}", compression_time.as_secs_f64()),
            calls.to_string(),
            format!("{converged}/{}", outcome.steps.len()),
        ]);
        records.push(Record::new(
            "fig07",
            &format!("target_{target}"),
            json!({"target": target, "total_seconds": total.as_secs_f64(),
                   "compression_seconds": compression_time.as_secs_f64(),
                   "calls": calls, "converged": converged, "steps": outcome.steps.len()}),
        ));
    }
    table.print();
    append("fig07", &records);
    println!("\nPaper expectation: targets below the compressor's effective ratio floor (~7.5 in");
    println!("the paper) never converge and take roughly an order of magnitude longer than");
    println!("feasible targets, whose time-steps converge quickly and reuse predictions.");
}
