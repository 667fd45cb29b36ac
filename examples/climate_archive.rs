//! Storage-budget use case (paper §II-B, first use case).
//!
//! A climate campaign produces a CESM-like archive that must fit inside a
//! fixed storage allocation (think of the 50 TB / project default on Summit,
//! scaled down here).  The required compression ratio follows directly from
//! the archive size and the allocation; FRaZ then tunes every field of every
//! time-step to that ratio with the parallel orchestrator, reusing each
//! field's previous-time-step bound as a prediction.
//!
//! Run with:
//! ```text
//! cargo run --release --example climate_archive
//! ```

use fraz::core::{FieldTask, Orchestrator, OrchestratorConfig, SearchConfig};
use fraz::data::synthetic;

fn main() {
    // A small CESM-like archive: 6 fields x 4 time-steps of a 96x192 grid.
    let app = synthetic::cesm(96, 192, 4, 7);
    let fields: Vec<FieldTask> = app
        .field_names()
        .into_iter()
        .map(|name| FieldTask::new(name.clone(), app.series(&name)))
        .collect();
    let archive_bytes: usize = fields
        .iter()
        .flat_map(|task| &task.series)
        .map(|d| d.byte_size())
        .sum();

    // The storage allocation for this (scaled-down) campaign.
    let storage_budget_bytes = archive_bytes / 12;
    let target_ratio = archive_bytes as f64 / storage_budget_bytes as f64;
    println!("archive size    : {:.2} MB", archive_bytes as f64 / 1e6);
    println!(
        "storage budget  : {:.2} MB",
        storage_budget_bytes as f64 / 1e6
    );
    println!("required ratio  : {target_ratio:.1}:1");
    println!();

    // Tune every field to the required ratio (±10 %), capping the error at
    // 1% of each field's value range so the archive stays scientifically
    // useful.
    let search = SearchConfig::new(target_ratio, 0.1)
        .with_regions(6)
        .with_threads(2);
    let orchestrator = Orchestrator::new(
        "sz",
        OrchestratorConfig {
            total_workers: 8,
            ..OrchestratorConfig::new(search)
        },
    )
    .expect("sz backend registered");

    let outcome = orchestrator.run_tasks(&fields);

    let mut compressed_total = 0usize;
    println!(
        "{:<10} {:>10} {:>12} {:>10} {:>9}",
        "field", "steps ok", "ratio(mean)", "retrains", "time"
    );
    for series in &outcome.fields {
        let mean_ratio: f64 = series
            .steps
            .iter()
            .map(|s| s.best.compression_ratio)
            .sum::<f64>()
            / series.steps.len() as f64;
        compressed_total += series
            .steps
            .iter()
            .map(|s| s.best.compressed_bytes)
            .sum::<usize>();
        println!(
            "{:<10} {:>7}/{:<2} {:>11.1}x {:>10} {:>8.2?}",
            series.field,
            series.steps.iter().filter(|s| s.feasible).count(),
            series.steps.len(),
            mean_ratio,
            series.retrain_steps.len(),
            series.elapsed
        );
    }
    println!();
    println!(
        "compressed archive : {:.2} MB ({})",
        compressed_total as f64 / 1e6,
        if compressed_total <= storage_budget_bytes * 11 / 10 {
            "fits the allocation"
        } else {
            "OVER the allocation — relax the error ceiling or the ratio"
        }
    );
    println!("wall-clock time    : {:.2?}", outcome.elapsed);
    println!("longest field      : {:.2?}", outcome.longest_field_time());
}
