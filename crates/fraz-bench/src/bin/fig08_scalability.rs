//! Figure 8: strong scaling of the parallel orchestrator.
//!
//! The paper sweeps 36–252 MPI ranks on Bebop for `sz:abs` and
//! `zfp:accuracy`; this reproduction sweeps worker threads over the same
//! task graph (regions x fields x time-steps).  The expected shape — steep
//! improvement while fields can still be spread out, then a floor set by the
//! single longest-running field — is a property of the task graph, not of
//! MPI (DESIGN.md §2).  The `sz:abs` and `zfp:accuracy` columns run every
//! search as Algorithm 2's region race (`sampled_seed: false`): the regions
//! are the parallelism being scaled.  The `sz:abs default` column runs the
//! library's default config, which walks from a sampled seed first and races
//! only when the walk fails.  Its curve is flatter: a walk is a serial chain
//! of a handful of evaluations, so a field keeps at most one worker busy
//! until its walk fails, and added workers mostly run more fields at once.
//! It also starts lower, since a walk spends a fraction of a race's
//! evaluations.
//!
//! Run with `cargo run --release -p fraz-bench --bin fig08_scalability`.

#![forbid(unsafe_code)]

use fraz_bench::records::{append, Record};
use fraz_bench::scale::Scale;
use fraz_bench::table::Table;
use fraz_bench::workloads;
use fraz_core::{FieldTask, Orchestrator, OrchestratorConfig, SearchConfig};
use serde_json::json;

fn main() {
    let scale = Scale::from_env();
    println!(
        "== Figure 8: strong scaling (scale: {}) ==\n",
        scale.label()
    );
    let app = workloads::hurricane(scale);
    let steps = scale.pick(2, 6);
    let fields: Vec<FieldTask> = app
        .field_names()
        .into_iter()
        .map(|f| {
            let series: Vec<_> = app.series(&f).into_iter().take(steps).collect();
            FieldTask::new(f, series)
        })
        .collect();
    println!(
        "{} fields x {} time-steps, grid {}\n",
        fields.len(),
        steps,
        app.dims()
    );

    let worker_counts: Vec<usize> = scale.pick(vec![1, 2, 4, 8, 16], vec![1, 2, 4, 8, 16, 32, 64]);
    let default = SearchConfig {
        measure_final_quality: false,
        ..SearchConfig::new(10.0, 0.1).with_regions(6)
    };
    let race_only = SearchConfig {
        sampled_seed: false,
        ..default.clone()
    };
    let columns = [
        ("sz", "race", &race_only),
        ("zfp", "race", &race_only),
        ("sz", "default", &default),
    ];
    let mut table = Table::new(&[
        "workers",
        "sz:abs runtime (s)",
        "zfp:accuracy runtime (s)",
        "sz:abs default (s)",
    ]);
    let mut records = Vec::new();
    let mut longest_field: f64 = 0.0;
    for &workers in &worker_counts {
        let mut row = vec![workers.to_string()];
        for &(backend, path, search) in &columns {
            let orch = Orchestrator::new(
                backend,
                OrchestratorConfig {
                    total_workers: workers,
                    ..OrchestratorConfig::new(search.clone())
                },
            )
            .unwrap();
            let outcome = orch.run_tasks(&fields);
            let seconds = outcome.elapsed.as_secs_f64();
            longest_field = longest_field.max(outcome.longest_field_time().as_secs_f64());
            row.push(format!("{seconds:.2}"));
            records.push(Record::new(
                "fig08",
                &format!("{backend}/{path}@{workers}"),
                json!({"backend": backend, "search": path, "workers": workers, "runtime_seconds": seconds,
                       "longest_field_seconds": outcome.longest_field_time().as_secs_f64()}),
            ));
        }
        table.row(row);
    }
    table.print();
    append("fig08", &records);
    println!("\nlongest single-field time observed: {longest_field:.2} s — the scaling floor.");
    println!("Paper expectation: runtime drops steeply up to the point where every field runs");
    println!("concurrently, then flattens at the longest field's time; zfp:accuracy scales worse");
    println!(
        "than sz:abs because more of its targets are infeasible and exhaust the search budget."
    );
}
