//! Integration tests for the parallel orchestrator over multi-field,
//! multi-time-step synthetic applications.

use fraz::core::{FieldTask, Orchestrator, OrchestratorConfig, SearchConfig};
use fraz::data::synthetic;

fn quick_search(target: f64) -> SearchConfig {
    SearchConfig {
        regions: 4,
        max_iterations: 12,
        threads: 2,
        measure_final_quality: false,
        ..SearchConfig::new(target, 0.15)
    }
}

#[test]
fn time_series_mostly_reuses_predictions() {
    let app = synthetic::hurricane(6, 16, 16, 6, 13);
    let task = FieldTask::new("TCf", app.series("TCf"));
    let orch = Orchestrator::new(
        "sz",
        OrchestratorConfig {
            total_workers: 4,
            ..OrchestratorConfig::new(quick_search(8.0))
        },
    )
    .unwrap();
    let outcome = orch.run_tasks(&[task]).fields.remove(0);
    assert_eq!(outcome.steps.len(), 6);
    assert!(
        outcome.convergence_rate() >= 0.5,
        "{}",
        outcome.convergence_rate()
    );
    // Temporal coherence means training runs on only a minority of steps
    // after the first (the paper retrained 4 of 48 on Hurricane-CLOUD).
    assert!(
        outcome.retrain_steps.len() <= 3,
        "retrained too often: {:?}",
        outcome.retrain_steps
    );
}

#[test]
fn prediction_reuse_reduces_compressor_calls() {
    let app = synthetic::cesm(24, 48, 4, 29);
    let tasks = [FieldTask::new("FLDSC", app.series("FLDSC"))];
    let with_reuse = Orchestrator::new(
        "sz",
        OrchestratorConfig {
            total_workers: 4,
            reuse_prediction: true,
            ..OrchestratorConfig::new(quick_search(6.0))
        },
    )
    .unwrap()
    .run_tasks(&tasks);
    let without_reuse = Orchestrator::new(
        "sz",
        OrchestratorConfig {
            total_workers: 4,
            reuse_prediction: false,
            ..OrchestratorConfig::new(quick_search(6.0))
        },
    )
    .unwrap()
    .run_tasks(&tasks);
    let (with_reuse, without_reuse) = (&with_reuse.fields[0], &without_reuse.fields[0]);
    assert!(
        with_reuse.total_evaluations() < without_reuse.total_evaluations(),
        "reuse {} vs no-reuse {}",
        with_reuse.total_evaluations(),
        without_reuse.total_evaluations()
    );
}

#[test]
fn application_run_processes_every_field_and_timestep() {
    let app = synthetic::nyx(12, 16, 16, 2, 37);
    let fields: Vec<FieldTask> = app
        .field_names()
        .into_iter()
        .map(|f| FieldTask::new(f.clone(), app.series(&f)))
        .collect();
    let orch = Orchestrator::new(
        "zfp",
        OrchestratorConfig {
            total_workers: 8,
            ..OrchestratorConfig::new(quick_search(10.0))
        },
    )
    .unwrap();
    let outcome = orch.run_tasks(&fields);
    assert_eq!(outcome.fields.len(), fields.len());
    for series in &outcome.fields {
        assert_eq!(series.steps.len(), 2);
        for step in &series.steps {
            assert!(step.best.compression_ratio > 1.0);
        }
    }
    // The aggregate run cannot be faster than its longest field.
    assert!(outcome.elapsed >= outcome.longest_field_time());
}

#[test]
fn more_workers_do_not_change_results_only_speed() {
    let app = synthetic::cesm(24, 48, 2, 53);
    let fields: Vec<FieldTask> = app
        .field_names()
        .into_iter()
        .take(2)
        .map(|f| FieldTask::new(f.clone(), app.series(&f)))
        .collect();
    let run = |workers: usize| {
        Orchestrator::new(
            "sz",
            OrchestratorConfig {
                total_workers: workers,
                ..OrchestratorConfig::new(quick_search(6.0))
            },
        )
        .unwrap()
        .run_tasks(&fields)
    };
    let narrow = run(1);
    let wide = run(8);
    // The degree of parallelism changes which region wins the race, not
    // whether the target is reachable: both runs must cover the same steps
    // and converge on (at least) the clear majority of them.
    for (a, b) in narrow.fields.iter().zip(wide.fields.iter()) {
        assert_eq!(a.steps.len(), b.steps.len());
        assert!(
            a.convergence_rate() >= 0.5,
            "narrow: {}",
            a.convergence_rate()
        );
        assert!(
            b.convergence_rate() >= 0.5,
            "wide: {}",
            b.convergence_rate()
        );
        for (sa, sb) in a.steps.iter().zip(b.steps.iter()) {
            if sa.feasible && sb.feasible {
                assert!((sa.best.compression_ratio - 6.0).abs() <= 0.9 + 1e-9);
                assert!((sb.best.compression_ratio - 6.0).abs() <= 0.9 + 1e-9);
            }
        }
    }
}
