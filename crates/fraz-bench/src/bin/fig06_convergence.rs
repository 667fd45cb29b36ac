//! Figure 6: per-time-step convergence on the Hurricane CLOUD field.
//!
//! (a) a "bad" case — ρt = 15 becomes infeasible as the field evolves, so
//! the achieved ratio oscillates around the target; (b) a "good" case —
//! ρt = 8 converges on almost every time-step and the error bound found for
//! one step is reused for the next (the paper retrains only 4 times in 48
//! steps).
//!
//! Every search here is Algorithm 2's region race (`sampled_seed: false`):
//! the figure shows what the paper's own search does with a step whose
//! prediction misses, not the walk the library runs first by default.
//!
//! Run with `cargo run --release -p fraz-bench --bin fig06_convergence`.

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
        "== Figure 6: good vs bad convergence across time-steps (scale: {}) ==\n",
        scale.label()
    );
    let app = workloads::hurricane(scale);
    let field = "CLOUDf";
    let task = FieldTask::new(field, app.series(field));
    println!(
        "field {field}, {} time-steps, grid {}\n",
        task.series.len(),
        app.dims()
    );

    // Which of the two targets is the "good" (feasible) one depends on the
    // data: on the paper's real Hurricane-CLOUD field ρt=8 converges and
    // ρt=15 does not; the synthetic stand-in compresses more easily, so the
    // roles can swap.  Both cases are run and labelled by their measured
    // convergence rate below.
    let mut records = Vec::new();
    for (case, target) in [("case A (rho_t = 8)", 8.0), ("case B (rho_t = 15)", 15.0)] {
        let search = SearchConfig {
            sampled_seed: false,
            ..SearchConfig::new(target, 0.1)
                .with_regions(6)
                .with_threads(6)
        };
        let orch = Orchestrator::new("sz", OrchestratorConfig::new(search)).unwrap();
        let outcome = orch.run_tasks(std::slice::from_ref(&task)).fields.remove(0);

        println!("-- {case} --");
        let mut table = Table::new(&["step", "ratio", "in window", "retrained", "calls"]);
        for (t, step) in outcome.steps.iter().enumerate() {
            table.row(vec![
                t.to_string(),
                format!("{:.2}", step.best.compression_ratio),
                step.feasible.to_string(),
                step.retrained.to_string(),
                step.evaluations.to_string(),
            ]);
            records.push(Record::new(
                "fig06",
                &format!("{case}/step{t}"),
                json!({"target": target, "step": t, "ratio": step.best.compression_ratio,
                       "feasible": step.feasible, "retrained": step.retrained}),
            ));
        }
        table.print();
        let verdict = if outcome.convergence_rate() >= 0.75 {
            "good convergence case"
        } else {
            "bad convergence case (target infeasible on most steps)"
        };
        println!(
            "convergence rate: {:.0}% ({verdict})   retrained on steps {:?}   total compressor calls {}\n",
            outcome.convergence_rate() * 100.0,
            outcome.retrain_steps,
            outcome.total_evaluations()
        );
        records.push(Record::new(
            "fig06",
            &format!("{case}/summary"),
            json!({"target": target, "convergence_rate": outcome.convergence_rate(),
                   "retrains": outcome.retrain_steps.len(), "steps": outcome.steps.len()}),
        ));
    }
    append("fig06", &records);
    println!("Paper expectation: one target converges on >90% of steps with only a handful of");
    println!("retrains (Fig 6b), while the other oscillates above/below the target because it");
    println!("is infeasible on most time-steps (Fig 6a).");
}
