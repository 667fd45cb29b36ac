//! Online / in-situ fixed-ratio compression (the paper's second future-work
//! item, §VII).
//!
//! A running simulation cannot afford a full search on every output step.
//! The [`OnlineController`] calibrates once, then probes each arriving step
//! once at the previous step's bound, nudged to hold the target ratio; that
//! probe is the step's output, and the search walks on from it only when the
//! ratio drifts badly.
//!
//! Run with:
//! ```text
//! cargo run --release --example online_insitu
//! ```

use fraz::core::OnlineController;
use fraz::data::synthetic;
use fraz::pressio::registry;

fn main() -> Result<(), fraz::pressio::PressioError> {
    // A simulation emitting 10 steps of a 3-D field.
    let steps = 10usize;
    let app = synthetic::nyx(32, 32, 32, steps, 12);
    let target_ratio = 16.0;

    // Never allow more than 5% of the value range as pointwise error (loose
    // enough that the 16:1 target stays feasible on this field).
    let ceiling = app.field("temperature", 0).stats().value_range() * 0.05;
    let config = OnlineController::budget(target_ratio, 0.1).with_max_error(ceiling);
    let mut controller = OnlineController::new(
        registry::build_default("sz").expect("sz backend registered"),
        config,
    );

    println!(
        "in-situ stream: {} steps, target {target_ratio}:1 (±10%)\n",
        steps
    );
    println!(
        "{:>5} {:>12} {:>9} {:>10} {:>13} {:>8}",
        "step", "bound", "ratio", "on target", "compressions", "time"
    );
    let mut total_in = 0usize;
    let mut total_out = 0usize;
    for t in 0..steps {
        let frame = app.field("temperature", t);
        total_in += frame.byte_size();
        let (compressed, report) = controller.compress_step(&frame)?;
        total_out += compressed.len();
        println!(
            "{:>5} {:>12.4e} {:>8.1}x {:>10} {:>13} {:>7.0?}",
            report.step,
            report.error_bound,
            report.compression_ratio,
            report.on_target,
            report.compressions,
            report.elapsed,
        );
    }
    println!();
    println!(
        "on-target steps          : {:.0}%",
        controller.on_target_rate() * 100.0
    );
    println!(
        "mean compressions / step : {:.2} (1.0 is the steady-state ideal)",
        controller.mean_compressions_per_step()
    );
    println!(
        "stream compression ratio : {:.1}:1",
        total_in as f64 / total_out as f64
    );
    Ok(())
}
