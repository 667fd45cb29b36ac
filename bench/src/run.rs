//! One run of one workload: set-up, warm-up, the timed window, verification,
//! and — in a traced run — the traced half and the layer probe.

use std::time::{Duration, Instant};

use serde_json::{json, Map, Value};

use crate::calib::{Reference, SHARE};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::workloads::{self, Cfg, Layers, Samples, Timed};
use crate::{probe, trace};

/// Set-up runs at least `SETUP_REPS.0` times per process, and again until
/// it has run for `SETUP_BUDGET_S` in total or `SETUP_REPS.1` times;
/// `setup_s` is the median.  The smallest set-ups take milliseconds, and a
/// median of five of those still jumps by a quarter between runs; the
/// largest take a quarter of a second, and the driver's time for all its
/// runs has no room for more than three of those.
const SETUP_REPS: (usize, usize) = (3, 25);
const SETUP_BUDGET_S: f64 = 0.5;
/// The reference slice after a set-up lasts at least this long, so that a
/// set-up of a few milliseconds still has a whole reading on either side.
const SETUP_SLICE_S: f64 = 0.01;

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` — every end-to-end metric when untraced, every
    /// per-layer metric when traced.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn to_json(&self) -> Value {
        let mut metrics = Map::new();
        for (name, unit, value) in &self.metrics {
            metrics.insert(*name, json!({"value": *value, "unit": *unit}));
        }
        json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Run `name` for `seconds`, the reference slices between the product's
/// operations included.  Every reported time is at the reference speed
/// (see [`crate::calib`]).  Untraced, the whole window runs the real
/// codecs and the result carries the end-to-end metrics.  Traced, the
/// first half runs untraced and the second half through the tracing
/// wrappers, in the same process and state, so `trace.overhead_frac`
/// compares like with like; the result carries the per-layer metrics.
pub fn run(name: &str, cfg: &Cfg, seconds: f64) -> Result<RunResult, String> {
    // Set-up is one thread's work on every workload.
    let mut solo = Reference::new(1);
    let mut setup_s: Vec<Timed> = Vec::new();
    let mut spent = 0.0;
    let mut workload = None;
    let mut before = solo.slice(SETUP_SLICE_S);
    // A quick run only has to take the paths.
    let most = if cfg.quick {
        SETUP_REPS.0
    } else {
        SETUP_REPS.1
    };
    while setup_s.len() < SETUP_REPS.0 || (setup_s.len() < most && spent < SETUP_BUDGET_S) {
        // Drop the previous state first: two copies would double the peak.
        drop(workload.take());
        let start = Instant::now();
        workload =
            Some(workloads::setup(name, cfg).ok_or_else(|| format!("unknown workload `{name}`"))?);
        let secs = start.elapsed().as_secs_f64();
        let after = solo.slice((secs * SHARE).max(SETUP_SLICE_S));
        setup_s.push(Timed::new(secs, before.plus(after)));
        spent += secs;
        before = after;
    }
    let mut workload = workload.expect("set-up ran");
    let mut host = Reference::new(workloads::threads(name));

    let window = Duration::from_secs_f64(if cfg.trace { seconds / 2.0 } else { seconds });
    let mut plain = Samples::default();
    workload.warm_up(false);
    workload.measure(false, Instant::now() + window, &mut host, &mut plain);
    let rss = peak_rss_mib();

    let mut layers = Layers::default();
    let mut consistent = true;
    if cfg.trace {
        let mut traced = Samples::default();
        workload.warm_up(true);
        host.take_total();
        trace::enable(true);
        workload.measure(true, Instant::now() + window, &mut host, &mut traced);
        trace::enable(false);
        let spans = trace::drain();
        consistent = workload.layers(&spans, &traced, &mut layers);
        layers.set("host.slowness", host.take_total().slowness());
        layers.set(
            "trace.overhead_frac",
            1.0 - traced.ops_per_s(true) / plain.ops_per_s(true),
        );
        layers.set("trace.spans", spans.len() as f64);
        layers.set("trace.timed_s", traced.timed_s);
        layers.set("trace.ops", spans.iter().filter(|s| s.top).count() as f64);
        let path = cfg.out_dir.join(format!("trace-{name}.jsonl"));
        trace::write_jsonl(&path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;
        probe::run(cfg, &mut layers);
    }

    let (attempted, failed) = workload.verify();
    drop(workload);

    let metrics = if cfg.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit, layers.0.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let values = |reference: bool| {
            let (p50, p90) = plain.latency_ms(reference);
            let setup: Vec<f64> = setup_s.iter().map(|t| t.at(reference)).collect();
            [plain.ops_per_s(reference), p50, p90, rss, median(&setup)]
        };
        // For the record: what the clock read, before the host's speed is
        // taken out.  The result line carries the reference-speed values.
        eprintln!(
            "fraz-e2e: {name}: host slowness {:.4}; as the clock read it: {:?}",
            host.take_total().slowness(),
            values(false)
        );
        END_TO_END
            .iter()
            .zip(values(true))
            .map(|(&((name, unit, _), _), value)| (name, unit, value))
            .collect()
    };
    Ok(RunResult {
        correct: failed == 0 && consistent && attempted > 0,
        attempted,
        failed,
        metrics,
    })
}
