//! The full report (`bench/run.sh` without `--workload`) and `compare`.
//!
//! The full report runs every workload in a process of its own — so
//! `peak_rss_mib` is per workload — `reps` times untraced plus one traced
//! run, and prints one JSON document with every metric by name and unit.

use std::process::Command;

use serde_json::{json, Map, Value};

use crate::spec::{END_TO_END, FAILED_FRAC, PER_LAYER};
use crate::stats::{median, quantile, spread};
use crate::workloads::NAMES;

pub struct FullOptions {
    pub seed: u64,
    pub reps: usize,
    pub seconds: f64,
    pub quick: bool,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn load_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where and on what the numbers were taken.
fn env_stamp(options: &FullOptions, load_start: f64) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    json!({
        "nproc": nproc() as u64,
        "oversubscribed": nproc() < crate::adapter::WORKERS,
        "cpu_model": cpu,
        "rustc": command_line("rustc", &["-V"]),
        "git_commit": command_line("git", &["rev-parse", "HEAD"]),
        "seed": options.seed,
        "reps": options.reps as u64,
        "seconds": options.seconds,
        "quick": options.quick,
        "load_1m_start": load_start,
        "load_1m_end": load_1m(),
        "noisy": load_start > nproc() as f64,
    })
}

/// Run one workload in a child process and parse its result line.
fn child_run(options: &FullOptions, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if options.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::parse::parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn count(result: &Value, key: &str) -> f64 {
    result.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn is_true(value: Option<&Value>) -> bool {
    matches!(value, Some(Value::Bool(true)))
}

fn metric_value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

fn summary(unit: &str, better: &str, bound: Option<f64>, samples: &[f64]) -> Value {
    let mut map = Map::new();
    map.insert("unit", json!(unit));
    map.insert("better", json!(better));
    if let Some(bound) = bound {
        map.insert("bound", json!(bound));
    }
    map.insert("median", json!(median(samples)));
    map.insert("min", json!(quantile(samples, 0.0)));
    map.insert("max", json!(quantile(samples, 1.0)));
    map.insert("n", json!(samples.len() as u64));
    map.insert("samples", json!(samples.to_vec()));
    Value::Object(map)
}

/// Run everything and build the report.  The second value is false when
/// any answer was wrong.
pub fn full(options: &FullOptions) -> Result<(Value, bool), String> {
    let load_start = load_1m();
    let mut workloads = Map::new();
    let mut all_correct = true;
    for name in NAMES {
        eprintln!(
            "fraz-e2e: {name}: {} untraced run(s) + 1 traced",
            options.reps
        );
        let runs: Vec<Value> = (0..options.reps)
            .map(|_| child_run(options, name, false))
            .collect::<Result<_, _>>()?;
        let traced = child_run(options, name, true)?;

        let attempted: f64 = runs.iter().map(|r| count(r, "attempted")).sum();
        let failed: f64 = runs.iter().map(|r| count(r, "failed")).sum();
        let correct = runs
            .iter()
            .chain([&traced])
            .all(|r| is_true(r.get("correct")));
        all_correct &= correct;

        let mut end_to_end = Map::new();
        for ((metric, unit, better), bound) in END_TO_END {
            let samples: Vec<f64> = runs.iter().map(|r| metric_value(r, metric)).collect();
            end_to_end.insert(metric, summary(unit, better, Some(bound), &samples));
        }
        let failed_frac: Vec<f64> = runs
            .iter()
            .map(|r| count(r, "failed") / count(r, "attempted").max(1.0))
            .collect();
        let (metric, unit, better) = FAILED_FRAC;
        end_to_end.insert(metric, summary(unit, better, None, &failed_frac));

        let mut per_layer = Map::new();
        for (metric, unit, _) in PER_LAYER {
            per_layer.insert(
                metric,
                json!({"value": metric_value(&traced, metric), "unit": unit}),
            );
        }
        workloads.insert(
            name,
            json!({
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "end_to_end": Value::Object(end_to_end),
                "per_layer": Value::Object(per_layer),
            }),
        );
    }
    let build_s = std::env::var("FRAZ_E2E_BUILD_S")
        .ok()
        .and_then(|v| v.parse::<f64>().ok());
    let report = json!({
        "benchmark": "fraz-e2e",
        "correct": all_correct,
        "env": env_stamp(options, load_start),
        "build_s": build_s,
        "workloads": Value::Object(workloads),
    });
    Ok((report, all_correct))
}

/// Indented rendering, so a committed result reads and diffs well.
pub fn pretty(value: &Value, indent: usize, out: &mut String) {
    let pad = |n: usize| "  ".repeat(n);
    match value {
        Value::Object(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (key, item)) in map.iter().enumerate() {
                out.push_str(&format!(
                    "{}{}: ",
                    pad(indent + 1),
                    Value::String(key.clone())
                ));
                pretty(item, indent + 1, out);
                out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
            }
            out.push_str(&format!("{}}}", pad(indent)));
        }
        // Leaves and arrays of numbers stay on one line.
        other => out.push_str(&other.to_string()),
    }
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

fn samples_of(report: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let samples = report
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("samples"));
    match samples {
        Some(Value::Array(items)) => items.iter().filter_map(Value::as_f64).collect(),
        _ => Vec::new(),
    }
}

/// The verdict on one (metric, workload) pair.  `unresolved` means the
/// run-to-run spread of either side is wider than the bound, so the pair
/// cannot show "no change".
fn verdict(a: &[f64], b: &[f64], better: &str, bound: f64) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    let worse = if better == "higher" {
        mb < ma * (1.0 - bound)
    } else {
        mb > ma * (1.0 + bound)
    };
    if !(ma.is_finite() && mb.is_finite()) {
        "missing"
    } else if spread(a).max(spread(b)) > bound {
        "unresolved"
    } else if worse {
        "worse"
    } else {
        "ok"
    }
}

/// One row per (end-to-end metric, workload): both medians, both spreads,
/// the fixed bound and a verdict.  Returns false on any `worse` (or
/// missing) pair and on a higher `failed_frac`.
pub fn compare(a: &Value, b: &Value) -> bool {
    let mut ok = true;
    println!(
        "{:<14} {:<13} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "A spread", "B spread", "bound"
    );
    for workload in NAMES {
        for ((metric, _, better), bound) in END_TO_END {
            let (sa, sb) = (
                samples_of(a, workload, metric),
                samples_of(b, workload, metric),
            );
            let verdict = verdict(&sa, &sb, better, bound);
            ok &= verdict == "ok" || verdict == "unresolved";
            println!(
                "{workload:<14} {metric:<13} {:>12.4} {:>12.4} {:>7.1}% {:>7.1}% {:>5.0}%  {verdict}",
                median(&sa),
                median(&sb),
                spread(&sa) * 100.0,
                spread(&sb) * 100.0,
                bound * 100.0
            );
        }
        let (fa, fb) = (
            median(&samples_of(a, workload, FAILED_FRAC.0)),
            median(&samples_of(b, workload, FAILED_FRAC.0)),
        );
        let higher = fb > fa || !(fa.is_finite() && fb.is_finite());
        ok &= !higher;
        println!(
            "{workload:<14} {:<13} {fa:>12.4} {fb:>12.4} {:>8} {:>8} {:>6}  {}",
            FAILED_FRAC.0,
            "-",
            "-",
            "any",
            if higher { "worse" } else { "ok" }
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0];
        assert_eq!(verdict(&steady, &[97.0, 98.0, 96.0], "higher", 0.05), "ok");
        assert_eq!(
            verdict(&steady, &[90.0, 91.0, 89.0], "higher", 0.05),
            "worse"
        );
        assert_eq!(verdict(&steady, &[90.0, 91.0, 89.0], "lower", 0.05), "ok");
        assert_eq!(
            verdict(&steady, &[110.0, 111.0, 109.0], "lower", 0.05),
            "worse"
        );
        // A spread wider than the bound cannot show "no change".
        assert_eq!(
            verdict(&steady, &[90.0, 100.0, 110.0], "higher", 0.05),
            "unresolved"
        );
        assert_eq!(verdict(&steady, &[], "higher", 0.05), "missing");
    }

    #[test]
    fn pretty_round_trips() {
        let value = json!({"a": {"b": [1.5, 2.0], "c": "x"}, "d": {}});
        let mut text = String::new();
        pretty(&value, 0, &mut text);
        assert!(text.contains("\n"));
        assert_eq!(serde_json::parse::parse(&text).expect("parses"), value);
    }
}
