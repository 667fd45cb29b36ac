//! Command line.
//!
//! ```text
//! fraz-e2e --workload W --seed N --seconds S --trace 0|1 [--quick]   one run, one result line
//! fraz-e2e [--seed N] [--reps N] [--seconds S] [--quick]             the full report
//! fraz-e2e compare A.json B.json                                     two full reports, row by row
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use crate::report::{self, FullOptions};
use crate::workloads::Cfg;

/// The seed of record; `7` is the second seed for claims (see README).
pub const DEFAULT_SEED: u64 = 20200118;
const DEFAULT_REPS: usize = 3;
/// The same window as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;
/// `--quick` keeps every workload under a second.
const QUICK_SECONDS: f64 = 0.2;

/// Scratch space: `FRAZ_E2E_OUT` (set by `run.sh`), else `bench/out` of the
/// tree this binary was built from.
fn out_dir() -> PathBuf {
    std::env::var_os("FRAZ_E2E_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    reps: usize,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        reps: DEFAULT_REPS,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |what: &str| format!("{flag}: expected {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| bad("a whole number"))?,
            "--reps" => parsed.reps = value()?.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                parsed.seconds = Some(value()?.parse().map_err(|_| bad("a number"))?);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.reps == 0 || parsed.seconds.is_some_and(|s| !(s > 0.0 && s.is_finite())) {
        return Err("--reps and --seconds must be positive".into());
    }
    Ok(parsed)
}

fn read_report(path: &str) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err("usage: fraz-e2e compare A.json B.json".into());
        };
        return Ok(report::compare(&read_report(a)?, &read_report(b)?));
    }
    let args = parse(args)?;
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    match args.workload {
        Some(workload) => {
            let cfg = Cfg {
                seed: args.seed,
                quick: args.quick,
                trace: args.trace,
                out_dir: out_dir(),
            };
            let result = crate::run::run(&workload, &cfg, seconds)?;
            println!("{}", result.to_json());
            // A wrong answer is reported in the line, not by the exit code:
            // the driver reads `correct` and `failed`.
            Ok(true)
        }
        None => {
            let (report, correct) = report::full(&FullOptions {
                seed: args.seed,
                reps: args.reps,
                seconds,
                quick: args.quick,
            })?;
            let mut text = String::new();
            report::pretty(&report, 0, &mut text);
            println!("{text}");
            Ok(correct)
        }
    }
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("fraz-e2e: {message}");
            ExitCode::from(2)
        }
    }
}
