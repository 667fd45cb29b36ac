//! Machine-readable experiment records.
//!
//! Every experiment binary appends one JSON object per measured row to
//! `results/<experiment>.jsonl` (relative to the workspace root, or to
//! `FRAZ_BENCH_RESULTS` when set).  EXPERIMENTS.md quotes those numbers, and
//! reruns simply append — the `run_id` field distinguishes them.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::Serialize;
use serde_json::Value;

/// One experiment record: the experiment id, a free-form row label and a
/// JSON payload of measured values.
#[derive(Debug, Clone, Serialize)]
pub struct Record {
    /// Experiment identifier (e.g. `"fig09"`).
    pub experiment: String,
    /// Row label (e.g. `"hurricane/TCf/sz"`).
    pub label: String,
    /// Measured values.
    pub values: Value,
}

impl Record {
    /// Build a record from anything serializable.
    pub fn new(experiment: &str, label: &str, values: impl Serialize) -> Self {
        Self {
            experiment: experiment.to_string(),
            label: label.to_string(),
            values: serde_json::to_value(values).unwrap_or(Value::Null),
        }
    }
}

/// Where result files are written.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("FRAZ_BENCH_RESULTS") {
        return PathBuf::from(dir);
    }
    PathBuf::from("results")
}

/// Append records to `results/<experiment>.jsonl`.  I/O problems are
/// reported to stderr but never abort an experiment run.
pub fn append(experiment: &str, records: &[Record]) {
    append_to(&results_dir(), experiment, records);
}

/// [`append`] into an explicit directory.  Split out of [`append`] so the
/// writing is testable without mutating process-global environment state.
pub fn append_to(dir: &Path, experiment: &str, records: &[Record]) {
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{experiment}.jsonl"));
    let file = fs::OpenOptions::new().create(true).append(true).open(&path);
    match file {
        Ok(mut f) => {
            for r in records {
                match serde_json::to_string(r) {
                    Ok(line) => {
                        if let Err(e) = writeln!(f, "{line}") {
                            eprintln!("warning: cannot write to {}: {e}", path.display());
                            return;
                        }
                    }
                    Err(e) => eprintln!("warning: cannot serialize record: {e}"),
                }
            }
            println!("[recorded {} rows to {}]", records.len(), path.display());
        }
        Err(e) => eprintln!("warning: cannot open {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_serializes_values() {
        #[derive(Serialize)]
        struct Row {
            ratio: f64,
            psnr: f64,
        }
        let r = Record::new(
            "fig09",
            "nyx/temperature/sz",
            Row {
                ratio: 85.0,
                psnr: 80.4,
            },
        );
        assert_eq!(r.experiment, "fig09");
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("85.0") || json.contains("85"));
        assert!(json.contains("psnr"));
    }

    #[test]
    fn a_record_never_carries_an_outcomes_stream() {
        // An evaluation hands its stream back on the outcome; what is
        // written is the measurement alone, and reads back as it.
        use fraz_pressio::{registry, CompressionOutcome};
        let dataset = fraz_data::synthetic::hurricane(4, 8, 8, 1, 5).field("TCf", 0);
        let carried = registry::build_default("sz")
            .unwrap()
            .evaluate(&dataset, 1e-2, true)
            .unwrap();
        let stream = carried.stream.as_ref().expect("an sz evaluation writes");
        assert_eq!(stream.len(), carried.compressed_bytes);
        let bare = carried.without_stream();
        let json = |outcome: &CompressionOutcome| {
            serde_json::to_string(&Record::new("unit_test", "sz", outcome.clone())).unwrap()
        };
        assert_eq!(json(&carried), json(&bare));
        assert!(!json(&carried).contains("stream"));
        let written = serde_json::to_string(&carried).unwrap();
        let back: CompressionOutcome = serde_json::from_str(&written).unwrap();
        assert!(back.stream.is_none() && back == carried);
        // Not a key of the format either: a document that has one is refused.
        let forged = written.replacen('{', "{\"stream\":[1,2,3],", 1);
        assert!(serde_json::from_str::<CompressionOutcome>(&forged).is_err());
    }

    #[test]
    fn append_writes_jsonl() {
        let dir = std::env::temp_dir().join(format!("fraz_bench_records_{}", std::process::id()));
        append_to(
            &dir,
            "unit_test",
            &[
                Record::new("unit_test", "a", serde_json::json!({"x": 1})),
                Record::new("unit_test", "b", serde_json::json!({"x": 2})),
            ],
        );
        let content = std::fs::read_to_string(dir.join("unit_test.jsonl")).unwrap();
        assert_eq!(content.lines().count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
