//! Per-field run reports: the aligned console table the paper-style
//! evaluation prints (compare Tables IV–VI of Underwood et al.) and the
//! JSONL records `fraz run --out` appends — plus the one tune-cache
//! summary line and the one JSONL appender every subcommand shares.

use std::io::Write;
use std::path::Path;

use fraz_tune::CacheStats;
use serde::Serialize;

/// Everything the run learned about one field, aggregated over its
/// time-step series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FieldRow {
    /// Application name from the manifest.
    pub application: String,
    /// Field name.
    pub field: String,
    /// Compressor registry name.
    pub compressor: String,
    /// The objective, in display form (`ratio 10` / `psnr>=60dB`).
    pub target: String,
    /// Number of time-steps tuned.
    pub steps: usize,
    /// Error-bound setting recommended for the final time-step.
    pub error_bound: f64,
    /// Mean achieved compression ratio over the series.
    pub ratio: f64,
    /// Mean bits per value over the series.
    pub bit_rate: f64,
    /// Mean PSNR (dB) over the series; `None` when quality was not
    /// measured.
    pub psnr: Option<f64>,
    /// Largest pointwise absolute error observed across the series.
    pub max_abs_error: Option<f64>,
    /// Steps whose objective was met (ratio in window / constraint
    /// satisfied).
    pub feasible_steps: usize,
    /// Steps that required full (re)training rather than reusing the
    /// previous step's bound.
    pub retrained_steps: usize,
    /// Total compressor invocations spent by the searches.
    pub evaluations: usize,
    /// Steps seeded straight from the persistent tuning cache; `None` when
    /// the run had no `--tune-cache`.
    pub cache_hits: Option<usize>,
    /// Steps the tuning cache could not seed (cold or stale entries);
    /// `None` when the run had no `--tune-cache`.
    pub cache_misses: Option<usize>,
    /// Wall-clock time spent on this field, in milliseconds.
    pub elapsed_ms: f64,
}

impl FieldRow {
    /// True when every step met its objective.
    pub fn all_feasible(&self) -> bool {
        self.feasible_steps == self.steps
    }

    fn status(&self) -> &'static str {
        if self.all_feasible() {
            "ok"
        } else if self.feasible_steps > 0 {
            "partial"
        } else {
            "miss"
        }
    }
}

/// The whole run: one row per field plus run-level totals.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunReport {
    /// Per-field rows, in manifest order.
    pub rows: Vec<FieldRow>,
    /// Worker threads the shared pool ran with.
    pub workers: usize,
    /// Wall-clock time of the whole run, in milliseconds.
    pub elapsed_ms: f64,
    /// Tuning-cache counters; `None` when the run had no `--tune-cache`.
    pub tune_cache: Option<CacheStats>,
}

impl RunReport {
    /// True when every field met its objective on every step.
    pub fn all_feasible(&self) -> bool {
        self.rows.iter().all(FieldRow::all_feasible)
    }

    /// Render the aligned per-field console table.
    pub fn render_table(&self) -> String {
        let header = [
            "field", "steps", "target", "bound", "ratio", "psnr", "evals", "hit", "miss",
            "retrain", "ms", "status",
        ];
        let count = |c: Option<usize>| c.map_or_else(|| "-".into(), |n| n.to_string());
        let mut rows: Vec<Vec<String>> = vec![header.iter().map(|s| s.to_string()).collect()];
        for row in &self.rows {
            rows.push(vec![
                row.field.clone(),
                row.steps.to_string(),
                row.target.clone(),
                format!("{:.3e}", row.error_bound),
                format!("{:.2}", row.ratio),
                row.psnr.map_or_else(|| "-".into(), |p| format!("{p:.1}")),
                row.evaluations.to_string(),
                count(row.cache_hits),
                count(row.cache_misses),
                row.retrained_steps.to_string(),
                format!("{:.0}", row.elapsed_ms),
                row.status().to_string(),
            ]);
        }
        let cols = header.len();
        let mut widths = vec![0usize; cols];
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (r, row) in rows.iter().enumerate() {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                // Left-align the name column, right-align the numbers.
                if i == 0 {
                    out.push_str(&format!("{cell:<width$}", width = widths[i]));
                } else {
                    out.push_str(&format!("{cell:>width$}", width = widths[i]));
                }
            }
            out.push('\n');
            if r == 0 {
                let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
                out.push_str(&"-".repeat(total));
                out.push('\n');
            }
        }
        out
    }

    /// One compact JSON record per field, tagged with an experiment name
    /// mirroring the shape of `fraz-bench`'s experiment records.
    pub fn jsonl_lines(&self) -> Vec<String> {
        self.rows
            .iter()
            .map(|row| serde_json::json!({"experiment": "fraz_cli_run", "row": row}).to_string())
            .collect()
    }
}

/// Print what the tuning cache at `path` did, and warn when loading it
/// skipped damaged lines.
pub(crate) fn print_tune_cache(path: &Path, stats: &CacheStats) {
    println!(
        "tune-cache {}: {} hit(s), {} miss(es), {} new bound(s)",
        path.display(),
        stats.hits,
        stats.misses,
        stats.stores
    );
    if stats.corrupt_lines > 0 {
        eprintln!(
            "fraz: tune-cache: skipped {} damaged line(s); \
             the flush above rewrote the file",
            stats.corrupt_lines
        );
    }
}

/// Append `lines` to the JSONL file at `path`, one record per line, in one
/// write.
pub(crate) fn append_jsonl(path: &Path, lines: &[String]) -> Result<(), String> {
    let payload: String = lines.iter().map(|line| format!("{line}\n")).collect();
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut file| file.write_all(payload.as_bytes()))
        .map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row(feasible: usize) -> FieldRow {
        FieldRow {
            application: "app".into(),
            field: "CLOUDf".into(),
            compressor: "sz".into(),
            target: "ratio 10".into(),
            steps: 2,
            error_bound: 1.25e-3,
            ratio: 9.8,
            bit_rate: 3.2,
            psnr: Some(41.7),
            max_abs_error: Some(2e-3),
            feasible_steps: feasible,
            retrained_steps: 1,
            evaluations: 40,
            cache_hits: None,
            cache_misses: None,
            elapsed_ms: 12.5,
        }
    }

    #[test]
    fn table_is_aligned_and_labelled() {
        let report = RunReport {
            rows: vec![sample_row(2), sample_row(0)],
            workers: 4,
            elapsed_ms: 25.0,
            tune_cache: None,
        };
        let table = report.render_table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4, "{table}");
        assert!(lines[0].contains("ratio"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[2].ends_with("ok"), "{table}");
        assert!(lines[3].ends_with("miss"), "{table}");
        // Columns align: every body line has the same width.
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(!report.all_feasible());
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let report = RunReport {
            rows: vec![sample_row(2)],
            workers: 4,
            elapsed_ms: 25.0,
            tune_cache: None,
        };
        let lines = report.jsonl_lines();
        assert_eq!(lines.len(), 1);
        let v: serde_json::Value = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(
            v.get("experiment").and_then(|e| e.as_str()),
            Some("fraz_cli_run")
        );
        let row = v.get("row").unwrap();
        assert_eq!(row.get("field").and_then(|f| f.as_str()), Some("CLOUDf"));
        assert_eq!(row.get("ratio").and_then(|r| r.as_f64()), Some(9.8));
    }
}
