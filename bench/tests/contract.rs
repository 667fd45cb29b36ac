//! The benchmark's contract cannot drift silently: `BENCHMARK.json`, the
//! names in `src/spec.rs`, what a (quick) full run actually prints, and
//! the release profile copied from the root manifest must all agree.

use std::path::Path;
use std::process::Command;

use fraz_e2e::spec::{END_TO_END, FAILED_FRAC, PER_LAYER};
use fraz_e2e::workloads::NAMES;
use serde_json::Value;

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn items(value: &Value, key: &str) -> Vec<Value> {
    match value.get(key) {
        Some(Value::Array(items)) => items.clone(),
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn keys(value: &Value, key: &str) -> Vec<String> {
    match value.get(key) {
        Some(Value::Object(map)) => map.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("`{key}` is not an object: {other:?}"),
    }
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no `{key}` in {value}"))
}

#[test]
fn benchmark_json_states_the_same_contract_as_spec() {
    let doc =
        serde_json::parse::parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses");

    let workloads: Vec<String> = items(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name").to_string())
        .collect();
    assert_eq!(workloads, NAMES);

    let end_to_end: Vec<(String, String, String, f64)> = items(&doc, "end_to_end")
        .iter()
        .map(|m| {
            (
                text(m, "name").into(),
                text(m, "unit").into(),
                text(m, "better").into(),
                m.get("bound").and_then(Value::as_f64).expect("bound"),
            )
        })
        .collect();
    let expected: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|&((n, u, b), bound)| (n.into(), u.into(), b.into(), bound))
        .collect();
    assert_eq!(end_to_end, expected);

    let per_layer: Vec<(String, String, String)> = items(&doc, "per_layer")
        .iter()
        .map(|m| {
            (
                text(m, "name").into(),
                text(m, "unit").into(),
                text(m, "better").into(),
            )
        })
        .collect();
    let expected: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n.into(), u.into(), b.into()))
        .collect();
    assert_eq!(per_layer, expected);
}

#[test]
fn quick_full_run_prints_exactly_the_named_workloads_and_metrics() {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let output = Command::new(env!("CARGO_BIN_EXE_fraz-e2e"))
        .args(["--quick", "--reps", "1", "--seed", "7"])
        .env("FRAZ_E2E_OUT", &out_dir)
        .output()
        .expect("fraz-e2e runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "quick run failed: {}\n{stdout}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report = serde_json::parse::parse(&stdout).expect("the report is one JSON document");
    assert!(matches!(report.get("correct"), Some(Value::Bool(true))));
    for key in [
        "nproc",
        "cpu_model",
        "rustc",
        "git_commit",
        "seed",
        "reps",
        "load_1m_start",
        "load_1m_end",
        "noisy",
    ] {
        assert!(
            report.get("env").and_then(|e| e.get(key)).is_some(),
            "env.{key}"
        );
    }
    assert_eq!(keys(&report, "workloads"), NAMES);
    let mut end_to_end: Vec<&str> = END_TO_END.iter().map(|&((n, _, _), _)| n).collect();
    end_to_end.push(FAILED_FRAC.0);
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|&(n, _, _)| n).collect();
    for name in NAMES {
        let workload = report
            .get("workloads")
            .and_then(|w| w.get(name))
            .expect(name);
        assert_eq!(keys(workload, "end_to_end"), end_to_end, "{name}");
        assert_eq!(keys(workload, "per_layer"), per_layer, "{name}");
        assert!(
            out_dir.join(format!("trace-{name}.jsonl")).is_file(),
            "{name} trace"
        );
    }
}

/// The lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

#[test]
fn release_profile_equals_the_root_manifests() {
    let root = release_profile(&repo_file("Cargo.toml"));
    let bench = release_profile(&repo_file("bench/Cargo.toml"));
    assert!(!root.is_empty());
    assert_eq!(bench, root);
}
