//! End-to-end tests for zero-file scenario manifests: a manifest whose
//! fields all say `generator = "<regime>"` runs through the full CLI path
//! — validate, the runner, and the actual binary — without a single data
//! file on disk.

use std::path::{Path, PathBuf};
use std::process::Command;

use fraz_cli::runner::{run, RunOverrides};
use fraz_data::manifest::FieldTarget;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/scenarios")
}

#[test]
fn scenario_manifest_resolves_without_any_files() {
    let manifest = fraz_cli::load_manifest(&fixture_dir().join("manifest.toml")).unwrap();
    let resolved = manifest.resolve(&fixture_dir()).unwrap();
    assert_eq!(resolved.fields.len(), 4);
    for field in &resolved.fields {
        assert!(
            field.paths.is_empty(),
            "{}: generated, no files",
            field.name
        );
        assert_eq!(field.series[0].application, "scenarios");
    }
    assert_eq!(resolved.fields[0].series.len(), 2, "smooth2d has two steps");
    assert_eq!(resolved.fields[2].target, FieldTarget::MinPsnr(60.0));
    assert_eq!(resolved.fields[3].target, FieldTarget::Ratio(12.0));

    // Zero-file means zero-file: the fixture directory holds only the
    // manifest itself.
    let on_disk: Vec<_> = std::fs::read_dir(fixture_dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(on_disk, vec!["manifest.toml"], "{on_disk:?}");
}

#[test]
fn runner_executes_the_scenario_manifest_end_to_end() {
    let manifest = fraz_cli::load_manifest(&fixture_dir().join("manifest.toml")).unwrap();
    let report = run(
        &manifest,
        &fixture_dir(),
        &RunOverrides {
            workers: Some(4),
            ..RunOverrides::default()
        },
    )
    .unwrap();
    assert_eq!(report.rows.len(), 4);
    for row in &report.rows {
        assert!(row.evaluations >= 1, "{}: no evaluations", row.field);
        assert!(row.error_bound > 0.0, "{}: no bound", row.field);
        assert!(row.ratio > 1.0, "{}: did not compress", row.field);
    }
    // The ratio targets are comfortably inside each regime's achievable
    // range for sz, so the searches must land feasible.
    for name in ["smooth2d", "turbulence1d", "sparse3d"] {
        let row = report.rows.iter().find(|r| r.field == name).unwrap();
        assert_eq!(row.steps, row.feasible_steps, "{name} missed its target");
    }
    let shock = report.rows.iter().find(|r| r.field == "shock1d").unwrap();
    assert!(shock.psnr.unwrap() >= 60.0, "psnr {:?}", shock.psnr);
}

#[test]
fn binary_validates_and_runs_the_scenario_manifest() {
    let config = fixture_dir().join("manifest.toml");
    let validate = Command::new(env!("CARGO_BIN_EXE_fraz"))
        .args(["validate", "--config", config.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&validate.stdout);
    assert!(
        validate.status.success(),
        "stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&validate.stderr)
    );
    assert!(stdout.contains("manifest OK"), "{stdout}");
    assert!(stdout.contains("smooth2d"), "{stdout}");

    let out = std::env::temp_dir().join(format!("fraz_scenarios_{}.jsonl", std::process::id()));
    std::fs::remove_file(&out).ok();
    let run = Command::new(env!("CARGO_BIN_EXE_fraz"))
        .args([
            "run",
            "--config",
            config.to_str().unwrap(),
            "--workers",
            "4",
            "--strict",
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("turbulence1d"), "{stdout}");
    let jsonl = std::fs::read_to_string(&out).unwrap();
    assert_eq!(jsonl.lines().count(), 4, "{jsonl}");
    std::fs::remove_file(&out).ok();
}

#[test]
fn mixing_file_and_generator_fails_with_did_you_mean() {
    let dir = std::env::temp_dir().join(format!("fraz_scenario_mix_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let config = dir.join("manifest.toml");
    std::fs::write(
        &config,
        r#"application = "bad"
target_ratio = 8.0

[[fields]]
name = "x"
dtype = "f32"
dims = [64]
file = "x.f32"
generator = "smooth"
"#,
    )
    .unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_fraz"))
        .args(["validate", "--config", config.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("did you mean"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn misspelled_generator_fails_with_suggestion() {
    let dir = std::env::temp_dir().join(format!("fraz_scenario_typo_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let config = dir.join("manifest.toml");
    std::fs::write(
        &config,
        r#"application = "bad"
target_ratio = 8.0

[[fields]]
name = "x"
dtype = "f32"
dims = [64]
generator = "turbulance"
"#,
    )
    .unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_fraz"))
        .args(["validate", "--config", config.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("did you mean `turbulence`?"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
