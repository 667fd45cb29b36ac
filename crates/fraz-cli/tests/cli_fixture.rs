//! End-to-end tests for the `fraz` CLI against the committed
//! `tests/fixtures/mini_app` dataset: TOML and JSON manifests resolve to
//! the same run, the runner produces sane per-field rows, and the actual
//! binary smoke-runs with table + JSONL output.

use std::path::{Path, PathBuf};
use std::process::Command;

use fraz_cli::runner::{run, RunOverrides};
use fraz_data::manifest::FieldTarget;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/mini_app")
}

#[test]
fn toml_and_json_manifests_are_equivalent() {
    let toml = fraz_cli::load_manifest(&fixture_dir().join("manifest.toml")).unwrap();
    let json = fraz_cli::load_manifest(&fixture_dir().join("manifest.json")).unwrap();
    assert_eq!(toml, json);
    assert_eq!(toml.fields.len(), 4);
}

#[test]
fn fixture_manifest_resolves_all_series() {
    let manifest = fraz_cli::load_manifest(&fixture_dir().join("manifest.toml")).unwrap();
    let resolved = manifest.resolve(&fixture_dir()).unwrap();
    assert_eq!(resolved.fields.len(), 4);
    // The glob and the explicit list find the same two time-steps (the
    // datasets differ only in the field name they were loaded under).
    assert_eq!(resolved.fields[0].series.len(), 2);
    assert_eq!(resolved.fields[1].series.len(), 2);
    for (a, b) in resolved.fields[0]
        .series
        .iter()
        .zip(&resolved.fields[1].series)
    {
        assert_eq!(a.buffer, b.buffer);
        assert_eq!(a.dims, b.dims);
        assert_eq!(a.timestep, b.timestep);
    }
    assert_eq!(resolved.fields[2].series[0].dims.as_slice(), &[48, 48]);
    assert_eq!(resolved.fields[3].target, FieldTarget::MinPsnr(60.0));
}

#[test]
fn runner_produces_per_field_rows_with_metrics() {
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

    assert_eq!(report.workers, 4);
    assert_eq!(report.rows.len(), 4);
    let by_name = |name: &str| {
        report
            .rows
            .iter()
            .find(|r| r.field == name)
            .unwrap_or_else(|| panic!("row {name} missing"))
    };

    // Ratio fields: feasible, near their (per-field) targets, quality
    // measured on the final pass.
    for (name, target) in [("temp", 8.0), ("temp_explicit", 6.0), ("pressure", 8.0)] {
        let row = by_name(name);
        assert_eq!(row.steps, row.feasible_steps, "{name} missed its target");
        let deviation = (row.ratio - target).abs() / target;
        assert!(
            deviation <= 0.15 + 0.02,
            "{name}: mean ratio {} too far from {target}",
            row.ratio
        );
        assert!(row.psnr.unwrap_or(0.0) > 10.0, "{name}: no plausible PSNR");
        assert!(row.evaluations >= 1);
        assert!(row.error_bound > 0.0);
    }
    // The two-step series reused the first step's bound (≤ 2 retrains,
    // and the second run of identical data should predict successfully).
    assert!(by_name("temp").retrained_steps <= 2);

    // The quality field met its PSNR floor while still compressing.
    let energy = by_name("energy");
    assert_eq!(energy.target, "psnr>=60dB");
    assert_eq!(energy.feasible_steps, 1);
    assert!(energy.psnr.unwrap() >= 60.0, "psnr {:?}", energy.psnr);
    assert!(energy.ratio > 1.0, "quality search should still compress");

    // JSONL rows parse back and carry the field names.
    let lines = report.jsonl_lines();
    assert_eq!(lines.len(), 4);
    for line in &lines {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(
            v.get("experiment").and_then(|e| e.as_str()),
            Some("fraz_cli_run")
        );
        assert!(v.get("row").and_then(|r| r.get("field")).is_some());
    }

    // The table renders one aligned line per field.
    let table = report.render_table();
    assert_eq!(table.lines().count(), 2 + 4, "{table}");
    assert!(table.contains("temp_explicit"), "{table}");
}

#[test]
fn compressor_override_and_unknown_compressor_error() {
    let manifest = fraz_cli::load_manifest(&fixture_dir().join("manifest.json")).unwrap();
    let report = run(
        &manifest,
        &fixture_dir(),
        &RunOverrides {
            workers: Some(2),
            compressor: Some("zfp".to_string()),
            ..RunOverrides::default()
        },
    )
    .unwrap();
    assert!(report.rows.iter().all(|r| r.compressor == "zfp"));

    let err = run(
        &manifest,
        &fixture_dir(),
        &RunOverrides {
            workers: Some(2),
            compressor: Some("szz".to_string()),
            ..RunOverrides::default()
        },
    )
    .unwrap_err()
    .to_string();
    // The registry's did-you-mean suggestion survives to the CLI surface.
    assert!(err.contains("szz"), "{err}");
}

#[test]
fn szx_override_runs_the_fixture_end_to_end() {
    let manifest = fraz_cli::load_manifest(&fixture_dir().join("manifest.toml")).unwrap();
    let report = run(
        &manifest,
        &fixture_dir(),
        &RunOverrides {
            workers: Some(2),
            compressor: Some("szx".to_string()),
            ..RunOverrides::default()
        },
    )
    .unwrap();

    assert_eq!(report.rows.len(), 4);
    assert!(report.rows.iter().all(|r| r.compressor == "szx"));
    for row in &report.rows {
        // SZx's achievable ratios are a coarse step function (paper §VI-B3
        // applies even more strongly than for ZFP), so the 8:1 ratio targets
        // may be infeasible on this fixture — but every search must still
        // run, recommend a usable bound, and actually compress.
        assert!(row.evaluations >= 1, "{}: no evaluations", row.field);
        assert!(row.error_bound > 0.0, "{}: no bound", row.field);
        assert!(row.ratio > 1.0, "{}: did not compress", row.field);
    }

    // The quality target is bound-monotone, so szx must satisfy it outright.
    let energy = report.rows.iter().find(|r| r.field == "energy").unwrap();
    assert_eq!(energy.feasible_steps, 1);
    assert!(energy.psnr.unwrap() >= 60.0, "psnr {:?}", energy.psnr);
}

#[test]
fn binary_smoke_run_writes_table_and_jsonl() {
    // Both manifest formats, through the real binary: validate exercises
    // resolution without running, run prints the table and appends JSONL.
    for manifest in ["manifest.toml", "manifest.json"] {
        let config = fixture_dir().join(manifest);
        let output = Command::new(env!("CARGO_BIN_EXE_fraz"))
            .args(["validate", "--config", config.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(output.status.success(), "{manifest}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("manifest OK"), "{stdout}");

        let out = std::env::temp_dir().join(format!(
            "fraz_cli_smoke_{}_{manifest}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&out).ok();
        let output = Command::new(env!("CARGO_BIN_EXE_fraz"))
            .args([
                "run",
                "--config",
                config.to_str().unwrap(),
                "--workers",
                "4",
                "--out",
                out.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "stdout:\n{stdout}\nstderr:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(stdout.contains("field"), "{stdout}");
        assert!(stdout.contains("energy"), "{stdout}");

        let jsonl = std::fs::read_to_string(&out).unwrap();
        assert_eq!(jsonl.lines().count(), 4, "{jsonl}");
        for line in jsonl.lines() {
            serde_json::from_str::<serde_json::Value>(line).unwrap();
        }
        std::fs::remove_file(&out).ok();
    }

    // codecs lists the registry, the fixed-rate baseline included.
    let output = Command::new(env!("CARGO_BIN_EXE_fraz"))
        .arg("codecs")
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for codec in ["sz", "zfp", "zfp-rate", "mgard", "szx"] {
        let listed = |l: &str| l.split_whitespace().next() == Some(codec);
        assert!(
            stdout.lines().any(listed),
            "{codec} missing from:\n{stdout}"
        );
    }
}

#[test]
fn tune_cache_second_run_halves_evaluations() {
    let dir = std::env::temp_dir().join(format!("fraz_cli_tune_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let manifest = fraz_cli::load_manifest(&fixture_dir().join("manifest.toml")).unwrap();
    let overrides = RunOverrides {
        workers: Some(2),
        tune_cache: Some(dir.clone()),
        ..RunOverrides::default()
    };

    let cold = run(&manifest, &fixture_dir(), &overrides).unwrap();
    let cold_evals: usize = cold.rows.iter().map(|r| r.evaluations).sum();
    let cold_cache = cold.tune_cache.as_ref().expect("cache summary present");
    assert!(cold_cache.stores > 0, "cold run records bounds");

    // Second process over the same data: every search seeds from the cache.
    let warm = run(&manifest, &fixture_dir(), &overrides).unwrap();
    let warm_evals: usize = warm.rows.iter().map(|r| r.evaluations).sum();
    let warm_cache = warm.tune_cache.as_ref().unwrap();
    assert!(warm_cache.hits > 0, "warm run hits the cache");
    assert!(
        (warm_evals as f64) <= cold_evals as f64 * 0.5,
        "warm run spent {warm_evals} evaluations vs {cold_evals} cold"
    );
    // Every warm step starts at its own cached bound, not the previous
    // step's, and the table's misses agree with the cache's.
    for row in &warm.rows {
        assert_eq!(row.cache_hits, Some(row.steps), "{}", row.field);
        assert_eq!(row.cache_misses, Some(0), "{}", row.field);
    }
    assert_eq!(warm_cache.misses, 0);
    // The quality metrics are unchanged: seeding only changes how fast the
    // searches land, not where.
    for (c, w) in cold.rows.iter().zip(&warm.rows) {
        assert_eq!(c.feasible_steps, w.feasible_steps, "{}", c.field);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn error_ceiling_added_between_tune_cache_runs_binds_every_bound() {
    // The cache key does not contain `max_error_bound`: a run without a
    // ceiling teaches the cache bounds that a later run *with* one is then
    // offered as hints.  They must be clamped, not replayed.
    let dir = std::env::temp_dir().join(format!("fraz_cli_ceiling_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(fixture_dir()).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    // One JSONL row per field: (field, error_bound, feasible_steps).
    let fraz_run = |manifest: &str, cache: &str| -> Vec<(String, f64, f64)> {
        let out = dir.join(format!("{cache}-{manifest}.jsonl"));
        let output = Command::new(env!("CARGO_BIN_EXE_fraz"))
            .args(["run", "--quiet", "--workers", "1", "--config"])
            .arg(dir.join(manifest))
            .arg("--tune-cache")
            .arg(dir.join(cache))
            .arg("--out")
            .arg(&out)
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        std::fs::read_to_string(&out)
            .unwrap()
            .lines()
            .map(|line| {
                let record: serde_json::Value = serde_json::from_str(line).unwrap();
                let row = record.get("row").unwrap();
                let number = |key: &str| row.get(key).and_then(|v| v.as_f64()).unwrap();
                (
                    row.get("field")
                        .and_then(|v| v.as_str())
                        .unwrap()
                        .to_string(),
                    number("error_bound"),
                    number("feasible_steps"),
                )
            })
            .collect()
    };

    let free = fraz_run("manifest.toml", "cache");
    let manifest = std::fs::read_to_string(dir.join("manifest.toml")).unwrap();
    // A ceiling inside every field's bound range, then one below every
    // codec's floor (1e-9 of the value range): it binds all the same.
    let inside = free.iter().map(|row| row.1).fold(f64::INFINITY, f64::min) / 4.0;
    for (name, ceiling) in [("capped.toml", inside), ("floored.toml", 1e-12)] {
        std::fs::write(
            dir.join(name),
            manifest.replace(
                "workers = 4\n",
                &format!("workers = 4\nmax_error_bound = {ceiling:e}\n"),
            ),
        )
        .unwrap();
        let cold = fraz_run(name, &format!("fresh-cache-{name}"));
        let warm = fraz_run(name, "cache");
        assert_eq!(warm.len(), 4);
        for (row, cold) in warm.iter().zip(&cold) {
            for (what, (field, bound, _)) in [("warm", row), ("cold", cold)] {
                assert!(
                    *bound <= ceiling,
                    "{field}: {what} bound {bound} above max_error_bound {ceiling}"
                );
            }
            assert_eq!(row.2, cold.2, "{}: the cache changed the verdict", row.0);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_manifest_is_reported_readably() {
    let dir = std::env::temp_dir().join(format!("fraz_cli_bad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.toml");
    std::fs::write(
        &bad,
        "application = \"x\"\ntarget_ratio = 8.0\n[[fields]]\nname = \"a\"\ndtype = \"f32\"\ndims = [1, 2, 3, 4, 5]\nfile = \"a.f32\"\n",
    )
    .unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_fraz"))
        .args(["run", "--config", bad.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("1 to 4 axes"), "{stderr}");

    // A search budget no search can honour is named by its key.
    let good = std::fs::read_to_string(fixture_dir().join("manifest.toml")).unwrap();
    for (edit, key) in [
        ("tolerance = 7.5", "tolerance"),
        (
            "tolerance = 0.15\nmax_error_bound = -3.0",
            "max_error_bound",
        ),
    ] {
        std::fs::write(&bad, good.replace("tolerance = 0.15", edit)).unwrap();
        let output = Command::new(env!("CARGO_BIN_EXE_fraz"))
            .args(["validate", "--config", bad.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert_eq!(output.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("manifest: {key} must be")),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_create_info_read_round_trip() {
    let dir = std::env::temp_dir().join(format!("fraz_cli_store_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let manifest = fixture_dir().join("manifest.toml");
    // The manifest's own codec, and an override.
    for compressor in ["sz", "szx"] {
        let store_dir = dir.join(format!("store-{compressor}"));

        // create: every field/time-step becomes one container object.
        let output = Command::new(env!("CARGO_BIN_EXE_fraz"))
            .args([
                "store",
                "create",
                "--config",
                manifest.to_str().unwrap(),
                "--store",
                store_dir.to_str().unwrap(),
                "--chunk",
                "3x8x8",
                "--compressor",
                compressor,
            ])
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "stdout:\n{stdout}\nstderr:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        // --chunk is 3-D and applies to the rank-3 fields; the 2-D/1-D fields
        // fall back to the default chunk shape (noted on stderr).
        assert!(stdout.contains("temp/t0"), "{stdout}");
        assert!(stdout.contains("pressure/t0"), "{stdout}");
        assert!(stdout.contains("energy/t0"), "{stdout}");
        let note = String::from_utf8_lossy(&output.stderr);
        assert!(note.contains("rank does not match"), "{note}");

        // info lists every object without decoding payloads.
        let output = Command::new(env!("CARGO_BIN_EXE_fraz"))
            .args(["store", "info", "--store", store_dir.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(output.status.success());
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("temp/t1"), "{stdout}");

        // read a subregion out as raw bytes.
        let out = dir.join("slab.f32");
        let output = Command::new(env!("CARGO_BIN_EXE_fraz"))
            .args([
                "store",
                "read",
                "--store",
                store_dir.to_str().unwrap(),
                "--key",
                "temp/t0",
                "--region",
                "0..3,4..12,0..16",
                "--out",
                out.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "stdout:\n{stdout}\nstderr:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let bytes = std::fs::read(&out).unwrap();
        assert_eq!(bytes.len(), 3 * 8 * 16 * 4, "{stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One manifest, one budget: `max_iterations = 1` must buy a ratio field
/// the same single evaluation — and so the same bound — under `fraz run`
/// and `fraz store create` (the target is out of reach, so neither search
/// can stop early and both spend exactly what the manifest allows).  The
/// field is a Table-III generator, so the same run also proves
/// `generator = "<app>/<field>"` resolves under all three commands.
#[test]
fn run_and_store_create_spend_the_same_manifest_budget() {
    let dir = std::env::temp_dir().join(format!("fraz_cli_budget_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let config = dir.join("manifest.toml");
    std::fs::write(
        &config,
        "application = \"budget\"\ntarget_ratio = 1000.0\nregions = 1\nmax_iterations = 1\n\n\
         [[fields]]\nname = \"tc\"\ndtype = \"f32\"\ndims = [8, 16, 16]\n\
         generator = \"hurricane/TCf\"\n",
    )
    .unwrap();
    let fraz = |args: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_fraz"))
            .args(args)
            .args(["--config", config.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        assert!(
            output.status.success(),
            "stdout:\n{stdout}\nstderr:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        stdout
    };

    assert!(fraz(&["validate"]).contains("manifest OK"));

    let jsonl = dir.join("run.jsonl");
    fraz(&["run", "--workers", "1", "--out", jsonl.to_str().unwrap()]);
    let record: serde_json::Value =
        serde_json::from_str(std::fs::read_to_string(&jsonl).unwrap().trim()).unwrap();
    let row = record.get("row").unwrap();
    let number = |key: &str| row.get(key).and_then(|v| v.as_f64()).unwrap();
    assert_eq!(number("evaluations"), 1.0, "{row:?}");
    let run_bound = number("error_bound");

    let store_dir = dir.join("store");
    let stdout = fraz(&["store", "create", "--store", store_dir.to_str().unwrap()]);
    let object = stdout
        .lines()
        .find(|l| l.contains("tc/t0"))
        .unwrap_or_else(|| panic!("no tc/t0 line in:\n{stdout}"));
    assert!(object.contains(" 1 eval(s)"), "{object}");
    let bound = format!("{run_bound:.3e}");
    assert!(
        object.contains(&format!("bounds {bound}..{bound}")),
        "{object}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
