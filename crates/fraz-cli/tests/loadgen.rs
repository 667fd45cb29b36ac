//! `fraz loadgen` through the real binary: a short self-hosted run under
//! store chaos exits 0 and prints its service JSONL row.

use std::process::Command;

#[test]
fn self_hosted_loadgen_under_chaos_prints_a_service_row() {
    let output = Command::new(env!("CARGO_BIN_EXE_fraz"))
        .args([
            "loadgen",
            "--clients",
            "2",
            "--duration-ms",
            "300",
            "--side",
            "16",
        ])
        .args(["--chaos", "0.2", "--max-inflight", "2"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let row = stdout
        .lines()
        .find(|line| line.contains("\"group\":\"service\""))
        .unwrap_or_else(|| panic!("no service row in:\n{stdout}"));
    let row: serde_json::Value = serde_json::from_str(row).unwrap();
    assert_eq!(row.get("id").and_then(|id| id.as_str()), Some("loadgen"));
}
