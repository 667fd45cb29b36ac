//! Figure 1: ZFP fixed-accuracy vs fixed-rate mode.
//!
//! (b) rate distortion of the two modes on the Hurricane TCf field, and the
//! summary distortion statistics at a common ~50:1 compression ratio that
//! caption (a)/(c)/(d) report (PSNR, max error, SSIM, ACF(error)).
//!
//! Run with `cargo run --release -p fraz-bench --bin fig01_zfp_modes`.

#![forbid(unsafe_code)]

use fraz_bench::records::{append, Record};
use fraz_bench::scale::Scale;
use fraz_bench::table::Table;
use fraz_bench::workloads;
use fraz_core::{FixedRatioSearch, SearchConfig};
use fraz_pressio::registry;
use serde_json::json;

fn main() {
    let scale = Scale::from_env();
    println!(
        "== Figure 1: ZFP fixed-accuracy vs fixed-rate (scale: {}) ==\n",
        scale.label()
    );
    let dataset = workloads::hurricane(scale).field("TCf", 0);
    println!("dataset: {dataset}\n");

    let accuracy = registry::build_default("zfp").unwrap();
    let fixed_rate = registry::build_default("zfp-rate").unwrap();

    // ---- (b) rate distortion: sweep bit rates. ----
    let mut table = Table::new(&["bit rate", "PSNR zfp(accuracy)", "PSNR zfp(fixed-rate)"]);
    let mut records = Vec::new();
    let rates: Vec<f64> = vec![0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0];
    for &bits_per_value in &rates {
        // Fixed-rate mode: the rate is the parameter.
        let rate_outcome = fixed_rate.evaluate(&dataset, bits_per_value, true).unwrap();
        // Accuracy mode: find the tolerance whose ratio matches this rate,
        // i.e. ask FRaZ for the equivalent target ratio.
        let target_ratio = 32.0 / bits_per_value;
        let config = SearchConfig::new(target_ratio, 0.1)
            .with_regions(6)
            .with_threads(6);
        let acc_outcome =
            FixedRatioSearch::new(registry::build_default("zfp").unwrap(), config).run(&dataset);
        let acc_quality = acc_outcome.best.quality.clone().unwrap();
        let rate_quality = rate_outcome.quality.clone().unwrap();
        table.row(vec![
            format!("{bits_per_value:.1}"),
            format!(
                "{:.1} (@{:.1}:1)",
                acc_quality.psnr, acc_outcome.best.compression_ratio
            ),
            format!(
                "{:.1} (@{:.1}:1)",
                rate_quality.psnr, rate_outcome.compression_ratio
            ),
        ]);
        records.push(Record::new(
            "fig01",
            &format!("bitrate_{bits_per_value}"),
            json!({
                "bit_rate": bits_per_value,
                "accuracy_psnr": acc_quality.psnr,
                "accuracy_ratio": acc_outcome.best.compression_ratio,
                "fixed_rate_psnr": rate_quality.psnr,
                "fixed_rate_ratio": rate_outcome.compression_ratio,
            }),
        ));
    }
    table.print();
    let _ = accuracy;

    // ---- (a)/(c)/(d): distortion statistics at ~50:1. ----
    println!("\n-- distortion at a common ~50:1 ratio --");
    let config = SearchConfig::new(50.0, 0.15)
        .with_regions(6)
        .with_threads(6);
    let acc = FixedRatioSearch::new(registry::build_default("zfp").unwrap(), config).run(&dataset);
    let acc_q = acc.best.quality.clone().unwrap();
    let rate = fixed_rate
        .evaluate(&dataset, 32.0 / acc.best.compression_ratio, true)
        .unwrap();
    let rate_q = rate.quality.clone().unwrap();
    let mut summary = Table::new(&["mode", "ratio", "PSNR", "max error", "SSIM", "ACF(error)"]);
    for (mode, ratio, q) in [
        (
            "zfp fixed-accuracy (FRaZ)",
            acc.best.compression_ratio,
            &acc_q,
        ),
        ("zfp fixed-rate", rate.compression_ratio, &rate_q),
    ] {
        summary.row(vec![
            mode.to_string(),
            format!("{ratio:.1}"),
            format!("{:.1}", q.psnr),
            format!("{:.3e}", q.max_abs_error),
            format!("{:.4}", q.ssim),
            format!("{:.3}", q.acf_error),
        ]);
    }
    summary.print();
    records.push(Record::new(
        "fig01",
        "cr50_summary",
        json!({
            "accuracy": {"ratio": acc.best.compression_ratio, "psnr": acc_q.psnr,
                          "max_error": acc_q.max_abs_error, "ssim": acc_q.ssim, "acf": acc_q.acf_error},
            "fixed_rate": {"ratio": rate.compression_ratio, "psnr": rate_q.psnr,
                            "max_error": rate_q.max_abs_error, "ssim": rate_q.ssim, "acf": rate_q.acf_error},
        }),
    ));
    append("fig01", &records);
    println!("\nPaper expectation: the fixed-accuracy curve sits well above the fixed-rate curve");
    println!("(up to ~30 dB), and at 50:1 the accuracy mode has higher PSNR and lower max error.");
}
