//! Figure 9: rate-distortion of SZ(FRaZ), ZFP(FRaZ), ZFP(fixed-rate) and
//! MGARD(FRaZ) on all five applications.
//!
//! For a sweep of bit rates, each error-bounded compressor is tuned by FRaZ
//! to the corresponding compression ratio and the PSNR of the reconstruction
//! is reported; ZFP's fixed-rate mode is evaluated directly at the same
//! rate.  MGARD is skipped for the 1-D applications (HACC, EXAALT), as in
//! the paper.
//!
//! Run with `cargo run --release -p fraz-bench --bin fig09_rate_distortion`.

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
        "== Figure 9: rate distortion across applications (scale: {}) ==\n",
        scale.label()
    );
    let bit_rates: Vec<f64> = scale.pick(
        vec![0.5, 1.0, 2.0, 4.0, 8.0],
        vec![0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0],
    );
    let mut records = Vec::new();

    for app in workloads::applications(scale) {
        let dataset = workloads::headline_dataset(&app);
        println!("-- {} ({}) --", app.application(), dataset.field);
        let mut table = Table::new(&[
            "bit rate",
            "SZ(FRaZ)",
            "ZFP(FRaZ)",
            "ZFP(fixed-rate)",
            "MGARD(FRaZ)",
        ]);
        for &bit_rate in &bit_rates {
            let target_ratio = 32.0 / bit_rate;
            let mut cells = vec![format!("{bit_rate:.1}")];
            for backend_name in ["sz", "zfp", "zfp-rate", "mgard"] {
                let backend = registry::build_default(backend_name).unwrap();
                if !backend.supports_dims(&dataset.dims) {
                    cells.push("-".into());
                    continue;
                }
                let (psnr, achieved_rate) = if backend_name == "zfp-rate" {
                    let outcome = backend.evaluate(&dataset, bit_rate, true).unwrap();
                    (outcome.quality.as_ref().unwrap().psnr, outcome.bit_rate)
                } else {
                    let config = SearchConfig::new(target_ratio, 0.15)
                        .with_regions(6)
                        .with_threads(6);
                    let outcome = FixedRatioSearch::new(backend, config).run(&dataset);
                    (
                        outcome.best.quality.as_ref().map(|q| q.psnr).unwrap_or(0.0),
                        outcome.best.bit_rate,
                    )
                };
                cells.push(format!("{psnr:.1}"));
                records.push(Record::new(
                    "fig09",
                    &format!("{}/{}/{}", app.application(), dataset.field, backend_name),
                    json!({"application": app.application(), "field": dataset.field,
                           "backend": backend_name, "requested_bit_rate": bit_rate,
                           "achieved_bit_rate": achieved_rate, "psnr": psnr}),
                ));
            }
            table.row(cells);
        }
        table.print();
        println!();
    }
    append("fig09", &records);
    println!("Paper expectation: SZ(FRaZ) gives the best PSNR at most rates, ZFP(FRaZ) is");
    println!("consistently above ZFP(fixed-rate), and MGARD rows are absent for the 1-D codes.");
}
