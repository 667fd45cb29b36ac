//! Table III: dataset descriptions.
//!
//! Prints the paper's Table III verbatim alongside the synthetic stand-ins
//! actually generated by this reproduction at the selected scale, so every
//! other experiment's workload provenance is explicit.
//!
//! Run with `cargo run --release -p fraz-bench --bin tab03_datasets`.

#![forbid(unsafe_code)]

use fraz_bench::records::{append, Record};
use fraz_bench::scale::Scale;
use fraz_bench::table::Table;
use fraz_bench::workloads;
use fraz_data::catalog;

fn main() {
    let scale = Scale::from_env();
    println!("== Table III: dataset descriptions ==\n");

    println!("-- as published (SDRBench archives) --");
    let mut paper = Table::new(&[
        "name",
        "domain",
        "#time-steps",
        "dim",
        "#fields",
        "total size",
    ]);
    for row in catalog::paper_catalog() {
        paper.row(vec![
            row.name.clone(),
            row.domain.clone(),
            row.timesteps.to_string(),
            row.dimensionality.to_string(),
            row.fields.to_string(),
            format!("{:.1} GB", row.size_gb()),
        ]);
    }
    paper.print();

    println!(
        "\n-- synthetic stand-ins generated at scale `{}` --",
        scale.label()
    );
    let mut ours = Table::new(&[
        "name",
        "domain",
        "#time-steps",
        "dim",
        "#fields",
        "total size",
    ]);
    let mut records = Vec::new();
    for app in workloads::applications(scale) {
        let desc = catalog::describe(&app);
        ours.row(vec![
            desc.name.clone(),
            desc.domain.clone(),
            desc.timesteps.to_string(),
            desc.dimensionality.to_string(),
            desc.fields.to_string(),
            format!("{:.3} GB", desc.size_gb()),
        ]);
        records.push(Record::new("tab03", &desc.name.clone(), desc));
    }
    ours.print();
    append("tab03", &records);

    println!("\nDimensionality, field counts and multi-time-step structure match Table III;");
    println!("sizes are scaled down (DESIGN.md §2 documents the substitution).");
}
