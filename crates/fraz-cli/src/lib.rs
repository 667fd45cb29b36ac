//! The `fraz` command-line tool: FRaZ over real SDRBench-style directories.
//!
//! The paper's evaluation (§V of Underwood et al., IPDPS 2020) runs the
//! fixed-ratio search over whole application directories — Hurricane, NYX,
//! CESM — and reports per-field ratio/PSNR tables.  This crate is that
//! workflow as a binary: a TOML or JSON *dataset manifest* describes each
//! field (name, file(s), dtype, dims, target ratio or minimum PSNR), and
//! `fraz run` drives every field through the shared-pool
//! [`Orchestrator`](fraz_core::Orchestrator), printing an aligned per-field
//! table and appending one JSONL record per field.
//!
//! Module map:
//!
//! * [`toml`] — a parser for the flat TOML grammar a manifest uses,
//!   producing [`serde_json::Value`] trees, so TOML and JSON manifests share
//!   one derived-`Deserialize` path,
//! * [`config`] — extension-dispatched manifest loading,
//! * [`runner`] — manifest → orchestrator/quality-search execution,
//! * [`report`] — per-field rows, the aligned table, JSONL records,
//! * [`store_cmd`] — the `store create`/`info`/`read` subcommands over
//!   [`fraz_store`] container directories,
//! * `serve_cmd` — the `serve` subcommand: the long-running
//!   [`fraz_serve`] service with signal-driven graceful drain,
//! * `loadgen_cmd` — the `loadgen` subcommand: open-loop load against a
//!   self-hosted or external service,
//! * `args` — the one flag parser every subcommand reads its command
//!   line through, and the one failure path every subcommand ends by,
//! * [`cli`] — dispatch, and the `run`/`validate`/`codecs` subcommands.
//!
//! The manifest schema itself lives in [`fraz_data::manifest`] so library
//! users can load the same files without the CLI.

pub(crate) mod args;
pub mod cli;
pub mod config;
pub(crate) mod loadgen_cmd;
pub mod report;
pub mod runner;
pub(crate) mod serve_cmd;
pub mod store_cmd;
pub mod toml;

pub use cli::run_cli;
pub use config::load_manifest;
pub use report::{FieldRow, RunReport};
pub use runner::{run, RunError, RunOverrides};
