//! `fraz-e2e`: the repository's end-to-end benchmark.
//!
//! Seven named workloads drive the product through its public API only
//! (see [`adapter`]), on inputs the benchmark generates itself from a seed
//! (see [`fields`]).  An untraced run reports the end-to-end metrics; a
//! traced run wraps the codecs and the store in span recorders (see
//! [`trace`]) and reports per-layer metrics.  Times are reported at a
//! reference host speed, measured between the product's operations (see
//! [`calib`]).  `README.md` has the workload table, the metric list and the
//! layer → end-to-end map.

pub mod adapter;
pub mod calib;
pub mod cli;
pub mod fields;
pub mod probe;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
