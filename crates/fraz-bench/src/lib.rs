//! Shared harness for the experiment reproductions.
//!
//! Every table and figure of the FRaZ paper's evaluation section has a
//! corresponding binary in `src/bin/` (see DESIGN.md §4 for the index).  The
//! binaries share this small library:
//!
//! * [`workloads`] — the bench-scale synthetic datasets standing in for the
//!   SDRBench archives (see DESIGN.md §2 for the substitution rationale),
//! * [`records`] — machine-readable result rows appended to
//!   `results/*.jsonl` so EXPERIMENTS.md can quote exact numbers,
//! * [`table`] — fixed-width console table printing,
//! * [`scale`] — the `FRAZ_BENCH_SCALE` switch between a quick profile
//!   (minutes, default) and a fuller profile closer to the paper's sizes.

#![forbid(unsafe_code)]

pub mod records;
pub mod scale;
pub mod table;
pub mod workloads;

/// Default random seed used by every experiment, so reruns are identical.
pub const EXPERIMENT_SEED: u64 = 20200118;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_is_stable() {
        // The seed is part of the experiment definition; changing it would
        // silently change every recorded number.
        assert_eq!(EXPERIMENT_SEED, 20200118);
    }
}
