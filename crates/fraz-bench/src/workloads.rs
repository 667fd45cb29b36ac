//! Bench-scale workloads standing in for the SDRBench archives.
//!
//! The grid sizes and time-step counts are scaled down from Table III so the
//! full experiment suite runs on a laptop; the `full` scale gets closer to
//! the paper's shapes.  Field structure, dimensionality and temporal
//! coherence follow the generators in [`fraz_data::synthetic`].

use fraz_data::synthetic::{self, SyntheticDataset};
use fraz_data::Dataset;
use fraz_data::{DType, Dims};
use fraz_scenarios::{all_scenarios, Oracle, ScenarioField};

use crate::scale::Scale;
use crate::EXPERIMENT_SEED;

/// The five applications of Table III at bench scale.
pub fn applications(scale: Scale) -> Vec<SyntheticDataset> {
    vec![
        hurricane(scale),
        hacc(scale),
        cesm(scale),
        exaalt(scale),
        nyx(scale),
    ]
}

/// Hurricane-like meteorology (3-D, 48 time-steps in the paper).
pub fn hurricane(scale: Scale) -> SyntheticDataset {
    let (nz, ny, nx, steps) = scale.pick((16, 48, 48, 12), (24, 96, 96, 48));
    synthetic::hurricane(nz, ny, nx, steps, EXPERIMENT_SEED)
}

/// HACC-like cosmology particles (1-D, 101 time-steps in the paper).
pub fn hacc(scale: Scale) -> SyntheticDataset {
    let (particles, steps) = scale.pick((131_072, 8), (1_048_576, 24));
    synthetic::hacc(particles, steps, EXPERIMENT_SEED)
}

/// CESM-ATM-like climate output (2-D, 62 time-steps in the paper).
pub fn cesm(scale: Scale) -> SyntheticDataset {
    let (nlat, nlon, steps) = scale.pick((192, 288, 8), (384, 576, 24));
    synthetic::cesm(nlat, nlon, steps, EXPERIMENT_SEED)
}

/// EXAALT-like molecular dynamics (1-D, 82 time-steps in the paper).
pub fn exaalt(scale: Scale) -> SyntheticDataset {
    let (atoms, steps) = scale.pick((131_072, 8), (786_432, 24));
    synthetic::exaalt(atoms, steps, EXPERIMENT_SEED)
}

/// NYX-like cosmological hydrodynamics (3-D, 8 time-steps in the paper).
pub fn nyx(scale: Scale) -> SyntheticDataset {
    let (n, steps) = scale.pick((48, 4), (96, 8));
    synthetic::nyx(n, n, n, steps, EXPERIMENT_SEED)
}

/// Every synthetic scenario regime over the canonical ordering workloads
/// (1-D and 2-D, f32, the workspace experiment seed) — the exact fields the
/// `scenario_matrix` oracle test asserts compressibility ordering on, so
/// the `scenarios` rows of `baselines/nothing_moved.jsonl` and the test
/// suite measure one thing.
pub fn scenario_fields(scale: Scale) -> Vec<ScenarioField> {
    let (n1, side) = scale.pick((8192, 64), (1 << 20, 512));
    let shapes = [Dims::d1(n1), Dims::d2(side, side)];
    let mut fields = Vec::new();
    for config in all_scenarios(EXPERIMENT_SEED) {
        for dims in &shapes {
            fields.push(config.generate(dims, DType::F32, 0));
        }
    }
    fields
}

/// The "headline" field each figure uses for an application, mirroring the
/// fields named in the paper (TCf / QCLOUDf for Hurricane, temperature for
/// NYX, CLDHGH for CESM, x for the particle codes).
pub fn headline_field(application: &str) -> &'static str {
    match application {
        "hurricane" => "TCf",
        "cesm" => "CLDHGH",
        "nyx" => "temperature",
        "hacc" | "exaalt" => "x",
        _ => "TCf",
    }
}

/// Convenience: the headline field of an application at time-step 0.
pub fn headline_dataset(app: &SyntheticDataset) -> Dataset {
    app.field(headline_field(app.application()), 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_workloads_have_expected_shapes() {
        let apps = applications(Scale::Quick);
        assert_eq!(apps.len(), 5);
        let dims: Vec<usize> = apps.iter().map(|a| a.dims().ndims()).collect();
        assert_eq!(dims, vec![3, 1, 2, 1, 3]);
        for app in &apps {
            assert!(app.timesteps() >= 4);
            let d = headline_dataset(app);
            assert_eq!(d.len(), app.dims().len());
        }
    }

    #[test]
    fn full_scale_is_strictly_larger() {
        assert!(hurricane(Scale::Full).dims().len() > hurricane(Scale::Quick).dims().len());
        assert!(nyx(Scale::Full).timesteps() > nyx(Scale::Quick).timesteps());
    }

    #[test]
    fn headline_fields_exist() {
        for app in applications(Scale::Quick) {
            let field = headline_field(app.application());
            assert!(
                app.field_names().iter().any(|f| f == field),
                "{} lacks {}",
                app.application(),
                field
            );
        }
    }
}
