//! The one generator home: every deterministic stand-in field the
//! workspace tests, benches and manifests run on.
//!
//! Two families share one core (`field_gen.rs`: seeded RNG streams, one
//! Fourier `Mode`, one row-major grid walk):
//!
//! * `apps.rs` — mimics of the five SDRBench applications in Table III of the
//!   FRaZ paper, instantiated through [`hurricane`], [`hacc`], [`cesm`],
//!   [`exaalt`], [`nyx`] or [`by_name`] as a [`SyntheticDataset`];
//! * `regimes.rs` — the six oracle field classes (smooth … noise,
//!   [`Regime`] / [`ScenarioConfig`]) whose [`GroundTruth`] is counted while
//!   generating.
//!
//! [`generate`] is the one name lookup over both: `"turbulence"` or
//! `"hurricane/TCf"`, dims, dtype, seed and time-step in, a [`Dataset`] out.
//! A manifest's `generator = "…"` field resolves through it.

mod apps;
mod field_gen;
mod regimes;

use std::fmt;

use crate::buffer::{DType, DataBuffer};
use crate::dims::Dims;
use crate::Dataset;

use apps::{App, APPS};
pub use regimes::{GroundTruth, Regime, ScenarioConfig, DEFAULT_SEED, REGIMES};

/// Narrow generated `f64` values to `dtype` and wrap them as a dataset.
fn store(
    application: &str,
    field: &str,
    timestep: usize,
    dims: &Dims,
    dtype: DType,
    values: Vec<f64>,
) -> Dataset {
    Dataset {
        application: application.to_string(),
        field: field.to_string(),
        timestep,
        dims: dims.clone(),
        buffer: match dtype {
            DType::F32 => DataBuffer::F32(values.into_iter().map(|v| v as f32).collect()),
            DType::F64 => DataBuffer::F64(values),
        },
    }
}

/// A generator name [`generate`] does not know, with the closest known name
/// when one is within edit distance 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownGenerator {
    /// The name that was asked for.
    pub name: String,
    /// The did-you-mean candidate (`turbulance` → `turbulence`).
    pub suggestion: Option<String>,
}

impl fmt::Display for UnknownGenerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let regimes = REGIMES.map(Regime::name).join(", ");
        let apps = APPS.iter().map(|a| a.name).collect::<Vec<_>>().join("|");
        write!(
            f,
            "unknown generator `{}` (known: {regimes}, or `<app>/<field>` with app in {apps}, \
             e.g. `hurricane/TCf`)",
            self.name
        )?;
        match &self.suggestion {
            Some(close) => write!(f, " — did you mean `{close}`?"),
            None => Ok(()),
        }
    }
}

impl std::error::Error for UnknownGenerator {}

/// Every name [`generate`] accepts: the six regimes, then `<app>/<field>`
/// for every field of the five Table-III applications.
fn names() -> Vec<String> {
    let regimes = REGIMES.iter().map(|r| r.name().to_string());
    let fields = APPS.iter().flat_map(|app| {
        let of_app = |f: apps::FieldSpec| format!("{}/{}", app.name, f.name);
        (app.fields)().into_iter().map(of_app)
    });
    regimes.chain(fields).collect()
}

/// The one name → generator lookup.
///
/// `name` is a regime (`"smooth"`, `"turbulence"`, `"oscillatory"`,
/// `"shock"`, `"sparse"`, `"noise"` — stock knobs, ranks 1–4) or a
/// Table-III field as `"<app>/<field>"` (`"hurricane/TCf"`, `"nyx/temperature"`,
/// `"hacc/vx"`, …).  The field is synthesized over `dims` from `seed` at
/// `timestep` and stored at `dtype`; the same arguments always yield the same
/// bits.  The dataset is named after the generator (`"scenario"`/regime, or
/// app/field).
pub fn generate(
    name: &str,
    dims: &Dims,
    dtype: DType,
    seed: u64,
    timestep: usize,
) -> Result<Dataset, UnknownGenerator> {
    if let Some(regime) = Regime::parse(name) {
        let config = ScenarioConfig::new(regime).with_seed(seed);
        return Ok(config.synthesize(dims, dtype, timestep).0);
    }
    let app_field = name.split_once('/').and_then(|(app, field)| {
        let app = App::named(app)?;
        Some((app, app.field(field)?))
    });
    match app_field {
        Some((app, spec)) => {
            let values = spec.generate(app.name, dims, seed, timestep);
            Ok(store(app.name, spec.name, timestep, dims, dtype, values))
        }
        None => Err(UnknownGenerator {
            name: name.to_string(),
            suggestion: names()
                .into_iter()
                .map(|known| (edit_distance(name, &known), known))
                .filter(|&(d, _)| d <= 2)
                .min_by_key(|&(d, _)| d)
                .map(|(_, known)| known),
        }),
    }
}

/// Levenshtein distance over bytes, for did-you-mean suggestions (the names
/// it is asked about — generators, codecs, option keys — are ASCII).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// A synthetic application: a set of fields over a number of time-steps.
///
/// Fields are generated on demand ([`SyntheticDataset::field`]) so holding a
/// descriptor is cheap; generation is deterministic in the seed, field name
/// and time-step.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    app: &'static App,
    dims: Dims,
    timesteps: usize,
    seed: u64,
}

impl App {
    fn named(name: &str) -> Option<&'static App> {
        APPS.iter().find(|a| a.name == name)
    }

    fn field(&self, name: &str) -> Option<apps::FieldSpec> {
        (self.fields)().into_iter().find(|f| f.name == name)
    }

    fn instance(&'static self, dims: Dims, timesteps: usize, seed: u64) -> SyntheticDataset {
        SyntheticDataset {
            app: self,
            dims,
            timesteps,
            seed,
        }
    }
}

impl SyntheticDataset {
    /// Application name (e.g. `"hurricane"`).
    pub fn application(&self) -> &str {
        self.app.name
    }

    /// Science domain, as Table III prints it (e.g. `"Meteorology"`).
    pub fn domain(&self) -> &'static str {
        self.app.domain
    }

    /// Grid dimensions shared by every field.
    pub fn dims(&self) -> &Dims {
        &self.dims
    }

    /// Number of time-steps available.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    /// Names of the available fields.
    pub fn field_names(&self) -> Vec<String> {
        let fields = (self.app.fields)();
        fields.iter().map(|s| s.name.to_string()).collect()
    }

    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        (self.app.fields)().len()
    }

    /// Total uncompressed size in bytes across all fields and time-steps
    /// (single precision).
    pub fn total_bytes(&self) -> usize {
        self.num_fields() * self.timesteps * self.dims.len() * 4
    }

    /// Generate one field at one time-step, in single precision.
    ///
    /// # Panics
    /// Panics if the field name is unknown or the time-step is out of range.
    pub fn field(&self, name: &str, timestep: usize) -> Dataset {
        assert!(
            timestep < self.timesteps,
            "time-step {timestep} out of range (have {})",
            self.timesteps
        );
        let application = self.app.name;
        let spec = self
            .app
            .field(name)
            .unwrap_or_else(|| panic!("unknown field `{name}` in {application}"));
        let values = spec.generate(application, &self.dims, self.seed, timestep);
        store(application, name, timestep, &self.dims, DType::F32, values)
    }

    /// Generate the full time series of one field.
    pub fn series(&self, name: &str) -> Vec<Dataset> {
        (0..self.timesteps).map(|t| self.field(name, t)).collect()
    }
}

/// Hurricane-ISABEL-like meteorology: 3-D grid, 48 time-steps in the paper.
pub fn hurricane(nz: usize, ny: usize, nx: usize, timesteps: usize, seed: u64) -> SyntheticDataset {
    APPS[0].instance(Dims::d3(nz, ny, nx), timesteps, seed)
}

/// HACC-like cosmology particle snapshots: 1-D arrays; 101 time-steps in
/// the paper.
pub fn hacc(particles: usize, timesteps: usize, seed: u64) -> SyntheticDataset {
    APPS[1].instance(Dims::d1(particles), timesteps, seed)
}

/// CESM-ATM-like climate output: 2-D lat/lon fields; 62 time-steps in the
/// paper.
pub fn cesm(nlat: usize, nlon: usize, timesteps: usize, seed: u64) -> SyntheticDataset {
    APPS[2].instance(Dims::d2(nlat, nlon), timesteps, seed)
}

/// EXAALT-like molecular dynamics: 1-D coordinate arrays; 82 time-steps in
/// the paper.
pub fn exaalt(atoms: usize, timesteps: usize, seed: u64) -> SyntheticDataset {
    APPS[3].instance(Dims::d1(atoms), timesteps, seed)
}

/// NYX-like cosmological hydrodynamics: 3-D fields; 8 time-steps in the
/// paper.
pub fn nyx(nz: usize, ny: usize, nx: usize, timesteps: usize, seed: u64) -> SyntheticDataset {
    APPS[4].instance(Dims::d3(nz, ny, nx), timesteps, seed)
}

/// Construct an application by name with small default sizes (8
/// time-steps) — convenient for examples and tests.
///
/// Returns `None` for unknown names.  Recognized: `hurricane`, `hacc`,
/// `cesm`, `exaalt`, `nyx`.
pub fn by_name(name: &str, seed: u64) -> Option<SyntheticDataset> {
    let app = App::named(name)?;
    Some(app.instance(Dims::new(app.default_dims), 8, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hurricane_generation_is_deterministic() {
        let a = hurricane(8, 12, 12, 4, 99).field("TCf", 2);
        let b = hurricane(8, 12, 12, 4, 99).field("TCf", 2);
        assert_eq!(a, b);
        let c = hurricane(8, 12, 12, 4, 100).field("TCf", 2);
        assert_ne!(a.buffer, c.buffer);
    }

    #[test]
    fn all_apps_produce_all_fields() {
        for name in ["hurricane", "hacc", "cesm", "exaalt", "nyx"] {
            let app = by_name(name, 7).unwrap();
            assert!(app.num_fields() >= 3, "{name}");
            assert!(app.timesteps() >= 2, "{name}");
            let t = app.timesteps() - 1;
            for field in app.field_names() {
                let d = app.field(&field, t);
                assert_eq!(d.len(), app.dims().len(), "{name}/{field}");
                assert!(
                    d.values_f64().iter().all(|v| v.is_finite()),
                    "{name}/{field}"
                );
            }
        }
        assert!(by_name("unknown", 0).is_none());
    }

    #[test]
    fn generate_serves_every_regime_and_every_app_field() {
        let known = names();
        assert_eq!(known.len(), 6 + 8 + 6 + 6 + 3 + 5);
        let dims = Dims::d2(6, 8);
        for name in &known {
            for dtype in [DType::F32, DType::F64] {
                let dataset = generate(name, &dims, dtype, 5, 1).unwrap();
                assert_eq!((dataset.len(), dataset.dtype()), (48, dtype), "{name}");
                assert_eq!(dataset.timestep, 1);
                assert!(dataset.values_f64().iter().all(|v| v.is_finite()), "{name}");
            }
        }
        // The lookup and the per-family entry points emit the same bits.
        let looked_up = generate("cesm/PHIS", &Dims::d2(10, 20), DType::F32, 3, 2).unwrap();
        assert_eq!(looked_up, cesm(10, 20, 3, 3).field("PHIS", 2));
        let looked_up = generate("shock", &dims, DType::F64, 9, 4).unwrap();
        let config = ScenarioConfig::new(Regime::Shock).with_seed(9);
        assert_eq!(looked_up, config.synthesize(&dims, DType::F64, 4).0);
    }

    #[test]
    fn unknown_names_carry_the_closest_known_one() {
        let miss = |name: &str| generate(name, &Dims::d1(8), DType::F32, 0, 0).unwrap_err();
        assert_eq!(miss("noize").suggestion.as_deref(), Some("noise"));
        assert_eq!(miss("shok").suggestion.as_deref(), Some("shock"));
        assert_eq!(
            miss("nyx/temperatur").suggestion.as_deref(),
            Some("nyx/temperature")
        );
        assert_eq!(miss("completely-different").suggestion, None);
        assert_eq!(
            miss("hurricane").suggestion,
            None,
            "an app alone is not a field"
        );
        let message = miss("turbulance").to_string();
        assert!(
            message.contains("unknown generator `turbulance`"),
            "{message}"
        );
        assert!(message.contains("did you mean `turbulence`?"), "{message}");
        assert!(message.contains("hurricane/TCf"), "{message}");
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    #[should_panic(expected = "unknown field")]
    fn unknown_field_panics() {
        hurricane(4, 4, 4, 2, 1).field("nope", 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_timestep_panics() {
        hurricane(4, 4, 4, 2, 1).field("TCf", 5);
    }

    #[test]
    fn temporal_coherence_of_smooth_fields() {
        let app = hurricane(8, 16, 16, 6, 3);
        let t0 = app.field("TCf", 0).values_f64();
        let t1 = app.field("TCf", 1).values_f64();
        let t5 = app.field("TCf", 5).values_f64();
        let rmse = |a: &[f64], b: &[f64]| {
            (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64).sqrt()
        };
        assert!(rmse(&t0, &t1) < rmse(&t0, &t5));
    }

    #[test]
    fn cloud_field_is_sparse() {
        let app = hurricane(8, 16, 16, 2, 5);
        let cloud = app.field("CLOUDf", 0).values_f64();
        let zeros = cloud.iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > cloud.len() / 4, "zeros={}/{}", zeros, cloud.len());
    }

    #[test]
    fn hacc_positions_stay_in_box() {
        let app = hacc(5000, 3, 11);
        for t in 0..3 {
            let x = app.field("x", t).values_f64();
            assert!(x.iter().all(|&v| (0.0..256.0).contains(&v)));
        }
    }

    #[test]
    fn hacc_fields_share_particle_cloud_across_axes() {
        // Deterministic: x at t=0 equals x at t=0 from a fresh instance even
        // after generating y first (generation order must not matter).
        let app = hacc(2000, 2, 13);
        let _ = app.field("y", 0);
        let x1 = app.field("x", 0);
        let x2 = hacc(2000, 2, 13).field("x", 0);
        assert_eq!(x1, x2);
    }

    #[test]
    fn exaalt_positions_look_like_a_lattice() {
        let app = exaalt(8000, 2, 17);
        let x = app.field("x", 0).values_f64();
        let stats = crate::FieldStats::compute(&x);
        // 8000 atoms -> side 20 -> coordinates roughly within [0, 20*2.87].
        assert!(stats.max < 20.5 * 2.87 + 1.0);
        assert!(stats.min > -1.0);
    }

    #[test]
    fn nyx_densities_are_positive_and_skewed() {
        let app = nyx(16, 16, 16, 2, 23);
        let rho = app.field("baryon_density", 0).values_f64();
        assert!(rho.iter().all(|&v| v > 0.0));
        let stats = crate::FieldStats::compute(&rho);
        assert!(
            stats.max / stats.mean > 3.0,
            "density should be heavy-tailed"
        );
    }

    #[test]
    fn total_bytes_matches_shape() {
        let app = cesm(10, 20, 3, 1);
        assert_eq!(app.total_bytes(), 6 * 3 * 200 * 4);
    }
}
