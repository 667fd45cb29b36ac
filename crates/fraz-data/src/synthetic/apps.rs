//! The five SDRBench applications of the paper's Table III, as one table.
//!
//! Each [`App`] row mirrors one application: the same dimensionality, a
//! comparable set of fields, strong temporal coherence, and value
//! distributions chosen so the error-bounded compressors behave the way the
//! paper describes (smooth fields compress extremely well, particle data
//! poorly, sparse log-transformed fields non-monotonically).  Grid sizes
//! are parameters so tests can run on tiny grids while the benchmark
//! harness uses larger ones.

use rand::Rng;

use crate::dims::Dims;

use super::field_gen::Transform::{Exponential, Identity, Sparse, SparseLog10};
use super::field_gen::{add_noise, eval_modes, normal, rng_for, sample_grid, Mode, Transform};

/// The random-mode budget of one Eulerian field.
#[derive(Debug, Clone, Copy)]
struct Spectrum {
    /// Number of random Fourier modes.
    modes: usize,
    /// Largest wavenumber (cycles across the domain) sampled.
    max_wavenumber: f64,
    /// Spectral slope: amplitude ~ (1 + |k|)^(-slope).  Larger = smoother.
    slope: f64,
    /// Standard deviation of per-mode temporal frequency (radians/step).
    temporal_rate: f64,
}

fn spectrum(modes: usize, max_wavenumber: f64, slope: f64, temporal_rate: f64) -> Spectrum {
    Spectrum {
        modes,
        max_wavenumber,
        slope,
        temporal_rate,
    }
}

impl Spectrum {
    /// Draw the modes: three wave-vector components each, whatever the grid
    /// rank (the draw order is part of the bit-for-bit contract).
    fn draw(&self, rng: &mut impl Rng) -> Vec<Mode> {
        use std::f64::consts::TAU;
        let kmax = self.max_wavenumber;
        (0..self.modes)
            .map(|_| {
                let k = [
                    rng.gen_range(-kmax..kmax),
                    rng.gen_range(-kmax..kmax),
                    rng.gen_range(-kmax..kmax),
                ];
                let kmag = (k[0] * k[0] + k[1] * k[1] + k[2] * k[2]).sqrt();
                let amp = (1.0 + kmag).powf(-self.slope) * (0.5 + rng.gen_range(0.0..1.0));
                let phase = rng.gen_range(0.0..TAU);
                let omega = normal(rng) * self.temporal_rate;
                Mode {
                    k: [k[0] * TAU, k[1] * TAU, k[2] * TAU, 0.0],
                    amp,
                    phase,
                    omega,
                }
            })
            .collect()
    }
}

/// How one field of an application is produced.
#[derive(Debug, Clone, Copy)]
enum FieldKind {
    /// Smooth (optionally transformed) Eulerian field on the grid.
    Spectral {
        spectrum: Spectrum,
        transform: Transform,
        scale: f64,
        offset: f64,
        noise: f64,
    },
    /// Lagrangian particle coordinates in a periodic box (HACC-like): nearly
    /// uniform positions drifting with per-particle velocities.
    ParticlePosition { box_size: f64, axis: usize },
    /// Per-particle velocity components (Gaussian with bulk flows).
    ParticleVelocity { sigma: f64, axis: usize },
    /// Molecular-dynamics coordinates: a perturbed lattice with thermal
    /// vibration (EXAALT-like).
    LatticePosition {
        spacing: f64,
        thermal: f64,
        axis: usize,
    },
}

/// One field of an application.
#[derive(Debug, Clone, Copy)]
pub(super) struct FieldSpec {
    pub name: &'static str,
    kind: FieldKind,
}

/// A smooth field family member: `transform(modes) · scale + offset`, plus
/// white noise of `noise · |scale|`.
fn smooth(
    name: &'static str,
    spectrum: Spectrum,
    transform: Transform,
    (scale, offset, noise): (f64, f64, f64),
) -> FieldSpec {
    let kind = FieldKind::Spectral {
        spectrum,
        transform,
        scale,
        offset,
        noise,
    };
    FieldSpec { name, kind }
}

/// A sparse field family member: the thresholding transform alone, no
/// rescale and no noise (the zeros must stay exactly zero).
fn sparse(name: &'static str, spectrum: Spectrum, transform: Transform) -> FieldSpec {
    smooth(name, spectrum, transform, (1.0, 0.0, 0.0))
}

/// An `x`/`y`/`z`-style triple: one per-particle field per axis.
fn axes(names: [&'static str; 3], kind: impl Fn(usize) -> FieldKind) -> Vec<FieldSpec> {
    let spec = |(axis, name)| FieldSpec {
        name,
        kind: kind(axis),
    };
    names.into_iter().enumerate().map(spec).collect()
}

/// Hurricane-ISABEL-like meteorology: 13 fields in the paper, of which a
/// representative 8 are generated (smooth temperature/pressure/wind plus
/// sparse cloud fields and their `.log10` variant).
fn hurricane_fields() -> Vec<FieldSpec> {
    let s = |max_wavenumber, slope| spectrum(40, max_wavenumber, slope, 0.12);
    vec![
        smooth("TCf", s(5.0, 2.0), Identity, (8.0, 25.0, 0.002)),
        smooth("Pf", s(3.0, 2.5), Identity, (400.0, 96_000.0, 0.001)),
        smooth("Uf", s(6.0, 1.8), Identity, (20.0, 0.0, 0.004)),
        smooth("Vf", s(6.0, 1.8), Identity, (20.0, 0.0, 0.004)),
        smooth("Wf", s(8.0, 1.5), Identity, (2.0, 0.0, 0.01)),
        smooth("QVAPORf", s(5.0, 2.0), Exponential(1.2), (0.01, 0.0, 0.001)),
        sparse("CLOUDf", s(7.0, 1.6), Sparse(0.6, 1e-3)),
        sparse("QCLOUDf.log10", s(7.0, 1.6), SparseLog10(0.6, 1e-3, 1e-7)),
    ]
}

/// HACC-like cosmology particle snapshots: positions (x, y, z) and
/// velocities (vx, vy, vz).
fn hacc_fields() -> Vec<FieldSpec> {
    let position = |axis| FieldKind::ParticlePosition {
        box_size: 256.0,
        axis,
    };
    let velocity = |axis| FieldKind::ParticleVelocity { sigma: 300.0, axis };
    let mut fields = axes(["x", "y", "z"], position);
    fields.extend(axes(["vx", "vy", "vz"], velocity));
    fields
}

/// CESM-ATM-like climate output: the six fields the paper uses.
fn cesm_fields() -> Vec<FieldSpec> {
    let cloudy = |name, threshold| {
        let s = spectrum(48, 10.0, 1.4, 0.2);
        sparse(name, s, Sparse(threshold, 0.8))
    };
    let (flux, terrain) = (spectrum(32, 4.0, 2.0, 0.15), spectrum(64, 12.0, 1.2, 0.0));
    vec![
        cloudy("CLDHGH", 0.1),
        cloudy("CLDLOW", 0.0),
        cloudy("CLOUD", -0.1),
        smooth("FLDSC", flux, Identity, (60.0, 280.0, 0.002)),
        cloudy("FREQSH", 0.3),
        smooth("PHIS", terrain, Exponential(1.5), (800.0, 0.0, 0.0)),
    ]
}

/// EXAALT-like molecular dynamics: coordinates (x, y, z) of atoms on a
/// thermally vibrating lattice.
fn exaalt_fields() -> Vec<FieldSpec> {
    axes(["x", "y", "z"], |axis| FieldKind::LatticePosition {
        spacing: 2.87,
        thermal: 0.03,
        axis,
    })
}

/// NYX-like cosmological hydrodynamics: log-normal densities and
/// temperature, smooth velocities.
fn nyx_fields() -> Vec<FieldSpec> {
    let velocity = |name| {
        let s = spectrum(40, 6.0, 1.7, 0.1);
        smooth(name, s, Identity, (2.0e7, 0.0, 0.002))
    };
    let density = |name, max_wavenumber, slope, contrast| {
        let s = spectrum(48, max_wavenumber, slope, 0.08);
        smooth(name, s, Exponential(contrast), (1.0, 0.0, 0.0))
    };
    let (temperature, kelvin) = (spectrum(40, 7.0, 1.6, 0.08), (1.0e4, 1.0e3, 0.001));
    vec![
        density("baryon_density", 9.0, 1.3, 2.0),
        density("dark_matter_density", 10.0, 1.2, 2.4),
        smooth("temperature", temperature, Exponential(1.0), kelvin),
        velocity("velocity_x"),
        velocity("velocity_y"),
    ]
}

/// One row of the application table.
#[derive(Debug)]
pub(super) struct App {
    /// Application name (e.g. `"hurricane"`).
    pub name: &'static str,
    /// Science domain, as Table III prints it.
    pub domain: &'static str,
    /// The small default grid [`super::by_name`] instantiates.
    pub default_dims: &'static [usize],
    /// The application's fields.
    pub fields: fn() -> Vec<FieldSpec>,
}

/// The five applications of Table III, in the paper's order.
pub(super) static APPS: [App; 5] = [
    App {
        name: "hurricane",
        domain: "Meteorology",
        default_dims: &[16, 32, 32],
        fields: hurricane_fields,
    },
    App {
        name: "hacc",
        domain: "Cosmology",
        default_dims: &[32_768],
        fields: hacc_fields,
    },
    App {
        name: "cesm",
        domain: "Climate",
        default_dims: &[96, 192],
        fields: cesm_fields,
    },
    App {
        name: "exaalt",
        domain: "Molecular Dyn.",
        default_dims: &[32_768],
        fields: exaalt_fields,
    },
    App {
        name: "nyx",
        domain: "Cosmology",
        default_dims: &[32, 32, 32],
        fields: nyx_fields,
    },
];

impl FieldSpec {
    /// The field's values over `dims` at time-step `t`, in `f64`.
    /// Deterministic in `(application, field, seed, dims, t)`.
    pub fn generate(&self, application: &str, dims: &Dims, seed: u64, t: usize) -> Vec<f64> {
        let label = format!("{application}/{}", self.name);
        let n = dims.len();
        match self.kind {
            FieldKind::Spectral {
                spectrum,
                transform,
                scale,
                offset,
                noise,
            } => {
                let modes = spectrum.draw(&mut rng_for(seed, &label));
                let mut values = sample_grid(dims, |c| eval_modes(&modes, c, t as f64));
                transform.apply_all(&mut values);
                for v in values.iter_mut() {
                    *v = *v * scale + offset;
                }
                if noise > 0.0 {
                    let mut noise_rng = rng_for(seed, &format!("{label}/noise/{t}"));
                    add_noise(&mut values, &mut noise_rng, noise * scale.abs());
                }
                values
            }
            FieldKind::ParticlePosition { box_size, axis } => {
                let mut rng = rng_for(seed, &format!("{application}/particles"));
                // Base positions and velocities are shared by the x/y/z
                // fields so the particle cloud is consistent across axes.
                let mut pos = vec![[0.0f64; 3]; n];
                let mut vel = vec![[0.0f64; 3]; n];
                // Clustered positions: a fraction of particles concentrate
                // around halo centres, the rest are uniform.
                let n_halos = (n / 2000).max(4);
                let halos: Vec<[f64; 3]> = (0..n_halos)
                    .map(|_| {
                        [
                            rng.gen_range(0.0..box_size),
                            rng.gen_range(0.0..box_size),
                            rng.gen_range(0.0..box_size),
                        ]
                    })
                    .collect();
                for i in 0..n {
                    let clustered = rng.gen_bool(0.35);
                    for a in 0..3 {
                        pos[i][a] = if clustered {
                            let h = &halos[i % n_halos];
                            (h[a] + normal(&mut rng) * box_size * 0.02).rem_euclid(box_size)
                        } else {
                            rng.gen_range(0.0..box_size)
                        };
                        vel[i][a] = normal(&mut rng) * box_size * 2e-4;
                    }
                }
                (0..n)
                    .map(|i| (pos[i][axis] + vel[i][axis] * t as f64).rem_euclid(box_size))
                    .collect()
            }
            FieldKind::ParticleVelocity { sigma, axis } => {
                let mut rng = rng_for(seed, &format!("{application}/velocities/{axis}"));
                let bulk = normal(&mut rng) * sigma * 0.3;
                let mut accel_rng = rng_for(seed, &format!("{label}/accel"));
                let drift = normal(&mut accel_rng) * sigma * 0.01;
                (0..n)
                    .map(|_| bulk + drift * t as f64 + normal(&mut rng) * sigma)
                    .collect()
            }
            FieldKind::LatticePosition {
                spacing,
                thermal,
                axis,
            } => {
                // Atoms sit near the sites of a 1-D projection of an FCC-like
                // lattice and vibrate thermally; vibration is resampled per
                // time-step but site assignment is fixed.
                let side = (n as f64).cbrt().ceil() as usize;
                let mut site_rng = rng_for(seed, &format!("{application}/sites"));
                let jitter: Vec<f64> = (0..n).map(|_| normal(&mut site_rng) * 0.05).collect();
                let mut vib_rng = rng_for(seed, &format!("{label}/vibration/{t}"));
                (0..n)
                    .map(|i| {
                        let coord = match axis {
                            0 => i % side,
                            1 => (i / side) % side,
                            _ => i / (side * side),
                        };
                        (coord as f64 + jitter[i]) * spacing
                            + normal(&mut vib_rng) * thermal * spacing
                    })
                    .collect()
            }
        }
    }
}
