//! The workspace codecs behind the [`Compressor`] trait: one table.
//!
//! Every built-in codec is one row of [`install_builtins`]: the
//! [`CodecDescriptor`] that names it, says what its scalar parameter means
//! and which grids it accepts, plus the codec settings its options select.
//! One private `Builtin` serves every row and reads name, bound kind and
//! grids from the descriptor its row registered, so each of those facts is
//! written once.  Each codec sits behind a cargo feature of the same family
//! (`sz`, `zfp`, `mgard`, `szx`, all on by default) so slim builds can drop
//! the codec crates they do not ship.

// With every codec feature off the table has no rows: the one impl below is
// still compiled, but no `Codec` exists to reach its arms.
#![cfg_attr(
    not(any(feature = "sz", feature = "zfp", feature = "mgard", feature = "szx")),
    allow(unused_mut, unused_variables)
)]

use std::ops::Range;
use std::sync::Arc;

use fraz_data::{Dataset, Dims, Encoded, Want};
#[cfg(feature = "mgard")]
use fraz_mgard::{ErrorNorm, MgardConfig};
#[cfg(feature = "sz")]
use fraz_sz::SzConfig;
#[cfg(feature = "szx")]
use fraz_szx::SzxConfig;
#[cfg(feature = "zfp")]
use fraz_zfp::ZfpConfig;

#[cfg(feature = "mgard")]
use crate::descriptor::DimRange;
#[cfg(any(feature = "sz", feature = "szx"))]
use crate::descriptor::OptionDescriptor;
use crate::descriptor::{BoundKind, CodecDescriptor};
#[cfg(any(feature = "sz", feature = "szx"))]
use crate::options::OptionKind;
use crate::options::Options;
use crate::registry::Registry;
use crate::{crop_of_decompress, CompressionOutcome, Compressor, PressioError};

/// Smallest error-bound setting offered to the search, as a fraction of the
/// field's value range (below this the codecs are effectively lossless and
/// searching finer bounds is pointless).
const MIN_BOUND_FRACTION: f64 = 1e-9;

fn range_based_bounds(dataset: &Dataset) -> (f64, f64) {
    let range = dataset.value_range();
    if range > 0.0 && range.is_finite() {
        (range * MIN_BOUND_FRACTION, range)
    } else {
        // Constant or degenerate field: any tiny positive bound works.
        (1e-12, 1.0)
    }
}

/// The codec settings a row's options select; the scalar parameter arrives
/// with each call.
enum Codec {
    /// SZ-like blockwise prediction + quantization (absolute error bound).
    #[cfg(feature = "sz")]
    Sz(SzConfig),
    /// ZFP-like block transform, fixed-accuracy mode.
    #[cfg(feature = "zfp")]
    ZfpAccuracy,
    /// ZFP-like block transform, fixed-rate mode: the parameter is the
    /// bits-per-value rate, the paper's baseline (Figs 1, 9, 10) and not a
    /// FRaZ search target.
    #[cfg(feature = "zfp")]
    ZfpRate,
    /// MGARD-like multilevel decomposition under an ∞-norm or L2 bound.
    #[cfg(feature = "mgard")]
    Mgard(ErrorNorm),
    /// SZx-like blockwise constant/unpredictable classification with
    /// IEEE-754 bit truncation: roughly an order of magnitude faster than
    /// sz on both paths, at lower ratios at tight bounds.
    #[cfg(feature = "szx")]
    Szx(SzxConfig),
}

/// One registered row: the descriptor it was registered with, and its codec.
struct Builtin {
    descriptor: Arc<CodecDescriptor>,
    codec: Codec,
}

impl Builtin {
    /// Refuse a grid outside the descriptor's range before the codec reads
    /// the bound.
    fn check_dims(&self, dims: &Dims) -> Result<(), PressioError> {
        if self.supports_dims(dims) {
            return Ok(());
        }
        Err(PressioError::Unsupported(format!(
            "{} accepts {} data, not {}-D",
            self.name(),
            self.descriptor.dims,
            dims.ndims()
        )))
    }

    /// The one encoder `match`: the row's codec at `error_bound`, asked for
    /// `want`, after the grid check.
    fn encode(
        &self,
        dataset: &Dataset,
        error_bound: f64,
        want: Want,
    ) -> Result<Encoded, PressioError> {
        self.check_dims(&dataset.dims)?;
        match self.codec {
            #[cfg(feature = "sz")]
            Codec::Sz(ref config) => fraz_sz::encode(dataset, &sz_at(config, error_bound), want),
            #[cfg(feature = "zfp")]
            Codec::ZfpAccuracy => {
                fraz_zfp::encode(dataset, &ZfpConfig::accuracy(error_bound), want)
            }
            #[cfg(feature = "zfp")]
            Codec::ZfpRate => fraz_zfp::encode(dataset, &ZfpConfig::rate(error_bound), want),
            #[cfg(feature = "mgard")]
            Codec::Mgard(norm) => {
                let config = MgardConfig {
                    tolerance: error_bound,
                    norm,
                };
                fraz_mgard::encode(dataset, &config, want)
            }
            #[cfg(feature = "szx")]
            Codec::Szx(ref config) => fraz_szx::encode(dataset, &szx_at(config, error_bound), want),
        }
    }
}

impl Compressor for Builtin {
    fn name(&self) -> &str {
        &self.descriptor.name
    }
    fn bound_kind(&self) -> BoundKind {
        self.descriptor.bound_kind
    }
    fn supports_dims(&self, dims: &Dims) -> bool {
        self.descriptor.dims.supports(dims)
    }
    fn bound_range(&self, dataset: &Dataset) -> (f64, f64) {
        match self.codec {
            #[cfg(feature = "zfp")]
            Codec::ZfpRate => (0.5, 32.0),
            _ => range_based_bounds(dataset),
        }
    }
    fn compress(&self, dataset: &Dataset, error_bound: f64) -> Result<Vec<u8>, PressioError> {
        self.encode(dataset, error_bound, Want::Stream)
            .map(Encoded::into_stream)
    }
    fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
        match self.codec {
            #[cfg(feature = "sz")]
            Codec::Sz(_) => fraz_sz::decompress(data),
            #[cfg(feature = "zfp")]
            Codec::ZfpAccuracy | Codec::ZfpRate => fraz_zfp::decompress(data),
            #[cfg(feature = "mgard")]
            Codec::Mgard(_) => fraz_mgard::decompress(data),
            #[cfg(feature = "szx")]
            Codec::Szx(_) => fraz_szx::decompress(data),
        }
    }
    /// sz decodes only the blocks the region needs; the others decode the
    /// whole stream and crop it, the trait's default body.
    fn decompress_region(
        &self,
        data: &[u8],
        dims: &Dims,
        region: &[Range<usize>],
    ) -> Result<Dataset, PressioError> {
        match self.codec {
            #[cfg(feature = "sz")]
            Codec::Sz(_) => fraz_sz::decompress_region(data, dims, region),
            #[allow(unreachable_patterns)]
            _ => crop_of_decompress(self, data, dims, region),
        }
    }
    /// The trait's default body's answer for less work: a ratio asks the
    /// codec for its size only (szx writes no stream; sz and mgard hand back
    /// the reconstruction they built on the outcome), and a quality report
    /// measures the reconstruction the encoder built (sz, mgard, szx — which
    /// writes no stream for it either) or decoded (zfp).
    fn evaluate(
        &self,
        dataset: &Dataset,
        error_bound: f64,
        measure_quality: bool,
    ) -> Result<CompressionOutcome, PressioError> {
        let want = if measure_quality {
            Want::Measured
        } else {
            Want::Size
        };
        let encoded = self.encode(dataset, error_bound, want)?;
        Ok(CompressionOutcome::of_encoded(
            self.name(),
            dataset,
            error_bound,
            encoded,
            want,
        ))
    }
}

/// A row's sz settings at one bound.
#[cfg(feature = "sz")]
fn sz_at(config: &SzConfig, error_bound: f64) -> SzConfig {
    SzConfig {
        error_bound,
        ..*config
    }
}

/// A row's szx settings at one bound.
#[cfg(feature = "szx")]
fn szx_at(config: &SzxConfig, error_bound: f64) -> SzxConfig {
    SzxConfig {
        error_bound,
        ..*config
    }
}

/// Register the built-in codecs enabled by this crate's codec features
/// (all six with the default feature set: `sz`, `zfp`, `zfp-rate`, `szx`,
/// `mgard`, `mgard-l2`).
///
/// This is the only place the workspace's own codecs touch the registry;
/// everything else (examples, benches, FRaZ itself) goes through
/// [`Registry::build`] like an out-of-tree codec would.
pub fn install_builtins(registry: &mut Registry) {
    let mut row = |descriptor: CodecDescriptor, codec: fn(&Options) -> Codec| {
        let registered = Arc::new(descriptor.clone());
        registry
            .register(descriptor, move |options| {
                Ok(Box::new(Builtin {
                    descriptor: Arc::clone(&registered),
                    codec: codec(options),
                }))
            })
            .expect("a fresh registry holds no built-in yet");
    };

    #[cfg(feature = "sz")]
    row(
        CodecDescriptor::new("sz", BoundKind::AbsoluteError)
            .with_summary("SZ-like blockwise prediction + quantization compressor")
            .with_option(
                OptionDescriptor::new("sz:block_size", OptionKind::U64)
                    .with_range(2.0, 4096.0)
                    .with_doc("block edge length; unset selects 6 (3-D), 16 (2-D) or 256 (1-D)"),
            )
            .with_option(
                OptionDescriptor::new("sz:quant_capacity", OptionKind::U64)
                    .with_default(65536u64)
                    .with_range(16.0, 1_048_576.0)
                    .with_doc("number of linear-scaling quantization bins"),
            ),
        |options| {
            let default = SzConfig::default();
            Codec::Sz(SzConfig {
                block_size: options.get_u64("sz:block_size").map(|b| b as usize),
                quant_capacity: options
                    .get_u64("sz:quant_capacity")
                    .map_or(default.quant_capacity, |c| c as u32),
                ..default
            })
        },
    );
    #[cfg(feature = "zfp")]
    row(
        CodecDescriptor::new("zfp", BoundKind::AccuracyTolerance)
            .with_alias("zfp-accuracy")
            .with_summary("ZFP-like block-transform compressor, fixed-accuracy mode"),
        |_| Codec::ZfpAccuracy,
    );
    #[cfg(feature = "zfp")]
    row(
        CodecDescriptor::new("zfp-rate", BoundKind::BitsPerValue)
            .with_alias("zfp-fixed-rate")
            .with_summary("ZFP-like compressor, fixed-rate baseline mode"),
        |_| Codec::ZfpRate,
    );
    #[cfg(feature = "mgard")]
    row(
        CodecDescriptor::new("mgard", BoundKind::InfinityNorm)
            .with_dims(DimRange::new(2, 3))
            .with_summary("MGARD-like multilevel compressor, infinity-norm error control"),
        |_| Codec::Mgard(ErrorNorm::Infinity),
    );
    #[cfg(feature = "mgard")]
    row(
        CodecDescriptor::new("mgard-l2", BoundKind::L2Norm)
            .with_dims(DimRange::new(2, 3))
            .with_summary("MGARD-like multilevel compressor, L2-norm (RMS) error control"),
        |_| Codec::Mgard(ErrorNorm::L2),
    );
    #[cfg(feature = "szx")]
    row(
        CodecDescriptor::new("szx", BoundKind::AbsoluteError)
            .with_summary("SZx-like ultra-fast blockwise-truncation compressor")
            .with_option(
                OptionDescriptor::new("szx:block_size", OptionKind::U64)
                    .with_default(128u64)
                    .with_range(1.0, fraz_szx::MAX_BLOCK_SIZE as f64)
                    .with_doc("values per constant/unpredictable classification block"),
            ),
        |options| {
            Codec::Szx(SzxConfig {
                block_size: options.get_u64("szx:block_size").map(|b| b as usize),
                ..SzxConfig::default()
            })
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fraz_data::Dims;

    #[allow(dead_code)] // unused only in slim feature combinations
    fn build(name: &str, options: &Options) -> Box<dyn Compressor> {
        Registry::with_builtins().build(name, options).unwrap()
    }

    fn smooth(dims: Dims) -> Dataset {
        let n = dims.len();
        let cols = *dims.as_slice().last().unwrap();
        let values: Vec<f32> = (0..n)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                ((c as f32 * 0.1).sin() + (r as f32 * 0.07).cos()) * 10.0
            })
            .collect();
        Dataset::from_f32("t", "f", 0, dims, values)
    }

    #[allow(dead_code)] // unused only in slim feature combinations
    fn max_error(a: &Dataset, b: &Dataset) -> f64 {
        a.values_f64()
            .iter()
            .zip(b.values_f64().iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[cfg(all(feature = "sz", feature = "zfp", feature = "mgard", feature = "szx"))]
    #[test]
    fn error_bounded_backends_roundtrip_within_bound() {
        let dataset = smooth(Dims::d2(40, 50));
        for name in ["sz", "zfp", "mgard", "szx"] {
            let backend = build(name, &Options::new());
            let outcome = backend.evaluate(&dataset, 1e-3, true).unwrap();
            let quality = outcome.quality.expect("quality requested");
            assert!(
                quality.max_abs_error <= 1e-3,
                "{name}: {}",
                quality.max_abs_error
            );
            assert!(outcome.compression_ratio > 1.0, "{name}");
        }
    }

    #[cfg(feature = "sz")]
    #[test]
    fn roundtrip_preserves_data_through_trait_object() {
        let dataset = smooth(Dims::d3(8, 12, 12));
        let backend = build("sz", &Options::new());
        let compressed = backend.compress(&dataset, 1e-4).unwrap();
        let restored = backend.decompress(&compressed).unwrap();
        assert!(max_error(&dataset, &restored) <= 1e-4);
        assert_eq!(restored.dims, dataset.dims);
    }

    #[cfg(feature = "zfp")]
    #[test]
    fn zfp_rate_backend_controls_size_directly() {
        let dataset = smooth(Dims::d3(8, 16, 16));
        let backend = build("zfp-rate", &Options::new());
        let o4 = backend.evaluate(&dataset, 4.0, false).unwrap();
        let o8 = backend.evaluate(&dataset, 8.0, false).unwrap();
        assert!(o4.compressed_bytes < o8.compressed_bytes);
        // 4 bits/value on 32-bit floats is ~8:1, allowing for the header.
        assert!(
            (o4.compression_ratio - 8.0).abs() < 1.0,
            "{}",
            o4.compression_ratio
        );
        assert_eq!(backend.bound_kind(), BoundKind::BitsPerValue);
        assert_eq!(backend.bound_kind().label(), "bits per value");
        assert_eq!(backend.bound_range(&dataset), (0.5, 32.0));
    }

    #[cfg(all(feature = "sz", feature = "zfp", feature = "mgard", feature = "szx"))]
    #[test]
    fn bound_ranges_are_sane() {
        let dataset = smooth(Dims::d2(30, 30));
        for name in ["sz", "zfp", "mgard-l2", "szx"] {
            let (lo, hi) = build(name, &Options::new()).bound_range(&dataset);
            assert!(lo > 0.0 && lo < hi, "{name}: ({lo}, {hi})");
            assert!(hi <= dataset.stats().value_range() * 1.001);
        }
        // Constant field falls back to a default range.
        let flat = Dataset::from_f32("t", "f", 0, Dims::d2(4, 4), vec![3.0; 16]);
        let (lo, hi) = build("sz", &Options::new()).bound_range(&flat);
        assert!(lo > 0.0 && hi > lo);
    }

    #[cfg(feature = "sz")]
    #[test]
    fn sz_backend_honours_options() {
        let dataset = smooth(Dims::d2(20, 20));
        let default = build("sz", &Options::new());
        let opts = Options::new()
            .with("sz:block_size", 4u64)
            .with("sz:quant_capacity", 1024u64);
        let backend = build("sz", &opts);
        let expected = SzConfig {
            error_bound: 1e-3,
            block_size: Some(4),
            quant_capacity: 1024,
        };
        assert_eq!(
            backend.compress(&dataset, 1e-3).unwrap(),
            fraz_sz::compress(&dataset, &expected).unwrap()
        );
        assert_ne!(
            backend.compress(&dataset, 1e-3).unwrap(),
            default.compress(&dataset, 1e-3).unwrap()
        );
        let outcome = backend.evaluate(&dataset, 1e-3, true).unwrap();
        assert!(outcome.quality.unwrap().max_abs_error <= 1e-3);
    }

    #[test]
    fn the_boundary_classifies_refused_bounds_and_grids() {
        let registry = Registry::with_builtins();
        for name in registry.names() {
            let codec = registry.build(&name, &Options::new()).unwrap();
            let ranks = registry.describe(&name).unwrap().dims;
            let dataset = smooth(Dims::new(&vec![8; ranks.min]));
            for bound in [0.0, -1.0, f64::NAN, f64::INFINITY] {
                let what = format!("{name} at {bound}");
                assert!(
                    matches!(
                        codec.compress(&dataset, bound),
                        Err(PressioError::InvalidBound(_))
                    ),
                    "{what}: compress"
                );
                for quality in [false, true] {
                    assert!(
                        matches!(
                            codec.evaluate(&dataset, bound, quality),
                            Err(PressioError::InvalidBound(_))
                        ),
                        "{what}: evaluate(.., {quality})"
                    );
                }
            }
            // A rank outside the descriptor is refused before the bound is
            // read.
            for rank in (1..=4).filter(|rank| !(ranks.min..=ranks.max).contains(rank)) {
                let dataset = smooth(Dims::new(&vec![8; rank]));
                assert!(!codec.supports_dims(&dataset.dims), "{name} on {rank}-D");
                for bound in [1e-3, -1.0] {
                    let what = format!("{name} on {rank}-D at {bound}");
                    assert!(
                        matches!(
                            codec.compress(&dataset, bound),
                            Err(PressioError::Unsupported(_))
                        ),
                        "{what}: compress"
                    );
                    for quality in [false, true] {
                        assert!(
                            matches!(
                                codec.evaluate(&dataset, bound, quality),
                                Err(PressioError::Unsupported(_))
                            ),
                            "{what}: evaluate(.., {quality})"
                        );
                    }
                }
            }
        }
    }

    #[cfg(feature = "szx")]
    #[test]
    fn szx_backend_roundtrips_and_honours_options() {
        let dataset = smooth(Dims::d3(8, 12, 12));
        let backend = build("szx", &Options::new().with("szx:block_size", 64u64));
        let expected = SzxConfig {
            error_bound: 1e-3,
            block_size: Some(64),
        };
        assert_eq!(
            backend.compress(&dataset, 1e-3).unwrap(),
            fraz_szx::compress(&dataset, &expected).unwrap()
        );
        for bound in [1e-2, 1e-5] {
            let outcome = backend.evaluate(&dataset, bound, true).unwrap();
            assert!(outcome.quality.unwrap().max_abs_error <= bound, "{bound}");
            assert!(outcome.compression_ratio > 1.0, "{bound}");
        }
        // Ultra-fast tier contract: szx must stay decompressible through the
        // trait object like every other backend.
        let compressed = backend.compress(&dataset, 1e-3).unwrap();
        let restored = backend.decompress(&compressed).unwrap();
        assert!(max_error(&dataset, &restored) <= 1e-3);
        assert_eq!(restored.dims, dataset.dims);
    }
}
