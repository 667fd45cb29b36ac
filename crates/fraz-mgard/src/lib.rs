//! An MGARD-like multilevel error-controlled lossy compressor.
//!
//! MGARD (MultiGrid Adaptive Reduction of Data) decomposes a field over a
//! hierarchy of dyadic grids and stores quantized multilevel coefficients,
//! offering *guaranteed, computable* bounds on the reconstruction error in a
//! choice of norms.  This crate reproduces that structure in a simplified
//! but behaviour-preserving form (see DESIGN.md):
//!
//! * a dyadic grid hierarchy with multilinear interpolation between levels
//!   ([`hierarchy`]),
//! * coefficients quantized against the *reconstructed* coarser levels, so
//!   the ∞-norm (absolute-error) guarantee holds exactly,
//! * an L2-norm mode that maps a target L2/RMS error to the equivalent
//!   uniform quantization step,
//! * Huffman + LZSS back-end coding (the same lossless substrate SZ uses,
//!   including its per-thread reusable dictionary encoder — repeated
//!   compressions from the search loop's pool workers pay the LZSS scratch
//!   allocation once per worker, not once per call).
//!
//! Like the original MGARD 0.x evaluated in the FRaZ paper, **1-D data is
//! not supported** — the paper's Fig. 9(d)/(e) omit MGARD for HACC and
//! EXAALT for the same reason.
//!
//! # Example
//!
//! ```
//! use fraz_data::{Dataset, Dims};
//! use fraz_mgard::{compress, decompress, MgardConfig};
//!
//! let values: Vec<f32> = (0..64 * 64)
//!     .map(|i| ((i % 64) as f32 * 0.1).sin() + ((i / 64) as f32 * 0.07).cos())
//!     .collect();
//! let original = Dataset::from_f32("demo", "field", 0, Dims::d2(64, 64), values);
//! let packed = compress(&original, &MgardConfig::infinity_norm(1e-3)).unwrap();
//! let restored = decompress(&packed).unwrap();
//! let err = original.values_f64().iter().zip(restored.values_f64().iter())
//!     .map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
//! assert!(err <= 1e-3);
//! ```

#![forbid(unsafe_code)]

pub mod hierarchy;

use fraz_data::quant::LinearQuantizer;
use fraz_data::wire::{ByteReader, ByteWriter, DatasetHeader};
use fraz_data::{CodecError, DType, DataBuffer, Dataset, Dims, Encoded, Want};
use fraz_lossless::huffman;

use hierarchy::{interpolate, level_nodes, level_steps, Dims3};

/// Stream magic ("FMG1").
const MAGIC: u32 = 0x464D_4731;
/// Format version.
const VERSION: u8 = 1;
/// Quantization code reserved for exactly-stored values.
const UNPREDICTABLE: u32 = LinearQuantizer::UNPREDICTABLE;
/// Number of quantization bins.
const CAPACITY: u32 = 65536;

/// Error-control norm, mirroring MGARD's `infinity` and `L2` options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorNorm {
    /// Bound the maximum pointwise error (`max_i |d_i - d'_i| ≤ tolerance`).
    Infinity,
    /// Bound the root-mean-square error (`rmse ≤ tolerance`).  Internally the
    /// tolerance is mapped to a pointwise quantization bound of
    /// `1.5 · tolerance`: uniform quantization noise bounded by `b` has an
    /// RMS of `b/√3 ≈ 0.58·b`, so a factor comfortably below `√3` keeps the
    /// RMS target satisfied with margin rather than only in expectation.
    L2,
}

/// Compressor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MgardConfig {
    /// Error tolerance in the chosen norm.
    pub tolerance: f64,
    /// Which norm the tolerance applies to.
    pub norm: ErrorNorm,
}

impl MgardConfig {
    /// ∞-norm (absolute error) configuration.
    pub fn infinity_norm(tolerance: f64) -> Self {
        Self {
            tolerance,
            norm: ErrorNorm::Infinity,
        }
    }

    /// L2-norm (RMS error) configuration.
    pub fn l2_norm(tolerance: f64) -> Self {
        Self {
            tolerance,
            norm: ErrorNorm::L2,
        }
    }

    /// The pointwise quantization bound implied by the configuration.
    pub fn pointwise_bound(&self) -> f64 {
        match self.norm {
            ErrorNorm::Infinity => self.tolerance,
            ErrorNorm::L2 => self.tolerance * 1.5,
        }
    }

    fn validate(&self) -> Result<(), CodecError> {
        if !(self.tolerance > 0.0 && self.tolerance.is_finite()) {
            return Err(CodecError::InvalidBound(format!(
                "tolerance must be positive and finite, got {}",
                self.tolerance
            )));
        }
        Ok(())
    }
}

/// The 3-D view of a 2-D or 3-D grid; the hierarchy takes no other rank.
fn grid_3d(dims: &Dims) -> Result<Dims3, CodecError> {
    match dims.ndims() {
        2 | 3 => Ok(dims.fold_3d()),
        d => Err(CodecError::Unsupported(format!("{d}-D data"))),
    }
}

/// Traverse the hierarchy once, producing quantization codes and exact
/// values, with the reconstruction carried along so the bound is guaranteed
/// — and returned, since it is the grid [`decode_levels`] rebuilds from the
/// codes, bit for bit.
fn encode_levels<T: Copy + Into<f64>>(
    values: &[T],
    dims: Dims3,
    bound: f64,
    finalize: impl Fn(f64) -> f64,
) -> (Vec<u32>, Vec<f64>, Vec<f64>) {
    let quantizer = LinearQuantizer::new(bound, CAPACITY);
    let mut recon = vec![0.0f64; values.len()];
    let mut codes = Vec::with_capacity(values.len());
    let mut exact = Vec::new();
    for (li, &s) in level_steps(dims).iter().enumerate() {
        level_nodes(dims, s, li == 0, |node| {
            let idx = (node[0] * dims[1] + node[1]) * dims[2] + node[2];
            let orig: f64 = values[idx].into();
            let pred = if li == 0 {
                0.0
            } else {
                interpolate(&recon, dims, node, s)
            };
            match quantizer.encode(orig, pred, &finalize) {
                Some((code, recon_val)) => {
                    codes.push(code);
                    recon[idx] = recon_val;
                }
                None => {
                    codes.push(UNPREDICTABLE);
                    exact.push(finalize(orig));
                    recon[idx] = finalize(orig);
                }
            }
        });
    }
    (codes, exact, recon)
}

fn decode_levels(
    codes: &[u32],
    exact: &[f64],
    dims: Dims3,
    bound: f64,
    finalize: impl Fn(f64) -> f64,
) -> Result<Vec<f64>, CodecError> {
    let n = dims[0] * dims[1] * dims[2];
    if codes.len() < n {
        return Err(CodecError::Codec(format!(
            "expected {n} coefficients, found {}",
            codes.len()
        )));
    }
    // Counted first, so the traversal itself cannot run dry.
    let codes = &codes[..n];
    if codes.iter().filter(|&&c| c == UNPREDICTABLE).count() > exact.len() {
        return Err(CodecError::Codec("exact-value list truncated".into()));
    }
    let quantizer = LinearQuantizer::new(bound, CAPACITY);
    let mut recon = vec![0.0f64; n];
    let mut code_iter = codes.iter();
    let mut exact_iter = exact.iter();
    for (li, &s) in level_steps(dims).iter().enumerate() {
        level_nodes(dims, s, li == 0, |node| {
            let idx = (node[0] * dims[1] + node[1]) * dims[2] + node[2];
            let code = *code_iter.next().expect("counted above");
            recon[idx] = if code == UNPREDICTABLE {
                *exact_iter.next().expect("counted above")
            } else {
                let pred = if li == 0 {
                    0.0
                } else {
                    interpolate(&recon, dims, node, s)
                };
                quantizer.decode(code, pred, &finalize)
            };
        });
    }
    Ok(recon)
}

/// Compress a 2-D or 3-D dataset under the configured error norm.
pub fn compress(dataset: &Dataset, config: &MgardConfig) -> Result<Vec<u8>, CodecError> {
    encode(dataset, config, Want::Stream).map(Encoded::into_stream)
}

/// The one encoder.  Every `want` writes the stream; [`Want::Measured`]
/// adds the reconstruction [`decompress`] would rebuild from it — bit for
/// bit, since the encoder quantizes every level against the reconstructed
/// coarser ones — without decoding anything.  [`Want::Size`] hands the same
/// values back as the encoder's own `f64` buffer, without narrowing it.
pub fn encode(dataset: &Dataset, config: &MgardConfig, want: Want) -> Result<Encoded, CodecError> {
    config.validate()?;
    let dims3 = grid_3d(&dataset.dims)?;
    let bound = config.pointwise_bound();
    let dtype = dataset.dtype();
    let (codes, exact, recon) = match &dataset.buffer {
        DataBuffer::F32(values) => encode_levels(values, dims3, bound, |v| v as f32 as f64),
        DataBuffer::F64(values) => encode_levels(values, dims3, bound, |v| v),
    };

    let mut header = ByteWriter::with_capacity(64);
    DatasetHeader::write(dataset, MAGIC, VERSION, &mut header);
    header.put_u8(match config.norm {
        ErrorNorm::Infinity => 0,
        ErrorNorm::L2 => 1,
    });
    header.put_f64(config.tolerance);

    let mut body = ByteWriter::with_capacity(dataset.len());
    body.put_section(&huffman::encode_symbols(&codes));
    body.put_values(&exact, dtype);

    let mut out = header.into_bytes();
    out.extend_from_slice(&fraz_lossless::compress(&body.into_bytes()));
    let recon = match want {
        Want::Size => Some(DataBuffer::F64(recon)),
        Want::Stream => None,
        Want::Measured => Some(DataBuffer::from_f64(recon, dtype)),
    };
    Ok(Encoded::written(out, recon))
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Dataset, CodecError> {
    let mut r = ByteReader::new(data);
    let head = DatasetHeader::read(&mut r, MAGIC, VERSION)?;
    let dtype = head.dtype;
    let dims3 = grid_3d(&head.dims)
        .map_err(|e| CodecError::Codec(format!("invalid dimensionality: {e}")))?;
    let norm = match r.get_u8()? {
        0 => ErrorNorm::Infinity,
        1 => ErrorNorm::L2,
        other => return Err(CodecError::Codec(format!("unknown norm tag {other}"))),
    };
    let tolerance = r.get_f64()?;
    let config = MgardConfig { tolerance, norm };
    config
        .validate()
        .map_err(|e| CodecError::Codec(format!("invalid header parameters: {e}")))?;

    let body = fraz_lossless::decompress(r.rest()).map_err(CodecError::corrupt)?;
    let mut b = ByteReader::new(&body);
    let codes = huffman::decode_symbols(b.get_section()?).map_err(CodecError::corrupt)?;
    let exact = b.get_values(dtype)?;
    if exact.len() > head.dims.len() {
        return Err(CodecError::Codec(
            "exact-value count exceeds grid size".into(),
        ));
    }

    let bound = config.pointwise_bound();
    let values = match dtype {
        DType::F32 => decode_levels(&codes, &exact, dims3, bound, |v| v as f32 as f64),
        DType::F64 => decode_levels(&codes, &exact, dims3, bound, |v| v),
    }?;

    Ok(head.into_dataset(DataBuffer::from_f64(values, dtype)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth2d(rows: usize, cols: usize) -> Dataset {
        let values: Vec<f32> = (0..rows * cols)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                (r as f32 * 0.11).sin() * 4.0 + (c as f32 * 0.07).cos() * 6.0
            })
            .collect();
        Dataset::from_f32("test", "smooth2d", 0, Dims::d2(rows, cols), values)
    }

    fn smooth3d(nz: usize, ny: usize, nx: usize) -> Dataset {
        let mut values = Vec::with_capacity(nz * ny * nx);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    values.push(
                        ((x as f32 * 0.2).sin() + (y as f32 * 0.13).cos()) * 3.0 + z as f32 * 0.05,
                    );
                }
            }
        }
        Dataset::from_f32("test", "smooth3d", 0, Dims::d3(nz, ny, nx), values)
    }

    fn max_error(a: &Dataset, b: &Dataset) -> f64 {
        a.values_f64()
            .iter()
            .zip(b.values_f64().iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    fn rmse(a: &Dataset, b: &Dataset) -> f64 {
        let n = a.len() as f64;
        (a.values_f64()
            .iter()
            .zip(b.values_f64().iter())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            / n)
            .sqrt()
    }

    #[test]
    fn infinity_norm_bound_holds_2d_and_3d() {
        for original in [smooth2d(33, 45), smooth3d(9, 17, 21)] {
            for tol in [1e-1, 1e-3, 1e-5] {
                let packed = compress(&original, &MgardConfig::infinity_norm(tol)).unwrap();
                let restored = decompress(&packed).unwrap();
                let err = max_error(&original, &restored);
                assert!(err <= tol, "tol {tol}: err {err}");
                assert_eq!(restored.dims, original.dims);
            }
        }
    }

    #[test]
    fn l2_norm_bound_holds() {
        let original = smooth2d(64, 64);
        for tol in [1e-2, 1e-4] {
            let packed = compress(&original, &MgardConfig::l2_norm(tol)).unwrap();
            let restored = decompress(&packed).unwrap();
            let err = rmse(&original, &restored);
            assert!(err <= tol, "tol {tol}: rmse {err}");
        }
    }

    #[test]
    fn smooth_fields_compress() {
        let original = smooth2d(128, 128);
        let packed = compress(&original, &MgardConfig::infinity_norm(1e-2)).unwrap();
        let ratio = original.byte_size() as f64 / packed.len() as f64;
        assert!(ratio > 4.0, "ratio {ratio:.2}");
    }

    #[test]
    fn one_dimensional_data_is_rejected() {
        let original = Dataset::from_f32("t", "f", 0, Dims::d1(100), vec![0.0; 100]);
        assert_eq!(
            compress(&original, &MgardConfig::infinity_norm(1e-3)),
            Err(CodecError::Unsupported("1-D data".into()))
        );
    }

    #[test]
    fn looser_tolerance_gives_smaller_streams() {
        let original = smooth3d(12, 20, 20);
        let tight = compress(&original, &MgardConfig::infinity_norm(1e-5)).unwrap();
        let loose = compress(&original, &MgardConfig::infinity_norm(1e-1)).unwrap();
        assert!(loose.len() < tight.len());
    }

    #[test]
    fn metadata_roundtrips() {
        let mut original = smooth2d(20, 30);
        original.field = "CLDHGH".into();
        original.timestep = 17;
        let packed = compress(&original, &MgardConfig::l2_norm(1e-3)).unwrap();
        let restored = decompress(&packed).unwrap();
        assert_eq!(restored.field, "CLDHGH");
        assert_eq!(restored.timestep, 17);
        assert_eq!(restored.dtype(), DType::F32);
    }

    #[test]
    fn f64_roundtrip() {
        let values: Vec<f64> = (0..40 * 40)
            .map(|i| ((i % 40) as f64 * 0.3).sin() * 1e5)
            .collect();
        let original = Dataset::from_f64("t", "f64", 0, Dims::d2(40, 40), values);
        let packed = compress(&original, &MgardConfig::infinity_norm(0.5)).unwrap();
        let restored = decompress(&packed).unwrap();
        assert_eq!(restored.dtype(), DType::F64);
        assert!(max_error(&original, &restored) <= 0.5);
    }

    #[test]
    fn invalid_configs_and_corrupt_streams_are_rejected() {
        let original = smooth2d(16, 16);
        assert!(compress(&original, &MgardConfig::infinity_norm(0.0)).is_err());
        assert!(compress(&original, &MgardConfig::infinity_norm(f64::INFINITY)).is_err());
        let packed = compress(&original, &MgardConfig::infinity_norm(1e-3)).unwrap();
        let mut bad = packed.clone();
        bad[0] ^= 0xff;
        assert!(decompress(&bad).is_err());
        assert!(decompress(&packed[..8]).is_err());
    }

    #[test]
    fn encode_is_compress_and_the_decoded_field_for_every_want() {
        let mut holes = smooth3d(9, 10, 11);
        if let DataBuffer::F32(values) = &mut holes.buffer {
            values[5] = f32::NAN;
            values[300] = f32::NEG_INFINITY;
        }
        let wide = Dataset::from_f64(
            "t",
            "w",
            0,
            Dims::d2(33, 20),
            (0..33 * 20)
                .map(|i| (i as f64 * 0.07).cos() * 1e4)
                .collect(),
        );
        for original in [smooth2d(17, 23), holes, wide] {
            for config in [
                MgardConfig::infinity_norm(1e-5),
                MgardConfig::infinity_norm(1e-2),
                MgardConfig::l2_norm(1e-3),
            ] {
                let what = format!("{original} {config:?}");
                let stream = compress(&original, &config).unwrap();
                let size = encode(&original, &config, Want::Size).unwrap();
                assert_eq!(size.len, stream.len(), "{what}");
                assert!(size.stream.is_none_or(|s| s == stream), "{what}");
                let written = encode(&original, &config, Want::Stream).unwrap();
                assert_eq!(written.len, stream.len(), "{what}");
                assert!(written.recon.is_none(), "{what}");
                assert_eq!(written.stream.as_ref(), Some(&stream), "{what}");
                let measured = encode(&original, &config, Want::Measured).unwrap();
                assert_eq!(measured.len, stream.len(), "{what}");
                assert_eq!(measured.stream.as_ref(), Some(&stream), "{what}");
                let decoded = decompress(&stream).unwrap().buffer;
                // Bit for bit, NaN and infinity included.
                assert!(
                    measured.recon.unwrap().to_le_bytes() == decoded.to_le_bytes(),
                    "{what}"
                );
                // A size evaluation keeps the encoder's own buffer: the
                // decoded values widened, bit for bit.
                let widened = DataBuffer::F64(decoded.to_f64_vec()).to_le_bytes();
                let kept = size.recon.expect("the encoder's reconstruction");
                assert_eq!(kept.dtype(), DType::F64, "{what}");
                assert!(kept.to_le_bytes() == widened, "{what}");
            }
        }
    }

    #[test]
    fn random_data_still_respects_bound() {
        let mut state = 99u64;
        let values: Vec<f32> = (0..50 * 50)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 40) as f32 / 1e3) - 8.0
            })
            .collect();
        let original = Dataset::from_f32("t", "rand", 0, Dims::d2(50, 50), values);
        for tol in [1e-6, 1e-2] {
            let packed = compress(&original, &MgardConfig::infinity_norm(tol)).unwrap();
            let restored = decompress(&packed).unwrap();
            assert!(max_error(&original, &restored) <= tol);
        }
    }
}
