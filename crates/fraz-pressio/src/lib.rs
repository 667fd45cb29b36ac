//! A libpressio-like abstraction layer over the workspace's lossy
//! compressors.
//!
//! FRaZ treats compressors as black boxes: all it needs is a closure
//! `e ↦ ρr(D, e)` mapping an error-bound setting to an achieved compression
//! ratio, regardless of which codec produced it.  The original implementation
//! built that closure on top of libpressio; this crate plays the same role:
//!
//! * [`Compressor`] — the uniform trait: compress under a scalar error-bound
//!   setting, decompress (the whole grid or one box of it), report the valid
//!   bound range and dimensionality support,
//! * [`backends`] — adapters for the SZ-like, ZFP-like (accuracy and
//!   fixed-rate), MGARD-like (∞-norm and L2) and SZx-like (ultra-fast)
//!   codecs, each behind a cargo feature (`sz`, `zfp`, `mgard`, `szx`; all
//!   on by default) so slim builds can drop codec crates,
//! * [`descriptor`] — introspectable codec metadata: [`CodecDescriptor`]
//!   (name, aliases, [`BoundKind`], capabilities, dimensionalities) and the
//!   per-option schema [`OptionDescriptor`],
//! * [`registry`] — the extensible [`registry::Registry`]: factory
//!   registration plus validated, options-driven construction
//!   (`Registry::build("sz", &options)`), with a process-wide default
//!   registry pre-loaded with the feature-enabled built-ins (all six by
//!   default: `"sz"`, `"zfp"`, `"zfp-rate"`, `"mgard"`, `"mgard-l2"`,
//!   `"szx"`) that external codecs can join at runtime,
//! * [`CompressionOutcome`] / [`Compressor::evaluate`] — the
//!   compress-measure-decompress convenience FRaZ's loss function and the
//!   experiment harness are built on; an outcome carries the stream it was
//!   measured on, and [`measure_stream`] measures a stream already in hand.

#![forbid(unsafe_code)]

pub mod backends;
pub mod descriptor;
pub mod options;
pub mod registry;

pub use descriptor::{
    uniform_quantization_bound, BoundKind, CodecDescriptor, DimRange, OptionDescriptor,
};
pub use options::{OptionKind, OptionValue, Options};
pub use registry::{Registry, RegistryError};

use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use fraz_data::{DataBuffer, Dataset, Dims, Encoded, Want};
use fraz_metrics::QualityReport;

/// Errors surfaced through the abstraction layer: the one error every
/// codec crate returns, under the name the framework knows it by.
pub use fraz_data::CodecError as PressioError;

/// The result of one compress (and optional decompress) invocation.
///
/// Equality, `Debug` and serialisation are the measurement's: the carried
/// [`stream`](Self::stream) and [`recon`](Self::recon) take part in none of
/// them.
#[derive(Clone, Serialize, Deserialize)]
pub struct CompressionOutcome {
    /// Compressor name.
    pub compressor: String,
    /// The error-bound setting used.
    pub error_bound: f64,
    /// Achieved compression ratio `ρr(D, e)`.
    pub compression_ratio: f64,
    /// Bits per value after compression.
    pub bit_rate: f64,
    /// Compressed size in bytes.
    pub compressed_bytes: usize,
    /// Original size in bytes.
    pub original_bytes: usize,
    /// Full quality metrics (present when the caller asked for decompression
    /// and measurement, absent during pure ratio searches).
    pub quality: Option<QualityReport>,
    /// The compressed stream this outcome was measured on — what
    /// `compress(dataset, error_bound)` returns — when the evaluation wrote
    /// one and the holder kept it; absent when the size, and the report,
    /// came from less work than writing the stream (szx).
    #[serde(skip)]
    pub stream: Option<Vec<u8>>,
    /// The reconstruction a size-only evaluation's encoder built as it
    /// wrote [`stream`](Self::stream) (sz, mgard): what decoding the stream
    /// gives, so a report measured over it is a quality evaluation's at
    /// this bound, bit for bit.  It goes wherever the stream goes and is
    /// dropped with it.
    #[serde(skip)]
    pub recon: Option<DataBuffer>,
}

impl PartialEq for CompressionOutcome {
    fn eq(&self, other: &Self) -> bool {
        // Destructured, so a field added later is compared or left out here.
        let Self {
            compressor,
            error_bound,
            compression_ratio,
            bit_rate,
            compressed_bytes,
            original_bytes,
            quality,
            stream: _,
            recon: _,
        } = self;
        *compressor == other.compressor
            && *error_bound == other.error_bound
            && *compression_ratio == other.compression_ratio
            && *bit_rate == other.bit_rate
            && *compressed_bytes == other.compressed_bytes
            && *original_bytes == other.original_bytes
            && *quality == other.quality
    }
}

impl fmt::Debug for CompressionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompressionOutcome")
            .field("compressor", &self.compressor)
            .field("error_bound", &self.error_bound)
            .field("compression_ratio", &self.compression_ratio)
            .field("bit_rate", &self.bit_rate)
            .field("compressed_bytes", &self.compressed_bytes)
            .field("original_bytes", &self.original_bytes)
            .field("quality", &self.quality)
            .finish()
    }
}

/// The uniform compressor interface.
///
/// The scalar "error bound" parameter means whatever is natural for the
/// backend: an absolute error bound for SZ, MGARD and ZFP's accuracy mode, a
/// bits-per-value rate for ZFP's fixed-rate mode.  FRaZ only requires that
/// the parameter be a positive scalar with a known valid range.
pub trait Compressor: Send + Sync {
    /// Short backend name (e.g. `"sz"`).
    fn name(&self) -> &str;

    /// Which error-bounding mode the scalar parameter controls.
    fn bound_kind(&self) -> BoundKind {
        BoundKind::AbsoluteError
    }

    /// True if the backend can handle this grid shape.
    fn supports_dims(&self, dims: &Dims) -> bool;

    /// The valid `(lower, upper)` range of the error-bound setting for this
    /// dataset; used by FRaZ to delimit and split its search regions.
    fn bound_range(&self, dataset: &Dataset) -> (f64, f64);

    /// Compress under the given error-bound setting.
    fn compress(&self, dataset: &Dataset, error_bound: f64) -> Result<Vec<u8>, PressioError>;

    /// Decompress a stream previously produced by this backend.
    fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError>;

    /// Decompress the box `region` (one range per axis, slowest first, in
    /// the stream's own coordinates) of a stream that holds a `dims` grid:
    /// exactly the region's values, bit for bit the ones a
    /// [`decompress`](Self::decompress) gives there, as a dataset shaped
    /// like the region.
    ///
    /// A region that is not a non-empty box of `dims` is
    /// [`PressioError::InvalidRegion`]; a stream whose own grid is not
    /// `dims` is a corrupt stream ([`PressioError::Codec`]), so no region is
    /// ever cut from the wrong grid.  This body decodes the whole stream and
    /// crops it; a backend overrides it where a region costs less (sz
    /// decodes only the blocks the region's far corner needs).
    fn decompress_region(
        &self,
        data: &[u8],
        dims: &Dims,
        region: &[Range<usize>],
    ) -> Result<Dataset, PressioError> {
        crop_of_decompress(self, data, dims, region)
    }

    /// Compress and report the achieved ratio; when `measure_quality` is
    /// true, also decompress and attach the full [`QualityReport`].  The
    /// outcome carries the stream it measured, so a caller that settles on
    /// this bound need not compress again.
    ///
    /// A backend may override this where the answer follows from less work.
    /// The built-in codecs answer it with one `encode(.., Want::Size)` or
    /// `encode(.., Want::Measured)` (see [`fraz_data::Want`]): szx sizes a
    /// stream, and rebuilds the field for a report, without writing it; sz
    /// and mgard hand a size back with the reconstruction they built
    /// ([`CompressionOutcome::recon`]); and sz, mgard and szx measure the
    /// reconstruction their encoder already holds instead of decoding.  The
    /// contract is that the outcome — quality report included, bit for bit —
    /// or the error is the one this body returns, with or without the
    /// stream, and that a stream it does carry is `compress`'s
    /// (`tests/evaluate_contract.rs` holds every registered codec to all
    /// three).  An outcome without a stream costs the caller that takes the
    /// bytes one `compress`.
    fn evaluate(
        &self,
        dataset: &Dataset,
        error_bound: f64,
        measure_quality: bool,
    ) -> Result<CompressionOutcome, PressioError> {
        evaluate_by_compressing(self, dataset, error_bound, measure_quality)
    }
}

/// The default body of [`Compressor::decompress_region`]: decode the whole
/// stream, then cut the region out of it.
pub(crate) fn crop_of_decompress<C: Compressor + ?Sized>(
    compressor: &C,
    data: &[u8],
    dims: &Dims,
    region: &[Range<usize>],
) -> Result<Dataset, PressioError> {
    fraz_data::region::check_region(dims, region)?;
    let whole = compressor.decompress(data)?;
    fraz_data::region::check_stream_dims(&whole.dims, dims)?;
    let origin: Vec<usize> = region.iter().map(|r| r.start).collect();
    let shape: Vec<usize> = region.iter().map(|r| r.len()).collect();
    Ok(whole.sub_box(&origin, &shape))
}

/// The default body of [`Compressor::evaluate`]: compress, and for quality
/// decode what was written.
pub(crate) fn evaluate_by_compressing<C: Compressor + ?Sized>(
    compressor: &C,
    dataset: &Dataset,
    error_bound: f64,
    measure_quality: bool,
) -> Result<CompressionOutcome, PressioError> {
    let stream = compressor.compress(dataset, error_bound)?;
    if measure_quality {
        return measure_stream(compressor, dataset, error_bound, stream);
    }
    let encoded = Encoded::written(stream, None);
    Ok(CompressionOutcome::of_encoded(
        compressor.name(),
        dataset,
        error_bound,
        encoded,
        Want::Stream,
    ))
}

/// The quality outcome of `stream` — what `compressor.compress(dataset,
/// error_bound)` returned — as [`Compressor::evaluate`]'s default body
/// measures it: one decode, the report against `dataset`, and the stream
/// handed back on the outcome.  For a caller that already holds the stream,
/// this is a quality evaluation without the compression.
pub fn measure_stream<C: Compressor + ?Sized>(
    compressor: &C,
    dataset: &Dataset,
    error_bound: f64,
    stream: Vec<u8>,
) -> Result<CompressionOutcome, PressioError> {
    let restored = compressor.decompress(&stream)?;
    let encoded = Encoded::written(stream, Some(restored.buffer));
    Ok(CompressionOutcome::of_encoded(
        compressor.name(),
        dataset,
        error_bound,
        encoded,
        Want::Measured,
    ))
}

impl CompressionOutcome {
    /// The outcome of one encode of `dataset` at `error_bound`, asked for
    /// `want`, however it was obtained: the one place ratio and bit rate are
    /// derived from a size, the report is measured over the reconstruction
    /// of a [`Want::Measured`] encode, and the stream — with the
    /// reconstruction a size-only encode built anyway — is carried when the
    /// encode holds one.
    pub(crate) fn of_encoded(
        compressor: &str,
        dataset: &Dataset,
        error_bound: f64,
        encoded: Encoded,
        want: Want,
    ) -> Self {
        let Encoded { len, stream, recon } = encoded;
        let (quality, recon) = match want {
            Want::Measured => (
                recon.map(|recon| QualityReport::measure(dataset, &recon, len)),
                None,
            ),
            Want::Size | Want::Stream => (None, recon),
        };
        let original_bytes = dataset.byte_size();
        Self {
            compressor: compressor.to_string(),
            error_bound,
            compression_ratio: fraz_metrics::ratio::compression_ratio(original_bytes, len),
            bit_rate: fraz_metrics::ratio::bit_rate(len, dataset.len()),
            compressed_bytes: len,
            original_bytes,
            quality,
            stream,
            recon,
        }
    }

    /// This measurement without the bytes it was made on: no stream, no
    /// reconstruction.
    pub fn without_stream(&self) -> Self {
        Self {
            compressor: self.compressor.clone(),
            quality: self.quality.clone(),
            stream: None,
            recon: None,
            ..*self
        }
    }

    /// Drop the stream and the reconstruction, keeping the measurement.
    pub fn drop_bytes(&mut self) {
        self.stream = None;
        self.recon = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fraz_data::Dims;

    /// A trivial in-crate compressor used to exercise the trait's default
    /// `evaluate` implementation without touching the real codecs.
    struct Truncator;

    impl Compressor for Truncator {
        fn name(&self) -> &str {
            "truncator"
        }
        fn supports_dims(&self, _dims: &Dims) -> bool {
            true
        }
        fn bound_range(&self, _dataset: &Dataset) -> (f64, f64) {
            (1e-12, 1.0)
        }
        fn compress(&self, dataset: &Dataset, error_bound: f64) -> Result<Vec<u8>, PressioError> {
            if error_bound <= 0.0 {
                return Err(PressioError::InvalidBound("non-positive".into()));
            }
            // Keep one byte out of every `k` — obviously not a real codec,
            // but enough to produce a ratio for the test.
            let bytes = dataset.buffer.to_le_bytes();
            let k = (1.0 / error_bound).clamp(1.0, 16.0) as usize;
            Ok(bytes.iter().copied().step_by(k).collect())
        }
        fn decompress(&self, _data: &[u8]) -> Result<Dataset, PressioError> {
            Err(PressioError::Codec("truncator cannot decompress".into()))
        }
    }

    #[test]
    fn evaluate_reports_ratio_without_quality() {
        let dataset = Dataset::from_f32("t", "f", 0, Dims::d1(1000), vec![1.0; 1000]);
        let outcome = Truncator.evaluate(&dataset, 0.25, false).unwrap();
        assert_eq!(outcome.compressor, "truncator");
        assert_eq!(outcome.original_bytes, 4000);
        assert_eq!(outcome.compressed_bytes, 1000);
        assert!((outcome.compression_ratio - 4.0).abs() < 1e-12);
        assert!((outcome.bit_rate - 8.0).abs() < 1e-12);
        assert!(outcome.quality.is_none());
    }

    #[test]
    fn evaluate_hands_back_the_stream_it_measured() {
        let dataset = Dataset::from_f32("t", "f", 0, Dims::d1(1000), vec![1.0; 1000]);
        let outcome = Truncator.evaluate(&dataset, 0.25, false).unwrap();
        assert_eq!(outcome.stream, Truncator.compress(&dataset, 0.25).ok());
        // The stream is cargo: the measurement compares and prints without.
        let bare = outcome.without_stream();
        assert!(bare.stream.is_none());
        assert_eq!(outcome, bare);
        assert_eq!(format!("{outcome:?}"), format!("{bare:?}"));
        assert!(!format!("{outcome:?}").contains("stream"));
    }

    #[test]
    fn evaluate_propagates_codec_errors() {
        let dataset = Dataset::from_f32("t", "f", 0, Dims::d1(10), vec![1.0; 10]);
        assert!(matches!(
            Truncator.evaluate(&dataset, 0.0, false),
            Err(PressioError::InvalidBound(_))
        ));
        // Asking for quality forces a decompress, which this backend refuses.
        assert!(matches!(
            Truncator.evaluate(&dataset, 0.5, true),
            Err(PressioError::Codec(_))
        ));
    }

    #[test]
    fn error_display() {
        assert!(PressioError::Unsupported("1-D".into())
            .to_string()
            .contains("unsupported"));
        assert!(PressioError::Codec("x".into())
            .to_string()
            .contains("codec"));
    }
}
