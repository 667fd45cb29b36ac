//! Codec metadata: what a backend is called, what its scalar parameter
//! means, which grids it accepts, and which options it understands.
//!
//! Libpressio makes compressors *introspectable*: a generic tool can ask a
//! plugin for its option schema and validate a configuration before
//! constructing anything.  [`CodecDescriptor`] and [`OptionDescriptor`] play
//! that role here.  Every entry in the
//! [`Registry`](crate::registry::Registry) pairs a factory closure with a
//! descriptor, and [`Registry::build`](crate::registry::Registry::build)
//! validates the caller's [`Options`] against the descriptor — unknown keys
//! and type mismatches are errors, not silence.
//!
//! # Describing an out-of-tree codec
//!
//! ```
//! use fraz_pressio::{BoundKind, CodecDescriptor, DimRange, OptionDescriptor};
//! use fraz_pressio::options::{OptionKind, Options};
//!
//! let descriptor = CodecDescriptor::new("decimate", BoundKind::AbsoluteError)
//!     .with_alias("downsample")
//!     .with_dims(DimRange::new(1, 3))
//!     .with_summary("keeps every k-th value; k derived from the bound")
//!     .with_option(
//!         OptionDescriptor::new("decimate:max_stride", OptionKind::U64)
//!             .with_default(16u64)
//!             .with_range(1.0, 64.0)
//!             .with_doc("largest decimation stride the codec will use"),
//!     );
//!
//! // The descriptor validates configurations without building anything.
//! assert!(descriptor
//!     .validate_options(&Options::new().with("decimate:max_stride", 8u64))
//!     .is_ok());
//! let err = descriptor
//!     .validate_options(&Options::new().with("decimate:max_strude", 8u64))
//!     .unwrap_err();
//! assert!(err.to_string().contains("decimate:max_stride")); // did you mean?
//! ```

use std::fmt;

use fraz_data::synthetic::edit_distance;
use fraz_data::Dims;

use crate::options::{OptionKind, OptionValue, Options};
use crate::registry::RegistryError;

/// What a backend's scalar "error bound" parameter actually controls.
///
/// FRaZ only needs the parameter to be a positive scalar, but logs, tables
/// and capability checks need to know its meaning; libpressio encodes this
/// as free-form strings, which cannot be matched on reliably.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundKind {
    /// Absolute pointwise error bound (SZ-style `|x - x'| <= e`).
    AbsoluteError,
    /// Accuracy tolerance (ZFP's fixed-accuracy mode; also an absolute
    /// pointwise guarantee, but tuned per transform block).  The codec reads
    /// a tolerance `t` only through `⌊log₂ t⌋` — that is what this kind
    /// *means*: two tolerances on one [step](BoundKind::step_of) produce one
    /// stream, but for the tolerance recorded in its header, and one
    /// reconstruction (the paper's §VI-B3 step function).
    AccuracyTolerance,
    /// Bits-per-value rate: the parameter sets the *size*, not the error.
    BitsPerValue,
    /// ∞-norm (maximum error) bound over the multilevel decomposition.
    InfinityNorm,
    /// L2-norm (RMS error) bound; pointwise errors may exceed it.
    L2Norm,
}

impl BoundKind {
    /// Human-readable label (what `Compressor::bound_kind` used to return).
    pub fn label(&self) -> &'static str {
        match self {
            BoundKind::AbsoluteError => "absolute error bound",
            BoundKind::AccuracyTolerance => "accuracy tolerance",
            BoundKind::BitsPerValue => "bits per value",
            BoundKind::InfinityNorm => "infinity-norm bound",
            BoundKind::L2Norm => "L2-norm bound",
        }
    }

    /// True when the parameter bounds a reconstruction *error*, making the
    /// backend a valid FRaZ search target; false for fixed-rate parameters
    /// where the ratio is set directly and searching would be circular.
    pub fn is_error_bounded(&self) -> bool {
        !matches!(self, BoundKind::BitsPerValue)
    }

    /// True when the parameter bounds the error of every reconstructed value
    /// (so the uniform-quantization first guess of
    /// [`uniform_quantization_bound`] applies); false for a rate or a norm
    /// over the whole field.
    pub fn is_pointwise(&self) -> bool {
        matches!(
            self,
            BoundKind::AbsoluteError | BoundKind::AccuracyTolerance | BoundKind::InfinityNorm
        )
    }

    /// The step `bound` falls on, for kinds whose codec reads its parameter
    /// through a step function: every bound with the same step compresses to
    /// the same bytes (outside the recorded parameter) and decodes to the
    /// same values, so one measurement answers for all of them.  `None` for
    /// a kind without steps, and for a bound no codec accepts.
    ///
    /// For [`BoundKind::AccuracyTolerance`] the step is `⌊log₂ bound⌋` by the
    /// very expression the codec evaluates (`fraz_zfp::accuracy_minexp`),
    /// libm's rounding just under a power of two included — the step is what
    /// the codec does, not what the real logarithm says.
    pub fn step_of(&self, bound: f64) -> Option<i64> {
        match self {
            BoundKind::AccuracyTolerance if bound > 0.0 && bound.is_finite() => {
                Some(bound.log2().floor() as i64)
            }
            _ => None,
        }
    }
}

impl fmt::Display for BoundKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The error bound predicted to achieve `psnr_db` on data spanning
/// `value_range` by a quantizer whose error is (approximately) uniform on
/// `[-e, e]` — the Fixed-PSNR result of Tao, Di et al. for SZ-style
/// predictive quantization; `None` when either input is degenerate.
///
/// Under that assumption the RMSE of a compressed field is `e/√3`, so
///
/// ```text
/// PSNR = 20·log10(R / e) + 10·log10(3)   (offset ≈ 4.77 dB)
/// ```
///
/// which inverts to `e = R · 10^((offset − PSNR)/20)`.  It is a first guess
/// for every [pointwise](BoundKind::is_pointwise) codec: exact to a fraction
/// of a dB on SZ, conservative on transform codecs (ZFP, MGARD), whose error
/// sits well under their bound — a quality search measures it and moves on.
pub fn uniform_quantization_bound(value_range: f64, psnr_db: f64) -> Option<f64> {
    if !(value_range.is_finite() && value_range > 0.0 && psnr_db.is_finite()) {
        return None;
    }
    let bound = value_range * 10f64.powf((10.0 * 3f64.log10() - psnr_db) / 20.0);
    (bound.is_finite() && bound > 0.0).then_some(bound)
}

/// The contiguous range of grid dimensionalities a codec accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimRange {
    /// Smallest accepted number of axes (inclusive).
    pub min: usize,
    /// Largest accepted number of axes (inclusive).
    pub max: usize,
}

impl DimRange {
    /// Accept every dimensionality the workspace supports (1-D to 4-D).
    pub fn any() -> Self {
        Self { min: 1, max: 4 }
    }

    /// Accept `min`-D through `max`-D grids (inclusive).
    ///
    /// # Panics
    /// Panics if `min` is zero or greater than `max`.
    pub fn new(min: usize, max: usize) -> Self {
        assert!(
            min >= 1 && min <= max,
            "bad dimensionality range {min}..={max}"
        );
        Self { min, max }
    }

    /// True when the given grid shape falls inside the range.
    pub fn supports(&self, dims: &Dims) -> bool {
        (self.min..=self.max).contains(&dims.ndims())
    }
}

impl fmt::Display for DimRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.min == self.max {
            write!(f, "{}-D", self.min)
        } else {
            write!(f, "{}-D to {}-D", self.min, self.max)
        }
    }
}

/// Schema of one option a codec understands: key, type, default, valid
/// range and documentation.
#[derive(Debug, Clone, PartialEq)]
pub struct OptionDescriptor {
    /// Namespaced option key (e.g. `"sz:block_size"`).
    pub key: String,
    /// Expected value type; see [`OptionKind::accepts`] for the conversions
    /// validation tolerates.
    pub kind: OptionKind,
    /// Default used when the option is absent (informational; factories
    /// apply their own defaults).
    pub default: Option<OptionValue>,
    /// Inclusive valid range for numeric options.
    pub range: Option<(f64, f64)>,
    /// One-line description shown by introspection tools.
    pub doc: String,
}

impl OptionDescriptor {
    /// A descriptor for `key` expecting values of `kind`.
    pub fn new(key: &str, kind: OptionKind) -> Self {
        Self {
            key: key.to_string(),
            kind,
            default: None,
            range: None,
            doc: String::new(),
        }
    }

    /// Attach the default value (builder style).
    pub fn with_default(mut self, default: impl Into<OptionValue>) -> Self {
        self.default = Some(default.into());
        self
    }

    /// Attach an inclusive numeric range (builder style).
    pub fn with_range(mut self, lower: f64, upper: f64) -> Self {
        self.range = Some((lower, upper));
        self
    }

    /// Attach the doc line (builder style).
    pub fn with_doc(mut self, doc: &str) -> Self {
        self.doc = doc.to_string();
        self
    }

    /// Check one value against this descriptor's type and range.
    fn validate(&self, codec: &str, value: &OptionValue) -> Result<(), RegistryError> {
        if !self.kind.accepts(value) {
            return Err(RegistryError::TypeMismatch {
                codec: codec.to_string(),
                key: self.key.clone(),
                expected: self.kind,
                actual: value.kind(),
            });
        }
        if let Some((lower, upper)) = self.range {
            if let Some(v) = value.as_f64() {
                if v < lower || v > upper {
                    return Err(RegistryError::OutOfRange {
                        codec: codec.to_string(),
                        key: self.key.clone(),
                        value: v,
                        range: (lower, upper),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Full metadata for one registered codec.
///
/// See the [module docs](self) for a registration example; the
/// [`Registry`](crate::registry::Registry) docs show the factory side.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecDescriptor {
    /// Canonical name used for lookup (e.g. `"sz"`).
    pub name: String,
    /// Alternative lookup names (e.g. `"zfp-accuracy"` for `"zfp"`).
    pub aliases: Vec<String>,
    /// What the scalar parameter controls.
    pub bound_kind: BoundKind,
    /// Accepted grid dimensionalities.
    pub dims: DimRange,
    /// Schema of every option the codec's factory reads.
    pub options: Vec<OptionDescriptor>,
    /// One-line description shown by introspection tools.
    pub summary: String,
}

impl CodecDescriptor {
    /// A descriptor for `name` whose parameter is a `bound_kind`; accepts
    /// every dimensionality and no options until the builder methods say
    /// otherwise.
    pub fn new(name: &str, bound_kind: BoundKind) -> Self {
        Self {
            name: name.to_string(),
            aliases: Vec::new(),
            bound_kind,
            dims: DimRange::any(),
            options: Vec::new(),
            summary: String::new(),
        }
    }

    /// Add a lookup alias (builder style).
    pub fn with_alias(mut self, alias: &str) -> Self {
        self.aliases.push(alias.to_string());
        self
    }

    /// Restrict the accepted dimensionalities (builder style).
    pub fn with_dims(mut self, dims: DimRange) -> Self {
        self.dims = dims;
        self
    }

    /// Declare an option the factory reads (builder style).
    pub fn with_option(mut self, option: OptionDescriptor) -> Self {
        self.options.push(option);
        self
    }

    /// Attach the summary line (builder style).
    pub fn with_summary(mut self, summary: &str) -> Self {
        self.summary = summary.to_string();
        self
    }

    /// True when the codec is a valid FRaZ search target: its bound kind
    /// [bounds an error](BoundKind::is_error_bounded).
    pub fn error_bounded(&self) -> bool {
        self.bound_kind.is_error_bounded()
    }

    /// Every name this codec answers to: the canonical name, then aliases.
    pub fn all_names(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.name.as_str()).chain(self.aliases.iter().map(String::as_str))
    }

    /// Look up the schema of one option key.
    pub fn option(&self, key: &str) -> Option<&OptionDescriptor> {
        self.options.iter().find(|o| o.key == key)
    }

    /// Validate an options bag against this codec's schema.
    ///
    /// Every key must name a declared option (unknown keys fail with a
    /// nearest-key suggestion) and every value must satisfy the declared
    /// type and range.  An empty bag always validates.
    pub fn validate_options(&self, options: &Options) -> Result<(), RegistryError> {
        for (key, value) in options.iter() {
            match self.option(key) {
                Some(descriptor) => descriptor.validate(&self.name, value)?,
                None => {
                    return Err(RegistryError::UnknownOption {
                        codec: self.name.clone(),
                        key: key.to_string(),
                        suggestion: closest_match(key, self.options.iter().map(|o| o.key.as_str())),
                    })
                }
            }
        }
        Ok(())
    }

    /// The default configuration implied by the option schema (only options
    /// that declare a default appear).
    pub fn default_options(&self) -> Options {
        let mut options = Options::new();
        for o in &self.options {
            if let Some(default) = &o.default {
                options.set(&o.key, default.clone());
            }
        }
        options
    }
}

impl fmt::Display for CodecDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {}, {})",
            self.name,
            self.bound_kind,
            self.dims,
            if self.error_bounded() {
                "error-bounded"
            } else {
                "fixed-rate"
            }
        )
    }
}

/// The candidate closest to `input`, if any is close enough to plausibly be
/// a typo (distance at most 2, or a third of the input's length for long
/// keys).
pub(crate) fn closest_match<'a>(
    input: &str,
    candidates: impl Iterator<Item = &'a str>,
) -> Option<String> {
    let threshold = 2.max(input.chars().count() / 3);
    candidates
        .map(|c| (edit_distance(input, c), c))
        .min()
        .filter(|(d, _)| *d <= threshold)
        .map(|(_, c)| c.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_kind_labels_and_capability() {
        assert_eq!(BoundKind::AbsoluteError.label(), "absolute error bound");
        assert_eq!(BoundKind::BitsPerValue.to_string(), "bits per value");
        assert!(BoundKind::L2Norm.is_error_bounded());
        assert!(!BoundKind::BitsPerValue.is_error_bounded());
    }

    #[test]
    fn only_the_accuracy_tolerance_has_steps_and_only_for_usable_bounds() {
        for kind in [
            BoundKind::AbsoluteError,
            BoundKind::BitsPerValue,
            BoundKind::InfinityNorm,
            BoundKind::L2Norm,
        ] {
            assert_eq!(kind.step_of(0.013), None, "{kind}");
        }
        let steps = BoundKind::AccuracyTolerance;
        assert_eq!(steps.step_of(0.010), Some(-7));
        assert_eq!(steps.step_of(0.013), Some(-7));
        assert_eq!(steps.step_of(0.020), Some(-6));
        assert_eq!(steps.step_of(5e-324), Some(-1074));
        for unusable in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(steps.step_of(unusable), None, "{unusable}");
        }
    }

    #[cfg(feature = "zfp")]
    #[test]
    fn the_step_is_the_minexp_the_zfp_codec_computes() {
        // Every binade's two edges and their one-ulp neighbours, where
        // libm's `log2` rounds: the two expressions must round alike.
        for k in -1072..1024i64 {
            // 2^k, built from its bits (subnormal below 2^-1022).
            let edge = f64::from_bits(if k < -1022 {
                1 << (k + 1074)
            } else {
                ((k + 1023) as u64) << 52
            });
            for bound in [
                edge.next_down().next_down(),
                edge.next_down(),
                edge,
                edge.next_up(),
            ] {
                assert_eq!(
                    BoundKind::AccuracyTolerance.step_of(bound),
                    Some(fraz_zfp::accuracy_minexp(bound) as i64),
                    "{bound:e}"
                );
            }
        }
    }

    #[test]
    fn dim_range_supports() {
        let r = DimRange::new(2, 3);
        assert!(!r.supports(&Dims::d1(10)));
        assert!(r.supports(&Dims::d2(4, 4)));
        assert!(r.supports(&Dims::d3(2, 2, 2)));
        assert!(!r.supports(&Dims::d4(2, 2, 2, 2)));
        assert!(DimRange::any().supports(&Dims::d4(2, 2, 2, 2)));
        assert_eq!(r.to_string(), "2-D to 3-D");
        assert_eq!(DimRange::new(3, 3).to_string(), "3-D");
    }

    #[test]
    #[should_panic(expected = "bad dimensionality range")]
    fn dim_range_rejects_inverted() {
        DimRange::new(3, 2);
    }

    fn sample() -> CodecDescriptor {
        CodecDescriptor::new("demo", BoundKind::AbsoluteError)
            .with_alias("demo-abs")
            .with_summary("test codec")
            .with_option(
                OptionDescriptor::new("demo:block_size", OptionKind::U64)
                    .with_default(8u64)
                    .with_range(1.0, 64.0)
                    .with_doc("block edge length"),
            )
            .with_option(OptionDescriptor::new("demo:mode", OptionKind::Str))
    }

    #[test]
    fn valid_options_pass() {
        let d = sample();
        assert!(d.validate_options(&Options::new()).is_ok());
        let opts = Options::new()
            .with("demo:block_size", 16u64)
            .with("demo:mode", "fast");
        assert!(d.validate_options(&opts).is_ok());
        // Integral floats coerce into u64 options, as the getters allow.
        let coerced = Options::new().with("demo:block_size", 4.0);
        assert!(d.validate_options(&coerced).is_ok());
    }

    #[test]
    fn unknown_key_suggests_nearest() {
        let d = sample();
        let err = d
            .validate_options(&Options::new().with("demo:blok_size", 8u64))
            .unwrap_err();
        match err {
            RegistryError::UnknownOption {
                key, suggestion, ..
            } => {
                assert_eq!(key, "demo:blok_size");
                assert_eq!(suggestion.as_deref(), Some("demo:block_size"));
            }
            other => panic!("wrong error: {other}"),
        }
        // A key nothing like any declared option gets no suggestion.
        let err = d
            .validate_options(&Options::new().with("zzz", 1u64))
            .unwrap_err();
        match err {
            RegistryError::UnknownOption { suggestion, .. } => assert!(suggestion.is_none()),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn type_and_range_mismatches_fail() {
        let d = sample();
        let err = d
            .validate_options(&Options::new().with("demo:block_size", "eight"))
            .unwrap_err();
        assert!(matches!(err, RegistryError::TypeMismatch { .. }));
        assert!(err.to_string().contains("demo:block_size"));
        let err = d
            .validate_options(&Options::new().with("demo:block_size", 65u64))
            .unwrap_err();
        assert!(matches!(err, RegistryError::OutOfRange { .. }));
    }

    #[test]
    fn default_options_collects_declared_defaults() {
        let defaults = sample().default_options();
        assert_eq!(defaults.get_u64("demo:block_size"), Some(8));
        assert!(defaults.get("demo:mode").is_none());
    }

    #[test]
    fn all_names_and_display() {
        let d = sample();
        let names: Vec<&str> = d.all_names().collect();
        assert_eq!(names, vec!["demo", "demo-abs"]);
        assert!(d.to_string().contains("error-bounded"));
        let rate = CodecDescriptor::new("r", BoundKind::BitsPerValue);
        assert!(!rate.error_bounded());
        assert!(rate.to_string().contains("fixed-rate"));
    }

    #[test]
    fn uniform_quantization_bound_inverts_and_rejects_degenerate_inputs() {
        // PSNR 60 dB on unit-range data: e = √3 · 10^(-60/20) ≈ 1.732e-3.
        let bound = uniform_quantization_bound(1.0, 60.0).unwrap();
        let expected = 3f64.sqrt() * 1e-3;
        assert!((bound - expected).abs() / bound < 1e-12, "bound {bound}");
        // Stricter targets give smaller bounds; bigger ranges bigger bounds.
        assert!(uniform_quantization_bound(1.0, 90.0).unwrap() < bound);
        assert!(uniform_quantization_bound(100.0, 60.0).unwrap() > bound);
        // Degenerate inputs give no hint rather than a bogus one.
        assert!(uniform_quantization_bound(0.0, 60.0).is_none());
        assert!(uniform_quantization_bound(f64::NAN, 60.0).is_none());
        assert!(uniform_quantization_bound(1.0, f64::INFINITY).is_none());
        // It seeds the kinds that bound every value, and only those.
        assert!(BoundKind::AbsoluteError.is_pointwise());
        assert!(BoundKind::AccuracyTolerance.is_pointwise());
        assert!(BoundKind::InfinityNorm.is_pointwise());
        assert!(!BoundKind::L2Norm.is_pointwise());
        assert!(!BoundKind::BitsPerValue.is_pointwise());
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("block", "blok"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(
            closest_match("sz:blok_size", ["sz:block_size"].into_iter()),
            Some("sz:block_size".into())
        );
        assert_eq!(
            closest_match("completely-different", ["sz:block_size"].into_iter()),
            None
        );
    }
}
