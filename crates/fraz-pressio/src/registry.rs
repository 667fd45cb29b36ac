//! The extensible compressor registry: factory registration, introspection,
//! and validated options-driven construction.
//!
//! Libpressio's entry point is `pressio_get_compressor(name)` backed by a
//! runtime plugin registry; this module is the equivalent.  A [`Registry`]
//! maps codec names (and aliases) to a
//! [`CodecDescriptor`] plus a factory closure, and
//! [`Registry::build`] validates the caller's [`Options`] against the
//! descriptor before invoking the factory — unknown keys and type
//! mismatches are [`RegistryError`]s with did-you-mean suggestions, never
//! silently ignored.
//!
//! A process-wide default registry (lazily initialized, `parking_lot`
//! guarded) is pre-loaded with the feature-enabled built-in backends (all
//! six by default); [`register`] plugs external codecs into it without
//! editing this crate, and the module-level [`build`]/[`describe`]/[`names`]
//! free functions read it.
//!
//! # Registering an out-of-tree codec
//!
//! ```
//! use fraz_data::{Dataset, Dims};
//! use fraz_pressio::options::Options;
//! use fraz_pressio::registry::Registry;
//! use fraz_pressio::{BoundKind, CodecDescriptor, Compressor, PressioError};
//!
//! /// Stores one value in `k`, where `k` scales inversely with the bound.
//! struct ConstantCodec;
//!
//! impl Compressor for ConstantCodec {
//!     fn name(&self) -> &str {
//!         "constant"
//!     }
//!     fn supports_dims(&self, _dims: &Dims) -> bool {
//!         true
//!     }
//!     fn bound_range(&self, _dataset: &Dataset) -> (f64, f64) {
//!         (1e-9, 1.0)
//!     }
//!     fn compress(&self, dataset: &Dataset, bound: f64) -> Result<Vec<u8>, PressioError> {
//!         let mean = dataset.values_f64().iter().sum::<f64>() / dataset.len() as f64;
//!         let mut out = mean.to_le_bytes().to_vec();
//!         out.extend((dataset.len() as u64).to_le_bytes());
//!         out.resize(out.len() + (1.0 / bound) as usize, 0);
//!         Ok(out)
//!     }
//!     fn decompress(&self, data: &[u8]) -> Result<Dataset, PressioError> {
//!         let mean = f64::from_le_bytes(data[..8].try_into().unwrap());
//!         let n = u64::from_le_bytes(data[8..16].try_into().unwrap()) as usize;
//!         Ok(Dataset::from_f64("constant", "field", 0, Dims::d1(n), vec![mean; n]))
//!     }
//! }
//!
//! let mut registry = Registry::with_builtins();
//! registry
//!     .register(
//!         CodecDescriptor::new("constant", BoundKind::AbsoluteError)
//!             .with_summary("mean-value codec (doc example)"),
//!         |_options| Ok(Box::new(ConstantCodec)),
//!     )
//!     .unwrap();
//!
//! let codec = registry.build("constant", &Options::new()).unwrap();
//! assert_eq!(codec.name(), "constant");
//! assert!(registry.names().contains(&"constant".to_string()));
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::descriptor::{closest_match, CodecDescriptor};
use crate::options::{OptionKind, Options};
use crate::{Compressor, PressioError};

/// Errors from registry lookup, registration, validation or construction.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// No codec answers to this name.
    UnknownCodec {
        /// The requested name.
        name: String,
        /// The closest registered name, when one is plausibly a typo away.
        suggestion: Option<String>,
    },
    /// An option key is not in the codec's schema.
    UnknownOption {
        /// The codec whose schema was consulted.
        codec: String,
        /// The offending key.
        key: String,
        /// The closest declared key, when one is plausibly a typo away.
        suggestion: Option<String>,
    },
    /// An option value has the wrong type for its declared kind.
    TypeMismatch {
        /// The codec whose schema was consulted.
        codec: String,
        /// The offending key.
        key: String,
        /// The declared kind.
        expected: OptionKind,
        /// The provided value's kind.
        actual: OptionKind,
    },
    /// A numeric option value lies outside its declared range.
    OutOfRange {
        /// The codec whose schema was consulted.
        codec: String,
        /// The offending key.
        key: String,
        /// The provided value.
        value: f64,
        /// The declared inclusive range.
        range: (f64, f64),
    },
    /// Registration would shadow an existing name or alias.
    DuplicateName {
        /// The name or alias that is already taken.
        name: String,
    },
    /// The factory itself refused to construct the codec.
    Construction {
        /// The codec being constructed.
        codec: String,
        /// The factory's error.
        source: PressioError,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownCodec { name, suggestion } => {
                write!(f, "no codec named {name:?} is registered")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean {s:?}?)")?;
                }
                Ok(())
            }
            RegistryError::UnknownOption {
                codec,
                key,
                suggestion,
            } => {
                write!(f, "codec {codec:?} has no option {key:?}")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean {s:?}?)")?;
                }
                Ok(())
            }
            RegistryError::TypeMismatch {
                codec,
                key,
                expected,
                actual,
            } => write!(
                f,
                "option {key:?} of codec {codec:?} expects a {expected} value, got {actual}"
            ),
            RegistryError::OutOfRange {
                codec,
                key,
                value,
                range,
            } => write!(
                f,
                "option {key:?} of codec {codec:?} must be in [{}, {}], got {value}",
                range.0, range.1
            ),
            RegistryError::DuplicateName { name } => {
                write!(f, "a codec named {name:?} is already registered")
            }
            RegistryError::Construction { codec, source } => {
                write!(f, "constructing codec {codec:?} failed: {source}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// The factory signature every registration provides: given a *validated*
/// options bag, construct a ready-to-use backend.
pub type CodecFactory =
    Arc<dyn Fn(&Options) -> Result<Box<dyn Compressor>, PressioError> + Send + Sync>;

struct Entry {
    descriptor: CodecDescriptor,
    factory: CodecFactory,
}

impl Clone for Entry {
    fn clone(&self) -> Self {
        Self {
            descriptor: self.descriptor.clone(),
            factory: Arc::clone(&self.factory),
        }
    }
}

/// A set of registered codecs: descriptors for introspection, factories for
/// construction.
///
/// Most code uses the process-wide default registry through the module's
/// free functions; tests and embedders that want isolation build their own
/// instance with [`Registry::empty`] or [`Registry::with_builtins`].
#[derive(Clone, Default)]
pub struct Registry {
    /// Canonical name → entry.
    entries: BTreeMap<String, Entry>,
    /// Alias → canonical name.
    aliases: BTreeMap<String, String>,
}

impl Registry {
    /// A registry with nothing registered.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A registry pre-loaded with the built-in backends the crate's codec
    /// features enable — with the default feature set: `"sz"`, `"zfp"`,
    /// `"zfp-rate"`, `"mgard"`, `"mgard-l2"`, `"szx"`.
    pub fn with_builtins() -> Self {
        let mut registry = Self::empty();
        crate::backends::install_builtins(&mut registry);
        registry
    }

    /// Register a codec: its descriptor plus a factory closure.
    ///
    /// Fails with [`RegistryError::DuplicateName`] if the descriptor's name
    /// or any alias is already taken (as a name or an alias).
    pub fn register<F>(
        &mut self,
        descriptor: CodecDescriptor,
        factory: F,
    ) -> Result<(), RegistryError>
    where
        F: Fn(&Options) -> Result<Box<dyn Compressor>, PressioError> + Send + Sync + 'static,
    {
        for name in descriptor.all_names() {
            if self.entries.contains_key(name) || self.aliases.contains_key(name) {
                return Err(RegistryError::DuplicateName {
                    name: name.to_string(),
                });
            }
        }
        for alias in &descriptor.aliases {
            self.aliases.insert(alias.clone(), descriptor.name.clone());
        }
        self.entries.insert(
            descriptor.name.clone(),
            Entry {
                descriptor,
                factory: Arc::new(factory),
            },
        );
        Ok(())
    }

    fn resolve(&self, name: &str) -> Option<&Entry> {
        if let Some(entry) = self.entries.get(name) {
            return Some(entry);
        }
        let canonical = self.aliases.get(name)?;
        self.entries.get(canonical)
    }

    fn lookup(&self, name: &str) -> Result<&Entry, RegistryError> {
        self.resolve(name)
            .ok_or_else(|| RegistryError::UnknownCodec {
                name: name.to_string(),
                suggestion: closest_match(
                    name,
                    self.entries
                        .keys()
                        .chain(self.aliases.keys())
                        .map(String::as_str),
                ),
            })
    }

    /// Construct a codec by name or alias, validating `options` against its
    /// schema first.
    pub fn build(
        &self,
        name: &str,
        options: &Options,
    ) -> Result<Box<dyn Compressor>, RegistryError> {
        build_from_entry(self.lookup(name)?, options)
    }

    /// Like [`Registry::build`], but returns a shareable handle — the form
    /// `FixedRatioSearch` and the orchestrator consume.
    pub fn build_arc(
        &self,
        name: &str,
        options: &Options,
    ) -> Result<Arc<dyn Compressor>, RegistryError> {
        self.build(name, options).map(Arc::from)
    }

    /// The descriptor registered under a name or alias.
    pub fn describe(&self, name: &str) -> Option<&CodecDescriptor> {
        self.resolve(name).map(|e| &e.descriptor)
    }

    /// True when a codec answers to this name or alias.
    pub fn contains(&self, name: &str) -> bool {
        self.resolve(name).is_some()
    }

    /// Canonical names of every registered codec, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Canonical names of the codecs usable as FRaZ search targets
    /// (error-bounded capability), sorted.
    pub fn error_bounded_names(&self) -> Vec<String> {
        self.entries
            .values()
            .filter(|e| e.descriptor.error_bounded())
            .map(|e| e.descriptor.name.clone())
            .collect()
    }

    /// Every registered descriptor, in name order.
    pub fn descriptors(&self) -> impl Iterator<Item = &CodecDescriptor> {
        self.entries.values().map(|e| &e.descriptor)
    }

    /// Number of registered codecs (aliases not counted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("names", &self.names())
            .finish()
    }
}

/// Validate and construct from one entry.  Shared by `Registry::build` and
/// the global free functions, which clone the entry and *release the
/// registry lock first* so a factory may re-enter the registry (e.g. a
/// composite codec building its inner codec) without deadlocking.
fn build_from_entry(
    entry: &Entry,
    options: &Options,
) -> Result<Box<dyn Compressor>, RegistryError> {
    entry.descriptor.validate_options(options)?;
    (entry.factory)(options).map_err(|source| RegistryError::Construction {
        codec: entry.descriptor.name.clone(),
        source,
    })
}

/// The process-wide default registry, created on first use with the
/// built-in backends installed.
///
/// The lock is exposed so embedders can do multi-step operations (e.g.
/// snapshot + bulk-register) atomically; everyday code should prefer the
/// free functions, which take the lock for single calls only.
pub fn global() -> &'static RwLock<Registry> {
    static GLOBAL: OnceLock<RwLock<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(Registry::with_builtins()))
}

/// Register a codec in the process-wide default registry.
pub fn register<F>(descriptor: CodecDescriptor, factory: F) -> Result<(), RegistryError>
where
    F: Fn(&Options) -> Result<Box<dyn Compressor>, PressioError> + Send + Sync + 'static,
{
    global().write().register(descriptor, factory)
}

/// Construct a codec from the default registry, validating `options`.
///
/// The registry lock is held only for the entry lookup, not while the
/// factory runs, so factories may call back into the registry.
pub fn build(name: &str, options: &Options) -> Result<Box<dyn Compressor>, RegistryError> {
    let entry = global().read().lookup(name).cloned()?;
    build_from_entry(&entry, options)
}

/// Construct a codec from the default registry with default settings.
pub fn build_default(name: &str) -> Result<Box<dyn Compressor>, RegistryError> {
    build(name, &Options::new())
}

/// Construct a shareable codec handle from the default registry.
pub fn build_arc(name: &str, options: &Options) -> Result<Arc<dyn Compressor>, RegistryError> {
    build(name, options).map(Arc::from)
}

/// A clone of the descriptor registered under a name in the default
/// registry.
pub fn describe(name: &str) -> Option<CodecDescriptor> {
    global().read().describe(name).cloned()
}

/// True when the default registry knows this name or alias.
pub fn contains(name: &str) -> bool {
    global().read().contains(name)
}

/// Names of every codec in the default registry.
///
/// Kept from the pre-registry API; now reflects external registrations too.
pub fn names() -> Vec<String> {
    global().read().names()
}

/// Names of the default registry's FRaZ-searchable (error-bounded) codecs.
pub fn error_bounded_names() -> Vec<String> {
    global().read().error_bounded_names()
}

/// Tests that run under any feature combination (the slim-build CI job
/// exercises `--no-default-features --features szx`).
#[cfg(test)]
mod feature_independent_tests {
    use super::*;
    use crate::descriptor::BoundKind;

    pub(super) struct NullCodec;
    impl Compressor for NullCodec {
        fn name(&self) -> &str {
            "null"
        }
        fn supports_dims(&self, _dims: &fraz_data::Dims) -> bool {
            true
        }
        fn bound_range(&self, _dataset: &fraz_data::Dataset) -> (f64, f64) {
            (1e-9, 1.0)
        }
        fn compress(
            &self,
            _dataset: &fraz_data::Dataset,
            _bound: f64,
        ) -> Result<Vec<u8>, PressioError> {
            Ok(Vec::new())
        }
        fn decompress(&self, _data: &[u8]) -> Result<fraz_data::Dataset, PressioError> {
            Err(PressioError::Codec("null codec".into()))
        }
    }

    #[test]
    fn with_builtins_matches_enabled_features() {
        let registry = Registry::with_builtins();
        assert_eq!(registry.contains("sz"), cfg!(feature = "sz"));
        assert_eq!(registry.contains("zfp"), cfg!(feature = "zfp"));
        assert_eq!(registry.contains("zfp-rate"), cfg!(feature = "zfp"));
        assert_eq!(registry.contains("mgard"), cfg!(feature = "mgard"));
        assert_eq!(registry.contains("mgard-l2"), cfg!(feature = "mgard"));
        assert_eq!(registry.contains("szx"), cfg!(feature = "szx"));
    }

    /// Forwards every trait method to the codec it wraps, the way a tracing
    /// harness does.
    struct Forward(Box<dyn Compressor>);
    impl Compressor for Forward {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn bound_kind(&self) -> BoundKind {
            self.0.bound_kind()
        }
        fn supports_dims(&self, dims: &fraz_data::Dims) -> bool {
            self.0.supports_dims(dims)
        }
        fn bound_range(&self, dataset: &fraz_data::Dataset) -> (f64, f64) {
            self.0.bound_range(dataset)
        }
        fn compress(
            &self,
            dataset: &fraz_data::Dataset,
            bound: f64,
        ) -> Result<Vec<u8>, PressioError> {
            self.0.compress(dataset, bound)
        }
        fn decompress(&self, data: &[u8]) -> Result<fraz_data::Dataset, PressioError> {
            self.0.decompress(data)
        }
    }

    #[test]
    fn a_codecs_facts_agree_wherever_they_are_read() {
        let mut registry = Registry::with_builtins();
        let builtins = registry.names();
        // Wrap every built-in as a tracing harness does: describe, rename,
        // register, build the inner codec in the factory.
        for name in &builtins {
            let mut descriptor = registry.describe(name).unwrap().clone();
            descriptor.name = format!("forwarded-{name}");
            descriptor.aliases.clear();
            let (inner, name) = (registry.clone(), name.clone());
            registry
                .register(descriptor, move |options| {
                    let codec = inner
                        .build(&name, options)
                        .map_err(|e| PressioError::Codec(e.to_string()))?;
                    Ok(Box::new(Forward(codec)))
                })
                .unwrap();
        }
        assert_eq!(registry.len(), 2 * builtins.len());
        let ranks = [
            fraz_data::Dims::d1(8),
            fraz_data::Dims::d2(4, 4),
            fraz_data::Dims::d3(2, 2, 2),
            fraz_data::Dims::d4(2, 2, 2, 2),
        ];
        for registered in registry.names() {
            let descriptor = registry.describe(&registered).unwrap();
            let codec = registry.build(&registered, &Options::new()).unwrap();
            assert_eq!(
                descriptor.error_bounded(),
                descriptor.bound_kind.is_error_bounded()
            );
            // A wrapper answers to its inner codec's name, and that name
            // leads to the same facts as the one it was registered under.
            if builtins.contains(&registered) {
                assert_eq!(codec.name(), descriptor.name);
            }
            let named = registry.describe(codec.name()).unwrap();
            for read in [descriptor, named] {
                assert_eq!(codec.bound_kind(), read.bound_kind, "{registered}");
                for dims in &ranks {
                    assert_eq!(
                        codec.supports_dims(dims),
                        read.dims.supports(dims),
                        "{registered} at {}-D",
                        dims.ndims()
                    );
                }
            }
        }
    }

    #[test]
    fn aliases_resolve_to_the_canonical_codec() {
        let mut registry = Registry::empty();
        registry
            .register(
                CodecDescriptor::new("real", BoundKind::AbsoluteError).with_alias("nickname"),
                |_| Ok(Box::new(NullCodec)),
            )
            .unwrap();
        assert!(registry.contains("nickname"));
        assert_eq!(registry.describe("nickname").unwrap().name, "real");
        assert!(registry.build("nickname", &Options::new()).is_ok());
        // Aliases do not appear among canonical names.
        assert_eq!(registry.names(), vec!["real".to_string()]);
    }

    #[test]
    fn factory_errors_surface_as_construction_errors() {
        let mut registry = Registry::empty();
        registry
            .register(
                CodecDescriptor::new("broken", BoundKind::AbsoluteError),
                |_| Err(PressioError::Codec("always fails".into())),
            )
            .unwrap();
        let err = registry.build("broken", &Options::new()).err().unwrap();
        match &err {
            RegistryError::Construction { codec, source } => {
                assert_eq!(codec, "broken");
                assert!(matches!(source, PressioError::Codec(_)));
            }
            other => panic!("wrong error: {other}"),
        }
        assert!(err.to_string().contains("always fails"));
    }

    #[test]
    fn error_displays_are_actionable() {
        let err = RegistryError::UnknownOption {
            codec: "sz".into(),
            key: "sz:blok_size".into(),
            suggestion: Some("sz:block_size".into()),
        };
        let msg = err.to_string();
        assert!(msg.contains("sz:blok_size") && msg.contains("did you mean"));
        let err = RegistryError::TypeMismatch {
            codec: "sz".into(),
            key: "sz:block_size".into(),
            expected: OptionKind::U64,
            actual: OptionKind::Str,
        };
        assert!(err.to_string().contains("expects a u64 value, got string"));
        let err = RegistryError::OutOfRange {
            codec: "sz".into(),
            key: "sz:block_size".into(),
            value: 99.0,
            range: (1.0, 64.0),
        };
        assert!(err.to_string().contains("[1, 64]"));
        let err = RegistryError::UnknownCodec {
            name: "zzz".into(),
            suggestion: None,
        };
        assert!(err.to_string().contains("zzz"));
        assert!(RegistryError::DuplicateName { name: "x".into() }
            .to_string()
            .contains("already registered"));
    }

    #[test]
    fn empty_registry_reports_unknown_without_suggestion() {
        let registry = Registry::empty();
        assert!(registry.is_empty());
        match registry.build("sz", &Options::new()).err().unwrap() {
            RegistryError::UnknownCodec { suggestion, .. } => assert!(suggestion.is_none()),
            other => panic!("wrong error: {other}"),
        }
    }
}

#[cfg(all(
    test,
    feature = "sz",
    feature = "zfp",
    feature = "mgard",
    feature = "szx"
))]
mod tests {
    use super::feature_independent_tests::NullCodec;
    use super::*;
    use crate::descriptor::{BoundKind, DimRange};
    use fraz_data::{Dataset, Dims};

    const BUILTINS: [&str; 6] = ["sz", "zfp", "zfp-rate", "mgard", "mgard-l2", "szx"];

    #[test]
    fn builtins_construct_and_describe() {
        let registry = Registry::with_builtins();
        assert_eq!(registry.len(), 6);
        assert!(!registry.is_empty());
        for name in BUILTINS {
            let codec = registry.build(name, &Options::new()).unwrap();
            assert_eq!(codec.name(), name);
            let descriptor = registry.describe(name).unwrap();
            assert_eq!(descriptor.name, name);
            assert_eq!(descriptor.bound_kind, codec.bound_kind());
        }
        let mut expected = BUILTINS.map(String::from).to_vec();
        expected.sort();
        assert_eq!(registry.names(), expected, "names are sorted");
    }

    #[test]
    fn unknown_codec_suggests_nearest_name() {
        let registry = Registry::with_builtins();
        let err = registry.build("szz", &Options::new()).err().unwrap();
        match err {
            RegistryError::UnknownCodec { name, suggestion } => {
                assert_eq!(name, "szz");
                assert_eq!(suggestion.as_deref(), Some("sz"));
            }
            other => panic!("wrong error: {other}"),
        }
        assert!(registry.build("does-not-exist", &Options::new()).is_err());
    }

    #[test]
    fn error_bounded_subset_excludes_fixed_rate() {
        let registry = Registry::with_builtins();
        let eb = registry.error_bounded_names();
        assert!(eb.contains(&"sz".to_string()));
        assert!(eb.contains(&"zfp".to_string()));
        assert!(eb.contains(&"szx".to_string()));
        assert!(!eb.contains(&"zfp-rate".to_string()));
        for name in &eb {
            assert!(registry.contains(name));
        }
    }

    #[test]
    fn constructed_backends_work_end_to_end() {
        let registry = Registry::with_builtins();
        let values: Vec<f32> = (0..32 * 32)
            .map(|i| ((i % 32) as f32 * 0.2).sin() * 7.0)
            .collect();
        let dataset = Dataset::from_f32("t", "f", 0, Dims::d2(32, 32), values);
        for name in registry.error_bounded_names() {
            let backend = registry.build(&name, &Options::new()).unwrap();
            let outcome = backend.evaluate(&dataset, 1e-2, true).unwrap();
            assert!(outcome.compression_ratio > 1.0, "{name}");
            let quality = outcome.quality.unwrap();
            if name == "mgard-l2" {
                // The L2 backend bounds the RMS error, not the max error.
                assert!(quality.rmse <= 1e-2, "{name}: rmse {}", quality.rmse);
            } else {
                assert!(quality.max_abs_error <= 1e-2 + 1e-12, "{name}");
            }
        }
    }

    #[test]
    fn options_are_validated_not_ignored() {
        let registry = Registry::with_builtins();
        // Valid option: accepted and forwarded.
        let options = Options::new().with("sz:block_size", 8u64);
        let backend = registry.build("sz", &options).unwrap();
        assert_eq!(backend.name(), "sz");

        // The silent-ignore footgun is gone: a typo'd key is an error that
        // names the nearest valid key.
        let typo = Options::new().with("sz:blok_size", 8u64);
        let err = registry.build("sz", &typo).err().unwrap();
        match err {
            RegistryError::UnknownOption {
                codec,
                key,
                suggestion,
            } => {
                assert_eq!(codec, "sz");
                assert_eq!(key, "sz:blok_size");
                assert_eq!(suggestion.as_deref(), Some("sz:block_size"));
            }
            other => panic!("wrong error: {other}"),
        }

        // Mistyped values are errors too.
        let mistyped = Options::new().with("sz:block_size", "eight");
        assert!(matches!(
            registry.build("sz", &mistyped),
            Err(RegistryError::TypeMismatch { .. })
        ));

        // Options for a *different* codec are unknown here by design: the
        // caller passes each codec its own namespace.
        let foreign = Options::new().with("zfp:mode", "accuracy");
        assert!(matches!(
            registry.build("sz", &foreign),
            Err(RegistryError::UnknownOption { .. })
        ));
    }

    #[test]
    fn registration_rejects_duplicates() {
        let mut registry = Registry::with_builtins();
        let err = registry
            .register(CodecDescriptor::new("sz", BoundKind::AbsoluteError), |_| {
                Ok(Box::new(NullCodec))
            })
            .unwrap_err();
        assert_eq!(err, RegistryError::DuplicateName { name: "sz".into() });
        // Aliases are reserved names too, in both directions.
        let err = registry
            .register(
                CodecDescriptor::new("fresh", BoundKind::AbsoluteError).with_alias("zfp"),
                |_| Ok(Box::new(NullCodec)),
            )
            .unwrap_err();
        assert_eq!(err, RegistryError::DuplicateName { name: "zfp".into() });
        assert_eq!(registry.len(), 6, "failed registrations must not leak");
    }

    #[test]
    fn build_arc_returns_shareable_handle() {
        let registry = Registry::with_builtins();
        let codec = registry.build_arc("zfp", &Options::new()).unwrap();
        let clone = Arc::clone(&codec);
        assert_eq!(clone.name(), "zfp");
    }

    #[test]
    fn global_registry_serves_builtins_and_registrations() {
        for name in BUILTINS {
            assert!(contains(name), "{name}");
            assert!(names().contains(&name.to_string()));
        }
        assert!(build_default("zfp").is_ok());
        assert!(build_arc("sz", &Options::new()).is_ok());
        assert_eq!(
            describe("mgard").unwrap().bound_kind,
            BoundKind::InfinityNorm
        );
        assert!(describe("missing").is_none());
        assert!(!error_bounded_names().contains(&"zfp-rate".to_string()));

        // A registration through the free function is immediately visible.
        register(
            CodecDescriptor::new("unit-test-global", BoundKind::AbsoluteError)
                .with_dims(DimRange::any()),
            |_| Ok(Box::new(NullCodec)),
        )
        .unwrap();
        assert!(contains("unit-test-global"));
        assert!(build_default("unit-test-global").is_ok());
    }

    #[test]
    fn global_factories_may_reenter_the_registry() {
        // A composite codec whose factory builds its inner codec from the
        // same global registry.  This deadlocks if build() holds the
        // registry lock while the factory runs, so run it on a watchdog
        // thread and fail instead of hanging the suite.
        register(
            CodecDescriptor::new("reenter-unit-test", BoundKind::AbsoluteError),
            |_| build("sz", &Options::new()).map_err(|e| PressioError::Codec(e.to_string())),
        )
        .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            tx.send(build_default("reenter-unit-test").map(|c| c.name().to_string()))
                .ok();
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("re-entrant factory deadlocked on the registry lock");
        assert_eq!(result.unwrap(), "sz");
    }

    #[test]
    fn descriptor_option_schemas_document_the_builtins() {
        let registry = Registry::with_builtins();
        let sz = registry.describe("sz").unwrap();
        let block = sz.option("sz:block_size").unwrap();
        assert_eq!(block.kind, OptionKind::U64);
        assert!(block.range.is_some());
        assert!(!block.doc.is_empty());
        let defaults = sz.default_options();
        assert!(defaults.get_u64("sz:quant_capacity").is_some());
        // Backends without knobs have empty (but present) schemas.
        assert!(registry.describe("zfp").unwrap().options.is_empty());
        assert_eq!(
            registry.describe("mgard").unwrap().dims,
            DimRange::new(2, 3)
        );
        // The szx knob is introspectable with a default and a range.
        let szx = registry.describe("szx").unwrap();
        let block = szx.option("szx:block_size").unwrap();
        assert_eq!(block.kind, OptionKind::U64);
        assert!(block.default.is_some() && block.range.is_some());
    }
}
