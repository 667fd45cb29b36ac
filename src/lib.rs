//! # FRaZ-rs
//!
//! A from-scratch Rust reproduction of **FRaZ: A Generic High-Fidelity
//! Fixed-Ratio Lossy Compression Framework for Scientific Floating-point
//! Data** (Underwood, Di, Calhoun, Cappello — IPDPS 2020).
//!
//! This umbrella crate re-exports every workspace crate under a single
//! namespace so applications can depend on `fraz` alone:
//!
//! * [`data`] — N-dimensional scientific datasets and synthetic
//!   SDRBench-like generators (Hurricane, HACC, CESM, EXAALT, NYX).
//! * [`metrics`] — PSNR, RMSE, max error, SSIM, error autocorrelation,
//!   compression ratio and bit-rate accounting.
//! * [`lossless`] — bitstream, canonical Huffman, and LZSS dictionary coding.
//! * [`sz`] — an SZ-like blockwise prediction-based error-bounded compressor.
//! * [`zfp`] — a ZFP-like block-transform compressor with fixed-accuracy and
//!   fixed-rate modes.
//! * [`mgard`] — an MGARD-like multilevel compressor.
//! * [`szx`] — an SZx-like ultra-fast blockwise-truncation compressor.
//! * [`pressio`] — the libpressio-like abstraction layer over compressors:
//!   the [`Compressor`] trait, the extensible [`Registry`] with
//!   introspectable [`CodecDescriptor`]s, and validated [`Options`].
//! * [`pool`] — the work-stealing scoped thread pool shared by the search
//!   and the orchestrator (nested, re-entrant scopes; zero per-call thread
//!   spawns).
//! * [`core`] — FRaZ itself: the fixed-ratio autotuning optimizer and the
//!   parallel orchestrator.
//! * [`store`] — the chunked array store: a self-describing container with
//!   per-chunk tuned error bounds and partial (byte-range) decode over
//!   pluggable storage backends.
//! * [`scenarios`] — the synthetic workload suite: six seed-deterministic
//!   field regimes (smooth → noise) with oracle descriptors of known
//!   ground truth, usable as zero-file `generator` manifest fields.
//! * [`serve`] — the fault-tolerant compression service: a blocking-TCP
//!   daemon with admission control, per-job deadlines, retry/degrade
//!   dependency stacks, graceful drain, and first-class chaos injection
//!   (plus the protocol client and the open-loop load generator).
//!
//! The most commonly used registry types are re-exported at the crate root
//! ([`Registry`], [`CodecDescriptor`], [`OptionDescriptor`], [`BoundKind`],
//! [`Options`], [`RegistryError`], [`Compressor`]).
//!
//! Each codec crate (and its registry backend) sits behind a cargo feature
//! of the same name — `sz`, `zfp`, `mgard`, `szx`, all on by default — so
//! slim builds can drop the compressors they do not ship.
//!
//! ## Quick start
//!
//! ```
//! use fraz::core::{FixedRatioSearch, SearchConfig};
//! use fraz::data::synthetic;
//! use fraz::pressio::registry;
//! use fraz::Options;
//!
//! // A small hurricane-like 3-D field.
//! let dataset = synthetic::hurricane(8, 16, 16, 1, 42).field("TCf", 0);
//!
//! // Codecs come from the registry: introspect before you build.
//! let descriptor = registry::describe("sz").unwrap();
//! assert!(descriptor.error_bounded(), "sz is a valid FRaZ search target");
//! assert!(descriptor.option("sz:block_size").is_some());
//!
//! // Construction validates options — typos are errors, never ignored.
//! let options = Options::new().with("sz:block_size", 8u64);
//! let compressor = registry::build("sz", &options).unwrap();
//! assert!(registry::build("sz", &Options::new().with("sz:blok_size", 8u64)).is_err());
//!
//! // Ask FRaZ for a 10:1 ratio within 10%.
//! let config = SearchConfig::new(10.0, 0.1).with_regions(4).with_threads(2);
//! let outcome = FixedRatioSearch::new(compressor, config).run(&dataset);
//! let ratio = outcome.best.compression_ratio;
//! assert!(ratio > 1.0);
//! ```
//!
//! ## One search shell
//!
//! `FixedRatioSearch` and `FixedQualitySearch` are the same shell,
//! [`core::Search`], over two objectives, so they share every builder and
//! both entry points: `run` consults the predictor installed with
//! `with_predictor` and teaches it the result; `run_with_hint` probes an
//! explicit hint.
//!
//! ```
//! use std::sync::Arc;
//! use fraz::core::{
//!     FixedQualitySearch, HintSource, LastConverged, QualityMetric, QualitySearchConfig,
//! };
//! use fraz::data::synthetic;
//! use fraz::pressio::registry;
//!
//! let dataset = synthetic::hurricane(8, 16, 16, 1, 42).field("TCf", 0);
//! let search = FixedQualitySearch::new(
//!     registry::build_default("sz").unwrap(),
//!     QualitySearchConfig::new(QualityMetric::PsnrAtLeast(60.0)),
//! )
//! .with_predictor(Some(Arc::new(LastConverged::new(HintSource::PreviousStep))));
//! let first = search.run(&dataset); // seeded by the codec's PSNR model
//! let again = search.run(&dataset); // re-verifies the learned bound
//! assert!(first.satisfiable && again.evaluations == 1);
//! ```
//!
//! ## Plugging in your own codec
//!
//! Out-of-tree compressors join the same registry at runtime — implement
//! [`Compressor`], describe it with a [`CodecDescriptor`], register a
//! factory, and every FRaZ driver can use it; see
//! [`pressio::registry`] for a complete example.

#![forbid(unsafe_code)]

pub use fraz_core as core;
pub use fraz_data as data;
pub use fraz_lossless as lossless;
pub use fraz_metrics as metrics;
#[cfg(feature = "mgard")]
pub use fraz_mgard as mgard;
pub use fraz_pool as pool;
pub use fraz_pressio as pressio;
pub use fraz_scenarios as scenarios;
pub use fraz_serve as serve;
pub use fraz_store as store;
#[cfg(feature = "sz")]
pub use fraz_sz as sz;
#[cfg(feature = "szx")]
pub use fraz_szx as szx;
pub use fraz_tune as tune;
#[cfg(feature = "zfp")]
pub use fraz_zfp as zfp;

pub use fraz_pressio::{
    BoundKind, CodecDescriptor, Compressor, DimRange, OptionDescriptor, OptionKind, OptionValue,
    Options, PressioError, Registry, RegistryError,
};
