//! Dataset manifests: declarative descriptions of an SDRBench-style
//! directory of real archive fields.
//!
//! SDRBench distributes each application (Hurricane, NYX, CESM-ATM, …) as a
//! directory of headerless little-endian files, one per field per
//! time-step, with the grid shape documented out-of-band.  A [`Manifest`]
//! writes that out-of-band knowledge down — field name, file(s), element
//! type, dimensions, per-field compression target — so the `fraz` CLI can
//! run the whole paper-style evaluation (§V of Underwood et al., IPDPS
//! 2020) over a directory without any Rust code.
//!
//! Manifests are plain data parsed through the workspace's derived
//! [`serde::Deserialize`] impls — JSON directly ([`Manifest::from_json_str`])
//! or any frontend that produces a [`serde_json::Value`]
//! ([`Manifest::from_value`], used by the CLI's TOML loader).  Parsing
//! errors name the offending entry (`fields[2].dims[1]: …`); semantic
//! errors ([`Manifest::validate`], [`Manifest::resolve`]) name the field.
//!
//! ```
//! use fraz_data::manifest::Manifest;
//!
//! let manifest = Manifest::from_json_str(r#"{
//!     "application": "hurricane",
//!     "compressor": "sz",
//!     "target_ratio": 10.0,
//!     "fields": [
//!         {"name": "CLOUDf", "file": "CLOUDf48.bin.f32",
//!          "dtype": "f32", "dims": [100, 500, 500]},
//!         {"name": "PRECIPf", "pattern": "PRECIPf*.bin.f32",
//!          "dtype": "f32", "dims": [100, 500, 500], "target_ratio": 16.0}
//!     ]
//! }"#).unwrap();
//! assert_eq!(manifest.fields.len(), 2);
//! assert_eq!(manifest.fields[1].target_ratio, Some(16.0));
//! ```

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::buffer::DType;
use crate::dims::Dims;
use crate::io::{self, IoError};
use crate::synthetic;
use crate::Dataset;

/// A whole-application manifest: shared defaults plus one entry per field.
///
/// Unset options fall back to the CLI's defaults (tolerance 10 %, the
/// paper's 12 regions, …); `target_ratio` here is the application-wide
/// default that individual [`FieldSpec`]s may override.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Application name, used in reports (e.g. `"hurricane"`).
    pub application: String,
    /// Registry name of the compressor backend (default `"sz"`).
    pub compressor: Option<String>,
    /// Default target compression ratio for fields that do not set one.
    pub target_ratio: Option<f64>,
    /// Acceptable relative deviation ε from the target ratio.
    pub tolerance: Option<f64>,
    /// Maximum allowed error bound `U` passed to every search.
    pub max_error_bound: Option<f64>,
    /// Number of overlapping search regions (paper default: 12).
    pub regions: Option<usize>,
    /// Maximum objective evaluations per region.
    pub max_iterations: Option<usize>,
    /// Worker threads for the shared pool (0 or unset: all cores).
    pub workers: Option<usize>,
    /// Directory holding the data files, relative to the manifest file
    /// (default: the manifest's own directory).
    pub data_dir: Option<String>,
    /// The fields to tune.
    pub fields: Vec<FieldSpec>,
}

/// One field of the application: where its bytes live and what to aim for.
///
/// Exactly one of `file`, `files`, `pattern`, or `generator` must be given.
/// A multi-file field is a time series in file order (`files`) or in
/// natural name order (`pattern`), feeding the orchestrator's time-step
/// prediction reuse.  A `generator` field has no files at all:
/// [`synthetic::generate`] synthesizes the series deterministically from
/// `seed` and `steps`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldSpec {
    /// Field name, used in reports (e.g. `"CLOUDf"`).
    pub name: String,
    /// Element type of the raw file (`"f32"` or `"f64"`).
    pub dtype: DType,
    /// Grid dimensions, slowest-varying axis first (1–4 axes).
    pub dims: Vec<usize>,
    /// A single data file (one time-step).
    pub file: Option<String>,
    /// An explicit time series of data files.
    pub files: Option<Vec<String>>,
    /// A glob (`*`/`?`) matched against file names in the data directory;
    /// matches are sorted in natural name order (`t2` before `t10`) and
    /// treated as the time series.
    pub pattern: Option<String>,
    /// A generator name instead of any file source — a regime (`"smooth"`,
    /// `"turbulence"`, …) or a Table-III field (`"hurricane/TCf"`); the
    /// field is generated, not read.
    pub generator: Option<String>,
    /// Seed for a `generator` field (default: [`synthetic::DEFAULT_SEED`]).
    pub seed: Option<u64>,
    /// Time-steps to synthesize for a `generator` field (default 1).
    pub steps: Option<usize>,
    /// Per-field target ratio, overriding the manifest default.
    pub target_ratio: Option<f64>,
    /// Quality-targeted alternative: find the most compressive bound with
    /// PSNR at least this many dB (instead of a fixed-ratio search).
    pub min_psnr: Option<f64>,
}

/// What a resolved field asks FRaZ to do.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FieldTarget {
    /// Fixed-ratio search: hit this compression ratio (Algorithm 1/2).
    Ratio(f64),
    /// Fixed-quality search: maximize ratio subject to `PSNR >= x` dB
    /// (the paper's §VII future-work direction).
    MinPsnr(f64),
}

impl fmt::Display for FieldTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldTarget::Ratio(r) => write!(f, "ratio {r}"),
            FieldTarget::MinPsnr(p) => write!(f, "psnr>={p}dB"),
        }
    }
}

/// A field with its files located, bytes loaded and target decided.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedField {
    /// Field name from the spec.
    pub name: String,
    /// The files backing the series, in time order.
    pub paths: Vec<PathBuf>,
    /// The loaded time series, one dataset per file.
    pub series: Vec<Dataset>,
    /// The per-field objective.
    pub target: FieldTarget,
}

/// A manifest with every field resolved against a directory.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedManifest {
    /// Application name.
    pub application: String,
    /// Compressor registry name (the `"sz"` default applied).
    pub compressor: String,
    /// Resolved fields, in manifest order.
    pub fields: Vec<ResolvedField>,
}

/// Errors loading, validating, or resolving a manifest.
#[derive(Debug)]
pub enum ManifestError {
    /// The document did not parse into the manifest types.
    Parse(String),
    /// The manifest parsed but is semantically invalid; `context` names the
    /// field (or `"manifest"` for top-level problems).
    Invalid {
        /// Which part of the manifest is wrong.
        context: String,
        /// What is wrong with it.
        message: String,
    },
    /// A data file could not be read (missing, or its size contradicts the
    /// declared shape).
    Io {
        /// The file that failed.
        path: PathBuf,
        /// The underlying error.
        source: IoError,
    },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Parse(msg) => write!(f, "manifest parse error: {msg}"),
            ManifestError::Invalid { context, message } => write!(f, "{context}: {message}"),
            ManifestError::Io { path, source } => {
                write!(f, "while reading `{}`: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for ManifestError {}

impl ManifestError {
    fn invalid(context: impl Into<String>, message: impl Into<String>) -> Self {
        ManifestError::Invalid {
            context: context.into(),
            message: message.into(),
        }
    }
}

impl Manifest {
    /// Parse and validate a JSON manifest document.
    pub fn from_json_str(input: &str) -> Result<Self, ManifestError> {
        let manifest: Manifest =
            serde_json::from_str(input).map_err(|e| ManifestError::Parse(e.to_string()))?;
        manifest.validate()?;
        Ok(manifest)
    }

    /// Build and validate a manifest from an already-parsed value tree
    /// (the CLI's TOML frontend produces one of these).
    pub fn from_value(value: serde_json::Value) -> Result<Self, ManifestError> {
        let manifest: Manifest =
            serde_json::from_value(value).map_err(|e| ManifestError::Parse(e.to_string()))?;
        manifest.validate()?;
        Ok(manifest)
    }

    /// The compressor registry name, with the `"sz"` default applied.
    pub fn compressor_name(&self) -> &str {
        self.compressor.as_deref().unwrap_or("sz")
    }

    /// Semantic validation: every constraint that is not a type error.
    ///
    /// Checks, with errors naming the offending field: at least one field;
    /// unique field names; dims arity 1–4 with no zero axis; exactly one of
    /// `file`/`files`/`pattern`/`generator` (mixing `file` and `generator`
    /// gets a dedicated explanation); `seed`/`steps` only alongside
    /// `generator`; positive targets; a finite `tolerance` inside `(0, 1)`
    /// and a positive normal `max_error_bound`; at most one of
    /// `target_ratio`/`min_psnr` per field and at least one target
    /// (own or manifest default) for each.
    pub fn validate(&self) -> Result<(), ManifestError> {
        if self.fields.is_empty() {
            return Err(ManifestError::invalid(
                "manifest",
                "no fields declared — nothing to run",
            ));
        }
        if let Some(t) = self.target_ratio {
            if t.is_nan() || t <= 1.0 {
                return Err(ManifestError::invalid(
                    "manifest",
                    format!("target_ratio must be > 1, got {t}"),
                ));
            }
        }
        if let Some(t) = self.tolerance {
            if !(t > 0.0 && t < 1.0) {
                return Err(ManifestError::invalid(
                    "manifest",
                    format!("tolerance must be inside (0, 1), got {t}"),
                ));
            }
        }
        if let Some(u) = self.max_error_bound {
            if !(u > 0.0 && u.is_normal()) {
                return Err(ManifestError::invalid(
                    "manifest",
                    format!("max_error_bound must be a positive normal number, got {u}"),
                ));
            }
        }
        for (i, field) in self.fields.iter().enumerate() {
            let ctx = if field.name.is_empty() {
                format!("fields[{i}]")
            } else {
                format!("field `{}`", field.name)
            };
            if self.fields[..i].iter().any(|f| f.name == field.name) {
                return Err(ManifestError::invalid(
                    &ctx,
                    "duplicate field name — reports would be ambiguous",
                ));
            }
            if field.dims.is_empty() || field.dims.len() > 4 {
                return Err(ManifestError::invalid(
                    &ctx,
                    format!(
                        "dims must have 1 to 4 axes (slowest first), got {} axes",
                        field.dims.len()
                    ),
                ));
            }
            if let Some(zero_axis) = field.dims.iter().position(|&d| d == 0) {
                return Err(ManifestError::invalid(
                    &ctx,
                    format!("dims axis {zero_axis} is zero"),
                ));
            }
            let file_sources = [
                field.file.is_some(),
                field.files.is_some(),
                field.pattern.is_some(),
            ]
            .iter()
            .filter(|&&s| s)
            .count();
            if field.generator.is_some() && file_sources > 0 {
                // The most tempting mistake gets the most helpful message:
                // a generator field is file-less by definition.
                return Err(ManifestError::invalid(
                    &ctx,
                    format!(
                        "`generator = \"{g}\"` synthesizes the field, so it cannot also \
                         name files — did you mean to drop `file`/`files`/`pattern`, \
                         or to read files and drop `generator`?",
                        g = field.generator.as_deref().unwrap_or_default()
                    ),
                ));
            }
            let sources = file_sources + usize::from(field.generator.is_some());
            if sources != 1 {
                return Err(ManifestError::invalid(
                    &ctx,
                    format!(
                        "exactly one of `file`, `files`, `pattern` or `generator` \
                         must be given, found {sources}"
                    ),
                ));
            }
            if field.generator.is_none() {
                if let Some(knob) = [
                    ("seed", field.seed.is_some()),
                    ("steps", field.steps.is_some()),
                ]
                .iter()
                .find_map(|&(name, set)| set.then_some(name))
                {
                    return Err(ManifestError::invalid(
                        &ctx,
                        format!("`{knob}` only applies to `generator` fields"),
                    ));
                }
            }
            if field.steps == Some(0) {
                return Err(ManifestError::invalid(&ctx, "`steps` must be at least 1"));
            }
            if let Some(files) = &field.files {
                if files.is_empty() {
                    return Err(ManifestError::invalid(&ctx, "`files` is empty"));
                }
            }
            match (field.target_ratio, field.min_psnr) {
                (Some(_), Some(_)) => {
                    return Err(ManifestError::invalid(
                        &ctx,
                        "`target_ratio` and `min_psnr` are mutually exclusive",
                    ))
                }
                (Some(t), None) if t.is_nan() || t <= 1.0 => {
                    return Err(ManifestError::invalid(
                        &ctx,
                        format!("target_ratio must be > 1, got {t}"),
                    ))
                }
                (None, Some(p)) if p.is_nan() || p <= 0.0 => {
                    return Err(ManifestError::invalid(
                        &ctx,
                        format!("min_psnr must be positive, got {p}"),
                    ))
                }
                (None, None) if self.target_ratio.is_none() => {
                    return Err(ManifestError::invalid(
                        &ctx,
                        "no target: set `target_ratio`/`min_psnr` on the field \
                         or a manifest-level `target_ratio`",
                    ))
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The directory holding the data files, given the manifest's own
    /// location (its parent directory, or the process cwd for a bare name).
    pub fn data_root(&self, manifest_dir: &Path) -> PathBuf {
        match &self.data_dir {
            Some(dir) => manifest_dir.join(dir),
            None => manifest_dir.to_path_buf(),
        }
    }

    /// Locate and load every field's files under `manifest_dir`
    /// (the directory the manifest file lives in).
    ///
    /// Walks the data directory for `pattern` fields (matches sorted by
    /// name), checks each file's size against the declared shape, and
    /// loads the series with the file's position as the time-step index.
    /// `generator` fields are synthesized through [`synthetic::generate`]
    /// instead — one dataset per step, named after the manifest's
    /// application and field, with no backing paths
    /// ([`ResolvedField::paths`] stays empty).
    pub fn resolve(&self, manifest_dir: &Path) -> Result<ResolvedManifest, ManifestError> {
        self.validate()?;
        let root = self.data_root(manifest_dir);
        let mut fields = Vec::with_capacity(self.fields.len());
        for field in &self.fields {
            let ctx = format!("field `{}`", field.name);
            // Validation guarantees 1-4 non-zero axes, so Dims::new cannot
            // panic here.
            let dims = Dims::new(&field.dims);
            let target = self.field_target(field);
            let paths: Vec<PathBuf> = if field.generator.is_some() {
                Vec::new()
            } else if let Some(file) = &field.file {
                vec![root.join(file)]
            } else if let Some(files) = &field.files {
                files.iter().map(|f| root.join(f)).collect()
            } else {
                let pattern = field.pattern.as_deref().expect("validated above");
                let mut matches = walk_matching(&root, pattern).map_err(|e| ManifestError::Io {
                    path: root.clone(),
                    source: IoError::Io(e),
                })?;
                if matches.is_empty() {
                    return Err(ManifestError::invalid(
                        &ctx,
                        format!(
                            "pattern `{pattern}` matched no files under `{}`",
                            root.display()
                        ),
                    ));
                }
                // Natural (numeric-aware) name order, so unpadded step
                // numbers form a correct time series: t2 before t10.
                matches.sort_by(|a, b| {
                    natural_cmp(
                        &a.file_name().unwrap_or_default().to_string_lossy(),
                        &b.file_name().unwrap_or_default().to_string_lossy(),
                    )
                });
                matches
            };
            let series: Vec<Dataset> = if let Some(generator) = &field.generator {
                let seed = field.seed.unwrap_or(synthetic::DEFAULT_SEED);
                (0..field.steps.unwrap_or(1))
                    .map(|t| {
                        let mut dataset =
                            synthetic::generate(generator, &dims, field.dtype, seed, t)?;
                        dataset.application = self.application.clone();
                        dataset.field = field.name.clone();
                        Ok(dataset)
                    })
                    .collect::<Result<_, synthetic::UnknownGenerator>>()
                    .map_err(|e| ManifestError::invalid(&ctx, e.to_string()))?
            } else {
                let (application, name) = (&self.application, &field.name);
                let load = |(timestep, path): (usize, &PathBuf)| {
                    io::read_raw(path, application, name, timestep, dims.clone(), field.dtype)
                        .map_err(|source| ManifestError::Io {
                            path: path.clone(),
                            source,
                        })
                };
                paths
                    .iter()
                    .enumerate()
                    .map(load)
                    .collect::<Result<_, _>>()?
            };
            fields.push(ResolvedField {
                name: field.name.clone(),
                paths,
                series,
                target,
            });
        }
        Ok(ResolvedManifest {
            application: self.application.clone(),
            compressor: self.compressor_name().to_string(),
            fields,
        })
    }

    /// The per-field objective, with the manifest-level default applied
    /// (only sound after [`Manifest::validate`]).
    fn field_target(&self, field: &FieldSpec) -> FieldTarget {
        match (field.target_ratio, field.min_psnr) {
            (Some(r), None) => FieldTarget::Ratio(r),
            (None, Some(p)) => FieldTarget::MinPsnr(p),
            (None, None) => FieldTarget::Ratio(self.target_ratio.expect("validated above")),
            (Some(_), Some(_)) => unreachable!("validated above"),
        }
    }
}

/// Non-recursive directory walk returning the file names matching `pattern`.
fn walk_matching(dir: &Path, pattern: &str) -> std::io::Result<Vec<PathBuf>> {
    let mut matches = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if glob_match(pattern, name) {
            matches.push(entry.path());
        }
    }
    Ok(matches)
}

/// Natural-order string comparison: runs of ASCII digits compare as
/// numbers, everything else byte-wise — `t2 < t10`, unlike the
/// lexicographic order that scrambles unpadded time-step names.
pub fn natural_cmp(a: &str, b: &str) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let (mut i, mut j) = (0usize, 0usize);
    let digits = |s: &[u8], mut k: usize| {
        while k < s.len() && s[k].is_ascii_digit() {
            k += 1;
        }
        k
    };
    while i < a.len() && j < b.len() {
        if a[i].is_ascii_digit() && b[j].is_ascii_digit() {
            let (ie, je) = (digits(a, i), digits(b, j));
            // Compare the digit runs numerically: strip leading zeros,
            // then longer run wins, then byte order breaks ties.
            let an = &a[i..ie];
            let bn = &b[j..je];
            let strip = |s: &[u8]| s.iter().position(|&c| c != b'0').unwrap_or(s.len());
            let (at, bt) = (&an[strip(an)..], &bn[strip(bn)..]);
            let ord = at.len().cmp(&bt.len()).then_with(|| at.cmp(bt));
            if ord != Ordering::Equal {
                return ord;
            }
            // Numerically equal (e.g. `01` vs `1`): fewer leading zeros
            // first, for a deterministic total order.
            let ord = an.len().cmp(&bn.len());
            if ord != Ordering::Equal {
                return ord;
            }
            i = ie;
            j = je;
        } else {
            let ord = a[i].cmp(&b[j]);
            if ord != Ordering::Equal {
                return ord;
            }
            i += 1;
            j += 1;
        }
    }
    (a.len() - i).cmp(&(b.len() - j))
}

/// Shell-style glob matching: `*` matches any run of characters (including
/// none), `?` matches exactly one; everything else is literal.
///
/// Iterative two-pointer algorithm with single-star backtracking —
/// `O(pattern × name)` worst case, so adversarial patterns full of `*`
/// cannot blow the stack or go exponential the way naive recursion does.
pub fn glob_match(pattern: &str, name: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let n: Vec<char> = name.chars().collect();
    let (mut pi, mut ni) = (0usize, 0usize);
    // Most recent `*`: (pattern index after it, name index it is
    // currently absorbing up to).  Only the last star ever needs
    // revisiting: extending an earlier star is equivalent to extending
    // this one.
    let mut star: Option<(usize, usize)> = None;
    while ni < n.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some((pi + 1, ni));
            pi += 1;
        } else if let Some((star_p, star_n)) = star {
            // Backtrack: let the star swallow one more character.
            pi = star_p;
            ni = star_n + 1;
            star = Some((star_p, star_n + 1));
        } else {
            return false;
        }
    }
    // Only trailing stars may remain unconsumed.
    p[pi..].iter().all(|&c| c == '*')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_raw;

    fn minimal_json(fields: &str) -> String {
        format!(r#"{{"application": "test", "target_ratio": 8.0, "fields": [{fields}]}}"#)
    }

    fn field_json(extra: &str) -> String {
        format!(r#"{{"name": "a", "dtype": "f32", "dims": [4, 5], "file": "a.f32"{extra}}}"#)
    }

    #[test]
    fn parses_a_minimal_manifest() {
        let m = Manifest::from_json_str(&minimal_json(&field_json(""))).unwrap();
        assert_eq!(m.application, "test");
        assert_eq!(m.compressor_name(), "sz");
        assert_eq!(m.fields[0].dims, vec![4, 5]);
        assert_eq!(m.fields[0].dtype, DType::F32);
    }

    #[test]
    fn unknown_field_is_a_readable_parse_error() {
        let err = Manifest::from_json_str(&minimal_json(&field_json(r#", "targert_ratio": 9.0"#)))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown field `targert_ratio`"), "{err}");
        assert!(err.contains("`target_ratio`"), "{err}");
        assert!(err.contains("fields[0]"), "{err}");
    }

    #[test]
    fn wrong_dims_arity_is_a_readable_error() {
        let bad = r#"{"name": "a", "dtype": "f32", "dims": [1, 2, 3, 4, 5], "file": "a.f32"}"#;
        let err = Manifest::from_json_str(&minimal_json(bad))
            .unwrap_err()
            .to_string();
        assert!(err.contains("field `a`"), "{err}");
        assert!(err.contains("1 to 4 axes"), "{err}");
        assert!(err.contains("5 axes"), "{err}");

        let zero = r#"{"name": "a", "dtype": "f32", "dims": [4, 0], "file": "a.f32"}"#;
        let err = Manifest::from_json_str(&minimal_json(zero))
            .unwrap_err()
            .to_string();
        assert!(err.contains("axis 1 is zero"), "{err}");
    }

    #[test]
    fn bad_dtype_is_a_readable_error() {
        let bad = r#"{"name": "a", "dtype": "f16", "dims": [4], "file": "a.f32"}"#;
        let err = Manifest::from_json_str(&minimal_json(bad))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown dtype `f16`"), "{err}");
        assert!(err.contains("fields[0].dtype"), "{err}");
    }

    #[test]
    fn file_sources_are_mutually_exclusive() {
        let both = field_json(r#", "pattern": "a*.f32""#);
        let err = Manifest::from_json_str(&minimal_json(&both))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("exactly one of `file`, `files`, `pattern` or `generator`"),
            "{err}"
        );

        let neither = r#"{"name": "a", "dtype": "f32", "dims": [4]}"#;
        let err = Manifest::from_json_str(&minimal_json(neither))
            .unwrap_err()
            .to_string();
        assert!(err.contains("found 0"), "{err}");
    }

    #[test]
    fn file_plus_generator_gets_a_did_you_mean_error() {
        let both = field_json(r#", "generator": "turbulence""#);
        let err = Manifest::from_json_str(&minimal_json(&both))
            .unwrap_err()
            .to_string();
        assert!(err.contains("field `a`"), "{err}");
        assert!(err.contains("`generator = \"turbulence\"`"), "{err}");
        assert!(err.contains("did you mean"), "{err}");
        // The generic count message is reserved for zero/many file sources.
        assert!(!err.contains("found 2"), "{err}");
    }

    #[test]
    fn generator_knobs_require_a_generator() {
        for knob in [r#", "seed": 7"#, r#", "steps": 3"#] {
            let err = Manifest::from_json_str(&minimal_json(&field_json(knob)))
                .unwrap_err()
                .to_string();
            assert!(err.contains("only applies to `generator` fields"), "{err}");
        }
        let zero_steps = r#"{"name": "a", "dtype": "f32", "dims": [64],
                             "generator": "noise", "steps": 0}"#;
        let err = Manifest::from_json_str(&minimal_json(zero_steps))
            .unwrap_err()
            .to_string();
        assert!(err.contains("`steps` must be at least 1"), "{err}");
    }

    fn generated(fields: &str) -> Manifest {
        Manifest::from_json_str(&format!(
            r#"{{"application": "synthetic", "target_ratio": 8.0, "fields": [{fields}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn generator_fields_resolve_to_named_series_without_files() {
        let m = generated(
            r#"{"name": "vel", "dtype": "f32", "dims": [16, 16],
                "generator": "smooth", "seed": 11, "steps": 3},
               {"name": "tc", "dtype": "f64", "dims": [4, 6, 6],
                "generator": "hurricane/TCf"}"#,
        );
        let resolved = m.resolve(Path::new(".")).unwrap();
        let vel = &resolved.fields[0];
        assert_eq!(vel.series.len(), 3);
        assert!(vel.paths.is_empty(), "no backing files");
        for (t, dataset) in vel.series.iter().enumerate() {
            assert_eq!(dataset.application, "synthetic");
            assert_eq!(dataset.field, "vel");
            assert_eq!(dataset.timestep, t);
            assert_eq!(dataset.dims, Dims::d2(16, 16));
        }
        let direct = synthetic::generate("smooth", &Dims::d2(16, 16), DType::F32, 11, 2).unwrap();
        assert_eq!(vel.series[2].buffer, direct.buffer);

        // A Table-III field by name, at the manifest's dims and dtype and the
        // default seed; its f32 narrowing is what the app constructor emits.
        let tc = &resolved.fields[1];
        assert_eq!((tc.series.len(), tc.series[0].dtype()), (1, DType::F64));
        let app = synthetic::hurricane(4, 6, 6, 1, synthetic::DEFAULT_SEED);
        let narrowed: Vec<f32> = tc.series[0]
            .values_f64()
            .iter()
            .map(|&v| v as f32)
            .collect();
        assert_eq!(app.field("TCf", 0).buffer.to_f32_vec(), narrowed);

        // Deterministic: resolving again yields the same bits.
        assert_eq!(m.resolve(Path::new(".")).unwrap(), resolved);
    }

    #[test]
    fn unknown_generator_gets_a_did_you_mean() {
        for (typo, meant) in [
            ("turbulance", "turbulence"),
            ("huricane/TCf", "hurricane/TCf"),
        ] {
            let m = generated(&format!(
                r#"{{"name": "g", "dtype": "f64", "dims": [64], "generator": "{typo}"}}"#
            ));
            let err = m.resolve(Path::new(".")).unwrap_err().to_string();
            assert!(err.contains("field `g`"), "{err}");
            assert!(
                err.contains(&format!("unknown generator `{typo}`")),
                "{err}"
            );
            assert!(err.contains(&format!("did you mean `{meant}`?")), "{err}");
        }
    }

    #[test]
    fn a_field_without_any_target_is_rejected() {
        let json = r#"{"application": "t", "fields": [{"name": "a", "dtype": "f32", "dims": [4], "file": "a.f32"}]}"#;
        let err = Manifest::from_json_str(json).unwrap_err().to_string();
        assert!(err.contains("no target"), "{err}");
    }

    #[test]
    fn ratio_and_psnr_targets_are_mutually_exclusive() {
        let both = field_json(r#", "target_ratio": 9.0, "min_psnr": 60.0"#);
        let err = Manifest::from_json_str(&minimal_json(&both))
            .unwrap_err()
            .to_string();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn tolerance_and_error_ceiling_are_range_checked() {
        let with = |extra: &str| {
            let json = format!(
                r#"{{"application": "t", "target_ratio": 8.0, {extra}, "fields": [{}]}}"#,
                field_json("")
            );
            Manifest::from_json_str(&json).map_err(|e| e.to_string())
        };
        for bad in ["7.5", "1.0", "0.0", "-0.1"] {
            let err = with(&format!(r#""tolerance": {bad}"#)).unwrap_err();
            assert!(
                err.contains("manifest: tolerance must be inside (0, 1)"),
                "{err}"
            );
        }
        for bad in ["-3.0", "0.0", "5e-324"] {
            let err = with(&format!(r#""max_error_bound": {bad}"#)).unwrap_err();
            assert!(
                err.contains("manifest: max_error_bound must be a positive"),
                "{err}"
            );
        }
        // JSON has no NaN or infinity, but a value tree can carry either.
        let mut manifest = with(r#""tolerance": 0.15, "max_error_bound": 1e-12"#).unwrap();
        for bad in [f64::NAN, f64::INFINITY] {
            manifest.tolerance = Some(bad);
            let err = manifest.validate().unwrap_err().to_string();
            assert!(err.contains("tolerance"), "{err}");
            manifest.tolerance = None;
            manifest.max_error_bound = Some(bad);
            let err = manifest.validate().unwrap_err().to_string();
            assert!(err.contains("max_error_bound"), "{err}");
            manifest.max_error_bound = None;
        }
        // The targets refuse a NaN too: every comparison of them is false.
        manifest.target_ratio = Some(f64::NAN);
        let err = manifest.validate().unwrap_err().to_string();
        assert!(err.contains("target_ratio must be > 1"), "{err}");
        manifest.target_ratio = Some(8.0);
        manifest.fields[0].target_ratio = Some(f64::NAN);
        let err = manifest.validate().unwrap_err().to_string();
        assert!(err.contains("target_ratio must be > 1"), "{err}");
        manifest.fields[0].target_ratio = None;
        manifest.fields[0].min_psnr = Some(f64::NAN);
        let err = manifest.validate().unwrap_err().to_string();
        assert!(err.contains("min_psnr must be positive"), "{err}");
    }

    #[test]
    fn duplicate_field_names_are_rejected() {
        let fields = format!("{}, {}", field_json(""), field_json(""));
        let err = Manifest::from_json_str(&minimal_json(&fields))
            .unwrap_err()
            .to_string();
        assert!(err.contains("duplicate field name"), "{err}");
    }

    #[test]
    fn natural_order_sorts_unpadded_steps_correctly() {
        use std::cmp::Ordering;
        let mut names = vec!["ts_t10.f32", "ts_t2.f32", "ts_t1.f32", "ts_t100.f32"];
        names.sort_by(|a, b| natural_cmp(a, b));
        assert_eq!(
            names,
            vec!["ts_t1.f32", "ts_t2.f32", "ts_t10.f32", "ts_t100.f32"]
        );
        assert_eq!(natural_cmp("a2b", "a10b"), Ordering::Less);
        assert_eq!(natural_cmp("a02", "a2"), Ordering::Greater); // more zeros later
        assert_eq!(natural_cmp("a", "a"), Ordering::Equal);
        assert_eq!(natural_cmp("a1", "a1x"), Ordering::Less);
        assert_eq!(natural_cmp("b1", "a2"), Ordering::Greater);
    }

    #[test]
    fn pattern_series_loads_in_temporal_order() {
        let dir = std::env::temp_dir().join(format!("fraz_manifest_nat_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for t in [1usize, 2, 10] {
            let ds = Dataset::from_f32("t", "ts", 0, Dims::d1(4), vec![t as f32; 4]);
            write_raw(dir.join(format!("ts_t{t}.f32")), &ds).unwrap();
        }
        let json = r#"{
            "application": "t", "target_ratio": 8.0,
            "fields": [{"name": "ts", "dtype": "f32", "dims": [4], "pattern": "ts_t*.f32"}]
        }"#;
        let resolved = Manifest::from_json_str(json)
            .unwrap()
            .resolve(&dir)
            .unwrap();
        let first_values: Vec<f64> = resolved.fields[0]
            .series
            .iter()
            .map(|d| d.values_f64()[0])
            .collect();
        assert_eq!(first_values, vec![1.0, 2.0, 10.0], "t10 must come last");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn glob_matching_semantics() {
        assert!(glob_match("CLOUDf*.bin", "CLOUDf48.bin"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("a?c", "abc"));
        assert!(!glob_match("a?c", "ac"));
        assert!(!glob_match("CLOUDf*.bin", "PRECIPf48.bin"));
        assert!(glob_match("*f*.f32", "CLOUDf48.f32"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
        assert!(glob_match("a*b*c", "aXbYbZc"));
        assert!(glob_match("*", ""));
        assert!(!glob_match("a*b", "a"));
    }

    #[test]
    fn glob_matching_is_not_exponential() {
        // The classic backtracking killer: many stars against a
        // near-matching long name.  Naive recursion explores ~2^n
        // branches; the two-pointer matcher must answer instantly.
        let pattern = "*a".repeat(24) + "b";
        let name = "a".repeat(200);
        let start = std::time::Instant::now();
        assert!(!glob_match(&pattern, &name));
        assert!(glob_match(&("*a".repeat(24)), &name));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "glob matching took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn resolve_loads_series_and_reports_missing_files() {
        let dir = std::env::temp_dir().join(format!("fraz_manifest_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Two time-steps matched by pattern (sorted), one single file.
        for (name, scale) in [("ts_t0.f32", 1.0f32), ("ts_t1.f32", 2.0)] {
            let ds = Dataset::from_f32(
                "t",
                "ts",
                0,
                Dims::d2(3, 4),
                (0..12).map(|i| i as f32 * scale).collect(),
            );
            write_raw(dir.join(name), &ds).unwrap();
        }
        let single = Dataset::from_f32("t", "one", 0, Dims::d1(6), vec![1.0; 6]);
        write_raw(dir.join("one.f32"), &single).unwrap();

        let json = r#"{
            "application": "t", "target_ratio": 8.0,
            "fields": [
                {"name": "ts", "dtype": "f32", "dims": [3, 4], "pattern": "ts_t?.f32"},
                {"name": "one", "dtype": "f32", "dims": [6], "file": "one.f32", "min_psnr": 60.0}
            ]
        }"#;
        let manifest = Manifest::from_json_str(json).unwrap();
        let resolved = manifest.resolve(&dir).unwrap();
        assert_eq!(resolved.fields.len(), 2);
        assert_eq!(resolved.fields[0].series.len(), 2);
        assert_eq!(resolved.fields[0].series[1].timestep, 1);
        // Sorted pattern matches: t0 before t1.
        assert!(resolved.fields[0].paths[0].to_str().unwrap().contains("t0"));
        assert_eq!(resolved.fields[1].target, FieldTarget::MinPsnr(60.0));

        // A missing file names itself in the error.
        let json = r#"{
            "application": "t", "target_ratio": 8.0,
            "fields": [{"name": "x", "dtype": "f32", "dims": [6], "file": "nope.f32"}]
        }"#;
        let err = Manifest::from_json_str(json)
            .unwrap()
            .resolve(&dir)
            .unwrap_err()
            .to_string();
        assert!(err.contains("nope.f32"), "{err}");

        // A size mismatch names the file and the byte counts.
        let json = r#"{
            "application": "t", "target_ratio": 8.0,
            "fields": [{"name": "one", "dtype": "f32", "dims": [7], "file": "one.f32"}]
        }"#;
        let err = Manifest::from_json_str(json)
            .unwrap()
            .resolve(&dir)
            .unwrap_err()
            .to_string();
        assert!(err.contains("one.f32"), "{err}");
        assert!(err.contains("28"), "{err}"); // 7 * 4 expected bytes
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unmatched_pattern_is_a_readable_error() {
        let dir = std::env::temp_dir().join(format!("fraz_manifest_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let json = r#"{
            "application": "t", "target_ratio": 8.0,
            "fields": [{"name": "x", "dtype": "f32", "dims": [6], "pattern": "none_*.f32"}]
        }"#;
        let err = Manifest::from_json_str(json)
            .unwrap()
            .resolve(&dir)
            .unwrap_err()
            .to_string();
        assert!(err.contains("matched no files"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
