//! Manifest file loading: format detection (TOML vs JSON by extension) in
//! front of the shared [`Manifest`] deserialization path.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use fraz_data::manifest::{FieldTarget, Manifest, ManifestError};

use crate::toml::{self, TomlError};

/// Errors loading a manifest file.
#[derive(Debug)]
pub enum ConfigError {
    /// The file could not be read.
    Io(String, io::Error),
    /// The extension is neither `.toml` nor `.json`.
    UnknownFormat(String),
    /// TOML syntax error.
    Toml(TomlError),
    /// The document parsed but is not a valid manifest.
    Manifest(ManifestError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Io(path, e) => write!(f, "cannot read `{path}`: {e}"),
            ConfigError::UnknownFormat(path) => write!(
                f,
                "`{path}`: unknown manifest format — use a `.toml` or `.json` extension"
            ),
            ConfigError::Toml(e) => write!(f, "manifest TOML error: {e}"),
            ConfigError::Manifest(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ManifestError> for ConfigError {
    fn from(e: ManifestError) -> Self {
        ConfigError::Manifest(e)
    }
}

/// What one manifest field asks of its search — the same under `fraz run`
/// and `fraz store create`, because both read it from here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldBudget {
    /// The field's objective.
    pub target: FieldTarget,
    /// Acceptable relative deviation ε from a ratio target (default 10 %).
    pub tolerance: f64,
    /// Search regions, when the manifest sets them (at least 1).
    pub regions: Option<usize>,
    /// Evaluations per region (ratio) or per search (quality), when the
    /// manifest sets them: at least 1 for a ratio target, at least 2 for a
    /// quality target, whose search brackets before it bisects.
    pub max_iterations: Option<usize>,
    /// The error-bound ceiling `U`.
    pub max_error_bound: Option<f64>,
}

impl FieldBudget {
    /// The budget `manifest` implies for a field with this `target`.
    pub fn new(manifest: &Manifest, target: FieldTarget) -> Self {
        let floor = match target {
            FieldTarget::Ratio(_) => 1,
            FieldTarget::MinPsnr(_) => 2,
        };
        Self {
            target,
            tolerance: manifest.tolerance.unwrap_or(0.1),
            regions: manifest.regions.map(|r| r.max(1)),
            max_iterations: manifest.max_iterations.map(|i| i.max(floor)),
            max_error_bound: manifest.max_error_bound,
        }
    }
}

/// Load and validate the manifest at `path`, dispatching on its extension.
pub fn load_manifest(path: &Path) -> Result<Manifest, ConfigError> {
    let ext = path
        .extension()
        .and_then(|e| e.to_str())
        .map(|e| e.to_ascii_lowercase());
    let read =
        || fs::read_to_string(path).map_err(|e| ConfigError::Io(path.display().to_string(), e));
    match ext.as_deref() {
        Some("toml") => {
            let value = toml::parse(&read()?).map_err(ConfigError::Toml)?;
            Ok(Manifest::from_value(value)?)
        }
        Some("json") => Ok(Manifest::from_json_str(&read()?)?),
        _ => Err(ConfigError::UnknownFormat(path.display().to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn write_temp(name: &str, contents: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("fraz_cli_config_{}_{name}", std::process::id()));
        fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn toml_and_json_manifests_parse_identically() {
        let toml_path = write_temp(
            "m.toml",
            concat!(
                "application = \"t\"\ntarget_ratio = 8.0\n\n",
                "[[fields]]\nname = \"a\"\ndtype = \"f32\"\ndims = [4, 5]\nfile = \"a.f32\"\n"
            ),
        );
        let json_path = write_temp(
            "m.json",
            r#"{"application": "t", "target_ratio": 8.0,
                "fields": [{"name": "a", "dtype": "f32", "dims": [4, 5], "file": "a.f32"}]}"#,
        );
        let from_toml = load_manifest(&toml_path).unwrap();
        let from_json = load_manifest(&json_path).unwrap();
        assert_eq!(from_toml, from_json);
        fs::remove_file(toml_path).ok();
        fs::remove_file(json_path).ok();
    }

    #[test]
    fn unknown_extension_is_rejected() {
        let err = load_manifest(Path::new("manifest.yaml")).unwrap_err();
        assert!(err.to_string().contains("`.toml` or `.json`"), "{err}");
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_manifest(Path::new("/definitely/missing.toml")).unwrap_err();
        assert!(matches!(err, ConfigError::Io(..)), "{err}");
    }

    /// The manifest is a trust boundary like a frame or a container: every
    /// truncation of a committed manifest and every single hostile byte
    /// written over one loads, or fails with a typed [`ConfigError`] — the
    /// sweep finishing is the no-panic assertion.
    #[test]
    fn manifest_files_survive_truncation_and_hostile_bytes() {
        let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/");
        let hostile = b"[]{}\"'\\=,#\n\x00\xFF";
        for fixture in [
            "mini_app/manifest.toml",
            "scenarios/manifest.toml",
            "mini_app/manifest.json",
        ] {
            let intact = fs::read(format!("{fixtures}{fixture}")).unwrap();
            let path = write_temp(&fixture.replace('/', "_"), "");
            let load = |bytes: &[u8]| {
                fs::write(&path, bytes).unwrap();
                load_manifest(&path)
            };
            load(&intact).unwrap_or_else(|e| panic!("{fixture}: {e}"));
            let (mut loaded, mut refused) = (0usize, 0usize);
            let mut tally = |outcome: Result<Manifest, ConfigError>| match outcome {
                Ok(_) => loaded += 1,
                Err(_) => refused += 1,
            };
            for cut in 0..intact.len() {
                tally(load(&intact[..cut]));
            }
            let mut damaged = intact.clone();
            for at in 0..intact.len() {
                for &byte in hostile {
                    damaged[at] = byte;
                    tally(load(&damaged));
                }
                damaged[at] = intact[at];
            }
            // Both verdicts occur: a byte written into a comment is
            // harmless, one written into a key is not.
            assert!(loaded > 0 && refused > 0, "{fixture}: {loaded} / {refused}");
            // Non-UTF-8 input is refused as such, not passed to a parser.
            damaged[0] = 0xFF;
            assert!(matches!(load(&damaged), Err(ConfigError::Io(..))));
            fs::remove_file(path).ok();
        }
    }

    #[test]
    fn manifest_errors_pass_through_with_context() {
        let path = write_temp("bad.toml", "application = \"t\"\nfields = []\n");
        let err = load_manifest(&path).unwrap_err().to_string();
        assert!(err.contains("no fields declared"), "{err}");
        fs::remove_file(path).ok();
    }
}
