//! A small typed option system, mirroring libpressio's string-keyed options.
//!
//! Libpressio abstracts compressor-specific knobs behind a uniform
//! `name -> value` interface so generic tools (like FRaZ) can configure any
//! backend without compile-time knowledge of it.  This module provides the
//! same mechanism: an [`Options`] bag of typed values with conversion-checked
//! getters.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A single option value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OptionValue {
    /// Floating-point option (error bounds, rates, tolerances).
    F64(f64),
    /// Unsigned integer option (block sizes, bin counts).
    U64(u64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form string (mode names, norm selection).
    Str(String),
}

/// The type of an [`OptionValue`], without a value attached.
///
/// Option schemas ([`OptionDescriptor`](crate::OptionDescriptor)) declare
/// the kind they expect, and registry validation compares kinds instead of
/// silently dropping mistyped values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptionKind {
    /// Floating-point option.
    F64,
    /// Unsigned integer option.
    U64,
    /// Boolean flag.
    Bool,
    /// Free-form string.
    Str,
}

impl OptionKind {
    /// True when a value of this runtime type satisfies an option declared
    /// with this kind.  The accepted conversions mirror the typed getters:
    /// integers widen into `F64` options, and integral non-negative floats
    /// narrow into `U64` options.
    pub fn accepts(&self, value: &OptionValue) -> bool {
        match (self, value) {
            (OptionKind::F64, OptionValue::F64(_) | OptionValue::U64(_)) => true,
            (OptionKind::U64, OptionValue::U64(_)) => true,
            (OptionKind::U64, OptionValue::F64(v)) => v.fract() == 0.0 && *v >= 0.0,
            (OptionKind::Bool, OptionValue::Bool(_)) => true,
            (OptionKind::Str, OptionValue::Str(_)) => true,
            _ => false,
        }
    }
}

impl fmt::Display for OptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OptionKind::F64 => "f64",
            OptionKind::U64 => "u64",
            OptionKind::Bool => "bool",
            OptionKind::Str => "string",
        })
    }
}

impl OptionValue {
    /// The runtime type of this value.
    pub fn kind(&self) -> OptionKind {
        match self {
            OptionValue::F64(_) => OptionKind::F64,
            OptionValue::U64(_) => OptionKind::U64,
            OptionValue::Bool(_) => OptionKind::Bool,
            OptionValue::Str(_) => OptionKind::Str,
        }
    }

    /// Numeric view of the value, when it has one (used for range checks).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            OptionValue::F64(v) => Some(*v),
            OptionValue::U64(v) => Some(*v as f64),
            _ => None,
        }
    }
}

impl fmt::Display for OptionValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionValue::F64(v) => write!(f, "{v}"),
            OptionValue::U64(v) => write!(f, "{v}"),
            OptionValue::Bool(v) => write!(f, "{v}"),
            OptionValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<f64> for OptionValue {
    fn from(v: f64) -> Self {
        OptionValue::F64(v)
    }
}
impl From<u64> for OptionValue {
    fn from(v: u64) -> Self {
        OptionValue::U64(v)
    }
}
impl From<bool> for OptionValue {
    fn from(v: bool) -> Self {
        OptionValue::Bool(v)
    }
}
impl From<&str> for OptionValue {
    fn from(v: &str) -> Self {
        OptionValue::Str(v.to_string())
    }
}
impl From<String> for OptionValue {
    fn from(v: String) -> Self {
        OptionValue::Str(v)
    }
}

/// A bag of named options.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Options {
    values: BTreeMap<String, OptionValue>,
}

impl Options {
    /// An empty option set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set (or replace) an option, builder style.
    pub fn with(mut self, key: &str, value: impl Into<OptionValue>) -> Self {
        self.set(key, value);
        self
    }

    /// Set (or replace) an option.
    pub fn set(&mut self, key: &str, value: impl Into<OptionValue>) {
        self.values.insert(key.to_string(), value.into());
    }

    /// Raw lookup.
    pub fn get(&self, key: &str) -> Option<&OptionValue> {
        self.values.get(key)
    }

    /// True when `key` is set.
    pub fn contains_key(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// Remove an option, returning its previous value.
    pub fn remove(&mut self, key: &str) -> Option<OptionValue> {
        self.values.remove(key)
    }

    /// The set keys, in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// Keys set in `self` whose values differ from (or are absent in)
    /// `other`.  The comparison is one-sided — keys present only in
    /// `other` are not reported — which is the shape introspection wants:
    /// "which of my options deviate from the codec's declared defaults"
    /// (compare against `CodecDescriptor::default_options()`, as the
    /// quickstart example does).
    pub fn diff<'a>(&'a self, other: &Options) -> Vec<&'a str> {
        self.iter()
            .filter(|(key, value)| other.get(key) != Some(*value))
            .map(|(key, _)| key)
            .collect()
    }

    /// Number of options set.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no options are set.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate over `(key, value)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &OptionValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Canonical one-line signature of this bag: `key=value` pairs joined by
    /// `,` in sorted key order (empty string for an empty bag).  Two bags
    /// compare equal iff their signatures do, so the signature is usable as
    /// a cache-key component (the tuning cache keys on it).
    pub fn signature(&self) -> String {
        let mut out = String::new();
        for (key, value) in self.iter() {
            if !out.is_empty() {
                out.push(',');
            }
            out.push_str(key);
            out.push('=');
            out.push_str(&value.to_string());
        }
        out
    }

    /// Get a floating-point option, converting from integer if needed.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.values.get(key)? {
            OptionValue::F64(v) => Some(*v),
            OptionValue::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Get an unsigned integer option.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.values.get(key)? {
            OptionValue::U64(v) => Some(*v),
            OptionValue::F64(v) if v.fract() == 0.0 && *v >= 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Get a boolean option.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.values.get(key)? {
            OptionValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Get a string option.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.values.get(key)? {
            OptionValue::Str(v) => Some(v.as_str()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let opts = Options::new()
            .with("sz:error_bound", 1e-3)
            .with("sz:block_size", 6u64)
            .with("zfp:mode", "accuracy")
            .with("verbose", true);
        assert_eq!(opts.get_f64("sz:error_bound"), Some(1e-3));
        assert_eq!(opts.get_u64("sz:block_size"), Some(6));
        assert_eq!(opts.get_str("zfp:mode"), Some("accuracy"));
        assert_eq!(opts.get_bool("verbose"), Some(true));
        assert_eq!(opts.len(), 4);
        assert!(!opts.is_empty());
    }

    #[test]
    fn missing_and_mistyped_options() {
        let opts = Options::new().with("a", 1.5);
        assert_eq!(opts.get_f64("missing"), None);
        assert_eq!(opts.get_str("a"), None);
        assert_eq!(opts.get_bool("a"), None);
        // Integral floats convert to u64, fractional ones do not.
        assert_eq!(Options::new().with("n", 4.0).get_u64("n"), Some(4));
        assert_eq!(Options::new().with("n", 4.5).get_u64("n"), None);
        // Integers widen to f64.
        assert_eq!(Options::new().with("n", 7u64).get_f64("n"), Some(7.0));
    }

    #[test]
    fn overwrite_and_iterate() {
        let mut opts = Options::new();
        opts.set("k", 1.0);
        opts.set("k", 2.0);
        assert_eq!(opts.get_f64("k"), Some(2.0));
        opts.set("a", "x");
        let keys: Vec<&str> = opts.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "k"]);
    }

    #[test]
    fn kinds_and_accepted_conversions() {
        assert_eq!(OptionValue::from(1.5).kind(), OptionKind::F64);
        assert_eq!(OptionValue::from(3u64).kind(), OptionKind::U64);
        assert_eq!(OptionValue::from(true).kind(), OptionKind::Bool);
        assert_eq!(OptionValue::from("x").kind(), OptionKind::Str);
        // Widening/narrowing matches the typed getters.
        assert!(OptionKind::F64.accepts(&OptionValue::U64(3)));
        assert!(OptionKind::U64.accepts(&OptionValue::F64(4.0)));
        assert!(!OptionKind::U64.accepts(&OptionValue::F64(4.5)));
        assert!(!OptionKind::U64.accepts(&OptionValue::F64(-1.0)));
        assert!(!OptionKind::Bool.accepts(&OptionValue::Str("true".into())));
        assert_eq!(OptionKind::Str.to_string(), "string");
        assert_eq!(OptionValue::from(3u64).as_f64(), Some(3.0));
        assert_eq!(OptionValue::from("x").as_f64(), None);
    }

    #[test]
    fn keys_contains_remove() {
        let mut opts = Options::new().with("b", 1u64).with("a", 2u64);
        assert_eq!(opts.keys().collect::<Vec<_>>(), vec!["a", "b"]);
        assert!(opts.contains_key("a"));
        assert_eq!(opts.remove("a"), Some(OptionValue::U64(2)));
        assert!(!opts.contains_key("a"));
        assert_eq!(opts.remove("a"), None);
    }

    #[test]
    fn signature_is_canonical_and_order_independent() {
        assert_eq!(Options::new().signature(), "");
        let a = Options::new().with("sz:block_size", 6u64).with("mode", "x");
        let b = Options::new().with("mode", "x").with("sz:block_size", 6u64);
        // Insertion order does not matter — the signature is sorted.
        assert_eq!(a.signature(), b.signature());
        assert_eq!(a.signature(), "mode=x,sz:block_size=6");
        // Any differing value produces a different signature.
        let c = Options::new().with("mode", "y").with("sz:block_size", 6u64);
        assert_ne!(a.signature(), c.signature());
    }

    #[test]
    fn diff_reports_edits() {
        let base = Options::new()
            .with("keep", 1u64)
            .with("replace", 2u64)
            .with("add", true);
        let defaults = Options::new().with("keep", 1u64);
        assert_eq!(base.diff(&defaults), vec!["add", "replace"]);
        assert!(defaults.diff(&defaults).is_empty());
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(OptionValue::from(3.5).to_string(), "3.5");
        assert_eq!(OptionValue::from("abs").to_string(), "abs");
        assert_eq!(OptionValue::from(true).to_string(), "true");
        assert_eq!(OptionValue::from(9u64).to_string(), "9");
    }
}
