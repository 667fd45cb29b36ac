//! Degrade instead of failing: a primary store with a fallback behind it.
//!
//! A durable backend can fail *permanently* — a full disk, a revoked mount —
//! and a service that must keep answering needs somewhere to put the bytes
//! meanwhile.  [`FallbackStore`] decorates a primary [`Store`] with a
//! second one (typically a [`MemoryStore`](crate::MemoryStore)) and encodes
//! two rules:
//!
//! * a `put` the primary rejects lands in the fallback and is still
//!   acknowledged — [`FallbackStore::put_tracked`] tells the caller it was
//!   *degraded*, and the key is remembered;
//! * reads of a remembered key prefer the fallback, because the failed
//!   primary write may have left a stale or *torn* copy behind; a later
//!   durable `put` of the key forgets it again.
//!
//! When both stores fail, the primary's error is the one reported: it is the
//! backend the operator has to fix.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{Store, StoreError};

/// A [`Store`] decorator that degrades to `fallback` when `primary` fails.
pub struct FallbackStore<P, F> {
    primary: P,
    fallback: F,
    /// Keys whose latest acknowledged write lives in the fallback.
    fallback_keys: Mutex<HashSet<String>>,
    degraded_puts: AtomicU64,
}

impl<P: Store, F: Store> FallbackStore<P, F> {
    /// `primary` with `fallback` behind it.
    pub fn new(primary: P, fallback: F) -> Self {
        Self {
            primary,
            fallback,
            fallback_keys: Mutex::new(HashSet::new()),
            degraded_puts: AtomicU64::new(0),
        }
    }

    /// Puts the fallback acknowledged because the primary failed.  Never
    /// decreases: a store that degraded once says so from then on.
    pub fn degraded_puts(&self) -> u64 {
        self.degraded_puts.load(Ordering::Relaxed)
    }

    /// [`Store::put`], reporting which store acknowledged the write:
    /// `Ok(false)` for a durable put, `Ok(true)` for a degraded one (the
    /// primary failed, the fallback holds the bytes).
    pub fn put_tracked(&self, key: &str, value: &[u8]) -> Result<bool, StoreError> {
        let primary_err = match self.primary.put(key, value) {
            Ok(()) => {
                self.keys().remove(key);
                return Ok(false);
            }
            Err(e) => e,
        };
        match self.fallback.put(key, value) {
            Ok(()) => {
                self.keys().insert(key.to_string());
                self.degraded_puts.fetch_add(1, Ordering::Relaxed);
                Ok(true)
            }
            Err(_) => Err(primary_err),
        }
    }

    fn keys(&self) -> std::sync::MutexGuard<'_, HashSet<String>> {
        // Every update is a single insert or remove, so a poisoned set is
        // still a valid set.
        self.fallback_keys.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn read<T>(
        &self,
        key: &str,
        op: impl Fn(&dyn Store) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let prefer_fallback = self.keys().contains(key);
        if prefer_fallback {
            if let Ok(value) = op(&self.fallback) {
                return Ok(value);
            }
        }
        op(&self.primary).or_else(|primary_err| op(&self.fallback).map_err(|_| primary_err))
    }
}

impl<P: Store, F: Store> Store for FallbackStore<P, F> {
    fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        self.read(key, |s| s.get(key))
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        self.read(key, |s| s.get_range(key, offset, len))
    }

    fn put(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        self.put_tracked(key, value).map(|_| ())
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        let mut keys = match self.primary.list() {
            Ok(keys) => keys,
            Err(primary_err) => return self.fallback.list().map_err(|_| primary_err),
        };
        keys.extend(self.fallback.list().unwrap_or_default());
        keys.sort();
        keys.dedup();
        Ok(keys)
    }

    fn size(&self, key: &str) -> Result<u64, StoreError> {
        self.read(key, |s| s.size(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultConfig, FaultyStore, MemoryStore};

    fn faulty(config: FaultConfig) -> FaultyStore<MemoryStore> {
        FaultyStore::new(MemoryStore::new(), config)
    }

    #[test]
    fn healthy_primary_is_durable_and_the_fallback_stays_empty() {
        let store = FallbackStore::new(MemoryStore::new(), MemoryStore::new());
        assert_eq!(store.put_tracked("k", b"value"), Ok(false));
        assert_eq!(store.get("k").unwrap(), b"value");
        assert_eq!(store.get_range("k", 1, 3).unwrap(), b"alu");
        assert_eq!(store.size("k"), Ok(5));
        assert_eq!(store.degraded_puts(), 0);
        assert!(store.fallback.list().unwrap().is_empty());
        assert_eq!(store.get("nope"), Err(StoreError::NotFound("nope".into())));
    }

    #[test]
    fn a_torn_primary_write_reads_back_from_the_fallback() {
        let torn = FaultConfig {
            torn_write_rate: 1.0,
            ..FaultConfig::default()
        };
        let store = FallbackStore::new(faulty(torn), MemoryStore::new());
        let value: Vec<u8> = (0..=255).collect();
        assert_eq!(
            store.put_tracked("k", &value),
            Ok(true),
            "degraded, not lost"
        );
        // The primary holds a proper prefix under the same key; every read
        // path must serve the acknowledged bytes instead.
        let prefix = store.primary.inner().get("k").unwrap();
        assert!(prefix.len() < value.len(), "the primary write tore");
        assert_eq!(store.get("k").unwrap(), value);
        assert_eq!(store.size("k"), Ok(256));
        assert_eq!(store.get_range("k", 250, 6).unwrap(), &value[250..]);
        assert_eq!(store.list().unwrap(), vec!["k".to_string()]);
        assert_eq!(store.degraded_puts(), 1);
    }

    #[test]
    fn a_later_durable_put_clears_the_fallback_preference() {
        let primary = std::sync::Arc::new(MemoryStore::new());
        let store = FallbackStore::new(primary.clone(), MemoryStore::new());
        store.keys().insert("k".to_string());
        store.fallback.put("k", b"stale fallback copy").unwrap();
        assert_eq!(store.get("k").unwrap(), b"stale fallback copy");
        assert_eq!(store.put_tracked("k", b"durable"), Ok(false));
        assert_eq!(store.get("k").unwrap(), b"durable");
        assert_eq!(primary.get("k").unwrap(), b"durable");
    }

    #[test]
    fn a_permanently_failed_primary_degrades_every_put() {
        let dead = FaultConfig {
            permanent_rate: 1.0,
            ..FaultConfig::default()
        };
        let store = FallbackStore::new(faulty(dead), MemoryStore::new());
        for (i, key) in ["a", "b", "c"].into_iter().enumerate() {
            assert_eq!(store.put(key, key.as_bytes()), Ok(()));
            assert_eq!(store.degraded_puts(), i as u64 + 1);
            assert_eq!(store.get(key).unwrap(), key.as_bytes());
        }
        assert_eq!(store.list().unwrap(), vec!["a", "b", "c"]);
        // A key neither store has: the primary's error, not the fallback's
        // NotFound.
        assert!(matches!(store.get("missing"), Err(StoreError::Io(_))));
    }

    #[test]
    fn when_both_fail_the_primary_error_is_reported() {
        let transient = FaultConfig::transient(1.0, 1);
        let dead = FaultConfig {
            permanent_rate: 1.0,
            ..FaultConfig::default()
        };
        let store = FallbackStore::new(faulty(transient), faulty(dead));
        let err = store.put_tracked("k", b"v").unwrap_err();
        assert!(err.is_transient(), "the primary's classification: {err}");
        assert!(store.get("k").unwrap_err().is_transient());
        assert!(store.list().unwrap_err().is_transient());
        assert_eq!(store.degraded_puts(), 0);
    }
}
