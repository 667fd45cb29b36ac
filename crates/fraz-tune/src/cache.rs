//! The persistent bound cache: a JSONL file fronted by a bounded in-memory
//! map.
//!
//! One cache instance owns one `fraz-tune.jsonl` inside its directory.
//! Entries are loaded tolerantly — a corrupted or truncated line (a crash
//! mid-append, a partial copy, a flipped digit its checksum catches) is
//! skipped and counted, never a panic, so a damaged cache degrades to cold
//! searches instead of taking the run down.
//! Persistence is atomic: [`TuneCache::flush`] writes a temporary file in
//! the same directory and renames it over the old one, so readers never see
//! a half-written cache.

use std::collections::HashMap;
use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use fraz_data::wire::crc32;
use serde::{Deserialize, Serialize};

/// File name of the cache inside its directory.
pub const CACHE_FILE: &str = "fraz-tune.jsonl";

/// Default capacity of the in-memory front (entries, not bytes).
pub const DEFAULT_CAPACITY: usize = 4096;

/// One persisted entry: a converged bound for one (codec, config, target,
/// fingerprint) key.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Entry {
    key: String,
    bound: f64,
    /// [`Entry::checksum`] of the line's key and bound; a line without it
    /// (an older build's) or with a wrong one is damaged.
    crc: u32,
}

impl Entry {
    fn new(key: String, bound: f64) -> Self {
        let crc = Self::checksum(&key, bound);
        Self { key, bound, crc }
    }

    /// CRC-32 of the key's bytes followed by the bound's little-endian bits.
    fn checksum(key: &str, bound: f64) -> u32 {
        let mut bytes = Vec::with_capacity(key.len() + 8);
        bytes.extend_from_slice(key.as_bytes());
        bytes.extend_from_slice(&bound.to_bits().to_le_bytes());
        crc32(&bytes)
    }

    /// A usable bound that is the one its writer checksummed.
    fn intact(&self) -> bool {
        self.bound.is_finite()
            && self.bound > 0.0
            && self.crc == Self::checksum(&self.key, self.bound)
    }
}

/// Lookup/store counters, reported in CLI summaries and run tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Lookups that found a usable bound.
    pub hits: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// Bounds recorded (inserts and updates).
    pub stores: usize,
    /// Damaged lines skipped while loading the cache file.
    pub corrupt_lines: usize,
}

struct Slots {
    /// key → (bound, recency tick) — the LRU front.
    map: HashMap<String, (f64, u64)>,
    tick: u64,
}

/// Persistent cross-run tuning cache.  Shareable across threads: lookups
/// and stores take an internal lock, counters are atomic.
pub struct TuneCache {
    path: PathBuf,
    capacity: usize,
    slots: Mutex<Slots>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    stores: AtomicUsize,
    corrupt_lines: AtomicUsize,
}

impl TuneCache {
    /// Open (creating if needed) the cache stored in directory `dir`.
    ///
    /// A missing cache file is an empty cache; a damaged one loads every
    /// intact line and counts the rest in
    /// [`CacheStats::corrupt_lines`].
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with_capacity(dir, DEFAULT_CAPACITY)
    }

    /// [`TuneCache::open`] with an explicit in-memory capacity.
    pub fn open_with_capacity(dir: impl AsRef<Path>, capacity: usize) -> io::Result<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let cache = Self {
            path: dir.join(CACHE_FILE),
            capacity: capacity.max(1),
            slots: Mutex::new(Slots {
                map: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            stores: AtomicUsize::new(0),
            corrupt_lines: AtomicUsize::new(0),
        };
        cache.load()?;
        Ok(cache)
    }

    /// Path of the backing JSONL file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn load(&self) -> io::Result<()> {
        let file = match fs::File::open(&self.path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let mut corrupt = 0usize;
        let mut slots = self.slots.lock().expect("tune cache lock");
        let mut reader = BufReader::new(file);
        let mut line = Vec::new();
        loop {
            line.clear();
            if reader.read_until(b'\n', &mut line)? == 0 {
                break;
            }
            // Lines are judged one by one: damage to one (a torn tail, a
            // flipped bit, bytes that are not UTF-8) costs that line only.
            let Ok(text) = std::str::from_utf8(&line) else {
                corrupt += 1;
                continue;
            };
            if text.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<Entry>(text) {
                Ok(entry) if entry.intact() => {
                    slots.tick += 1;
                    let tick = slots.tick;
                    slots.map.insert(entry.key, (entry.bound, tick));
                }
                // A parsed line with a nonsense bound or a wrong checksum is
                // as corrupt as an unparseable one.
                _ => corrupt += 1,
            }
        }
        Self::evict_to_capacity(&mut slots, self.capacity);
        drop(slots);
        self.corrupt_lines.store(corrupt, Ordering::Relaxed);
        Ok(())
    }

    fn evict_to_capacity(slots: &mut Slots, capacity: usize) {
        while slots.map.len() > capacity {
            if let Some(oldest) = slots
                .map
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(k, _)| k.clone())
            {
                slots.map.remove(&oldest);
            } else {
                break;
            }
        }
    }

    /// The cached bound for `key`, refreshing its recency.
    pub fn lookup(&self, key: &str) -> Option<f64> {
        let mut slots = self.slots.lock().expect("tune cache lock");
        slots.tick += 1;
        let tick = slots.tick;
        match slots.map.get_mut(key) {
            Some((bound, recency)) => {
                *recency = tick;
                let bound = *bound;
                drop(slots);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(bound)
            }
            None => {
                drop(slots);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Record a converged bound for `key` (ignored unless finite and
    /// positive).
    pub fn record(&self, key: impl Into<String>, bound: f64) {
        if !(bound.is_finite() && bound > 0.0) {
            return;
        }
        let mut slots = self.slots.lock().expect("tune cache lock");
        slots.tick += 1;
        let tick = slots.tick;
        slots.map.insert(key.into(), (bound, tick));
        Self::evict_to_capacity(&mut slots, self.capacity);
        drop(slots);
        self.stores.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("tune cache lock").map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters accumulated since this instance opened.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            corrupt_lines: self.corrupt_lines.load(Ordering::Relaxed),
        }
    }

    /// Persist every entry atomically: write a uniquely-named temporary
    /// file in the cache directory, then rename it over the cache file.
    ///
    /// The temporary name carries the process id and a per-process
    /// sequence number, so *concurrent* flushes — two processes sharing
    /// one cache directory, or two instances in one process — can never
    /// truncate each other's in-flight file; the last rename wins and the
    /// cache file is always one flusher's complete snapshot.
    pub fn flush(&self) -> io::Result<()> {
        let entries: Vec<Entry> = {
            let slots = self.slots.lock().expect("tune cache lock");
            let mut sorted: Vec<(&String, &(f64, u64))> = slots.map.iter().collect();
            // Oldest first: on reload, later lines overwrite earlier ones,
            // so the freshest entries win even if the tail is truncated.
            sorted.sort_by_key(|(_, (_, tick))| *tick);
            sorted
                .into_iter()
                .map(|(key, (bound, _))| Entry::new(key.clone(), *bound))
                .collect()
        };
        static FLUSH_SEQ: AtomicUsize = AtomicUsize::new(0);
        let tmp = self.path.with_extension(format!(
            "jsonl.tmp-{}-{}",
            std::process::id(),
            FLUSH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| {
            {
                let mut file = fs::File::create(&tmp)?;
                for entry in &entries {
                    let line = serde_json::to_string(entry)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                    writeln!(file, "{line}")?;
                }
                file.sync_all()?;
            }
            fs::rename(&tmp, &self.path)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }
}

impl Drop for TuneCache {
    fn drop(&mut self) {
        // Best effort: an explicit flush is the reliable path, but losing
        // fresh entries on an unwind beats losing them silently every run.
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fraz-tune-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_through_flush_and_reopen() {
        let dir = scratch_dir("roundtrip");
        {
            let cache = TuneCache::open(&dir).unwrap();
            assert!(cache.is_empty());
            assert_eq!(cache.lookup("a"), None);
            cache.record("a", 1e-3);
            cache.record("b", 2e-3);
            cache.record("a", 5e-4); // update wins
            assert_eq!(cache.lookup("a"), Some(5e-4));
            cache.flush().unwrap();
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 3));
        }
        let reopened = TuneCache::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.lookup("a"), Some(5e-4));
        assert_eq!(reopened.lookup("b"), Some(2e-3));
        assert_eq!(reopened.stats().corrupt_lines, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_and_truncated_lines_never_panic() {
        let dir = scratch_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join(CACHE_FILE),
            concat!(
                "{\"key\":\"good\",\"bound\":1e-3,\"crc\":3165401273}\n",
                "not json at all\n",
                "{\"key\":\"bad-bound\",\"bound\":-4.0}\n",
                "{\"key\":\"nan\",\"bound\":null}\n",
                "{\"key\":\"trunc", // no closing brace, no newline
            ),
        )
        .unwrap();
        let cache = TuneCache::open(&dir).unwrap();
        // The intact entry survives; everything else degrades to a miss.
        assert_eq!(cache.lookup("good"), Some(1e-3));
        assert_eq!(cache.lookup("bad-bound"), None);
        assert_eq!(cache.len(), 1);
        assert!(cache.stats().corrupt_lines >= 3);
        // A flush repairs the file in place.
        cache.flush().unwrap();
        let reopened = TuneCache::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.stats().corrupt_lines, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flipped_bound_digit_is_a_damaged_line() {
        let dir = scratch_dir("flip");
        {
            let cache = TuneCache::open(&dir).unwrap();
            cache.record("a", 1.25e-3);
            cache.flush().unwrap();
        }
        let path = dir.join(CACHE_FILE);
        let line = fs::read_to_string(&path).unwrap();
        let digits = line.find("\"bound\":").unwrap() + "\"bound\":".len();
        let at = digits
            + line[digits..]
                .find(|c: char| ('1'..='8').contains(&c))
                .unwrap();
        let mut flipped = line.into_bytes();
        flipped[at] += 1;
        fs::write(&path, flipped).unwrap();
        let reopened = TuneCache::open(&dir).unwrap();
        assert_eq!(reopened.lookup("a"), None);
        assert_eq!(reopened.stats().corrupt_lines, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn binary_garbage_is_an_empty_cache_not_a_crash() {
        let dir = scratch_dir("garbage");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(CACHE_FILE), [0xFFu8, 0xFE, 0x00, 0x80, 0x99]).unwrap();
        let cache = TuneCache::open(&dir).unwrap();
        assert!(cache.is_empty());
        assert!(cache.stats().corrupt_lines >= 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_front_is_bounded_and_evicts_oldest() {
        let dir = scratch_dir("lru");
        let cache = TuneCache::open_with_capacity(&dir, 3).unwrap();
        cache.record("a", 1e-3);
        cache.record("b", 1e-3);
        cache.record("c", 1e-3);
        assert_eq!(cache.lookup("a"), Some(1e-3)); // refresh `a`
        cache.record("d", 1e-3); // evicts `b`, the oldest
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.lookup("b"), None);
        assert_eq!(cache.lookup("a"), Some(1e-3));
        assert_eq!(cache.lookup("d"), Some(1e-3));
        // Nonsense bounds are never stored.
        cache.record("e", f64::NAN);
        cache.record("f", 0.0);
        assert_eq!(cache.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }
}
