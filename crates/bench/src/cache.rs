//! JSON result cache shared by the reproduction binaries.
//!
//! Searches are the expensive part of the pipeline; Table 3 and Figures
//! 4/6 reuse Table 2's searches through this cache. Each entry is one
//! `<key>.json` file under `target/automc-results/` — plain JSON,
//! inspectable and hand-deletable.
//!
//! An entry is a journal record (`automc_core::journal::save_record`):
//! payload `{fingerprint, value}` inside the checksummed, schema-versioned
//! envelope every journal uses, so the cache inherits the one set of
//! record checks. The *fingerprint* is of the run configuration (seed +
//! scale-config summary + kernel numerics): keys alone proved unsafe — a
//! cached Table 2 run from one `--seed`/scale combination was silently
//! reused for another — so a fingerprint from another run is a logged
//! miss. A torn write, truncation, or bit-flip fails the checksum and is
//! a logged miss, the file moved aside into `quarantine/` so a bad entry
//! can be post-mortemed while the next store heals the key. The
//! `corrupt@cache:n` fault site (`automc_tensor::fault`) flips a byte of
//! the n-th stored entry on disk to exercise that path deterministically.

use automc_core::journal;
use automc_json::{FromJson, ToJson};
use automc_tensor::fault::{self, FaultKind};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Latched when a cache write keeps failing after retries: further stores
/// become no-ops for the rest of the process (results are still returned
/// to the caller — only their persistence is lost).
static STORE_DISABLED: AtomicBool = AtomicBool::new(false);

/// Directory holding the cache files. `AUTOMC_RESULTS_DIR` overrides the
/// location wholesale (the kill/resume smoke stage isolates its runs this
/// way without forcing a rebuild via `CARGO_TARGET_DIR`); otherwise it is
/// anchored to the workspace `target/` directory via the crate manifest,
/// so binaries, tests, and benches agree on the location regardless of
/// their working directory.
pub fn cache_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("AUTOMC_RESULTS_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    let base = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target").into());
    PathBuf::from(base).join("automc-results")
}

/// Path of a cache entry.
pub fn cache_path(key: &str) -> PathBuf {
    cache_dir().join(format!("{key}.json"))
}

/// Load a cached value if present, intact, and recorded under the same
/// fingerprint; anything else is a miss.
pub fn load<T: FromJson>(key: &str, fingerprint: &str) -> Option<T> {
    load_from(&cache_dir(), key, fingerprint)
}

/// [`load`] from an explicit store directory instead of [`cache_dir`].
/// The multi-process orchestrator reads worker results this way: each
/// worker persists into its own isolated sub-store, and the supervisor
/// merges them without re-pointing its `AUTOMC_RESULTS_DIR`.
pub fn load_from<T: FromJson>(dir: &Path, key: &str, fingerprint: &str) -> Option<T> {
    let record = journal::load_record(&dir.join(format!("{key}.json")), fingerprint)?;
    T::from_json(record.get("value")?)
}

/// Store a value under a fingerprint. The write is atomic, retried with
/// backoff, and checksummed, so readers never see a torn or
/// partially-written entry; a write that still fails after the retries
/// disables result caching for the rest of the process (retry-then-disable
/// — the computed value is returned to the caller either way).
pub fn store<T: ToJson>(key: &str, fingerprint: &str, value: &T) {
    if STORE_DISABLED.load(Ordering::Relaxed) {
        return;
    }
    let path = cache_path(key);
    let corrupt = fault::tick("cache") == Some(FaultKind::Corrupt);
    if let Err(e) = journal::save_record(&path, fingerprint, vec![("value", value.to_json())]) {
        eprintln!(
            "warning: cache entry {key} keeps failing ({e}); result caching \
             disabled for this run"
        );
        STORE_DISABLED.store(true, Ordering::Relaxed);
    } else if corrupt {
        // Damage the entry *after* its checksum was taken, exactly as a
        // disk fault would, so the loader must catch it.
        if let Ok(mut bytes) = fs::read(&path) {
            let mid = bytes.len() / 2;
            bytes[mid] = bytes[mid].wrapping_add(1);
            let _ = fs::write(&path, bytes);
        }
    }
}

/// Load from cache unless `fresh`, else compute and store.
pub fn load_or<T: ToJson + FromJson>(
    key: &str,
    fingerprint: &str,
    fresh: bool,
    compute: impl FnOnce() -> T,
) -> T {
    if !fresh {
        if let Some(v) = load(key, fingerprint) {
            eprintln!("[cache] reusing {key}");
            return v;
        }
    }
    let v = compute();
    store(key, fingerprint, &v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_load_or() {
        let key = "unit-test-entry";
        let fp = "s1|test";
        store(key, fp, &vec![1u32, 2, 3]);
        let back: Option<Vec<u32>> = load(key, fp);
        assert_eq!(back, Some(vec![1, 2, 3]));
        let mut computed = false;
        let v: Vec<u32> = load_or(key, fp, false, || {
            computed = true;
            vec![9]
        });
        assert_eq!(v, vec![1, 2, 3]);
        assert!(!computed, "cache hit must skip compute");
        let v: Vec<u32> = load_or(key, fp, true, || vec![9]);
        assert_eq!(v, vec![9], "--fresh recomputes");
        let _ = std::fs::remove_file(cache_path(key));
    }

    #[test]
    fn fingerprint_mismatch_is_a_miss() {
        let key = "unit-test-fingerprint";
        store(key, "s1|small", &7u32);
        assert_eq!(load::<u32>(key, "s1|small"), Some(7));
        assert_eq!(load::<u32>(key, "s2|small"), None, "other seed must miss");
        assert_eq!(load::<u32>(key, "s1|large"), None, "other scale must miss");
        let v: u32 = load_or(key, "s2|small", false, || 9);
        assert_eq!(v, 9, "mismatch must recompute");
        assert_eq!(load::<u32>(key, "s2|small"), Some(9), "recompute overwrites");
        let _ = std::fs::remove_file(cache_path(key));
    }

    #[test]
    fn legacy_unwrapped_entry_is_a_miss() {
        let key = "unit-test-legacy";
        let _ = fs::create_dir_all(cache_dir());
        // Pre-envelope format: the bare value, no fingerprint.
        fs::write(cache_path(key), "[1, 2, 3]\n").unwrap();
        assert_eq!(load::<Vec<u32>>(key, "s1|test"), None);
        let _ = std::fs::remove_file(cache_path(key));
    }

    #[test]
    fn missing_entry_is_none() {
        let v: Option<Vec<u32>> = load("definitely-not-present", "s1|x");
        assert!(v.is_none());
    }

    #[test]
    fn corrupt_and_truncated_entries_are_misses() {
        let key = "unit-test-corrupt";
        let fp = "s1|test";
        store(key, fp, &vec![4u32, 5, 6]);
        assert_eq!(load::<Vec<u32>>(key, fp), Some(vec![4, 5, 6]));
        // Flip one byte somewhere in the stored payload.
        let path = cache_path(key);
        let mut bytes = fs::read(&path).unwrap();
        let idx = bytes.len() * 2 / 3;
        bytes[idx] = bytes[idx].wrapping_add(1);
        fs::write(&path, &bytes).unwrap();
        assert_eq!(load::<Vec<u32>>(key, fp), None, "bit-flip must be a miss");
        assert!(!path.exists(), "corrupt entry must be moved aside");
        let quarantined = fs::read_dir(cache_dir().join("quarantine"))
            .map(|d| {
                d.flatten()
                    .any(|e| e.file_name().to_string_lossy().contains(key))
            })
            .unwrap_or(false);
        assert!(quarantined, "corrupt entry must land in quarantine/");
        // Truncate mid-file, as a torn write would.
        store(key, fp, &vec![4u32, 5, 6]);
        let good = fs::read(&path).unwrap();
        fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert_eq!(load::<Vec<u32>>(key, fp), None, "truncation must be a miss");
        // A miss recomputes and heals the entry.
        let v: Vec<u32> = load_or(key, fp, false, || vec![7]);
        assert_eq!(v, vec![7]);
        assert_eq!(load::<Vec<u32>>(key, fp), Some(vec![7]));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn injected_cache_corruption_is_detected_on_load() {
        use automc_tensor::fault::FaultPlan;

        let key = "unit-test-fault-corrupt";
        let fp = "s1|test";
        fault::install(FaultPlan::parse("corrupt@cache:1").unwrap());
        store(key, fp, &vec![1u32, 2]); // corrupted on the way to disk
        store(key, fp, &vec![3u32, 4]); // second store is clean
        fault::clear();
        assert_eq!(
            load::<Vec<u32>>(key, fp),
            Some(vec![3, 4]),
            "the clean second store must have replaced the corrupt entry"
        );
        fault::install(FaultPlan::parse("corrupt@cache:1").unwrap());
        store(key, fp, &vec![9u32]);
        fault::clear();
        assert_eq!(
            load::<Vec<u32>>(key, fp),
            None,
            "a corrupted store must fail its checksum on load"
        );
        let _ = fs::remove_file(cache_path(key));
    }
}
