//! Crash-safe, multi-process, content-addressed blob store.
//!
//! The shared memo cache is the product at scale: warm hits are a
//! 180–225x search speedup, and the serve daemon plus N orchestrator
//! workers all point at one spill directory. That directory therefore has
//! to survive concurrent, crashing, adversarial clients. This module is
//! that store; `automc_compress::memo` spills through it and the bench
//! result cache rides its durable-write primitives.
//!
//! # Publish protocol (write-once)
//!
//! A blob is published under its 64-bit content key by writing a sealed
//! envelope (`AUTOMCb1` magic + payload + FNV-1a 64 trailer — the same
//! checksum discipline as the search journal) to a per-process temp file,
//! fsyncing it, renaming it over `<key:016x>.bin`, and fsyncing the
//! directory. Readers can observe the old state or the new blob, never a
//! torn write. Keys are content addresses, so concurrent writers of one
//! key are idempotent: whoever renames second changes nothing.
//!
//! # Index (append-only, checksummed, compacted on open)
//!
//! `index.log` is a journal of `P`ut / `T`ouch / `E`vict records, one
//! ASCII line each, each line carrying its own FNV-1a 64 checksum.
//! Appends are single `O_APPEND` writes, so concurrent processes
//! interleave whole records. The index replaces per-GC directory scans:
//! byte totals and recency come from replaying the log, and each GC pass
//! *re-anchors* its accounting by tailing records appended by sibling
//! processes since the last read. A torn final record (a crash mid-append)
//! is dropped silently; a corrupt interior record triggers a rebuild from
//! a directory scan, where blob mtimes stand in for recency — the only
//! remaining use of mtime. Blobs whose metadata cannot be read during such
//! a scan are *skipped and logged*, never treated as oldest-first eviction
//! fodder. A blob on disk that the index does not know (a sibling's
//! publish not yet tailed) is adopted lazily by [`BlobStore::get`].
//!
//! # Generational GC (grace window + advisory lock)
//!
//! [`BlobStore::gc`] runs under an advisory lockfile (`.lock`, holder pid
//! inside, stale holders detected by liveness/age and broken) and never
//! deletes a blob whose last put/touch lies within the in-use grace
//! window (`AUTOMC_STORE_GRACE_MS`, default 10 s): a sibling that just
//! opened a blob cannot have it evicted out from under a read. Outside
//! the window, eviction is oldest-recency-first until the byte budget is
//! met, with an `E` record appended per victim. Readers additionally
//! treat a blob vanishing between lookup and read — a sibling GC racing
//! the grace window — as a clean miss, never an error.
//!
//! # Corruption quarantine
//!
//! A blob failing its envelope checksum is *moved aside* into
//! `quarantine/` (for post-mortems; the directory is trimmed, not grown
//! without bound), logged, counted as a healed miss, and its key freed —
//! the next writer republishes it. Deletion-free healing means a bad disk
//! sector can be diagnosed after the fact instead of silently vanishing.
//!
//! # Private stores
//!
//! A search journal keeps its node models in a *private* store
//! ([`BlobStore::open_private`]): same envelope, index and quarantine, but
//! it ticks no fault site and counts in no process-wide counter, so its
//! I/O never moves a fault ordinal, a memo statistic, or a serve round
//! frame. Its owner is its only writer and knows its whole live set, so
//! instead of the budget GC it calls [`BlobStore::retain`] after every
//! successful journal save.
//!
//! # Fault sites
//!
//! Every failure path of the shared spill store is exercised
//! deterministically through `AUTOMC_FAULTS` (`automc_tensor::fault`):
//!
//! * `torn@spill:n` — the n-th spill-store operation, if it is a publish,
//!   writes a truncated envelope straight to the final path (simulating a
//!   torn write by a crashed legacy writer); the next reader must
//!   quarantine and heal it.
//! * `evict@spill:n` — the n-th spill-store operation, if it is a read of
//!   an existing blob, has the blob deleted under it (simulating a
//!   sibling GC winning the race); the reader must return a clean miss.
//! * `corrupt@index:n` — the n-th index append is corrupted in flight;
//!   the next open must detect the bad record and rebuild from scan.

use automc_tensor::fault::{self, FaultKind};
use std::collections::HashMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

// ------------------------------------------------------------------------
// Durable-write primitives (shared: the search journal re-exports these)
// ------------------------------------------------------------------------

/// FNV-1a 64-bit hash — the workspace-wide journal/cache/store checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Write `bytes` to `path` atomically and durably: write a sibling temp
/// file, fsync it, rename it over the destination, then fsync the parent
/// directory. Readers either see the old file or the new one, never a
/// torn write — and once this returns, a crash (of this process *or* the
/// machine) cannot make the rename itself vanish: without the directory
/// fsync a resumed supervisor could observe a journal entry that a
/// crashed worker "wrote" but whose directory update never reached disk.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => {
            fs::create_dir_all(p)?;
            Some(p)
        }
        _ => None,
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(&format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(parent) = parent {
        fsync_dir(parent)?;
    }
    Ok(())
}

/// Flush a directory's metadata (the rename recorded in it) to disk.
/// Directory fsync is a Unix concept; elsewhere it is a no-op.
#[cfg(unix)]
fn fsync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
fn fsync_dir(_dir: &Path) -> io::Result<()> {
    Ok(())
}

/// [`write_atomic`] with bounded retry and backoff for transient I/O
/// errors (NFS hiccups, momentary ENOSPC). Three attempts with 10 ms /
/// 50 ms pauses; each failure is logged, and the last error is returned
/// once the attempts are exhausted so the caller can apply its
/// persistent-failure policy (disable journaling/caching for the run).
pub fn write_atomic_retry(path: &Path, bytes: &[u8]) -> io::Result<()> {
    const BACKOFF_MS: [u64; 2] = [10, 50];
    let mut attempt = 0usize;
    loop {
        match write_atomic(path, bytes) {
            Ok(()) => return Ok(()),
            Err(e) if attempt < BACKOFF_MS.len() => {
                eprintln!(
                    "warning: write of {} failed ({e}); retrying in {} ms",
                    path.display(),
                    BACKOFF_MS[attempt]
                );
                std::thread::sleep(Duration::from_millis(BACKOFF_MS[attempt]));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Move a corrupt file aside instead of deleting it: rename it into a
/// `quarantine/` directory next to it, tagged with the discovering pid.
/// Returns the quarantine path on success. Used by the blob store for its
/// own blobs and by the bench result cache for corrupt entries.
pub fn quarantine_file(path: &Path) -> Option<PathBuf> {
    let dir = path.parent()?.join("quarantine");
    fs::create_dir_all(&dir).ok()?;
    let name = path.file_name()?.to_string_lossy().into_owned();
    let dest = dir.join(format!("{name}.{}", std::process::id()));
    match fs::rename(path, &dest) {
        Ok(()) => Some(dest),
        Err(_) => {
            // Cross-device or racing rename: fall back to removal so the
            // corrupt bytes can at least never be trusted again.
            let _ = fs::remove_file(path);
            None
        }
    }
}

// ------------------------------------------------------------------------
// Sealed blob envelope
// ------------------------------------------------------------------------

const BLOB_MAGIC: &[u8; 8] = b"AUTOMCb1";

/// Wrap a payload in the store envelope: magic, payload, FNV-1a 64
/// trailer over everything before it.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(BLOB_MAGIC);
    out.extend_from_slice(payload);
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Validate a [`seal`]ed envelope and return the payload; `None` on a
/// missing magic, truncation, or checksum mismatch.
pub fn unseal(bytes: &[u8]) -> Option<&[u8]> {
    if bytes.len() < BLOB_MAGIC.len() + 8 {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut cks = [0u8; 8];
    cks.copy_from_slice(tail);
    if fnv1a64(body) != u64::from_le_bytes(cks) {
        return None;
    }
    body.strip_prefix(BLOB_MAGIC)
}

// ------------------------------------------------------------------------
// Per-process counters
// ------------------------------------------------------------------------

static PUBLISHES: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static EVICTED_BYTES: AtomicU64 = AtomicU64::new(0);
static HEALED: AtomicU64 = AtomicU64::new(0);
static RACED: AtomicU64 = AtomicU64::new(0);
static REBUILDS: AtomicU64 = AtomicU64::new(0);

/// Process-wide blob-store activity counters (all stores in the process;
/// in practice one shared spill store). Surfaced through
/// `memo::MemoStats` and the `[memo]` stderr lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Blobs this process published (first writer wins; idempotent
    /// re-publishes do not count).
    pub publishes: u64,
    /// Blob reads that returned a valid payload.
    pub hits: u64,
    /// Blob reads that found nothing (including healed and raced misses).
    pub misses: u64,
    /// Blobs this process evicted under the byte budget.
    pub evictions: u64,
    /// Bytes reclaimed by those evictions.
    pub evicted_bytes: u64,
    /// Corrupt blobs quarantined — each one a healed miss.
    pub healed: u64,
    /// Reads that lost the race against a sibling's eviction (clean miss).
    pub raced: u64,
    /// Index rebuilds forced by a corrupt record.
    pub index_rebuilds: u64,
}

impl StoreCounters {
    /// `self - earlier`, counter-wise. The counters are process-wide and
    /// monotonic, so a snapshot taken at job start diffed against one at
    /// a round boundary yields that job's *window* of store activity
    /// (shared with any concurrently running jobs — the store is one
    /// process-wide cache by design). Saturating, so a stale `earlier`
    /// degrades to zeros rather than panicking.
    pub fn since(&self, earlier: &StoreCounters) -> StoreCounters {
        StoreCounters {
            publishes: self.publishes.saturating_sub(earlier.publishes),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            evicted_bytes: self.evicted_bytes.saturating_sub(earlier.evicted_bytes),
            healed: self.healed.saturating_sub(earlier.healed),
            raced: self.raced.saturating_sub(earlier.raced),
            index_rebuilds: self.index_rebuilds.saturating_sub(earlier.index_rebuilds),
        }
    }

    /// Hit rate over reads in percent (0 when nothing was read).
    pub fn hit_rate_pct(&self) -> f64 {
        let reads = self.hits + self.misses;
        if reads == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / reads as f64
        }
    }
}

/// Snapshot the process-wide [`StoreCounters`].
pub fn counters() -> StoreCounters {
    StoreCounters {
        publishes: PUBLISHES.load(Ordering::Relaxed),
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        evicted_bytes: EVICTED_BYTES.load(Ordering::Relaxed),
        healed: HEALED.load(Ordering::Relaxed),
        raced: RACED.load(Ordering::Relaxed),
        index_rebuilds: REBUILDS.load(Ordering::Relaxed),
    }
}

// ------------------------------------------------------------------------
// Tunables
// ------------------------------------------------------------------------

/// Default in-use grace window: a blob put or touched within the last
/// this-many milliseconds is never evicted.
pub const DEFAULT_GRACE_MS: u64 = 10_000;

fn grace_cell() -> &'static AtomicU64 {
    static GRACE: OnceLock<AtomicU64> = OnceLock::new();
    GRACE.get_or_init(|| {
        AtomicU64::new(
            std::env::var("AUTOMC_STORE_GRACE_MS")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(DEFAULT_GRACE_MS),
        )
    })
}

/// Override the in-use grace window (tests; `AUTOMC_STORE_GRACE_MS`
/// otherwise).
pub fn set_grace_ms(ms: u64) {
    grace_cell().store(ms, Ordering::Relaxed);
}

/// A lock held longer than this is assumed abandoned even if its pid
/// cannot be probed.
const LOCK_STALE_MS: u64 = 30_000;

/// How long to wait for the advisory lock before proceeding without it.
const LOCK_WAIT_MS: u64 = 5_000;

/// Quarantined blobs kept for post-mortems; older ones are trimmed.
const QUARANTINE_KEEP: usize = 32;

/// Compact the index on open once it holds this many times more records
/// than live blobs (plus slack for small stores).
const COMPACT_SLACK: usize = 64;

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

// ------------------------------------------------------------------------
// Advisory lock
// ------------------------------------------------------------------------

#[cfg(target_os = "linux")]
fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(not(target_os = "linux"))]
fn pid_alive(_pid: u32) -> bool {
    true // liveness unknowable portably; the age check decides
}

struct LockGuard {
    path: PathBuf,
    held: bool,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        if self.held {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// Take the store's advisory lock: create-exclusive a `.lock` file with
/// the holder's pid inside. A holder that is dead (pid gone) or has held
/// the lock past [`LOCK_STALE_MS`] is declared stale and its lock broken.
/// If the lock cannot be won within [`LOCK_WAIT_MS`] the caller proceeds
/// *without* it (logged): GC races are tolerable — blob reads are
/// checksummed and vanishing blobs are clean misses — whereas a
/// deadlocked store is not.
fn acquire_lock(dir: &Path) -> LockGuard {
    let path = dir.join(".lock");
    let start = std::time::Instant::now();
    loop {
        match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut f) => {
                let _ = f.write_all(std::process::id().to_string().as_bytes());
                return LockGuard { path, held: true };
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let stale = match fs::read_to_string(&path) {
                    Ok(body) => match body.trim().parse::<u32>() {
                        Ok(pid) if pid != std::process::id() => {
                            !pid_alive(pid) || lock_age_ms(&path) > LOCK_STALE_MS
                        }
                        // Our own pid (a crashed predecessor that recycled
                        // it, or a bug): we are demonstrably not holding
                        // it, so it is stale. Unparsable bodies age out.
                        Ok(_) => true,
                        Err(_) => lock_age_ms(&path) > LOCK_STALE_MS,
                    },
                    // Vanished between create_new and read: retry.
                    Err(_) => false,
                };
                if stale {
                    eprintln!(
                        "[store] breaking stale lock {} (holder dead or expired)",
                        path.display()
                    );
                    let _ = fs::remove_file(&path);
                    continue;
                }
                if start.elapsed() > Duration::from_millis(LOCK_WAIT_MS) {
                    eprintln!(
                        "[store] could not win lock {} in {LOCK_WAIT_MS} ms; \
                         proceeding without it",
                        path.display()
                    );
                    return LockGuard { path, held: false };
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                // The directory itself is unusable; locking is moot.
                return LockGuard { path, held: false };
            }
        }
    }
}

fn lock_age_ms(path: &Path) -> u64 {
    fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| SystemTime::now().duration_since(t).ok())
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

// ------------------------------------------------------------------------
// Index records
// ------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Record {
    Put { key: u64, len: u64, ts: u64 },
    Touch { key: u64, ts: u64 },
    Evict { key: u64, ts: u64 },
}

impl Record {
    fn body(&self) -> String {
        match self {
            Record::Put { key, len, ts } => format!("P {key:016x} {len} {ts}"),
            Record::Touch { key, ts } => format!("T {key:016x} {ts}"),
            Record::Evict { key, ts } => format!("E {key:016x} {ts}"),
        }
    }

    fn to_line(&self) -> String {
        let body = self.body();
        format!("{body} {:016x}\n", fnv1a64(body.as_bytes()))
    }

    /// Parse one complete line; `None` means the record is corrupt.
    fn parse(line: &str) -> Option<Record> {
        let (body, cks) = line.rsplit_once(' ')?;
        if u64::from_str_radix(cks, 16).ok()? != fnv1a64(body.as_bytes()) {
            return None;
        }
        let mut it = body.split(' ');
        let tag = it.next()?;
        let key = u64::from_str_radix(it.next()?, 16).ok()?;
        let rec = match tag {
            "P" => Record::Put { key, len: it.next()?.parse().ok()?, ts: it.next()?.parse().ok()? },
            "T" => Record::Touch { key, ts: it.next()?.parse().ok()? },
            "E" => Record::Evict { key, ts: it.next()?.parse().ok()? },
            _ => return None,
        };
        if it.next().is_some() {
            return None;
        }
        Some(rec)
    }
}

// ------------------------------------------------------------------------
// The store
// ------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Entry {
    len: u64,
    last_used: u64, // ms since epoch (logical recency)
}

#[derive(Default)]
struct Inner {
    entries: HashMap<u64, Entry>,
    total: u64,
    /// Bytes of `index.log` this process has replayed.
    log_offset: u64,
    /// Records appended (by anyone) since the last compaction we saw.
    records_seen: usize,
    /// Scan-rebuilds this store instance has performed.
    rebuilds: u64,
}

impl Inner {
    fn apply(&mut self, rec: Record) {
        self.records_seen += 1;
        match rec {
            Record::Put { key, len, ts } => match self.entries.get_mut(&key) {
                Some(e) => {
                    // Replaying our own append or a sibling's idempotent
                    // re-publish: recency advances, bytes do not.
                    e.last_used = e.last_used.max(ts);
                }
                None => {
                    self.entries.insert(key, Entry { len, last_used: ts });
                    self.total += len;
                }
            },
            Record::Touch { key, ts } => {
                if let Some(e) = self.entries.get_mut(&key) {
                    e.last_used = e.last_used.max(ts);
                }
            }
            Record::Evict { key, .. } => {
                if let Some(e) = self.entries.remove(&key) {
                    self.total -= e.len;
                }
            }
        }
    }
}

/// A crash-safe, multi-process, content-addressed blob store rooted at
/// one directory. See the module docs for the protocol.
pub struct BlobStore {
    dir: PathBuf,
    inner: Mutex<Inner>,
    /// A private store ticks no fault site and bumps no process-wide
    /// counter (see the module docs).
    private: bool,
}

impl BlobStore {
    /// Open (creating if needed) the shared store at `dir`: acquire the
    /// advisory lock, replay the index — rebuilding it from a directory
    /// scan if a record is corrupt — and compact it if it has grown far
    /// past its live set.
    pub fn open(dir: &Path) -> io::Result<BlobStore> {
        Self::open_as(dir, false)
    }

    /// [`BlobStore::open`] for a private store: one owner, no fault sites,
    /// no process-wide counters.
    pub fn open_private(dir: &Path) -> io::Result<BlobStore> {
        Self::open_as(dir, true)
    }

    fn open_as(dir: &Path, private: bool) -> io::Result<BlobStore> {
        fs::create_dir_all(dir)?;
        let store =
            BlobStore { dir: dir.to_path_buf(), inner: Mutex::new(Inner::default()), private };
        {
            let _lock = acquire_lock(&store.dir);
            let mut inner = store.locked();
            if !tail_log(&mut inner, &store.dir) {
                store.rebuild(&mut inner);
            } else if inner.records_seen > inner.entries.len() * 8 + COMPACT_SLACK {
                compact(&mut inner, &store.dir);
            }
        }
        Ok(store)
    }

    /// Count one event in a process-wide counter (shared stores only).
    fn count(&self, counter: &AtomicU64, n: u64) {
        if !self.private {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Tick a fault site (shared stores only).
    fn tick(&self, site: &str) -> Option<FaultKind> {
        if self.private {
            None
        } else {
            fault::tick(site)
        }
    }

    /// Rebuild the index from a directory scan after a corrupt record, and
    /// compact it so the next open parses cleanly.
    fn rebuild(&self, inner: &mut Inner) {
        self.count(&REBUILDS, 1);
        rebuild_from_scan(inner, &self.dir);
        compact(inner, &self.dir);
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn blob_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.bin"))
    }

    fn index_path(&self) -> PathBuf {
        self.dir.join("index.log")
    }

    /// Append one record to the index (a single `O_APPEND` write, so
    /// concurrent processes interleave whole lines). The `corrupt@index`
    /// fault site damages the line in flight, exactly as a bad sector
    /// would; the next open detects and rebuilds. Append failures are
    /// logged and tolerated — the index is an accelerator, the blobs and
    /// their checksums are the truth.
    fn append_record(&self, rec: Record) {
        let mut line = rec.to_line().into_bytes();
        if self.tick("index") == Some(FaultKind::Corrupt) {
            eprintln!("[store] injecting index corruption into the next append");
            let mid = line.len() / 2;
            line[mid] = line[mid].wrapping_add(1);
        }
        let res = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.index_path())
            .and_then(|mut f| f.write_all(&line));
        if let Err(e) = res {
            eprintln!(
                "warning: cannot append to store index {} ({e})",
                self.index_path().display()
            );
        }
    }

    /// Publish `payload` under `key`, write-once: if the blob already
    /// exists (locally known or published by a sibling) this is a no-op.
    /// Returns `true` when this call actually published; a failed write is
    /// logged and returns `false`.
    pub fn publish(&self, key: u64, payload: &[u8]) -> bool {
        self.try_publish(key, payload).unwrap_or_else(|e| {
            eprintln!("warning: store publish of {key:016x} failed ({e})");
            false
        })
    }

    /// [`BlobStore::publish`] that reports a failed write to the caller
    /// (a journal save must fail rather than reference a missing blob).
    pub fn try_publish(&self, key: u64, payload: &[u8]) -> io::Result<bool> {
        let path = self.blob_path(key);
        {
            let inner = self.locked();
            if inner.entries.contains_key(&key) && path.exists() {
                return Ok(false);
            }
        }
        if path.exists() {
            // A sibling won the race; adopt its blob (content addressing
            // makes it identical by construction).
            let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let ts = now_ms();
            let mut inner = self.locked();
            inner.apply(Record::Put { key, len, ts });
            drop(inner);
            self.append_record(Record::Touch { key, ts });
            return Ok(false);
        }
        let sealed = seal(payload);
        let ts = now_ms();
        if self.tick("spill") == Some(FaultKind::Torn) {
            // Simulate a torn write reaching the final path (a crashed
            // pre-protocol writer): truncate inside the checksum trailer.
            let torn = &sealed[..sealed.len().saturating_sub(9)];
            eprintln!("[store] injecting torn publish of {key:016x}");
            let _ = fs::write(&path, torn);
            let len = torn.len() as u64;
            self.locked().apply(Record::Put { key, len, ts });
            self.append_record(Record::Put { key, len, ts });
            self.count(&PUBLISHES, 1);
            return Ok(true);
        }
        // A private store's owner fails its own save on an error, so give
        // transient ones the same retry as any journal write.
        let write = if self.private { write_atomic_retry } else { write_atomic };
        write(&path, &sealed)?;
        let len = sealed.len() as u64;
        self.locked().apply(Record::Put { key, len, ts });
        self.append_record(Record::Put { key, len, ts });
        self.count(&PUBLISHES, 1);
        Ok(true)
    }

    /// Read the blob under `key`, verifying its envelope. Misses are
    /// clean (`None`): unknown keys, a blob a sibling evicted mid-read
    /// (counted as raced), and corrupt blobs — which are quarantined, not
    /// deleted, and counted as healed so the next writer republishes.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let path = self.blob_path(key);
        let known = self.locked().entries.contains_key(&key);
        if !known && !path.exists() {
            self.count(&MISSES, 1);
            return None;
        }
        if self.tick("spill") == Some(FaultKind::Evict) {
            eprintln!("[store] injecting evict race on {key:016x}");
            let _ = fs::remove_file(&path);
        }
        match fs::read(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // A sibling's GC won the race between lookup and read:
                // a clean miss. Its `E` record reconciles our view at the
                // next tail; drop the local entry now.
                if known {
                    self.count(&RACED, 1);
                    let mut inner = self.locked();
                    if let Some(e) = inner.entries.remove(&key) {
                        inner.total -= e.len;
                    }
                }
                self.count(&MISSES, 1);
                None
            }
            Err(e) => {
                eprintln!("warning: cannot read store blob {key:016x} ({e})");
                self.count(&MISSES, 1);
                None
            }
            Ok(bytes) => match unseal(&bytes) {
                Some(payload) => {
                    let payload = payload.to_vec();
                    let ts = now_ms();
                    let throttle = grace_cell().load(Ordering::Relaxed) / 2;
                    let mut inner = self.locked();
                    let prev = inner.entries.get(&key).map(|e| e.last_used).unwrap_or(0);
                    inner.apply(if known {
                        Record::Touch { key, ts }
                    } else {
                        // Adopt a sibling's blob we had not yet seen.
                        Record::Put { key, len: bytes.len() as u64, ts }
                    });
                    drop(inner);
                    // Touch records feed sibling GCs' recency, but one per
                    // read would grow the log linearly with hits; recency
                    // finer than half the grace window changes nothing.
                    if ts.saturating_sub(prev) > throttle {
                        self.append_record(Record::Touch { key, ts });
                    }
                    self.count(&HITS, 1);
                    Some(payload)
                }
                None => {
                    self.quarantine(key);
                    self.count(&MISSES, 1);
                    None
                }
            },
        }
    }

    /// Move the blob under `key` aside as corrupt (see the module docs).
    /// Public so payload-level validation failures above the envelope —
    /// e.g. the memo codec rejecting a sealed-but-nonsense blob — heal
    /// the same way.
    pub fn quarantine(&self, key: u64) {
        let path = self.blob_path(key);
        match quarantine_file(&path) {
            Some(dest) => eprintln!(
                "[store] quarantined corrupt blob {key:016x} -> {} (healed miss)",
                dest.display()
            ),
            None => eprintln!("[store] removed corrupt blob {key:016x} (healed miss)"),
        }
        self.count(&HEALED, 1);
        let ts = now_ms();
        let mut inner = self.locked();
        if let Some(e) = inner.entries.remove(&key) {
            inner.total -= e.len;
        }
        drop(inner);
        self.append_record(Record::Evict { key, ts });
    }

    /// Total live bytes per the index, re-anchored by tailing sibling
    /// records first.
    pub fn total_bytes(&self) -> u64 {
        let mut inner = self.locked();
        tail_log(&mut inner, &self.dir);
        inner.total
    }

    /// Live blob count (this process's view of the index).
    pub fn len(&self) -> usize {
        self.locked().entries.len()
    }

    /// True when the index holds no live blobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index rebuilds (directory scans) this store instance has performed
    /// — 0 on a clean open, 1 after recovering from a corrupt index
    /// record.
    pub fn rebuild_count(&self) -> u64 {
        self.locked().rebuilds
    }

    /// Enforce `budget`: under the advisory lock, re-anchor byte totals
    /// from the index (picking up sibling puts and evicts — the fix for
    /// cross-process accounting drift), then evict oldest-recency-first
    /// until the total fits, skipping blobs inside the in-use grace
    /// window. Returns the bytes evicted.
    pub fn gc(&self, budget: u64) -> u64 {
        let _lock = acquire_lock(&self.dir);
        let mut inner = self.locked();
        if !tail_log(&mut inner, &self.dir) {
            self.rebuild(&mut inner);
        }
        if inner.total <= budget {
            return 0;
        }
        let now = now_ms();
        let grace = grace_cell().load(Ordering::Relaxed);
        let mut victims: Vec<(u64, u64, u64)> = inner
            .entries
            .iter()
            .filter(|(_, e)| e.last_used.saturating_add(grace) <= now)
            .map(|(&k, e)| (e.last_used, k, e.len))
            .collect();
        // Oldest recency first; key breaks ties deterministically.
        victims.sort_unstable();
        let mut evicted_bytes = 0u64;
        let mut evicted = Vec::new();
        for &(_, key, len) in &victims {
            if inner.total <= budget {
                break;
            }
            let path = self.blob_path(key);
            match fs::remove_file(&path) {
                Ok(()) | Err(_) if !path.exists() => {
                    inner.entries.remove(&key);
                    inner.total -= len;
                    evicted_bytes += len;
                    evicted.push(key);
                }
                _ => {
                    eprintln!("warning: cannot evict store blob {key:016x}; skipping");
                }
            }
        }
        let total = inner.total;
        let in_grace = inner.entries.len();
        drop(inner);
        for key in &evicted {
            self.append_record(Record::Evict { key: *key, ts: now });
        }
        if evicted_bytes > 0 {
            self.count(&EVICTIONS, evicted.len() as u64);
            self.count(&EVICTED_BYTES, evicted_bytes);
            eprintln!(
                "[store] GC: evicted {evicted_bytes} bytes ({} blobs), \
                 {total} bytes retained",
                evicted.len()
            );
        } else if total > budget {
            eprintln!(
                "[store] GC: {total} bytes over the {budget} budget but all \
                 {in_grace} blobs are inside the grace window; deferring"
            );
        }
        trim_quarantine(&self.dir);
        evicted_bytes
    }

    /// Keep exactly the blobs in `live`: delete every other indexed blob
    /// and append an `E` record for each. For a private store whose owner
    /// knows its whole live set; unlike [`BlobStore::gc`] there is no
    /// budget and no grace window, because nothing else reads the store.
    pub fn retain(&self, live: &[u64]) {
        let mut inner = self.locked();
        let dead: Vec<u64> =
            inner.entries.keys().filter(|k| !live.contains(k)).copied().collect();
        for key in &dead {
            let _ = fs::remove_file(self.blob_path(*key));
            if let Some(e) = inner.entries.remove(key) {
                inner.total -= e.len;
            }
        }
        drop(inner);
        let ts = now_ms();
        for key in dead {
            self.append_record(Record::Evict { key, ts });
        }
    }
}

/// Replay index records appended since this process's last read. Returns
/// `false` when a *complete* record fails to parse or checksum — real
/// corruption, the caller must rebuild. A trailing partial line (a crash
/// or sibling mid-append) is not consumed and not an error.
fn tail_log(inner: &mut Inner, dir: &Path) -> bool {
    let path = dir.join("index.log");
    let mut f = match fs::File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return true,
        Err(e) => {
            eprintln!("warning: cannot open store index {} ({e})", path.display());
            return true;
        }
    };
    let file_len = f.metadata().map(|m| m.len()).unwrap_or(0);
    if file_len < inner.log_offset {
        // The log shrank under us: a sibling compacted it. Our entries
        // are a superset-modulo-evictions of the snapshot; replay from
        // the top idempotently.
        inner.log_offset = 0;
    }
    if f.seek(SeekFrom::Start(inner.log_offset)).is_err() {
        return true;
    }
    let mut buf = Vec::new();
    if f.read_to_end(&mut buf).is_err() {
        return true;
    }
    let mut consumed = 0usize;
    let mut clean = true;
    for chunk in buf.split_inclusive(|&b| b == b'\n') {
        if chunk.last() != Some(&b'\n') {
            break; // torn tail: leave for the writer to finish
        }
        let line = String::from_utf8_lossy(&chunk[..chunk.len() - 1]);
        match Record::parse(line.trim_end()) {
            Some(rec) => inner.apply(rec),
            None => {
                eprintln!(
                    "warning: corrupt record in store index {} ({line:?}); \
                     rebuilding from scan",
                    path.display()
                );
                clean = false;
                consumed += chunk.len();
                break;
            }
        }
        consumed += chunk.len();
    }
    inner.log_offset += consumed as u64;
    clean
}

/// Rebuild the in-memory index from a directory scan — the fallback for a
/// corrupt index. Blob mtime stands in for recency. A blob whose metadata
/// cannot be read is *skipped and logged*, never adopted with epoch
/// recency (which would make transient stat failures evict-first fodder).
fn rebuild_from_scan(inner: &mut Inner, dir: &Path) {
    inner.rebuilds += 1;
    inner.entries.clear();
    inner.total = 0;
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut scanned = 0usize;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("bin") {
            continue;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else { continue };
        let Ok(key) = u64::from_str_radix(stem, 16) else { continue };
        if format!("{key:016x}") != stem {
            // Non-canonical stem: `blob_path(key)` would point at a
            // different file, so adopting it would make every later
            // touch/evict a phantom. No writer ever produces such names;
            // leave the file alone and say so.
            eprintln!(
                "warning: ignoring non-canonical blob name {} in the rebuild",
                path.display()
            );
            continue;
        }
        let Ok(meta) = entry.metadata() else {
            eprintln!(
                "warning: cannot stat store blob {}; skipping it in the rebuild",
                path.display()
            );
            continue;
        };
        let last_used = match meta.modified() {
            Ok(t) => t
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            Err(e) => {
                eprintln!(
                    "warning: cannot read mtime of store blob {} ({e}); \
                     skipping it in the rebuild",
                    path.display()
                );
                continue;
            }
        };
        inner.apply(Record::Put { key, len: meta.len(), ts: last_used });
        scanned += 1;
    }
    eprintln!(
        "[store] index rebuilt from scan (corrupt index record): {scanned} blobs, {} bytes",
        inner.total
    );
}

/// Rewrite the index as a minimal snapshot of the live set (one `P` line
/// per blob, carrying its latest recency), atomically. Run under the
/// advisory lock. A sibling holding an offset into the old file will
/// mis-parse at its next tail and rebuild — logged, rare, and harmless.
fn compact(inner: &mut Inner, dir: &Path) {
    let mut keys: Vec<&u64> = inner.entries.keys().collect();
    keys.sort_unstable();
    let mut out = String::new();
    for &key in keys {
        let e = inner.entries[&key];
        out.push_str(
            &Record::Put { key, len: e.len, ts: e.last_used }.to_line(),
        );
    }
    let path = dir.join("index.log");
    match write_atomic_retry(&path, out.as_bytes()) {
        Ok(()) => {
            inner.log_offset = out.len() as u64;
            inner.records_seen = inner.entries.len();
        }
        Err(e) => {
            eprintln!(
                "warning: cannot compact store index {} ({e}); keeping the log",
                path.display()
            );
        }
    }
}

/// Keep the quarantine directory from growing without bound: retain the
/// newest [`QUARANTINE_KEEP`] files, remove the rest (oldest mtime
/// first). Unstattable files are left alone.
fn trim_quarantine(dir: &Path) {
    let qdir = dir.join("quarantine");
    let Ok(entries) = fs::read_dir(&qdir) else { return };
    let mut files: Vec<(SystemTime, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let meta = e.metadata().ok()?;
            Some((meta.modified().ok()?, e.path()))
        })
        .collect();
    if files.len() <= QUARANTINE_KEEP {
        return;
    }
    files.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    let excess = files.len() - QUARANTINE_KEEP;
    for (_, path) in files.into_iter().take(excess) {
        let _ = fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "automc-store-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    #[test]
    fn seal_unseal_roundtrip_and_rejection() {
        let payload = b"hello blob".to_vec();
        let sealed = seal(&payload);
        assert_eq!(unseal(&sealed), Some(payload.as_slice()));
        assert!(unseal(&sealed[..sealed.len() - 1]).is_none(), "truncation");
        let mut bad = sealed.clone();
        bad[10] ^= 0x40;
        assert!(unseal(&bad).is_none(), "bit flip");
        assert!(unseal(b"short").is_none());
        assert_eq!(unseal(&seal(b"")), Some(&b""[..]), "empty payload");
    }

    #[test]
    fn record_lines_roundtrip_and_reject_corruption() {
        for rec in [
            Record::Put { key: 0xdead_beef, len: 123, ts: 456 },
            Record::Touch { key: 1, ts: 2 },
            Record::Evict { key: u64::MAX, ts: 0 },
        ] {
            let line = rec.to_line();
            assert_eq!(Record::parse(line.trim_end()), Some(rec));
            let mut bad = line.trim_end().to_string().into_bytes();
            bad[3] = bad[3].wrapping_add(1);
            assert!(Record::parse(&String::from_utf8(bad).unwrap()).is_none());
        }
        assert!(Record::parse("").is_none());
        assert!(Record::parse("X 00 1 2 deadbeef").is_none());
    }

    #[test]
    fn publish_is_write_once_and_get_roundtrips() {
        let dir = tmp("roundtrip");
        let store = BlobStore::open(&dir).unwrap();
        assert!(store.is_empty());
        assert!(store.publish(7, b"seven"));
        assert!(!store.publish(7, b"seven"), "second publish is a no-op");
        assert_eq!(store.get(7), Some(b"seven".to_vec()));
        assert_eq!(store.get(8), None, "unknown key is a clean miss");
        assert_eq!(store.len(), 1);
        assert!(store.total_bytes() > 0);

        // A fresh open (a "new process") replays the index.
        let again = BlobStore::open(&dir).unwrap();
        assert_eq!(again.len(), 1);
        assert_eq!(again.get(7), Some(b"seven".to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_blob_is_quarantined_and_republishable() {
        let dir = tmp("quarantine");
        let store = BlobStore::open(&dir).unwrap();
        store.publish(0xabc, b"payload");
        let path = dir.join(format!("{:016x}.bin", 0xabc));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(&path, &bytes).unwrap();

        let healed_before = counters().healed;
        assert_eq!(store.get(0xabc), None, "corrupt blob is a miss");
        // `>=`: the counter is process-global and other tests may heal
        // concurrently; ours contributes at least one.
        assert!(counters().healed >= healed_before + 1);
        assert!(!path.exists(), "corrupt blob is gone from the live set");
        assert_eq!(
            fs::read_dir(dir.join("quarantine")).unwrap().count(),
            1,
            "moved aside, not deleted"
        );
        // The next writer heals it.
        assert!(store.publish(0xabc, b"payload"), "key is free again");
        assert_eq!(store.get(0xabc), Some(b"payload".to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_oldest_outside_grace_and_respects_grace_window() {
        let dir = tmp("gc");
        set_grace_ms(0);
        let store = BlobStore::open(&dir).unwrap();
        store.publish(1, &[1u8; 100]);
        std::thread::sleep(Duration::from_millis(5));
        store.publish(2, &[2u8; 100]);
        std::thread::sleep(Duration::from_millis(5));
        store.publish(3, &[3u8; 100]);
        let blob = 100 + 16; // payload + magic + checksum
        let total = store.total_bytes();
        assert_eq!(total, 3 * blob as u64);

        // With no grace, the oldest blob goes first.
        let evicted = store.gc(2 * blob as u64);
        assert_eq!(evicted, blob as u64);
        assert!(!dir.join(format!("{:016x}.bin", 1)).exists());
        assert!(dir.join(format!("{:016x}.bin", 2)).exists());
        assert_eq!(store.get(1), None);
        assert_eq!(store.get(2), Some(vec![2u8; 100]));

        // Touching 2 makes 3 the next victim.
        std::thread::sleep(Duration::from_millis(5));
        assert!(store.get(2).is_some());
        assert_eq!(store.gc(blob as u64), blob as u64);
        assert!(dir.join(format!("{:016x}.bin", 2)).exists());
        assert!(!dir.join(format!("{:016x}.bin", 3)).exists());

        // A huge grace window protects everything: over budget, no evicts.
        set_grace_ms(3_600_000);
        assert_eq!(store.gc(0), 0, "grace window must defer eviction");
        assert!(dir.join(format!("{:016x}.bin", 2)).exists());
        set_grace_ms(DEFAULT_GRACE_MS);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_rebuild_uses_mtime_recency() {
        let dir = tmp("scan-mtime");
        // Blobs with old mtimes behind an index whose only record is
        // corrupt: the open rebuilds from a scan, mtime standing in for
        // recency.
        let t0 = SystemTime::now() - Duration::from_secs(300);
        for (i, name) in ["00000000000000aa.bin", "00000000000000bb.bin"].iter().enumerate() {
            let path = dir.join(name);
            fs::write(&path, vec![7u8; 50]).unwrap();
            let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_modified(t0 + Duration::from_secs(60 * i as u64)).unwrap();
        }
        fs::write(dir.join("stray.tmp"), b"x").unwrap();
        fs::write(dir.join("index.log"), b"P garbage\n").unwrap();

        let store = BlobStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2, "blobs recovered from the scan");
        assert_eq!(store.rebuild_count(), 1, "a corrupt record forces one rebuild");
        // Old mtimes are outside any sane grace window: LRU applies.
        let evicted = store.gc(60);
        assert_eq!(evicted, 50);
        assert!(!dir.join("00000000000000aa.bin").exists(), "oldest first");
        assert!(dir.join("00000000000000bb.bin").exists());
        assert!(dir.join("stray.tmp").exists(), "non-blobs untouched");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unindexed_blobs_are_adopted_lazily_not_by_scan() {
        let dir = tmp("unindexed");
        fs::write(dir.join(format!("{:016x}.bin", 0x42)), seal(b"orphan")).unwrap();
        let store = BlobStore::open(&dir).unwrap();
        assert!(store.is_empty(), "an index-less directory is not scanned");
        assert_eq!(store.rebuild_count(), 0);
        assert_eq!(store.get(0x42), Some(b"orphan".to_vec()), "get adopts it");
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn private_store_retains_exactly_the_live_set_silently() {
        use automc_tensor::fault::FaultPlan;
        let dir = tmp("private");
        let store = BlobStore::open_private(&dir).unwrap();
        // A private store ticks no fault site: a plan aimed at the spill
        // store's first publish and first index append stays armed.
        fault::install(FaultPlan::parse("torn@spill:1,corrupt@index:1").unwrap());
        for key in 1..=3u64 {
            assert!(store.try_publish(key, &[key as u8; 10]).unwrap());
        }
        assert!(fault::counters().is_empty(), "no site ticked");
        fault::clear();
        store.retain(&[2]);
        assert_eq!(store.len(), 1);
        assert!(!dir.join(format!("{:016x}.bin", 1)).exists());
        assert!(!dir.join(format!("{:016x}.bin", 3)).exists());
        // The `E` records survive a reopen: the index replays to {2}.
        let again = BlobStore::open_private(&dir).unwrap();
        assert_eq!(again.len(), 1);
        assert_eq!(again.rebuild_count(), 0);
        assert_eq!(again.get(2), Some(vec![2u8; 10]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_index_record_triggers_rebuild_on_open() {
        let dir = tmp("index-corrupt");
        {
            let store = BlobStore::open(&dir).unwrap();
            store.publish(5, b"five");
            store.publish(6, b"six");
        }
        // Corrupt the first record (a complete line), keep the second.
        let path = dir.join("index.log");
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] = bytes[4].wrapping_add(1);
        fs::write(&path, &bytes).unwrap();

        let store = BlobStore::open(&dir).unwrap();
        assert_eq!(store.rebuild_count(), 1, "corrupt record forces a rebuild");
        assert_eq!(store.len(), 2, "rebuild recovers the live set");
        assert_eq!(store.get(5), Some(b"five".to_vec()));
        // The rebuild compacted: a fresh open parses cleanly.
        let again = BlobStore::open(&dir).unwrap();
        assert_eq!(again.len(), 2);
        assert_eq!(again.rebuild_count(), 0, "no further rebuild");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_record_is_dropped_without_rebuild() {
        let dir = tmp("torn-tail");
        {
            let store = BlobStore::open(&dir).unwrap();
            store.publish(9, b"nine");
        }
        // Simulate a crash mid-append: a partial line with no newline.
        let path = dir.join("index.log");
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"P 00000000000000ff 1").unwrap();
        drop(f);

        let store = BlobStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1, "torn tail is ignored");
        assert_eq!(store.rebuild_count(), 0, "torn tail must not force a rebuild");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_publish_heals_on_read() {
        use automc_tensor::fault::FaultPlan;
        let dir = tmp("fault-torn");
        let store = BlobStore::open(&dir).unwrap();
        fault::install(FaultPlan::parse("torn@spill:1").unwrap());
        store.publish(0x77, b"torn victim");
        fault::clear();
        let healed_before = counters().healed;
        assert_eq!(store.get(0x77), None, "torn blob must fail its checksum");
        assert!(counters().healed >= healed_before + 1);
        assert!(store.publish(0x77, b"torn victim"), "republish heals");
        assert_eq!(store.get(0x77), Some(b"torn victim".to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_evict_race_is_a_clean_miss() {
        use automc_tensor::fault::FaultPlan;
        let dir = tmp("fault-evict");
        let store = BlobStore::open(&dir).unwrap();
        store.publish(0x55, b"doomed");
        // `install` resets the site counters, so the next spill tick —
        // the read below — is ordinal 1.
        fault::install(FaultPlan::parse("evict@spill:1").unwrap());
        let raced_before = counters().raced;
        assert_eq!(store.get(0x55), None, "raced read is a clean miss");
        fault::clear();
        assert!(counters().raced >= raced_before + 1);
        assert_eq!(store.get(0x55), None, "and stays gone");
        assert!(store.publish(0x55, b"doomed"), "republish works");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sibling_publishes_are_adopted_through_the_index() {
        let dir = tmp("sibling");
        let a = BlobStore::open(&dir).unwrap();
        let b = BlobStore::open(&dir).unwrap();
        a.publish(0x11, b"from a");
        // b has no local entry, but finds the blob on disk.
        assert_eq!(b.get(0x11), Some(b"from a".to_vec()));
        assert_eq!(b.len(), 1, "adopted into b's view");
        // b's budget check sees a's bytes after re-anchoring.
        assert_eq!(a.total_bytes(), b.total_bytes());
        // a publishing through b's existing blob is idempotent.
        assert!(!b.publish(0x11, b"from a"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_is_broken() {
        let dir = tmp("lock");
        // A lock held by a pid that cannot exist.
        fs::write(dir.join(".lock"), "4194304999").unwrap();
        let start = std::time::Instant::now();
        let guard = acquire_lock(&dir);
        assert!(guard.held, "stale lock must be broken, not waited out");
        assert!(
            start.elapsed() < Duration::from_millis(LOCK_WAIT_MS),
            "breaking must not burn the full wait budget"
        );
        drop(guard);
        assert!(!dir.join(".lock").exists(), "drop releases");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_is_trimmed() {
        let dir = tmp("qtrim");
        let qdir = dir.join("quarantine");
        fs::create_dir_all(&qdir).unwrap();
        for i in 0..(QUARANTINE_KEEP + 10) {
            fs::write(qdir.join(format!("q{i:04}.bin")), b"x").unwrap();
        }
        trim_quarantine(&dir);
        assert_eq!(fs::read_dir(&qdir).unwrap().count(), QUARANTINE_KEEP);
        let _ = fs::remove_dir_all(&dir);
    }
}
