//! Pieces every workload shares: isolated run directories, the metric
//! set a run reports, order statistics, output digests and peak memory.

use automc_bench::harness::FinalRow;
use automc_bench::report::render_rows;
use automc_compress::memo;
use std::path::{Path, PathBuf};

/// Everything one invocation writes lives under this directory of the
/// checkout (ignored by git).
pub const WORK_DIR: &str = ".perfbench";

/// A fresh, benchmark-private result cache and spill store.
pub struct RunDirs {
    pub root: PathBuf,
}

impl RunDirs {
    /// Create `<work>/runs/<tag>` empty, removing any leftover of an
    /// earlier invocation with the same tag.
    pub fn fresh(tag: &str) -> std::io::Result<RunDirs> {
        let root = Path::new(WORK_DIR).join("runs").join(tag);
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(root.join("results"))?;
        Ok(RunDirs {
            root: std::fs::canonicalize(&root)?,
        })
    }

    pub fn results(&self) -> PathBuf {
        self.root.join("results")
    }

    /// Point the result cache and the memo spill store at this run's
    /// directories and drop every in-memory memo entry, so the next phase
    /// starts cold. Call only while no program work is running: the
    /// result cache reads `AUTOMC_RESULTS_DIR` on every access.
    pub fn activate(&self) {
        std::env::set_var("AUTOMC_RESULTS_DIR", self.results());
        memo::clear();
        memo::set_spill_dir(Some(self.results().join("memo")));
    }

    /// Result-cache entries present now (top-level `*.json` keys).
    pub fn cache_entries(&self) -> Vec<String> {
        let mut keys: Vec<String> = std::fs::read_dir(self.results())
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| e.file_name().to_str().map(str::to_string))
            .filter_map(|n| n.strip_suffix(".json").map(str::to_string))
            .collect();
        keys.sort();
        keys
    }

    /// Fail unless every result-cache entry the measured phase could read
    /// was written on purpose by this invocation's set-up (`allowed`
    /// prefixes). A measured phase must never be served from a cache
    /// left over by anything else.
    pub fn check_cold(&self, allowed: &[&str]) -> Result<(), String> {
        let stale: Vec<String> = self
            .cache_entries()
            .into_iter()
            .filter(|k| !allowed.iter().any(|p| k.starts_with(p)))
            .collect();
        if stale.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "result cache not cold before the measured phase: {stale:?}"
            ))
        }
    }

    /// Total bytes under the run directory.
    pub fn bytes(&self) -> u64 {
        dir_bytes(&self.root)
    }

    pub fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; empty means the outputs are correct.
    pub errors: Vec<String>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.metrics.push(Metric {
                name: name.to_string(),
                value,
                unit,
            }),
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Set-ups per run of `pipeline_cold` and `serve_jobs`.
pub const SETUPS: usize = 3;

/// Run a workload's set-up `SETUPS` times and return the last one with
/// the median time of all of them (`setup_s`). `undo` tears down every
/// set-up but the last, outside the timed part.
pub fn repeat_setup<T>(
    mut once: impl FnMut(usize) -> Result<T, String>,
    mut undo: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for i in 0..SETUPS {
        if let Some(prev) = last.take() {
            undo(prev)?;
        }
        let t = std::time::Instant::now();
        last = Some(once(i)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The highest percentile with at least ten samples beyond it:
/// `(value, percentile, n)`. Below 21 samples that percentile would not
/// even reach the median, so the maximum (p100) is reported instead.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (0.0, 100.0, 0);
    }
    if n < 21 {
        return (s[n - 1], 100.0, n);
    }
    let rank = n - 10;
    (s[rank - 1], 100.0 * rank as f64 / n as f64, n)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a 64 over a byte string.
pub fn fnv(bytes: &[u8]) -> u64 {
    automc_core::journal::fnv1a64(bytes)
}

/// Table 2 exactly as the `table2 --smoke` binary prints its two tables.
pub fn render_table(band40: &[FinalRow], band70: &[FinalRow]) -> String {
    format!(
        "{}\n{}",
        render_rows("smoke — PR ≈ 40%", band40),
        render_rows("smoke — PR ≈ 70%", band70)
    )
}

/// Rows the pipeline could not produce, by cause: `(failed, diverged)`.
/// A row lost to a crash (a caught panic, a method whose every run
/// failed) or to dead workers is a failed operation. A row whose final
/// training diverged or ran out of its step budget is a numerical result
/// of that scheme, reported like an infeasible search candidate. An empty
/// PR band is neither.
pub fn degraded_rows(band40: &[FinalRow], band70: &[FinalRow]) -> (usize, usize) {
    let rows = || band40.iter().chain(band70);
    let count = |words: &[&str]| {
        rows()
            .filter(|r| words.iter().any(|w| r.algorithm.contains(w)))
            .count()
    };
    (
        count(&["panicked", "run failed", "worker unavailable"]),
        count(&["diverged", "timed out"]),
    )
}

/// Structural check of a smoke Table 2: 11 and 10 rows, baseline first.
pub fn table_shape_ok(band40: &[FinalRow], band70: &[FinalRow]) -> bool {
    band40.len() == 11
        && band70.len() == 10
        && band40.first().is_some_and(|r| r.algorithm == "baseline")
}

/// Output digests remembered across runs in one checkout, keyed by the
/// program's source hash: a second run of the same code on the same seed
/// must reproduce the digest. Only digests are kept — never results — so
/// nothing a later run measures is served from this store.
pub struct Digests;

impl Digests {
    fn path(kind: &str, seed: u64) -> PathBuf {
        Path::new(WORK_DIR)
            .join("digests")
            .join(format!("{kind}-s{seed}-{:016x}.txt", source_hash()))
    }

    /// Compare `digest` with the one recorded for `(kind, seed)` by an
    /// earlier run of the same code, recording it when none exists.
    pub fn check(kind: &str, seed: u64, digest: u64) -> Result<(), String> {
        let path = Self::path(kind, seed);
        let want = format!("{digest:016x}");
        match std::fs::read_to_string(&path) {
            Ok(prev) if prev.trim() == want => Ok(()),
            Ok(prev) => Err(format!(
                "{kind} output for seed {seed} differs from an earlier run of the same code \
                 ({} vs {want})",
                prev.trim()
            )),
            Err(_) => {
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
                }
                std::fs::write(&path, want).map_err(|e| e.to_string())
            }
        }
    }
}

/// FNV hash of the program's and the benchmark's sources and manifests
/// (`.rs` and `.toml` files under `crates/` and `perfbench/`, plus the
/// root manifest and lock file), so digests of different code never meet.
pub fn source_hash() -> u64 {
    use std::sync::OnceLock;
    static HASH: OnceLock<u64> = OnceLock::new();
    *HASH.get_or_init(|| {
        let mut files = Vec::new();
        collect_files(Path::new("crates"), &mut files);
        collect_files(Path::new("perfbench"), &mut files);
        files.push(PathBuf::from("Cargo.toml"));
        files.push(PathBuf::from("Cargo.lock"));
        files.sort();
        let mut all = Vec::new();
        for f in files {
            all.extend_from_slice(f.to_string_lossy().as_bytes());
            all.extend(std::fs::read(&f).unwrap_or_default());
        }
        fnv(&all)
    })
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for e in rd.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(_) if p.extension().is_some_and(|x| x == "rs" || x == "toml") => out.push(p),
            _ => {}
        }
    }
}
