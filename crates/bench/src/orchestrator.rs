//! Supervisor-side plumbing of the distributed execution layer.
//!
//! The transport itself — the TCP task server, the pull-based dynamic
//! work queue, worker connections, heartbeat frames — lives in
//! [`crate::transport`]. This module keeps the pieces that are about the
//! *experiments* rather than the wire: resolving scale names, the
//! journaled retry counters that survive a supervisor restart, merging
//! streamed `table2` unit payloads into the final report (byte-identical
//! to a single-process run), and degrading units whose every assignment
//! was lost.
//!
//! Failure handling (the failure matrix of DESIGN.md §15):
//!
//! * **crash** — a local worker that exits non-zero is restarted with
//!   exponential backoff; the restart resumes for free (completed units
//!   are cached in the worker's store, in-progress searches resume from
//!   their journals);
//! * **hang** — a connection with no frame (beat, pull, or result)
//!   within the deadline (8 × the heartbeat interval, floor 1.5 s) is
//!   severed, its in-flight unit re-enqueued, and its local child (if
//!   any) killed and restarted;
//! * **partition** — a severed connection (the `drop@net:n` fault) loses
//!   at most the in-flight unit, which is re-enqueued for any live
//!   worker; the disconnected worker reconnects with backoff and pulls
//!   again;
//! * **retry-exhausted** — a unit whose every assignment was lost
//!   degrades to a labelled [`harness::degraded_row`] (`… (worker
//!   unavailable)`); the run always completes;
//! * **supervisor restart** — completed unit payloads are journaled in
//!   the supervisor's store as they stream in, so a relaunched supervisor
//!   replays the merge losslessly instead of re-running finished work,
//!   and per-worker retry counters and the merge tick count are journaled
//!   in one supervisor record ([`OrchJournal`]).

use crate::cache;
use crate::harness::{self, degraded_row, run_fingerprint, table2_task_count, FinalRow};
use crate::scale::{exp1, exp2, smoke, ExperimentScale};
use crate::transport::DistRunner;
use crate::BenchArgs;
use automc_compress::{MethodId, StrategySpace};
use automc_core::journal;
use automc_json::{field, FromJson, ToJson, Value};
use std::path::{Path, PathBuf};

/// Exit code of a worker whose injected `kill@worker` directive fired, so
/// logs can tell a simulated worker crash from a genuine failure.
pub const WORKER_KILL_EXIT: i32 = 86;

/// Smallest effective `--heartbeat-ms`. The hung-worker deadline is
/// `max(8 × heartbeat_ms, 1500)`, so any interval below `1500 / 8`
/// (⌈187.5⌉ = 188) leaves the deadline pinned at the 1.5 s floor — the
/// flag would parse but change nothing. `parse_args` clamps to this with
/// a warning instead of accepting a silently meaningless value.
pub const MIN_HEARTBEAT_MS: u64 = 188;

/// The isolated result sub-store of local worker `idx` under the
/// supervisor's results root.
pub fn worker_dir(root: &Path, idx: usize) -> PathBuf {
    root.join(format!("worker{idx}"))
}

/// The scale names [`resolve_scale`] accepts, in error-message order.
pub fn known_scales() -> &'static [&'static str] {
    &["exp1", "exp2", "smoke"]
}

/// Resolve an experiment scale by its name (task frames carry the name,
/// not the whole configuration).
pub fn scale_by_name(name: &str) -> Option<ExperimentScale> {
    match name {
        "exp1" => Some(exp1()),
        "exp2" => Some(exp2()),
        "smoke" => Some(smoke()),
        _ => None,
    }
}

/// [`scale_by_name`] with an actionable error: the unknown name *and* the
/// list of scales that would have worked, so a typo in a job spec or task
/// frame is a one-glance fix instead of a generic bad-spec error.
pub fn resolve_scale(name: &str) -> Result<ExperimentScale, String> {
    scale_by_name(name).ok_or_else(|| {
        format!(
            "unknown scale {name:?} (known scales: {})",
            known_scales().join(", ")
        )
    })
}

// ------------------------------------------------------------------------
// Journaled supervisor state
// ------------------------------------------------------------------------

/// Journaled supervisor state, one record at `orch_dist_s{seed}.journal`
/// tagged with the seed and worker count: the per-worker retry counters
/// (written on every failure event — exactly once per retry — so a
/// restarted supervisor continues the budget instead of resetting it) and
/// the cumulative merge-frontier tick count (see `transport`). Discarded
/// at a clean shutdown.
pub(crate) struct OrchJournal {
    pub(crate) tag: String,
    pub(crate) retries: Vec<u64>,
    pub(crate) dist_ticks: u64,
}

impl OrchJournal {
    pub(crate) fn path(root: &Path, seed: u64) -> PathBuf {
        root.join(format!("orch_dist_s{seed}.journal"))
    }

    pub(crate) fn save(&self, path: &Path) {
        let fields = vec![
            ("retries", self.retries.to_json()),
            ("dist_ticks", self.dist_ticks.to_json()),
        ];
        if let Err(e) = journal::save_record(path, &self.tag, fields) {
            eprintln!(
                "warning: orchestrator journal {} keeps failing ({e}); supervisor \
                 state will not survive a supervisor restart",
                path.display()
            );
        }
    }

    pub(crate) fn load(path: &Path, tag: &str) -> Option<OrchJournal> {
        let v = journal::load_record(path, tag)?;
        Some(OrchJournal {
            tag: tag.to_string(),
            retries: field(&v, "retries")?,
            dist_ticks: field(&v, "dist_ticks")?,
        })
    }
}

// ------------------------------------------------------------------------
// Streamed-merge assembly
// ------------------------------------------------------------------------

/// The `(band, row)` stand-ins for a `table2` unit whose every assignment
/// was lost: same shape as the real unit, each row labelled `(worker
/// unavailable)`. Ownership is dynamic — any worker may have held the
/// unit — so the label no longer names a worker index.
pub fn table2_degraded_unit(unit: usize) -> Vec<(usize, FinalRow)> {
    let why = "worker unavailable";
    let n_method_tasks = MethodId::ALL.len() * 2;
    if unit == 0 {
        vec![(0, degraded_row("baseline", why))]
    } else if unit - 1 < n_method_tasks {
        let i = unit - 1;
        vec![(i % 2, degraded_row(MethodId::ALL[i / 2].name(), why))]
    } else {
        let algo = harness::Algo::ALL[unit - 1 - n_method_tasks];
        vec![
            (0, degraded_row(algo.name(), why)),
            (1, degraded_row(algo.name(), why)),
        ]
    }
}

/// Cache key of the streamed evaluation counters of a distributed
/// `table2` run (stored only when no unit degraded, so the smoke summary
/// never under-counts silently).
pub fn table2_counts_key(exp_name: &str, seed: u64) -> String {
    format!("table2_counts_{exp_name}_s{seed}")
}

/// Distributed drop-in for [`harness::table2_rows`]: enqueue the 17 task
/// units on `runner`'s dynamic work queue, stream the per-unit payloads
/// back, and merge them in fixed unit order — byte-identical to the
/// serial run. A unit whose every assignment was lost degrades to
/// labelled rows instead of aborting the table.
pub fn table2_rows_dist(
    runner: &mut DistRunner,
    exp: &ExperimentScale,
    args: &BenchArgs,
) -> (Vec<FinalRow>, Vec<FinalRow>) {
    let seed = args.seed;
    let key = format!("table2_{}_s{seed}", exp.name);
    let fp = run_fingerprint(exp, seed);
    if !args.fresh {
        if let Some(rows) = cache::load(&key, &fp) {
            eprintln!("[cache] reusing {key}");
            return rows;
        }
    }
    // Compute the global artifacts (experience corpus + embeddings) once,
    // in the supervisor's own store, before any unit is handed out: every
    // worker that pulls a search unit fetches them through the
    // shared-store fallback instead of re-deriving them per process.
    let _ = harness::automc_embeddings(
        &StrategySpace::full(),
        "full",
        seed,
        args.fresh,
        true,
        true,
    );
    let units: Vec<usize> = (0..table2_task_count() + 1).collect();
    let payloads = runner.run_units("table2", exp, seed, args.fresh, &units, &Value::Null);
    let mut band40 = Vec::new();
    let mut band70 = Vec::new();
    let mut evals = 0usize;
    let mut failed = 0usize;
    let mut degraded = false;
    for (&unit, payload) in units.iter().zip(&payloads) {
        let rows: Vec<(usize, FinalRow)> = match payload {
            Some(p) => {
                evals += field::<u64>(p, "evals").unwrap_or(0) as usize;
                failed += field::<u64>(p, "failed").unwrap_or(0) as usize;
                field(p, "rows").unwrap_or_else(|| {
                    degraded = true;
                    table2_degraded_unit(unit)
                })
            }
            None => {
                degraded = true;
                table2_degraded_unit(unit)
            }
        };
        for (band, row) in rows {
            if band == 0 {
                band40.push(row);
            } else {
                band70.push(row);
            }
        }
    }
    let rows = (band40, band70);
    cache::store(&key, &fp, &rows);
    if degraded {
        eprintln!("[dist] {}: degraded units in the merged table", exp.name);
    } else {
        cache::store(&table2_counts_key(exp.name, seed), &fp, &(evals, failed));
    }
    rows
}

/// Distributed counterpart of running [`harness::run_search_with`] for the
/// algorithms in `algos` (indices into [`harness::Algo::ALL`]): already
/// cached histories — in the supervisor's store or any worker sub-store —
/// are reused, the rest are enqueued as `search` task units. Returned
/// histories are also persisted under the serial cache key in the
/// supervisor's store, so every downstream serial-path reuse (figure
/// overlays, table3 scheme extraction, smoke count scans) is a local hit.
pub fn fetch_searches(
    runner: &mut DistRunner,
    exp: &ExperimentScale,
    seed: u64,
    fresh: bool,
    algos: &[usize],
) -> Vec<Option<automc_core::SearchHistory>> {
    let fp = run_fingerprint(exp, seed);
    let serial_key = |u: usize| {
        format!("{}_s{seed}_{}", exp.name, harness::Algo::ALL[u].name().to_lowercase())
    };
    let mut out: Vec<Option<automc_core::SearchHistory>> = vec![None; algos.len()];
    let mut need: Vec<usize> = Vec::new();
    for (i, &u) in algos.iter().enumerate() {
        if !fresh {
            if let Some(h) = load_result_any::<automc_core::SearchHistory>(&serial_key(u), &fp)
            {
                cache::store(&serial_key(u), &fp, &h);
                out[i] = Some(h);
                continue;
            }
        }
        need.push(u);
    }
    if !need.is_empty() {
        // Workers that pull a search unit fetch the experience corpus and
        // embeddings through the shared-store fallback — compute them
        // once, here, in the supervisor's store.
        let _ = harness::automc_embeddings(
            &StrategySpace::full(),
            "full",
            seed,
            fresh,
            true,
            true,
        );
        let payloads = runner.run_units("search", exp, seed, fresh, &need, &Value::Null);
        for (&u, payload) in need.iter().zip(payloads) {
            let h: Option<automc_core::SearchHistory> =
                payload.and_then(|p| field(&p, "history"));
            if let Some(h) = &h {
                cache::store(&serial_key(u), &fp, h);
            }
            if let Some(i) = algos.iter().position(|&x| x == u) {
                out[i] = h;
            }
        }
    }
    out
}

/// Load a cached value from the supervisor's own store or, failing that,
/// from any worker sub-store under it — the distributed counterpart of
/// [`cache::load`] for artifacts (like search histories) that live where
/// the owning worker ran.
pub fn load_result_any<T: FromJson>(key: &str, fingerprint: &str) -> Option<T> {
    if let Some(v) = cache::load(key, fingerprint) {
        return Some(v);
    }
    let root = cache::cache_dir();
    for idx in 0..table2_task_count() {
        let dir = worker_dir(&root, idx);
        if !dir.exists() {
            break;
        }
        if let Some(v) = cache::load_from(&dir, key, fingerprint) {
            return Some(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_scale_names_the_known_scales() {
        assert_eq!(resolve_scale("smoke").map(|s| s.name), Ok("smoke"));
        assert_eq!(resolve_scale("exp1").map(|s| s.name), Ok("exp1"));
        assert_eq!(resolve_scale("exp2").map(|s| s.name), Ok("exp2"));
        let err = resolve_scale("exp3").expect_err("unknown scale must fail");
        assert!(err.contains("unknown scale \"exp3\""), "{err}");
        assert!(err.contains("exp1, exp2, smoke"), "must list known scales: {err}");
    }

    #[test]
    fn degraded_units_reassemble_the_full_table_shape() {
        // Every unit lost: the merged table still has the serial shape —
        // baseline + 6 methods + 4 algorithms at PR≈40, 6 + 4 at PR≈70.
        let mut band40 = Vec::new();
        let mut band70 = Vec::new();
        for unit in 0..table2_task_count() + 1 {
            for (band, row) in table2_degraded_unit(unit) {
                assert!(row.algorithm.contains("worker unavailable"), "{}", row.algorithm);
                assert_eq!(row.params, 0);
                if band == 0 {
                    band40.push(row);
                } else {
                    band70.push(row);
                }
            }
        }
        assert_eq!(band40.len(), 11);
        assert_eq!(band70.len(), 10);
        assert!(band40[0].algorithm.contains("baseline"));
    }
}
