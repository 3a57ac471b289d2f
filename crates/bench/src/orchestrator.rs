//! The experiment layer over a [`Runner`]: one merge per experiment, and
//! the supervisor state of the fleet.
//!
//! Every binary gets its artifact through a `fetch_*` function here —
//! [`fetch_table2`], [`fetch_searches`], [`fetch_table3`], [`fetch_fig5`]
//! — which runs the experiment's task units on whichever [`Runner`] the
//! command line chose ([`crate::transport::fleet`]) and merges the
//! payloads in fixed unit order. The merge is the same code for the
//! in-process runner and the TCP fleet, so the two are byte-identical by
//! construction, and a `None` payload — a unit the fleet lost, or one
//! `run_unit` rejected — degrades to the same labelled rows on both.
//!
//! The transport itself — the TCP task server, the pull-based dynamic
//! work queue, worker connections, heartbeat frames — lives in
//! [`crate::transport`]. This module keeps the supervisor pieces that are
//! about the experiments rather than the wire: resolving scale names and
//! the journaled retry counters that survive a supervisor restart.
//!
//! Fleet failure handling (the failure matrix of DESIGN.md §15):
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
//!   unavailable)`); the run always completes, and a merged table with a
//!   lost unit is never cached;
//! * **supervisor restart** — completed unit payloads are journaled in
//!   the supervisor's store as they stream in, so a relaunched supervisor
//!   replays the merge losslessly instead of re-running finished work,
//!   and per-worker retry counters and the merge tick count are journaled
//!   in one supervisor record ([`OrchJournal`]).

use crate::cache;
use crate::harness::{
    self, degraded_row, run_fingerprint, schemes_to_params, table2_task_count, table3_targets,
    FinalRow, FIG5_VARIANTS,
};
use crate::runner::Runner;
use crate::scale::{exp1, exp2, smoke, ExperimentScale};
use crate::transport::DistRunner;
use crate::BenchArgs;
use automc_compress::{MethodId, Scheme};
use automc_core::{journal, SearchHistory};
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
// Experiment merges
// ------------------------------------------------------------------------

/// A Table 2 result: the PR ≈ 40% band (baseline row first), then the
/// PR ≈ 70% band.
pub type Table2 = (Vec<FinalRow>, Vec<FinalRow>);

/// The `(band, row)` stand-ins for a `table2` unit that produced no
/// payload: same shape as the real unit, each row labelled `(worker
/// unavailable)`.
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

/// Cache key of the evaluation counters of a merged `table2` run (stored
/// only when no unit was lost, so the smoke summary never under-counts
/// silently).
pub fn table2_counts_key(exp_name: &str, seed: u64) -> String {
    format!("table2_counts_{exp_name}_s{seed}")
}

/// Merge `table2` payloads (aligned with `units`) in unit order. Returns
/// the table, the `(evals, failed)` counters of its searches, and how
/// many units were lost to stand-in rows.
pub(crate) fn merge_table2(
    units: &[usize],
    payloads: &[Option<Value>],
) -> (Table2, (usize, usize), usize) {
    let (mut band40, mut band70) = (Vec::new(), Vec::new());
    let (mut evals, mut failed, mut lost) = (0usize, 0usize, 0usize);
    for (&unit, payload) in units.iter().zip(payloads) {
        let rows = payload.as_ref().and_then(|p| {
            evals += field::<u64>(p, "evals").unwrap_or(0) as usize;
            failed += field::<u64>(p, "failed").unwrap_or(0) as usize;
            field::<Vec<(usize, FinalRow)>>(p, "rows")
        });
        let rows = rows.unwrap_or_else(|| {
            lost += 1;
            table2_degraded_unit(unit)
        });
        for (band, row) in rows {
            if band == 0 { &mut band40 } else { &mut band70 }.push(row);
        }
    }
    ((band40, band70), (evals, failed), lost)
}

/// Run (or load) Table 2 for one experiment on `runner`: the baseline
/// row, the twelve method rows and the four searches as 17 `table2`
/// units, merged in fixed unit order. Returns `None` when the runner was
/// cancelled; a cancelled or partly lost table is not cached (a lost
/// unit's stand-in rows would otherwise replay as a cache hit in every
/// later run of this store).
pub fn fetch_table2(
    runner: &mut dyn Runner,
    exp: &ExperimentScale,
    seed: u64,
    fresh: bool,
) -> Option<Table2> {
    let key = format!("table2_{}_s{seed}", exp.name);
    let fp = run_fingerprint(exp, seed);
    if !fresh {
        if let Some(rows) = cache::load(&key, &fp) {
            eprintln!("[cache] reusing {key}");
            return Some(rows);
        }
    }
    let units: Vec<usize> = (0..table2_task_count() + 1).collect();
    let payloads = runner.run_units("table2", exp, seed, fresh, &units, &Value::Null);
    if runner.cancelled() {
        eprintln!("[harness] table2 {} cancelled; partial grid discarded", exp.name);
        return None;
    }
    let (rows, counts, lost) = merge_table2(&units, &payloads);
    if lost > 0 {
        eprintln!("[harness] table2 {}: {lost} unit(s) lost; merged table not cached", exp.name);
    } else {
        cache::store(&key, &fp, &rows);
        cache::store(&table2_counts_key(exp.name, seed), &fp, &counts);
    }
    Some(rows)
}

/// [`fetch_table2`] on the TCP fleet, for callers holding a
/// [`DistRunner`] and the command-line arguments.
pub fn table2_rows_dist(runner: &mut DistRunner, exp: &ExperimentScale, args: &BenchArgs) -> Table2 {
    // The fleet never reports a cancellation.
    fetch_table2(runner, exp, args.seed, args.fresh).unwrap_or_default()
}

/// The searches of `algos` (indices into [`harness::Algo::ALL`]) on the
/// source task: already cached histories — in this process's store or
/// any worker sub-store — are reused, the rest run as `search` task units
/// on `runner`. Histories found in a worker sub-store or returned by a
/// unit are also persisted under their search cache key in this
/// process's store, so every later reuse (figure overlays, table3 scheme
/// extraction, smoke count scans) is a local hit. A search that produced
/// no payload is `None`.
pub fn fetch_searches(
    runner: &mut dyn Runner,
    exp: &ExperimentScale,
    seed: u64,
    fresh: bool,
    algos: &[usize],
) -> Vec<Option<SearchHistory>> {
    let fp = run_fingerprint(exp, seed);
    let search_key = |u: usize| {
        format!("{}_s{seed}_{}", exp.name, harness::Algo::ALL[u].name().to_lowercase())
    };
    let mut out: Vec<Option<SearchHistory>> = vec![None; algos.len()];
    let mut need: Vec<usize> = Vec::new();
    for (i, &u) in algos.iter().enumerate() {
        if !fresh {
            let hit = cache::load(&search_key(u), &fp).or_else(|| {
                let h: SearchHistory = load_from_workers(&search_key(u), &fp)?;
                cache::store(&search_key(u), &fp, &h);
                Some(h)
            });
            if hit.is_some() {
                out[i] = hit;
                continue;
            }
        }
        need.push(u);
    }
    if !need.is_empty() {
        let payloads = runner.run_units("search", exp, seed, fresh, &need, &Value::Null);
        for (&u, payload) in need.iter().zip(payloads) {
            let h: Option<SearchHistory> = payload.and_then(|p| field(&p, "history"));
            if let Some(h) = &h {
                cache::store(&search_key(u), &fp, h);
            }
            if let Some(i) = algos.iter().position(|&x| x == u) {
                out[i] = h;
            }
        }
    }
    out
}

/// Stand-in rows for a Table 3 target that produced no payload: the
/// table keeps its shape, each row labelled `(worker unavailable)`.
pub(crate) fn table3_degraded_target(schemes: &[(String, Option<Scheme>)]) -> Vec<FinalRow> {
    let why = "worker unavailable";
    MethodId::ALL
        .iter()
        .map(|m| m.name())
        .chain(schemes.iter().map(|(name, _)| name.as_str()))
        .map(|name| degraded_row(name, why))
        .collect()
}

/// Merge `table3` payloads into one row list per target.
pub(crate) fn merge_table3(
    payloads: Vec<Option<Value>>,
    schemes: &[(String, Option<Scheme>)],
) -> Vec<Vec<FinalRow>> {
    payloads
        .into_iter()
        .map(|p| {
            p.and_then(|p| field(&p, "rows")).unwrap_or_else(|| table3_degraded_target(schemes))
        })
        .collect()
}

/// Table 3 for one experiment on `runner`: every transfer target of
/// [`table3_targets`] as a `table3` unit, with the searched `schemes`
/// shipped in the unit params.
pub fn fetch_table3(
    runner: &mut dyn Runner,
    exp: &ExperimentScale,
    seed: u64,
    fresh: bool,
    schemes: &[(String, Option<Scheme>)],
) -> Vec<Vec<FinalRow>> {
    let units: Vec<usize> = (0..table3_targets(exp).len()).collect();
    let params = schemes_to_params(schemes);
    merge_table3(runner.run_units("table3", exp, seed, fresh, &units, &params), schemes)
}

/// The Figure 5 ablation searches ([`FIG5_VARIANTS`], in order) on
/// `runner`; a variant that produced no payload is `None`.
pub fn fetch_fig5(
    runner: &mut dyn Runner,
    exp: &ExperimentScale,
    seed: u64,
    fresh: bool,
) -> Vec<Option<SearchHistory>> {
    let units: Vec<usize> = (0..FIG5_VARIANTS.len()).collect();
    runner
        .run_units("fig5", exp, seed, fresh, &units, &Value::Null)
        .into_iter()
        .map(|p| p.and_then(|p| field(&p, "history")))
        .collect()
}

/// Load a cached value from the supervisor's own store or, failing that,
/// from any worker sub-store under it — the distributed counterpart of
/// [`cache::load`] for artifacts (like search histories) that live where
/// the owning worker ran.
pub fn load_result_any<T: FromJson>(key: &str, fingerprint: &str) -> Option<T> {
    cache::load(key, fingerprint).or_else(|| load_from_workers(key, fingerprint))
}

/// [`load_result_any`] from the worker sub-stores alone.
fn load_from_workers<T: FromJson>(key: &str, fingerprint: &str) -> Option<T> {
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
