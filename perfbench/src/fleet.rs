//! The distributed Table 2 (`table2 --smoke --workers 2` at 1 thread per
//! worker), run inside the traced `pipeline_cold`: the only path through
//! the TCP task queue, heartbeats, streaming merge and worker self-exec.
//!
//! The supervisor's store starts with only the corpus and embeddings an
//! earlier cold pipeline of the same invocation computed (the shared
//! store its workers read). The task server starts two local workers —
//! self-exec'd copies of this binary entering
//! `transport::run_worker_connect` — runs the table through
//! `orchestrator::table2_rows_dist`, and shuts the fleet down, waiting for
//! every worker to exit.

use crate::common::{degraded_rows, dir_bytes, Outcome, RunDirs};
use crate::pipeline::{count_evals, Table};
use crate::Ctx;
use automc_bench::harness::table2_task_count;
use automc_bench::scale::smoke;
use automc_bench::transport::{DistRunner, SchedPolicy};
use automc_bench::{orchestrator, BenchArgs, DEFAULT_IO_TIMEOUT_MS};
use automc_tensor::par;
use std::path::Path;
use std::time::Instant;

const WORKERS: usize = 2;

fn fleet_args(seed: u64) -> BenchArgs {
    BenchArgs {
        seed,
        fresh: false,
        threads: 1,
        no_resume: false,
        faults: None,
        smoke: true,
        memo: None,
        workers: WORKERS,
        heartbeat_ms: 500,
        retries: 2,
        connect: None,
        listen: None,
        addr_file: None,
        worker_slot: None,
        sched: SchedPolicy::Dynamic,
        io_timeout_ms: DEFAULT_IO_TIMEOUT_MS,
    }
}

/// Worker restarts the supervisor has journaled so far (the retry journal
/// exists only once a worker failed, and is discarded at shutdown).
fn restarts(root: &Path, seed: u64) -> u64 {
    let path = root.join(format!("orch_dist_s{seed}.journal"));
    automc_core::journal::load_checksummed(&path)
        .and_then(|p| automc_json::parse(&p).ok())
        .and_then(|v| automc_json::field::<Vec<u64>>(&v, "retries"))
        .map_or(0, |r| r.iter().sum())
}

/// Table 2 units the workers completed (each is cached in its worker's
/// own store under its unit key).
fn units_done(root: &Path, seed: u64) -> u64 {
    let prefix = format!("unit_table2_smoke_s{seed}_u");
    (0..WORKERS)
        .map(|i| {
            std::fs::read_dir(orchestrator::worker_dir(root, i))
                .into_iter()
                .flatten()
                .flatten()
                .filter(|e| {
                    e.file_name()
                        .to_str()
                        .is_some_and(|n| n.starts_with(&prefix))
                })
                .count() as u64
        })
        .sum()
}

/// Copy the warmed corpus and embedding entries into a fresh store.
fn copy_warmed(from: &Path, to: &Path) -> Result<(), String> {
    for e in std::fs::read_dir(from)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        let name = e.file_name();
        let n = name.to_string_lossy();
        if (n.starts_with("corpus_") || n.starts_with("emb_")) && n.ends_with(".json") {
            std::fs::copy(e.path(), to.join(&name)).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Run the distributed table from cold stores seeded with the corpus and
/// embeddings in `warmed`; records the transport layer metrics and
/// returns the table with its wall clock.
pub fn table(ctx: &Ctx, warmed: &Path, out: &mut Outcome) -> Result<(Table, f64), String> {
    let seed = ctx.seed;
    let dirs = RunDirs::fresh(&ctx.tag("fleet")).map_err(|e| e.to_string())?;
    dirs.activate();
    // Workers share `<results>/memo` as their spill store: start it empty
    // and leave it to them.
    automc_compress::memo::set_spill_dir(None);
    let _ = std::fs::remove_dir_all(dirs.results().join("memo"));
    copy_warmed(warmed, &dirs.results())?;
    dirs.check_cold(&["corpus_", "emb_"])?;
    par::configure_threads(1);

    let args = fleet_args(seed);
    let t = Instant::now();
    let span = ctx.tracer.span("bench.transport.table2");
    let mut runner = DistRunner::start(&args).map_err(|e| format!("task server: {e}"))?;
    let table = orchestrator::table2_rows_dist(&mut runner, &smoke(), &args);
    let restarted = restarts(&dirs.results(), seed);
    runner.shutdown();
    drop(span);
    let wall = t.elapsed().as_secs_f64();

    let units = units_done(&dirs.results(), seed);
    let counts = count_evals(seed, orchestrator::load_result_any);
    let (lost, _) = degraded_rows(&table.0, &table.1);
    out.attempted += (table.0.len() + table.1.len() + table2_task_count() + 1) as u64;
    out.failed += (counts.crashed + lost) as u64 + restarted;
    out.put("bench.transport.units", units as f64, "count");
    out.put("bench.transport.restarts", restarted as f64, "count");
    out.put(
        "bench.cache.bytes",
        dir_bytes(&dirs.results()) as f64,
        "bytes",
    );
    out.notes.push(format!(
        "distributed table: {wall:.3}s, {units} units run by {WORKERS} workers, \
         {restarted} worker restart(s), {lost} lost row(s)"
    ));
    dirs.remove();
    Ok((table, wall))
}
