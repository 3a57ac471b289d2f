//! `pipeline_cold`: the full `table2 --smoke` pipeline at 2 threads from
//! an empty result cache and spill store.
//!
//! The untraced run times one call of `harness::table2_rows`. The traced
//! run makes four cold runs of the same seed: the untraced pipeline at 2
//! threads (the reference for the tracing overhead), the pipeline
//! assembled from its public stages under spans at 2 threads, the
//! untraced pipeline at 1 thread (for the parallel speed-up), and the
//! distributed pipeline (see `fleet`). All four tables must be
//! byte-identical.

use crate::common::{
    degraded_rows, peak_rss_mb, render_table, repeat_setup, table_shape_ok, Digests, Outcome,
    RunDirs,
};
use crate::search::{algo_key, one_search, panicked, record_rounds, search_layers, SearchRun};
use crate::{fleet, probe, Ctx};
use automc_bench::cache;
use automc_bench::harness::{
    automc_embeddings, best_schemes_in_band, experience_corpus, final_row, method_baseline_row,
    method_grid, run_fingerprint, table2_rows, table2_task_count, Algo, FinalRow,
};
use automc_bench::scale::{prepare_task, smoke, PreparedTask};
use automc_compress::{MethodId, StrategySpace};
use automc_core::SearchHistory;
use automc_tensor::par;
use std::time::Instant;

pub type Table = (Vec<FinalRow>, Vec<FinalRow>);

/// One Table 2 task's `(band, row)` pairs, and its search if it ran one.
type TaskOut = (Vec<(usize, FinalRow)>, Option<SearchRun>);

/// Evaluation counts of a finished smoke Table 2, read back from the
/// histories its searches cached.
pub struct EvalCount {
    /// Every scheme evaluation: grid configurations and their full runs,
    /// search candidates, and final-row re-runs.
    pub evals: usize,
    pub final_evals: usize,
    /// Search candidates recorded as infeasible (diverged or timed out).
    pub infeasible: usize,
    /// Search evaluations that crashed.
    pub crashed: usize,
}

/// Count the evaluations behind a smoke table. `load` finds a search
/// history by cache key (the serial store, or any worker's sub-store).
pub fn count_evals(seed: u64, load: impl Fn(&str, &str) -> Option<SearchHistory>) -> EvalCount {
    let exp = smoke();
    let fp = run_fingerprint(&exp, seed);
    // Each grid configuration is scored on the search sample, then the
    // winner is re-run on the full training split.
    let grid: usize = MethodId::ALL
        .iter()
        .map(|&m| method_grid(m, 0.4).len() + method_grid(m, 0.7).len() + 2)
        .sum();
    let mut c = EvalCount {
        evals: grid,
        final_evals: 0,
        infeasible: 0,
        crashed: 0,
    };
    for algo in Algo::ALL {
        let Some(h) = load(&format!("{}_s{seed}_{}", exp.name, algo_key(algo)), &fp) else {
            continue;
        };
        c.evals += h.records.len();
        c.infeasible += h.failed_count();
        c.crashed += panicked(&h);
        for (lo, hi) in [(exp.gamma, 0.55f32), (0.55, 0.90)] {
            c.final_evals += best_schemes_in_band(&h, lo, hi, 2).len();
        }
    }
    c.evals += c.final_evals;
    c
}

/// Everything before the measured phase: the thread knob, the
/// pipeline's first stage (`prepare_task`: data synthesis and base-model
/// training) run once as a warm-up so that lazy set-up — pool threads,
/// allocator, page faults — is paid before timing, then a fresh result
/// cache and spill store and a cold memo. Nothing the warm-up computes
/// reaches the measured phase: `prepare_task` writes no cache and the memo
/// is cleared after it. Repeated `SETUPS` times; returns the last set-up
/// and the median time.
fn setup(ctx: &Ctx, tag: &str, threads: usize) -> Result<(RunDirs, f64), String> {
    let (dirs, secs) = repeat_setup(
        |i| {
            par::configure_threads(threads);
            drop(prepare_task(&smoke(), ctx.seed));
            let d = RunDirs::fresh(&ctx.tag(&format!("{tag}-{i}"))).map_err(|e| e.to_string())?;
            d.activate();
            Ok(d)
        },
        |d| {
            d.remove();
            Ok(())
        },
    )?;
    dirs.check_cold(&[])?;
    Ok((dirs, secs))
}

/// One untraced cold pipeline.
struct Cold {
    table: Table,
    wall: f64,
    counts: EvalCount,
    setup_s: f64,
    /// Its store, which holds the corpus and embeddings it computed.
    dirs: RunDirs,
}

fn untraced(ctx: &Ctx, tag: &str, threads: usize) -> Result<Cold, String> {
    let (dirs, setup_s) = setup(ctx, tag, threads)?;
    let t = Instant::now();
    let table = table2_rows(&smoke(), ctx.seed, false);
    let wall = t.elapsed().as_secs_f64();
    let counts = count_evals(ctx.seed, cache::load);
    Ok(Cold {
        table,
        wall,
        counts,
        setup_s,
        dirs,
    })
}

/// Table 2 assembled from the pipeline's public stages under spans —
/// the same calls, in the same task order, as `harness::table2_rows`.
fn traced(ctx: &Ctx, out: &mut Outcome) -> Result<(Table, f64, PreparedTask), String> {
    let tr = &ctx.tracer;
    let (dirs, _) = setup(ctx, "pipeline-traced", 2)?;
    let seed = ctx.seed;
    let exp = smoke();
    let store0 = automc_compress::store::counters();
    let t = Instant::now();
    let root = tr.span("pipeline");
    let task = {
        let _s = tr.span("models.prepare_task");
        prepare_task(&exp, seed)
    };
    let space = StrategySpace::full();
    let records = {
        let _s = tr.span("knowledge.corpus");
        experience_corpus(&space, "full", seed, false).records.len()
    };
    let emb = {
        let _s = tr.span("knowledge.embeddings");
        automc_embeddings(&space, "full", seed, false, true, true)
    };
    let n_methods = MethodId::ALL.len() * 2;
    let grid = tr.span("grid_and_searches");
    let parent = grid.id();
    let outs: Vec<TaskOut> = par::par_map(table2_task_count(), |i| {
        if i < n_methods {
            let _s = tr.span_under("compress.method_row", parent);
            let ratio = if i % 2 == 0 { 0.4 } else { 0.7 };
            let row = method_baseline_row(&task, MethodId::ALL[i / 2], ratio, seed, false);
            (vec![(i % 2, row)], None)
        } else {
            let algo = Algo::ALL[i - n_methods];
            let run = one_search(tr, parent, algo, &task, &space, &emb, seed);
            let _s = tr.span_under("compress.final_rows", parent);
            let rows = band_rows(ctx, algo, &run.history, &task, &space);
            (rows, Some(run))
        }
    });
    drop(grid);
    let mut band40 = vec![FinalRow::baseline(&task)];
    let mut band70 = Vec::new();
    let mut runs = Vec::new();
    for (rows, run) in outs {
        for (band, row) in rows {
            if band == 0 {
                band40.push(row)
            } else {
                band70.push(row)
            }
        }
        runs.extend(run);
    }
    drop(root);
    let wall = t.elapsed().as_secs_f64();

    record_rounds(tr, &runs);
    search_layers(out, tr, &runs);
    out.put("knowledge.corpus_s", tr.total_s("knowledge.corpus"), "s");
    out.put("knowledge.corpus_records", records as f64, "count");
    out.put(
        "knowledge.embeddings_s",
        tr.total_s("knowledge.embeddings"),
        "s",
    );
    out.put(
        "models.prepare_task_s",
        tr.total_s("models.prepare_task"),
        "s",
    );
    out.put(
        "compress.method_grid_s",
        tr.total_s("compress.method_row"),
        "s",
    );
    out.put(
        "compress.final_rows_s",
        tr.total_s("compress.final_rows"),
        "s",
    );
    out.put(
        "compress.final_evals",
        tr.durations("compress.final_row").len() as f64,
        "count",
    );
    let store = automc_compress::store::counters().since(&store0);
    out.put("compress.store.published", store.publishes as f64, "count");
    out.put("compress.store.hits", store.hits as f64, "count");
    out.put("compress.store.evicted", store.evictions as f64, "count");
    dirs.remove();
    Ok(((band40, band70), wall, task))
}

/// The two PR-band rows of one search, as the harness builds them: the
/// band's top two candidates re-run at full scale, best accuracy wins.
fn band_rows(
    ctx: &Ctx,
    algo: Algo,
    history: &SearchHistory,
    task: &PreparedTask,
    space: &StrategySpace,
) -> Vec<(usize, FinalRow)> {
    let gamma = task.scale.gamma;
    let mut rows = Vec::with_capacity(2);
    for (band, lo, hi) in [(0usize, gamma, 0.55f32), (1, 0.55, 0.90)] {
        let best = best_schemes_in_band(history, lo, hi, 2)
            .iter()
            .map(|scheme| {
                let _s = ctx.tracer.span("compress.final_row");
                final_row(algo.name(), scheme, task, space, ctx.seed)
            })
            .max_by(|a, b| a.acc.total_cmp(&b.acc));
        rows.push((
            band,
            best.unwrap_or(FinalRow {
                algorithm: format!("{} (no scheme in band)", algo.name()),
                params: 0,
                pr: 0.0,
                flops: 0,
                fr: 0.0,
                acc: 0.0,
                inc: 0.0,
                scheme: None,
            }),
        ));
    }
    rows
}

/// Shape and cross-run checks of a smoke Table 2; returns it rendered.
fn check_table(out: &mut Outcome, seed: u64, table: &Table) -> String {
    let (b40, b70) = table;
    out.check(table_shape_ok(b40, b70), || {
        format!(
            "unexpected table shape ({} / {} rows, baseline first)",
            b40.len(),
            b70.len()
        )
    });
    let rendered = render_table(b40, b70);
    let digest = crate::common::fnv(rendered.as_bytes());
    if let Err(e) = Digests::check("table2", seed, digest) {
        out.errors.push(e);
    }
    out.notes.push(format!("table digest {digest:016x}"));
    rendered
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cold = untraced(ctx, "pipeline", 2)?;
    cold.dirs.remove();
    let (table, wall, counts) = (&cold.table, cold.wall, &cold.counts);
    let rendered = check_table(&mut out, ctx.seed, table);
    let (lost, diverged) = degraded_rows(&table.0, &table.1);
    out.attempted = counts.evals as u64 + (table.0.len() + table.1.len()) as u64;
    out.failed = (counts.crashed + lost) as u64;
    out.notes.push(format!(
        "{} evaluations ({} final-row re-runs, {} search candidates infeasible), \
         {diverged} row(s) diverged",
        counts.evals, counts.final_evals, counts.infeasible
    ));
    out.notes
        .push("job = the whole pipeline; job_tail_s is p100 of n=1".into());
    out.put("wall_s", wall, "s");
    out.put("setup_s", cold.setup_s, "s");
    out.put("evals_per_s", counts.evals as f64 / wall, "1/s");
    out.put("job_p50_s", wall, "s");
    out.put("job_tail_s", wall, "s");
    out.put("peak_rss_mb", peak_rss_mb(), "MiB");

    if ctx.tracer.enabled() {
        let (traced_table, traced_wall, task) = traced(ctx, &mut out)?;
        let one = untraced(ctx, "pipeline-1t", 1)?;
        let (fleet_table, fleet_wall) = fleet::table(ctx, &one.dirs.results(), &mut out)?;
        one.dirs.remove();
        for (what, t) in [
            ("the pipeline assembled from its stages", &traced_table),
            ("the 1-thread pipeline", &one.table),
            ("the distributed pipeline", &fleet_table),
        ] {
            out.check(render_table(&t.0, &t.1) == rendered, || {
                format!("{what} does not reproduce the 2-thread table")
            });
        }
        let root = root_id(ctx);
        let top: f64 = ctx
            .tracer
            .spans()
            .iter()
            .filter(|s| s.parent.is_some() && s.parent == root)
            .map(|s| s.secs())
            .sum();
        // The root span's children run one after another and must cover
        // its whole wall clock; a gap means a stage ran outside any span.
        // With `trace.overhead_s` defined as traced minus untraced wall,
        // this is what makes the top-level spans account for the untraced
        // `wall_s` to within the tracing overhead.
        out.check((traced_wall - top).abs() <= 0.01 * traced_wall, || {
            format!("top-level spans cover {top:.3}s of the traced pipeline's {traced_wall:.3}s")
        });
        out.put("tensor.par_speedup", one.wall / wall, "x");
        out.put("trace.overhead_s", traced_wall - wall, "s");
        out.put("trace.top_level_s", top, "s");
        out.notes.push(format!(
            "traced wall {traced_wall:.3}s vs untraced {wall:.3}s; top-level spans {top:.3}s; \
             1-thread wall {:.3}s; distributed wall {fleet_wall:.3}s",
            one.wall
        ));
        probe::models(&mut out, &task);
    }
    Ok(out)
}

fn root_id(ctx: &Ctx) -> Option<u64> {
    ctx.tracer
        .spans()
        .iter()
        .find(|s| s.name == "pipeline")
        .map(|s| s.id)
}
