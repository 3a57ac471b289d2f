//! `search_warm`: the four searches on the smoke task, for three program
//! seeds, with a budget large enough that searching dominates. The
//! prepared tasks, the experience corpus and the embeddings are built in
//! set-up; the memo, the spill store and the result cache start cold for
//! the measured phase. Also home of the search helpers the traced
//! pipeline shares.

use crate::common::{fnv, median, peak_rss_mb, tail, Digests, Outcome, RunDirs};
use crate::trace::Tracer;
use crate::{probe, Ctx};
use automc_bench::harness::{automc_embeddings, experience_corpus, run_search_with, Algo, RunOpts};
use automc_bench::scale::{prepare_task, smoke, ExperimentScale, PreparedTask};
use automc_compress::StrategySpace;
use automc_core::progress::{RoundControl, RoundEvent, RoundObserver};
use automc_core::{EvalStatus, RoundHook, SearchHistory};
use automc_json::ToJson;
use automc_tensor::par;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Search budget (cost units) per search. Twelve searches (four
/// algorithms on three program seeds) make about 165 evaluations, so the
/// searches, not the fixed costs, dominate the phase.
pub const BUDGET_UNITS: u64 = 7_500;

/// Program seeds per batch: averaging three seeds' searches keeps one
/// seed's unusually long search from setting the run's wall clock.
const SEEDS: u64 = 3;

/// The smoke scale with the larger search budget.
pub fn scale() -> ExperimentScale {
    ExperimentScale {
        budget_units: BUDGET_UNITS,
        ..smoke()
    }
}

pub fn algo_key(algo: Algo) -> String {
    algo.name().to_lowercase()
}

/// Round-hook observer of one search: the time of every round boundary.
pub struct RoundLog {
    marks: Mutex<Vec<Instant>>,
}

impl RoundLog {
    fn new() -> RoundLog {
        RoundLog {
            marks: Mutex::new(vec![Instant::now()]),
        }
    }

    /// `(start, end)` of every reported round.
    fn rounds(&self) -> Vec<(Instant, Instant)> {
        let marks = self.marks.lock().expect("round log poisoned");
        marks.windows(2).map(|w| (w[0], w[1])).collect()
    }
}

impl RoundObserver for RoundLog {
    fn on_round(&self, _: &RoundEvent) -> RoundControl {
        self.marks
            .lock()
            .expect("round log poisoned")
            .push(Instant::now());
        RoundControl::Continue
    }
}

/// One finished search.
pub struct SearchRun {
    pub algo: Algo,
    pub seed: u64,
    pub history: SearchHistory,
    pub secs: f64,
    pub span: Option<u64>,
    pub rounds: Vec<(Instant, Instant)>,
}

/// Run one search under a span (and, when tracing, the round hook).
pub fn one_search(
    tr: &Tracer,
    parent: Option<u64>,
    algo: Algo,
    task: &PreparedTask,
    space: &StrategySpace,
    emb: &[Vec<f32>],
    seed: u64,
) -> SearchRun {
    let log = Arc::new(RoundLog::new());
    let opts = if tr.enabled() {
        RunOpts {
            hook: RoundHook::new(log.clone()),
            journal_dir: None,
        }
    } else {
        RunOpts::default()
    };
    let span = tr.span_under(&format!("core.search.{}", algo_key(algo)), parent);
    let t = Instant::now();
    let history = run_search_with(
        algo,
        task,
        space,
        Some(emb),
        seed,
        false,
        task.scale.name,
        &opts,
    )
    .unwrap_or_default();
    let secs = t.elapsed().as_secs_f64();
    let id = span.id();
    drop(span);
    SearchRun {
        algo,
        seed,
        history,
        secs,
        span: id,
        rounds: log.rounds(),
    }
}

/// Turn the hook's round boundaries into spans under their searches.
pub fn record_rounds(tr: &Tracer, runs: &[SearchRun]) {
    for r in runs {
        for &(start, end) in &r.rounds {
            tr.record(
                &format!("core.round.{}", algo_key(r.algo)),
                r.span,
                start,
                end,
            );
        }
    }
}

/// Per-layer search metrics from the spans and histories of a phase.
pub fn search_layers(out: &mut Outcome, tr: &Tracer, runs: &[SearchRun]) {
    let mut lookups = 0u64;
    let mut hits = 0u64;
    let mut avoided = 0u64;
    for s in tr
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("core.search."))
    {
        for (k, v) in &s.counters {
            match *k {
                "memo_lookups" => lookups += v,
                "memo_prefix_hits" => hits += v,
                "memo_steps_avoided" => avoided += v,
                _ => {}
            }
        }
    }
    out.put("compress.memo.lookups", lookups as f64, "count");
    out.put("compress.memo.prefix_hits", hits as f64, "count");
    out.put(
        "compress.memo.hit_rate",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        "ratio",
    );
    out.put("compress.memo.steps_avoided", avoided as f64, "count");
    for algo in Algo::ALL {
        let key = algo_key(algo);
        let mine = || runs.iter().filter(move |r| r.algo == algo);
        out.put(
            &format!("core.search_s.{key}"),
            mine().map(|r| r.secs).sum(),
            "s",
        );
        let evals = mine().map(|r| r.history.records.len()).sum::<usize>();
        out.put(&format!("core.evals.{key}"), evals as f64, "count");
        out.put(
            &format!("core.round_s.{key}"),
            median(&tr.durations(&format!("core.round.{key}"))),
            "s",
        );
    }
    let failed: usize = runs.iter().map(|r| r.history.failed_count()).sum();
    let cost: u64 = runs.iter().map(|r| r.history.total_cost()).sum();
    out.put("core.failed_evals", failed as f64, "count");
    out.put("core.cost_units", cost as f64, "units");
}

/// Evaluations that crashed (a caught panic): a failed operation. A
/// diverged or timed-out candidate is a search outcome instead — its
/// evaluation finished and was recorded as infeasible.
pub fn panicked(h: &SearchHistory) -> usize {
    h.records
        .iter()
        .filter(|r| matches!(r.status, EvalStatus::Panicked(_)))
        .count()
}

/// Digest of a history: every record's scheme, cost and accuracy bits.
pub fn history_digest(histories: &[&SearchHistory]) -> u64 {
    let mut s = String::new();
    for h in histories {
        s.push_str(&h.algorithm);
        for r in &h.records {
            s.push_str(&format!(
                "|{}|{}|{:08x}|{:?}",
                r.scheme.to_json().to_string_compact(),
                r.cost_so_far,
                r.acc.to_bits(),
                r.status
            ));
        }
        s.push('\n');
    }
    fnv(s.as_bytes())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tr = &ctx.tracer;
    let mut out = Outcome::default();
    let scale = scale();
    let space = StrategySpace::full();

    // Set-up: prepared task, corpus and embeddings, built in this
    // invocation only.
    let t_setup = Instant::now();
    let setup_dirs = RunDirs::fresh(&ctx.tag("search-setup")).map_err(|e| e.to_string())?;
    setup_dirs.activate();
    par::configure_threads(2);
    let seeds: Vec<u64> = (0..SEEDS).map(|k| SEEDS * ctx.seed + k).collect();
    let tasks: Vec<PreparedTask> = seeds
        .iter()
        .map(|&s| {
            let _s = tr.span("models.prepare_task");
            prepare_task(&scale, s)
        })
        .collect();
    let records = {
        let _s = tr.span("knowledge.corpus");
        experience_corpus(&space, "full", seeds[0], false)
            .records
            .len()
    };
    let emb = {
        let _s = tr.span("knowledge.embeddings");
        automc_embeddings(&space, "full", seeds[0], false, true, true)
    };
    let setup_s = t_setup.elapsed().as_secs_f64();

    // Measured phase: the twelve searches as pool tasks, as the pipeline
    // runs its four, from a cold memo, spill store and result cache.
    let dirs = RunDirs::fresh(&ctx.tag("search")).map_err(|e| e.to_string())?;
    dirs.activate();
    dirs.check_cold(&[])?;
    let store0 = automc_compress::store::counters();
    let t = Instant::now();
    let phase = tr.span("phase.searches");
    let parent = phase.id();
    let n = Algo::ALL.len();
    let runs: Vec<SearchRun> = par::par_map(n * seeds.len(), |i| {
        let (algo, k) = (Algo::ALL[i % n], i / n);
        one_search(tr, parent, algo, &tasks[k], &space, &emb, seeds[k])
    });
    drop(phase);
    let wall = t.elapsed().as_secs_f64();
    let store = automc_compress::store::counters().since(&store0);
    let bytes = dirs.bytes();
    dirs.remove();
    setup_dirs.remove();

    let evals: usize = runs.iter().map(|r| r.history.records.len()).sum();
    let infeasible: usize = runs.iter().map(|r| r.history.failed_count()).sum();
    out.attempted = evals as u64;
    out.failed = runs.iter().map(|r| panicked(&r.history)).sum::<usize>() as u64;
    out.check(evals > 0, || "the searches recorded no evaluation".into());
    let digest = history_digest(&runs.iter().map(|r| &r.history).collect::<Vec<_>>());
    if let Err(e) = Digests::check("search", ctx.seed, digest) {
        out.errors.push(e);
    }
    let secs: Vec<f64> = runs.iter().map(|r| r.secs).collect();
    let (tail_v, pct, n) = tail(&secs);
    out.notes.push(format!(
        "search digest {digest:016x}: {evals} evaluations ({infeasible} infeasible) by {}",
        runs.iter()
            .map(|r| format!(
                "{}/s{} {} in {:.2}s",
                r.algo.name(),
                r.seed,
                r.history.records.len(),
                r.secs
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.notes.push(format!(
        "job = one search; job_tail_s is p{pct:.0} of n={n}"
    ));
    out.put("wall_s", wall, "s");
    out.put("setup_s", setup_s, "s");
    out.put("evals_per_s", evals as f64 / wall, "1/s");
    out.put("job_p50_s", median(&secs), "s");
    out.put("job_tail_s", tail_v, "s");
    out.put("peak_rss_mb", peak_rss_mb(), "MiB");

    if tr.enabled() {
        record_rounds(tr, &runs);
        search_layers(&mut out, tr, &runs);
        out.put("knowledge.corpus_s", tr.total_s("knowledge.corpus"), "s");
        out.put("knowledge.corpus_records", records as f64, "count");
        out.put(
            "knowledge.embeddings_s",
            tr.total_s("knowledge.embeddings"),
            "s",
        );
        out.put(
            "models.prepare_task_s",
            median(&tr.durations("models.prepare_task")),
            "s",
        );
        probe::models(&mut out, &tasks[0]);
        out.put("compress.store.published", store.publishes as f64, "count");
        out.put("compress.store.hits", store.hits as f64, "count");
        out.put("compress.store.evicted", store.evictions as f64, "count");
        out.put("bench.cache.bytes", bytes as f64, "bytes");
    }
    Ok(out)
}
