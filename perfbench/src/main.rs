//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pipeline_cold|search_warm|serve_jobs> \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every run starts cold in its own
//! directory under `.perfbench/`, checks the program's outputs, prints
//! each metric by name and unit, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! traced run also writes its span ledger to `.perfbench/ledger/`.
//! `perfbench/PLAN.md` lists the workloads, the metrics and which
//! end-to-end number each layer metric should move.

mod common;
mod fleet;
mod pipeline;
mod probe;
mod search;
mod serve_jobs;
mod trace;

use common::{Metric, Outcome, WORK_DIR};
use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;

/// End-to-end metrics (untraced run), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("evals_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
];

/// Per-layer metrics (traced run), with units. A workload that does not
/// exercise a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 51] = [
    ("knowledge.corpus_s", "s"),
    ("knowledge.corpus_records", "count"),
    ("knowledge.embeddings_s", "s"),
    ("tensor.matmul_us", "us"),
    ("tensor.conv_fwd_us", "us"),
    ("tensor.conv_bwd_us", "us"),
    ("tensor.gemm_gflops_computed", "GFLOP/s"),
    ("tensor.par_speedup", "x"),
    ("models.train_epoch_s", "s"),
    ("models.evaluate_ms", "ms"),
    ("models.prepare_task_s", "s"),
    ("compress.method_grid_s", "s"),
    ("compress.final_rows_s", "s"),
    ("compress.final_evals", "count"),
    ("compress.memo.lookups", "count"),
    ("compress.memo.prefix_hits", "count"),
    ("compress.memo.hit_rate", "ratio"),
    ("compress.memo.steps_avoided", "count"),
    ("compress.store.published", "count"),
    ("compress.store.hits", "count"),
    ("compress.store.evicted", "count"),
    ("core.search_s.automc", "s"),
    ("core.search_s.evolution", "s"),
    ("core.search_s.rl", "s"),
    ("core.search_s.random", "s"),
    ("core.evals.automc", "count"),
    ("core.evals.evolution", "count"),
    ("core.evals.rl", "count"),
    ("core.evals.random", "count"),
    ("core.round_s.automc", "s"),
    ("core.round_s.evolution", "s"),
    ("core.round_s.rl", "s"),
    ("core.round_s.random", "s"),
    ("core.failed_evals", "count"),
    ("core.cost_units", "units"),
    ("serve.submit_rtt_ms", "ms"),
    ("serve.queue_wait_s", "s"),
    ("serve.run_s", "s"),
    ("serve.rounds_per_job", "count"),
    ("serve.frame_bytes_per_job", "bytes"),
    ("serve.cold_job_p50_s", "s"),
    ("serve.replay_job_p50_s", "s"),
    ("serve.busy", "count"),
    ("serve.failed", "count"),
    ("bench.transport.units", "count"),
    ("bench.transport.restarts", "count"),
    ("bench.cache.bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.top_level_s", "s"),
    ("machine.ref_ikj_192_ms", "ms"),
    ("machine.threads", "count"),
];

const WORKLOADS: [&str; 3] = ["pipeline_cold", "search_warm", "serve_jobs"];

/// What one invocation was asked to do.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub tracer: Tracer,
}

impl Ctx {
    /// Directory tag unique to this invocation and phase.
    pub fn tag(&self, phase: &str) -> String {
        format!("{phase}-s{}-p{}", self.seed, std::process::id())
    }
}

fn parse(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => match value()?.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = seed.ok_or("missing --seed")?;
    let trace = trace.unwrap_or(false);
    let run_id = format!(
        "{workload}-s{seed}-t{}-p{}",
        trace as u8,
        std::process::id()
    );
    Ok(Ctx {
        workload,
        seed,
        seconds: seconds.unwrap_or(10).max(1),
        tracer: Tracer::new(trace, run_id),
    })
}

/// Program settings that would change what a run measures. The
/// benchmark fixes threads, caches, faults and scale itself.
const PROGRAM_ENV: [&str; 12] = [
    "AUTOMC_THREADS",
    "AUTOMC_FAULTS",
    "AUTOMC_MEMO",
    "AUTOMC_MEMO_BYTES",
    "AUTOMC_MEMO_DISK_BYTES",
    "AUTOMC_MEMO_SPILL_DIR",
    "AUTOMC_SHARED_RESULTS_DIR",
    "AUTOMC_SMOKE_TRAIN",
    "AUTOMC_SMOKE_TEST",
    "AUTOMC_SMOKE_EPOCHS",
    "AUTOMC_SMOKE_BUDGET",
    "AUTOMC_WORKER_FAULT",
];

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn report(ctx: &Ctx, out: &Outcome) -> String {
    let list: &[(&str, &str)] = if ctx.tracer.enabled() {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let metrics: Vec<Metric> = list
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            value: out
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value),
            unit,
        })
        .collect();
    for m in &metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    // Printed beside the end-to-end metrics but left out of the JSON
    // result. `peak_rss_mb` is bimodal on `search_warm` with no code
    // change: the process either stays near 250 MiB or steps up to about
    // 400 MiB late in the phase, and one seed has given both, so the
    // quartiles of ten runs can span both modes (a spread of 0.32 seen,
    // against the largest allowed bound of 0.25). `fail_frac` is 0 when
    // nothing fails, and the JSON carries its counts.
    if let Some(m) = out.metrics.iter().find(|m| m.name == "peak_rss_mb") {
        if !ctx.tracer.enabled() {
            println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{:<34} {:>16.6} ratio ({}/{})",
        "fail_frac", fail_frac, out.failed, out.attempted
    );
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        out.errors.is_empty(),
        out.attempted.max(1),
        out.failed
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    // A local worker of the distributed table's task server: the supervisor
    // self-execs this binary with `--connect ADDR`, exactly as `table2`
    // does.
    if argv.iter().any(|a| a == "--connect") {
        let args = automc_bench::parse_args();
        let addr = args.connect.clone().expect("--connect has an address");
        let code = automc_bench::transport::run_worker_connect(&args, &addr);
        return ExitCode::from(u8::try_from(code).unwrap_or(1));
    }
    for key in PROGRAM_ENV {
        std::env::remove_var(key);
    }
    let ctx = match parse(&argv[1..]) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new("crates").is_dir() || !Path::new("Cargo.lock").is_file() {
        eprintln!("perfbench: run from the repository root (crates/ and Cargo.lock not found)");
        return ExitCode::from(2);
    }
    // The machine-speed probe runs before, and is not part of, the
    // workload's set-up: `setup_s` times only the workload's own set-up.
    let probe_ms = probe::machine_ms();
    println!(
        "[perfbench] workload={} seed={} seconds={} trace={} machine.ref_ikj_192_ms={probe_ms:.4}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        ctx.tracer.enabled() as u8
    );
    let result = match ctx.workload.as_str() {
        "pipeline_cold" => pipeline::run(&ctx),
        "search_warm" => search::run(&ctx),
        _ => serve_jobs::run(&ctx),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    if ctx.tracer.enabled() {
        probe::tensor(&mut out);
        out.put("machine.ref_ikj_192_ms", probe_ms, "ms");
        out.put(
            "machine.threads",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
            "count",
        );
        let path = Path::new(WORK_DIR).join("ledger").join(format!(
            "{}-s{}-p{}.json",
            ctx.workload,
            ctx.seed,
            std::process::id()
        ));
        match ctx.tracer.write_ledger(&path) {
            Ok(()) => println!("[perfbench] ledger written to {}", path.display()),
            Err(e) => out.errors.push(format!("cannot write the ledger: {e}")),
        }
    }
    for note in &out.notes {
        println!("[perfbench] {note}");
    }
    for e in &out.errors {
        println!("[perfbench] CHECK FAILED: {e}");
    }
    println!("{}", report(&ctx, &out));
    ExitCode::SUCCESS
}
