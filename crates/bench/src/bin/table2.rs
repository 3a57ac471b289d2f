//! Reproduce **Table 2**: compression results of ResNet-56 on the
//! CIFAR-10 stand-in and VGG-16 on the CIFAR-100 stand-in, at the
//! PR ≈ 40% and PR ≈ 70% bands, for the six human-designed methods and
//! the four AutoML algorithms.
//!
//! Run: `cargo run --release -p automc-bench --bin table2 [--seed N] [--fresh]`
//!
//! `--workers N` distributes the grid over N supervised worker processes
//! pulling from a dynamic task queue over TCP (heartbeats, hang
//! detection, retry/backoff, graceful degradation — see
//! `automc_bench::transport`); the merged report is byte-identical to
//! the in-process run. `--listen ADDR` additionally (or instead) accepts
//! remote workers started with `table2 --connect ADDR`.
//!
//! `--smoke` runs the same pipeline at the smallest scale and prints
//! `SMOKE OK` on a structurally valid result — the CI fault-injection
//! stage runs this under a seeded `AUTOMC_FAULTS` plan and requires the
//! run to complete (degraded where faults hit, but valid).

use automc_bench::harness::{run_fingerprint, table2_rows};
use automc_bench::report::render_rows;
use automc_bench::scale::{exp1, exp2, smoke, ExperimentScale};
use automc_bench::transport::DistRunner;
use automc_bench::{cache, orchestrator, parse_args, transport, BenchArgs};
use automc_core::SearchHistory;

fn main() {
    let args = parse_args();
    let mut runner = transport::fleet(&args);
    if args.smoke {
        run_smoke(&args, runner.as_mut());
    } else {
        let seed = args.seed;
        println!("Table 2 reproduction (seed {seed})");
        for exp in [exp1(), exp2()] {
            let label = match exp.name {
                "exp1" => "ResNet-56 on CIFAR-10-like",
                _ => "VGG-16 on CIFAR-100-like",
            };
            let (band40, band70) = rows_for(&exp, &args, runner.as_mut());
            println!("{}", render_rows(&format!("{label} — PR ≈ 40%"), &band40));
            println!("{}", render_rows(&format!("{label} — PR ≈ 70%"), &band70));
        }
    }
    if let Some(mut r) = runner {
        r.shutdown();
    }
}

/// In-process pool (the default) or the distributed task queue
/// (`--workers N` / `--listen ADDR`) — identical results either way.
fn rows_for(
    exp: &ExperimentScale,
    args: &BenchArgs,
    runner: Option<&mut DistRunner>,
) -> (Vec<automc_bench::harness::FinalRow>, Vec<automc_bench::harness::FinalRow>) {
    match runner {
        Some(r) => orchestrator::table2_rows_dist(r, exp, args),
        None => table2_rows(exp, args.seed, args.fresh),
    }
}

/// The smallest end-to-end run: the full Table 2 pipeline on the smoke
/// scale, with structural validation. Prints `SMOKE OK` only if every
/// expected row is present — faulted evaluations may degrade individual
/// rows, but the table itself must always be produced.
fn run_smoke(args: &BenchArgs, runner: Option<&mut DistRunner>) {
    let seed = args.seed;
    let exp = smoke();
    println!("Table 2 smoke run (seed {seed}, scale {})", exp.name);
    let (band40, band70) = rows_for(&exp, args, runner);
    println!("{}", render_rows("smoke — PR ≈ 40%", &band40));
    println!("{}", render_rows("smoke — PR ≈ 70%", &band70));

    // Structure: baseline + 6 methods + 4 algorithms / 6 methods + 4.
    if band40.len() != 11 || band70.len() != 10 || band40[0].algorithm != "baseline" {
        eprintln!(
            "SMOKE FAILED: unexpected table shape ({} / {} rows)",
            band40.len(),
            band70.len()
        );
        std::process::exit(1);
    }

    // Report how the supervision layer handled faulted evaluations. A
    // distributed run streams the counters back with the unit payloads;
    // otherwise scan the search histories, looking across every worker
    // sub-store since each history lives in its owning worker's cache.
    let fp = run_fingerprint(&exp, seed);
    let counts: Option<(usize, usize)> =
        cache::load(&orchestrator::table2_counts_key(exp.name, seed), &fp);
    let (evals, infeasible) = counts.unwrap_or_else(|| {
        let mut evals = 0usize;
        let mut infeasible = 0usize;
        for algo in ["automc", "evolution", "rl", "random"] {
            let key = format!("{}_s{seed}_{algo}", exp.name);
            if let Some(h) = orchestrator::load_result_any::<SearchHistory>(&key, &fp) {
                evals += h.records.len();
                infeasible += h.failed_count();
            }
        }
        (evals, infeasible)
    });
    println!(
        "smoke: {evals} evaluations recorded, {infeasible} marked infeasible by supervision"
    );
    println!("SMOKE OK");
}
