//! Reproduce **Figure 6**: pretty-print the best compression schemes
//! AutoMC searched on Exp1/Exp2 (strategy sequences with their
//! hyperparameter settings). Reuses Table 2's cached searches.
//!
//! Run: `cargo run --release -p automc-bench --bin fig6 [--seed N]`
//!
//! `--workers N` / `--listen ADDR` pull any missing AutoMC searches
//! through the distributed task queue; `--connect ADDR` runs as a remote
//! worker.

use automc_bench::harness::{
    automc_embeddings, best_scheme_in_band, run_search_with, Algo, RunOpts,
};
use automc_bench::scale::prepare_task;
use automc_bench::scale::{exp1, exp2};
use automc_bench::{orchestrator, parse_args, transport};
use automc_compress::StrategySpace;
use automc_core::SearchHistory;

fn main() {
    let args = parse_args();
    let mut runner = transport::fleet(&args);
    let seed = args.seed;
    println!("Figure 6 reproduction (seed {seed}) — AutoMC's searched schemes\n");
    let space = StrategySpace::full();
    for exp in [exp1(), exp2()] {
        let history: Option<SearchHistory> = match runner.as_mut() {
            Some(r) => orchestrator::fetch_searches(r, &exp, seed, false, &[0])
                .into_iter()
                .next()
                .flatten(),
            None => {
                let task = prepare_task(&exp, seed);
                let emb = automc_embeddings(&space, "full", seed, false, true, true);
                let (opts, emb) = (RunOpts::default(), Some(emb.as_slice()));
                run_search_with(Algo::AutoMc, &task, &space, emb, seed, false, exp.name, &opts)
            }
        };
        println!("### {} ({}) ###", exp.name, exp.model);
        let Some(history) = history else {
            println!("  (search degraded — no scheme available)\n");
            continue;
        };
        for (band, lo, hi) in [("PR≈40%", exp.gamma, 0.55f32), ("PR≈70%", 0.55, 0.90)] {
            match best_scheme_in_band(&history, lo, hi) {
                Some(scheme) => {
                    println!("  best scheme in {band} band:");
                    for (step, &sid) in scheme.iter().enumerate() {
                        println!("    step {}: {}", step + 1, space.spec(sid));
                    }
                }
                None => println!("  best scheme in {band} band: (none found)"),
            }
        }
        // The paper adds make-up fine-tuning at the end of each sequence so
        // total fine-tuning epochs are comparable across schemes.
        println!("  (+ make-up fine-tuning appended at execution time)\n");
    }
    if let Some(mut r) = runner {
        r.shutdown();
    }
}
