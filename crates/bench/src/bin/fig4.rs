//! Reproduce **Figure 4**: for each AutoML algorithm on Exp1/Exp2, the
//! best-feasible-accuracy-vs-search-budget curve and the final Pareto
//! front on `[PR, Acc]`. Reuses Table 2's cached searches.
//!
//! Run: `cargo run --release -p automc-bench --bin fig4 [--seed N] [--fresh]`
//!
//! `--workers N` / `--listen ADDR` distribute the four searches per
//! experiment over the TCP task queue; `--connect ADDR` runs as a remote
//! worker.

use automc_bench::harness::{automc_embeddings, run_search_with, Algo, RunOpts};
use automc_bench::report::{render_front, render_series};
use automc_bench::scale::{exp1, exp2, prepare_task};
use automc_bench::{orchestrator, parse_args, transport};
use automc_compress::StrategySpace;
use automc_core::SearchHistory;

fn main() {
    let args = parse_args();
    let mut runner = transport::fleet(&args);
    let (seed, fresh) = (args.seed, args.fresh);
    println!("Figure 4 reproduction (seed {seed})");
    let space = StrategySpace::full();
    for exp in [exp1(), exp2()] {
        println!("\n### {} ###", exp.name);
        let histories: Vec<Option<SearchHistory>> = match runner.as_mut() {
            Some(r) => {
                let units: Vec<usize> = (0..Algo::ALL.len()).collect();
                orchestrator::fetch_searches(r, &exp, seed, fresh, &units)
            }
            None => {
                let task = prepare_task(&exp, seed);
                let emb = automc_embeddings(&space, "full", seed, false, true, true);
                Algo::ALL
                    .iter()
                    .map(|&algo| {
                        let opts = RunOpts::default();
                        let emb = Some(emb.as_slice());
                        run_search_with(algo, &task, &space, emb, seed, fresh, exp.name, &opts)
                    })
                    .collect()
            }
        };
        for (algo, history) in Algo::ALL.iter().zip(&histories) {
            let Some(history) = history else {
                println!("{}: unavailable (search degraded)", algo.name());
                continue;
            };
            let curve = history.best_acc_curve(exp.gamma);
            // Thin the curve to ≤ 30 points for readability.
            let step = (curve.len() / 30).max(1);
            let thin: Vec<(u64, f32)> = curve
                .iter()
                .step_by(step)
                .chain(curve.last().into_iter())
                .copied()
                .collect();
            print!("{}", render_series(&format!("{} best-accuracy curve", algo.name()), &thin));
            let front: Vec<(f32, f32)> = history
                .pareto_indices(exp.gamma)
                .into_iter()
                .map(|i| {
                    let r = &history.records[i];
                    (r.pr * 100.0, r.acc * 100.0)
                })
                .collect();
            print!("{}", render_front(algo.name(), &front));
        }
    }
    if let Some(mut r) = runner {
        r.shutdown();
    }
}
