//! Reproduce **Figure 4**: for each AutoML algorithm on Exp1/Exp2, the
//! best-feasible-accuracy-vs-search-budget curve and the final Pareto
//! front on `[PR, Acc]`. Reuses Table 2's cached searches.
//!
//! Run: `cargo run --release -p automc-bench --bin fig4 [--seed N] [--fresh]`
//!
//! The four searches per experiment run as task units on the in-process
//! pool, or with `--workers N` / `--listen ADDR` over the TCP task
//! queue; `--connect ADDR` runs as a remote worker.

use automc_bench::harness::Algo;
use automc_bench::orchestrator::fetch_searches;
use automc_bench::report::{render_front, render_series};
use automc_bench::scale::{exp1, exp2};
use automc_bench::{parse_args, transport};

fn main() {
    let args = parse_args();
    let mut runner = transport::fleet(&args);
    let (seed, fresh) = (args.seed, args.fresh);
    println!("Figure 4 reproduction (seed {seed})");
    for exp in [exp1(), exp2()] {
        println!("\n### {} ###", exp.name);
        let units: Vec<usize> = (0..Algo::ALL.len()).collect();
        let histories = fetch_searches(runner.as_mut(), &exp, seed, fresh, &units);
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
    runner.shutdown();
}
