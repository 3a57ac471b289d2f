//! Reproduce **Figure 5**: Pareto fronts of the four AutoMC ablations
//! against full AutoMC on Exp1/Exp2.
//!
//! * `AutoMC-KG` — drop the knowledge-graph embedding (random init,
//!   experience refinement only);
//! * `AutoMC-NNexp` — drop the experience refinement (pure TransR);
//! * `AutoMC-MultipleSource` — restrict the space to LeGR strategies;
//! * `AutoMC-ProgressiveSearch` — replace the progressive search with the
//!   RL controller (identical budget/space).
//!
//! Run: `cargo run --release -p automc-bench --bin fig5 [--seed N] [--fresh]`
//!
//! The three ablation searches (and any missing baseline searches) run
//! as task units on the in-process pool, or with `--workers N` /
//! `--listen ADDR` over the TCP task queue; `--connect ADDR` runs as a
//! remote worker.

use automc_bench::orchestrator::{fetch_fig5, fetch_searches};
use automc_bench::report::render_front;
use automc_bench::scale::{exp1, exp2, ExperimentScale};
use automc_bench::{parse_args, transport};
use automc_core::SearchHistory;

fn front_of(history: &SearchHistory, gamma: f32) -> Vec<(f32, f32)> {
    history
        .pareto_indices(gamma)
        .into_iter()
        .map(|i| {
            let r = &history.records[i];
            (r.pr * 100.0, r.acc * 100.0)
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let mut runner = transport::fleet(&args);
    let (seed, fresh) = (args.seed, args.fresh);
    println!("Figure 5 reproduction (seed {seed})");

    // Exp1 by default; pass --both to add Exp2 (its ablation searches are
    // the most expensive runs in the whole reproduction).
    let both = std::env::args().any(|a| a == "--both");
    let exps = if both { vec![exp1(), exp2()] } else { vec![exp1()] };
    for exp in exps {
        println!("\n### {} ###", exp.name);

        // AutoMC and RL baselines — reuse the Table 2 runs when cached.
        let mut baselines = fetch_searches(runner.as_mut(), &exp, seed, false, &[0, 2]);
        let rl = baselines.pop().flatten();
        let automc = baselines.pop().flatten();

        // The three ablation variants, each its own task unit.
        let variants = fetch_fig5(runner.as_mut(), &exp, seed, fresh);

        render("AutoMC", automc.as_ref(), &exp);
        render("AutoMC-KG", variants[0].as_ref(), &exp);
        render("AutoMC-NNexp", variants[1].as_ref(), &exp);
        render("AutoMC-MultipleSource", variants[2].as_ref(), &exp);
        render("AutoMC-ProgressiveSearch", rl.as_ref(), &exp);
    }
    runner.shutdown();
}

/// Print one labelled Pareto front; a curve whose search degraded away
/// entirely is reported instead of silently skipped.
fn render(label: &str, history: Option<&SearchHistory>, exp: &ExperimentScale) {
    match history {
        Some(h) => print!("{}", render_front(label, &front_of(h, exp.gamma))),
        None => println!("{label}: unavailable (search degraded)"),
    }
}
