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
//! `--workers N` / `--listen ADDR` distribute the three ablation
//! searches (and any missing baseline searches) over the TCP task queue;
//! `--connect ADDR` runs as a remote worker.

use automc_bench::harness::{
    automc_embeddings, fig5_variant, run_search_with, Algo, RunOpts, UnitCtx, FIG5_VARIANTS,
};
use automc_bench::report::render_front;
use automc_bench::scale::{exp1, exp2, ExperimentScale};
use automc_bench::transport::DistRunner;
use automc_bench::{orchestrator, parse_args, transport};
use automc_compress::StrategySpace;
use automc_core::SearchHistory;
use automc_json::{field, Value};

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
    let full_space = StrategySpace::full();
    let mut ctx = UnitCtx::new();

    // Exp1 by default; pass --both to add Exp2 (its ablation searches are
    // the most expensive runs in the whole reproduction).
    let both = std::env::args().any(|a| a == "--both");
    let exps = if both { vec![exp1(), exp2()] } else { vec![exp1()] };
    for exp in exps {
        println!("\n### {} ###", exp.name);

        // AutoMC and RL baselines — reuse the Table 2 runs when cached.
        let (automc, rl) = baselines(&exp, &full_space, seed, runner.as_mut(), &mut ctx);

        // The three ablation variants, each its own task unit.
        let variants: Vec<Option<SearchHistory>> = match runner.as_mut() {
            Some(r) => {
                let units: Vec<usize> = (0..FIG5_VARIANTS.len()).collect();
                r.run_units("fig5", &exp, seed, fresh, &units, &Value::Null)
                    .into_iter()
                    .map(|payload| payload.and_then(|p| field(&p, "history")))
                    .collect()
            }
            None => (0..FIG5_VARIANTS.len())
                .map(|idx| fig5_variant(&mut ctx, &exp, idx, seed, fresh).ok())
                .collect(),
        };

        render("AutoMC", automc.as_ref(), &exp);
        render("AutoMC-KG", variants[0].as_ref(), &exp);
        render("AutoMC-NNexp", variants[1].as_ref(), &exp);
        render("AutoMC-MultipleSource", variants[2].as_ref(), &exp);
        render("AutoMC-ProgressiveSearch", rl.as_ref(), &exp);
    }
    if let Some(mut r) = runner {
        r.shutdown();
    }
}

/// The full-AutoMC and RL-controller baselines (shared with Table 2 /
/// Figure 4): pulled through the task queue in a distributed run,
/// computed in-process otherwise.
fn baselines(
    exp: &ExperimentScale,
    space: &StrategySpace,
    seed: u64,
    runner: Option<&mut DistRunner>,
    ctx: &mut UnitCtx,
) -> (Option<SearchHistory>, Option<SearchHistory>) {
    match runner {
        Some(r) => {
            let mut hs = orchestrator::fetch_searches(r, exp, seed, false, &[0, 2]);
            let rl = hs.pop().flatten();
            (hs.pop().flatten(), rl)
        }
        None => {
            let emb = automc_embeddings(space, "full", seed, false, true, true);
            let task = ctx.task_for(exp, exp.model, seed);
            let (opts, emb) = (RunOpts::default(), Some(emb.as_slice()));
            let automc =
                run_search_with(Algo::AutoMc, task, space, emb, seed, false, exp.name, &opts);
            let rl = run_search_with(Algo::Rl, task, space, None, seed, false, exp.name, &opts);
            (automc, rl)
        }
    }
}

/// Print one labelled Pareto front; a curve whose search degraded away
/// entirely is reported instead of silently skipped.
fn render(label: &str, history: Option<&SearchHistory>, exp: &ExperimentScale) {
    match history {
        Some(h) => print!("{}", render_front(label, &front_of(h, exp.gamma))),
        None => println!("{label}: unavailable (search degraded)"),
    }
}
