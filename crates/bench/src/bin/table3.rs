//! Reproduce **Table 3**: the transfer study. Schemes searched on
//! ResNet-56 / VGG-16 are re-executed on ResNet-20/164 and VGG-13/19
//! (target pruning rate 40%); the human-designed methods run directly on
//! every model. Output format matches the paper: `PR(%) / FR(%) / Acc(%)`.
//!
//! Reuses Table 2's cached searches when available.
//!
//! Run: `cargo run --release -p automc-bench --bin table3 [--seed N] [--fresh]`
//!
//! `--workers N` / `--listen ADDR` distribute the per-target work over
//! the same TCP task queue as `table2` (one unit per target model, the
//! searched schemes shipped in the task params); `--connect ADDR` runs
//! as a remote worker. `--smoke` runs the transfer study on the smoke
//! scale and prints `SMOKE OK` on a structurally valid result.

use automc_bench::harness::{
    automc_embeddings, best_scheme_in_band, degraded_row, run_search_with, schemes_to_params,
    table3_target_rows, table3_targets, Algo, FinalRow, RunOpts, UnitCtx,
};
use automc_bench::scale::{exp1, exp2, prepare_task, smoke, ExperimentScale};
use automc_bench::transport::DistRunner;
use automc_bench::{orchestrator, parse_args, transport};
use automc_compress::{MethodId, Scheme, StrategySpace};
use automc_json::field;
use automc_models::ModelKind;

fn model_label(kind: ModelKind, exp_name: &str) -> String {
    let data = if exp_name == "exp1" { "CIFAR-10-like" } else { "CIFAR-100-like" };
    format!("{kind} on {data}")
}

fn main() {
    let args = parse_args();
    let mut runner = transport::fleet(&args);
    let (seed, fresh) = (args.seed, args.fresh);
    let exps: Vec<ExperimentScale> =
        if args.smoke { vec![smoke()] } else { vec![exp1(), exp2()] };
    if args.smoke {
        println!("Table 3 smoke run (seed {seed}) — target pruning rate 40%");
    } else {
        println!("Table 3 reproduction (seed {seed}) — target pruning rate 40%");
    }
    println!("cells: PR(%) / FR(%) / Acc(%)\n");
    let space = StrategySpace::full();
    let mut ctx = UnitCtx::new();
    let mut shape_ok = true;

    for exp in &exps {
        let schemes = schemes_for(exp, &space, seed, runner.as_mut());
        let targets = table3_targets(exp);
        let per_target: Vec<Vec<FinalRow>> = match runner.as_mut() {
            Some(r) => {
                let params = schemes_to_params(&schemes);
                let units: Vec<usize> = (0..targets.len()).collect();
                r.run_units("table3", exp, seed, fresh, &units, &params)
                    .iter()
                    .map(|payload| {
                        payload
                            .as_ref()
                            .and_then(|p| field(p, "rows"))
                            .unwrap_or_else(|| degraded_target(&schemes))
                    })
                    .collect()
            }
            None => targets
                .iter()
                .map(|&t| table3_target_rows(&mut ctx, &space, &schemes, exp, t, seed, fresh))
                .collect(),
        };
        for (target, rows) in targets.iter().zip(&per_target) {
            println!("== {} ==", model_label(*target, exp.name));
            for r in rows {
                println!("{:<28} {:>6.2} / {:>6.2} / {:>6.2}", r.algorithm, r.pr, r.fr, r.acc);
            }
            println!();
            if rows.len() != MethodId::ALL.len() + Algo::ALL.len() {
                shape_ok = false;
            }
        }
    }
    if let Some(mut r) = runner {
        r.shutdown();
    }
    if args.smoke {
        if !shape_ok {
            eprintln!("SMOKE FAILED: unexpected table shape");
            std::process::exit(1);
        }
        println!("SMOKE OK");
    }
}

/// The searched scheme per algorithm, from the source-model search:
/// Table 2's cached histories when available, searched here otherwise.
/// A distributed run pulls missing searches through the task queue; a
/// search that degraded entirely yields `None` (reported as
/// "(no feasible scheme)" in every target's table).
fn schemes_for(
    exp: &ExperimentScale,
    space: &StrategySpace,
    seed: u64,
    runner: Option<&mut DistRunner>,
) -> Vec<(String, Option<Scheme>)> {
    match runner {
        Some(r) => {
            let units: Vec<usize> = (0..Algo::ALL.len()).collect();
            orchestrator::fetch_searches(r, exp, seed, false, &units)
                .into_iter()
                .zip(Algo::ALL)
                .map(|(history, algo)| {
                    let scheme =
                        history.and_then(|h| best_scheme_in_band(&h, exp.gamma, 0.55));
                    (algo.name().to_string(), scheme)
                })
                .collect()
        }
        None => {
            let emb = automc_embeddings(space, "full", seed, false, true, true);
            let source_task = prepare_task(exp, seed);
            Algo::ALL
                .iter()
                .map(|&algo| {
                    let (opts, emb, src) = (RunOpts::default(), Some(emb.as_slice()), &source_task);
                    let history =
                        run_search_with(algo, src, space, emb, seed, false, exp.name, &opts)
                            .unwrap_or_default();
                    (algo.name().to_string(), best_scheme_in_band(&history, exp.gamma, 0.55))
                })
                .collect()
        }
    }
}

/// Placeholder rows for a target whose task unit lost every assignment:
/// the table keeps its shape, each row labelled `(worker unavailable)`.
fn degraded_target(schemes: &[(String, Option<Scheme>)]) -> Vec<FinalRow> {
    let why = "worker unavailable";
    MethodId::ALL
        .iter()
        .map(|m| m.name())
        .chain(schemes.iter().map(|(name, _)| name.as_str()))
        .map(|name| degraded_row(name, why))
        .collect()
}
