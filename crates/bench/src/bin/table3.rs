//! Reproduce **Table 3**: the transfer study. Schemes searched on
//! ResNet-56 / VGG-16 are re-executed on ResNet-20/164 and VGG-13/19
//! (target pruning rate 40%); the human-designed methods run directly on
//! every model. Output format matches the paper: `PR(%) / FR(%) / Acc(%)`.
//!
//! Reuses Table 2's cached searches when available.
//!
//! Run: `cargo run --release -p automc-bench --bin table3 [--seed N] [--fresh]`
//!
//! The searches and the per-target work run as task units (one per
//! target model, the searched schemes shipped in the unit params) on
//! the in-process pool, or with `--workers N` / `--listen ADDR` on the
//! same TCP task queue as `table2`; `--connect ADDR` runs as a remote
//! worker. `--smoke` runs the transfer study on the smoke
//! scale and prints `SMOKE OK` on a structurally valid result.

use automc_bench::harness::{best_scheme_in_band, table3_targets, Algo};
use automc_bench::orchestrator::{fetch_searches, fetch_table3};
use automc_bench::scale::{exp1, exp2, smoke, ExperimentScale};
use automc_bench::{parse_args, transport};
use automc_compress::MethodId;
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
    let mut shape_ok = true;

    for exp in &exps {
        // The searched scheme per algorithm, from the source-model search
        // (Table 2's cached histories when available). A search that
        // degraded entirely yields `None`, reported as "(no feasible
        // scheme)" in every target's table.
        let units: Vec<usize> = (0..Algo::ALL.len()).collect();
        let schemes: Vec<_> = fetch_searches(runner.as_mut(), exp, seed, false, &units)
            .into_iter()
            .zip(Algo::ALL)
            .map(|(history, algo)| {
                let scheme = history.and_then(|h| best_scheme_in_band(&h, exp.gamma, 0.55));
                (algo.name().to_string(), scheme)
            })
            .collect();
        let per_target = fetch_table3(runner.as_mut(), exp, seed, fresh, &schemes);
        for (target, rows) in table3_targets(exp).iter().zip(&per_target) {
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
    runner.shutdown();
    if args.smoke {
        if !shape_ok {
            eprintln!("SMOKE FAILED: unexpected table shape");
            std::process::exit(1);
        }
        println!("SMOKE OK");
    }
}
