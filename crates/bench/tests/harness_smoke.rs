//! End-to-end smoke test of the reproduction harness at miniature scale.

use automc_bench::harness::{
    automc_embeddings, best_scheme_in_band, final_row, method_baseline_row, run_search_with, Algo,
    RunOpts,
};
use automc_bench::scale::{exp1, prepare_task, ExperimentScale};
use automc_compress::{MethodId, StrategySpace};

fn tiny() -> ExperimentScale {
    ExperimentScale {
        model: automc_models::ModelKind::ResNet(20),
        train: 240,
        test: 120,
        pretrain_epochs: 6.0,
        budget_units: 6_000,
        ..exp1()
    }
}

#[test]
fn mini_table2_pipeline() {
    let exp = tiny();
    let seed = 9;
    let task = prepare_task(&exp, seed);
    assert!(task.base_metrics.acc > 0.4, "pretraining failed: {}", task.base_metrics.acc);

    // One method baseline.
    let row = method_baseline_row(&task, MethodId::Ns, 0.4, seed, false);
    assert!(row.pr > 20.0, "NS row PR {}", row.pr);
    assert!(row.acc > 20.0);

    // AutoMC with a small single-method space (fast embeddings).
    let space = StrategySpace::for_methods(&[MethodId::Ns, MethodId::Sfp]);
    let emb = automc_embeddings(&space, "smoke", seed, true, true, false);
    assert_eq!(emb.len(), space.len());
    let opts = RunOpts::default();
    let history =
        run_search_with(Algo::AutoMc, &task, &space, Some(&emb), seed, true, "smoke", &opts)
            .expect("the default hook never cancels");
    assert!(!history.records.is_empty());

    // Band selection + final full-data evaluation.
    if let Some(scheme) = best_scheme_in_band(&history, 0.2, 0.9) {
        let row = final_row("AutoMC", &scheme, &task, &space, seed);
        assert!(row.pr > 10.0);
        assert!(row.acc > 20.0);
    }

    // Random baseline under the same context.
    let rnd = run_search_with(Algo::Random, &task, &space, None, seed, true, "smoke", &opts)
        .expect("the default hook never cancels");
    assert!(!rnd.records.is_empty());
}
