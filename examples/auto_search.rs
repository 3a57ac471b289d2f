//! Full AutoMC pipeline on a small task: learn knowledge embeddings
//! (Algorithm 1), run the progressive search (Algorithm 2), and print the
//! Pareto-optimal compression schemes it finds.
//!
//! This is a miniature of the paper's Exp1 — a real end-to-end run takes
//! minutes, so scale constants here are small.
//!
//! Run: `cargo run --release --example auto_search`

use automc::compress::{ExecConfig, Metrics, StrategySpace};
use automc::data::{DatasetSpec, SyntheticKind};
use automc::knowledge::{
    generate_experience, learn_embeddings, EmbeddingConfig, MicroTask,
};
use automc::models::train::{train, Auxiliary, TrainConfig};
use automc::models::{resnet, ModelKind};
use automc::search::{
    progressive_search, AutoMcConfig, JournalOptions, SearchBudget, SearchContext,
};
use automc::tensor::rng_from_seed;

fn main() {
    let mut rng = rng_from_seed(11);

    // ---- The compression task -------------------------------------------
    let (train_set, test_set) = DatasetSpec {
        train: 400,
        test: 200,
        noise: 0.25,
        ..DatasetSpec::new(SyntheticKind::Cifar10Like)
    }
    .generate();
    let mut base = resnet(20, 4, 10, (3, 8, 8), &mut rng);
    println!("pre-training the base model…");
    train(
        &mut base,
        &train_set,
        &TrainConfig { epochs: 6.0, ..Default::default() },
        Auxiliary::None,
        &mut rng,
    );
    let base_metrics = Metrics::measure(&mut base, &test_set);
    println!("base: {} params, {:.1}% accuracy", base_metrics.params, base_metrics.acc * 100.0);

    // ---- Algorithm 1: domain-knowledge embeddings -------------------------
    let space = StrategySpace::full();
    println!("strategy space: {} strategies", space.len());
    println!("generating experience corpus (executes strategies on micro tasks)…");
    let micro = vec![MicroTask::new(
        SyntheticKind::Cifar10Like,
        ModelKind::ResNet(20),
        4,
        160,
        80,
        3.0,
        77,
        &mut rng,
    )];
    let exec = ExecConfig { pretrain_epochs: 3.0, ..Default::default() };
    let corpus = generate_experience(&space, &micro, 18, &exec, 78);
    println!("corpus: {} experience tuples", corpus.records.len());
    println!("learning strategy embeddings (TransR + NN_exp)…");
    let embeddings = learn_embeddings(
        &space,
        &corpus,
        &EmbeddingConfig { epochs: 4, ..Default::default() },
        true,
        true,
        &mut rng,
    );

    // ---- Algorithm 2: progressive search ----------------------------------
    let sample = train_set.sample_fraction(0.1, &mut rng);
    let ctx = SearchContext {
        space: &space,
        base_model: &base,
        base_metrics,
        search_train: &sample,
        eval_set: &test_set,
        exec: ExecConfig { pretrain_epochs: 6.0, ..Default::default() },
        max_len: 4,
        gamma: 0.3,
        budget: SearchBudget::new(15_000),
    };
    println!("running progressive search (budget {} units)…", ctx.budget.units);
    let history = progressive_search(
        &ctx,
        embeddings,
        &AutoMcConfig::default(),
        &mut rng,
        &JournalOptions::default(),
    );
    println!("evaluated {} schemes", history.records.len());

    // ---- Results -----------------------------------------------------------
    println!("\nPareto-optimal schemes with PR ≥ 30%:");
    for i in history.pareto_indices(0.3) {
        let r = &history.records[i];
        println!(
            "  PR {:.1}%  AR {:+.2}%  acc {:.1}%  —  {}",
            r.pr * 100.0,
            r.ar * 100.0,
            r.acc * 100.0,
            r.scheme
                .iter()
                .map(|&sid| space.spec(sid).to_string())
                .collect::<Vec<_>>()
                .join(" → ")
        );
    }
    if let Some(best) = history.best(0.3) {
        println!(
            "\nbest scheme: {:.1}% params removed at {:.1}% accuracy",
            best.pr * 100.0,
            best.acc * 100.0
        );
    }
}
