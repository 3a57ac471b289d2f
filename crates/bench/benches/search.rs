//! Search-machinery benchmarks (what Figures 4–5 stress): knowledge-graph
//! embedding epochs, F_mo candidate scoring, Pareto operations, and one
//! round of each search strategy at micro scale.

use automc_compress::{ExecConfig, Metrics, MethodId, StrategySpace};
use automc_core::pareto;
use automc_core::{
    progressive_search, random_search, AutoMcConfig, Fmo, JournalOptions, SearchBudget,
    SearchContext,
};
use automc_data::{DatasetSpec, SyntheticKind};
use automc_knowledge::{KnowledgeGraph, TransR, TransRConfig};
use automc_models::resnet;
use automc_models::train::{train, Auxiliary, TrainConfig};
use automc_tensor::rng_from_seed;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_transr_epoch(c: &mut Criterion) {
    let space = StrategySpace::for_methods(&[MethodId::Ns, MethodId::Sfp]);
    let kg = KnowledgeGraph::build(&space);
    let mut rng = rng_from_seed(20);
    let mut transr = TransR::new(&kg, TransRConfig::default(), &mut rng);
    c.bench_function("transr_epoch_150_strategies", |b| {
        b.iter(|| black_box(transr.train_epoch(&kg, &mut rng)))
    });
}

fn bench_fmo_predict(c: &mut Criterion) {
    let mut rng = rng_from_seed(21);
    let emb: Vec<Vec<f32>> = (0..4230)
        .map(|i| vec![(i % 31) as f32 / 31.0; 32])
        .collect();
    let mut fmo = Fmo::new(emb, &mut rng);
    let candidates: Vec<usize> = (0..512).collect();
    c.bench_function("fmo_predict_512_candidates", |b| {
        b.iter(|| black_box(fmo.predict_batch(&vec![1, 2, 3], [0.9, 0.8], &candidates)))
    });
}

fn bench_pareto(c: &mut Criterion) {
    let mut rng = rng_from_seed(22);
    use rand::Rng as _;
    let points: Vec<(f32, f32)> = (0..2048).map(|_| (rng.gen(), rng.gen())).collect();
    c.bench_function("pareto_front_2048", |b| {
        b.iter(|| black_box(pareto::pareto_front(black_box(&points))))
    });
    c.bench_function("nsga_ranks_512", |b| {
        b.iter(|| black_box(pareto::non_dominated_ranks(black_box(&points[..512]))))
    });
}

fn bench_search_micro(c: &mut Criterion) {
    // One micro search run per algorithm — the Fig. 4 pipeline in
    // miniature (tiny budget, tiny model).
    let mut rng = rng_from_seed(23);
    let (train_set, test_set) = DatasetSpec {
        train: 60,
        test: 40,
        noise: 0.25,
        ..DatasetSpec::new(SyntheticKind::Cifar10Like)
    }
    .generate();
    let mut base = resnet(20, 4, 10, (3, 8, 8), &mut rng);
    train(
        &mut base,
        &train_set,
        &TrainConfig { epochs: 1.0, ..Default::default() },
        Auxiliary::None,
        &mut rng,
    );
    let base_metrics = Metrics::measure(&mut base, &test_set);
    let space = StrategySpace::for_methods(&[MethodId::Ns, MethodId::Sfp]);
    let mut group = c.benchmark_group("search_micro");
    group.sample_size(10);
    group.bench_function("progressive", |b| {
        b.iter(|| {
            let mut rng = rng_from_seed(24);
            let ctx = SearchContext {
                space: &space,
                base_model: &base,
                base_metrics,
                search_train: &train_set,
                eval_set: &test_set,
                exec: ExecConfig { pretrain_epochs: 1.0, ..Default::default() },
                max_len: 2,
                gamma: 0.1,
                budget: SearchBudget::new(800),
            };
            let emb: Vec<Vec<f32>> =
                (0..space.len()).map(|i| vec![space.spec(i).ratio(), 0.5]).collect();
            let cfg = AutoMcConfig::default();
            black_box(progressive_search(&ctx, emb, &cfg, &mut rng, &JournalOptions::default()))
        })
    });
    group.bench_function("random", |b| {
        b.iter(|| {
            let mut rng = rng_from_seed(25);
            let ctx = SearchContext {
                space: &space,
                base_model: &base,
                base_metrics,
                search_train: &train_set,
                eval_set: &test_set,
                exec: ExecConfig { pretrain_epochs: 1.0, ..Default::default() },
                max_len: 2,
                gamma: 0.1,
                budget: SearchBudget::new(800),
            };
            black_box(random_search(&ctx, &mut rng, &JournalOptions::default()))
        })
    });
    group.finish();
}

criterion_group! {
    name = search;
    config = Criterion::default().sample_size(20);
    targets = bench_transr_epoch, bench_fmo_predict, bench_pareto, bench_search_micro
}
criterion_main!(search);
