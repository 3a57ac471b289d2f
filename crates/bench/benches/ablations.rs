//! Ablation bench for the design choice DESIGN.md calls out: **prefix
//! caching** — AutoMC extends a cached compressed model by one strategy;
//! non-progressive searchers re-execute the whole scheme. The two benches
//! measure the same logical evaluation both ways.

use automc_compress::{
    apply_strategy, execute_scheme, ExecConfig, Metrics, MethodId, StrategySpace,
};
use automc_data::{DatasetSpec, ImageSet, SyntheticKind};
use automc_models::train::{train, Auxiliary, TrainConfig};
use automc_models::{resnet, ConvNet};
use automc_tensor::rng_from_seed;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn fixture() -> (ConvNet, ImageSet, ImageSet) {
    let mut rng = rng_from_seed(40);
    let (train_set, test_set) = DatasetSpec {
        train: 80,
        test: 48,
        noise: 0.25,
        ..DatasetSpec::new(SyntheticKind::Cifar10Like)
    }
    .generate();
    let mut net = resnet(20, 4, 10, (3, 8, 8), &mut rng);
    train(
        &mut net,
        &train_set,
        &TrainConfig { epochs: 1.0, ..Default::default() },
        Auxiliary::None,
        &mut rng,
    );
    (net, train_set, test_set)
}

/// The paper's efficiency claim, measured: evaluating `seq → s` given a
/// cached model for `seq` vs re-running the whole scheme.
fn bench_prefix_cache(c: &mut Criterion) {
    let (base, train_set, test_set) = fixture();
    let space = StrategySpace::for_methods(&[MethodId::Ns, MethodId::Sfp]);
    let exec = ExecConfig { pretrain_epochs: 1.0, ..Default::default() };
    let scheme: Vec<usize> = vec![0, space.len() / 2, 3];
    // Pre-build the cached prefix (first two strategies applied).
    let mut rng = rng_from_seed(41);
    let mut prefix_model = base.clone_net();
    for &sid in &scheme[..2] {
        apply_strategy(space.spec(sid), &mut prefix_model, &train_set, &exec, &mut rng);
    }
    let base_metrics = {
        let mut m = base.clone_net();
        Metrics::measure(&mut m, &test_set)
    };

    let mut group = c.benchmark_group("prefix_cache_ablation");
    group.sample_size(10);
    group.bench_function("progressive_extend_cached", |b| {
        b.iter(|| {
            let mut rng = rng_from_seed(42);
            let mut model = prefix_model.clone_net();
            apply_strategy(space.spec(scheme[2]), &mut model, &train_set, &exec, &mut rng);
            black_box(Metrics::measure(&mut model, &test_set))
        })
    });
    group.bench_function("nonprogressive_full_reexec", |b| {
        // Memoization would turn the re-execution into a cache hit and
        // defeat the point of the comparison; measure it cold.
        automc_compress::memo::set_enabled_for_thread(Some(false));
        b.iter(|| {
            let (_, outcome) = execute_scheme(
                &base,
                &base_metrics,
                &scheme,
                &space,
                &train_set,
                &test_set,
                &exec,
            );
            black_box(outcome)
        });
        automc_compress::memo::set_enabled_for_thread(None);
    });
    group.finish();
}

criterion_group!(ablations, bench_prefix_cache);
criterion_main!(ablations);
