//! End-to-end search throughput with prefix-model memoization off vs on.
//!
//! Runs Evolution and RL search at micro scale in three modes — memo off,
//! memo on with a cold cache, memo on with a warm cache — asserting the
//! histories are identical in all three (the memo contract), and writes
//! evals/sec, hit rates, and train-steps avoided to
//! `target/automc-results/BENCH_search.json` for machine consumption.

use automc_compress::{memo, ExecConfig, Metrics, MethodId, StrategySpace};
use automc_core::{
    evolution_search, rl_search, EvolutionConfig, JournalOptions, RlConfig, SearchBudget,
    SearchContext, SearchHistory,
};
use automc_data::{DatasetSpec, ImageSet, SyntheticKind};
use automc_json::{obj, ToJson, Value};
use automc_models::resnet;
use automc_models::train::{train, Auxiliary, TrainConfig};
use automc_models::ConvNet;
use automc_tensor::rng_from_seed;
use std::time::Instant;

struct Fixture {
    base: ConvNet,
    base_metrics: Metrics,
    train_set: ImageSet,
    eval_set: ImageSet,
    space: StrategySpace,
    budget: u64,
}

fn fixture(test_mode: bool) -> Fixture {
    let mut rng = rng_from_seed(60);
    let (train_set, eval_set) = DatasetSpec {
        train: 100,
        test: 60,
        noise: 0.25,
        ..DatasetSpec::new(SyntheticKind::Cifar10Like)
    }
    .generate();
    let mut base = resnet(20, 4, 10, (3, 8, 8), &mut rng);
    train(
        &mut base,
        &train_set,
        &TrainConfig { epochs: 2.0, ..Default::default() },
        Auxiliary::None,
        &mut rng,
    );
    let base_metrics = Metrics::measure(&mut base, &eval_set);
    Fixture {
        base,
        base_metrics,
        train_set,
        eval_set,
        space: StrategySpace::for_methods(&[MethodId::Ns, MethodId::Sfp]),
        budget: if test_mode { 1_000 } else { 3_000 },
    }
}

fn run_algo(fx: &Fixture, algo: &str) -> SearchHistory {
    let ctx = SearchContext {
        space: &fx.space,
        base_model: &fx.base,
        base_metrics: fx.base_metrics,
        search_train: &fx.train_set,
        eval_set: &fx.eval_set,
        exec: ExecConfig { pretrain_epochs: 2.0, eval_seed: 61, ..Default::default() },
        max_len: 3,
        gamma: 0.1,
        budget: SearchBudget::new(fx.budget),
    };
    let mut rng = rng_from_seed(62);
    let none = JournalOptions::default();
    match algo {
        "Evolution" => evolution_search(&ctx, &EvolutionConfig::default(), &mut rng, &none),
        "RL" => rl_search(&ctx, &RlConfig::default(), &mut rng, &none),
        other => unreachable!("unknown algo {other}"),
    }
}

/// A history digest that must be identical across memo modes.
fn digest(h: &SearchHistory) -> Vec<(Vec<usize>, u64, u32)> {
    h.records
        .iter()
        .map(|r| (r.scheme.clone(), r.cost_so_far, r.acc.to_bits()))
        .collect()
}

fn main() {
    let test_mode = std::env::args().any(|arg| arg == "--test");
    // Criterion-style bench harness args we don't use.
    let fx = fixture(test_mode);

    let mut entries: Vec<Value> = Vec::new();
    for algo in ["Evolution", "RL"] {
        let mut reference: Option<Vec<(Vec<usize>, u64, u32)>> = None;
        let mut off_secs = 0f64;
        for mode in ["off", "cold", "warm"] {
            match mode {
                "off" => memo::set_enabled_for_thread(Some(false)),
                "cold" => {
                    memo::set_enabled_for_thread(Some(true));
                    memo::clear();
                }
                // Warm: keep the cache filled by the cold run.
                _ => memo::set_enabled_for_thread(Some(true)),
            }
            let before = memo::stats();
            let t = Instant::now();
            let history = run_algo(&fx, algo);
            let secs = t.elapsed().as_secs_f64();
            let stats = memo::stats().since(&before);

            let d = digest(&history);
            match &reference {
                None => reference = Some(d),
                Some(r) => assert_eq!(
                    r, &d,
                    "{algo}: memo mode {mode} changed the search history"
                ),
            }
            if mode == "off" {
                off_secs = secs;
            }
            let evals = history.records.len() as u64;
            eprintln!(
                "[bench] {algo} memo={mode}: {evals} evals in {secs:.2}s \
                 ({:.1} evals/s), hit rate {:.1}%, {} steps avoided",
                evals as f64 / secs.max(1e-9),
                stats.hit_rate_pct(),
                stats.steps_avoided
            );
            entries.push(obj(vec![
                ("algo", algo.to_json()),
                ("mode", mode.to_json()),
                ("secs", secs.to_json()),
                ("evals", evals.to_json()),
                ("evals_per_sec", (evals as f64 / secs.max(1e-9)).to_json()),
                ("speedup_vs_off", (off_secs / secs.max(1e-9)).to_json()),
                ("lookups", stats.lookups.to_json()),
                ("prefix_hits", stats.prefix_hits.to_json()),
                ("full_hits", stats.full_hits.to_json()),
                ("neg_hits", stats.neg_hits.to_json()),
                ("hit_rate_pct", stats.hit_rate_pct().to_json()),
                ("steps_avoided", stats.steps_avoided.to_json()),
                ("train_batches_avoided", stats.train_batches_avoided.to_json()),
                ("trained_images_avoided", stats.trained_images_avoided.to_json()),
            ]));
        }
    }
    memo::set_enabled_for_thread(None);

    let report = obj(vec![
        ("bench", "search_throughput".to_json()),
        ("test_mode", test_mode.to_json()),
        ("results", Value::Arr(entries)),
    ]);
    let dir = automc_bench::cache::cache_dir();
    let path = dir.join("BENCH_search.json");
    if std::fs::create_dir_all(&dir).is_ok() {
        match std::fs::write(&path, report.to_string_pretty()) {
            Ok(()) => eprintln!("[bench] wrote {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}
