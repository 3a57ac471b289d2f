//! Crash/resume determinism: a progressive search that is killed after
//! round `k` and resumed from its journal must produce a final history —
//! and therefore a final Pareto set — bitwise identical to a run that was
//! never interrupted, at any thread count.

use automc_compress::{ExecConfig, Metrics, StrategySpace};
use automc_core::{
    progressive_search, AutoMcConfig, JournalOptions, SearchBudget,
    SearchContext, SearchHistory,
};
use automc_data::{DatasetSpec, ImageSet, SyntheticKind};
use automc_json::ToJson;
use automc_models::{resnet, ConvNet};
use automc_tensor::{par, rng_from_seed};
use std::path::PathBuf;

const SEED: u64 = 777;

fn fixture() -> (ConvNet, ImageSet, ImageSet) {
    let mut rng = rng_from_seed(SEED);
    let (train_set, eval_set) = DatasetSpec {
        train: 100,
        test: 50,
        noise: 0.25,
        ..DatasetSpec::new(SyntheticKind::Cifar10Like)
    }
    .generate();
    let base = resnet(20, 4, 10, (3, 8, 8), &mut rng);
    (base, train_set, eval_set)
}

fn run(
    base: &ConvNet,
    train_set: &ImageSet,
    eval_set: &ImageSet,
    opts: &JournalOptions,
) -> SearchHistory {
    let mut base_model = base.clone_net();
    let base_metrics = Metrics::measure(&mut base_model, eval_set);
    let space = StrategySpace::full();
    let ctx = SearchContext {
        space: &space,
        base_model: base,
        base_metrics,
        search_train: train_set,
        eval_set,
        exec: ExecConfig { pretrain_epochs: 2.0, ..Default::default() },
        max_len: 2,
        gamma: 0.2,
        budget: SearchBudget::new(5_000),
    };
    let emb: Vec<Vec<f32>> = (0..space.len())
        .map(|i| vec![(i % 97) as f32 / 97.0, (i % 13) as f32 / 13.0, 0.5, 0.1])
        .collect();
    let cfg = AutoMcConfig { candidate_sample: 32, ..Default::default() };
    // Every run restarts the RNG from the same seed: resuming must restore
    // the stream position from the journal, not rely on the caller.
    let mut rng = rng_from_seed(SEED + 1);
    progressive_search(&ctx, emb, &cfg, &mut rng, opts)
}

/// Canonical byte representation of a history, for bitwise comparison.
fn fingerprint(h: &SearchHistory) -> String {
    h.to_json().to_string_pretty()
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "automc-resume-test-{}-{tag}.journal",
        std::process::id()
    ))
}

fn check_resume_identical(threads: usize) {
    let (base, train_set, eval_set) = fixture();
    par::with_threads(threads, || {
        // Reference: never interrupted, never journaled.
        let reference = run(&base, &train_set, &eval_set, &JournalOptions::default());
        assert!(
            reference.records.len() > reference.pareto_indices(0.2).len(),
            "fixture too small to be interesting"
        );

        let path = journal_path(&format!("t{threads}"));
        let _ = std::fs::remove_file(&path);

        // Interrupted run: dies (simulated) after the first round, leaving
        // its journal behind.
        let interrupted = run(
            &base,
            &train_set,
            &eval_set,
            &JournalOptions {
                path: Some(path.clone()),
                resume: false,
                abort_after_rounds: Some(1),
                ..Default::default()
            },
        );
        assert!(path.exists(), "the crashed run must leave a journal");
        assert!(
            interrupted.records.len() < reference.records.len(),
            "the interrupted run must have stopped early"
        );

        // Resumed run: picks the journal up and finishes.
        let resumed = run(&base, &train_set, &eval_set, &JournalOptions::resuming(path.clone()));
        assert_eq!(
            fingerprint(&resumed),
            fingerprint(&reference),
            "resumed history must be bitwise identical (threads={threads})"
        );
        assert_eq!(
            resumed.pareto_indices(0.2),
            reference.pareto_indices(0.2),
            "resumed Pareto set must be identical (threads={threads})"
        );
        // The prefix recorded before the crash is a prefix of the final log.
        for (a, b) in interrupted.records.iter().zip(&resumed.records) {
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.acc.to_bits(), b.acc.to_bits());
            assert_eq!(a.cost_so_far, b.cost_so_far);
        }
        assert!(!path.exists(), "journal is deleted on normal completion");

        // A journaled-but-uninterrupted run must equal the un-journaled one.
        let journaled = run(&base, &train_set, &eval_set, &JournalOptions::resuming(path.clone()));
        assert_eq!(fingerprint(&journaled), fingerprint(&reference));
        let _ = std::fs::remove_file(&path);
    });
}

#[test]
fn resume_is_bitwise_identical_single_thread() {
    check_resume_identical(1);
}

#[test]
fn resume_is_bitwise_identical_four_threads() {
    check_resume_identical(4);
}
