//! Crash/resume determinism for the baseline searches (RL, Evolution,
//! Random), mirroring `resume_determinism.rs` for the progressive search:
//! a search killed after round `k` and resumed from its journal must
//! produce a final history bitwise identical to a run that was never
//! interrupted, at any thread count. Also the regression test that a
//! resumed run composes with an active fault plan: each planned fault
//! fires exactly once across the kill/resume boundary.

use automc_compress::{ExecConfig, Metrics, StrategySpace};
use automc_core::{
    evolution_search, random_search, rl_search, EvolutionConfig,
    JournalOptions, RlConfig, SearchBudget, SearchContext, SearchHistory,
};
use automc_data::{DatasetSpec, ImageSet, SyntheticKind};
use automc_json::ToJson;
use automc_models::{resnet, ConvNet};
use automc_tensor::fault::{self, FaultPlan};
use automc_tensor::{par, rng_from_seed};
use std::path::PathBuf;

const SEED: u64 = 779;

#[derive(Clone, Copy)]
enum Baseline {
    Rl,
    Evolution,
    Random,
}

impl Baseline {
    fn name(self) -> &'static str {
        match self {
            Baseline::Rl => "rl",
            Baseline::Evolution => "evolution",
            Baseline::Random => "random",
        }
    }
}

fn fixture() -> (ConvNet, ImageSet, ImageSet) {
    let mut rng = rng_from_seed(SEED);
    let (train_set, eval_set) = DatasetSpec {
        train: 64,
        test: 32,
        noise: 0.25,
        ..DatasetSpec::new(SyntheticKind::Cifar10Like)
    }
    .generate();
    let base = resnet(20, 4, 10, (3, 8, 8), &mut rng);
    (base, train_set, eval_set)
}

fn run(
    algo: Baseline,
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
        budget: SearchBudget::new(2_500),
    };
    // Every run restarts the RNG from the same seed: resuming must restore
    // the stream position from the journal, not rely on the caller.
    let mut rng = rng_from_seed(SEED + 1);
    match algo {
        Baseline::Rl => rl_search(&ctx, &RlConfig::default(), &mut rng, opts),
        Baseline::Evolution => {
            let cfg = EvolutionConfig { population: 4, ..Default::default() };
            evolution_search(&ctx, &cfg, &mut rng, opts)
        }
        Baseline::Random => random_search(&ctx, &mut rng, opts),
    }
}

/// Canonical byte representation of a history, for bitwise comparison.
fn fingerprint(h: &SearchHistory) -> String {
    h.to_json().to_string_pretty()
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "automc-baseline-resume-test-{}-{tag}.journal",
        std::process::id()
    ))
}

fn check_resume_identical(algo: Baseline, threads: usize) {
    let (base, train_set, eval_set) = fixture();
    par::with_threads(threads, || {
        // Reference: never interrupted, never journaled.
        let reference = run(algo, &base, &train_set, &eval_set, &JournalOptions::default());
        assert!(
            reference.records.len() >= 3,
            "fixture too small to be interesting ({} evals)",
            reference.records.len()
        );

        let path = journal_path(&format!("{}-t{threads}", algo.name()));
        let _ = std::fs::remove_file(&path);

        // Interrupted run: dies (simulated) after two rounds, leaving its
        // journal behind.
        let interrupted = run(
            algo,
            &base,
            &train_set,
            &eval_set,
            &JournalOptions {
                path: Some(path.clone()),
                resume: false,
                abort_after_rounds: Some(2),
                ..Default::default()
            },
        );
        assert!(path.exists(), "the crashed run must leave a journal");
        assert!(
            interrupted.records.len() < reference.records.len(),
            "the interrupted run must have stopped early"
        );

        // Resumed run: picks the journal up and finishes.
        let resumed =
            run(algo, &base, &train_set, &eval_set, &JournalOptions::resuming(path.clone()));
        assert_eq!(
            fingerprint(&resumed),
            fingerprint(&reference),
            "resumed {} history must be bitwise identical (threads={threads})",
            algo.name()
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
        let journaled =
            run(algo, &base, &train_set, &eval_set, &JournalOptions::resuming(path.clone()));
        assert_eq!(fingerprint(&journaled), fingerprint(&reference));
        let _ = std::fs::remove_file(&path);
    });
}

#[test]
fn rl_resume_is_bitwise_identical_single_thread() {
    check_resume_identical(Baseline::Rl, 1);
}

#[test]
fn rl_resume_is_bitwise_identical_four_threads() {
    check_resume_identical(Baseline::Rl, 4);
}

#[test]
fn evolution_resume_is_bitwise_identical_single_thread() {
    check_resume_identical(Baseline::Evolution, 1);
}

#[test]
fn evolution_resume_is_bitwise_identical_four_threads() {
    check_resume_identical(Baseline::Evolution, 4);
}

#[test]
fn random_resume_is_bitwise_identical_single_thread() {
    check_resume_identical(Baseline::Random, 1);
}

#[test]
fn random_resume_is_bitwise_identical_four_threads() {
    check_resume_identical(Baseline::Random, 4);
}

/// Regression test for the fault-counter journaling: with a fault plan
/// active, killing the run after the fault fired and resuming (with a
/// freshly-installed plan, as a restarted process would have) must inject
/// the fault exactly once overall — the journaled counters carry the
/// "already fired" position across the restart.
#[test]
fn planned_faults_fire_exactly_once_across_resume() {
    let (base, train_set, eval_set) = fixture();
    par::with_threads(1, || {
        let plan = || FaultPlan::parse("panic@eval:2").expect("valid plan");
        let panicked = |h: &SearchHistory| {
            h.records
                .iter()
                .filter(|r| matches!(r.status, automc_core::EvalStatus::Panicked(_)))
                .count()
        };

        // Reference: the plan runs uninterrupted; the second evaluation
        // panics and is recorded as infeasible.
        fault::install(plan());
        let reference =
            run(Baseline::Random, &base, &train_set, &eval_set, &JournalOptions::default());
        fault::clear();
        assert_eq!(panicked(&reference), 1, "the plan fires once uninterrupted");

        let path = journal_path("fault-once");
        let _ = std::fs::remove_file(&path);

        // Interrupted run: the fault fires on evaluation 2, the run dies
        // (simulated) after evaluation 3 — after the journal recorded the
        // fault counters.
        fault::install(plan());
        let interrupted = run(
            Baseline::Random,
            &base,
            &train_set,
            &eval_set,
            &JournalOptions {
                path: Some(path.clone()),
                resume: false,
                abort_after_rounds: Some(3),
                ..Default::default()
            },
        );
        fault::clear();
        assert_eq!(panicked(&interrupted), 1, "the fault fired before the kill");
        assert!(path.exists());

        // Resumed run in a "fresh process": the plan is installed anew
        // (counters at zero). Without counter journaling, `panic@eval:2`
        // would fire a second time two evaluations into the resumed run.
        fault::install(plan());
        let resumed = run(
            Baseline::Random,
            &base,
            &train_set,
            &eval_set,
            &JournalOptions::resuming(path.clone()),
        );
        fault::clear();
        assert_eq!(
            panicked(&resumed),
            1,
            "each planned fault must fire exactly once across the restart"
        );
        assert_eq!(
            fingerprint(&resumed),
            fingerprint(&reference),
            "fault-injected resume must still be bitwise identical"
        );
        let _ = std::fs::remove_file(&path);
    });
}
