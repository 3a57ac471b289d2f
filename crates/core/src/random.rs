//! Random search — the standard AutoML baseline: sample whole schemes
//! uniformly and evaluate them end to end.

use crate::context::SearchContext;
use crate::history::{EvalRecord, EvalStatus, SearchHistory};
use crate::journal::{self, JournalOptions};
use automc_compress::{execute_scheme_checked, EvalOutcome, Scheme};
use automc_tensor::fault;
use automc_tensor::Rng;
use rand::Rng as _;

/// Run random search until the budget is exhausted, with a crash-safe
/// per-evaluation journal (`JournalOptions::default()` journals nothing).
/// Evaluations are supervised: a panicking or diverging scheme is logged
/// as infeasible (charged at least one evaluation's budget) and the
/// search continues.
///
/// Random search has no learner, so the journal's `state` stays empty:
/// the resumable state is just the history, the RNG stream, the budget
/// spent, and the fault-injection counters. With `opts.resume`, a valid
/// journal is restored and the run continues *bitwise identically* to one
/// that was never interrupted. The journal is deleted on normal
/// completion.
pub fn random_search(
    ctx: &SearchContext<'_>,
    rng: &mut Rng,
    opts: &JournalOptions,
) -> SearchHistory {
    let fingerprint =
        journal::fingerprint("AutoMC-random-v3", &ctx.fingerprint_words(), rng.state());
    let loaded = if opts.resume {
        opts.path.as_deref().and_then(|p| journal::load(p, fingerprint))
    } else {
        None
    };

    let mut history = SearchHistory::new("Random");
    let mut spent = 0u64;
    let mut round = 0u64;
    let mut journal_to = opts.path.as_deref();

    if let Some(j) = loaded {
        if j.state.is_empty() {
            history = j.history;
            spent = j.spent;
            round = j.round;
            *rng = Rng::from_state(j.rng);
            fault::restore_counters(&j.fault_counters);
            eprintln!(
                "[journal] resumed Random search at evaluation {round} \
                 ({spent}/{} units spent)",
                ctx.budget.units
            );
        } else {
            eprintln!(
                "warning: journal passed validation but did not decode; \
                 starting fresh"
            );
        }
    }

    let memo_start = automc_compress::memo::stats();
    let floor = (ctx.eval_set.len() as u64).max(1);
    while spent < ctx.budget.units {
        let len = rng.gen_range(1..=ctx.max_len);
        let scheme: Scheme = (0..len).map(|_| rng.gen_range(0..ctx.space.len())).collect();
        journal::record_eval_intent(journal_to, fingerprint);
        let result = execute_scheme_checked(
            ctx.base_model,
            &ctx.base_metrics,
            &scheme,
            ctx.space,
            ctx.search_train,
            ctx.eval_set,
            &ctx.exec,
        );
        spent += result.charged_units(floor);
        match result {
            EvalOutcome::Ok { outcome, .. } => {
                history.records.push(EvalRecord::from_outcome(scheme, &outcome, spent));
            }
            EvalOutcome::Diverged { .. } => {
                history.push_failure(scheme, EvalStatus::Diverged, spent);
            }
            EvalOutcome::Panicked { msg, .. } => {
                history.push_failure(scheme, EvalStatus::Panicked(msg), spent);
            }
            EvalOutcome::TimedOut { .. } => {
                history.push_failure(scheme, EvalStatus::TimedOut, spent);
            }
        }
        round += 1;
        journal::checkpoint_round(
            &mut journal_to,
            fingerprint,
            round,
            spent,
            rng,
            &history,
            Vec::new(),
        );
        if opts.abort_after_rounds.is_some_and(|k| round >= k as u64) {
            // Simulated crash for the resume-determinism tests.
            return history;
        }
        if crate::progress::report_round(opts, &history, ctx, round, spent, &memo_start) {
            return history;
        }
    }
    if let Some(path) = opts.path.as_deref() {
        journal::discard(path);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{SearchBudget, SearchContext};
    use automc_compress::{ExecConfig, Metrics, StrategySpace};
    use automc_data::{DatasetSpec, SyntheticKind};
    use automc_models::resnet;
    use automc_tensor::rng_from_seed;

    #[test]
    fn random_search_respects_budget_and_length() {
        let mut rng = rng_from_seed(320);
        let (train_set, eval_set) = DatasetSpec {
            train: 100,
            test: 60,
            ..DatasetSpec::new(SyntheticKind::Cifar10Like)
        }
        .generate();
        let mut base = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let base_metrics = Metrics::measure(&mut base, &eval_set);
        let space = StrategySpace::full();
        let ctx = SearchContext {
            space: &space,
            base_model: &base,
            base_metrics,
            search_train: &train_set,
            eval_set: &eval_set,
            exec: ExecConfig { pretrain_epochs: 2.0, ..Default::default() },
            max_len: 2,
            gamma: 0.2,
            budget: SearchBudget::new(4_000),
        };
        let history = random_search(&ctx, &mut rng, &JournalOptions::default());
        assert!(!history.records.is_empty());
        assert!(history.records.iter().all(|r| (1..=2).contains(&r.scheme.len())));
        assert!(history.total_cost() >= ctx.budget.units);
    }

    #[test]
    fn random_search_degrades_gracefully_under_faults() {
        use automc_tensor::fault::{self, FaultPlan};

        let mut rng = rng_from_seed(321);
        let (train_set, eval_set) = DatasetSpec {
            train: 80,
            test: 40,
            ..DatasetSpec::new(SyntheticKind::Cifar10Like)
        }
        .generate();
        let mut base = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let base_metrics = Metrics::measure(&mut base, &eval_set);
        let space = StrategySpace::full();
        let ctx = SearchContext {
            space: &space,
            base_model: &base,
            base_metrics,
            search_train: &train_set,
            eval_set: &eval_set,
            exec: ExecConfig { pretrain_epochs: 2.0, ..Default::default() },
            max_len: 2,
            gamma: 0.2,
            budget: SearchBudget::new(3_000),
        };
        // Panic the very first evaluation and poison an early training run;
        // the search must absorb both and still exhaust its budget.
        fault::install(FaultPlan::parse("panic@eval:1,nan@train:2").unwrap());
        let history = random_search(&ctx, &mut rng, &JournalOptions::default());
        fault::clear();
        assert!(history.total_cost() >= ctx.budget.units, "search must finish");
        assert!(history.failed_count() >= 1, "injected faults must be recorded");
        assert!(
            history.records.iter().any(|r| matches!(r.status, EvalStatus::Panicked(_))),
            "the first evaluation was panicked by the plan"
        );
        // Failures never reach the reported front.
        for i in history.pareto_indices(0.0) {
            assert!(history.records[i].is_feasible());
        }
    }
}
