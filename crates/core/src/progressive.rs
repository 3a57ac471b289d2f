//! Algorithm 2 — AutoMC's progressive search.
//!
//! The search space is explored *one strategy at a time*: every evaluated
//! scheme keeps its compressed model snapshot, each round the evaluator
//! `F_mo` scores all unexplored one-step extensions of a sampled set of
//! evaluated schemes (Eq. 4), the predicted-Pareto-optimal extensions are
//! executed for real (costing a *single* strategy application thanks to
//! the cached prefix), and `F_mo` is retrained on the observed deltas
//! (Eq. 5). Newly evaluated schemes join the history and expand the
//! frontier for the next round.

use crate::context::SearchContext;
use crate::fmo::{Fmo, StepSample};
use crate::history::{EvalRecord, EvalStatus, SearchHistory};
use crate::journal::{self, JournalOptions, NodeSnapshot, SearchJournal};
use crate::pareto;
use automc_compress::{
    execute_scheme_checked, EvalCost, EvalOutcome, Metrics, Scheme, StrategyId,
};
use automc_models::serialize;
use automc_models::ConvNet;
use automc_tensor::fault;
use automc_tensor::Rng;
use rand::seq::SliceRandom;
use std::collections::HashSet;

/// Knobs of the progressive search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoMcConfig {
    /// Schemes sampled from the history per round (`H_sub`).
    pub sample_schemes: usize,
    /// Maximum real evaluations per round (cap on `|ParetoO|`).
    pub evals_per_round: usize,
    /// Candidates scored per sampled scheme (0 = the whole space).
    pub candidate_sample: usize,
    /// `F_mo` training epochs per round.
    pub fmo_train_epochs: usize,
}

impl Default for AutoMcConfig {
    fn default() -> Self {
        AutoMcConfig {
            sample_schemes: 6,
            evals_per_round: 4,
            candidate_sample: 512,
            fmo_train_epochs: 3,
        }
    }
}

/// An evaluated scheme kept alive for extension.
struct Node {
    scheme: Scheme,
    model: ConvNet,
    metrics: Metrics,
    /// Cumulative execution cost of the scheme from the base model;
    /// one-step extensions are charged their *marginal* cost over this.
    cost: EvalCost,
    explored: HashSet<StrategyId>,
}

/// Hash of everything that shapes a run: the problem instance, the search
/// configuration, the strategy embeddings, and the RNG's starting state.
/// Journals carry this so a resumed run can only pick up state produced
/// by an identical run.
fn run_fingerprint(
    ctx: &SearchContext<'_>,
    embeddings: &[Vec<f32>],
    cfg: &AutoMcConfig,
    rng_state: [u64; 4],
) -> u64 {
    let mut buf: Vec<u8> = Vec::new();
    buf.extend_from_slice(b"AutoMC-progressive-v3");
    for w in [
        ctx.space.len() as u64,
        ctx.budget.units,
        ctx.max_len as u64,
        ctx.gamma.to_bits() as u64,
        ctx.base_metrics.params as u64,
        ctx.base_metrics.flops,
        ctx.base_metrics.acc.to_bits() as u64,
        cfg.sample_schemes as u64,
        cfg.evals_per_round as u64,
        cfg.candidate_sample as u64,
        cfg.fmo_train_epochs as u64,
    ] {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    for w in rng_state {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    for row in embeddings {
        buf.extend_from_slice(&(row.len() as u64).to_le_bytes());
        for &v in row {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    journal::fnv1a64(&buf)
}

/// Decode a journal back into live search state. `None` (= start fresh)
/// if any node model fails to deserialise.
fn decode_nodes(snapshots: Vec<NodeSnapshot>) -> Option<Vec<Node>> {
    let mut nodes = Vec::with_capacity(snapshots.len());
    for snap in snapshots {
        let model = serialize::model_from_bytes(&snap.model).ok()?;
        nodes.push(Node {
            scheme: snap.scheme,
            model,
            metrics: snap.metrics,
            cost: snap.cost,
            explored: snap.explored.into_iter().collect(),
        });
    }
    Some(nodes)
}

fn snapshot_run(
    fingerprint: u64,
    round: u64,
    spent: u64,
    rng: &Rng,
    history: &SearchHistory,
    fmo: &Fmo,
    nodes: &[Node],
) -> SearchJournal {
    SearchJournal {
        fingerprint,
        round,
        spent,
        rng: rng.state(),
        history: history.clone(),
        state: fmo.state_to_bytes(),
        fault_counters: fault::counters(),
        nodes: nodes
            .iter()
            .map(|n| {
                let mut explored: Vec<StrategyId> = n.explored.iter().copied().collect();
                explored.sort_unstable();
                NodeSnapshot {
                    scheme: n.scheme.clone(),
                    metrics: n.metrics,
                    cost: n.cost,
                    explored,
                    model: serialize::model_to_bytes(&n.model),
                }
            })
            .collect(),
    }
}

/// Run AutoMC's progressive search until the budget is exhausted, with
/// supervised candidate evaluations and a crash-safe round journal
/// (`JournalOptions::default()` journals nothing).
///
/// `embeddings` are the Algorithm 1 strategy embeddings (ablations pass
/// differently-learned ones). Returns the full evaluation history; the
/// Pareto-optimal schemes with `PR ≥ γ` are the paper's final output
/// (`SearchHistory::pareto_indices`).
///
/// Every candidate evaluation goes through the supervised
/// [`execute_scheme_checked`] executor: a panicking, diverging, or
/// timed-out evaluation is recorded in the history as an infeasible
/// [`EvalStatus`] failure (still charged at least one evaluation's
/// budget, so failures cannot stall the search) and the round continues
/// with the surviving candidates.
///
/// With `opts.path` set, the complete resumable state is journaled after
/// every round with atomic writes; with `opts.resume`, a valid journal is
/// restored and the run continues *bitwise identically* to one that was
/// never interrupted. Fresh runs (no journal on disk) are also bitwise
/// identical to un-journaled runs. The journal is deleted on normal
/// completion.
pub fn progressive_search(
    ctx: &SearchContext<'_>,
    embeddings: Vec<Vec<f32>>,
    cfg: &AutoMcConfig,
    rng: &mut Rng,
    opts: &JournalOptions,
) -> SearchHistory {
    assert_eq!(embeddings.len(), ctx.space.len(), "one embedding per strategy");
    let fingerprint = run_fingerprint(ctx, &embeddings, cfg, rng.state());
    let loaded = if opts.resume {
        opts.path.as_deref().and_then(|p| journal::load(p, fingerprint))
    } else {
        None
    };

    // Construct the evaluator unconditionally so a fresh (or
    // failed-restore) run consumes exactly the same RNG draws as an
    // un-journaled one.
    let pre_fmo_rng = rng.state();
    let mut fmo = Fmo::new(embeddings.clone(), rng);
    let mut history = SearchHistory::new("AutoMC");
    let mut nodes: Vec<Node> = vec![Node {
        scheme: Vec::new(),
        model: ctx.base_model.clone_net(),
        metrics: ctx.base_metrics,
        cost: EvalCost::default(),
        explored: HashSet::new(),
    }];
    let mut spent = 0u64;
    let mut round = 0u64;
    // Persistent-failure policy: a journal write that still fails after
    // bounded retries disables journaling for the rest of the run, rather
    // than leaving a stale checkpoint on disk that a resume would trust.
    let mut journal_to = opts.path.as_deref();

    if let Some(j) = loaded {
        let restored = decode_nodes(j.nodes).and_then(|decoded| {
            // `restore_state` may leave the evaluator partially
            // overwritten on failure; the fallback below rebuilds it.
            fmo.restore_state(&j.state).map(|()| decoded)
        });
        match restored {
            Some(decoded) => {
                history = j.history;
                nodes = decoded;
                spent = j.spent;
                round = j.round;
                *rng = Rng::from_state(j.rng);
                fault::restore_counters(&j.fault_counters);
                eprintln!(
                    "[journal] resumed AutoMC search at round {round} \
                     ({spent}/{} units spent)",
                    ctx.budget.units
                );
            }
            None => {
                eprintln!(
                    "warning: journal passed validation but did not decode; \
                     starting fresh"
                );
                *rng = Rng::from_state(pre_fmo_rng);
                fmo = Fmo::new(embeddings, rng);
            }
        }
    }

    let memo_start = automc_compress::memo::stats();
    while spent < ctx.budget.units {
        // ---- Sample H_sub: Pareto-front nodes plus random extras. ------
        let extendable: Vec<usize> = (0..nodes.len())
            .filter(|&i| ctx.can_extend(nodes[i].scheme.len()))
            .filter(|&i| nodes[i].explored.len() < ctx.space.len())
            .collect();
        if extendable.is_empty() {
            break;
        }
        let points: Vec<(f32, f32)> = extendable
            .iter()
            .map(|&i| {
                let m = &nodes[i].metrics;
                (m.acc, -(m.params as f32))
            })
            .collect();
        let front = pareto::pareto_front(&points);
        let mut picked: Vec<usize> = front.iter().map(|&k| extendable[k]).collect();
        picked.truncate(cfg.sample_schemes);
        if picked.len() < cfg.sample_schemes {
            let mut rest: Vec<usize> = extendable
                .iter()
                .copied()
                .filter(|i| !picked.contains(i))
                .collect();
            rest.shuffle(rng);
            picked.extend(rest.into_iter().take(cfg.sample_schemes - picked.len()));
        }

        // ---- Score one-step extensions with F_mo (Eq. 4). --------------
        // Candidate tuples: (node index, strategy, ACC_pred, PAR_pred).
        let mut tuples: Vec<(usize, StrategyId, f32, f32)> = Vec::new();
        for &ni in &picked {
            let node_state = [
                nodes[ni].metrics.acc,
                nodes[ni].metrics.params as f32 / ctx.base_metrics.params.max(1) as f32,
            ];
            let mut cands: Vec<StrategyId> = (0..ctx.space.len())
                .filter(|s| !nodes[ni].explored.contains(s))
                .collect();
            if cfg.candidate_sample > 0 && cands.len() > cfg.candidate_sample {
                cands.shuffle(rng);
                cands.truncate(cfg.candidate_sample);
            }
            let preds = fmo.predict_batch(&nodes[ni].scheme, node_state, &cands);
            for (c, (ar_hat, pr_hat)) in cands.into_iter().zip(preds) {
                let acc_pred = nodes[ni].metrics.acc * (1.0 + ar_hat);
                let par_pred = nodes[ni].metrics.params as f32 * (1.0 - pr_hat);
                tuples.push((ni, c, acc_pred, par_pred));
            }
        }
        if tuples.is_empty() {
            break;
        }

        // ---- ParetoO: maximise ACC, minimise PAR. -----------------------
        let objective: Vec<(f32, f32)> =
            tuples.iter().map(|t| (t.2, -t.3)).collect();
        let mut chosen = pareto::pareto_front(&objective);
        chosen.shuffle(rng);
        chosen.truncate(cfg.evals_per_round);

        // ---- Evaluate the chosen extensions for real, supervised. ------
        // Each candidate re-executes its *full* scheme through the
        // supervised executor; the shared prefix cache serves the node's
        // already-evaluated prefix, so the extension costs a single
        // strategy application. A failed candidate becomes an infeasible
        // history record and the round carries on.
        for &ti in &chosen {
            if spent >= ctx.budget.units {
                break;
            }
            let (ni, cand, _, _) = tuples[ti];
            let prev_metrics = nodes[ni].metrics;
            nodes[ni].explored.insert(cand);
            let mut scheme = nodes[ni].scheme.clone();
            scheme.push(cand);

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
            // Charge the *marginal* cost over the node's cached prefix,
            // floored at one evaluation pass so a candidate that fails
            // instantly still drains the budget.
            let marginal =
                result.cost().units().saturating_sub(nodes[ni].cost.units());
            spent += marginal.max((ctx.eval_set.len() as u64).max(1));
            let (model, outcome) = match result {
                EvalOutcome::Ok { model, outcome } => (model, outcome),
                EvalOutcome::Diverged { .. } => {
                    history.push_failure(scheme, EvalStatus::Diverged, spent);
                    continue;
                }
                EvalOutcome::Panicked { msg, .. } => {
                    history.push_failure(scheme, EvalStatus::Panicked(msg), spent);
                    continue;
                }
                EvalOutcome::TimedOut { .. } => {
                    history.push_failure(scheme, EvalStatus::TimedOut, spent);
                    continue;
                }
            };
            let metrics = outcome.metrics;

            // Observe the step for F_mo (Eq. 5 training data).
            fmo.observe(StepSample {
                seq: nodes[ni].scheme.clone(),
                cand,
                state: [
                    prev_metrics.acc,
                    prev_metrics.params as f32 / ctx.base_metrics.params.max(1) as f32,
                ],
                ar_step: metrics.ar(&prev_metrics),
                pr_step: metrics.pr(&prev_metrics),
            });
            // Record against the base model.
            history.records.push(EvalRecord {
                scheme: scheme.clone(),
                pr: outcome.pr,
                fr: outcome.fr,
                ar: outcome.ar,
                acc: metrics.acc,
                params: metrics.params,
                flops: metrics.flops,
                cost_so_far: spent,
                status: EvalStatus::Ok,
            });
            nodes.push(Node {
                scheme,
                model,
                metrics,
                cost: outcome.cost,
                explored: HashSet::new(),
            });
        }

        // ---- Retrain F_mo on everything observed so far (Eq. 5). -------
        fmo.train(cfg.fmo_train_epochs, rng);
        round += 1;

        // ---- Journal the completed round (atomic write + retry). -------
        journal::checkpoint(&mut journal_to, || {
            snapshot_run(fingerprint, round, spent, rng, &history, &fmo, &nodes)
        });
        if opts.abort_after_rounds.is_some_and(|k| round >= k as u64) {
            // Simulated crash for the resume-determinism tests: the
            // journal stays on disk, the partial history is returned.
            return history;
        }
        if crate::progress::report_round(opts, &history, ctx, round, spent, &memo_start) {
            // Cooperative cancel: like the crash hook above, the journal
            // stays on disk so a resubmitted run resumes at this round.
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
    use automc_compress::{ExecConfig, StrategySpace};
    use automc_data::{DatasetSpec, SyntheticKind};
    use automc_models::resnet;
    use automc_models::train::{train, Auxiliary, TrainConfig};
    use automc_tensor::rng_from_seed;

    #[test]
    fn progressive_search_finds_feasible_schemes() {
        let mut rng = rng_from_seed(310);
        let (train_set, eval_set) = DatasetSpec {
            train: 160,
            test: 80,
            noise: 0.25,
            ..DatasetSpec::new(SyntheticKind::Cifar10Like)
        }
        .generate();
        let mut base = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        train(
            &mut base,
            &train_set,
            &TrainConfig { epochs: 4.0, ..Default::default() },
            Auxiliary::None,
            &mut rng,
        );
        let base_metrics = Metrics::measure(&mut base, &eval_set);
        let space = StrategySpace::full();
        let ctx = SearchContext {
            space: &space,
            base_model: &base,
            base_metrics,
            search_train: &train_set,
            eval_set: &eval_set,
            exec: ExecConfig { pretrain_epochs: 4.0, ..Default::default() },
            max_len: 3,
            gamma: 0.2,
            budget: SearchBudget::new(8_000),
        };
        // Cheap random embeddings: the search must function even with
        // uninformative priors (the ablations rely on this).
        let emb: Vec<Vec<f32>> = (0..space.len())
            .map(|i| vec![(i % 97) as f32 / 97.0, (i % 13) as f32 / 13.0, 0.5, 0.1])
            .collect();
        let cfg = AutoMcConfig { candidate_sample: 64, ..Default::default() };
        let history = progressive_search(&ctx, emb, &cfg, &mut rng, &JournalOptions::default());
        assert!(!history.records.is_empty(), "search evaluated nothing");
        assert!(history.total_cost() >= ctx.budget.units.min(1));
        // At least one scheme should achieve meaningful reduction.
        assert!(
            history.records.iter().any(|r| r.pr > 0.1),
            "no scheme reduced parameters"
        );
        // Scheme lengths respect L.
        assert!(history.records.iter().all(|r| r.scheme.len() <= 3));
        // Costs are monotone.
        assert!(history
            .records
            .windows(2)
            .all(|w| w[1].cost_so_far >= w[0].cost_so_far));
    }
}
