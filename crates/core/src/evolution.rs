//! Multi-objective evolutionary search (the paper's EA baseline [6]):
//! NSGA-II-style selection over whole compression schemes with one-point
//! crossover and replace/insert/delete mutation.

use crate::context::SearchContext;
use crate::history::{EvalRecord, EvalStatus, SearchHistory};
use crate::journal::{self, JournalOptions};
use crate::pareto;
use crate::statebytes::{read_f32, read_u64, write_f32, write_u64};
use automc_compress::{EvalOutcome, Scheme};
use automc_tensor::fault;
use automc_tensor::Rng;
use rand::Rng as _;

/// EA knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvolutionConfig {
    /// Population capacity.
    pub population: usize,
    /// Per-position replacement probability during mutation.
    pub mutation_rate: f32,
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        EvolutionConfig { population: 8, mutation_rate: 0.3 }
    }
}

struct Individual {
    scheme: Scheme,
    ar: f32,
    pr: f32,
}

const STATE_MAGIC: &[u8; 8] = b"AUTOMCe1";

/// Serialise the population (the EA's complete learner state).
fn population_to_bytes(population: &[Individual]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(STATE_MAGIC);
    write_u64(&mut out, population.len() as u64);
    for ind in population {
        write_u64(&mut out, ind.scheme.len() as u64);
        for &sid in &ind.scheme {
            write_u64(&mut out, sid as u64);
        }
        write_f32(&mut out, ind.ar);
        write_f32(&mut out, ind.pr);
    }
    out
}

/// Restore a [`population_to_bytes`] snapshot; `None` on corruption.
fn population_from_bytes(bytes: &[u8], space_len: usize, max_len: usize) -> Option<Vec<Individual>> {
    let mut r = bytes;
    if crate::statebytes::take_bytes(&mut r, 8)? != STATE_MAGIC {
        return None;
    }
    let count = read_u64(&mut r)? as usize;
    if count > 100_000 {
        return None;
    }
    let mut population = Vec::with_capacity(count);
    for _ in 0..count {
        let len = read_u64(&mut r)? as usize;
        if len > max_len {
            return None;
        }
        let mut scheme = Vec::with_capacity(len);
        for _ in 0..len {
            let sid = read_u64(&mut r)? as usize;
            if sid >= space_len {
                return None;
            }
            scheme.push(sid);
        }
        let ar = read_f32(&mut r)?;
        let pr = read_f32(&mut r)?;
        population.push(Individual { scheme, ar, pr });
    }
    if !r.is_empty() {
        return None;
    }
    Some(population)
}

/// Run the EA until the budget is exhausted, with a crash-safe
/// per-evaluation journal (`JournalOptions::default()` journals nothing).
///
/// With `opts.path` set, the complete resumable state — history, the
/// current population, RNG state, budget spent, and fault-injection
/// counters — is journaled after every evaluation (both during population
/// seeding and in the main loop); with `opts.resume`, a valid journal is
/// restored and the run continues *bitwise identically* to one that was
/// never interrupted. The journal is deleted on normal completion.
pub fn evolution_search(
    ctx: &SearchContext<'_>,
    cfg: &EvolutionConfig,
    rng: &mut Rng,
    opts: &JournalOptions,
) -> SearchHistory {
    let mut words = ctx.fingerprint_words().to_vec();
    words.extend([cfg.population as u64, cfg.mutation_rate.to_bits() as u64]);
    let fingerprint = journal::fingerprint("AutoMC-evolution-v3", &words, rng.state());
    let loaded = if opts.resume {
        opts.path.as_deref().and_then(|p| journal::load(p, fingerprint))
    } else {
        None
    };

    let mut history = SearchHistory::new("Evolution");
    let mut spent = 0u64;
    let mut round = 0u64;
    let mut population: Vec<Individual> = Vec::new();
    let mut journal_to = opts.path.as_deref();
    let memo_start = automc_compress::memo::stats();

    if let Some(j) = loaded {
        match population_from_bytes(&j.state, ctx.space.len(), ctx.max_len) {
            Some(pop) => {
                population = pop;
                history = j.history;
                spent = j.spent;
                round = j.round;
                *rng = Rng::from_state(j.rng);
                fault::restore_counters(&j.fault_counters);
                eprintln!(
                    "[journal] resumed Evolution search at evaluation {round} \
                     ({spent}/{} units spent)",
                    ctx.budget.units
                );
            }
            None => {
                // No RNG draws happen before the loop, so there is nothing
                // to rewind: just start fresh.
                eprintln!(
                    "warning: journal passed validation but did not decode; \
                     starting fresh"
                );
            }
        }
    }

    // Supervised evaluation: a panicking or diverging scheme is logged as
    // infeasible (charged at least one evaluation's budget) and produces
    // no individual — the population only ever holds viable schemes.
    let evaluate = |scheme: Scheme,
                    spent: &mut u64,
                    history: &mut SearchHistory,
                    journal_to: Option<&std::path::Path>|
     -> Option<Individual> {
        journal::record_eval_intent(journal_to, fingerprint);
        let result = automc_compress::execute_scheme_checked(
            ctx.base_model,
            &ctx.base_metrics,
            &scheme,
            ctx.space,
            ctx.search_train,
            ctx.eval_set,
            &ctx.exec,
        );
        *spent += result.charged_units((ctx.eval_set.len() as u64).max(1));
        match result {
            EvalOutcome::Ok { outcome, .. } => {
                history
                    .records
                    .push(EvalRecord::from_outcome(scheme.clone(), &outcome, *spent));
                Some(Individual { scheme, ar: outcome.ar, pr: outcome.pr })
            }
            EvalOutcome::Diverged { .. } => {
                history.push_failure(scheme, EvalStatus::Diverged, *spent);
                None
            }
            EvalOutcome::Panicked { msg, .. } => {
                history.push_failure(scheme, EvalStatus::Panicked(msg), *spent);
                None
            }
            EvalOutcome::TimedOut { .. } => {
                history.push_failure(scheme, EvalStatus::TimedOut, *spent);
                None
            }
        }
    };

    // Seed population. Resuming mid-seed is fine: the loop condition
    // re-derives progress from the restored population.
    while population.len() < cfg.population && spent < ctx.budget.units {
        let len = rng.gen_range(1..=ctx.max_len);
        let scheme: Scheme = (0..len).map(|_| rng.gen_range(0..ctx.space.len())).collect();
        population.extend(evaluate(scheme, &mut spent, &mut history, journal_to));
        round += 1;
        journal::checkpoint_round(
            &mut journal_to,
            fingerprint,
            round,
            spent,
            rng,
            &history,
            population_to_bytes(&population),
        );
        if opts.abort_after_rounds.is_some_and(|k| round >= k as u64) {
            // Simulated crash for the resume-determinism tests.
            return history;
        }
        if crate::progress::report_round(opts, &history, ctx, round, spent, &memo_start) {
            return history;
        }
    }

    while spent < ctx.budget.units && population.len() >= 2 {
        // Binary tournament by Pareto rank then crowding.
        let points: Vec<(f32, f32)> = population.iter().map(|i| (i.ar, i.pr)).collect();
        let ranks = pareto::non_dominated_ranks(&points);
        let tournament = |rng: &mut Rng| -> usize {
            let a = rng.gen_range(0..population.len());
            let b = rng.gen_range(0..population.len());
            if ranks[a] <= ranks[b] {
                a
            } else {
                b
            }
        };
        let pa = tournament(rng);
        let pb = tournament(rng);
        // One-point crossover.
        let (sa, sb) = (&population[pa].scheme, &population[pb].scheme);
        let cut_a = rng.gen_range(0..=sa.len());
        let cut_b = rng.gen_range(0..=sb.len());
        let mut child: Scheme = sa[..cut_a].to_vec();
        child.extend_from_slice(&sb[cut_b..]);
        child.truncate(ctx.max_len);
        // Mutation.
        for slot in child.iter_mut() {
            if rng.gen::<f32>() < cfg.mutation_rate {
                *slot = rng.gen_range(0..ctx.space.len());
            }
        }
        if child.len() < ctx.max_len && rng.gen::<f32>() < 0.2 {
            child.push(rng.gen_range(0..ctx.space.len()));
        }
        if child.len() > 1 && rng.gen::<f32>() < 0.2 {
            let drop = rng.gen_range(0..child.len());
            child.remove(drop);
        }
        if child.is_empty() {
            child.push(rng.gen_range(0..ctx.space.len()));
        }
        // Evaluate and insert; truncate by (rank, crowding).
        let evaluated = evaluate(child, &mut spent, &mut history, journal_to);
        round += 1;
        if let Some(ind) = evaluated {
            population.push(ind);
            if population.len() > cfg.population {
                let points: Vec<(f32, f32)> = population.iter().map(|i| (i.ar, i.pr)).collect();
                let ranks = pareto::non_dominated_ranks(&points);
                // Crowding within each rank.
                let mut keyed: Vec<(usize, f32, usize)> = Vec::new(); // (rank, -crowding, idx)
                let max_rank = ranks.iter().copied().max().unwrap_or(0);
                for r in 0..=max_rank {
                    let members: Vec<usize> =
                        (0..population.len()).filter(|&i| ranks[i] == r).collect();
                    let crowd = pareto::crowding_distance(&points, &members);
                    for (k, &i) in members.iter().enumerate() {
                        keyed.push((r, -crowd[k], i));
                    }
                }
                keyed.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
                let keep: Vec<usize> = keyed.iter().take(cfg.population).map(|k| k.2).collect();
                let mut new_pop = Vec::with_capacity(cfg.population);
                for (i, ind) in population.drain(..).enumerate() {
                    if keep.contains(&i) {
                        new_pop.push(ind);
                    }
                }
                population = new_pop;
            }
        }
        journal::checkpoint_round(
            &mut journal_to,
            fingerprint,
            round,
            spent,
            rng,
            &history,
            population_to_bytes(&population),
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
    fn population_bytes_roundtrip_and_reject_corruption() {
        let pop = vec![
            Individual { scheme: vec![0, 3, 2], ar: -0.05, pr: 0.4 },
            Individual { scheme: vec![5], ar: 0.01, pr: 0.1 },
        ];
        let bytes = population_to_bytes(&pop);
        let back = population_from_bytes(&bytes, 8, 3).expect("roundtrip");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].scheme, vec![0, 3, 2]);
        assert_eq!(back[0].ar.to_bits(), (-0.05f32).to_bits());
        assert_eq!(back[1].pr.to_bits(), 0.1f32.to_bits());
        // Out-of-range strategy ids, over-long schemes, truncation.
        assert!(population_from_bytes(&bytes, 4, 3).is_none(), "sid 5 out of range");
        assert!(population_from_bytes(&bytes, 8, 2).is_none(), "scheme too long");
        assert!(population_from_bytes(&bytes[..bytes.len() - 1], 8, 3).is_none());
        let mut bad = bytes;
        bad[3] ^= 0xFF;
        assert!(population_from_bytes(&bad, 8, 3).is_none(), "bad magic");
    }

    #[test]
    fn evolution_search_runs_and_improves_coverage() {
        let mut rng = rng_from_seed(330);
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
            max_len: 3,
            gamma: 0.2,
            budget: SearchBudget::new(6_000),
        };
        let (cfg, none) = (EvolutionConfig::default(), JournalOptions::default());
        let history = evolution_search(&ctx, &cfg, &mut rng, &none);
        assert!(history.records.len() >= 4, "EA should evaluate several schemes");
        assert!(history.records.iter().all(|r| !r.scheme.is_empty()));
        assert!(history.records.iter().all(|r| r.scheme.len() <= 3));
    }
}
