//! The RL baseline: a recurrent controller samples whole schemes and is
//! trained with REINFORCE on a scalarised multi-objective reward (the
//! paper's "RL search strategy that combines recurrent neural network
//! controller" [6]).
//!
//! The controller embeds the previous action, feeds it through a tanh RNN,
//! and emits logits over `|C| + 1` actions (every strategy plus STOP).
//! The reward encourages accuracy increase and parameter reduction and
//! penalises missing the target rate γ.

use crate::context::SearchContext;
use crate::history::{EvalRecord, EvalStatus, SearchHistory};
use crate::journal::{self, JournalOptions};
use crate::statebytes::{
    read_f32, read_tensor_list, read_u64, take_bytes, write_f32, write_tensor_list, write_u64,
};
use automc_compress::{EvalOutcome, Scheme};
use automc_tensor::fault;
use automc_tensor::nn::Rnn;
use automc_tensor::optim::{Adam, AdamConfig, AdamState, Optimizer, Param};
use automc_tensor::{loss, Rng, Tensor};
use rand::Rng as _;

/// RL knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlConfig {
    /// Action-embedding dimension.
    pub emb_dim: usize,
    /// Controller hidden size.
    pub hidden: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Reward-baseline EMA coefficient.
    pub baseline_decay: f32,
}

impl Default for RlConfig {
    fn default() -> Self {
        RlConfig { emb_dim: 16, hidden: 32, lr: 5e-3, baseline_decay: 0.9 }
    }
}

/// Scalarised multi-objective reward.
fn reward(ar: f32, pr: f32, gamma: f32) -> f32 {
    ar + pr - 2.0 * (gamma - pr).max(0.0)
}

const STATE_MAGIC: &[u8; 8] = b"AUTOMCr1";

/// The recurrent controller with its optimizer and reward baseline — the
/// complete learner state, grouped so a journal can snapshot and restore
/// it as one opaque byte string.
struct Controller {
    emb: Tensor,
    emb_grad: Tensor,
    rnn: Rnn,
    w: Tensor,
    w_grad: Tensor,
    opt: Adam,
    baseline: f32,
    baseline_init: bool,
}

impl Controller {
    fn new(actions: usize, cfg: &RlConfig, rng: &mut Rng) -> Self {
        Controller {
            emb: Tensor::randn(&[actions, cfg.emb_dim], 0.1, rng),
            emb_grad: Tensor::zeros(&[actions, cfg.emb_dim]),
            rnn: Rnn::new(cfg.emb_dim, cfg.hidden, rng),
            w: Tensor::randn(&[actions, cfg.hidden], 0.05, rng),
            w_grad: Tensor::zeros(&[actions, cfg.hidden]),
            opt: Adam::new(AdamConfig { lr: cfg.lr, ..Default::default() }),
            baseline: 0.0,
            baseline_init: false,
        }
    }

    /// Serialise weights, Adam moments, and the reward baseline. Gradients
    /// are not included: snapshots are taken between episodes, where both
    /// accumulators are zero.
    fn state_to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(STATE_MAGIC);
        write_tensor_list(
            &mut out,
            &[&self.emb, &self.rnn.w_xh, &self.rnn.w_hh, &self.rnn.b, &self.w],
        );
        let opt = self.opt.export_state();
        write_u64(&mut out, opt.t);
        write_tensor_list(&mut out, &opt.m.iter().collect::<Vec<_>>());
        write_tensor_list(&mut out, &opt.v.iter().collect::<Vec<_>>());
        write_f32(&mut out, self.baseline);
        out.push(self.baseline_init as u8);
        out
    }

    /// Restore a [`Controller::state_to_bytes`] snapshot into a controller
    /// of the same shape. `None` (leaving `self` partially overwritten —
    /// callers must rebuild) on a corrupt or mismatched stream.
    fn restore_state(&mut self, bytes: &[u8]) -> Option<()> {
        let mut r = bytes;
        if take_bytes(&mut r, 8)? != STATE_MAGIC {
            return None;
        }
        let weights = read_tensor_list(&mut r)?;
        let mut targets = [
            &mut self.emb,
            &mut self.rnn.w_xh,
            &mut self.rnn.w_hh,
            &mut self.rnn.b,
            &mut self.w,
        ];
        if weights.len() != targets.len() {
            return None;
        }
        for (dst, src) in targets.iter_mut().zip(weights) {
            if dst.dims() != src.dims() {
                return None;
            }
            **dst = src;
        }
        let t = read_u64(&mut r)?;
        let m = read_tensor_list(&mut r)?;
        let v = read_tensor_list(&mut r)?;
        self.opt.import_state(AdamState { m, v, t });
        self.baseline = read_f32(&mut r)?;
        let flag = take_bytes(&mut r, 1)?[0];
        if flag > 1 {
            return None;
        }
        self.baseline_init = flag == 1;
        if !r.is_empty() {
            return None;
        }
        Some(())
    }

    /// One REINFORCE step from a finished episode's reward.
    #[allow(clippy::too_many_arguments)]
    fn reinforce(
        &mut self,
        cfg: &RlConfig,
        r: f32,
        step_states: &[Tensor],
        step_actions: &[usize],
        step_probs: &[Vec<f32>],
        start_token: usize,
        stop: usize,
    ) {
        if !self.baseline_init {
            self.baseline = r;
            self.baseline_init = true;
        }
        let advantage = r - self.baseline;
        self.baseline = cfg.baseline_decay * self.baseline + (1.0 - cfg.baseline_decay) * r;
        // Per-step gradient on logits: (softmax − onehot) · advantage.
        let mut h_grads: Vec<Option<Tensor>> = vec![None; step_actions.len()];
        for (t, (&action, probs)) in step_actions.iter().zip(step_probs).enumerate() {
            let mut glogits = probs.clone();
            glogits[action] -= 1.0;
            for g in glogits.iter_mut() {
                *g *= advantage;
            }
            // dW += glogits ⊗ h_t ; dh_t = Wᵀ glogits
            let mut dh = vec![0.0f32; cfg.hidden];
            for (a, &g) in glogits.iter().enumerate() {
                if g == 0.0 || !g.is_finite() {
                    continue;
                }
                let wrow = self.w.row(a);
                let grow = self.w_grad.row_mut(a);
                for j in 0..cfg.hidden {
                    grow[j] += g * step_states[t].row(0)[j];
                    dh[j] += g * wrow[j];
                }
            }
            h_grads[t] = Some(Tensor::from_slice(&[1, cfg.hidden], &dh));
        }
        let dx = self.rnn.backward_through_time(&h_grads);
        // Embedding-table gradients from the per-step input grads.
        let mut prev = start_token;
        for (t, dxt) in dx.iter().enumerate() {
            let row = self.emb_grad.row_mut(prev);
            for (g, &d) in row.iter_mut().zip(dxt.row(0)) {
                *g += d;
            }
            if t < step_actions.len() && step_actions[t] != stop {
                prev = step_actions[t];
            }
        }
        let mut params = self.rnn.params_mut();
        params.push(Param { value: &mut self.w, grad: &mut self.w_grad, weight_decay: false });
        params.push(Param { value: &mut self.emb, grad: &mut self.emb_grad, weight_decay: false });
        self.opt.step(&mut params);
    }
}

/// Run the RL controller until the budget is exhausted, with a crash-safe
/// per-episode journal (`JournalOptions::default()` journals nothing).
///
/// With `opts.path` set, the complete resumable state — history,
/// controller weights, Adam moments, reward baseline, RNG state, budget
/// spent, and fault-injection counters — is journaled after every
/// evaluated episode; with `opts.resume`, a valid journal is restored and
/// the run continues *bitwise identically* to one that was never
/// interrupted. The journal is deleted on normal completion.
pub fn rl_search(
    ctx: &SearchContext<'_>,
    cfg: &RlConfig,
    rng: &mut Rng,
    opts: &JournalOptions,
) -> SearchHistory {
    let n = ctx.space.len();
    let actions = n + 1; // + STOP
    let stop = n;
    let start_token = n; // reuse the STOP row as the start embedding
    let mut words = ctx.fingerprint_words().to_vec();
    words.extend([
        cfg.emb_dim as u64,
        cfg.hidden as u64,
        cfg.lr.to_bits() as u64,
        cfg.baseline_decay.to_bits() as u64,
    ]);
    let fingerprint = journal::fingerprint("AutoMC-rl-v3", &words, rng.state());
    let loaded = if opts.resume {
        opts.path.as_deref().and_then(|p| journal::load(p, fingerprint))
    } else {
        None
    };

    // Construct the controller unconditionally so a fresh (or
    // failed-restore) run consumes exactly the same RNG draws as an
    // un-journaled one.
    let pre_init_rng = rng.state();
    let mut ctrl = Controller::new(actions, cfg, rng);
    let mut history = SearchHistory::new("RL");
    let mut spent = 0u64;
    let mut round = 0u64;
    let mut journal_to = opts.path.as_deref();

    if let Some(j) = loaded {
        match ctrl.restore_state(&j.state) {
            Some(()) => {
                history = j.history;
                spent = j.spent;
                round = j.round;
                *rng = Rng::from_state(j.rng);
                fault::restore_counters(&j.fault_counters);
                eprintln!(
                    "[journal] resumed RL search at episode {round} \
                     ({spent}/{} units spent)",
                    ctx.budget.units
                );
            }
            None => {
                eprintln!(
                    "warning: journal passed validation but did not decode; \
                     starting fresh"
                );
                *rng = Rng::from_state(pre_init_rng);
                ctrl = Controller::new(actions, cfg, rng);
            }
        }
    }

    let memo_start = automc_compress::memo::stats();
    while spent < ctx.budget.units {
        // ---- Sample an episode. ----------------------------------------
        ctrl.rnn.reset();
        let mut h = ctrl.rnn.init_state(1);
        let mut prev_action = start_token;
        let mut scheme: Scheme = Vec::new();
        let mut step_states: Vec<Tensor> = Vec::new(); // h_t per emitted step
        let mut step_actions: Vec<usize> = Vec::new();
        let mut step_probs: Vec<Vec<f32>> = Vec::new();
        for t in 0..ctx.max_len {
            let x = Tensor::from_slice(&[1, cfg.emb_dim], ctrl.emb.row(prev_action));
            h = ctrl.rnn.step(&x, &h);
            // logits = W · h
            let logits: Vec<f32> = (0..actions)
                .map(|a| {
                    ctrl.w
                        .row(a)
                        .iter()
                        .zip(h.row(0))
                        .map(|(wv, hv)| wv * hv)
                        .sum()
                })
                .collect();
            let mut logits_t = Tensor::from_slice(&[1, actions], &logits);
            if t == 0 {
                // Empty schemes are useless: mask STOP at the first step.
                logits_t.row_mut(0)[stop] = f32::NEG_INFINITY;
            }
            let probs = loss::softmax(&logits_t);
            // Sample an action.
            let u: f32 = rng.gen();
            let mut acc = 0.0;
            let mut action = stop;
            for (a, &p) in probs.row(0).iter().enumerate() {
                acc += p;
                if u <= acc {
                    action = a;
                    break;
                }
            }
            step_states.push(h.clone());
            step_actions.push(action);
            step_probs.push(probs.row(0).to_vec());
            if action == stop {
                break;
            }
            scheme.push(action);
            prev_action = action;
        }
        if scheme.is_empty() {
            // Nothing was evaluated and no budget spent: replaying this
            // draw after a resume is deterministic, so no journal write.
            continue;
        }

        // ---- Evaluate (supervised). --------------------------------------
        // A failed episode is logged as infeasible, charged a budget
        // floor, and yields no REINFORCE update: there is no trustworthy
        // reward to learn from.
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
        spent += result.charged_units((ctx.eval_set.len() as u64).max(1));
        let outcome = match result {
            EvalOutcome::Ok { outcome, .. } => Some(outcome),
            EvalOutcome::Diverged { .. } => {
                history.push_failure(scheme.clone(), EvalStatus::Diverged, spent);
                None
            }
            EvalOutcome::Panicked { msg, .. } => {
                history.push_failure(scheme.clone(), EvalStatus::Panicked(msg), spent);
                None
            }
            EvalOutcome::TimedOut { .. } => {
                history.push_failure(scheme.clone(), EvalStatus::TimedOut, spent);
                None
            }
        };
        if let Some(outcome) = outcome {
            history
                .records
                .push(EvalRecord::from_outcome(scheme.clone(), &outcome, spent));
            // ---- REINFORCE update. -------------------------------------
            let r = reward(outcome.ar, outcome.pr, ctx.gamma);
            ctrl.reinforce(
                cfg,
                r,
                &step_states,
                &step_actions,
                &step_probs,
                start_token,
                stop,
            );
        }

        // ---- Journal the completed episode (atomic write + retry). -----
        round += 1;
        journal::checkpoint_round(
            &mut journal_to,
            fingerprint,
            round,
            spent,
            rng,
            &history,
            ctrl.state_to_bytes(),
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
    fn reward_shapes_objectives() {
        assert!(reward(0.1, 0.4, 0.3) > reward(-0.1, 0.4, 0.3));
        assert!(reward(0.0, 0.35, 0.3) > reward(0.0, 0.1, 0.3), "missing γ is penalised");
    }

    #[test]
    fn controller_state_roundtrips_bitwise() {
        let mut rng = rng_from_seed(341);
        let cfg = RlConfig::default();
        let mut a = Controller::new(9, &cfg, &mut rng);
        a.baseline = 0.37;
        a.baseline_init = true;
        let bytes = a.state_to_bytes();
        let mut b = Controller::new(9, &cfg, &mut rng_from_seed(77));
        b.restore_state(&bytes).expect("snapshot restores");
        assert_eq!(b.state_to_bytes(), bytes, "roundtrip is bitwise");
        // Truncated or wrong-magic streams are rejected.
        assert!(Controller::new(9, &cfg, &mut rng)
            .restore_state(&bytes[..bytes.len() - 2])
            .is_none());
        let mut bad = bytes;
        bad[0] ^= 0xFF;
        assert!(Controller::new(9, &cfg, &mut rng).restore_state(&bad).is_none());
    }

    #[test]
    fn rl_search_produces_valid_schemes() {
        let mut rng = rng_from_seed(340);
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
            budget: SearchBudget::new(5_000),
        };
        let history = rl_search(&ctx, &RlConfig::default(), &mut rng, &JournalOptions::default());
        assert!(!history.records.is_empty());
        assert!(history
            .records
            .iter()
            .all(|r| !r.scheme.is_empty() && r.scheme.len() <= 3));
        assert!(history
            .records
            .iter()
            .all(|r| r.scheme.iter().all(|&s| s < space.len())));
    }
}
