//! Experimental-experience corpus (paper §3.3.1).
//!
//! The paper extracts `(C_iP_{i,j}, Task_k, AR, PR)` tuples from published
//! compression papers. No such corpus exists for the synthetic substrate,
//! so this module *generates* one with the same semantics: it executes a
//! spread of strategies on a bank of small seeded tasks and records the
//! real measured `(AR, PR)`. The corpus is exactly what `NN_exp` needs —
//! numerical knowledge about how strategies behave across task types.
//!
//! Every record is an independent supervised one-step scheme evaluation
//! (see [`generate_experience`]), so the records run concurrently on the
//! `par` pool and share the memo, fault sites and supervision of every
//! other evaluation.

use automc_compress::{
    execute_scheme_checked, EvalOutcome, ExecConfig, Metrics, StrategyId, StrategySpace,
};
use automc_data::{DataFeatures, DatasetSpec, ImageSet, SyntheticKind};
use automc_models::train::{train, Auxiliary};
use automc_models::{resnet, vgg, ConvNet, ModelFeatures, ModelKind};
use automc_tensor::{par, rng_for_task, Rng};
use rand::seq::SliceRandom;
use rand::RngCore;

/// Version of the corpus-generation procedure. The cached corpus, the
/// embeddings learned from it and every result downstream of those
/// embeddings fold it into their cache fingerprints, so a procedure
/// change is a cache miss, never a stale hit. History: 1 = one RNG
/// threaded serially through every pick and strategy application; 2 =
/// every record an independent supervised evaluation.
pub const CORPUS_VERSION: u64 = 2;

/// One experience tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperienceRecord {
    /// Strategy that was executed.
    pub strategy: StrategyId,
    /// Task feature vector (paper: 4 data features + 3 model features).
    pub task: Vec<f32>,
    /// Measured accuracy-increase rate.
    pub ar: f32,
    /// Measured parameter-reduction rate.
    pub pr: f32,
}

/// A corpus of experience tuples.
#[derive(Debug, Clone, Default)]
pub struct ExperienceCorpus {
    /// The tuples.
    pub records: Vec<ExperienceRecord>,
    /// Records whose evaluation failed under supervision (panicked,
    /// diverged or timed out) and were left out of `records`.
    pub dropped: usize,
    task_feature_len: usize,
}

impl ExperienceCorpus {
    /// Empty corpus with a fixed task-feature width.
    pub fn empty(task_feature_len: usize) -> Self {
        ExperienceCorpus { records: Vec::new(), dropped: 0, task_feature_len }
    }

    /// Width of the task feature vectors.
    pub fn task_feature_len(&self) -> usize {
        self.task_feature_len
    }

    /// Add a record (must match the feature width).
    pub fn push(&mut self, rec: ExperienceRecord) {
        assert_eq!(rec.task.len(), self.task_feature_len, "task feature width mismatch");
        self.records.push(rec);
    }
}

/// A small seeded task used to generate experience.
pub struct MicroTask {
    /// Pre-trained model.
    pub model: ConvNet,
    /// Training split (what strategies may fine-tune on).
    pub train_set: ImageSet,
    /// Held-out split for `A(M)`.
    pub eval_set: ImageSet,
    /// Base metrics of the pre-trained model.
    pub base: Metrics,
    /// The 7-feature task vector (paper §3.3.1).
    pub features: Vec<f32>,
}

impl MicroTask {
    /// Build and pre-train a micro task.
    pub fn new(
        kind: SyntheticKind,
        model_kind: ModelKind,
        width: usize,
        train_n: usize,
        eval_n: usize,
        pretrain_epochs: f32,
        seed: u64,
        rng: &mut Rng,
    ) -> Self {
        let (train_set, eval_set) = DatasetSpec {
            train: train_n,
            test: eval_n,
            noise: 0.25,
            seed,
            ..DatasetSpec::new(kind)
        }
        .generate();
        let classes = kind.classes();
        let mut model = match model_kind {
            ModelKind::ResNet(d) => resnet(d, width, classes, (3, 8, 8), rng),
            ModelKind::Vgg(d) => vgg(d, width, classes, (3, 8, 8), rng),
        };
        let cfg = automc_models::train::TrainConfig {
            epochs: pretrain_epochs,
            ..Default::default()
        };
        train(&mut model, &train_set, &cfg, Auxiliary::None, rng);
        let base = Metrics::measure(&mut model, &eval_set);
        let features = task_features(&train_set, &base);
        MicroTask { model, train_set, eval_set, base, features }
    }
}

/// The paper's 7-part task feature vector: data features (class count,
/// image size, channels, amount) + model features (params, FLOPs,
/// accuracy).
pub fn task_features(train_set: &ImageSet, base: &Metrics) -> Vec<f32> {
    let (c, h, _) = train_set.image_dims();
    let data = DataFeatures {
        classes: train_set.classes(),
        image_size: h,
        channels: c,
        amount: train_set.len(),
    };
    let model = ModelFeatures { params: base.params, flops: base.flops, accuracy: base.acc };
    let mut v = data.to_vec();
    v.extend(model.to_vec());
    v
}

/// Generate an experience corpus by executing `per_task` strategies
/// (stratified across methods) on each micro task.
///
/// Every record is a pure function of `(seed, micro task, k)`. Micro task
/// `t` draws its evaluation seed and then its picks from
/// `rng_for_task(seed, t)`; record `k` evaluates the one-step scheme
/// `[pick_k]` through [`execute_scheme_checked`] (`exec.eval_seed` is
/// replaced by the task's seed), so its step RNG is
/// `memo::step_rng(eval_seed, [pick_k])` and it is a memo entry and an
/// `eval` fault site, with panics, divergence and the step budget
/// supervised. The records fan out over the `par` pool and are pushed in
/// `(t, k)` order, so the corpus is the same at any thread count. A
/// record whose evaluation fails is reported on stderr, counted in
/// [`ExperienceCorpus::dropped`] and left out.
pub fn generate_experience(
    space: &StrategySpace,
    tasks: &[MicroTask],
    per_task: usize,
    exec: &ExecConfig,
    seed: u64,
) -> ExperienceCorpus {
    let mut corpus = ExperienceCorpus::empty(7);
    if tasks.is_empty() || per_task == 0 {
        return corpus;
    }
    // Stratified strategy sample: round-robin over methods so every method
    // contributes experience.
    let mut by_method: Vec<Vec<StrategyId>> = Vec::new();
    for m in automc_compress::MethodId::ALL {
        let ids: Vec<StrategyId> = space
            .iter()
            .filter(|(_, s)| s.method() == m)
            .map(|(id, _)| id)
            .collect();
        if !ids.is_empty() {
            by_method.push(ids);
        }
    }
    let plans: Vec<(ExecConfig, Vec<StrategyId>)> = (0..tasks.len())
        .map(|t| {
            let mut rng = rng_for_task(seed, t as u64);
            let cfg = ExecConfig { eval_seed: rng.next_u64(), ..*exec };
            let picks = (0..per_task)
                .map(|k| {
                    *by_method[k % by_method.len()].choose(&mut rng).expect("non-empty bucket")
                })
                .collect();
            (cfg, picks)
        })
        .collect();
    let total = tasks.len() * per_task;
    let outcomes = par::par_map(total, |i| {
        let (task, (cfg, picks)) = (&tasks[i / per_task], &plans[i / per_task]);
        let sid = picks[i % per_task];
        let outcome = execute_scheme_checked(
            &task.model,
            &task.base,
            &[sid],
            space,
            &task.train_set,
            &task.eval_set,
            cfg,
        );
        match outcome {
            EvalOutcome::Ok { outcome, .. } => Ok(ExperienceRecord {
                strategy: sid,
                task: task.features.clone(),
                ar: outcome.ar,
                pr: outcome.pr,
            }),
            EvalOutcome::Diverged { .. } => Err((sid, "diverged".to_string())),
            EvalOutcome::Panicked { msg, .. } => Err((sid, format!("panicked ({msg})"))),
            EvalOutcome::TimedOut { .. } => Err((sid, "timed out".to_string())),
        }
    });
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(rec) => corpus.push(rec),
            Err((sid, why)) => {
                eprintln!(
                    "[experience] record {}/{total} (micro-task {}, strategy {sid}) {why}; dropped",
                    i + 1,
                    i / per_task
                );
                corpus.dropped += 1;
            }
        }
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use automc_compress::MethodId;
    use automc_tensor::rng_from_seed;

    #[test]
    fn corpus_width_enforced() {
        let mut c = ExperienceCorpus::empty(7);
        c.push(ExperienceRecord { strategy: 0, task: vec![0.0; 7], ar: 0.0, pr: 0.1 });
        assert_eq!(c.records.len(), 1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn corpus_rejects_bad_width() {
        let mut c = ExperienceCorpus::empty(7);
        c.push(ExperienceRecord { strategy: 0, task: vec![0.0; 3], ar: 0.0, pr: 0.1 });
    }

    #[test]
    fn micro_task_features_have_seven_parts() {
        let mut rng = rng_from_seed(220);
        let task = MicroTask::new(
            SyntheticKind::Cifar10Like,
            ModelKind::ResNet(20),
            4,
            120,
            60,
            2.0,
            42,
            &mut rng,
        );
        assert_eq!(task.features.len(), 7);
        assert!(task.base.acc > 0.0);
    }

    #[test]
    fn generated_experience_reflects_real_reductions() {
        let mut rng = rng_from_seed(221);
        let space = StrategySpace::for_methods(&[MethodId::Ns, MethodId::Sfp]);
        let tasks = vec![MicroTask::new(
            SyntheticKind::Cifar10Like,
            ModelKind::ResNet(20),
            4,
            120,
            60,
            2.0,
            43,
            &mut rng,
        )];
        let exec = ExecConfig { pretrain_epochs: 2.0, ..Default::default() };
        let corpus = generate_experience(&space, &tasks, 4, &exec, 222);
        assert_eq!(corpus.records.len(), 4);
        assert_eq!(corpus.dropped, 0);
        for rec in &corpus.records {
            assert!(rec.pr > 0.0, "strategies remove parameters: {rec:?}");
            assert!(rec.pr < 0.9);
            assert!(rec.ar > -1.0);
        }
    }
}
