//! Experiment orchestration shared by the reproduction binaries.

use crate::cache;
use crate::scale::{ExperimentScale, PreparedTask};
use automc_compress::{
    execute_scheme_checked, EvalOutcome, ExecConfig, Metrics, MethodId, Scheme, StrategySpace,
    StrategySpec,
};
use automc_core::journal;
use automc_core::{
    evolution_search, progressive_search, random_search, rl_search, AutoMcConfig,
    EvolutionConfig, JournalOptions, RlConfig, SearchBudget, SearchContext, SearchHistory,
};
use automc_data::ImageSet;
use automc_knowledge::{
    generate_experience, learn_embeddings, EmbeddingConfig, ExperienceCorpus, ExperienceRecord,
    MicroTask, CORPUS_VERSION,
};
use automc_json::{field, obj, FromJson, ToJson, Value};
use automc_models::surgery::Criterion;
use automc_models::train::{divergence, AuxKind};
use automc_models::{ConvNet, ModelKind};
use automc_tensor::fault::{self, FaultKind};
use automc_tensor::{par, rng_for_task, rng_from_seed, Rng};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Whether interrupted searches and method-grid runs may resume from
/// their journals (default) or must restart from scratch (`--no-resume`).
/// Orthogonal to `--fresh`, which discards *completed* cached results:
/// `--fresh` still resumes in-progress work unless `--no-resume` is also
/// given.
static RESUME: AtomicBool = AtomicBool::new(true);

/// Toggle journal resume for this process (the `--no-resume` flag).
pub fn set_resume(enabled: bool) {
    RESUME.store(enabled, Ordering::Relaxed);
}

/// Whether journal resume is enabled for this process (shared with the
/// multi-process orchestrator, whose retry-counter journal obeys the same
/// `--no-resume` switch).
pub fn resume_enabled() -> bool {
    RESUME.load(Ordering::Relaxed)
}

/// The cache fingerprint of a prepared-task run: every cached artifact
/// derived from a `PreparedTask` records this and is a miss under any
/// other seed, scale configuration, kernel numerics version (cached rows
/// are float results of the tensor kernels) or corpus version (AutoMC
/// histories, and the tables built on them, follow the embeddings).
pub fn run_fingerprint(scale: &ExperimentScale, seed: u64) -> String {
    format!(
        "k{}|c{CORPUS_VERSION}|s{seed}|{}",
        automc_tensor::KERNEL_NUMERICS_VERSION,
        scale.fingerprint()
    )
}

/// The cache fingerprint of a seed-keyed global artifact (the experience
/// corpus, the embeddings): salted with the kernel numerics and corpus
/// versions like [`run_fingerprint`].
fn global_fingerprint(seed: u64, artifact: &str, numerics: u64, corpus: u64) -> String {
    format!("k{numerics}|c{corpus}|s{seed}|{artifact}")
}

/// One row of Table 2 / Table 3.
#[derive(Debug, Clone)]
pub struct FinalRow {
    /// Algorithm / method name.
    pub algorithm: String,
    /// Final parameter count.
    pub params: usize,
    /// Parameter reduction (%) vs base.
    pub pr: f32,
    /// Final FLOPs.
    pub flops: u64,
    /// FLOPs reduction (%) vs base.
    pub fr: f32,
    /// Final accuracy (%).
    pub acc: f32,
    /// Accuracy increase (%) vs base.
    pub inc: f32,
    /// The scheme behind the row (None for the baseline row).
    pub scheme: Option<Scheme>,
}

impl ToJson for FinalRow {
    fn to_json(&self) -> Value {
        obj(vec![
            ("algorithm", self.algorithm.to_json()),
            ("params", self.params.to_json()),
            ("pr", self.pr.to_json()),
            ("flops", self.flops.to_json()),
            ("fr", self.fr.to_json()),
            ("acc", self.acc.to_json()),
            ("inc", self.inc.to_json()),
            ("scheme", self.scheme.to_json()),
        ])
    }
}

impl FromJson for FinalRow {
    fn from_json(v: &Value) -> Option<Self> {
        Some(FinalRow {
            algorithm: field(v, "algorithm")?,
            params: field(v, "params")?,
            pr: field(v, "pr")?,
            flops: field(v, "flops")?,
            fr: field(v, "fr")?,
            acc: field(v, "acc")?,
            inc: field(v, "inc")?,
            scheme: field(v, "scheme")?,
        })
    }
}

impl FinalRow {
    /// Row for the uncompressed base model.
    pub fn baseline(task: &PreparedTask) -> FinalRow {
        FinalRow {
            algorithm: "baseline".into(),
            params: task.base_metrics.params,
            pr: 0.0,
            flops: task.base_metrics.flops,
            fr: 0.0,
            acc: task.base_metrics.acc * 100.0,
            inc: 0.0,
            scheme: None,
        }
    }

    fn from_metrics(
        algorithm: String,
        metrics: &Metrics,
        base: &Metrics,
        scheme: Option<Scheme>,
    ) -> FinalRow {
        FinalRow {
            algorithm,
            params: metrics.params,
            pr: metrics.pr(base) * 100.0,
            flops: metrics.flops,
            fr: metrics.fr(base) * 100.0,
            acc: metrics.acc * 100.0,
            inc: metrics.ar(base) * 100.0,
            scheme,
        }
    }
}

// ------------------------------------------------------------------------
// Human-designed method baselines (grid-searched, PR target fixed)
// ------------------------------------------------------------------------

/// A small grid of configurations per method at a fixed ratio — the
/// paper's "apply grid search to get their optimal hyperparameter
/// settings", shrunk to stay within the repro budget.
pub fn method_grid(method: MethodId, ratio: f32) -> Vec<StrategySpec> {
    match method {
        MethodId::Lma => vec![
            StrategySpec::Lma { ft_epochs: 0.3, ratio, temperature: 3.0, alpha: 0.5 },
            StrategySpec::Lma { ft_epochs: 0.5, ratio, temperature: 6.0, alpha: 0.3 },
            StrategySpec::Lma { ft_epochs: 0.5, ratio, temperature: 3.0, alpha: 0.99 },
        ],
        MethodId::Legr => vec![
            StrategySpec::Legr {
                ft_epochs: 0.4,
                ratio,
                max_prune: 0.7,
                evo_epochs: 0.4,
                criterion: Criterion::L2Weight,
            },
            StrategySpec::Legr {
                ft_epochs: 0.5,
                ratio,
                max_prune: 0.9,
                evo_epochs: 0.5,
                criterion: Criterion::L2BnParam,
            },
            StrategySpec::Legr {
                ft_epochs: 0.4,
                ratio,
                max_prune: 0.9,
                evo_epochs: 0.4,
                criterion: Criterion::L1Weight,
            },
        ],
        MethodId::Ns => vec![
            StrategySpec::Ns { ft_epochs: 0.4, ratio, max_prune: 0.7 },
            StrategySpec::Ns { ft_epochs: 0.5, ratio, max_prune: 0.9 },
        ],
        MethodId::Sfp => vec![
            StrategySpec::Sfp { ratio, bp_epochs: 0.3, update_freq: 1 },
            StrategySpec::Sfp { ratio, bp_epochs: 0.5, update_freq: 3 },
        ],
        MethodId::Hos => vec![
            StrategySpec::Hos {
                ft_epochs: 0.3,
                ratio,
                global: 1,
                criterion: Criterion::K34,
                opt_epochs: 0.3,
                mse_factor: 1.0,
            },
            StrategySpec::Hos {
                ft_epochs: 0.4,
                ratio,
                global: 2,
                criterion: Criterion::SkewKur,
                opt_epochs: 0.4,
                mse_factor: 3.0,
            },
        ],
        MethodId::Lfb => vec![
            StrategySpec::Lfb { ft_epochs: 0.4, ratio, aux_factor: 1.0, aux_loss: AuxKind::Ce },
            StrategySpec::Lfb { ft_epochs: 0.5, ratio, aux_factor: 3.0, aux_loss: AuxKind::Mse },
        ],
    }
}

/// Grid-search a method on the search sample, then run the winning config
/// on the full training data and report its row. `fresh` discards any
/// cached row (the grid rows previously ignored `--fresh` and always
/// reused the cache); an in-progress grid checkpoint still resumes unless
/// `--no-resume` was given.
pub fn method_baseline_row(
    task: &PreparedTask,
    method: MethodId,
    ratio: f32,
    seed: u64,
    fresh: bool,
) -> FinalRow {
    let key = format!(
        "method_{}_{}_{}_r{}_s{seed}",
        task.scale.name,
        task.base_model.kind,
        method.name(),
        (ratio * 100.0) as u32
    )
    .replace(['-', ' '], "_");
    let fp = run_fingerprint(&task.scale, seed);
    cache::load_or(&key, &fp, fresh, || {
        method_baseline_row_uncached(task, method, ratio, seed, &key, &fp)
    })
}

/// Transfer-study variant: skip per-target grid selection (Table 3 has
/// 4 extra models × 6 methods; re-running the grid on every target would
/// dominate the budget) and run the grid's lead configuration directly.
pub fn method_row_quick(
    task: &PreparedTask,
    method: MethodId,
    ratio: f32,
    seed: u64,
    fresh: bool,
) -> FinalRow {
    let key = format!(
        "methodq_{}_{}_{}_r{}_s{seed}",
        task.scale.name,
        task.base_model.kind,
        method.name(),
        (ratio * 100.0) as u32
    )
    .replace(['-', ' '], "_");
    let fp = run_fingerprint(&task.scale, seed);
    cache::load_or(&key, &fp, fresh, || {
        let mut rng = rng_for_task(seed ^ 0x7A00, method as u64);
        let spec = method_grid(method, ratio)[0];
        let mut model = task.base_model.clone_net();
        if supervised_apply(&spec, &mut model, &task.train_set, &task.exec, &mut rng).is_some() {
            let metrics = Metrics::measure(&mut model, &task.test_set);
            FinalRow::from_metrics(method.name().into(), &metrics, &task.base_metrics, None)
        } else {
            degraded_row(method.name(), "run failed")
        }
    })
}

/// Apply one strategy under supervision: `catch_unwind` isolation plus
/// divergence detection. `None` means the application panicked or its
/// training diverged — the half-modified model must be discarded.
fn supervised_apply(
    spec: &StrategySpec,
    model: &mut ConvNet,
    data: &ImageSet,
    exec: &ExecConfig,
    rng: &mut Rng,
) -> Option<()> {
    let injected = fault::tick("eval");
    divergence::reset();
    let result = {
        let model_ref = &mut *model;
        let rng_ref = &mut *rng;
        catch_unwind(AssertUnwindSafe(move || {
            if injected == Some(FaultKind::Panic) {
                panic!("{}", fault::INJECTED_PANIC_MSG);
            }
            automc_compress::apply_strategy(spec, model_ref, data, exec, rng_ref);
        }))
    };
    match result {
        Ok(()) => {
            if divergence::take() {
                eprintln!(
                    "[harness] {} configuration diverged; skipping",
                    spec.method().name()
                );
                None
            } else {
                Some(())
            }
        }
        Err(payload) => {
            divergence::reset();
            eprintln!(
                "[harness] {} configuration panicked ({}); skipping",
                spec.method().name(),
                fault::payload_message(payload.as_ref())
            );
            None
        }
    }
}

/// The degraded row reported when a result could not be produced — every
/// attempt at a method failed, or (in sharded runs) the owning worker
/// exhausted its retry budget: zero metrics, clearly labelled, never
/// mistakable for a real result.
pub fn degraded_row(name: &str, why: &str) -> FinalRow {
    FinalRow {
        algorithm: format!("{name} ({why})"),
        params: 0,
        pr: 0.0,
        flops: 0,
        fr: 0.0,
        acc: 0.0,
        inc: 0.0,
        scheme: None,
    }
}

fn method_baseline_row_uncached(
    task: &PreparedTask,
    method: MethodId,
    ratio: f32,
    seed: u64,
    key: &str,
    fp: &str,
) -> FinalRow {
    // Task-id derivation keeps every (method, ratio) pair on its own RNG
    // stream; the previous `seed ^ label-length` scheme collided for
    // methods whose labels happened to share a length.
    let mut rng = rng_for_task(seed, ((ratio * 100.0) as u64) << 8 | method as u64);
    let grid = method_grid(method, ratio);
    // The grid checkpoints as a search journal after every configuration:
    // `round` counts the scored configurations and `state` holds the best
    // `(sample accuracy, grid index)` so far. Select by quick evaluation
    // on the sample; failed configurations are skipped rather than
    // aborting the whole table.
    let journal_path = cache::cache_dir().join(format!("{key}.journal"));
    let mut journal_to = Some(journal_path.as_path());
    let jfp = journal::fnv1a64(format!("gridckpt-v1|{fp}|{key}").as_bytes());
    let mut best: Option<(f32, usize)> = None;
    let mut start = 0usize;
    if resume_enabled() {
        if let Some(j) = journal::load(&journal_path, jfp) {
            start = (j.round as usize).min(grid.len());
            best = best_from_bytes(&j.state);
            rng = Rng::from_state(j.rng);
            fault::restore_counters(&j.fault_counters);
            eprintln!(
                "[journal] resumed {}@{ratio} grid at configuration {start}/{}",
                method.name(),
                grid.len()
            );
        }
    }
    for (i, spec) in grid.iter().enumerate().skip(start) {
        journal::record_eval_intent(journal_to, jfp);
        let mut model = task.base_model.clone_net();
        if supervised_apply(spec, &mut model, &task.search_sample, &task.exec, &mut rng).is_some()
        {
            let acc = automc_models::train::evaluate(&mut model, &task.search_eval);
            if acc.is_finite() && best.map_or(true, |(b, _)| acc > b) {
                best = Some((acc, i));
            }
        }
        let history = SearchHistory::default();
        let state = best_to_bytes(best);
        journal::checkpoint_round(&mut journal_to, jfp, i as u64 + 1, 0, &rng, &history, state);
    }
    let row = (|| {
        let Some((_, best_idx)) = best else {
            eprintln!(
                "[harness] {}@{ratio}: every grid configuration failed; reporting degraded row",
                method.name()
            );
            return degraded_row(method.name(), "all configurations failed");
        };
        // Final run on the full training split. Not checkpointed: a kill
        // here resumes past the fully-recorded grid and redoes only this
        // run, with the RNG stream restored from the last checkpoint.
        journal::record_eval_intent(journal_to, jfp);
        let mut model = task.base_model.clone_net();
        if supervised_apply(&grid[best_idx], &mut model, &task.train_set, &task.exec, &mut rng)
            .is_none()
        {
            return degraded_row(method.name(), "final run failed");
        }
        let metrics = Metrics::measure(&mut model, &task.test_set);
        FinalRow::from_metrics(method.name().into(), &metrics, &task.base_metrics, None)
    })();
    journal::discard(&journal_path);
    row
}

/// Encode a grid checkpoint's best-so-far `(sample accuracy, grid index)`
/// as its journal `state` (empty before any configuration succeeded).
pub(crate) fn best_to_bytes(best: Option<(f32, usize)>) -> Vec<u8> {
    best.map_or(Vec::new(), |(acc, idx)| {
        [acc.to_le_bytes().as_slice(), &(idx as u64).to_le_bytes()].concat()
    })
}

/// Decode [`best_to_bytes`].
pub(crate) fn best_from_bytes(b: &[u8]) -> Option<(f32, usize)> {
    let acc = f32::from_le_bytes(b.get(..4)?.try_into().ok()?);
    let idx = u64::from_le_bytes(b.get(4..12)?.try_into().ok()?);
    Some((acc, idx as usize))
}

// ------------------------------------------------------------------------
// Embedding pipeline (Algorithm 1) with caching
// ------------------------------------------------------------------------

/// Serialisable mirror of the experience corpus.
struct CorpusDto {
    records: Vec<(usize, Vec<f32>, f32, f32)>,
}

impl ToJson for CorpusDto {
    fn to_json(&self) -> Value {
        obj(vec![("records", self.records.to_json())])
    }
}

impl FromJson for CorpusDto {
    fn from_json(v: &Value) -> Option<Self> {
        Some(CorpusDto { records: field(v, "records")? })
    }
}

/// `cache::load_or` with a read-only fallback store for *global*
/// artifacts — the experience corpus and the embeddings are seed-keyed
/// and task-independent, so a sharded worker can reuse the copy its
/// supervisor already computed instead of re-deriving it (the dominant
/// fixed cost of a run). `AUTOMC_SHARED_RESULTS_DIR` names the fallback
/// store (the supervisor's own result dir; never written by workers); a
/// fallback hit is copied into the primary store so later lookups are
/// local.
pub fn load_or_shared<T: ToJson + FromJson>(
    key: &str,
    fingerprint: &str,
    fresh: bool,
    compute: impl FnOnce() -> T,
) -> T {
    cache::load_or(key, fingerprint, fresh, || {
        let shared = std::env::var("AUTOMC_SHARED_RESULTS_DIR").ok().filter(|d| !d.is_empty());
        let hit = shared.filter(|_| !fresh).and_then(|dir| {
            cache::load_from(std::path::Path::new(&dir), key, fingerprint)
        });
        match hit {
            Some(v) => {
                eprintln!("[cache] reusing {key} from shared store");
                v
            }
            None => compute(),
        }
    })
}

/// Generate the experience corpus for a strategy space, uncached: 36
/// records on each of two pre-trained micro tasks, built concurrently;
/// micro task `t` draws its initial weights and pre-training from
/// `rng_for_task(seed ^ 0xE0, t)` alone.
pub fn generate_corpus(space: &StrategySpace, seed: u64) -> ExperienceCorpus {
    let specs = [(ModelKind::ResNet(20), 4, 901), (ModelKind::Vgg(13), 8, 902)];
    let tasks = par::par_map(specs.len(), |t| {
        let (model, width, data_seed) = specs[t];
        let mut rng = rng_for_task(seed ^ 0xE0, t as u64);
        MicroTask::new(
            automc_data::SyntheticKind::Cifar10Like,
            model,
            width,
            240,
            120,
            4.0,
            data_seed,
            &mut rng,
        )
    });
    let exec = ExecConfig { pretrain_epochs: 4.0, ..Default::default() };
    generate_experience(space, &tasks, 36, &exec, seed ^ 0xE2)
}

/// Generate (or load) the experience corpus for a strategy space.
pub fn experience_corpus(
    space: &StrategySpace,
    space_tag: &str,
    seed: u64,
    fresh: bool,
) -> ExperienceCorpus {
    let key = format!("corpus_{space_tag}_s{seed}");
    // The corpus micro-tasks are hard-coded, so the seed alone pins them.
    let fp = global_fingerprint(
        seed,
        "corpus",
        automc_tensor::KERNEL_NUMERICS_VERSION,
        CORPUS_VERSION,
    );
    let dto = load_or_shared(&key, &fp, fresh, || {
        eprintln!("[harness] generating experience corpus ({space_tag})…");
        let started = std::time::Instant::now();
        let corpus = generate_corpus(space, seed);
        eprintln!(
            "[harness] experience corpus: {} records, {} dropped by supervision, {:.1}s",
            corpus.records.len(),
            corpus.dropped,
            started.elapsed().as_secs_f32()
        );
        CorpusDto {
            records: corpus
                .records
                .iter()
                .map(|r| (r.strategy, r.task.clone(), r.ar, r.pr))
                .collect(),
        }
    });
    let mut corpus = ExperienceCorpus::empty(7);
    for (sid, task, ar, pr) in dto.records {
        corpus.push(ExperienceRecord { strategy: sid, task, ar, pr });
    }
    corpus
}

/// Learn (or load) Algorithm 1 embeddings for a space.
pub fn automc_embeddings(
    space: &StrategySpace,
    space_tag: &str,
    seed: u64,
    fresh: bool,
    use_kg: bool,
    use_experience: bool,
) -> Vec<Vec<f32>> {
    let key = format!(
        "emb_{space_tag}_s{seed}_kg{}_exp{}",
        use_kg as u8, use_experience as u8
    );
    let fp =
        global_fingerprint(seed, "emb", automc_tensor::KERNEL_NUMERICS_VERSION, CORPUS_VERSION);
    load_or_shared(&key, &fp, fresh, || {
        let corpus = experience_corpus(space, space_tag, seed, fresh);
        eprintln!("[harness] learning embeddings ({key})…");
        let mut rng = rng_from_seed(seed ^ 0xE1);
        learn_embeddings(
            space,
            &corpus,
            &EmbeddingConfig::default(),
            use_kg,
            use_experience,
            &mut rng,
        )
    })
}

// ------------------------------------------------------------------------
// Search runners with caching
// ------------------------------------------------------------------------

/// The four AutoML algorithms of the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// AutoMC (progressive + knowledge embeddings).
    AutoMc,
    /// Multi-objective EA baseline.
    Evolution,
    /// Recurrent-controller REINFORCE baseline.
    Rl,
    /// Random search baseline.
    Random,
}

impl Algo {
    /// All four, reporting order.
    pub const ALL: [Algo; 4] = [Algo::AutoMc, Algo::Evolution, Algo::Rl, Algo::Random];

    /// Display/cache name.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::AutoMc => "AutoMC",
            Algo::Evolution => "Evolution",
            Algo::Rl => "RL",
            Algo::Random => "Random",
        }
    }
}

/// Options threaded through the public job-unit API ([`run_search_with`],
/// [`table2_rows_with`]) — how an embedding caller (the serve daemon)
/// observes and steers a run without changing its results.
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Round observer: streamed progress plus cooperative cancellation at
    /// round boundaries (see `automc_core::progress`).
    pub hook: automc_core::RoundHook,
    /// Directory for the search journals; defaults to the result cache
    /// dir. The serve daemon points this at a job-keyed directory
    /// (`journal::job_dir`) so concurrent jobs never share a journal file
    /// while a resubmitted job resumes its own.
    pub journal_dir: Option<std::path::PathBuf>,
}

/// Run one AutoML algorithm on a prepared task (cached). The
/// [`RunOpts`] hook observes every round and may cancel; the default
/// never does. Returns `None` when the run was cancelled — the partial
/// history is *not* cached (a later run must not mistake it for a
/// finished search) but the round journal stays on disk, so resubmitting
/// the same run resumes at the cancelled round.
#[allow(clippy::too_many_arguments)]
pub fn run_search_with(
    algo: Algo,
    task: &PreparedTask,
    space: &StrategySpace,
    embeddings: Option<&[Vec<f32>]>,
    seed: u64,
    fresh: bool,
    cache_tag: &str,
    run_opts: &RunOpts,
) -> Option<SearchHistory> {
    let key = format!("{cache_tag}_s{seed}_{}", algo.name().to_lowercase());
    let fp = run_fingerprint(&task.scale, seed);
    if !fresh {
        if let Some(v) = cache::load::<SearchHistory>(&key, &fp) {
            eprintln!("[cache] reusing {key}");
            return Some(v);
        }
    }
    let history = {
        eprintln!("[harness] running {} on {cache_tag}…", algo.name());
        // Per-algorithm RNG stream keyed by the enum discriminant: the old
        // `seed ^ name-length` derivation gave AutoMC and Random (both six
        // characters) the *same* stream.
        let mut rng = rng_for_task(seed, 0x5EA0 + algo as u64);
        // During search, A(M) is measured on the small search_eval subset
        // (the paper's GPU budget is dominated by training; at repro scale
        // full-test evaluation would dominate instead). Re-anchor the base
        // accuracy on that subset so AR is consistent.
        let mut probe = task.base_model.clone_net();
        let base_metrics = Metrics {
            acc: automc_models::train::evaluate(&mut probe, &task.search_eval),
            ..task.base_metrics
        };
        let ctx = SearchContext {
            space,
            base_model: &task.base_model,
            base_metrics,
            search_train: &task.search_sample,
            eval_set: &task.search_eval,
            exec: task.exec,
            max_len: 5,
            gamma: task.scale.gamma,
            budget: SearchBudget::new(task.scale.budget_units),
        };
        let started = std::time::Instant::now();
        let memo_before = automc_compress::memo::stats();
        // Journal each round next to the result cache (or in the caller's
        // job-keyed directory) so a killed run — of any of the four
        // algorithms — resumes (bitwise identically) instead of
        // restarting.
        let journal_dir =
            run_opts.journal_dir.clone().unwrap_or_else(cache::cache_dir);
        let opts = JournalOptions {
            path: Some(journal_dir.join(format!("{key}.journal"))),
            resume: resume_enabled(),
            abort_after_rounds: None,
            hook: run_opts.hook.clone(),
        };
        let history = match algo {
            Algo::AutoMc => {
                let emb = embeddings.expect("AutoMC needs embeddings").to_vec();
                progressive_search(&ctx, emb, &AutoMcConfig::default(), &mut rng, &opts)
            }
            Algo::Evolution => {
                evolution_search(&ctx, &EvolutionConfig::default(), &mut rng, &opts)
            }
            Algo::Rl => rl_search(&ctx, &RlConfig::default(), &mut rng, &opts),
            Algo::Random => random_search(&ctx, &mut rng, &opts),
        };
        eprintln!(
            "[harness] {} finished: {} evaluations, {:.1}s",
            algo.name(),
            history.records.len(),
            started.elapsed().as_secs_f32()
        );
        let memo = automc_compress::memo::stats().since(&memo_before);
        if memo.lookups > 0 {
            // Keep the hit-rate percentage inside the line's first
            // parenthesis: check.sh's memo gate parses it positionally.
            eprintln!(
                "[memo] {}: {}/{} prefix hits ({:.1}%), {} full, {} negative, \
                 {} steps / {} train images avoided, \
                 {} spilled / {} spill-evicted / {} healed",
                algo.name(),
                memo.prefix_hits,
                memo.lookups,
                memo.hit_rate_pct(),
                memo.full_hits,
                memo.neg_hits,
                memo.steps_avoided,
                memo.trained_images_avoided,
                memo.spilled,
                memo.spill_evictions,
                memo.healed
            );
        }
        history
    };
    if run_opts.hook.cancelled() {
        // Cancelled at a round boundary: the journal stays on disk for a
        // resumed run; the partial history must not enter the cache.
        eprintln!("[harness] {} on {cache_tag} cancelled; journal kept", algo.name());
        return None;
    }
    cache::store(&key, &fp, &history);
    Some(history)
}

// ------------------------------------------------------------------------
// Final evaluation of searched schemes
// ------------------------------------------------------------------------

/// The best scheme of a history within a PR band `[lo, hi)`, by accuracy.
pub fn best_scheme_in_band(history: &SearchHistory, lo: f32, hi: f32) -> Option<Scheme> {
    best_schemes_in_band(history, lo, hi, 1).into_iter().next()
}

/// The top-`k` schemes of a history within a PR band, by (search-time)
/// accuracy. The paper's protocol evaluates the selected Pareto set at
/// full scale, not a single scheme — re-ranking the top few at full scale
/// guards against subset overfitting.
pub fn best_schemes_in_band(history: &SearchHistory, lo: f32, hi: f32, k: usize) -> Vec<Scheme> {
    let mut in_band: Vec<&automc_core::EvalRecord> = history
        .records
        .iter()
        .filter(|r| r.is_feasible() && r.pr >= lo && r.pr < hi)
        .collect();
    in_band.sort_by(|a, b| b.acc.total_cmp(&a.acc));
    in_band.dedup_by(|a, b| a.scheme == b.scheme);
    in_band.into_iter().take(k).map(|r| r.scheme.clone()).collect()
}

/// Re-execute a scheme on the *full* training data (the paper's final
/// evaluation protocol — searched schemes are selected on the sample and
/// evaluated at full scale) and report its row.
pub fn final_row(
    name: &str,
    scheme: &Scheme,
    task: &PreparedTask,
    space: &StrategySpace,
    _seed: u64,
) -> FinalRow {
    let result = execute_scheme_checked(
        &task.base_model,
        &task.base_metrics,
        scheme,
        space,
        &task.train_set,
        &task.test_set,
        &task.exec,
    );
    match result {
        EvalOutcome::Ok { outcome, .. } => FinalRow::from_metrics(
            name.into(),
            &outcome.metrics,
            &task.base_metrics,
            Some(scheme.clone()),
        ),
        EvalOutcome::Diverged { step, .. } => {
            eprintln!("[harness] final evaluation of {name} diverged at step {step}");
            degraded_row(name, "final evaluation diverged")
        }
        EvalOutcome::Panicked { step, ref msg, .. } => {
            eprintln!("[harness] final evaluation of {name} panicked at step {step}: {msg}");
            degraded_row(name, "final evaluation panicked")
        }
        EvalOutcome::TimedOut { step, .. } => {
            eprintln!("[harness] final evaluation of {name} timed out at step {step}");
            degraded_row(name, "final evaluation timed out")
        }
    }
}

/// Evaluate one algorithm's search history in both PR bands (one row per
/// band, placeholder rows when the band is empty).
fn algo_band_rows(
    algo: Algo,
    history: &SearchHistory,
    task: &PreparedTask,
    space: &StrategySpace,
    seed: u64,
) -> Vec<(usize, FinalRow)> {
    let exp_gamma = task.scale.gamma;
    let mut out = Vec::with_capacity(2);
    for (band, lo, hi) in [(0usize, exp_gamma, 0.55f32), (1, 0.55, 0.90)] {
        // Evaluate the band's top candidates at full scale and report
        // the best — the paper evaluates the whole selected Pareto set.
        let candidates = best_schemes_in_band(history, lo, hi, 2);
        let best = candidates
            .iter()
            .map(|scheme| final_row(algo.name(), scheme, task, space, seed))
            .max_by(|a, b| a.acc.total_cmp(&b.acc));
        out.push((band, best.unwrap_or_else(|| degraded_row(algo.name(), "no scheme in band"))));
    }
    out
}

/// Number of independent task units in the Table 2 grid: twelve method
/// rows (method-major, ratio-minor) followed by the four AutoML searches,
/// in reporting order. The `table2` experiment runs these as units
/// `1..=table2_task_count()`, after the baseline row's unit 0.
pub fn table2_task_count() -> usize {
    MethodId::ALL.len() * 2 + Algo::ALL.len()
}

/// Run (or load) the full Table 2 pipeline for one experiment: method
/// baselines plus all four AutoML algorithms in both PR bands.
///
/// The baseline row, the twelve method-grid runs and the four AutoML
/// searches execute as `table2` task units on the in-process runner
/// ([`crate::runner::LocalRunner`]). Each unit derives its RNG from
/// `(seed, unit)` alone, so the resulting rows are identical at any
/// thread count; assembly order is fixed by unit index, never by
/// completion order.
pub fn table2_rows(
    exp: &ExperimentScale,
    seed: u64,
    fresh: bool,
) -> (Vec<FinalRow>, Vec<FinalRow>) {
    // The default hook never cancels, so the grid always completes.
    table2_rows_with(exp, seed, fresh, &RunOpts::default()).unwrap_or_default()
}

/// [`table2_rows`] with [`RunOpts`] — the job unit the serve daemon runs.
/// The hook is polled before each unit and observes every search round.
/// Returns `None` when cancelled: the partial grid is *not* cached
/// (per-unit caches and round journals are, so a resubmitted job resumes
/// past everything already finished).
pub fn table2_rows_with(
    exp: &ExperimentScale,
    seed: u64,
    fresh: bool,
    run_opts: &RunOpts,
) -> Option<(Vec<FinalRow>, Vec<FinalRow>)> {
    let mut runner = crate::runner::LocalRunner::new(run_opts.clone());
    crate::orchestrator::fetch_table2(&mut runner, exp, seed, fresh)
}

// ------------------------------------------------------------------------
// Task units
// ------------------------------------------------------------------------
//
// Every experiment runs as *task units*: `(experiment, scale, seed, unit
// index, params)` tuples that any runner can execute from nothing but its
// own caches — the in-process runner on the thread pool, or a fleet
// worker over TCP (`crate::runner`). The binaries only merge payloads:
//
// | experiment | unit <i>                                   | payload |
// |------------|--------------------------------------------|---------|
// | `table2`   | 0 = baseline row; 1..=16 = grid task i−1   | `{rows, evals, failed}` |
// | `search`   | algorithm `Algo::ALL[i]` on the source task | `{history}` |
// | `table3`   | transfer target `table3_targets(scale)[i]`  | `{rows}` |
// | `fig5`     | ablation variant `FIG5_VARIANTS[i]`         | `{history}` |
//
// Units are deterministic functions of `(seed, scale, unit)` — the
// property that makes thread-, process- and network-level execution
// byte-identical. `params` carries cross-unit inputs computed by the
// caller (table3's searched schemes), so a unit never depends on a
// sibling's store.

/// A slot filled once and then shared: concurrent callers of the same key
/// wait for the one computation instead of repeating it.
type Slot<T> = Arc<OnceLock<Arc<T>>>;

/// Per-runner cache of prepared tasks and embeddings, shared by every
/// unit of a run (pool tasks or a worker's sequential units), so the base
/// model is pre-trained once per `(scale, model, seed)` and the
/// embeddings are loaded once per seed, not once per unit.
#[derive(Default)]
pub struct UnitCtx {
    tasks: Mutex<HashMap<String, Slot<PreparedTask>>>,
    embeddings: Mutex<HashMap<u64, Slot<Vec<Vec<f32>>>>>,
}

/// The slot for `key`, created empty on first use.
fn slot<K: std::hash::Hash + Eq, T>(map: &Mutex<HashMap<K, Slot<T>>>, key: K) -> Slot<T> {
    let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
    Arc::clone(map.entry(key).or_default())
}

impl UnitCtx {
    /// An empty context.
    pub fn new() -> UnitCtx {
        UnitCtx::default()
    }

    /// The prepared task for `(scale, model, seed)`, preparing it on
    /// first use. Keyed by the scale's fingerprint, not its name: a
    /// custom scale may reuse a standard scale's name.
    pub fn task_for(
        &self,
        scale: &ExperimentScale,
        model: ModelKind,
        seed: u64,
    ) -> Arc<PreparedTask> {
        let key = format!("{}|{model}|s{seed}", scale.fingerprint());
        let slot = slot(&self.tasks, key);
        let task = slot.get_or_init(|| {
            let task = crate::scale::prepare_task_for_model(scale, model, seed);
            eprintln!(
                "[harness] {} ({model}): base acc {:.2}%, {} params",
                scale.name,
                task.base_metrics.acc * 100.0,
                task.base_metrics.params
            );
            Arc::new(task)
        });
        Arc::clone(task)
    }

    /// The full-space knowledge embeddings for `seed`, loaded (or, with
    /// `fresh`, recomputed) on first use.
    pub fn embeddings(&self, seed: u64, fresh: bool) -> Arc<Vec<Vec<f32>>> {
        let slot = slot(&self.embeddings, seed);
        let emb = slot.get_or_init(|| {
            Arc::new(automc_embeddings(&StrategySpace::full(), "full", seed, fresh, true, true))
        });
        Arc::clone(emb)
    }
}

/// Whether `experiment`'s units read the knowledge embeddings — global
/// artifacts a runner computes once before fanning out: computed inside
/// one unit they would serialise every sibling behind them (and starve
/// the corpus's own parallel map of pool threads).
pub fn needs_embeddings(experiment: &str) -> bool {
    matches!(experiment, "table2" | "search")
}

/// Cache key under which a unit's payload is journaled — by the worker in
/// its own store (cheap re-delivery after a reconnect) and by the
/// supervisor in the merge journal (lossless replay after a restart).
pub fn unit_key(experiment: &str, scale_name: &str, seed: u64, unit: usize) -> String {
    format!("unit_{experiment}_{scale_name}_s{seed}_u{unit}")
}

/// The transfer targets of a scale, in reporting order (ascending depth,
/// source model included, duplicates removed — the smoke scale's source
/// *is* one of its transfer targets).
pub fn table3_targets(scale: &ExperimentScale) -> Vec<ModelKind> {
    let mut targets = vec![scale.model];
    targets.extend(crate::scale::transfer_targets(scale));
    targets.sort_by_key(|k| match k {
        ModelKind::ResNet(d) | ModelKind::Vgg(d) => *d,
    });
    targets.dedup();
    targets
}

/// One Table 3 target: the six human-designed methods at ratio 0.4 plus
/// the four searched schemes transferred onto `target` (cached per
/// target, so every runner shares results).
pub fn table3_target_rows(
    ctx: &UnitCtx,
    space: &StrategySpace,
    schemes: &[(String, Option<Scheme>)],
    scale: &ExperimentScale,
    target: ModelKind,
    seed: u64,
    fresh: bool,
) -> Vec<FinalRow> {
    let key = format!("table3_{}_{}_s{seed}", scale.name, target).replace(['-', ' '], "_");
    let fp = run_fingerprint(scale, seed);
    cache::load_or(&key, &fp, fresh, || {
        let task = ctx.task_for(scale, target, seed);
        let mut rows = Vec::new();
        for method in MethodId::ALL {
            eprintln!("[table3] {} on {target}…", method.name());
            rows.push(method_row_quick(&task, method, 0.4, seed, fresh));
        }
        for (name, scheme) in schemes {
            match scheme {
                Some(s) => {
                    eprintln!("[table3] transferring {name}'s scheme to {target}…");
                    rows.push(final_row(name, s, &task, space, seed));
                }
                None => rows.push(degraded_row(name, "no feasible scheme")),
            }
        }
        rows
    })
}

/// Encode table3's per-algorithm schemes as a task-frame `params` value.
pub fn schemes_to_params(schemes: &[(String, Option<Scheme>)]) -> Value {
    let arr = schemes
        .iter()
        .map(|(name, scheme)| {
            obj(vec![
                ("name", name.to_json()),
                (
                    "scheme",
                    scheme.as_ref().map_or(Value::Null, ToJson::to_json),
                ),
            ])
        })
        .collect();
    obj(vec![("schemes", Value::Arr(arr))])
}

/// Decode a table3 `params` value back into per-algorithm schemes.
pub fn schemes_from_params(params: &Value) -> Result<Vec<(String, Option<Scheme>)>, String> {
    let Some(arr) = params.get("schemes").and_then(Value::as_arr) else {
        return Err("table3 params carry no schemes array".into());
    };
    let mut out = Vec::with_capacity(arr.len());
    for entry in arr {
        let name: String =
            field(entry, "name").ok_or("table3 scheme entry has no name")?;
        let scheme = match entry.get("scheme") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                Scheme::from_json(v)
                    .ok_or_else(|| format!("table3 scheme for {name} is malformed"))?,
            ),
        };
        out.push((name, scheme));
    }
    Ok(out)
}

/// The Figure 5 ablation variants, unit order: drop the knowledge-graph
/// embedding, drop the experience refinement, restrict to LeGR
/// strategies. (The remaining two curves reuse the `search` units.)
pub const FIG5_VARIANTS: [&str; 3] = ["nokg", "noexp", "single"];

/// Run (or load) one Figure 5 ablation variant — the `fig5` task unit.
pub fn fig5_variant(
    ctx: &UnitCtx,
    scale: &ExperimentScale,
    idx: usize,
    seed: u64,
    fresh: bool,
) -> Result<SearchHistory, String> {
    let Some(&label) = FIG5_VARIANTS.get(idx) else {
        return Err(format!("fig5 has no variant {idx} (0..{})", FIG5_VARIANTS.len()));
    };
    let (use_kg, use_exp, legr) = match label {
        "nokg" => (false, true, false),
        "noexp" => (true, false, false),
        _ => (true, true, true),
    };
    let (space, space_tag) = if legr {
        (StrategySpace::for_methods(&[MethodId::Legr]), "legr")
    } else {
        (StrategySpace::full(), "full")
    };
    let key = format!("fig5_{}_{}_s{seed}", scale.name, label);
    let fp = run_fingerprint(scale, seed);
    let task = ctx.task_for(scale, scale.model, seed);
    Ok(cache::load_or(&key, &fp, fresh, || {
        eprintln!("[fig5] running {label} on {}…", scale.name);
        let emb = automc_embeddings(&space, space_tag, seed, false, use_kg, use_exp);
        let mut rng = rng_from_seed(seed ^ label.len() as u64);
        let mut probe = task.base_model.clone_net();
        let base_metrics = Metrics {
            acc: automc_models::train::evaluate(&mut probe, &task.search_eval),
            ..task.base_metrics
        };
        let ctx = SearchContext {
            space: &space,
            base_model: &task.base_model,
            base_metrics,
            search_train: &task.search_sample,
            eval_set: &task.search_eval,
            exec: task.exec,
            max_len: 5,
            gamma: scale.gamma,
            budget: SearchBudget::new(scale.budget_units),
        };
        let cfg = AutoMcConfig::default();
        progressive_search(&ctx, emb, &cfg, &mut rng, &JournalOptions::default())
    }))
}

/// Number of units in `experiment` at `scale`; `None` for an unknown
/// experiment name.
pub fn unit_count(experiment: &str, scale: &ExperimentScale) -> Option<usize> {
    match experiment {
        "table2" => Some(table2_task_count() + 1),
        "search" => Some(Algo::ALL.len()),
        "table3" => Some(table3_targets(scale).len()),
        "fig5" => Some(FIG5_VARIANTS.len()),
        _ => None,
    }
}

/// Execute one task unit and return its payload. Pure in the distributed
/// sense: everything a unit needs arrives in the arguments (plus the
/// runner's own caches), and the payload JSON carries everything the
/// merge needs. Errors are returned, never panicked — the in-process
/// runner degrades the unit, the fleet forwards them as `result`-frame
/// errors and retries or degrades. The [`RunOpts`] hook is polled before
/// the unit starts and observes each search round; a cancelled unit is an
/// error, and its caller must discard the partial run.
#[allow(clippy::too_many_arguments)]
pub fn run_unit(
    ctx: &UnitCtx,
    experiment: &str,
    scale: &ExperimentScale,
    seed: u64,
    unit: usize,
    fresh: bool,
    params: &Value,
    run_opts: &RunOpts,
) -> Result<Value, String> {
    let total = unit_count(experiment, scale)
        .ok_or_else(|| format!("unknown experiment {experiment:?}"))?;
    if unit >= total {
        return Err(format!("{experiment} has no unit {unit} (0..{total})"));
    }
    let cancelled = || "cancelled".to_string();
    if run_opts.hook.cancelled() {
        return Err(cancelled());
    }
    let space = StrategySpace::full();
    let search = |algo: Algo| {
        let task = ctx.task_for(scale, scale.model, seed);
        let emb = ctx.embeddings(seed, false);
        let history =
            run_search_with(algo, &task, &space, Some(&emb[..]), seed, fresh, scale.name, run_opts);
        history.map(|h| (h, task)).ok_or_else(cancelled)
    };
    match experiment {
        "table2" => {
            let n_method_tasks = MethodId::ALL.len() * 2;
            let (rows, evals, failed) = if unit == 0 {
                let task = ctx.task_for(scale, scale.model, seed);
                (vec![(0usize, FinalRow::baseline(&task))], 0usize, 0usize)
            } else if unit - 1 < n_method_tasks {
                let i = unit - 1;
                let (method, ratio) = (MethodId::ALL[i / 2], if i % 2 == 0 { 0.4 } else { 0.7 });
                eprintln!("[harness] {}: method {} @{ratio}…", scale.name, method.name());
                let task = ctx.task_for(scale, scale.model, seed);
                (vec![(i % 2, method_baseline_row(&task, method, ratio, seed, fresh))], 0, 0)
            } else {
                let algo = Algo::ALL[unit - 1 - n_method_tasks];
                let (history, task) = search(algo)?;
                let (evals, failed) = (history.records.len(), history.failed_count());
                (algo_band_rows(algo, &history, &task, &space, seed), evals, failed)
            };
            Ok(obj(vec![
                ("rows", rows.to_json()),
                ("evals", evals.to_json()),
                ("failed", failed.to_json()),
            ]))
        }
        "search" => {
            let (history, _) = search(Algo::ALL[unit])?;
            Ok(obj(vec![("history", history.to_json())]))
        }
        "table3" => {
            let schemes = schemes_from_params(params)?;
            let target = table3_targets(scale)[unit];
            let rows = table3_target_rows(ctx, &space, &schemes, scale, target, seed, fresh);
            Ok(obj(vec![("rows", rows.to_json())]))
        }
        "fig5" => {
            let history = fig5_variant(ctx, scale, unit, seed, fresh)?;
            Ok(obj(vec![("history", history.to_json())]))
        }
        _ => Err(format!("unknown experiment {experiment:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::{exp1, prepare_task};

    #[test]
    fn method_grids_fix_ratio() {
        for m in MethodId::ALL {
            let grid = method_grid(m, 0.37);
            assert!(!grid.is_empty());
            for spec in grid {
                assert!((spec.ratio() - 0.37).abs() < 1e-6);
                assert_eq!(spec.method(), m);
            }
        }
    }

    #[test]
    fn band_selection_prefers_accuracy() {
        let mut h = SearchHistory::new("t");
        let rec = |pr: f32, acc: f32, scheme: Scheme| automc_core::EvalRecord {
            scheme,
            pr,
            fr: pr,
            ar: 0.0,
            acc,
            params: 10,
            flops: 10,
            cost_so_far: 1,
            status: automc_core::EvalStatus::Ok,
        };
        h.records.push(rec(0.4, 0.8, vec![1]));
        h.records.push(rec(0.45, 0.9, vec![2]));
        h.records.push(rec(0.7, 0.85, vec![3]));
        assert_eq!(best_scheme_in_band(&h, 0.3, 0.55), Some(vec![2]));
        assert_eq!(best_scheme_in_band(&h, 0.55, 0.9), Some(vec![3]));
        assert_eq!(best_scheme_in_band(&h, 0.8, 0.9), None);
    }

    #[test]
    fn table3_scheme_params_round_trip() {
        let schemes = vec![
            ("AutoMC".to_string(), Some(vec![3, 1, 4])),
            ("RL".to_string(), None),
        ];
        let params = schemes_to_params(&schemes);
        assert_eq!(schemes_from_params(&params), Ok(schemes));
        assert!(schemes_from_params(&Value::Null).is_err());
    }

    #[test]
    fn top_k_band_selection_dedups_and_orders() {
        let mut h = SearchHistory::new("t");
        let rec = |pr: f32, acc: f32, scheme: Scheme| automc_core::EvalRecord {
            scheme,
            pr,
            fr: pr,
            ar: 0.0,
            acc,
            params: 10,
            flops: 10,
            cost_so_far: 1,
            status: automc_core::EvalStatus::Ok,
        };
        h.records.push(rec(0.4, 0.8, vec![1]));
        h.records.push(rec(0.4, 0.8, vec![1])); // duplicate scheme
        h.records.push(rec(0.42, 0.85, vec![2]));
        h.records.push(rec(0.44, 0.7, vec![3]));
        let top = best_schemes_in_band(&h, 0.3, 0.55, 2);
        assert_eq!(top, vec![vec![2], vec![1]]);
    }

    #[test]
    fn a_numerics_bump_misses_the_global_artifacts() {
        let (v, c) = (automc_tensor::KERNEL_NUMERICS_VERSION, CORPUS_VERSION);
        for artifact in ["corpus", "emb"] {
            let key = format!("unit-test-numerics-{artifact}");
            cache::store(&key, &global_fingerprint(5, artifact, v, c), &vec![1u32]);
            let hit: Option<Vec<u32>> =
                cache::load(&key, &global_fingerprint(5, artifact, v, c));
            assert_eq!(hit, Some(vec![1]));
            let bumped: Option<Vec<u32>> =
                cache::load(&key, &global_fingerprint(5, artifact, v + 1, c));
            assert_eq!(bumped, None, "{artifact}: another numerics version must miss");
            let _ = std::fs::remove_file(cache::cache_path(&key));
        }
    }

    #[test]
    fn entries_from_an_older_corpus_version_miss() {
        let v = automc_tensor::KERNEL_NUMERICS_VERSION;
        let old = CORPUS_VERSION - 1;
        for artifact in ["corpus", "emb"] {
            let key = format!("unit-test-corpus-version-{artifact}");
            cache::store(&key, &global_fingerprint(5, artifact, v, old), &vec![1u32]);
            let stale: Option<Vec<u32>> =
                cache::load(&key, &global_fingerprint(5, artifact, v, CORPUS_VERSION));
            assert_eq!(stale, None, "{artifact}: an older corpus version must miss");
            let _ = std::fs::remove_file(cache::cache_path(&key));
        }
        // Histories, table rows and journals keyed by the run fingerprint
        // written before the corpus version joined it.
        let scale = crate::scale::smoke();
        let key = "unit-test-corpus-version-run";
        cache::store(key, &format!("k{v}|s5|{}", scale.fingerprint()), &vec![1u32]);
        let stale: Option<Vec<u32>> = cache::load(key, &run_fingerprint(&scale, 5));
        assert_eq!(stale, None, "a run fingerprint without the corpus version must miss");
        let _ = std::fs::remove_file(cache::cache_path(key));
    }

    #[test]
    fn algo_names_unique() {
        let names: std::collections::HashSet<_> =
            Algo::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn baseline_row_reflects_task() {
        let small = ExperimentScale { train: 80, test: 40, pretrain_epochs: 0.5, ..exp1() };
        let task = prepare_task(&small, 3);
        let row = FinalRow::baseline(&task);
        assert_eq!(row.params, task.base_metrics.params);
        assert_eq!(row.pr, 0.0);
    }
}
