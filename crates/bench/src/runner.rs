//! One experiment path: every experiment runs as [`harness::run_unit`]
//! task units on a [`Runner`], and there is no other way to run one.
//!
//! Two runners exist: [`LocalRunner`] maps the units over the in-process
//! thread pool, and [`crate::transport::DistRunner`] hands them to the
//! TCP worker fleet. [`crate::transport::fleet`] picks one from the
//! command line. Both return payloads aligned with the requested units,
//! `None` for a unit that could not be produced, and the experiment
//! merges in [`crate::orchestrator`] turn those payloads into rows or
//! histories — so an in-process run and a fleet run share every line
//! after the unit itself, and a lost unit degrades to the same labelled
//! rows on either.

use crate::harness::{self, run_unit, RunOpts, UnitCtx};
use crate::scale::ExperimentScale;
use automc_json::Value;
use automc_tensor::par;

/// Runs batches of task units.
pub trait Runner {
    /// Run `units` of `experiment` at `scale` and return their payloads,
    /// aligned with `units`: `None` for a unit that could not be produced
    /// (the caller's merge degrades it).
    fn run_units(
        &mut self,
        experiment: &str,
        scale: &ExperimentScale,
        seed: u64,
        fresh: bool,
        units: &[usize],
        params: &Value,
    ) -> Vec<Option<Value>>;

    /// Whether the run was cancelled: a merge over its payloads is
    /// partial and must not be cached.
    fn cancelled(&self) -> bool {
        false
    }

    /// Release whatever the runner holds (the fleet's workers). Idempotent.
    fn shutdown(&mut self) {}
}

/// The in-process runner: one pool task per unit, every unit sharing one
/// [`UnitCtx`] and the [`RunOpts`] hook and journal directory.
pub struct LocalRunner {
    ctx: UnitCtx,
    opts: RunOpts,
}

impl LocalRunner {
    /// A runner whose units observe (and may be cancelled by) `opts`.
    pub fn new(opts: RunOpts) -> LocalRunner {
        LocalRunner {
            ctx: UnitCtx::new(),
            opts,
        }
    }
}

impl Runner for LocalRunner {
    fn run_units(
        &mut self,
        experiment: &str,
        scale: &ExperimentScale,
        seed: u64,
        fresh: bool,
        units: &[usize],
        params: &Value,
    ) -> Vec<Option<Value>> {
        if self.opts.hook.cancelled() {
            return vec![None; units.len()];
        }
        // Shared set-up before fanning out, in this order (single-threaded
        // fault ordinals depend on it): the source task's base model —
        // table3 units each prepare their own target instead — then the
        // embeddings.
        if experiment != "table3" {
            self.ctx.task_for(scale, scale.model, seed);
        }
        if harness::needs_embeddings(experiment) {
            self.ctx.embeddings(seed, fresh);
        }
        let (ctx, opts) = (&self.ctx, &self.opts);
        par::par_map(units.len(), |i| {
            run_unit(ctx, experiment, scale, seed, units[i], fresh, params, opts)
                .map_err(|e| {
                    if !opts.hook.cancelled() {
                        eprintln!(
                            "[harness] {experiment} unit {}: {e}; degrading it",
                            units[i]
                        );
                    }
                })
                .ok()
        })
    }

    fn cancelled(&self) -> bool {
        self.opts.hook.cancelled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache;
    use crate::harness::{degraded_row, run_fingerprint, table3_targets, unit_key, FinalRow};
    use crate::orchestrator::{
        merge_table2, merge_table3, table2_degraded_unit, table3_degraded_target,
    };
    use crate::scale::{exp1, smoke};
    use automc_json::field;
    use automc_tensor::par::with_threads;

    fn schemes() -> Vec<(String, Option<automc_compress::Scheme>)> {
        vec![("AutoMC".into(), Some(vec![1, 2])), ("RL".into(), None)]
    }

    #[test]
    fn local_payloads_follow_unit_order_and_write_no_merge_journal() {
        // Cached target rows make every table3 unit a cache hit, so the
        // run trains nothing.
        let (scale, seed) = (exp1(), 0x0DE7_0001);
        let fp = run_fingerprint(&scale, seed);
        let targets = table3_targets(&scale);
        assert_eq!(targets.len(), 3);
        let key = |t: usize| {
            format!("table3_{}_{}_s{seed}", scale.name, targets[t]).replace(['-', ' '], "_")
        };
        for t in 0..targets.len() {
            cache::store(
                &key(t),
                &fp,
                &vec![degraded_row(&format!("target {t}"), "cached")],
            );
        }
        let units = [2, 0, 1];
        let params = harness::schemes_to_params(&schemes());
        let mut runner = LocalRunner::new(RunOpts::default());
        let payloads = with_threads(3, || {
            runner.run_units("table3", &scale, seed, false, &units, &params)
        });
        for (&u, payload) in units.iter().zip(&payloads) {
            let rows: Vec<FinalRow> = payload
                .as_ref()
                .and_then(|p| field(p, "rows"))
                .expect("a cached unit");
            assert_eq!(rows[0].algorithm, format!("target {u} (cached)"));
            let journal = cache::cache_path(&unit_key("table3", scale.name, seed, u));
            assert!(!journal.exists(), "{} must not exist", journal.display());
        }
        for t in 0..targets.len() {
            let _ = std::fs::remove_file(cache::cache_path(&key(t)));
        }
    }

    #[test]
    fn a_rejected_unit_merges_into_the_lost_unit_rows() {
        // No schemes in the params: run_unit rejects both table3 units
        // before any training.
        let mut runner = LocalRunner::new(RunOpts::default());
        let payloads = runner.run_units("table3", &smoke(), 5, false, &[0, 1], &Value::Null);
        assert_eq!(payloads, vec![None, None]);
        let names = |rows: &[FinalRow]| -> Vec<String> {
            rows.iter().map(|r| r.algorithm.clone()).collect()
        };
        let stand_in = names(&table3_degraded_target(&schemes()));
        assert!(
            stand_in.iter().all(|n| n.ends_with("(worker unavailable)")),
            "{stand_in:?}"
        );
        for rows in merge_table3(payloads, &schemes()) {
            assert_eq!(names(&rows), stand_in);
        }
        // The same holds for table2: a `None` payload merges into the
        // stand-ins of a unit the fleet lost, in unit order.
        let units: Vec<usize> = (0..harness::table2_task_count() + 1).collect();
        let ((band40, band70), _, lost) = merge_table2(&units, &vec![None; units.len()]);
        assert_eq!(lost, units.len());
        let mut want = (Vec::new(), Vec::new());
        for (band, row) in units.iter().flat_map(|&u| table2_degraded_unit(u)) {
            if band == 0 { &mut want.0 } else { &mut want.1 }.push(row.algorithm);
        }
        assert_eq!((names(&band40), names(&band70)), want);
    }
}
