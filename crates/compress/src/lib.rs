//! # automc-compress
//!
//! The compression-strategy search space (paper Table 1) and from-scratch
//! implementations of the six compression methods AutoMC composes:
//!
//! | Label | Method | Core technique |
//! |-------|--------|----------------|
//! | C1 | LMA  | knowledge distillation into a thinner student |
//! | C2 | LeGR | filter pruning with an EA-learned global ranking |
//! | C3 | NS   | channel pruning by BN scaling factors (network slimming) |
//! | C4 | SFP  | soft filter pruning during back-propagation |
//! | C5 | HOS  | higher-order-statistics pruning + low-rank kernel approx |
//! | C6 | LFB  | low-rank filter-basis sharing |
//!
//! A *compression strategy* is a method plus one concrete hyperparameter
//! setting ([`StrategySpec`]); the full grid ([`StrategySpace::full`])
//! enumerates 4,230 strategies (the paper reports 4,525 from a partially
//! garbled table — same order of magnitude, see `DESIGN.md` §4). A
//! *compression scheme* is a sequence of strategies executed in order
//! ([`Scheme`]); [`execute_scheme`] applies one to a model and reports the
//! paper's metrics `PR` / `FR` / `AR` plus the per-step deltas that AutoMC's
//! `F_mo` evaluator learns from.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod memo;
mod methods;
mod scheme;
mod space;
pub mod store;

pub use methods::{apply_strategy, ExecConfig};
pub use scheme::{
    execute_scheme, execute_scheme_checked, EvalCost, EvalOutcome, Metrics, Scheme,
    SchemeOutcome, StepRecord,
};
pub use space::{
    HpSetting, MethodId, StrategyId, StrategySpace, StrategySpec, HOS_GLOBAL, LFB_AUX,
};
