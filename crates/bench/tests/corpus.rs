//! The experience corpus as 72 independent supervised evaluations: the
//! corpus must not depend on the thread count or on memoization, a rerun
//! against a warm spill store must recompute no record, and an injected
//! evaluation fault must drop exactly the record it lands in.
//!
//! The tests share process-wide state (the memo cache, its enable switch
//! and its spill store), so they run one at a time under `LOCK`.

use automc_bench::harness::generate_corpus;
use automc_compress::{memo, StrategySpace};
use automc_knowledge::{ExperienceCorpus, ExperienceRecord};
use automc_tensor::fault::{self, FaultPlan};
use automc_tensor::par::with_threads;
use std::sync::{Mutex, MutexGuard, OnceLock};

const SEED: u64 = 21;
const RECORDS: usize = 72;

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The corpus at `threads` threads from a cold in-memory memo, with
/// memoization switched on or off for every thread.
fn corpus(threads: usize, memo_on: bool) -> ExperienceCorpus {
    memo::clear();
    memo::set_enabled_global(Some(memo_on));
    let c = with_threads(threads, || generate_corpus(&StrategySpace::full(), SEED));
    memo::set_enabled_global(None);
    c
}

/// The fault-free corpus at one thread with the memo off (call under
/// `LOCK`).
fn reference() -> &'static ExperienceCorpus {
    static REF: OnceLock<ExperienceCorpus> = OnceLock::new();
    REF.get_or_init(|| {
        let c = corpus(1, false);
        assert_eq!(c.records.len(), RECORDS, "the fault-free corpus drops nothing");
        assert_eq!(c.dropped, 0);
        c
    })
}

fn bits(r: &ExperienceRecord) -> (usize, Vec<u32>, u32, u32) {
    (r.strategy, r.task.iter().map(|v| v.to_bits()).collect(), r.ar.to_bits(), r.pr.to_bits())
}

fn assert_bitwise_eq(a: &[ExperienceRecord], b: &[ExperienceRecord], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: record count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(bits(x), bits(y), "{what}: record {i}");
    }
}

#[test]
fn corpus_is_identical_at_any_thread_count_and_memo_setting() {
    let _g = serial();
    let reference = reference();
    assert_bitwise_eq(&corpus(2, false).records, &reference.records, "2 threads, memo off");
    assert_bitwise_eq(&corpus(4, true).records, &reference.records, "4 threads, memo on");
}

#[test]
fn a_rerun_against_the_spill_store_recomputes_no_record() {
    let _g = serial();
    let reference = reference();
    let dir = std::env::temp_dir().join(format!("automc-corpus-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    memo::set_spill_dir(Some(dir.clone()));

    let cold = corpus(2, true);
    // Only the spill store survives: every record must be a full hit from
    // disk. One thread, so every lookup lands in this thread's counters.
    memo::clear();
    let before = memo::stats();
    let warm = corpus(1, true);
    let d = memo::stats().since(&before);

    memo::set_spill_dir(None);
    let _ = std::fs::remove_dir_all(&dir);
    assert_bitwise_eq(&cold.records, &reference.records, "cold spill run");
    assert_bitwise_eq(&warm.records, &reference.records, "warm spill run");
    assert_eq!(d.lookups, RECORDS as u64, "one memo lookup per record");
    assert_eq!(d.full_hits, RECORDS as u64, "every record is a full hit");
    // A strategy picked twice on one micro-task is the same memo entry:
    // its first lookup pulls it from disk, the second hits memory.
    let distinct: std::collections::HashSet<_> =
        reference.records.iter().map(|r| (bits(r).1, r.strategy)).collect();
    assert_eq!(d.spill_hits, distinct.len() as u64, "every entry is read back from disk");
    assert_eq!(d.steps_avoided, RECORDS as u64, "no strategy step is recomputed");
}

#[test]
fn an_eval_fault_drops_exactly_its_record() {
    let _g = serial();
    let reference = reference();
    let k = 40; // micro-task 1, fourth pick
    fault::install(FaultPlan::parse(&format!("panic@eval:{k}")).expect("valid plan"));
    let faulted = corpus(1, true);
    fault::clear();

    assert_eq!(faulted.dropped, 1, "exactly the faulted record is dropped");
    let mut expected = reference.records.clone();
    expected.remove(k - 1);
    assert_bitwise_eq(&faulted.records, &expected, "the other 71 records");
}
