//! Crash-safe round journal shared by all four search strategies and the
//! bench method grid, and the one checksummed record format that every
//! piece of resumable or cached state is written in.
//!
//! At the end of every search round the full resumable state — the
//! evaluation history, the algorithm's opaque learner state (`F_mo` for
//! AutoMC, the REINFORCE controller for RL, the population for the EA),
//! every extension node's model reference, the budget spent, the RNG
//! state, and the fault-injection counters — is written to one journal.
//!
//! Every journal, intent record, supervisor journal and result-cache
//! entry is a *record* ([`save_record`]/[`load_record`]): a JSON payload
//! tagged with the fingerprint of the run that wrote it, inside a
//! `{schema, checksum, payload}` envelope ([`save_checksummed`]) written
//! atomically with retry. The checks a record needs live here, once: an
//! FNV-1a 64 checksum (a torn, truncated or bit-flipped file is a miss,
//! moved aside into a `quarantine/` directory beside it); schema drift
//! (another [`SCHEMA_VERSION`] starts fresh, unquarantined); run identity
//! (another run's record is a logged miss); and retry-then-disable (a
//! save that still fails after its retries is returned to the caller,
//! which stops journaling or caching for the run, see
//! [`checkpoint_round`]).
//!
//! Node models live in a private [`BlobStore`] at `<journal>.blobs/`,
//! keyed by the FNV-1a 64 hash of their bytes: the journal references
//! hashes, a blob is published once when its node first appears, and each
//! successful save leaves the store holding exactly the referenced set
//! ([`BlobStore::retain`]) — so a round costs O(new nodes), not
//! O(frontier). A missing or corrupt (quarantined) blob invalidates the
//! journal. A journal without nodes — every baseline round and grid
//! configuration — never opens a store.
//!
//! Restoring a journal reproduces the interrupted run bitwise: resumed and
//! uninterrupted searches emit identical histories.

use crate::history::SearchHistory;
use automc_compress::store::{quarantine_file, write_atomic_retry, BlobStore};
use automc_compress::{EvalCost, Metrics, Scheme, StrategyId};
use automc_json::{field, obj, ToJson, Value};
use automc_tensor::fault::{self, FaultKind};
use automc_tensor::Rng;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

// The FNV-1a checksum lives in `automc_compress::store` (the blob store
// and this journal share one write discipline, and the store sits lower
// in the crate graph); re-exported for `journal::fnv1a64` callers.
pub use automc_compress::store::fnv1a64;

/// Hash a run fingerprint from a version tag, the run-shaping words
/// (problem instance + algorithm configuration), and the RNG's starting
/// state. Bump the tag whenever an algorithm's journal format or RNG
/// draw order changes — an old journal must not resume a new binary.
pub fn fingerprint(tag: &str, words: &[u64], rng_state: [u64; 4]) -> u64 {
    let mut buf: Vec<u8> = Vec::with_capacity(tag.len() + (words.len() + 4) * 8);
    buf.extend_from_slice(tag.as_bytes());
    for &w in words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    for w in rng_state {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    fnv1a64(&buf)
}

/// Lowercase hex encoding of a byte string.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Decode [`to_hex`] output; `None` on odd length or non-hex characters.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 || !s.is_ascii() {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

// ------------------------------------------------------------------------
// Checksummed records
// ------------------------------------------------------------------------

/// Version of the checksummed-envelope schema. Bump it whenever the
/// envelope or any payload format changes incompatibly; readers treat a
/// different version (an envelope without the field reads as v1) as
/// "from another era, start fresh" rather than as corruption.
pub const SCHEMA_VERSION: u64 = 3;

/// Wrap `payload` in a `{schema, checksum, payload}` envelope and write
/// it atomically with retry.
pub fn save_checksummed(path: &Path, payload: &str) -> io::Result<()> {
    let envelope = obj(vec![
        ("schema", SCHEMA_VERSION.to_json()),
        (
            "checksum",
            Value::Str(format!("{:016x}", fnv1a64(payload.as_bytes()))),
        ),
        ("payload", Value::Str(payload.to_string())),
    ]);
    write_atomic_retry(path, envelope.to_string_pretty().as_bytes())
}

/// Read a [`save_checksummed`] envelope back, validating the schema
/// version and the checksum. `None` on a missing file (silent — the
/// normal fresh-run case), on a schema from a different era (logged), or
/// on corruption (logged, and the file quarantined so the next save heals
/// it).
pub fn load_checksummed(path: &Path) -> Option<String> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
        Err(e) => {
            eprintln!("warning: cannot read {} ({e})", path.display());
            return None;
        }
    };
    let corrupt = |why: &str| {
        let moved = quarantine_file(path)
            .map_or("removed".into(), |d| format!("quarantined to {}", d.display()));
        eprintln!("warning: {} is corrupt ({why}); {moved}, starting fresh", path.display());
        None
    };
    let Some(envelope) = std::str::from_utf8(&bytes)
        .ok()
        .and_then(|text| automc_json::parse(text).ok())
    else {
        return corrupt("unparsable");
    };
    // Schema drift is not corruption: say so and start fresh.
    let schema = envelope.get("schema").and_then(|s| s.as_f64()).map_or(1, |s| s as u64);
    if schema != SCHEMA_VERSION {
        eprintln!(
            "warning: {} uses schema v{schema} (this build writes \
             v{SCHEMA_VERSION}); starting fresh",
            path.display()
        );
        return None;
    }
    let (Some(checksum), Some(payload)) = (
        envelope
            .get("checksum")
            .and_then(|c| c.as_str())
            .and_then(|c| u64::from_str_radix(c, 16).ok()),
        envelope.get("payload").and_then(|p| p.as_str()),
    ) else {
        return corrupt("malformed envelope");
    };
    if fnv1a64(payload.as_bytes()) != checksum {
        return corrupt("checksum mismatch");
    }
    Some(payload.to_string())
}

/// Write a record of the run `fingerprint`: `fields` plus the fingerprint
/// as one checksummed payload.
pub fn save_record(path: &Path, fingerprint: &str, fields: Vec<(&str, Value)>) -> io::Result<()> {
    let mut payload = vec![("fingerprint", Value::Str(fingerprint.to_string()))];
    payload.extend(fields);
    save_checksummed(path, &obj(payload).to_string_pretty())
}

/// Read back a [`save_record`] payload of the run `fingerprint`. Misses
/// are those of [`load_checksummed`] plus a record of a different run,
/// which is logged and ignored.
pub fn load_record(path: &Path, fingerprint: &str) -> Option<Value> {
    let payload = automc_json::parse(&load_checksummed(path)?).ok()?;
    let found = payload.get("fingerprint").and_then(|f| f.as_str()).unwrap_or("");
    if found != fingerprint {
        eprintln!(
            "warning: {} belongs to a different run \
             (fingerprint {found}, expected {fingerprint}); ignoring",
            path.display()
        );
        return None;
    }
    Some(payload)
}

fn fp_hex(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
}

// ------------------------------------------------------------------------
// Pre-eval intent records
// ------------------------------------------------------------------------

/// The sibling file holding a journal's pre-eval intent record.
pub fn intent_path(journal: &Path) -> PathBuf {
    let mut p = journal.as_os_str().to_owned();
    p.push(".intent");
    PathBuf::from(p)
}

/// Journal the *intent* to begin one supervised evaluation, before its
/// `eval` fault tick fires.
///
/// An `exit@eval:N` fault kills the process at the tick itself, so the
/// round journal — written only at round boundaries — still holds the
/// pre-eval counters. Restoring those re-arms the same ordinal and the
/// resumed run is killed again, forever. The intent record captures the
/// counters *as they will read after the tick* ("eval" bumped by one);
/// [`load`] max-merges it into the journal's counters so a fault that
/// already fired never re-arms.
///
/// Only written while a fault plan is active (no per-eval I/O otherwise)
/// and journaling is enabled; write errors are logged and ignored — an
/// intent record is an optimisation of resume, not required state.
pub fn record_eval_intent(journal_to: Option<&Path>, fingerprint: u64) {
    if !fault::plan_active() {
        return;
    }
    let Some(path) = journal_to else { return };
    let mut counters = fault::counters();
    match counters.iter_mut().find(|(site, _)| site == "eval") {
        Some((_, n)) => *n += 1,
        None => counters.push(("eval".to_string(), 1)),
    }
    counters.sort();
    let ip = intent_path(path);
    let fields = vec![("fault_counters", counters.to_json())];
    if let Err(e) = save_record(&ip, &fp_hex(fingerprint), fields) {
        eprintln!("warning: cannot write intent record {}: {e}", ip.display());
    }
}

/// Max-merge a matching intent record into restored fault counters.
fn merge_eval_intent(path: &Path, fingerprint: u64, counters: &mut Vec<(String, u64)>) {
    let Some(intent) = load_record(&intent_path(path), &fp_hex(fingerprint))
        .and_then(|v| field::<Vec<(String, u64)>>(&v, "fault_counters"))
    else {
        return;
    };
    for (site, n) in intent {
        match counters.iter_mut().find(|(s, _)| *s == site) {
            Some((_, cur)) => *cur = (*cur).max(n),
            None => counters.push((site, n)),
        }
    }
    counters.sort();
    eprintln!(
        "[journal] merged pre-eval intent record for {}",
        path.display()
    );
}

// ------------------------------------------------------------------------
// Worker heartbeats
// ------------------------------------------------------------------------

/// One worker heartbeat, sent by a distributed worker at a fixed cadence
/// and read by its supervisor. The supervisor tracks `seq` changes
/// against a wall-clock deadline to distinguish a hung worker from a slow
/// one; `eval` and `tasks_done` report *where* the worker is, for logs
/// and diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heartbeat {
    /// Worker shard index.
    pub worker: u64,
    /// OS process id of the emitting worker.
    pub pid: u64,
    /// Monotonic beat counter; a supervisor treats a worker whose `seq`
    /// has not advanced within its deadline as hung.
    pub seq: u64,
    /// Process-wide supervised-evaluation ordinal at emit time
    /// (`automc_tensor::fault::eval_ordinal`).
    pub eval: u64,
    /// Shard tasks completed so far.
    pub tasks_done: u64,
    /// True on the final beat, written after the last task's results are
    /// persisted.
    pub done: bool,
}

impl Heartbeat {
    /// JSON form, carried inside `beat` frames over the distributed task
    /// connection (the transport layer embeds it in its own envelope).
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("worker", self.worker.to_json()),
            ("pid", self.pid.to_json()),
            ("seq", self.seq.to_json()),
            ("eval", self.eval.to_json()),
            ("tasks_done", self.tasks_done.to_json()),
            ("done", self.done.to_json()),
        ])
    }

    /// Decode the JSON form; `None` on any missing field.
    pub fn from_json(v: &Value) -> Option<Self> {
        Some(Heartbeat {
            worker: field(v, "worker")?,
            pid: field(v, "pid")?,
            seq: field(v, "seq")?,
            eval: field(v, "eval")?,
            tasks_done: field(v, "tasks_done")?,
            done: field(v, "done")?,
        })
    }
}

// ------------------------------------------------------------------------
// The journal itself
// ------------------------------------------------------------------------

/// The sibling directory holding a journal's node-blob store.
pub fn blob_dir(journal: &Path) -> PathBuf {
    let mut dir = journal.as_os_str().to_owned();
    dir.push(".blobs");
    PathBuf::from(dir)
}

/// Crash-safety knobs shared by all four search strategies. The default
/// is no journaling — identical to the pre-journal behaviour.
#[derive(Debug, Clone, Default)]
pub struct JournalOptions {
    /// Journal file written after every round (`None` = no journaling).
    pub path: Option<PathBuf>,
    /// Attempt to resume from an existing journal at `path` before
    /// starting. A missing, corrupt, or mismatched journal falls back to
    /// a fresh run.
    pub resume: bool,
    /// Test hook: return (as if the process died) once this many rounds
    /// have completed, leaving the journal on disk for a resumed run.
    pub abort_after_rounds: Option<usize>,
    /// Progress/cancel observer invoked after every round's journal write
    /// (see [`crate::progress`]). A cancelled search returns its partial
    /// history and keeps its journal, exactly like `abort_after_rounds`.
    pub hook: crate::progress::RoundHook,
}

impl JournalOptions {
    /// Journal to `path`, resuming if a valid journal is already there.
    pub fn resuming(path: PathBuf) -> Self {
        JournalOptions { path: Some(path), resume: true, ..Default::default() }
    }
}

/// Per-job journal directory: `base/jobs/<job_id>/`, created on first
/// use. The serve daemon keys each job's journals by a spec-derived job
/// id, so concurrent jobs never share a journal file while a resubmitted
/// job (same spec → same id, even across a server crash) lands on the
/// same directory and resumes for free.
pub fn job_dir(base: &Path, job_id: &str) -> PathBuf {
    let dir = base.join("jobs").join(job_id);
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create job journal dir {}: {e}", dir.display());
    }
    dir
}

/// One extension node of the progressive search, with its compressed model
/// serialised by `automc_models::serialize`.
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    /// The strategy sequence that produced this node.
    pub scheme: Scheme,
    /// Measured metrics of the node's model.
    pub metrics: Metrics,
    /// Cumulative evaluation cost of producing this node from the base
    /// model (used for marginal budget charging when the node is
    /// extended).
    pub cost: EvalCost,
    /// Strategies already tried as one-step extensions (sorted).
    pub explored: Vec<StrategyId>,
    /// `automc_models::serialize::model_to_bytes` of the node's model.
    pub model: Vec<u8>,
}

impl NodeSnapshot {
    /// JSON form with the model replaced by its content hash; the bytes
    /// themselves live in the blob store.
    fn to_json_ref(&self, hash: u64) -> Value {
        obj(vec![
            ("scheme", self.scheme.to_json()),
            ("acc", self.metrics.acc.to_json()),
            ("params", self.metrics.params.to_json()),
            ("flops", self.metrics.flops.to_json()),
            ("cost_trained", self.cost.trained_images.to_json()),
            ("cost_eval", self.cost.eval_images.to_json()),
            ("explored", self.explored.to_json()),
            ("model_blob", Value::Str(fp_hex(hash))),
        ])
    }

    /// Decode a node, resolving its model from the blob store.
    fn from_json(v: &Value, blobs: &BlobStore) -> Option<Self> {
        let hash = u64::from_str_radix(v.get("model_blob")?.as_str()?, 16).ok()?;
        Some(NodeSnapshot {
            scheme: field(v, "scheme")?,
            metrics: Metrics {
                acc: field(v, "acc")?,
                params: field(v, "params")?,
                flops: field(v, "flops")?,
            },
            cost: EvalCost {
                trained_images: field(v, "cost_trained")?,
                eval_images: field(v, "cost_eval")?,
            },
            explored: field(v, "explored")?,
            model: blobs.get(hash)?,
        })
    }
}

/// The complete resumable state of one search run after a finished round.
/// Shared by all four searches and the bench method grid: the baselines
/// leave `nodes` empty and pack their learner into `state` (the
/// progressive search packs `F_mo` there).
#[derive(Debug, Clone)]
pub struct SearchJournal {
    /// Hash of everything that shapes the run; a mismatch means the
    /// journal belongs to a different run and must be ignored.
    pub fingerprint: u64,
    /// Number of completed rounds.
    pub round: u64,
    /// Budget units spent so far.
    pub spent: u64,
    /// xoshiro256** RNG state at the end of the round.
    pub rng: [u64; 4],
    /// Evaluation history so far.
    pub history: SearchHistory,
    /// Algorithm-opaque learner state (`Fmo::state_to_bytes` for AutoMC,
    /// controller weights for RL, the population for the EA, empty for
    /// random search).
    pub state: Vec<u8>,
    /// Every live extension node (progressive search only).
    pub nodes: Vec<NodeSnapshot>,
    /// Per-site fault-injection counters at the end of the round
    /// (`automc_tensor::fault::counters`), journaled so resume and
    /// `AUTOMC_FAULTS` compose: each planned fault fires exactly once
    /// across a kill/resume boundary. Empty outside fault-injection runs.
    pub fault_counters: Vec<(String, u64)>,
}

impl SearchJournal {
    fn fields(&self, hashes: &[u64]) -> Vec<(&'static str, Value)> {
        let rng_hex = self.rng.iter().map(|&w| Value::Str(fp_hex(w))).collect();
        let nodes = self
            .nodes
            .iter()
            .zip(hashes)
            .map(|(n, &h)| n.to_json_ref(h))
            .collect();
        vec![
            ("round", self.round.to_json()),
            ("spent", self.spent.to_json()),
            ("rng", Value::Arr(rng_hex)),
            ("history", self.history.to_json()),
            ("state", Value::Str(to_hex(&self.state))),
            ("nodes", Value::Arr(nodes)),
            ("fault_counters", self.fault_counters.to_json()),
        ]
    }

    fn from_json(v: &Value, fingerprint: u64, blob_dir: &Path) -> Option<Self> {
        let Value::Arr(rng_words) = v.get("rng")? else { return None };
        if rng_words.len() != 4 {
            return None;
        }
        let mut rng = [0u64; 4];
        for (dst, w) in rng.iter_mut().zip(rng_words) {
            *dst = u64::from_str_radix(w.as_str()?, 16).ok()?;
        }
        let Value::Arr(node_values) = v.get("nodes")? else { return None };
        let mut nodes = Vec::with_capacity(node_values.len());
        if !node_values.is_empty() {
            let blobs = BlobStore::open_private(blob_dir).ok()?;
            for nv in node_values {
                nodes.push(NodeSnapshot::from_json(nv, &blobs)?);
            }
        }
        Some(SearchJournal {
            fingerprint,
            round: field(v, "round")?,
            spent: field(v, "spent")?,
            rng,
            history: field(v, "history")?,
            state: from_hex(v.get("state")?.as_str()?)?,
            nodes,
            fault_counters: field(v, "fault_counters")?,
        })
    }
}

/// Persist a journal atomically: node models are published to the blob
/// store first (new blobs only), then the journal record is renamed into
/// place, then the store drops every blob the new journal no longer
/// references. A crash at any point leaves either the previous journal
/// (with all its blobs) or the new one intact.
pub fn save(path: &Path, journal: &SearchJournal) -> io::Result<()> {
    let hashes: Vec<u64> = journal.nodes.iter().map(|n| fnv1a64(&n.model)).collect();
    let dir = blob_dir(path);
    // No nodes and no store left over from earlier rounds: no blob I/O.
    let blobs = if journal.nodes.is_empty() && !dir.exists() {
        None
    } else {
        Some(BlobStore::open_private(&dir)?)
    };
    if let Some(blobs) = &blobs {
        for (node, &hash) in journal.nodes.iter().zip(&hashes) {
            blobs.try_publish(hash, &node.model)?;
        }
    }
    save_record(path, &fp_hex(journal.fingerprint), journal.fields(&hashes))?;
    if let Some(blobs) = blobs {
        blobs.retain(&hashes);
    }
    Ok(())
}

/// Load a journal, validating the record (checksum, schema, run
/// fingerprint) and every referenced blob. Any failure returns `None`:
/// a missing file silently (the normal fresh-run case), everything else
/// logged.
pub fn load(path: &Path, fingerprint: u64) -> Option<SearchJournal> {
    let record = load_record(path, &fp_hex(fingerprint))?;
    let Some(mut journal) = SearchJournal::from_json(&record, fingerprint, &blob_dir(path)) else {
        eprintln!(
            "warning: journal {} is incomplete; starting fresh",
            path.display()
        );
        return None;
    };
    merge_eval_intent(path, fingerprint, &mut journal.fault_counters);
    Some(journal)
}

/// Journal one completed round of a run without extension nodes (a
/// baseline search, or a method-grid configuration) through
/// [`checkpoint`].
pub fn checkpoint_round(
    journal_to: &mut Option<&Path>,
    fingerprint: u64,
    round: u64,
    spent: u64,
    rng: &Rng,
    history: &SearchHistory,
    state: Vec<u8>,
) {
    checkpoint(journal_to, || SearchJournal {
        fingerprint,
        round,
        spent,
        rng: rng.state(),
        history: history.clone(),
        state,
        nodes: Vec::new(),
        fault_counters: fault::counters(),
    });
}

/// Journal one completed round, applying the retry-then-disable policy:
/// if the save still fails after [`write_atomic_retry`]'s attempts, the
/// stale journal is discarded and `journal_to` is cleared so the run
/// continues un-journaled — a later resume must never trust a checkpoint
/// older than the run that wrote it.
///
/// Every written checkpoint ticks the `round` fault site *before* `snap`
/// captures the fault counters, and an `exit@round:N` fires only after
/// checkpoint N is on disk: the killed run always leaves a journal, and
/// its resume restores a `round` count that already includes the kill.
pub fn checkpoint(journal_to: &mut Option<&Path>, snap: impl FnOnce() -> SearchJournal) {
    let Some(path) = *journal_to else { return };
    let injected = fault::tick_deferring_exit("round");
    if let Err(e) = save(path, &snap()) {
        eprintln!(
            "warning: journal {} keeps failing ({e}); journaling disabled \
             for the rest of this run",
            path.display()
        );
        discard(path);
        *journal_to = None;
    }
    if injected == Some(FaultKind::Exit) {
        fault::exit_injected();
    }
}

/// Remove a journal, its intent record and its blob store once the run
/// has completed. Errors (including the files already being gone) are
/// ignored: a stale journal is merely re-validated and discarded on the
/// next run.
pub fn discard(path: &Path) {
    let _ = fs::remove_file(path);
    let _ = fs::remove_file(intent_path(path));
    let _ = fs::remove_dir_all(blob_dir(path));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::EvalStatus;
    use std::path::PathBuf;

    /// A journal path in a fresh per-test directory (quarantined files
    /// land in its `quarantine/`).
    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("automc-journal-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("search.journal")
    }

    fn cleanup(path: &Path) {
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// The `.bin` blobs in a journal's store, sorted.
    fn blobs(path: &Path) -> Vec<PathBuf> {
        let mut out: Vec<PathBuf> = fs::read_dir(blob_dir(path))
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "bin"))
            .collect();
        out.sort();
        out
    }

    fn sample_journal() -> SearchJournal {
        let mut history = SearchHistory::new("AutoMC");
        history.push_failure(vec![1, 2], EvalStatus::Diverged, 40);
        SearchJournal {
            fingerprint: 0xdead_beef_cafe_f00d,
            round: 3,
            spent: 1234,
            rng: [1, u64::MAX, 0x1234_5678_9abc_def0, 42],
            history,
            state: vec![0, 1, 2, 255, 128],
            nodes: vec![NodeSnapshot {
                scheme: vec![7],
                metrics: Metrics { acc: 0.875, params: 999, flops: 123_456 },
                cost: EvalCost { trained_images: 11, eval_images: 22 },
                explored: vec![0, 7, 12],
                model: vec![9, 8, 7],
            }],
            fault_counters: vec![("eval".into(), 5), ("train".into(), 17)],
        }
    }

    #[test]
    fn hex_roundtrip() {
        let bytes = vec![0u8, 1, 15, 16, 127, 128, 255];
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert!(from_hex("abc").is_none(), "odd length");
        assert!(from_hex("zz").is_none(), "non-hex");
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn save_load_roundtrip() {
        let path = temp_path("roundtrip");
        let j = sample_journal();
        save(&path, &j).unwrap();
        let back = load(&path, j.fingerprint).expect("journal loads");
        assert_eq!(back.round, 3);
        assert_eq!(back.spent, 1234);
        assert_eq!(back.rng, j.rng);
        assert_eq!(back.state, j.state);
        assert_eq!(back.fault_counters, j.fault_counters);
        assert_eq!(back.history.records.len(), 1);
        assert_eq!(back.history.records[0].status, EvalStatus::Diverged);
        assert_eq!(back.nodes.len(), 1);
        assert_eq!(back.nodes[0].scheme, vec![7]);
        assert_eq!(back.nodes[0].metrics.acc.to_bits(), 0.875f32.to_bits());
        assert_eq!(
            back.nodes[0].cost,
            EvalCost { trained_images: 11, eval_images: 22 }
        );
        assert_eq!(back.nodes[0].explored, vec![0, 7, 12]);
        assert_eq!(back.nodes[0].model, vec![9, 8, 7]);
        discard(&path);
        assert!(load(&path, j.fingerprint).is_none(), "discard removes it");
        assert!(!blob_dir(&path).exists(), "discard removes the blob store");
        cleanup(&path);
    }

    #[test]
    fn corrupt_or_mismatched_journals_are_rejected() {
        let path = temp_path("corrupt");
        let j = sample_journal();
        save(&path, &j).unwrap();
        // Wrong fingerprint → ignored.
        assert!(load(&path, j.fingerprint ^ 1).is_none());
        // Flipped byte inside the payload → checksum mismatch.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        fs::write(&path, &bytes).unwrap();
        assert!(load(&path, j.fingerprint).is_none());
        // Truncation → unparsable.
        let good = {
            save(&path, &j).unwrap();
            fs::read(&path).unwrap()
        };
        fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(load(&path, j.fingerprint).is_none());
        // Not JSON at all.
        fs::write(&path, b"hello").unwrap();
        assert!(load(&path, j.fingerprint).is_none());
        cleanup(&path);
    }

    #[test]
    fn blobs_are_content_addressed_and_garbage_collected() {
        let path = temp_path("blobs");
        let mut j = sample_journal();
        j.nodes.push(NodeSnapshot {
            scheme: vec![1, 2],
            metrics: Metrics { acc: 0.5, params: 10, flops: 20 },
            cost: EvalCost::default(),
            explored: vec![],
            model: vec![9, 8, 7], // same bytes as node 0 → same blob
        });
        save(&path, &j).unwrap();
        assert_eq!(blobs(&path).len(), 1, "identical models share one blob");

        // A new node adds exactly one blob; dropping a node GCs its blob.
        j.nodes.push(NodeSnapshot {
            scheme: vec![3],
            metrics: Metrics { acc: 0.6, params: 11, flops: 21 },
            cost: EvalCost::default(),
            explored: vec![],
            model: vec![1, 1, 2, 3, 5, 8],
        });
        save(&path, &j).unwrap();
        assert_eq!(blobs(&path).len(), 2);
        j.nodes.truncate(2); // drop the fibonacci model again
        save(&path, &j).unwrap();
        assert_eq!(blobs(&path).len(), 1, "unreferenced blobs are collected");
        let back = load(&path, j.fingerprint).unwrap();
        assert_eq!(back.nodes.len(), 2);
        assert_eq!(back.nodes[1].model, vec![9, 8, 7]);
        // A journal that drops its last node empties the store.
        j.nodes.clear();
        save(&path, &j).unwrap();
        assert!(blobs(&path).is_empty());
        cleanup(&path);
    }

    #[test]
    fn journals_without_nodes_never_open_a_store() {
        let path = temp_path("no-nodes");
        let mut j = sample_journal();
        j.nodes.clear();
        save(&path, &j).unwrap();
        assert!(!blob_dir(&path).exists(), "no nodes, no blob store");
        assert!(load(&path, j.fingerprint).is_some());
        assert!(!blob_dir(&path).exists(), "loading opens none either");
        cleanup(&path);
    }

    #[test]
    fn missing_blob_invalidates_the_journal() {
        let path = temp_path("blob-missing");
        let j = sample_journal();
        save(&path, &j).unwrap();
        fs::remove_file(&blobs(&path)[0]).unwrap();
        assert!(load(&path, j.fingerprint).is_none(), "missing blob rejected");
        cleanup(&path);
    }

    #[test]
    fn envelopes_without_a_schema_start_fresh_unquarantined() {
        let path = temp_path("schema");
        let payload = "{}";
        // An envelope from before the `schema` field (v1) with a valid
        // checksum: another era, not corruption.
        let envelope = obj(vec![
            (
                "checksum",
                Value::Str(format!("{:016x}", fnv1a64(payload.as_bytes()))),
            ),
            ("payload", Value::Str(payload.to_string())),
        ]);
        fs::write(&path, envelope.to_string_pretty()).unwrap();
        assert!(load_checksummed(&path).is_none());
        assert!(path.exists(), "schema drift is not quarantined");
        // The version this build writes round-trips.
        save_checksummed(&path, payload).unwrap();
        assert_eq!(load_checksummed(&path).as_deref(), Some(payload));
        cleanup(&path);
    }

    #[test]
    fn written_round_checkpoints_tick_the_round_site_into_their_counters() {
        use automc_tensor::fault::{self, FaultPlan};
        let path = temp_path("round-site");
        let rng = automc_tensor::rng_from_seed(1);
        let history = SearchHistory::default();
        let round_count = |j: &SearchJournal| {
            j.fault_counters.iter().find(|(s, _)| s == "round").map(|(_, n)| *n)
        };
        // A plan far past the ticks below, so counting is live but
        // nothing fires.
        fault::install(FaultPlan::parse("exit@round:99").unwrap());
        let mut to = Some(path.as_path());
        checkpoint_round(&mut to, 7, 1, 0, &rng, &history, Vec::new());
        checkpoint_round(&mut to, 7, 2, 0, &rng, &history, Vec::new());
        // Without a journal nothing is written, so nothing ticks.
        checkpoint_round(&mut None, 7, 3, 0, &rng, &history, Vec::new());
        let live = fault::counters();
        fault::clear();
        let back = load(&path, 7).expect("journal loads");
        assert_eq!(back.round, 2);
        assert_eq!(
            round_count(&back),
            Some(2),
            "checkpoint 2 journals its own tick, so a resume never re-fires it"
        );
        assert_eq!(live, vec![("round".to_string(), 2)]);
        cleanup(&path);
    }

    #[test]
    fn intent_record_max_merges_into_restored_counters() {
        use automc_tensor::fault::{self, FaultPlan};
        let path = temp_path("intent");
        let j = sample_journal(); // journals eval=5, train=17
        save(&path, &j).unwrap();

        // No plan active → no intent is written.
        record_eval_intent(Some(&path), j.fingerprint);
        assert!(!intent_path(&path).exists());

        // With a plan and live counters ahead of the journal, the intent
        // captures them with "eval" bumped by one (the tick about to
        // fire).
        fault::install(FaultPlan::parse("exit@eval:9").unwrap());
        fault::restore_counters(&[("eval".into(), 6), ("train".into(), 17)]);
        record_eval_intent(Some(&path), j.fingerprint);
        fault::clear();
        assert!(intent_path(&path).exists());

        let back = load(&path, j.fingerprint).expect("journal loads");
        let get = |site: &str| {
            back.fault_counters
                .iter()
                .find(|(s, _)| s == site)
                .map(|(_, n)| *n)
        };
        assert_eq!(get("eval"), Some(7), "journal eval=5 max intent eval=6+1");
        assert_eq!(get("train"), Some(17));

        // An intent for a different run is ignored.
        record_eval_intent(Some(&path), j.fingerprint); // rewrite with no plan: no-op
        fault::install(FaultPlan::parse("exit@eval:9").unwrap());
        record_eval_intent(Some(&path), j.fingerprint ^ 1);
        fault::clear();
        let back = load(&path, j.fingerprint).expect("journal loads");
        assert_eq!(
            back.fault_counters
                .iter()
                .find(|(s, _)| s == "eval")
                .map(|(_, n)| *n),
            Some(5),
            "mismatched-fingerprint intents must not merge"
        );
        discard(&path);
        assert!(!intent_path(&path).exists(), "discard removes the intent");
        cleanup(&path);
    }

    #[test]
    fn persistent_write_failure_is_reported() {
        // A journal path whose parent is a regular file cannot be created;
        // the retry loop must exhaust its attempts and surface the error.
        let parent = temp_path("not-a-dir");
        fs::write(&parent, b"file").unwrap();
        let path = parent.join("journal.json");
        assert!(save(&path, &sample_journal()).is_err());
        cleanup(&parent);
    }
}
