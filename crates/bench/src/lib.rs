//! # automc-bench
//!
//! Reproduction harness for every table and figure in the AutoMC paper's
//! evaluation section. One binary per artifact:
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `table2` | Table 2 — compression results on Exp1/Exp2 at PR ≈ 40/70 |
//! | `table3` | Table 3 — transfer study across model depths |
//! | `fig4`   | Figure 4 — accuracy-vs-budget curves + Pareto fronts |
//! | `fig5`   | Figure 5 — ablation Pareto fronts |
//! | `fig6`   | Figure 6 — the searched schemes, pretty-printed |
//!
//! Binaries share a JSON result cache under `target/automc-results/` so
//! the expensive searches run once (Table 3 and Figs 4/6 reuse Table 2's
//! runs). Pass `--seed N` to any binary to change the master seed;
//! `--fresh` ignores the cache.
//!
//! Fault tolerance: every candidate evaluation is supervised (panics and
//! divergence are recorded as infeasible history entries, not crashes),
//! AutoMC searches journal their state each round and resume after a kill
//! (`--no-resume` disables), and `--faults SPEC` / `AUTOMC_FAULTS`
//! injects deterministic faults for testing — see `DESIGN.md` §"Fault
//! model & recovery".

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod harness;
pub mod orchestrator;
pub mod report;
pub mod scale;
pub mod transport;

/// Flags shared by the reproduction binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Master seed (`--seed N`, default 42).
    pub seed: u64,
    /// Ignore the result cache (`--fresh`).
    pub fresh: bool,
    /// Worker threads (`--threads N`; 0 = auto). `AUTOMC_THREADS` takes
    /// precedence over the flag.
    pub threads: usize,
    /// Disable journal resume (`--no-resume`): interrupted AutoMC
    /// searches restart from scratch.
    pub no_resume: bool,
    /// Deterministic fault plan (`--faults kind@site:n,...`), installed
    /// on the main thread. Equivalent to setting `AUTOMC_FAULTS`.
    pub faults: Option<String>,
    /// Run the binary's smoke mode, if it has one (`--smoke`): the
    /// smallest end-to-end scale, used by the CI fault-injection stage.
    pub smoke: bool,
    /// Prefix-model memoization override (`--memo on|off`). `None` defers
    /// to `AUTOMC_MEMO` (default: enabled).
    pub memo: Option<bool>,
    /// Local worker processes for the distributed task queue
    /// (`--workers N`; 0 = run in-process unless `--listen` is given).
    pub workers: usize,
    /// Worker heartbeat interval in milliseconds (`--heartbeat-ms N`).
    /// The supervisor declares a worker hung after 8 missed intervals
    /// (floor 1.5 s).
    pub heartbeat_ms: u64,
    /// Restarts per local worker — and lost assignments per task unit —
    /// before degradation (`--retries N`).
    pub retries: u32,
    /// Run as a remote worker: connect to a supervisor's task server at
    /// `HOST:PORT` and pull units until told to shut down
    /// (`--connect HOST:PORT`).
    pub connect: Option<String>,
    /// Supervisor listen address for remote workers (`--listen ADDR`).
    /// Default is an ephemeral loopback port used only by the local
    /// self-exec fleet.
    pub listen: Option<String>,
    /// Write the bound task-server address to this file once listening
    /// (`--addr-file PATH`), for scripts that spawn workers.
    pub addr_file: Option<std::path::PathBuf>,
    /// Local slot index, set by the supervisor when it self-execs a
    /// worker (`--worker-slot N`) — not intended for direct use.
    pub worker_slot: Option<usize>,
    /// Task scheduling policy (`--sched dynamic|static`). `static`
    /// reproduces the old round-robin ownership, kept for the
    /// `dist_throughput` head-to-head.
    pub sched: transport::SchedPolicy,
    /// Socket read/write deadline for the distributed transport, in
    /// milliseconds (`--io-timeout-ms N`; 0 disables). Applied to the
    /// worker and supervisor connection sockets so a half-dead link
    /// surfaces as a timeout instead of blocking a thread forever. A
    /// clean timeout with no partial frame is idle-tolerant on the
    /// supervisor side (the heartbeat deadline owns liveness); a
    /// mid-frame stall severs the connection.
    pub io_timeout_ms: u64,
}

/// Default for [`BenchArgs::io_timeout_ms`].
pub const DEFAULT_IO_TIMEOUT_MS: u64 = 10_000;

impl BenchArgs {
    /// Install the thread knob, resume policy, memo policy, and fault
    /// plan into the runtime.
    pub fn apply(&self) {
        automc_tensor::par::configure_threads(self.threads);
        harness::set_resume(!self.no_resume);
        automc_compress::memo::set_enabled_global(self.memo);
        if automc_compress::memo::enabled() {
            // Spill evicted/inserted prefix models next to the result
            // cache so a relaunched process re-hits prefixes computed by
            // an earlier run. The directory is opened as a crash-safe
            // concurrent `automc_compress::store::BlobStore`, so many
            // processes may share it live — `AUTOMC_MEMO_SPILL_DIR`
            // re-points it: the orchestrator isolates each worker's
            // result cache but shares one spill store across the fleet
            // (prefix models are content-addressed, so sharing is always
            // sound, and the store's GC/quarantine keep it bounded and
            // self-healing).
            let spill = std::env::var("AUTOMC_MEMO_SPILL_DIR")
                .ok()
                .filter(|d| !d.is_empty())
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| cache::cache_dir().join("memo"));
            automc_compress::memo::set_spill_dir(Some(spill));
        }
        if let Some(spec) = &self.faults {
            match automc_tensor::fault::FaultPlan::parse(spec) {
                Ok(plan) => {
                    eprintln!("[fault] --faults installed: {spec}");
                    automc_tensor::fault::install(plan);
                }
                Err(e) => eprintln!("warning: ignoring --faults: {e}"),
            }
        }
    }
}

/// Parse `--seed N` / `--fresh` / `--threads N` / `--no-resume` /
/// `--faults SPEC` / `--memo on|off` / `--workers N` / `--heartbeat-ms N`
/// / `--retries N` / `--connect ADDR` / `--listen ADDR` /
/// `--addr-file PATH` / `--worker-slot N` / `--sched dynamic|static` /
/// `--io-timeout-ms N` from argv (tiny flag parser shared by the
/// reproduction binaries).
pub fn parse_args() -> BenchArgs {
    let mut parsed = BenchArgs {
        seed: 42,
        fresh: false,
        threads: 0,
        no_resume: false,
        faults: None,
        smoke: false,
        memo: None,
        workers: 0,
        heartbeat_ms: 500,
        retries: 2,
        connect: None,
        listen: None,
        addr_file: None,
        worker_slot: None,
        sched: transport::SchedPolicy::Dynamic,
        io_timeout_ms: DEFAULT_IO_TIMEOUT_MS,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    parsed.seed = v;
                    i += 1;
                }
            }
            "--threads" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    parsed.threads = v;
                    i += 1;
                }
            }
            "--faults" => {
                if let Some(v) = args.get(i + 1) {
                    parsed.faults = Some(v.clone());
                    i += 1;
                }
            }
            "--workers" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    parsed.workers = v;
                    i += 1;
                }
            }
            "--heartbeat-ms" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    // Below the floor the hang deadline stays pinned at
                    // 1.5 s and the flag would silently change nothing.
                    if v < orchestrator::MIN_HEARTBEAT_MS {
                        eprintln!(
                            "warning: --heartbeat-ms {v} is below the effective \
                             minimum; clamping to {} (the hung-worker deadline \
                             has a 1.5 s floor)",
                            orchestrator::MIN_HEARTBEAT_MS
                        );
                        parsed.heartbeat_ms = orchestrator::MIN_HEARTBEAT_MS;
                    } else {
                        parsed.heartbeat_ms = v;
                    }
                    i += 1;
                }
            }
            "--retries" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    parsed.retries = v;
                    i += 1;
                }
            }
            "--connect" => {
                if let Some(v) = args.get(i + 1) {
                    parsed.connect = Some(v.clone());
                    i += 1;
                }
            }
            "--listen" => {
                if let Some(v) = args.get(i + 1) {
                    parsed.listen = Some(v.clone());
                    i += 1;
                }
            }
            "--addr-file" => {
                if let Some(v) = args.get(i + 1) {
                    parsed.addr_file = Some(v.clone().into());
                    i += 1;
                }
            }
            "--io-timeout-ms" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    parsed.io_timeout_ms = v;
                    i += 1;
                }
            }
            "--worker-slot" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    parsed.worker_slot = Some(v);
                    i += 1;
                }
            }
            "--sched" => {
                if let Some(v) = args.get(i + 1) {
                    match transport::SchedPolicy::parse(v) {
                        Some(p) => parsed.sched = p,
                        None => eprintln!("ignoring --sched {v} (want dynamic|static)"),
                    }
                    i += 1;
                }
            }
            "--memo" => {
                if let Some(v) = args.get(i + 1) {
                    match v.as_str() {
                        "on" => parsed.memo = Some(true),
                        "off" => parsed.memo = Some(false),
                        other => eprintln!("ignoring --memo {other} (want on|off)"),
                    }
                    i += 1;
                }
            }
            "--fresh" => parsed.fresh = true,
            "--no-resume" => parsed.no_resume = true,
            "--smoke" => parsed.smoke = true,
            other => eprintln!("ignoring unknown argument {other}"),
        }
        i += 1;
    }
    parsed.apply();
    parsed
}

#[cfg(test)]
mod tests {
    use crate::harness::{best_from_bytes, best_to_bytes};
    use crate::orchestrator::OrchJournal;
    use automc_compress::{EvalCost, Metrics};
    use automc_core::journal::{self, NodeSnapshot, SearchJournal};
    use automc_core::SearchHistory;
    use automc_tensor::fault::{self, FaultPlan};
    use automc_tensor::Rng;
    use std::fs;
    use std::path::{Path, PathBuf};

    /// One persistent record kind: where its file lives, how a run writes
    /// it, and whether a run reads back exactly what it wrote. Runs are
    /// named by a small integer; 1 is "this run", 2 a foreign one.
    struct Kind {
        name: &'static str,
        path: PathBuf,
        write: Box<dyn Fn(u64)>,
        read: Box<dyn Fn(u64) -> bool>,
        /// The journal whose node-blob store backs the record, if any.
        blobs_of: Option<PathBuf>,
    }

    fn quarantined(path: &Path) -> bool {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        fs::read_dir(path.parent().unwrap().join("quarantine"))
            .map(|d| d.flatten().any(|e| e.file_name().to_string_lossy().starts_with(&name)))
            .unwrap_or(false)
    }

    fn search_journal(fp: u64) -> SearchJournal {
        let node = |model: Vec<u8>| NodeSnapshot {
            scheme: vec![4, 2],
            metrics: Metrics { acc: 0.75, params: 10, flops: 20 },
            cost: EvalCost { trained_images: 3, eval_images: 4 },
            explored: vec![1],
            model,
        };
        SearchJournal {
            fingerprint: fp,
            round: 5,
            spent: 99,
            rng: [1, 2, 3, 4],
            history: SearchHistory::new("AutoMC"),
            state: vec![7, 7],
            nodes: vec![node(vec![1, 2, 3]), node(vec![4, 5, 6, 7])],
            fault_counters: vec![("eval".into(), 3)],
        }
    }

    fn kinds(dir: &Path) -> Vec<Kind> {
        let sj = dir.join("search.journal");
        let grid = dir.join("grid.journal");
        let orch = OrchJournal::path(dir, 7);
        let intent_base = dir.join("intent.journal");
        let cache_key = format!("unit-test-persist-{}", std::process::id());
        let rng = Rng::from_state([9, 8, 7, 6]);
        vec![
            Kind {
                name: "search journal with nodes",
                path: sj.clone(),
                write: Box::new({
                    let sj = sj.clone();
                    move |run| journal::save(&sj, &search_journal(run)).unwrap()
                }),
                read: Box::new({
                    let sj = sj.clone();
                    move |run| {
                        journal::load(&sj, run).is_some_and(|j| {
                            j.round == 5
                                && j.nodes.len() == 2
                                && j.nodes[1].model == vec![4, 5, 6, 7]
                                && j.nodes[0].cost.eval_images == 4
                        })
                    }
                }),
                blobs_of: Some(sj),
            },
            Kind {
                name: "grid checkpoint",
                path: grid.clone(),
                write: Box::new({
                    let grid = grid.clone();
                    move |run| {
                        let mut to = Some(grid.as_path());
                        let best = best_to_bytes(Some((0.5, 1)));
                        let h = SearchHistory::default();
                        journal::checkpoint_round(&mut to, run, 2, 0, &rng, &h, best);
                        assert!(to.is_some(), "checkpoint write failed");
                    }
                }),
                read: Box::new({
                    let grid = grid.clone();
                    move |run| {
                        journal::load(&grid, run).is_some_and(|j| {
                            j.round == 2
                                && j.rng == [9, 8, 7, 6]
                                && best_from_bytes(&j.state) == Some((0.5, 1))
                        })
                    }
                }),
                blobs_of: None,
            },
            Kind {
                name: "supervisor journal with dist_ticks",
                path: orch.clone(),
                write: Box::new({
                    let orch = orch.clone();
                    move |run| {
                        let tag = format!("dist-v1|s{run}|w2");
                        OrchJournal { tag, retries: vec![0, 2], dist_ticks: 7 }.save(&orch)
                    }
                }),
                read: Box::new(move |run| {
                    OrchJournal::load(&orch, &format!("dist-v1|s{run}|w2"))
                        .is_some_and(|j| j.dist_ticks == 7 && j.retries == vec![0, 2])
                }),
                blobs_of: None,
            },
            Kind {
                name: "intent record",
                path: journal::intent_path(&intent_base),
                write: Box::new({
                    let base = intent_base.clone();
                    move |run| {
                        // The journal the intent belongs to (eval=3).
                        let mut j = search_journal(1);
                        j.nodes.clear();
                        journal::save(&base, &j).unwrap();
                        fault::install(FaultPlan::parse("exit@eval:99").unwrap());
                        fault::restore_counters(&[("eval".into(), 10)]);
                        journal::record_eval_intent(Some(&base), run);
                        fault::clear();
                    }
                }),
                read: Box::new(move |run| {
                    // The intent (eval=11) is merged only when it is intact
                    // and of this run.
                    journal::load(&intent_base, run)
                        .is_some_and(|j| j.fault_counters == vec![("eval".to_string(), 11)])
                }),
                blobs_of: None,
            },
            Kind {
                name: "cache entry",
                path: crate::cache::cache_path(&cache_key),
                write: Box::new({
                    let key = cache_key.clone();
                    move |run| crate::cache::store(&key, &format!("s{run}|test"), &vec![3u32, 1, 4])
                }),
                read: Box::new(move |run| {
                    crate::cache::load::<Vec<u32>>(&cache_key, &format!("s{run}|test"))
                        == Some(vec![3, 1, 4])
                }),
                blobs_of: None,
            },
        ]
    }

    /// Every record kind gets the same checks from the one record layer:
    /// round-trip, bit-flip and truncation are quarantined misses, a
    /// foreign run tag is a miss (for `dist_ticks`, the regression: the
    /// bare tick counter once had no run identity), a foreign schema
    /// starts fresh without quarantine, and a corrupt node blob is
    /// quarantined while its journal falls back to fresh.
    #[test]
    fn every_record_kind_gets_the_same_persistence_checks() {
        let dir = std::env::temp_dir().join(format!("automc-persist-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for k in kinds(&dir) {
            let name = k.name;
            (k.write)(1);
            assert!((k.read)(1), "{name}: round-trip");

            let mut bytes = fs::read(&k.path).unwrap();
            let at = bytes.len() * 2 / 3;
            bytes[at] = bytes[at].wrapping_add(1);
            fs::write(&k.path, &bytes).unwrap();
            assert!(!(k.read)(1), "{name}: a bit-flip must miss");
            assert!(!k.path.exists() && quarantined(&k.path), "{name}: bit-flip quarantined");

            (k.write)(1);
            let good = fs::read(&k.path).unwrap();
            fs::write(&k.path, &good[..good.len() / 2]).unwrap();
            assert!(!(k.read)(1), "{name}: truncation must miss");

            (k.write)(2);
            assert!(!(k.read)(1), "{name}: another run's record must miss");

            (k.write)(1);
            let text = fs::read_to_string(&k.path).unwrap();
            let current = format!("\"schema\": {}", journal::SCHEMA_VERSION);
            assert!(text.contains(&current), "{name}: envelope carries its schema");
            fs::write(&k.path, text.replace(&current, "\"schema\": 99")).unwrap();
            assert!(!(k.read)(1), "{name}: a foreign schema starts fresh");
            assert!(k.path.exists(), "{name}: schema drift is not quarantined");

            if let Some(j) = &k.blobs_of {
                (k.write)(1);
                let store = journal::blob_dir(j);
                let blob = fs::read_dir(&store)
                    .unwrap()
                    .flatten()
                    .map(|e| e.path())
                    .find(|p| p.extension().is_some_and(|x| x == "bin"))
                    .unwrap();
                let mut bytes = fs::read(&blob).unwrap();
                bytes[9] ^= 0x40;
                fs::write(&blob, &bytes).unwrap();
                assert!(!(k.read)(1), "{name}: a corrupt node blob must miss");
                assert!(quarantined(&blob), "{name}: the corrupt blob is quarantined");
            }
            let _ = fs::remove_file(&k.path);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
