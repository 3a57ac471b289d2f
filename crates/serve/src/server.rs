//! The daemon: accept loop, job registry, bounded executor pool.
//!
//! One process hosts everything: N executor threads pull jobs from a
//! bounded queue and run them through the bench harness's job-unit API
//! (`table2_rows_with` / `run_search_with`), which fans work out over the
//! shared `automc_tensor::par` pool; all jobs share one result cache, one
//! memo LRU, and one spill `BlobStore`, so concurrent searches
//! deduplicate prefix models across clients. Connections come through
//! the shared connection layer ([`automc_json::wire::accept_loop`]): one
//! thread each, `TCP_NODELAY`, and the `--io-timeout-ms` deadline, past
//! which an idle or stalled-mid-frame connection is reaped with a
//! farewell `error` frame. A `watch` replays the job's frame log and then
//! streams live events from a per-job fan-out of `mpsc` senders.
//!
//! Failure model: job caches and round journals are crash-safe (written
//! by the layers below), so the daemon itself holds no durable state —
//! kill it at any point and a restarted daemon given the same submission
//! resumes from the journals because the job id is derived from the same
//! fingerprint material that keys them.

use crate::protocol::{JobKind, JobSpec, JobState, Request};
use automc_bench::harness::{self, RunOpts};
use automc_bench::scale::ExperimentScale;
use automc_bench::{cache, orchestrator};
use automc_compress::store::{self, StoreCounters};
use automc_compress::StrategySpace;
use automc_core::journal;
use automc_core::progress::{RoundControl, RoundEvent, RoundObserver};
use automc_core::RoundHook;
use automc_json::wire::{
    self, busy_frame, error_frame, frame, lock, ok_frame, write_frame, Recv, Stop,
};
use automc_json::{obj, ToJson, Value};
use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default for [`ServeConfig::queue_cap`]: jobs waiting in the bounded
/// queue before submits are shed with a `busy` frame.
pub const QUEUE_CAP: usize = 32;

/// Default for [`ServeConfig::io_timeout_ms`]: how long a connection may
/// sit in a blocking socket read or write before the daemon reaps it.
pub const DEFAULT_IO_TIMEOUT_MS: u64 = 10_000;

/// The `retry_ms` hint carried by `busy` frames when the submit queue
/// sheds load.
pub const BUSY_RETRY_MS: u64 = 500;

/// How long a graceful drain waits for executors to checkpoint their
/// in-flight jobs before the daemon exits anyway.
const DRAIN_GRACE_MS: u64 = 30_000;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Executor threads — how many jobs run concurrently.
    pub jobs: usize,
    /// File the bound address is written to (for scripts that start the
    /// daemon with port 0 and need to discover the port).
    pub addr_file: Option<PathBuf>,
    /// Socket read/write deadline per connection, in milliseconds. A
    /// request connection that stays silent this long — idle between
    /// requests or stalled mid-frame — is reaped so it cannot pin its
    /// thread forever; a watch stream whose peer stops draining frames
    /// is severed by the matching write deadline. `0` disables the
    /// deadlines (not recommended outside debugging).
    pub io_timeout_ms: u64,
    /// Bounded submit-queue depth: submits past this many queued jobs
    /// are refused with a structured `busy` frame instead of queueing
    /// unboundedly.
    pub queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".into(),
            jobs: 2,
            addr_file: None,
            io_timeout_ms: DEFAULT_IO_TIMEOUT_MS,
            queue_cap: QUEUE_CAP,
        }
    }
}

/// One submitted job.
pub struct Job {
    /// Spec-derived stable id (see [`JobSpec::job_id`]).
    pub id: String,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Resolved scale.
    pub scale: ExperimentScale,
    cancel: AtomicBool,
    inner: Mutex<JobInner>,
}

struct JobInner {
    state: JobState,
    /// Every frame published so far — watchers joining late replay this.
    log: Vec<Value>,
    /// Live watcher channels; pruned when a send fails.
    subs: Vec<mpsc::Sender<Value>>,
    /// The terminal `done` frame, for `result` requests.
    terminal: Option<Value>,
}

impl Job {
    fn new(id: String, spec: JobSpec, scale: ExperimentScale) -> Arc<Job> {
        Arc::new(Job {
            id,
            spec,
            scale,
            cancel: AtomicBool::new(false),
            inner: Mutex::new(JobInner {
                state: JobState::Queued,
                log: Vec::new(),
                subs: Vec::new(),
                terminal: None,
            }),
        })
    }

    /// Current state.
    pub fn state(&self) -> JobState {
        lock(&self.inner).state
    }

    /// Request cooperative cancellation (takes effect at the next round
    /// boundary or grid-task start).
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// Append a frame to the log and fan it out to live watchers. Holding
    /// the lock across both steps is what makes `watch` lossless: a
    /// subscriber either sees a frame in its replayed snapshot or
    /// receives it live, never neither.
    fn publish(&self, frame: Value) {
        let mut inner = lock(&self.inner);
        inner.subs.retain(|tx| tx.send(frame.clone()).is_ok());
        inner.log.push(frame);
    }

    /// The job's current `state` frame.
    fn state_frame(&self) -> Value {
        frame("state", vec![("job", self.id.to_json()), ("state", self.state().name().to_json())])
    }

    fn set_state(&self, state: JobState) {
        lock(&self.inner).state = state;
        self.publish(self.state_frame());
    }

    /// Publish the terminal `done` frame and stop accepting transitions.
    fn finish(&self, state: JobState, mut fields: Vec<(&str, Value)>) {
        let mut all = vec![
            ("type", "done".to_json()),
            ("job", self.id.to_json()),
            ("state", state.name().to_json()),
        ];
        all.append(&mut fields);
        let frame = obj(all);
        {
            let mut inner = lock(&self.inner);
            inner.state = state;
            inner.terminal = Some(frame.clone());
        }
        self.publish(frame);
    }
}

/// The registry + queue shared by every connection thread.
struct Shared {
    jobs: Mutex<HashMap<String, Arc<Job>>>,
    /// `None` once the drain has started: submits are refused and the
    /// executors exit as soon as the buffered queue runs dry.
    queue: Mutex<Option<SyncSender<Arc<Job>>>>,
    /// How many jobs the queue holds before submits shed with `busy`.
    queue_cap: usize,
    /// Per-connection socket deadline (0 = none).
    io_timeout_ms: u64,
    /// Set by a `shutdown` request; ends the accept loop.
    stop: Stop,
}

/// Run the daemon until a `shutdown` request arrives, then drain: stop
/// accepting, cancel in-flight jobs at their next round boundary (their
/// journals checkpoint the progress), and give the executors a bounded
/// grace period to finish before exiting. Binds `cfg.listen` and writes
/// the bound address to `cfg.addr_file` first.
pub fn run(cfg: &ServeConfig) -> std::io::Result<()> {
    let listener = TcpListener::bind(&cfg.listen)?;
    let addr = listener.local_addr()?;
    eprintln!("[serve] listening on {addr} ({} executor(s))", cfg.jobs.max(1));
    if let Some(path) = &cfg.addr_file {
        // Atomic (with retry) so a script polling the file never reads a
        // torn address, even if a first publish attempt hiccups.
        store::write_atomic_retry(path, addr.to_string().as_bytes())?;
    }

    let (tx, rx) = mpsc::sync_channel::<Arc<Job>>(cfg.queue_cap.max(1));
    let shared = Arc::new(Shared {
        jobs: Mutex::new(HashMap::new()),
        queue: Mutex::new(Some(tx)),
        queue_cap: cfg.queue_cap.max(1),
        io_timeout_ms: cfg.io_timeout_ms,
        stop: Stop::new(addr),
    });

    let rx = Arc::new(Mutex::new(rx));
    let mut executors = Vec::new();
    for slot in 0..cfg.jobs.max(1) {
        let rx = Arc::clone(&rx);
        executors.push(
            std::thread::Builder::new()
                .name(format!("serve-exec-{slot}"))
                .spawn(move || executor_loop(&rx))?,
        );
    }

    let conn_shared = Arc::clone(&shared);
    wire::accept_loop(&listener, &shared.stop, cfg.io_timeout_ms, "serve", move |r, w| {
        if let Err(e) = handle_connection(&conn_shared, r, w) {
            eprintln!("[serve] connection ended: {e}");
        }
    });
    drop(listener);
    drain(&shared, executors);
    Ok(())
}

/// Graceful drain: refuse new work, cancel everything non-terminal (the
/// round journals checkpoint in-flight progress, so a resubmission after
/// restart resumes instead of recomputing), then wait a bounded grace
/// period for the executors to reach those round boundaries and exit.
fn drain(shared: &Arc<Shared>, executors: Vec<std::thread::JoinHandle<()>>) {
    // Closing the sender makes `executor_loop`'s recv fail once the
    // buffered queue is empty; buffered jobs still get dequeued and —
    // being cancelled below — finish as `cancelled` without running.
    drop(lock(&shared.queue).take());
    let pending: Vec<Arc<Job>> = lock(&shared.jobs)
        .values()
        .filter(|job| !job.state().is_terminal())
        .cloned()
        .collect();
    for job in &pending {
        job.request_cancel();
    }
    eprintln!(
        "[serve] draining: {} in-flight job(s) cancelled at their next round boundary",
        pending.len()
    );
    let deadline = Instant::now() + Duration::from_millis(DRAIN_GRACE_MS);
    for handle in executors {
        while !handle.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        if handle.is_finished() {
            let _ = handle.join();
        } else {
            eprintln!("[serve] drain grace expired; leaving a straggler executor behind");
        }
    }
    let checkpointed = pending
        .iter()
        .filter(|job| job.state().is_terminal())
        .count();
    eprintln!("[serve] drained: {checkpointed}/{} job(s) checkpointed; shutting down", pending.len());
}

fn executor_loop(rx: &Arc<Mutex<Receiver<Arc<Job>>>>) {
    loop {
        // Hold the receiver lock only for the dequeue, not the run.
        let job = match lock(rx).recv() {
            Ok(job) => job,
            Err(_) => return, // queue sender dropped: daemon is exiting
        };
        run_job(&job);
    }
}

/// Observer wired into every search round of a job: publishes a `round`
/// frame and carries the cancel flag.
struct JobObserver {
    job: Arc<Job>,
    store_start: StoreCounters,
}

impl RoundObserver for JobObserver {
    fn on_round(&self, ev: &RoundEvent) -> RoundControl {
        self.job.publish(round_frame(&self.job.id, ev, &self.store_start));
        if self.cancelled() {
            RoundControl::Cancel
        } else {
            RoundControl::Continue
        }
    }

    fn cancelled(&self) -> bool {
        self.job.cancel.load(Ordering::SeqCst)
    }
}

/// Build the per-round progress frame. `best_*` fields are omitted (not
/// `null`) while no feasible candidate exists — the strict wire mode has
/// no NaN to hide behind.
fn round_frame(job_id: &str, ev: &RoundEvent, store_start: &StoreCounters) -> Value {
    let store_now = store::counters().since(store_start);
    let mut fields = vec![
        ("type", "round".to_json()),
        ("job", job_id.to_json()),
        ("algo", ev.algorithm.to_json()),
        ("round", ev.round.to_json()),
        ("spent", ev.spent.to_json()),
        ("budget", ev.budget.to_json()),
        ("evals", ev.evals.to_json()),
        ("failed", ev.failed.to_json()),
    ];
    if let Some(acc) = ev.best_acc {
        fields.push(("best_acc", acc.to_json()));
    }
    if let Some(flops) = ev.best_flops {
        fields.push(("best_flops", flops.to_json()));
    }
    if let Some(pr) = ev.best_pr {
        fields.push(("best_pr", pr.to_json()));
    }
    fields.extend([
        ("memo_lookups", ev.memo.lookups.to_json()),
        ("memo_prefix_hits", ev.memo.prefix_hits.to_json()),
        ("memo_hit_rate_pct", ev.memo.hit_rate_pct().to_json()),
        ("store_hits", store_now.hits.to_json()),
        ("store_misses", store_now.misses.to_json()),
        ("store_hit_rate_pct", store_now.hit_rate_pct().to_json()),
    ]);
    obj(fields)
}

/// Execute one job to a terminal state. Panics inside the job body are
/// caught and reported as `failed` — one bad job must not take an
/// executor thread (or the daemon) down.
fn run_job(job: &Arc<Job>) {
    if job.cancel.load(Ordering::SeqCst) {
        // Cancelled while still queued: never started, nothing to resume.
        job.finish(JobState::Cancelled, Vec::new());
        return;
    }
    job.set_state(JobState::Running);
    let store_start = store::counters();
    let hook = RoundHook::new(Arc::new(JobObserver {
        job: Arc::clone(job),
        store_start,
    }));
    let opts = RunOpts {
        hook,
        journal_dir: Some(journal::job_dir(&cache::cache_dir(), &job.id)),
    };
    let body = std::panic::AssertUnwindSafe(|| job_result(job, &opts));
    match std::panic::catch_unwind(body) {
        Ok(Some(result)) => {
            job.finish(JobState::Done, vec![("result", result)]);
        }
        Ok(None) => {
            // Cancelled at a round boundary; journals stay on disk, so a
            // resubmitted identical spec resumes from here.
            job.finish(JobState::Cancelled, Vec::new());
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("job panicked");
            eprintln!("[serve] job {} failed: {msg}", job.id);
            job.finish(JobState::Failed, vec![("message", msg.to_json())]);
        }
    }
}

/// The job body: compute the result payload, or `None` when cancelled.
fn job_result(job: &Arc<Job>, opts: &RunOpts) -> Option<Value> {
    let seed = job.spec.seed;
    match job.spec.kind {
        JobKind::Table2 => {
            let (band40, band70) =
                harness::table2_rows_with(&job.scale, seed, job.spec.fresh, opts)?;
            Some(obj(vec![
                ("kind", "table2".to_json()),
                ("scale", job.scale.name.to_json()),
                ("seed", seed.to_json()),
                ("band40", band40.to_json()),
                ("band70", band70.to_json()),
            ]))
        }
        JobKind::Search(algo) => {
            let space = StrategySpace::full();
            // Only AutoMC consumes the knowledge embeddings; skipping them
            // for the baselines avoids their one-time corpus cost without
            // changing any result.
            let emb = matches!(algo, harness::Algo::AutoMc)
                .then(|| harness::automc_embeddings(&space, "full", seed, false, true, true));
            let task = automc_bench::scale::prepare_task(&job.scale, seed);
            let history = harness::run_search_with(
                algo,
                &task,
                &space,
                emb.as_deref(),
                seed,
                job.spec.fresh,
                job.scale.name,
                opts,
            )?;
            let best = history.best(job.scale.gamma);
            let mut fields = vec![
                ("kind", "search".to_json()),
                ("algo", job.spec.kind.name().to_json()),
                ("scale", job.scale.name.to_json()),
                ("seed", seed.to_json()),
                ("evals", history.records.len().to_json()),
                ("failed", history.failed_count().to_json()),
                ("total_cost", history.total_cost().to_json()),
            ];
            if let Some(b) = best {
                fields.push(("best_acc", b.acc.to_json()));
                fields.push(("best_pr", b.pr.to_json()));
                fields.push(("best_flops", b.flops.to_json()));
            }
            Some(obj(fields))
        }
    }
}

// ------------------------------------------------------------------------
// Connections
// ------------------------------------------------------------------------

fn handle_connection(
    shared: &Arc<Shared>,
    mut reader: wire::Reader,
    mut writer: TcpStream,
) -> std::io::Result<()> {
    let peer = writer
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".into());
    loop {
        let frame = match reader.recv()? {
            Recv::Frame(frame) => frame,
            Recv::Closed => return Ok(()),
            Recv::Timeout(stall) => {
                // Reap rather than wait forever: a peer stalled mid-frame
                // will never complete it, and an idle one is holding a
                // thread for nothing. The farewell frame is best-effort —
                // the peer may be gone.
                eprintln!(
                    "[serve] reaping connection from {peer}: {stall} for {} ms",
                    shared.io_timeout_ms
                );
                let _ = write_frame(
                    &mut writer,
                    &error_frame(&format!(
                        "connection reaped: {stall} for {} ms",
                        shared.io_timeout_ms
                    )),
                );
                return Ok(());
            }
        };
        let req = match Request::from_value(&frame) {
            Ok(req) => req,
            Err(why) => {
                write_frame(&mut writer, &error_frame(&why))?;
                continue;
            }
        };
        match req {
            Request::Submit(spec) => handle_submit(shared, spec, &mut writer)?,
            Request::Watch(id) => match find_job(shared, &id) {
                Some(job) => handle_watch(&job, &mut writer)?,
                None => write_frame(&mut writer, &error_frame("unknown job"))?,
            },
            Request::Status(id) => match find_job(shared, &id) {
                Some(job) => write_frame(&mut writer, &job.state_frame())?,
                None => write_frame(&mut writer, &error_frame("unknown job"))?,
            },
            Request::Cancel(id) => match find_job(shared, &id) {
                Some(job) => {
                    job.request_cancel();
                    write_frame(&mut writer, &ok_frame())?;
                }
                None => write_frame(&mut writer, &error_frame("unknown job"))?,
            },
            Request::Result(id) => match find_job(shared, &id) {
                Some(job) => {
                    let terminal = lock(&job.inner).terminal.clone();
                    match terminal {
                        Some(frame) => write_frame(&mut writer, &frame)?,
                        None => write_frame(
                            &mut writer,
                            &error_frame(&format!(
                                "job not finished (state {})",
                                job.state().name()
                            )),
                        )?,
                    }
                }
                None => write_frame(&mut writer, &error_frame("unknown job"))?,
            },
            Request::Shutdown => {
                // Answer before waking the accept loop: the drain it starts
                // may end the process.
                let answered = write_frame(&mut writer, &ok_frame());
                shared.stop.set();
                return answered;
            }
        }
    }
}

fn find_job(shared: &Arc<Shared>, id: &str) -> Option<Arc<Job>> {
    lock(&shared.jobs).get(id).cloned()
}

fn handle_submit(
    shared: &Arc<Shared>,
    spec: JobSpec,
    writer: &mut impl Write,
) -> std::io::Result<()> {
    let scale = match orchestrator::resolve_scale(&spec.scale) {
        Ok(scale) => scale,
        Err(e) => return write_frame(writer, &error_frame(&e)),
    };
    let id = spec.job_id(&scale);
    let submitted = |job: &Arc<Job>, dedup: bool| {
        obj(vec![
            ("type", "submitted".to_json()),
            ("job", job.id.to_json()),
            ("state", job.state().name().to_json()),
            ("dedup", dedup.to_json()),
        ])
    };
    // Registry lock spans the lookup and the insert so two simultaneous
    // submits of one spec cannot both enqueue. A cancelled or failed job
    // is replaced by a fresh one under the same id — same journals, so
    // the re-run resumes from where the cancelled run stopped.
    let (job, dedup) = {
        let mut jobs = lock(&shared.jobs);
        match jobs.get(&id) {
            Some(existing)
                if !matches!(existing.state(), JobState::Cancelled | JobState::Failed) =>
            {
                (Arc::clone(existing), true)
            }
            _ => {
                let job = Job::new(id.clone(), spec, scale);
                jobs.insert(id.clone(), Arc::clone(&job));
                (job, false)
            }
        }
    };
    if dedup {
        return write_frame(writer, &submitted(&job, true));
    }
    let sender = lock(&shared.queue).clone();
    let Some(sender) = sender else {
        lock(&shared.jobs).remove(&id);
        return write_frame(writer, &error_frame("server is shutting down"));
    };
    match sender.try_send(Arc::clone(&job)) {
        Ok(()) => {
            eprintln!("[serve] job {} queued ({})", job.id, job.spec.kind.name());
            write_frame(writer, &submitted(&job, false))
        }
        Err(e) => {
            lock(&shared.jobs).remove(&id);
            match e {
                TrySendError::Full(_) => {
                    // Structured load shedding: the queue is at its
                    // bound, so refuse with a retry hint instead of
                    // buffering without limit.
                    eprintln!(
                        "[serve] shedding submit: queue full ({} queued)",
                        shared.queue_cap
                    );
                    write_frame(
                        writer,
                        &busy_frame(
                            &format!("job queue full ({} queued)", shared.queue_cap),
                            BUSY_RETRY_MS,
                        ),
                    )
                }
                TrySendError::Disconnected(_) => {
                    write_frame(writer, &error_frame("server is shutting down"))
                }
            }
        }
    }
}

/// Replay the job's frame log, then stream live frames until terminal.
fn handle_watch(job: &Arc<Job>, writer: &mut impl Write) -> std::io::Result<()> {
    let (snapshot, live) = {
        let mut inner = lock(&job.inner);
        let snapshot = inner.log.clone();
        if inner.state.is_terminal() {
            (snapshot, None)
        } else {
            let (tx, rx) = mpsc::channel();
            inner.subs.push(tx);
            (snapshot, Some(rx))
        }
    };
    for frame in &snapshot {
        write_frame(writer, frame)?;
    }
    let Some(rx) = live else { return Ok(()) };
    loop {
        match rx.recv_timeout(Duration::from_secs(1)) {
            Ok(frame) => {
                let done = frame.get("type").and_then(Value::as_str) == Some("done");
                write_frame(writer, &frame)?;
                if done {
                    return Ok(());
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Keep waiting; publish() under the registry lock means a
                // terminal frame cannot have slipped past this subscriber.
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}
