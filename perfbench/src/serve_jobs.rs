//! `serve_jobs`: an in-process `automc-serve` daemon on loopback, driven
//! as a closed loop by two clients. Each client submits a smoke-scale
//! Evolution, RL or Random search job (`fresh`, unique label), watches it
//! to its terminal frame, and only then submits the next one, until the
//! run's time is up. Job seeds derive from the workload seed; a third of
//! the jobs repeat an earlier job's seed and kind (see [`job_seed`]).

use crate::common::{mean, median, peak_rss_mb, repeat_setup, tail, Outcome, RunDirs};
use crate::{probe, Ctx};
use automc_bench::scale::{prepare_task, smoke};
use automc_json::Value;
use automc_serve::client::Client;
use automc_serve::protocol::{JobKind, JobSpec};
use automc_serve::server::{self, ServeConfig};
use automc_tensor::par;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const KINDS: [&str; 3] = ["evolution", "rl", "random"];

/// Seed of the `j`-th job. Jobs come in cycles of one job per kind; every
/// third cycle replays the seeds of the cycle two before it, so a third
/// of the jobs replay an earlier job's prefixes through the shared memo
/// and spill store and two thirds start cold.
fn job_seed(workload_seed: u64, j: usize) -> (u64, bool) {
    let cycle = (j / KINDS.len()) as u64;
    let replay = cycle % 3 == 2;
    (
        1000 * workload_seed + if replay { cycle - 2 } else { cycle },
        replay,
    )
}

struct Daemon {
    addr: String,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Start the daemon on a free loopback port and wait until it answers.
    fn start() -> Result<Daemon, String> {
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free loopback port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let cfg = ServeConfig {
            listen: addr.clone(),
            jobs: 2,
            ..ServeConfig::default()
        };
        let handle = std::thread::spawn(move || server::run(&cfg));
        let t = Instant::now();
        while Client::connect(&addr).is_err() {
            if handle.is_finished() || t.elapsed() > Duration::from_secs(10) {
                return Err("the serve daemon did not start".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(Daemon { addr, handle })
    }

    fn stop(self) -> Result<(), String> {
        Client::connect(&self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown request failed: {e}"))?;
        match self.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("the serve daemon failed: {e}")),
            Err(_) => Err("the serve daemon panicked".into()),
        }
    }
}

/// One job as its client saw it.
struct JobRec {
    kind: &'static str,
    replay: bool,
    seed: u64,
    latency: f64,
    rtt: f64,
    queue_wait: f64,
    run_s: f64,
    rounds: u64,
    bytes: u64,
    state: String,
    result: String,
    evals: f64,
    memo_lookups: f64,
    memo_hits: f64,
}

#[derive(Default)]
struct Tally {
    jobs: Vec<JobRec>,
    submits: u64,
    busy: u64,
    errors: u64,
}

fn num(frame: &Value, key: &str) -> f64 {
    frame.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Submit one job and watch it to its terminal frame.
fn one_job(
    client: &mut Client,
    spec: &JobSpec,
    kind: &'static str,
    replay: bool,
) -> std::io::Result<JobRec> {
    let t0 = Instant::now();
    let (job, _) = client.submit(spec)?;
    let rtt = t0.elapsed().as_secs_f64();
    let mut running_at = None;
    let mut rounds = 0u64;
    let mut bytes = 0u64;
    let mut last_round = None;
    let done = client.watch(&job, |frame| {
        bytes += frame.to_string_compact().len() as u64 + 1;
        match frame.get("type").and_then(Value::as_str) {
            Some("state") if frame.get("state").and_then(Value::as_str) == Some("running") => {
                running_at.get_or_insert_with(Instant::now);
            }
            Some("round") => {
                rounds += 1;
                last_round = Some(frame.clone());
            }
            _ => {}
        }
    })?;
    let latency = t0.elapsed().as_secs_f64();
    let started = running_at.map_or(latency, |t| t.duration_since(t0).as_secs_f64());
    let result = done.get("result");
    let last = last_round.unwrap_or(Value::Null);
    Ok(JobRec {
        kind,
        replay,
        seed: spec.seed,
        latency,
        rtt,
        queue_wait: (started - rtt).max(0.0),
        run_s: latency - started,
        rounds,
        bytes,
        state: done
            .get("state")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string(),
        result: result.map_or(String::new(), Value::to_string_compact),
        evals: result.map_or(0.0, |r| num(r, "evals")),
        memo_lookups: num(&last, "memo_lookups"),
        memo_hits: num(&last, "memo_prefix_hits"),
    })
}

/// One closed-loop client: the next job goes out only after the last one
/// finished.
fn client_loop(
    ctx: &Ctx,
    id: usize,
    addr: &str,
    next: &AtomicUsize,
    until: Instant,
    tally: &Mutex<Tally>,
) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            tally.lock().expect("tally poisoned").errors += 1;
            return;
        }
    };
    while Instant::now() < until {
        let j = next.fetch_add(1, Ordering::SeqCst);
        let kind = KINDS[j % KINDS.len()];
        let (seed, replay) = job_seed(ctx.seed, j);
        let spec = JobSpec {
            scale: "smoke".into(),
            seed,
            kind: JobKind::parse(kind).expect("known job kind"),
            fresh: true,
            label: format!("c{id}-j{j}"),
        };
        let span = ctx.tracer.span(&format!("serve.job.{kind}"));
        let res = one_job(&mut client, &spec, kind, replay);
        drop(span);
        let mut t = tally.lock().expect("tally poisoned");
        t.submits += 1;
        match res {
            Ok(rec) => t.jobs.push(rec),
            Err(e) if e.to_string().contains("server busy") => {
                t.busy += 1;
                drop(t);
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(_) => {
                t.errors += 1;
                drop(t);
                match Client::connect(addr) {
                    Ok(c) => client = c,
                    Err(_) => return,
                }
            }
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    par::configure_threads(2);

    // Set-up: the per-job fixed cost (`prepare_task` for the first job's
    // seed) once as a warm-up, fresh directories, a cold memo and a daemon
    // that answers. Only the last set-up's daemon serves the measured
    // phase.
    let ((dirs, daemon), setup_s) = repeat_setup(
        |i| {
            drop(prepare_task(&smoke(), job_seed(ctx.seed, 0).0));
            let dirs =
                RunDirs::fresh(&ctx.tag(&format!("serve-{i}"))).map_err(|e| e.to_string())?;
            dirs.activate();
            Ok((dirs, Daemon::start()?))
        },
        |(dirs, daemon)| {
            daemon.stop()?;
            dirs.remove();
            Ok(())
        },
    )?;
    dirs.check_cold(&[])?;

    let store0 = automc_compress::store::counters();
    let tally = Mutex::new(Tally::default());
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let until = t + Duration::from_secs(ctx.seconds);
    std::thread::scope(|s| {
        for id in 0..CLIENTS {
            let (tally, next, addr) = (&tally, &next, daemon.addr.as_str());
            s.spawn(move || client_loop(ctx, id, addr, next, until, tally));
        }
    });
    let wall = t.elapsed().as_secs_f64();
    let store = automc_compress::store::counters().since(&store0);
    daemon.stop()?;
    let rss = peak_rss_mb();
    let tally = tally.into_inner().expect("tally poisoned");

    // Checks: every job done; one payload per (seed, kind).
    let failed_jobs = tally.jobs.iter().filter(|j| j.state != "done").count() as u64;
    let mut payloads: BTreeMap<(u64, &str), &str> = BTreeMap::new();
    for j in tally.jobs.iter().filter(|j| j.state == "done") {
        let first = payloads.entry((j.seed, j.kind)).or_insert(&j.result);
        if *first != j.result {
            out.errors.push(format!(
                "seed {} {} jobs returned different results",
                j.seed, j.kind
            ));
        }
    }
    out.check(failed_jobs == 0, || {
        format!("{failed_jobs} job(s) did not reach done")
    });
    out.check(!tally.jobs.is_empty(), || "no job finished".into());
    out.attempted = tally.submits;
    out.failed = tally.busy + tally.errors + failed_jobs;

    let lat: Vec<f64> = tally.jobs.iter().map(|j| j.latency).collect();
    let evals: f64 = tally.jobs.iter().map(|j| j.evals).sum();
    let (tail_v, pct, n) = tail(&lat);
    out.notes.push(format!(
        "job = one submitted search, submit to done; job_tail_s is p{pct:.1} of n={n}; \
         {} busy, {} errors, {failed_jobs} not done",
        tally.busy, tally.errors
    ));
    // Cold jobs bypass the replay path and replayed jobs exercise it, so
    // a change that helps only repeated inputs moves one population and
    // not the other.
    let latencies = |kind: Option<&str>, replay: bool| -> Vec<f64> {
        tally
            .jobs
            .iter()
            .filter(|j| kind.map_or(true, |k| j.kind == k) && j.replay == replay)
            .map(|j| j.latency)
            .collect()
    };
    let replayed = tally.jobs.iter().filter(|j| j.replay).count();
    out.notes.push(format!(
        "replayed jobs: {replayed} of {} ({:.0}%)",
        tally.jobs.len(),
        100.0 * replayed as f64 / tally.jobs.len().max(1) as f64
    ));
    for kind in KINDS {
        let (cold, warm) = (latencies(Some(kind), false), latencies(Some(kind), true));
        out.notes.push(format!(
            "{kind}: cold p50 {:.3}s n={}, replayed p50 {:.3}s n={}",
            median(&cold),
            cold.len(),
            median(&warm),
            warm.len()
        ));
    }
    out.put("wall_s", wall, "s");
    out.put("setup_s", setup_s, "s");
    out.put("evals_per_s", evals / wall, "1/s");
    out.put("job_p50_s", median(&lat), "s");
    out.put("job_tail_s", tail_v, "s");
    out.put("peak_rss_mb", rss, "MiB");

    if ctx.tracer.enabled() {
        let jobs = &tally.jobs;
        let f = |g: fn(&JobRec) -> f64| jobs.iter().map(g).collect::<Vec<f64>>();
        out.put("serve.submit_rtt_ms", 1e3 * median(&f(|j| j.rtt)), "ms");
        out.put("serve.queue_wait_s", median(&f(|j| j.queue_wait)), "s");
        out.put("serve.run_s", median(&f(|j| j.run_s)), "s");
        out.put(
            "serve.rounds_per_job",
            mean(&f(|j| j.rounds as f64)),
            "count",
        );
        out.put(
            "serve.frame_bytes_per_job",
            mean(&f(|j| j.bytes as f64)),
            "bytes",
        );
        out.put("serve.cold_job_p50_s", median(&latencies(None, false)), "s");
        out.put(
            "serve.replay_job_p50_s",
            median(&latencies(None, true)),
            "s",
        );
        out.put("serve.busy", tally.busy as f64, "count");
        out.put("serve.failed", (tally.errors + failed_jobs) as f64, "count");
        let lookups: f64 = f(|j| j.memo_lookups).iter().sum();
        let hits: f64 = f(|j| j.memo_hits).iter().sum();
        out.put("compress.memo.lookups", lookups, "count");
        out.put("compress.memo.prefix_hits", hits, "count");
        out.put(
            "compress.memo.hit_rate",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        );
        out.put("compress.store.published", store.publishes as f64, "count");
        out.put("compress.store.hits", store.hits as f64, "count");
        out.put("compress.store.evicted", store.evictions as f64, "count");
        out.put("bench.cache.bytes", dirs.bytes() as f64, "bytes");
        // The fixed cost every job pays first: preparing its task.
        let t = Instant::now();
        let task = {
            let _s = ctx.tracer.span("models.prepare_task");
            prepare_task(&smoke(), job_seed(ctx.seed, 0).0)
        };
        out.put("models.prepare_task_s", t.elapsed().as_secs_f64(), "s");
        probe::models(&mut out, &task);
    }
    dirs.remove();
    Ok(out)
}
