//! Deterministic chaos soak: `chaos@seed:n` schedules (random but
//! reproducible compositions of the existing fault kinds) are driven
//! against `table2 --smoke` in every execution mode — serial, local
//! worker fleet (`--workers`), and remote workers (`--listen` /
//! `--connect`) — and each soaked run must:
//!
//! - terminate within a wall-clock deadline and a bounded number of
//!   resume attempts (an injected supervisor exit is code 87; rerunning
//!   in the same directory resumes the journals);
//! - produce stdout byte-identical to the fault-free reference, or
//!   degrade *only* by lines labelled `unavailable`;
//! - leave the blob/result stores reopenable: a fault-free rerun in the
//!   same directory completes and reproduces the reference exactly.
//!
//! Seeds are fixed, not sampled: the expansion of `chaos@seed:3` is a
//! pure function of the seed (pinned by unit tests in
//! `automc_tensor::fault`), and these particular seeds were chosen so
//! that every pool site (cache, spill, index, eval-exit, worker kill and
//! hang, net drop, dist exit) fires across the suite.

mod common;

use common::{tail, wait_deadline};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Smoke-scale knobs shared by every run in this file.
const KNOBS: [(&str, &str); 4] = [
    ("AUTOMC_SMOKE_TRAIN", "32"),
    ("AUTOMC_SMOKE_TEST", "16"),
    ("AUTOMC_SMOKE_EPOCHS", "1"),
    ("AUTOMC_SMOKE_BUDGET", "150"),
];

/// Exit code of an injected `exit` fault (`fault::INJECTED_EXIT_CODE`).
const INJECTED_EXIT: i32 = 87;

/// Resume attempts before a schedule counts as non-terminating.
const MAX_ATTEMPTS: usize = 5;

/// Wall-clock deadline for one soaked schedule (all attempts together).
const SOAK_DEADLINE: Duration = Duration::from_secs(300);

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("automc-chaos-soak-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn base_cmd(results: &Path, shared: Option<&Path>) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table2"));
    cmd.arg("--smoke").arg("--seed").arg("11");
    for (k, v) in KNOBS {
        cmd.env(k, v);
    }
    cmd.env("AUTOMC_RESULTS_DIR", results).env("AUTOMC_THREADS", "1");
    match shared {
        Some(dir) => {
            cmd.env("AUTOMC_SHARED_RESULTS_DIR", dir);
        }
        None => {
            cmd.env_remove("AUTOMC_SHARED_RESULTS_DIR");
        }
    }
    for k in ["AUTOMC_FAULTS", "AUTOMC_WORKER_FAULT"] {
        cmd.env_remove(k);
    }
    cmd.stdin(Stdio::null());
    cmd
}

/// The fault-free serial reference: computed once per test process, its
/// results directory doubles as the shared store every soaked run pulls
/// the one-time corpus/embedding artifacts through.
fn reference() -> &'static (PathBuf, String) {
    static REF: OnceLock<(PathBuf, String)> = OnceLock::new();
    REF.get_or_init(|| {
        let dir = fresh_dir("reference");
        let child = base_cmd(&dir, None)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("table2 must spawn");
        let out = wait_deadline(child, Instant::now() + SOAK_DEADLINE, "reference run");
        assert!(
            out.status.success(),
            "fault-free reference failed: {}",
            text(&out.stderr)
        );
        (dir, text(&out.stdout))
    })
}

/// Byte-identical, or degraded only by `unavailable`-labelled lines.
fn assert_soak_output(seed: u64, reference: &str, soaked: &str) {
    if soaked == reference {
        return;
    }
    let ref_lines: Vec<&str> = reference.lines().collect();
    let out_lines: Vec<&str> = soaked.lines().collect();
    assert_eq!(
        out_lines.len(),
        ref_lines.len(),
        "chaos@{seed}:3 changed the output shape:\n--- reference ---\n{reference}\n--- soaked ---\n{soaked}"
    );
    for (r, o) in ref_lines.iter().zip(&out_lines) {
        assert!(
            r == o || o.contains("unavailable"),
            "chaos@{seed}:3 corrupted a line (only labelled degradation is \
             tolerated):\n  reference: {r}\n  soaked:    {o}"
        );
    }
}

/// Drive one chaos schedule to termination: rerun (resuming journals) on
/// each injected exit, bounded by [`MAX_ATTEMPTS`] and [`SOAK_DEADLINE`].
/// `make_attempt` runs one attempt and returns its (status code, stdout,
/// stderr). Returns the stdout of the final, successful attempt.
fn soak(
    seed: u64,
    mut make_attempt: impl FnMut(usize, Instant) -> (Option<i32>, String, String),
) -> String {
    let end = Instant::now() + SOAK_DEADLINE;
    let mut expansion_logged = false;
    for attempt in 1..=MAX_ATTEMPTS {
        let (code, stdout, stderr) = make_attempt(attempt, end);
        expansion_logged |= stderr.contains(&format!("chaos@{seed}:3 expands to"));
        match code {
            Some(0) => {
                assert!(
                    expansion_logged,
                    "chaos@{seed}:3 never logged its expansion; stderr tail:\n{}",
                    tail(&stderr)
                );
                return stdout;
            }
            Some(c) if c == INJECTED_EXIT => continue, // resume in the same dirs
            code => panic!(
                "chaos@{seed}:3 attempt {attempt} ended with unexpected status \
                 {code:?}; stderr tail:\n{}",
                tail(&stderr)
            ),
        }
    }
    panic!("chaos@{seed}:3 still failing after {MAX_ATTEMPTS} attempts — the \
            schedule does not make progress across resumes");
}

/// After the soak: the stores the faulted runs battered must reopen
/// clean — a fault-free run in the same directory must succeed and
/// reproduce the reference bytes exactly (no lingering corruption, no
/// stale journals, no poisoned blob store).
fn assert_clean_reopen(seed: u64, results: &Path, reference: &str) {
    let (ref_dir, _) = self::reference();
    let child = base_cmd(results, Some(ref_dir))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("table2 must spawn");
    let out = wait_deadline(child, Instant::now() + SOAK_DEADLINE, "reopen run");
    assert!(
        out.status.success(),
        "post-soak fault-free rerun for chaos@{seed}:3 failed: {}",
        tail(&text(&out.stderr))
    );
    assert_eq!(
        text(&out.stdout),
        reference,
        "post-soak rerun for chaos@{seed}:3 must reproduce the reference"
    );
}

fn run_attempt(cmd: &mut Command, end: Instant, what: &str) -> (Option<i32>, String, String) {
    let child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("table2 must spawn");
    let out = wait_deadline(child, end, what);
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn chaos_soak_serial() {
    let (ref_dir, ref_out) = reference();
    // Seed 3: torn spill write, cache corruption, spill eviction.
    // Seed 4: eval exit (kills the process mid-search), eviction, torn.
    for seed in [3u64, 4] {
        let dir = fresh_dir(&format!("serial-{seed}"));
        let out = soak(seed, |attempt, end| {
            run_attempt(
                base_cmd(&dir, Some(ref_dir)).env("AUTOMC_FAULTS", format!("chaos@{seed}:3")),
                end,
                &format!("serial chaos@{seed}:3 attempt {attempt}"),
            )
        });
        assert_soak_output(seed, ref_out, &out);
        assert_clean_reopen(seed, &dir, ref_out);
    }
}

#[test]
fn chaos_soak_local_workers() {
    let (ref_dir, ref_out) = reference();
    // Seed 2: net drop, worker kill, supervisor exit mid-merge.
    // Seed 16: worker kill, worker hang, supervisor exit at merge 1.
    for seed in [2u64, 16] {
        let dir = fresh_dir(&format!("workers-{seed}"));
        let out = soak(seed, |attempt, end| {
            run_attempt(
                base_cmd(&dir, Some(ref_dir))
                    .args(["--workers", "2"])
                    .env("AUTOMC_FAULTS", format!("chaos@{seed}:3")),
                end,
                &format!("workers chaos@{seed}:3 attempt {attempt}"),
            )
        });
        assert_soak_output(seed, ref_out, &out);
        assert_clean_reopen(seed, &dir, ref_out);
    }
}

/// Wait for a supervisor to publish its bound address.
fn wait_addr(addr_file: &Path, end: Instant) -> String {
    loop {
        if let Ok(t) = std::fs::read_to_string(addr_file) {
            if !t.trim().is_empty() {
                return t.trim().to_string();
            }
        }
        assert!(Instant::now() < end, "supervisor never wrote its address file");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn chaos_soak_remote_workers() {
    let (ref_dir, ref_out) = reference();
    // Seed 29: eval exit + two net drops. Seed 37: two supervisor exits
    // mid-merge (ordinals 1 and 6) — the hardest resume case: the `dist`
    // fault counter must survive both restarts or the schedule loops.
    for seed in [29u64, 37] {
        let dir = fresh_dir(&format!("remote-{seed}"));
        let sup_dir = dir.join("sup");
        let out = soak(seed, |attempt, end| {
            let addr_file = dir.join("addr");
            let _ = std::fs::remove_file(&addr_file);
            let sup = base_cmd(&sup_dir, Some(ref_dir))
                .args(["--listen", "127.0.0.1:0", "--addr-file"])
                .arg(&addr_file)
                .env("AUTOMC_FAULTS", format!("chaos@{seed}:3"))
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("supervisor must spawn");
            let addr = wait_addr(&addr_file, end);
            // Remote workers never see the fault plan (the supervisor owns
            // it); each restart gets fresh workers against the new port.
            let mut workers: Vec<Child> = (0..2)
                .map(|w| {
                    base_cmd(&dir.join(format!("w{w}")), Some(ref_dir))
                        .args(["--connect", &addr])
                        .env("AUTOMC_MEMO_SPILL_DIR", sup_dir.join("memo"))
                        .stdout(Stdio::null())
                        .stderr(Stdio::null())
                        .spawn()
                        .expect("worker must spawn")
                })
                .collect();
            let out = wait_deadline(
                sup,
                end,
                &format!("remote chaos@{seed}:3 attempt {attempt}"),
            );
            for w in &mut workers {
                let _ = w.kill();
                let _ = w.wait();
            }
            (out.status.code(), text(&out.stdout), text(&out.stderr))
        });
        assert_soak_output(seed, ref_out, &out);
        assert_clean_reopen(seed, &sup_dir, ref_out);
    }
}
