//! Worker reconnect-backoff exhaustion: a `--connect` worker that cannot
//! reach a live supervisor must give up cleanly after
//! `MAX_CONNECT_FAILURES` (5) consecutive failures — exit code 3, an
//! explicit give-up line on stderr, and real backoff sleeps in between —
//! while a successful handshake resets the counter so a flaky-but-alive
//! supervisor never kills its fleet. (The supervisor side of the story —
//! re-enqueueing whatever a vanished worker held — is covered by the
//! kill/hang/drop scenarios in `dist.rs`.)

use automc_json::wire::{self, write_frame, Recv};
use automc_json::{obj, ToJson, Value};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("automc-reconnect-e2e-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn worker_cmd(results: &PathBuf, addr: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table2"));
    cmd.arg("--smoke")
        .arg("--connect")
        .arg(addr)
        // Short socket deadline so a fake supervisor that goes quiet is a
        // fast timeout, not a 10 s stall per attempt.
        .arg("--io-timeout-ms")
        .arg("2000")
        .env("AUTOMC_RESULTS_DIR", results)
        .env("AUTOMC_THREADS", "1")
        .stdin(Stdio::null());
    for k in ["AUTOMC_FAULTS", "AUTOMC_WORKER_FAULT", "AUTOMC_SHARED_RESULTS_DIR"] {
        cmd.env_remove(k);
    }
    cmd
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Run to completion with a hard wall-clock deadline (kills on overrun).
fn run_with_deadline(mut cmd: Command, deadline: Duration) -> Output {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("worker binary must spawn");
    let end = Instant::now() + deadline;
    loop {
        match child.try_wait().expect("try_wait") {
            Some(_) => return child.wait_with_output().expect("collect output"),
            None if Instant::now() >= end => {
                let _ = child.kill();
                let out = child.wait_with_output().expect("collect output");
                panic!(
                    "worker exceeded the {deadline:?} deadline; stderr:\n{}",
                    text(&out.stderr)
                );
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

#[test]
fn worker_gives_up_after_five_consecutive_connect_failures() {
    let dir = fresh_dir("dead-port");
    // Bind-then-drop reserves a port nobody is listening on.
    let port = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").port()
    };
    let started = Instant::now();
    let out = run_with_deadline(
        worker_cmd(&dir, &format!("127.0.0.1:{port}")),
        Duration::from_secs(60),
    );
    let elapsed = started.elapsed();
    let err = text(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(3),
        "exhausted worker must exit with the give-up code, stderr:\n{err}"
    );
    assert!(
        err.contains("giving up after 5 consecutive connection failures"),
        "stderr must record the give-up:\n{err}"
    );
    // Failures 1–4 back off 200/400/800/1600 ms before the fifth attempt
    // gives up: the worker must actually have slept, not spun.
    assert!(
        elapsed >= Duration::from_millis(2_800),
        "give-up arrived after {elapsed:?}; backoff sleeps were skipped"
    );
}

#[test]
fn completed_handshake_resets_the_give_up_counter() {
    let dir = fresh_dir("flaky-supervisor");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();

    // A flaky fake supervisor: slams the first four connections shut
    // before the welcome (four consecutive failures — one short of the
    // budget), then completes a handshake and orders a clean shutdown.
    // If a handshake did not reset the counter, the post-handshake
    // disconnect would be failure #5 and the worker would exit 3.
    let fake = std::thread::spawn(move || {
        for attempt in 0..5 {
            let (stream, _) = listener.accept().expect("accept");
            if attempt < 4 {
                drop(stream); // no welcome: counts as a connection failure
                continue;
            }
            let (mut reader, mut w) = wire::open(stream, 0).expect("open");
            let mut next_frame = || match reader.recv().expect("frame") {
                Recv::Frame(frame) => frame,
                other => panic!("expected a frame, got {other:?}"),
            };
            let hello = next_frame();
            assert_eq!(
                hello.get("type").and_then(Value::as_str),
                Some("hello"),
                "worker must open with a hello frame, got {hello:?}"
            );
            write_frame(&mut w, &obj(vec![
                ("type", "welcome".to_json()),
                ("worker", 7u64.to_json()),
            ]))
            .expect("welcome");
            // First request after the handshake is a pull; answer with
            // shutdown so the worker ends cleanly.
            loop {
                let frame = next_frame();
                if frame.get("type").and_then(Value::as_str) == Some("pull") {
                    break;
                }
            }
            write_frame(&mut w, &obj(vec![("type", "shutdown".to_json())]))
                .expect("shutdown frame");
        }
    });

    let out = run_with_deadline(worker_cmd(&dir, &addr), Duration::from_secs(60));
    fake.join().expect("fake supervisor thread");
    let err = text(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "worker must survive 4 failures + 1 handshake, stderr:\n{err}"
    );
    assert!(
        err.contains("shutdown received"),
        "worker must end via the supervisor's shutdown, stderr:\n{err}"
    );
    assert!(
        !err.contains("giving up"),
        "the reset handshake must clear the failure counter, stderr:\n{err}"
    );
    assert_eq!(
        err.matches("connection lost").count(),
        4,
        "exactly the four pre-handshake failures should be logged:\n{err}"
    );
}
