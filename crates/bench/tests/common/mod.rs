//! Helpers shared by the child-process e2e suites.

use std::io::Read;
use std::process::{Child, Output};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long to keep draining a pipe after the child itself exited: its
/// last writes are already in the pipe, so this only bounds the wait on a
/// grandchild that inherited the pipe and keeps it open.
const DRAIN_GRACE: Duration = Duration::from_millis(500);

/// One child pipe read to end-of-file on its own thread, so a child that
/// writes more than a pipe buffer never blocks on a full pipe.
struct Drain {
    bytes: Arc<Mutex<Vec<u8>>>,
    done: Arc<AtomicBool>,
}

impl Drain {
    fn start(pipe: Option<impl Read + Send + 'static>) -> Drain {
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let done = Arc::new(AtomicBool::new(pipe.is_none()));
        if let Some(mut pipe) = pipe {
            let (sink, eof) = (Arc::clone(&bytes), Arc::clone(&done));
            // Detached: a grandchild holding the pipe open may keep this
            // thread in `read` long after the caller has moved on.
            std::thread::spawn(move || {
                let mut chunk = [0u8; 8192];
                while let Ok(n @ 1..) = pipe.read(&mut chunk) {
                    sink.lock().unwrap().extend_from_slice(&chunk[..n]);
                }
                eof.store(true, Ordering::Release);
            });
        }
        Drain { bytes, done }
    }

    fn done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.bytes.lock().unwrap())
    }
}

/// Wait for `child` (spawned with piped stdout and stderr) and collect
/// its output, never returning later than `end`. Both pipes drain on
/// reader threads while the child runs; once it exits, whatever it wrote
/// is collected without waiting for a grandchild that inherited a pipe.
/// A child still running at `end` is killed, and the call panics with
/// the tail of its stderr, naming it `what`.
pub fn wait_deadline(mut child: Child, end: Instant, what: &str) -> Output {
    let out = Drain::start(child.stdout.take());
    let err = Drain::start(child.stderr.take());
    let status = loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => break status,
            None if Instant::now() >= end => {
                let _ = child.kill();
                let _ = child.wait();
                panic!(
                    "{what} blew its deadline; stderr tail:\n{}",
                    tail(&String::from_utf8_lossy(&err.take()))
                );
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let drained_by = end.min(Instant::now() + DRAIN_GRACE);
    while !(out.done() && err.done()) && Instant::now() < drained_by {
        std::thread::sleep(Duration::from_millis(5));
    }
    Output {
        status,
        stdout: out.take(),
        stderr: err.take(),
    }
}

/// The last 25 lines of `s`.
pub fn tail(s: &str) -> String {
    let lines: Vec<&str> = s.lines().collect();
    lines[lines.len().saturating_sub(25)..].join("\n")
}
