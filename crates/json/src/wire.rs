//! The one connection layer shared by every TCP surface (`automc-serve`
//! and the distributed bench supervisor and its workers): strict
//! newline-delimited JSON framing plus the socket policy around it.
//!
//! Every frame is one JSON object on one line. Serialisation is *strict*
//! ([`Value::to_wire`]): a non-finite number anywhere in a frame is a
//! serialisation error, never a silent `null`. Parsing is strict too
//! ([`with_strict`]): a `null` where a number is expected is a malformed
//! frame, never a NaN. The on-disk caches keep the lenient mode; the
//! wire does not, because a NaN that round-trips into a streamed
//! accuracy corrupts every downstream consumer silently.
//!
//! The socket policy lives here too, once:
//!
//! - [`open`]: `TCP_NODELAY`, read and write deadlines
//!   (`0` = none), and split reader/writer halves;
//! - [`FrameReader::recv`]: a frame, a clean close, or a deadline expiry
//!   classified as [`Stall::Idle`] or [`Stall::MidFrame`] — each caller
//!   decides only what a stall means to it;
//! - [`accept_loop`]: one thread per connection until a [`Stop`] is set;
//!   a connection whose thread cannot be spawned is logged and dropped,
//!   and the loop keeps accepting;
//! - [`lock`]: a mutex lock that rides through poisoning.

use crate::{obj, parse, with_strict, ToJson, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Maximum accepted frame length in bytes — a defensive bound so a
/// misbehaving peer cannot make the server buffer unboundedly. The cap
/// is enforced *during* the read ([`FrameReader`] never buffers more
/// than one byte past it), not after a whole line has already been
/// accumulated.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// Build a frame of type `ty` carrying `fields`.
pub fn frame(ty: &str, mut fields: Vec<(&str, Value)>) -> Value {
    fields.insert(0, ("type", ty.to_json()));
    obj(fields)
}

/// Build an `error` frame.
pub fn error_frame(message: &str) -> Value {
    frame("error", vec![("message", message.to_json())])
}

/// Build an `ok` frame.
pub fn ok_frame() -> Value {
    frame("ok", Vec::new())
}

/// Build a `busy` frame: the structured load-shed response sent when a
/// bounded submit queue is full. `retry_ms` is a hint for when the peer
/// should try again.
pub fn busy_frame(message: &str, retry_ms: u64) -> Value {
    frame("busy", vec![("message", message.to_json()), ("retry_ms", retry_ms.to_json())])
}

/// Write one frame as a strict single-line JSON document plus `\n`, in
/// one write (so an unbuffered `TCP_NODELAY` socket sends one segment).
/// A frame that fails strict serialisation (a non-finite number slipped
/// in) is replaced by an `error` frame naming the offending path — the
/// peer sees an explicit error, never a silent NaN.
pub fn write_frame(w: &mut impl Write, frame: &Value) -> std::io::Result<()> {
    let mut line = match frame.to_wire() {
        Ok(line) => line,
        Err(why) => {
            let msg = format!("unserialisable frame: {why}");
            match error_frame(&msg).to_wire() {
                Ok(line) => line,
                // The fallback frame contains no numbers; this arm is
                // unreachable, but fail closed rather than panic.
                Err(_) => return Err(std::io::Error::other(msg)),
            }
        }
    };
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// What one [`FrameReader::recv`] saw.
#[derive(Debug, Clone, PartialEq)]
pub enum Recv {
    /// One complete frame.
    Frame(Value),
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The read deadline expired.
    Timeout(Stall),
}

/// How a read deadline expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// Nothing pending: the peer is quiet between frames.
    Idle,
    /// The peer started a frame and went quiet; the partial line is kept,
    /// so another [`FrameReader::recv`] resumes the same frame.
    MidFrame,
}

impl std::fmt::Display for Stall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Stall::Idle => "idle",
            Stall::MidFrame => "stalled mid-frame",
        })
    }
}

/// Incremental frame reader that enforces [`MAX_FRAME_BYTES`] *while*
/// reading and survives socket read timeouts.
///
/// - **Bounded buffering.** Bytes are pulled through a
///   [`Read::take`]-limited `read_until`, so a newline-less frame is
///   rejected as soon as it crosses the cap instead of after the whole
///   line has been buffered.
/// - **Partial retention.** A deadline that expires mid-frame keeps the
///   partial line in the reader's buffer: [`FrameReader::recv`] reports
///   it as [`Stall::MidFrame`] (as opposed to [`Stall::Idle`]), and a
///   caller that keeps waiting resumes the same frame on the next call.
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: BufRead> FrameReader<R> {
    /// Wrap a buffered stream.
    pub fn new(inner: R) -> Self {
        FrameReader { inner, buf: Vec::new() }
    }

    /// Read one frame. Blank keep-alive lines between frames are
    /// skipped. A malformed frame (parsed in strict mode, so
    /// `null`-where-number is an error here even though the cache reader
    /// tolerates it) or one that grows past [`MAX_FRAME_BYTES`] without a
    /// newline is an `Err`; after the latter the stream is
    /// desynchronised and should be closed. Other I/O errors pass through.
    pub fn recv(&mut self) -> std::io::Result<Recv> {
        match self.read_frame() {
            Ok(Some(frame)) => Ok(Recv::Frame(frame)),
            Ok(None) => Ok(Recv::Closed),
            // A socket-timeout expiry: `WouldBlock` on Unix, `TimedOut`
            // on Windows.
            Err(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
            {
                Ok(Recv::Timeout(if self.buf.is_empty() { Stall::Idle } else { Stall::MidFrame }))
            }
            Err(e) => Err(e),
        }
    }

    fn read_frame(&mut self) -> std::io::Result<Option<Value>> {
        loop {
            // Allow exactly one byte past the cap so "too long" is
            // distinguishable from "exactly at the cap with a newline".
            let room = (MAX_FRAME_BYTES + 1).saturating_sub(self.buf.len());
            let n = {
                let mut limited = Read::take(&mut self.inner, room as u64);
                limited.read_until(b'\n', &mut self.buf)?
            };
            if self.buf.last() == Some(&b'\n') {
                let line = std::mem::take(&mut self.buf);
                match parse_frame_line(&line)? {
                    // Tolerate blank keep-alive lines between frames.
                    None => continue,
                    some => return Ok(some),
                }
            }
            if n == 0 {
                // Underlying EOF. An unterminated trailing line still
                // parses (matches the historical `read_line` behavior).
                if self.buf.is_empty() {
                    return Ok(None);
                }
                let line = std::mem::take(&mut self.buf);
                return parse_frame_line(&line);
            }
            if self.buf.len() > MAX_FRAME_BYTES {
                // Cap crossed mid-line: drop the poisoned prefix so the
                // error is not re-reported forever, and fail.
                self.buf.clear();
                return Err(std::io::Error::other("frame exceeds MAX_FRAME_BYTES"));
            }
        }
    }
}

fn parse_frame_line(line: &[u8]) -> std::io::Result<Option<Value>> {
    let text = String::from_utf8_lossy(line);
    let text = text.trim_end_matches(['\n', '\r']);
    if text.is_empty() {
        return Ok(None);
    }
    with_strict(|| parse(text))
        .map(Some)
        .map_err(|e| std::io::Error::other(format!("malformed frame: {e}")))
}

/// The read half of an [`open`]ed connection.
pub type Reader = FrameReader<BufReader<TcpStream>>;

/// Prepare an accepted or connected socket: `TCP_NODELAY`, a read and a
/// write deadline of `io_timeout_ms` each (`0` = none), and split
/// reader/writer halves. The deadlines live on the socket, so both
/// halves carry them; a blocking read or write on either surfaces as a
/// timeout instead of parking its thread forever.
pub fn open(stream: TcpStream, io_timeout_ms: u64) -> std::io::Result<(Reader, TcpStream)> {
    stream.set_nodelay(true)?;
    let deadline = (io_timeout_ms > 0).then(|| Duration::from_millis(io_timeout_ms));
    stream.set_read_timeout(deadline)?;
    stream.set_write_timeout(deadline)?;
    Ok((FrameReader::new(BufReader::new(stream.try_clone()?)), stream))
}

/// The stop switch of an [`accept_loop`]. Cloneable; [`Stop::set`] from
/// any thread ends the loop at its next accept, which the wake-up
/// connection it makes triggers at once.
#[derive(Clone)]
pub struct Stop {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl Stop {
    /// A switch for the loop listening on `addr`.
    pub fn new(addr: SocketAddr) -> Stop {
        Stop { flag: Arc::new(AtomicBool::new(false)), addr }
    }

    /// Set the switch and wake the loop with a throwaway connection.
    pub fn set(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// Accept connections on `listener` until `stop` is set, [`open`] each
/// with `io_timeout_ms` deadlines, and run `handle` on its own thread
/// named `<name>-conn`. A connection that cannot be opened, or whose
/// thread cannot be spawned, is logged under `[<name>]` and dropped; the
/// loop keeps accepting.
pub fn accept_loop<F>(
    listener: &TcpListener,
    stop: &Stop,
    io_timeout_ms: u64,
    name: &str,
    handle: F,
) where
    F: Fn(Reader, TcpStream) + Send + Sync + 'static,
{
    let handle = Arc::new(handle);
    for stream in listener.incoming() {
        if stop.flag.load(Ordering::SeqCst) {
            break;
        }
        let (reader, writer) = match stream.and_then(|s| open(s, io_timeout_ms)) {
            Ok(halves) => halves,
            Err(e) => {
                eprintln!("[{name}] accept failed: {e}");
                continue;
            }
        };
        let handle = Arc::clone(&handle);
        let spawned = std::thread::Builder::new()
            .name(format!("{name}-conn"))
            .spawn(move || handle(reader, writer));
        if let Err(e) = spawned {
            eprintln!("[{name}] cannot spawn a connection thread ({e}); dropping the connection");
        }
    }
}

/// Lock a mutex, riding through poisoning: one panicking thread must
/// not wedge every other user of state whose invariants are per-field.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader_over(bytes: &[u8]) -> FrameReader<BufReader<&[u8]>> {
        FrameReader::new(BufReader::new(bytes))
    }

    #[test]
    fn frame_io_round_trips_and_replaces_non_finite_frames() {
        let mut buf: Vec<u8> = Vec::new();
        let frame = obj(vec![("type", "state".to_json()), ("seed", 7u64.to_json())]);
        write_frame(&mut buf, &frame).expect("write");
        let mut r = reader_over(&buf);
        assert_eq!(r.recv().expect("read"), Recv::Frame(frame));
        assert_eq!(r.recv().expect("eof"), Recv::Closed);

        // A NaN in a frame becomes an explicit error frame on the wire.
        let mut buf: Vec<u8> = Vec::new();
        let bad = obj(vec![("acc", f64::NAN.to_json())]);
        write_frame(&mut buf, &bad).expect("write substitutes an error frame");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.contains("\"error\""), "got: {text}");

        // Blank keep-alive lines between frames are skipped.
        let mut r = reader_over(b"\n\n{\"type\": \"ok\"}\n");
        assert_eq!(r.recv().expect("read"), Recv::Frame(ok_frame()));
    }

    /// A reader that yields `'x'` forever: a newline-less frame of
    /// unbounded length. The cap must trip during the read — if the
    /// reader tried to buffer the whole "line" first, this test would
    /// never return.
    struct Endless;

    impl std::io::Read for Endless {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            for b in buf.iter_mut() {
                *b = b'x';
            }
            Ok(buf.len())
        }
    }

    #[test]
    fn frame_cap_is_enforced_during_the_read() {
        let mut fr = FrameReader::new(BufReader::new(Endless));
        let err = fr.recv().expect_err("unbounded line must be rejected");
        assert!(err.to_string().contains("MAX_FRAME_BYTES"), "{err}");
        assert!(fr.buf.is_empty(), "the poisoned prefix must be dropped");

        // Exactly at the cap with a newline is still fine.
        let body = format!("{{\"pad\": \"{}\"}}", "x".repeat(MAX_FRAME_BYTES - 11));
        assert_eq!(body.len(), MAX_FRAME_BYTES);
        let mut line = body.into_bytes();
        line.push(b'\n');
        match reader_over(&line).recv().expect("cap-sized frame reads") {
            Recv::Frame(v) => assert!(v.get("pad").is_some()),
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    /// A reader that delivers its chunks in order, answering an empty
    /// chunk with a timeout error — like a socket read deadline expiring
    /// between or inside frames.
    struct Stutter {
        chunks: Vec<Vec<u8>>,
        at: usize,
        pos: usize,
    }

    impl std::io::Read for Stutter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(chunk) = self.chunks.get(self.at) else {
                return Ok(0);
            };
            if chunk.is_empty() {
                self.at += 1;
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "timeout"));
            }
            let n = (chunk.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&chunk[self.pos..self.pos + n]);
            self.pos += n;
            if self.pos == chunk.len() {
                self.at += 1;
                self.pos = 0;
            }
            Ok(n)
        }
    }

    fn stutter(chunks: Vec<Vec<u8>>) -> FrameReader<BufReader<Stutter>> {
        // Capacity 1 so BufReader never coalesces across the error.
        FrameReader::new(BufReader::with_capacity(1, Stutter { chunks, at: 0, pos: 0 }))
    }

    #[test]
    fn timeouts_are_classified_and_partial_frames_survive_them() {
        let mut fr = stutter(vec![
            vec![],
            b"{\"type\":".to_vec(),
            vec![],
            b" \"ok\"}\n".to_vec(),
        ]);
        assert_eq!(fr.recv().expect("idle"), Recv::Timeout(Stall::Idle));
        assert_eq!(fr.recv().expect("stall"), Recv::Timeout(Stall::MidFrame));
        assert_eq!(fr.recv().expect("resumes the same frame"), Recv::Frame(ok_frame()));
        assert_eq!(fr.recv().expect("eof"), Recv::Closed);
        assert_eq!(Stall::Idle.to_string(), "idle");
        assert_eq!(Stall::MidFrame.to_string(), "stalled mid-frame");
    }

    #[test]
    fn busy_frames_carry_a_retry_hint() {
        let v = busy_frame("job queue full", 250);
        assert_eq!(v.get("type").and_then(|t| t.as_str()), Some("busy"));
        assert_eq!(v.get("retry_ms").and_then(|n| n.as_f64()), Some(250.0));
    }

    #[test]
    fn accept_loop_serves_deadlines_each_side_and_stops() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stop = Stop::new(addr);
        // Server side: echo frames; report how the connection ended.
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        let server = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                accept_loop(&listener, &stop, 200, "test", move |mut reader, mut writer| {
                    let end = loop {
                        match reader.recv() {
                            Ok(Recv::Frame(f)) => {
                                if write_frame(&mut writer, &f).is_err() {
                                    break "write failed".to_string();
                                }
                            }
                            Ok(other) => break format!("{other:?}"),
                            Err(e) => break e.to_string(),
                        }
                    };
                    let _ = lock(&tx).send(end);
                })
            })
        };

        // An echo round trip, then a client-side idle deadline.
        let client = TcpStream::connect(addr).expect("connect");
        let (mut reader, mut writer) = open(client, 100).expect("open");
        write_frame(&mut writer, &ok_frame()).expect("send");
        assert_eq!(reader.recv().expect("echo"), Recv::Frame(ok_frame()));
        assert_eq!(reader.recv().expect("quiet"), Recv::Timeout(Stall::Idle));

        // Half a frame, then silence: the server side sees a stall.
        writer.write_all(b"{\"type\":").expect("partial");
        let end = rx.recv_timeout(Duration::from_secs(10)).expect("server verdict");
        assert_eq!(end, format!("{:?}", Recv::Timeout(Stall::MidFrame)));
        // The server handler has returned, so the client sees a close.
        assert_eq!(reader.recv().expect("closed"), Recv::Closed);

        stop.set();
        server.join().expect("accept loop ends once stopped");
    }

    #[test]
    fn lock_rides_through_poisoning() {
        let m = Arc::new(Mutex::new(1u32));
        let poisoner = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = poisoner.lock();
            panic!("poison the mutex");
        })
        .join();
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 2);
    }

    /// SplitMix64: the std-only generator behind the seeded fuzz loop.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    /// Seeded fuzzing of the shared reader: streams of valid frames with
    /// byte flips, truncation, timeouts at random split points, and lines
    /// over the cap. Nothing may panic, the reader may never buffer more
    /// than `MAX_FRAME_BYTES + 1` bytes, every `recv` must make progress,
    /// and a frame split by timeouts (and otherwise untouched) must come
    /// out whole.
    #[test]
    fn fuzzed_streams_never_panic_or_overbuffer() {
        let frames = [
            ok_frame(),
            error_frame("unknown job"),
            busy_frame("job queue full (1 queued)", 500),
            obj(vec![
                ("type", "round".to_json()),
                ("job", "00ff".to_json()),
                ("best_acc", 91.25f64.to_json()),
                ("nested", obj(vec![("list", vec![1u64, 2, 3].to_json())])),
            ]),
        ];
        for case in 0..256u64 {
            let mut rng = Rng(0x51_000 + case);
            let picked: Vec<&Value> =
                (0..1 + rng.below(4)).map(|_| &frames[rng.below(4)]).collect();
            let mut stream: Vec<u8> = Vec::new();
            for f in &picked {
                write_frame(&mut stream, f).expect("valid frame serialises");
            }
            // Every 32nd case carries a line over the cap (4 MiB each).
            let mutation = if case % 32 == 2 { 2 } else { [0, 1, 3][rng.below(3)] };
            match mutation {
                // Byte flips.
                0 => {
                    for _ in 0..1 + rng.below(4) {
                        let at = rng.below(stream.len());
                        stream[at] ^= 1 << rng.below(8);
                    }
                }
                // Truncation.
                1 => stream.truncate(rng.below(stream.len())),
                // A line over the cap.
                2 => {
                    let mut long = vec![b'x'; MAX_FRAME_BYTES + 1 + rng.below(64)];
                    if rng.below(2) == 0 {
                        long.push(b'\n');
                    }
                    let at = rng.below(stream.len());
                    stream.splice(at..at, long);
                }
                // Only the timeout splits below.
                _ => {}
            }
            // Split the stream at random points with a timeout at each.
            let mut cuts: Vec<usize> =
                (0..rng.below(6)).map(|_| rng.below(stream.len() + 1)).collect();
            cuts.sort_unstable();
            let mut chunks = Vec::new();
            let mut from = 0;
            for cut in cuts {
                chunks.push(stream[from..cut].to_vec());
                chunks.push(Vec::new());
                from = cut;
            }
            chunks.push(stream[from..].to_vec());
            chunks.retain(|c| !c.is_empty() || rng.below(4) != 0);

            let mut fr = stutter(chunks);
            let mut seen = Vec::new();
            let mut errors = 0;
            // Every call consumes input or reports a timeout, so the
            // stream ends well within this many calls.
            for _ in 0..stream.len() + 64 {
                match fr.recv() {
                    Ok(Recv::Frame(v)) => seen.push(v),
                    Ok(Recv::Closed) => break,
                    Ok(Recv::Timeout(_)) => {}
                    Err(_) => errors += 1,
                }
                assert!(
                    fr.buf.len() <= MAX_FRAME_BYTES + 1,
                    "case {case}: buffered {} bytes",
                    fr.buf.len()
                );
            }
            assert_eq!(fr.recv().expect("closed stays closed"), Recv::Closed, "case {case}");
            if mutation == 2 {
                assert!(errors > 0, "case {case}: an over-cap line must be rejected");
            }
            if mutation == 3 {
                let expected: Vec<Value> = picked.into_iter().cloned().collect();
                assert_eq!(seen, expected, "case {case}: timeouts must not lose or split frames");
            }
        }
    }
}
