//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! program's public functions (nothing inside the program is
//! instrumented). Each span keeps its name, start and end (µs since the
//! run began), its parent span and the run id, plus counter deltas taken
//! at the same boundaries: the prefix-memo counters of the span's thread
//! and the process-wide blob-store counters. The ledger is written once,
//! when the run ends, with each span's self time (its duration minus the
//! part of its interval covered by its children).

use automc_compress::{memo, store};
use std::cell::RefCell;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Counter deltas between the span's start and end.
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Span store for one run. Disabled tracers hand out inert guards, so the
/// untraced path pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    run_id: String,
    t0: Instant,
    next_id: Mutex<u64>,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread, innermost last: the implicit parent.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(enabled: bool, run_id: String) -> Tracer {
        Tracer {
            enabled,
            run_id,
            t0: Instant::now(),
            next_id: Mutex::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span whose parent is this thread's innermost open span.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let parent = OPEN.with(|o| o.borrow().last().copied());
        self.span_under(name, parent)
    }

    /// Open a span under an explicit parent (work handed to pool threads,
    /// whose own stack does not know the caller's span).
    pub fn span_under(&self, name: &str, parent: Option<u64>) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                open: None,
            };
        }
        let id = {
            let mut n = self.next_id.lock().expect("span id counter poisoned");
            *n += 1;
            *n
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        SpanGuard {
            tracer: self,
            open: Some(OpenSpan {
                id,
                parent,
                name: name.to_string(),
                start_us: self.now_us(),
                memo: memo::stats(),
                store: store::counters(),
            }),
        }
    }

    /// Record an already-timed interval (a search round reported by the
    /// round hook) as a closed span.
    pub fn record(&self, name: &str, parent: Option<u64>, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = {
            let mut n = self.next_id.lock().expect("span id counter poisoned");
            *n += 1;
            *n
        };
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_us: at(start),
            end_us: at(end),
            counters: Vec::new(),
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Sum of the durations of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Durations of every span called `name`, in seconds, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let mut v: Vec<Span> = self
            .spans()
            .into_iter()
            .filter(|s| s.name == name)
            .collect();
        v.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        v.iter().map(Span::secs).collect()
    }

    /// Write the ledger: one JSON object per span, with self time.
    pub fn write_ledger(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::new();
        out.push_str(&format!("{{\"run\": \"{}\", \"spans\": [\n", self.run_id));
        for (i, s) in spans.iter().enumerate() {
            let counters = s
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "  {{\"id\": {}, \"parent\": {}, \"run\": \"{}\", \"name\": \"{}\", \
                 \"start_us\": {:.1}, \"end_us\": {:.1}, \"self_us\": {:.1}, \
                 \"counters\": {{{counters}}}}}{}\n",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                self.run_id,
                s.name,
                s.start_us,
                s.end_us,
                self_time_us(s, &spans),
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A span's duration minus the union of its children's intervals.
pub fn self_time_us(span: &Span, all: &[Span]) -> f64 {
    let mut kids: Vec<(f64, f64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in kids {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (span.end_us - span.start_us) - covered
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_us: f64,
    memo: memo::MemoStats,
    store: store::StoreCounters,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    open: Option<OpenSpan>,
}

impl SpanGuard<'_> {
    /// The span's id, for children opened on other threads.
    pub fn id(&self) -> Option<u64> {
        self.open.as_ref().map(|o| o.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if let Some(pos) = o.iter().rposition(|&id| id == open.id) {
                o.remove(pos);
            }
        });
        let m = memo::stats().since(&open.memo);
        let st = store::counters().since(&open.store);
        self.tracer.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_us: open.start_us,
            end_us: self.tracer.now_us(),
            counters: vec![
                ("memo_lookups", m.lookups),
                ("memo_prefix_hits", m.prefix_hits),
                ("memo_steps_avoided", m.steps_avoided),
                ("store_publishes", st.publishes),
                ("store_hits", st.hits),
                ("store_misses", st.misses),
                ("store_evictions", st.evictions),
            ],
        });
    }
}
