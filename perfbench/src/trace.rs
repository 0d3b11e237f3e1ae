//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end, a parent (0 for a request's
//! top-level spans) and the id of the request it belongs to. Spans are
//! buffered per thread and collected once the measured phase ends, so
//! recording one is a clock read and a `Vec` push. Recording is off
//! unless the current thread called [`set_enabled`]; the untraced runs
//! never enable it, so their only cost there is a thread-local read.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u32,
    /// Enclosing span, or 0 for a top-level span of its request.
    pub parent: u32,
    /// Request id shared by every span of one request.
    pub req: u64,
    /// Layer-qualified span name.
    pub name: &'static str,
    /// Start, ns since the process-wide epoch.
    pub start_ns: u64,
    /// End, ns since the process-wide epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static COLLECTED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// (request, innermost open span) of this thread.
    static CURRENT: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
    static LOG: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

/// Nanoseconds since the process-wide epoch (the first call).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn span recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Is span recording on for the calling thread?
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// An open span; recorded when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard {
    open: Option<Open>,
}

struct Open {
    id: u32,
    parent: u32,
    req: u64,
    name: &'static str,
    start_ns: u64,
    prev: (u64, u32),
}

impl Guard {
    /// Rename the span before it ends (for spans whose kind is only known
    /// once the call returns, such as an evolve that checkpointed).
    pub fn rename(&mut self, name: &'static str) {
        if let Some(o) = &mut self.open {
            o.name = name;
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(o) = self.open.take() {
            let end_ns = now_ns();
            CURRENT.with(|c| c.set(o.prev));
            push(Span {
                id: o.id,
                parent: o.parent,
                req: o.req,
                name: o.name,
                start_ns: o.start_ns,
                end_ns,
            });
        }
    }
}

fn open(req: u64, parent: u32, name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(|c| c.replace((req, id)));
    Guard {
        open: Some(Open {
            id,
            parent,
            req,
            name,
            start_ns: now_ns(),
            prev,
        }),
    }
}

/// Open a top-level span of request `req`. Spans opened or recorded on
/// this thread until the guard drops become its children.
pub fn top(req: u64, name: &'static str) -> Guard {
    open(req, 0, name)
}

/// Open a child of the calling thread's innermost open span.
pub fn child(name: &'static str) -> Guard {
    let (req, parent) = CURRENT.with(Cell::get);
    open(req, parent, name)
}

/// Record an already-timed child of the innermost open span (the io
/// wrapper times its call first and reports it here).
pub fn record_child(name: &'static str, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    let (req, parent) = CURRENT.with(Cell::get);
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        req,
        name,
        start_ns,
        end_ns,
    });
}

fn push(span: Span) {
    LOG.with(|l| l.borrow_mut().push(span));
}

/// Move the calling thread's buffered spans to the shared collection.
pub fn flush_thread() {
    let spans = LOG.with(|l| std::mem::take(&mut *l.borrow_mut()));
    COLLECTED
        .lock()
        .expect("span collector poisoned by a panicking thread")
        .extend(spans);
}

/// Take every collected span, ordered by start time.
pub fn take_all() -> Vec<Span> {
    flush_thread();
    let mut all = std::mem::take(
        &mut *COLLECTED
            .lock()
            .expect("span collector poisoned by a panicking thread"),
    );
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times (duration minus direct children), ns.
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration in ns (0 when there are no spans).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Aggregate spans by name. A span's self time is its duration minus the
/// durations of its direct children; children on one thread never
/// overlap, so this is the part of its interval no child covers.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let index: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != 0 {
            if let Some(&p) = index.get(&s.parent) {
                child_ns[p] += s.dur();
            }
        }
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.dur();
        a.self_ns += s.dur().saturating_sub(child_ns[i]);
    }
    out
}

/// Write spans as tab-separated `req id parent name start_ns end_ns`
/// lines, one span per line.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "req\tid\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.req, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
