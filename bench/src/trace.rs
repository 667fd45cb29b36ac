//! In-memory span recorder for the traced run.
//!
//! Spans are `{name, start_ns, end_ns, id, parent, op, thread}` plus one
//! numeric payload `v` (the achieved ratio of an evaluation, the bytes of a
//! store or codec call).  They are kept in memory and written out once, at
//! the end of the run.  Recording is off until [`enable`] is called, so the
//! untraced measurement pays one relaxed atomic load per top-level
//! operation and nothing per codec call (it does not use the wrappers).
//!
//! Parent resolution: a wrapper that sees a dataset resolves its parent
//! from the dataset's `field` label — the benchmark sets it to the
//! operation id, and it survives the wire and the store's chunking.  A
//! wrapper that sees only bytes (`decompress`, store calls) attaches to the
//! single top-level call in flight, or to nothing when several are.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    /// 0 = no parent.
    pub parent: u64,
    /// The operation label the span belongs to ("" when unknown).
    pub op: String,
    pub thread: u64,
    pub v: f64,
    pub failed: bool,
    /// True for a workload operation, false for a wrapper call.
    pub top: bool,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Tracer {
    spans: Mutex<Vec<Span>>,
    /// Open top-level spans: label → id.
    open: Mutex<HashMap<String, u64>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        spans: Mutex::new(Vec::new()),
        open: Mutex::new(HashMap::new()),
    })
}

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open top-level span: one operation of the workload.
pub struct Top {
    id: u64,
    name: &'static str,
    label: String,
    start_ns: u64,
}

impl Top {
    /// The span's id, or 0 when tracing is off.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Open the top-level span of operation `label`.  Always returns the start
/// time (the workload's own latency clock); registers the span only when
/// tracing is on.
pub fn open_top(name: &'static str, label: &str) -> Top {
    let id = if enabled() {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        tracer()
            .open
            .lock()
            .expect("trace lock")
            .insert(label.to_string(), id);
        id
    } else {
        0
    };
    Top {
        id,
        name,
        label: label.to_string(),
        start_ns: now_ns(),
    }
}

/// Close a top-level span; returns its duration in nanoseconds.
pub fn close_top(top: Top, v: f64) -> u64 {
    let end_ns = now_ns();
    if top.id != 0 {
        let t = tracer();
        t.open.lock().expect("trace lock").remove(&top.label);
        t.spans.lock().expect("trace lock").push(Span {
            name: top.name,
            start_ns: top.start_ns,
            end_ns,
            id: top.id,
            parent: 0,
            op: top.label,
            thread: THREAD.with(|t| *t),
            v,
            failed: false,
            top: true,
        });
    }
    end_ns - top.start_ns
}

/// Record one wrapper span.  `label` is the dataset's field label when the
/// call carried a dataset.
pub fn record(name: &'static str, label: Option<&str>, start_ns: u64, v: f64, failed: bool) {
    if !enabled() {
        return;
    }
    let end_ns = now_ns();
    let t = tracer();
    let (parent, op) = {
        let open = t.open.lock().expect("trace lock");
        let only = || (open.len() == 1).then(|| open.iter().next().expect("one open span"));
        match label {
            Some(l) => match open.get(l) {
                Some(&id) => (id, l.to_string()),
                None => (only().map_or(0, |(_, &id)| id), l.to_string()),
            },
            None => only().map_or((0, String::new()), |(l, &id)| (id, l.clone())),
        }
    };
    t.spans.lock().expect("trace lock").push(Span {
        name,
        start_ns,
        end_ns,
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        op,
        thread: THREAD.with(|t| *t),
        v,
        failed,
        top: false,
    });
}

/// Take every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *tracer().spans.lock().expect("trace lock"))
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"op\":\"{}\",\"thread\":{},\"v\":{},\"failed\":{},\"top\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.id,
            s.parent,
            s.op,
            s.thread,
            if s.v.is_finite() { s.v } else { 0.0 },
            s.failed,
            s.top
        )?;
    }
    w.flush()
}
