//! Spans for the traced run.
//!
//! A span is one timed call at a layer boundary: a name, the request or
//! session id it belongs to, and start/end on one process-wide monotonic
//! clock. Each recording thread appends to its own preallocated buffer
//! (registered once, then only its own uncontended lock is taken), so
//! recording never allocates and threads never contend. Buffers are
//! drained when the phase ends: written as Chrome trace-event JSON and
//! reduced to per-layer metrics.
//!
//! Which requests are traced is decided by [`sampled`]: every request
//! whose id is a multiple of the sampling period (verify workloads, where
//! the generator's correlation id is the idempotency token the server
//! sees), or every request while a sampled session holds a [`Window`]
//! open (session workloads, where the shipped client's token is hidden).

use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `sp.verify` or `client.dh.get`.
    pub name: &'static str,
    /// Request id (verify workloads) or session id (session workloads).
    pub id: u64,
    /// Start, ns since the process clock's epoch.
    pub start: u64,
    /// End, ns since the process clock's epoch.
    pub end: u64,
    /// Recording thread's buffer number.
    pub tid: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether `other` lies entirely inside this span.
    pub fn contains(&self, other: &Span) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Length of the union of `children` clipped to `[start, end]`.
pub fn covered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// A span's self time: its duration minus the part of it its children
/// cover (overlapping children count once).
pub fn self_time<'a>(parent: &Span, children: impl IntoIterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children.into_iter().map(|c| (c.start, c.end)).collect();
    parent.dur() - covered(parent.start, parent.end, &mut iv)
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static PERIOD: AtomicU64 = AtomicU64::new(0);
static OPEN_WINDOWS: AtomicUsize = AtomicUsize::new(0);
static CAPACITY: AtomicUsize = AtomicUsize::new(0);

/// Starts keeping spans: ids that are multiples of `period` are sampled,
/// or — with `period == 0` — every request while a [`Window`] is open.
/// Each recording thread keeps at most `capacity` spans.
pub fn start(period: u64, capacity: usize) {
    PERIOD.store(period, Ordering::SeqCst);
    CAPACITY.store(capacity, Ordering::SeqCst);
    RECORDING.store(true, Ordering::SeqCst);
}

/// Stops keeping spans (calls in flight may still land).
pub fn stop() {
    RECORDING.store(false, Ordering::SeqCst);
}

/// Whether a request with this id is traced right now.
pub fn sampled(id: u64) -> bool {
    if !RECORDING.load(Ordering::Relaxed) {
        return false;
    }
    match PERIOD.load(Ordering::Relaxed) {
        0 => OPEN_WINDOWS.load(Ordering::Relaxed) > 0,
        p => id != 0 && id.is_multiple_of(p),
    }
}

/// While alive, every server-side request is sampled (window mode).
pub struct Window(());

/// Opens a [`Window`].
pub fn open_window() -> Window {
    OPEN_WINDOWS.fetch_add(1, Ordering::SeqCst);
    Window(())
}

impl Drop for Window {
    fn drop(&mut self) {
        OPEN_WINDOWS.fetch_sub(1, Ordering::SeqCst);
    }
}

struct Buffer {
    tid: u32,
    thread: String,
    spans: Vec<Span>,
    dropped: u64,
}

type Shared = Arc<Mutex<Buffer>>;

static BUFFERS: Mutex<Vec<Shared>> = Mutex::new(Vec::new());

/// Serializes tests that start, stop or drain the process-wide recorder.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    static LOCAL: RefCell<Option<Shared>> = const { RefCell::new(None) };
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

fn register() -> Shared {
    let mut all = BUFFERS.lock().unwrap_or_else(PoisonError::into_inner);
    let cap = CAPACITY.load(Ordering::SeqCst);
    let thread = std::thread::current().name().unwrap_or("unnamed").to_owned();
    let buf = Arc::new(Mutex::new(Buffer {
        tid: all.len() as u32 + 1,
        thread,
        spans: Vec::with_capacity(cap),
        dropped: 0,
    }));
    all.push(Arc::clone(&buf));
    buf
}

/// Appends a span to this thread's buffer (dropped and counted once the
/// buffer is full, so recording never reallocates).
pub fn record(name: &'static str, id: u64, start: u64, end: u64) {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(register);
        let mut b = buf.lock().unwrap_or_else(PoisonError::into_inner);
        if b.spans.len() < b.spans.capacity() {
            let tid = b.tid;
            b.spans.push(Span { name, id, start, end, tid });
        } else {
            b.dropped += 1;
        }
    });
}

/// Times `f` as span `name` of request `id` when `traced`; otherwise just
/// runs it.
pub fn timed<T>(traced: bool, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    if !traced {
        return f();
    }
    let start = now_ns();
    let out = f();
    record(name, id, start, now_ns());
    out
}

/// Sets the request id spans on this thread nest under (0 = none): how a
/// backend call, which never sees the request, links to its server span.
pub fn set_current(id: u64) {
    CURRENT.with(|c| c.set(id));
}

/// The request id set by [`set_current`] on this thread.
pub fn current() -> u64 {
    CURRENT.with(Cell::get)
}

/// What the recorder holds.
pub struct Recording {
    /// Spans in start order.
    pub spans: Vec<Span>,
    /// Recording threads' names, by buffer number.
    pub threads: Vec<(u32, String)>,
    /// Spans dropped for lack of buffer room.
    pub dropped: u64,
}

/// Every span recorded so far; buffers are emptied.
pub fn drain() -> Recording {
    let all = BUFFERS.lock().unwrap_or_else(PoisonError::into_inner);
    let (mut spans, mut threads, mut dropped) = (Vec::new(), Vec::new(), 0);
    for buf in all.iter() {
        let mut b = buf.lock().unwrap_or_else(PoisonError::into_inner);
        spans.append(&mut b.spans);
        threads.push((b.tid, b.thread.clone()));
        dropped += std::mem::take(&mut b.dropped);
    }
    spans.sort_unstable_by_key(|s| (s.start, s.tid));
    Recording { spans, threads, dropped }
}

/// Writes spans as Chrome trace-event JSON (open in Perfetto or
/// `chrome://tracing`): one complete (`X`) event per span, timestamps in
/// microseconds, the request id under `args.id`.
pub fn write_chrome(path: &Path, spans: &[Span], threads: &[(u32, String)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    for (tid, name) in threads {
        let name: String = name.chars().filter(|c| *c != '"' && *c != '\\').collect();
        writeln!(
            w,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}},"
        )?;
    }
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}}}}}{sep}",
            s.name,
            s.tid,
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.id
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64) -> Span {
        Span { name, id: 1, start, end, tid: 1 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span("sp.verify", 100, 200);
        assert_eq!(self_time(&parent, []), 100);
        // Disjoint children.
        let a = span("backend.log_access", 110, 130);
        let b = span("backend.shard_loads", 150, 160);
        assert_eq!(self_time(&parent, [&a, &b]), 70);
        // Overlapping children count once; a child sticking out of the
        // parent is clipped to it.
        let c = span("backend.durability", 120, 140);
        let d = span("backend.fetch_puzzle", 190, 260);
        assert_eq!(self_time(&parent, [&a, &b, &c, &d]), 100 - 30 - 10 - 10);
        // A child covering everything leaves nothing.
        assert_eq!(self_time(&parent, [&span("x", 0, 500)]), 0);
    }

    #[test]
    fn stages_of_a_request_add_up_to_its_latency() {
        // loadgen.request [due, recv] ⊃ client.sp [send, recv] ⊃ sp.* [h0, h1].
        let root = span("loadgen.request", 1_000, 9_000);
        let client = span("client.sp", 1_500, 9_000);
        let handle = span("sp.verify", 3_000, 7_000);
        let backend = span("backend.log_access", 4_000, 5_000);
        let late = client.start - root.start;
        let inbound = handle.start - client.start;
        let outbound = client.end - handle.end;
        let sp_self = self_time(&handle, [&backend]);
        assert_eq!(late + inbound + sp_self + backend.dur() + outbound, root.dur());
    }

    #[test]
    fn recording_keeps_per_thread_order_and_counts_overflow() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        start(1, 2);
        std::thread::spawn(|| {
            record("a", 1, 1, 2);
            record("b", 1, 3, 4);
            record("c", 1, 5, 6); // over capacity
        })
        .join()
        .unwrap();
        stop();
        let Recording { spans, threads, dropped } = drain();
        let ours: Vec<&Span> = spans.iter().filter(|s| s.name == "a" || s.name == "b").collect();
        assert_eq!(ours.len(), 2);
        assert!(dropped >= 1);
        assert!(!threads.is_empty());
    }
}
