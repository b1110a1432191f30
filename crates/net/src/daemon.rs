//! A pipelined, multiplexed TCP daemon: the scaffolding both the SP and
//! DH services run on.
//!
//! Built entirely on `std::net`, with one thread per connection, and
//! that thread is the only place the connection's requests run: a
//! request costs no hand-off between threads.
//!
//! Every connection opens with the HELLO exchange (see
//! [`crate::msg::hello_frame`]): the first frame must be HELLO, and the
//! daemon's ack switches both directions to correlation-id framing. Any
//! other first frame is refused with [`ErrorCode::BadRequest`] and the
//! connection closed. Then the thread serves **batches** (bytes that
//! arrived behind the HELLO belong to the first one):
//!
//! 1. it reads whatever bytes have arrived into the connection's buffer;
//! 2. it handles every complete frame in arrival order, inside one
//!    [`sp_osn::group_commit`] scope, appending each response to one
//!    output buffer;
//! 3. it waits once for everything the batch logged to become durable
//!    (a durable store defers its fsync waits to the scope's end, so one
//!    fsync covers a pipelined burst);
//! 4. it answers the whole batch with one write — or, if that wait
//!    failed, writes nothing of the batch and closes.
//!
//! So one connection's responses come back in request order (clients
//! still match them by id), and both buffers return to at most
//! [`RETAINED_BUFFER`] bytes after each batch.
//!
//! Overload and abuse behave predictably:
//!
//! * beyond the connection limit, the accept loop answers
//!   [`ErrorCode::Busy`] and closes, with read *and* write timeouts set
//!   **before** the answer, so a stalled peer cannot wedge it;
//! * there is no request queue to overflow: the socket buffer is the
//!   queue, and TCP back-pressure holds a sender that outruns its thread;
//! * an oversized frame's length prefix is refused before any
//!   allocation: the frames before it are answered, then
//!   [`ErrorCode::FrameTooLarge`] with its correlation id, then a close;
//! * a connection that sends no bytes for [`DaemonConfig::idle_timeout`]
//!   (the socket's read timeout) while its thread waits for the next
//!   request is closed, so half-open sockets cannot hold slots forever;
//! * a panicking handler closes only its own connection.
//!
//! Shutdown flips a flag the accept loop polls; it then shuts down the
//! read side of every live connection, so each thread answers the batch
//! it is handling, reads EOF and exits at once, and joins them all.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use social_puzzles_core::metrics::ServiceMetrics;
use sp_osn::group_commit;

use crate::error::{ErrorCode, NetError};
use crate::frame::{
    read_frame, write_frame, DEFAULT_MAX_FRAME, FRAME_HEADER_LEN, FRAME_V2_HEADER_LEN,
};
use crate::msg::{err_frame, hello_ack_payload, is_hello, ok_frame, RESP_OK};

/// The most bytes a connection's read or write buffer keeps between
/// batches; a larger frame grows it only while that frame passes.
pub const RETAINED_BUFFER: usize = 64 * 1024;

/// How a service handles one decoded request frame.
///
/// Implementations decode the payload themselves (so the daemon stays
/// protocol-agnostic) and return either a response payload or an error
/// code + detail, which the daemon wraps into the shared response
/// envelope. Each connection's thread calls its handler, so handlers
/// must be `Send + Sync`; they may be invoked for many connections at
/// once, and for one connection one request at a time, in arrival order.
pub trait Service: Send + Sync + 'static {
    /// Handles one request frame payload.
    ///
    /// # Errors
    ///
    /// Returns the error code and human-readable detail to send back.
    fn handle(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)>;
}

/// Tuning knobs for a [`Daemon`].
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Concurrent-connection limit; beyond it, new connections are
    /// answered with [`ErrorCode::Busy`] and closed. Each open
    /// connection costs one thread.
    pub max_connections: usize,
    /// Maximum request frame size (checked before allocation).
    pub max_frame: u32,
    /// Accept-loop poll interval while idle, and so the delay before a
    /// shutdown is noticed.
    pub poll_interval: Duration,
    /// Socket write timeout for a batch's answer.
    pub write_timeout: Duration,
    /// Sink for serving-path counters (accepted, busy, in-flight and
    /// batch peaks, idle-reaped, buffered bytes), recorded under
    /// [`DaemonConfig::component`]. Pass the service's own registry to
    /// see them next to the per-endpoint counters; the default is a
    /// detached registry.
    pub metrics: ServiceMetrics,
    /// Metrics component name for the serving-path counters.
    pub component: String,
    /// A connection that has sent no bytes for this long while the
    /// daemon waits for its next request is closed and counted as
    /// `idle_reaped`. It is the socket's read timeout, so it costs
    /// nothing while bytes flow. Generous by default so ordinary
    /// clients never notice.
    pub idle_timeout: Duration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            max_frame: DEFAULT_MAX_FRAME,
            poll_interval: Duration::from_millis(5),
            write_timeout: Duration::from_secs(5),
            metrics: ServiceMetrics::default(),
            component: "net.server".to_owned(),
            idle_timeout: Duration::from_secs(300),
        }
    }
}

/// A running daemon. Dropping it shuts it down gracefully.
#[derive(Debug)]
pub struct Daemon {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop, which gives every connection its thread.
    ///
    /// # Errors
    ///
    /// Returns the bind/listen error.
    pub fn spawn(
        addr: impl ToSocketAddrs,
        service: Arc<dyn Service>,
        cfg: DaemonConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared { service, cfg });
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(&listener, &shared, &stop))
        };
        Ok(Self { addr: local, stop, accept: Some(accept) })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins every thread. Each connection answers
    /// the batch it is handling, then closes.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Everything a connection thread needs, shared across all of them.
struct Shared {
    service: Arc<dyn Service>,
    cfg: DaemonConfig,
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, stop: &AtomicBool) {
    let cfg = &shared.cfg;
    let active = Arc::new(AtomicUsize::new(0));
    // Each live connection's thread, and a second handle on its socket
    // to end a blocked read at shutdown.
    let mut live: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        live.retain(|(thread, _)| !thread.is_finished());
        let Ok((stream, _peer)) = listener.accept() else {
            std::thread::sleep(cfg.poll_interval);
            continue;
        };
        if active.load(Ordering::SeqCst) >= cfg.max_connections.max(1) {
            busy_reject(stream, cfg);
            continue;
        }
        // A connection shutdown could not reach is refused.
        let Ok(socket) = stream.try_clone() else { continue };
        active.fetch_add(1, Ordering::SeqCst);
        cfg.metrics.server_conn_accepted(&cfg.component);
        let slot = Slot { stream, active: Arc::clone(&active) };
        let shared = Arc::clone(shared);
        let thread = std::thread::spawn(move || {
            let mut slot = slot;
            serve_connection(&mut slot.stream, &shared);
        });
        live.push((thread, socket));
    }
    for (_, socket) in &live {
        let _ = socket.shutdown(Shutdown::Read);
    }
    for (thread, _) in live {
        let _ = thread.join();
    }
}

/// A connection's stream and its place under the connection limit.
/// Dropping it — after a normal close or a panicking handler alike —
/// closes the socket (the accept loop's second handle would otherwise
/// keep it open) and gives the place back.
struct Slot {
    stream: TcpStream,
    active: Arc<AtomicUsize>,
}

impl Drop for Slot {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Refuses a connection beyond the limit. Read *and* write timeouts go
/// on **before** the error frame is written: a peer that neither reads
/// nor drains must cost at most one bounded wait, never a wedged accept
/// loop.
fn busy_reject(mut stream: TcpStream, cfg: &DaemonConfig) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    cfg.metrics.server_busy_rejection(&cfg.component);
    let _ =
        write_frame(&mut stream, &err_frame(ErrorCode::Busy, "connection limit"), cfg.max_frame);
}

fn serve_connection(stream: &mut TcpStream, shared: &Shared) {
    let cfg = &shared.cfg;
    let _ = stream.set_nodelay(true);
    // A zero timeout means "reap at once"; the socket API needs > 0.
    let _ = stream.set_read_timeout(Some(cfg.idle_timeout.max(Duration::from_millis(1))));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    if !handshake(stream, cfg) {
        return;
    }
    let (mut inbox, mut out) = (Inbox::new(), Vec::new());
    // Buffer bytes last reported to the metrics gauge.
    let mut buffered = 0;
    while serve_batch(stream, &mut inbox, &mut out, shared, &mut buffered) {}
    // A closed connection holds no buffers.
    cfg.metrics.server_batch_finished(&cfg.component, 0, buffered as u64, 0);
}

/// Reads the connection's first frame — length-prefixed without a
/// correlation id, read exactly, so bytes behind it wait in the socket
/// for the first batch — and answers it. HELLO gets the ack and returns
/// `true`: both directions use correlation-id frames from here on. An
/// oversized frame gets [`ErrorCode::FrameTooLarge`], anything else
/// [`ErrorCode::BadRequest`]; both return `false` and the caller closes.
fn handshake(stream: &mut TcpStream, cfg: &DaemonConfig) -> bool {
    let response_cap = cfg.max_frame.saturating_add(1024);
    let refusal = match read_frame(stream, cfg.max_frame) {
        Ok(Some(payload)) if is_hello(&payload) => {
            cfg.metrics.server_v2_negotiated(&cfg.component);
            return write_frame(stream, &ok_frame(&hello_ack_payload()), response_cap).is_ok();
        }
        Ok(Some(_)) => err_frame(ErrorCode::BadRequest, "the first frame must be HELLO"),
        Err(NetError::FrameTooLarge { len, max }) => err_frame(
            ErrorCode::FrameTooLarge,
            &format!("frame of {len} bytes exceeds the {max}-byte cap"),
        ),
        Err(NetError::Io(e)) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            cfg.metrics.server_idle_reaped(&cfg.component);
            return false;
        }
        Ok(None) | Err(_) => return false,
    };
    let _ = write_frame(stream, &refusal, response_cap);
    false
}

/// What the front of a connection's buffer holds.
enum Next {
    /// A whole frame of `len` payload bytes.
    Frame { corr: u64, len: usize },
    /// An incomplete frame needing `need` bytes in all (a header's
    /// worth while the header itself is incomplete).
    Partial { need: usize },
    /// A header claiming more than the cap: refused before allocation.
    TooLarge { corr: u64, len: u32 },
}

fn next_frame(pending: &[u8], max_frame: u32) -> Next {
    let Some(header) = pending.get(..FRAME_V2_HEADER_LEN) else {
        return Next::Partial { need: FRAME_V2_HEADER_LEN };
    };
    let len = u32::from_be_bytes(header[..FRAME_HEADER_LEN].try_into().expect("4 bytes"));
    let corr = u64::from_be_bytes(header[FRAME_HEADER_LEN..].try_into().expect("8 bytes"));
    if len > max_frame {
        return Next::TooLarge { corr, len };
    }
    let need = FRAME_V2_HEADER_LEN + len as usize;
    if pending.len() < need {
        Next::Partial { need }
    } else {
        Next::Frame { corr, len: len as usize }
    }
}

/// Serves one batch: every complete frame in the buffer (reading first
/// when there is none), one durability wait, one write. Returns whether
/// the connection stays open.
fn serve_batch(
    stream: &mut TcpStream,
    inbox: &mut Inbox,
    out: &mut Vec<u8>,
    shared: &Shared,
    buffered: &mut usize,
) -> bool {
    let cfg = &shared.cfg;
    let (count, tail) = loop {
        match scan(inbox.pending(), cfg.max_frame) {
            (0, Next::Partial { need }) => {
                inbox.reserve(need);
                if !inbox.fill(stream, cfg) {
                    return false;
                }
            }
            batch => break batch,
        }
    };
    cfg.metrics.server_batch_started(&cfg.component, count as u64);
    let response_cap = cfg.max_frame.saturating_add(1024);
    let (consumed, durable) = group_commit::run(|| {
        let mut rest = inbox.pending();
        while let Next::Frame { corr, len } = next_frame(rest, cfg.max_frame) {
            let (frame, after) = rest.split_at(FRAME_V2_HEADER_LEN + len);
            let result = shared.service.handle(&frame[FRAME_V2_HEADER_LEN..]);
            push_response(out, corr, result, response_cap);
            rest = after;
        }
        inbox.pending().len() - rest.len()
    });
    inbox.consume(consumed);
    inbox.shrink();
    let close = match tail {
        Next::TooLarge { corr, len } => {
            let detail = format!("frame of {len} bytes exceeds the {}-byte cap", cfg.max_frame);
            push_response(out, corr, Err((ErrorCode::FrameTooLarge, detail)), response_cap);
            true
        }
        _ => false,
    };
    // Nothing of a batch whose writes may not be on disk is answered.
    let answered = durable.is_ok() && stream.write_all(out).is_ok();
    out.clear();
    out.shrink_to(RETAINED_BUFFER);
    let now = inbox.buf.len() + out.capacity();
    cfg.metrics.server_batch_finished(&cfg.component, count as u64, *buffered as u64, now as u64);
    *buffered = now;
    answered && !close
}

/// Counts the complete frames at the front of `pending` and says what
/// follows them (a partial frame, possibly empty, or a refusal).
fn scan(pending: &[u8], max_frame: u32) -> (usize, Next) {
    let (mut count, mut at) = (0, 0);
    loop {
        match next_frame(&pending[at..], max_frame) {
            Next::Frame { len, .. } => {
                count += 1;
                at += FRAME_V2_HEADER_LEN + len;
            }
            tail => return (count, tail),
        }
    }
}

/// Appends one response frame (`len ‖ corr ‖ envelope`) to `out`. A
/// response over the cap becomes a typed error in its place.
fn push_response(
    out: &mut Vec<u8>,
    corr: u64,
    result: Result<Vec<u8>, (ErrorCode, String)>,
    response_cap: u32,
) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_V2_HEADER_LEN]);
    match result {
        Ok(resp) if resp.len() < response_cap as usize => {
            out.push(RESP_OK);
            out.extend_from_slice(&resp);
        }
        Ok(resp) => out.extend_from_slice(&err_frame(
            ErrorCode::Internal,
            &format!("response of {} bytes exceeds the {response_cap}-byte cap", resp.len()),
        )),
        Err((code, detail)) => out.extend_from_slice(&err_frame(code, &detail)),
    }
    let len = (out.len() - start - FRAME_V2_HEADER_LEN) as u32;
    out[start..start + FRAME_HEADER_LEN].copy_from_slice(&len.to_be_bytes());
    out[start + FRAME_HEADER_LEN..start + FRAME_V2_HEADER_LEN].copy_from_slice(&corr.to_be_bytes());
}

/// A connection's read buffer: `buf[..end]` is received and not yet
/// consumed. `buf` stays initialised to its full length, so each read
/// lands straight in `buf[end..]`.
struct Inbox {
    buf: Vec<u8>,
    end: usize,
}

impl Inbox {
    fn new() -> Self {
        Self { buf: vec![0; RETAINED_BUFFER], end: 0 }
    }

    fn pending(&self) -> &[u8] {
        &self.buf[..self.end]
    }

    /// Drops the first `n` pending bytes, moving the rest (at most a
    /// partial frame) to the front.
    fn consume(&mut self, n: usize) {
        self.buf.copy_within(n..self.end, 0);
        self.end -= n;
    }

    /// Grows the buffer to hold a frame of `need` bytes.
    fn reserve(&mut self, need: usize) {
        if need > self.buf.len() {
            self.buf.resize(need, 0);
        }
    }

    /// Reads at least one byte: whatever has arrived, up to the room
    /// behind `end`, which the caller made with [`Inbox::reserve`] for
    /// a frame longer than the pending bytes. Returns `false` on EOF,
    /// error, or the idle timeout, which it counts.
    fn fill(&mut self, stream: &mut TcpStream, cfg: &DaemonConfig) -> bool {
        debug_assert!(self.end < self.buf.len(), "no room reserved");
        loop {
            match stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.end += n;
                    return true;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                        cfg.metrics.server_idle_reaped(&cfg.component);
                    }
                    return false;
                }
            }
        }
    }

    /// Gives back growth beyond [`RETAINED_BUFFER`] that the pending
    /// bytes do not need.
    fn shrink(&mut self) {
        if self.buf.len() > RETAINED_BUFFER && self.end <= RETAINED_BUFFER {
            self.buf.truncate(RETAINED_BUFFER);
            self.buf.shrink_to_fit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame_v2, write_frame_v2};
    use crate::msg::{decode_response, hello_frame, is_hello_ack};
    use std::time::Instant;

    /// Echoes the request payload back, uppercased.
    struct Upper;
    impl Service for Upper {
        fn handle(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
            if request == b"boom" {
                return Err((ErrorCode::Internal, "told to".into()));
            }
            Ok(request.to_ascii_uppercase())
        }
    }

    /// Sleeps for the request-encoded number of milliseconds, then echoes.
    struct Sleepy;
    impl Service for Sleepy {
        fn handle(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
            let ms = request.first().copied().unwrap_or(0);
            std::thread::sleep(Duration::from_millis(u64::from(ms)));
            Ok(request.to_vec())
        }
    }

    fn small_cfg() -> DaemonConfig {
        DaemonConfig { max_frame: 1024, ..DaemonConfig::default() }
    }

    /// Connects and completes the HELLO exchange.
    fn open(daemon: &Daemon) -> TcpStream {
        let mut conn = TcpStream::connect(daemon.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(&mut conn, &hello_frame(), 1024).unwrap();
        let resp = read_frame(&mut conn, 4096).unwrap().unwrap();
        assert!(is_hello_ack(decode_response(&resp).unwrap()), "daemon accepted HELLO");
        conn
    }

    /// One request on an upgraded connection; returns the raw response
    /// envelope after checking it answers `corr`.
    fn roundtrip(conn: &mut TcpStream, corr: u64, request: &[u8]) -> Vec<u8> {
        write_frame_v2(conn, corr, request, 1024).unwrap();
        let (got, resp) = read_frame_v2(conn, 4096).unwrap().unwrap();
        assert_eq!(got, corr, "response answers its own request");
        resp
    }

    #[test]
    fn serves_frames_and_error_frames() {
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(Upper), small_cfg()).unwrap();
        let mut conn = open(&daemon);

        // OK envelope + payload, nothing else.
        assert_eq!(roundtrip(&mut conn, 1, b"abc"), [&[RESP_OK][..], b"ABC"].concat());

        // Multiple requests on one connection.
        let resp = roundtrip(&mut conn, 2, b"again");
        assert_eq!(decode_response(&resp).unwrap(), b"AGAIN");

        // A service error becomes an error frame, connection stays open.
        let resp = roundtrip(&mut conn, 3, b"boom");
        match decode_response(&resp).unwrap_err() {
            NetError::Remote { code, detail } => {
                assert_eq!(code, ErrorCode::Internal);
                assert_eq!(detail, "told to");
            }
            other => panic!("expected Remote, got {other}"),
        }
        let resp = roundtrip(&mut conn, 4, b"still here");
        assert_eq!(decode_response(&resp).unwrap(), b"STILL HERE");

        daemon.shutdown();
    }

    #[test]
    fn oversized_frame_gets_typed_refusal_and_daemon_survives() {
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(Upper), small_cfg()).unwrap();

        // Raw socket, hostile header: claims 16 MiB on a 1 KiB server.
        let mut evil = TcpStream::connect(daemon.addr()).unwrap();
        evil.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        evil.write_all(&(16 * 1024 * 1024u32).to_be_bytes()).unwrap();
        evil.write_all(b"some bytes that will never add up").unwrap();
        let resp = read_frame(&mut evil, 4096).unwrap().unwrap();
        match decode_response(&resp).unwrap_err() {
            NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::FrameTooLarge),
            other => panic!("expected Remote, got {other}"),
        }
        // The server closes the poisoned connection — seen as EOF, or as
        // a reset when our unread filler is still in its socket buffer.
        match read_frame(&mut evil, 4096) {
            Ok(None) | Err(_) => {}
            Ok(Some(frame)) => panic!("server kept talking on a poisoned connection: {frame:?}"),
        }

        // ...and keeps serving everyone else.
        let mut good = open(&daemon);
        let resp = roundtrip(&mut good, 1, b"alive?");
        assert_eq!(decode_response(&resp).unwrap(), b"ALIVE?");

        daemon.shutdown();
    }

    #[test]
    fn shutdown_with_idle_connection_is_prompt() {
        let metrics = ServiceMetrics::new();
        let cfg = DaemonConfig { metrics: metrics.clone(), ..small_cfg() };
        assert_eq!(cfg.idle_timeout, Duration::from_secs(300), "a missed shutdown would hang");
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(Upper), cfg).unwrap();
        // One connection that never says a word, and one that finished
        // HELLO and had a request answered: both threads sit in a read
        // that only the idle timeout would otherwise end.
        let _silent = TcpStream::connect(daemon.addr()).unwrap();
        let mut served = open(&daemon);
        assert_eq!(decode_response(&roundtrip(&mut served, 1, b"hi")).unwrap(), b"HI");
        while metrics.server("net.server").accepted < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let start = Instant::now();
        daemon.shutdown();
        assert!(start.elapsed() < Duration::from_secs(2), "shutdown hung");
        assert_eq!(read_frame_v2(&mut served, 4096).unwrap(), None, "closed with EOF");
    }

    #[test]
    fn reaps_idle_connections_and_spares_active_ones() {
        let metrics = ServiceMetrics::new();
        let cfg = DaemonConfig {
            idle_timeout: Duration::from_millis(100),
            metrics: metrics.clone(),
            ..small_cfg()
        };
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(Upper), cfg).unwrap();

        let mut idle = TcpStream::connect(daemon.addr()).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut active = open(&daemon);

        // Keep `active` chatting past the idle window; `idle` says
        // nothing at all, not even HELLO.
        for corr in 0..6 {
            std::thread::sleep(Duration::from_millis(40));
            let resp = roundtrip(&mut active, corr, b"ping");
            assert_eq!(decode_response(&resp).unwrap(), b"PING");
        }

        // The idle connection was closed: EOF client-side.
        assert_eq!(read_frame(&mut idle, 4096).unwrap(), None, "idle socket reaped");
        assert!(metrics.server("net.server").idle_reaped >= 1);

        // The active one is still serviceable.
        let resp = roundtrip(&mut active, 6, b"fin");
        assert_eq!(decode_response(&resp).unwrap(), b"FIN");
        daemon.shutdown();
    }

    #[test]
    fn slow_loris_partial_headers_are_reaped() {
        // A half-open client that dribbles 1 byte of a length prefix and
        // stops must not hold its connection slot: a partial header is
        // not activity forever.
        let metrics = ServiceMetrics::new();
        let cfg = DaemonConfig {
            idle_timeout: Duration::from_millis(80),
            metrics: metrics.clone(),
            ..small_cfg()
        };
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(Upper), cfg).unwrap();
        let mut loris = TcpStream::connect(daemon.addr()).unwrap();
        loris.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        loris.write_all(&[0u8]).unwrap(); // first byte of a length prefix

        // Normal service continues around the stalled socket.
        let mut good = open(&daemon);
        let resp = roundtrip(&mut good, 1, b"ok");
        assert_eq!(decode_response(&resp).unwrap(), b"OK");

        // ...and the loris is closed on us once the idle window passes.
        match read_frame(&mut loris, 4096) {
            Ok(None) | Err(_) => {}
            Ok(Some(f)) => panic!("unexpected frame {f:?}"),
        }
        assert!(metrics.server("net.server").idle_reaped >= 1);
        daemon.shutdown();
    }

    #[test]
    fn a_request_in_flight_holds_off_the_idle_reaper() {
        // A peer waiting on a handler slower than the idle timeout has
        // sent nothing meanwhile, but it is not idle.
        let metrics = ServiceMetrics::new();
        let cfg = DaemonConfig {
            idle_timeout: Duration::from_millis(60),
            metrics: metrics.clone(),
            ..small_cfg()
        };
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(Sleepy), cfg).unwrap();
        let mut conn = open(&daemon);

        write_frame_v2(&mut conn, 1, &[200], 1024).unwrap(); // 200 ms
        let (corr, resp) = read_frame_v2(&mut conn, 4096).unwrap().unwrap();
        assert_eq!((corr, decode_response(&resp).unwrap()), (1, &[200u8][..]));
        write_frame_v2(&mut conn, 2, &[0], 1024).unwrap();
        let (corr, resp) = read_frame_v2(&mut conn, 4096).unwrap().unwrap();
        assert_eq!((corr, decode_response(&resp).unwrap()), (2, &[0u8][..]));
        assert_eq!(metrics.server("net.server").idle_reaped, 0);
        daemon.shutdown();
    }

    #[test]
    fn pipelined_requests_come_back_in_order_under_their_own_ids() {
        let metrics = ServiceMetrics::new();
        let cfg = DaemonConfig { metrics: metrics.clone(), ..small_cfg() };
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(Sleepy), cfg).unwrap();
        let mut conn = TcpStream::connect(daemon.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

        // HELLO and a slow request then two fast ones, in one write: the
        // bytes behind HELLO belong to the first batch, which is
        // answered in request order whatever each request cost.
        let mut burst = Vec::new();
        write_frame(&mut burst, &hello_frame(), 1024).unwrap();
        for (corr, ms) in [(303u64, 60u8), (101, 0), (202, 0)] {
            write_frame_v2(&mut burst, corr, &[ms, corr as u8], 1024).unwrap();
        }
        conn.write_all(&burst).unwrap();
        let ack = read_frame(&mut conn, 4096).unwrap().unwrap();
        assert!(is_hello_ack(decode_response(&ack).unwrap()));
        for (corr, ms) in [(303u64, 60u8), (101, 0), (202, 0)] {
            let (got, resp) = read_frame_v2(&mut conn, 4096).unwrap().unwrap();
            assert_eq!(got, corr, "answered in request order");
            assert_eq!(decode_response(&resp).unwrap(), [ms, corr as u8]);
        }

        let server = metrics.server("net.server");
        assert_eq!((server.accepted, server.v2_negotiated), (1, 1));
        assert_eq!(server.queue_peak, 3, "the three frames made one batch");
        assert_eq!(server.in_flight_peak, 3);
        assert_eq!(server.in_flight, 0, "every request answered");
        daemon.shutdown();
    }

    #[test]
    fn a_slow_request_on_one_connection_does_not_delay_another() {
        /// Holds a `hold` request until the test meets it at the barrier.
        struct Gate(std::sync::Barrier);
        impl Service for Gate {
            fn handle(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
                if request == b"hold" {
                    self.0.wait();
                }
                Ok(request.to_vec())
            }
        }
        let gate = Arc::new(Gate(std::sync::Barrier::new(2)));
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::clone(&gate) as _, small_cfg()).unwrap();
        let (mut held, mut other) = (open(&daemon), open(&daemon));
        write_frame_v2(&mut held, 1, b"hold", 1024).unwrap();
        // Served while `held` waits in its handler (a daemon that served
        // connections one after the other would time this read out)...
        assert_eq!(decode_response(&roundtrip(&mut other, 2, b"go")).unwrap(), b"go");
        // ...which the barrier then releases.
        gate.0.wait();
        let (corr, resp) = read_frame_v2(&mut held, 4096).unwrap().unwrap();
        assert_eq!((corr, decode_response(&resp).unwrap()), (1, &b"hold"[..]));
        daemon.shutdown();
    }

    #[test]
    fn a_panicking_handler_closes_only_its_own_connection() {
        struct Panicky;
        impl Service for Panicky {
            fn handle(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
                assert!(request != b"panic", "told to");
                Ok(request.to_vec())
            }
        }
        let cfg = DaemonConfig { max_connections: 1, ..small_cfg() };
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(Panicky), cfg).unwrap();
        let mut doomed = open(&daemon);
        write_frame_v2(&mut doomed, 1, b"panic", 1024).unwrap();
        match read_frame_v2(&mut doomed, 4096) {
            Ok(None) | Err(_) => {}
            Ok(Some(frame)) => panic!("a panicked batch was answered: {frame:?}"),
        }
        // The only connection slot came back: a new connection is
        // served, not refused with Busy.
        let mut next = open(&daemon);
        assert_eq!(decode_response(&roundtrip(&mut next, 2, b"ok")).unwrap(), b"ok");
        daemon.shutdown();
    }

    #[test]
    fn a_first_frame_that_is_not_hello_is_refused_and_closed() {
        let metrics = ServiceMetrics::new();
        let cfg = DaemonConfig { metrics: metrics.clone(), ..small_cfg() };
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(Upper), cfg).unwrap();
        let mut conn = TcpStream::connect(daemon.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(&mut conn, b"abc", 1024).unwrap();
        let resp = read_frame(&mut conn, 4096).unwrap().unwrap();
        match decode_response(&resp).unwrap_err() {
            NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected Remote BadRequest, got {other}"),
        }
        // The request was never served, and the connection is closed.
        assert_eq!(read_frame(&mut conn, 4096).unwrap(), None, "EOF after the refusal");
        let server = metrics.server("net.server");
        assert_eq!((server.accepted, server.v2_negotiated), (1, 0));
        daemon.shutdown();
    }

    #[test]
    fn connection_limit_answers_busy_with_timeouts_set() {
        let metrics = ServiceMetrics::new();
        let cfg = DaemonConfig { max_connections: 1, metrics: metrics.clone(), ..small_cfg() };
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(Upper), cfg).unwrap();

        // Occupy the single slot.
        let mut first = open(&daemon);
        let resp = roundtrip(&mut first, 1, b"hold");
        assert_eq!(decode_response(&resp).unwrap(), b"HOLD");

        // The second connection is refused with Busy...
        let mut second = TcpStream::connect(daemon.addr()).unwrap();
        second.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let resp = read_frame(&mut second, 4096).unwrap().unwrap();
        match decode_response(&resp).unwrap_err() {
            NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::Busy),
            other => panic!("expected Remote Busy, got {other}"),
        }
        assert_eq!(metrics.server("net.server").busy_rejections, 1);

        // ...even a refused peer that never reads cannot wedge the
        // accept loop: the first slot keeps serving within bounded time.
        let _stalled = TcpStream::connect(daemon.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let resp = roundtrip(&mut first, 2, b"alive");
        assert_eq!(decode_response(&resp).unwrap(), b"ALIVE");
        daemon.shutdown();
    }
}
