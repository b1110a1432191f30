//! A pipelined, multiplexed TCP daemon: the scaffolding both the SP and
//! DH services run on.
//!
//! Built entirely on `std::net`. Each accepted connection is split into
//! a **reader** thread (decodes request frames) and a **writer** thread
//! (sends response frames); the actual work runs on a **shared compute
//! pool** ([`sp_par::WorkerPool`]) whose size is independent of the
//! connection count — a thousand mostly-idle clients cost two parked
//! threads each, not a pinned worker.
//!
//! Every connection opens with the HELLO exchange (see
//! [`crate::msg::hello_frame`]): the first frame must be HELLO, and the
//! daemon's ack switches both directions to correlation-id framing. From
//! then on the reader keeps decoding while jobs compute, and the writer
//! sends each response the moment its job completes — out of order,
//! matched by id — so one slow `Access`/`VerifyBatch` never stalls the
//! connection. Any other first frame is refused with
//! [`ErrorCode::BadRequest`] and the connection closed.
//!
//! Frame payload buffers are recycled through a [`BufferPool`] on both
//! the read and write paths, so steady-state serving performs no
//! per-request frame allocations.
//!
//! Overload and abuse behave predictably:
//!
//! * beyond the connection limit, the accept loop answers with a
//!   [`ErrorCode::Busy`] error frame and closes — with read *and* write
//!   timeouts set **before** the answer, so a stalled peer cannot wedge
//!   the accept loop;
//! * a full compute queue answers the individual request with `Busy`
//!   (retryable) instead of buffering unboundedly;
//! * an oversized frame gets an [`ErrorCode::FrameTooLarge`] error frame
//!   and a closed connection — the length prefix is rejected before any
//!   allocation, so the daemon itself is never at risk;
//! * a connection that sends no bytes for [`DaemonConfig::idle_timeout`]
//!   while none of its requests is in flight is closed, so half-open
//!   sockets (a slow-loris header fragment, a vanished peer) cannot hold
//!   connection slots forever. The check rides the reader's read-timeout
//!   tick, so it costs nothing while bytes flow.
//!
//! Graceful shutdown works by flipping an atomic flag: the accept loop
//! notices on its next poll and joins the connection threads, whose
//! readers — which poll their sockets with a short read timeout
//! precisely so they can notice — drain and exit; dropping the compute
//! pool finishes accepted jobs and joins the workers.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use social_puzzles_core::metrics::ServiceMetrics;
use sp_par::WorkerPool;

use crate::error::{ErrorCode, NetError};
use crate::frame::{
    write_frame, write_frame_v2, DEFAULT_MAX_FRAME, FRAME_HEADER_LEN, FRAME_V2_HEADER_LEN,
};
use crate::msg::{err_frame, hello_ack_payload, is_hello, ok_frame, RESP_OK};
use crate::pool::{BufferPool, PooledBuf, DEFAULT_POOL_CAP};

/// How a service handles one decoded request frame.
///
/// Implementations decode the payload themselves (so the daemon stays
/// protocol-agnostic) and return either a response payload or an error
/// code + detail, which the daemon wraps into the shared response
/// envelope. Handlers run on the shared compute pool and must therefore
/// be `Send + Sync`; they may be invoked for many connections at once.
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
    /// Compute-pool worker threads, shared by every connection. This is
    /// the daemon's CPU budget — it does **not** bound how many
    /// connections may be open.
    pub workers: usize,
    /// Compute-pool job queue depth; a request arriving while every slot
    /// is taken is answered with [`ErrorCode::Busy`] (retryable).
    pub queue_depth: usize,
    /// Concurrent-connection limit; beyond it, new connections are
    /// answered with [`ErrorCode::Busy`] and closed. Each open
    /// connection costs two threads (reader + writer).
    pub max_connections: usize,
    /// Maximum request frame size (checked before allocation).
    pub max_frame: u32,
    /// Accept-loop poll interval while idle.
    pub poll_interval: Duration,
    /// Reader socket read timeout — the shutdown-notice latency, and the
    /// granularity of the idle check.
    pub read_timeout: Duration,
    /// Writer socket write timeout.
    pub write_timeout: Duration,
    /// Idle frame buffers retained by the recycling pool.
    pub buffer_pool: usize,
    /// Sink for serving-path counters (accepted/busy/in-flight/queue
    /// depth/out-of-order), recorded under [`DaemonConfig::component`].
    /// Pass the service's own registry to see them next to the
    /// per-endpoint counters; the default is a detached registry.
    pub metrics: ServiceMetrics,
    /// Metrics component name for the serving-path counters.
    pub component: String,
    /// A connection that has received no bytes for this long, with none
    /// of its requests in flight, is closed (within two read-timeout
    /// ticks) and counted as `idle_reaped`. Generous by default so
    /// ordinary clients never notice.
    pub idle_timeout: Duration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 64,
            max_connections: 64,
            max_frame: DEFAULT_MAX_FRAME,
            poll_interval: Duration::from_millis(5),
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_secs(5),
            buffer_pool: DEFAULT_POOL_CAP,
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
    /// starts the accept loop, the shared compute pool, and the
    /// per-connection reader/writer machinery.
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
        let shared = Arc::new(Shared {
            service,
            pool: WorkerPool::new(cfg.workers, cfg.queue_depth),
            buffers: BufferPool::new(cfg.buffer_pool),
            stop: Arc::clone(&stop),
            cfg,
        });
        let accept = std::thread::spawn(move || accept_loop(listener, &shared));
        Ok(Self { addr: local, stop, accept: Some(accept) })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins every thread. In-flight requests
    /// finish; idle connections are dropped within the read timeout.
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
    pool: WorkerPool,
    buffers: BufferPool,
    stop: Arc<AtomicBool>,
    cfg: DaemonConfig,
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let cfg = &shared.cfg;
    let active = Arc::new(AtomicUsize::new(0));
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                conns.retain(|h| !h.is_finished());
                if active.load(Ordering::SeqCst) >= cfg.max_connections.max(1) {
                    busy_reject(stream, cfg);
                    continue;
                }
                active.fetch_add(1, Ordering::SeqCst);
                cfg.metrics.server_conn_accepted(&cfg.component);
                let shared = Arc::clone(shared);
                let active = Arc::clone(&active);
                conns.push(std::thread::spawn(move || {
                    serve_connection(stream, &shared);
                    active.fetch_sub(1, Ordering::SeqCst);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(cfg.poll_interval),
            Err(_) => std::thread::sleep(cfg.poll_interval),
        }
    }
    for h in conns {
        let _ = h.join();
    }
    // `shared`'s compute pool drops with the caller's Arc once every
    // connection thread is gone, draining accepted jobs and joining the
    // workers.
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

/// One response on its way to a connection's writer thread.
struct Reply {
    /// Correlation id of the request it answers.
    corr: u64,
    /// Submission order on this connection, for out-of-order accounting.
    seq: u64,
    frame: PooledBuf,
}

/// A connection's answer path, shared by its reader and every job it
/// submits. The writer exits once the last clone drops.
struct Replies {
    tx: Sender<Reply>,
    /// Jobs submitted and not yet answered: a peer waiting on a slow
    /// request is not idle.
    in_flight: AtomicUsize,
}

fn serve_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let cfg = &shared.cfg;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    if !handshake(&mut stream, shared) {
        return;
    }
    let Ok(write_half) = stream.try_clone() else { return };

    let (tx, reply_rx) = mpsc::channel::<Reply>();
    let replies = Arc::new(Replies { tx, in_flight: AtomicUsize::new(0) });
    // Flipped by the writer on socket failure so the reader stops
    // accepting work for a connection that can no longer answer.
    let broken = Arc::new(AtomicBool::new(false));
    let writer = {
        let broken = Arc::clone(&broken);
        let metrics = cfg.metrics.clone();
        let component = cfg.component.clone();
        let response_cap = cfg.max_frame.saturating_add(1024);
        std::thread::spawn(move || {
            writer_loop(write_half, &reply_rx, &broken, &metrics, &component, response_cap)
        })
    };

    reader_loop(stream, shared, &replies, &broken);

    // Drop our handle; in-flight jobs hold clones, so the writer drains
    // their responses before exiting.
    drop(replies);
    let _ = writer.join();
}

/// Reads the connection's first frame — length-prefixed without a
/// correlation id, through the same polling fill as every later frame,
/// so shutdown and the idle reaper apply to a stalled opener too — and
/// answers it on this thread. HELLO gets the ack and returns `true`: both
/// directions use correlation-id frames from here on. An oversized frame
/// gets [`ErrorCode::FrameTooLarge`], anything else
/// [`ErrorCode::BadRequest`]; both return `false` and the caller closes.
fn handshake(stream: &mut TcpStream, shared: &Shared) -> bool {
    let cfg = &shared.cfg;
    let response_cap = cfg.max_frame.saturating_add(1024);
    let nothing_in_flight = AtomicUsize::new(0);
    let mut fill = |buf: &mut [u8], eof_ok: bool| {
        let filled = fill_polling(stream, buf, shared, &nothing_in_flight, eof_ok);
        if matches!(filled, Ok(Fill::Idle)) {
            cfg.metrics.server_idle_reaped(&cfg.component);
        }
        matches!(filled, Ok(Fill::Filled))
    };
    let mut header = [0u8; FRAME_HEADER_LEN];
    if !fill(&mut header, true) {
        return false;
    }
    let len = u32::from_be_bytes(header);
    let refusal = if len > cfg.max_frame {
        // The read position is inside an unread payload: refuse and close.
        let detail = format!("frame of {len} bytes exceeds the {}-byte cap", cfg.max_frame);
        err_frame(ErrorCode::FrameTooLarge, &detail)
    } else {
        let mut payload = shared.buffers.checkout();
        payload.resize(len as usize, 0);
        if !fill(&mut payload, false) {
            return false;
        }
        if is_hello(&payload) {
            cfg.metrics.server_v2_negotiated(&cfg.component);
            let ack = ok_frame(&hello_ack_payload());
            return write_frame(stream, &ack, response_cap).is_ok();
        }
        err_frame(ErrorCode::BadRequest, "the first frame must be HELLO")
    };
    let _ = write_frame(stream, &refusal, response_cap);
    false
}

fn writer_loop(
    mut stream: TcpStream,
    rx: &Receiver<Reply>,
    broken: &AtomicBool,
    metrics: &ServiceMetrics,
    component: &str,
    response_cap: u32,
) {
    let mut max_seq_written = 0u64;
    while let Ok(reply) = rx.recv() {
        if broken.load(Ordering::SeqCst) {
            continue; // drain without writing; senders must never block
        }
        if reply.seq < max_seq_written {
            // This response was overtaken by a later request's — the
            // out-of-order completion correlation ids exist to allow.
            metrics.server_out_of_order(component);
        } else {
            max_seq_written = reply.seq;
        }
        if write_frame_v2(&mut stream, reply.corr, &reply.frame, response_cap).is_err() {
            broken.store(true, Ordering::SeqCst);
        }
        // `reply.frame` drops here, returning its buffer to the pool.
    }
}

fn reader_loop(
    mut stream: TcpStream,
    shared: &Arc<Shared>,
    replies: &Arc<Replies>,
    broken: &Arc<AtomicBool>,
) {
    let cfg = &shared.cfg;
    let mut seq = 0u64;
    loop {
        if broken.load(Ordering::SeqCst) || shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let event = read_frame_polling(&mut stream, shared, &replies.in_flight);
        seq += 1;
        match event {
            Ok(ReadEvent::Frame(corr, payload)) => submit(shared, payload, corr, seq, replies),
            Ok(ReadEvent::Eof) | Ok(ReadEvent::Stopped) => break,
            Ok(ReadEvent::Idle) => {
                cfg.metrics.server_idle_reaped(&cfg.component);
                break;
            }
            Ok(ReadEvent::TooLarge { corr, len }) => {
                // Typed refusal, then close: the read position is inside
                // an unread payload, so the connection cannot continue.
                // The header (length + correlation id) was read before
                // the length check fired, so the refusal echoes the
                // offending request's id — a pipelined caller fails fast
                // with the typed error instead of timing out and
                // replaying the same oversized frame on reconnect.
                let detail = format!("frame of {len} bytes exceeds the {}-byte cap", cfg.max_frame);
                let mut buf = shared.buffers.checkout();
                buf.extend_from_slice(&err_frame(ErrorCode::FrameTooLarge, &detail));
                let _ = replies.tx.send(Reply { corr, seq, frame: buf });
                break;
            }
            Err(_) => break,
        }
    }
}

/// Hands one decoded request to the shared compute pool, or queues a
/// `Busy` reply when the pool refuses it.
fn submit(shared: &Arc<Shared>, payload: PooledBuf, corr: u64, seq: u64, replies: &Arc<Replies>) {
    let cfg = &shared.cfg;
    cfg.metrics.server_job_enqueued(&cfg.component);
    let job_shared = Arc::clone(shared);
    let job_replies = Arc::clone(replies);
    replies.in_flight.fetch_add(1, Ordering::SeqCst);
    let accepted = shared.pool.try_execute(move || {
        let cfg = &job_shared.cfg;
        cfg.metrics.server_job_started(&cfg.component);
        let mut frame = job_shared.buffers.checkout();
        match job_shared.service.handle(&payload) {
            Ok(resp) => {
                frame.push(RESP_OK);
                frame.extend_from_slice(&resp);
            }
            Err((code, detail)) => frame.extend_from_slice(&err_frame(code, &detail)),
        }
        drop(payload); // recycle the request buffer before the send
                       // Decrement before the send: once the reply is queued, the
                       // client can already have the response on the wire and its next
                       // request in our reader, so a post-send decrement would let
                       // `in_flight` transiently exceed every client's pipeline depth.
        cfg.metrics.server_job_finished(&cfg.component);
        let _ = job_replies.tx.send(Reply { corr, seq, frame });
        job_replies.in_flight.fetch_sub(1, Ordering::SeqCst);
    });
    if accepted.is_err() {
        replies.in_flight.fetch_sub(1, Ordering::SeqCst);
        cfg.metrics.server_job_started(&cfg.component);
        cfg.metrics.server_job_finished(&cfg.component);
        cfg.metrics.server_busy_rejection(&cfg.component);
        let mut buf = shared.buffers.checkout();
        buf.extend_from_slice(&err_frame(ErrorCode::Busy, "compute queue full"));
        let _ = replies.tx.send(Reply { corr, seq, frame: buf });
    }
}

/// One frame-read attempt on a polled socket.
enum ReadEvent {
    /// A frame with its correlation id.
    Frame(u64, PooledBuf),
    /// The length prefix exceeded the cap (rejected before allocation);
    /// `corr` is the offending request's correlation id.
    TooLarge { corr: u64, len: u64 },
    /// Peer closed between frames.
    Eof,
    /// The shutdown flag flipped while waiting.
    Stopped,
    /// No bytes for the idle timeout and nothing in flight.
    Idle,
}

fn read_frame_polling(
    stream: &mut TcpStream,
    shared: &Shared,
    in_flight: &AtomicUsize,
) -> Result<ReadEvent, NetError> {
    let mut header = [0u8; FRAME_V2_HEADER_LEN];
    match fill_polling(stream, &mut header, shared, in_flight, true)? {
        Fill::Stopped => return Ok(ReadEvent::Stopped),
        Fill::Idle => return Ok(ReadEvent::Idle),
        Fill::Eof => return Ok(ReadEvent::Eof),
        Fill::Filled => {}
    }
    let len = u32::from_be_bytes(header[..FRAME_HEADER_LEN].try_into().expect("fixed len"));
    let corr = u64::from_be_bytes(header[FRAME_HEADER_LEN..].try_into().expect("fixed len"));
    if len > shared.cfg.max_frame {
        return Ok(ReadEvent::TooLarge { corr, len: u64::from(len) });
    }
    let mut payload = shared.buffers.checkout();
    payload.resize(len as usize, 0);
    match fill_polling(stream, &mut payload, shared, in_flight, false)? {
        Fill::Stopped => Ok(ReadEvent::Stopped),
        Fill::Idle => Ok(ReadEvent::Idle),
        Fill::Eof => Err(NetError::Closed),
        Fill::Filled => Ok(ReadEvent::Frame(corr, payload)),
    }
}

enum Fill {
    Filled,
    Eof,
    Stopped,
    Idle,
}

/// Fills `buf`, treating read timeouts as ticks that poll the stop flag
/// and the idle clock. EOF is only clean (`Fill::Eof`) when `eof_ok` and
/// no byte has arrived yet.
///
/// The idle clock starts at the first tick with no request in flight,
/// so the hot path never reads the clock; a silent connection is closed
/// within two ticks past `idle_timeout`.
fn fill_polling(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shared: &Shared,
    in_flight: &AtomicUsize,
    eof_ok: bool,
) -> Result<Fill, NetError> {
    use std::io::Read;
    let mut filled = 0;
    let mut idle_since: Option<Instant> = None;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if eof_ok && filled == 0 { Ok(Fill::Eof) } else { Err(NetError::Closed) }
            }
            Ok(n) => {
                filled += n;
                idle_since = None;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return Ok(Fill::Stopped);
                }
                if in_flight.load(Ordering::SeqCst) > 0 {
                    idle_since = None;
                    continue;
                }
                let now = Instant::now();
                if now.duration_since(*idle_since.get_or_insert(now)) >= shared.cfg.idle_timeout {
                    return Ok(Fill::Idle);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Fill::Filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, read_frame_v2};
    use crate::msg::{decode_response, hello_frame, is_hello_ack};
    use std::io::Write;

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
        DaemonConfig { workers: 2, queue_depth: 4, max_frame: 1024, ..DaemonConfig::default() }
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
    fn oversized_v2_frame_refusal_echoes_the_correlation_id() {
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(Upper), small_cfg()).unwrap();
        let mut conn = open(&daemon);

        // Hostile v2 header: correlation id 7, claimed 16 MiB payload on
        // a 1 KiB server. The typed refusal must target id 7 so the
        // pipelined caller fails that request instead of timing out.
        conn.write_all(&(16 * 1024 * 1024u32).to_be_bytes()).unwrap();
        conn.write_all(&7u64.to_be_bytes()).unwrap();
        let (corr, resp) = read_frame_v2(&mut conn, 4096).unwrap().unwrap();
        assert_eq!(corr, 7, "refusal carries the offending request's id");
        match decode_response(&resp).unwrap_err() {
            NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::FrameTooLarge),
            other => panic!("expected Remote, got {other}"),
        }
        daemon.shutdown();
    }

    #[test]
    fn shutdown_with_idle_connection_is_prompt() {
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(Upper), small_cfg()).unwrap();
        // Park an idle connection on a reader, then shut down: the reader
        // must notice via its read-timeout poll rather than hanging.
        let _idle = TcpStream::connect(daemon.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let start = std::time::Instant::now();
        daemon.shutdown();
        assert!(start.elapsed() < Duration::from_secs(2), "shutdown hung");
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
            read_timeout: Duration::from_millis(10),
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
    fn hello_upgrades_to_v2_and_pipelines_out_of_order() {
        let metrics = ServiceMetrics::new();
        let cfg = DaemonConfig { metrics: metrics.clone(), ..small_cfg() };
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(Sleepy), cfg).unwrap();
        let mut conn = open(&daemon);

        // Submit a slow request then a fast one; the fast response must
        // come back FIRST, carrying its own correlation id.
        write_frame_v2(&mut conn, 101, &[80], 1024).unwrap(); // 80 ms
        write_frame_v2(&mut conn, 202, &[0], 1024).unwrap(); // immediate
        let (corr_a, resp_a) = read_frame_v2(&mut conn, 4096).unwrap().unwrap();
        let (corr_b, resp_b) = read_frame_v2(&mut conn, 4096).unwrap().unwrap();
        assert_eq!(corr_a, 202, "fast response overtook the slow one");
        assert_eq!(decode_response(&resp_a).unwrap(), [0]);
        assert_eq!(corr_b, 101);
        assert_eq!(decode_response(&resp_b).unwrap(), [80]);

        let server = metrics.server("net.server");
        assert_eq!(server.accepted, 1);
        assert_eq!(server.v2_negotiated, 1);
        assert!(server.out_of_order >= 1, "reordering was counted");
        assert!(server.in_flight_peak >= 2, "two jobs ran concurrently");
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

    #[test]
    fn full_compute_queue_answers_busy_per_request() {
        let metrics = ServiceMetrics::new();
        let cfg = DaemonConfig {
            workers: 1,
            queue_depth: 1,
            metrics: metrics.clone(),
            max_frame: 1024,
            ..DaemonConfig::default()
        };
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(Sleepy), cfg).unwrap();
        let mut conn = open(&daemon);

        // Flood: 1 worker (sleeping 100 ms) + 1 queue slot; the rest of
        // the burst must come back Busy rather than queueing unboundedly.
        for corr in 0..8u64 {
            write_frame_v2(&mut conn, corr, &[100], 1024).unwrap();
        }
        let mut busy = 0u64;
        let mut served = 0u32;
        for _ in 0..8 {
            let (_, resp) = read_frame_v2(&mut conn, 4096).unwrap().unwrap();
            match decode_response(&resp) {
                Ok(_) => served += 1,
                Err(NetError::Remote { code, .. }) => {
                    assert_eq!(code, ErrorCode::Busy);
                    busy += 1;
                }
                Err(other) => panic!("unexpected {other}"),
            }
        }
        assert!(served >= 1, "the accepted jobs completed");
        assert!(busy >= 1, "overload surfaced as Busy");
        assert_eq!(metrics.server("net.server").busy_rejections, busy);
        assert!(metrics.server("net.server").queue_peak >= 1);
        daemon.shutdown();
    }
}
