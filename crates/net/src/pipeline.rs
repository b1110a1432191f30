//! The RPC client: many requests in flight on one socket.
//!
//! A call-and-response client's throughput on one socket is bounded by
//! `1 / round_trip_time` no matter how fast the server computes.
//! [`PipelinedConnection`] removes that bound: it keeps up to
//! [`PipelineConfig::depth`] requests outstanding on correlation-id
//! frames (see [`crate::frame`]), matching responses back by id in
//! whatever order the server finishes them. At depth 1 it is the plain
//! sequential client that [`crate::SpClient::connect`] and
//! [`crate::DhClient::connect`] build.
//!
//! # Handshake
//!
//! The first exchange on every (re)connect sends the HELLO frame; the
//! daemon's ack switches the connection to correlation-id framing. A
//! daemon that refuses the connection instead — `Busy` at its connection
//! cap — answers HELLO with that typed error, which the call returns (and
//! retries, for `Busy`) like any other response.
//!
//! # Retry and replay semantics
//!
//! Every request is automatically tagged with an idempotency token at
//! first send (see [`crate::dedup`]). When the connection dies
//! mid-pipeline, the client reconnects and replays **only the
//! unacknowledged ids** — same bytes, same tokens, same correlation ids
//! — so a dedup-aware server applies each logical request at most once
//! even when its response was lost in flight. Responses already received
//! are never re-requested. `Busy` responses are retried per-request with
//! the configured backoff, again reusing the token.
//!
//! Each call carries its own deadline ([`ClientConfig::read_timeout`]
//! from submission); a request that misses it fails with a timeout
//! without disturbing the rest of the pipeline.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::{next_token, ClientConfig};
use crate::dedup::wrap_idempotent;
use crate::error::NetError;
use crate::frame::{
    read_frame, write_frame, write_frame_v2, FRAME_HEADER_LEN, FRAME_V2_HEADER_LEN,
};
use crate::msg::{decode_response, hello_frame, is_hello_ack};

/// How often a parked response reader checks for shutdown.
const POLL: Duration = Duration::from_millis(25);

/// Tuning knobs for a [`PipelinedConnection`].
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Socket/retry/framing settings. `read_timeout` doubles as the
    /// per-request deadline.
    pub client: ClientConfig,
    /// Maximum requests in flight at once; further calls wait for a slot.
    pub depth: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self { client: ClientConfig::default(), depth: 16 }
    }
}

/// One in-flight (or just-completed, unclaimed) request.
#[derive(Debug)]
struct Pending {
    /// The token-tagged request bytes, kept for replay after reconnect.
    request: Vec<u8>,
    /// Set by the response reader; taken by the waiting caller.
    done: Option<Result<Vec<u8>, NetError>>,
}

/// The live socket of one connection generation. Cheap to clone: callers
/// clone it out of [`State`] and perform socket writes with the state
/// lock *released*, so a stalled peer or full send buffer blocks only
/// other writers on this wire — never response delivery, depth-slot
/// waiters, or per-request deadlines.
#[derive(Clone, Debug)]
struct Wire {
    /// Write half behind its own lock, serializing frame writes (the
    /// response reader owns a separate clone of the socket).
    writer: Arc<Mutex<TcpStream>>,
    /// Flipped when this generation is torn down, so its reader exits.
    retired: Arc<AtomicBool>,
}

#[derive(Debug)]
struct State {
    wire: Option<Wire>,
    /// Bumped per established wire; a reader for an old generation
    /// must not touch current state.
    generation: u64,
    /// A caller is dialing/negotiating with the lock released; others
    /// wait on the condvar instead of racing to connect (one socket per
    /// generation, not a thundering herd of discarded HELLOs).
    connecting: bool,
    pending: BTreeMap<u64, Pending>,
    next_corr: u64,
    closed: bool,
}

#[derive(Debug)]
struct Inner {
    addr: SocketAddr,
    cfg: PipelineConfig,
    state: Mutex<State>,
    cond: Condvar,
}

/// A connection holding up to [`PipelineConfig::depth`] requests in
/// flight on one socket. Safe to share across threads: concurrent
/// [`PipelinedConnection::call`]s interleave on the wire and complete
/// independently.
#[derive(Debug)]
pub struct PipelinedConnection {
    inner: Arc<Inner>,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl PipelinedConnection {
    /// Creates a (lazily connected) pipelined connection to `addr`.
    pub fn new(addr: SocketAddr, cfg: PipelineConfig) -> Self {
        let cfg = PipelineConfig { depth: cfg.depth.max(1), ..cfg };
        Self {
            inner: Arc::new(Inner {
                addr,
                cfg,
                state: Mutex::new(State {
                    wire: None,
                    generation: 0,
                    connecting: false,
                    pending: BTreeMap::new(),
                    next_corr: 1,
                    closed: false,
                }),
                cond: Condvar::new(),
            }),
            readers: Mutex::new(Vec::new()),
        }
    }

    /// The configured pipeline depth.
    pub fn depth(&self) -> usize {
        self.inner.cfg.depth
    }

    /// Sends one request and awaits its response, sharing the wire with
    /// every other in-flight call. The request is tagged with a fresh
    /// idempotency token (reused across retries and replays), bounded by
    /// the per-request deadline, and retried on retryable failures per
    /// the config.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Remote`] for server error frames, a timeout
    /// as [`NetError::Io`], and the last transport error once retries
    /// are exhausted.
    pub fn call(&self, request: &[u8]) -> Result<Vec<u8>, NetError> {
        let wrapped = wrap_idempotent(next_token(), request);
        let cfg = &self.inner.cfg.client;
        let mut backoff = cfg.backoff;
        let mut attempt = 0u32;
        loop {
            let deadline = Instant::now() + cfg.read_timeout;
            match self.try_call(&wrapped, deadline) {
                Ok(payload) => return Ok(payload),
                Err(e) if e.is_retryable() && attempt < cfg.retries => {
                    attempt += 1;
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Submits `requests` through the pipeline with up to `depth`
    /// concurrent calls and returns per-request results in input order.
    pub fn call_many(&self, requests: &[Vec<u8>]) -> Vec<Result<Vec<u8>, NetError>> {
        let n = requests.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.inner.cfg.depth.min(n);
        let next = AtomicUsize::new(0);
        let mut results: Vec<Option<Result<Vec<u8>, NetError>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let _ = tx.send((i, self.call(&requests[i])));
                });
            }
            drop(tx);
            for (i, result) in rx {
                results[i] = Some(result);
            }
        });
        results.into_iter().map(|r| r.expect("every index sent exactly once")).collect()
    }

    /// One full submit-and-wait pass (no Busy/transport retry — the
    /// caller loops).
    fn try_call(&self, wrapped: &[u8], deadline: Instant) -> Result<Vec<u8>, NetError> {
        let inner = &self.inner;
        let mut st = lock(inner);

        let wire = loop {
            // Wait for a depth slot.
            while !st.closed && st.pending.len() >= inner.cfg.depth {
                let now = Instant::now();
                if now >= deadline {
                    return Err(timeout_error());
                }
                st = wait(inner, st, deadline - now);
            }
            if st.closed {
                return Err(NetError::Closed);
            }
            let (st2, wire) = self.ensure_wire(st);
            st = st2;
            let wire = wire?;
            // ensure_wire may have released the lock to connect, letting
            // another caller take the last slot meanwhile; re-check so
            // the depth bound stays strict.
            if st.pending.len() < inner.cfg.depth {
                break wire;
            }
        };

        let corr = st.next_corr;
        st.next_corr += 1;
        st.pending.insert(corr, Pending { request: wrapped.to_vec(), done: None });
        drop(st);

        // Write with the state lock released: a stalled socket must not
        // block response delivery or the other callers' deadlines.
        let sent = send_on_wire(&wire, wrapped, corr, inner.cfg.client.max_frame);
        let mut st = lock(inner);
        if let Err(e) = sent {
            st.pending.remove(&corr);
            retire_wire_if_current(&mut st, &wire);
            drop(st);
            inner.cond.notify_all();
            return Err(e);
        }

        // Wait for the response reader to complete our entry.
        loop {
            if let Some(result) = st.pending.get_mut(&corr).and_then(|p| p.done.take()) {
                st.pending.remove(&corr);
                inner.cond.notify_all(); // a depth slot freed up
                return result;
            }
            if st.closed {
                st.pending.remove(&corr);
                return Err(NetError::Closed);
            }
            if st.wire.is_none() {
                // The connection died with our request unacknowledged:
                // reconnect and replay every unacknowledged id (ours
                // included) with their original tokens.
                let (st2, wire) = self.ensure_wire(st);
                st = st2;
                if let Err(e) = wire {
                    st.pending.remove(&corr);
                    drop(st);
                    inner.cond.notify_all();
                    return Err(e);
                }
                continue;
            }
            let now = Instant::now();
            if now >= deadline {
                st.pending.remove(&corr);
                inner.cond.notify_all();
                return Err(timeout_error());
            }
            st = wait(inner, st, deadline - now);
        }
    }

    /// Returns the current wire — connecting, negotiating, spawning the
    /// response reader, and replaying unacknowledged requests first if
    /// none is up. The TCP connect, the blocking HELLO exchange, and the
    /// replay writes all run with the state lock *released* (it is
    /// re-acquired to install the wire, deferring to a concurrent
    /// connector that won the race), so a slow or unreachable server
    /// stalls only the connecting caller. Always hands the (re-acquired)
    /// guard back, whatever the outcome.
    fn ensure_wire<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
    ) -> (MutexGuard<'a, State>, Result<Wire, NetError>) {
        let inner = &self.inner;
        loop {
            if st.closed {
                return (st, Err(NetError::Closed));
            }
            if let Some(wire) = &st.wire {
                let wire = wire.clone();
                return (st, Ok(wire));
            }
            if st.connecting {
                // Another caller is already dialing; park until it either
                // installs the wire or clears the flag (its own socket
                // timeouts bound the wait). Racing it would burn a full
                // TCP + HELLO exchange per caller just to discard it.
                st = wait(inner, st, POLL);
                continue;
            }
            st.connecting = true;
            drop(st);
            let negotiated = connect_and_negotiate(inner);
            st = lock(inner);
            st.connecting = false;
            inner.cond.notify_all(); // wake parked connectors either way
            let stream = match negotiated {
                Ok(stream) => stream,
                Err(e) => return (st, Err(e)),
            };
            if st.closed {
                return (st, Err(NetError::Closed));
            }
            if st.wire.is_some() {
                continue; // another caller connected first; ours drops
            }

            let read_half = match stream.try_clone() {
                Ok(half) => half,
                Err(e) => return (st, Err(e.into())),
            };
            let retired = Arc::new(AtomicBool::new(false));
            st.generation += 1;
            let generation = st.generation;
            let wire = Wire { writer: Arc::new(Mutex::new(stream)), retired: Arc::clone(&retired) };
            st.wire = Some(wire.clone());

            let reader_inner = Arc::clone(inner);
            let handle = std::thread::spawn(move || {
                reader_loop(read_half, &reader_inner, generation, &retired)
            });
            let mut readers = self.readers.lock().unwrap_or_else(PoisonError::into_inner);
            readers.retain(|h| !h.is_finished());
            readers.push(handle);
            drop(readers);

            // Replay unacknowledged requests in correlation order, again
            // with the lock released. A concurrent caller may interleave
            // a fresh request between replays — sound, because responses
            // are matched by id.
            let unacked: Vec<(u64, Vec<u8>)> = st
                .pending
                .iter()
                .filter(|(_, p)| p.done.is_none())
                .map(|(c, p)| (*c, p.request.clone()))
                .collect();
            drop(st);
            let mut replay_err = None;
            for (corr, request) in unacked {
                if let Err(e) = send_on_wire(&wire, &request, corr, inner.cfg.client.max_frame) {
                    replay_err = Some(e);
                    break;
                }
            }
            st = lock(inner);
            return match replay_err {
                None => (st, Ok(wire)),
                Some(e) => {
                    retire_wire_if_current(&mut st, &wire);
                    inner.cond.notify_all();
                    (st, Err(e))
                }
            };
        }
    }
}

/// Connects and runs the blocking HELLO exchange, returning the stream
/// ready for correlation-id frames — or the typed error the daemon
/// answered HELLO with. Called with the state lock released.
fn connect_and_negotiate(inner: &Inner) -> Result<TcpStream, NetError> {
    let cfg = &inner.cfg.client;
    let mut stream = TcpStream::connect_timeout(&inner.addr, cfg.connect_timeout)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(cfg.write_timeout))?;
    stream.set_read_timeout(Some(cfg.read_timeout))?;

    write_frame(&mut stream, &hello_frame(), cfg.max_frame)?;
    let frame =
        read_frame(&mut stream, cfg.max_frame.saturating_add(1024))?.ok_or(NetError::Closed)?;
    if !is_hello_ack(decode_response(&frame)?) {
        // An OK answer that is not the ack: not a daemon of this protocol.
        return Err(NetError::Decode(sp_wire::WireError::BadLength));
    }

    // Short read timeout from here on: the reader polls it to notice
    // retirement (clones share the one socket, so this is set after
    // the blocking HELLO exchange).
    stream.set_read_timeout(Some(POLL))?;
    Ok(stream)
}

impl Drop for PipelinedConnection {
    fn drop(&mut self) {
        let mut st = lock(&self.inner);
        st.closed = true;
        retire_wire(&mut st);
        drop(st);
        self.inner.cond.notify_all();
        let handles =
            std::mem::take(&mut *self.readers.lock().unwrap_or_else(PoisonError::into_inner));
        for h in handles {
            let _ = h.join();
        }
    }
}

fn lock(inner: &Inner) -> MutexGuard<'_, State> {
    inner.state.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a>(
    inner: &'a Inner,
    guard: MutexGuard<'a, State>,
    dur: Duration,
) -> MutexGuard<'a, State> {
    match inner.cond.wait_timeout(guard, dur) {
        Ok((g, _)) => g,
        Err(poisoned) => poisoned.into_inner().0,
    }
}

fn timeout_error() -> NetError {
    NetError::Io(std::io::Error::from(ErrorKind::TimedOut))
}

/// Tears the current wire down (closing its socket wakes nobody — the
/// reader notices via the retired flag within [`POLL`]).
fn retire_wire(st: &mut State) {
    if let Some(wire) = st.wire.take() {
        wire.retired.store(true, Ordering::SeqCst);
    }
}

/// Retires `wire` only if it is still the installed one — a send failure
/// observed with the lock released may race a concurrent retire-and-
/// reconnect, and must not tear down the replacement.
fn retire_wire_if_current(st: &mut State, wire: &Wire) {
    if st.wire.as_ref().is_some_and(|w| Arc::ptr_eq(&w.retired, &wire.retired)) {
        retire_wire(st);
    }
}

/// Writes one request on `wire` with its correlation id. Runs *without*
/// the state lock; the wire's writer lock serializes frames.
fn send_on_wire(wire: &Wire, request: &[u8], corr: u64, max_frame: u32) -> Result<(), NetError> {
    let mut stream = wire.writer.lock().unwrap_or_else(PoisonError::into_inner);
    write_frame_v2(&mut *stream, corr, request, max_frame)
}

/// The per-generation response reader: decodes frames, completes pending
/// entries, and marks the wire dead on transport failure.
fn reader_loop(mut stream: TcpStream, inner: &Inner, generation: u64, retired: &AtomicBool) {
    let cap = inner.cfg.client.max_frame.saturating_add(1024);
    loop {
        match read_response_polling(&mut stream, cap, retired) {
            Ok(Response::Retired) => return,
            Ok(Response::Frame(corr, payload)) => {
                let mut st = lock(inner);
                if st.closed || st.generation != generation {
                    return;
                }
                // An unknown id is a response whose caller already gave up
                // (deadline) — dropped on the floor by design.
                if let Some(p) = st.pending.get_mut(&corr) {
                    p.done = Some(decode_response(&payload).map(<[u8]>::to_vec));
                }
                drop(st);
                inner.cond.notify_all();
            }
            Ok(Response::Eof) | Err(_) => {
                let mut st = lock(inner);
                if st.generation == generation {
                    retire_wire(&mut st);
                }
                drop(st);
                inner.cond.notify_all();
                return;
            }
        }
    }
}

enum Response {
    /// A response frame with its correlation id.
    Frame(u64, Vec<u8>),
    /// Peer closed at a frame boundary.
    Eof,
    /// The retired flag flipped while waiting.
    Retired,
}

/// Reads one response frame on a short-timeout socket, treating read
/// timeouts as polls of the retired flag.
fn read_response_polling(
    stream: &mut TcpStream,
    max_frame: u32,
    retired: &AtomicBool,
) -> Result<Response, NetError> {
    let mut header = [0u8; FRAME_V2_HEADER_LEN];
    match fill_polling(stream, &mut header, retired, true)? {
        Fill::Retired => return Ok(Response::Retired),
        Fill::Eof => return Ok(Response::Eof),
        Fill::Filled => {}
    }
    let len = u32::from_be_bytes(header[..FRAME_HEADER_LEN].try_into().expect("fixed len"));
    if len > max_frame {
        return Err(NetError::FrameTooLarge { len: u64::from(len), max: max_frame });
    }
    let corr = u64::from_be_bytes(header[FRAME_HEADER_LEN..].try_into().expect("fixed len"));
    let mut payload = vec![0u8; len as usize];
    match fill_polling(stream, &mut payload, retired, false)? {
        Fill::Retired => Ok(Response::Retired),
        Fill::Eof => Err(NetError::Closed),
        Fill::Filled => Ok(Response::Frame(corr, payload)),
    }
}

enum Fill {
    Filled,
    Eof,
    Retired,
}

/// Fills `buf`, polling `retired` on every read timeout. EOF is only
/// clean when `eof_ok` and no byte has arrived yet.
fn fill_polling(
    stream: &mut TcpStream,
    buf: &mut [u8],
    retired: &AtomicBool,
    eof_ok: bool,
) -> Result<Fill, NetError> {
    use std::io::Read;
    let mut filled = 0;
    while filled < buf.len() {
        if retired.load(Ordering::SeqCst) {
            return Ok(Fill::Retired);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if eof_ok && filled == 0 { Ok(Fill::Eof) } else { Err(NetError::Closed) }
            }
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Fill::Filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, DaemonConfig, Service};
    use crate::dedup::{strip_idempotency, DedupService, IDEMPOTENCY_TAG};
    use crate::error::ErrorCode;
    use crate::frame::read_frame_v2;
    use crate::msg::{hello_ack_payload, is_hello, ok_frame, RESP_OK};
    use social_puzzles_core::metrics::ServiceMetrics;
    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicU32;

    /// Sleeps for the request-encoded number of milliseconds, then echoes.
    struct SleepyEcho;
    impl Service for SleepyEcho {
        fn handle(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
            let ms = request.first().copied().unwrap_or(0);
            std::thread::sleep(Duration::from_millis(u64::from(ms)));
            Ok(request.to_vec())
        }
    }

    fn sleepy_daemon(cfg: DaemonConfig) -> Daemon {
        Daemon::spawn("127.0.0.1:0", Arc::new(DedupService::new(SleepyEcho)), cfg).unwrap()
    }

    /// Answers `Busy` to its first `busy_first` requests, then echoes.
    struct Flaky {
        seen: AtomicU32,
        busy_first: u32,
    }
    impl Service for Flaky {
        fn handle(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
            if self.seen.fetch_add(1, Ordering::SeqCst) < self.busy_first {
                return Err((ErrorCode::Busy, "warming up".into()));
            }
            Ok(request.to_vec())
        }
    }

    fn flaky_daemon(busy_first: u32) -> (Daemon, Arc<DedupService<Flaky>>) {
        let service = Arc::new(DedupService::new(Flaky { seen: AtomicU32::new(0), busy_first }));
        let daemon =
            Daemon::spawn("127.0.0.1:0", Arc::clone(&service) as _, DaemonConfig::default())
                .unwrap();
        (daemon, service)
    }

    /// The daemon's side of the HELLO exchange, for hand-rolled servers.
    fn answer_hello(stream: &mut TcpStream) {
        let req = read_frame(stream, 1 << 20).unwrap().unwrap();
        assert!(is_hello(&req));
        write_frame(stream, &ok_frame(&hello_ack_payload()), 1 << 20).unwrap();
    }

    fn quick_cfg(depth: usize) -> PipelineConfig {
        PipelineConfig {
            depth,
            client: ClientConfig {
                backoff: Duration::from_millis(5),
                read_timeout: Duration::from_secs(5),
                ..ClientConfig::default()
            },
        }
    }

    /// A hand-rolled server answers two pipelined calls in reverse
    /// order, holding the first one's answer until the second call has
    /// returned: each call must get its own payload, matched by id.
    #[test]
    fn pipelined_calls_complete_out_of_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (go, go_rx) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            answer_hello(&mut s);
            let first = read_frame_v2(&mut s, 1 << 20).unwrap().unwrap();
            let second = read_frame_v2(&mut s, 1 << 20).unwrap().unwrap();
            let answer = |s: &mut TcpStream, (corr, req): &(u64, Vec<u8>)| {
                let (_, inner) = strip_idempotency(req).unwrap();
                write_frame_v2(s, *corr, &[&[RESP_OK][..], inner].concat(), 1 << 20).unwrap();
                inner.to_vec()
            };
            answer(&mut s, &second);
            go_rx.recv().unwrap();
            let first = answer(&mut s, &first);
            // Hold the connection until the client is finished with it.
            let _ = read_frame_v2(&mut s, 1 << 20);
            first
        });

        let conn = Arc::new(PipelinedConnection::new(addr, quick_cfg(8)));
        let (done, done_rx) = mpsc::channel();
        let calls: Vec<_> = [&b"x"[..], b"y"]
            .into_iter()
            .map(|payload| {
                let (conn, done) = (Arc::clone(&conn), done.clone());
                std::thread::spawn(move || done.send((payload, conn.call(payload))).unwrap())
            })
            .collect();
        let (early, result) = done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(result.unwrap(), early, "the early answer reached its own call");
        go.send(()).unwrap();
        let (late, result) = done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(result.unwrap(), late);
        calls.into_iter().for_each(|c| c.join().unwrap());
        drop(conn);
        assert_eq!(server.join().unwrap(), late, "the call sent first completed last");
    }

    #[test]
    fn call_many_preserves_input_order() {
        let daemon = sleepy_daemon(DaemonConfig::default());
        let conn = PipelinedConnection::new(daemon.addr(), quick_cfg(4));
        // Mixed delays so completion order differs from input order.
        let requests: Vec<Vec<u8>> =
            (0..12u8).map(|i| vec![if i % 3 == 0 { 40 } else { 0 }, i]).collect();
        let results = conn.call_many(&requests);
        assert_eq!(results.len(), 12);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.as_deref().unwrap(), &requests[i][..], "slot {i}");
        }
        drop(conn);
        daemon.shutdown();
    }

    #[test]
    fn depth_bounds_requests_in_flight() {
        let metrics = ServiceMetrics::new();
        let daemon = sleepy_daemon(DaemonConfig { metrics: metrics.clone(), ..Default::default() });
        let conn = PipelinedConnection::new(daemon.addr(), quick_cfg(2));
        let requests: Vec<Vec<u8>> = (0..10u8).map(|i| vec![10, i]).collect();
        let results = conn.call_many(&requests);
        assert!(results.iter().all(Result::is_ok));
        // The client never lets more than `depth` requests out the door,
        // so the server can never see more than `depth` in flight.
        assert!(
            metrics.server("net.server").in_flight_peak <= 2,
            "depth limit leaked: peak {}",
            metrics.server("net.server").in_flight_peak
        );
        drop(conn);
        daemon.shutdown();
    }

    #[test]
    fn per_request_deadline_fires_without_killing_the_pipeline() {
        let daemon = sleepy_daemon(DaemonConfig::default());
        let cfg = PipelineConfig {
            depth: 4,
            client: ClientConfig {
                read_timeout: Duration::from_millis(150),
                retries: 0,
                ..ClientConfig::default()
            },
        };
        let conn = PipelinedConnection::new(daemon.addr(), cfg);
        // 250 ms of work against a 150 ms deadline: the call must fail
        // with a timeout...
        match conn.call(&[250]).unwrap_err() {
            NetError::Io(e) => assert_eq!(e.kind(), ErrorKind::TimedOut),
            other => panic!("expected timeout, got {other}"),
        }
        // ...and the late response (now matching no pending id) must not
        // disturb later calls on the same wire.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(conn.call(&[0, 9]).unwrap(), [0, 9]);
        drop(conn);
        daemon.shutdown();
    }

    /// A hand-rolled v2 server whose first connection accepts a request
    /// and dies without answering: the client must reconnect and replay
    /// the unacknowledged request — same correlation id, same token —
    /// before completing the call.
    #[test]
    fn disconnect_replays_only_unacknowledged_ids_with_their_tokens() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Connection 1: negotiate, swallow one request, hang up.
            let (mut c1, _) = listener.accept().unwrap();
            answer_hello(&mut c1);
            let (corr1, req1) = read_frame_v2(&mut c1, 1 << 20).unwrap().unwrap();
            drop(c1);
            // Connection 2: the replay must be byte-identical.
            let (mut c2, _) = listener.accept().unwrap();
            answer_hello(&mut c2);
            let (corr2, req2) = read_frame_v2(&mut c2, 1 << 20).unwrap().unwrap();
            assert_eq!(corr2, corr1, "replay reuses the correlation id");
            assert_eq!(req2, req1, "replay reuses the exact bytes (same token)");
            assert_eq!(req1[0], IDEMPOTENCY_TAG, "pipelined requests are auto-tagged");
            let (_, inner) = strip_idempotency(&req1).unwrap();
            assert_eq!(inner, b"mutate");
            let mut resp = vec![RESP_OK];
            resp.extend_from_slice(b"done");
            write_frame_v2(&mut c2, corr2, &resp, 1 << 20).unwrap();
            // Hold the connection until the client is finished with it.
            let _ = read_frame_v2(&mut c2, 1 << 20);
        });

        let conn = PipelinedConnection::new(addr, quick_cfg(4));
        assert_eq!(conn.call(b"mutate").unwrap(), b"done");
        drop(conn);
        server.join().unwrap();
    }

    #[test]
    fn busy_responses_are_retried_until_success() {
        let (daemon, _) = flaky_daemon(2);
        let conn = PipelinedConnection::new(daemon.addr(), quick_cfg(1));
        // retries = 2 → 3 attempts; the first two answer Busy.
        assert_eq!(conn.call(b"eventually").unwrap(), b"eventually");
        drop(conn);
        daemon.shutdown();
    }

    #[test]
    fn busy_retries_are_bounded_and_back_off() {
        let (daemon, service) = flaky_daemon(u32::MAX);
        let client = ClientConfig {
            retries: 3,
            backoff: Duration::from_millis(20),
            ..ClientConfig::default()
        };
        let conn = PipelinedConnection::new(daemon.addr(), PipelineConfig { depth: 1, client });
        let started = Instant::now();
        match conn.call(b"always busy").unwrap_err() {
            NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::Busy),
            other => panic!("expected Remote Busy, got {other}"),
        }
        let elapsed = started.elapsed();
        // Exactly retries + 1 attempts — bounded, not infinite.
        assert_eq!(service.inner().seen.load(Ordering::SeqCst), 4);
        // And the exponential schedule (20 + 40 + 80 ms) was actually
        // slept through, less scheduler slop.
        assert!(elapsed >= Duration::from_millis(120), "only waited {elapsed:?}");
        drop(conn);
        daemon.shutdown();
    }

    /// A daemon at its connection cap answers HELLO with `Busy` and
    /// closes. The call must return that typed refusal — never write a
    /// request onto the closed socket — after one refusal per attempt.
    #[test]
    fn a_refused_hello_returns_the_daemons_busy() {
        let metrics = ServiceMetrics::new();
        let daemon = sleepy_daemon(DaemonConfig {
            max_connections: 1,
            metrics: metrics.clone(),
            ..Default::default()
        });
        let holder = PipelinedConnection::new(daemon.addr(), quick_cfg(1));
        assert_eq!(holder.call(&[0, 1]).unwrap(), [0, 1], "holds the only slot");

        let client = ClientConfig {
            retries: 2,
            backoff: Duration::from_millis(5),
            ..ClientConfig::default()
        };
        let refused = PipelinedConnection::new(daemon.addr(), PipelineConfig { depth: 1, client });
        match refused.call(&[0, 2]).unwrap_err() {
            NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::Busy),
            other => panic!("expected Remote Busy, got {other}"),
        }
        assert_eq!(metrics.server("net.server").busy_rejections, 3, "retries + 1 refusals");
        drop((refused, holder));
        daemon.shutdown();
    }

    /// The first connection answers with a truncated frame (the header
    /// promises more bytes than arrive) and hangs up: the client treats
    /// the partial read as a transport error and reconnects, and the
    /// caller never sees the fault.
    #[test]
    fn partial_reads_are_retried_as_transport_errors() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut served = 0u32;
            for stream in listener.incoming() {
                let mut stream = stream.unwrap();
                answer_hello(&mut stream);
                let (corr, req) = read_frame_v2(&mut stream, 1 << 20).unwrap().unwrap();
                served += 1;
                if served == 1 {
                    // Claim an 8-byte payload, deliver 3, hang up.
                    stream.write_all(&8u32.to_be_bytes()).unwrap();
                    stream.write_all(&corr.to_be_bytes()).unwrap();
                    stream.write_all(&[RESP_OK, 0xAA, 0xBB]).unwrap();
                } else {
                    let resp = [&[RESP_OK][..], &req].concat();
                    write_frame_v2(&mut stream, corr, &resp, 1 << 20).unwrap();
                    break;
                }
            }
            served
        });
        let conn = PipelinedConnection::new(addr, quick_cfg(1));
        let echo = conn.call(b"payload").unwrap();
        assert_eq!(strip_idempotency(&echo).unwrap().1, b"payload");
        assert_eq!(server.join().unwrap(), 2);
    }

    /// A lossy proxy in front of a dedup-wrapped daemon cuts the first
    /// response mid-frame after the mutation ran upstream. The replay on
    /// reconnect hits the replay cache: the mutation applies once.
    #[test]
    fn lost_response_never_applies_a_mutation_twice() {
        struct Apply(AtomicU32);
        impl Service for Apply {
            fn handle(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(request.to_vec())
            }
        }
        let service = Arc::new(DedupService::new(Apply(AtomicU32::new(0))));
        let daemon =
            Daemon::spawn("127.0.0.1:0", Arc::clone(&service) as _, DaemonConfig::default())
                .unwrap();
        let upstream = daemon.addr();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let proxy_addr = listener.local_addr().unwrap();
        let proxy = std::thread::spawn(move || {
            for (i, stream) in listener.incoming().enumerate() {
                let mut down = stream.unwrap();
                let mut up = TcpStream::connect(upstream).unwrap();
                // HELLO and its ack pass through untouched.
                let hello = read_frame(&mut down, 1 << 20).unwrap().unwrap();
                write_frame(&mut up, &hello, 1 << 20).unwrap();
                let ack = read_frame(&mut up, 1 << 20).unwrap().unwrap();
                write_frame(&mut down, &ack, 1 << 20).unwrap();
                let (corr, req) = read_frame_v2(&mut down, 1 << 20).unwrap().unwrap();
                write_frame_v2(&mut up, corr, &req, 1 << 20).unwrap();
                let (corr, resp) = read_frame_v2(&mut up, 1 << 20).unwrap().unwrap();
                if i == 0 {
                    // The mutation HAS executed upstream; now lose most
                    // of the response on the way back.
                    down.write_all(&(resp.len() as u32).to_be_bytes()).unwrap();
                    down.write_all(&corr.to_be_bytes()).unwrap();
                    down.write_all(&resp[..resp.len() / 2]).unwrap();
                } else {
                    write_frame_v2(&mut down, corr, &resp, 1 << 20).unwrap();
                    break;
                }
            }
        });

        let conn = PipelinedConnection::new(proxy_addr, quick_cfg(1));
        // The logical mutation succeeds despite the lost response...
        assert_eq!(conn.call(b"mutate-once").unwrap(), b"mutate-once");
        drop(conn);
        proxy.join().unwrap();
        // ...and was applied exactly once: the replay hit the cache.
        assert_eq!(service.inner().0.load(Ordering::SeqCst), 1, "mutation applied twice");
        daemon.shutdown();
    }

    #[test]
    fn connect_timeouts_and_refusals_stay_bounded() {
        let cfg = PipelineConfig {
            depth: 1,
            client: ClientConfig {
                retries: 1,
                backoff: Duration::from_millis(1),
                connect_timeout: Duration::from_millis(150),
                ..ClientConfig::default()
            },
        };

        // A port with nothing listening refuses the connect outright.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let conn = PipelinedConnection::new(dead, cfg.clone());
        assert!(matches!(conn.call(b"x").unwrap_err(), NetError::Io(_)));

        // A listener whose accept queue is full drops further SYNs, so a
        // connect to it times out instead — all on loopback. Fill the
        // queue until a short probe connect times out.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut queued = Vec::new();
        let probe = loop {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(100)) {
                Ok(s) if queued.len() < 1024 => queued.push(s),
                Ok(_) => panic!("the accept queue never filled"),
                Err(e) => break e,
            }
        };
        assert_eq!(probe.kind(), ErrorKind::TimedOut, "a full accept queue drops SYNs");
        let conn = PipelinedConnection::new(addr, cfg);
        let started = Instant::now();
        match conn.call(b"x").unwrap_err() {
            NetError::Io(e) => assert_eq!(e.kind(), ErrorKind::TimedOut),
            other => panic!("expected a connect timeout, got {other}"),
        }
        // Two attempts × 150 ms + 1 ms backoff, plus generous slop for a
        // loaded test host — but well under an unbounded hang.
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
    }
}
