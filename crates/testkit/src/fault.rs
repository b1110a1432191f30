//! Deterministic fault injection for the framed transport.
//!
//! [`FaultyProxy`] sits between a client and a real daemon and forwards
//! whole frames, consulting a seeded [`FaultPlan`] for each transfer:
//! forward it, delay it, flip one bit in it, truncate it mid-frame and
//! hang up, or drop it and hang up. The plan is a pure function of its
//! seed, so a failing run reproduces exactly from the seed alone.
//!
//! The proxy operates at frame granularity on both directions — a
//! request transfer and a response transfer each draw their own fault —
//! which is precisely the failure surface the retry/dedup machinery in
//! `sp-net` claims to handle: lost requests, lost responses, corrupt
//! payloads, and connections dying mid-frame. Each connection's HELLO
//! exchange passes through untouched and draws no fault; after it the
//! proxy reads correlation-id frames and corrupts only their payloads,
//! so a flipped bit never lands in a length or an id.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_net::frame::{FRAME_HEADER_LEN, FRAME_V2_HEADER_LEN};

/// What happens to one frame transfer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Deliver the frame unchanged.
    Forward,
    /// Deliver the frame after a short pause.
    Delay,
    /// Deliver the frame with one bit flipped somewhere in the payload.
    BitFlip,
    /// Send the header and a strict prefix of the payload, then hang up
    /// (the receiver sees EOF mid-frame).
    Truncate,
    /// Send nothing and hang up.
    Drop,
}

/// How many transfers of each kind a proxy has performed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultCounts {
    /// Frames delivered unchanged.
    pub forwarded: u64,
    /// Frames delivered late.
    pub delayed: u64,
    /// Frames delivered corrupted.
    pub bit_flipped: u64,
    /// Frames cut off mid-payload.
    pub truncated: u64,
    /// Frames dropped entirely.
    pub dropped: u64,
}

impl FaultCounts {
    /// Total transfers that were *not* clean forwards.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.delayed + self.bit_flipped + self.truncated + self.dropped
    }
}

/// A seeded schedule of faults: every draw comes from one `StdRng`, so
/// the whole schedule is reproducible from `(seed, fault_percent)`.
#[derive(Debug)]
pub struct FaultPlan {
    rng: StdRng,
    /// Probability (in percent) that a transfer is faulted at all.
    fault_percent: u32,
    /// The faults drawn from when one fires.
    menu: Vec<Fault>,
}

impl FaultPlan {
    /// A plan faulting roughly one transfer in four with every fault
    /// kind on the menu.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_rate(seed, 25)
    }

    /// A plan with an explicit fault probability in percent (0 = fully
    /// transparent, 100 = every transfer faulted).
    #[must_use]
    pub fn with_rate(seed: u64, fault_percent: u32) -> Self {
        Self::with_menu(
            seed,
            fault_percent,
            &[Fault::Delay, Fault::BitFlip, Fault::Truncate, Fault::Drop],
        )
    }

    /// A plan restricted to *non-corrupting* faults (delay, truncate,
    /// drop — never a bit flip). Under these, a request that completes
    /// must still produce the **correct** result: lost frames force
    /// retries, and the idempotency layer makes retries safe, but no
    /// payload is ever altered in flight.
    #[must_use]
    pub fn benign(seed: u64, fault_percent: u32) -> Self {
        Self::with_menu(seed, fault_percent, &[Fault::Delay, Fault::Truncate, Fault::Drop])
    }

    /// A plan drawing faults from an explicit menu.
    ///
    /// # Panics
    ///
    /// Panics if `menu` is empty or contains [`Fault::Forward`].
    #[must_use]
    pub fn with_menu(seed: u64, fault_percent: u32, menu: &[Fault]) -> Self {
        assert!(!menu.is_empty(), "fault menu cannot be empty");
        assert!(!menu.contains(&Fault::Forward), "Forward is the non-fault, not a menu item");
        Self {
            rng: StdRng::seed_from_u64(seed),
            fault_percent: fault_percent.min(100),
            menu: menu.to_vec(),
        }
    }

    /// Draws the fault for the next transfer.
    pub fn next_fault(&mut self) -> Fault {
        if self.rng.gen_range(0..100u32) >= self.fault_percent {
            return Fault::Forward;
        }
        let pick = self.rng.gen_range(0..self.menu.len());
        self.menu[pick]
    }

    /// Draws a file-level fault for the next durable-store session, or
    /// `None` to let the session run clean. Fires with the same
    /// `fault_percent` probability as [`FaultPlan::next_fault`], and the
    /// same determinism contract: the whole schedule replays from the
    /// seed. `expected_appends` bounds which append the fault targets so
    /// it lands inside the session instead of past its end.
    pub fn next_file_fault(&mut self, expected_appends: u64) -> Option<sp_store::FileFault> {
        if self.rng.gen_range(0..100u32) >= self.fault_percent {
            return None;
        }
        let appends = expected_appends.max(1);
        let append = self.rng.gen_range(1..=appends);
        Some(match self.rng.gen_range(0..3u32) {
            // WAL records here are a few dozen bytes, so an offset
            // within `appends` small frames kills mid-log.
            0 => sp_store::FileFault::KillAtOffset {
                offset: self.rng.gen_range(1..=appends.saturating_mul(48)),
            },
            1 => sp_store::FileFault::TornWrite { append },
            _ => sp_store::FileFault::PartialFsync { append },
        })
    }

    /// Picks the bit to flip in an `len`-byte payload.
    fn flip_position(&mut self, len: usize) -> (usize, u8) {
        let byte = self.rng.gen_range(0..len);
        let bit = self.rng.gen_range(0..8u32) as u8;
        (byte, 1u8 << bit)
    }
}

struct Shared {
    plan: Mutex<FaultPlan>,
    stop: AtomicBool,
    forwarded: AtomicU64,
    delayed: AtomicU64,
    bit_flipped: AtomicU64,
    truncated: AtomicU64,
    dropped: AtomicU64,
}

/// A frame-level TCP proxy that injects the faults a [`FaultPlan`]
/// schedules. Spawn it in front of a daemon, point the client at
/// [`FaultyProxy::addr`], and every frame in either direction runs the
/// gauntlet.
#[derive(Debug)]
pub struct FaultyProxy {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

/// Sockets poll at this interval so the proxy notices shutdown (and
/// stuck peers) promptly without busy-waiting.
const POLL: Duration = Duration::from_millis(20);

/// How long a delayed frame is held. Short enough that a delay alone
/// never trips the default client read timeout — a pure delay must be
/// survivable without a retry.
const DELAY: Duration = Duration::from_millis(5);

/// Frames bigger than this are not proxied; matches nothing the tests
/// send and keeps hostile-header handling out of the proxy's scope.
const PROXY_MAX_FRAME: u32 = 8 * 1024 * 1024;

impl FaultyProxy {
    /// Binds an ephemeral local port and starts proxying to `upstream`.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn spawn(upstream: SocketAddr, plan: FaultPlan) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            plan: Mutex::new(plan),
            stop: AtomicBool::new(false),
            forwarded: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            bit_flipped: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::spawn(move || accept_loop(&listener, upstream, &shared, &handlers))
        };
        Ok(Self { addr, shared, acceptor: Some(acceptor), handlers })
    }

    /// Where clients should connect.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of what has been done to traffic so far.
    #[must_use]
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            forwarded: self.shared.forwarded.load(Ordering::SeqCst),
            delayed: self.shared.delayed.load(Ordering::SeqCst),
            bit_flipped: self.shared.bit_flipped.load(Ordering::SeqCst),
            truncated: self.shared.truncated.load(Ordering::SeqCst),
            dropped: self.shared.dropped.load(Ordering::SeqCst),
        }
    }

    /// Stops the proxy and joins every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        let drained: Vec<_> = {
            let mut guard = self.handlers.lock().unwrap_or_else(|p| p.into_inner());
            guard.drain(..).collect()
        };
        for t in drained {
            let _ = t.join();
        }
    }
}

impl Drop for FaultyProxy {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    shared: &Arc<Shared>,
    handlers: &Mutex<Vec<JoinHandle<()>>>,
) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    let _ = proxy_connection(client, upstream, &shared);
                });
                handlers.lock().unwrap_or_else(|p| p.into_inner()).push(handle);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Shuttles frames for one client connection until either side closes,
/// a fault hangs up, or the proxy stops.
fn proxy_connection(
    mut client: TcpStream,
    upstream: SocketAddr,
    shared: &Shared,
) -> std::io::Result<()> {
    let mut server = TcpStream::connect(upstream)?;
    for s in [&client, &server] {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(POLL))?;
        s.set_write_timeout(Some(Duration::from_secs(5)))?;
    }
    // HELLO and its ack pass through untouched, drawing no fault.
    let Some(hello) = read_frame_verbatim(&mut client, FRAME_HEADER_LEN, &shared.stop)? else {
        return Ok(());
    };
    send(&mut server, &hello)?;
    let Some(ack) = read_frame_verbatim(&mut server, FRAME_HEADER_LEN, &shared.stop)? else {
        return Ok(());
    };
    send(&mut client, &ack)?;
    loop {
        let Some(request) = read_frame_verbatim(&mut client, FRAME_V2_HEADER_LEN, &shared.stop)?
        else {
            return Ok(()); // client went away (or we are stopping)
        };
        if !transfer(&request, &mut server, shared)? {
            return Ok(()); // fault hung up the forward path
        }
        let Some(response) = read_frame_verbatim(&mut server, FRAME_V2_HEADER_LEN, &shared.stop)?
        else {
            return Ok(()); // daemon closed (e.g. after a poisoned frame)
        };
        if !transfer(&response, &mut client, shared)? {
            return Ok(());
        }
    }
}

/// Applies the plan's next fault to one correlation-id frame (header and
/// payload, verbatim) headed for `dest`. Returns `Ok(false)` when the
/// fault closed the connection.
fn transfer(frame: &[u8], dest: &mut TcpStream, shared: &Shared) -> std::io::Result<bool> {
    let payload_len = frame.len() - FRAME_V2_HEADER_LEN;
    let fault = {
        let mut plan = shared.plan.lock().unwrap_or_else(|p| p.into_inner());
        match plan.next_fault() {
            Fault::BitFlip if payload_len == 0 => Fault::Forward,
            Fault::BitFlip => {
                let (byte, mask) = plan.flip_position(payload_len);
                drop(plan);
                shared.bit_flipped.fetch_add(1, Ordering::SeqCst);
                let mut corrupt = frame.to_vec();
                corrupt[FRAME_V2_HEADER_LEN + byte] ^= mask;
                send(dest, &corrupt)?;
                return Ok(true);
            }
            other => other,
        }
    };
    match fault {
        Fault::Forward => {
            shared.forwarded.fetch_add(1, Ordering::SeqCst);
            send(dest, frame)?;
            Ok(true)
        }
        Fault::Delay => {
            shared.delayed.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(DELAY);
            send(dest, frame)?;
            Ok(true)
        }
        Fault::Truncate => {
            shared.truncated.fetch_add(1, Ordering::SeqCst);
            // Full header, half the payload: the receiver commits to
            // reading `len` bytes and hits EOF in the middle.
            send(dest, &frame[..FRAME_V2_HEADER_LEN + payload_len / 2])?;
            Ok(false)
        }
        Fault::Drop => {
            shared.dropped.fetch_add(1, Ordering::SeqCst);
            Ok(false)
        }
        Fault::BitFlip => unreachable!("handled above"),
    }
}

fn send(dest: &mut TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    dest.write_all(bytes)?;
    dest.flush()
}

/// Reads one frame verbatim — its `header_len`-byte header (length
/// first) and payload — polling `stop` on read timeouts. `None` means
/// the peer closed or reset (between frames or mid-frame), the frame is
/// over the proxy's cap, or the proxy is shutting down — in every case
/// the connection is done.
pub(crate) fn read_frame_verbatim(
    stream: &mut TcpStream,
    header_len: usize,
    stop: &AtomicBool,
) -> std::io::Result<Option<Vec<u8>>> {
    let mut frame = vec![0u8; header_len];
    if !fill_polling(stream, &mut frame, stop)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(frame[..FRAME_HEADER_LEN].try_into().expect("fixed len"));
    if len > PROXY_MAX_FRAME {
        return Ok(None); // not traffic we proxy; drop the connection
    }
    frame.resize(header_len + len as usize, 0);
    if !fill_polling(stream, &mut frame[header_len..], stop)? {
        return Ok(None);
    }
    Ok(Some(frame))
}

fn fill_polling(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Ok(false),
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return Ok(false),
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_net::daemon::{Daemon, DaemonConfig, Service};
    use sp_net::error::ErrorCode;
    use sp_net::{ClientConfig, PipelineConfig, PipelinedConnection};

    #[test]
    fn plans_are_deterministic_per_seed() {
        let mut a = FaultPlan::new(77);
        let mut b = FaultPlan::new(77);
        let seq_a: Vec<Fault> = (0..64).map(|_| a.next_fault()).collect();
        let seq_b: Vec<Fault> = (0..64).map(|_| b.next_fault()).collect();
        assert_eq!(seq_a, seq_b);

        let mut c = FaultPlan::new(78);
        let seq_c: Vec<Fault> = (0..64).map(|_| c.next_fault()).collect();
        assert_ne!(seq_a, seq_c, "different seeds should diverge");
    }

    #[test]
    fn rate_bounds_are_honored() {
        let mut silent = FaultPlan::with_rate(1, 0);
        assert!((0..128).all(|_| silent.next_fault() == Fault::Forward));
        let mut loud = FaultPlan::with_rate(2, 100);
        assert!((0..128).all(|_| loud.next_fault() != Fault::Forward));
    }

    /// Echo service over the real daemon, for end-to-end proxy checks.
    /// It echoes the whole request, idempotency envelope included.
    struct Echo;
    impl Service for Echo {
        fn handle(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
            Ok(request.to_vec())
        }
    }

    #[test]
    fn transparent_at_rate_zero() {
        let daemon =
            Daemon::spawn("127.0.0.1:0", std::sync::Arc::new(Echo), DaemonConfig::default())
                .unwrap();
        let proxy = FaultyProxy::spawn(daemon.addr(), FaultPlan::with_rate(3, 0)).unwrap();
        let conn = PipelinedConnection::new(proxy.addr(), PipelineConfig::default());
        for i in 0..10u8 {
            let echo = conn.call(&[i, i, i]).unwrap();
            assert_eq!(sp_net::dedup::strip_idempotency(&echo).unwrap().1, [i, i, i]);
        }
        let counts = proxy.counts();
        assert_eq!(counts.injected(), 0);
        assert_eq!(counts.forwarded, 20, "10 requests + 10 responses; HELLO is not counted");
        proxy.shutdown();
        daemon.shutdown();
    }

    #[test]
    fn faults_fire_and_the_client_survives_with_typed_errors() {
        let daemon =
            Daemon::spawn("127.0.0.1:0", std::sync::Arc::new(Echo), DaemonConfig::default())
                .unwrap();
        let proxy = FaultyProxy::spawn(daemon.addr(), FaultPlan::with_rate(4, 40)).unwrap();
        let cfg = ClientConfig {
            read_timeout: Duration::from_millis(250),
            retries: 4,
            backoff: Duration::from_millis(5),
            ..ClientConfig::default()
        };
        let conn = PipelinedConnection::new(proxy.addr(), PipelineConfig { depth: 1, client: cfg });
        let mut ok = 0;
        for i in 0..30u8 {
            // Every call must terminate with either the right echo or a
            // typed error — never a panic and never a hang.
            match conn.call(&[i; 16]) {
                Ok(echo) => {
                    // A bit-flipped *request* comes back as a faithful
                    // echo of the corrupted bytes; either way the frame
                    // structure held: envelope (9 bytes) + payload.
                    assert_eq!(echo.len(), 9 + 16);
                    ok += 1;
                }
                Err(e) => {
                    let _ = e.to_string(); // typed, displayable
                }
            }
        }
        assert!(ok > 0, "nothing survived a 40% fault rate with retries");
        assert!(proxy.counts().injected() > 0, "no faults actually fired");
        proxy.shutdown();
        daemon.shutdown();
    }
}
