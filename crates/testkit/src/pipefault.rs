//! Fault injection for the **pipelined** (v2) serving path.
//!
//! [`FaultyProxy`](crate::fault::FaultyProxy) is lock-step: one request,
//! one response. A pipelined client violates both assumptions — many
//! requests are in flight on one socket and the daemon answers out of
//! order — so this module provides [`PipelinedProxy`], a v2-aware proxy
//! that passes the HELLO negotiation through untouched, forwards
//! requests verbatim, and runs every **response** frame through a seeded
//! [`PipePlan`]: forward it, delay it, hold it back so a later response
//! overtakes it (an artificial reorder on top of whatever the daemon
//! already reorders), or drop it and sever the connection mid-pipeline.
//!
//! Responses are never corrupted, so under this proxy the differential
//! contract is strict: every attempt that completes must produce the
//! oracle's decision. Held/reordered frames exercise the client's
//! correlation matching; disconnects exercise replay of unacknowledged
//! ids with their original idempotency tokens.

use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_net::frame::{FRAME_HEADER_LEN, FRAME_V2_HEADER_LEN};

use crate::fault::read_frame_verbatim;

/// What happens to one response frame headed back to the client.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResponseFault {
    /// Deliver the response unchanged.
    Forward,
    /// Deliver the response after a short pause.
    Delay,
    /// Hold the response back until the *next* response has been
    /// delivered — a guaranteed observable reorder.
    Hold,
    /// Drop the response and sever the connection: every request still
    /// in flight sees a mid-pipeline disconnect.
    Disconnect,
}

/// How many response transfers of each kind a proxy has performed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PipeCounts {
    /// Responses delivered unchanged (and in arrival order).
    pub forwarded: u64,
    /// Responses delivered late.
    pub delayed: u64,
    /// Responses delivered *after* a later response (reorders).
    pub reordered: u64,
    /// Responses dropped with the connection severed mid-pipeline.
    pub disconnects: u64,
}

impl PipeCounts {
    /// Transfers that were not clean in-order forwards.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.delayed + self.reordered + self.disconnects
    }
}

/// A seeded schedule of [`ResponseFault`]s, reproducible from
/// `(seed, fault_percent)` alone.
#[derive(Debug)]
pub struct PipePlan {
    rng: StdRng,
    fault_percent: u32,
    menu: Vec<ResponseFault>,
}

impl PipePlan {
    /// A plan faulting roughly one response in four, drawing evenly from
    /// delay, hold (reorder), and disconnect.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_rate(seed, 25)
    }

    /// A plan with an explicit fault probability in percent.
    #[must_use]
    pub fn with_rate(seed: u64, fault_percent: u32) -> Self {
        Self::with_menu(
            seed,
            fault_percent,
            &[ResponseFault::Delay, ResponseFault::Hold, ResponseFault::Disconnect],
        )
    }

    /// A plan drawing from an explicit menu.
    ///
    /// # Panics
    ///
    /// Panics if `menu` is empty or contains [`ResponseFault::Forward`].
    #[must_use]
    pub fn with_menu(seed: u64, fault_percent: u32, menu: &[ResponseFault]) -> Self {
        assert!(!menu.is_empty(), "fault menu cannot be empty");
        assert!(
            !menu.contains(&ResponseFault::Forward),
            "Forward is the non-fault, not a menu item"
        );
        Self {
            rng: StdRng::seed_from_u64(seed),
            fault_percent: fault_percent.min(100),
            menu: menu.to_vec(),
        }
    }

    /// Draws the fault for the next response transfer.
    pub fn next_fault(&mut self) -> ResponseFault {
        if self.rng.gen_range(0..100u32) >= self.fault_percent {
            return ResponseFault::Forward;
        }
        self.menu[self.rng.gen_range(0..self.menu.len())]
    }
}

struct Shared {
    plan: Mutex<PipePlan>,
    stop: AtomicBool,
    forwarded: AtomicU64,
    delayed: AtomicU64,
    reordered: AtomicU64,
    disconnects: AtomicU64,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

/// Sockets poll at this interval so shutdown is prompt.
const POLL: Duration = Duration::from_millis(20);

/// How long a delayed response is held.
const DELAY: Duration = Duration::from_millis(5);

/// A v2-aware TCP proxy that reorders, delays, and drops **response**
/// frames on a pipelined connection according to a [`PipePlan`].
/// Requests (and the HELLO negotiation) pass through verbatim.
#[derive(Debug)]
pub struct PipelinedProxy {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl PipelinedProxy {
    /// Binds an ephemeral local port and starts proxying to `upstream`.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn spawn(upstream: SocketAddr, plan: PipePlan) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            plan: Mutex::new(plan),
            stop: AtomicBool::new(false),
            forwarded: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            reordered: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
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

    /// A snapshot of what has been done to responses so far.
    #[must_use]
    pub fn counts(&self) -> PipeCounts {
        PipeCounts {
            forwarded: self.shared.forwarded.load(Ordering::SeqCst),
            delayed: self.shared.delayed.load(Ordering::SeqCst),
            reordered: self.shared.reordered.load(Ordering::SeqCst),
            disconnects: self.shared.disconnects.load(Ordering::SeqCst),
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

impl Drop for PipelinedProxy {
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

fn proxy_connection(
    client: TcpStream,
    upstream: SocketAddr,
    shared: &Arc<Shared>,
) -> std::io::Result<()> {
    let server = TcpStream::connect(upstream)?;
    for s in [&client, &server] {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(POLL))?;
        s.set_write_timeout(Some(Duration::from_secs(5)))?;
    }
    // The HELLO exchange passes through untouched, as id-less frames.
    let (mut client_r, mut server_r) = (client.try_clone()?, server.try_clone()?);
    let (mut client_w, mut server_w) = (client.try_clone()?, server.try_clone()?);
    let Some(hello) = read_frame_verbatim(&mut client_r, FRAME_HEADER_LEN, &shared.stop)? else {
        return Ok(());
    };
    server_w.write_all(&hello)?;
    server_w.flush()?;
    let Some(ack) = read_frame_verbatim(&mut server_r, FRAME_HEADER_LEN, &shared.stop)? else {
        return Ok(());
    };
    client_w.write_all(&ack)?;
    client_w.flush()?;

    // Requests pipe verbatim in their own thread; responses run the
    // fault gauntlet here. Either side ending severs both sockets so the
    // other direction unblocks promptly.
    let up = {
        let shared = Arc::clone(shared);
        let (client, server) = (client.try_clone()?, server.try_clone()?);
        std::thread::spawn(move || {
            let _ = pipe_requests(&mut client_r, &mut server_w, &shared);
            sever(&client, &server);
        })
    };
    let _ = fault_responses(&mut server_r, &mut client_w, shared);
    sever(&client, &server);
    let _ = up.join();
    Ok(())
}

fn sever(client: &TcpStream, server: &TcpStream) {
    let _ = client.shutdown(Shutdown::Both);
    let _ = server.shutdown(Shutdown::Both);
}

fn pipe_requests(from: &mut TcpStream, to: &mut TcpStream, shared: &Shared) -> std::io::Result<()> {
    while let Some(frame) = read_frame_verbatim(from, FRAME_V2_HEADER_LEN, &shared.stop)? {
        to.write_all(&frame)?;
        to.flush()?;
    }
    Ok(())
}

fn fault_responses(
    from: &mut TcpStream,
    to: &mut TcpStream,
    shared: &Shared,
) -> std::io::Result<()> {
    // At most one response is held back at a time; delivering any later
    // response first makes the held one a reorder.
    let mut held: Option<Vec<u8>> = None;
    loop {
        let Some(frame) = read_frame_verbatim(from, FRAME_V2_HEADER_LEN, &shared.stop)? else {
            // Upstream closed; flush a held frame rather than lose it to
            // a fault that was only supposed to reorder.
            if let Some(h) = held.take() {
                shared.reordered.fetch_add(1, Ordering::SeqCst);
                to.write_all(&h)?;
                to.flush()?;
            }
            return Ok(());
        };
        let fault = {
            let mut plan = shared.plan.lock().unwrap_or_else(|p| p.into_inner());
            match plan.next_fault() {
                // Holding two frames would deadlock a depth-2 pipeline;
                // cap at one.
                ResponseFault::Hold if held.is_some() => ResponseFault::Forward,
                f => f,
            }
        };
        match fault {
            ResponseFault::Hold => {
                held = Some(frame);
                continue;
            }
            ResponseFault::Disconnect => {
                shared.disconnects.fetch_add(1, Ordering::SeqCst);
                return Ok(()); // caller severs both sockets
            }
            ResponseFault::Delay => {
                shared.delayed.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(DELAY);
            }
            ResponseFault::Forward => {
                shared.forwarded.fetch_add(1, Ordering::SeqCst);
            }
        }
        to.write_all(&frame)?;
        to.flush()?;
        if let Some(h) = held.take() {
            shared.reordered.fetch_add(1, Ordering::SeqCst);
            to.write_all(&h)?;
            to.flush()?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let mut a = PipePlan::new(9);
        let mut b = PipePlan::new(9);
        let seq_a: Vec<ResponseFault> = (0..64).map(|_| a.next_fault()).collect();
        let seq_b: Vec<ResponseFault> = (0..64).map(|_| b.next_fault()).collect();
        assert_eq!(seq_a, seq_b);
        let mut c = PipePlan::new(10);
        assert_ne!(seq_a, (0..64).map(|_| c.next_fault()).collect::<Vec<_>>());
    }

    #[test]
    fn rate_zero_is_transparent_rate_hundred_always_faults() {
        let mut silent = PipePlan::with_rate(1, 0);
        assert!((0..128).all(|_| silent.next_fault() == ResponseFault::Forward));
        let mut loud = PipePlan::with_rate(2, 100);
        assert!((0..128).all(|_| loud.next_fault() != ResponseFault::Forward));
    }
}
