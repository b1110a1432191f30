//! Regression coverage for pipelined clients against a daemon serving a
//! burst of requests on one connection.
//!
//! Two contracts:
//!
//! 1. Every correlation id sent is answered exactly once, with the
//!    payload sent under that id — answer the wrong id and a pipelined
//!    client fails an innocent request while the other times out and is
//!    replayed forever.
//! 2. A reconnecting pipelined client replays **only unacknowledged**
//!    requests, with their original idempotency tokens, so work stays
//!    at-most-once through mid-pipeline disconnects even while replays
//!    inflate the daemon-side arrival count.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sp_net::frame::{read_frame, read_frame_v2, write_frame, write_frame_v2};
use sp_net::msg::{decode_response, hello_frame, is_hello_ack};
use sp_net::{
    ClientConfig, Daemon, DaemonConfig, DedupService, ErrorCode, PipelineConfig,
    PipelinedConnection, Service,
};
use sp_testkit::{PipePlan, PipelinedProxy, ResponseFault};

/// Sleeps for the request-encoded number of milliseconds, then echoes.
struct SleepyEcho;
impl Service for SleepyEcho {
    fn handle(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
        let ms = request.first().copied().unwrap_or(0);
        std::thread::sleep(Duration::from_millis(u64::from(ms)));
        Ok(request.to_vec())
    }
}

/// Echoes, counting how many times the handler actually ran.
struct CountingEcho {
    applied: Arc<AtomicU64>,
}
impl Service for CountingEcho {
    fn handle(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
        self.applied.fetch_add(1, Ordering::SeqCst);
        Ok(request.to_vec())
    }
}

/// Delegates, counting every request frame that reaches the daemon —
/// replays included, dedup cache hits included.
struct Arrivals<S> {
    inner: S,
    seen: Arc<AtomicU64>,
}
impl<S: Service> Service for Arrivals<S> {
    fn handle(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
        self.seen.fetch_add(1, Ordering::SeqCst);
        self.inner.handle(request)
    }
}

fn base_cfg() -> DaemonConfig {
    DaemonConfig { max_frame: 4096, ..DaemonConfig::default() }
}

#[test]
fn a_pipelined_burst_answers_every_id_once_with_its_own_payload() {
    // 8 pipelined requests, the handler sleeping 10 ms each: every
    // correlation id sent must come back exactly once, carrying the
    // exact payload sent under that id.
    let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(SleepyEcho), base_cfg()).unwrap();
    let mut conn = TcpStream::connect(daemon.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_frame(&mut conn, &hello_frame(), 4096).unwrap();
    let ack = read_frame(&mut conn, 4096).unwrap().unwrap();
    assert!(is_hello_ack(decode_response(&ack).unwrap()));

    let mut sent: HashMap<u64, Vec<u8>> = HashMap::new();
    for i in 0..8u64 {
        let corr = 1000 + i;
        let payload = vec![10, i as u8]; // sleep 10 ms, distinct marker
        write_frame_v2(&mut conn, corr, &payload, 4096).unwrap();
        sent.insert(corr, payload);
    }
    conn.flush().unwrap();

    for _ in 0..8 {
        let (corr, resp) = read_frame_v2(&mut conn, 4096).unwrap().unwrap();
        let payload = sent.remove(&corr).unwrap_or_else(|| {
            panic!("response for corr {corr} that was never sent (or answered twice)")
        });
        assert_eq!(decode_response(&resp).unwrap(), payload, "response crossed correlation ids");
    }
    assert!(sent.is_empty(), "every id answered exactly once");
    daemon.shutdown();
}

#[test]
fn reconnect_replay_is_at_most_once_and_resends_only_unacked() {
    // Disconnect-only fault plan: ~1 response in 5 is dropped with the
    // connection severed mid-pipeline. The client must reconnect and
    // replay only what was never acknowledged; the dedup layer proves
    // nothing ran twice, the arrival counter proves replays actually
    // happened, and the arrival *bound* proves acked requests were not
    // replayed wholesale.
    const CALLS: usize = 40;
    const DEPTH: usize = 8;

    let applied = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(AtomicU64::new(0));
    let service = Arrivals {
        inner: DedupService::new(CountingEcho { applied: Arc::clone(&applied) }),
        seen: Arc::clone(&seen),
    };
    let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(service), base_cfg()).unwrap();
    let plan = PipePlan::with_menu(0x5EED_2014, 20, &[ResponseFault::Disconnect]);
    let proxy = PipelinedProxy::spawn(daemon.addr(), plan).unwrap();

    let client = PipelinedConnection::new(
        proxy.addr(),
        PipelineConfig {
            depth: DEPTH,
            client: ClientConfig {
                read_timeout: Duration::from_millis(750),
                retries: 6,
                backoff: Duration::from_millis(2),
                ..ClientConfig::default()
            },
        },
    );
    let requests: Vec<Vec<u8>> = (0..CALLS).map(|i| format!("req-{i}").into_bytes()).collect();
    let results = client.call_many(&requests);
    for (req, result) in requests.iter().zip(&results) {
        let resp = result.as_ref().expect("call failed after generous retries");
        assert_eq!(resp, req, "echo crossed requests");
    }

    let counts = proxy.counts();
    assert!(counts.disconnects >= 1, "no mid-pipeline disconnect fired: {counts:?}");
    assert_eq!(
        applied.load(Ordering::SeqCst),
        CALLS as u64,
        "a replayed request was applied twice (or lost)"
    );
    let arrivals = seen.load(Ordering::SeqCst);
    assert!(arrivals > CALLS as u64, "disconnects happened but nothing was replayed");
    // Each severed connection can have had at most `depth` requests
    // unacknowledged; a client that replayed acknowledged requests too
    // would blow far past this bound.
    let bound = (CALLS + DEPTH * counts.disconnects as usize) as u64;
    assert!(
        arrivals <= bound,
        "{arrivals} arrivals for {CALLS} calls and {} disconnects (bound {bound}): \
         acknowledged requests were replayed",
        counts.disconnects
    );
    proxy.shutdown();
    daemon.shutdown();
}
