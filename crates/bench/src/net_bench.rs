//! End-to-end RPC throughput over localhost, exported as `BENCH_net.json`.
//!
//! Boots a real [`sp_net::SpService`] daemon on an ephemeral port and
//! drives the three hottest serving-path RPCs — `Verify`,
//! `DisplayPuzzle`, and `AnswerPuzzleBatch` — through the pipelined
//! client at a sweep of depths, depth 1 (one request in flight: what
//! `SpClient::connect` builds) being the baseline. The workload follows
//! the paper's §VIII parameters (50-character questions, 20-character
//! answers, threshold `k = 1`).
//!
//! The interesting comparison is `verify` at depth 16 against depth 1:
//! pipelining must recover the per-request round-trip latency
//! (head-of-line blocking) that one request at a time pays, while the
//! daemon's connection thread answers each arriving burst as one batch.
//!
//! Raw loopback has a ~20µs round trip — three orders of magnitude
//! below the network delays the paper measures (§VIII plots tens of
//! milliseconds of network delay per operation) — so every depth runs
//! through an in-process **delay link**: a byte-level TCP proxy
//! that forwards traffic verbatim but ships every chunk
//! [`NetBenchConfig::link_delay`] later. That is pure added latency
//! (any amount of data may be in flight), exactly what a WAN adds and
//! exactly what a serialized request/response client cannot hide.
//!
//! The report also carries the **cluster scaling sweep**: the same depth-64
//! `Verify` workload driven through a routed [`ClusterClient`] against
//! 1, 2, and 3 sharded SP daemons behind a consistent-hash ring, each
//! node fronted by its own delay link and reached over a small fixed
//! pipelined window — the per-node ceiling is the connection's
//! bandwidth-delay product, so added nodes add pipes. The committed
//! full report must show ≥ [`CLUSTER_SCALING_FLOOR`]× aggregate
//! throughput at 3 nodes.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use social_puzzles_core::construction1::{Construction1, PuzzleResponse};
use sp_net::{
    ClientConfig, ClusterClient, Daemon, DaemonConfig, HashRing, PipelineConfig, Service, SpClient,
    SpService, DEFAULT_VNODES,
};
use sp_osn::{ProviderApi, PuzzleId, ServiceProvider, Url, UserId};

use crate::workload::{paper_context, PAPER_K};

/// Schema tag written into (and required from) `BENCH_net.json`. v2
/// added client-observed latency percentiles on every entry; v3 added
/// the cluster scaling sweep (aggregate depth-64 `Verify` throughput at
/// 1/2/3 sharded nodes); v4 dropped the sequential-client `mode` and
/// measures every speedup against the op's depth-1 row; v5 dropped
/// `compute_threads` and the cluster's `workers_per_node`, since the
/// daemon runs every request on its connection's thread.
pub const NET_BENCH_SCHEMA: &str = "sp-bench/net/v5";

/// Aggregate 3-node throughput must reach this multiple of the 1-node
/// figure in a full (non-quick) report — the scale-out floor
/// `--check-bench-net-json` enforces on the committed document.
pub const CLUSTER_SCALING_FLOOR: f64 = 2.5;

/// The RPCs every report must cover.
pub const NET_BENCH_OPS: [&str; 3] = ["verify", "display_puzzle", "answer_puzzle_batch"];

/// Sweep and sampling knobs for the serving-path comparison.
#[derive(Clone, Debug)]
pub struct NetBenchConfig {
    /// Pipeline depths to sweep; 1, the baseline every speedup is
    /// measured against, must be among them.
    pub depths: Vec<usize>,
    /// Answer-sets per `AnswerPuzzleBatch` frame.
    pub batch: usize,
    /// Context size N for the benchmark puzzle.
    pub n: usize,
    /// One-way latency the delay link adds to every chunk (so the round
    /// trip costs twice this). Zero disables the link entirely.
    pub link_delay: Duration,
    /// Minimum wall time per measurement.
    pub min_time: Duration,
    /// Minimum completed requests per measurement.
    pub min_ops: u64,
    /// Node counts for the cluster scaling sweep (empty disables it).
    pub cluster_nodes: Vec<usize>,
    /// Client threads driving the routed cluster closed loop.
    pub cluster_depth: usize,
    /// Pipelined in-flight window per node connection. Together with
    /// the delay link this sets the per-node ceiling at roughly
    /// `window / RTT` (the connection's bandwidth-delay product), so
    /// the sweep measures scale-out of per-node pipes rather than raw
    /// host CPU — and stays meaningful on a single-core CI box, where
    /// N daemons can never show true compute parallelism.
    pub cluster_window: usize,
    /// Pre-published puzzles the cluster sweep's `Verify` traffic is
    /// spread over (their ring keys scatter the load across nodes).
    pub cluster_puzzles: usize,
    /// Whether this is the reduced CI sweep.
    pub quick: bool,
}

impl Default for NetBenchConfig {
    fn default() -> Self {
        Self {
            depths: vec![1, 4, 16, 64],
            batch: 8,
            n: 5,
            link_delay: Duration::from_millis(1),
            min_time: Duration::from_millis(400),
            min_ops: 50,
            cluster_nodes: vec![1, 2, 3],
            cluster_depth: 64,
            cluster_window: 4,
            cluster_puzzles: 48,
            quick: false,
        }
    }
}

impl NetBenchConfig {
    /// Reduced sweep for CI smoke runs: two depths, short sampling
    /// windows, two cluster tiers. Numbers are noisy but the schema and
    /// the direction of the depth-16 speedup are still meaningful.
    pub fn quick() -> Self {
        Self {
            depths: vec![1, 16],
            min_time: Duration::from_millis(60),
            min_ops: 10,
            cluster_nodes: vec![1, 3],
            cluster_puzzles: 12,
            quick: true,
            ..Self::default()
        }
    }
}

/// One (operation, depth) measurement.
#[derive(Clone, Debug)]
pub struct NetBenchEntry {
    /// RPC name (one of [`NET_BENCH_OPS`]).
    pub op: &'static str,
    /// Requests in flight on the one socket.
    pub depth: usize,
    /// Completed requests per second, over one socket.
    pub ops_per_s: f64,
    /// Median client-observed latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile client-observed latency, milliseconds.
    pub p99_ms: f64,
}

/// One tier of the cluster scaling sweep: aggregate `Verify` throughput
/// through a routed [`ClusterClient`] over `nodes` sharded SP daemons,
/// each reached over one connection (so one serving thread per node).
#[derive(Clone, Debug)]
pub struct ClusterScaleEntry {
    /// Cluster members behind the consistent-hash ring.
    pub nodes: usize,
    /// Concurrent client threads driving the routed closed loop.
    pub depth: usize,
    /// Completed `Verify` requests per second, aggregated over the
    /// whole cluster.
    pub ops_per_s: f64,
    /// Median client-observed latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile client-observed latency, milliseconds.
    pub p99_ms: f64,
}

/// A full sweep, ready to serialize.
#[derive(Clone, Debug)]
pub struct NetBenchReport {
    /// Whether the reduced CI sweep produced this report.
    pub quick: bool,
    /// One-way delay-link latency in milliseconds (0 = raw loopback).
    pub link_delay_ms: f64,
    /// All measurements, grouped by operation then depth.
    pub entries: Vec<NetBenchEntry>,
    /// The cluster scaling tiers, in sweep order.
    pub cluster: Vec<ClusterScaleEntry>,
    /// Per-node pipelined window the cluster sweep ran with.
    pub cluster_window: usize,
}

impl NetBenchReport {
    /// The entry for one (op, depth), if measured.
    pub fn entry(&self, op: &str, depth: usize) -> Option<&NetBenchEntry> {
        self.entries.iter().find(|e| e.op == op && e.depth == depth)
    }

    /// Throughput of `entry` relative to the op's depth-1 row.
    pub fn speedup_vs_depth1(&self, entry: &NetBenchEntry) -> f64 {
        match self.entry(entry.op, 1) {
            Some(base) if base.ops_per_s > 0.0 => entry.ops_per_s / base.ops_per_s,
            _ => 0.0,
        }
    }

    /// Throughput of a cluster tier relative to the 1-node tier.
    pub fn speedup_vs_1node(&self, entry: &ClusterScaleEntry) -> f64 {
        match self.cluster.iter().find(|e| e.nodes == 1) {
            Some(base) if base.ops_per_s > 0.0 => entry.ops_per_s / base.ops_per_s,
            _ => 0.0,
        }
    }
}

/// A byte-level TCP proxy that adds pure latency: every chunk read is
/// written out [`DelayLink::delay`] later, with any amount of data in
/// flight. Framing-agnostic: every byte pays the same toll.
struct DelayLink {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl DelayLink {
    fn spawn(upstream: SocketAddr, delay: Duration) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind delay link");
        let addr = listener.local_addr().expect("local addr");
        listener.set_nonblocking(true).expect("nonblocking");
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((client, _)) => link_connection(client, upstream, delay),
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })
        };
        Self { addr, stop, acceptor: Some(acceptor) }
    }
}

impl Drop for DelayLink {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
    }
}

/// Wires one proxied connection: each direction is a reader thread
/// stamping chunks with their due time and a writer thread releasing
/// them on schedule. Threads exit on EOF/error and die with the process
/// otherwise; the bench closes every socket when it finishes.
fn link_connection(client: TcpStream, upstream: SocketAddr, delay: Duration) {
    let Ok(server) = TcpStream::connect(upstream) else { return };
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    for (from, to) in
        [(client.try_clone(), server.try_clone()), (server.try_clone(), client.try_clone())]
    {
        let (Ok(mut from), Ok(mut to)) = (from, to) else { return };
        let (tx, rx) = mpsc::channel::<(Instant, Vec<u8>)>();
        std::thread::spawn(move || {
            let mut buf = [0u8; 16 * 1024];
            loop {
                match from.read(&mut buf) {
                    Ok(0) | Err(_) => return, // dropping tx ends the writer
                    Ok(n) => {
                        if tx.send((Instant::now() + delay, buf[..n].to_vec())).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        std::thread::spawn(move || {
            while let Ok((due, chunk)) = rx.recv() {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                if to.write_all(&chunk).and_then(|()| to.flush()).is_err() {
                    return;
                }
            }
            // Reader saw EOF: propagate the close downstream.
            let _ = to.shutdown(Shutdown::Both);
        });
    }
}

/// Everything a measurement loop needs: a live daemon, the delay link
/// in front of it, and a valid puzzle + response.
struct Rig {
    daemon: Daemon,
    link: Option<DelayLink>,
    puzzle: PuzzleId,
    response: PuzzleResponse,
}

impl Rig {
    /// The address clients should dial: the delay link if one is up.
    fn addr(&self) -> SocketAddr {
        self.link.as_ref().map_or_else(|| self.daemon.addr(), |l| l.addr)
    }

    fn boot(cfg: &NetBenchConfig) -> Self {
        let service = SpService::new(ServiceProvider::new(), Construction1::new());
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(service), DaemonConfig::default())
            .expect("bind ephemeral port");

        // Publish one paper-shaped puzzle and solve it once; every
        // measured Verify replays this known-good response.
        let c1 = Construction1::new();
        let mut rng = StdRng::seed_from_u64(2014);
        let ctx = paper_context(cfg.n, &mut rng);
        let upload = c1
            .upload_to(b"bench object", &ctx, PAPER_K, Url::from("dh://bench/0"), None, &mut rng)
            .expect("upload");
        // Setup talks straight to the daemon — only measurements pay
        // the link toll.
        let setup = SpClient::connect(daemon.addr(), client_cfg());
        let puzzle = setup.publish_puzzle(Bytes::from(upload.puzzle.to_bytes())).expect("publish");
        let displayed = setup.display_puzzle(puzzle).expect("display");
        let answers = displayed.answer(|q| ctx.answer_for(q).map(str::to_owned));
        let response = c1.answer_puzzle(&displayed, &answers);

        let link =
            (!cfg.link_delay.is_zero()).then(|| DelayLink::spawn(daemon.addr(), cfg.link_delay));
        Self { daemon, link, puzzle, response }
    }
}

fn client_cfg() -> ClientConfig {
    ClientConfig {
        // Generous deadline: a depth-64 pipeline on a loaded CI host can
        // queue a request well past the 10 s default.
        read_timeout: Duration::from_secs(60),
        backoff: Duration::from_millis(5),
        ..ClientConfig::default()
    }
}

/// Throughput plus client-observed latency percentiles for one
/// measurement window.
struct Measure {
    ops_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Runs `op` from `threads` concurrent workers sharing one client until
/// the time and count floors are met; every request is individually
/// timed at the caller, so the percentiles include queueing behind the
/// pipeline and the link toll — what a user of the socket experiences.
fn throughput(
    threads: usize,
    min_time: Duration,
    min_ops: u64,
    op: impl Fn(usize) + Sync,
) -> Measure {
    let done = AtomicU64::new(0);
    let lat = Mutex::new(Vec::<Duration>::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (done, lat, op) = (&done, &lat, &op);
            s.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let t0 = Instant::now();
                    op(t);
                    mine.push(t0.elapsed());
                    let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if start.elapsed() >= min_time && n >= min_ops {
                        break;
                    }
                }
                lat.lock().expect("latency sink").extend(mine);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut lat = lat.into_inner().expect("latency sink");
    lat.sort_unstable();
    let pct = |p: f64| match lat.len() {
        0 => 0.0,
        n => lat[((n - 1) as f64 * p / 100.0).round() as usize].as_secs_f64() * 1e3,
    };
    Measure {
        ops_per_s: done.load(Ordering::Relaxed) as f64 / elapsed.max(1e-9),
        p50_ms: pct(50.0),
        p99_ms: pct(99.0),
    }
}

/// One cluster-sweep member: daemon, its delay link, and the service
/// handle used to install the ring.
struct ClusterMember {
    daemon: Daemon,
    link: Option<DelayLink>,
    service: Arc<SpService<ServiceProvider>>,
}

impl ClusterMember {
    /// The address this member advertises in the ring: the delay link
    /// if one is up, so routed traffic pays the toll.
    fn advertise(&self) -> SocketAddr {
        self.link.as_ref().map_or_else(|| self.daemon.addr(), |l| l.addr)
    }
}

/// The cluster scaling sweep: for each node count, boots that many
/// clustered SP daemons behind a shared consistent-hash ring — each
/// fronted by its own delay link — pre-publishes
/// [`NetBenchConfig::cluster_puzzles`] paper-shaped puzzles whose ring
/// keys scatter them across the members, then drives depth-many
/// concurrent `Verify` threads through a routed [`ClusterClient`]
/// holding a [`NetBenchConfig::cluster_window`]-deep pipelined
/// connection per node. The per-node ceiling is that connection's
/// bandwidth-delay product (`window / RTT`), so every added node adds
/// its own pipe and the aggregate scales near-linearly — the
/// `speedup_vs_1node` column — independent of how many host cores the
/// daemons happen to share.
fn cluster_sweep(cfg: &NetBenchConfig) -> Vec<ClusterScaleEntry> {
    let depth = cfg.cluster_depth.max(1);
    let window = cfg.cluster_window.max(1);
    let mut entries = Vec::new();
    for &nodes in &cfg.cluster_nodes {
        let members: Vec<ClusterMember> = (0..nodes.max(1))
            .map(|_| {
                let service =
                    Arc::new(SpService::new(ServiceProvider::new(), Construction1::new()));
                let daemon = Daemon::spawn(
                    "127.0.0.1:0",
                    Arc::clone(&service) as Arc<dyn Service>,
                    DaemonConfig::default(),
                )
                .expect("bind cluster member");
                let link = (!cfg.link_delay.is_zero())
                    .then(|| DelayLink::spawn(daemon.addr(), cfg.link_delay));
                ClusterMember { daemon, link, service }
            })
            .collect();
        let ring = HashRing::new(
            1,
            members.iter().map(ClusterMember::advertise).collect(),
            DEFAULT_VNODES,
        );
        for m in &members {
            m.service.enable_cluster(m.advertise(), ring.clone());
        }
        let client =
            ClusterClient::connect(ring, PipelineConfig { depth: window, client: client_cfg() });

        // One paper-shaped puzzle record, published under many URLs:
        // distinct ring keys spread ownership over the members while the
        // known-good response stays cheap to prepare.
        let c1 = Construction1::new();
        let mut rng = StdRng::seed_from_u64(2014);
        let ctx = paper_context(cfg.n, &mut rng);
        let upload = c1
            .upload_to(b"bench object", &ctx, PAPER_K, Url::from("dh://bench/0"), None, &mut rng)
            .expect("upload");
        let record = Bytes::from(upload.puzzle.to_bytes());
        let work: Vec<(PuzzleId, PuzzleResponse)> = (0..cfg.cluster_puzzles.max(1))
            .map(|i| {
                let url = Url::from(format!("dh://bench/cluster/{i}").as_str());
                let id = client.publish(&url, record.clone()).expect("routed publish");
                let displayed = client.display_puzzle(id).expect("routed display");
                let answers = displayed.answer(|q| ctx.answer_for(q).map(str::to_owned));
                (id, c1.answer_puzzle(&displayed, &answers))
            })
            .collect();

        let m = throughput(depth, cfg.min_time, cfg.min_ops, |t| {
            let (id, response) = &work[t % work.len()];
            client.verify(UserId::from_raw(t as u64), *id, response).expect("cluster verify");
        });
        entries.push(ClusterScaleEntry {
            nodes: nodes.max(1),
            depth,
            ops_per_s: m.ops_per_s,
            p50_ms: m.p50_ms,
            p99_ms: m.p99_ms,
        });
        drop(client);
        for member in members {
            drop(member.link);
            member.daemon.shutdown();
        }
    }
    entries
}

/// Runs the full serving-path sweep against a freshly booted daemon.
pub fn run(cfg: &NetBenchConfig) -> NetBenchReport {
    let rig = Rig::boot(cfg);
    let batch: Vec<PuzzleResponse> = vec![rig.response.clone(); cfg.batch.max(1)];
    let mut entries = Vec::new();

    // `depth` requests in flight per socket; depth 1 is the baseline.
    for &depth in &cfg.depths {
        let client =
            SpClient::connect_pipelined(rig.addr(), PipelineConfig { depth, client: client_cfg() });
        entries.extend(measure_ops(cfg, &rig, &client, &batch, depth));
    }

    let link_delay_ms = cfg.link_delay.as_secs_f64() * 1e3;
    drop(rig.link);
    rig.daemon.shutdown();

    let cluster = cluster_sweep(cfg);
    NetBenchReport {
        quick: cfg.quick,
        link_delay_ms,
        entries,
        cluster,
        cluster_window: cfg.cluster_window.max(1),
    }
}

/// Measures all three RPCs through one client at one concurrency level.
fn measure_ops(
    cfg: &NetBenchConfig,
    rig: &Rig,
    client: &SpClient,
    batch: &[PuzzleResponse],
    depth: usize,
) -> Vec<NetBenchEntry> {
    let threads = depth.max(1);
    let verify = throughput(threads, cfg.min_time, cfg.min_ops, |t| {
        client.verify(UserId::from_raw(t as u64), rig.puzzle, &rig.response).expect("verify");
    });
    let display = throughput(threads, cfg.min_time, cfg.min_ops, |_| {
        client.display_puzzle(rig.puzzle).expect("display");
    });
    let answer_batch = throughput(threads, cfg.min_time, cfg.min_ops, |t| {
        client
            .answer_puzzle_batch(UserId::from_raw(t as u64), rig.puzzle, batch)
            .expect("answer batch");
    });
    let entry = |op, m: Measure| NetBenchEntry {
        op,
        depth,
        ops_per_s: m.ops_per_s,
        p50_ms: m.p50_ms,
        p99_ms: m.p99_ms,
    };
    vec![
        entry("verify", verify),
        entry("display_puzzle", display),
        entry("answer_puzzle_batch", answer_batch),
    ]
}

/// Serializes a report to the `BENCH_net.json` document.
pub fn to_json(report: &NetBenchReport) -> String {
    fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v:.3}")
        } else {
            "0.000".to_owned()
        }
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{NET_BENCH_SCHEMA}\",\n"));
    out.push_str(&format!("  \"quick\": {},\n", report.quick));
    out.push_str(&format!("  \"link_delay_ms\": {},\n", num(report.link_delay_ms)));
    out.push_str("  \"entries\": [\n");
    for (i, e) in report.entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"depth\": {}, \"ops_per_s\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \"speedup_vs_depth1\": {}}}{}\n",
            e.op,
            e.depth,
            num(e.ops_per_s),
            num(e.p50_ms),
            num(e.p99_ms),
            num(report.speedup_vs_depth1(e)),
            if i + 1 == report.entries.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"cluster\": {\n");
    out.push_str(&format!("    \"window_per_node\": {},\n", report.cluster_window));
    out.push_str("    \"entries\": [\n");
    for (i, e) in report.cluster.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"nodes\": {}, \"depth\": {}, \"ops_per_s\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \"speedup_vs_1node\": {}}}{}\n",
            e.nodes,
            e.depth,
            num(e.ops_per_s),
            num(e.p50_ms),
            num(e.p99_ms),
            num(report.speedup_vs_1node(e)),
            if i + 1 == report.cluster.len() { "" } else { "," },
        ));
    }
    out.push_str("    ]\n  }\n}\n");
    out
}

/// Renders the report as the human-readable table the `figures` binary
/// prints alongside the JSON.
pub fn render(report: &NetBenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "serving path over a {:.1}ms-each-way link: requests/s per socket\n",
        report.link_delay_ms
    ));
    out.push_str(&format!(
        "{:<20} {:>6} {:>12} {:>9} {:>9} {:>12}\n",
        "op", "depth", "req/s", "p50 ms", "p99 ms", "vs depth 1"
    ));
    for e in &report.entries {
        out.push_str(&format!(
            "{:<20} {:>6} {:>12.1} {:>9.2} {:>9.2} {:>11.2}x\n",
            e.op,
            e.depth,
            e.ops_per_s,
            e.p50_ms,
            e.p99_ms,
            report.speedup_vs_depth1(e)
        ));
    }
    if !report.cluster.is_empty() {
        out.push_str(&format!(
            "\ncluster scaling: aggregate verify through a routed client, window {} per node \
             over the delay link\n",
            report.cluster_window
        ));
        out.push_str(&format!(
            "{:<6} {:>6} {:>12} {:>9} {:>9} {:>12}\n",
            "nodes", "depth", "req/s", "p50 ms", "p99 ms", "vs 1 node"
        ));
        for e in &report.cluster {
            out.push_str(&format!(
                "{:<6} {:>6} {:>12.1} {:>9.2} {:>9.2} {:>11.2}x\n",
                e.nodes,
                e.depth,
                e.ops_per_s,
                e.p50_ms,
                e.p99_ms,
                report.speedup_vs_1node(e)
            ));
        }
    }
    out
}

/// Validates a `BENCH_net.json` document: syntactically well-formed
/// JSON, the right schema tag, a depth-1 baseline row for every RPC,
/// all fields (latency percentiles included), and the cluster scaling
/// section.
/// Full (non-quick) reports must additionally show a 3-node tier
/// reaching [`CLUSTER_SCALING_FLOOR`] over the 1-node tier. Returns a
/// description of the first problem.
pub fn validate_json(doc: &str) -> Result<(), String> {
    crate::json_check::check_syntax(doc)?;
    if !doc.contains(&format!("\"schema\": \"{NET_BENCH_SCHEMA}\"")) {
        return Err(format!("missing schema tag {NET_BENCH_SCHEMA:?}"));
    }
    if !doc.contains("\"entries\": [") {
        return Err("missing entries array".into());
    }
    for op in NET_BENCH_OPS {
        if !doc.contains(&format!("\"op\": \"{op}\", \"depth\": 1,")) {
            return Err(format!("no depth-1 baseline row for RPC {op:?}"));
        }
    }
    for field in [
        "\"link_delay_ms\":",
        "\"depth\":",
        "\"ops_per_s\":",
        "\"p50_ms\":",
        "\"p99_ms\":",
        "\"speedup_vs_depth1\":",
    ] {
        if !doc.contains(field) {
            return Err(format!("missing the {field} field"));
        }
    }
    if !doc.contains("\"cluster\":") || !doc.contains("\"nodes\": 1") {
        return Err("missing the cluster sweep (needs at least the 1-node tier)".into());
    }
    if !doc.contains("\"speedup_vs_1node\":") {
        return Err("missing the speedup_vs_1node field".into());
    }
    // Full runs are the committed acceptance numbers: the 3-node tier
    // must exist and actually scale.
    if doc.contains("\"quick\": false") {
        let speedup =
            cluster_speedup(doc, 3).ok_or("full report lacks a parseable 3-node cluster tier")?;
        if speedup < CLUSTER_SCALING_FLOOR {
            return Err(format!(
                "3-node cluster speedup {speedup:.2}x is below the {CLUSTER_SCALING_FLOOR}x floor"
            ));
        }
    }
    Ok(())
}

/// Extracts `speedup_vs_1node` from the cluster tier for `nodes`, if
/// the document has one.
fn cluster_speedup(doc: &str, nodes: usize) -> Option<f64> {
    let row = doc.lines().find(|l| l.contains(&format!("\"nodes\": {nodes},")))?;
    let rest = row.split("\"speedup_vs_1node\":").nth(1)?;
    rest.trim().trim_end_matches(['}', ',', ' ']).trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> NetBenchConfig {
        NetBenchConfig {
            depths: vec![1, 4],
            batch: 2,
            n: 2,
            link_delay: Duration::ZERO,
            min_time: Duration::from_millis(10),
            min_ops: 2,
            cluster_nodes: vec![1, 2],
            cluster_depth: 4,
            cluster_window: 2,
            cluster_puzzles: 3,
            quick: true,
        }
    }

    #[test]
    fn report_covers_every_rpc_at_every_depth_and_validates() {
        let report = run(&tiny());
        for op in NET_BENCH_OPS {
            for &d in &[1usize, 4] {
                let e = report.entry(op, d).unwrap_or_else(|| panic!("{op}@{d}"));
                assert!(e.ops_per_s > 0.0);
                assert!(e.p50_ms > 0.0 && e.p99_ms >= e.p50_ms, "bogus percentiles: {e:?}");
            }
        }
        assert_eq!(report.cluster.len(), 2, "two cluster tiers configured");
        for tier in &report.cluster {
            assert!(tier.ops_per_s > 0.0, "bogus cluster tier: {tier:?}");
        }
        assert!(
            (report.speedup_vs_1node(&report.cluster[0]) - 1.0).abs() < 1e-9,
            "the 1-node tier is its own baseline"
        );
        let json = to_json(&report);
        validate_json(&json).expect("emitted document validates");
        let table = render(&report);
        assert!(table.contains("verify") && table.contains("vs depth 1"));
    }

    #[test]
    fn pipelining_beats_depth_one_over_a_delayed_link() {
        // With a 1ms-each-way link one request in flight is RTT-bound at
        // ~500 req/s while a depth-4 pipeline keeps 4 requests in
        // flight; even on a loaded CI box a 1.5x margin is conservative
        // (the ideal is ~4x).
        let cfg = NetBenchConfig {
            depths: vec![1, 4],
            link_delay: Duration::from_millis(1),
            min_time: Duration::from_millis(120),
            min_ops: 8,
            ..tiny()
        };
        let report = run(&cfg);
        let base = report.entry("verify", 1).expect("baseline").ops_per_s;
        let piped = report.entry("verify", 4).expect("pipelined").ops_per_s;
        assert!(
            piped > base * 1.5,
            "depth-4 pipelining over a delayed link only reached {piped:.0} vs {base:.0} req/s"
        );
    }

    fn entry(op: &'static str, depth: usize, ops: f64) -> NetBenchEntry {
        NetBenchEntry { op, depth, ops_per_s: ops, p50_ms: 2.0, p99_ms: 6.0 }
    }

    #[test]
    fn validator_rejects_mangled_documents() {
        let report = NetBenchReport {
            quick: true,
            link_delay_ms: 1.0,
            entries: vec![
                entry("verify", 1, 10.0),
                entry("verify", 16, 40.0),
                entry("display_puzzle", 1, 10.0),
                entry("display_puzzle", 16, 40.0),
                entry("answer_puzzle_batch", 1, 5.0),
                entry("answer_puzzle_batch", 16, 20.0),
            ],
            cluster: cluster_tiers(3.1),
            cluster_window: 4,
        };
        let json = to_json(&report);
        validate_json(&json).unwrap();
        assert!(validate_json(&json[..json.len() - 4]).is_err(), "truncated");
        assert!(validate_json(&json.replace("net/v5", "net/v9")).is_err(), "wrong schema");
        assert!(validate_json(&json.replace("\"verify\"", "\"vrfy\"")).is_err(), "missing op");
        assert!(
            validate_json(&json.replace("\"depth\": 1,", "\"depth\": 2,")).is_err(),
            "missing depth-1 baseline"
        );
        assert!(
            validate_json(&json.replace("\"p99_ms\"", "\"p98_ms\"")).is_err(),
            "missing percentile column"
        );
        assert!(
            validate_json(&json.replace("\"speedup_vs_1node\"", "\"x\"")).is_err(),
            "missing cluster speedup column"
        );
        assert!(validate_json("not json").is_err());
    }

    fn cluster_tiers(three_node_ops: f64) -> Vec<ClusterScaleEntry> {
        [1.0, three_node_ops]
            .iter()
            .zip([1usize, 3])
            .map(|(&ops, nodes)| ClusterScaleEntry {
                nodes,
                depth: 64,
                ops_per_s: 100.0 * ops,
                p50_ms: 3.0,
                p99_ms: 9.0,
            })
            .collect()
    }

    #[test]
    fn full_reports_must_meet_the_cluster_scaling_floor() {
        let mut report = NetBenchReport {
            quick: false,
            link_delay_ms: 1.0,
            entries: vec![
                entry("verify", 1, 10.0),
                entry("verify", 64, 40.0),
                entry("display_puzzle", 1, 10.0),
                entry("display_puzzle", 64, 40.0),
                entry("answer_puzzle_batch", 1, 5.0),
                entry("answer_puzzle_batch", 64, 20.0),
            ],
            cluster: cluster_tiers(2.8),
            cluster_window: 4,
        };
        validate_json(&to_json(&report)).expect("2.8x clears the 2.5x floor");

        report.cluster = cluster_tiers(1.4);
        let err = validate_json(&to_json(&report)).unwrap_err();
        assert!(err.contains("below"), "floor violation must name the ratio: {err}");

        // A quick run with the same weak scaling still validates — the
        // floor binds only the committed full report.
        report.quick = true;
        validate_json(&to_json(&report)).expect("quick reports are exempt from the floor");

        // A full report with no 3-node tier at all is rejected.
        report.quick = false;
        report.cluster.truncate(1);
        assert!(validate_json(&to_json(&report)).is_err(), "full report needs the 3-node tier");
    }

    #[test]
    fn speedup_is_relative_to_the_depth1_row() {
        let report = NetBenchReport {
            quick: true,
            link_delay_ms: 1.0,
            entries: vec![entry("verify", 1, 10.0), entry("verify", 16, 35.0)],
            cluster: Vec::new(),
            cluster_window: 4,
        };
        let e = report.entry("verify", 16).unwrap();
        assert!((report.speedup_vs_depth1(e) - 3.5).abs() < 1e-12);
        // No baseline → 0, not a panic or a bogus ratio.
        let orphan = entry("display_puzzle", 4, 9.0);
        assert_eq!(report.speedup_vs_depth1(&orphan), 0.0);
    }
}
