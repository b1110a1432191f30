//! `spuzzle` — command-line social puzzles over local files.
//!
//! Plays all three roles of Construction 1 on the filesystem, so the
//! scheme can be tried without the simulated OSN:
//!
//! ```text
//! spuzzle share --object photo.jpg --out ./shared -k 2 \
//!         --pair "Where was the party?=lakeside cabin" \
//!         --pair "Who hosted?=priya" \
//!         --pair "What did we grill?=corn"
//!
//! spuzzle questions --dir ./shared
//!
//! spuzzle solve --dir ./shared --out recovered.jpg \
//!         --answer "0=lakeside cabin" --answer "1=priya"
//! ```
//!
//! It also runs the real networked deployment (the `sp-net` subsystem):
//!
//! ```text
//! spuzzle serve-sp --addr 127.0.0.1:7741 --shards 16   # service-provider daemon
//! spuzzle serve-dh --addr 127.0.0.1:7742 --shards 16   # data-host daemon
//! spuzzle load --sp 127.0.0.1:7741 --dh 127.0.0.1:7742 \
//!         --threads 4 --requests 100         # closed-loop share+receive cycles
//! spuzzle load --sp 127.0.0.1:7741 --dh 127.0.0.1:7742 \
//!         --mode verify --threads 4 --requests 200 --batch 16
//!                                            # Verify-endpoint throughput
//! spuzzle load --sp 127.0.0.1:7741 --mode verify --pipeline 16 \
//!         --threads 16 --requests 200        # one multiplexed connection,
//!                                            # 16 requests in flight
//! spuzzle serve-sp --addr 127.0.0.1:7741 \
//!         --ring 127.0.0.1:7741,127.0.0.1:7743,127.0.0.1:7745
//!                                            # one member of a 3-node
//!                                            # consistent-hash cluster
//! spuzzle serve-sp --addr 127.0.0.1:7747 --data-dir ./replica --ring standby
//!                                            # promotable standby replica
//! spuzzle serve-sp --addr 127.0.0.1:7741 --data-dir ./primary \
//!         --replicate-to 127.0.0.1:7747 --repl-interval-ms 200
//!                                            # WAL-replicating primary
//! spuzzle load --cluster 127.0.0.1:7741,127.0.0.1:7743,127.0.0.1:7745 \
//!         --threads 8 --requests 200         # routed cluster verify load
//! spuzzle bench-net [--full] [--out BENCH_net.json]
//!                                            # end-to-end serving-path sweep
//! spuzzle bench-store [--full] [--out BENCH_store.json]
//!                                            # WAL append/recovery sweep
//! spuzzle sim --seed 42 --users 1000000      # deterministic OSN simulation:
//!                                            # invariants checked per event,
//!                                            # decision_log_hash=… printed
//! spuzzle bench-sim [--full] [--out BENCH_sim.json]
//!                                            # simulation scaling sweep
//! ```
//!
//! `--shards 1` on the daemons reproduces the single-lock baseline, so
//! the sharding + batching speedup is measurable from the CLI alone;
//! `--data-dir PATH` on the daemons
//! swaps the in-memory store for `sp-store`'s durable backend (WAL +
//! snapshots under `PATH/sp` or `PATH/dh`), replaying any existing log
//! on boot; `--max-connections` caps how many sockets a daemon holds
//! (each costs the one thread that serves it) and `--idle-timeout-ms`
//! sets how long a connection that sends nothing while the daemon waits
//! for its next request keeps its slot.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use social_puzzles::core::construction1::{Construction1, Puzzle};
use social_puzzles::core::context::Context;
use social_puzzles::core::protocol::SocialPuzzleApp;
use social_puzzles::net::{
    parse_ring_spec, ClientConfig, ClusterClient, Daemon, DaemonConfig, DhClient, DhService,
    HashRing, PipelineConfig, Replicator, Service, SpClient, SpService, DEFAULT_VNODES,
};
use social_puzzles::osn::{
    DeviceProfile, ProviderApi, ProviderBackend, ServiceProvider, StorageHost, UserId,
};
use social_puzzles::store::{DurableHost, DurableProvider, StoreConfig};

const PUZZLE_FILE: &str = "puzzle.spz";
const OBJECT_FILE: &str = "object.enc";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("share") => cmd_share(&args[1..]),
        Some("questions") => cmd_questions(&args[1..]),
        Some("solve") => cmd_solve(&args[1..]),
        Some("serve-sp") => cmd_serve(&args[1..], Role::Sp),
        Some("serve-dh") => cmd_serve(&args[1..], Role::Dh),
        Some("load") => cmd_load(&args[1..]),
        Some("bench-crypto") => cmd_bench_crypto(&args[1..]),
        Some("bench-net") => cmd_bench_net(&args[1..]),
        Some("check-bench-net") => cmd_check_bench_net(&args[1..]),
        Some("bench-store") => cmd_bench_store(&args[1..]),
        Some("check-bench-store") => cmd_check_bench_store(&args[1..]),
        Some("sim") => cmd_sim(&args[1..]),
        Some("bench-sim") => cmd_bench_sim(&args[1..]),
        Some("check-bench-sim") => cmd_check_bench_sim(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprintln!(
                "usage: spuzzle \
                 <share|questions|solve|serve-sp|serve-dh|load|bench-crypto|bench-net|check-bench-net|bench-store|check-bench-store|sim|bench-sim|check-bench-sim> \
                 [options]; see --help per command"
            );
            return ExitCode::from(2);
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Pulls the value following `flag` each time it appears.
fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            if let Some(v) = it.next() {
                out.push(v.as_str());
            }
        }
    }
    out
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    flag_values(args, flag).into_iter().next()
}

fn cmd_share(args: &[String]) -> Result<(), String> {
    let object_path = flag_value(args, "--object").ok_or("--object <file> is required")?;
    let out_dir = PathBuf::from(flag_value(args, "--out").ok_or("--out <dir> is required")?);
    let k: usize = flag_value(args, "-k")
        .or(flag_value(args, "--threshold"))
        .ok_or("-k <threshold> is required")?
        .parse()
        .map_err(|_| "threshold must be a number")?;
    let pairs = flag_values(args, "--pair");
    if pairs.is_empty() {
        return Err("at least one --pair \"question=answer\" is required".into());
    }

    let mut builder = Context::builder();
    for p in &pairs {
        let (q, a) = p
            .split_once('=')
            .ok_or_else(|| format!("--pair {p:?} must look like \"question=answer\""))?;
        builder = builder.pair(q.trim(), a.trim());
    }
    let context = builder.normalize_answers().build().map_err(|e| e.to_string())?;

    let object = std::fs::read(object_path).map_err(|e| format!("reading object: {e}"))?;
    let mut rng = StdRng::from_entropy();
    let c1 = Construction1::new();
    let upload = c1.upload(&object, &context, k, &mut rng).map_err(|e| e.to_string())?;

    std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating out dir: {e}"))?;
    std::fs::write(out_dir.join(PUZZLE_FILE), upload.puzzle.to_bytes())
        .map_err(|e| format!("writing puzzle: {e}"))?;
    std::fs::write(out_dir.join(OBJECT_FILE), &upload.encrypted_object)
        .map_err(|e| format!("writing encrypted object: {e}"))?;
    println!(
        "shared: {} pairs, threshold {k}; puzzle + encrypted object written to {}",
        context.len(),
        out_dir.display()
    );
    Ok(())
}

fn load_puzzle(dir: &Path) -> Result<Puzzle, String> {
    let bytes = std::fs::read(dir.join(PUZZLE_FILE))
        .map_err(|e| format!("reading {}: {e}", dir.join(PUZZLE_FILE).display()))?;
    Puzzle::from_bytes(&bytes).map_err(|e| e.to_string())
}

fn cmd_questions(args: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(flag_value(args, "--dir").ok_or("--dir <dir> is required")?);
    let puzzle = load_puzzle(&dir)?;
    println!("{} questions, {} correct answers required:", puzzle.n(), puzzle.k());
    for (i, q) in puzzle.questions().iter().enumerate() {
        println!("  [{i}] {q}");
    }
    Ok(())
}

fn cmd_solve(args: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(flag_value(args, "--dir").ok_or("--dir <dir> is required")?);
    let out = flag_value(args, "--out").ok_or("--out <file> is required")?;
    let puzzle = load_puzzle(&dir)?;
    let encrypted = std::fs::read(dir.join(OBJECT_FILE))
        .map_err(|e| format!("reading encrypted object: {e}"))?;

    let mut answers: Vec<(usize, String)> = Vec::new();
    for a in flag_values(args, "--answer") {
        let (idx, answer) = a
            .split_once('=')
            .ok_or_else(|| format!("--answer {a:?} must look like \"index=answer\""))?;
        let idx: usize = idx.trim().parse().map_err(|_| "answer index must be a number")?;
        answers.push((idx, social_puzzles::core::context::normalize_answer(answer)));
    }
    if answers.is_empty() {
        return Err("at least one --answer \"index=answer\" is required".into());
    }

    // Play both SP and receiver locally: the hashes are verified exactly
    // as a real SP would.
    let c1 = Construction1::new();
    let displayed = social_puzzles::core::construction1::DisplayedPuzzle {
        questions: puzzle
            .questions()
            .iter()
            .enumerate()
            .map(|(i, q)| (i, (*q).to_owned()))
            .collect(),
        puzzle_key: *puzzle.puzzle_key(),
        hash_alg: c1.hash_alg(),
    };
    let response = c1.answer_puzzle(&displayed, &answers);
    let outcome =
        c1.verify(&puzzle, &response).map_err(|_| "not enough correct answers".to_string())?;
    let object = c1
        .access_with_key(&outcome, &answers, &encrypted, Some(puzzle.puzzle_key()))
        .map_err(|e| e.to_string())?;
    std::fs::write(out, &object).map_err(|e| format!("writing output: {e}"))?;
    println!("solved: {} bytes recovered to {out}", object.len());
    Ok(())
}

// ----------------------------------------------------------------------
// Networked deployment: daemons and load generation
// ----------------------------------------------------------------------

enum Role {
    Sp,
    Dh,
}

/// Cluster-related `serve-sp` flags, parsed once.
struct ClusterFlags {
    /// `--ring a:p,b:p,...` membership, or `--ring standby` (empty ring:
    /// the node serves the control plane and owns no keys until a
    /// `RingSet` promotes it).
    ring: Option<HashRing>,
    /// `--advertise addr`: the address this node claims in the ring
    /// (defaults to the bound address — override it when the ring names
    /// a proxy or a non-loopback interface).
    advertise: Option<SocketAddr>,
    /// `--replicate-to addr`: ship this node's WAL to a standby.
    replicate_to: Option<SocketAddr>,
    /// `--repl-interval-ms N`: replication pump period.
    repl_interval: Duration,
}

impl ClusterFlags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let ring = match flag_value(args, "--ring") {
            None => None,
            Some("standby") => Some(HashRing::empty()),
            Some(spec) => Some(HashRing::new(1, parse_ring_spec(spec)?, DEFAULT_VNODES)),
        };
        let advertise = match flag_value(args, "--advertise") {
            Some(a) => Some(a.parse().map_err(|e| format!("--advertise: {e}"))?),
            None => None,
        };
        let replicate_to = match flag_value(args, "--replicate-to") {
            Some(a) => Some(a.parse().map_err(|e| format!("--replicate-to: {e}"))?),
            None => None,
        };
        let repl_interval = Duration::from_millis(
            flag_value(args, "--repl-interval-ms")
                .unwrap_or("200")
                .parse()
                .map_err(|_| "--repl-interval-ms must be a number")?,
        );
        Ok(Self { ring, advertise, replicate_to, repl_interval })
    }

    /// Whether any cluster feature is on (forces full-log retention on
    /// durable stores so the WAL stays exportable).
    fn active(&self) -> bool {
        self.ring.is_some() || self.replicate_to.is_some()
    }
}

/// Applies the cluster flags to a freshly spawned SP daemon: installs
/// the ring (making the node refuse keys it doesn't own) and starts the
/// replication pump.
fn apply_cluster<P: ProviderBackend + Send + Sync + 'static>(
    service: &Arc<SpService<P>>,
    daemon: &Daemon,
    flags: &ClusterFlags,
) -> Option<Replicator> {
    if let Some(ring) = &flags.ring {
        let advertise = flags.advertise.unwrap_or_else(|| daemon.addr());
        service.enable_cluster(advertise, ring.clone());
        if ring.is_empty() {
            println!("sp: clustered standby as {advertise} (owns nothing until promoted)");
        } else {
            println!(
                "sp: clustered as {advertise} in a {}-node ring (epoch {})",
                ring.len(),
                ring.epoch()
            );
        }
    }
    flags.replicate_to.map(|replica| {
        println!("sp: replicating to {replica} every {:?}", flags.repl_interval);
        Replicator::spawn(Arc::clone(service), replica, flags.repl_interval)
    })
}

/// `serve-sp` / `serve-dh`: boots the daemon and blocks. With
/// `--duration-ms` the run is bounded and a per-endpoint metrics summary
/// is printed on exit (also how the CLI tests drive it).
fn cmd_serve(args: &[String], role: Role) -> Result<(), String> {
    let addr = flag_value(args, "--addr").unwrap_or(match role {
        Role::Sp => "127.0.0.1:7741",
        Role::Dh => "127.0.0.1:7742",
    });
    let mut cfg = DaemonConfig::default();
    if let Some(m) = flag_value(args, "--max-frame") {
        cfg.max_frame = m.parse().map_err(|_| "--max-frame must be a number of bytes")?;
    }
    if let Some(c) = flag_value(args, "--max-connections") {
        cfg.max_connections = c.parse().map_err(|_| "--max-connections must be a number")?;
    }
    if let Some(t) = flag_value(args, "--idle-timeout-ms") {
        let ms: u64 = t.parse().map_err(|_| "--idle-timeout-ms must be a number")?;
        cfg.idle_timeout = Duration::from_millis(ms);
    }
    let duration_ms: Option<u64> = match flag_value(args, "--duration-ms") {
        Some(d) => Some(d.parse().map_err(|_| "--duration-ms must be a number")?),
        None => None,
    };
    // Lock stripes for the puzzle/blob store; 1 = single-lock baseline.
    let shards: usize = flag_value(args, "--shards")
        .unwrap_or("16")
        .parse()
        .map_err(|_| "--shards must be a number")?;
    // A data directory swaps in the durable (WAL + snapshot) backend.
    let data_dir = flag_value(args, "--data-dir").map(PathBuf::from);
    let cluster = ClusterFlags::parse(args)?;
    if cluster.replicate_to.is_some() && data_dir.is_none() {
        return Err("--replicate-to needs --data-dir: only WAL-backed stores can export".into());
    }

    // `sync` pushes the store's shard and durability counters into
    // `metrics` for the exit summary.
    let (name, metrics, daemon, replicator, sync) = match (role, data_dir) {
        (Role::Sp, None) => {
            let service = Arc::new(SpService::new(
                ServiceProvider::with_shards(shards),
                Construction1::new(),
            ));
            let metrics = service.metrics();
            // Same registry for the serving-path counters (accepted,
            // HELLOs acked, in-flight and batch peaks), so the exit
            // summary shows them next to the endpoints.
            cfg.metrics = metrics.clone();
            let daemon = Daemon::spawn(addr, Arc::clone(&service) as Arc<dyn Service>, cfg)
                .map_err(|e| format!("binding {addr}: {e}"))?;
            let replicator = apply_cluster(&service, &daemon, &cluster);
            let sync: Box<dyn Fn()> = Box::new(move || service.sync_shard_metrics());
            ("sp", metrics, daemon, replicator, sync)
        }
        (Role::Sp, Some(dir)) => {
            let store_cfg = StoreConfig {
                shards,
                // Clustered / replicating nodes never compact: the full
                // log must stay exportable to (re)seed a replica.
                snapshot_every: if cluster.active() {
                    u64::MAX
                } else {
                    StoreConfig::default().snapshot_every
                },
                ..StoreConfig::default()
            };
            let provider = DurableProvider::open(dir.join("sp"), store_cfg)
                .map_err(|e| format!("opening durable store in {}: {e}", dir.display()))?;
            let replayed = provider.durability_counters().recovery_replayed_records;
            let service = Arc::new(SpService::new(provider, Construction1::new()));
            let metrics = service.metrics();
            cfg.metrics = metrics.clone();
            let daemon = Daemon::spawn(addr, Arc::clone(&service) as Arc<dyn Service>, cfg)
                .map_err(|e| format!("binding {addr}: {e}"))?;
            println!("sp: durable store at {} (replayed {replayed} records)", dir.display());
            let replicator = apply_cluster(&service, &daemon, &cluster);
            let sync: Box<dyn Fn()> = Box::new(move || service.sync_shard_metrics());
            ("sp", metrics, daemon, replicator, sync)
        }
        (Role::Dh, None) => {
            if cluster.active() {
                return Err("--ring / --replicate-to apply only to serve-sp".into());
            }
            let service = Arc::new(DhService::new(StorageHost::with_shards(shards)));
            let metrics = service.metrics();
            cfg.metrics = metrics.clone();
            let daemon = Daemon::spawn(addr, service.clone(), cfg)
                .map_err(|e| format!("binding {addr}: {e}"))?;
            let sync: Box<dyn Fn()> = Box::new(move || service.sync_shard_metrics());
            ("dh", metrics, daemon, None, sync)
        }
        (Role::Dh, Some(dir)) => {
            if cluster.active() {
                return Err("--ring / --replicate-to apply only to serve-sp".into());
            }
            let store_cfg = StoreConfig { shards, ..StoreConfig::default() };
            let host = DurableHost::open(dir.join("dh"), store_cfg)
                .map_err(|e| format!("opening durable store in {}: {e}", dir.display()))?;
            let replayed = host.durability_counters().recovery_replayed_records;
            let service = Arc::new(DhService::new(host));
            let metrics = service.metrics();
            cfg.metrics = metrics.clone();
            let daemon = Daemon::spawn(addr, service.clone(), cfg)
                .map_err(|e| format!("binding {addr}: {e}"))?;
            println!("dh: durable store at {} (replayed {replayed} records)", dir.display());
            let sync: Box<dyn Fn()> = Box::new(move || service.sync_shard_metrics());
            ("dh", metrics, daemon, None, sync)
        }
    };
    println!("{name}: listening on {}", daemon.addr());

    match duration_ms {
        Some(ms) => std::thread::sleep(Duration::from_millis(ms)),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    if let Some(replicator) = replicator {
        replicator.stop();
    }
    daemon.shutdown();
    sync();
    metrics.sync_crypto();
    print!("{metrics}");
    Ok(())
}

/// `load`: a closed-loop multithreaded load generator.
///
/// `--mode cycle` (default) runs complete Construction-1
/// share→solve→access cycles against live daemons through the remote
/// `ProviderApi`/`StorageApi` clients and reports per-phase latency.
///
/// `--mode verify` hammers the SP's `Verify` endpoint specifically: each
/// thread publishes its own puzzle once, then submits correct responses
/// as fast as the daemon answers — singly, or `--batch N` per frame
/// through `VerifyBatch`. This is the workload that exposes store lock
/// contention, so it is the one to compare across `--shards` settings.
fn cmd_load(args: &[String]) -> Result<(), String> {
    // `--cluster a:p,b:p,...` routes verify load through a consistent-
    // hash cluster client instead of a single SP socket.
    if let Some(spec) = flag_value(args, "--cluster") {
        return run_cluster_verify_load(args, spec);
    }
    let sp_addr: SocketAddr = flag_value(args, "--sp")
        .ok_or("--sp <addr:port> is required")?
        .parse()
        .map_err(|e| format!("--sp: {e}"))?;
    let threads: usize = flag_value(args, "--threads")
        .unwrap_or("4")
        .parse()
        .map_err(|_| "--threads must be a number")?;
    let requests: usize = flag_value(args, "--requests")
        .unwrap_or("50")
        .parse()
        .map_err(|_| "--requests must be a number")?;
    let object_bytes: usize = flag_value(args, "--object-bytes")
        .unwrap_or("4096")
        .parse()
        .map_err(|_| "--object-bytes must be a number")?;
    let k: usize = flag_value(args, "-k")
        .or(flag_value(args, "--threshold"))
        .unwrap_or("2")
        .parse()
        .map_err(|_| "threshold must be a number")?;
    // Requests in flight per connection (and, in verify mode, > 1 makes
    // every thread share one connection).
    let pipeline: usize = flag_value(args, "--pipeline")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "--pipeline must be a number")?;

    match flag_value(args, "--mode").unwrap_or("cycle") {
        "cycle" => {}
        "verify" => {
            let batch: usize = flag_value(args, "--batch")
                .unwrap_or("1")
                .parse()
                .map_err(|_| "--batch must be a number")?;
            return run_verify_load(sp_addr, threads, requests, batch, k, pipeline);
        }
        other => return Err(format!("unknown --mode {other:?} (cycle | verify)")),
    }

    let dh_addr: SocketAddr = flag_value(args, "--dh")
        .ok_or("--dh <addr:port> is required")?
        .parse()
        .map_err(|e| format!("--dh: {e}"))?;
    let context = Context::builder()
        .pair("Where was the event?", "lakeside cabin")
        .pair("Who hosted it?", "priya")
        .pair("What did we grill?", "corn")
        .build()
        .map_err(|e| e.to_string())?;
    if k > context.len() {
        return Err(format!("threshold {k} exceeds the {} built-in questions", context.len()));
    }

    let started = Instant::now();
    let mut handles = Vec::with_capacity(threads.max(1));
    for t in 0..threads.max(1) {
        let context = context.clone();
        handles.push(std::thread::spawn(move || -> Result<Lat, String> {
            // One connection pair per thread: requests within a thread
            // are closed-loop (next starts when the previous finishes).
            let cfg = || PipelineConfig { depth: pipeline.max(1), client: ClientConfig::default() };
            let app = SocialPuzzleApp::with_backends(
                SpClient::connect_pipelined(sp_addr, cfg()),
                DhClient::connect_pipelined(dh_addr, cfg()),
            );
            let c1 = Construction1::new();
            let device = DeviceProfile::pc();
            let mut rng = StdRng::from_entropy();
            let object = vec![0xA5u8; object_bytes];
            let sharer = UserId::from_raw(t as u64 * 2);
            let receiver = UserId::from_raw(t as u64 * 2 + 1);

            let mut lat = Lat::default();
            for _ in 0..requests {
                let t0 = Instant::now();
                let share = app
                    .share_c1(&c1, sharer, &object, &context, k, &device, None, &mut rng)
                    .map_err(|e| format!("share: {e}"))?;
                lat.share.push(t0.elapsed());

                let ctx = context.clone();
                let t1 = Instant::now();
                let recv = app
                    .receive_c1(
                        &c1,
                        receiver,
                        &share,
                        move |q| ctx.answer_for(q).map(str::to_owned),
                        &device,
                        &mut rng,
                    )
                    .map_err(|e| format!("receive: {e}"))?;
                lat.receive.push(t1.elapsed());
                if recv.object != object {
                    return Err("recovered object mismatch".into());
                }
            }
            Ok(lat)
        }));
    }

    let mut all = Lat::default();
    for h in handles {
        let lat = h.join().map_err(|_| "worker thread panicked")??;
        all.share.extend(lat.share);
        all.receive.extend(lat.receive);
    }
    let wall = started.elapsed();

    let cycles = all.share.len();
    println!(
        "load: {cycles} share+receive cycles across {threads} threads in {:.2}s ({:.1} cycles/s)",
        wall.as_secs_f64(),
        cycles as f64 / wall.as_secs_f64().max(1e-9),
    );
    report("share  ", &mut all.share);
    report("receive", &mut all.receive);
    let crypto = social_puzzles_core::metrics::CryptoCounters::snapshot_process();
    println!(
        "crypto: {} line-cache hits, {} misses ({:.1}% hit rate), {} cyclotomic pow",
        crypto.line_cache_hits,
        crypto.line_cache_misses,
        crypto.line_cache_hit_rate() * 100.0,
        crypto.cyclotomic_pow,
    );
    Ok(())
}

/// `spuzzle bench-crypto [--full] [--out <file>]`: the slow-vs-fast
/// crypto hot-path sweep (same measurement the `sp-bench` figures binary
/// writes to `BENCH_crypto.json`), quick by default.
fn cmd_bench_crypto(args: &[String]) -> Result<(), String> {
    use sp_bench::crypto_bench;
    let cfg = if args.iter().any(|a| a == "--full") {
        crypto_bench::CryptoBenchConfig::default()
    } else {
        crypto_bench::CryptoBenchConfig::quick()
    };
    let report = crypto_bench::run(&cfg);
    print!("{}", crypto_bench::render(&report));
    if let Some(path) = flag_value(args, "--out") {
        let json = crypto_bench::to_json(&report);
        crypto_bench::validate_json(&json).map_err(|e| format!("emitted report invalid: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// One verify-load worker: publishes its own puzzle (so threads land on
/// different store shards), precomputes a correct response, then submits
/// `requests` frames of `batch` verifies each through `sp`.
fn verify_worker(
    sp: &SpClient,
    context: &Context,
    t: usize,
    requests: usize,
    batch: usize,
    k: usize,
) -> Result<usize, String> {
    let c1 = Construction1::new();
    let mut rng = StdRng::from_entropy();
    let upload = c1
        .upload_to(
            b"verify-load",
            context,
            k,
            social_puzzles::osn::Url::from(format!("dh://load/{t}").as_str()),
            None,
            &mut rng,
        )
        .map_err(|e| format!("upload: {e}"))?;
    let id = sp
        .publish_puzzle(bytes::Bytes::from(upload.puzzle.to_bytes()))
        .map_err(|e| format!("publish: {e}"))?;
    let displayed = sp.display_puzzle(id).map_err(|e| format!("display: {e}"))?;
    let answers = displayed.answer(|q| context.answer_for(q).map(str::to_owned));
    let response = c1.answer_puzzle(&displayed, &answers);
    let user = UserId::from_raw(t as u64);

    let mut verified = 0usize;
    for _ in 0..requests {
        if batch == 1 {
            sp.verify(user, id, &response).map_err(|e| format!("verify: {e}"))?;
            verified += 1;
        } else {
            let entries: Vec<_> = (0..batch).map(|_| (user, id, response.clone())).collect();
            let results = sp.verify_batch(&entries).map_err(|e| format!("verify_batch: {e}"))?;
            for r in &results {
                if let Err(e) = r {
                    return Err(format!("verify_batch entry: {e}"));
                }
            }
            verified += results.len();
        }
    }
    Ok(verified)
}

/// The `--mode verify` driver. With `--pipeline 1` each thread opens its
/// own connection, one request in flight; with a deeper pipeline every
/// thread shares ONE multiplexed connection, so the socket carries up to
/// `pipeline` requests in flight while the daemon fans them out across
/// its compute pool.
fn run_verify_load(
    sp_addr: SocketAddr,
    threads: usize,
    requests: usize,
    batch: usize,
    k: usize,
    pipeline: usize,
) -> Result<(), String> {
    let context = Context::builder()
        .pair("Where was the event?", "lakeside cabin")
        .pair("Who hosted it?", "priya")
        .pair("What did we grill?", "corn")
        .build()
        .map_err(|e| e.to_string())?;
    if k > context.len() {
        return Err(format!("threshold {k} exceeds the {} built-in questions", context.len()));
    }
    let batch = batch.max(1);
    let threads = threads.max(1);

    let started = Instant::now();
    let verified = if pipeline > 1 {
        let sp = SpClient::connect_pipelined(
            sp_addr,
            PipelineConfig { depth: pipeline, client: ClientConfig::default() },
        );
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (sp, context) = (&sp, &context);
                    s.spawn(move || verify_worker(sp, context, t, requests, batch, k))
                })
                .collect();
            handles.into_iter().try_fold(0usize, |acc, h| {
                Ok::<usize, String>(
                    acc + h.join().map_err(|_| "worker thread panicked".to_owned())??,
                )
            })
        })?
    } else {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let context = context.clone();
            handles.push(std::thread::spawn(move || -> Result<usize, String> {
                let sp = SpClient::connect(sp_addr, ClientConfig::default());
                verify_worker(&sp, &context, t, requests, batch, k)
            }));
        }
        let mut verified = 0usize;
        for h in handles {
            verified += h.join().map_err(|_| "worker thread panicked")??;
        }
        verified
    };
    let wall = started.elapsed();
    println!(
        "verify-load: {verified} verifies across {threads} threads (batch {batch}, \
         pipeline {pipeline}) in {:.2}s ({:.0} verifies/s)",
        wall.as_secs_f64(),
        verified as f64 / wall.as_secs_f64().max(1e-9),
    );
    Ok(())
}

/// One `--cluster` load worker: publishes its own puzzle (the
/// URL-derived ring key decides which node owns it), precomputes a
/// correct response, then hammers routed `Verify`.
fn cluster_verify_worker(
    client: &ClusterClient,
    context: &Context,
    t: usize,
    requests: usize,
    k: usize,
) -> Result<usize, String> {
    let c1 = Construction1::new();
    let mut rng = StdRng::from_entropy();
    let url = social_puzzles::osn::Url::from(format!("dh://load/cluster/{t}").as_str());
    let upload = c1
        .upload_to(b"verify-load", context, k, url.clone(), None, &mut rng)
        .map_err(|e| format!("upload: {e}"))?;
    let id = client
        .publish(&url, bytes::Bytes::from(upload.puzzle.to_bytes()))
        .map_err(|e| format!("publish: {e}"))?;
    let displayed = client.display_puzzle(id).map_err(|e| format!("display: {e}"))?;
    let answers = displayed.answer(|q| context.answer_for(q).map(str::to_owned));
    let response = c1.answer_puzzle(&displayed, &answers);
    let user = UserId::from_raw(t as u64);
    for _ in 0..requests {
        client.verify(user, id, &response).map_err(|e| format!("verify: {e}"))?;
    }
    Ok(requests)
}

/// The `--cluster` load driver: `Verify` throughput through a routed
/// cluster client spanning every ring member, one pipelined connection
/// per node shared by all threads.
fn run_cluster_verify_load(args: &[String], spec: &str) -> Result<(), String> {
    if !matches!(flag_value(args, "--mode"), None | Some("verify")) {
        return Err("--cluster supports --mode verify only".into());
    }
    let threads: usize = flag_value(args, "--threads")
        .unwrap_or("4")
        .parse()
        .map_err(|_| "--threads must be a number")?;
    let requests: usize = flag_value(args, "--requests")
        .unwrap_or("50")
        .parse()
        .map_err(|_| "--requests must be a number")?;
    let k: usize = flag_value(args, "-k")
        .or(flag_value(args, "--threshold"))
        .unwrap_or("2")
        .parse()
        .map_err(|_| "threshold must be a number")?;
    let pipeline: usize = flag_value(args, "--pipeline")
        .unwrap_or("16")
        .parse()
        .map_err(|_| "--pipeline must be a number")?;
    let nodes = parse_ring_spec(spec)?;
    if nodes.is_empty() {
        return Err("--cluster needs at least one addr:port".into());
    }
    let node_count = nodes.len();
    let ring = HashRing::new(1, nodes, DEFAULT_VNODES);
    let client = ClusterClient::connect(
        ring,
        PipelineConfig { depth: pipeline.max(1), client: ClientConfig::default() },
    );
    let context = Context::builder()
        .pair("Where was the event?", "lakeside cabin")
        .pair("Who hosted it?", "priya")
        .pair("What did we grill?", "corn")
        .build()
        .map_err(|e| e.to_string())?;
    if k > context.len() {
        return Err(format!("threshold {k} exceeds the {} built-in questions", context.len()));
    }

    let started = Instant::now();
    let verified = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|t| {
                let (client, context) = (&client, &context);
                s.spawn(move || cluster_verify_worker(client, context, t, requests, k))
            })
            .collect();
        handles.into_iter().try_fold(0usize, |acc, h| {
            Ok::<usize, String>(acc + h.join().map_err(|_| "worker thread panicked".to_owned())??)
        })
    })?;
    let wall = started.elapsed();
    let stats = client.stats();
    println!(
        "cluster-load: {verified} verifies across {threads} threads over {node_count} nodes \
         (pipeline {pipeline}) in {:.2}s ({:.0} verifies/s); {} redirects followed, \
         {} rings learned",
        wall.as_secs_f64(),
        verified as f64 / wall.as_secs_f64().max(1e-9),
        stats.redirects_followed,
        stats.rings_learned,
    );
    Ok(())
}

/// `spuzzle bench-net [--full] [--out <file>]`: the end-to-end RPC
/// pipelining sweep (real daemon, real sockets, 1 ms delay link — the
/// same measurement the `sp-bench` figures binary writes to
/// `BENCH_net.json`), quick by default.
fn cmd_bench_net(args: &[String]) -> Result<(), String> {
    use sp_bench::net_bench;
    let cfg = if args.iter().any(|a| a == "--full") {
        net_bench::NetBenchConfig::default()
    } else {
        net_bench::NetBenchConfig::quick()
    };
    let report = net_bench::run(&cfg);
    print!("{}", net_bench::render(&report));
    if let Some(path) = flag_value(args, "--out") {
        let json = net_bench::to_json(&report);
        net_bench::validate_json(&json).map_err(|e| format!("emitted report invalid: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// `spuzzle check-bench-net [path]`: schema-validates an existing
/// `BENCH_net.json`.
fn cmd_check_bench_net(args: &[String]) -> Result<(), String> {
    let path = args.first().map(String::as_str).unwrap_or("BENCH_net.json");
    let doc = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    sp_bench::net_bench::validate_json(&doc)
        .map_err(|e| format!("{path} is not a valid net bench report: {e}"))?;
    println!("{path}: schema-valid net bench report");
    Ok(())
}

/// `spuzzle bench-store [--full] [--out <file>]`: the durable-storage
/// sweep (append throughput with/without group commit, recovery time vs.
/// log size — the same measurement the `sp-bench` figures binary writes
/// to `BENCH_store.json`), quick by default.
fn cmd_bench_store(args: &[String]) -> Result<(), String> {
    use sp_bench::store_bench;
    let cfg = if args.iter().any(|a| a == "--full") {
        store_bench::StoreBenchConfig::default()
    } else {
        store_bench::StoreBenchConfig::quick()
    };
    let report = store_bench::run(&cfg);
    print!("{}", store_bench::render(&report));
    if let Some(path) = flag_value(args, "--out") {
        let json = store_bench::to_json(&report);
        store_bench::validate_json(&json).map_err(|e| format!("emitted report invalid: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// `spuzzle check-bench-store [path]`: schema-validates an existing
/// `BENCH_store.json`.
fn cmd_check_bench_store(args: &[String]) -> Result<(), String> {
    let path = args.first().map(String::as_str).unwrap_or("BENCH_store.json");
    let doc = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    sp_bench::store_bench::validate_json(&doc)
        .map_err(|e| format!("{path} is not a valid store bench report: {e}"))?;
    println!("{path}: schema-valid store bench report");
    Ok(())
}

/// `spuzzle sim --seed S --users N [--events E] [--ticks T] [--shards P]`:
/// one deterministic simulation run through the real protocol stack.
/// Every event is invariant-checked; a violation is a non-zero exit.
/// The `decision_log_hash=` line is the reproducibility receipt — it
/// must be identical for identical flags, at any `SP_PAR_THREADS`.
fn cmd_sim(args: &[String]) -> Result<(), String> {
    use social_puzzles::sim::{run, SimConfig};
    let seed: u64 = flag_value(args, "--seed")
        .unwrap_or("42")
        .parse()
        .map_err(|_| "--seed must be a number")?;
    let users: u64 = flag_value(args, "--users")
        .unwrap_or("10000")
        .parse()
        .map_err(|_| "--users must be a number")?;
    let mut cfg = SimConfig::new(seed, users);
    if let Some(e) = flag_value(args, "--events") {
        cfg.events = e.parse().map_err(|_| "--events must be a number")?;
    }
    if let Some(t) = flag_value(args, "--ticks") {
        cfg.ticks = t.parse().map_err(|_| "--ticks must be a number")?;
    }
    if let Some(s) = flag_value(args, "--shards") {
        cfg.shards = s.parse().map_err(|_| "--shards must be a number")?;
    }
    if let Some(n) = flag_value(args, "--socket-probe") {
        cfg.socket_probe = n.parse().map_err(|_| "--socket-probe must be a number")?;
    }
    let r = run(&cfg).map_err(|e| format!("invariant violation: {e}"))?;
    let c = r.counters;
    println!(
        "sim: seed {} users {} events {} ticks {} in {:.2}s ({:.0} events/s, {:.0} decisions/s)",
        r.seed, r.users, r.events, r.ticks, r.elapsed_s, r.events_per_s, r.decisions_per_s,
    );
    println!(
        "     shares {} grants {} denials {} (prefiltered {}) befriends {} unfriends {} \
         device-churns {}",
        c.shares, c.grants, c.denials, c.prefiltered, c.befriends, c.unfriends, c.device_churns,
    );
    println!(
        "     tuple-grants {} tuple-revokes {} revocation-flips {} oracle-checks {} \
         p50 {:.1}µs p99 {:.1}µs",
        c.tuple_grants, c.tuple_revokes, c.revocation_flips, c.oracle_checks, r.p50_us, r.p99_us,
    );
    println!(
        "     c2-probes {} (denied {}) line-cache {} hits / {} misses ({:.1}% hit rate)",
        c.c2_probes,
        c.c2_probe_denials,
        r.c2_cache_hits,
        r.c2_cache_misses,
        r.c2_cache_hit_rate() * 100.0,
    );
    println!(
        "     socket-probes {} (denied {}) over real loopback daemons",
        c.socket_probes, c.socket_probe_denials,
    );
    println!("decision_log_hash={} entries={}", r.hash_hex(), r.log_entries);
    println!(
        "crypto_cache_hits={} crypto_cache_misses={} crypto_cache_hit_rate={:.4}",
        r.c2_cache_hits,
        r.c2_cache_misses,
        r.c2_cache_hit_rate(),
    );
    Ok(())
}

/// `spuzzle bench-sim [--full] [--out <file>]`: the simulation scaling
/// sweep (the same measurement the `sp-bench` figures binary writes to
/// `BENCH_sim.json`), quick by default. `--full` sweeps 10k/100k/1M
/// users and takes minutes.
fn cmd_bench_sim(args: &[String]) -> Result<(), String> {
    use sp_bench::sim_bench;
    let cfg = if args.iter().any(|a| a == "--full") {
        sim_bench::SimBenchConfig::default()
    } else {
        sim_bench::SimBenchConfig::quick()
    };
    let report = sim_bench::run_sweep(&cfg);
    print!("{}", sim_bench::render(&report));
    if let Some(path) = flag_value(args, "--out") {
        let json = sim_bench::to_json(&report);
        sim_bench::validate_json(&json).map_err(|e| format!("emitted report invalid: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// `spuzzle check-bench-sim [path]`: schema-validates an existing
/// `BENCH_sim.json`.
fn cmd_check_bench_sim(args: &[String]) -> Result<(), String> {
    let path = args.first().map(String::as_str).unwrap_or("BENCH_sim.json");
    let doc = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    sp_bench::sim_bench::validate_json(&doc)
        .map_err(|e| format!("{path} is not a valid sim bench report: {e}"))?;
    println!("{path}: schema-valid sim bench report");
    Ok(())
}

#[derive(Default)]
struct Lat {
    share: Vec<Duration>,
    receive: Vec<Duration>,
}

fn report(name: &str, lat: &mut [Duration]) {
    if lat.is_empty() {
        return;
    }
    lat.sort_unstable();
    let pct = |p: f64| {
        let idx = ((lat.len() - 1) as f64 * p / 100.0).round() as usize;
        lat[idx]
    };
    println!(
        "  {name}  p50 {:>8.3?}  p95 {:>8.3?}  p99 {:>8.3?}  max {:>8.3?}",
        pct(50.0),
        pct(95.0),
        pct(99.0),
        lat[lat.len() - 1],
    );
}
