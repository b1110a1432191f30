//! `verify_zipf` and `verify_durable`: the SP's `DisplayPuzzle`/`Verify`
//! hot path (Fig. 6), driven over one v2 connection by two generator
//! threads — a sender that owns the schedule and a receiver that checks
//! every response.
//!
//! After setup and a fixed warm-up, every round of the run has two
//! fixed-work phases:
//!
//! * **open loop** — Poisson arrivals at a fixed rate; each request is
//!   timed from its *scheduled* send, so a stall is charged to every
//!   request queued behind it, and the generator reports how late it ran;
//! * **saturation** — a closed window of [`WINDOW`] outstanding requests;
//!   throughput is requests ÷ wall time.
//!
//! Every request carries an idempotency token equal to its correlation
//! id, as the shipped pipelined client tags requests; a `Busy` reply is
//! retried with the same token on `ClientConfig::default()`'s backoff
//! (see [`BUSY_RETRIES`]), timed from the original schedule.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::Rng;
use social_puzzles_core::construction1::{Construction1, DisplayedPuzzle, PuzzleResponse};
use sp_net::dedup::wrap_idempotent;
use sp_net::frame::{read_frame, read_frame_v2, write_frame, write_frame_v2};
use sp_net::msg::{
    decode_displayed_puzzle, decode_response, decode_verify_outcome, hello_frame, is_hello_ack,
    SpRequest,
};
use sp_net::{ClientConfig, ErrorCode, NetError, PipelineConfig, SpClient, DEFAULT_MAX_FRAME};
use sp_osn::{ProviderApi, Url};

use crate::boot::{fresh_store_dir, Sp};
use crate::ledger::Ledger;
use crate::process::{self, Usage};
use crate::report::{LayerInputs, Metric, Rounds};
use crate::stats::{self, ms, object_inputs, poisson_gap_ns, Histogram, Zipf, K, PAIRS};
use crate::trace;
use crate::{median, Outcome, Run, SETUPS};

/// Outstanding requests in the saturation phase.
const WINDOW: usize = 64;
/// Request mix: shares of `DisplayPuzzle` and of below-threshold `Verify`;
/// the rest are `Verify` with correct answers.
const DISPLAY_SHARE: f64 = 0.50;
const BAD_VERIFY_SHARE: f64 = 0.05;
/// Puzzle popularity exponent.
const ZIPF_S: f64 = 1.0;
/// A send later than this after its scheduled time counts as late.
const LATE_NS: u64 = 1_000_000;
/// In-flight bookkeeping slots, indexed by correlation id.
const RING: usize = 1 << 16;
/// Longest a phase may overrun its expected length before it fails.
const STALL: Duration = Duration::from_secs(30);
/// `Busy` retries per request, on `ClientConfig::default()`'s backoff.
/// The shipped client gives up after two (150 ms of backoff); five
/// (1.55 s) ride out a pause of the host machine, which on a shared
/// two-vCPU host can exceed 150 ms, so that it cannot fail a request.
/// Every retry is still counted and charged to the request's latency.
const BUSY_RETRIES: u8 = 5;
/// Prefix of the URL each preloaded puzzle points at (its index follows).
const URL_PREFIX: &str = "https://dh.spbench/objects/";
/// Sampled requests per traced phase.
const TRACED_REQUESTS: u64 = 10_000;

const DISPLAY: u64 = 0;
const VERIFY_OK: u64 = 1;
const VERIFY_BAD: u64 = 2;

/// One verify workload's fixed sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Puzzles published at setup.
    pub puzzles: usize,
    /// Open-loop arrival rate, requests per second.
    pub rate: f64,
    /// Open-loop warm-up requests (unmeasured).
    pub warmup: u64,
    /// Measured rounds.
    pub rounds: usize,
    /// Open-loop requests per round.
    pub open: u64,
    /// Saturation-phase requests per round.
    pub saturation: u64,
}

/// A published puzzle, as the generator needs it.
struct Puzzle {
    id: u64,
    /// Hashes of every correct answer; requests send the displayed subset.
    answers: PuzzleResponse,
}

/// What the sender decided for one correlation id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Req {
    kind: u64,
    puzzle: u32,
    /// Answered question indices, one bit each.
    mask: u8,
    attempts: u8,
}

impl Req {
    fn pack(self) -> u64 {
        self.kind
            | u64::from(self.puzzle) << 8
            | u64::from(self.mask) << 40
            | u64::from(self.attempts) << 48
    }

    fn unpack(v: u64) -> Self {
        Self {
            kind: v & 0xff,
            puzzle: (v >> 8) as u32,
            mask: (v >> 40) as u8,
            attempts: (v >> 48) as u8,
        }
    }
}

/// In-flight state for one correlation id (`corr == 0`: free).
#[derive(Default)]
struct Slot {
    corr: AtomicU64,
    /// Scheduled send (open loop) or first send (closed loop), ns.
    due: AtomicU64,
    /// Latest send, ns.
    sent: AtomicU64,
    req: AtomicU64,
}

enum Event {
    /// Resend this correlation id at this time (ns).
    Retry(u64, u64),
    /// A saturation-window slot freed up.
    Freed,
}

#[derive(Clone, Copy)]
enum Phase {
    Open { rate: f64 },
    Closed { window: usize },
}

/// One phase's results.
#[derive(Default)]
struct PhaseStats {
    all: Histogram,
    display: Histogram,
    verify: Histogram,
    requests: u64,
    late: u64,
    busy_retries: u64,
    failed: u64,
    problems: Vec<String>,
    /// First send to last completion, ns.
    wall_ns: u64,
}

impl PhaseStats {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(problem);
        }
    }
}

/// What both generator threads read.
struct Shared<'a> {
    puzzles: &'a [Puzzle],
    slots: Vec<Slot>,
    seed: u64,
    writer: TcpStream,
}

/// The sender's seeded draws, continuing across phases.
struct Schedule {
    rng: StdRng,
    zipf: Zipf,
}

/// The generator's connection and state, kept across phases.
struct Generator<'a> {
    shared: Shared<'a>,
    reader: BufReader<TcpStream>,
    schedule: Schedule,
    next_corr: u64,
}

fn url_index(url: &Url) -> Option<u32> {
    url.as_str().strip_prefix(URL_PREFIX)?.parse().ok()
}

impl Shared<'_> {
    fn payload(&self, corr: u64, req: Req) -> Vec<u8> {
        let p = &self.puzzles[req.puzzle as usize];
        let inner = if req.kind == DISPLAY {
            SpRequest::DisplayPuzzle { puzzle: p.id }
        } else {
            let hashes = p
                .answers
                .hashes
                .iter()
                .filter(|(i, _)| req.mask & (1 << i) != 0)
                .map(|(i, h)| {
                    let h = if req.kind == VERIFY_BAD {
                        h.iter().map(|b| !b).collect()
                    } else {
                        h.clone()
                    };
                    (*i, h)
                })
                .collect();
            let user = stats::mix(self.seed, corr) % 1_000_000 + 1;
            SpRequest::Verify { user, puzzle: p.id, response: PuzzleResponse { hashes } }
        };
        wrap_idempotent(corr, &inner.encode())
    }

    fn write(&self, corr: u64, payload: &[u8]) -> Result<(), String> {
        let mut w = &self.writer;
        write_frame_v2(&mut w, corr, payload, DEFAULT_MAX_FRAME).map_err(|e| format!("send: {e}"))
    }

    /// Checks one final (non-`Busy`) reply against what was asked.
    fn check(&self, req: Req, reply: Result<&[u8], NetError>) -> Result<(), String> {
        match (req.kind, reply) {
            (DISPLAY, Ok(body)) => {
                let d = decode_displayed_puzzle(body).map_err(|e| format!("display: {e}"))?;
                let n = d.questions.len();
                if !(K..=PAIRS).contains(&n) || d.questions.iter().any(|(i, _)| *i >= PAIRS) {
                    return Err(format!("display showed {n} questions"));
                }
                Ok(())
            }
            (VERIFY_OK, Ok(body)) => {
                let o = decode_verify_outcome(body).map_err(|e| format!("verify: {e}"))?;
                if url_index(&o.url) != Some(req.puzzle) {
                    return Err(format!(
                        "verify returned {} for puzzle {}",
                        o.url.as_str(),
                        req.puzzle
                    ));
                }
                if o.released.len() < K {
                    return Err(format!("verify released {} shares", o.released.len()));
                }
                Ok(())
            }
            (
                VERIFY_BAD,
                Err(NetError::Remote { code: ErrorCode::NotEnoughCorrectAnswers, .. }),
            ) => Ok(()),
            (VERIFY_BAD, Ok(_)) => Err("a below-threshold Verify was granted".into()),
            (_, Err(e)) => Err(e.to_string()),
            _ => Err("unknown request kind".into()),
        }
    }
}

impl Schedule {
    fn draw(&mut self) -> Req {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let kind = if u < DISPLAY_SHARE {
            DISPLAY
        } else if u < 1.0 - BAD_VERIFY_SHARE {
            VERIFY_OK
        } else {
            VERIFY_BAD
        };
        let puzzle = (self.zipf.sample(&mut self.rng) - 1) as u32;
        // A receiver answers the questions the SP displayed: r of the n,
        // r uniform in k..=n, as `DisplayPuzzle` picks them.
        let r = self.rng.gen_range(K..=PAIRS);
        let mut mask = 0u8;
        while (mask.count_ones() as usize) < r {
            mask |= 1 << self.rng.gen_range(0..PAIRS);
        }
        Req { kind, puzzle, mask, attempts: 0 }
    }
}

impl<'a> Generator<'a> {
    fn connect(sp: &Sp, puzzles: &'a [Puzzle], seed: u64) -> Result<Self, String> {
        let io = |e: std::io::Error| format!("generator connection: {e}");
        let net = |e: NetError| format!("generator connection: {e}");
        let mut writer = TcpStream::connect(sp.addr()).map_err(io)?;
        writer.set_nodelay(true).map_err(io)?;
        write_frame(&mut writer, &hello_frame(), DEFAULT_MAX_FRAME).map_err(net)?;
        let ack = read_frame(&mut writer, DEFAULT_MAX_FRAME)
            .map_err(net)?
            .ok_or("the SP closed the connection during HELLO")?;
        if !decode_response(&ack).is_ok_and(is_hello_ack) {
            return Err("the SP refused the v2 upgrade".into());
        }
        let reader = BufReader::new(writer.try_clone().map_err(io)?);
        Ok(Self {
            shared: Shared {
                puzzles,
                slots: (0..RING).map(|_| Slot::default()).collect(),
                seed,
                writer,
            },
            reader,
            schedule: Schedule {
                rng: stats::stream(seed, "verify/requests"),
                zipf: Zipf::new(puzzles.len() as u64, ZIPF_S),
            },
            next_corr: 1,
        })
    }

    /// Runs `n` requests in `phase`, checking every response; spans are
    /// recorded for sampled requests when tracing is on.
    fn run(&mut self, phase: Phase, n: u64) -> Result<PhaseStats, String> {
        let first = self.next_corr;
        self.next_corr += n;
        let (tx, rx) = mpsc::channel::<Event>();
        let outstanding = AtomicUsize::new(0);
        let waiting = AtomicBool::new(false);
        let Generator { shared, reader, schedule, .. } = self;
        let shared = &*shared;
        let closed = matches!(phase, Phase::Closed { .. });
        std::thread::scope(|s| {
            let receiver = std::thread::Builder::new()
                .name("spbench-recv".into())
                .spawn_scoped(s, || receive(shared, reader, n, &tx, &outstanding, &waiting, closed))
                .map_err(|e| format!("spawning the receiver: {e}"))?;
            let sent = send(shared, schedule, phase, first, n, &rx, &outstanding, &waiting, || {
                receiver.is_finished()
            });
            if let Err(e) = &sent {
                // Unblock a receiver waiting on a dead or stalled link.
                eprintln!("spbench: sender: {e}");
                let _ = shared.writer.shutdown(Shutdown::Both);
            }
            let mut stats = receiver.join().map_err(|_| "the receiver panicked".to_owned())??;
            let (first_send, late) = sent?;
            stats.wall_ns = stats.wall_ns.saturating_sub(first_send);
            stats.late = late;
            Ok(stats)
        })
    }
}

/// The sender: paces new requests (open loop) or keeps the window full
/// (closed loop), and resends `Busy` replies when their backoff ends.
/// Returns the first send's time and how many sends ran late.
#[allow(clippy::too_many_arguments)]
fn send(
    sh: &Shared<'_>,
    schedule: &mut Schedule,
    phase: Phase,
    first: u64,
    n: u64,
    rx: &Receiver<Event>,
    outstanding: &AtomicUsize,
    waiting: &AtomicBool,
    receiver_done: impl Fn() -> bool,
) -> Result<(u64, u64), String> {
    let expected = match phase {
        Phase::Open { rate } => n as f64 / rate,
        Phase::Closed { .. } => n as f64 / 1000.0,
    };
    let deadline = Instant::now() + STALL + Duration::from_secs_f64(expected);
    let mut retries: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let start = trace::now_ns();
    let mut due = start;
    let mut next = 0u64;
    let mut late = 0u64;
    while !receiver_done() {
        if Instant::now() > deadline {
            return Err(format!(
                "requests still in flight {STALL:?} after the phase should have ended"
            ));
        }
        let window_open = match phase {
            Phase::Open { .. } => next < n,
            Phase::Closed { window } => next < n && outstanding.load(Ordering::SeqCst) < window,
        };
        let new_due = match phase {
            Phase::Open { .. } if window_open => Some(due),
            Phase::Closed { .. } if window_open => Some(0),
            _ => None,
        };
        let retry_due = retries.peek().map(|r| r.0 .0);
        let wake = new_due.into_iter().chain(retry_due).min().unwrap_or(u64::MAX);
        let now = trace::now_ns();
        if wake > now {
            if let Phase::Closed { window } = phase {
                // Ask the receiver for a wake-up, then re-check so a slot
                // freed in between is not missed.
                waiting.store(true, Ordering::SeqCst);
                if next < n && outstanding.load(Ordering::SeqCst) < window {
                    waiting.store(false, Ordering::SeqCst);
                    continue;
                }
            }
            let wait = Duration::from_nanos((wake - now).min(50_000_000));
            match rx.recv_timeout(wait) {
                Ok(Event::Retry(corr, at)) => retries.push(Reverse((at, corr))),
                Ok(Event::Freed) | Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            continue;
        }
        if retry_due.is_some_and(|r| r <= now) {
            let Reverse((_, corr)) = retries.pop().expect("peeked");
            let slot = &sh.slots[corr as usize % RING];
            let payload = sh.payload(corr, Req::unpack(slot.req.load(Ordering::Acquire)));
            slot.sent.store(trace::now_ns(), Ordering::Release);
            sh.write(corr, &payload)?;
            continue;
        }
        let corr = first + next;
        let slot = &sh.slots[corr as usize % RING];
        if slot.corr.load(Ordering::Acquire) != 0 {
            return Err(format!("more than {RING} requests in flight"));
        }
        let req = schedule.draw();
        let payload = sh.payload(corr, req);
        let sent = trace::now_ns();
        let scheduled = if matches!(phase, Phase::Open { .. }) { due } else { sent };
        if sent.saturating_sub(scheduled) > LATE_NS {
            late += 1;
        }
        slot.req.store(req.pack(), Ordering::Relaxed);
        slot.due.store(scheduled, Ordering::Relaxed);
        slot.sent.store(sent, Ordering::Relaxed);
        slot.corr.store(corr, Ordering::Release);
        outstanding.fetch_add(1, Ordering::SeqCst);
        sh.write(corr, &payload)?;
        next += 1;
        if let Phase::Open { rate } = phase {
            due += poisson_gap_ns(&mut schedule.rng, rate);
        }
    }
    Ok((start, late))
}

/// The receiver: matches replies to slots, schedules `Busy` retries,
/// checks every final reply, and records latency (and, when sampled, the
/// request's generator-side spans).
fn receive(
    sh: &Shared<'_>,
    reader: &mut BufReader<TcpStream>,
    n: u64,
    tx: &Sender<Event>,
    outstanding: &AtomicUsize,
    waiting: &AtomicBool,
    closed: bool,
) -> Result<PhaseStats, String> {
    let cfg = ClientConfig::default();
    let mut st = PhaseStats { requests: n, ..PhaseStats::default() };
    let mut done = 0;
    while done < n {
        let (corr, frame) = match read_frame_v2(reader, DEFAULT_MAX_FRAME.saturating_add(1024)) {
            Ok(Some(f)) => f,
            Ok(None) => return Err("the SP closed the generator's connection".into()),
            Err(e) => return Err(format!("receive: {e}")),
        };
        let recv = trace::now_ns();
        let slot = &sh.slots[corr as usize % RING];
        if slot.corr.load(Ordering::Acquire) != corr {
            return Err(format!("a reply for correlation id {corr}, which is not in flight"));
        }
        let mut req = Req::unpack(slot.req.load(Ordering::Acquire));
        let reply = decode_response(&frame);
        if matches!(reply, Err(NetError::Remote { code: ErrorCode::Busy, .. }))
            && req.attempts < BUSY_RETRIES
        {
            let backoff = cfg.backoff.saturating_mul(1 << req.attempts);
            req.attempts += 1;
            slot.req.store(req.pack(), Ordering::Release);
            st.busy_retries += 1;
            tx.send(Event::Retry(corr, recv + backoff.as_nanos() as u64))
                .map_err(|_| "the sender exited with a retry pending".to_owned())?;
            continue;
        }
        if let Err(p) = sh.check(req, reply) {
            st.fail(format!("request {corr}: {p}"));
        }
        let due = slot.due.load(Ordering::Relaxed);
        let latency = recv.saturating_sub(due);
        st.all.record(latency);
        if req.kind == DISPLAY {
            st.display.record(latency);
        } else {
            st.verify.record(latency);
        }
        if trace::sampled(corr) {
            trace::record("loadgen.request", corr, due, recv);
            trace::record("client.sp", corr, slot.sent.load(Ordering::Relaxed), recv);
        }
        slot.corr.store(0, Ordering::Release);
        done += 1;
        st.wall_ns = recv;
        outstanding.fetch_sub(1, Ordering::SeqCst);
        if closed && waiting.swap(false, Ordering::SeqCst) {
            let _ = tx.send(Event::Freed);
        }
    }
    Ok(st)
}

/// Boots the SP and publishes the puzzles through the shipped pipelined
/// client from two threads, precomputing each puzzle's correct answers.
fn setup(cfg: &Run, sizes: &Sizes, durable: bool, rep: usize) -> Result<(Sp, Vec<Puzzle>), String> {
    let dir =
        if durable { Some(fresh_store_dir(&format!("{}-{rep}", cfg.workload))?) } else { None };
    let sp = Sp::boot(dir, cfg.traced)?;
    let client = SpClient::connect_pipelined(
        sp.addr(),
        PipelineConfig { depth: 2, client: ClientConfig::default() },
    );
    let c1 = Construction1::new();
    let half = sizes.puzzles.div_ceil(2);
    let parts: Vec<Result<Vec<Puzzle>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let (client, c1) = (&client, &c1);
                let range = t * half..((t + 1) * half).min(sizes.puzzles);
                s.spawn(move || range.map(|i| publish(client, c1, cfg.seed, i)).collect())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("a publisher panicked".into())))
            .collect()
    });
    let mut puzzles = Vec::with_capacity(sizes.puzzles);
    for part in parts {
        puzzles.extend(part?);
    }
    Ok((sp, puzzles))
}

fn publish(client: &SpClient, c1: &Construction1, seed: u64, i: usize) -> Result<Puzzle, String> {
    let object_seed = stats::object_seed(seed, "verify/puzzle", i as u64);
    let (ctx, object) = object_inputs(object_seed);
    let mut rng = stats::stream(object_seed, "verify/upload");
    let up = c1
        .upload_to(&object, &ctx, K, Url::from(format!("{URL_PREFIX}{i}")), None, &mut rng)
        .map_err(|e| format!("upload: {e}"))?;
    let all = DisplayedPuzzle {
        questions: ctx
            .pairs()
            .iter()
            .enumerate()
            .map(|(j, p)| (j, p.question().to_owned()))
            .collect(),
        puzzle_key: *up.puzzle.puzzle_key(),
        hash_alg: c1.hash_alg(),
    };
    let answers: Vec<(usize, String)> =
        ctx.pairs().iter().enumerate().map(|(j, p)| (j, p.answer().to_owned())).collect();
    let id = client
        .publish_puzzle(Bytes::from(up.puzzle.to_bytes()))
        .map_err(|e| format!("publish: {e}"))?;
    Ok(Puzzle { id: id.raw(), answers: c1.answer_puzzle(&all, &answers) })
}

/// Runs one verify workload: setup (several times, the median reported),
/// warm-up, then rounds of an open-loop phase followed by a saturation
/// phase.
pub fn run(cfg: &Run, sizes: &Sizes, durable: bool) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut env: Option<(Sp, Vec<Puzzle>)> = None;
    for rep in 0..SETUPS {
        if let Some((sp, _)) = env.take() {
            sp.shutdown()?;
        }
        let t = Instant::now();
        env = Some(setup(cfg, sizes, durable, rep)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (sp, puzzles) = env.expect("SETUPS > 0");
    let mut g = Generator::connect(&sp, &puzzles, cfg.seed)?;
    let mut phases = vec![g.run(Phase::Open { rate: sizes.rate }, sizes.warmup)?];

    let open_total = sizes.open * sizes.rounds as u64;
    let period = (open_total / TRACED_REQUESTS).max(1);
    // Each sampled request leaves a handful of spans on any one thread.
    let capacity = open_total.min(TRACED_REQUESTS) as usize * 8;
    let mut rounds = Rounds::default();
    let (mut open_ops, mut switches, mut sp_calls, mut backend_calls) = (0, 0, 0, 0);
    let (mut late, mut open_busy, mut busy) = (0, 0, 0);
    let mut sat_all = Histogram::default();
    for _ in 0..sizes.rounds {
        rounds.calibrate();
        if cfg.traced {
            trace::start(period, capacity);
        }
        let (sp0, be0) = (sp.requests(), sp.backend_calls());
        let before = Usage::now()?;
        let open = g.run(Phase::Open { rate: sizes.rate }, sizes.open)?;
        let (cpu_s, sw) = Usage::now()?.since(&before);
        trace::stop();
        sp_calls += sp.requests() - sp0;
        backend_calls += sp.backend_calls() - be0;
        switches += sw;
        open_ops += open.requests;
        late += open.late;
        open_busy += open.busy_retries;
        busy += open.busy_retries;
        let sat = g.run(Phase::Closed { window: WINDOW }, sizes.saturation)?;
        busy += sat.busy_retries;
        sat_all.merge(&sat.all);
        rounds.add(&open.all, cpu_s, open.requests, sat.requests, sat.wall_ns as f64 / 1e9);
        phases.extend([open, sat]);
    }
    rounds.calibrate();
    let rss_mb = process::peak_rss_mb()?;
    drop(g);

    let server = sp.metrics.server("net.server");
    let cache = sp.metrics.cache("sp.puzzle_cache");
    let durability = sp.durability();
    let dir_mb = sp.dir().map_or(0.0, process::dir_mb);
    sp.shutdown()?;

    let mut out = Outcome::default();
    let (mut display, mut verify) = (Histogram::default(), Histogram::default());
    for (i, phase) in phases.iter().enumerate() {
        out.attempted += phase.requests;
        out.failed += phase.failed;
        out.problems.extend(phase.problems.iter().cloned());
        if i % 2 == 1 {
            display.merge(&phase.display);
            verify.merge(&phase.verify);
        }
    }
    let late_ratio = late as f64 / open_ops.max(1) as f64;
    out.metrics = rounds.metrics(median(&setup_s), rss_mb, &mut out.details);
    out.details.extend([
        Metric::new("display_p50_ms", ms(display.quantile(0.5)), "ms"),
        Metric::new("verify_p50_ms", ms(verify.quantile(0.5)), "ms"),
        Metric::new("sat_p50_ms", ms(sat_all.quantile(0.5)), "ms"),
        Metric::new("sat_p99_ms", ms(sat_all.quantile(0.99)), "ms"),
        Metric::new("late_ratio", late_ratio, "ratio"),
        Metric::new("busy_retries", busy as f64, "count"),
    ]);
    out.late_ratio = late_ratio;
    if cfg.traced {
        let recording = trace::drain();
        let ledger = Ledger::from_requests(&recording.spans);
        out.trace = Some(recording);
        out.layers = Some(LayerInputs {
            ops: open_ops,
            switches,
            client_calls: open_ops + open_busy,
            sp_requests: sp_calls,
            backend_calls,
            late_ratio,
            busy_retries: busy,
            p99_ns: rounds.pooled_p99(),
            sat_p99_ns: sat_all.quantile(0.99),
            busy_rejections: server.busy_rejections,
            queue_peak: server.queue_peak,
            in_flight_peak: server.in_flight_peak,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            durability,
            dir_mb,
            ledger,
            ..LayerInputs::default()
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_pack_losslessly() {
        let r = Req { kind: VERIFY_BAD, puzzle: 9_999, mask: 0b10110, attempts: 2 };
        assert_eq!(Req::unpack(r.pack()), r);
    }

    #[test]
    fn draws_follow_the_mix_and_answer_at_least_k() {
        let mut s = Schedule { rng: stats::stream(1, "t"), zipf: Zipf::new(100, ZIPF_S) };
        let mut kinds = [0u32; 3];
        for _ in 0..20_000 {
            let r = s.draw();
            kinds[r.kind as usize] += 1;
            assert!((r.mask.count_ones() as usize) >= K && r.mask < 1 << PAIRS);
            assert!(r.puzzle < 100);
        }
        let share = |k: usize| f64::from(kinds[k]) / 20_000.0;
        assert!((share(0) - DISPLAY_SHARE).abs() < 0.02);
        assert!((share(2) - BAD_VERIFY_SHARE).abs() < 0.01);
    }
}
