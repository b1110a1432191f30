//! `c1_sessions` and `c2_sessions`: the paper's sharer and receiver flows
//! (Fig. 10, Implementations 1 and 2) through the shipped client library.
//!
//! Two user threads share one pipelined `SpClient` and one pipelined
//! `DhClient` and each run a closed loop of sessions: a share (20%) or an
//! access (80%) whose target is drawn by Zipf popularity over the
//! preloaded objects and the thread's own earlier shares (oldest first),
//! so every thread's inputs are fixed by the seed whatever the
//! interleaving. One access in ten knows no answers and must be refused.
//!
//! The benchmark makes the flows' calls itself, so it can time each one:
//!
//! * share: `dh.reserve` → `upload_to` → `dh.fill` → `sp.publish_puzzle`
//!   → `sp.post` (`SocialPuzzleApp::share_c1`/`share_c2`);
//! * C1 access: `sp.display_puzzle` → `answer_puzzle` → `sp.verify` →
//!   `dh.get(outcome.url)` → `access_with_key`, with `DisplayPuzzle` and
//!   `Verify` on the server;
//! * C2 access: `receive_c2`'s sequence — `sp.fetch_puzzle` → answer →
//!   local `verify` → `sp.log_access` → `dh.get` → `access`.

use std::sync::{Barrier, Mutex, PoisonError};
use std::time::Instant;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::Rng;
use social_puzzles_core::construction1::Construction1;
use social_puzzles_core::construction2::{Construction2, Puzzle2Record};
use social_puzzles_core::metrics::ServiceMetrics;
use social_puzzles_core::SocialPuzzleError;
use sp_net::{ClientConfig, DhClient, ErrorCode, NetError, PipelineConfig, SpClient};
use sp_osn::{ProviderApi, PuzzleId, StorageApi, UserId};

use crate::boot::{Dh, Sp};
use crate::ledger::Ledger;
use crate::process::{self, Usage};
use crate::report::{LayerInputs, Metric, Rounds};
use crate::stats::{self, ms, object_inputs, Histogram, Zipf, K};
use crate::trace;
use crate::{median, Outcome, Run, SETUPS};

/// User threads (and so sessions in flight).
const THREADS: usize = 2;
/// Share of sessions that share; the rest access.
const SHARE_SHARE: f64 = 0.20;
/// Share of accesses whose receiver knows no answers.
const CLUELESS: f64 = 0.10;
/// Object popularity exponent.
const ZIPF_S: f64 = 1.0;
/// Sampled sessions per traced phase.
const TRACED_SESSIONS: u64 = 2_000;
const POST_TEXT: &str = "I shared something — solve the puzzle!";

/// Which construction the sessions run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Construction 1 (Shamir shares, server-side `Verify`).
    C1,
    /// Construction 2 at the production 512-bit parameters.
    C2,
}

/// One session workload's fixed sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Objects shared at setup.
    pub preload: usize,
    /// Unmeasured sessions per thread.
    pub warmup: u64,
    /// Measured rounds.
    pub rounds: usize,
    /// Sessions per thread per round.
    pub sessions: u64,
}

/// A shared object: its puzzle and the seed its inputs come from.
#[derive(Clone, Copy, Debug)]
struct Object {
    puzzle: u64,
    seed: u64,
}

enum Crypto {
    C1(Construction1),
    C2(Box<Construction2>),
}

struct Env {
    sp: Sp,
    dh: Dh,
    spc: SpClient,
    dhc: DhClient,
    preloaded: Vec<Object>,
}

/// One user thread's state.
struct User<'a> {
    env: &'a Env,
    crypto: Crypto,
    rng: StdRng,
    thread: u64,
    seed: u64,
    own: Vec<Object>,
    calls: u64,
}

/// One thread's results for a phase.
#[derive(Default)]
struct SessionStats {
    all: Histogram,
    share: Histogram,
    access: Histogram,
    sessions: u64,
    refused: u64,
    failed: u64,
    problems: Vec<String>,
}

impl SessionStats {
    fn merge(&mut self, o: &SessionStats) {
        self.all.merge(&o.all);
        self.share.merge(&o.share);
        self.access.merge(&o.access);
        self.sessions += o.sessions;
        self.refused += o.refused;
        self.failed += o.failed;
        self.problems
            .extend(o.problems.iter().take(5usize.saturating_sub(self.problems.len())).cloned());
    }
}

fn new_crypto(scheme: Scheme) -> Crypto {
    match scheme {
        Scheme::C1 => Crypto::C1(Construction1::new()),
        Scheme::C2 => Crypto::C2(Box::new(Construction2::default_params())),
    }
}

/// Times and counts one session's calls.
struct Caller<'a> {
    env: &'a Env,
    calls: &'a mut u64,
    sid: u64,
    traced: bool,
}

impl Caller<'_> {
    /// One client call, returning its result as is.
    fn raw<R>(&mut self, name: &'static str, f: impl FnOnce(&Env) -> R) -> R {
        *self.calls += 1;
        let env = self.env;
        trace::timed(self.traced, name, self.sid, || f(env))
    }

    /// One client call whose every error fails the session.
    fn call<T, E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&Env) -> Result<T, E>,
    ) -> Result<T, String> {
        self.raw(name, f).map_err(|e| format!("{name}: {e}"))
    }

    /// Local work of the user's device.
    fn local<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        trace::timed(self.traced, name, self.sid, f)
    }
}

impl<'a> User<'a> {
    fn new(env: &'a Env, scheme: Scheme, seed: u64, thread: u64, label: &str) -> Self {
        let rng = stats::stream(seed, &format!("sessions/{label}/{thread}"));
        Self { env, crypto: new_crypto(scheme), rng, thread, seed, own: Vec::new(), calls: 0 }
    }

    /// The sharer flow for a fresh object; returns it.
    fn share(&mut self, object_seed: u64, sid: u64, traced: bool) -> Result<Object, String> {
        let User { env, crypto, rng, calls, thread, .. } = self;
        let mut c = Caller { env, calls, sid, traced };
        let (ctx, object) = object_inputs(object_seed);
        let url = c.call("client.dh.reserve", |e| e.dhc.reserve())?;
        let (record, blob) = match crypto {
            Crypto::C1(c1) => c.local("c1.upload", || {
                c1.upload_to(&object, &ctx, K, url.clone(), None, rng)
                    .map(|up| (up.puzzle.to_bytes(), up.encrypted_object))
            }),
            Crypto::C2(c2) => c.local("c2.upload", || {
                c2.upload_to(&object, &ctx, K, url.clone(), rng)
                    .map(|up| (up.record.to_bytes(), up.ciphertext))
            }),
        }
        .map_err(|e| format!("upload: {e}"))?;
        c.call("client.dh.fill", |e| e.dhc.fill(&url, Bytes::from(blob)))?;
        let id = c.call("client.sp.upload", |e| e.spc.publish_puzzle(Bytes::from(record)))?;
        let author = UserId::from_raw(*thread + 1);
        c.call("client.sp.post", |e| e.spc.post(author, POST_TEXT, id))?;
        Ok(Object { puzzle: id.raw(), seed: object_seed })
    }

    /// The receiver flow against a Zipf-chosen object; `Ok(true)` when
    /// the receiver was (rightly) refused.
    fn access(&mut self, sid: u64, traced: bool) -> Result<bool, String> {
        let population = self.env.preloaded.len() + self.own.len();
        let rank = Zipf::new(population as u64, ZIPF_S).sample(&mut self.rng) as usize - 1;
        let target = match self.env.preloaded.get(rank) {
            Some(o) => *o,
            None => self.own[rank - self.env.preloaded.len()],
        };
        let knows = !self.rng.gen_bool(CLUELESS);
        let (ctx, object) = object_inputs(target.seed);
        let answerer = |q: &str| if knows { ctx.answer_for(q).map(str::to_owned) } else { None };
        let receiver = Receiver {
            id: PuzzleId::from_raw(target.puzzle),
            user: UserId::from_raw(1_000 + self.thread),
            knows,
        };
        let User { env, crypto, rng, calls, .. } = self;
        let mut c = Caller { env, calls, sid, traced };
        let plain = match crypto {
            Crypto::C1(c1) => access_c1(&mut c, c1, &receiver, answerer)?,
            Crypto::C2(c2) => access_c2(&mut c, c2, rng, &receiver, answerer)?,
        };
        match plain {
            None => Ok(true),
            Some(p) if p == object => Ok(false),
            Some(_) => {
                Err(format!("puzzle {} decrypted to other bytes than were shared", target.puzzle))
            }
        }
    }

    /// Runs `n` sessions numbered from `first`; `period > 0` traces every
    /// `period`-th.
    fn sessions(&mut self, n: u64, period: u64, first: u64) -> SessionStats {
        let mut st = SessionStats { sessions: n, ..SessionStats::default() };
        for i in first..first + n {
            let sid = (self.thread + 1) << 48 | (i + 1);
            let traced = period > 0 && i % period == 0;
            let window = traced.then(trace::open_window);
            let share = self.rng.gen_bool(SHARE_SHARE);
            let start = trace::now_ns();
            let result = if share {
                let index = (self.thread << 40) | self.own.len() as u64;
                let object_seed = stats::object_seed(self.seed, "sessions/share", index);
                self.share(object_seed, sid, traced).map(|o| {
                    self.own.push(o);
                    false
                })
            } else {
                self.access(sid, traced)
            };
            let end = trace::now_ns();
            drop(window);
            let ns = end - start;
            st.all.record(ns);
            if share {
                st.share.record(ns);
            } else {
                st.access.record(ns);
            }
            if traced {
                trace::record(
                    if share { "session.share" } else { "session.access" },
                    sid,
                    start,
                    end,
                );
            }
            match result {
                Ok(refused) => st.refused += u64::from(refused),
                Err(e) => {
                    st.failed += 1;
                    if st.problems.len() < 5 {
                        st.problems.push(format!("session {sid:#x}: {e}"));
                    }
                }
            }
        }
        st
    }
}

/// Who attempts which puzzle, and whether they know its answers.
struct Receiver {
    id: PuzzleId,
    user: UserId,
    knows: bool,
}

/// The C1 receiver flow: the plaintext, or `None` when (rightly) refused.
fn access_c1(
    c: &mut Caller<'_>,
    c1: &Construction1,
    r: &Receiver,
    answerer: impl Fn(&str) -> Option<String>,
) -> Result<Option<Vec<u8>>, String> {
    let displayed = c.call("client.sp.display_puzzle", |e| e.spc.display_puzzle(r.id))?;
    if displayed.questions.len() < K {
        return Err(format!("display showed {} questions", displayed.questions.len()));
    }
    let (answers, response) = c.local("c1.answer", || {
        let answers = displayed.answer(answerer);
        let response = c1.answer_puzzle(&displayed, &answers);
        (answers, response)
    });
    let verdict = c.raw("client.sp.verify", |e| e.spc.verify(r.user, r.id, &response));
    let outcome = match (r.knows, verdict) {
        (true, Ok(outcome)) if outcome.released.len() >= K => outcome,
        (false, Err(NetError::Remote { code: ErrorCode::NotEnoughCorrectAnswers, .. })) => {
            return Ok(None)
        }
        (true, Ok(o)) => return Err(format!("verify released {} shares", o.released.len())),
        (false, Ok(_)) => return Err("verify granted a receiver with no answers".into()),
        (_, Err(e)) => return Err(format!("client.sp.verify: {e}")),
    };
    let blob = c.call("client.dh.get", |e| e.dhc.get(&outcome.url))?;
    c.local("c1.access", || {
        c1.access_with_key(&outcome, &answers, &blob, Some(&displayed.puzzle_key))
    })
    .map(Some)
    .map_err(|e| format!("access: {e}"))
}

/// The C2 receiver flow: the plaintext, or `None` when (rightly) refused.
fn access_c2(
    c: &mut Caller<'_>,
    c2: &Construction2,
    rng: &mut StdRng,
    r: &Receiver,
    answerer: impl Fn(&str) -> Option<String>,
) -> Result<Option<Vec<u8>>, String> {
    let bytes = c.call("client.sp.fetch_puzzle", |e| e.spc.fetch_puzzle(r.id))?;
    let (record, details, answers, response) = c
        .local("c2.answer", || {
            let record = Puzzle2Record::from_bytes(&bytes)?;
            let details = record.public_details();
            let answers = details.answer(answerer);
            let response = c2.answer_puzzle(&details, &answers);
            Ok::<_, SocialPuzzleError>((record, details, answers, response))
        })
        .map_err(|e| format!("puzzle record: {e}"))?;
    let verdict = c.local("c2.verify", || c2.verify(&record, &response));
    let granted = verdict.is_ok();
    c.call("client.sp.log_access", |e| e.spc.log_access(r.user, r.id, granted))?;
    let grant = match (r.knows, verdict) {
        (true, Ok(grant)) => grant,
        (false, Err(SocialPuzzleError::NotEnoughCorrectAnswers)) => return Ok(None),
        (false, Ok(_)) => return Err("verify granted a receiver with no answers".into()),
        (_, Err(e)) => return Err(format!("verify: {e}")),
    };
    let blob = c.call("client.dh.get", |e| e.dhc.get(&grant.url))?;
    c.local("c2.access", || c2.access(&grant, &details, &answers, &blob, rng))
        .map(Some)
        .map_err(|e| format!("access: {e}"))
}

/// Boots both daemons, connects the shared pipelined clients, and shares
/// the preloaded objects through the sharer flow from both threads.
fn setup(cfg: &Run, scheme: Scheme, sizes: &Sizes) -> Result<Env, String> {
    let sp = Sp::boot(None, cfg.traced)?;
    let dh = Dh::boot(cfg.traced)?;
    let pipeline = PipelineConfig { depth: THREADS, client: ClientConfig::default() };
    let mut env = Env {
        spc: SpClient::connect_pipelined(sp.addr(), pipeline.clone()),
        dhc: DhClient::connect_pipelined(dh.addr(), pipeline),
        sp,
        dh,
        preloaded: Vec::with_capacity(sizes.preload),
    };
    let half = sizes.preload.div_ceil(THREADS);
    let parts: Vec<Result<Vec<Object>, String>> = std::thread::scope(|s| {
        let env = &env;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let mut user = User::new(env, scheme, cfg.seed, t as u64, "preload");
                    (t * half..((t + 1) * half).min(sizes.preload))
                        .map(|i| {
                            user.share(
                                stats::object_seed(cfg.seed, "sessions/preload", i as u64),
                                0,
                                false,
                            )
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("a preloading thread panicked".into())))
            .collect()
    });
    for part in parts {
        env.preloaded.extend(part?);
    }
    Ok(env)
}

fn teardown(env: Env) -> Result<(), String> {
    let Env { sp, dh, spc, dhc, .. } = env;
    drop((spc, dhc));
    dh.shutdown();
    sp.shutdown()
}

/// Runs one session workload: setup (several times, the median reported),
/// warm-up, then rounds of sessions, all threads starting and ending each
/// round together.
pub fn run(cfg: &Run, scheme: Scheme, sizes: &Sizes) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut env = None;
    for _ in 0..SETUPS {
        if let Some(old) = env.take() {
            teardown(old)?;
        }
        let t = Instant::now();
        env = Some(setup(cfg, scheme, sizes)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let env = env.expect("SETUPS > 0");

    let total = sizes.sessions * (sizes.rounds * THREADS) as u64;
    let period = if cfg.traced { (total / TRACED_SESSIONS).max(1) } else { 0 };
    let barrier = Barrier::new(THREADS + 1);
    let warm = Mutex::new(SessionStats::default());
    let per_round: Vec<Mutex<SessionStats>> = (0..sizes.rounds).map(|_| Mutex::default()).collect();
    let calls = Mutex::new(0u64);
    let mut marks = Vec::new();
    let mut rounds = Rounds::default();
    let mark = || -> Result<Mark, String> {
        Ok(Mark {
            at: Instant::now(),
            usage: Usage::now()?,
            crypto: sp_pairing::stats::snapshot(),
            sp: env.sp.requests(),
            backend: env.sp.backend_calls(),
        })
    };
    std::thread::scope(|s| -> Result<(), String> {
        for t in 0..THREADS {
            let (env, barrier, warm, per_round, calls) =
                (&env, &barrier, &warm, &per_round, &calls);
            std::thread::Builder::new()
                .name(format!("spbench-user-{t}"))
                .spawn_scoped(s, move || {
                    let mut user = User::new(env, scheme, cfg.seed, t as u64, "run");
                    let w = user.sessions(sizes.warmup, 0, 0);
                    warm.lock().unwrap_or_else(PoisonError::into_inner).merge(&w);
                    let before = user.calls;
                    for (r, slot) in per_round.iter().enumerate() {
                        barrier.wait(); // round starts
                        let st = user.sessions(sizes.sessions, period, r as u64 * sizes.sessions);
                        slot.lock().unwrap_or_else(PoisonError::into_inner).merge(&st);
                        barrier.wait(); // round ends
                    }
                    *calls.lock().unwrap_or_else(PoisonError::into_inner) += user.calls - before;
                })
                .map_err(|e| format!("spawning a user thread: {e}"))?;
        }
        if cfg.traced {
            // A sampled session's own spans plus every server and backend
            // span recorded while its window is open, on any one thread.
            trace::start(0, total.min(TRACED_SESSIONS) as usize * 48);
        }
        for _ in 0..sizes.rounds {
            rounds.calibrate();
            barrier.wait();
            marks.push(mark()?);
            barrier.wait();
            marks.push(mark()?);
        }
        rounds.calibrate();
        trace::stop();
        Ok(())
    })?;
    let rss_mb = process::peak_rss_mb()?;
    let server = |m: &ServiceMetrics| m.server("net.server");
    let (sps, dhs) = (server(&env.sp.metrics), server(&env.dh.metrics));
    let cache = env.sp.metrics.cache("sp.puzzle_cache");
    teardown(env)?;

    let warm = warm.into_inner().unwrap_or_else(PoisonError::into_inner);
    let mut out = Outcome {
        attempted: warm.sessions,
        failed: warm.failed,
        problems: warm.problems,
        ..Outcome::default()
    };
    let mut all = SessionStats::default();
    let mut switches = 0;
    for (slot, pair) in per_round.into_iter().zip(marks.chunks(2)) {
        let st = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
        let wall_s = (pair[1].at - pair[0].at).as_secs_f64();
        let (cpu_s, sw) = pair[1].usage.since(&pair[0].usage);
        switches += sw;
        rounds.add(&st.all, cpu_s, st.sessions, st.sessions, wall_s);
        all.merge(&st);
    }
    out.attempted += all.sessions;
    out.failed += all.failed;
    out.problems.extend(all.problems.iter().cloned());
    out.metrics = rounds.metrics(median(&setup_s), rss_mb, &mut out.details);
    out.details.extend([
        Metric::new("share_p50_ms", ms(all.share.quantile(0.5)), "ms"),
        Metric::new("share_p99_ms", ms(all.share.quantile(0.99)), "ms"),
        Metric::new("access_p50_ms", ms(all.access.quantile(0.5)), "ms"),
        Metric::new("access_p99_ms", ms(all.access.quantile(0.99)), "ms"),
        Metric::new(
            "refused_ratio",
            all.refused as f64 / all.access.count().max(1) as f64,
            "ratio",
        ),
    ]);
    if cfg.traced {
        let (first, last) = (&marks[0], &marks[marks.len() - 1]);
        let recording = trace::drain();
        let ledger = Ledger::from_sessions(&recording.spans);
        out.trace = Some(recording);
        out.layers = Some(LayerInputs {
            ops: all.sessions,
            switches,
            client_calls: calls.into_inner().unwrap_or_else(PoisonError::into_inner),
            sp_requests: last.sp - first.sp,
            backend_calls: last.backend - first.backend,
            p99_ns: rounds.pooled_p99(),
            sat_p99_ns: all.all.quantile(0.99),
            busy_rejections: sps.busy_rejections + dhs.busy_rejections,
            queue_peak: sps.queue_peak.max(dhs.queue_peak),
            in_flight_peak: sps.in_flight_peak.max(dhs.in_flight_peak),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            line_hits: last.crypto.line_cache_hits - first.crypto.line_cache_hits,
            line_misses: last.crypto.line_cache_misses - first.crypto.line_cache_misses,
            ledger,
            ..LayerInputs::default()
        });
    }
    Ok(out)
}

/// Clock, process usage and counters at a round boundary.
struct Mark {
    at: Instant,
    usage: Usage,
    crypto: sp_pairing::stats::CryptoStats,
    sp: u64,
    backend: u64,
}
