//! Differential trace driver: one generated scenario, every deployment.
//!
//! The paper defines the access decision abstractly — a receiver gets
//! the object iff at least `k` of their answers are correct — and this
//! workspace implements that decision four independent ways:
//! Construction 1 (Shamir shares, §V-A) in memory, Construction 1 over
//! live sockets (single and batched `Verify`), Construction 2 (CP-ABE,
//! §V-B), and the trivial all-answers baseline (§III). The driver
//! generates random scenarios from a seed, replays each against every
//! [`Deployment`], and asserts that every decision equals the oracle
//! `correct_answers ≥ effective_k` — where `effective_k` is `k` for the
//! real constructions and `n` for the trivial baseline, which is exactly
//! the usability gap the paper's constructions close.
//!
//! Under fault injection (see [`crate::fault`]) decision *equality* is
//! no longer the contract — a bit-flipped frame may legitimately change
//! an answer hash — but typed-error totality still is: every operation
//! must return `Ok` or a typed error, never panic, never hang. That is
//! what [`run_faulted`] checks.

use std::sync::Arc;

use bytes::Bytes;
use proptest::strategy::Strategy;

use crate::seed::SeedSplit;
use social_puzzles_core::construction1::Construction1;
use social_puzzles_core::construction2::Construction2;
use social_puzzles_core::context::{Context, ContextPair};
use social_puzzles_core::trivial;
use social_puzzles_core::SocialPuzzleError;
use sp_net::{
    ClientConfig, Daemon, DaemonConfig, ErrorCode, NetError, PipelineConfig, SpClient, SpService,
};
use sp_osn::{OsnError, ProviderApi, ServiceProvider, Url, UserId};

use crate::strategies::{scenario, AnswerKind, Scenario};

/// A typed failure from one deployment operation. Everything a
/// deployment can do wrong is one of these — a panic or a hang is a
/// harness bug by definition.
#[derive(Debug)]
pub enum TraceError {
    /// A scheme-level error (upload, verify, access).
    Scheme(SocialPuzzleError),
    /// A transport or remote error from a socket deployment.
    Net(NetError),
    /// A provider error surfaced through the `ProviderApi` client.
    Provider(OsnError),
    /// Access was granted but the decrypted object was not the original.
    ObjectMismatch,
    /// A durable store failed to recover, or recovered state that
    /// disagrees with what was acknowledged before the crash.
    Recovery(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Scheme(e) => write!(f, "scheme error: {e}"),
            Self::Net(e) => write!(f, "net error: {e}"),
            Self::Provider(e) => write!(f, "provider error: {e}"),
            Self::ObjectMismatch => write!(f, "granted, but decrypted object differs"),
            Self::Recovery(detail) => write!(f, "recovery failure: {detail}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<SocialPuzzleError> for TraceError {
    fn from(e: SocialPuzzleError) -> Self {
        Self::Scheme(e)
    }
}

impl From<NetError> for TraceError {
    fn from(e: NetError) -> Self {
        Self::Net(e)
    }
}

impl From<OsnError> for TraceError {
    fn from(e: OsnError) -> Self {
        Self::Provider(e)
    }
}

/// Per-attempt outcomes of one scenario: granted, denied, or a typed
/// error for that attempt.
pub type Decisions = Vec<Result<bool, TraceError>>;

/// One way of running the social-puzzles protocol end to end.
pub trait Deployment {
    /// Human-readable name for divergence reports.
    fn name(&self) -> &'static str;

    /// The threshold this deployment actually enforces when the sharer
    /// asks for `k` out of `n`. The trivial baseline returns `n`.
    fn effective_k(&self, k: usize, n: usize) -> usize {
        let _ = n;
        k
    }

    /// Uploads the scenario's object and replays every attempt,
    /// returning one decision per attempt. The outer `Err` is for setup
    /// (upload/display) failures.
    ///
    /// # Errors
    ///
    /// Typed errors only — implementations must not panic on any input.
    fn run(&mut self, sc: &Scenario, seed: u64) -> Result<Decisions, TraceError>;
}

/// The object every scenario shares, derived from the seed so that a
/// granted attempt can check it decrypted the right bytes.
#[must_use]
pub fn object_bytes(seed: u64) -> Vec<u8> {
    format!("object-{seed}-🔒").into_bytes()
}

// ---------------------------------------------------------------------
// Construction 1, in memory.

/// Construction 1 with no network: the reference decision-maker.
#[derive(Default)]
pub struct C1InMemory {
    c1: Construction1,
}

impl C1InMemory {
    /// Default-hash Construction 1.
    #[must_use]
    pub fn new() -> Self {
        Self { c1: Construction1::new() }
    }
}

impl Deployment for C1InMemory {
    fn name(&self) -> &'static str {
        "c1-in-memory"
    }

    fn run(&mut self, sc: &Scenario, seed: u64) -> Result<Decisions, TraceError> {
        let mut rng = SeedSplit::new(seed).stream(self.name());
        let object = object_bytes(seed);
        let up = self.c1.upload(&object, &sc.context, sc.k, &mut rng)?;
        let mut out = Vec::with_capacity(sc.attempts.len());
        for plan in &sc.attempts {
            let displayed = self.c1.display_puzzle(&up.puzzle, &mut rng);
            let answers = plan.answers(&sc.context);
            let response = self.c1.answer_puzzle(&displayed, &answers);
            out.push(match self.c1.verify(&up.puzzle, &response) {
                Err(SocialPuzzleError::NotEnoughCorrectAnswers) => Ok(false),
                Err(e) => Err(e.into()),
                Ok(outcome) => match self.c1.access_with_key(
                    &outcome,
                    &answers,
                    &up.encrypted_object,
                    Some(&displayed.puzzle_key),
                ) {
                    Ok(got) if got == object => Ok(true),
                    Ok(_) => Err(TraceError::ObjectMismatch),
                    Err(e) => Err(e.into()),
                },
            });
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Construction 1 over live sockets.

/// Construction 1 with `DisplayPuzzle`/`Verify` running server-side on a
/// real [`Daemon`], reached through [`SpClient`] — optionally with every
/// scenario's attempts sent as one `AnswerPuzzleBatch` frame.
pub struct C1Socket {
    batched: bool,
    pipelined: bool,
    c1: Construction1,
    client: SpClient,
    /// Owned when self-booted; `None` when pointed at an external
    /// address (e.g. a fault-injecting proxy).
    daemon: Option<Daemon>,
}

impl C1Socket {
    /// Boots a private SP daemon on an ephemeral port and connects.
    ///
    /// # Panics
    ///
    /// Panics if the ephemeral bind fails (setup, not protocol).
    #[must_use]
    pub fn boot(batched: bool) -> Self {
        let daemon = boot_sp_daemon();
        let client = SpClient::connect(daemon.addr(), ClientConfig::default());
        Self { batched, pipelined: false, c1: Construction1::new(), client, daemon: Some(daemon) }
    }

    /// Like [`C1Socket::boot`], but over the pipelined v2 transport: the
    /// same protocol driven through a [`sp_net::PipelinedConnection`]
    /// with `depth` requests in flight.
    ///
    /// # Panics
    ///
    /// Panics if the ephemeral bind fails (setup, not protocol).
    #[must_use]
    pub fn boot_pipelined(batched: bool, depth: usize) -> Self {
        let daemon = boot_sp_daemon();
        let client = SpClient::connect_pipelined(
            daemon.addr(),
            PipelineConfig { depth, client: ClientConfig::default() },
        );
        Self { batched, pipelined: true, c1: Construction1::new(), client, daemon: Some(daemon) }
    }

    /// Connects to an SP daemon (or a proxy in front of one) that
    /// something else owns.
    #[must_use]
    pub fn connect(addr: std::net::SocketAddr, cfg: ClientConfig, batched: bool) -> Self {
        Self {
            batched,
            pipelined: false,
            c1: Construction1::new(),
            client: SpClient::connect(addr, cfg),
            daemon: None,
        }
    }

    /// Connects a **pipelined** client to an SP daemon (or a
    /// [`crate::pipefault::PipelinedProxy`] in front of one) that
    /// something else owns.
    #[must_use]
    pub fn connect_pipelined(
        addr: std::net::SocketAddr,
        cfg: PipelineConfig,
        batched: bool,
    ) -> Self {
        Self {
            batched,
            pipelined: true,
            c1: Construction1::new(),
            client: SpClient::connect_pipelined(addr, cfg),
            daemon: None,
        }
    }

    /// Shuts down the owned daemon, if any.
    pub fn shutdown(mut self) {
        if let Some(d) = self.daemon.take() {
            d.shutdown();
        }
    }
}

/// A private SP daemon on an ephemeral port.
fn boot_sp_daemon() -> Daemon {
    let service = SpService::new(ServiceProvider::new(), Construction1::new());
    Daemon::spawn("127.0.0.1:0", Arc::new(service), DaemonConfig::default())
        .expect("ephemeral bind")
}

/// Maps one remote verify result onto a decision slot.
pub(crate) fn decide_remote(
    result: Result<social_puzzles_core::construction1::VerifyOutcome, NetError>,
    check_access: impl FnOnce(
        social_puzzles_core::construction1::VerifyOutcome,
    ) -> Result<bool, TraceError>,
) -> Result<bool, TraceError> {
    match result {
        Ok(outcome) => check_access(outcome),
        Err(NetError::Remote { code: ErrorCode::NotEnoughCorrectAnswers, .. }) => Ok(false),
        Err(e) => Err(e.into()),
    }
}

impl Deployment for C1Socket {
    fn name(&self) -> &'static str {
        match (self.pipelined, self.batched) {
            (false, false) => "c1-socket",
            (false, true) => "c1-socket-batched",
            (true, false) => "c1-socket-pipelined",
            (true, true) => "c1-socket-pipelined-batched",
        }
    }

    fn run(&mut self, sc: &Scenario, seed: u64) -> Result<Decisions, TraceError> {
        let mut rng = SeedSplit::new(seed).stream("c1-socket");
        let object = object_bytes(seed);
        let url = Url::from(format!("dh://trace/{seed}").as_str());
        let up = self.c1.upload_to(&object, &sc.context, sc.k, url, None, &mut rng)?;
        let id = self.client.publish_puzzle(Bytes::from(up.puzzle.to_bytes()))?;
        let displayed = self.client.display_puzzle(id)?;
        let user = UserId::from_raw(seed);

        let answers: Vec<Vec<(usize, String)>> =
            sc.attempts.iter().map(|p| p.answers(&sc.context)).collect();
        let responses: Vec<_> =
            answers.iter().map(|a| self.c1.answer_puzzle(&displayed, a)).collect();
        let check = |attempt: usize, outcome| match self.c1.access_with_key(
            &outcome,
            &answers[attempt],
            &up.encrypted_object,
            Some(&displayed.puzzle_key),
        ) {
            Ok(got) if got == object => Ok(true),
            Ok(_) => Err(TraceError::ObjectMismatch),
            Err(e) => Err(TraceError::Scheme(e)),
        };

        if self.batched {
            let slots = self.client.answer_puzzle_batch(user, id, &responses)?;
            Ok(slots
                .into_iter()
                .enumerate()
                .map(|(i, slot)| decide_remote(slot, |outcome| check(i, outcome)))
                .collect())
        } else if self.pipelined {
            // Launch every attempt at once so they genuinely share the
            // pipeline (and any fault proxy sees many requests in
            // flight), then decide in attempt order.
            let client = &self.client;
            let verdicts: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = responses
                    .iter()
                    .map(|response| s.spawn(move || client.verify(user, id, response)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("verify panicked")).collect()
            });
            Ok(verdicts
                .into_iter()
                .enumerate()
                .map(|(i, verdict)| decide_remote(verdict, |outcome| check(i, outcome)))
                .collect())
        } else {
            Ok(responses
                .iter()
                .enumerate()
                .map(|(i, response)| {
                    decide_remote(self.client.verify(user, id, response), |outcome| {
                        check(i, outcome)
                    })
                })
                .collect())
        }
    }
}

// ---------------------------------------------------------------------
// Construction 2, in memory.

/// Construction 2 (CP-ABE) with the small insecure test parameters —
/// the decision logic is identical to production parameters, only the
/// group sizes differ.
pub struct C2InMemory {
    c2: Construction2,
}

impl Default for C2InMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl C2InMemory {
    /// Test-parameter Construction 2.
    #[must_use]
    pub fn new() -> Self {
        Self { c2: Construction2::insecure_test_params() }
    }
}

impl Deployment for C2InMemory {
    fn name(&self) -> &'static str {
        "c2-in-memory"
    }

    fn run(&mut self, sc: &Scenario, seed: u64) -> Result<Decisions, TraceError> {
        let mut rng = SeedSplit::new(seed).stream(self.name());
        let object = object_bytes(seed);
        let up = self.c2.upload(&object, &sc.context, sc.k, &mut rng)?;
        let details = up.record.public_details();
        let mut out = Vec::with_capacity(sc.attempts.len());
        for plan in &sc.attempts {
            let answers = plan.answers(&sc.context);
            let response = self.c2.answer_puzzle(&details, &answers);
            out.push(match self.c2.verify(&up.record, &response) {
                Err(SocialPuzzleError::NotEnoughCorrectAnswers) => Ok(false),
                Err(e) => Err(e.into()),
                Ok(grant) => {
                    match self.c2.access(&grant, &details, &answers, &up.ciphertext, &mut rng) {
                        Ok(got) if got == object => Ok(true),
                        Ok(_) => Err(TraceError::ObjectMismatch),
                        Err(e) => Err(e.into()),
                    }
                }
            });
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Trivial baseline.

/// The §III baseline: the object is encrypted under *all* answers, so
/// the effective threshold is `n` no matter what `k` the sharer wanted.
#[derive(Default)]
pub struct TrivialInMemory;

impl TrivialInMemory {
    /// The baseline deployment.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Deployment for TrivialInMemory {
    fn name(&self) -> &'static str {
        "trivial-baseline"
    }

    fn effective_k(&self, _k: usize, n: usize) -> usize {
        n
    }

    fn run(&mut self, sc: &Scenario, seed: u64) -> Result<Decisions, TraceError> {
        let mut rng = SeedSplit::new(seed).stream(self.name());
        let object = object_bytes(seed);
        let ct = trivial::encrypt(&object, &sc.context, &mut rng);
        let mut out = Vec::with_capacity(sc.attempts.len());
        for plan in &sc.attempts {
            // The baseline receiver must claim a full context; a skipped
            // question becomes a placeholder that cannot match.
            let pairs = sc
                .context
                .pairs()
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let answer = match plan.kinds[i] {
                        AnswerKind::Correct => p.answer().to_owned(),
                        AnswerKind::Wrong => format!("{}✗wrong", p.answer()),
                        AnswerKind::Skip => "⊥unanswered".to_owned(),
                    };
                    ContextPair::new(p.question().to_owned(), answer)
                })
                .collect();
            let claimed = Context::from_pairs(pairs)?;
            // CBC padding can validate by fluke under a wrong key, so the
            // decision is "decrypts to the right bytes", not "decrypts".
            out.push(Ok(matches!(trivial::decrypt(&ct, &claimed), Ok(got) if got == object)));
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Drivers.

/// What a differential run covered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DifferentialReport {
    /// Scenarios replayed.
    pub traces: usize,
    /// Decisions checked (attempts × deployments).
    pub decisions: usize,
    /// How many of those were grants.
    pub grants: usize,
    /// How many were denials.
    pub denials: usize,
}

/// Replays `traces` seeded scenarios (seeds `base_seed..base_seed +
/// traces`) against every deployment and checks each decision against
/// the oracle. Returns the first divergence as a message naming the
/// seed, deployment, and attempt — rerunning with that seed reproduces
/// it exactly.
///
/// # Errors
///
/// A human-readable divergence/setup-failure description.
pub fn run_differential(
    base_seed: u64,
    traces: usize,
    deployments: &mut [&mut dyn Deployment],
) -> Result<DifferentialReport, String> {
    let mut report = DifferentialReport::default();
    for t in 0..traces {
        let seed = base_seed + t as u64;
        let sc = scenario().generate(&mut SeedSplit::new(seed).scenario_rng());
        let n = sc.context.len();
        for dep in deployments.iter_mut() {
            let decisions = dep
                .run(&sc, seed)
                .map_err(|e| format!("[seed {seed}] {}: setup failed: {e}", dep.name()))?;
            if decisions.len() != sc.attempts.len() {
                return Err(format!(
                    "[seed {seed}] {}: {} decisions for {} attempts",
                    dep.name(),
                    decisions.len(),
                    sc.attempts.len()
                ));
            }
            let k = dep.effective_k(sc.k, n);
            for (i, (plan, got)) in sc.attempts.iter().zip(&decisions).enumerate() {
                let want = plan.expected_granted(k);
                match got {
                    Ok(g) if *g == want => {
                        report.decisions += 1;
                        if want {
                            report.grants += 1;
                        } else {
                            report.denials += 1;
                        }
                    }
                    Ok(g) => {
                        return Err(format!(
                            "[seed {seed}] {} diverged on attempt {i}: decided {g}, oracle says \
                             {want} (k={k} of n={n}, {} correct answers)",
                            dep.name(),
                            plan.correct_count()
                        ))
                    }
                    Err(e) => {
                        return Err(format!(
                            "[seed {seed}] {} errored on attempt {i}: {e}",
                            dep.name()
                        ))
                    }
                }
            }
        }
        report.traces += 1;
    }
    Ok(report)
}

/// What a faulted run survived.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Scenarios replayed.
    pub traces: usize,
    /// Attempts that produced a decision.
    pub decided: usize,
    /// Attempts (or whole scenarios) that ended in a typed error.
    pub typed_errors: usize,
}

/// Replays seeded scenarios against one (fault-injected) deployment.
/// Divergence is not checked — corruption may legitimately flip answer
/// bits — but every operation must complete with a decision or a typed
/// error. A panic fails the calling test; a hang is bounded by the
/// client's timeouts.
pub fn run_faulted(base_seed: u64, traces: usize, deployment: &mut dyn Deployment) -> FaultReport {
    let mut report = FaultReport::default();
    for t in 0..traces {
        let seed = base_seed + t as u64;
        let sc = scenario().generate(&mut SeedSplit::new(seed).scenario_rng());
        match deployment.run(&sc, seed) {
            Ok(decisions) => {
                for d in decisions {
                    match d {
                        Ok(_) => report.decided += 1,
                        Err(_) => report.typed_errors += 1,
                    }
                }
            }
            Err(_) => report.typed_errors += 1,
        }
        report.traces += 1;
    }
    report
}

/// Like [`run_faulted`], but for **non-corrupting** fault plans
/// ([`crate::fault::FaultPlan::benign`]): frames may be delayed, lost,
/// or cut off — but never altered — so any attempt that *does* produce
/// a decision must produce the oracle's decision. Typed errors (retry
/// exhaustion) remain acceptable; wrong decisions are not.
///
/// # Errors
///
/// A human-readable description of the first wrong decision.
pub fn run_faulted_strict(
    base_seed: u64,
    traces: usize,
    deployment: &mut dyn Deployment,
) -> Result<FaultReport, String> {
    let mut report = FaultReport::default();
    for t in 0..traces {
        let seed = base_seed + t as u64;
        let sc = scenario().generate(&mut SeedSplit::new(seed).scenario_rng());
        let k = deployment.effective_k(sc.k, sc.context.len());
        match deployment.run(&sc, seed) {
            Ok(decisions) => {
                for (i, (plan, d)) in sc.attempts.iter().zip(&decisions).enumerate() {
                    match d {
                        Ok(g) if *g == plan.expected_granted(k) => report.decided += 1,
                        Ok(g) => {
                            return Err(format!(
                                "[seed {seed}] {} decided {g} on attempt {i} under benign \
                                 faults; oracle says {} ({} correct, k={k})",
                                deployment.name(),
                                plan.expected_granted(k),
                                plan.correct_count()
                            ))
                        }
                        Err(_) => report.typed_errors += 1,
                    }
                }
            }
            Err(_) => report.typed_errors += 1,
        }
        report.traces += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::TestRng;

    #[test]
    fn in_memory_deployments_agree_with_the_oracle() {
        let mut c1 = C1InMemory::new();
        let mut trivial = TrivialInMemory::new();
        let mut deps: Vec<&mut dyn Deployment> = vec![&mut c1, &mut trivial];
        let report = run_differential(0x0D5A, 25, &mut deps).unwrap();
        assert_eq!(report.traces, 25);
        assert!(report.grants > 0, "no grants exercised: {report:?}");
        assert!(report.denials > 0, "no denials exercised: {report:?}");
    }

    #[test]
    fn trivial_baseline_denies_what_c1_grants() {
        // The usability gap in one number: with k < n, partial knowledge
        // that satisfies C1 must fail the all-answers baseline. Find one
        // generated attempt in that gap and check both decisions.
        let mut c1 = C1InMemory::new();
        let mut trivial = TrivialInMemory::new();
        let mut checked = 0;
        for seed in 0..200u64 {
            let sc = scenario().generate(&mut TestRng::new(seed));
            let n = sc.context.len();
            let gap = sc.attempts.iter().any(|p| {
                let c = p.correct_count();
                c >= sc.k && c < n
            });
            if !gap {
                continue;
            }
            let c1_dec = c1.run(&sc, seed).unwrap();
            let tr_dec = trivial.run(&sc, seed).unwrap();
            for (i, p) in sc.attempts.iter().enumerate() {
                let c = p.correct_count();
                if c >= sc.k && c < n {
                    assert_eq!(c1_dec[i].as_ref().unwrap(), &true, "seed {seed} attempt {i}");
                    assert_eq!(tr_dec[i].as_ref().unwrap(), &false, "seed {seed} attempt {i}");
                    checked += 1;
                }
            }
            if checked >= 5 {
                break;
            }
        }
        assert!(checked > 0, "no gap attempts generated in 200 seeds");
    }

    #[test]
    fn socket_deployments_agree_with_the_oracle() {
        let mut single = C1Socket::boot(false);
        let mut batched = C1Socket::boot(true);
        let mut deps: Vec<&mut dyn Deployment> = vec![&mut single, &mut batched];
        let report = run_differential(0x50C7, 8, &mut deps).unwrap();
        assert_eq!(report.traces, 8);
        assert!(report.grants > 0 && report.denials > 0, "one-sided run: {report:?}");
    }

    #[test]
    fn c2_agrees_with_the_oracle() {
        // CP-ABE is slow even with test parameters; a handful of traces
        // is enough for the fast tier (the ignored differential test in
        // tests/ covers more).
        let mut c2 = C2InMemory::new();
        let mut deps: Vec<&mut dyn Deployment> = vec![&mut c2];
        let report = run_differential(0xC2, 4, &mut deps).unwrap();
        assert_eq!(report.traces, 4);
    }
}
