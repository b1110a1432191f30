//! Crash/restart differential deployment over the durable store.
//!
//! [`C1Durable`] runs Construction 1 with every SP-side mutation routed
//! through a [`DurableProvider`] — the WAL + snapshot engine the
//! daemons use with `--data-dir` — and, under a [`FaultPlan`], arms a
//! file-level fault (process kill at a byte offset, torn final write,
//! or an fsync that silently lost data) before each store session.
//! When the store crashes mid-trace the deployment does what a real
//! operator does: reopen the same directory, let recovery replay the
//! snapshot and log tail, and retry the un-acknowledged operation.
//!
//! The **served** variant ([`C1Durable::served`]) puts the store behind
//! an SP daemon (`SpService<DurableProvider>`) and drives it through
//! [`SpClient`], so each fault lands behind the daemon's batch-wide
//! group commit: a batch whose fsync wait fails is never answered. A
//! `Transport` error there restarts the daemon on the reopened
//! directory.
//!
//! The differential contract is the strongest one in this harness:
//! **decisions still equal the oracle**, crashes or not. That holds
//! because every decision is computed from puzzle bytes fetched back
//! out of the store (possibly across a crash/recovery boundary), so a
//! recovery that loses or mangles an acknowledged record diverges
//! loudly. At the end of each trace the store is reopened once more,
//! clean, and the replayed state is checked against what was
//! acknowledged: the puzzle must round-trip byte-exact and the audit
//! log must hold at least one entry per attempt (crash retries are
//! at-least-once, so duplicates are legal; losses are not).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use crate::seed::SeedSplit;
use bytes::Bytes;
use social_puzzles_core::construction1::{Construction1, Puzzle};
use social_puzzles_core::SocialPuzzleError;
use sp_net::{ClientConfig, Daemon, DaemonConfig, SpClient, SpService};
use sp_osn::{OsnError, ProviderApi, UserId};
use sp_store::{DurableProvider, StoreConfig};

use crate::fault::FaultPlan;
use crate::strategies::Scenario;
use crate::trace::{object_bytes, Decisions, Deployment, TraceError};

/// Tiny segments so every trace rotates several times.
const SEGMENT_BYTES: u64 = 256;
/// Aggressive snapshot cadence so recovery exercises snapshot + tail.
const SNAPSHOT_EVERY: u64 = 4;
/// After this many crash/reopen cycles in one trace, the remaining
/// sessions run clean so the trace always terminates.
const MAX_REOPENS: u64 = 8;

/// Construction 1 with SP state behind the durable WAL + snapshot
/// engine, optionally crash-faulted and recovered mid-trace.
pub struct C1Durable {
    c1: Construction1,
    root: PathBuf,
    plan: Option<FaultPlan>,
    /// Whether the store sits behind an SP daemon.
    served: bool,
    trace_reopens: u64,
    total_reopens: u64,
}

/// One store session: the store itself, or a client of the daemon
/// serving it. Field order is drop order: the client hangs up, then the
/// daemon shuts down and releases the store.
struct Session {
    api: Box<dyn ProviderApi>,
    _daemon: Option<Daemon>,
}

impl C1Durable {
    /// A fault-free durable deployment writing under `root` (one
    /// subdirectory per trace, recreated each run).
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            c1: Construction1::new(),
            root: root.into(),
            plan: None,
            served: false,
            trace_reopens: 0,
            total_reopens: 0,
        }
    }

    /// A deployment that arms one file fault per store session as the
    /// plan dictates, crashing and recovering mid-trace.
    #[must_use]
    pub fn with_faults(root: impl Into<PathBuf>, plan: FaultPlan) -> Self {
        Self { plan: Some(plan), ..Self::new(root) }
    }

    /// Like [`C1Durable::new`] or, with a plan, [`C1Durable::with_faults`],
    /// with the store behind an SP daemon reached through [`SpClient`].
    #[must_use]
    pub fn served(root: impl Into<PathBuf>, plan: Option<FaultPlan>) -> Self {
        Self { plan, served: true, ..Self::new(root) }
    }

    /// Crash/recover cycles survived across every trace so far.
    #[must_use]
    pub fn reopen_count(&self) -> u64 {
        self.total_reopens
    }

    fn open(&mut self, dir: &Path, expected_appends: u64) -> Result<Session, TraceError> {
        let fault = if self.trace_reopens < MAX_REOPENS {
            self.plan.as_mut().and_then(|p| p.next_file_fault(expected_appends))
        } else {
            None
        };
        let store = DurableProvider::open(
            dir,
            StoreConfig {
                segment_bytes: SEGMENT_BYTES,
                snapshot_every: SNAPSHOT_EVERY,
                fault,
                ..StoreConfig::default()
            },
        )
        .map_err(|e| TraceError::Recovery(format!("open {}: {e}", dir.display())))?;
        if !self.served {
            return Ok(Session { api: Box::new(store), _daemon: None });
        }
        let service = SpService::new(store, Construction1::new());
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(service), DaemonConfig::default())
            .map_err(|e| TraceError::Recovery(format!("serving {}: {e}", dir.display())))?;
        let cfg = ClientConfig { backoff: Duration::from_millis(1), ..ClientConfig::default() };
        let api = Box::new(SpClient::connect(daemon.addr(), cfg));
        Ok(Session { api, _daemon: Some(daemon) })
    }

    fn reopen(&mut self, dir: &Path, expected_appends: u64) -> Result<Session, TraceError> {
        self.trace_reopens += 1;
        self.total_reopens += 1;
        self.open(dir, expected_appends)
    }
}

/// Retries `op` across crash/reopen cycles: a `Transport` error means
/// the store crashed before acknowledging (served: the daemon closed an
/// unanswered batch, or answered the crashed store's error), so the
/// caller-supplied `reopen` recovers from disk and the operation
/// replays.
macro_rules! retrying {
    ($store:ident, $this:ident, $dir:expr, $appends:expr, $op:expr) => {
        loop {
            match $op {
                Ok(v) => break v,
                Err(OsnError::Transport) => $store = $this.reopen($dir, $appends)?,
                Err(e) => return Err(e.into()),
            }
        }
    };
}

impl Deployment for C1Durable {
    fn name(&self) -> &'static str {
        match (self.served, self.plan.is_some()) {
            (false, false) => "c1-durable",
            (false, true) => "c1-durable-faulted",
            (true, false) => "c1-durable-served",
            (true, true) => "c1-durable-served-faulted",
        }
    }

    fn run(&mut self, sc: &Scenario, seed: u64) -> Result<Decisions, TraceError> {
        let dir = self.root.join(format!("trace-{seed}"));
        let _ = fs::remove_dir_all(&dir);
        self.trace_reopens = 0;
        let mut rng = SeedSplit::new(seed).stream("c1-durable");
        let object = object_bytes(seed);
        let up = self.c1.upload(&object, &sc.context, sc.k, &mut rng)?;
        let puzzle_bytes = Bytes::from(up.puzzle.to_bytes());
        // One publish plus one audit append per attempt (crash retries
        // add more; this only scales the fault plan's targeting).
        let appends = sc.attempts.len() as u64 + 1;

        let mut store = self.open(&dir, appends)?;
        let id =
            retrying!(store, self, &dir, appends, store.api.publish_puzzle(puzzle_bytes.clone()));
        let user = UserId::from_raw(seed);

        let mut out = Vec::with_capacity(sc.attempts.len());
        for plan in &sc.attempts {
            // Decide from the *stored* puzzle, not the local copy: if a
            // crash/recovery boundary lost or mangled the acknowledged
            // publish, the decision diverges from the oracle right here.
            let fetched = retrying!(store, self, &dir, appends, store.api.fetch_puzzle(id));
            let puzzle = Puzzle::from_bytes(&fetched)?;
            let displayed = self.c1.display_puzzle(&puzzle, &mut rng);
            let answers = plan.answers(&sc.context);
            let response = self.c1.answer_puzzle(&displayed, &answers);
            let decision = match self.c1.verify(&puzzle, &response) {
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
            };
            let granted = matches!(decision, Ok(true));
            retrying!(store, self, &dir, appends, store.api.log_access(user, id, granted));
            out.push(decision);
        }

        // Final recovery audit: a clean reopen must replay exactly the
        // acknowledged state.
        drop(store);
        let recovered = DurableProvider::open(
            &dir,
            StoreConfig {
                segment_bytes: SEGMENT_BYTES,
                snapshot_every: SNAPSHOT_EVERY,
                ..StoreConfig::default()
            },
        )
        .map_err(|e| TraceError::Recovery(format!("final reopen: {e}")))?;
        let replayed = recovered
            .fetch_puzzle(id)
            .map_err(|e| TraceError::Recovery(format!("puzzle {id:?} lost in replay: {e}")))?;
        if replayed != puzzle_bytes {
            return Err(TraceError::Recovery(format!(
                "puzzle {id:?} replayed {} bytes, acknowledged {}",
                replayed.len(),
                puzzle_bytes.len()
            )));
        }
        let audited = recovered.in_memory().audit_log().len();
        if audited < sc.attempts.len() {
            return Err(TraceError::Recovery(format!(
                "{audited} audit entries replayed for {} acknowledged attempts",
                sc.attempts.len()
            )));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::run_differential;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sp-testkit-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn clean_durable_deployment_agrees_with_the_oracle() {
        let root = scratch("clean");
        let mut dep = C1Durable::new(&root);
        let mut deps: Vec<&mut dyn Deployment> = vec![&mut dep];
        let report = run_differential(0xD07A, 6, &mut deps).unwrap();
        assert_eq!(report.traces, 6);
        assert!(report.grants > 0 && report.denials > 0, "one-sided run: {report:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn crash_recovery_still_agrees_with_the_oracle() {
        let root = scratch("faulted");
        // A high fault rate so kills actually land in these short traces.
        let mut dep = C1Durable::with_faults(&root, FaultPlan::with_rate(0xFA11, 80));
        let mut deps: Vec<&mut dyn Deployment> = vec![&mut dep];
        let report = run_differential(0xD07B, 8, &mut deps).unwrap();
        assert_eq!(report.traces, 8);
        assert!(dep.reopen_count() > 0, "80% fault rate over 8 traces never crashed the store");
        let _ = fs::remove_dir_all(&root);
    }
}
