//! Durable-storage correctness: the WAL record codec property-tested
//! over the shared strategy space, crash/restart differential traces
//! over the `sp-store` engine (in process and behind an SP daemon), and
//! the daemon's batch-wide group commit over a durable SP.
//!
//! The codec properties and the small trace runs execute in the fast
//! tier. The heavy crash-recovery runs are `#[ignore]`d so
//! `cargo test -q` stays quick; the CI `storage-recovery-smoke` job
//! executes them with `cargo test -p sp-testkit --test storage --
//! --include-ignored`. Every trace and every fault is a pure function
//! of its seed — a failure message names the seed, and rerunning
//! reproduces it exactly.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use proptest::strategy::Strategy;
use proptest::TestRng;
use rand::rngs::StdRng;
use rand::SeedableRng;
use social_puzzles_core::construction1::{Construction1, PuzzleResponse};
use social_puzzles_core::context::Context;
use sp_net::dedup::wrap_idempotent;
use sp_net::frame::{read_frame, read_frame_v2, write_frame, write_frame_v2};
use sp_net::msg::{decode_response, decode_verify_outcome, hello_frame, is_hello_ack, SpRequest};
use sp_net::{ClientConfig, Daemon, DaemonConfig, SpClient, SpService, DEFAULT_MAX_FRAME};
use sp_osn::{ProviderApi, PuzzleId, Url};
use sp_store::FRAME_HEADER_LEN;
use sp_store::{scan_frame, DurableProvider, FileFault, Record, ScanStep, StoreConfig};
use sp_testkit::strategies::wal_record;
use sp_testkit::{run_differential, C1Durable, C1InMemory, Deployment, FaultPlan};

/// Fixed base seed for the smoke runs, so CI failures are reproducible
/// and comparable across machines.
const SMOKE_SEED: u64 = 0x570_2014;

// ---------------------------------------------------------------------
// WAL record codec properties.

#[test]
fn wal_codec_round_trips_every_record_kind() {
    let mut rng = TestRng::new(0xC0DEC);
    for i in 0..512u64 {
        let record = wal_record().generate(&mut rng);
        let seq = i + 1;
        let frame = record.frame(seq);
        match scan_frame(&frame) {
            ScanStep::Complete { seq: got_seq, record: got, consumed } => {
                assert_eq!(got_seq, seq);
                assert_eq!(got, record, "round-trip mismatch at iteration {i}");
                assert_eq!(consumed, frame.len(), "frame not fully consumed");
            }
            other => panic!("valid frame did not scan Complete: {other:?}"),
        }
    }
}

#[test]
fn wal_codec_rejects_every_single_bit_flip_as_corrupt_or_incomplete() {
    let mut rng = TestRng::new(0xB17);
    for i in 0..64u64 {
        let record = wal_record().generate(&mut rng);
        let frame = record.frame(i + 1).to_vec();
        // Flipping any one bit must never yield the original record:
        // either the CRC catches it (Corrupt), or the flip landed in
        // the length field and the frame now claims a different size
        // (Incomplete, or Corrupt via a bogus length).
        let bit = (rng.below(frame.len() as u64 * 8)) as usize;
        let mut mangled = frame.clone();
        mangled[bit / 8] ^= 1 << (bit % 8);
        match scan_frame(&mangled) {
            ScanStep::Complete { record: got, .. } => {
                panic!("bit {bit} flip went undetected (iteration {i}): {got:?}")
            }
            ScanStep::Corrupt { .. } | ScanStep::Incomplete => {}
        }
    }
}

#[test]
fn wal_codec_treats_every_truncation_as_incomplete_never_complete() {
    let mut rng = TestRng::new(0x7046);
    for i in 0..64u64 {
        let record = wal_record().generate(&mut rng);
        let frame = record.frame(i + 1);
        // A torn final write is a strict prefix of the frame. Recovery
        // must classify it Incomplete (truncate and continue), never
        // Complete — and prefixes shorter than the header can't even be
        // Corrupt, because there is no CRC to disbelieve yet.
        for cut in 0..frame.len() {
            match scan_frame(&frame[..cut]) {
                ScanStep::Complete { .. } => panic!("{cut}-byte prefix scanned Complete"),
                ScanStep::Corrupt { detail } if cut < FRAME_HEADER_LEN => {
                    panic!("{cut}-byte prefix (shorter than the header) Corrupt: {detail}")
                }
                _ => {}
            }
        }
    }
}

#[test]
fn wal_codec_rejects_oversized_length_claims() {
    // A frame whose header claims more than MAX_RECORD_LEN is hostile
    // input, not a short read: it must scan Corrupt, not Incomplete
    // (Incomplete would make recovery wait forever for bytes that are
    // never coming).
    let mut frame = Record::DeletePuzzle { id: 1 }.frame(1).to_vec();
    frame[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(
        matches!(scan_frame(&frame), ScanStep::Corrupt { .. }),
        "absurd length claim not rejected"
    );
}

// ---------------------------------------------------------------------
// Crash/restart differential traces.

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sp-testkit-storage-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn durable_smoke_agrees_with_the_in_memory_oracle() {
    let root = scratch("smoke");
    let mut mem = C1InMemory::new();
    let mut durable = C1Durable::new(&root);
    let mut deps: Vec<&mut dyn Deployment> = vec![&mut mem, &mut durable];
    let report = run_differential(SMOKE_SEED, 8, &mut deps).unwrap();
    assert_eq!(report.traces, 8);
    assert!(report.grants > 0 && report.denials > 0, "one-sided smoke run: {report:?}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn crash_recovery_smoke_replays_to_the_oracle_decision() {
    let root = scratch("crash-smoke");
    let mut durable = C1Durable::with_faults(&root, FaultPlan::with_rate(SMOKE_SEED, 80));
    let mut deps: Vec<&mut dyn Deployment> = vec![&mut durable];
    let report = run_differential(SMOKE_SEED + 1, 8, &mut deps).unwrap();
    assert_eq!(report.traces, 8);
    assert!(durable.reopen_count() > 0, "80% fault rate never crashed the store");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
#[ignore = "heavy: 220 crash/restart traces; CI runs with --include-ignored"]
fn crash_recovery_220_traces_zero_divergence() {
    let root = scratch("heavy");
    // Every store session draws from the fault menu — kill-at-offset,
    // torn write, partial fsync — at a rate high enough that most
    // traces crash at least once; MAX_REOPENS guarantees termination.
    let mut durable = C1Durable::with_faults(&root, FaultPlan::with_rate(0xD154_57E4, 70));
    let mut deps: Vec<&mut dyn Deployment> = vec![&mut durable];
    let report = run_differential(2014, 220, &mut deps).unwrap();
    assert_eq!(report.traces, 220);
    assert!(report.decisions >= 220, "suspiciously few decisions: {report:?}");
    assert!(report.grants > 50, "grants under-exercised: {report:?}");
    assert!(report.denials > 50, "denials under-exercised: {report:?}");
    assert!(
        durable.reopen_count() >= 100,
        "only {} crash/recover cycles across 220 traces — faults not firing",
        durable.reopen_count()
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
#[ignore = "heavy: durable deployment against every in-memory oracle run"]
fn durable_100_traces_agree_with_in_memory() {
    let root = scratch("heavy-agree");
    let mut mem = C1InMemory::new();
    let mut durable = C1Durable::new(&root);
    let mut deps: Vec<&mut dyn Deployment> = vec![&mut mem, &mut durable];
    let report = run_differential(0xA64E, 100, &mut deps).unwrap();
    assert_eq!(report.traces, 100);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn served_crash_recovery_smoke_replays_to_the_oracle_decision() {
    let root = scratch("served-crash-smoke");
    let mut durable = C1Durable::served(&root, Some(FaultPlan::with_rate(SMOKE_SEED, 80)));
    let mut deps: Vec<&mut dyn Deployment> = vec![&mut durable];
    let report = run_differential(SMOKE_SEED + 1, 8, &mut deps).unwrap();
    assert_eq!(report.traces, 8);
    assert!(durable.reopen_count() > 0, "80% fault rate never crashed the served store");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
#[ignore = "heavy: 220 crash/restart traces through an SP daemon; CI runs with --include-ignored"]
fn served_crash_recovery_220_traces_zero_divergence() {
    let root = scratch("served-heavy");
    // The same plan and traces as the in-process battery above, with
    // every store operation crossing the daemon's batch group commit.
    let plan = FaultPlan::with_rate(0xD154_57E4, 70);
    let mut durable = C1Durable::served(&root, Some(plan));
    let mut deps: Vec<&mut dyn Deployment> = vec![&mut durable];
    let report = run_differential(2014, 220, &mut deps).unwrap();
    assert_eq!(report.traces, 220);
    assert!(report.grants > 50 && report.denials > 50, "one-sided run: {report:?}");
    assert!(durable.reopen_count() >= 100, "only {} reopens", durable.reopen_count());
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// The daemon's batch-wide group commit over a durable SP.

/// A durable SP behind a daemon, with one published puzzle and a
/// correct response to it.
struct ServedSp {
    daemon: Daemon,
    service: Arc<SpService<DurableProvider>>,
    puzzle: PuzzleId,
    response: PuzzleResponse,
}

impl ServedSp {
    fn boot(dir: &std::path::Path, fault: Option<FileFault>) -> Self {
        let c1 = Construction1::new();
        let store = DurableProvider::open(dir, StoreConfig { fault, ..StoreConfig::default() });
        let service = Arc::new(SpService::new(store.unwrap(), c1.clone()));
        let daemon =
            Daemon::spawn("127.0.0.1:0", Arc::clone(&service) as _, DaemonConfig::default());
        let daemon = daemon.unwrap();
        let ctx = Context::builder().pair("Where?", "the boathouse").build().unwrap();
        let mut rng = StdRng::seed_from_u64(64);
        let up = c1.upload_to(b"object", &ctx, 1, Url::from("dh://t/1"), None, &mut rng).unwrap();
        let client = SpClient::connect(daemon.addr(), ClientConfig::default());
        let puzzle = client.publish_puzzle(Bytes::from(up.puzzle.to_bytes())).unwrap();
        let displayed = client.display_puzzle(puzzle).unwrap();
        let response = c1.answer_puzzle(&displayed, &[(0, "the boathouse".to_owned())]);
        Self { daemon, service, puzzle, response }
    }

    /// A connection that completed the HELLO exchange.
    fn open(&self) -> TcpStream {
        let mut conn = TcpStream::connect(self.daemon.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write_frame(&mut conn, &hello_frame(), DEFAULT_MAX_FRAME).unwrap();
        let ack = read_frame(&mut conn, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert!(is_hello_ack(decode_response(&ack).unwrap()));
        conn
    }

    /// `Verify` frames under correlation ids (and equal idempotency
    /// tokens) `corrs`, as one burst.
    fn verify_burst(&self, corrs: std::ops::Range<u64>) -> Vec<u8> {
        let mut burst = Vec::new();
        for corr in corrs {
            let (puzzle, response) = (self.puzzle.raw(), self.response.clone());
            let request = SpRequest::Verify { user: corr, puzzle, response };
            let payload = wrap_idempotent(corr, &request.encode());
            write_frame_v2(&mut burst, corr, &payload, DEFAULT_MAX_FRAME).unwrap();
        }
        burst
    }
}

/// Reads one answer, which must be a granted `Verify` under `corr`.
fn expect_granted(conn: &mut TcpStream, corr: u64) {
    let (got, resp) = read_frame_v2(conn, DEFAULT_MAX_FRAME).unwrap().unwrap();
    assert_eq!(got, corr, "answered in request order");
    decode_verify_outcome(decode_response(&resp).unwrap()).unwrap();
}

#[test]
fn one_write_of_64_verifies_shares_its_fsyncs() {
    let dir = scratch("burst-commit");
    let sp = ServedSp::boot(&dir, None);
    let before = sp.service.provider().durability_counters();
    let mut conn = sp.open();
    conn.write_all(&sp.verify_burst(1..65)).unwrap();
    for corr in 1..65 {
        expect_granted(&mut conn, corr);
    }
    let after = sp.service.provider().durability_counters();
    let appends = after.durable_appends - before.durable_appends;
    let fsyncs = after.fsync_batches - before.fsync_batches;
    assert_eq!(appends, 64, "one audit append per Verify");
    assert!(appends > 4 * fsyncs, "{appends} appends took {fsyncs} fsyncs");
    sp.daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_batch_whose_fsync_wait_fails_is_never_answered() {
    let dir = scratch("failed-wait");
    // Appends 1 and 2 are the publish and a lone Verify. The 6th append
    // finds that the storage stack lost everything not fsynced (the
    // burst's first three Verifies) and dies.
    let sp = ServedSp::boot(&dir, Some(FileFault::PartialFsync { append: 6 }));
    let mut conn = sp.open();
    conn.write_all(&sp.verify_burst(1..2)).unwrap();
    expect_granted(&mut conn, 1);
    conn.write_all(&sp.verify_burst(100..108)).unwrap();
    if let Ok(Some((corr, _))) = read_frame_v2(&mut conn, DEFAULT_MAX_FRAME) {
        panic!("answered {corr} from a batch that never became durable");
    }

    // Verify 100 ran, but its outcome never became durable, so a
    // same-token retry runs again and meets the crashed store.
    let mut retry = sp.open();
    retry.write_all(&sp.verify_burst(100..101)).unwrap();
    let (corr, resp) = read_frame_v2(&mut retry, DEFAULT_MAX_FRAME).unwrap().unwrap();
    assert_eq!(corr, 100);
    assert!(decode_response(&resp).is_err(), "a retry replayed a success that was never durable");

    let ServedSp { daemon, service, puzzle, .. } = sp;
    daemon.shutdown();
    drop(service);
    let reopened = DurableProvider::open(&dir, StoreConfig::default()).unwrap();
    assert!(reopened.fetch_puzzle(puzzle).is_ok(), "the acknowledged publish survived");
    let users: Vec<u64> = reopened.in_memory().audit_log().iter().map(|e| e.user.raw()).collect();
    assert_eq!(users, [1], "exactly the acknowledged Verify survived");
    let _ = std::fs::remove_dir_all(&dir);
}
