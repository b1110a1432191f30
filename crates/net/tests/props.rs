//! Property-based coverage of the wire framing: id-less (HELLO) and
//! correlation-id round-trips, frame-size enforcement, and the HELLO
//! payloads, over arbitrary payload bytes and id values — plus the
//! daemon's batch boundaries: bursts split anywhere, a frame larger
//! than the read buffer, and a refusal in the middle of a batch.

use std::io::{Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use social_puzzles_core::metrics::ServiceMetrics;
use sp_net::daemon::RETAINED_BUFFER;
use sp_net::dedup::{wrap_idempotent, IDEMPOTENCY_TAG};
use sp_net::frame::{
    read_frame, read_frame_v2, write_frame, write_frame_v2, FRAME_HEADER_LEN, FRAME_V2_HEADER_LEN,
};
use sp_net::msg::{
    decode_response, hello_ack_payload, hello_frame, is_hello, is_hello_ack, HELLO_TAG,
};
use sp_net::{
    ClientConfig, Daemon, DaemonConfig, DhClient, DhService, ErrorCode, NetError, Service,
};
use sp_osn::{StorageApi, StorageHost};

const MAX: u32 = 1 << 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn v1_frames_round_trip(payload in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload, MAX).unwrap();
        prop_assert_eq!(wire.len(), FRAME_HEADER_LEN + payload.len());
        let got = read_frame(&mut Cursor::new(&wire), MAX).unwrap();
        prop_assert_eq!(got, Some(payload));
    }

    #[test]
    fn v2_frames_round_trip_with_their_correlation_id(
        corr in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let mut wire = Vec::new();
        write_frame_v2(&mut wire, corr, &payload, MAX).unwrap();
        prop_assert_eq!(wire.len(), FRAME_V2_HEADER_LEN + payload.len());
        let got = read_frame_v2(&mut Cursor::new(&wire), MAX).unwrap();
        prop_assert_eq!(got, Some((corr, payload)));
    }

    #[test]
    fn v2_streams_round_trip_in_order(
        corrs in proptest::collection::vec(any::<u64>(), 0..16),
    ) {
        // Each frame's payload is a pure function of its correlation id
        // (variable length, including empty), so reading the stream back
        // checks both id and payload slotting.
        let payload_for = |corr: u64| -> Vec<u8> {
            corr.to_be_bytes().iter().cycle().take((corr % 193) as usize).copied().collect()
        };
        let mut wire = Vec::new();
        for &corr in &corrs {
            write_frame_v2(&mut wire, corr, &payload_for(corr), MAX).unwrap();
        }
        let mut cursor = Cursor::new(&wire);
        for &corr in &corrs {
            let got = read_frame_v2(&mut cursor, MAX).unwrap();
            prop_assert_eq!(got, Some((corr, payload_for(corr))));
        }
        // Clean EOF exactly at the stream boundary.
        prop_assert_eq!(read_frame_v2(&mut cursor, MAX).unwrap(), None);
    }

    #[test]
    fn v1_and_v2_framings_of_the_same_payload_are_distinct_but_carry_it(
        corr in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 1..512),
    ) {
        // Interop at the byte level: both framings deliver the same
        // payload, and the v2 frame is exactly the correlation id wider.
        let (mut v1, mut v2) = (Vec::new(), Vec::new());
        write_frame(&mut v1, &payload, MAX).unwrap();
        write_frame_v2(&mut v2, corr, &payload, MAX).unwrap();
        prop_assert_eq!(v2.len() - v1.len(), FRAME_V2_HEADER_LEN - FRAME_HEADER_LEN);
        // Both length prefixes count payload bytes only, so a reader
        // that knows the version always allocates exactly the payload.
        prop_assert_eq!(&v1[..FRAME_HEADER_LEN], &v2[..FRAME_HEADER_LEN]);
        prop_assert_eq!(read_frame(&mut Cursor::new(&v1), MAX).unwrap(), Some(payload.clone()));
        prop_assert_eq!(
            read_frame_v2(&mut Cursor::new(&v2), MAX).unwrap(),
            Some((corr, payload))
        );
    }

    #[test]
    fn oversized_frames_are_refused_on_both_paths_before_allocation(
        corr in any::<u64>(),
        extra in 1u32..1024,
    ) {
        let len = MAX + extra;
        let payload = vec![0u8; len as usize];
        let too_large =
            |r: Result<(), NetError>| matches!(r, Err(NetError::FrameTooLarge { .. }));
        prop_assert!(too_large(write_frame(&mut Vec::new(), &payload, MAX)));
        prop_assert!(too_large(write_frame_v2(&mut Vec::new(), corr, &payload, MAX)));
        // A forged header claiming an oversized body is rejected from
        // the 4 length bytes alone — no body needs to be present.
        let mut forged = len.to_be_bytes().to_vec();
        let refused_v1 =
            matches!(read_frame(&mut Cursor::new(&forged), MAX), Err(NetError::FrameTooLarge { .. }));
        prop_assert!(refused_v1, "v1 read accepted a forged oversized header");
        forged.extend_from_slice(&corr.to_be_bytes());
        let refused_v2 = matches!(
            read_frame_v2(&mut Cursor::new(&forged), MAX),
            Err(NetError::FrameTooLarge { .. })
        );
        prop_assert!(refused_v2, "v2 read accepted a forged oversized header");
    }

    #[test]
    fn only_the_exact_hello_payload_negotiates(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let hello = hello_frame();
        prop_assert!(is_hello(&hello));
        prop_assert!(is_hello_ack(&hello_ack_payload()));
        // An arbitrary request payload never accidentally upgrades the
        // connection (or acks an upgrade).
        prop_assert_eq!(is_hello(&payload), payload == hello);
        prop_assert_eq!(is_hello_ack(&payload), payload == hello_ack_payload());
    }

    #[test]
    fn idempotency_wrapping_never_masquerades_as_hello(
        token in any::<u64>(),
        inner in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // The two reserved tag bytes live in disjoint spaces: a wrapped
        // retry can never be mistaken for a protocol upgrade.
        let wrapped = wrap_idempotent(token, &inner);
        prop_assert_eq!(wrapped[0], IDEMPOTENCY_TAG);
        prop_assert_ne!(wrapped[0], HELLO_TAG);
        prop_assert!(!is_hello(&wrapped));
    }
}

// ---------------------------------------------------------------------
// Batch boundaries on a live daemon.

/// Echoes every request.
struct Echo;
impl Service for Echo {
    fn handle(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
        Ok(request.to_vec())
    }
}

/// Connects without Nagle delays and completes the HELLO exchange.
fn open(addr: SocketAddr) -> TcpStream {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.set_nodelay(true).unwrap();
    write_frame(&mut conn, &hello_frame(), MAX).unwrap();
    assert!(is_hello_ack(decode_response(&read_frame(&mut conn, MAX).unwrap().unwrap()).unwrap()));
    conn
}

/// Reads the next answer and checks it is `payload`, echoed under `corr`.
fn expect_echo(conn: &mut TcpStream, corr: u64, payload: &[u8]) {
    let (got, resp) = read_frame_v2(conn, MAX).unwrap().expect("an answer, not EOF");
    assert_eq!((got, decode_response(&resp).unwrap()), (corr, payload), "in order, by id");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn a_burst_split_at_any_byte_is_answered_in_full_and_in_order(
        base in any::<u64>(),
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 3..4),
    ) {
        let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(Echo), DaemonConfig::default()).unwrap();
        let mut conn = open(daemon.addr());
        let (mut burst, mut ends) = (Vec::new(), Vec::new());
        for (i, payload) in payloads.iter().enumerate() {
            write_frame_v2(&mut burst, base.wrapping_add(i as u64), payload, MAX).unwrap();
            ends.push(burst.len());
        }
        for cut in 1..burst.len() {
            // The frames the first write completes are answered before
            // the rest is sent; the remainder completes the burst.
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            for (part, frames) in [(&burst[..cut], 0..whole), (&burst[cut..], whole..3)] {
                conn.write_all(part).unwrap();
                for i in frames {
                    expect_echo(&mut conn, base.wrapping_add(i as u64), &payloads[i]);
                }
            }
        }
        drop(conn);
        daemon.shutdown();
    }
}

#[test]
fn a_4_mib_blob_crosses_the_read_buffer_and_the_buffers_shrink_back() {
    let metrics = ServiceMetrics::new();
    let service = Arc::new(DhService::new(StorageHost::new()));
    let cfg = DaemonConfig { metrics: metrics.clone(), ..DaemonConfig::default() };
    let daemon = Daemon::spawn("127.0.0.1:0", service, cfg).unwrap();
    let client = DhClient::connect(daemon.addr(), ClientConfig::default());
    let blob: Vec<u8> = (0..4u32 << 20).map(|i| (i % 251) as u8).collect();
    let url = client.put(Bytes::from(blob.clone())).unwrap();
    assert_eq!(client.get(&url).unwrap(), blob, "the 4 MiB blob round-trips");
    // One more request: its answer follows the blob batch's bookkeeping.
    client.reserve().unwrap();
    let buffered = metrics.server("net.server").buffer_bytes;
    assert!(buffered <= 2 * RETAINED_BUFFER as u64, "{buffered} bytes kept after the blob");
    drop(client);
    daemon.shutdown();
    assert_eq!(metrics.server("net.server").buffer_bytes, 0, "closed connections hold nothing");
}

#[test]
fn a_refusal_mid_batch_follows_the_answers_before_it_then_closes() {
    let cfg = DaemonConfig { max_frame: 1024, ..DaemonConfig::default() };
    let daemon = Daemon::spawn("127.0.0.1:0", Arc::new(Echo), cfg).unwrap();
    let mut conn = open(daemon.addr());
    let mut burst = Vec::new();
    write_frame_v2(&mut burst, 1, b"one", MAX).unwrap();
    write_frame_v2(&mut burst, 2, b"two", MAX).unwrap();
    burst.extend_from_slice(&(16u32 << 20).to_be_bytes()); // 16 MiB on a 1 KiB cap
    burst.extend_from_slice(&3u64.to_be_bytes());
    conn.write_all(&burst).unwrap();
    expect_echo(&mut conn, 1, b"one");
    expect_echo(&mut conn, 2, b"two");
    let (corr, resp) = read_frame_v2(&mut conn, MAX).unwrap().unwrap();
    assert_eq!(corr, 3, "the refusal carries the oversized frame's id");
    match decode_response(&resp).unwrap_err() {
        NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::FrameTooLarge),
        other => panic!("expected FrameTooLarge, got {other}"),
    }
    assert_eq!(read_frame_v2(&mut conn, MAX).unwrap(), None, "then EOF");
    daemon.shutdown();
}
