//! Property-based coverage of the wire framing: id-less (HELLO) and
//! correlation-id round-trips, frame-size enforcement, and the HELLO
//! payloads, over arbitrary payload bytes and id values.

use std::io::Cursor;

use proptest::prelude::*;
use sp_net::dedup::{wrap_idempotent, IDEMPOTENCY_TAG};
use sp_net::frame::{
    read_frame, read_frame_v2, write_frame, write_frame_v2, FRAME_HEADER_LEN, FRAME_V2_HEADER_LEN,
};
use sp_net::msg::{hello_ack_payload, hello_frame, is_hello, is_hello_ack, HELLO_TAG};
use sp_net::NetError;

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
