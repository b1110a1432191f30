//! Construction 2's pinned fingerprint: a seeded `upload_to` followed by
//! a full-knowledge `access`, hashed together with what the generator
//! yields next, at `k = 1, 2, 3` of `N = 5` under both parameter sets.
//!
//! Every performance change to the CP-ABE stack (pairing, Setup, Encrypt,
//! KeyGen, Decrypt) must keep these bytes: the ciphertext, the SP record,
//! the plaintext, and the position `access` leaves the caller's RNG at.
//! A change that moves any of them changes every seeded transcript built
//! on Construction 2 (the simulator's decision-log hash, the benchmark's
//! session sequence), so it is a behaviour change, not an optimization.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use social_puzzles::core::construction2::Construction2;
use social_puzzles::core::context::Context;
use social_puzzles::crypto::sha256::sha256_concat;
use social_puzzles::osn::Url;

const OBJECT: &[u8] = b"fingerprinted object: 100 characters of the paper's workload are not needed to pin a transcript.";

fn context() -> Context {
    Context::builder()
        .pair("Which trailhead did we start from?", "granite pass")
        .pair("Who carried the stove?", "teo")
        .pair("What wildlife crossed the path?", "a porcupine")
        .pair("Where did we camp?", "below the saddle")
        .pair("What did we cook on the last night?", "lentil stew")
        .build()
        .expect("valid context")
}

/// SHA-256 over ciphertext ‖ record ‖ plaintext ‖ the RNG's next draw.
fn fingerprint(c2: &Construction2, k: usize) -> String {
    let ctx = context();
    let mut rng = StdRng::seed_from_u64(0xC2F1_0000 + k as u64);
    let url = Url::from(format!("dh://fingerprint/k{k}"));
    let up = c2.upload_to(OBJECT, &ctx, k, url, &mut rng).expect("upload");
    let details = up.record.public_details();
    let answers = details.answer(|q| ctx.answer_for(q).map(str::to_owned));
    let grant = c2.verify(&up.record, &c2.answer_puzzle(&details, &answers)).expect("verify");
    let plaintext =
        c2.access(&grant, &details, &answers, &up.ciphertext, &mut rng).expect("access");
    assert_eq!(plaintext, OBJECT);
    let next = rng.next_u64().to_be_bytes();
    let digest = sha256_concat(&[&up.ciphertext, &up.record.to_bytes(), &plaintext, &next]);
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn construction2_transcripts_match_pinned_fingerprints() {
    let pinned: [(&str, Construction2, [&str; 3]); 2] = [
        (
            "insecure_test_params",
            Construction2::insecure_test_params(),
            [
                "bf0db497a5b52373c8f31de4dfcce6b631ab7846617d125e00cfc20e7d324cc8",
                "50f78277ecbc5a8cc56e2e2d6d599a7b31f0c309b0c0f4d0977e35468f598fda",
                "a6900e2f6a0ee3ff0befc3498726b1e4a53f8db75057a60ce952dfde7c398cb0",
            ],
        ),
        (
            "default_params",
            Construction2::default_params(),
            [
                "50de6fb4d061b8c555069298b75479fb57d717b17e88f123877dd8ddae2ce6a5",
                "f1bc4b374b3032f645f54c0202963fbb3522b4a88a3297a3537a5ff0254a21a0",
                "9b5bb64e7ef88bc0a4ea01a58ac7556dac18d067c83f228b32dc69585c8de296",
            ],
        ),
    ];
    for (params, c2, want) in &pinned {
        for (k, want) in (1..=3).zip(want) {
            assert_eq!(fingerprint(c2, k), *want, "{params}, k = {k}");
        }
    }
}
