//! Construction 2: social puzzles from CP-ABE (§V-B).
//!
//! The sharer encrypts the object under a height-1 CP-ABE access tree
//! whose `N` leaves carry the context attributes `(q_i, a_i)` and whose
//! root threshold is `k`. Before anything leaves the sharer, the tree is
//! **perturbed** — each answer attribute is replaced by its hash — so the
//! SP and DH hold only `(q_i, H(a_i))`. A receiver who knows at least `k`
//! answers **reconstructs** the true tree, runs `KeyGen` with the real
//! answer attributes (the sharer published `PK`/`MK` for exactly this),
//! and decrypts.
//!
//! §VII-B notes the prototype could *not* actually remove the clear tree
//! from the toolkit's opaque ciphertext encoding and shipped with
//! degraded surveillance resistance; because this workspace owns the ABE
//! implementation, the full design is implemented here, and
//! [`Construction2::upload_prototype_degraded`] reproduces the degraded
//! prototype behaviour for comparison.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use rand::Rng;
use sp_abe::hybrid::{self, HybridCiphertext};
use sp_abe::{AccessTree, CpAbe, MasterKey, PublicKey};
use sp_crypto::ct::ct_eq;
use sp_osn::Url;
use sp_pairing::LineCache;
use sp_wire::{Reader, Writer};

use crate::context::Context;
use crate::error::SocialPuzzleError;
use crate::hash::HashAlg;

/// The SP-side record for a Construction-2 puzzle: the public "details"
/// (questions, `k`), the verification hashes the SP keeps private, and
/// the published CP-ABE keys.
#[derive(Clone, PartialEq, Eq)]
pub struct Puzzle2Record {
    questions: Vec<String>,
    k: usize,
    /// Optional per-record verification salt. The paper's prototype uses
    /// unsalted hashes (see `crate::adversary::semi_honest_sp_attack_c2`
    /// for why that is weak); [`Construction2::with_salted_verification`]
    /// turns this hardening on.
    verify_salt: Option<[u8; 16]>,
    /// Per-question answer hashes the SP matches during `Verify`. The
    /// prototype stores these in its database and strips them from the
    /// publicly downloadable `details.txt` (§VII-B); same split here.
    answer_hashes: Vec<Vec<u8>>,
    pk_bytes: Vec<u8>,
    mk_bytes: Vec<u8>,
    url: Url,
    hash_alg: HashAlg,
}

impl Puzzle2Record {
    /// Number of context pairs, `N`.
    pub fn n(&self) -> usize {
        self.questions.len()
    }

    /// The threshold `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The encrypted object's location.
    pub fn url(&self) -> &Url {
        &self.url
    }

    /// Whether `hash` matches the stored verification hash for entry
    /// `index` — the SP's own lookup, exposed so the [`crate::adversary`]
    /// scenarios can act with exactly the SP's view.
    pub fn answer_hash_matches(&self, index: usize, hash: &[u8]) -> bool {
        self.answer_hashes
            .get(index)
            .map(|expected| sp_crypto::ct::ct_eq(expected, hash))
            .unwrap_or(false)
    }

    /// The publicly downloadable details (what the prototype's
    /// `details.txt` contains after the server strips the hashes).
    pub fn public_details(&self) -> PublicDetails {
        PublicDetails {
            questions: self.questions.clone(),
            k: self.k,
            hash_alg: self.hash_alg,
            verify_salt: self.verify_salt,
        }
    }

    /// Serialized record (SP storage / upload sizing). This is the byte
    /// volume the sharer ships to the SP: details + hashes + PK + MK.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(match self.hash_alg {
            HashAlg::Sha256 => 0,
            HashAlg::Sha3 => 1,
            HashAlg::Sha1 => 2,
        });
        match &self.verify_salt {
            Some(salt) => {
                w.u8(1);
                w.raw(salt);
            }
            None => {
                w.u8(0);
            }
        }
        w.u32(self.k as u32);
        w.string(self.url.as_str());
        w.u32(self.questions.len() as u32);
        for (q, h) in self.questions.iter().zip(&self.answer_hashes) {
            w.string(q);
            w.bytes(h);
        }
        w.bytes(&self.pk_bytes);
        w.bytes(&self.mk_bytes);
        w.finish().to_vec()
    }

    /// Decodes a record produced by [`Puzzle2Record::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`SocialPuzzleError::BadEncoding`] for malformed buffers.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SocialPuzzleError> {
        let mut r = Reader::new(bytes);
        let mut inner = || -> Result<Puzzle2Record, sp_wire::WireError> {
            let hash_alg = match r.u8()? {
                0 => HashAlg::Sha256,
                1 => HashAlg::Sha3,
                2 => HashAlg::Sha1,
                _ => return Err(sp_wire::WireError::BadLength),
            };
            let verify_salt = match r.u8()? {
                0 => None,
                _ => Some(r.raw(16)?.try_into().expect("fixed len")),
            };
            let k = r.u32()? as usize;
            let url = Url::from(r.string()?);
            let n = r.u32()? as usize;
            if n > 1 << 20 {
                return Err(sp_wire::WireError::BadLength);
            }
            let mut questions = Vec::with_capacity(n);
            let mut answer_hashes = Vec::with_capacity(n);
            for _ in 0..n {
                questions.push(r.string()?.to_owned());
                answer_hashes.push(r.bytes()?.to_vec());
            }
            let pk_bytes = r.bytes()?.to_vec();
            let mk_bytes = r.bytes()?.to_vec();
            r.expect_end()?;
            Ok(Puzzle2Record {
                questions,
                k,
                verify_salt,
                answer_hashes,
                pk_bytes,
                mk_bytes,
                url,
                hash_alg,
            })
        };
        inner().map_err(|_| SocialPuzzleError::BadEncoding)
    }
}

impl fmt::Debug for Puzzle2Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Puzzle2Record(n = {}, k = {}, url = {})", self.questions.len(), self.k, self.url)
    }
}

/// The publicly visible puzzle details a receiver downloads before
/// answering.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PublicDetails {
    /// The context questions, in leaf order.
    pub questions: Vec<String>,
    /// The threshold `k`.
    pub k: usize,
    /// The hash the receiver must answer with.
    pub hash_alg: HashAlg,
    /// The verification salt, when the sharer enabled salted hashes.
    pub verify_salt: Option<[u8; 16]>,
}

impl PublicDetails {
    /// Builds the receiver's answer list by asking `answerer` for each
    /// question.
    pub fn answer(&self, answerer: impl Fn(&str) -> Option<String>) -> Vec<(usize, String)> {
        self.questions.iter().enumerate().filter_map(|(i, q)| answerer(q).map(|a| (i, a))).collect()
    }

    /// Serialized size in bytes (network accounting).
    pub fn encoded_len(&self) -> usize {
        let mut w = Writer::new();
        w.u32(self.k as u32);
        for q in &self.questions {
            w.string(q);
        }
        w.len()
    }
}

/// What the sharer's upload produces.
#[derive(Clone, Debug)]
pub struct Upload2Result {
    /// SP-side record (details + verification hashes + PK + MK).
    pub record: Puzzle2Record,
    /// The serialized, tree-perturbed hybrid ciphertext `CT'` (goes to
    /// the DH).
    pub ciphertext: Vec<u8>,
}

/// The SP's grant after a successful `Verify`: where the ciphertext is
/// and the published key material.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Access2Grant {
    /// The ciphertext location.
    pub url: Url,
    /// Encoded CP-ABE public key.
    pub pk_bytes: Vec<u8>,
    /// Encoded CP-ABE master key (published by design — §V-B).
    pub mk_bytes: Vec<u8>,
}

impl Access2Grant {
    /// Serialized size in bytes (network accounting).
    pub fn encoded_len(&self) -> usize {
        let mut w = Writer::new();
        w.string(self.url.as_str());
        w.bytes(&self.pk_bytes);
        w.bytes(&self.mk_bytes);
        w.len()
    }
}

/// Construction 2 (§V-B): CP-ABE social puzzles.
#[derive(Clone, Debug)]
pub struct Construction2 {
    abe: CpAbe,
    hash_alg: HashAlg,
    salted_verification: bool,
    /// Miller line-evaluation cache shared across clones: repeated
    /// `Access` against the same hot puzzle (Zipfian traffic) replays the
    /// ciphertext-side walks instead of recomputing them. Entries are
    /// tagged by ciphertext URL and invalidated when that URL is
    /// re-uploaded.
    line_cache: Arc<LineCache>,
}

impl Construction2 {
    /// Scheme over the given CP-ABE instance with the paper's
    /// Implementation-2 hash (SHA-1).
    pub fn new(abe: CpAbe) -> Self {
        Self {
            abe,
            hash_alg: HashAlg::Sha1,
            salted_verification: false,
            line_cache: Arc::new(LineCache::new()),
        }
    }

    /// Hardens the prototype: salts the SP-side verification hashes with
    /// a fresh per-record salt (the analogue of Construction 1's `K_ZO`),
    /// defeating the cross-puzzle precomputed-dictionary attack
    /// demonstrated in [`crate::adversary::semi_honest_sp_attack_c2`].
    pub fn with_salted_verification(mut self) -> Self {
        self.salted_verification = true;
        self
    }

    /// Scheme with small cached test parameters.
    pub fn insecure_test_params() -> Self {
        Self::new(CpAbe::insecure_test_params())
    }

    /// Scheme with production 512-bit parameters.
    pub fn default_params() -> Self {
        Self::new(CpAbe::default_params())
    }

    /// Overrides the answer-hash algorithm.
    pub fn with_hash(mut self, hash_alg: HashAlg) -> Self {
        self.hash_alg = hash_alg;
        self
    }

    /// The underlying CP-ABE scheme.
    pub fn abe(&self) -> &CpAbe {
        &self.abe
    }

    /// The shared Miller line-evaluation cache (shared across clones).
    pub fn line_cache(&self) -> &LineCache {
        &self.line_cache
    }

    /// The hash algorithm in use.
    pub fn hash_alg(&self) -> HashAlg {
        self.hash_alg
    }

    /// Sharer upload with a placeholder URL (see
    /// [`Construction2::upload_to`]).
    ///
    /// # Errors
    ///
    /// Returns [`SocialPuzzleError::BadThreshold`] for out-of-range `k`.
    pub fn upload<R: Rng + ?Sized>(
        &self,
        object: &[u8],
        context: &Context,
        k: usize,
        rng: &mut R,
    ) -> Result<Upload2Result, SocialPuzzleError> {
        self.upload_inner(object, context, k, Url::from("local://unstored"), true, rng)
    }

    /// Sharer upload binding the record to a known ciphertext URL:
    /// `Setup`, tree construction, `Encrypt`, `Perturb`.
    ///
    /// # Errors
    ///
    /// Returns [`SocialPuzzleError::BadThreshold`] for out-of-range `k`.
    pub fn upload_to<R: Rng + ?Sized>(
        &self,
        object: &[u8],
        context: &Context,
        k: usize,
        url: Url,
        rng: &mut R,
    ) -> Result<Upload2Result, SocialPuzzleError> {
        self.upload_inner(object, context, k, url, true, rng)
    }

    /// The degraded §VII-B prototype behaviour: the ciphertext ships with
    /// the ORIGINAL (unperturbed) tree, i.e. the clear answers, exactly
    /// as the paper's implementation did because it could not rewrite the
    /// toolkit's ciphertext encoding. Surveillance resistance is lost;
    /// access control still works. Kept for the adversary tests and the
    /// ablation bench.
    ///
    /// # Errors
    ///
    /// Returns [`SocialPuzzleError::BadThreshold`] for out-of-range `k`.
    pub fn upload_prototype_degraded<R: Rng + ?Sized>(
        &self,
        object: &[u8],
        context: &Context,
        k: usize,
        url: Url,
        rng: &mut R,
    ) -> Result<Upload2Result, SocialPuzzleError> {
        self.upload_inner(object, context, k, url, false, rng)
    }

    fn upload_inner<R: Rng + ?Sized>(
        &self,
        object: &[u8],
        context: &Context,
        k: usize,
        url: Url,
        perturb: bool,
        rng: &mut R,
    ) -> Result<Upload2Result, SocialPuzzleError> {
        context.check_threshold(k)?;
        // The record at this URL is being (re)written: any cached line
        // precomputations for the old ciphertext are now stale.
        self.line_cache.invalidate(url.as_str().as_bytes());
        let pairs = context.as_string_pairs();
        let tree = AccessTree::context_tree(k, &pairs).map_err(SocialPuzzleError::Abe)?;

        let (pk, mk) = self.abe.setup(rng);
        let ct = hybrid::encrypt(&self.abe, &pk, &tree, object, rng)?;

        let ct_shipped = if perturb {
            let perturbed = AccessTree::context_tree(k, &self.perturbed_pairs(&pairs))
                .map_err(SocialPuzzleError::Abe)?;
            ct.with_tree(perturbed)?
        } else {
            ct
        };

        let verify_salt = if self.salted_verification {
            let mut salt = [0u8; 16];
            rng.fill(&mut salt);
            Some(salt)
        } else {
            None
        };
        let answer_hashes = pairs
            .iter()
            .map(|(_, a)| verification_hash(self.hash_alg, verify_salt.as_ref(), a))
            .collect();

        let record = Puzzle2Record {
            questions: pairs.iter().map(|(q, _)| q.clone()).collect(),
            k,
            verify_salt,
            answer_hashes,
            pk_bytes: self.abe.encode_public_key(&pk),
            mk_bytes: self.abe.encode_master_key(&mk),
            url,
            hash_alg: self.hash_alg,
        };
        Ok(Upload2Result { record, ciphertext: hybrid::encode(&self.abe, &ct_shipped) })
    }

    /// The perturbed `(q, H(a))` pair list for a context (the leaf labels
    /// of `τ'`).
    fn perturbed_pairs(&self, pairs: &[(String, String)]) -> Vec<(String, String)> {
        pairs.iter().map(|(q, a)| (q.clone(), self.perturb_answer(a))).collect()
    }

    /// The perturbed form of one answer: `#h:` + hex of `H(a)`.
    pub fn perturb_answer(&self, answer: &str) -> String {
        let digest = self.hash_alg.digest(&[b"sp/c2/perturb/v1|", answer.as_bytes()]);
        let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
        format!("#h:{hex}")
    }

    /// Receiver `AnswerPuzzle`: hash each answer for SP verification.
    pub fn answer_puzzle(
        &self,
        details: &PublicDetails,
        answers: &[(usize, String)],
    ) -> Vec<(usize, Vec<u8>)> {
        answers
            .iter()
            .map(|(i, a)| {
                (*i, verification_hash(details.hash_alg, details.verify_salt.as_ref(), a))
            })
            .collect()
    }

    /// SP `Verify`: grant access (URL + PK + MK) iff at least `k` hashes
    /// match.
    ///
    /// # Errors
    ///
    /// Returns [`SocialPuzzleError::NotEnoughCorrectAnswers`] below
    /// threshold.
    pub fn verify(
        &self,
        record: &Puzzle2Record,
        response: &[(usize, Vec<u8>)],
    ) -> Result<Access2Grant, SocialPuzzleError> {
        let correct = response
            .iter()
            .filter(|(i, h)| {
                record.answer_hashes.get(*i).map(|expected| ct_eq(expected, h)).unwrap_or(false)
            })
            .count();
        if correct < record.k {
            return Err(SocialPuzzleError::NotEnoughCorrectAnswers);
        }
        Ok(Access2Grant {
            url: record.url.clone(),
            pk_bytes: record.pk_bytes.clone(),
            mk_bytes: record.mk_bytes.clone(),
        })
    }

    /// Receiver `Access`: `Reconstruct` the tree from known answers, run
    /// `KeyGen` with the real answer attributes that `Decrypt` reads, and
    /// `Decrypt`.
    ///
    /// `Decrypt` reads the first `k` leaves, in leaf order, whose attribute
    /// the key holds, so `KeyGen` keys only those; it then draws one
    /// scalar per known answer it left out. `rng` therefore ends where a
    /// `KeyGen` over every known answer would leave it.
    ///
    /// # Errors
    ///
    /// Returns [`SocialPuzzleError::Abe`] wrapping `PolicyNotSatisfied`
    /// if fewer than `k` answers reconstruct, [`SocialPuzzleError::BadEncoding`]
    /// for corrupt downloads.
    pub fn access<R: Rng + ?Sized>(
        &self,
        grant: &Access2Grant,
        details: &PublicDetails,
        answers: &[(usize, String)],
        ciphertext: &[u8],
        rng: &mut R,
    ) -> Result<Vec<u8>, SocialPuzzleError> {
        let ct: HybridCiphertext =
            hybrid::decode(&self.abe, ciphertext).map_err(|_| SocialPuzzleError::BadEncoding)?;
        let mk: MasterKey = self
            .abe
            .decode_master_key(&grant.mk_bytes)
            .map_err(|_| SocialPuzzleError::BadEncoding)?;
        let _pk: PublicKey = self
            .abe
            .decode_public_key(&grant.pk_bytes)
            .map_err(|_| SocialPuzzleError::BadEncoding)?;

        // Reconstruct: match each known answer against the perturbed leaf
        // labels, then swap the true (q, a) attribute back in.
        let perturbed_leaves: Vec<String> =
            ct.abe().tree().leaves().iter().map(|s| s.to_string()).collect();
        let mut reconstructed_pairs: Vec<(String, String)> = details
            .questions
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let fallback = perturbed_leaf_answer(&perturbed_leaves, i)
                    .unwrap_or_else(|| "#h:unknown".to_string());
                (q.clone(), fallback)
            })
            .collect();
        let mut known_attrs: Vec<String> = Vec::new();
        for (idx, answer) in answers {
            let Some(expected) = perturbed_leaf_answer(&perturbed_leaves, *idx) else {
                continue;
            };
            if self.perturb_answer(answer) == expected {
                reconstructed_pairs[*idx].1 = answer.clone();
                known_attrs.push(sp_abe::encode_qa_attribute(&details.questions[*idx], answer));
            }
        }

        let tree_hat = AccessTree::context_tree(details.k, &reconstructed_pairs)
            .map_err(SocialPuzzleError::Abe)?;
        let held: HashSet<&str> = known_attrs.iter().map(String::as_str).collect();
        let mut used: Vec<String> = Vec::with_capacity(details.k);
        for leaf in tree_hat.leaves().into_iter().filter(|l| held.contains(l)).take(details.k) {
            if !used.iter().any(|u| u == leaf) {
                used.push(leaf.to_owned());
            }
        }
        let sk = self.abe.keygen(&mk, &used, rng);
        for _ in used.len()..known_attrs.len() {
            self.abe.pairing().random_nonzero_scalar(rng);
        }
        let ct_hat = ct.with_tree(tree_hat)?;
        Ok(hybrid::decrypt_cached(
            &self.abe,
            &self.line_cache,
            grant.url.as_str().as_bytes(),
            &ct_hat,
            &sk,
        )?)
    }
}

/// The SP-side verification hash: unsalted (prototype-faithful) or
/// salted with the per-record salt.
fn verification_hash(alg: HashAlg, salt: Option<&[u8; 16]>, answer: &str) -> Vec<u8> {
    match salt {
        None => alg.digest(&[b"sp/c2/verify/v1|", answer.as_bytes()]),
        Some(s) => alg.digest(&[b"sp/c2/verify/v2|", s, b"|", answer.as_bytes()]),
    }
}

/// Extracts the answer part of a perturbed leaf attribute
/// (`q ␟ #h:…` → `#h:…`). Leaf attributes are produced by
/// [`sp_abe::encode_qa_attribute`], whose escaping doubles any `␟` in the
/// question, so the answer is everything after the last single `␟`.
fn perturbed_leaf_answer(leaves: &[String], index: usize) -> Option<String> {
    let leaf = leaves.get(index)?;
    leaf.rsplit('\u{1f}').next().map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngCore, SeedableRng};

    fn context() -> Context {
        Context::builder()
            .pair("Where was the event?", "lakeside cabin")
            .pair("Who hosted?", "priya")
            .pair("What did we grill?", "corn")
            .build()
            .unwrap()
    }

    fn c2() -> Construction2 {
        Construction2::insecure_test_params()
    }

    #[test]
    fn end_to_end_full_knowledge() {
        let c2 = c2();
        let mut rng = StdRng::seed_from_u64(140);
        let ctx = context();
        let up = c2.upload(b"the object", &ctx, 2, &mut rng).unwrap();
        let details = up.record.public_details();
        let answers = details.answer(|q| ctx.answer_for(q).map(str::to_owned));
        let response = c2.answer_puzzle(&details, &answers);
        let grant = c2.verify(&up.record, &response).unwrap();
        let object = c2.access(&grant, &details, &answers, &up.ciphertext, &mut rng).unwrap();
        assert_eq!(object, b"the object");
    }

    #[test]
    fn partial_knowledge_at_threshold() {
        let c2 = c2();
        let mut rng = StdRng::seed_from_u64(141);
        let ctx = context();
        let up = c2.upload(b"obj", &ctx, 2, &mut rng).unwrap();
        let details = up.record.public_details();
        let answers = details.answer(|q| match q {
            "Who hosted?" => Some("priya".into()),
            "What did we grill?" => Some("corn".into()),
            _ => None,
        });
        assert_eq!(answers.len(), 2);
        let response = c2.answer_puzzle(&details, &answers);
        let grant = c2.verify(&up.record, &response).unwrap();
        let object = c2.access(&grant, &details, &answers, &up.ciphertext, &mut rng).unwrap();
        assert_eq!(object, b"obj");
    }

    #[test]
    fn below_threshold_rejected_at_sp() {
        let c2 = c2();
        let mut rng = StdRng::seed_from_u64(142);
        let ctx = context();
        let up = c2.upload(b"obj", &ctx, 2, &mut rng).unwrap();
        let details = up.record.public_details();
        let answers = details.answer(|q| (q == "Who hosted?").then(|| "priya".to_string()));
        let response = c2.answer_puzzle(&details, &answers);
        assert_eq!(
            c2.verify(&up.record, &response).unwrap_err(),
            SocialPuzzleError::NotEnoughCorrectAnswers
        );
    }

    #[test]
    fn wrong_answers_fail_even_with_grant() {
        // A colluder who somehow obtained the grant (URL + keys) still
        // cannot decrypt without actual answers — the ABE layer enforces
        // the threshold independently of the SP.
        let c2 = c2();
        let mut rng = StdRng::seed_from_u64(143);
        let ctx = context();
        let up = c2.upload(b"obj", &ctx, 2, &mut rng).unwrap();
        let details = up.record.public_details();
        let good_answers = details.answer(|q| ctx.answer_for(q).map(str::to_owned));
        let response = c2.answer_puzzle(&details, &good_answers);
        let grant = c2.verify(&up.record, &response).unwrap();

        let bad_answers: Vec<(usize, String)> = (0..3).map(|i| (i, "wrong".to_string())).collect();
        let err = c2.access(&grant, &details, &bad_answers, &up.ciphertext, &mut rng).unwrap_err();
        assert!(matches!(err, SocialPuzzleError::Abe(_)), "got {err:?}");
    }

    #[test]
    fn one_right_one_wrong_below_threshold_fails_decrypt() {
        let c2 = c2();
        let mut rng = StdRng::seed_from_u64(144);
        let ctx = context();
        let up = c2.upload(b"obj", &ctx, 2, &mut rng).unwrap();
        let details = up.record.public_details();
        let answers = vec![(0usize, "lakeside cabin".to_string()), (1, "nope".to_string())];
        let response = c2.answer_puzzle(&details, &answers);
        assert!(c2.verify(&up.record, &response).is_err());
        // Even bypassing the SP with a stolen grant:
        let grant = Access2Grant {
            url: up.record.url().clone(),
            pk_bytes: up.record.pk_bytes.clone(),
            mk_bytes: up.record.mk_bytes.clone(),
        };
        assert!(c2.access(&grant, &details, &answers, &up.ciphertext, &mut rng).is_err());
    }

    /// Runs `access` at threshold `k` with `answers`, bypassing the SP,
    /// and returns its result plus whether the caller's RNG ended where a
    /// `KeyGen` over every answer that reconstructs (in the order given,
    /// duplicates included) would leave it.
    fn access_with(
        k: usize,
        answers: &[(usize, &str)],
    ) -> (Result<Vec<u8>, SocialPuzzleError>, bool) {
        let c2 = c2();
        let ctx = context();
        let mut rng = StdRng::seed_from_u64(152);
        let up = c2.upload(b"edge", &ctx, k, &mut rng).unwrap();
        let details = up.record.public_details();
        let grant = Access2Grant {
            url: up.record.url().clone(),
            pk_bytes: up.record.pk_bytes.clone(),
            mk_bytes: up.record.mk_bytes.clone(),
        };
        let answers: Vec<(usize, String)> =
            answers.iter().map(|(i, a)| (*i, a.to_string())).collect();
        let reconstructed: Vec<String> = answers
            .iter()
            .filter_map(|(i, a)| {
                let q = details.questions.get(*i)?;
                (ctx.answer_for(q) == Some(a)).then(|| sp_abe::encode_qa_attribute(q, a))
            })
            .collect();
        let mk = c2.abe().decode_master_key(&grant.mk_bytes).unwrap();
        let mut full_keygen = rng.clone();
        c2.abe().keygen(&mk, &reconstructed, &mut full_keygen);
        let result = c2.access(&grant, &details, &answers, &up.ciphertext, &mut rng);
        (result, rng.next_u64() == full_keygen.next_u64())
    }

    #[test]
    fn access_decrypts_irregular_answer_lists_and_keeps_the_rng_stream() {
        for (k, answers) in [
            // Out of index order.
            (2, &[(2, "corn"), (0, "lakeside cabin")][..]),
            // A duplicated index.
            (2, &[(1, "priya"), (1, "priya"), (2, "corn")]),
            // A wrong answer (and an out-of-range index) mixed in.
            (2, &[(0, "wrong"), (42, "ghost"), (1, "priya"), (2, "corn")]),
            // More than k right answers.
            (1, &[(0, "lakeside cabin"), (1, "priya"), (2, "corn")]),
            (2, &[(2, "corn"), (1, "priya"), (0, "lakeside cabin")]),
        ] {
            let (result, same_stream) = access_with(k, answers);
            assert_eq!(result.unwrap(), b"edge", "k = {k}, answers = {answers:?}");
            assert!(same_stream, "RNG stream moved: k = {k}, answers = {answers:?}");
        }
    }

    #[test]
    fn access_below_threshold_is_policy_not_satisfied() {
        for answers in [
            &[(0, "lakeside cabin"), (1, "nope")][..],
            // A repeated right answer counts once.
            &[(0, "lakeside cabin"), (0, "lakeside cabin")],
        ] {
            let (result, same_stream) = access_with(2, answers);
            assert_eq!(
                result.unwrap_err(),
                SocialPuzzleError::Abe(sp_abe::AbeError::PolicyNotSatisfied),
                "answers = {answers:?}"
            );
            assert!(same_stream, "RNG stream moved: answers = {answers:?}");
        }
    }

    #[test]
    fn perturbed_tree_hides_answers() {
        let c2 = c2();
        let mut rng = StdRng::seed_from_u64(145);
        let ctx = context();
        let up = c2.upload(b"obj", &ctx, 1, &mut rng).unwrap();
        let ct = hybrid::decode(c2.abe(), &up.ciphertext).unwrap();
        let leaves = ct.abe().tree().leaves().join("|");
        assert!(!leaves.contains("lakeside cabin"), "answers must be hashed: {leaves}");
        assert!(!leaves.contains("priya"));
        assert!(leaves.contains("Where was the event?"), "questions stay visible");
        assert!(leaves.contains("#h:"));
    }

    #[test]
    fn degraded_prototype_leaks_answers_in_tree() {
        let c2 = c2();
        let mut rng = StdRng::seed_from_u64(146);
        let ctx = context();
        let up = c2.upload_prototype_degraded(b"obj", &ctx, 1, Url::from("u"), &mut rng).unwrap();
        let ct = hybrid::decode(c2.abe(), &up.ciphertext).unwrap();
        let leaves = ct.abe().tree().leaves().join("|");
        assert!(leaves.contains("lakeside cabin"), "§VII-B degraded mode keeps clear answers");
    }

    #[test]
    fn k_one_minimum_paper_configuration() {
        // The evaluation uses k = 1, N from 2 ("CP-ABE does not support
        // (1,1)").
        let c2 = c2();
        let mut rng = StdRng::seed_from_u64(147);
        let ctx = Context::builder().pair("q1", "a1").pair("q2", "a2").build().unwrap();
        let up = c2.upload(b"min", &ctx, 1, &mut rng).unwrap();
        let details = up.record.public_details();
        let answers = vec![(1usize, "a2".to_string())];
        let response = c2.answer_puzzle(&details, &answers);
        let grant = c2.verify(&up.record, &response).unwrap();
        assert_eq!(
            c2.access(&grant, &details, &answers, &up.ciphertext, &mut rng).unwrap(),
            b"min"
        );
    }

    #[test]
    fn record_serialization_roundtrip() {
        let c2 = c2();
        let mut rng = StdRng::seed_from_u64(148);
        let ctx = context();
        let up = c2.upload(b"o", &ctx, 2, &mut rng).unwrap();
        let bytes = up.record.to_bytes();
        let back = Puzzle2Record::from_bytes(&bytes).unwrap();
        assert_eq!(back, up.record);
        assert!(Puzzle2Record::from_bytes(&bytes[..10]).is_err());
    }

    #[test]
    fn salted_record_survives_serialization() {
        let c2 = Construction2::insecure_test_params().with_salted_verification();
        let mut rng = StdRng::seed_from_u64(151);
        let ctx = context();
        let up = c2.upload(b"salted", &ctx, 2, &mut rng).unwrap();
        let back = Puzzle2Record::from_bytes(&up.record.to_bytes()).unwrap();
        assert_eq!(back, up.record);
        // And the full protocol works through the serialized record.
        let details = back.public_details();
        assert!(details.verify_salt.is_some());
        let answers = details.answer(|q| ctx.answer_for(q).map(str::to_owned));
        let response = c2.answer_puzzle(&details, &answers);
        let grant = c2.verify(&back, &response).unwrap();
        assert_eq!(
            c2.access(&grant, &details, &answers, &up.ciphertext, &mut rng).unwrap(),
            b"salted"
        );
    }

    #[test]
    fn sizes_are_reported() {
        let c2 = c2();
        let mut rng = StdRng::seed_from_u64(149);
        let ctx = context();
        let up = c2.upload(b"o", &ctx, 2, &mut rng).unwrap();
        let details = up.record.public_details();
        assert!(details.encoded_len() > 0);
        let answers = details.answer(|q| ctx.answer_for(q).map(str::to_owned));
        let response = c2.answer_puzzle(&details, &answers);
        let grant = c2.verify(&up.record, &response).unwrap();
        assert!(grant.encoded_len() > grant.url.as_str().len());
        // The SP record carries PK and MK, so it dwarfs Construction 1's
        // hash-sized entries — the root cause of Fig 10(a)'s gap.
        assert!(up.record.to_bytes().len() > 500);
    }

    #[test]
    fn verify_ignores_out_of_range_indices() {
        let c2 = c2();
        let mut rng = StdRng::seed_from_u64(150);
        let ctx = context();
        let up = c2.upload(b"o", &ctx, 1, &mut rng).unwrap();
        let details = up.record.public_details();
        let mut answers = details.answer(|q| ctx.answer_for(q).map(str::to_owned));
        answers.push((42, "ghost".into()));
        let response = c2.answer_puzzle(&details, &answers);
        assert!(c2.verify(&up.record, &response).is_ok());
    }

    #[test]
    fn default_hash_is_sha1_like_the_prototype() {
        assert_eq!(c2().hash_alg(), HashAlg::Sha1);
        let alt = Construction2::insecure_test_params().with_hash(HashAlg::Sha256);
        assert_eq!(alt.hash_alg(), HashAlg::Sha256);
    }
}
