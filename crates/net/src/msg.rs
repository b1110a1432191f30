//! RPC message types and their `sp-wire` codecs.
//!
//! One request frame carries exactly one [`SpRequest`] or [`DhRequest`];
//! one response frame carries a status byte (`0x00` OK, `0xFF` error)
//! followed by the endpoint's payload. The error frame layout is
//! identical for both services: `0xFF`, code `u8`, detail string.
//!
//! The paper's subroutines map onto the wire as follows:
//!
//! | subroutine      | request                      | response payload        |
//! |-----------------|------------------------------|-------------------------|
//! | `Upload`        | [`SpRequest::Upload`]        | puzzle id `u64`         |
//! | `DisplayPuzzle` | [`SpRequest::DisplayPuzzle`] | [`DisplayedPuzzle`]     |
//! | `AnswerPuzzle`  | runs receiver-side; its output ([`PuzzleResponse`]) is what [`SpRequest::Verify`] carries | — |
//! | `Verify`        | [`SpRequest::Verify`]        | [`VerifyOutcome`]       |
//! | `Access`        | [`SpRequest::Access`]        | object URL string       |
//!
//! plus the DH blob store ([`DhRequest::Put`] / [`DhRequest::Get`] and
//! friends) and the plain [`sp_osn::ProviderApi`] record operations.

use social_puzzles_core::construction1::{
    DisplayedPuzzle, PuzzleResponse, VerifyOutcome, PUZZLE_KEY_LEN,
};
use social_puzzles_core::hash::HashAlg;
use sp_osn::Url;
use sp_wire::{Reader, WireError, Writer};

use crate::error::{ErrorCode, NetError};

/// Status byte of a successful response frame.
pub const RESP_OK: u8 = 0x00;
/// Status byte of an error response frame.
pub const RESP_ERR: u8 = 0xFF;

/// Most entries one batched request (`VerifyBatch`, `AnswerPuzzleBatch`,
/// `GetBatch`) may carry. The decoder rejects a larger count *before*
/// allocating entry storage, so a hostile count prefix cannot force a
/// huge reservation.
pub const MAX_BATCH_ENTRIES: usize = 1024;

/// Checks a batch count prefix against [`MAX_BATCH_ENTRIES`] before any
/// allocation happens.
fn checked_batch_count(n: u32) -> Result<usize, WireError> {
    let n = n as usize;
    if n > MAX_BATCH_ENTRIES {
        return Err(WireError::BadLength);
    }
    Ok(n)
}

/// One entry of a [`SpRequest::VerifyBatch`]: an independent `Verify`
/// attempt, carrying its own audit identity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyEntry {
    /// Raw user id of the receiver (for the audit log).
    pub user: u64,
    /// Raw puzzle id.
    pub puzzle: u64,
    /// The receiver's salted answer hashes.
    pub response: PuzzleResponse,
}

/// A request to the service-provider daemon.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SpRequest {
    /// `Upload`: store an opaque puzzle record. Response: puzzle id `u64`.
    Upload {
        /// The serialized puzzle record.
        record: Vec<u8>,
    },
    /// Fetch a puzzle record. Response: the record bytes.
    FetchPuzzle {
        /// Raw puzzle id.
        puzzle: u64,
    },
    /// Replace a puzzle record in place. Response: empty.
    ReplacePuzzle {
        /// Raw puzzle id.
        puzzle: u64,
        /// The replacement record.
        record: Vec<u8>,
    },
    /// Delete a puzzle record. Response: empty.
    DeletePuzzle {
        /// Raw puzzle id.
        puzzle: u64,
    },
    /// Append to the access-attempt audit log. Response: empty.
    LogAccess {
        /// Raw user id of the attempting user.
        user: u64,
        /// Raw puzzle id.
        puzzle: u64,
        /// Whether access was granted.
        granted: bool,
    },
    /// Post the hyperlink to the author's wall. Response: post id `u64`.
    Post {
        /// Raw user id of the author.
        author: u64,
        /// Post text.
        text: String,
        /// The linked puzzle.
        puzzle: u64,
    },
    /// `DisplayPuzzle`: ask the SP to pick and return the displayed
    /// question subset. Response: a [`DisplayedPuzzle`].
    DisplayPuzzle {
        /// Raw puzzle id.
        puzzle: u64,
    },
    /// `Verify`: submit the receiver's `AnswerPuzzle` output (salted
    /// answer hashes) for server-side verification. The SP logs the
    /// attempt either way. Response: a [`VerifyOutcome`], or an error
    /// frame with [`ErrorCode::NotEnoughCorrectAnswers`].
    Verify {
        /// Raw user id of the receiver (for the audit log).
        user: u64,
        /// Raw puzzle id.
        puzzle: u64,
        /// The receiver's salted answer hashes.
        response: PuzzleResponse,
    },
    /// `Access`: where the encrypted object lives. Response: URL string.
    ///
    /// The blob itself is fetched from the DH; per §IV-A the encrypted
    /// object is publicly fetchable by anyone knowing `URL_O` —
    /// confidentiality rests on the encryption, not the URL.
    Access {
        /// Raw puzzle id.
        puzzle: u64,
    },
    /// Batched `Verify`: many independent verify attempts in one frame,
    /// at most [`MAX_BATCH_ENTRIES`]. The SP groups entries by puzzle so
    /// each puzzle is loaded once, logs every attempt, and answers each
    /// entry in its own slot — a failing entry never fails the frame.
    /// Response: a per-entry result list ([`decode_batch_results`]).
    VerifyBatch {
        /// The independent verify attempts.
        entries: Vec<VerifyEntry>,
    },
    /// Batched `Verify` of many answer-sets against **one** puzzle (the
    /// "many guesses, one object" shape the load generator produces), at
    /// most [`MAX_BATCH_ENTRIES`]. Response: per-entry result list.
    AnswerPuzzleBatch {
        /// Raw user id of the receiver (one audit entry per answer-set).
        user: u64,
        /// Raw puzzle id.
        puzzle: u64,
        /// The answer-sets to verify.
        responses: Vec<PuzzleResponse>,
    },
    /// `PublishAt`: store a puzzle record under a **caller-derived** id.
    /// In cluster mode the id is [`crate::ring::key_for_url`]`(URL_O)`,
    /// which makes every later request self-routing; plain `Upload`
    /// (server-assigned ids) is rejected on clustered nodes. Also the
    /// write half of key migration during a rebalance. Response: the id
    /// `u64`, echoed.
    PublishAt {
        /// Caller-derived raw puzzle id (the ring key).
        puzzle: u64,
        /// The serialized puzzle record.
        record: Vec<u8>,
    },
    /// Fetch the node's current ring (cluster clients refresh from this
    /// after a [`ErrorCode::WrongOwner`] redirect). Response: an encoded
    /// [`crate::ring::HashRing`].
    RingGet,
    /// Install a ring. A node accepts only epochs strictly above its
    /// current one, so stale installs and duplicate retries are no-ops.
    /// Response: the node's ring epoch after the call, `u64`.
    RingSet {
        /// An encoded [`crate::ring::HashRing`].
        ring: Vec<u8>,
    },
    /// Replication: apply a batch of CRC-framed WAL records (the PR 6
    /// on-disk frame format, verbatim) starting right after the
    /// replica's durable watermark. Response: the replica's new durable
    /// watermark `u64` — the ack the primary advances on.
    Replicate {
        /// Concatenated WAL frames, contiguous ascending seqs.
        frames: Vec<u8>,
    },
    /// Replication status probe. Response: the node's durable WAL
    /// watermark `u64` (0 for a non-durable backend).
    ReplStatus,
}

const SP_UPLOAD: u8 = 0x01;
const SP_FETCH: u8 = 0x02;
const SP_REPLACE: u8 = 0x03;
const SP_DELETE: u8 = 0x04;
const SP_LOG_ACCESS: u8 = 0x05;
const SP_POST: u8 = 0x06;
const SP_DISPLAY: u8 = 0x07;
const SP_VERIFY: u8 = 0x08;
const SP_ACCESS: u8 = 0x09;
const SP_VERIFY_BATCH: u8 = 0x0A;
const SP_ANSWER_BATCH: u8 = 0x0B;
const SP_PUBLISH_AT: u8 = 0x0C;
const SP_RING_GET: u8 = 0x0D;
const SP_RING_SET: u8 = 0x0E;
const SP_REPLICATE: u8 = 0x0F;
const SP_REPL_STATUS: u8 = 0x10;

impl SpRequest {
    /// Stable endpoint name, for metrics and logs.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Self::Upload { .. } => "sp.upload",
            Self::FetchPuzzle { .. } => "sp.fetch_puzzle",
            Self::ReplacePuzzle { .. } => "sp.replace_puzzle",
            Self::DeletePuzzle { .. } => "sp.delete_puzzle",
            Self::LogAccess { .. } => "sp.log_access",
            Self::Post { .. } => "sp.post",
            Self::DisplayPuzzle { .. } => "sp.display_puzzle",
            Self::Verify { .. } => "sp.verify",
            Self::Access { .. } => "sp.access",
            Self::VerifyBatch { .. } => "sp.verify_batch",
            Self::AnswerPuzzleBatch { .. } => "sp.answer_puzzle_batch",
            Self::PublishAt { .. } => "sp.publish_at",
            Self::RingGet => "sp.ring_get",
            Self::RingSet { .. } => "sp.ring_set",
            Self::Replicate { .. } => "sp.replicate",
            Self::ReplStatus => "sp.repl_status",
        }
    }

    /// Serializes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Self::Upload { record } => {
                w.u8(SP_UPLOAD).bytes(record);
            }
            Self::FetchPuzzle { puzzle } => {
                w.u8(SP_FETCH).u64(*puzzle);
            }
            Self::ReplacePuzzle { puzzle, record } => {
                w.u8(SP_REPLACE).u64(*puzzle).bytes(record);
            }
            Self::DeletePuzzle { puzzle } => {
                w.u8(SP_DELETE).u64(*puzzle);
            }
            Self::LogAccess { user, puzzle, granted } => {
                w.u8(SP_LOG_ACCESS).u64(*user).u64(*puzzle).u8(u8::from(*granted));
            }
            Self::Post { author, text, puzzle } => {
                w.u8(SP_POST).u64(*author).string(text).u64(*puzzle);
            }
            Self::DisplayPuzzle { puzzle } => {
                w.u8(SP_DISPLAY).u64(*puzzle);
            }
            Self::Verify { user, puzzle, response } => {
                w.u8(SP_VERIFY).u64(*user).u64(*puzzle);
                encode_puzzle_response_into(&mut w, response);
            }
            Self::Access { puzzle } => {
                w.u8(SP_ACCESS).u64(*puzzle);
            }
            Self::VerifyBatch { entries } => {
                w.u8(SP_VERIFY_BATCH).u32(entries.len() as u32);
                for e in entries {
                    w.u64(e.user).u64(e.puzzle);
                    encode_puzzle_response_into(&mut w, &e.response);
                }
            }
            Self::AnswerPuzzleBatch { user, puzzle, responses } => {
                w.u8(SP_ANSWER_BATCH).u64(*user).u64(*puzzle).u32(responses.len() as u32);
                for r in responses {
                    encode_puzzle_response_into(&mut w, r);
                }
            }
            Self::PublishAt { puzzle, record } => {
                w.u8(SP_PUBLISH_AT).u64(*puzzle).bytes(record);
            }
            Self::RingGet => {
                w.u8(SP_RING_GET);
            }
            Self::RingSet { ring } => {
                w.u8(SP_RING_SET).bytes(ring);
            }
            Self::Replicate { frames } => {
                w.u8(SP_REPLICATE).bytes(frames);
            }
            Self::ReplStatus => {
                w.u8(SP_REPL_STATUS);
            }
        }
        w.finish().to_vec()
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for unknown tags, truncation, or trailing
    /// bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            SP_UPLOAD => Self::Upload { record: r.bytes()?.to_vec() },
            SP_FETCH => Self::FetchPuzzle { puzzle: r.u64()? },
            SP_REPLACE => Self::ReplacePuzzle { puzzle: r.u64()?, record: r.bytes()?.to_vec() },
            SP_DELETE => Self::DeletePuzzle { puzzle: r.u64()? },
            SP_LOG_ACCESS => {
                Self::LogAccess { user: r.u64()?, puzzle: r.u64()?, granted: r.u8()? != 0 }
            }
            SP_POST => {
                Self::Post { author: r.u64()?, text: r.string()?.to_owned(), puzzle: r.u64()? }
            }
            SP_DISPLAY => Self::DisplayPuzzle { puzzle: r.u64()? },
            SP_VERIFY => Self::Verify {
                user: r.u64()?,
                puzzle: r.u64()?,
                response: decode_puzzle_response_from(&mut r)?,
            },
            SP_ACCESS => Self::Access { puzzle: r.u64()? },
            SP_VERIFY_BATCH => {
                let n = checked_batch_count(r.u32()?)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push(VerifyEntry {
                        user: r.u64()?,
                        puzzle: r.u64()?,
                        response: decode_puzzle_response_from(&mut r)?,
                    });
                }
                Self::VerifyBatch { entries }
            }
            SP_ANSWER_BATCH => {
                let user = r.u64()?;
                let puzzle = r.u64()?;
                let n = checked_batch_count(r.u32()?)?;
                let mut responses = Vec::with_capacity(n);
                for _ in 0..n {
                    responses.push(decode_puzzle_response_from(&mut r)?);
                }
                Self::AnswerPuzzleBatch { user, puzzle, responses }
            }
            SP_PUBLISH_AT => Self::PublishAt { puzzle: r.u64()?, record: r.bytes()?.to_vec() },
            SP_RING_GET => Self::RingGet,
            SP_RING_SET => Self::RingSet { ring: r.bytes()?.to_vec() },
            SP_REPLICATE => Self::Replicate { frames: r.bytes()?.to_vec() },
            SP_REPL_STATUS => Self::ReplStatus,
            _ => return Err(WireError::BadLength),
        };
        r.expect_end()?;
        Ok(req)
    }
}

/// A request to the storage-host daemon.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DhRequest {
    /// Store a blob. Response: URL string.
    Put {
        /// The blob bytes.
        data: Vec<u8>,
    },
    /// Fetch a blob. Response: the blob bytes.
    Get {
        /// The blob's URL.
        url: String,
    },
    /// Reserve an empty URL. Response: URL string.
    Reserve,
    /// Fill a previously reserved URL. Response: empty.
    Fill {
        /// The reserved URL.
        url: String,
        /// The blob bytes.
        data: Vec<u8>,
    },
    /// Delete a blob. Response: empty.
    Delete {
        /// The blob's URL.
        url: String,
    },
    /// Fetch many blobs in one frame (album fetch), at most
    /// [`MAX_BATCH_ENTRIES`]. A missing URL fails its own slot without
    /// failing the frame. Response: per-entry result list.
    GetBatch {
        /// The blobs' URLs.
        urls: Vec<String>,
    },
}

const DH_PUT: u8 = 0x01;
const DH_GET: u8 = 0x02;
const DH_RESERVE: u8 = 0x03;
const DH_FILL: u8 = 0x04;
const DH_DELETE: u8 = 0x05;
const DH_GET_BATCH: u8 = 0x06;

impl DhRequest {
    /// Stable endpoint name, for metrics and logs.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Self::Put { .. } => "dh.put",
            Self::Get { .. } => "dh.get",
            Self::Reserve => "dh.reserve",
            Self::Fill { .. } => "dh.fill",
            Self::Delete { .. } => "dh.delete",
            Self::GetBatch { .. } => "dh.get_batch",
        }
    }

    /// Serializes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Self::Put { data } => {
                w.u8(DH_PUT).bytes(data);
            }
            Self::Get { url } => {
                w.u8(DH_GET).string(url);
            }
            Self::Reserve => {
                w.u8(DH_RESERVE);
            }
            Self::Fill { url, data } => {
                w.u8(DH_FILL).string(url).bytes(data);
            }
            Self::Delete { url } => {
                w.u8(DH_DELETE).string(url);
            }
            Self::GetBatch { urls } => {
                w.u8(DH_GET_BATCH).u32(urls.len() as u32);
                for url in urls {
                    w.string(url);
                }
            }
        }
        w.finish().to_vec()
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for unknown tags, truncation, or trailing
    /// bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            DH_PUT => Self::Put { data: r.bytes()?.to_vec() },
            DH_GET => Self::Get { url: r.string()?.to_owned() },
            DH_RESERVE => Self::Reserve,
            DH_FILL => Self::Fill { url: r.string()?.to_owned(), data: r.bytes()?.to_vec() },
            DH_DELETE => Self::Delete { url: r.string()?.to_owned() },
            DH_GET_BATCH => {
                let n = checked_batch_count(r.u32()?)?;
                let mut urls = Vec::with_capacity(n);
                for _ in 0..n {
                    urls.push(r.string()?.to_owned());
                }
                Self::GetBatch { urls }
            }
            _ => return Err(WireError::BadLength),
        };
        r.expect_end()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// The HELLO exchange that opens every connection
// ---------------------------------------------------------------------

/// First byte of the HELLO request. Deliberately outside every request
/// tag space: SP tags are `0x01..=0x10`, DH tags `0x01..=0x06`, and the
/// idempotency envelope uses `0xF0` — so a HELLO can never be mistaken
/// for a request, nor a request for a HELLO.
pub const HELLO_TAG: u8 = 0xF1;

/// Magic bytes after [`HELLO_TAG`], guarding against tag-space collisions
/// in future protocol revisions.
const HELLO_MAGIC: &[u8; 4] = b"SPv2";

/// The protocol version HELLO requests (and the ACK confirms).
pub const PROTOCOL_V2: u8 = 2;

/// Builds the HELLO payload a client sends, in an id-less frame, as the
/// first frame of every connection.
pub fn hello_frame() -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + HELLO_MAGIC.len() + 1);
    out.push(HELLO_TAG);
    out.extend_from_slice(HELLO_MAGIC);
    out.push(PROTOCOL_V2);
    out
}

/// Whether a request frame payload is a HELLO.
pub fn is_hello(payload: &[u8]) -> bool {
    payload == hello_frame().as_slice()
}

/// The OK-response payload a daemon answers a HELLO with. Every frame
/// after this ACK — in both directions — is a correlation-id frame.
pub fn hello_ack_payload() -> Vec<u8> {
    vec![HELLO_TAG, PROTOCOL_V2]
}

/// Whether a decoded OK-response payload is the HELLO ACK.
pub fn is_hello_ack(payload: &[u8]) -> bool {
    payload == [HELLO_TAG, PROTOCOL_V2]
}

// ---------------------------------------------------------------------
// Response envelope
// ---------------------------------------------------------------------

/// Builds a success response frame: status byte + payload.
pub fn ok_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + payload.len());
    out.push(RESP_OK);
    out.extend_from_slice(payload);
    out
}

/// Builds an error response frame: `0xFF`, code, detail string. The
/// layout is shared by the SP and DH daemons.
pub fn err_frame(code: ErrorCode, detail: &str) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(RESP_ERR).u8(code.as_u8()).string(detail);
    w.finish().to_vec()
}

/// Splits a response frame into its OK payload, or surfaces the server's
/// error frame as [`NetError::Remote`].
///
/// # Errors
///
/// Returns [`NetError::Remote`] for an error frame and
/// [`NetError::Decode`] for anything that is neither.
pub fn decode_response(frame: &[u8]) -> Result<&[u8], NetError> {
    match frame.split_first() {
        Some((&RESP_OK, payload)) => Ok(payload),
        Some((&RESP_ERR, rest)) => {
            let mut r = Reader::new(rest);
            let code = ErrorCode::from_u8(r.u8()?);
            let detail = r.string()?.to_owned();
            r.expect_end()?;
            Err(NetError::Remote { code, detail })
        }
        _ => Err(NetError::Decode(WireError::UnexpectedEnd)),
    }
}

// ---------------------------------------------------------------------
// Batched response payloads
// ---------------------------------------------------------------------

/// One entry's result inside a batched response: either the endpoint's
/// payload bytes or a typed error, mirroring the whole-frame envelope at
/// per-entry granularity.
pub type BatchEntryResult = Result<Vec<u8>, (ErrorCode, String)>;

const ENTRY_OK: u8 = 0x00;
const ENTRY_ERR: u8 = 0x01;

/// Encodes a batched response: entry count, then per entry a status byte
/// (`0x00` ok ⇒ payload bytes, `0x01` err ⇒ code + detail string).
pub fn encode_batch_results(results: &[BatchEntryResult]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(results.len() as u32);
    for res in results {
        match res {
            Ok(payload) => {
                w.u8(ENTRY_OK).bytes(payload);
            }
            Err((code, detail)) => {
                w.u8(ENTRY_ERR).u8(code.as_u8()).string(detail);
            }
        }
    }
    w.finish().to_vec()
}

/// Decodes a batched response into per-entry results.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, trailing bytes, an unknown
/// status byte, or an entry count above [`MAX_BATCH_ENTRIES`] (checked
/// before allocation).
pub fn decode_batch_results(payload: &[u8]) -> Result<Vec<BatchEntryResult>, WireError> {
    let mut r = Reader::new(payload);
    let n = checked_batch_count(r.u32()?)?;
    let mut results = Vec::with_capacity(n);
    for _ in 0..n {
        match r.u8()? {
            ENTRY_OK => results.push(Ok(r.bytes()?.to_vec())),
            ENTRY_ERR => {
                let code = ErrorCode::from_u8(r.u8()?);
                results.push(Err((code, r.string()?.to_owned())));
            }
            _ => return Err(WireError::BadLength),
        }
    }
    r.expect_end()?;
    Ok(results)
}

// ---------------------------------------------------------------------
// Payload codecs for the construction types
// ---------------------------------------------------------------------

/// Encodes a [`DisplayedPuzzle`] (the `DisplayPuzzle` response payload).
pub fn encode_displayed_puzzle(d: &DisplayedPuzzle) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(d.questions.len() as u32);
    for (idx, q) in &d.questions {
        w.u32(*idx as u32);
        w.string(q);
    }
    w.raw(&d.puzzle_key);
    w.u8(match d.hash_alg {
        HashAlg::Sha256 => 0,
        HashAlg::Sha3 => 1,
        HashAlg::Sha1 => 2,
    });
    w.finish().to_vec()
}

/// Decodes a [`DisplayedPuzzle`].
///
/// # Errors
///
/// Returns a [`WireError`] on truncation or an unknown hash algorithm.
pub fn decode_displayed_puzzle(payload: &[u8]) -> Result<DisplayedPuzzle, WireError> {
    let mut r = Reader::new(payload);
    let n = r.u32()? as usize;
    let mut questions = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let idx = r.u32()? as usize;
        questions.push((idx, r.string()?.to_owned()));
    }
    let puzzle_key: [u8; PUZZLE_KEY_LEN] = r.raw(PUZZLE_KEY_LEN)?.try_into().expect("fixed len");
    let hash_alg = match r.u8()? {
        0 => HashAlg::Sha256,
        1 => HashAlg::Sha3,
        2 => HashAlg::Sha1,
        _ => return Err(WireError::BadLength),
    };
    r.expect_end()?;
    Ok(DisplayedPuzzle { questions, puzzle_key, hash_alg })
}

fn encode_puzzle_response_into(w: &mut Writer, resp: &PuzzleResponse) {
    w.u32(resp.hashes.len() as u32);
    for (idx, h) in &resp.hashes {
        w.u32(*idx as u32);
        w.bytes(h);
    }
}

fn decode_puzzle_response_from(r: &mut Reader<'_>) -> Result<PuzzleResponse, WireError> {
    let n = r.u32()? as usize;
    let mut hashes = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let idx = r.u32()? as usize;
        hashes.push((idx, r.bytes()?.to_vec()));
    }
    Ok(PuzzleResponse { hashes })
}

/// Encodes a [`PuzzleResponse`] — the receiver-side `AnswerPuzzle`
/// subroutine's output — as a standalone message.
pub fn encode_puzzle_response(resp: &PuzzleResponse) -> Vec<u8> {
    let mut w = Writer::new();
    encode_puzzle_response_into(&mut w, resp);
    w.finish().to_vec()
}

/// Decodes a standalone [`PuzzleResponse`].
///
/// # Errors
///
/// Returns a [`WireError`] on truncation or trailing bytes.
pub fn decode_puzzle_response(payload: &[u8]) -> Result<PuzzleResponse, WireError> {
    let mut r = Reader::new(payload);
    let resp = decode_puzzle_response_from(&mut r)?;
    r.expect_end()?;
    Ok(resp)
}

/// Encodes a [`VerifyOutcome`] (the `Verify` response payload).
pub fn encode_verify_outcome(v: &VerifyOutcome) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(v.released.len() as u32);
    for (idx, share) in &v.released {
        w.u32(*idx as u32);
        w.bytes(share);
    }
    w.string(v.url.as_str());
    match &v.signature {
        Some(sig) => {
            w.u8(1).bytes(sig);
        }
        None => {
            w.u8(0);
        }
    }
    w.bytes(&v.signed_payload);
    w.finish().to_vec()
}

/// Decodes a [`VerifyOutcome`]. The embedded URL is validated with
/// [`Url::parse`], so a garbled (empty) locator is rejected here rather
/// than surfacing later as a mystery `UnknownUrl`.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, trailing bytes, or an empty
/// URL string.
pub fn decode_verify_outcome(payload: &[u8]) -> Result<VerifyOutcome, WireError> {
    let mut r = Reader::new(payload);
    let n = r.u32()? as usize;
    let mut released = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let idx = r.u32()? as usize;
        released.push((idx, r.bytes()?.to_vec()));
    }
    let url = Url::parse(r.string()?).map_err(|_| WireError::BadLength)?;
    let signature = match r.u8()? {
        0 => None,
        _ => Some(r.bytes()?.to_vec()),
    };
    let signed_payload = r.bytes()?.to_vec();
    r.expect_end()?;
    Ok(VerifyOutcome { released, url, signature, signed_payload })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp_requests() -> Vec<SpRequest> {
        vec![
            SpRequest::Upload { record: b"record".to_vec() },
            SpRequest::FetchPuzzle { puzzle: 7 },
            SpRequest::ReplacePuzzle { puzzle: 7, record: b"v2".to_vec() },
            SpRequest::DeletePuzzle { puzzle: u64::MAX },
            SpRequest::LogAccess { user: 3, puzzle: 7, granted: true },
            SpRequest::Post { author: 3, text: "solve it! émoji ✓".into(), puzzle: 7 },
            SpRequest::DisplayPuzzle { puzzle: 0 },
            SpRequest::Verify {
                user: 1,
                puzzle: 2,
                response: PuzzleResponse {
                    hashes: vec![(0, vec![1, 2, 3]), (4, vec![]), (2, vec![0xff; 32])],
                },
            },
            SpRequest::Access { puzzle: 9 },
            SpRequest::VerifyBatch {
                entries: vec![
                    VerifyEntry {
                        user: 1,
                        puzzle: 2,
                        response: PuzzleResponse { hashes: vec![(0, vec![1, 2])] },
                    },
                    VerifyEntry { user: 9, puzzle: 2, response: PuzzleResponse { hashes: vec![] } },
                ],
            },
            SpRequest::VerifyBatch { entries: vec![] },
            SpRequest::AnswerPuzzleBatch {
                user: 4,
                puzzle: 5,
                responses: vec![
                    PuzzleResponse { hashes: vec![(1, vec![0xaa; 32])] },
                    PuzzleResponse { hashes: vec![] },
                ],
            },
            SpRequest::PublishAt { puzzle: 0xdead_beef, record: b"record".to_vec() },
            SpRequest::RingGet,
            SpRequest::RingSet { ring: vec![0, 1, 2, 3] },
            SpRequest::Replicate { frames: vec![9; 40] },
            SpRequest::Replicate { frames: vec![] },
            SpRequest::ReplStatus,
        ]
    }

    #[test]
    fn sp_requests_roundtrip() {
        for req in sp_requests() {
            let encoded = req.encode();
            let decoded = SpRequest::decode(&encoded).unwrap();
            assert_eq!(decoded, req);
            assert!(req.endpoint().starts_with("sp."));
        }
    }

    #[test]
    fn dh_requests_roundtrip() {
        let requests = vec![
            DhRequest::Put { data: b"blob".to_vec() },
            DhRequest::Get { url: "https://dh.example/objects/1".into() },
            DhRequest::Reserve,
            DhRequest::Fill { url: "https://dh.example/objects/1".into(), data: vec![] },
            DhRequest::Delete { url: "u".into() },
            DhRequest::GetBatch { urls: vec!["a".into(), "b".into()] },
            DhRequest::GetBatch { urls: vec![] },
        ];
        for req in requests {
            let decoded = DhRequest::decode(&req.encode()).unwrap();
            assert_eq!(decoded, req);
            assert!(req.endpoint().starts_with("dh."));
        }
    }

    #[test]
    fn hello_collides_with_no_request_tag_and_no_idempotency_envelope() {
        let hello = hello_frame();
        assert!(is_hello(&hello));
        assert!(!is_hello(&hello[..hello.len() - 1]));
        assert!(!is_hello(&[HELLO_TAG]));
        // HELLO must never parse as a real operation or an idempotency
        // envelope.
        assert!(SpRequest::decode(&hello).is_err());
        assert!(DhRequest::decode(&hello).is_err());
        assert_ne!(HELLO_TAG, crate::dedup::IDEMPOTENCY_TAG);
        // And the ACK round-trips through the OK envelope.
        let ack = ok_frame(&hello_ack_payload());
        assert!(is_hello_ack(decode_response(&ack).unwrap()));
        assert!(!is_hello_ack(b"anything else"));
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_rejected() {
        assert!(SpRequest::decode(&[0x77]).is_err());
        assert!(DhRequest::decode(&[0x77]).is_err());
        assert!(SpRequest::decode(&[]).is_err());
        let mut buf = SpRequest::FetchPuzzle { puzzle: 1 }.encode();
        buf.push(0);
        assert_eq!(SpRequest::decode(&buf).unwrap_err(), WireError::TrailingBytes);
    }

    #[test]
    fn response_envelope_roundtrip() {
        let ok = ok_frame(b"payload");
        assert_eq!(decode_response(&ok).unwrap(), b"payload");
        let err = err_frame(ErrorCode::NotEnoughCorrectAnswers, "2 < 3");
        match decode_response(&err).unwrap_err() {
            NetError::Remote { code, detail } => {
                assert_eq!(code, ErrorCode::NotEnoughCorrectAnswers);
                assert_eq!(detail, "2 < 3");
            }
            other => panic!("expected Remote, got {other}"),
        }
        // Neither status byte: decode error, not a panic.
        assert!(decode_response(&[]).is_err());
        assert!(decode_response(&[0x42]).is_err());
    }

    #[test]
    fn displayed_puzzle_roundtrip() {
        let d = DisplayedPuzzle {
            questions: vec![(2, "Where?".into()), (0, "Who hosted? ✓".into())],
            puzzle_key: [9u8; PUZZLE_KEY_LEN],
            hash_alg: HashAlg::Sha3,
        };
        let decoded = decode_displayed_puzzle(&encode_displayed_puzzle(&d)).unwrap();
        assert_eq!(decoded, d);
        // Unknown hash algorithm byte is rejected.
        let mut bad = encode_displayed_puzzle(&d);
        *bad.last_mut().unwrap() = 99;
        assert!(decode_displayed_puzzle(&bad).is_err());
    }

    #[test]
    fn puzzle_response_roundtrip() {
        let resp = PuzzleResponse { hashes: vec![(1, vec![0xaa; 32]), (0, vec![])] };
        let decoded = decode_puzzle_response(&encode_puzzle_response(&resp)).unwrap();
        assert_eq!(decoded, resp);
    }

    #[test]
    fn verify_outcome_roundtrip_with_and_without_signature() {
        for signature in [None, Some(vec![1u8, 2, 3])] {
            let v = VerifyOutcome {
                released: vec![(0, vec![4, 5]), (3, vec![6])],
                url: Url::from("https://dh.example/objects/0"),
                signature: signature.clone(),
                signed_payload: b"payload".to_vec(),
            };
            let decoded = decode_verify_outcome(&encode_verify_outcome(&v)).unwrap();
            assert_eq!(decoded, v);
        }
    }

    #[test]
    fn verify_outcome_rejects_empty_url() {
        let v = VerifyOutcome {
            released: vec![],
            url: Url::from("x"),
            signature: None,
            signed_payload: vec![],
        };
        let mut bytes = encode_verify_outcome(&v);
        // Surgically empty the url: released count (4) then the string
        // length prefix; rewrite "x" (len 1) to len 0 and drop the byte.
        let url_len_at = 4;
        bytes[url_len_at..url_len_at + 4].copy_from_slice(&0u32.to_be_bytes());
        bytes.remove(url_len_at + 4);
        assert!(decode_verify_outcome(&bytes).is_err());
    }

    #[test]
    fn batch_results_roundtrip() {
        let results: Vec<BatchEntryResult> = vec![
            Ok(b"payload".to_vec()),
            Err((ErrorCode::NotEnoughCorrectAnswers, "1 < 2".into())),
            Ok(vec![]),
            Err((ErrorCode::UnknownPuzzle, String::new())),
        ];
        let decoded = decode_batch_results(&encode_batch_results(&results)).unwrap();
        assert_eq!(decoded, results);
        assert!(decode_batch_results(&encode_batch_results(&[])).unwrap().is_empty());
    }

    #[test]
    fn oversize_batches_rejected_before_allocation() {
        // A count prefix above the cap fails immediately — the decoder
        // must not reserve storage for a liar's count.
        let mut w = Writer::new();
        w.u32(MAX_BATCH_ENTRIES as u32 + 1);
        let payload = w.finish().to_vec();
        assert_eq!(decode_batch_results(&payload).unwrap_err(), WireError::BadLength);

        let mut w = Writer::new();
        w.u8(0x0A).u32(u32::MAX); // SP_VERIFY_BATCH with a hostile count
        assert_eq!(SpRequest::decode(&w.finish()).unwrap_err(), WireError::BadLength);

        let mut w = Writer::new();
        w.u8(0x0B).u64(1).u64(2).u32(u32::MAX); // SP_ANSWER_BATCH
        assert_eq!(SpRequest::decode(&w.finish()).unwrap_err(), WireError::BadLength);

        let mut w = Writer::new();
        w.u8(0x06).u32(u32::MAX); // DH_GET_BATCH
        assert_eq!(DhRequest::decode(&w.finish()).unwrap_err(), WireError::BadLength);

        // Exactly at the cap is accepted (given a well-formed body).
        let urls: Vec<String> = (0..MAX_BATCH_ENTRIES).map(|i| i.to_string()).collect();
        let req = DhRequest::GetBatch { urls };
        assert_eq!(DhRequest::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn unknown_entry_status_rejected() {
        let mut w = Writer::new();
        w.u32(1).u8(0x42);
        assert!(decode_batch_results(&w.finish()).is_err());
    }

    #[test]
    fn huge_count_prefix_cannot_force_huge_allocation() {
        // A count claiming 2^32-1 entries on a tiny payload must fail on
        // the first missing entry, after reserving at most a bounded hint.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let payload = w.finish().to_vec();
        assert!(decode_puzzle_response(&payload).is_err());
        assert!(decode_displayed_puzzle(&payload).is_err());
        assert!(decode_verify_outcome(&payload).is_err());
    }
}
