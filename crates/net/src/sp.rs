//! The service-provider daemon logic and its remote client.
//!
//! The daemon wraps the in-memory [`ServiceProvider`] (puzzle database,
//! feed, audit log) and runs the SP-side subroutines of Construction 1 —
//! `DisplayPuzzle` and `Verify` — **server-side**, exactly as the
//! paper's architecture places them (Fig. 6): the receiver's client
//! never sees the full puzzle when it goes through the RPC surface, only
//! the displayed questions and, on success, the released blinded shares.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, RwLock};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use social_puzzles_core::construction1::{
    Construction1, DisplayedPuzzle, Puzzle, PuzzleResponse, VerifyOutcome,
};
use social_puzzles_core::metrics::{ServiceMetrics, ShardContention, StoreCounters};
use social_puzzles_core::SocialPuzzleError;
use sp_osn::{
    OsnError, PostId, ProviderApi, ProviderBackend, PuzzleId, ServiceProvider, ShardedMap, Url,
    UserId,
};
use sp_wire::Reader;

use crate::client::ClientConfig;
use crate::daemon::Service;
use crate::dedup::{strip_idempotency, ReplayCache};
use crate::error::{code_for, ErrorCode, NetError};
use crate::msg::{
    decode_batch_results, decode_displayed_puzzle, decode_verify_outcome, encode_batch_results,
    encode_displayed_puzzle, encode_verify_outcome, BatchEntryResult, SpRequest, VerifyEntry,
};
use crate::pipeline::{PipelineConfig, PipelinedConnection};
use crate::ring::HashRing;

/// Metrics name of the SP's parsed-puzzle memoization cache.
const PUZZLE_CACHE: &str = "sp.puzzle_cache";

/// Metrics component carrying a clustered node's routing/replication
/// counters (`ring_epoch`, `wrong_owner_refusals`, `repl_*`).
pub(crate) const SP_CLUSTER: &str = "sp.cluster";

/// A clustered node's identity and its current view of the ring.
struct ClusterView {
    /// The address peers reach this node at — compared against ring
    /// ownership to decide whether to serve or redirect a keyed request.
    advertise: SocketAddr,
    ring: HashRing,
}

/// The SP daemon's request handler, generic over the backend: the
/// in-memory [`ServiceProvider`] (the default) or `sp-store`'s durable
/// provider — any [`ProviderBackend`] serves the same RPC surface.
pub struct SpService<P = ServiceProvider> {
    sp: P,
    c1: Construction1,
    rng: Mutex<StdRng>,
    metrics: ServiceMetrics,
    replay: ReplayCache,
    /// Parsed-puzzle memoization for `DisplayPuzzle`/`Verify`: the display
    /// itself is re-randomized per call, but the fetch-and-parse of the
    /// stored record is deterministic per `URL_O`, so it is cached in a
    /// sharded store keyed by the same puzzle-id space as the provider's
    /// puzzle map and invalidated whenever that record is re-uploaded,
    /// replaced, or deleted through this service.
    puzzle_cache: ShardedMap<u64, Arc<Puzzle>>,
    /// `Some` once [`SpService::enable_cluster`] ran: this node is a
    /// cluster member and enforces ring ownership on keyed requests.
    /// Interior mutability because the daemon's ephemeral port — and so
    /// the node's advertised identity — is only known after spawn.
    cluster: RwLock<Option<ClusterView>>,
}

impl<P: ProviderBackend> SpService<P> {
    /// Wraps a provider backend and a Construction-1 scheme (whose hash
    /// choice the `DisplayPuzzle`/`Verify` endpoints follow).
    pub fn new(sp: P, c1: Construction1) -> Self {
        Self {
            sp,
            c1,
            rng: Mutex::new(StdRng::from_entropy()),
            metrics: ServiceMetrics::new(),
            replay: ReplayCache::default(),
            puzzle_cache: ShardedMap::default(),
            cluster: RwLock::new(None),
        }
    }

    /// Turns this service into a cluster member advertised at
    /// `advertise` with an initial `ring`. An *empty* ring makes the
    /// node a standby replica: it serves the replication and ring
    /// control plane but owns no keys until a `RingSet` promotes it.
    /// Call after [`crate::Daemon::spawn`] once the bound address is
    /// known; single-node deployments that never call this behave
    /// exactly as before.
    pub fn enable_cluster(&self, advertise: SocketAddr, ring: HashRing) {
        self.metrics.server_ring_epoch(SP_CLUSTER, ring.epoch());
        let mut guard = self.cluster.write().unwrap_or_else(|poison| poison.into_inner());
        *guard = Some(ClusterView { advertise, ring });
    }

    /// The node's current ring view (`None` when not clustered).
    pub fn cluster_ring(&self) -> Option<HashRing> {
        let guard = self.cluster.read().unwrap_or_else(|poison| poison.into_inner());
        guard.as_ref().map(|v| v.ring.clone())
    }

    /// Installs `ring` if it is strictly newer than the current view,
    /// returning the epoch in force after the call. Equal-epoch sets are
    /// idempotent no-ops so a retried `RingSet` is harmless.
    fn install_ring(&self, ring: HashRing) -> Result<u64, (ErrorCode, String)> {
        let mut guard = self.cluster.write().unwrap_or_else(|poison| poison.into_inner());
        let Some(view) = guard.as_mut() else {
            return Err((ErrorCode::BadRequest, "node is not clustered".into()));
        };
        if ring.epoch() > view.ring.epoch() {
            view.ring = ring;
            self.metrics.server_ring_epoch(SP_CLUSTER, view.ring.epoch());
        }
        Ok(view.ring.epoch())
    }

    /// Refuses a keyed request this node does not own under the current
    /// ring. Non-clustered nodes own everything (the single-node paths
    /// are unchanged); a clustered node with an empty ring (a standby
    /// replica) owns nothing. The error detail is machine-parseable —
    /// `epoch={e} owner={addr|none}` — so [`crate::cluster`]'s client
    /// can learn the newer ring and re-route.
    fn check_owner(&self, key: u64) -> Result<(), (ErrorCode, String)> {
        let guard = self.cluster.read().unwrap_or_else(|poison| poison.into_inner());
        let Some(view) = guard.as_ref() else { return Ok(()) };
        let owner = view.ring.owner_of(key);
        if owner == Some(view.advertise) {
            return Ok(());
        }
        let detail = format!(
            "epoch={} owner={}",
            view.ring.epoch(),
            owner.map_or_else(|| "none".to_owned(), |a| a.to_string())
        );
        drop(guard);
        self.metrics.server_wrong_owner(SP_CLUSTER);
        Err((ErrorCode::WrongOwner, detail))
    }

    /// Whether this node runs in cluster mode at all.
    fn is_clustered(&self) -> bool {
        self.cluster.read().unwrap_or_else(|poison| poison.into_inner()).is_some()
    }

    /// The per-endpoint counters (shared handle; clone freely).
    pub fn metrics(&self) -> ServiceMetrics {
        self.metrics.clone()
    }

    /// The wrapped backend, for out-of-band inspection (audit log etc.).
    pub fn provider(&self) -> &P {
        &self.sp
    }

    fn load_puzzle(&self, raw: u64) -> Result<Arc<Puzzle>, (ErrorCode, String)> {
        if let Some(cached) = self.puzzle_cache.get(&raw) {
            self.metrics.record_cache(PUZZLE_CACHE, true);
            return Ok(cached);
        }
        self.metrics.record_cache(PUZZLE_CACHE, false);
        let bytes = self
            .sp
            .fetch_puzzle(PuzzleId::from_raw(raw))
            .map_err(|e| (code_for(e), e.to_string()))?;
        let puzzle = Arc::new(
            Puzzle::from_bytes(&bytes)
                .map_err(|e| (ErrorCode::Internal, format!("stored puzzle is corrupt: {e}")))?,
        );
        self.puzzle_cache.insert(raw, puzzle.clone());
        Ok(puzzle)
    }

    /// Drops a puzzle's cached parse after its stored record changed.
    fn invalidate_puzzle(&self, raw: u64) {
        if self.puzzle_cache.remove(&raw).is_some() {
            self.metrics.record_cache_invalidation(PUZZLE_CACHE);
        }
    }

    fn dispatch(&self, req: SpRequest) -> Result<Vec<u8>, (ErrorCode, String)> {
        let osn = |e: OsnError| (code_for(e), e.to_string());
        match req {
            SpRequest::Upload { record } => {
                // Server-assigned ids cannot be consistent-hash routed, so
                // clustered nodes only accept the key-addressed PublishAt.
                if self.is_clustered() {
                    return Err((
                        ErrorCode::BadRequest,
                        "clustered SPs assign no ids; use PublishAt with a ring key".into(),
                    ));
                }
                let id = self.sp.publish_puzzle(Bytes::from(record)).map_err(osn)?;
                // A fresh id normally has no cached parse, but the provider
                // may recycle ids after deletes — never serve a stale parse.
                self.invalidate_puzzle(id.raw());
                Ok(encode_u64(id.raw()))
            }
            SpRequest::PublishAt { puzzle, record } => {
                self.check_owner(puzzle)?;
                self.sp
                    .publish_puzzle_at(PuzzleId::from_raw(puzzle), Bytes::from(record))
                    .map_err(osn)?;
                self.invalidate_puzzle(puzzle);
                Ok(encode_u64(puzzle))
            }
            SpRequest::FetchPuzzle { puzzle } => {
                self.check_owner(puzzle)?;
                let bytes = self.sp.fetch_puzzle(PuzzleId::from_raw(puzzle)).map_err(osn)?;
                Ok(encode_bytes(&bytes))
            }
            SpRequest::ReplacePuzzle { puzzle, record } => {
                self.check_owner(puzzle)?;
                self.sp
                    .replace_puzzle(PuzzleId::from_raw(puzzle), Bytes::from(record))
                    .map_err(osn)?;
                self.invalidate_puzzle(puzzle);
                Ok(Vec::new())
            }
            SpRequest::DeletePuzzle { puzzle } => {
                // Deliberately NOT ownership-checked: after a rebalance the
                // *old* owner garbage-collects its moved-away copy, which is
                // by definition a key it no longer owns.
                self.sp.delete_puzzle(PuzzleId::from_raw(puzzle)).map_err(osn)?;
                self.invalidate_puzzle(puzzle);
                Ok(Vec::new())
            }
            SpRequest::LogAccess { user, puzzle, granted } => {
                self.check_owner(puzzle)?;
                self.sp
                    .log_access(UserId::from_raw(user), PuzzleId::from_raw(puzzle), granted)
                    .map_err(osn)?;
                Ok(Vec::new())
            }
            SpRequest::Post { author, text, puzzle } => {
                self.check_owner(puzzle)?;
                let id = self
                    .sp
                    .post(UserId::from_raw(author), &text, PuzzleId::from_raw(puzzle))
                    .map_err(osn)?;
                Ok(encode_u64(id.raw()))
            }
            SpRequest::DisplayPuzzle { puzzle } => {
                self.check_owner(puzzle)?;
                let p = self.load_puzzle(puzzle)?;
                let mut rng = self.rng.lock().unwrap_or_else(|poison| poison.into_inner());
                let displayed = self.c1.display_puzzle(&p, &mut *rng);
                Ok(encode_displayed_puzzle(&displayed))
            }
            SpRequest::Verify { user, puzzle, response } => {
                self.check_owner(puzzle)?;
                let p = self.load_puzzle(puzzle)?;
                let verdict = self.c1.verify(&p, &response);
                // The audit log records the attempt either way — this is
                // the metadata the SP inevitably observes (§IV-B).
                self.sp
                    .log_access(UserId::from_raw(user), PuzzleId::from_raw(puzzle), verdict.is_ok())
                    .map_err(osn)?;
                match verdict {
                    Ok(outcome) => Ok(encode_verify_outcome(&outcome)),
                    Err(SocialPuzzleError::NotEnoughCorrectAnswers) => Err((
                        ErrorCode::NotEnoughCorrectAnswers,
                        "fewer than k answers verified".into(),
                    )),
                    Err(e) => Err((ErrorCode::Internal, e.to_string())),
                }
            }
            SpRequest::Access { puzzle } => {
                self.check_owner(puzzle)?;
                let p = self.load_puzzle(puzzle)?;
                Ok(encode_string(p.url().as_str()))
            }
            SpRequest::VerifyBatch { entries } => {
                // Whole-frame ownership: a batch straddling an ownership
                // boundary is a routing error, so the frame fails as one
                // and the (cluster-aware) client re-groups by owner.
                for e in &entries {
                    self.check_owner(e.puzzle)?;
                }
                self.metrics.record_batch("sp.verify_batch", entries.len() as u64);
                Ok(encode_batch_results(&self.verify_batch_entries(&entries)?))
            }
            SpRequest::AnswerPuzzleBatch { user, puzzle, responses } => {
                self.check_owner(puzzle)?;
                self.metrics.record_batch("sp.answer_puzzle_batch", responses.len() as u64);
                let p = self.load_puzzle(puzzle)?;
                let verdicts = self.c1.verify_batch(&p, &responses);
                self.sp
                    .log_access_batch(
                        verdicts
                            .iter()
                            .map(|v| {
                                (UserId::from_raw(user), PuzzleId::from_raw(puzzle), v.is_ok())
                            })
                            .collect(),
                    )
                    .map_err(osn)?;
                let results: Vec<BatchEntryResult> =
                    verdicts.into_iter().map(verdict_to_entry).collect();
                Ok(encode_batch_results(&results))
            }
            // Cluster control plane: never ownership-checked. Replication
            // works even without a ring (a standby replica), and ring
            // exchange is how nodes learn ownership in the first place.
            SpRequest::RingGet => {
                let Some(ring) = self.cluster_ring() else {
                    return Err((ErrorCode::BadRequest, "node is not clustered".into()));
                };
                Ok(ring.encode())
            }
            SpRequest::RingSet { ring } => {
                let ring = HashRing::decode(&ring)
                    .map_err(|e| (ErrorCode::BadRequest, format!("malformed ring: {e}")))?;
                Ok(encode_u64(self.install_ring(ring)?))
            }
            SpRequest::Replicate { frames } => {
                let applied =
                    self.sp.repl_apply(&frames).map_err(|detail| (ErrorCode::Internal, detail))?;
                // Replicated writes bypass the dispatch arms that normally
                // invalidate the parsed-puzzle cache — do it here.
                for raw in applied.puzzles_touched {
                    self.invalidate_puzzle(raw);
                }
                self.metrics.server_repl_applied(SP_CLUSTER, applied.applied);
                Ok(encode_u64(applied.watermark))
            }
            SpRequest::ReplStatus => Ok(encode_u64(self.sp.repl_watermark())),
        }
    }

    /// Evaluates a `VerifyBatch` frame: entries are grouped by puzzle so
    /// each puzzle is loaded and parsed once and verified through the
    /// amortized [`Construction1::verify_batch`] path; results and audit
    /// entries come back in the original entry order, and a failing entry
    /// (unknown puzzle, below threshold) fails only its own slot. A
    /// backend failure to *log* the batch (durable log crash) fails the
    /// frame: results must never outrun the audit trail.
    fn verify_batch_entries(
        &self,
        entries: &[VerifyEntry],
    ) -> Result<Vec<BatchEntryResult>, (ErrorCode, String)> {
        let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, e) in entries.iter().enumerate() {
            groups.entry(e.puzzle).or_default().push(i);
        }

        let mut results: Vec<Option<BatchEntryResult>> = vec![None; entries.len()];
        let mut granted: Vec<Option<bool>> = vec![None; entries.len()];
        for (&puzzle_raw, idxs) in &groups {
            match self.load_puzzle(puzzle_raw) {
                Err(err) => {
                    // An unknown puzzle is not an access attempt — the
                    // single-Verify path errors before logging too.
                    for &i in idxs {
                        results[i] = Some(Err(err.clone()));
                    }
                }
                Ok(p) => {
                    let responses: Vec<PuzzleResponse> =
                        idxs.iter().map(|&i| entries[i].response.clone()).collect();
                    for (&i, verdict) in idxs.iter().zip(self.c1.verify_batch(&p, &responses)) {
                        granted[i] = Some(verdict.is_ok());
                        results[i] = Some(verdict_to_entry(verdict));
                    }
                }
            }
        }
        self.sp
            .log_access_batch(
                entries
                    .iter()
                    .zip(&granted)
                    .filter_map(|(e, g)| {
                        g.map(|granted| {
                            (UserId::from_raw(e.user), PuzzleId::from_raw(e.puzzle), granted)
                        })
                    })
                    .collect(),
            )
            .map_err(|e| (code_for(e), e.to_string()))?;
        Ok(results.into_iter().map(|r| r.expect("every entry answered")).collect())
    }

    /// Pushes the backend's current per-shard load counters (component
    /// `"sp.puzzles"`), the puzzle cache's, and, for durable backends,
    /// durability counters (component `"sp.store"`) into the metrics
    /// registry. Call it before reading those components; requests do
    /// not refresh them.
    pub fn sync_shard_metrics(&self) {
        if let Some(d) = self.sp.durability() {
            self.metrics.set_store_counters(
                "sp.store",
                StoreCounters {
                    durable_appends: d.durable_appends,
                    fsync_batches: d.fsync_batches,
                    recovery_replayed_records: d.recovery_replayed_records,
                    snapshot_count: d.snapshot_count,
                },
            );
        }
        self.metrics.set_shard_contention(
            "sp.puzzles",
            self.sp
                .shard_loads()
                .into_iter()
                .map(|l| ShardContention {
                    reads: l.reads,
                    writes: l.writes,
                    contended: l.contended,
                })
                .collect(),
        );
        self.metrics.set_shard_contention(
            PUZZLE_CACHE,
            self.puzzle_cache
                .loads()
                .into_iter()
                .map(|l| ShardContention {
                    reads: l.reads,
                    writes: l.writes,
                    contended: l.contended,
                })
                .collect(),
        );
    }
}

/// Maps one verify verdict onto its batched-response slot.
fn verdict_to_entry(v: Result<VerifyOutcome, SocialPuzzleError>) -> BatchEntryResult {
    match v {
        Ok(outcome) => Ok(encode_verify_outcome(&outcome)),
        Err(SocialPuzzleError::NotEnoughCorrectAnswers) => {
            Err((ErrorCode::NotEnoughCorrectAnswers, "fewer than k answers verified".into()))
        }
        Err(e) => Err((ErrorCode::Internal, e.to_string())),
    }
}

impl<P: ProviderBackend + Send + Sync + 'static> Service for SpService<P> {
    fn handle(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
        // Idempotency-tagged mutations (see `crate::dedup`) execute at
        // most once; a replayed token gets the remembered response.
        if let Some((token, inner)) = strip_idempotency(request) {
            return self.replay.execute(token, inner, |req| self.handle_inner(req));
        }
        self.handle_inner(request)
    }
}

impl<P: ProviderBackend> SpService<P> {
    fn handle_inner(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
        let req = match SpRequest::decode(request) {
            Ok(req) => req,
            Err(e) => {
                self.metrics.record("sp.bad_request", request.len() as u64, 0, true);
                return Err((ErrorCode::BadRequest, e.to_string()));
            }
        };
        let endpoint = req.endpoint();
        let result = self.dispatch(req);
        let (out, is_err) = match &result {
            Ok(resp) => (resp.len() as u64, false),
            Err(_) => (0, true),
        };
        self.metrics.record(endpoint, request.len() as u64, out, is_err);
        result
    }
}

/// A remote [`ProviderApi`] speaking the framed protocol to an SP
/// daemon, plus the receiver-facing puzzle subroutines.
#[derive(Debug)]
pub struct SpClient {
    conn: PipelinedConnection,
}

impl SpClient {
    /// Points a client at a daemon address, one request in flight at a
    /// time (a depth-1 [`PipelinedConnection`]).
    pub fn connect(addr: SocketAddr, cfg: ClientConfig) -> Self {
        Self::connect_pipelined(addr, PipelineConfig { client: cfg, depth: 1 })
    }

    /// Like [`SpClient::connect`], but with up to [`PipelineConfig::depth`]
    /// requests in flight on one socket.
    pub fn connect_pipelined(addr: SocketAddr, cfg: PipelineConfig) -> Self {
        Self { conn: PipelinedConnection::new(addr, cfg) }
    }

    /// Every call carries an idempotency token (see [`crate::dedup`]), so
    /// a retried mutation whose response was lost applies at most once.
    fn call(&self, req: &SpRequest) -> Result<Vec<u8>, NetError> {
        self.conn.call(&req.encode())
    }

    /// `DisplayPuzzle`: the SP picks and returns the question subset.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Remote`] with [`ErrorCode::UnknownPuzzle`] for
    /// unknown ids, or a transport error.
    pub fn display_puzzle(&self, puzzle: PuzzleId) -> Result<DisplayedPuzzle, NetError> {
        let payload = self.call(&SpRequest::DisplayPuzzle { puzzle: puzzle.raw() })?;
        Ok(decode_displayed_puzzle(&payload)?)
    }

    /// `Verify`: submit the receiver's hashed answers; the SP verifies,
    /// logs the attempt, and on success releases the blinded shares.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Remote`] with
    /// [`ErrorCode::NotEnoughCorrectAnswers`] below the threshold.
    pub fn verify(
        &self,
        user: UserId,
        puzzle: PuzzleId,
        response: &PuzzleResponse,
    ) -> Result<VerifyOutcome, NetError> {
        let payload = self.call(&SpRequest::Verify {
            user: user.raw(),
            puzzle: puzzle.raw(),
            response: response.clone(),
        })?;
        Ok(decode_verify_outcome(&payload)?)
    }

    /// Batched `Verify`: many independent attempts in one frame. One
    /// result per entry, in order — per-entry failures come back as
    /// [`NetError::Remote`] in their own slot, so a below-threshold
    /// attempt never masks its neighbors.
    ///
    /// # Errors
    ///
    /// Returns a transport or decode error for the frame as a whole.
    pub fn verify_batch(
        &self,
        entries: &[(UserId, PuzzleId, PuzzleResponse)],
    ) -> Result<Vec<Result<VerifyOutcome, NetError>>, NetError> {
        let req = SpRequest::VerifyBatch {
            entries: entries
                .iter()
                .map(|(user, puzzle, response)| VerifyEntry {
                    user: user.raw(),
                    puzzle: puzzle.raw(),
                    response: response.clone(),
                })
                .collect(),
        };
        let payload = self.call(&req)?;
        decode_batch_outcomes(&payload)
    }

    /// Batched `Verify` of many answer-sets against one puzzle. One
    /// result per answer-set, in order.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Remote`] for the frame as a whole when the
    /// puzzle itself is unknown; per-entry verdicts are in the slots.
    pub fn answer_puzzle_batch(
        &self,
        user: UserId,
        puzzle: PuzzleId,
        responses: &[PuzzleResponse],
    ) -> Result<Vec<Result<VerifyOutcome, NetError>>, NetError> {
        let payload = self.call(&SpRequest::AnswerPuzzleBatch {
            user: user.raw(),
            puzzle: puzzle.raw(),
            responses: responses.to_vec(),
        })?;
        decode_batch_outcomes(&payload)
    }

    /// `Access`: where the puzzle's encrypted object lives.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Remote`] for unknown ids, or a transport error.
    pub fn access(&self, puzzle: PuzzleId) -> Result<Url, NetError> {
        let payload = self.call(&SpRequest::Access { puzzle: puzzle.raw() })?;
        let url = decode_string(&payload)?;
        Url::parse(url).map_err(|_| NetError::Decode(sp_wire::WireError::BadLength))
    }

    /// Publishes (or idempotently overwrites) a record at a
    /// *caller-chosen* puzzle id — the cluster publish path, where the
    /// id doubles as the routing key ([`crate::ring::key_for_url`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Remote`] with [`ErrorCode::WrongOwner`] when
    /// this node does not own the key, or a transport error.
    pub fn publish_at(&self, puzzle: PuzzleId, record: Bytes) -> Result<(), NetError> {
        let payload =
            self.call(&SpRequest::PublishAt { puzzle: puzzle.raw(), record: record.to_vec() })?;
        decode_u64(&payload)?;
        Ok(())
    }

    /// Fetches the node's current consistent-hash ring.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Remote`] with [`ErrorCode::BadRequest`] from
    /// a non-clustered node.
    pub fn ring_get(&self) -> Result<HashRing, NetError> {
        let payload = self.call(&SpRequest::RingGet)?;
        Ok(HashRing::decode(&payload)?)
    }

    /// Offers the node a (possibly newer) ring; returns the epoch the
    /// node serves after the call. Safe to retry — only strictly-higher
    /// epochs are installed.
    pub fn ring_set(&self, ring: &HashRing) -> Result<u64, NetError> {
        let payload = self.call(&SpRequest::RingSet { ring: ring.encode() })?;
        Ok(decode_u64(&payload)?)
    }

    /// Ships a CRC-framed replication delta (see
    /// `Wal::export_frames_after`); returns the replica's new durable
    /// watermark — the ack.
    pub fn replicate(&self, frames: Vec<u8>) -> Result<u64, NetError> {
        let payload = self.call(&SpRequest::Replicate { frames })?;
        Ok(decode_u64(&payload)?)
    }

    /// The peer's durable replication watermark (0 for non-durable
    /// backends).
    pub fn repl_status(&self) -> Result<u64, NetError> {
        let payload = self.call(&SpRequest::ReplStatus)?;
        Ok(decode_u64(&payload)?)
    }

    /// [`ProviderApi::fetch_puzzle`] keeping the transport-level error —
    /// the cluster client needs to see `WrongOwner`, which the
    /// `OsnError` surface collapses into `Transport`.
    pub fn fetch_record(&self, id: PuzzleId) -> Result<Bytes, NetError> {
        let payload = self.call(&SpRequest::FetchPuzzle { puzzle: id.raw() })?;
        Ok(Bytes::from(decode_bytes(&payload)?))
    }

    /// [`ProviderApi::replace_puzzle`], transport-level errors kept.
    pub fn replace_record(&self, id: PuzzleId, record: Bytes) -> Result<(), NetError> {
        self.call(&SpRequest::ReplacePuzzle { puzzle: id.raw(), record: record.to_vec() })?;
        Ok(())
    }

    /// [`ProviderApi::delete_puzzle`], transport-level errors kept.
    pub fn delete_record(&self, id: PuzzleId) -> Result<(), NetError> {
        self.call(&SpRequest::DeletePuzzle { puzzle: id.raw() })?;
        Ok(())
    }
}

impl ProviderApi for SpClient {
    fn publish_puzzle(&self, record: Bytes) -> Result<PuzzleId, OsnError> {
        let payload = self.call(&SpRequest::Upload { record: record.to_vec() })?;
        Ok(PuzzleId::from_raw(decode_u64(&payload).map_err(NetError::from)?))
    }

    fn fetch_puzzle(&self, id: PuzzleId) -> Result<Bytes, OsnError> {
        let payload = self.call(&SpRequest::FetchPuzzle { puzzle: id.raw() })?;
        Ok(Bytes::from(decode_bytes(&payload).map_err(NetError::from)?))
    }

    fn replace_puzzle(&self, id: PuzzleId, record: Bytes) -> Result<(), OsnError> {
        self.call(&SpRequest::ReplacePuzzle { puzzle: id.raw(), record: record.to_vec() })?;
        Ok(())
    }

    fn delete_puzzle(&self, id: PuzzleId) -> Result<(), OsnError> {
        self.call(&SpRequest::DeletePuzzle { puzzle: id.raw() })?;
        Ok(())
    }

    fn log_access(&self, user: UserId, puzzle: PuzzleId, granted: bool) -> Result<(), OsnError> {
        self.call(&SpRequest::LogAccess { user: user.raw(), puzzle: puzzle.raw(), granted })?;
        Ok(())
    }

    fn post(&self, author: UserId, text: &str, puzzle: PuzzleId) -> Result<PostId, OsnError> {
        let payload = self.call(&SpRequest::Post {
            author: author.raw(),
            text: text.to_owned(),
            puzzle: puzzle.raw(),
        })?;
        Ok(PostId::from_raw(decode_u64(&payload).map_err(NetError::from)?))
    }
}

// Tiny response payload codecs shared with `dh.rs`.

pub(crate) fn encode_u64(v: u64) -> Vec<u8> {
    v.to_be_bytes().to_vec()
}

pub(crate) fn decode_u64(payload: &[u8]) -> Result<u64, sp_wire::WireError> {
    let mut r = Reader::new(payload);
    let v = r.u64()?;
    r.expect_end()?;
    Ok(v)
}

pub(crate) fn encode_bytes(data: &[u8]) -> Vec<u8> {
    let mut w = sp_wire::Writer::new();
    w.bytes(data);
    w.finish().to_vec()
}

pub(crate) fn decode_bytes(payload: &[u8]) -> Result<Vec<u8>, sp_wire::WireError> {
    let mut r = Reader::new(payload);
    let v = r.bytes()?.to_vec();
    r.expect_end()?;
    Ok(v)
}

pub(crate) fn encode_string(s: &str) -> Vec<u8> {
    let mut w = sp_wire::Writer::new();
    w.string(s);
    w.finish().to_vec()
}

pub(crate) fn decode_string(payload: &[u8]) -> Result<&str, sp_wire::WireError> {
    let mut r = Reader::new(payload);
    // NOTE: borrow outlives the reader because the slice borrows from
    // `payload`, not from `r`.
    let s = r.string()?;
    r.expect_end()?;
    Ok(s)
}

/// Decodes a batch-results frame into per-entry [`VerifyOutcome`]s.
/// Entry-level server errors become [`NetError::Remote`] in their own
/// slot; an ok slot whose payload fails to parse poisons the whole call,
/// since that means the frame itself is corrupt.
fn decode_batch_outcomes(payload: &[u8]) -> Result<Vec<Result<VerifyOutcome, NetError>>, NetError> {
    decode_batch_results(payload)?
        .into_iter()
        .map(|slot| match slot {
            Ok(bytes) => Ok(Ok(decode_verify_outcome(&bytes)?)),
            Err((code, detail)) => Ok(Err(NetError::Remote { code, detail })),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, DaemonConfig};
    use rand::SeedableRng;
    use social_puzzles_core::context::Context;
    use std::sync::Arc;

    fn boot() -> (Daemon, SpClient, ServiceMetrics, Arc<SpService>) {
        let service = Arc::new(SpService::new(ServiceProvider::new(), Construction1::new()));
        let metrics = service.metrics();
        let daemon =
            Daemon::spawn("127.0.0.1:0", Arc::clone(&service) as _, DaemonConfig::default())
                .unwrap();
        let client = SpClient::connect(daemon.addr(), ClientConfig::default());
        (daemon, client, metrics, service)
    }

    #[test]
    fn provider_api_over_the_wire() {
        let (daemon, client, metrics, _) = boot();
        let id = client.publish_puzzle(Bytes::from_static(b"record")).unwrap();
        assert_eq!(client.fetch_puzzle(id).unwrap(), Bytes::from_static(b"record"));
        client.replace_puzzle(id, Bytes::from_static(b"v2")).unwrap();
        assert_eq!(client.fetch_puzzle(id).unwrap(), Bytes::from_static(b"v2"));
        let user = UserId::from_raw(8);
        client.log_access(user, id, false).unwrap();
        let post = client.post(user, "hello", id).unwrap();
        assert_eq!(post.raw(), 0);
        client.delete_puzzle(id).unwrap();
        assert_eq!(client.fetch_puzzle(id).unwrap_err(), OsnError::UnknownPuzzle);

        assert_eq!(metrics.endpoint("sp.upload").requests, 1);
        assert_eq!(metrics.endpoint("sp.fetch_puzzle").requests, 3);
        assert_eq!(metrics.endpoint("sp.fetch_puzzle").errors, 1);
        daemon.shutdown();
    }

    #[test]
    fn puzzle_subroutines_over_the_wire() {
        let (daemon, client, _, service) = boot();
        let provider = service.provider();
        let c1 = Construction1::new();
        let mut rng = StdRng::seed_from_u64(99);
        let ctx = Context::builder()
            .pair("Where?", "lakeside cabin")
            .pair("Who?", "priya")
            .pair("What?", "corn")
            .build()
            .unwrap();
        let upload = c1
            .upload_to(b"obj", &ctx, 2, Url::from("https://dh.example/objects/0"), None, &mut rng)
            .unwrap();
        let id = client.publish_puzzle(Bytes::from(upload.puzzle.to_bytes())).unwrap();

        // DisplayPuzzle runs server-side.
        let displayed = client.display_puzzle(id).unwrap();
        assert!(displayed.questions.len() >= 2);

        // AnswerPuzzle runs receiver-side; Verify runs server-side.
        let answers = displayed.answer(|q| ctx.answer_for(q).map(str::to_owned));
        let response = c1.answer_puzzle(&displayed, &answers);
        let receiver = UserId::from_raw(5);
        let outcome = client.verify(receiver, id, &response).unwrap();
        let object = c1
            .access_with_key(
                &outcome,
                &answers,
                &upload.encrypted_object,
                Some(&displayed.puzzle_key),
            )
            .unwrap();
        assert_eq!(object, b"obj");

        // Access returns the object's URL.
        assert_eq!(client.access(id).unwrap().as_str(), "https://dh.example/objects/0");

        // A clueless receiver is refused with the typed code, and both
        // attempts landed in the server's audit log.
        let empty = c1.answer_puzzle(&displayed, &[]);
        match client.verify(receiver, id, &empty).unwrap_err() {
            NetError::Remote { code, .. } => {
                assert_eq!(code, ErrorCode::NotEnoughCorrectAnswers)
            }
            other => panic!("expected Remote, got {other}"),
        }
        let log = provider.audit_log();
        assert_eq!(log.len(), 2);
        assert!(log[0].granted && !log[1].granted);
        daemon.shutdown();
    }

    #[test]
    fn verify_batch_over_the_wire_is_per_entry() {
        let (daemon, client, metrics, service) = boot();
        let provider = service.provider();
        let c1 = Construction1::new();
        let mut rng = StdRng::seed_from_u64(41);
        let ctx =
            Context::builder().pair("Where?", "rooftop").pair("Who?", "omar").build().unwrap();
        let upload = c1
            .upload_to(b"obj", &ctx, 1, Url::from("https://dh.example/objects/9"), None, &mut rng)
            .unwrap();
        let id = client.publish_puzzle(Bytes::from(upload.puzzle.to_bytes())).unwrap();
        let displayed = client.display_puzzle(id).unwrap();
        let answers = displayed.answer(|q| ctx.answer_for(q).map(str::to_owned));
        let good = c1.answer_puzzle(&displayed, &answers);
        let bad = c1.answer_puzzle(&displayed, &[]);

        let alice = UserId::from_raw(1);
        let bob = UserId::from_raw(2);
        let ghost = PuzzleId::from_raw(4096);
        let batch = [(alice, id, good.clone()), (bob, id, bad.clone()), (bob, ghost, good.clone())];
        let results = client.verify_batch(&batch).unwrap();
        assert_eq!(results.len(), 3);
        let outcome = results[0].as_ref().expect("good entry verifies");
        assert_eq!(outcome, &client.verify(alice, id, &good).unwrap());
        match results[1].as_ref().unwrap_err() {
            NetError::Remote { code, .. } => {
                assert_eq!(*code, ErrorCode::NotEnoughCorrectAnswers)
            }
            other => panic!("expected Remote, got {other}"),
        }
        match results[2].as_ref().unwrap_err() {
            NetError::Remote { code, .. } => assert_eq!(*code, ErrorCode::UnknownPuzzle),
            other => panic!("expected Remote, got {other}"),
        }

        // Audit: batch entries land in original order; the unknown-puzzle
        // entry is not logged (it never reached Verify), matching the
        // single-Verify path. The follow-up single verify appends one more.
        let log = provider.audit_log();
        assert_eq!(log.len(), 3);
        assert_eq!((log[0].user, log[0].granted), (alice, true));
        assert_eq!((log[1].user, log[1].granted), (bob, false));
        assert_eq!((log[2].user, log[2].granted), (alice, true));

        // Empty batch is a valid no-op frame.
        assert!(client.verify_batch(&[]).unwrap().is_empty());

        let hist = metrics.batch_histogram("sp.verify_batch");
        assert_eq!(hist.count, 2);
        assert_eq!(hist.max, 3);
        service.sync_shard_metrics();
        assert!(metrics.shard_contention_totals("sp.puzzles").reads > 0);
        daemon.shutdown();
    }

    #[test]
    fn answer_puzzle_batch_over_the_wire() {
        let (daemon, client, _, service) = boot();
        let provider = service.provider();
        let c1 = Construction1::new();
        let mut rng = StdRng::seed_from_u64(43);
        let ctx = Context::builder()
            .pair("Which trail?", "ridgeline")
            .pair("Which summit?", "old rag")
            .build()
            .unwrap();
        let upload = c1
            .upload_to(b"obj", &ctx, 2, Url::from("https://dh.example/objects/3"), None, &mut rng)
            .unwrap();
        let id = client.publish_puzzle(Bytes::from(upload.puzzle.to_bytes())).unwrap();
        let displayed = client.display_puzzle(id).unwrap();
        let answers = displayed.answer(|q| ctx.answer_for(q).map(str::to_owned));
        let good = c1.answer_puzzle(&displayed, &answers);
        let bad = c1.answer_puzzle(&displayed, &answers[..1]);

        let user = UserId::from_raw(7);
        let results =
            client.answer_puzzle_batch(user, id, &[bad.clone(), good.clone(), bad]).unwrap();
        assert_eq!(results.len(), 3);
        assert!(results[0].is_err() && results[2].is_err());
        assert!(results[1].is_ok());
        assert_eq!(provider.audit_log().len(), 3);

        // A batch against an unknown puzzle fails the frame as a whole —
        // there is no per-entry work to report.
        match client.answer_puzzle_batch(user, PuzzleId::from_raw(999), &[good]).unwrap_err() {
            NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::UnknownPuzzle),
            other => panic!("expected Remote, got {other}"),
        }
        daemon.shutdown();
    }

    #[test]
    fn display_puzzle_memoizes_the_stored_parse_per_url() {
        let (daemon, client, metrics, service) = boot();
        let c1 = Construction1::new();
        let mut rng = StdRng::seed_from_u64(17);
        let ctx =
            Context::builder().pair("Where?", "boathouse").pair("Who?", "lena").build().unwrap();
        let upload = c1
            .upload_to(b"obj", &ctx, 2, Url::from("https://dh.example/objects/7"), None, &mut rng)
            .unwrap();
        let id = client.publish_puzzle(Bytes::from(upload.puzzle.to_bytes())).unwrap();

        // First display parses the stored record; repeats are cache hits
        // even though each display re-randomizes the question subset.
        client.display_puzzle(id).unwrap();
        client.display_puzzle(id).unwrap();
        client.display_puzzle(id).unwrap();
        let c = metrics.cache("sp.puzzle_cache");
        assert_eq!((c.hits, c.misses, c.invalidations), (2, 1, 0));

        // Re-uploading the record under the same id invalidates the cached
        // parse, so the next display misses and re-parses.
        let upload2 = c1
            .upload_to(b"obj2", &ctx, 2, Url::from("https://dh.example/objects/8"), None, &mut rng)
            .unwrap();
        client.replace_puzzle(id, Bytes::from(upload2.puzzle.to_bytes())).unwrap();
        assert_eq!(client.access(id).unwrap().as_str(), "https://dh.example/objects/8");
        let c = metrics.cache("sp.puzzle_cache");
        assert_eq!(c.invalidations, 1);
        assert_eq!(c.misses, 2, "replace forces a re-parse");

        // Deleting drops the entry too; the failed load still counts as a
        // miss (there is nothing to cache).
        client.delete_puzzle(id).unwrap();
        assert_eq!(metrics.cache("sp.puzzle_cache").invalidations, 2);
        assert!(client.display_puzzle(id).is_err());
        assert_eq!(metrics.cache("sp.puzzle_cache").misses, 3);

        // The cache's own sharded-store load counters are exported.
        service.sync_shard_metrics();
        assert!(metrics.shard_contention_totals("sp.puzzle_cache").reads > 0);
        daemon.shutdown();
    }

    /// The whole receiver-side flow over a pipelined client: every RPC —
    /// including mutations with their idempotency tokens — behaves
    /// identically to the sequential transport, and concurrent verifies
    /// share one socket.
    #[test]
    fn pipelined_client_drives_the_full_flow() {
        let service = SpService::new(ServiceProvider::new(), Construction1::new());
        let server_metrics = ServiceMetrics::new();
        let daemon = Daemon::spawn(
            "127.0.0.1:0",
            Arc::new(service),
            DaemonConfig { metrics: server_metrics.clone(), ..DaemonConfig::default() },
        )
        .unwrap();
        let client = SpClient::connect_pipelined(daemon.addr(), crate::PipelineConfig::default());

        let c1 = Construction1::new();
        let mut rng = StdRng::seed_from_u64(7);
        let ctx =
            Context::builder().pair("Where?", "the pier").pair("Who?", "sam").build().unwrap();
        let upload = c1
            .upload_to(b"obj", &ctx, 2, Url::from("https://dh.example/objects/1"), None, &mut rng)
            .unwrap();
        let id = client.publish_puzzle(Bytes::from(upload.puzzle.to_bytes())).unwrap();
        let displayed = client.display_puzzle(id).unwrap();
        let answers = displayed.answer(|q| ctx.answer_for(q).map(str::to_owned));
        let response = c1.answer_puzzle(&displayed, &answers);

        // Many verifies racing through one pipelined socket.
        let client = Arc::new(client);
        std::thread::scope(|s| {
            for u in 0..8u64 {
                let client = Arc::clone(&client);
                let response = response.clone();
                s.spawn(move || {
                    client.verify(UserId::from_raw(u), id, &response).unwrap();
                });
            }
        });
        assert_eq!(client.access(id).unwrap().as_str(), "https://dh.example/objects/1");
        assert_eq!(server_metrics.server("net.server").v2_negotiated, 1);
        daemon.shutdown();
    }

    #[test]
    fn malformed_request_is_a_bad_request_error() {
        let (daemon, client, metrics, _) = boot();
        let err = client.conn.call(&[0x77, 1, 2, 3]).unwrap_err();
        match err {
            NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected Remote, got {other}"),
        }
        assert_eq!(metrics.endpoint("sp.bad_request").errors, 1);
        daemon.shutdown();
    }
}
