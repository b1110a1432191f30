//! Multi-node SP clustering: the ring-routing client and the
//! primary→replica replicator.
//!
//! One SP process cannot hold a real OSN's Verify load, so puzzle
//! ownership is partitioned across N SP daemons by a consistent-hash
//! ring ([`crate::ring`]) keyed on `URL_O` — the same identifier the
//! paper's `Access` subroutine already resolves. Three pieces cooperate:
//!
//! * **Self-routing ids.** A clustered puzzle id *is* its routing key
//!   ([`key_for_url`]), chosen by the uploader rather than assigned by a
//!   server. Any party holding the id can find the owner with nothing
//!   but a ring; ids survive rebalances unchanged.
//! * **[`ClusterClient`]** routes each keyed request to the ring owner
//!   over per-node pipelined [`SpClient`]s. A node that
//!   disagrees refuses with [`ErrorCode::WrongOwner`] and a
//!   machine-parseable `epoch={e} owner={addr|none}` hint; the client
//!   reconciles — pulling the refuser's ring when the refuser is newer,
//!   pushing its own when the refuser is stale — and retries. Retried
//!   mutations are safe: every mutation carries a fresh idempotency
//!   token and a `WrongOwner` refusal never executed.
//! * **[`Replicator`]** ships a durable primary's WAL to a standby
//!   replica as CRC-framed records (`Wal::export_frames_after` →
//!   `Replicate` → replica applies and acks its durable watermark).
//!   Because replay is byte-identical, promotion is just a `RingSet`
//!   that hands the replica its dead primary's key range.
//!
//! See `docs/CLUSTER.md` for the full protocol description.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use social_puzzles_core::construction1::{DisplayedPuzzle, PuzzleResponse, VerifyOutcome};
use sp_osn::{ProviderBackend, PuzzleId, Url, UserId};

use crate::client::ClientConfig;
use crate::error::{ErrorCode, NetError};
use crate::pipeline::PipelineConfig;
use crate::ring::{key_for_url, HashRing};
use crate::sp::{SpClient, SpService, SP_CLUSTER};

/// How many `WrongOwner` redirects one logical call may follow before
/// giving up. Each redirect reconciles ring views, so convergence takes
/// one hop in practice; the bound only guards against split-brain rings.
const MAX_REDIRECTS: u32 = 4;

/// Client-side routing counters (snapshot; see
/// [`ClusterClient::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterClientStats {
    /// `WrongOwner` refusals followed by a reconcile-and-retry.
    pub redirects_followed: u64,
    /// Newer rings adopted from refusing nodes.
    pub rings_learned: u64,
    /// Own (newer) rings pushed to stale nodes.
    pub rings_pushed: u64,
}

/// What a [`ClusterClient::rebalance`] moved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RebalanceStats {
    /// Keys whose owner changed and whose record was re-published.
    pub moved: u64,
    /// Old-owner copies garbage-collected after the move.
    pub deleted: u64,
}

/// A cluster-aware SP client: routes keyed requests to the ring owner,
/// learns newer rings from `WrongOwner` redirects, and retries safely
/// (all mutations are idempotency-tagged).
pub struct ClusterClient {
    ring: RwLock<HashRing>,
    conns: Mutex<HashMap<SocketAddr, Arc<SpClient>>>,
    cfg: PipelineConfig,
    redirects_followed: AtomicU64,
    rings_learned: AtomicU64,
    rings_pushed: AtomicU64,
}

impl ClusterClient {
    /// Builds a client over `ring`; per-node connections are opened
    /// lazily with `cfg`.
    pub fn connect(ring: HashRing, cfg: PipelineConfig) -> Self {
        Self {
            ring: RwLock::new(ring),
            conns: Mutex::new(HashMap::new()),
            cfg,
            redirects_followed: AtomicU64::new(0),
            rings_learned: AtomicU64::new(0),
            rings_pushed: AtomicU64::new(0),
        }
    }

    /// The client's current ring view.
    pub fn ring(&self) -> HashRing {
        self.ring.read().unwrap_or_else(|poison| poison.into_inner()).clone()
    }

    /// Adopts `ring` if strictly newer; returns whether it was adopted.
    pub fn install_ring(&self, ring: HashRing) -> bool {
        let mut guard = self.ring.write().unwrap_or_else(|poison| poison.into_inner());
        if ring.epoch() > guard.epoch() {
            *guard = ring;
            true
        } else {
            false
        }
    }

    /// Routing counters so far.
    pub fn stats(&self) -> ClusterClientStats {
        ClusterClientStats {
            redirects_followed: self.redirects_followed.load(Ordering::Relaxed),
            rings_learned: self.rings_learned.load(Ordering::Relaxed),
            rings_pushed: self.rings_pushed.load(Ordering::Relaxed),
        }
    }

    /// The (lazily opened, cached) connection to one node.
    pub fn client_for(&self, addr: SocketAddr) -> Arc<SpClient> {
        let mut conns = self.conns.lock().unwrap_or_else(|poison| poison.into_inner());
        Arc::clone(
            conns
                .entry(addr)
                .or_insert_with(|| Arc::new(SpClient::connect_pipelined(addr, self.cfg.clone()))),
        )
    }

    fn owner_for(&self, key: u64) -> Result<SocketAddr, NetError> {
        self.ring.read().unwrap_or_else(|poison| poison.into_inner()).owner_of(key).ok_or_else(
            || NetError::Remote {
                code: ErrorCode::Internal,
                detail: "cluster client has an empty ring".into(),
            },
        )
    }

    /// Runs `op` against the key's owner, reconciling ring views and
    /// retrying on `WrongOwner` (up to [`MAX_REDIRECTS`] hops).
    fn with_owner<T>(
        &self,
        key: u64,
        op: impl Fn(&SpClient) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        for _ in 0..=MAX_REDIRECTS {
            let owner = self.owner_for(key)?;
            let client = self.client_for(owner);
            match op(&client) {
                Err(NetError::Remote { code: ErrorCode::WrongOwner, detail }) => {
                    self.redirects_followed.fetch_add(1, Ordering::Relaxed);
                    self.reconcile(&client, &detail)?;
                }
                other => return other,
            }
        }
        Err(NetError::Remote {
            code: ErrorCode::WrongOwner,
            detail: format!("no owner agreed after {MAX_REDIRECTS} redirects"),
        })
    }

    /// After a `WrongOwner` refusal: adopt the refuser's ring when it is
    /// newer than ours, push ours when the refuser is the stale party.
    /// Either way the next routing attempt runs on a reconciled view.
    fn reconcile(&self, refuser: &SpClient, detail: &str) -> Result<(), NetError> {
        let ours = self.ring().epoch();
        // Trust the parsed hint to skip a round-trip; fall back to a
        // full pull when the detail is unparseable.
        let pull = parse_redirect(detail).is_none_or(|(epoch, _)| epoch > ours);
        if pull && self.install_ring(refuser.ring_get()?) {
            self.rings_learned.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        refuser.ring_set(&self.ring())?;
        self.rings_pushed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Pushes the client's ring to every node it knows about — the new
    /// ring's members plus any previously contacted node (old owners
    /// must learn they lost keys). Returns the broadcast epoch.
    pub fn broadcast_ring(&self) -> Result<u64, NetError> {
        let ring = self.ring();
        let mut peers: Vec<SocketAddr> = ring.nodes().to_vec();
        {
            let conns = self.conns.lock().unwrap_or_else(|poison| poison.into_inner());
            for addr in conns.keys() {
                if !peers.contains(addr) {
                    peers.push(*addr);
                }
            }
        }
        for addr in peers {
            self.client_for(addr).ring_set(&ring)?;
        }
        Ok(ring.epoch())
    }

    // ------------------------------------------------------------------
    // Routed data plane.
    // ------------------------------------------------------------------

    /// Publishes a record under its self-routing id
    /// (`key_for_url(URL_O)`) at the ring owner and returns that id.
    pub fn publish(&self, url_o: &Url, record: Bytes) -> Result<PuzzleId, NetError> {
        let id = PuzzleId::from_raw(key_for_url(url_o.as_str()));
        self.publish_at(id, record)?;
        Ok(id)
    }

    /// Publishes (or overwrites) a record at an explicit key-addressed id.
    pub fn publish_at(&self, id: PuzzleId, record: Bytes) -> Result<(), NetError> {
        self.with_owner(id.raw(), |c| c.publish_at(id, record.clone()))
    }

    /// Routed `DisplayPuzzle`.
    pub fn display_puzzle(&self, id: PuzzleId) -> Result<DisplayedPuzzle, NetError> {
        self.with_owner(id.raw(), |c| c.display_puzzle(id))
    }

    /// Routed `Verify`.
    pub fn verify(
        &self,
        user: UserId,
        id: PuzzleId,
        response: &PuzzleResponse,
    ) -> Result<VerifyOutcome, NetError> {
        self.with_owner(id.raw(), |c| c.verify(user, id, response))
    }

    /// Routed batched `Verify` of many answer-sets against one puzzle.
    pub fn answer_puzzle_batch(
        &self,
        user: UserId,
        id: PuzzleId,
        responses: &[PuzzleResponse],
    ) -> Result<Vec<Result<VerifyOutcome, NetError>>, NetError> {
        self.with_owner(id.raw(), |c| c.answer_puzzle_batch(user, id, responses))
    }

    /// Routed `Access`.
    pub fn access(&self, id: PuzzleId) -> Result<Url, NetError> {
        self.with_owner(id.raw(), |c| c.access(id))
    }

    /// Routed record fetch.
    pub fn fetch_puzzle(&self, id: PuzzleId) -> Result<Bytes, NetError> {
        self.with_owner(id.raw(), |c| c.fetch_record(id))
    }

    /// Routed record replace.
    pub fn replace_puzzle(&self, id: PuzzleId, record: Bytes) -> Result<(), NetError> {
        self.with_owner(id.raw(), |c| c.replace_record(id, record.clone()))
    }

    /// Routed record delete.
    pub fn delete_puzzle(&self, id: PuzzleId) -> Result<(), NetError> {
        self.with_owner(id.raw(), |c| c.delete_record(id))
    }

    // ------------------------------------------------------------------
    // Rebalance.
    // ------------------------------------------------------------------

    /// Moves the cluster to `new_ring`: snapshots every key in `keys`
    /// whose owner changes, broadcasts the new ring (nodes start
    /// refusing moved keys at that instant), re-publishes the moved
    /// records at their new owners, then garbage-collects the old
    /// copies (`DeletePuzzle` is deliberately exempt from ownership
    /// checks for exactly this step).
    ///
    /// The caller supplies the key universe — the ring cannot enumerate
    /// stored records. Writes racing the snapshot window can be lost;
    /// quiesce writers to the moved ranges first (see
    /// `docs/CLUSTER.md`).
    pub fn rebalance(&self, new_ring: HashRing, keys: &[u64]) -> Result<RebalanceStats, NetError> {
        let old = self.ring();
        let mut moved: Vec<(u64, Bytes)> = Vec::new();
        let mut gc: Vec<(SocketAddr, u64)> = Vec::new();
        for &key in keys {
            let from = old.owner_of(key);
            if from == new_ring.owner_of(key) {
                continue;
            }
            let Some(from) = from else { continue };
            match self.client_for(from).fetch_record(PuzzleId::from_raw(key)) {
                Ok(record) => {
                    moved.push((key, record));
                    gc.push((from, key));
                }
                // A key the trace never published has nothing to move.
                Err(NetError::Remote { code: ErrorCode::UnknownPuzzle, .. }) => {}
                Err(e) => return Err(e),
            }
        }
        if !self.install_ring(new_ring) {
            return Err(NetError::Remote {
                code: ErrorCode::BadRequest,
                detail: "rebalance ring is not newer than the current ring".into(),
            });
        }
        self.broadcast_ring()?;
        let stats = RebalanceStats { moved: moved.len() as u64, deleted: gc.len() as u64 };
        for (key, record) in moved {
            self.publish_at(PuzzleId::from_raw(key), record)?;
        }
        for (from, key) in gc {
            self.client_for(from).delete_record(PuzzleId::from_raw(key))?;
        }
        Ok(stats)
    }
}

/// Parses a `WrongOwner` detail — `epoch={e} owner={addr|none}` — into
/// the refuser's epoch and its view of the key's owner.
fn parse_redirect(detail: &str) -> Option<(u64, Option<SocketAddr>)> {
    let mut epoch = None;
    let mut owner = None;
    for token in detail.split_whitespace() {
        if let Some(e) = token.strip_prefix("epoch=") {
            epoch = e.parse().ok();
        } else if let Some(o) = token.strip_prefix("owner=") {
            owner = if o == "none" { Some(None) } else { o.parse().ok().map(Some) };
        }
    }
    Some((epoch?, owner?))
}

/// The primary-side replication pump: a background thread that ships
/// the primary's WAL delta to one replica on a fixed interval.
///
/// Each round is [`Replicator::ship`]: ask the replica for its durable
/// watermark (first round only — afterwards the returned ack is
/// remembered), export the primary's frames past it, ship them, and
/// treat the replica's new watermark as the ack. The stream is
/// self-synchronizing: a crashed-and-recovered replica simply reports a
/// lower watermark and the next round re-ships the suffix.
pub struct Replicator {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Replicator {
    /// Spawns the pump for `service` (whose backend must support
    /// `repl_export`, i.e. be WAL-backed) targeting the replica daemon
    /// at `replica`. Export failures are counted and retried next round
    /// — a briefly unreachable replica must not kill the primary.
    pub fn spawn<P: ProviderBackend + Send + Sync + 'static>(
        service: Arc<SpService<P>>,
        replica: SocketAddr,
        interval: Duration,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("sp-replicator".into())
            .spawn(move || {
                let client = SpClient::connect(replica, ClientConfig::default());
                let mut acked = None;
                while !stop_flag.load(Ordering::Relaxed) {
                    match Self::ship_from(&service, &client, acked) {
                        Ok((ack, _shipped)) => acked = Some(ack),
                        // Next round restarts from the replica's own
                        // watermark — drop the cached ack.
                        Err(_) => acked = None,
                    }
                    let mut slept = Duration::ZERO;
                    while slept < interval && !stop_flag.load(Ordering::Relaxed) {
                        let step = (interval - slept).min(Duration::from_millis(20));
                        std::thread::sleep(step);
                        slept += step;
                    }
                }
            })
            .expect("spawn sp-replicator thread");
        Self { stop, handle: Some(handle) }
    }

    /// One synchronous replication round against the replica's reported
    /// watermark; returns `(acked_watermark, records_shipped)`. Tests
    /// and promotion drivers call this directly to quiesce the stream
    /// deterministically.
    pub fn ship<P: ProviderBackend>(
        service: &SpService<P>,
        replica: &SpClient,
    ) -> Result<(u64, u64), String> {
        Self::ship_from(service, replica, None)
    }

    fn ship_from<P: ProviderBackend>(
        service: &SpService<P>,
        replica: &SpClient,
        acked: Option<u64>,
    ) -> Result<(u64, u64), String> {
        let after = match acked {
            Some(a) => a,
            None => replica.repl_status().map_err(|e| e.to_string())?,
        };
        let (watermark, frames) = service.provider().repl_export(after)?;
        if frames.is_empty() {
            return Ok((watermark, 0));
        }
        let ack = replica.replicate(frames).map_err(|e| e.to_string())?;
        if ack < watermark {
            return Err(format!("replica acked {ack} but the shipped delta ended at {watermark}"));
        }
        let shipped = watermark - after;
        let metrics = service.metrics();
        metrics.server_repl_shipped(SP_CLUSTER, shipped);
        metrics.server_repl_acked(SP_CLUSTER, ack);
        Ok((ack, shipped))
    }

    /// Stops the pump and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, DaemonConfig, Service};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use social_puzzles_core::construction1::Construction1;
    use social_puzzles_core::context::Context;
    use sp_osn::{ProviderApi, ServiceProvider};

    /// Boots `n` clustered in-memory SP daemons sharing one epoch-1 ring.
    fn boot_cluster(n: usize) -> (Vec<Daemon>, Vec<Arc<SpService<ServiceProvider>>>, HashRing) {
        let mut daemons = Vec::new();
        let mut services = Vec::new();
        for _ in 0..n {
            let service = Arc::new(SpService::new(ServiceProvider::new(), Construction1::new()));
            let daemon = Daemon::spawn(
                "127.0.0.1:0",
                Arc::clone(&service) as Arc<dyn Service>,
                DaemonConfig::default(),
            )
            .unwrap();
            daemons.push(daemon);
            services.push(service);
        }
        let ring = HashRing::new(1, daemons.iter().map(|d| d.addr()).collect(), 64);
        for (daemon, service) in daemons.iter().zip(&services) {
            service.enable_cluster(daemon.addr(), ring.clone());
        }
        (daemons, services, ring)
    }

    /// One solvable puzzle record per URL, all answerable from `ctx`.
    fn records(ctx: &Context, count: usize) -> Vec<(Url, Bytes)> {
        let c1 = Construction1::new();
        let mut rng = StdRng::seed_from_u64(1234);
        (0..count)
            .map(|i| {
                let url = Url::from(format!("https://dh.example/objects/{i}"));
                let up = c1.upload_to(b"obj", ctx, 2, url.clone(), None, &mut rng).unwrap();
                (url, Bytes::from(up.puzzle.to_bytes()))
            })
            .collect()
    }

    #[test]
    fn routed_data_plane_spans_the_cluster_and_enforces_ownership() {
        let (daemons, _services, ring) = boot_cluster(3);
        let client = ClusterClient::connect(ring.clone(), PipelineConfig::default());
        let ctx =
            Context::builder().pair("Where?", "the lake").pair("Who?", "noor").build().unwrap();
        let c1 = Construction1::new();

        let mut ids = Vec::new();
        let mut owners_used = std::collections::HashSet::new();
        for (url, record) in records(&ctx, 24) {
            let id = client.publish(&url, record).unwrap();
            assert_eq!(id.raw(), key_for_url(url.as_str()), "ids are self-routing");
            owners_used.insert(ring.owner_of(id.raw()).unwrap());
            ids.push(id);
        }
        assert_eq!(owners_used.len(), 3, "24 keys should span all 3 nodes");

        // The full receiver flow works regardless of which node owns the key.
        for &id in &ids {
            let displayed = client.display_puzzle(id).unwrap();
            let answers = displayed.answer(|q| ctx.answer_for(q).map(str::to_owned));
            let response = c1.answer_puzzle(&displayed, &answers);
            client.verify(UserId::from_raw(9), id, &response).unwrap();
            client.access(id).unwrap();
        }
        assert_eq!(client.stats().redirects_followed, 0, "an up-to-date ring never redirects");

        // A node refuses keys it does not own; the detail carries the hint.
        let id = *ids.iter().find(|i| ring.owner_of(i.raw()) != Some(daemons[0].addr())).unwrap();
        let wrong = SpClient::connect(daemons[0].addr(), ClientConfig::default());
        match wrong.display_puzzle(id).unwrap_err() {
            NetError::Remote { code, detail } => {
                assert_eq!(code, ErrorCode::WrongOwner);
                let (epoch, owner) = parse_redirect(&detail).unwrap();
                assert_eq!(epoch, 1);
                assert_eq!(owner, ring.owner_of(id.raw()));
            }
            other => panic!("expected WrongOwner, got {other}"),
        }

        // Clustered nodes refuse server-assigned-id uploads outright.
        match wrong.publish_puzzle(Bytes::from_static(b"r")).unwrap_err() {
            sp_osn::OsnError::Transport => {}
            other => panic!("expected Transport (BadRequest), got {other:?}"),
        }
        for d in daemons {
            d.shutdown();
        }
    }

    #[test]
    fn stale_client_learns_the_ring_from_a_redirect() {
        let (daemons, _services, ring) = boot_cluster(3);
        // The client believes a single node owns everything (older epoch).
        let stale = HashRing::new(0, vec![daemons[0].addr()], 64);
        let client = ClusterClient::connect(stale, PipelineConfig::default());
        let ctx = Context::builder().pair("Where?", "pier 4").pair("Who?", "mara").build().unwrap();

        let mut redirected = 0;
        for (url, record) in records(&ctx, 12) {
            let id = PuzzleId::from_raw(key_for_url(url.as_str()));
            redirected += u64::from(ring.owner_of(id.raw()) != Some(daemons[0].addr()));
            client.publish(&url, record).unwrap();
        }
        assert!(redirected > 0, "some keys must not belong to node 0");
        let stats = client.stats();
        assert_eq!(stats.rings_learned, 1, "first redirect teaches the whole ring");
        assert!(stats.redirects_followed >= 1 && stats.redirects_followed <= redirected);
        assert_eq!(client.ring().epoch(), ring.epoch());
        for d in daemons {
            d.shutdown();
        }
    }

    #[test]
    fn stale_node_is_pushed_the_newer_ring() {
        let (daemons, _services, _ring) = boot_cluster(2);
        // The client moves ahead of the cluster: an epoch-2 ring where
        // node 1 owns everything. Node 1 still serves epoch 1 and will
        // refuse keys it thinks node 0 owns — until the client pushes.
        let newer = HashRing::new(2, vec![daemons[1].addr()], 64);
        let client = ClusterClient::connect(newer, PipelineConfig::default());
        let ctx =
            Context::builder().pair("Where?", "dune shack").pair("Who?", "kai").build().unwrap();

        for (url, record) in records(&ctx, 8) {
            client.publish(&url, record).unwrap();
        }
        let stats = client.stats();
        assert_eq!(stats.rings_pushed, 1, "one push re-synchronizes the stale node");
        assert_eq!(stats.rings_learned, 0);
        let node1 = SpClient::connect(daemons[1].addr(), ClientConfig::default());
        assert_eq!(node1.ring_get().unwrap().epoch(), 2);
        for d in daemons {
            d.shutdown();
        }
    }

    #[test]
    fn rebalance_moves_only_the_remapped_keys_and_keeps_serving() {
        let (mut daemons, _services, ring) = boot_cluster(2);
        let client = ClusterClient::connect(ring.clone(), PipelineConfig::default());
        let ctx =
            Context::builder().pair("Where?", "north ridge").pair("Who?", "idris").build().unwrap();
        let c1 = Construction1::new();
        let mut ids = Vec::new();
        for (url, record) in records(&ctx, 20) {
            ids.push(client.publish(&url, record).unwrap());
        }

        // A third node joins as a standby (clustered, empty ring).
        let joiner = Arc::new(SpService::new(ServiceProvider::new(), Construction1::new()));
        let joiner_daemon = Daemon::spawn(
            "127.0.0.1:0",
            Arc::clone(&joiner) as Arc<dyn Service>,
            DaemonConfig::default(),
        )
        .unwrap();
        joiner.enable_cluster(joiner_daemon.addr(), HashRing::empty());

        let mut nodes = ring.nodes().to_vec();
        nodes.push(joiner_daemon.addr());
        let new_ring = ring.with_nodes(nodes);
        let keys: Vec<u64> = ids.iter().map(|i| i.raw()).collect();
        let stats = client.rebalance(new_ring.clone(), &keys).unwrap();
        assert!(stats.moved > 0, "the joiner must take over some keys");
        assert!(stats.moved < keys.len() as u64, "a join must not reshuffle everything");
        assert_eq!(stats.moved, stats.deleted, "every moved key is GC'd at its old owner");
        let expected_moved =
            keys.iter().filter(|k| ring.owner_of(**k) != new_ring.owner_of(**k)).count() as u64;
        assert_eq!(stats.moved, expected_moved);

        // Every key still serves the full flow after the move.
        for &id in &ids {
            let displayed = client.display_puzzle(id).unwrap();
            let answers = displayed.answer(|q| ctx.answer_for(q).map(str::to_owned));
            let response = c1.answer_puzzle(&displayed, &answers);
            client.verify(UserId::from_raw(3), id, &response).unwrap();
        }
        // The joiner really owns its share now (direct hit succeeds).
        let moved_id =
            *ids.iter().find(|i| new_ring.owner_of(i.raw()) == Some(joiner_daemon.addr())).unwrap();
        let direct = SpClient::connect(joiner_daemon.addr(), ClientConfig::default());
        direct.display_puzzle(moved_id).unwrap();
        daemons.push(joiner_daemon);
        for d in daemons {
            d.shutdown();
        }
    }

    #[test]
    fn redirect_details_parse() {
        let (epoch, owner) = parse_redirect("epoch=7 owner=127.0.0.1:9001").unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(owner, Some("127.0.0.1:9001".parse().unwrap()));
        let (epoch, owner) = parse_redirect("epoch=0 owner=none").unwrap();
        assert_eq!((epoch, owner), (0, None));
        assert!(parse_redirect("owner=none").is_none(), "missing epoch");
        assert!(parse_redirect("epoch=3").is_none(), "missing owner");
        assert!(parse_redirect("epoch=x owner=none").is_none(), "bad epoch");
    }
}
