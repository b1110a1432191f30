//! Multi-node differential deployments: the same seeded traces that
//! drive every other deployment, replayed against a sharded SP cluster.
//!
//! Three topologies join the differential battery:
//!
//! * [`C1Cluster`] — N in-memory SP daemons behind one consistent-hash
//!   ring, driven through a routed [`ClusterClient`]. A 1-node cluster
//!   is the degenerate control; a 3-node cluster checks that sharding
//!   itself never changes a decision.
//! * [`C1ClusterRebalance`] — a 3-daemon cluster whose membership
//!   toggles (2 ⇄ 3 nodes) *mid-trace*, with only an admin client told
//!   about the move. The data-path client keeps its stale ring and must
//!   recover purely through `WrongOwner` redirects.
//! * [`C1ClusterFailover`] — a durable (WAL-backed) primary owning all
//!   keys, replicated to a standby. Mid-trace the stream is quiesced,
//!   the primary is killed, and the standby is promoted by `RingSet`;
//!   the remaining attempts run against the promoted replica.
//!
//! The contract is the oracle's, unchanged: every decision equals
//! `correct_answers ≥ k`, across shard boundaries, rebalances, and
//! primary failure. Any replication gap or mis-route diverges loudly.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use bytes::Bytes;
use social_puzzles_core::construction1::Construction1;
use sp_net::{
    ClientConfig, ClusterClient, Daemon, DaemonConfig, HashRing, PipelineConfig, Replicator,
    Service, SpClient, SpService, DEFAULT_VNODES,
};
use sp_osn::{ServiceProvider, Url, UserId};
use sp_store::{DurableProvider, StoreConfig};

use crate::seed::SeedSplit;
use crate::strategies::Scenario;
use crate::trace::{decide_remote, object_bytes, Decisions, Deployment, TraceError};

/// One in-memory cluster member: the daemon plus the service handle the
/// harness uses to install rings out-of-band.
struct Node {
    daemon: Daemon,
    service: Arc<SpService<ServiceProvider>>,
}

fn boot_node() -> Node {
    let service = Arc::new(SpService::new(ServiceProvider::new(), Construction1::new()));
    let daemon = Daemon::spawn(
        "127.0.0.1:0",
        Arc::clone(&service) as Arc<dyn Service>,
        DaemonConfig::default(),
    )
    .expect("ephemeral bind");
    Node { daemon, service }
}

/// Runs one scenario's attempts through a routed cluster client,
/// deciding each attempt exactly as the single-socket deployment does.
fn run_routed(
    c1: &Construction1,
    client: &ClusterClient,
    sc: &Scenario,
    seed: u64,
    mid_trace: &mut dyn FnMut(sp_osn::PuzzleId) -> Result<(), TraceError>,
) -> Result<Decisions, TraceError> {
    let mut rng = SeedSplit::new(seed).stream("c1-cluster");
    let object = object_bytes(seed);
    let url = Url::from(format!("dh://cluster/{seed}").as_str());
    let up = c1.upload_to(&object, &sc.context, sc.k, url.clone(), None, &mut rng)?;
    let id = client.publish(&url, Bytes::from(up.puzzle.to_bytes()))?;
    let displayed = client.display_puzzle(id)?;
    let user = UserId::from_raw(seed);

    let answers: Vec<Vec<(usize, String)>> =
        sc.attempts.iter().map(|p| p.answers(&sc.context)).collect();
    let responses: Vec<_> = answers.iter().map(|a| c1.answer_puzzle(&displayed, a)).collect();
    let check = |attempt: usize, outcome| match c1.access_with_key(
        &outcome,
        &answers[attempt],
        &up.encrypted_object,
        Some(&displayed.puzzle_key),
    ) {
        Ok(got) if got == object => Ok(true),
        Ok(_) => Err(TraceError::ObjectMismatch),
        Err(e) => Err(TraceError::Scheme(e)),
    };

    // The topology change lands mid-trace: after half the attempts have
    // been decided under the old topology, the rest run under the new.
    let pivot = responses.len() / 2;
    let mut out = Vec::with_capacity(responses.len());
    for (i, response) in responses.iter().enumerate() {
        if i == pivot {
            mid_trace(id)?;
        }
        out.push(decide_remote(client.verify(user, id, response), |outcome| check(i, outcome)));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Static N-node cluster.

/// Construction 1 over an N-node sharded SP cluster with a stable ring.
pub struct C1Cluster {
    nodes: Vec<Node>,
    client: ClusterClient,
    c1: Construction1,
    name: &'static str,
}

impl C1Cluster {
    /// Boots `n` in-memory SP daemons sharing one epoch-1 ring and a
    /// routed client over all of them.
    ///
    /// # Panics
    ///
    /// Panics if an ephemeral bind fails (setup, not protocol), or if
    /// `n` is not 1..=3 (the sizes the differential battery names).
    #[must_use]
    pub fn boot(n: usize) -> Self {
        let name = match n {
            1 => "c1-cluster-1",
            2 => "c1-cluster-2",
            3 => "c1-cluster-3",
            _ => panic!("C1Cluster supports 1..=3 nodes, got {n}"),
        };
        let nodes: Vec<Node> = (0..n).map(|_| boot_node()).collect();
        let ring =
            HashRing::new(1, nodes.iter().map(|n| n.daemon.addr()).collect(), DEFAULT_VNODES);
        for node in &nodes {
            node.service.enable_cluster(node.daemon.addr(), ring.clone());
        }
        let client = ClusterClient::connect(ring, PipelineConfig::default());
        Self { nodes, client, c1: Construction1::new(), name }
    }

    /// Shuts down every daemon.
    pub fn shutdown(self) {
        for node in self.nodes {
            node.daemon.shutdown();
        }
    }
}

impl Deployment for C1Cluster {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&mut self, sc: &Scenario, seed: u64) -> Result<Decisions, TraceError> {
        run_routed(&self.c1, &self.client, sc, seed, &mut |_| Ok(()))
    }
}

// ---------------------------------------------------------------------
// Mid-trace rebalance.

/// A 3-daemon cluster whose membership toggles between {0,1} and
/// {0,1,2} in the middle of every trace, minus the trace key's owner
/// when the toggle alone would not move that key. Only the admin client
/// is told; the data-path client must relearn the ring from redirects.
pub struct C1ClusterRebalance {
    nodes: Vec<Node>,
    client: ClusterClient,
    admin: ClusterClient,
    c1: Construction1,
    expanded: bool,
}

impl C1ClusterRebalance {
    /// Boots three daemons; the initial ring holds the first two, the
    /// third starts as a clustered standby owning nothing.
    ///
    /// # Panics
    ///
    /// Panics if an ephemeral bind fails (setup, not protocol).
    #[must_use]
    pub fn boot() -> Self {
        let nodes: Vec<Node> = (0..3).map(|_| boot_node()).collect();
        let ring =
            HashRing::new(1, nodes[..2].iter().map(|n| n.daemon.addr()).collect(), DEFAULT_VNODES);
        for node in &nodes[..2] {
            node.service.enable_cluster(node.daemon.addr(), ring.clone());
        }
        nodes[2].service.enable_cluster(nodes[2].daemon.addr(), HashRing::empty());
        let client = ClusterClient::connect(ring.clone(), PipelineConfig::default());
        let admin = ClusterClient::connect(ring, PipelineConfig::default());
        Self { nodes, client, admin, c1: Construction1::new(), expanded: false }
    }

    /// Shuts down every daemon.
    pub fn shutdown(self) {
        for node in self.nodes {
            node.daemon.shutdown();
        }
    }

    /// Total `WrongOwner` redirects the data-path client followed — the
    /// battery asserts this is nonzero, i.e. the rebalances were real.
    #[must_use]
    pub fn redirects_followed(&self) -> u64 {
        self.client.stats().redirects_followed
    }
}

impl Deployment for C1ClusterRebalance {
    fn name(&self) -> &'static str {
        "c1-cluster-rebalance"
    }

    fn run(&mut self, sc: &Scenario, seed: u64) -> Result<Decisions, TraceError> {
        let nodes = &self.nodes;
        let admin = &self.admin;
        let expanded = &mut self.expanded;
        run_routed(&self.c1, &self.client, sc, seed, &mut |id| {
            let members = if *expanded { 2 } else { 3 };
            *expanded = !*expanded;
            let ring = admin.ring();
            let mut next: Vec<_> = nodes[..members].iter().map(|n| n.daemon.addr()).collect();
            // Whether the toggle moves a given key depends on the daemons'
            // ephemeral ports. When it would leave this trace's key where
            // it is, drop the key's owner instead, so every rebalance
            // moves the key and the data-path client must be redirected.
            let owner = ring.owner_of(id.raw());
            if ring.with_nodes(next.clone()).owner_of(id.raw()) == owner {
                next.retain(|&addr| Some(addr) != owner);
            }
            admin.rebalance(ring.with_nodes(next), &[id.raw()])?;
            Ok(())
        })
    }
}

// ---------------------------------------------------------------------
// Kill-primary / promote-replica.

/// One durable cluster member (WAL-backed provider + daemon + data dir).
struct DurableNode {
    daemon: Daemon,
    service: Arc<SpService<DurableProvider>>,
}

/// A durable primary owning every key, with a fresh standby replica per
/// trace: mid-trace the WAL is shipped, the primary killed, and the
/// standby promoted. Decisions must match the oracle across the
/// failover, which holds only if replication delivered every
/// acknowledged record.
pub struct C1ClusterFailover {
    root: PathBuf,
    primary: Option<DurableNode>,
    client: ClusterClient,
    c1: Construction1,
    epoch: u64,
    booted: u64,
    promotions: u64,
}

impl C1ClusterFailover {
    /// Boots the first durable primary under `root` (one subdirectory
    /// per node generation).
    ///
    /// # Panics
    ///
    /// Panics if the data directory or an ephemeral bind fails (setup,
    /// not protocol).
    #[must_use]
    pub fn boot(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        let _ = fs::remove_dir_all(&root);
        let primary = boot_durable(&root, 0);
        let ring = HashRing::new(1, vec![primary.daemon.addr()], DEFAULT_VNODES);
        primary.service.enable_cluster(primary.daemon.addr(), ring.clone());
        Self {
            root,
            primary: Some(primary),
            client: ClusterClient::connect(ring, PipelineConfig::default()),
            c1: Construction1::new(),
            epoch: 1,
            booted: 1,
            promotions: 0,
        }
    }

    /// Primaries killed and replicas promoted so far.
    #[must_use]
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Shuts down the current primary.
    pub fn shutdown(mut self) {
        if let Some(node) = self.primary.take() {
            node.daemon.shutdown();
        }
    }
}

fn boot_durable(root: &std::path::Path, generation: u64) -> DurableNode {
    let dir = root.join(format!("node-{generation}"));
    let provider = DurableProvider::open(
        &dir,
        // Full-log replication: replicated stores never compact.
        StoreConfig { snapshot_every: u64::MAX, ..StoreConfig::default() },
    )
    .expect("open durable store");
    let service = Arc::new(SpService::new(provider, Construction1::new()));
    let daemon = Daemon::spawn(
        "127.0.0.1:0",
        Arc::clone(&service) as Arc<dyn Service>,
        DaemonConfig::default(),
    )
    .expect("ephemeral bind");
    DurableNode { daemon, service }
}

/// Quiesce replication to a fresh standby → kill the primary → promote
/// the standby by `RingSet` → point the data client at the new ring.
fn fail_over(
    root: &std::path::Path,
    booted: &mut u64,
    epoch: &mut u64,
    primary: &mut Option<DurableNode>,
    client: &ClusterClient,
) -> Result<(), TraceError> {
    let replica = boot_durable(root, *booted);
    *booted += 1;
    replica.service.enable_cluster(replica.daemon.addr(), HashRing::empty());
    let repl_client = SpClient::connect(replica.daemon.addr(), ClientConfig::default());

    let old = primary.take().expect("a live primary");
    let (acked, _shipped) =
        Replicator::ship(&old.service, &repl_client).map_err(TraceError::Recovery)?;
    if acked == 0 {
        return Err(TraceError::Recovery("nothing replicated before failover".into()));
    }
    old.daemon.shutdown();

    *epoch += 1;
    let promoted = HashRing::new(*epoch, vec![replica.daemon.addr()], DEFAULT_VNODES);
    repl_client.ring_set(&promoted)?;
    client.install_ring(promoted);
    *primary = Some(replica);
    Ok(())
}

impl Deployment for C1ClusterFailover {
    fn name(&self) -> &'static str {
        "c1-cluster-failover"
    }

    fn run(&mut self, sc: &Scenario, seed: u64) -> Result<Decisions, TraceError> {
        let Self { root, primary, client, c1, epoch, booted, promotions } = self;
        run_routed(c1, client, sc, seed, &mut |_| {
            fail_over(root, booted, epoch, primary, client)?;
            *promotions += 1;
            Ok(())
        })
    }
}
