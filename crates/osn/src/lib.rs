//! A simulated online social network (OSN) substrate.
//!
//! The paper's prototypes run as a Facebook canvas application backed by
//! a server on Amazon EC2 (§VII). This crate simulates every piece of
//! that environment the protocols interact with, so the constructions in
//! `social-puzzles-core` run end-to-end and the benchmark harness can
//! regenerate Figure 10 with byte-accurate transfer sizes:
//!
//! * [`SocialGraph`] — users with *symmetric* friendships (§IV-A),
//! * [`ServiceProvider`] — the SP: puzzle database and a hyperlink feed
//!   (the "post on the sharer's wall" step),
//! * [`StorageHost`] — the DH: a URL-addressed blob store, logically
//!   separate from the SP,
//! * [`TupleStore`] — Zanzibar-style relationship tuples ([`rebac`]):
//!   the ReBAC pre-filter gating who may *attempt* a puzzle, composed
//!   with the paper's k-of-N knowledge-based decision,
//! * [`NetworkModel`] / [`TrafficStats`] — deterministic latency +
//!   bandwidth accounting calibrated to the paper's 802.11n/60 Mbps setup,
//! * [`DeviceProfile`] — PC vs tablet compute scaling for Fig. 10(c, d),
//! * [`group_commit`] — a per-thread scope that lets a server defer a
//!   durable store's fsync waits to the end of a batch of requests.
//!
//! # Example
//!
//! ```
//! use sp_osn::{NetworkModel, SocialGraph};
//!
//! let mut graph = SocialGraph::new();
//! let alice = graph.add_user("alice");
//! let bob = graph.add_user("bob");
//! graph.befriend(alice, bob)?;
//! assert!(graph.are_friends(alice, bob));
//! assert!(graph.are_friends(bob, alice), "friendship is symmetric");
//!
//! let net = NetworkModel::wlan_to_cloud();
//! let upload = net.request_duration(600_000, 200); // ~600 KB up
//! let tiny = net.request_duration(500, 200);
//! assert!(upload > tiny);
//! # Ok::<(), sp_osn::OsnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod device;
mod error;
mod graph;
pub mod group_commit;
mod network;
mod provider;
pub mod rebac;
pub mod shard;
mod storage;

pub use api::{
    DurabilityCounters, ProviderApi, ProviderBackend, ReplApplied, StorageApi, StorageBackend,
};
pub use device::DeviceProfile;
pub use error::OsnError;
pub use graph::{SocialGraph, UserId};
pub use network::{NetworkModel, TrafficStats};
pub use provider::{AuditEntry, Post, PostId, PuzzleId, ServiceProvider};
pub use rebac::{RelObject, RelSubject, RelTuple, TupleStore};
pub use shard::{ShardLoad, ShardedMap, DEFAULT_SHARDS};
pub use storage::{StorageHost, Url};
