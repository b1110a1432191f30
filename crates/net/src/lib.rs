//! `sp-net`: a real client/server networking subsystem for the social
//! puzzles system.
//!
//! The paper's architecture (§IV-A, Fig. 6) is a networked three-party
//! system — clients, an untrusted service provider (SP), and a data host
//! (DH). The rest of this workspace models those parties in-process;
//! this crate puts them on actual sockets:
//!
//! * [`frame`] — correlation-id frames over TCP (length, id, payload),
//!   with the maximum frame size enforced **before** any allocation and
//!   single-syscall vectored frame writes; the HELLO exchange that opens
//!   every connection uses the id-less length-prefixed form.
//! * [`msg`] — request/response message types for every paper
//!   subroutine (`Upload`, `DisplayPuzzle`, `AnswerPuzzle`'s output,
//!   `Verify`, `Access`) plus the DH blob operations and the HELLO
//!   exchange, with round-trip codecs over `sp-wire`.
//! * [`daemon`] — a std-only TCP daemon: per-connection reader/writer
//!   threads around a shared bounded compute pool, out-of-order
//!   response multiplexing, idle-connection reaping, graceful shutdown,
//!   serving-path metrics.
//! * [`client`] — client settings (connect/read/write timeouts, bounded
//!   retry-with-backoff) and idempotency tokens.
//! * [`pipeline`] — [`PipelinedConnection`]: the one client, holding up
//!   to N requests in flight on one socket, with per-request deadlines
//!   and idempotent replay of unacknowledged requests.
//! * [`pool`] — the bounded [`BufferPool`] recycling frame payload
//!   buffers through the daemon's read/compute/write path.
//! * [`sp`] / [`dh`] — the SP and DH services and their remote clients.
//!   [`SpClient`] implements `sp_osn::ProviderApi` and [`DhClient`]
//!   implements `sp_osn::StorageApi`, so the `social-puzzles-core`
//!   protocol driver runs unchanged in-process or over sockets.
//!
//! # Example: a full Construction 1 exchange over localhost
//!
//! ```
//! use std::sync::Arc;
//! use sp_net::{
//!     ClientConfig, Daemon, DaemonConfig, DhClient, DhService, SpClient, SpService,
//! };
//! use sp_osn::{DeviceProfile, ServiceProvider, StorageHost, UserId};
//! use social_puzzles_core::construction1::Construction1;
//! use social_puzzles_core::context::Context;
//! use social_puzzles_core::protocol::SocialPuzzleApp;
//!
//! // Boot both daemons on ephemeral ports.
//! let sp_daemon = Daemon::spawn(
//!     "127.0.0.1:0",
//!     Arc::new(SpService::new(ServiceProvider::new(), Construction1::new())),
//!     DaemonConfig::default(),
//! )
//! .unwrap();
//! let dh_daemon = Daemon::spawn(
//!     "127.0.0.1:0",
//!     Arc::new(DhService::new(StorageHost::new())),
//!     DaemonConfig::default(),
//! )
//! .unwrap();
//!
//! // The same protocol driver, now speaking TCP.
//! let app = SocialPuzzleApp::with_backends(
//!     SpClient::connect(sp_daemon.addr(), ClientConfig::default()),
//!     DhClient::connect(dh_daemon.addr(), ClientConfig::default()),
//! );
//! let c1 = Construction1::new();
//! let ctx = Context::builder().pair("Where?", "the lake").build().unwrap();
//! let device = DeviceProfile::pc();
//! let mut rng = rand::thread_rng();
//! let share = app
//!     .share_c1(&c1, UserId::from_raw(1), b"photo", &ctx, 1, &device, None, &mut rng)
//!     .unwrap();
//! let recv = app
//!     .receive_c1(
//!         &c1,
//!         UserId::from_raw(2),
//!         &share,
//!         |q| ctx.answer_for(q).map(str::to_owned),
//!         &device,
//!         &mut rng,
//!     )
//!     .unwrap();
//! assert_eq!(recv.object, b"photo");
//!
//! sp_daemon.shutdown();
//! dh_daemon.shutdown();
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod daemon;
pub mod dedup;
pub mod dh;
pub mod error;
pub mod frame;
pub mod msg;
pub mod pipeline;
pub mod pool;
pub mod ring;
pub mod sp;

pub use client::ClientConfig;
pub use cluster::{ClusterClient, ClusterClientStats, RebalanceStats, Replicator};
pub use daemon::{Daemon, DaemonConfig, Service};
pub use dedup::{DedupService, ReplayCache};
pub use dh::{DhClient, DhService};
pub use error::{ErrorCode, NetError};
pub use frame::{DEFAULT_MAX_FRAME, FRAME_HEADER_LEN, FRAME_V2_HEADER_LEN};
pub use pipeline::{PipelineConfig, PipelinedConnection};
pub use pool::{BufferPool, PooledBuf, DEFAULT_POOL_CAP};
pub use ring::{key_for_url, parse_ring_spec, HashRing, DEFAULT_VNODES};
pub use sp::{SpClient, SpService};
