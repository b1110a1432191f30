//! Boots the SP and DH daemons in-process exactly as `spuzzle serve-sp`
//! and `serve-dh` do with default flags — `DaemonConfig::default()` with
//! the service's own metrics registry, 16 store shards, the durable
//! provider with the default store config — plus, in the traced run, the
//! timing decorators around them.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use social_puzzles_core::construction1::Construction1;
use social_puzzles_core::metrics::ServiceMetrics;
use sp_net::msg::{DhRequest, SpRequest};
use sp_net::{Daemon, DaemonConfig, DhService, Service, SpService};
use sp_osn::{DurabilityCounters, ProviderBackend, ServiceProvider, StorageHost};
use sp_store::{DurableProvider, StoreConfig};

use crate::timed::{TimedBackend, TimedService};

/// Store shards, as `serve-sp --shards` defaults to.
const SHARDS: usize = 16;

/// Scratch directory, relative to the working directory, for durable
/// stores and traces.
pub const WORK_DIR: &str = ".spbench";

fn sp_endpoint(body: &[u8]) -> &'static str {
    SpRequest::decode(body).map_or("sp.bad_request", |r| r.endpoint())
}

fn dh_endpoint(body: &[u8]) -> &'static str {
    DhRequest::decode(body).map_or("dh.bad_request", |r| r.endpoint())
}

type Durability = Box<dyn Fn() -> Option<DurabilityCounters> + Send + Sync>;

/// A running SP daemon and what the benchmark reads from it afterwards.
pub struct Sp {
    daemon: Daemon,
    /// The service's registry, shared with the daemon's serving counters.
    pub metrics: ServiceMetrics,
    durability: Durability,
    /// Calls into the provider backend (counted in the traced run only).
    backend_calls: Arc<AtomicU64>,
    dir: Option<PathBuf>,
}

fn spawn_sp<P: ProviderBackend + Send + Sync + 'static>(
    backend: P,
    traced: bool,
    backend_calls: &Arc<AtomicU64>,
) -> Result<(Daemon, ServiceMetrics, Durability), String> {
    fn spawn(service: Arc<dyn Service>, metrics: &ServiceMetrics) -> Result<Daemon, String> {
        let cfg = DaemonConfig { metrics: metrics.clone(), ..DaemonConfig::default() };
        Daemon::spawn("127.0.0.1:0", service, cfg).map_err(|e| format!("binding the SP: {e}"))
    }
    if traced {
        let svc = Arc::new(SpService::new(
            TimedBackend::new(backend, Arc::clone(backend_calls)),
            Construction1::new(),
        ));
        let metrics = svc.metrics();
        let timed = TimedService::new(Arc::clone(&svc), sp_endpoint);
        let daemon = spawn(Arc::new(timed), &metrics)?;
        Ok((daemon, metrics, Box::new(move || svc.provider().inner().durability())))
    } else {
        let svc = Arc::new(SpService::new(backend, Construction1::new()));
        let metrics = svc.metrics();
        let daemon = spawn(Arc::clone(&svc) as Arc<dyn Service>, &metrics)?;
        Ok((daemon, metrics, Box::new(move || svc.provider().durability())))
    }
}

impl Sp {
    /// Boots the SP: in memory, or durable in the fresh directory `dir`.
    pub fn boot(dir: Option<PathBuf>, traced: bool) -> Result<Self, String> {
        let backend_calls = Arc::new(AtomicU64::new(0));
        let (daemon, metrics, durability) = match &dir {
            None => spawn_sp(ServiceProvider::with_shards(SHARDS), traced, &backend_calls)?,
            Some(d) => {
                let cfg = StoreConfig { shards: SHARDS, ..StoreConfig::default() };
                let provider = DurableProvider::open(d, cfg)
                    .map_err(|e| format!("opening the durable store in {}: {e}", d.display()))?;
                spawn_sp(provider, traced, &backend_calls)?
            }
        };
        Ok(Self { daemon, metrics, durability, backend_calls, dir })
    }

    /// Requests the SP has handled.
    pub fn requests(&self) -> u64 {
        self.metrics.totals().requests
    }

    /// Calls into the provider backend so far (traced run only).
    pub fn backend_calls(&self) -> u64 {
        self.backend_calls.load(Ordering::Relaxed)
    }

    /// The daemon's address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.daemon.addr()
    }

    /// The durable backend's counters (`None` in memory).
    pub fn durability(&self) -> Option<DurabilityCounters> {
        (self.durability)()
    }

    /// The durable store's directory.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Stops the daemon, closes the store and deletes its directory.
    pub fn shutdown(self) -> Result<(), String> {
        self.daemon.shutdown();
        drop(self.durability);
        let Some(dir) = self.dir else { return Ok(()) };
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
        // Leave no empty work directories behind (fails harmlessly
        // while another store or a trace still lives there).
        for parent in dir.ancestors().skip(1).take(2) {
            let _ = std::fs::remove_dir(parent);
        }
        Ok(())
    }
}

/// A running in-memory DH daemon.
pub struct Dh {
    daemon: Daemon,
    /// The service's registry, shared with the daemon's serving counters.
    pub metrics: ServiceMetrics,
}

impl Dh {
    /// Boots the DH.
    pub fn boot(traced: bool) -> Result<Self, String> {
        let svc = Arc::new(DhService::new(StorageHost::with_shards(SHARDS)));
        let metrics = svc.metrics();
        let service: Arc<dyn Service> =
            if traced { Arc::new(TimedService::new(svc, dh_endpoint)) } else { svc };
        let cfg = DaemonConfig { metrics: metrics.clone(), ..DaemonConfig::default() };
        let daemon = Daemon::spawn("127.0.0.1:0", service, cfg)
            .map_err(|e| format!("binding the DH: {e}"))?;
        Ok(Self { daemon, metrics })
    }

    /// The daemon's address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.daemon.addr()
    }

    /// Stops the daemon.
    pub fn shutdown(self) {
        self.daemon.shutdown();
    }
}

/// A fresh, empty directory for one durable store of this process.
pub fn fresh_store_dir(label: &str) -> Result<PathBuf, String> {
    let dir = Path::new(WORK_DIR).join("data").join(format!("{}-{label}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}
