//! The data-host daemon logic and its remote client.
//!
//! The DH is deliberately dumb (§IV-A): a URL-addressed blob store that
//! serves anyone who presents a URL. Confidentiality rests entirely on
//! the objects being encrypted before upload — the daemon enforces no
//! access control, exactly like the paper's storage host.

use std::net::SocketAddr;

use bytes::Bytes;
use social_puzzles_core::metrics::{ServiceMetrics, ShardContention, StoreCounters};
use sp_osn::{OsnError, StorageApi, StorageBackend, StorageHost, Url};

use crate::client::ClientConfig;
use crate::daemon::Service;
use crate::dedup::{strip_idempotency, ReplayCache};
use crate::error::{code_for, ErrorCode, NetError};
use crate::msg::{decode_batch_results, encode_batch_results, BatchEntryResult, DhRequest};
use crate::pipeline::{PipelineConfig, PipelinedConnection};
use crate::sp::{decode_bytes, decode_string, encode_bytes, encode_string};

/// The DH daemon's request handler, generic over the backend: the
/// in-memory [`StorageHost`] (the default) or `sp-store`'s durable host
/// — any [`StorageBackend`] serves the same RPC surface.
pub struct DhService<S = StorageHost> {
    dh: S,
    metrics: ServiceMetrics,
    replay: ReplayCache,
}

impl<S: StorageBackend> DhService<S> {
    /// Wraps a storage backend.
    pub fn new(dh: S) -> Self {
        Self { dh, metrics: ServiceMetrics::new(), replay: ReplayCache::default() }
    }

    /// The per-endpoint counters (shared handle; clone freely).
    pub fn metrics(&self) -> ServiceMetrics {
        self.metrics.clone()
    }

    /// The wrapped backend, for out-of-band inspection.
    pub fn store(&self) -> &S {
        &self.dh
    }

    fn dispatch(&self, req: DhRequest) -> Result<Vec<u8>, (ErrorCode, String)> {
        let osn = |e: OsnError| (code_for(e), e.to_string());
        match req {
            DhRequest::Put { data } => {
                let url = self.dh.put(Bytes::from(data)).map_err(osn)?;
                Ok(encode_string(url.as_str()))
            }
            DhRequest::Get { url } => {
                let url = Url::parse(url).map_err(osn)?;
                let blob = self.dh.get(&url).map_err(osn)?;
                Ok(encode_bytes(&blob))
            }
            DhRequest::Reserve => {
                let url = self.dh.reserve().map_err(osn)?;
                Ok(encode_string(url.as_str()))
            }
            DhRequest::Fill { url, data } => {
                let url = Url::parse(url).map_err(osn)?;
                self.dh.fill(&url, Bytes::from(data)).map_err(osn)?;
                Ok(Vec::new())
            }
            DhRequest::Delete { url } => {
                let url = Url::parse(url).map_err(osn)?;
                self.dh.delete(&url).map_err(osn)?;
                Ok(Vec::new())
            }
            DhRequest::GetBatch { urls } => {
                self.metrics.record_batch("dh.get_batch", urls.len() as u64);
                let results: Vec<BatchEntryResult> = urls
                    .iter()
                    .map(|raw| {
                        let url = Url::parse(raw).map_err(osn)?;
                        let blob = self.dh.get(&url).map_err(osn)?;
                        Ok(encode_bytes(&blob))
                    })
                    .collect();
                Ok(encode_batch_results(&results))
            }
        }
    }

    /// Publishes the backend's per-shard load counters (component
    /// `"dh.blobs"`) and, for durable backends, durability counters
    /// (component `"dh.store"`) into the metrics registry.
    pub fn sync_shard_metrics(&self) {
        if let Some(d) = self.dh.durability() {
            self.metrics.set_store_counters(
                "dh.store",
                StoreCounters {
                    durable_appends: d.durable_appends,
                    fsync_batches: d.fsync_batches,
                    recovery_replayed_records: d.recovery_replayed_records,
                    snapshot_count: d.snapshot_count,
                },
            );
        }
        let loads = self
            .dh
            .shard_loads()
            .into_iter()
            .map(|l| ShardContention { reads: l.reads, writes: l.writes, contended: l.contended })
            .collect();
        self.metrics.set_shard_contention("dh.blobs", loads);
    }
}

impl<S: StorageBackend + Send + Sync + 'static> Service for DhService<S> {
    fn handle(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
        // Idempotency-tagged mutations (see `crate::dedup`) execute at
        // most once; a replayed token gets the remembered response.
        if let Some((token, inner)) = strip_idempotency(request) {
            return self.replay.execute(token, inner, |req| self.handle_inner(req));
        }
        self.handle_inner(request)
    }
}

impl<S: StorageBackend> DhService<S> {
    fn handle_inner(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
        let req = match DhRequest::decode(request) {
            Ok(req) => req,
            Err(e) => {
                self.metrics.record("dh.bad_request", request.len() as u64, 0, true);
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
        self.sync_shard_metrics();
        result
    }
}

/// A remote [`StorageApi`] speaking the framed protocol to a DH daemon.
#[derive(Debug)]
pub struct DhClient {
    conn: PipelinedConnection,
}

impl DhClient {
    /// Points a client at a daemon address, one request in flight at a
    /// time (a depth-1 [`PipelinedConnection`]).
    pub fn connect(addr: SocketAddr, cfg: ClientConfig) -> Self {
        Self::connect_pipelined(addr, PipelineConfig { client: cfg, depth: 1 })
    }

    /// Like [`DhClient::connect`], but with up to [`PipelineConfig::depth`]
    /// requests in flight on one socket.
    pub fn connect_pipelined(addr: SocketAddr, cfg: PipelineConfig) -> Self {
        Self { conn: PipelinedConnection::new(addr, cfg) }
    }

    /// Every call carries an idempotency token (see [`crate::dedup`]), so
    /// a retried mutation whose response was lost applies at most once.
    fn call(&self, req: &DhRequest) -> Result<Vec<u8>, NetError> {
        self.conn.call(&req.encode())
    }

    fn url_response(&self, payload: &[u8]) -> Result<Url, OsnError> {
        let s = decode_string(payload).map_err(NetError::from)?;
        Url::parse(s)
    }

    /// Batched `Get`: many blobs in one frame, one result per URL in
    /// order. A missing or invalid URL fails its own slot as
    /// [`NetError::Remote`] without dropping the rest.
    ///
    /// # Errors
    ///
    /// Returns a transport or decode error for the frame as a whole.
    pub fn get_batch(&self, urls: &[Url]) -> Result<Vec<Result<Bytes, NetError>>, NetError> {
        let payload = self.call(&DhRequest::GetBatch {
            urls: urls.iter().map(|u| u.as_str().to_owned()).collect(),
        })?;
        decode_batch_results(&payload)?
            .into_iter()
            .map(|slot| match slot {
                Ok(bytes) => Ok(Ok(Bytes::from(decode_bytes(&bytes)?))),
                Err((code, detail)) => Ok(Err(NetError::Remote { code, detail })),
            })
            .collect()
    }
}

impl StorageApi for DhClient {
    fn reserve(&self) -> Result<Url, OsnError> {
        let payload = self.call(&DhRequest::Reserve)?;
        self.url_response(&payload)
    }

    fn put(&self, data: Bytes) -> Result<Url, OsnError> {
        let payload = self.call(&DhRequest::Put { data: data.to_vec() })?;
        self.url_response(&payload)
    }

    fn fill(&self, url: &Url, data: Bytes) -> Result<(), OsnError> {
        self.call(&DhRequest::Fill { url: url.as_str().to_owned(), data: data.to_vec() })?;
        Ok(())
    }

    fn get(&self, url: &Url) -> Result<Bytes, OsnError> {
        let payload = self.call(&DhRequest::Get { url: url.as_str().to_owned() })?;
        Ok(Bytes::from(decode_bytes(&payload).map_err(NetError::from)?))
    }

    fn delete(&self, url: &Url) -> Result<(), OsnError> {
        self.call(&DhRequest::Delete { url: url.as_str().to_owned() })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, DaemonConfig};
    use std::sync::Arc;

    fn boot() -> (Daemon, DhClient, ServiceMetrics) {
        let service = DhService::new(StorageHost::new());
        let metrics = service.metrics();
        let daemon =
            Daemon::spawn("127.0.0.1:0", Arc::new(service), DaemonConfig::default()).unwrap();
        let client = DhClient::connect(daemon.addr(), ClientConfig::default());
        (daemon, client, metrics)
    }

    #[test]
    fn storage_api_over_the_wire() {
        let (daemon, client, metrics) = boot();
        let url = client.put(Bytes::from_static(b"ciphertext")).unwrap();
        assert_eq!(client.get(&url).unwrap(), Bytes::from_static(b"ciphertext"));

        let slot = client.reserve().unwrap();
        assert_ne!(slot, url);
        // Reserved slots read back empty until filled — the in-memory
        // backend's reserve is a put of zero bytes, and the remote path
        // must mirror it exactly.
        assert_eq!(client.get(&slot).unwrap(), Bytes::new());
        client.fill(&slot, Bytes::from_static(b"late")).unwrap();
        assert_eq!(client.get(&slot).unwrap(), Bytes::from_static(b"late"));

        client.delete(&url).unwrap();
        assert_eq!(client.get(&url).unwrap_err(), OsnError::UnknownUrl);

        assert_eq!(metrics.endpoint("dh.put").requests, 1);
        assert_eq!(metrics.endpoint("dh.get").requests, 4);
        assert_eq!(metrics.endpoint("dh.get").errors, 1);
        daemon.shutdown();
    }

    #[test]
    fn get_batch_is_per_slot_over_the_wire() {
        let (daemon, client, metrics) = boot();
        let a = client.put(Bytes::from_static(b"alpha")).unwrap();
        let b = client.put(Bytes::from_static(b"bravo")).unwrap();
        let missing = Url::from("dh://nowhere/404");

        let got = client.get_batch(&[b.clone(), missing, a.clone()]).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].as_ref().unwrap(), &Bytes::from_static(b"bravo"));
        match got[1].as_ref().unwrap_err() {
            NetError::Remote { code, .. } => assert_eq!(*code, ErrorCode::UnknownUrl),
            other => panic!("expected Remote, got {other}"),
        }
        assert_eq!(got[2].as_ref().unwrap(), &Bytes::from_static(b"alpha"));

        // Empty batch is a valid no-op.
        assert!(client.get_batch(&[]).unwrap().is_empty());

        let hist = metrics.batch_histogram("dh.get_batch");
        assert_eq!(hist.count, 2);
        assert_eq!(hist.max, 3);
        // Shard counters were synced after handling requests.
        assert!(metrics.shard_contention_totals("dh.blobs").reads > 0);
        daemon.shutdown();
    }

    #[test]
    fn unknown_and_invalid_urls_map_to_typed_codes() {
        let (daemon, client, _) = boot();
        assert_eq!(client.get(&Url::from("dh://nowhere/1")).unwrap_err(), OsnError::UnknownUrl);
        // An empty URL is rejected by the server's parse step. From<&str>
        // bypasses client-side validation on purpose, to prove the server
        // defends itself.
        let err = client.call(&DhRequest::Get { url: String::new() }).unwrap_err();
        match err {
            NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::InvalidUrl),
            other => panic!("expected Remote, got {other}"),
        }
        daemon.shutdown();
    }
}
