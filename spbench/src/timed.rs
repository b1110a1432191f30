//! Timing decorators for the traced run, wrapped around the layers'
//! public seams from outside: [`TimedService`] around a daemon's
//! [`Service::handle`], [`TimedBackend`] around every
//! [`ProviderBackend`] method. The untraced run builds the plain services
//! without them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use sp_net::dedup::strip_idempotency;
use sp_net::{ErrorCode, Service};
use sp_osn::{
    DurabilityCounters, OsnError, PostId, ProviderApi, ProviderBackend, PuzzleId, ReplApplied,
    ShardLoad, UserId,
};

use crate::trace;

/// Names a request payload's endpoint (`sp.verify`, `dh.get`, ...).
pub type EndpointOf = fn(&[u8]) -> &'static str;

/// Records one `<endpoint>` span per sampled request around the wrapped
/// service's handler. The span's id is the request's idempotency token —
/// for the verify generator, its correlation id — and it is set as the
/// thread's current id while the handler runs, so backend spans link to
/// it. The endpoint is decoded after the clock stops.
pub struct TimedService<S> {
    inner: Arc<S>,
    endpoint_of: EndpointOf,
}

impl<S> TimedService<S> {
    /// Wraps `inner`.
    pub fn new(inner: Arc<S>, endpoint_of: EndpointOf) -> Self {
        Self { inner, endpoint_of }
    }
}

impl<S: Service> Service for TimedService<S> {
    fn handle(&self, request: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
        let tagged = strip_idempotency(request);
        let id = tagged.map_or(0, |(token, _)| token);
        if !trace::sampled(id) {
            return self.inner.handle(request);
        }
        trace::set_current(id);
        let start = trace::now_ns();
        let out = self.inner.handle(request);
        let end = trace::now_ns();
        trace::set_current(0);
        let body = tagged.map_or(request, |(_, inner)| inner);
        trace::record((self.endpoint_of)(body), id, start, end);
        out
    }
}

/// Forwards every [`ProviderBackend`] method, recording a `backend.<method>`
/// span for calls made while a sampled request is being handled on the
/// same thread.
pub struct TimedBackend<P> {
    inner: P,
    calls: Arc<AtomicU64>,
}

impl<P> TimedBackend<P> {
    /// Wraps `inner`; `calls` counts every backend call.
    pub fn new(inner: P, calls: Arc<AtomicU64>) -> Self {
        Self { inner, calls }
    }

    /// The wrapped backend, for reads that should not count as calls.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn timed<T>(&self, name: &'static str, f: impl FnOnce(&P) -> T) -> T {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let id = trace::current();
        trace::timed(id != 0, name, id, || f(&self.inner))
    }
}

impl<P: ProviderApi> ProviderApi for TimedBackend<P> {
    fn publish_puzzle(&self, record: Bytes) -> Result<PuzzleId, OsnError> {
        self.timed("backend.publish_puzzle", |p| p.publish_puzzle(record))
    }

    fn fetch_puzzle(&self, id: PuzzleId) -> Result<Bytes, OsnError> {
        self.timed("backend.fetch_puzzle", |p| p.fetch_puzzle(id))
    }

    fn replace_puzzle(&self, id: PuzzleId, record: Bytes) -> Result<(), OsnError> {
        self.timed("backend.replace_puzzle", |p| p.replace_puzzle(id, record))
    }

    fn delete_puzzle(&self, id: PuzzleId) -> Result<(), OsnError> {
        self.timed("backend.delete_puzzle", |p| p.delete_puzzle(id))
    }

    fn log_access(&self, user: UserId, puzzle: PuzzleId, granted: bool) -> Result<(), OsnError> {
        self.timed("backend.log_access", |p| p.log_access(user, puzzle, granted))
    }

    fn post(&self, author: UserId, text: &str, puzzle: PuzzleId) -> Result<PostId, OsnError> {
        self.timed("backend.post", |p| p.post(author, text, puzzle))
    }
}

impl<P: ProviderBackend> ProviderBackend for TimedBackend<P> {
    fn log_access_batch(&self, entries: Vec<(UserId, PuzzleId, bool)>) -> Result<(), OsnError> {
        self.timed("backend.log_access_batch", |p| p.log_access_batch(entries))
    }

    fn shard_loads(&self) -> Vec<ShardLoad> {
        self.timed("backend.shard_loads", ProviderBackend::shard_loads)
    }

    fn durability(&self) -> Option<DurabilityCounters> {
        self.timed("backend.durability", ProviderBackend::durability)
    }

    fn publish_puzzle_at(&self, id: PuzzleId, record: Bytes) -> Result<(), OsnError> {
        self.timed("backend.publish_puzzle_at", |p| p.publish_puzzle_at(id, record))
    }

    fn repl_export(&self, after_seq: u64) -> Result<(u64, Vec<u8>), String> {
        self.timed("backend.repl_export", |p| p.repl_export(after_seq))
    }

    fn repl_apply(&self, frames: &[u8]) -> Result<ReplApplied, String> {
        self.timed("backend.repl_apply", |p| p.repl_apply(frames))
    }

    fn repl_watermark(&self) -> u64 {
        self.timed("backend.repl_watermark", ProviderBackend::repl_watermark)
    }
}
