//! At-most-once execution for mutating requests.
//!
//! [`crate::PipelinedConnection`] retries and replays requests after
//! transport failures, which alone would give *at-least-once* delivery:
//! a request whose response frame was lost may already have executed on
//! the server. Reads tolerate that; mutations should not have to. The
//! fix is the classic idempotency token: the client tags each logical
//! call with a fresh random token, reuses the *same* token on every
//! retry and replay of that call, and the server remembers recent
//! `(token → response)` pairs — a replayed token gets the remembered
//! response back without re-executing.
//!
//! The tag rides in front of the normal request payload:
//!
//! ```text
//! 0xF0 ‖ token (8 bytes BE) ‖ inner request
//! ```
//!
//! `0xF0` collides with no [`crate::msg::SpRequest`] or
//! [`crate::msg::DhRequest`] tag, so an untagged request (from a raw
//! load generator, say) passes through unchanged.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use crate::daemon::Service;
use crate::error::ErrorCode;

/// First byte of an idempotency-tagged request.
pub const IDEMPOTENCY_TAG: u8 = 0xF0;

/// How many `(token → response)` pairs a server remembers by default.
/// Sized for the retry window, not the request rate: a token is only
/// replayed within [`crate::client::ClientConfig::retries`] attempts of
/// first being sent, so the cache needs to cover requests in flight, not
/// history.
pub const DEFAULT_REPLAY_CAP: usize = 1024;

/// Prefixes `inner` with the idempotency envelope.
#[must_use]
pub fn wrap_idempotent(token: u64, inner: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 + inner.len());
    out.push(IDEMPOTENCY_TAG);
    out.extend_from_slice(&token.to_be_bytes());
    out.extend_from_slice(inner);
    out
}

/// Splits a tagged request into `(token, inner)`; `None` for untagged
/// (or too-short-to-be-tagged) requests, which should be handled as-is.
#[must_use]
pub fn strip_idempotency(request: &[u8]) -> Option<(u64, &[u8])> {
    if request.len() < 9 || request[0] != IDEMPOTENCY_TAG {
        return None;
    }
    let token = u64::from_be_bytes(request[1..9].try_into().expect("8 bytes"));
    Some((token, &request[9..]))
}

type Outcome = Result<Vec<u8>, (ErrorCode, String)>;

struct CacheState {
    map: HashMap<u64, Outcome>,
    /// Insertion order, for FIFO eviction at `cap`.
    order: VecDeque<u64>,
}

/// A bounded `(token → response)` memory with FIFO eviction.
pub struct ReplayCache {
    state: Mutex<CacheState>,
    cap: usize,
}

impl std::fmt::Debug for ReplayCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayCache").field("len", &self.len()).field("cap", &self.cap).finish()
    }
}

impl ReplayCache {
    /// An empty cache remembering up to `cap` outcomes (min 1).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Self {
            state: Mutex::new(CacheState { map: HashMap::new(), order: VecDeque::new() }),
            cap: cap.max(1),
        }
    }

    /// Remembered outcomes right now.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether nothing is remembered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `f` at most once per `token`: a replayed token returns the
    /// remembered outcome without calling `f`.
    ///
    /// [`ErrorCode::Busy`] outcomes are deliberately *not* remembered —
    /// Busy means "not executed, try again", so the retry (which reuses
    /// the token) must actually re-execute.
    ///
    /// # Errors
    ///
    /// Whatever `f` returned (now or on the original execution).
    pub fn execute<F>(&self, token: u64, request: &[u8], f: F) -> Outcome
    where
        F: FnOnce(&[u8]) -> Outcome,
    {
        if let Some(hit) = self.lock().map.get(&token) {
            return hit.clone();
        }
        // Not held across `f`: duplicates only arrive from sequential
        // retries of one client call, never concurrently, so releasing
        // the lock here trades no correctness for not serializing every
        // tagged request behind one mutex.
        let outcome = f(request);
        if !matches!(outcome, Err((ErrorCode::Busy, _))) {
            let mut st = self.lock();
            if st.map.len() >= self.cap {
                if let Some(old) = st.order.pop_front() {
                    st.map.remove(&old);
                }
            }
            if st.map.insert(token, outcome.clone()).is_none() {
                st.order.push_back(token);
            }
        }
        outcome
    }
}

impl Default for ReplayCache {
    fn default() -> Self {
        Self::new(DEFAULT_REPLAY_CAP)
    }
}

/// Wraps any [`Service`] with replay suppression: tagged requests go
/// through a [`ReplayCache`], untagged requests pass straight through.
///
/// [`crate::sp::SpService`] and [`crate::dh::DhService`] already embed
/// this behaviour; the wrapper exists for custom services (test doubles,
/// proxies) that want the same guarantee.
#[derive(Debug)]
pub struct DedupService<S> {
    inner: S,
    cache: ReplayCache,
}

impl<S> DedupService<S> {
    /// Wraps `inner` with a default-capacity cache.
    pub fn new(inner: S) -> Self {
        Self { inner, cache: ReplayCache::default() }
    }

    /// Wraps `inner` with a cache of `cap` outcomes.
    pub fn with_capacity(inner: S, cap: usize) -> Self {
        Self { inner, cache: ReplayCache::new(cap) }
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Service> Service for DedupService<S> {
    fn handle(&self, request: &[u8]) -> Outcome {
        match strip_idempotency(request) {
            Some((token, inner)) => self.cache.execute(token, inner, |req| self.inner.handle(req)),
            None => self.inner.handle(request),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    struct Counting {
        applies: AtomicU32,
        busy_first: u32,
    }
    impl Service for Counting {
        fn handle(&self, request: &[u8]) -> Outcome {
            let n = self.applies.fetch_add(1, Ordering::SeqCst);
            if n < self.busy_first {
                return Err((ErrorCode::Busy, "not yet".into()));
            }
            Ok(request.to_vec())
        }
    }

    #[test]
    fn envelope_roundtrips_and_rejects_short_or_untagged() {
        let tagged = wrap_idempotent(0xDEAD_BEEF, b"payload");
        assert_eq!(strip_idempotency(&tagged), Some((0xDEAD_BEEF, &b"payload"[..])));
        assert_eq!(strip_idempotency(b"payload"), None);
        assert_eq!(strip_idempotency(&[IDEMPOTENCY_TAG, 1, 2]), None);
        // An empty inner request still carries a valid envelope.
        assert_eq!(strip_idempotency(&wrap_idempotent(7, b"")), Some((7, &b""[..])));
    }

    #[test]
    fn duplicate_tokens_execute_once() {
        let svc = DedupService::new(Counting { applies: AtomicU32::new(0), busy_first: 0 });
        let req = wrap_idempotent(42, b"mutate");
        assert_eq!(svc.handle(&req).unwrap(), b"mutate");
        assert_eq!(svc.handle(&req).unwrap(), b"mutate");
        assert_eq!(svc.handle(&req).unwrap(), b"mutate");
        assert_eq!(svc.inner().applies.load(Ordering::SeqCst), 1, "applied exactly once");

        // A different token is a different logical call.
        assert_eq!(svc.handle(&wrap_idempotent(43, b"mutate")).unwrap(), b"mutate");
        assert_eq!(svc.inner().applies.load(Ordering::SeqCst), 2);

        // Untagged requests always pass through.
        svc.handle(b"read").unwrap();
        svc.handle(b"read").unwrap();
        assert_eq!(svc.inner().applies.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn busy_is_not_remembered_so_the_retry_really_retries() {
        let svc = DedupService::new(Counting { applies: AtomicU32::new(0), busy_first: 2 });
        let req = wrap_idempotent(9, b"m");
        assert!(matches!(svc.handle(&req), Err((ErrorCode::Busy, _))));
        assert!(matches!(svc.handle(&req), Err((ErrorCode::Busy, _))));
        assert_eq!(svc.handle(&req).unwrap(), b"m");
        // ...and now it IS remembered.
        assert_eq!(svc.handle(&req).unwrap(), b"m");
        assert_eq!(svc.inner().applies.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn deterministic_errors_are_remembered() {
        struct FailOnce(AtomicU32);
        impl Service for FailOnce {
            fn handle(&self, _: &[u8]) -> Outcome {
                self.0.fetch_add(1, Ordering::SeqCst);
                Err((ErrorCode::UnknownPuzzle, "gone".into()))
            }
        }
        let svc = DedupService::new(FailOnce(AtomicU32::new(0)));
        let req = wrap_idempotent(1, b"m");
        assert!(matches!(svc.handle(&req), Err((ErrorCode::UnknownPuzzle, _))));
        assert!(matches!(svc.handle(&req), Err((ErrorCode::UnknownPuzzle, _))));
        assert_eq!(svc.inner().0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cache_evicts_fifo_at_capacity() {
        let cache = ReplayCache::new(2);
        let run = |token: u64| cache.execute(token, b"", |_| Ok(vec![token as u8])).unwrap();
        run(1);
        run(2);
        assert_eq!(cache.len(), 2);
        run(3); // evicts token 1
        assert_eq!(cache.len(), 2);
        // Token 1 re-executes (forgotten); tokens 2 and 3 replay.
        let calls = std::sync::atomic::AtomicU32::new(0);
        let probe = |token| {
            cache
                .execute(token, b"", |_| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Ok(vec![])
                })
                .unwrap()
        };
        probe(2);
        probe(3);
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        probe(1);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }
}
