//! Client settings and idempotency tokens, shared by every call the
//! [`crate::PipelinedConnection`] makes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::frame::DEFAULT_MAX_FRAME;

/// A process-unique idempotency token: a per-process random-ish base
/// (clock entropy) mixed with a counter through the SplitMix64 finalizer.
/// Collisions across processes are as unlikely as a 64-bit hash
/// collision within one server's (bounded, recent-only) replay window.
pub(crate) fn next_token() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    static BASE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    let base = *BASE.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5EED);
        nanos ^ (u64::from(std::process::id()) << 32)
    });
    let mut z = base
        .wrapping_add(COUNTER.fetch_add(1, Ordering::Relaxed).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Client-side tuning knobs.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-request deadline, from submission to response; also bounds
    /// the HELLO exchange.
    pub read_timeout: Duration,
    /// Socket write timeout (per frame).
    pub write_timeout: Duration,
    /// Retries after the first attempt (so `retries = 2` means up to 3
    /// attempts) of a call that failed with a transport error or `Busy`.
    pub retries: u32,
    /// First retry backoff; doubles per subsequent retry.
    pub backoff: Duration,
    /// Maximum frame size, enforced on both send and receive.
    pub max_frame: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            retries: 2,
            backoff: Duration::from_millis(50),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}
