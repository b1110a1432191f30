//! Process-wide counters for the crypto fast paths.
//!
//! The second-wave fast paths (cyclotomic exponentiation, the Miller
//! line-evaluation cache) each have a slower generic twin they silently
//! fall back to; these counters make the fast-path coverage observable.
//! `sp-core` folds a snapshot into `ServiceMetrics` as the `crypto.cache`
//! component, and the load/sim summaries print it, so a kernel that stops
//! being exercised shows up in operational output rather than only in
//! benchmarks.

use std::sync::atomic::{AtomicU64, Ordering};

static CYCLOTOMIC_POW: AtomicU64 = AtomicU64::new(0);
static GENERIC_POW: AtomicU64 = AtomicU64::new(0);
static LINE_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static LINE_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static LINE_CACHE_INVALIDATIONS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the fast-path counters since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CryptoStats {
    /// `Gt` exponentiations that took the cyclotomic (norm-1) chain.
    pub cyclotomic_pow: u64,
    /// `Gt` exponentiations that fell back to the generic square chain
    /// (element was outside the norm-1 subgroup, e.g. decoded bytes).
    pub generic_pow: u64,
    /// Miller line-evaluation cache hits (warm fixed-argument entry).
    pub line_cache_hits: u64,
    /// Line-evaluation cache misses (entry computed and stored).
    pub line_cache_misses: u64,
    /// Line-evaluation cache entries dropped by invalidation.
    pub line_cache_invalidations: u64,
}

impl CryptoStats {
    /// Cache hit rate in `[0, 1]`; `0` before any lookup.
    pub fn line_cache_hit_rate(&self) -> f64 {
        let total = self.line_cache_hits + self.line_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.line_cache_hits as f64 / total as f64
        }
    }
}

/// Reads all counters (relaxed; totals may be mid-update skewed by one).
pub fn snapshot() -> CryptoStats {
    CryptoStats {
        cyclotomic_pow: CYCLOTOMIC_POW.load(Ordering::Relaxed),
        generic_pow: GENERIC_POW.load(Ordering::Relaxed),
        line_cache_hits: LINE_CACHE_HITS.load(Ordering::Relaxed),
        line_cache_misses: LINE_CACHE_MISSES.load(Ordering::Relaxed),
        line_cache_invalidations: LINE_CACHE_INVALIDATIONS.load(Ordering::Relaxed),
    }
}

pub(crate) fn record_cyclotomic_pow() {
    CYCLOTOMIC_POW.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_generic_pow() {
    GENERIC_POW.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_line_cache_hit() {
    LINE_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_line_cache_miss() {
    LINE_CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_line_cache_invalidation(n: u64) {
    LINE_CACHE_INVALIDATIONS.fetch_add(n, Ordering::Relaxed);
}

/// Serializes the lib tests that record into or assert exact deltas of
/// the process-wide line-cache counters. The harness runs tests on
/// parallel threads, so without it one test's lookups land inside
/// another's before/after window.
#[cfg(test)]
pub(crate) fn line_cache_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test poisons the lock; the counters it guards are still
    // consistent, so later tests proceed.
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let _serial = line_cache_test_lock();
        let before = snapshot();
        record_cyclotomic_pow();
        record_generic_pow();
        record_line_cache_hit();
        record_line_cache_miss();
        record_line_cache_invalidation(3);
        let after = snapshot();
        assert!(after.cyclotomic_pow > before.cyclotomic_pow);
        assert!(after.generic_pow > before.generic_pow);
        assert!(after.line_cache_hits > before.line_cache_hits);
        assert!(after.line_cache_misses > before.line_cache_misses);
        assert!(after.line_cache_invalidations >= before.line_cache_invalidations + 3);
    }

    #[test]
    fn hit_rate_bounds() {
        let empty = CryptoStats::default();
        assert_eq!(empty.line_cache_hit_rate(), 0.0);
        let warm = CryptoStats { line_cache_hits: 3, line_cache_misses: 1, ..empty };
        assert!((warm.line_cache_hit_rate() - 0.75).abs() < 1e-12);
    }
}
