//! Shared Miller-loop line-evaluation cache.
//!
//! CP-ABE decryption pairs a *fixed* set of ciphertext-side points (the
//! puzzle's public inputs) against per-key points, and the same puzzle is
//! displayed many times. The Miller walk of the fixed argument — every
//! doubling/addition and the line coefficients each step produces — does
//! not depend on the other argument, so it is computed once per
//! `(tag, point)` and replayed from the cache: a warm pairing costs two
//! base-field multiplications per stored line instead of the full
//! Jacobian walk.
//!
//! The cache is lock-striped over 16 shards selected by key hash, the
//! same discipline as the service layer's sharded puzzle memo, so
//! concurrent decryptions of unrelated puzzles never serialize on one
//! lock. Entries are grouped by an opaque byte *tag* (the service layer
//! uses the puzzle id): `Upload`/`Replace`/`Delete` of a puzzle drop all
//! of its lines via [`LineCache::invalidate`]. Hit/miss/invalidation
//! totals feed [`crate::stats`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use sp_bigint::Uint;

use crate::curve::G1;
use crate::miller::{precompute_lines, LinePrecomp};
use crate::stats;

/// Stripe count; power of two so the hash maps onto shards with a mask.
const SHARDS: usize = 16;

/// Cache key: the tag's stable hash plus the full identity of the
/// precomputation — group order bytes (distinguishing parameter sets that
/// share a process) followed by the compressed point encoding.
type Key = (u64, Vec<u8>);

/// FNV-1a over bytes — stable across processes, like the service layer's
/// puzzle-id striping hash.
fn fnv1a(data: &[u8]) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
    }
    acc
}

/// A process-shared cache of [`LinePrecomp`] entries, striped over
/// independently locked shards and grouped by invalidation tag.
pub struct LineCache {
    shards: Vec<Mutex<HashMap<Key, Arc<LinePrecomp>>>>,
}

impl Default for LineCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LineCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineCache").field("entries", &self.len()).finish()
    }
}

impl LineCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self { shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    fn shard(&self, tag_hash: u64) -> &Mutex<HashMap<Key, Arc<LinePrecomp>>> {
        &self.shards[(tag_hash as usize) & (SHARDS - 1)]
    }

    /// Looks up (or computes and stores) the line precomputation for the
    /// Miller walk of `p` under group order `r`, filed under `tag`.
    pub(crate) fn get_or_precompute(&self, tag: &[u8], p: &G1, r: &Uint<4>) -> Arc<LinePrecomp> {
        let tag_hash = fnv1a(tag);
        let mut ident = r.to_be_bytes();
        ident.extend_from_slice(&p.to_bytes_compressed());
        let key = (tag_hash, ident);
        if let Some(hit) = self.shard(tag_hash).lock().expect("cache shard").get(&key) {
            stats::record_line_cache_hit();
            return Arc::clone(hit);
        }
        // Compute outside the lock; a racing miss on the same key does the
        // same work and the last insert wins — both Arcs are equivalent.
        stats::record_line_cache_miss();
        let pre = Arc::new(precompute_lines(p, r));
        self.shard(tag_hash).lock().expect("cache shard").insert(key, Arc::clone(&pre));
        pre
    }

    /// Drops every entry filed under `tag`, returning how many were
    /// removed. Called by the service layer when a puzzle is uploaded,
    /// replaced or deleted.
    pub fn invalidate(&self, tag: &[u8]) -> u64 {
        let tag_hash = fnv1a(tag);
        let mut shard = self.shard(tag_hash).lock().expect("cache shard");
        let before = shard.len();
        shard.retain(|(h, _), _| *h != tag_hash);
        let removed = (before - shard.len()) as u64;
        if removed > 0 {
            stats::record_line_cache_invalidation(removed);
        }
        removed
    }

    /// Total cached precomputations across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard").len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint of all cached entries, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock().expect("cache shard").values().map(|pre| pre.approx_bytes()).sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pairing;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hit_after_miss_and_tagged_invalidation() {
        let _serial = crate::stats::line_cache_test_lock();
        let p = Pairing::insecure_test_params();
        let cache = LineCache::new();
        let mut rng = StdRng::seed_from_u64(70);
        let a = p.random_g1(&mut rng);
        let b = p.random_g1(&mut rng);

        let s0 = crate::stats::snapshot();
        cache.get_or_precompute(b"puzzle-1", &a, p.order());
        cache.get_or_precompute(b"puzzle-1", &a, p.order());
        cache.get_or_precompute(b"puzzle-1", &b, p.order());
        cache.get_or_precompute(b"puzzle-2", &a, p.order());
        let s1 = crate::stats::snapshot();
        assert_eq!(s1.line_cache_misses - s0.line_cache_misses, 3);
        assert_eq!(s1.line_cache_hits - s0.line_cache_hits, 1);
        assert_eq!(cache.len(), 3);
        assert!(cache.approx_bytes() > 0);

        // Invalidation only touches the tag's entries.
        assert_eq!(cache.invalidate(b"puzzle-1"), 2);
        assert_eq!(cache.invalidate(b"puzzle-1"), 0);
        assert_eq!(cache.len(), 1);
        let s2 = crate::stats::snapshot();
        assert_eq!(s2.line_cache_invalidations - s1.line_cache_invalidations, 2);

        // Re-query after invalidation recomputes.
        cache.get_or_precompute(b"puzzle-1", &a, p.order());
        let s3 = crate::stats::snapshot();
        assert_eq!(s3.line_cache_misses - s2.line_cache_misses, 1);
    }
}
