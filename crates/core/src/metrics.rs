//! Delay accounting in the shape of the paper's Figure 10, plus
//! per-endpoint service counters for the `sp-net` daemons.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Add;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A Fig. 10-style delay breakdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DelayBreakdown {
    /// Client-side compute time (device-scaled).
    pub local_processing: Duration,
    /// Network transfer + server-side processing time.
    pub network: Duration,
}

impl DelayBreakdown {
    /// A zero breakdown.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Builds a breakdown from its parts.
    pub fn new(local_processing: Duration, network: Duration) -> Self {
        Self { local_processing, network }
    }

    /// Total delay.
    pub fn total(&self) -> Duration {
        self.local_processing + self.network
    }

    /// Adds local processing time.
    pub fn add_local(&mut self, d: Duration) {
        self.local_processing += d;
    }

    /// Adds network time.
    pub fn add_network(&mut self, d: Duration) {
        self.network += d;
    }
}

impl Add for DelayBreakdown {
    type Output = DelayBreakdown;
    fn add(self, rhs: DelayBreakdown) -> DelayBreakdown {
        DelayBreakdown {
            local_processing: self.local_processing + rhs.local_processing,
            network: self.network + rhs.network,
        }
    }
}

impl fmt::Display for DelayBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "local {:.3} ms + network {:.3} ms = {:.3} ms",
            self.local_processing.as_secs_f64() * 1e3,
            self.network.as_secs_f64() * 1e3,
            self.total().as_secs_f64() * 1e3
        )
    }
}

/// Counters for one RPC endpoint of a daemon.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EndpointCounters {
    /// Requests handled (including ones that returned a protocol error).
    pub requests: u64,
    /// Requests that produced an error response.
    pub errors: u64,
    /// Request payload bytes received (frame payloads, excluding headers).
    pub bytes_in: u64,
    /// Response payload bytes sent.
    pub bytes_out: u64,
}

/// Number of power-of-two buckets in a [`BatchHistogram`]: sizes 1, 2–3,
/// 4–7, …, with the last bucket absorbing everything ≥ 2^(N-1).
pub const BATCH_BUCKETS: usize = 12;

/// A histogram of batch sizes seen at one endpoint, in power-of-two
/// buckets. Size 0 (an empty batch) lands in the first bucket with
/// size 1 — both are "no amortization happened".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchHistogram {
    /// Bucket `i` counts batches of size in `[2^i, 2^(i+1))`; the last
    /// bucket is open-ended.
    pub buckets: [u64; BATCH_BUCKETS],
    /// Batches recorded.
    pub count: u64,
    /// Sum of all batch sizes (for the mean).
    pub sum: u64,
    /// Largest batch seen.
    pub max: u64,
}

impl BatchHistogram {
    /// Records one batch of `size` entries.
    pub fn record(&mut self, size: u64) {
        let bucket = (64 - size.max(1).leading_zeros() as usize - 1).min(BATCH_BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += size;
        self.max = self.max.max(size);
    }

    /// Mean batch size, or 0.0 before the first record.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl fmt::Display for BatchHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} batches, mean {:.1}, max {}", self.count, self.mean(), self.max)?;
        for (i, n) in self.buckets.iter().enumerate().filter(|(_, n)| **n > 0) {
            let lo = 1u64 << i;
            if i == BATCH_BUCKETS - 1 {
                write!(f, ", [{lo}+]={n}")?;
            } else {
                write!(f, ", [{lo}-{}]={n}", (lo << 1) - 1)?;
            }
        }
        Ok(())
    }
}

/// Load counters for one lock stripe of a sharded store, as exported by
/// the daemons (`sp-osn`'s sharded maps are the producer; this type is
/// the transport-neutral copy benchmarks read).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardContention {
    /// Read-lock acquisitions.
    pub reads: u64,
    /// Write-lock acquisitions.
    pub writes: u64,
    /// Acquisitions that found the lock held and had to block.
    pub contended: u64,
}

/// Hit/miss counters for one server-side memoization cache (e.g. the
/// SP's parsed-puzzle cache behind `DisplayPuzzle`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to recompute and fill the cache.
    pub misses: u64,
    /// Entries evicted by invalidation (re-upload, replace, delete).
    pub invalidations: u64,
}

impl CacheCounters {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction in `[0, 1]`, or 0.0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// Snapshot of the crypto fast-path counters (the `crypto.cache`
/// component): Miller line-evaluation cache traffic plus how often the
/// second-wave kernels (cyclotomic `Gt` pow, split-scalar Straus mul)
/// actually ran instead of their generic fallbacks. Producers push
/// absolute process-wide totals (see [`ServiceMetrics::sync_crypto`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CryptoCounters {
    /// Line-evaluation cache hits (warm fixed-argument pairing).
    pub line_cache_hits: u64,
    /// Line-evaluation cache misses (entry computed and stored).
    pub line_cache_misses: u64,
    /// Entries dropped by tag invalidation (upload/replace/delete).
    pub line_cache_invalidations: u64,
    /// `Gt` exponentiations that took the cyclotomic (norm-1) chain.
    pub cyclotomic_pow: u64,
    /// `Gt` exponentiations that fell back to the generic chain.
    pub generic_pow: u64,
    /// Scalar multiplications through the split + Straus path.
    pub split_scalar_mul: u64,
}

impl CryptoCounters {
    /// The current process-wide totals from [`sp_pairing::stats`].
    pub fn snapshot_process() -> Self {
        sp_pairing::stats::snapshot().into()
    }

    /// Line-cache hit fraction in `[0, 1]`, or 0.0 before any lookup.
    pub fn line_cache_hit_rate(&self) -> f64 {
        let total = self.line_cache_hits + self.line_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.line_cache_hits as f64 / total as f64
        }
    }
}

impl From<sp_pairing::CryptoStats> for CryptoCounters {
    fn from(s: sp_pairing::CryptoStats) -> Self {
        Self {
            line_cache_hits: s.line_cache_hits,
            line_cache_misses: s.line_cache_misses,
            line_cache_invalidations: s.line_cache_invalidations,
            cyclotomic_pow: s.cyclotomic_pow,
            generic_pow: s.generic_pow,
            split_scalar_mul: s.split_scalar_mul,
        }
    }
}

/// Serving-path counters for one daemon component (e.g. `"sp.server"`):
/// connections, the requests they have in flight, and how large the
/// batches each connection thread serves at once run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Connections accepted and given their thread.
    pub accepted: u64,
    /// Connections refused with `Busy` at the connection limit.
    pub busy_rejections: u64,
    /// Connections whose HELLO was acknowledged (every connection the
    /// daemon goes on to serve).
    pub v2_negotiated: u64,
    /// Requests read and not yet answered, summed over connections.
    pub in_flight: u64,
    /// Highest `in_flight` ever observed.
    pub in_flight_peak: u64,
    /// The most requests one connection served as a single batch.
    pub queue_peak: u64,
    /// Bytes the open connections' read and write buffers hold between
    /// batches (a gauge).
    pub buffer_bytes: u64,
    /// Connections closed after the idle timeout with no bytes received
    /// while the daemon waited for their next request.
    pub idle_reaped: u64,
    /// The consistent-hash ring epoch this node currently serves (gauge;
    /// 0 when the node is not clustered).
    pub ring_epoch: u64,
    /// Keyed requests refused with `WrongOwner` because the ring places
    /// them on another node.
    pub wrong_owner_refusals: u64,
    /// Replication-log records this node shipped to its replica
    /// (primary side).
    pub repl_records_shipped: u64,
    /// Replication-log records this node applied from its primary
    /// (replica side).
    pub repl_records_applied: u64,
    /// Highest replication sequence number acknowledged as durable by
    /// the replica (gauge; primary side).
    pub repl_acked_seq: u64,
}

impl ServerCounters {
    /// Whether any cluster-facing counter has fired — the Display
    /// impl only prints the cluster line for nodes that are clustered.
    pub fn is_clustered(&self) -> bool {
        self.ring_epoch != 0
            || self.wrong_owner_refusals != 0
            || self.repl_records_shipped != 0
            || self.repl_records_applied != 0
            || self.repl_acked_seq != 0
    }
}

/// Durability counters for one persistent store component (e.g.
/// `"sp.store"`): write-ahead-log appends, batched fsyncs, recovery
/// replay, and snapshots. Producers push snapshots of their internal
/// counters here; the daemons print them next to the endpoint counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Records appended to the write-ahead log.
    pub durable_appends: u64,
    /// Physical fsync calls — under group commit, ≤ `durable_appends`.
    pub fsync_batches: u64,
    /// Log records replayed by the last recovery-on-startup.
    pub recovery_replayed_records: u64,
    /// Snapshots written since startup.
    pub snapshot_count: u64,
}

#[derive(Debug, Default)]
struct MetricsState {
    endpoints: BTreeMap<String, EndpointCounters>,
    batches: BTreeMap<String, BatchHistogram>,
    shards: BTreeMap<String, Vec<ShardContention>>,
    caches: BTreeMap<String, CacheCounters>,
    servers: BTreeMap<String, ServerCounters>,
    stores: BTreeMap<String, StoreCounters>,
    crypto: BTreeMap<String, CryptoCounters>,
}

/// Per-endpoint request/byte/error counters for a running service, plus
/// batch-size histograms and per-shard contention snapshots.
///
/// Cheap to clone (shared state); safe to bump from every worker thread
/// of an `sp-net` daemon. Uses a `std` mutex so a panicking worker can
/// never take the metrics down with it — a poisoned lock is recovered,
/// counters are monotonic and remain meaningful.
#[derive(Clone, Debug, Default)]
pub struct ServiceMetrics {
    state: Arc<Mutex<MetricsState>>,
}

impl ServiceMetrics {
    /// Creates an empty metrics registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn with<R>(&self, f: impl FnOnce(&mut MetricsState) -> R) -> R {
        let mut guard = self.state.lock().unwrap_or_else(|poison| poison.into_inner());
        f(&mut guard)
    }

    /// Records one handled request on `endpoint`.
    pub fn record(&self, endpoint: &str, bytes_in: u64, bytes_out: u64, is_error: bool) {
        self.with(|st| {
            let c = st.endpoints.entry(endpoint.to_owned()).or_default();
            c.requests += 1;
            c.errors += u64::from(is_error);
            c.bytes_in += bytes_in;
            c.bytes_out += bytes_out;
        });
    }

    /// Records the entry count of one batched request on `endpoint`.
    pub fn record_batch(&self, endpoint: &str, size: u64) {
        self.with(|st| st.batches.entry(endpoint.to_owned()).or_default().record(size));
    }

    /// Records one lookup against the named memoization cache.
    pub fn record_cache(&self, cache: &str, hit: bool) {
        self.with(|st| {
            let c = st.caches.entry(cache.to_owned()).or_default();
            c.hits += u64::from(hit);
            c.misses += u64::from(!hit);
        });
    }

    /// Records one invalidation (eviction) against the named cache.
    pub fn record_cache_invalidation(&self, cache: &str) {
        self.with(|st| st.caches.entry(cache.to_owned()).or_default().invalidations += 1);
    }

    /// Hit/miss counters for one cache (zeros if it never saw a lookup).
    pub fn cache(&self, cache: &str) -> CacheCounters {
        self.with(|st| st.caches.get(cache).copied().unwrap_or_default())
    }

    /// Overwrites the per-shard contention snapshot for `component`
    /// (e.g. `"sp.puzzles"`). Producers push their current counters here;
    /// benchmarks and the CLI read them back.
    pub fn set_shard_contention(&self, component: &str, loads: Vec<ShardContention>) {
        self.with(|st| {
            st.shards.insert(component.to_owned(), loads);
        });
    }

    /// The latest per-shard contention snapshot for `component` (empty if
    /// never set).
    pub fn shard_contention(&self, component: &str) -> Vec<ShardContention> {
        self.with(|st| st.shards.get(component).cloned().unwrap_or_default())
    }

    /// Sums a component's contention snapshot across shards.
    pub fn shard_contention_totals(&self, component: &str) -> ShardContention {
        self.shard_contention(component).iter().fold(ShardContention::default(), |mut acc, s| {
            acc.reads += s.reads;
            acc.writes += s.writes;
            acc.contended += s.contended;
            acc
        })
    }

    /// Records one accepted connection on the named server component.
    pub fn server_conn_accepted(&self, component: &str) {
        self.with(|st| st.servers.entry(component.to_owned()).or_default().accepted += 1);
    }

    /// Records one connection that upgraded to the v2 framing after its
    /// accept was already counted.
    pub fn server_v2_negotiated(&self, component: &str) {
        self.with(|st| st.servers.entry(component.to_owned()).or_default().v2_negotiated += 1);
    }

    /// Records one connection refused with `Busy`.
    pub fn server_busy_rejection(&self, component: &str) {
        self.with(|st| st.servers.entry(component.to_owned()).or_default().busy_rejections += 1);
    }

    /// Records a connection starting to serve a batch of `requests`.
    pub fn server_batch_started(&self, component: &str, requests: u64) {
        self.with(|st| {
            let c = st.servers.entry(component.to_owned()).or_default();
            c.in_flight += requests;
            c.in_flight_peak = c.in_flight_peak.max(c.in_flight);
            c.queue_peak = c.queue_peak.max(requests);
        });
    }

    /// Records a batch of `requests` answered (or abandoned), after
    /// which its connection's buffers went from `buffers_before` bytes
    /// (as last reported) to `buffers_after`.
    pub fn server_batch_finished(
        &self,
        component: &str,
        requests: u64,
        buffers_before: u64,
        buffers_after: u64,
    ) {
        self.with(|st| {
            let c = st.servers.entry(component.to_owned()).or_default();
            c.in_flight = c.in_flight.saturating_sub(requests);
            c.buffer_bytes = (c.buffer_bytes + buffers_after).saturating_sub(buffers_before);
        });
    }

    /// Records one connection closed by the idle timeout.
    pub fn server_idle_reaped(&self, component: &str) {
        self.with(|st| st.servers.entry(component.to_owned()).or_default().idle_reaped += 1);
    }

    /// Sets the consistent-hash ring epoch gauge for a clustered node.
    pub fn server_ring_epoch(&self, component: &str, epoch: u64) {
        self.with(|st| st.servers.entry(component.to_owned()).or_default().ring_epoch = epoch);
    }

    /// Records one keyed request refused with `WrongOwner`.
    pub fn server_wrong_owner(&self, component: &str) {
        self.with(|st| {
            st.servers.entry(component.to_owned()).or_default().wrong_owner_refusals += 1
        });
    }

    /// Records `n` replication records shipped to the replica.
    pub fn server_repl_shipped(&self, component: &str, n: u64) {
        self.with(|st| {
            st.servers.entry(component.to_owned()).or_default().repl_records_shipped += n
        });
    }

    /// Records `n` replication records applied from the primary.
    pub fn server_repl_applied(&self, component: &str, n: u64) {
        self.with(|st| {
            st.servers.entry(component.to_owned()).or_default().repl_records_applied += n
        });
    }

    /// Sets the replica-acknowledged sequence gauge (monotonic: an older
    /// in-flight ack can never move it backwards).
    pub fn server_repl_acked(&self, component: &str, seq: u64) {
        self.with(|st| {
            let c = st.servers.entry(component.to_owned()).or_default();
            c.repl_acked_seq = c.repl_acked_seq.max(seq);
        });
    }

    /// Counters for one server component (zeros if never seen).
    pub fn server(&self, component: &str) -> ServerCounters {
        self.with(|st| st.servers.get(component).copied().unwrap_or_default())
    }

    /// Overwrites the durability-counter snapshot for `component`
    /// (e.g. `"sp.store"`).
    pub fn set_store_counters(&self, component: &str, counters: StoreCounters) {
        self.with(|st| {
            st.stores.insert(component.to_owned(), counters);
        });
    }

    /// The latest durability counters for `component` (zeros if never set).
    pub fn store_counters(&self, component: &str) -> StoreCounters {
        self.with(|st| st.stores.get(component).copied().unwrap_or_default())
    }

    /// Overwrites the crypto fast-path snapshot for `component`
    /// (canonically `"crypto.cache"`).
    pub fn set_crypto_counters(&self, component: &str, counters: CryptoCounters) {
        self.with(|st| {
            st.crypto.insert(component.to_owned(), counters);
        });
    }

    /// The latest crypto fast-path counters (zeros if never synced).
    pub fn crypto_counters(&self, component: &str) -> CryptoCounters {
        self.with(|st| st.crypto.get(component).copied().unwrap_or_default())
    }

    /// Pushes the process-wide [`sp_pairing::stats`] snapshot into the
    /// `"crypto.cache"` component. Daemons and the CLI call this right
    /// before printing a summary.
    pub fn sync_crypto(&self) {
        self.set_crypto_counters("crypto.cache", sp_pairing::stats::snapshot().into());
    }

    /// Counters for one endpoint (zeros if it never saw a request).
    pub fn endpoint(&self, endpoint: &str) -> EndpointCounters {
        self.with(|st| st.endpoints.get(endpoint).copied().unwrap_or_default())
    }

    /// Batch-size histogram for one endpoint (empty if it never saw a
    /// batched request).
    pub fn batch_histogram(&self, endpoint: &str) -> BatchHistogram {
        self.with(|st| st.batches.get(endpoint).copied().unwrap_or_default())
    }

    /// A snapshot of every endpoint, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, EndpointCounters)> {
        self.with(|st| st.endpoints.iter().map(|(k, v)| (k.clone(), *v)).collect())
    }

    /// Sums counters across all endpoints.
    pub fn totals(&self) -> EndpointCounters {
        self.with(|st| {
            st.endpoints.values().fold(EndpointCounters::default(), |mut acc, c| {
                acc.requests += c.requests;
                acc.errors += c.errors;
                acc.bytes_in += c.bytes_in;
                acc.bytes_out += c.bytes_out;
                acc
            })
        })
    }
}

impl fmt::Display for ServiceMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, c) in self.snapshot() {
            writeln!(
                f,
                "{name}: {} requests ({} errors), {} B in, {} B out",
                c.requests, c.errors, c.bytes_in, c.bytes_out
            )?;
        }
        let batches = self.with(|st| st.batches.clone());
        for (name, h) in batches {
            writeln!(f, "{name} batches: {h}")?;
        }
        let caches = self.with(|st| st.caches.clone());
        for (name, c) in caches {
            writeln!(
                f,
                "{name} cache: {} hits, {} misses ({:.1}% hit rate), {} invalidations",
                c.hits,
                c.misses,
                c.hit_rate() * 100.0,
                c.invalidations
            )?;
        }
        let servers = self.with(|st| st.servers.clone());
        for (name, c) in servers {
            writeln!(
                f,
                "{name} server: {} accepted ({} v2, {} busy), in-flight {} (peak {}), \
                 largest batch {}, {} buffered bytes, {} idle-reaped",
                c.accepted,
                c.v2_negotiated,
                c.busy_rejections,
                c.in_flight,
                c.in_flight_peak,
                c.queue_peak,
                c.buffer_bytes,
                c.idle_reaped
            )?;
            if c.is_clustered() {
                writeln!(
                    f,
                    "{name} cluster: ring epoch {}, {} wrong-owner, \
                     repl {} shipped / {} applied, acked seq {}",
                    c.ring_epoch,
                    c.wrong_owner_refusals,
                    c.repl_records_shipped,
                    c.repl_records_applied,
                    c.repl_acked_seq
                )?;
            }
        }
        let stores = self.with(|st| st.stores.clone());
        for (name, c) in stores {
            writeln!(
                f,
                "{name} store: {} appends, {} fsync batches, {} replayed, {} snapshots",
                c.durable_appends, c.fsync_batches, c.recovery_replayed_records, c.snapshot_count
            )?;
        }
        let crypto = self.with(|st| st.crypto.clone());
        for (name, c) in crypto {
            writeln!(
                f,
                "{name} crypto: {} hits, {} misses ({:.1}% hit rate), {} invalidations, \
                 {} cyclotomic pow, {} generic pow, {} split mul",
                c.line_cache_hits,
                c.line_cache_misses,
                c.line_cache_hit_rate() * 100.0,
                c.line_cache_invalidations,
                c.cyclotomic_pow,
                c.generic_pow,
                c.split_scalar_mul
            )?;
        }
        let shards = self.with(|st| st.shards.clone());
        for (name, loads) in shards {
            let t = loads.iter().fold(ShardContention::default(), |mut acc, s| {
                acc.reads += s.reads;
                acc.writes += s.writes;
                acc.contended += s.contended;
                acc
            });
            writeln!(
                f,
                "{name} shards: {} stripes, {} reads, {} writes, {} contended",
                loads.len(),
                t.reads,
                t.writes,
                t.contended
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_metrics_accumulate_per_endpoint() {
        let m = ServiceMetrics::new();
        m.record("upload", 100, 8, false);
        m.record("upload", 50, 8, false);
        m.record("verify", 30, 200, true);
        assert_eq!(
            m.endpoint("upload"),
            EndpointCounters { requests: 2, errors: 0, bytes_in: 150, bytes_out: 16 }
        );
        assert_eq!(m.endpoint("verify").errors, 1);
        assert_eq!(m.endpoint("never"), EndpointCounters::default());
        let totals = m.totals();
        assert_eq!(totals.requests, 3);
        assert_eq!(totals.bytes_in, 180);
        let snap = m.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "upload");
        let shown = m.to_string();
        assert!(shown.contains("upload: 2 requests"));
    }

    #[test]
    fn service_metrics_shared_across_clones_and_threads() {
        let m = ServiceMetrics::new();
        let clone = m.clone();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let mm = clone.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        mm.record("get", 1, 2, false);
                    }
                });
            }
        });
        assert_eq!(m.endpoint("get").requests, 400);
        assert_eq!(m.endpoint("get").bytes_out, 800);
    }

    #[test]
    fn service_metrics_survive_a_poisoned_lock() {
        let m = ServiceMetrics::new();
        m.record("put", 1, 1, false);
        let inner = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = inner.state.lock().unwrap();
            panic!("poison the lock on purpose");
        })
        .join();
        // Counters keep working after the poisoning panic.
        m.record("put", 1, 1, false);
        assert_eq!(m.endpoint("put").requests, 2);
    }

    #[test]
    fn batch_histogram_buckets_and_mean() {
        let mut h = BatchHistogram::default();
        for size in [0, 1, 2, 3, 4, 7, 8, 64, 5000] {
            h.record(size);
        }
        assert_eq!(h.count, 9);
        assert_eq!(h.max, 5000);
        assert_eq!(h.buckets[0], 2, "sizes 0 and 1 share the first bucket");
        assert_eq!(h.buckets[1], 2, "sizes 2-3");
        assert_eq!(h.buckets[2], 2, "sizes 4-7");
        assert_eq!(h.buckets[3], 1, "size 8");
        assert_eq!(h.buckets[6], 1, "size 64");
        assert_eq!(h.buckets[BATCH_BUCKETS - 1], 1, "oversize lands in the last bucket");
        assert!((h.mean() - h.sum as f64 / 9.0).abs() < 1e-9);
        assert_eq!(BatchHistogram::default().mean(), 0.0);
        let shown = h.to_string();
        assert!(shown.contains("9 batches"));
        assert!(shown.contains("max 5000"));
    }

    #[test]
    fn service_metrics_batches_and_shards() {
        let m = ServiceMetrics::new();
        m.record_batch("sp.verify_batch", 16);
        m.record_batch("sp.verify_batch", 1);
        assert_eq!(m.batch_histogram("sp.verify_batch").count, 2);
        assert_eq!(m.batch_histogram("sp.verify_batch").max, 16);
        assert_eq!(m.batch_histogram("never"), BatchHistogram::default());

        m.set_shard_contention(
            "sp.puzzles",
            vec![
                ShardContention { reads: 10, writes: 2, contended: 1 },
                ShardContention { reads: 5, writes: 0, contended: 0 },
            ],
        );
        assert_eq!(m.shard_contention("sp.puzzles").len(), 2);
        let t = m.shard_contention_totals("sp.puzzles");
        assert_eq!((t.reads, t.writes, t.contended), (15, 2, 1));
        assert!(m.shard_contention("dh.blobs").is_empty());
        // Snapshots are overwrite-on-set, not cumulative.
        m.set_shard_contention("sp.puzzles", vec![ShardContention::default()]);
        assert_eq!(m.shard_contention_totals("sp.puzzles").reads, 0);

        let shown = m.to_string();
        assert!(shown.contains("sp.verify_batch batches: 2 batches"));
        assert!(shown.contains("sp.puzzles shards: 1 stripes"));
    }

    #[test]
    fn server_counters_track_batches_and_buffers() {
        let m = ServiceMetrics::new();
        assert_eq!(m.server("sp.server"), ServerCounters::default());
        m.server_conn_accepted("sp.server");
        m.server_conn_accepted("sp.server");
        m.server_v2_negotiated("sp.server");
        m.server_v2_negotiated("sp.server");
        m.server_busy_rejection("sp.server");
        m.server_batch_started("sp.server", 3);
        m.server_batch_started("sp.server", 2);
        m.server_batch_finished("sp.server", 3, 0, 100);
        m.server_idle_reaped("sp.server");
        let c = m.server("sp.server");
        assert_eq!(c.accepted, 2);
        assert_eq!(c.v2_negotiated, 2);
        assert_eq!(c.busy_rejections, 1);
        assert_eq!((c.in_flight, c.in_flight_peak), (2, 5));
        assert_eq!(c.queue_peak, 3, "the largest single batch");
        assert_eq!(c.buffer_bytes, 100);
        assert_eq!(c.idle_reaped, 1);
        // A connection's buffers shrink back, then it closes.
        m.server_batch_finished("sp.server", 2, 100, 40);
        assert_eq!((m.server("sp.server").in_flight, m.server("sp.server").buffer_bytes), (0, 40));
        m.server_batch_finished("sp.server", 0, 40, 0); // the connection closes
        assert_eq!(m.server("sp.server").buffer_bytes, 0);
        let shown = m.to_string();
        assert!(shown.contains("sp.server server: 2 accepted (2 v2, 1 busy)"));
        assert!(shown.contains("largest batch 3, 0 buffered bytes, 1 idle-reaped"));
        assert!(!shown.contains("cluster:"), "non-clustered nodes print no cluster line");
    }

    #[test]
    fn cluster_counters_track_routing_and_replication() {
        let m = ServiceMetrics::new();
        assert!(!m.server("sp.server").is_clustered());
        m.server_ring_epoch("sp.server", 3);
        m.server_wrong_owner("sp.server");
        m.server_wrong_owner("sp.server");
        m.server_repl_shipped("sp.server", 10);
        m.server_repl_applied("sp.server", 4);
        m.server_repl_acked("sp.server", 7);
        // A stale in-flight ack never regresses the gauge.
        m.server_repl_acked("sp.server", 5);
        let c = m.server("sp.server");
        assert!(c.is_clustered());
        assert_eq!(c.ring_epoch, 3);
        assert_eq!(c.wrong_owner_refusals, 2);
        assert_eq!(c.repl_records_shipped, 10);
        assert_eq!(c.repl_records_applied, 4);
        assert_eq!(c.repl_acked_seq, 7);
        let shown = m.to_string();
        assert!(shown.contains("sp.server cluster: ring epoch 3, 2 wrong-owner"));
        assert!(shown.contains("repl 10 shipped / 4 applied, acked seq 7"));
    }

    #[test]
    fn cache_counters_track_hits_misses_and_invalidations() {
        let m = ServiceMetrics::new();
        assert_eq!(m.cache("sp.puzzle_cache"), CacheCounters::default());
        assert_eq!(m.cache("sp.puzzle_cache").hit_rate(), 0.0);
        m.record_cache("sp.puzzle_cache", false);
        m.record_cache("sp.puzzle_cache", true);
        m.record_cache("sp.puzzle_cache", true);
        m.record_cache_invalidation("sp.puzzle_cache");
        let c = m.cache("sp.puzzle_cache");
        assert_eq!((c.hits, c.misses, c.invalidations), (2, 1, 1));
        assert_eq!(c.lookups(), 3);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.cache("other"), CacheCounters::default());
        let shown = m.to_string();
        assert!(shown.contains("sp.puzzle_cache cache: 2 hits, 1 misses"));
        assert!(shown.contains("1 invalidations"));
    }

    #[test]
    fn crypto_counters_sync_and_display() {
        let m = ServiceMetrics::new();
        assert_eq!(m.crypto_counters("crypto.cache"), CryptoCounters::default());
        assert_eq!(m.crypto_counters("crypto.cache").line_cache_hit_rate(), 0.0);
        m.set_crypto_counters(
            "crypto.cache",
            CryptoCounters {
                line_cache_hits: 9,
                line_cache_misses: 3,
                line_cache_invalidations: 2,
                cyclotomic_pow: 40,
                generic_pow: 1,
                split_scalar_mul: 7,
            },
        );
        let c = m.crypto_counters("crypto.cache");
        assert!((c.line_cache_hit_rate() - 0.75).abs() < 1e-12);
        let shown = m.to_string();
        assert!(shown.contains("crypto.cache crypto: 9 hits, 3 misses (75.0% hit rate)"));
        assert!(shown.contains("40 cyclotomic pow"));
        // sync_crypto overwrites with the live process snapshot.
        m.sync_crypto();
        let synced = m.crypto_counters("crypto.cache");
        assert_eq!(synced, sp_pairing::stats::snapshot().into());
    }

    #[test]
    fn store_counters_overwrite_and_display() {
        let m = ServiceMetrics::new();
        assert_eq!(m.store_counters("sp.store"), StoreCounters::default());
        m.set_store_counters(
            "sp.store",
            StoreCounters {
                durable_appends: 12,
                fsync_batches: 3,
                recovery_replayed_records: 7,
                snapshot_count: 1,
            },
        );
        let c = m.store_counters("sp.store");
        assert_eq!((c.durable_appends, c.fsync_batches), (12, 3));
        assert_eq!((c.recovery_replayed_records, c.snapshot_count), (7, 1));
        // Overwrite-on-set, not cumulative — producers push absolute values.
        m.set_store_counters("sp.store", StoreCounters::default());
        assert_eq!(m.store_counters("sp.store").durable_appends, 0);
        m.set_store_counters(
            "dh.store",
            StoreCounters { durable_appends: 2, ..StoreCounters::default() },
        );
        let shown = m.to_string();
        assert!(shown.contains("sp.store store: 0 appends, 0 fsync batches"));
        assert!(shown.contains("dh.store store: 2 appends"));
    }

    #[test]
    fn arithmetic() {
        let mut a = DelayBreakdown::zero();
        a.add_local(Duration::from_millis(2));
        a.add_network(Duration::from_millis(40));
        assert_eq!(a.total(), Duration::from_millis(42));
        let b = DelayBreakdown::new(Duration::from_millis(1), Duration::from_millis(1));
        let c = a + b;
        assert_eq!(c.local_processing, Duration::from_millis(3));
        assert_eq!(c.network, Duration::from_millis(41));
    }

    #[test]
    fn display_has_both_terms() {
        let d = DelayBreakdown::new(Duration::from_millis(5), Duration::from_millis(50));
        let s = d.to_string();
        assert!(s.contains("local"));
        assert!(s.contains("network"));
        assert!(s.contains("55.000"));
    }
}
