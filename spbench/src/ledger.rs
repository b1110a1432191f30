//! Reduces a traced run's spans to per-layer numbers.
//!
//! Verify workloads link every stage of a request by its id: the
//! generator's `loadgen.request` [due, received] contains `client.sp`
//! [sent, received], which contains the SP's `sp.<endpoint>` handle span,
//! which contains the `backend.*` calls made while handling it. So
//!
//! ```text
//! latency = late + inbound + sp self + backend + outbound
//! ```
//!
//! holds for each request by construction (see the trace tests).
//!
//! Session workloads link client and local-crypto calls to their session
//! by id, and backend calls to their SP handle span by token; a client
//! call is matched to the server span it caused by containment — the one
//! server span of the same endpoint inside the call's interval — and
//! left unmatched when two threads' calls to one endpoint overlap.

use std::collections::HashMap;

use crate::stats::Histogram;
use crate::trace::{self_time, Span};

/// Per-layer numbers from one traced phase.
#[derive(Default)]
pub struct Ledger {
    /// Caller's send to the server handler's entry.
    pub inbound: Histogram,
    /// Server handler's return to the caller's receive.
    pub outbound: Histogram,
    /// SP self time of requests that change no SP state.
    pub sp_read: Histogram,
    /// SP self time of requests that do (audit appends, uploads, posts).
    pub sp_write: Histogram,
    /// Backend `log_access` calls.
    pub log_access: Histogram,
    /// Backend `shard_loads` calls (one per SP request, for its metrics).
    pub shard_loads: Histogram,
    /// SP round trips as the caller saw them.
    pub client_sp: Histogram,
    /// Sampled operations (requests or sessions).
    pub ops: u64,
    /// Sampled calls that found no server span of their own.
    pub unmatched: u64,
    /// Sampled calls that were looked up.
    pub lookups: u64,
    /// Total duration of the sampled operations.
    pub op_ns: u64,
    /// Time the sampled sessions spent waiting on DH calls.
    pub dh_ns: u64,
    /// Time the sampled sessions spent in Construction 1 calls.
    pub c1_ns: u64,
    /// Time the sampled sessions spent in Construction 2 calls.
    pub c2_ns: u64,
}

/// Whether an SP endpoint leaves the SP's state unchanged.
fn is_read(endpoint: &str) -> bool {
    matches!(endpoint, "sp.display_puzzle" | "sp.fetch_puzzle" | "sp.access")
}

fn by_id(spans: &[Span]) -> HashMap<u64, Vec<&Span>> {
    let mut map: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        map.entry(s.id).or_default().push(s);
    }
    map
}

impl Ledger {
    fn add_server(&mut self, handle: &Span, backends: &[&Span]) {
        let own = backends.iter().copied().filter(|b| handle.contains(b));
        let self_ns = self_time(handle, own);
        if is_read(handle.name) {
            self.sp_read.record(self_ns);
        } else {
            self.sp_write.record(self_ns);
        }
    }

    fn add_backends(&mut self, spans: &[Span]) {
        for s in spans {
            match s.name {
                "backend.log_access" => self.log_access.record(s.dur()),
                "backend.shard_loads" => self.shard_loads.record(s.dur()),
                _ => {}
            }
        }
    }

    /// Verify workloads: one generator request per sampled id.
    pub fn from_requests(spans: &[Span]) -> Self {
        let mut l = Ledger::default();
        l.add_backends(spans);
        for group in by_id(spans).values() {
            let find = |name: &str| group.iter().copied().find(|s| s.name == name);
            let (Some(root), Some(client)) = (find("loadgen.request"), find("client.sp")) else {
                continue; // not a generator request (or still in flight)
            };
            l.ops += 1;
            l.lookups += 1;
            l.op_ns += root.dur();
            l.client_sp.record(client.dur());
            let backends: Vec<&Span> =
                group.iter().copied().filter(|s| s.name.starts_with("backend.")).collect();
            let Some(handle) = group.iter().copied().find(|s| s.name.starts_with("sp.")) else {
                l.unmatched += 1;
                continue;
            };
            l.inbound.record(handle.start.saturating_sub(client.start));
            l.outbound.record(client.end.saturating_sub(handle.end));
            l.add_server(handle, &backends);
        }
        l
    }

    /// Session workloads: sampled sessions plus every server span recorded
    /// while one was open.
    pub fn from_sessions(spans: &[Span]) -> Self {
        let mut l = Ledger::default();
        l.add_backends(spans);
        let groups = by_id(spans);
        // Server handle spans per endpoint, in start order, for matching.
        let mut servers: HashMap<&str, Vec<&Span>> = HashMap::new();
        for s in spans {
            if s.name.starts_with("sp.") || s.name.starts_with("dh.") {
                servers.entry(s.name).or_default().push(s);
                if s.name.starts_with("sp.") {
                    let backends: Vec<&Span> = groups[&s.id]
                        .iter()
                        .copied()
                        .filter(|b| b.name.starts_with("backend."))
                        .collect();
                    l.add_server(s, &backends);
                }
            }
        }
        for list in servers.values_mut() {
            list.sort_unstable_by_key(|s| s.start);
        }
        for s in spans {
            if s.name.starts_with("session.") {
                l.ops += 1;
                l.op_ns += s.dur();
            } else if s.name.starts_with("c1.") {
                l.c1_ns += s.dur();
            } else if s.name.starts_with("c2.") {
                l.c2_ns += s.dur();
            } else if let Some(endpoint) = s.name.strip_prefix("client.") {
                if endpoint.starts_with("dh.") {
                    l.dh_ns += s.dur();
                } else {
                    l.client_sp.record(s.dur());
                }
                l.lookups += 1;
                let inside: Vec<&Span> = servers
                    .get(endpoint)
                    .map(|list| {
                        let from = list.partition_point(|h| h.start < s.start);
                        list[from..]
                            .iter()
                            .copied()
                            .take_while(|h| h.start <= s.end)
                            .filter(|h| s.contains(h))
                            .collect()
                    })
                    .unwrap_or_default();
                match inside.as_slice() {
                    [handle] => {
                        l.inbound.record(handle.start - s.start);
                        l.outbound.record(s.end - handle.end);
                    }
                    _ => l.unmatched += 1,
                }
            }
        }
        l
    }

    /// Share of the sampled calls left without a server span.
    pub fn unmatched_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.unmatched as f64 / self.lookups as f64
        }
    }

    /// `part` as a percentage of the sampled operations' total time.
    pub fn pct_of_ops(&self, part: u64) -> f64 {
        if self.op_ns == 0 {
            0.0
        } else {
            100.0 * part as f64 / self.op_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, start: u64, end: u64) -> Span {
        Span { name, id, start, end, tid: 1 }
    }

    #[test]
    fn request_stages_reconcile_and_missing_handles_count() {
        let spans = vec![
            span("loadgen.request", 4, 0, 100),
            span("client.sp", 4, 10, 100),
            span("sp.verify", 4, 30, 80),
            span("backend.log_access", 4, 40, 60),
            span("backend.shard_loads", 4, 70, 75),
            // A request whose handle span never landed.
            span("loadgen.request", 8, 0, 50),
            span("client.sp", 8, 5, 50),
        ];
        let l = Ledger::from_requests(&spans);
        assert_eq!((l.ops, l.unmatched), (2, 1));
        assert_eq!(l.inbound.quantile(1.0), 20.0);
        assert_eq!(l.outbound.quantile(1.0), 20.0);
        assert_eq!(l.sp_write.quantile(1.0), 25.0);
        assert_eq!(l.sp_read.count(), 0);
        assert_eq!(l.log_access.quantile(0.5), 20.0);
        assert!((l.unmatched_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn session_calls_match_their_one_contained_server_span() {
        let spans = vec![
            span("session.access", 1, 0, 1_000),
            span("client.sp.display_puzzle", 1, 10, 200),
            span("sp.display_puzzle", 77, 50, 120),
            span("backend.shard_loads", 77, 100, 110),
            span("c1.answer", 1, 200, 300),
            span("client.dh.get", 1, 300, 500),
            span("dh.get", 78, 350, 400),
            // Two handle spans inside one call: ambiguous, left unmatched.
            span("client.sp.verify", 1, 500, 900),
            span("sp.verify", 79, 550, 600),
            span("sp.verify", 80, 650, 700),
        ];
        let l = Ledger::from_sessions(&spans);
        assert_eq!(l.ops, 1);
        assert_eq!((l.lookups, l.unmatched), (3, 1));
        assert_eq!(l.inbound.quantile(0.0001), 40.0);
        assert_eq!(l.sp_read.quantile(1.0), 60.0);
        assert_eq!(l.sp_write.count(), 2);
        assert!((l.pct_of_ops(l.c1_ns) - 10.0).abs() < 1e-9);
        assert!((l.pct_of_ops(l.dh_ns) - 20.0).abs() < 1e-9);
    }
}
