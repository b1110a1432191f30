//! Metric names, units and the two output formats: one
//! `<workload> <metric> <value> <unit>` line per metric, and the final
//! JSON summary line.
//!
//! Every workload reports every metric in [`END_TO_END`] (untraced run)
//! and [`PER_LAYER`] (traced run), so the two lists are defined for all
//! four workloads: an "op" is one request on `verify_*` and one session on
//! `c*_sessions`. Layers only some workloads pass through (the DH, the
//! two constructions, the store) report counts and shares, which are
//! honestly zero where the layer is not on the path.

use sp_osn::DurabilityCounters;

use crate::ledger::Ledger;
use crate::median;
use crate::stats::{ms, us, Histogram};

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured, all digits kept.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self { name: name.into(), value, unit }
    }
}

/// The untraced run's metrics, what a user of the system sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("rss_mb", "MB"),
];

/// The traced run's per-layer metrics, in output order. The traced run
/// also reports `trace.overhead.<metric>` for every [`END_TO_END`] metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.late_ratio", "ratio"),
    ("loadgen.busy_retries", "count"),
    ("loadgen.p99_ms", "ms"),
    ("loadgen.sat_p99_ms", "ms"),
    ("net.inbound_p50_us", "us"),
    ("net.inbound_p99_us", "us"),
    ("net.outbound_p50_us", "us"),
    ("net.outbound_p99_us", "us"),
    ("net.server.busy_rejections", "count"),
    ("net.server.queue_peak", "count"),
    ("net.server.in_flight_peak", "count"),
    ("proc.ctx_switches_per_op", "count"),
    ("client.calls_per_op", "count"),
    ("client.sp_p50_us", "us"),
    ("client.sp_p99_us", "us"),
    ("sp.requests_per_op", "count"),
    ("sp.read.self_p50_us", "us"),
    ("sp.read.self_p99_us", "us"),
    ("sp.write.self_p50_us", "us"),
    ("sp.write.self_p99_us", "us"),
    ("sp.puzzle_cache.hit_ratio", "ratio"),
    ("backend.calls_per_op", "count"),
    ("backend.log_access_p50_us", "us"),
    ("backend.log_access_p99_us", "us"),
    ("backend.shard_loads_p50_us", "us"),
    ("store.appends", "count"),
    ("store.fsync_batches", "count"),
    ("store.appends_per_fsync", "ratio"),
    ("store.snapshots", "count"),
    ("store.dir_mb", "MB"),
    ("dh.wait_pct", "%"),
    ("c1.self_pct", "%"),
    ("c2.self_pct", "%"),
    ("c2.line_cache_hit_ratio", "ratio"),
    ("trace.sampled_ops", "count"),
    ("trace.unmatched_ratio", "ratio"),
];

/// Prefix of the tracing-overhead metrics.
pub const OVERHEAD: &str = "trace.overhead.";

/// The calibration loop's median time on the reference machine, ms: the
/// host speed that latency, throughput and CPU are reported at.
const REFERENCE_CALIBRATION_MS: f64 = 2.2;

/// The end-to-end metrics of each measured round. A run reports the
/// median over its rounds, so a burst of noise from outside the process
/// moves one round, not the result. CPU per operation is the exception:
/// it is pooled over all rounds, because a durable store's snapshot CPU
/// lands in one round of several.
///
/// The host's own speed drifts by tens of percent for minutes at a time,
/// which no number of rounds averages away. So a fixed calibration loop
/// ([`crate::process::calibrate`]) is timed around the rounds, and
/// latency, throughput and CPU are scaled by its median to the reference
/// host speed. The unscaled values are reported beside them.
#[derive(Default)]
pub struct Rounds {
    p50: Vec<f64>,
    p90: Vec<f64>,
    ops_per_s: Vec<f64>,
    pooled: Histogram,
    cpu_s: f64,
    cpu_ops: u64,
    calibration: Vec<f64>,
}

impl Rounds {
    /// Adds one round: its latencies, the CPU seconds spent on its
    /// `cpu_ops` latency-phase operations, and `ops` throughput-phase
    /// operations completed in `wall_s`.
    pub fn add(&mut self, latency: &Histogram, cpu_s: f64, cpu_ops: u64, ops: u64, wall_s: f64) {
        self.p50.push(ms(latency.quantile(0.5)));
        self.p90.push(ms(latency.quantile(0.9)));
        self.ops_per_s.push(ops as f64 / wall_s);
        self.pooled.merge(latency);
        self.cpu_s += cpu_s;
        self.cpu_ops += cpu_ops;
    }

    /// Times the calibration loop. Call it before each round and after
    /// the last, while the daemons are idle.
    pub fn calibrate(&mut self) {
        self.calibration.push(crate::process::calibrate());
    }

    /// The 99th percentile of every round's latencies together, ns.
    pub fn pooled_p99(&self) -> f64 {
        self.pooled.quantile(0.99)
    }

    /// The [`END_TO_END`] metrics at the reference host speed; `raw` gets
    /// the unscaled values and the calibration time.
    pub fn metrics(&self, setup_s: f64, rss_mb: f64, raw: &mut Vec<Metric>) -> Vec<Metric> {
        let calibration_ms = median(&self.calibration) * 1e3;
        // Above 1 while the host runs slower than the reference did.
        let slowdown = calibration_ms / REFERENCE_CALIBRATION_MS;
        let (p50, p90) = (median(&self.p50), median(&self.p90));
        let ops_per_s = median(&self.ops_per_s);
        let cpu_us_per_op = self.cpu_s * 1e6 / self.cpu_ops as f64;
        raw.extend([
            Metric::new("raw.p50_ms", p50, "ms"),
            Metric::new("raw.p90_ms", p90, "ms"),
            Metric::new("raw.ops_per_s", ops_per_s, "1/s"),
            Metric::new("raw.cpu_us_per_op", cpu_us_per_op, "us"),
            Metric::new("calibration_ms", calibration_ms, "ms"),
        ]);
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("p50_ms", p50 / slowdown, "ms"),
            Metric::new("p90_ms", p90 / slowdown, "ms"),
            Metric::new("ops_per_s", ops_per_s * slowdown, "1/s"),
            Metric::new("cpu_us_per_op", cpu_us_per_op / slowdown, "us"),
            Metric::new("rss_mb", rss_mb, "MB"),
        ]
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything the per-layer metrics are computed from, gathered over a
/// traced run's measured phase.
#[derive(Default)]
pub struct LayerInputs {
    /// The reduced spans.
    pub ledger: Ledger,
    /// Operations in the measured phase.
    pub ops: u64,
    /// Context switches over the measured phase.
    pub switches: u64,
    /// Client calls (SP and DH) over the measured phase, retries included.
    pub client_calls: u64,
    /// SP requests handled over the measured phase.
    pub sp_requests: u64,
    /// Backend calls over the measured phase.
    pub backend_calls: u64,
    /// Open-loop sends later than 1 ms, as a share of sends.
    pub late_ratio: f64,
    /// `Busy` replies the generator retried.
    pub busy_retries: u64,
    /// 99th-percentile latency of the latency phase, ns.
    pub p99_ns: f64,
    /// 99th-percentile latency of the closed-loop phase, ns.
    pub sat_p99_ns: f64,
    /// Serving-path counters summed over the workload's daemons.
    pub busy_rejections: u64,
    /// Peak compute-queue depth over the workload's daemons.
    pub queue_peak: u64,
    /// Peak in-flight jobs over the workload's daemons.
    pub in_flight_peak: u64,
    /// SP puzzle-cache hits and misses.
    pub cache_hits: u64,
    /// SP puzzle-cache misses.
    pub cache_misses: u64,
    /// Durable store counters (`None` in memory).
    pub durability: Option<DurabilityCounters>,
    /// Durable store directory size.
    pub dir_mb: f64,
    /// Construction 2 line-cache hits over the measured phase.
    pub line_hits: u64,
    /// Construction 2 line-cache misses over the measured phase.
    pub line_misses: u64,
}

impl LayerInputs {
    /// The [`PER_LAYER`] metrics, in order.
    pub fn metrics(&self) -> Vec<Metric> {
        let l = &self.ledger;
        let ops = self.ops as f64;
        let d = self.durability.unwrap_or_default();
        let values = [
            self.late_ratio,
            self.busy_retries as f64,
            ms(self.p99_ns),
            ms(self.sat_p99_ns),
            us(l.inbound.quantile(0.5)),
            us(l.inbound.quantile(0.99)),
            us(l.outbound.quantile(0.5)),
            us(l.outbound.quantile(0.99)),
            self.busy_rejections as f64,
            self.queue_peak as f64,
            self.in_flight_peak as f64,
            ratio(self.switches as f64, ops),
            ratio(self.client_calls as f64, ops),
            us(l.client_sp.quantile(0.5)),
            us(l.client_sp.quantile(0.99)),
            ratio(self.sp_requests as f64, ops),
            us(l.sp_read.quantile(0.5)),
            us(l.sp_read.quantile(0.99)),
            us(l.sp_write.quantile(0.5)),
            us(l.sp_write.quantile(0.99)),
            ratio(self.cache_hits as f64, (self.cache_hits + self.cache_misses) as f64),
            ratio(self.backend_calls as f64, ops),
            us(l.log_access.quantile(0.5)),
            us(l.log_access.quantile(0.99)),
            us(l.shard_loads.quantile(0.5)),
            d.durable_appends as f64,
            d.fsync_batches as f64,
            ratio(d.durable_appends as f64, d.fsync_batches as f64),
            d.snapshot_count as f64,
            self.dir_mb,
            l.pct_of_ops(l.dh_ns),
            l.pct_of_ops(l.c1_ns),
            l.pct_of_ops(l.c2_ns),
            ratio(self.line_hits as f64, (self.line_hits + self.line_misses) as f64),
            l.ops as f64,
            l.unmatched_ratio(),
        ];
        PER_LAYER.iter().zip(values).map(|(&(name, unit), v)| Metric::new(name, v, unit)).collect()
    }
}

/// `<workload> <metric> <value> <unit>`.
pub fn line(workload: &str, m: &Metric) -> String {
    format!("{workload} {} {} {}", m.name, m.value, m.unit)
}

/// Parses a [`line`] back; `None` for any other line.
pub fn parse_line(text: &str) -> Option<(String, Metric)> {
    let mut it = text.split_whitespace();
    let (workload, name, value, unit) = (it.next()?, it.next()?, it.next()?, it.next()?);
    if it.next().is_some() {
        return None;
    }
    let value: f64 = value.parse().ok()?;
    let unit = known_unit(unit)?;
    Some((workload.to_owned(), Metric::new(name, value, unit)))
}

fn known_unit(unit: &str) -> Option<&'static str> {
    ["s", "ms", "us", "1/s", "MB", "count", "ratio", "%"].into_iter().find(|u| *u == unit)
}

/// The final summary line: `correct`, `attempted`, `failed`, `metrics`.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_with_every_digit() {
        let m = Metric::new("p99_ms", 0.123_456_789_012_345_67, "ms");
        let text = line("verify_zipf", &m);
        assert_eq!(text, "verify_zipf p99_ms 0.12345678901234566 ms");
        assert_eq!(parse_line(&text), Some(("verify_zipf".to_owned(), m)));
        let big = Metric::new("ops_per_s", 81_234.5, "1/s");
        assert_eq!(line("c1_sessions", &big), "c1_sessions ops_per_s 81234.5 1/s");
        assert_eq!(parse_line("c1_sessions ops_per_s 81234.5 1/s").unwrap().1, big);
        for bad in ["", "verify_zipf p50_ms", "w m 1 ms extra", "w m x ms", "w m 1 parsecs"] {
            assert_eq!(parse_line(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn json_has_exactly_the_summary_keys() {
        let text = json(
            true,
            10,
            0,
            &[Metric::new("setup_s", 1.5, "s"), Metric::new("rss_mb", 20.25, "MB")],
        );
        assert_eq!(
            text,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"rss_mb\": {\"value\": 20.25, \"unit\": \"MB\"}}}"
        );
    }

    #[test]
    fn per_layer_metrics_come_out_in_declared_order() {
        let names: Vec<String> =
            LayerInputs::default().metrics().into_iter().map(|m| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), END_TO_END.len() + PER_LAYER.len(), "names are unique");
    }
}
