//! Simulation-engine scaling sweep, exported as `BENCH_sim.json`.
//!
//! Runs the `sp-sim` discrete-event engine at increasing population
//! sizes, [`SIM_BENCH_REPEATS`] times each, and reports the median,
//! minimum and maximum event/decision throughput plus median decision
//! latency percentiles. Every sweep entry also records the decision-log
//! hash of each repeat — the report doubles as a reproducibility
//! receipt: re-running the same sweep on any machine at any
//! `SP_PAR_THREADS` must yield the same hashes (only the timing columns
//! may move), and the validator refuses an entry whose repeats disagree.

use sp_sim::{run, SimConfig, SimReport};

/// Schema tag written into (and required from) `BENCH_sim.json`.
///
/// v2 runs each population [`SIM_BENCH_REPEATS`] times: throughput
/// becomes a `{median, min, max}` spread and each entry lists every
/// repeat's log hash.
pub const SIM_BENCH_SCHEMA: &str = "sp-bench/sim/v2";

/// Runs per population size. One run's wall time varies by about 1.5x
/// between runs of one build, so a single timing says little.
pub const SIM_BENCH_REPEATS: usize = 3;

/// Sweep knobs for the simulation benchmark.
#[derive(Clone, Debug)]
pub struct SimBenchConfig {
    /// Base seed for every run in the sweep.
    pub seed: u64,
    /// Population sizes to sweep.
    pub user_counts: Vec<u64>,
    /// Whether this is the reduced CI sweep.
    pub quick: bool,
}

impl Default for SimBenchConfig {
    fn default() -> Self {
        Self { seed: 42, user_counts: vec![10_000, 100_000, 1_000_000], quick: false }
    }
}

impl SimBenchConfig {
    /// Reduced sweep for CI smoke runs: small populations, same schema.
    #[must_use]
    pub fn quick() -> Self {
        Self { seed: 42, user_counts: vec![1_000, 5_000], quick: true }
    }
}

/// The median, minimum and maximum of one throughput column over
/// repeated measurements: the repeats of a population size here, the
/// sweeps of a cell in [`crate::crypto_bench`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Median over the repeats.
    pub median: f64,
    /// Slowest repeat.
    pub min: f64,
    /// Fastest repeat.
    pub max: f64,
}

impl Spread {
    /// The spread of one column over `runs`.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    fn of(runs: &[SimReport], column: impl Fn(&SimReport) -> f64) -> Self {
        Self::of_samples(runs.iter().map(column).collect())
    }

    /// The spread of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub(crate) fn of_samples(mut v: Vec<f64>) -> Self {
        v.sort_by(f64::total_cmp);
        let mid = v.len() / 2;
        let median = if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 };
        Self { median, min: v[0], max: v[v.len() - 1] }
    }
}

/// One population-size measurement over its repeats.
#[derive(Clone, Debug)]
pub struct SimEntry {
    /// Simulated users.
    pub users: u64,
    /// Events executed.
    pub events: u64,
    /// Events per wall-clock second.
    pub events_per_s: Spread,
    /// Access decisions taken (grants + denials).
    pub decisions: u64,
    /// Decisions per wall-clock second.
    pub decisions_per_s: Spread,
    /// Median over the repeats of the median decision latency, µs.
    pub p50_us: f64,
    /// Median over the repeats of the 99th-percentile decision
    /// latency, µs.
    pub p99_us: f64,
    /// Attempts granted.
    pub grants: u64,
    /// Attempts denied.
    pub denials: u64,
    /// Denials stopped by the ReBAC pre-filter.
    pub prefiltered: u64,
    /// The first repeat's decision-log hash (16 hex digits) — the
    /// reproducibility receipt.
    pub log_hash: String,
    /// Every repeat's decision-log hash, in run order.
    pub repeat_hashes: Vec<String>,
}

impl SimEntry {
    /// Summarizes the repeats of one population size; the counts and the
    /// receipt come from the first run.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    fn from_runs(runs: &[SimReport]) -> Self {
        let r = runs.first().expect("at least one run");
        Self {
            users: r.users,
            events: r.events,
            events_per_s: Spread::of(runs, |r| r.events_per_s),
            decisions: r.decisions,
            decisions_per_s: Spread::of(runs, |r| r.decisions_per_s),
            p50_us: Spread::of(runs, |r| r.p50_us).median,
            p99_us: Spread::of(runs, |r| r.p99_us).median,
            grants: r.counters.grants,
            denials: r.counters.denials,
            prefiltered: r.counters.prefiltered,
            log_hash: r.hash_hex(),
            repeat_hashes: runs.iter().map(SimReport::hash_hex).collect(),
        }
    }
}

/// A full simulation sweep, ready to serialize.
#[derive(Clone, Debug)]
pub struct SimBenchReport {
    /// Whether the reduced CI sweep produced this report.
    pub quick: bool,
    /// Base seed used for every run.
    pub seed: u64,
    /// One entry per population size, in sweep order.
    pub entries: Vec<SimEntry>,
}

/// Runs the sweep: [`SIM_BENCH_REPEATS`] full simulations per
/// population size.
///
/// # Panics
///
/// Panics if any run reports an invariant violation — a benchmark
/// over a broken protocol stack would measure nothing.
#[must_use]
pub fn run_sweep(cfg: &SimBenchConfig) -> SimBenchReport {
    let entries = cfg
        .user_counts
        .iter()
        .map(|&users| {
            let runs: Vec<SimReport> = (0..SIM_BENCH_REPEATS)
                .map(|_| {
                    run(&SimConfig::new(cfg.seed, users))
                        .unwrap_or_else(|e| panic!("sim invariant violated at {users} users: {e}"))
                })
                .collect();
            SimEntry::from_runs(&runs)
        })
        .collect();
    SimBenchReport { quick: cfg.quick, seed: cfg.seed, entries }
}

/// Serializes a report to the `BENCH_sim.json` document.
#[must_use]
pub fn to_json(report: &SimBenchReport) -> String {
    fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v:.3}")
        } else {
            "0.000".to_owned()
        }
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SIM_BENCH_SCHEMA}\",\n"));
    out.push_str(&format!("  \"quick\": {},\n", report.quick));
    out.push_str(&format!("  \"seed\": {},\n", report.seed));
    out.push_str(&format!("  \"repeats\": {SIM_BENCH_REPEATS},\n"));
    out.push_str("  \"entries\": [\n");
    let spread = |s: &Spread| {
        format!(
            "{{\"median\": {}, \"min\": {}, \"max\": {}}}",
            num(s.median),
            num(s.min),
            num(s.max)
        )
    };
    for (i, e) in report.entries.iter().enumerate() {
        let hashes: Vec<String> = e.repeat_hashes.iter().map(|h| format!("\"{h}\"")).collect();
        out.push_str(&format!(
            "    {{\"users\": {}, \"events\": {}, \"events_per_s\": {}, \"decisions\": {}, \"decisions_per_s\": {}, \"p50_us\": {}, \"p99_us\": {}, \"grants\": {}, \"denials\": {}, \"prefiltered\": {}, \"log_hash\": \"{}\", \"repeat_hashes\": [{}]}}{}\n",
            e.users,
            e.events,
            spread(&e.events_per_s),
            e.decisions,
            spread(&e.decisions_per_s),
            num(e.p50_us),
            num(e.p99_us),
            e.grants,
            e.denials,
            e.prefiltered,
            e.log_hash,
            hashes.join(", "),
            if i + 1 == report.entries.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the report as the human-readable table the `figures` binary
/// prints alongside the JSON: median throughput with the min–max range
/// of the repeats.
#[must_use]
pub fn render(report: &SimBenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "simulation scaling sweep (seed {}, 48 ticks, real protocol stack, \
         median [min–max] of {SIM_BENCH_REPEATS} runs)\n",
        report.seed
    ));
    out.push_str(&format!(
        "{:<10} {:>8} {:>27} {:>10} {:>27} {:>9} {:>9} {:>18}\n",
        "users", "events", "events/s", "decisions", "decisions/s", "p50 µs", "p99 µs", "log hash"
    ));
    let spread = |s: &Spread| format!("{:.1} [{:.1}–{:.1}]", s.median, s.min, s.max);
    for e in &report.entries {
        out.push_str(&format!(
            "{:<10} {:>8} {:>27} {:>10} {:>27} {:>9.1} {:>9.1} {:>18}\n",
            e.users,
            e.events,
            spread(&e.events_per_s),
            e.decisions,
            spread(&e.decisions_per_s),
            e.p50_us,
            e.p99_us,
            e.log_hash,
        ));
    }
    out
}

/// Checks that `hash` looks like a 64-bit FNV in hex.
fn check_hash(hash: &str) -> Result<(), String> {
    if hash.len() != 16 || !hash.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(format!("malformed log hash {hash:?} (want 16 hex digits)"));
    }
    Ok(())
}

/// Validates a `BENCH_sim.json` document: syntactically well-formed
/// JSON, the right schema tag, a non-empty sweep with all fields,
/// well-formed 16-hex-digit log hashes, and — relying on the fixed
/// one-entry-per-line layout [`to_json`] emits — repeats of each size
/// that all reproduced the entry's `log_hash`. Returns a description of
/// the first problem.
///
/// # Errors
///
/// Returns a human-readable description of the first check that failed.
pub fn validate_json(doc: &str) -> Result<(), String> {
    crate::json_check::check_syntax(doc)?;
    if !doc.contains(&format!("\"schema\": \"{SIM_BENCH_SCHEMA}\"")) {
        return Err(format!("missing schema tag {SIM_BENCH_SCHEMA:?}"));
    }
    if !doc.contains("\"entries\": [") {
        return Err("missing the \"entries\": [ array".to_owned());
    }
    for field in [
        "\"seed\":",
        "\"repeats\":",
        "\"users\":",
        "\"events\":",
        "\"events_per_s\": {\"median\":",
        "\"decisions\":",
        "\"decisions_per_s\": {\"median\":",
        "\"min\":",
        "\"max\":",
        "\"p50_us\":",
        "\"p99_us\":",
        "\"grants\":",
        "\"denials\":",
        "\"prefiltered\":",
        "\"log_hash\":",
        "\"repeat_hashes\":",
    ] {
        if !doc.contains(field) {
            return Err(format!("missing the {field} field"));
        }
    }
    for line in doc.lines().filter(|l| l.contains("\"users\":")) {
        let hash = line
            .split("\"log_hash\": \"")
            .nth(1)
            .and_then(|t| t.split('"').next())
            .ok_or("an entry lacks its log_hash")?;
        check_hash(hash)?;
        let repeats = line
            .split("\"repeat_hashes\": [")
            .nth(1)
            .and_then(|t| t.split(']').next())
            .ok_or("an entry lacks its repeat_hashes")?;
        let repeats: Vec<&str> = repeats.split(',').map(|h| h.trim().trim_matches('"')).collect();
        for r in &repeats {
            check_hash(r)?;
            if r != &hash {
                return Err(format!(
                    "repeats disagree on the log hash: {r} against {hash} ({repeats:?})"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SimBenchConfig {
        SimBenchConfig { seed: 7, user_counts: vec![300, 600], quick: true }
    }

    #[test]
    fn sweep_produces_validating_json_with_stable_hashes() {
        let a = run_sweep(&tiny());
        assert_eq!(a.entries.len(), 2);
        for e in &a.entries {
            assert!(e.events > 0);
            assert!(e.decisions > 0);
            assert!(e.grants > 0 && e.denials > 0, "degenerate workload: {e:?}");
            assert_eq!(e.log_hash.len(), 16);
            // Hashes are part of the schema contract: every repeat
            // reproduces them exactly even though the timings move.
            assert_eq!(e.repeat_hashes, vec![e.log_hash.clone(); SIM_BENCH_REPEATS]);
            for s in [e.events_per_s, e.decisions_per_s] {
                assert!(0.0 < s.min && s.min <= s.median && s.median <= s.max, "{s:?}");
            }
        }
        let json = to_json(&a);
        validate_json(&json).expect("emitted document validates");
        assert!(render(&a).contains("log hash"));
    }

    #[test]
    fn validator_rejects_mangled_documents() {
        let hash = "0123456789abcdef".to_owned();
        let report = SimBenchReport {
            quick: true,
            seed: 7,
            entries: vec![SimEntry {
                users: 300,
                events: 4_000,
                events_per_s: Spread { median: 1_000.0, min: 900.0, max: 1_100.0 },
                decisions: 2_800,
                decisions_per_s: Spread { median: 700.0, min: 600.0, max: 800.0 },
                p50_us: 12.0,
                p99_us: 80.0,
                grants: 900,
                denials: 1_900,
                prefiltered: 600,
                log_hash: hash.clone(),
                repeat_hashes: vec![hash.clone(); SIM_BENCH_REPEATS],
            }],
        };
        let json = to_json(&report);
        validate_json(&json).unwrap();
        assert!(validate_json(&json[..json.len() - 4]).is_err(), "truncated");
        assert!(validate_json(&json.replace("sim/v2", "sim/v9")).is_err(), "wrong schema");
        assert!(validate_json(&json.replace("sim/v2", "sim/v1")).is_err(), "stale schema");
        assert!(validate_json(&json.replace("\"p99_us\"", "\"p99\"")).is_err(), "missing field");
        assert!(
            validate_json(&json.replace("0123456789abcdef", "not-a-hash-value!")).is_err(),
            "malformed hash"
        );
        assert!(validate_json(&json.replace("0123456789abcdef", "0123")).is_err(), "short hash");
        // One repeat that reproduced a different decision log.
        let diverged = json.replacen("\"0123456789abcdef\"]", "\"fedcba9876543210\"]", 1);
        assert_ne!(diverged, json);
        let err = validate_json(&diverged).unwrap_err();
        assert!(err.contains("repeats disagree"), "{err}");
        assert!(validate_json("not json").is_err());
    }
}
