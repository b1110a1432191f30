//! Slow-vs-fast crypto hot-path comparison, exported as `BENCH_crypto.json`.
//!
//! Each entry times one operation through its pre-optimization shape
//! (textbook double-and-add, per-leaf Tate pairings, serial loops — the
//! `*_reference` methods kept for differential testing) and through the
//! optimized path (fixed-base windows, product-of-pairings decrypt, batch
//! inversion, parallel map), recording ops/s for both and the speedup.
//! `N` is the number of leaves/attributes, swept over the paper's
//! context-size range; the access policy is N-of-N so decrypt touches
//! every leaf (the worst case Figure 10 measures). The whole sweep runs
//! [`CRYPTO_BENCH_REPEATS`] times and each cell reports the median,
//! minimum and maximum of its repeats.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sp_abe::{encode_qa_attribute, AccessTree, CpAbe};
use sp_pairing::{LineCache, Pairing};

use crate::sim_bench::Spread;

/// Schema tag written into (and required from) `BENCH_crypto.json`.
///
/// v2 added the warm line-cache pairing (`pairing_cached`) and per-kernel
/// micro rows to the v1 operation set. v3 keeps only the `gt_pow` micro
/// row: the squaring, lazy `F_{p²}` multiply and split-scalar kernels the
/// other three rows measured lost to (or tied with) their twins and are
/// gone. v4 times every cell [`CRYPTO_BENCH_REPEATS`] times: each
/// throughput becomes a `{median, min, max}` spread, `speedup` is the
/// ratio of the medians, and the floors judge medians.
pub const CRYPTO_BENCH_SCHEMA: &str = "sp-bench/crypto/v4";

/// Full sweeps per report. One cell's single window moved by up to 2x
/// between sweeps of one build, so a single timing says little.
pub const CRYPTO_BENCH_REPEATS: usize = 3;

/// The operations every report must cover.
pub const CRYPTO_BENCH_OPS: [&str; 7] =
    ["encrypt", "keygen", "decrypt", "pairing", "scalar_mul", "pairing_cached", "gt_pow"];

/// Committed v1 full-sweep throughput at `N = 6` (the paper's central
/// context size), measured before the second-wave kernels landed. The
/// validator requires a committed full report's median to beat these by
/// [`KERNEL_SPEEDUP_FLOOR`].
pub const V1_PAIRING_FAST_N6: f64 = 413.019;
/// See [`V1_PAIRING_FAST_N6`].
pub const V1_DECRYPT_FAST_N6: f64 = 141.188;
/// Required improvement of the committed fast paths over the v1
/// baselines above.
pub const KERNEL_SPEEDUP_FLOOR: f64 = 1.5;
/// Required warm-over-cold ratio of the medians for the `pairing_cached`
/// row in a committed (non-quick) report.
pub const CACHE_SPEEDUP_FLOOR: f64 = 2.0;

/// Sweep and sampling knobs for the crypto comparison.
#[derive(Clone, Debug)]
pub struct CryptoBenchConfig {
    /// Leaf/attribute counts to sweep.
    pub ns: Vec<usize>,
    /// Minimum timed iterations per measurement.
    pub min_iters: u32,
    /// Minimum wall time per measurement.
    pub min_time: Duration,
    /// Whether this is the reduced CI sweep.
    pub quick: bool,
}

impl Default for CryptoBenchConfig {
    fn default() -> Self {
        Self {
            ns: (2..=10).collect(),
            min_iters: 10,
            min_time: Duration::from_millis(200),
            quick: false,
        }
    }
}

impl CryptoBenchConfig {
    /// Reduced sweep for CI smoke runs: endpoint sizes only, short
    /// sampling windows. Numbers are noisy but the schema and the
    /// direction of every speedup are still meaningful.
    pub fn quick() -> Self {
        Self { ns: vec![2, 10], min_iters: 3, min_time: Duration::from_millis(20), quick: true }
    }
}

/// One (operation, N) measurement over its repeats.
#[derive(Clone, Debug)]
pub struct CryptoBenchEntry {
    /// Operation name (one of [`CRYPTO_BENCH_OPS`]).
    pub op: &'static str,
    /// Leaves/attributes (for `pairing`/`scalar_mul`: group-operation
    /// count per timed iteration).
    pub n: usize,
    /// Pre-optimization throughput, ops/s.
    pub slow_ops_per_s: Spread,
    /// Optimized-path throughput, ops/s.
    pub fast_ops_per_s: Spread,
}

impl CryptoBenchEntry {
    /// Fast-over-slow ratio of the median throughputs.
    pub fn speedup(&self) -> f64 {
        if self.slow_ops_per_s.median > 0.0 {
            self.fast_ops_per_s.median / self.slow_ops_per_s.median
        } else {
            0.0
        }
    }
}

/// A full sweep, ready to serialize.
#[derive(Clone, Debug)]
pub struct CryptoBenchReport {
    /// Whether the reduced CI sweep produced this report.
    pub quick: bool,
    /// All measurements, grouped by operation then N.
    pub entries: Vec<CryptoBenchEntry>,
}

impl CryptoBenchReport {
    /// The entry for one (op, n), if measured.
    pub fn entry(&self, op: &str, n: usize) -> Option<&CryptoBenchEntry> {
        self.entries.iter().find(|e| e.op == op && e.n == n)
    }
}

/// Times `op` until both the iteration and wall-time floors are met,
/// returning throughput in ops/s.
fn ops_per_s<T>(cfg: &CryptoBenchConfig, mut op: impl FnMut() -> T) -> f64 {
    std::hint::black_box(op()); // warm-up (fills lazy tables / caches)
    let start = Instant::now();
    let mut iters = 0u32;
    while iters < cfg.min_iters || start.elapsed() < cfg.min_time {
        std::hint::black_box(op());
        iters += 1;
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// Runs the slow-vs-fast sweep [`CRYPTO_BENCH_REPEATS`] times and
/// summarizes each cell's repeats.
pub fn run(cfg: &CryptoBenchConfig) -> CryptoBenchReport {
    let sweeps: Vec<Vec<Cell>> = (0..CRYPTO_BENCH_REPEATS).map(|_| sweep(cfg)).collect();
    let entries = sweeps[0]
        .iter()
        .enumerate()
        .map(|(i, &(op, n, _, _))| CryptoBenchEntry {
            op,
            n,
            slow_ops_per_s: Spread::of_samples(sweeps.iter().map(|s| s[i].2).collect()),
            fast_ops_per_s: Spread::of_samples(sweeps.iter().map(|s| s[i].3).collect()),
        })
        .collect();
    CryptoBenchReport { quick: cfg.quick, entries }
}

/// One timed cell of a sweep: (op, N, slow ops/s, fast ops/s).
type Cell = (&'static str, usize, f64, f64);

/// One pass over every cell, from the same seed each time.
fn sweep(cfg: &CryptoBenchConfig) -> Vec<Cell> {
    let abe = CpAbe::insecure_test_params();
    let pairing = Pairing::insecure_test_params();
    let mut rng = StdRng::seed_from_u64(2014);
    let (pk, mk) = abe.setup(&mut rng);

    let mut cells = Vec::new();
    for &n in &cfg.ns {
        let pairs: Vec<(String, String)> =
            (0..n).map(|i| (format!("q{i}"), format!("a{i}"))).collect();
        // N-of-N: decrypt must satisfy (and pair at) every leaf.
        let tree = AccessTree::context_tree(n, &pairs).expect("valid tree");
        let attrs: Vec<String> = pairs.iter().map(|(q, a)| encode_qa_attribute(q, a)).collect();
        let m = abe.random_message(&mut rng);

        let slow = ops_per_s(cfg, || {
            let mut r = StdRng::seed_from_u64(77);
            abe.encrypt_reference(&pk, &m, &tree, &mut r).expect("encrypt")
        });
        let fast = ops_per_s(cfg, || {
            let mut r = StdRng::seed_from_u64(77);
            abe.encrypt(&pk, &m, &tree, &mut r).expect("encrypt")
        });
        cells.push(("encrypt", n, slow, fast));

        let slow = ops_per_s(cfg, || {
            let mut r = StdRng::seed_from_u64(78);
            abe.keygen_reference(&mk, &attrs, &mut r)
        });
        let fast = ops_per_s(cfg, || {
            let mut r = StdRng::seed_from_u64(78);
            abe.keygen(&mk, &attrs, &mut r)
        });
        cells.push(("keygen", n, slow, fast));

        let ct = abe.encrypt(&pk, &m, &tree, &mut rng).expect("encrypt");
        let sk = abe.keygen(&mk, &attrs, &mut rng);
        let slow = ops_per_s(cfg, || abe.decrypt_reference(&ct, &sk).expect("decrypt"));
        let fast = ops_per_s(cfg, || abe.decrypt(&ct, &sk).expect("decrypt"));
        cells.push(("decrypt", n, slow, fast));

        // N independent pairings (the per-leaf cost decrypt used to pay)
        // vs one N-term product sharing squarings and the final
        // exponentiation.
        let points: Vec<(sp_pairing::G1, sp_pairing::G1)> =
            (0..n).map(|_| (pairing.random_g1(&mut rng), pairing.random_g1(&mut rng))).collect();
        let slow = ops_per_s(cfg, || {
            points.iter().map(|(p, q)| pairing.pair_reference(p, q)).collect::<Vec<_>>()
        });
        let fast = ops_per_s(cfg, || {
            let num: Vec<(&sp_pairing::G1, &sp_pairing::G1)> =
                points.iter().map(|(p, q)| (p, q)).collect();
            pairing.pair_product(&num, &[])
        });
        cells.push(("pairing", n, slow, fast));

        // N fixed-base multiplications: textbook double-and-add on the
        // generator vs the cached window table.
        let scalars: Vec<sp_pairing::Scalar> =
            (0..n).map(|_| pairing.random_nonzero_scalar(&mut rng)).collect();
        let g = pairing.generator().clone();
        let slow =
            ops_per_s(cfg, || scalars.iter().map(|s| g.mul_uint(&s.to_uint())).collect::<Vec<_>>());
        let fast =
            ops_per_s(cfg, || scalars.iter().map(|s| pairing.mul_generator(s)).collect::<Vec<_>>());
        cells.push(("scalar_mul", n, slow, fast));
    }

    // Cold Tate pairing vs the warm line-evaluation cache: the second
    // access to a puzzle skips the Miller-walk point arithmetic and only
    // replays the stored line coefficients against the new argument.
    let p = pairing.random_g1(&mut rng);
    let q = pairing.random_g1(&mut rng);
    let slow = ops_per_s(cfg, || pairing.pair(&p, &q).expect("non-degenerate"));
    let cache = LineCache::new();
    let fast = ops_per_s(cfg, || pairing.pair_cached(&cache, b"bench", &p, &q).expect("pair"));
    cells.push(("pairing_cached", 1, slow, fast));

    // Cyclotomic exponentiation (conjugation-as-inversion NAF walk on
    // norm-1 pairing values) vs the generic square-and-multiply twin.
    let e = pairing.pair(&p, &q).expect("non-degenerate");
    let exp = pairing.random_nonzero_scalar(&mut rng).to_uint();
    let slow = ops_per_s(cfg, || e.pow_reference(&exp));
    let fast = ops_per_s(cfg, || e.pow(&exp));
    cells.push(("gt_pow", 1, slow, fast));

    cells
}

/// Serializes a report to the `BENCH_crypto.json` document.
pub fn to_json(report: &CryptoBenchReport) -> String {
    fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v:.3}")
        } else {
            "0.000".to_owned()
        }
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{CRYPTO_BENCH_SCHEMA}\",\n"));
    out.push_str(&format!("  \"quick\": {},\n", report.quick));
    out.push_str(&format!("  \"repeats\": {CRYPTO_BENCH_REPEATS},\n"));
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
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"n\": {}, \"slow_ops_per_s\": {}, \"fast_ops_per_s\": {}, \"speedup\": {}}}{}\n",
            e.op,
            e.n,
            spread(&e.slow_ops_per_s),
            spread(&e.fast_ops_per_s),
            num(e.speedup()),
            if i + 1 == report.entries.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the report as the human-readable table the `figures` binary
/// prints alongside the JSON: median throughput with the min–max range
/// of the repeats.
pub fn render(report: &CryptoBenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "crypto hot paths: slow (reference) vs fast, ops/s, \
         median [min–max] of {CRYPTO_BENCH_REPEATS} sweeps\n"
    ));
    out.push_str(&format!(
        "{:<14} {:>4} {:>30} {:>30} {:>9}\n",
        "op", "N", "slow", "fast", "speedup"
    ));
    let spread = |s: &Spread| format!("{:.1} [{:.1}–{:.1}]", s.median, s.min, s.max);
    for e in &report.entries {
        out.push_str(&format!(
            "{:<14} {:>4} {:>30} {:>30} {:>8.2}x\n",
            e.op,
            e.n,
            spread(&e.slow_ops_per_s),
            spread(&e.fast_ops_per_s),
            e.speedup()
        ));
    }
    out
}

/// Extracts the number that follows `key` in the entry for `(op, n)`,
/// relying on the fixed one-entry-per-line layout [`to_json`] emits.
fn entry_field(doc: &str, op: &str, n: usize, key: &str) -> Option<f64> {
    let line = doc.lines().find(|l| l.contains(&format!("\"op\": \"{op}\", \"n\": {n},")))?;
    let tail = line.split(key).nth(1)?;
    let num: String =
        tail.chars().take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-').collect();
    num.parse().ok()
}

/// Validates a `BENCH_crypto.json` document: syntactically well-formed
/// JSON, the v4 schema tag, and at least one entry per operation with
/// every field present. A committed (non-quick) report must additionally
/// clear the performance pins on its medians: the `pairing` and
/// `decrypt` fast paths at `N = 6` beat the v1 baselines by
/// [`KERNEL_SPEEDUP_FLOOR`], and the warm `pairing_cached` path runs at
/// least [`CACHE_SPEEDUP_FLOOR`]× the cold pairing. Quick reports skip
/// the pins — their sampling windows are too short to pin throughput.
/// Returns a description of the first problem.
pub fn validate_json(doc: &str) -> Result<(), String> {
    crate::json_check::check_syntax(doc)?;
    if !doc.contains(&format!("\"schema\": \"{CRYPTO_BENCH_SCHEMA}\"")) {
        return Err(format!("missing schema tag {CRYPTO_BENCH_SCHEMA:?}"));
    }
    if !doc.contains("\"entries\": [") {
        return Err("missing entries array".into());
    }
    for op in CRYPTO_BENCH_OPS {
        if !doc.contains(&format!("\"op\": \"{op}\"")) {
            return Err(format!("no entry for operation {op:?}"));
        }
    }
    for field in [
        "\"repeats\":",
        "\"n\":",
        "\"slow_ops_per_s\": {\"median\":",
        "\"fast_ops_per_s\": {\"median\":",
        "\"min\":",
        "\"max\":",
        "\"speedup\":",
    ] {
        if !doc.contains(field) {
            return Err(format!("entries are missing the {field} field"));
        }
    }
    if doc.contains("\"quick\": false") {
        for (op, baseline) in [("pairing", V1_PAIRING_FAST_N6), ("decrypt", V1_DECRYPT_FAST_N6)] {
            let fast = entry_field(doc, op, 6, "\"fast_ops_per_s\": {\"median\": ")
                .ok_or_else(|| format!("full report lacks the {op:?} N=6 entry"))?;
            let floor = baseline * KERNEL_SPEEDUP_FLOOR;
            if fast < floor {
                return Err(format!(
                    "{op} fast path at N=6 is {fast:.1} ops/s (median), below the pinned \
                     {KERNEL_SPEEDUP_FLOOR}x-over-v1 floor of {floor:.1}"
                ));
            }
        }
        let warm = entry_field(doc, "pairing_cached", 1, "\"speedup\": ")
            .ok_or("full report lacks the pairing_cached entry")?;
        if warm < CACHE_SPEEDUP_FLOOR {
            return Err(format!(
                "warm pairing_cached speedup is {warm:.2}x, below the pinned \
                 {CACHE_SPEEDUP_FLOOR}x-over-cold floor"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CryptoBenchConfig {
        CryptoBenchConfig {
            ns: vec![2],
            min_iters: 1,
            min_time: Duration::from_millis(1),
            quick: true,
        }
    }

    #[test]
    fn report_covers_every_op_and_serializes_validly() {
        let report = run(&tiny());
        for op in CRYPTO_BENCH_OPS {
            let e = report.entries.iter().find(|e| e.op == op).expect("op measured");
            for s in [e.slow_ops_per_s, e.fast_ops_per_s] {
                assert!(0.0 < s.min && s.min <= s.median && s.median <= s.max, "{op}: {s:?}");
            }
        }
        let json = to_json(&report);
        validate_json(&json).expect("emitted document validates");
        let table = render(&report);
        assert!(table.contains("encrypt") && table.contains("speedup"));
        assert!(table.contains("pairing_cached") && table.contains("gt_pow"));
    }

    #[test]
    fn validator_rejects_mangled_documents() {
        let report = run(&tiny());
        let json = to_json(&report);
        assert!(validate_json(&json[..json.len() - 4]).is_err(), "truncated");
        assert!(validate_json(&json.replace("crypto/v4", "crypto/v9")).is_err(), "wrong schema");
        assert!(validate_json(&json.replace("crypto/v4", "crypto/v3")).is_err(), "stale schema");
        assert!(
            validate_json(&json.replace("{\"median\": ", "{\"mid\": ")).is_err(),
            "single-sample cells"
        );
        assert!(validate_json(&json.replace("\"decrypt\"", "\"dec\"")).is_err(), "missing op");
        assert!(
            validate_json(&json.replace("\"pairing_cached\"", "\"pc\"")).is_err(),
            "missing cache op"
        );
        assert!(validate_json("{\"a\": [1, 2,]}").is_err(), "trailing comma");
        assert!(validate_json("not json").is_err());
        assert!(validate_json("{} extra").is_err());
    }

    /// Three identical repeats of `v`.
    fn flat(v: f64) -> Spread {
        Spread { median: v, min: v, max: v }
    }

    /// A hand-built "full" document exercising the committed-report
    /// pins without paying for a real full sweep.
    fn full_doc(pairing_fast: Spread, decrypt_fast: Spread, cache_speedup: f64) -> String {
        let mut report = run(&tiny());
        report.quick = false;
        report.entries.push(CryptoBenchEntry {
            op: "pairing",
            n: 6,
            slow_ops_per_s: flat(100.0),
            fast_ops_per_s: pairing_fast,
        });
        report.entries.push(CryptoBenchEntry {
            op: "decrypt",
            n: 6,
            slow_ops_per_s: flat(50.0),
            fast_ops_per_s: decrypt_fast,
        });
        // Overwrite the measured pairing_cached row with a synthetic one
        // at the requested warm-over-cold ratio.
        report.entries.retain(|e| e.op != "pairing_cached");
        report.entries.push(CryptoBenchEntry {
            op: "pairing_cached",
            n: 1,
            slow_ops_per_s: flat(100.0),
            fast_ops_per_s: flat(100.0 * cache_speedup),
        });
        to_json(&report)
    }

    #[test]
    fn validator_pins_full_reports_to_the_v1_baselines() {
        let pairing_ok = flat(V1_PAIRING_FAST_N6 * 2.0);
        let decrypt_ok = flat(V1_DECRYPT_FAST_N6 * 2.0);
        let good = full_doc(pairing_ok, decrypt_ok, CACHE_SPEEDUP_FLOOR + 1.0);
        validate_json(&good).expect("clears every pin");

        let slow_pairing =
            full_doc(flat(V1_PAIRING_FAST_N6 * 1.2), decrypt_ok, CACHE_SPEEDUP_FLOOR + 1.0);
        assert!(validate_json(&slow_pairing).unwrap_err().contains("pairing fast path"));

        let slow_decrypt =
            full_doc(pairing_ok, flat(V1_DECRYPT_FAST_N6 * 1.2), CACHE_SPEEDUP_FLOOR + 1.0);
        assert!(validate_json(&slow_decrypt).unwrap_err().contains("decrypt fast path"));

        let cold_cache = full_doc(pairing_ok, decrypt_ok, 1.1);
        assert!(validate_json(&cold_cache).unwrap_err().contains("pairing_cached speedup"));

        // Quick reports skip the pins entirely.
        let quick = run(&tiny());
        validate_json(&to_json(&quick)).expect("quick report has no pins");
    }

    #[test]
    fn validator_judges_the_floors_on_medians() {
        let floor = V1_DECRYPT_FAST_N6 * KERNEL_SPEEDUP_FLOOR;
        let pairing_ok = flat(V1_PAIRING_FAST_N6 * 2.0);
        // One slow repeat below the floor does not fail a report...
        let one_slow = Spread { median: floor * 1.1, min: floor * 0.5, max: floor * 1.2 };
        validate_json(&full_doc(pairing_ok, one_slow, CACHE_SPEEDUP_FLOOR + 1.0))
            .expect("the median clears the floor");
        // ...and one fast repeat above it does not pass one.
        let one_fast = Spread { median: floor * 0.9, min: floor * 0.8, max: floor * 2.0 };
        let err =
            validate_json(&full_doc(pairing_ok, one_fast, CACHE_SPEEDUP_FLOOR + 1.0)).unwrap_err();
        assert!(err.contains("decrypt fast path") && err.contains("median"), "{err}");
    }

    #[test]
    fn speedup_is_the_ratio_of_the_medians() {
        let e = CryptoBenchEntry {
            op: "encrypt",
            n: 2,
            slow_ops_per_s: Spread { median: 10.0, min: 1.0, max: 50.0 },
            fast_ops_per_s: Spread { median: 30.0, min: 29.0, max: 31.0 },
        };
        assert!((e.speedup() - 3.0).abs() < 1e-12);
        let z = CryptoBenchEntry {
            op: "encrypt",
            n: 2,
            slow_ops_per_s: flat(0.0),
            fast_ops_per_s: flat(30.0),
        };
        assert_eq!(z.speedup(), 0.0);
    }
}
