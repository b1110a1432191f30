//! `spbench`: the repository benchmark.
//!
//! Boots the SP and DH daemons in-process as `spuzzle serve-sp`/`serve-dh`
//! do, drives one of four seeded workloads against them, checks every
//! response, and prints each metric as `<workload> <metric> <value>
//! <unit>`, then one JSON summary line.
//!
//! ```text
//! spbench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1|DIR]
//! ```
//!
//! Every measurement runs in a fresh child process (this binary, re-run
//! with `--child`), so heap growth and peak memory never carry over. With
//! `--trace 0` (the default) one untraced child reports the end-to-end
//! metrics. With `--trace 1` (or a directory) an untraced and a traced
//! child run back to back; the traced one wraps the layers in timing
//! decorators, writes `<dir>/<workload>.trace.json` (Chrome trace events,
//! default dir `.spbench/trace`) and reports the per-layer metrics plus
//! `trace.overhead.<metric>`, the traced run's change in each end-to-end
//! metric. Without `--workload`, all four workloads run in turn.
//!
//! Work is fixed, never timed: `--seconds` scales each workload's request
//! and session counts by constants chosen so a run lasts about that long
//! on the reference machine; a faster build does the same work sooner.
//! Latency, throughput and CPU are reported at the reference host speed
//! (see `report::Rounds`).

mod boot;
mod ledger;
mod process;
mod report;
mod sessions;
mod stats;
mod timed;
mod trace;
mod verify;

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use report::{json, line, parse_line, LayerInputs, Metric, END_TO_END, OVERHEAD, PER_LAYER};
use sessions::Scheme;

/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Measured rounds per run; the latency and throughput metrics are
/// medians over them.
const ROUNDS: usize = 7;
/// Default input seed.
const DEFAULT_SEED: u64 = 2014;
/// Default run length scale, seconds.
const DEFAULT_SECONDS: f64 = 15.0;
/// A child still running after this is killed and the run fails.
const CHILD_TIMEOUT: Duration = Duration::from_secs(85);
/// Most open-loop sends more than 1 ms late a valid run may have. Latency
/// is charged from the schedule either way; the check only guards against
/// a generator that cannot keep its rate. On two shared vCPUs the sender
/// itself now and then waits over a millisecond for a CPU (on up to 1.4%
/// of sends in validation runs), so the limit leaves room for that.
const MAX_LATE_RATIO: f64 = 0.05;
/// Most sampled verify requests without a handle span a valid traced run
/// may have.
const MAX_UNMATCHED: f64 = 0.001;

/// One workload: its name and its traffic (README.md says why each
/// exists).
pub struct Workload {
    /// Name.
    pub name: &'static str,
    kind: Kind,
}

#[derive(Clone, Copy)]
enum Kind {
    Verify { durable: bool, puzzles: usize, rate: f64, saturation_per_s: f64 },
    Sessions { scheme: Scheme, preload: usize, warmup: u64, sessions_per_s: f64 },
}

/// The workloads. Rates and counts are constants of the benchmark, never
/// derived from the capacity of the build under test.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "verify_zipf",
        kind: Kind::Verify {
            durable: false,
            puzzles: 10_000,
            rate: 10_000.0,
            saturation_per_s: 30_000.0,
        },
    },
    // Snapshots re-serialize every puzzle and can run back to back. With
    // 2 000 puzzles a chain stalls the SP for under 100 ms, which its
    // 64-deep queue plus `Busy` retries outlast at this rate.
    // With 10 000, chains reach ~250 ms and requests run out of retries
    // even at 1 000 req/s.
    Workload {
        name: "verify_durable",
        kind: Kind::Verify {
            durable: true,
            puzzles: 2_000,
            rate: 2_000.0,
            saturation_per_s: 8_000.0,
        },
    },
    Workload {
        name: "c1_sessions",
        kind: Kind::Sessions {
            scheme: Scheme::C1,
            preload: 2_000,
            warmup: 200,
            sessions_per_s: 1_200.0,
        },
    },
    Workload {
        name: "c2_sessions",
        kind: Kind::Sessions {
            scheme: Scheme::C2,
            preload: 200,
            // Long enough for each user's Miller line cache to fill.
            warmup: 250,
            sessions_per_s: 45.0,
        },
    },
];

/// Share of `--seconds` the open-loop phase lasts at its rate.
const OPEN_SHARE: f64 = 0.5;

/// Sizes for one workload at one run length.
#[derive(Clone, Copy, Debug)]
pub enum Sizes {
    /// A verify workload.
    Verify(verify::Sizes),
    /// A session workload.
    Sessions(sessions::Sizes),
}

impl Workload {
    fn sizes(&self, seconds: f64) -> Sizes {
        match self.kind {
            Kind::Verify { puzzles, rate, saturation_per_s, .. } => Sizes::Verify(verify::Sizes {
                puzzles,
                rate,
                warmup: (rate * 0.5) as u64,
                rounds: ROUNDS,
                open: ((rate * seconds * OPEN_SHARE / ROUNDS as f64) as u64).max(1),
                saturation: ((saturation_per_s * seconds / ROUNDS as f64) as u64).max(1),
            }),
            Kind::Sessions { preload, warmup, sessions_per_s, .. } => {
                Sizes::Sessions(sessions::Sizes {
                    preload,
                    warmup,
                    rounds: ROUNDS,
                    sessions: ((sessions_per_s * seconds / ROUNDS as f64) as u64).max(1),
                })
            }
        }
    }
}

/// One child run's settings.
pub struct Run {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Whether the layers are wrapped in timing decorators.
    pub traced: bool,
}

/// What one child run measured.
#[derive(Default)]
pub struct Outcome {
    /// The [`END_TO_END`] metrics.
    pub metrics: Vec<Metric>,
    /// Further breakdowns printed for people (not in the summary line).
    pub details: Vec<Metric>,
    /// Operations attempted (requests or sessions, warm-up included).
    pub attempted: u64,
    /// Operations that failed a check or ran out of retries.
    pub failed: u64,
    /// The first few failures, described.
    pub problems: Vec<String>,
    /// Open-loop sends more than 1 ms late, as a share of sends.
    pub late_ratio: f64,
    /// Traced run: what the per-layer metrics come from.
    pub layers: Option<LayerInputs>,
    /// Traced run: the recorded spans.
    pub trace: Option<trace::Recording>,
}

/// The median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Runs one workload in this process.
fn execute(run: &Run, sizes: Sizes) -> Result<Outcome, String> {
    let workload = WORKLOADS.iter().find(|w| w.name == run.workload).ok_or("unknown workload")?;
    match (workload.kind, sizes) {
        (Kind::Verify { durable, .. }, Sizes::Verify(s)) => verify::run(run, &s, durable),
        (Kind::Sessions { scheme, .. }, Sizes::Sessions(s)) => sessions::run(run, scheme, &s),
        _ => Err("sizes do not fit the workload".into()),
    }
}

/// A child's report: its metric lines and whether its checks passed.
struct ChildReport {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Child side: runs the workload, writes the trace, prints one line per
/// metric and a final `result <correct> <attempted> <failed>` line.
fn child(run: &Run, seconds: f64, trace_dir: &Path) -> Result<(), String> {
    let workload = WORKLOADS.iter().find(|w| w.name == run.workload).ok_or("unknown workload")?;
    let out = execute(run, workload.sizes(seconds))?;
    let mut correct = out.failed == 0;
    for p in &out.problems {
        eprintln!("spbench: {}: {p}", run.workload);
    }
    if out.late_ratio > MAX_LATE_RATIO {
        eprintln!(
            "spbench: {}: {:.2}% of open-loop sends were over 1 ms late",
            run.workload,
            out.late_ratio * 100.0
        );
        correct = false;
    }
    let mut lines: Vec<Metric> = out.metrics.iter().chain(&out.details).cloned().collect();
    if let Some(layers) = &out.layers {
        let trace::Recording { spans, threads, dropped } =
            out.trace.as_ref().expect("traced runs keep their spans");
        let path = trace_dir.join(format!("{}.trace.json", run.workload));
        trace::write_chrome(&path, spans, threads)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("spbench: {}: {} spans written to {}", run.workload, spans.len(), path.display());
        if *dropped > 0 {
            eprintln!("spbench: {}: {dropped} spans dropped for lack of buffer room", run.workload);
            correct = false;
        }
        let unmatched = layers.ledger.unmatched_ratio();
        if matches!(workload.kind, Kind::Verify { .. }) && unmatched > MAX_UNMATCHED {
            eprintln!(
                "spbench: {}: {:.3}% of sampled requests have no handle span",
                run.workload,
                unmatched * 100.0
            );
            correct = false;
        }
        lines.extend(layers.metrics());
    }
    for m in &lines {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number", m.name));
        }
        println!("{}", line(run.workload, m));
    }
    println!("result {correct} {} {}", out.attempted, out.failed);
    Ok(())
}

/// Parent side: runs one child and parses its report.
fn spawn_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: Option<&Path>,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut proc = Command::new(exe)
        .args([
            "--child",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .arg("--trace")
        .arg(trace.map_or(Path::new("0"), |dir| dir))
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting the {workload} child: {e}"))?;
    let mut stdout = proc.stdout.take().expect("piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let started = Instant::now();
    let status = loop {
        if let Some(status) =
            proc.try_wait().map_err(|e| format!("waiting for the {workload} child: {e}"))?
        {
            break status;
        }
        if started.elapsed() > CHILD_TIMEOUT {
            let _ = proc.kill();
            let _ = proc.wait();
            let _ = reader.join();
            return Err(format!("the {workload} run took longer than {CHILD_TIMEOUT:?}"));
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let text = reader
        .join()
        .map_err(|_| "the output reader panicked".to_owned())?
        .map_err(|e| format!("reading the {workload} child: {e}"))?;
    if !status.success() {
        return Err(format!("the {workload} run failed ({status})"));
    }
    let mut report = None;
    let mut metrics = Vec::new();
    for l in text.lines() {
        if let Some(rest) = l.strip_prefix("result ") {
            let f: Vec<&str> = rest.split_whitespace().collect();
            if let [correct, attempted, failed] = f.as_slice() {
                report = Some((
                    *correct == "true",
                    attempted.parse().unwrap_or(0),
                    failed.parse().unwrap_or(0),
                ));
            }
        } else if let Some((w, m)) = parse_line(l) {
            if w == workload {
                metrics.push(m);
            }
        }
    }
    let (correct, attempted, failed) =
        report.ok_or_else(|| format!("the {workload} run printed no result"))?;
    Ok(ChildReport { correct, attempted, failed, metrics })
}

fn value(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

/// Runs one workload's children and prints its lines; returns the
/// summary's metrics (`prefix`ed) and check totals.
fn run_workload(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace_dir: Option<&Path>,
    prefix: &str,
) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let plain = spawn_child(workload, seed, seconds, None)?;
    let mut summary = Vec::new();
    let (mut correct, mut attempted, mut failed) = (plain.correct, plain.attempted, plain.failed);
    let Some(dir) = trace_dir else {
        for m in &plain.metrics {
            println!("{}", line(workload, m));
        }
        for &(name, unit) in END_TO_END {
            let v = value(&plain.metrics, name)
                .ok_or_else(|| format!("{workload} did not report {name}"))?;
            summary.push(Metric::new(format!("{prefix}{name}"), v, unit));
        }
        return Ok((correct, attempted, failed, summary));
    };
    let traced = spawn_child(workload, seed, seconds, Some(dir))?;
    correct &= traced.correct;
    attempted += traced.attempted;
    failed += traced.failed;
    let mut lines = Vec::new();
    for &(name, unit) in PER_LAYER {
        let v = value(&traced.metrics, name)
            .ok_or_else(|| format!("{workload} did not report {name}"))?;
        lines.push(Metric::new(name, v, unit));
    }
    for &(name, _) in END_TO_END {
        let (u, t) = (value(&plain.metrics, name), value(&traced.metrics, name));
        let (Some(u), Some(t)) = (u, t) else {
            return Err(format!("{workload} did not report {name}"));
        };
        let pct = if u != 0.0 { (t - u) / u * 100.0 } else { 0.0 };
        lines.push(Metric::new(format!("{OVERHEAD}{name}"), pct, "%"));
    }
    for m in &lines {
        println!("{}", line(workload, m));
        summary.push(Metric::new(format!("{prefix}{}", m.name), m.value, m.unit));
    }
    Ok((correct, attempted, failed, summary))
}

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    /// Where traces go; `None` for an untraced run.
    trace: Option<PathBuf>,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (one of {})", names.join(", "))
                })?;
                args.workload = Some(w.name);
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|_| "--seed must be a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(Path::new(boot::WORK_DIR).join("trace")),
                    dir => Some(PathBuf::from(dir)),
                }
            }
            "--child" => args.child = true,
            "--help" | "-h" => {
                println!(
                    "usage: spbench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1|DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        let Some(workload) = args.workload else {
            eprintln!("spbench: --child needs --workload");
            return ExitCode::from(2);
        };
        let run = Run { workload, seed: args.seed, traced: args.trace.is_some() };
        return match child(&run, args.seconds, args.trace.as_deref().unwrap_or(Path::new(""))) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("spbench: {workload}: {e}");
                ExitCode::from(1)
            }
        };
    }
    let workloads: Vec<&'static str> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let (mut correct, mut attempted, mut failed, mut metrics) = (true, 0, 0, Vec::new());
    for w in &workloads {
        let prefix = if workloads.len() > 1 { format!("{w}.") } else { String::new() };
        match run_workload(w, args.seed, args.seconds, args.trace.as_deref(), &prefix) {
            Ok((c, a, f, m)) => {
                correct &= c;
                attempted += a;
                failed += f;
                metrics.extend(m);
            }
            Err(e) => {
                eprintln!("spbench: {e}");
                return ExitCode::from(1);
            }
        }
    }
    println!("{}", json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(kind: Kind) -> Sizes {
        match kind {
            Kind::Verify { .. } => Sizes::Verify(verify::Sizes {
                puzzles: 40,
                rate: 2_000.0,
                warmup: 20,
                rounds: 2,
                open: 60,
                saturation: 150,
            }),
            Kind::Sessions { scheme, .. } => Sizes::Sessions(sessions::Sizes {
                preload: if scheme == Scheme::C2 { 2 } else { 6 },
                warmup: 2,
                rounds: 2,
                sessions: 4,
            }),
        }
    }

    fn names(metrics: &[Metric]) -> Vec<&str> {
        metrics.iter().map(|m| m.name.as_str()).collect()
    }

    /// Every workload, untraced and traced, through the same code path as
    /// a full run: every metric is reported, and no operation fails.
    #[test]
    fn every_workload_runs_at_toy_size_and_reports_every_metric() {
        let _serial = trace::TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let started = Instant::now();
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        for w in WORKLOADS {
            for traced in [false, true] {
                let run = Run { workload: w.name, seed: 7, traced };
                let out = execute(&run, toy(w.kind)).unwrap_or_else(|e| panic!("{}: {e}", w.name));
                assert_eq!(out.failed, 0, "{} traced={traced}: {:?}", w.name, out.problems);
                assert!(out.attempted > 0);
                assert_eq!(names(&out.metrics), e2e, "{}", w.name);
                assert!(
                    out.metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0),
                    "{}",
                    w.name
                );
                if traced {
                    let l = out.layers.expect("traced runs report layers");
                    assert_eq!(names(&l.metrics()), layers, "{}", w.name);
                    assert!(l.ledger.ops > 0, "{}: nothing sampled", w.name);
                    if matches!(w.kind, Kind::Verify { .. }) {
                        assert_eq!(
                            l.ledger.unmatched, 0,
                            "{}: requests without a handle span",
                            w.name
                        );
                    }
                    let rec = out.trace.expect("traced runs keep spans");
                    assert!(!rec.spans.is_empty() && rec.dropped == 0, "{}", w.name);
                } else {
                    assert!(out.layers.is_none());
                }
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "smoke run took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn a_seed_fixes_the_inputs() {
        assert_eq!(
            stats::object_inputs(stats::object_seed(2014, "t", 3)),
            stats::object_inputs(stats::object_seed(2014, "t", 3))
        );
        assert_ne!(
            stats::object_inputs(stats::object_seed(2014, "t", 3)).1,
            stats::object_inputs(stats::object_seed(2015, "t", 3)).1
        );
    }
}
