//! Prints the Figure 10 reproduction tables.
//!
//! ```text
//! cargo run -p sp-bench --release --bin figures            # all panels
//! cargo run -p sp-bench --release --bin figures -- fig10a  # one panel
//! cargo run -p sp-bench --release --bin figures -- quick   # fast sweep
//! cargo run -p sp-bench --release --bin figures -- --out dir # + CSV & SVG
//! cargo run -p sp-bench --release --bin figures -- --bench-json
//!     # slow-vs-fast crypto sweep -> BENCH_crypto.json (`quick` shrinks it)
//! cargo run -p sp-bench --bin figures -- --check-bench-json BENCH_crypto.json
//!     # validate an existing report (CI smoke)
//! cargo run -p sp-bench --release --bin figures -- --bench-net-json
//!     # end-to-end RPC pipelining sweep -> BENCH_net.json (`quick` shrinks it)
//! cargo run -p sp-bench --bin figures -- --check-bench-net-json BENCH_net.json
//!     # validate an existing network report (CI smoke)
//! cargo run -p sp-bench --release --bin figures -- --bench-store-json
//!     # WAL append/recovery sweep -> BENCH_store.json (`quick` shrinks it)
//! cargo run -p sp-bench --bin figures -- --check-bench-store-json BENCH_store.json
//!     # validate an existing storage report (CI smoke)
//! cargo run -p sp-bench --release --bin figures -- --bench-sim-json
//!     # simulation scaling sweep -> BENCH_sim.json (`quick` shrinks it)
//! cargo run -p sp-bench --bin figures -- --check-bench-sim-json BENCH_sim.json
//!     # validate an existing simulation report (CI smoke)
//! ```

use sp_bench::{
    crypto_bench, export,
    figures::{self, SweepConfig},
    net_bench, sim_bench, store_bench,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let jitter = args.iter().any(|a| a == "jitter");

    if let Some(i) = args.iter().position(|a| a == "--check-bench-json") {
        let path = args.get(i + 1).map(String::as_str).unwrap_or("BENCH_crypto.json");
        let doc = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        if let Err(e) = crypto_bench::validate_json(&doc) {
            eprintln!("{path} is not a valid crypto bench report: {e}");
            std::process::exit(1);
        }
        println!("{path}: schema-valid crypto bench report");
        return;
    }

    if let Some(i) = args.iter().position(|a| a == "--check-bench-net-json") {
        let path = args.get(i + 1).map(String::as_str).unwrap_or("BENCH_net.json");
        let doc = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        if let Err(e) = net_bench::validate_json(&doc) {
            eprintln!("{path} is not a valid net bench report: {e}");
            std::process::exit(1);
        }
        println!("{path}: schema-valid net bench report");
        return;
    }

    if let Some(i) = args.iter().position(|a| a == "--check-bench-store-json") {
        let path = args.get(i + 1).map(String::as_str).unwrap_or("BENCH_store.json");
        let doc = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        if let Err(e) = store_bench::validate_json(&doc) {
            eprintln!("{path} is not a valid store bench report: {e}");
            std::process::exit(1);
        }
        println!("{path}: schema-valid store bench report");
        return;
    }

    if let Some(i) = args.iter().position(|a| a == "--check-bench-sim-json") {
        let path = args.get(i + 1).map(String::as_str).unwrap_or("BENCH_sim.json");
        let doc = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        if let Err(e) = sim_bench::validate_json(&doc) {
            eprintln!("{path} is not a valid sim bench report: {e}");
            std::process::exit(1);
        }
        println!("{path}: schema-valid sim bench report");
        return;
    }

    if args.iter().any(|a| a == "--bench-sim-json") {
        let cfg = if quick {
            sim_bench::SimBenchConfig::quick()
        } else {
            sim_bench::SimBenchConfig::default()
        };
        let report = sim_bench::run_sweep(&cfg);
        print!("{}", sim_bench::render(&report));
        let json = sim_bench::to_json(&report);
        sim_bench::validate_json(&json).expect("emitted report validates");
        let path = args
            .iter()
            .position(|a| a == "--bench-out")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .unwrap_or("BENCH_sim.json");
        std::fs::write(path, json).expect("writing bench json");
        eprintln!("wrote {path}");
        return;
    }

    if args.iter().any(|a| a == "--bench-store-json") {
        let cfg = if quick {
            store_bench::StoreBenchConfig::quick()
        } else {
            store_bench::StoreBenchConfig::default()
        };
        let report = store_bench::run(&cfg);
        print!("{}", store_bench::render(&report));
        let json = store_bench::to_json(&report);
        store_bench::validate_json(&json).expect("emitted report validates");
        let path = args
            .iter()
            .position(|a| a == "--bench-out")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .unwrap_or("BENCH_store.json");
        std::fs::write(path, json).expect("writing bench json");
        eprintln!("wrote {path}");
        return;
    }

    if args.iter().any(|a| a == "--bench-net-json") {
        let cfg = if quick {
            net_bench::NetBenchConfig::quick()
        } else {
            net_bench::NetBenchConfig::default()
        };
        let report = net_bench::run(&cfg);
        print!("{}", net_bench::render(&report));
        let json = net_bench::to_json(&report);
        net_bench::validate_json(&json).expect("emitted report validates");
        let path = args
            .iter()
            .position(|a| a == "--bench-out")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .unwrap_or("BENCH_net.json");
        std::fs::write(path, json).expect("writing bench json");
        eprintln!("wrote {path}");
        return;
    }

    if args.iter().any(|a| a == "--bench-json") {
        let cfg = if quick {
            crypto_bench::CryptoBenchConfig::quick()
        } else {
            crypto_bench::CryptoBenchConfig::default()
        };
        let report = crypto_bench::run(&cfg);
        print!("{}", crypto_bench::render(&report));
        let json = crypto_bench::to_json(&report);
        crypto_bench::validate_json(&json).expect("emitted report validates");
        let path = args
            .iter()
            .position(|a| a == "--bench-out")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .unwrap_or("BENCH_crypto.json");
        std::fs::write(path, json).expect("writing bench json");
        eprintln!("wrote {path}");
        return;
    }
    let mut cfg = if quick { SweepConfig::quick() } else { SweepConfig::default() };
    if jitter {
        cfg.network_jitter = 0.25;
    }
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);

    let out_flag_value = args.iter().position(|a| a == "--out").map(|i| i + 1);
    let wanted: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != out_flag_value)
        .filter_map(|(_, a)| a.strip_prefix("fig"))
        .filter(|sel| matches!(*sel, "10a" | "10b" | "10c" | "10d"))
        .collect();

    let panels = figures::all_panels(&cfg);
    let mut printed = 0;
    for panel in &panels {
        if wanted.is_empty() || wanted.contains(&panel.id) {
            println!("{}", figures::render(panel));
            printed += 1;
            if let Some(dir) = &out_dir {
                std::fs::create_dir_all(dir).expect("creating output dir");
                let csv = dir.join(format!("fig{}.csv", panel.id));
                let svg = dir.join(format!("fig{}.svg", panel.id));
                std::fs::write(&csv, export::to_csv(panel)).expect("writing csv");
                std::fs::write(&svg, export::to_svg(panel)).expect("writing svg");
                eprintln!("wrote {} and {}", csv.display(), svg.display());
            }
        }
    }
    if printed == 0 {
        eprintln!("unknown figure selector; available: fig10a fig10b fig10c fig10d, plus `quick`");
        std::process::exit(2);
    }
}
