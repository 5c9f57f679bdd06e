//! Runs every performance gate and writes `BENCH_gates.json`.
//!
//! ```text
//! bench_gates [--quick] [--out <path>]
//! ```
//!
//! The gates, their thresholds and the artifact's schema are documented
//! in `genclus_bench::gates` and in ROADMAP.md's *Gates* section. In full
//! mode the run exits 1 when any gate fails; `--quick` shrinks every
//! fixture for a smoke run and only reports.

use genclus_bench::gates::{run_gates, violations};
use std::path::PathBuf;

fn main() {
    let mut quick = false;
    let mut out = PathBuf::from("BENCH_gates.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = args
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| usage("--out needs a path"))
            }
            other => usage(&format!("unexpected argument `{other}`")),
        }
    }

    let report = run_gates(quick);
    print!("{}", report.render());
    if let Err(e) = report.save(&out) {
        eprintln!("failed to write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("wrote {}", out.display());
    let failed = violations(&report);
    for v in &failed {
        eprintln!("GATE FAILED: {v}");
    }
    if !quick && !failed.is_empty() {
        std::process::exit(1);
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}\nusage: bench_gates [--quick] [--out <path>]");
    std::process::exit(2);
}
