//! Runs every workload of the benchmark at a tiny size under two seeds and
//! checks its output against the metric catalogue in `BENCHMARK.json`.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use genclus_serve::Json;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["fit-weather", "reads-weather", "writes-dblp"];
/// Objects of the tiny networks: large enough for the planted clusters to
/// be recoverable, small enough that one run takes a second or two.
const TINY: &str = "4000";

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// (name, unit) of every metric in one list of the manifest.
fn catalogue(manifest: &Json, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload; returns the diagnostics line and the result line.
fn run(workload: &str, seed: u64, trace: u8) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--objects",
            TINY,
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected diagnostics and result lines"
    );
    let parse = |l: &str| Json::parse(l).expect("JSON line");
    (parse(lines[lines.len() - 2]), parse(lines[lines.len() - 1]))
}

fn check(workload: &str, seed: u64, result: &Json, metrics: &[(String, String)]) {
    let num = |k| result.get(k).and_then(Json::as_f64).expect("count field");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload} seed {seed} is not correct: {}",
        result.render()
    );
    assert_eq!(
        num("failed"),
        0.0,
        "{workload} seed {seed}: failed operations"
    );
    assert!(num("attempted") >= 1.0);
    let got = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    assert_eq!(
        got.len(),
        metrics.len(),
        "{workload}: exactly the catalogue"
    );
    for (name, unit) in metrics {
        let m = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{workload} seed {seed}: no metric {name}"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let v = m.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {v:?}");
    }
}

#[test]
fn every_workload_emits_every_metric_with_no_failures_under_two_seeds() {
    let manifest = manifest();
    let e2e = catalogue(&manifest, "end_to_end");
    let layers = catalogue(&manifest, "per_layer");
    for workload in WORKLOADS {
        // Both seeds also run traced: the parity of the seed picks which
        // pass of a traced run goes first.
        for seed in [1, 2] {
            let (_, result) = run(workload, seed, 0);
            check(workload, seed, &result, &e2e);
            let (_, traced) = run(workload, seed, 1);
            check(workload, seed, &traced, &layers);
        }
    }
}

#[test]
fn work_counts_repeat_exactly_for_one_seed() {
    for workload in WORKLOADS {
        let counts = |diag: &Json| -> Vec<(String, f64)> {
            let d = diag
                .get("diagnostics")
                .and_then(Json::as_obj)
                .expect("diagnostics");
            d.iter()
                .filter(|(k, _)| k.starts_with("count."))
                .map(|(k, v)| (k.clone(), v.as_f64().expect("count")))
                .collect()
        };
        let (a, _) = run(workload, 7, 0);
        let (b, _) = run(workload, 7, 0);
        assert!(!counts(&a).is_empty(), "{workload}: no counts recorded");
        assert_eq!(
            counts(&a),
            counts(&b),
            "{workload}: counts differ between runs"
        );
    }
}
