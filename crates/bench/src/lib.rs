//! Experiment harness for the GenClus reproduction.
//!
//! One runnable experiment per table and figure of the paper's §5 (plus two
//! ablations), each printing the same rows/series the paper reports and
//! writing a TSV copy under `results/`. Run them via
//!
//! ```text
//! cargo run --release -p genclus-bench --bin experiments -- <id> [--quick]
//! cargo run --release -p genclus-bench --bin experiments -- all
//! ```
//!
//! where `<id>` is one of `fig5`, `fig6`, `table1`, `fig7`, `fig8`,
//! `table2`, `table3`, `table4`, `table5`, `fig9`, `fig10`, `fig11`,
//! `ablate-sym`, `ablate-fixed`. `--quick` shrinks corpus sizes and restart
//! counts so the whole suite finishes in well under a minute (used by the
//! crate's tests); the default scale matches the paper's configurations.
//!
//! The [`gates`] module holds the performance gates, run by
//!
//! ```text
//! cargo run --release -p genclus-bench --bin bench_gates -- [--quick] [--out <path>]
//! ```
//!
//! which writes `BENCH_gates.json` and exits non-zero in full mode when a
//! gate fails.

pub mod ablations;
pub mod dblp_experiments;
pub mod gates;
pub mod methods;
pub mod quantiles;
pub mod report;
pub mod rss;
pub mod timing;
pub mod weather_experiments;

use report::Report;

/// Controls experiment sizes: `full` reproduces the paper's configurations,
/// quick mode shrinks them for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Quick (test) mode flag.
    pub quick: bool,
}

impl Scale {
    /// Paper-scale experiments.
    pub const FULL: Scale = Scale { quick: false };
    /// Smoke-test scale.
    pub const QUICK: Scale = Scale { quick: true };

    /// DBLP corpus configuration.
    pub fn dblp_config(&self) -> genclus_datagen::DblpConfig {
        if self.quick {
            genclus_datagen::dblp::DblpConfig {
                n_authors: 200,
                n_papers: 300,
                ..Default::default()
            }
        } else {
            genclus_datagen::dblp::DblpConfig::default()
        }
    }

    /// Number of random restarts for the Fig. 5/6 mean±std runs (paper: 20).
    pub fn restarts(&self) -> usize {
        if self.quick {
            3
        } else {
            20
        }
    }

    /// GenClus outer iterations (paper: 10 on DBLP, 5 on weather).
    pub fn outer_iters_dblp(&self) -> usize {
        if self.quick {
            3
        } else {
            10
        }
    }

    /// GenClus outer iterations for weather networks.
    pub fn outer_iters_weather(&self) -> usize {
        if self.quick {
            3
        } else {
            5
        }
    }

    /// Weather network sizes: `#T` and the three `#P` values.
    pub fn weather_sizes(&self) -> (usize, [usize; 3]) {
        if self.quick {
            (200, [50, 100, 200])
        } else {
            (1000, [250, 500, 1000])
        }
    }

    /// Observation counts per sensor.
    pub fn weather_obs(&self) -> [usize; 3] {
        [1, 5, 20]
    }
}

/// Every experiment id, in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig5",
    "fig6",
    "table1",
    "fig7",
    "fig8",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig9",
    "fig10",
    "fig11",
    "ablate-sym",
    "ablate-fixed",
];

/// Dispatches one experiment by id.
///
/// # Panics
/// Panics on an unknown id (the binary validates first).
pub fn run_experiment(id: &str, scale: Scale) -> Report {
    match id {
        "fig5" => dblp_experiments::fig5(scale),
        "fig6" => dblp_experiments::fig6(scale),
        "table1" => dblp_experiments::table1(scale),
        "table2" => dblp_experiments::table2(scale),
        "table3" => dblp_experiments::table3(scale),
        "fig9" => dblp_experiments::fig9(scale),
        "fig10" => dblp_experiments::fig10(scale),
        "fig7" => weather_experiments::fig7(scale),
        "fig8" => weather_experiments::fig8(scale),
        "table4" => weather_experiments::table4(scale),
        "table5" => weather_experiments::table5(scale),
        "fig11" => timing::fig11(scale),
        "ablate-sym" => ablations::ablate_sym(scale),
        "ablate-fixed" => ablations::ablate_fixed(scale),
        other => panic!("unknown experiment id `{other}`"),
    }
}

/// Quick-run checks of the [`gates`] section that times the EM kernel (the
/// size sweep is tested on shrunken presets in [`gates`] itself).
#[cfg(test)]
mod perf {
    mod tests {
        use crate::gates::{assert_measured, quick_report};
        use genclus_serve::Json;

        #[test]
        fn quick_run_produces_consistent_report_and_json() {
            let r = quick_report();
            assert_measured(&r.kernel);
            let json = Json::parse(&r.to_json().render()).expect("the artifact parses");
            let pairs = json.get("kernel").and_then(|k| k.get("pairs"));
            assert_eq!(pairs.and_then(Json::as_arr).map(<[Json]>::len), Some(3));
            let cells = json.get("size_sweep").and_then(|s| s.get("cells"));
            assert_eq!(cells.and_then(Json::as_arr).map(<[Json]>::len), Some(0));
        }
    }
}

/// Quick-run checks of the [`gates`] sections that measure the serving
/// layer: batching, metrics overhead and TCP fan-out.
#[cfg(test)]
mod serve_perf {
    mod tests {
        use crate::gates::{assert_measured, quick_report};
        use genclus_serve::Json;

        #[test]
        fn quick_run_produces_consistent_report_and_json() {
            let r = quick_report();
            assert_measured(&r.batching);
            assert_measured(&r.metrics);
            let f = &r.fanout;
            assert!(f.offered_qps > 0.0 && f.offered_qps.is_finite());
            assert_eq!((f.one.clients, f.many.clients), (1, 64));
            for c in [&f.one, &f.many] {
                assert!(c.requests >= 64, "cell N={} too small", c.clients);
                assert!(c.qps > 0.0 && c.p50_ms <= c.p99_ms, "{c:?}");
            }
            let json = Json::parse(&r.to_json().render()).expect("the artifact parses");
            for key in ["batching", "metrics"] {
                let pairs = json.get(key).and_then(|p| p.get("pairs"));
                assert_eq!(pairs.and_then(Json::as_arr).map(<[Json]>::len), Some(3));
            }
            let cells = json.get("fanout").and_then(|s| s.get("cells"));
            assert_eq!(cells.and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        }
    }
}

/// Quick-run checks of the [`gates`] section that measures query latency
/// during an inline and a background refresh (warm < cold EM iterations is
/// tested at full fixture scale in [`gates`]).
#[cfg(test)]
mod refresh_perf {
    mod tests {
        use crate::gates::quick_report;
        use genclus_serve::Json;

        #[test]
        fn quick_run_produces_consistent_report_and_json() {
            let r = quick_report();
            for s in [&r.stall.inline, &r.stall.background] {
                assert!(s.refresh_wall_ms > 0.0, "{s:?}");
                assert!(s.queries_during_refresh >= 1, "{s:?}");
                assert!(s.p50_ms <= s.p99_ms && s.p99_ms <= s.max_ms, "{s:?}");
            }
            let json = Json::parse(&r.to_json().render()).expect("the artifact parses");
            let stall = json.get("stall").expect("stall section");
            let cells = stall.get("cells").and_then(Json::as_arr).map(<[Json]>::len);
            assert_eq!(cells, Some(2));
            let reduction = stall.get("reduction").and_then(Json::as_f64);
            assert_eq!(reduction, Some(r.stall.reduction()));
        }
    }
}
