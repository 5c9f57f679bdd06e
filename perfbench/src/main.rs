//! The repository benchmark: one process runs one workload over the real
//! generate → fit → save → load → serve → commit → refresh path and prints
//! its metrics as one JSON line. See `README.md` beside this crate for the
//! workloads, the metrics, and the layer → end-to-end map.
//!
//! ```text
//! perfbench --workload <fit-weather|reads-weather|writes-dblp> --seed <n>
//!           --seconds <s> --trace <0|1> [--objects <n>]
//! ```

mod calib;
mod client;
mod gen;
mod pipeline;
mod probes;
mod serve;
mod stats;

use calib::{Calibrator, DiskCalibrator};
use genclus_serve::Json;
use pipeline::Ctx;
use stats::Ledger;
use std::path::PathBuf;
use std::process::ExitCode;

/// One workload: the preset it runs on and how its measured time is split
/// between phases (shares of `--seconds`).
struct Workload {
    name: &'static str,
    preset: &'static str,
    fit: f64,
    reads: f64,
    writes: f64,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fit-weather",
        preset: "weather-100k",
        fit: 0.5,
        reads: 0.1,
        writes: 0.4,
    },
    Workload {
        name: "reads-weather",
        preset: "weather-100k",
        fit: 0.1,
        reads: 0.45,
        writes: 0.45,
    },
    Workload {
        name: "writes-dblp",
        preset: "dblp-100k",
        fit: 0.1,
        reads: 0.2,
        writes: 0.7,
    },
];

/// End-to-end metrics and their units, in output order.
const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fit_s", "s"),
    ("load_s", "s"),
    ("read_qps", "1/s"),
    ("membership_p50_us", "us"),
    ("fold_in_p50_us", "us"),
    ("top_k_p50_us", "us"),
    ("commit_p50_us", "us"),
    ("refresh_s", "s"),
    ("refresh_read_p50_us", "us"),
];

/// Per-layer metrics of the traced run and their units.
const LAYERS: &[(&str, &str)] = &[
    ("bench.speed_factor", "ratio"),
    ("hin.build_s", "s"),
    ("core.init_s", "s"),
    ("core.em_iter_ms", "ms"),
    ("core.em_iters", "count"),
    ("core.strength_s", "s"),
    ("core.newton_iters", "count"),
    ("core.g1_ms", "ms"),
    ("core.nmi", "ratio"),
    ("serve.snapshot.encode_ms", "ms"),
    ("serve.snapshot.save_ms", "ms"),
    ("serve.snapshot.bytes", "count"),
    ("serve.snapshot.decode_ms", "ms"),
    ("serve.json.parse_us", "us"),
    ("serve.engine.membership_us", "us"),
    ("serve.engine.fold_in_us", "us"),
    ("serve.engine.top_k_us", "us"),
    ("core.prediction.top_k_us", "us"),
    ("core.prediction.candidates", "count"),
    ("serve.foldin.assign_us", "us"),
    ("serve.foldin.iterations", "count"),
    ("serve.net.membership_overhead_us", "us"),
    ("serve.net.commit_overhead_us", "us"),
    ("serve.wal.append_us", "us"),
    ("serve.refresh.commit_us", "us"),
    ("serve.refresh.em_iters", "count"),
    ("hin.delta.append_ms", "ms"),
    ("hin.compact_ms", "ms"),
    ("core.warm_fit_s", "s"),
    ("core.warm_em_iters", "count"),
    ("server.membership_p50_us", "us"),
    ("server.fold_in_p50_us", "us"),
    ("server.top_k_p50_us", "us"),
    ("server.commit_p50_us", "us"),
    ("server.wal.append_p50_us", "us"),
    ("server.refresh.wall_p50_ms", "ms"),
    ("overhead.setup_s", "s"),
    ("overhead.fit_s", "s"),
    ("overhead.load_s", "s"),
    ("overhead.read_qps", "1/s"),
    ("overhead.membership_p50_us", "us"),
    ("overhead.fold_in_p50_us", "us"),
    ("overhead.top_k_p50_us", "us"),
    ("overhead.commit_p50_us", "us"),
    ("overhead.refresh_s", "s"),
    ("overhead.refresh_read_p50_us", "us"),
];

/// This run's scratch directory, removed when dropped — also while a
/// panic unwinds.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    objects: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut objects) =
        (None, None, None, false, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad.clone())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad.clone())?),
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad.clone())? == 1,
            "--objects" => objects = Some(value.parse::<usize>().map_err(|_| bad.clone())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        objects,
    })
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One pass over the whole path with `seconds` of measured time; its
/// files go to a fresh directory `tmp`.
fn pass(args: &Args, tmp: PathBuf, trace: bool, seconds: f64) -> Ctx {
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        panic!("cannot create {}: {e}", tmp.display());
    }
    let w = args.workload;
    let mut spec = *genclus_datagen::scaled_by_name(w.preset).expect("registered preset");
    spec.seed = args.seed;
    if let Some(n) = args.objects {
        spec.n_objects = n;
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ctx = Ctx {
        seed: args.seed,
        spec,
        shape: gen::Shape::of(&spec),
        threads: nproc.min(2),
        cal: Calibrator::new(),
        disk: DiskCalibrator::new(&tmp).expect("scratch directory is writable"),
        tmp,
        led: Ledger::default(),
        trace,
    };
    let net = pipeline::setup(&mut ctx);
    let fit = pipeline::fit_phase(&mut ctx, &net, w.fit * seconds);
    let path = pipeline::store_phase(&mut ctx, &net, &fit);
    let cfg = ctx.fit_config(&net);
    if trace {
        ctx.cal.enter("probe");
        probes::fit_layers(&mut ctx, &net, &fit);
        probes::snapshot_layers(&mut ctx, &net, &fit.model);
    }
    drop(net);
    serve::reads_phase(&mut ctx, &path, &fit.model, w.reads * seconds);
    serve::writes_phase(&mut ctx, &path, &cfg, w.writes * seconds);
    if trace {
        let (membership, commit) = (
            ctx.led.e2e["membership_p50_us"],
            ctx.led.e2e["commit_p50_us"],
        );
        ctx.cal.enter("probe");
        probes::read_layers(&mut ctx, &path, membership);
        probes::write_layers(&mut ctx, &path, &cfg, commit);
        let f = ctx.cal.median_factor();
        ctx.layer("bench.speed_factor", f);
    }
    ctx.finish();
    ctx.led.e2e.insert("peak_rss_mb", peak_rss_mb());
    ctx
}

fn render(
    args: &Args,
    led: &Ledger,
    catalogue: &[(&str, &str)],
    values: &dyn Fn(&str) -> Option<f64>,
) -> String {
    let mut missing = Vec::new();
    let metrics = catalogue
        .iter()
        .map(|&(name, unit)| {
            let v = values(name).filter(|v| v.is_finite());
            if v.is_none() {
                missing.push(name);
            }
            let value = v.map_or(Json::Null, Json::Num);
            (
                name.to_string(),
                Json::obj(vec![("value", value), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "perfbench: {}: no value for {missing:?}",
            args.workload.name
        );
    }
    Json::obj(vec![
        ("correct", Json::Bool(led.failed == 0 && missing.is_empty())),
        ("attempted", Json::Num(led.attempted as f64)),
        ("failed", Json::Num(led.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tmp = ScratchDir(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tmp")
            .join(format!("run-{}", std::process::id())),
    );
    // A traced run also makes an untraced pass on half the time, so the
    // tracing overhead is measured in the same process. The pass that runs
    // second finds the page cache and allocator warm; the order alternates
    // with the seed's parity so that bias does not always favour one side.
    let (mut ctx, untraced) = if args.trace {
        let half = args.seconds / 2.0;
        let run = |traced: bool| {
            let dir = tmp.0.join(if traced { "traced" } else { "untraced" });
            pass(&args, dir, traced, half)
        };
        let (plain, traced) = if args.seed % 2 == 0 {
            let plain = run(false);
            (plain, run(true))
        } else {
            let traced = run(true);
            (run(false), traced)
        };
        (traced, Some(plain))
    } else {
        (pass(&args, tmp.0.clone(), false, args.seconds), None)
    };
    if let Some(plain) = &untraced {
        for &(name, _) in E2E {
            if let (Some(a), Some(b)) = (ctx.led.e2e.get(name), plain.led.e2e.get(name)) {
                let key = format!("overhead.{name}");
                if let Some(&(k, _)) = LAYERS.iter().find(|(n, _)| *n == key) {
                    ctx.led.layers.insert(k, a - b);
                }
            }
        }
        // Both passes did the same counted work on the same inputs.
        for (key, &v) in plain
            .led
            .diag
            .iter()
            .filter(|(k, _)| k.starts_with("count."))
        {
            if let Some(&w) = ctx.led.diag.get(key) {
                if v != w {
                    ctx.led
                        .fail(format!("{key} is {v} untraced but {w} traced"));
                }
            }
        }
        ctx.led.attempted += plain.led.attempted;
        ctx.led.failed += plain.led.failed;
        ctx.led.problems.extend(plain.led.problems.iter().cloned());
    }
    drop(tmp);

    let led = &ctx.led;
    for p in &led.problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    let mut diag: Vec<(String, Json)> = led
        .diag
        .iter()
        .map(|(k, &v)| (k.clone(), Json::Num(v)))
        .collect();
    diag.push(("speed_factor".into(), Json::Num(ctx.cal.median_factor())));
    diag.push((
        "calibration_retakes".into(),
        Json::Num(ctx.cal.retakes as f64),
    ));
    if args.trace {
        for (k, v) in &led.e2e {
            diag.push((format!("traced.{k}"), Json::Num(*v)));
        }
    }
    println!(
        "{}",
        Json::obj(vec![("diagnostics", Json::Obj(diag))]).render()
    );
    let line = if args.trace {
        render(&args, led, LAYERS, &|n| led.layers.get(n).copied())
    } else {
        render(&args, led, E2E, &|n| led.e2e.get(n).copied())
    };
    println!("{line}");
    ExitCode::SUCCESS
}
