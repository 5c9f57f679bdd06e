//! The batch half of the path: generate → fit → save → load.

use crate::calib::{self, Calibrator, DiskCalibrator, Sample};
use crate::gen::{self, Shape};
use crate::stats::{median, Ledger};
use genclus_core::{GenClus, GenClusConfig, GenClusFit};
use genclus_datagen::{ScaledNetwork, ScaledSpec, SCALED_K};
use genclus_serve::{QueryEngine, Snapshot};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Outer iterations of every fit the benchmark runs.
pub const OUTER_ITERS: usize = 3;
/// Network builds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Fits per run at the least, whatever the workload's fit share; `fit_s`
/// is their median.
const MIN_FITS: usize = 5;
/// Snapshot loads per run; `load_s` is their median.
const LOAD_REPEATS: usize = 9;

/// Run-wide state every phase shares.
pub struct Ctx {
    pub seed: u64,
    pub spec: ScaledSpec,
    pub shape: Shape,
    /// Fit, refit and query worker threads: min(2, nproc).
    pub threads: usize,
    /// This run's scratch directory inside the checkout.
    pub tmp: PathBuf,
    pub cal: Calibrator,
    pub disk: DiskCalibrator,
    pub led: Ledger,
    /// Whether this pass records per-layer metrics.
    pub trace: bool,
}

impl Ctx {
    /// Records the median of a bulk phase's samples — builds, fits,
    /// loads, refreshes — by the time their threads ran: the wall time cut
    /// by the vCPU time stolen meanwhile. The raw median stays a
    /// diagnostic.
    pub fn bulk_e2e(&mut self, name: &'static str, samples: &[Sample]) {
        let (wall, ran): (Vec<f64>, Vec<f64>) = samples.iter().map(|s| (s.wall, s.ran)).unzip();
        self.led.e2e.insert(name, median(&ran));
        self.led.diag.insert(format!("raw.{name}"), median(&wall));
        self.led
            .diag
            .insert(format!("samples.{name}"), samples.len() as f64);
    }

    /// Ends the pass: records each phase's speed factor, number of
    /// readings and steal share, so the calibration can be audited.
    pub fn finish(&mut self) {
        for (phase, log) in &self.cal.phases {
            let diag = &mut self.led.diag;
            diag.insert(
                format!("speed_factor.{phase}"),
                self.cal.phase_factor(phase),
            );
            diag.insert(format!("readings.{phase}"), log.readings.len() as f64);
            if log.wall_s > 0.0 {
                diag.insert(format!("steal_share.{phase}"), self.cal.steal_share(phase));
            }
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        if self.trace {
            self.led.layers.insert(name, value);
        }
    }

    /// The fit every workload runs: K=4, three outer iterations, default
    /// EM/γ tolerances and the default (fixed) init seed — the workload
    /// seed varies the network, not the program's configuration.
    pub fn fit_config(&self, net: &ScaledNetwork) -> GenClusConfig {
        GenClusConfig::new(SCALED_K, net.attrs.clone())
            .with_threads(self.threads)
            .with_outer_iters(OUTER_ITERS)
    }
}

/// Everything before the first measured phase: generating and building the
/// network, repeated so `setup_s` is a median.
pub fn setup(ctx: &mut Ctx) -> ScaledNetwork {
    let spec = ctx.spec;
    ctx.cal.enter("setup");
    let mut samples = Vec::new();
    let mut net = None;
    let mut faults = vec![calib::fault_reading()];
    for _ in 0..SETUP_REPEATS {
        let (built, sample) = ctx.cal.timed(1, || spec.build());
        samples.push(sample);
        // The previous network is freed here, before the reading.
        net = Some(built);
        faults.push(calib::fault_reading());
    }
    ctx.bulk_e2e("setup_s", &samples);
    // Builds are divided by the page-fault kernel's median reading.
    let f = median(&faults) / calib::NOMINAL_FAULT_S;
    ctx.led.diag.insert("fault_factor".into(), f);
    let build_s = ctx.led.e2e["setup_s"] / f;
    ctx.led.e2e.insert("setup_s", build_s);
    ctx.layer("hin.build_s", build_s);
    net.expect("at least one build")
}

/// Fits until `budget` seconds have passed, at least `MIN_FITS` times.
/// Every repeat must reproduce the first fit's Θ bit for bit.
pub fn fit_phase(ctx: &mut Ctx, net: &ScaledNetwork, budget: f64) -> GenClusFit {
    let cfg = ctx.fit_config(net);
    ctx.cal.enter("fit");
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut first: Option<GenClusFit> = None;
    while samples.len() < MIN_FITS || start.elapsed().as_secs_f64() < budget {
        let runner = GenClus::new(cfg.clone()).expect("valid config");
        let (fit, sample) = ctx.cal.timed(ctx.threads, || runner.fit(&net.graph));
        samples.push(sample);
        let ok = fit.is_ok();
        ctx.led
            .attempt(ok, || format!("fit failed: {:?}", fit.as_ref().err()));
        let Ok(fit) = fit else { continue };
        ctx.led
            .exact_count("core.em_iters", fit.history.total_em_iterations() as f64);
        match &first {
            None => first = Some(fit),
            Some(f0) => {
                let same = f0
                    .model
                    .theta
                    .as_slice()
                    .iter()
                    .zip(fit.model.theta.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    ctx.led
                        .fail("a repeated fit of the same network gave a different Θ".into());
                }
            }
        }
    }
    ctx.bulk_e2e("fit_s", &samples);
    let first = first.expect("no fit succeeded; nothing to serve");
    check_fit(ctx, net, &first);
    first
}

/// NMI floor per shape: the planted clusters are recoverable, and a fit
/// that falls under these has stopped clustering.
fn nmi_floor(shape: &Shape) -> f64 {
    match shape.kind {
        genclus_datagen::ScaledShape::Weather => 0.5,
        genclus_datagen::ScaledShape::Dblp => 0.1,
    }
}

fn check_fit(ctx: &mut Ctx, net: &ScaledNetwork, fit: &GenClusFit) {
    let theta = &fit.model.theta;
    let off = (0..theta.n_objects())
        .filter(|&v| !crate::client::on_simplex(theta.row(v)))
        .count();
    if off > 0 {
        ctx.led
            .fail(format!("{off} fitted Θ rows are off the simplex"));
    }
    let labels = fit.model.hard_labels();
    let (pred, truth): (Vec<usize>, Vec<usize>) = gen::planted(&net.graph, &net.attrs)
        .into_iter()
        .map(|(v, c)| (labels[v.index()], c))
        .unzip();
    let nmi = genclus_eval::nmi::nmi(&pred, &truth);
    ctx.led.diag.insert("nmi".into(), nmi);
    ctx.layer("core.nmi", nmi);
    if nmi.is_nan() || nmi < nmi_floor(&ctx.shape) {
        ctx.led.fail(format!(
            "nmi {nmi:.4} under the floor {}",
            nmi_floor(&ctx.shape)
        ));
    }
}

/// Saves the fit (fsync) and loads it back `LOAD_REPEATS` times; `load_s`
/// covers `Snapshot::load` plus engine construction. Returns the path.
pub fn store_phase(ctx: &mut Ctx, net: &ScaledNetwork, fit: &GenClusFit) -> PathBuf {
    let path = ctx.tmp.join("model.gcsnap");
    let t = Instant::now();
    let saved = genclus_serve::snapshot::save(&path, &net.graph, &fit.model);
    ctx.led
        .diag
        .insert("raw.save_s".into(), t.elapsed().as_secs_f64());
    ctx.led
        .attempt(saved.is_ok(), || format!("snapshot save failed: {saved:?}"));
    ctx.cal.enter("load");
    let mut samples = Vec::new();
    for _ in 0..LOAD_REPEATS {
        let threads = ctx.threads;
        let (loaded, sample) = ctx.cal.timed(1, || {
            Snapshot::load(&path).map(|s| QueryEngine::new(s, threads))
        });
        samples.push(sample);
        match loaded {
            Ok(engine) => {
                let same = engine
                    .snapshot()
                    .theta_view()
                    .iter()
                    .zip(fit.model.theta.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                ctx.led
                    .attempt(same, || "loaded Θ differs from the fitted Θ".into());
            }
            Err(e) => ctx
                .led
                .attempt(false, || format!("snapshot load failed: {e}")),
        }
    }
    ctx.bulk_e2e("load_s", &samples);
    path
}

/// Bytes of the snapshot file.
pub fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}
