//! Per-layer probes of the traced pass.
//!
//! Each probe times calls into one layer's public functions from outside,
//! on the same network, model and request streams the end-to-end phases
//! use; nothing here runs inside a measured end-to-end phase. Timings
//! follow the end-to-end metric they explain: per-request probes are
//! normalised by the CPU kernel, durable writes (WAL append, commit) by
//! the disk kernel, and bulk steps (init, EM, strength learning, the
//! objective, the snapshot codec, delta append, compaction, the warm
//! re-fit) are not divided by a kernel, like the bulk end-to-end phases.

use crate::calib::{Calibrator, DiskCalibrator};
use crate::gen::{self, NewObject, Read, Rng};
use crate::pipeline::{file_len, Ctx};
use crate::stats::{median, quantile};
use genclus_core::objective::g1;
use genclus_core::strength::StrengthLearner;
use genclus_core::{GenClus, GenClusConfig, GenClusFit, GenClusModel, Similarity};
use genclus_datagen::ScaledNetwork;
use genclus_hin::{GraphDelta, ObjectId};
use genclus_serve::{
    FoldInEngine, Json, QueryEngine, RefreshPolicy, RefreshableEngine, Snapshot, Wal,
};
use genclus_stats::MembershipMatrix;
use std::path::Path;
use std::time::Instant;

/// Calls per in-process latency probe, per op.
const MEMBERSHIP_CALLS: usize = 2000;
const FOLD_IN_CALLS: usize = 400;
const TOP_K_CALLS: usize = 40;
/// Fold-ins whose iteration counts are summed into an exact count.
const FOLD_IN_COUNTED: usize = 256;
/// Fsynced appends/commits per durability probe.
const DURABLE_CALLS: usize = 200;

/// Times `f` `n` times between two calibration readings — of the disk
/// kernel for durable writes, else of the CPU kernel; returns the
/// normalised per-call p50 in microseconds.
fn p50_us(ctx: &mut Ctx, n: usize, durable: bool, mut f: impl FnMut(usize)) -> f64 {
    let reading = |ctx: &mut Ctx| {
        if durable {
            ctx.disk.reading()
        } else {
            ctx.cal.reading()
        }
    };
    let before = reading(ctx);
    let mut lats = Vec::with_capacity(n);
    for i in 0..n {
        let t = Instant::now();
        f(i);
        lats.push(t.elapsed().as_secs_f64());
    }
    let after = reading(ctx);
    let factor = if durable {
        DiskCalibrator::factor(before, after)
    } else {
        Calibrator::factor(before, after)
    };
    quantile(&lats, 0.5) / factor * 1e6
}

/// Median of `n` raw timings of `f`, in seconds, with the last result.
fn timed_median<T>(n: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut raw = Vec::new();
    let mut last = None;
    for _ in 0..n {
        let t = Instant::now();
        last = Some(f());
        raw.push(t.elapsed().as_secs_f64());
    }
    (last.expect("n > 0"), median(&raw))
}

/// Fit layers: init, EM iterations, strength learning, the objective.
pub fn fit_layers(ctx: &mut Ctx, net: &ScaledNetwork, fit: &GenClusFit) {
    let cfg = ctx.fit_config(net);
    let ones = vec![cfg.gamma_init; net.graph.schema().n_relations()];
    let (_, init_s) = timed_median(3, || {
        genclus_core::init::initialize(&net.graph, &cfg, &ones)
    });
    ctx.layer("core.init_s", init_s);
    let h = &fit.history;
    let em_s: f64 = h.records.iter().map(|r| r.em_seconds).sum();
    let strength_s: f64 = h.records.iter().map(|r| r.strength_seconds).sum();
    let iters = h.total_em_iterations();
    ctx.layer("core.em_iter_ms", em_s / iters.max(1) as f64 * 1e3);
    ctx.layer("core.em_iters", iters as f64);
    ctx.layer("core.strength_s", strength_s);
    let learner = StrengthLearner::new(cfg.sigma, cfg.newton.clone());
    let newton = learner
        .learn(&net.graph, &fit.model.theta, &ones)
        .iterations;
    ctx.led.exact_count("core.newton_iters", newton as f64);
    ctx.layer("core.newton_iters", newton as f64);
    let m = &fit.model;
    let (_, g1_s) = timed_median(5, || {
        g1(&net.graph, &m.attributes, &m.theta, &m.components, &m.gamma)
    });
    ctx.layer("core.g1_ms", g1_s * 1e3);
}

/// Snapshot codec layers.
pub fn snapshot_layers(ctx: &mut Ctx, net: &ScaledNetwork, model: &GenClusModel) {
    let (bytes, encode_s) =
        timed_median(3, || genclus_serve::snapshot::to_bytes(&net.graph, model));
    ctx.layer("serve.snapshot.encode_ms", encode_s * 1e3);
    ctx.led
        .exact_count("serve.snapshot.bytes", bytes.len() as f64);
    ctx.layer("serve.snapshot.bytes", bytes.len() as f64);
    let path = ctx.tmp.join("probe.gcsnap");
    let mut saves = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let saved = genclus_serve::snapshot::save(&path, &net.graph, model);
        saves.push(t.elapsed().as_secs_f64());
        ctx.led
            .attempt(saved.is_ok(), || format!("probe save: {saved:?}"));
    }
    ctx.layer("serve.snapshot.save_ms", median(&saves) * 1e3);
    ctx.led.attempt(file_len(&path) == bytes.len() as f64, || {
        "saved size differs".into()
    });
    let (decoded, decode_s) = timed_median(3, || Snapshot::from_bytes(&bytes));
    ctx.led
        .attempt(decoded.is_ok(), || "probe decode failed".into());
    ctx.layer("serve.snapshot.decode_ms", decode_s * 1e3);
}

/// Read-path layers, in process: JSON parse, the engine per op, top-k
/// selection, fold-in. `tcp_membership_us` is the end-to-end membership
/// p50, for the network overhead.
pub fn read_layers(ctx: &mut Ctx, path: &Path, tcp_membership_us: f64) {
    let snap = match Snapshot::load(path) {
        Ok(s) => s,
        Err(e) => return ctx.led.attempt(false, || format!("probe load: {e}")),
    };
    let shape = ctx.shape;
    let mut rng = Rng::new(ctx.seed, 40);
    let mut streams: [Vec<Read>; 3] = Default::default();
    while streams[0].len() < MEMBERSHIP_CALLS
        || streams[1].len() < FOLD_IN_CALLS
        || streams[2].len() < TOP_K_CALLS
    {
        let r = Read::draw(&mut rng, &shape);
        streams[r.op()].push(r);
    }
    let lines: [Vec<String>; 3] =
        [0, 1, 2].map(|op| streams[op].iter().map(|r| r.line(&shape)).collect());

    let parse_us = p50_us(ctx, MEMBERSHIP_CALLS, false, |i| {
        std::hint::black_box(Json::parse(&lines[0][i]).is_ok());
    });
    ctx.layer("serve.json.parse_us", parse_us);

    // Core-level top-k and fold-in on the snapshot's own model and graph.
    {
        let (graph, model) = (snap.graph(), snap.model());
        let src = graph
            .schema()
            .object_type_by_name(shape.src_type())
            .expect("source type");
        let all = graph.objects_of_type(src);
        let queries: Vec<(ObjectId, Vec<ObjectId>)> = streams[2]
            .iter()
            .map(|r| {
                let Read::TopK(i) = r else { unreachable!() };
                let v = graph.object_by_name(&shape.src_name(*i)).expect("object");
                (v, all.iter().copied().filter(|&c| c != v).collect())
            })
            .collect();
        let theta: &MembershipMatrix = &model.theta;
        let top_k_us = p50_us(ctx, TOP_K_CALLS, false, |i| {
            let (v, cands) = &queries[i];
            std::hint::black_box(genclus_core::top_k(
                theta,
                theta.row(v.index()),
                cands,
                Similarity::Cosine,
                10,
            ));
        });
        ctx.layer("core.prediction.top_k_us", top_k_us);
        ctx.layer("core.prediction.candidates", (all.len() - 1) as f64);

        let requests: Vec<_> = streams[1]
            .iter()
            .map(|r| {
                let Read::FoldIn(o) = r else { unreachable!() };
                o.request(&shape, graph)
            })
            .collect();
        let engine = FoldInEngine::new(model, graph);
        let mut iters = 0usize;
        let assign_us = p50_us(ctx, FOLD_IN_CALLS, false, |i| {
            if let Ok(r) = engine.assign(&requests[i]) {
                if i < FOLD_IN_COUNTED {
                    iters += r.iterations;
                }
            }
        });
        ctx.layer("serve.foldin.assign_us", assign_us);
        ctx.led.exact_count("serve.foldin.iterations", iters as f64);
        ctx.layer("serve.foldin.iterations", iters as f64);
    }

    let engine = QueryEngine::new(snap, 1);
    for (op, name) in [
        (0, "serve.engine.membership_us"),
        (1, "serve.engine.fold_in_us"),
        (2, "serve.engine.top_k_us"),
    ] {
        let mut ok = true;
        let us = p50_us(ctx, lines[op].len(), false, |i| {
            ok &= crate::client::is_ok(&engine.handle_line(&lines[op][i]));
        });
        ctx.led.attempt(ok, || format!("in-process {name} failed"));
        ctx.layer(name, us);
        if op == 0 {
            ctx.layer("serve.net.membership_overhead_us", tcp_membership_us - us);
        }
    }
}

/// Write-path layers: WAL append, in-process commit, delta append and
/// compaction, and the warm re-fit a refresh runs. `tcp_commit_us` is the
/// end-to-end commit p50, for the network overhead.
pub fn write_layers(ctx: &mut Ctx, path: &Path, cfg: &GenClusConfig, tcp_commit_us: f64) {
    let shape = ctx.shape;
    // Raw fsynced appends of commit-sized payloads to a scratch log.
    let wal_path = ctx.tmp.join("probe.wal");
    match Wal::create(&wal_path, 0, 0) {
        Ok(mut wal) => {
            let payload = vec![0x5au8; 256];
            let mut ok = true;
            let us = p50_us(ctx, DURABLE_CALLS, true, |_| {
                ok &= wal.append(&payload).is_ok()
            });
            ctx.led.attempt(ok, || "probe WAL append failed".into());
            ctx.layer("serve.wal.append_us", us);
        }
        Err(e) => ctx.led.attempt(false, || format!("probe WAL: {e}")),
    }

    let snap = match Snapshot::load(path) {
        Ok(s) => s,
        Err(e) => return ctx.led.attempt(false, || format!("probe load: {e}")),
    };
    let graph = snap.graph().clone();
    let model = snap.model().clone();
    let n = ((graph.n_objects() as f64 * 0.01) as usize).max(1);
    let mut rng = Rng::new(ctx.seed, 50);
    let objects: Vec<NewObject> = (0..n).map(|_| NewObject::draw(&mut rng, &shape)).collect();

    // In-process commits (fold-in + stage + WAL fsync), no refresh.
    let commit_wal = ctx.tmp.join("probe-commit.wal");
    match RefreshableEngine::with_wal(snap, ctx.threads, RefreshPolicy::default(), &commit_wal) {
        Ok((mut engine, _)) => {
            let lines: Vec<String> = objects
                .iter()
                .take(DURABLE_CALLS)
                .enumerate()
                .map(|(i, o)| gen::commit_line(o, &shape, &format!("probe-{i}")))
                .collect();
            let mut ok = true;
            let us = p50_us(ctx, lines.len(), true, |i| {
                ok &= crate::client::is_ok(&engine.handle_line(&lines[i]));
            });
            ctx.led.attempt(ok, || "in-process commit failed".into());
            ctx.layer("serve.refresh.commit_us", us);
            ctx.layer("serve.net.commit_overhead_us", tcp_commit_us - us);
        }
        Err(e) => ctx
            .led
            .attempt(false, || format!("probe commit engine: {e}")),
    }

    // The refresh's steps, one at a time: stage 1% new objects in a delta,
    // append it, compact, and warm re-fit from Θ extended by fold-in rows.
    let mut delta = GraphDelta::new(&graph);
    let mut rows: Vec<Vec<f64>> = (0..graph.n_objects())
        .map(|v| model.theta.row(v).to_vec())
        .collect();
    let src = graph
        .schema()
        .object_type_by_name(shape.src_type())
        .expect("source type");
    {
        let folder = FoldInEngine::new(&model, &graph);
        for (i, o) in objects.iter().enumerate() {
            let req = o.request(&shape, &graph);
            let v = delta.add_object(src, format!("probe-{i}"));
            let mut ok = req
                .links
                .iter()
                .all(|&(r, t, w)| delta.add_link(v, t, r, w).is_ok());
            ok &= o
                .in_links(&shape, &graph)
                .into_iter()
                .all(|(r, s)| delta.add_link(s, v, r, 1.0).is_ok());
            for (a, xs) in &req.values {
                ok &= xs.iter().all(|&x| delta.add_numeric(v, *a, x).is_ok());
            }
            for (a, bag) in &req.terms {
                ok &= bag
                    .iter()
                    .all(|&(t, c)| delta.add_term_count(v, *a, t, c).is_ok());
            }
            match folder.assign(&req) {
                Ok(r) => rows.push(r.theta),
                Err(_) => ok = false,
            }
            if !ok {
                return ctx
                    .led
                    .attempt(false, || "probe delta staging failed".into());
            }
        }
    }
    let mut grown = graph.clone();
    let (appended, sample) = ctx.cal.timed(1, || grown.append(delta));
    ctx.layer("hin.delta.append_ms", sample.ran * 1e3);
    ctx.led
        .attempt(appended.is_ok(), || format!("delta append: {appended:?}"));
    let (_, sample) = ctx.cal.timed(1, || grown.compact());
    ctx.layer("hin.compact_ms", sample.ran * 1e3);

    let warm = GenClusModel {
        theta: MembershipMatrix::from_rows(&rows, model.n_clusters()),
        ..model
    };
    let policy = crate::serve::refresh_policy(n, cfg);
    let mut refit_cfg = cfg.clone().with_warm_start(&warm);
    refit_cfg.outer_iters = policy.outer_iters.max(2);
    refit_cfg.em_iters = policy.em_iters;
    refit_cfg.em_tol = policy.em_tol;
    refit_cfg.gamma_tol = policy.gamma_tol;
    let threads = ctx.threads;
    let (fit, sample) = ctx.cal.timed(threads, || {
        GenClus::new(refit_cfg).and_then(|g| g.fit_warm(&grown, &warm))
    });
    match fit {
        Ok(fit) => {
            ctx.layer("core.warm_fit_s", sample.ran);
            let iters = fit.history.total_em_iterations() as f64;
            ctx.led.exact_count("core.warm_em_iters", iters);
            ctx.layer("core.warm_em_iters", iters);
        }
        Err(e) => ctx.led.attempt(false, || format!("warm fit: {e}")),
    }
}
