//! The serving half of the path: reads over `NetServer`, then durable
//! commits with background refresh.
//!
//! Traffic runs in windows. Between windows every client is paused, so no
//! program thread is runnable while the calibration kernel takes its
//! readings; each window's latencies are divided by the speed factor of
//! the readings around it.

use crate::calib::{steal_s, Calibrator, DiskCalibrator};
use crate::client::{self, Conn};
use crate::gen::{self, NewObject, Read, Rng};
use crate::pipeline::Ctx;
use crate::stats::{median, quantile};
use genclus_core::{GenClusConfig, GenClusModel};
use genclus_serve::{Json, NetConfig, NetServer, RefreshPolicy, RefreshableEngine, Snapshot};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Concurrent client connections of the read phase.
const READ_CLIENTS: usize = 2;
/// Length of one read window.
const READ_WINDOW: Duration = Duration::from_millis(100);
/// Every n-th `top_k` response is checked against a brute-force ranking.
const TOP_K_CHECK_EVERY: usize = 8;
/// Commits per calibrated sub-window of the write phase.
const COMMIT_WINDOW: usize = 100;
/// The refresh policy fires once this share of the base objects is staged.
const REFRESH_SHARE: f64 = 0.01;
/// The reader polls `stats` for the snapshot checksum every n-th request.
const STATS_EVERY: usize = 8;
/// Pause between the reader's requests, so it keeps reading throughout
/// without competing with the re-fit for both cores.
const READER_PAUSE: Duration = Duration::from_micros(250);
/// A re-fit that has not landed after this long counts as failed.
const REFRESH_TIMEOUT: Duration = Duration::from_secs(150);

/// Read ops in `Read::op` order, with their end-to-end p50 metric.
const OPS: [(&str, &str); 3] = [
    ("membership", "membership_p50_us"),
    ("fold_in", "fold_in_p50_us"),
    ("top_k", "top_k_p50_us"),
];

/// The model's Θ plus the per-type candidate lists the checks need.
struct Reference<'a> {
    model: &'a GenClusModel,
    /// Ids of the queried type (temp sensors / authors), by name index.
    src_ids: Vec<usize>,
}

impl<'a> Reference<'a> {
    fn new(ctx: &Ctx, snap: &Snapshot, model: &'a GenClusModel) -> Self {
        let g = snap.graph();
        let src_ids = (0..ctx.shape.n_src)
            .map(|i| {
                g.object_by_name(&ctx.shape.src_name(i))
                    .expect("generated object exists")
                    .index()
            })
            .collect();
        Self { model, src_ids }
    }
}

/// What one client returns from one window.
#[derive(Default)]
struct WindowOut {
    lats: [Vec<f64>; 3],
    /// Responses kept for checking: (request, response).
    kept: Vec<(Read, String)>,
    /// Non-ok responses or transport errors.
    errors: Vec<String>,
    requests: usize,
}

fn read_client(
    addr: SocketAddr,
    shape: gen::Shape,
    seed: u64,
    id: u64,
    go: Receiver<Option<Instant>>,
    done: Sender<WindowOut>,
) {
    let mut conn = Conn::connect(addr).ok();
    let mut rng = Rng::new(seed, 10 + id);
    let mut n_top_k = 0usize;
    while let Ok(Some(deadline)) = go.recv() {
        let mut out = WindowOut::default();
        while Instant::now() < deadline {
            let Some(c) = conn.as_mut() else {
                out.errors.push("could not connect".into());
                break;
            };
            let req = Read::draw(&mut rng, &shape);
            let line = req.line(&shape);
            out.requests += 1;
            match c.call(&line) {
                Ok((resp, lat)) => {
                    if !client::is_ok(resp) {
                        out.errors.push(format!("{line} -> {resp}"));
                        continue;
                    }
                    out.lats[req.op()].push(lat);
                    let keep = match req {
                        Read::TopK(_) => {
                            n_top_k += 1;
                            n_top_k.is_multiple_of(TOP_K_CHECK_EVERY)
                        }
                        _ => true,
                    };
                    if keep {
                        out.kept.push((req, resp.to_string()));
                    }
                }
                Err(e) => {
                    out.errors.push(format!("{line}: {e}"));
                    conn = None;
                }
            }
        }
        if done.send(out).is_err() {
            return;
        }
    }
}

/// Serves the stored snapshot over `NetServer` to two closed-loop clients
/// sending the fixed read mix, in calibrated windows, for `budget` seconds.
pub fn reads_phase(ctx: &mut Ctx, path: &Path, model: &GenClusModel, budget: f64) {
    let snap = match Snapshot::load(path) {
        Ok(s) => s,
        Err(e) => return ctx.led.attempt(false, || format!("load for serving: {e}")),
    };
    ctx.cal.enter("reads");
    let reference = Reference::new(ctx, &snap, model);
    let engine = RefreshableEngine::new(snap, ctx.threads, RefreshPolicy::default());
    let server = match NetServer::bind("127.0.0.1:0", engine, NetConfig::default()) {
        Ok(s) => s,
        Err(e) => return ctx.led.attempt(false, || format!("bind: {e}")),
    };
    let addr = server.local_addr();
    let (done_tx, done_rx) = channel();
    let mut gos = Vec::new();
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    for id in 0..READ_CLIENTS as u64 {
        let (go_tx, go_rx) = channel();
        let (shape, seed, done) = (ctx.shape, ctx.seed, done_tx.clone());
        handles.push(std::thread::spawn(move || {
            read_client(addr, shape, seed, id, go_rx, done)
        }));
        gos.push(go_tx);
    }

    let mut lats: [Vec<f64>; 3] = Default::default();
    let mut raw_lats: [Vec<f64>; 3] = Default::default();
    let mut qps = Vec::new();
    let mut raw_qps = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < budget || qps.is_empty() {
        let before = ctx.cal.reading();
        let stolen = steal_s();
        let t = Instant::now();
        for go in &gos {
            let _ = go.send(Some(t + READ_WINDOW));
        }
        let outs: Vec<WindowOut> = (0..READ_CLIENTS)
            .filter_map(|_| done_rx.recv().ok())
            .collect();
        let wall = t.elapsed().as_secs_f64();
        // Booked only for the read phase's steal share, which `read_qps`
        // is divided by below.
        ctx.cal.sample(wall, READ_CLIENTS, stolen, steal_s());
        let f = Calibrator::factor(before, ctx.cal.reading());
        let mut requests = 0;
        for out in outs {
            requests += out.requests;
            for (op, xs) in out.lats.iter().enumerate() {
                lats[op].extend(xs.iter().map(|x| x / f));
                raw_lats[op].extend(xs);
            }
            // Ok responses not kept for checking count as attempted here;
            // errors and checked responses are counted one by one.
            ctx.led.attempted +=
                out.requests
                    .saturating_sub(out.errors.len() + out.kept.len()) as u64;
            for e in out.errors {
                ctx.led.attempt(false, || e);
            }
            for (req, resp) in out.kept {
                let checked = check_read(ctx, &reference, &req, &resp);
                ctx.led.attempt(checked.is_ok(), || checked.unwrap_err());
            }
        }
        qps.push(requests as f64 / wall * f);
        raw_qps.push(requests as f64 / wall);
    }
    for go in &gos {
        let _ = go.send(None);
    }
    drop(gos);
    for h in handles {
        let _ = h.join();
    }

    // Four threads (two clients, their two sessions) share the vCPUs, so
    // throughput also falls with the time the hypervisor steals from them;
    // a window is too short to measure that in 10 ms ticks, the phase is not.
    let ran = 1.0 - ctx.cal.steal_share("reads");
    ctx.led.e2e.insert("read_qps", median(&qps) / ran);
    ctx.led.diag.insert("raw.read_qps".into(), median(&raw_qps));
    // Each op's share of the client time spent on reads: what `read_qps`
    // tracks.
    let busy: [f64; 3] = [0, 1, 2].map(|op| raw_lats[op].iter().sum());
    let total: f64 = busy.iter().sum();
    for (op, &(name, _)) in OPS.iter().enumerate() {
        ctx.led
            .diag
            .insert(format!("read_time_share.{name}"), busy[op] / total);
    }
    for (op, &(name, key)) in OPS.iter().enumerate() {
        ctx.led.e2e.insert(key, quantile(&lats[op], 0.5) * 1e6);
        ctx.led
            .diag
            .insert(format!("raw.{key}"), quantile(&raw_lats[op], 0.5) * 1e6);
        ctx.led
            .diag
            .insert(format!("{name}_p99_us"), quantile(&lats[op], 0.99) * 1e6);
        ctx.led
            .diag
            .insert(format!("{name}_samples"), lats[op].len() as f64);
    }
    if ctx.trace {
        server_registry(ctx, addr, "reads");
    }
    drop(server.shutdown());
}

fn check_read(ctx: &Ctx, r: &Reference<'_>, req: &Read, resp: &str) -> Result<(), String> {
    match req {
        Read::Membership(i) => client::check_membership(resp, r.model.theta.row(r.src_ids[*i])),
        Read::FoldIn(_) => client::check_fold_in(resp).map(|_| ()),
        Read::TopK(i) => {
            let expected = client::brute_top_k(&r.model.theta, r.src_ids[*i], &r.src_ids, 10);
            // Ids of the queried type are contiguous in the generated
            // networks, so id `v` names the object of index `v - base`.
            let base = r.src_ids[0];
            client::check_top_k(resp, &expected, |v| ctx.shape.src_name(v - base))
        }
    }
}

/// Reads the server's own metrics registry (`{"op":"metrics"}`) into
/// per-layer metrics.
fn server_registry(ctx: &mut Ctx, addr: SocketAddr, phase: &str) {
    let Ok(mut c) = Conn::connect(addr) else {
        return ctx.led.attempt(false, || "metrics connect failed".into());
    };
    let resp = match c.call("{\"op\":\"metrics\"}") {
        Ok((r, _)) => r.to_string(),
        Err(e) => return ctx.led.attempt(false, || format!("metrics: {e}")),
    };
    let Ok(j) = Json::parse(&resp) else {
        return ctx.led.attempt(false, || "metrics: bad JSON".into());
    };
    let get = |path: &[&str]| {
        let mut cur = &j;
        for k in path {
            cur = cur.get(k)?;
        }
        cur.as_f64()
    };
    if phase == "reads" {
        let f = ctx.cal.phase_factor("reads");
        for (op, name) in [
            ("membership", "server.membership_p50_us"),
            ("fold_in", "server.fold_in_p50_us"),
            ("top_k", "server.top_k_p50_us"),
        ] {
            if let Some(x) = get(&["ops", op, "p50_us"]) {
                ctx.layer(name, x / f);
            }
        }
    } else {
        if let Some(x) = get(&["ops", "commit", "p50_us"]) {
            ctx.layer("server.commit_p50_us", x);
        }
        if let Some(x) = get(&["wal", "append_p50_us"]) {
            ctx.layer("server.wal.append_p50_us", x);
        }
        if let Some(x) = get(&["refresh", "wall_p50_ms"]) {
            ctx.layer("server.refresh.wall_p50_ms", x);
        }
    }
}

/// Messages from the reader connection of the write phase.
enum ReaderMsg {
    /// The reader saw a new snapshot checksum at this instant.
    Swapped(Instant),
    /// A run ended: latencies of reads sent before / during a re-fit.
    Done {
        idle: Vec<f64>,
        refit: Vec<f64>,
        errors: Vec<String>,
        requests: usize,
    },
}

/// Commands to the reader: run until told to stop, or exit.
enum ReaderCmd {
    Run,
    Exit,
}

struct ReaderShared {
    stop: AtomicBool,
    refit_in_flight: AtomicBool,
}

fn reader(
    addr: SocketAddr,
    shape: gen::Shape,
    seed: u64,
    shared: Arc<ReaderShared>,
    cmds: Receiver<ReaderCmd>,
    out: Sender<ReaderMsg>,
) {
    let mut conn = Conn::connect(addr).ok();
    let mut rng = Rng::new(seed, 20);
    let mut checksum = String::new();
    while let Ok(ReaderCmd::Run) = cmds.recv() {
        let (mut idle, mut refit, mut errors, mut requests) =
            (Vec::new(), Vec::new(), Vec::new(), 0);
        let mut n = 0usize;
        while !shared.stop.load(Ordering::Acquire) {
            let Some(c) = conn.as_mut() else {
                errors.push("reader could not connect".to_string());
                break;
            };
            // Every run starts with a checksum poll, so the reader knows
            // the served snapshot before any refresh can land.
            let poll = n.is_multiple_of(STATS_EVERY);
            n += 1;
            requests += 1;
            std::thread::sleep(READER_PAUSE);
            if poll {
                match c.call("{\"op\":\"stats\"}") {
                    Ok((resp, _)) => {
                        let now = Instant::now();
                        let sum = Json::parse(resp).ok().and_then(|j| {
                            j.get("checksum").and_then(Json::as_str).map(String::from)
                        });
                        match sum {
                            Some(s) if s != checksum => {
                                if !checksum.is_empty() {
                                    let _ = out.send(ReaderMsg::Swapped(now));
                                }
                                checksum = s;
                            }
                            Some(_) => {}
                            None => errors.push(format!("stats -> {resp}")),
                        }
                    }
                    Err(e) => {
                        errors.push(format!("stats: {e}"));
                        conn = None;
                    }
                }
                continue;
            }
            let line = format!(
                "{{\"op\":\"membership\",\"object\":\"{}\"}}",
                shape.src_name(rng.below(shape.n_src))
            );
            let during = shared.refit_in_flight.load(Ordering::Acquire);
            match c.call(&line) {
                Ok((resp, lat)) if client::is_ok(resp) => {
                    if during {
                        refit.push(lat)
                    } else {
                        idle.push(lat)
                    }
                }
                Ok((resp, _)) => errors.push(format!("{line} -> {resp}")),
                Err(e) => {
                    errors.push(format!("{line}: {e}"));
                    conn = None;
                }
            }
        }
        let done = ReaderMsg::Done {
            idle,
            refit,
            errors,
            requests,
        };
        if out.send(done).is_err() {
            return;
        }
    }
}

/// The refresh policy of the write phase: background re-fits fired once
/// `threshold` commits are staged, at a fixed depth (two outer iterations
/// of fifteen EM iterations each, tolerances zero) so every refresh does
/// the same work whatever the seed; converged-early refreshes would make
/// `refresh_s` measure the seed's network rather than the refresh path.
pub fn refresh_policy(threshold: usize, cfg: &GenClusConfig) -> RefreshPolicy {
    RefreshPolicy {
        max_pending_objects: threshold,
        outer_iters: 2,
        em_iters: 15,
        em_tol: 0.0,
        gamma_tol: 0.0,
        base_config: Some(cfg.clone()),
        background: true,
        ..RefreshPolicy::default()
    }
}

/// Durable commits through a WAL-backed, background-refreshing server,
/// with a second connection reading throughout, for `budget` seconds (at
/// least one full commit → refresh cycle).
pub fn writes_phase(ctx: &mut Ctx, path: &Path, cfg: &GenClusConfig, budget: f64) {
    let snap = match Snapshot::load(path) {
        Ok(s) => s,
        Err(e) => return ctx.led.attempt(false, || format!("load for writes: {e}")),
    };
    ctx.cal.enter("writes");
    let base = snap.graph().n_objects();
    let threshold = ((base as f64 * REFRESH_SHARE) as usize).max(1);
    let policy = refresh_policy(threshold, cfg);
    let wal = ctx.tmp.join("commits.wal");
    let engine = match RefreshableEngine::with_wal(snap, ctx.threads, policy, &wal) {
        Ok((e, _)) => e,
        Err(e) => return ctx.led.attempt(false, || format!("open WAL: {e}")),
    };
    let server = match NetServer::bind("127.0.0.1:0", engine, NetConfig::default()) {
        Ok(s) => s,
        Err(e) => return ctx.led.attempt(false, || format!("bind: {e}")),
    };
    let addr = server.local_addr();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => return ctx.led.attempt(false, || format!("connect: {e}")),
    };
    let shared = Arc::new(ReaderShared {
        stop: AtomicBool::new(false),
        refit_in_flight: AtomicBool::new(false),
    });
    let (cmd_tx, cmd_rx) = channel();
    let (msg_tx, msg_rx) = channel();
    let reader_handle = {
        let (shape, seed, shared) = (ctx.shape, ctx.seed, shared.clone());
        std::thread::spawn(move || reader(addr, shape, seed, shared, cmd_rx, msg_tx))
    };

    let mut rng = Rng::new(ctx.seed, 30);
    let mut commit_lats = Vec::new();
    let mut raw_commit_lats = Vec::new();
    let mut idle_reads = Vec::new();
    let mut refit_reads = Vec::new();
    let mut refresh = Vec::new();
    let mut acked: Vec<String> = Vec::new();
    // (EM iterations, WAL records) after the first refresh: exact counts.
    let mut first_cycle = None;
    let start = Instant::now();

    // One run of the reader; returns its latencies after stopping it.
    let stop_reader = |ctx: &mut Ctx| -> (Vec<f64>, Vec<f64>) {
        shared.stop.store(true, Ordering::Release);
        loop {
            match msg_rx.recv_timeout(REFRESH_TIMEOUT) {
                Ok(ReaderMsg::Done {
                    idle,
                    refit,
                    errors,
                    requests,
                }) => {
                    ctx.led.attempted += requests.saturating_sub(errors.len()) as u64;
                    for e in errors {
                        ctx.led.attempt(false, || e);
                    }
                    shared.stop.store(false, Ordering::Release);
                    return (idle, refit);
                }
                Ok(ReaderMsg::Swapped(_)) => {}
                Err(_) => {
                    ctx.led.attempt(false, || "reader did not stop".into());
                    return (Vec::new(), Vec::new());
                }
            }
        }
    };

    'cycles: while start.elapsed().as_secs_f64() < budget || refresh.is_empty() {
        let mut staged = 0;
        while staged < threshold {
            let before = ctx.cal.reading();
            let disk_before = ctx.disk.reading();
            let _ = cmd_tx.send(ReaderCmd::Run);
            let n = COMMIT_WINDOW.min(threshold - staged);
            let mut window = Vec::with_capacity(n);
            let mut trigger = None;
            for _ in 0..n {
                let name = format!("new-{}", acked.len());
                let o = NewObject::draw(&mut rng, &ctx.shape);
                let line = gen::commit_line(&o, &ctx.shape, &name);
                staged += 1;
                match conn.call(&line) {
                    Ok((resp, lat)) => {
                        let checked = if client::is_ok(resp) {
                            client::check_fold_in(resp).map(|_| ())
                        } else {
                            Err(format!("{line} -> {resp}"))
                        };
                        if staged == threshold {
                            let started = resp.contains("\"refresh_started\":true");
                            shared.refit_in_flight.store(started, Ordering::Release);
                            trigger = Some(started.then(|| (Instant::now(), steal_s())));
                            ctx.led.attempt(started, || {
                                format!("commit {staged} of {threshold} did not start a refresh: {resp}")
                            });
                        }
                        ctx.led.attempt(checked.is_ok(), || checked.unwrap_err());
                        window.push(lat);
                        acked.push(name);
                    }
                    Err(e) => {
                        ctx.led.attempt(false, || format!("commit: {e}"));
                        break 'cycles;
                    }
                }
            }
            let disk_f = DiskCalibrator::factor(disk_before, ctx.disk.reading());
            let f;
            let mut during = Vec::new();
            if trigger == Some(None) {
                stop_reader(ctx);
                break 'cycles;
            }
            if let Some(Some((t0, stolen_at_trigger))) = trigger {
                // The re-fit is in flight: wait for the reader to see the
                // new snapshot; the readings around this sub-window bracket
                // the trigger and the swap.
                let mut seen = None;
                while seen.is_none() {
                    match msg_rx.recv_timeout(REFRESH_TIMEOUT) {
                        Ok(ReaderMsg::Swapped(t)) => seen = Some((t, steal_s())),
                        Ok(ReaderMsg::Done { .. }) => {}
                        Err(_) => break,
                    }
                }
                shared.refit_in_flight.store(false, Ordering::Release);
                let (idle, refit) = stop_reader(ctx);
                f = Calibrator::factor(before, ctx.cal.reading());
                idle_reads.extend(idle.iter().map(|x| x / f));
                during = refit;
                match seen {
                    Some((t1, stolen_at_swap)) => {
                        let wall = t1.duration_since(t0).as_secs_f64();
                        // The re-fit shares the vCPUs with the reader and
                        // its session, so it is cut by its share of the
                        // stolen time, as one thread would be.
                        refresh.push(ctx.cal.sample(wall, 1, stolen_at_trigger, stolen_at_swap));
                    }
                    None => {
                        ctx.led.attempt(false, || "refresh never landed".into());
                        break 'cycles;
                    }
                }
            } else {
                let (idle, _) = stop_reader(ctx);
                f = Calibrator::factor(before, ctx.cal.reading());
                idle_reads.extend(idle.iter().map(|x| x / f));
            }
            refit_reads.extend(during.iter().map(|x| x / f));
            commit_lats.extend(window.iter().map(|x| x / disk_f));
            raw_commit_lats.extend(window);
        }
        // Untimed: what the refresh did, and that every acked commit is in
        // the log (refreshes do not persist, so the log is never truncated).
        match conn.call("{\"op\":\"refresh_status\"}") {
            Ok((resp, _)) => {
                let j = Json::parse(resp).ok();
                let em = j
                    .as_ref()
                    .and_then(|j| j.get("last_outcome")?.get("em_iterations")?.as_f64());
                let wal_records = j.as_ref().and_then(|j| j.get("wal_records")?.as_f64());
                ctx.led
                    .attempt(em.is_some(), || format!("refresh_status: {resp}"));
                first_cycle = first_cycle.or(em.zip(wal_records));
                ctx.led
                    .attempt(wal_records == Some(acked.len() as f64), || {
                        format!(
                            "WAL holds {wal_records:?} records for {} acked commits",
                            acked.len()
                        )
                    });
            }
            Err(e) => ctx.led.attempt(false, || format!("refresh_status: {e}")),
        }
    }
    let _ = cmd_tx.send(ReaderCmd::Exit);
    let _ = reader_handle.join();

    if let Some((em, records)) = first_cycle {
        ctx.led.exact_count("serve.refresh.em_iters", em);
        ctx.led.exact_count("serve.wal.records", records);
        ctx.layer("serve.refresh.em_iters", em);
    }
    ctx.led
        .diag
        .insert("refreshes".into(), refresh.len() as f64);
    ctx.led.diag.insert("commits".into(), acked.len() as f64);
    ctx.led
        .diag
        .insert("refresh_threshold".into(), threshold as f64);
    ctx.bulk_e2e("refresh_s", &refresh);
    // Unlike the fits', the write phase's readings are many (two per
    // 100-commit window) and taken beside light work, and they do track
    // the re-fits.
    let f = ctx.cal.phase_factor("writes");
    if let Some(v) = ctx.led.e2e.get_mut("refresh_s") {
        *v /= f;
    }
    ctx.led
        .e2e
        .insert("commit_p50_us", quantile(&commit_lats, 0.5) * 1e6);
    ctx.led.diag.insert(
        "raw.commit_p50_us".into(),
        quantile(&raw_commit_lats, 0.5) * 1e6,
    );
    ctx.led
        .diag
        .insert("commit_p99_us".into(), quantile(&commit_lats, 0.99) * 1e6);
    ctx.led
        .diag
        .insert("commit_samples".into(), commit_lats.len() as f64);
    ctx.led
        .e2e
        .insert("refresh_read_p50_us", quantile(&refit_reads, 0.5) * 1e6);
    ctx.led.diag.insert(
        "refresh_read_p99_us".into(),
        quantile(&refit_reads, 0.99) * 1e6,
    );
    ctx.led
        .diag
        .insert("refresh_read_samples".into(), refit_reads.len() as f64);
    ctx.led
        .diag
        .insert("idle_read_p50_us".into(), median(&idle_reads) * 1e6);
    if ctx.trace {
        server_registry(ctx, addr, "writes");
    }
    drop(conn);
    // Every acked commit must resolve by name in the refreshed snapshot.
    let engine = server.shutdown();
    let served = engine.engine();
    let missing = acked
        .iter()
        .filter(|name| match served.graph().object_by_name(name) {
            Some(v) => !client::on_simplex(served.snapshot().model().membership(v)),
            None => true,
        })
        .count();
    ctx.led.attempt(missing == 0, || {
        format!(
            "{missing} of {} acked commits missing from the refreshed snapshot",
            acked.len()
        )
    });
}
