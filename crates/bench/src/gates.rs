//! The bench gates: every performance threshold the reproduction holds
//! itself to, measured in one run and decided by one function.
//!
//! ```text
//! cargo run --release -p genclus-bench --bin bench_gates -- [--quick] [--out <path>]
//! ```
//!
//! The paper makes two claims worth gating: the EM iteration is cheap
//! (its Fig. 11 efficiency study), and strengths and clusters refine each
//! other, so a warm re-fit of a grown network is cheaper than a cold one.
//! The serving layer adds three promises on top: batching never costs
//! throughput, the always-on metrics registry is near-free, and a
//! background refresh keeps queries answering during a re-fit. The gates:
//!
//! | gate | threshold | compared configuration |
//! |---|---|---|
//! | `kernel` | naive / optimized ≥ 1.5× | one EM step, weather 2000 objects, nobs=20, 4 threads |
//! | `size_sweep` | ≤ 5.0 µs/object/iter, ≤ 1024 B/object peak RSS at ≥ 100k | the optimized step on every [`SCALED_REGISTRY`] preset, up to `weather-1m`, 4 threads |
//! | `batching` | batch-256 / batch-1 q/s ≥ 1.0 | the mixed fold-in/top-k stream, 1 worker |
//! | `metrics` | metrics-on / metrics-off q/s ≥ 0.97 | the mixed stream at batch 16 |
//! | `fanout` | N=64 p99 ≤ max(16 × N=1 p99, 2 ms × 64) | open-loop TCP reads, best of 3 passes |
//! | `stall` | inline p99 / background p99 ≥ 5× | open-loop reads during one refresh |
//!
//! Warm < cold in EM iterations is a deterministic count, so it is a unit
//! test of this module rather than a timed gate.
//!
//! The three ratio gates marked *paired* in [`GatesReport`] (`kernel`,
//! `batching`, `metrics`) run their two sides in adjacent passes,
//! alternating which side goes first, over an odd number of pairs; the
//! gate reads the median of the per-pair ratios, and the artifact records
//! every pair. A host whose speed drifts between passes moves both sides
//! of a pair together, so the ratio sees the code, not the drift.
//!
//! [`violations`] decides every gate; `bench_gates` exits non-zero in
//! full mode when it returns anything. Quick mode (CI smoke) shrinks
//! every fixture, runs 3 pairs and caps the sweep at 100k objects; it
//! reports violations without failing.

use crate::quantiles::{latency_histogram, quantile_seconds};
use crate::rss;
use genclus_core::attr_model::ClusterComponents;
use genclus_core::em::EmEngine;
use genclus_core::em_reference::ReferenceEmKernel;
use genclus_core::{GenClus, GenClusConfig, GenClusModel};
use genclus_datagen::scaled::{ScaledSpec, SCALED_REGISTRY};
use genclus_datagen::weather::{generate, PatternSetting, WeatherConfig, WeatherNetwork};
use genclus_hin::{AttributeId, GraphDelta, HinGraph, ObjectId, ObjectTypeId, RelationId};
use genclus_serve::{
    FoldInEngine, FoldInRequest, Json, NetConfig, NetServer, QueryEngine, RefreshPolicy,
    RefreshableEngine, ServeError, ServeMetrics, Snapshot,
};
use genclus_stats::MembershipMatrix;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Clusters of every fixture.
pub const K: usize = 4;

/// `kernel`: the naive EM step must take at least this many times the
/// optimized one.
pub const KERNEL_SPEEDUP_GATE: f64 = 1.5;

/// `size_sweep` time gate: median EM microseconds per object, per
/// iteration. The EM step is linear in objects + links + observations, so
/// per-object cost is size-independent; an accidental `O(n²)` path or
/// per-object allocation storm blows straight through this ceiling.
pub const SWEEP_US_PER_OBJECT_GATE: f64 = 5.0;

/// `size_sweep` memory gate: peak RSS bytes per object. The interned-arena
/// layout costs ~0.5 KB/object all-in on the sweep shapes; reverting to
/// per-object heap structures or leaking a copy of the network trips it.
pub const SWEEP_RSS_BYTES_PER_OBJECT_GATE: f64 = 1024.0;

/// Objects below which the RSS gate is not applied (the process baseline
/// distorts the per-object figure of small networks).
pub const SWEEP_RSS_GATE_MIN_OBJECTS: usize = 100_000;

/// `batching`: batch-256 throughput over batch-1 throughput.
pub const BATCHING_GATE: f64 = 1.0;

/// `metrics`: metrics-on throughput over metrics-off throughput.
pub const METRICS_GATE: f64 = 0.97;

/// `fanout`: the N=64 p99 may be this many times the N=1 p99 …
pub const FANOUT_P99_RATIO_GATE: f64 = 16.0;

/// … or this many milliseconds per client, whichever is larger. On a
/// machine with fewer cores than clients each client thread can wait
/// ~(clients / cores) timeslices just to be scheduled; a serialization
/// collapse on the serving path queues without bound at fixed offered
/// load and blows far past it.
pub const FANOUT_ALLOWANCE_MS_PER_CLIENT: f64 = 2.0;

/// `stall`: inline p99 over background p99 during a refresh.
pub const STALL_GATE: f64 = 5.0;

/// Open-loop arrival spacing of the stall measurement (ms).
const QUERY_INTERVAL_MS: f64 = 0.5;

/// A/B pairs per paired gate (odd, so the median is one pair's ratio).
fn pairs(quick: bool) -> usize {
    if quick {
        3
    } else {
        7
    }
}

/// One A/B comparison taken in adjacent passes. The gate reads the median
/// of `a / b` over the pairs.
#[derive(Debug, Clone)]
pub struct Paired {
    /// The compared configuration.
    pub config: String,
    /// What side `a` measures.
    pub a: &'static str,
    /// What side `b` measures.
    pub b: &'static str,
    /// Unit of both sides.
    pub unit: &'static str,
    /// `(a, b)` per pair; pair `i` ran `a` first when `i` is even.
    pub pairs: Vec<(f64, f64)>,
}

impl Paired {
    /// `a / b` per pair.
    pub fn ratios(&self) -> Vec<f64> {
        self.pairs.iter().map(|&(a, b)| a / b).collect()
    }

    /// Median of the per-pair ratios (the upper middle for an even count;
    /// NaN with no pairs, which fails every gate).
    pub fn median_ratio(&self) -> f64 {
        let mut r = self.ratios();
        if r.is_empty() {
            return f64::NAN;
        }
        r.sort_by(f64::total_cmp);
        r[r.len() / 2]
    }
}

/// Runs `pairs` adjacent A/B passes, alternating which side goes first.
fn run_paired(
    pairs: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> Vec<(f64, f64)> {
    (0..pairs)
        .map(|i| {
            if i % 2 == 0 {
                let x = a();
                (x, b())
            } else {
                let y = b();
                (a(), y)
            }
        })
        .collect()
}

/// One size-sweep cell: the optimized kernel on a [`SCALED_REGISTRY`]
/// preset, recording both time *and* memory.
#[derive(Debug, Clone)]
pub struct SizeSweepCell {
    /// Preset name (`weather-100k`, …).
    pub dataset: &'static str,
    /// Objects in the network.
    pub n_objects: usize,
    /// Directed links in the network.
    pub n_links: usize,
    /// Worker threads.
    pub threads: usize,
    /// Wall seconds to build the network (context, not gated).
    pub build_seconds: f64,
    /// Median milliseconds per EM iteration.
    pub ms_per_iter: f64,
    /// Peak RSS (`VmHWM`) after the cell, bytes; `None` off Linux.
    pub peak_rss_bytes: Option<u64>,
    /// Whether the peak counter was reset before the cell (per-cell peak)
    /// or left monotone (upper bound; cells run smallest-first).
    pub rss_reset: bool,
}

impl SizeSweepCell {
    /// Median EM microseconds per object per iteration.
    pub fn us_per_object(&self) -> f64 {
        self.ms_per_iter * 1e3 / self.n_objects as f64
    }

    /// Peak RSS bytes per object.
    pub fn rss_bytes_per_object(&self) -> Option<f64> {
        self.peak_rss_bytes
            .map(|b| b as f64 / self.n_objects as f64)
    }
}

/// One open-loop multi-client cell, summarized.
#[derive(Debug, Clone)]
pub struct FanoutCell {
    /// Concurrent TCP connections.
    pub clients: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Median latency from scheduled arrival to response (ms).
    pub p50_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// Achieved requests/sec.
    pub qps: f64,
}

/// The same offered read load through 1 and through 64 TCP connections.
#[derive(Debug, Clone)]
pub struct Fanout {
    /// Total offered load of both cells (requests/sec).
    pub offered_qps: f64,
    /// N = 1.
    pub one: FanoutCell,
    /// N = 64.
    pub many: FanoutCell,
}

/// Query latency while one refresh runs, summarized.
#[derive(Debug, Clone)]
pub struct StallCell {
    /// Trigger → swap wall time of the re-fit (ms).
    pub refresh_wall_ms: f64,
    /// Queries whose scheduled arrival fell inside the refresh window.
    pub queries_during_refresh: usize,
    /// Median latency of those queries (ms).
    pub p50_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// Worst latency (ms).
    pub max_ms: f64,
}

/// The inline (loop-blocking) refresh against the background one.
#[derive(Debug, Clone)]
pub struct Stall {
    /// Inline re-fit.
    pub inline: StallCell,
    /// Background re-fit.
    pub background: StallCell,
}

impl Stall {
    /// Inline p99 over background p99.
    pub fn reduction(&self) -> f64 {
        self.inline.p99_ms / self.background.p99_ms.max(1e-9)
    }
}

/// Everything one `bench_gates` run measured.
#[derive(Debug, Clone)]
pub struct GatesReport {
    /// `full` or `quick`.
    pub mode: &'static str,
    /// Paired: naive over optimized EM-step milliseconds.
    pub kernel: Paired,
    /// The optimized kernel on the scaled presets.
    pub size_sweep: Vec<SizeSweepCell>,
    /// Paired: batch-256 over batch-1 mixed throughput.
    pub batching: Paired,
    /// Paired: metrics-on over metrics-off mixed throughput.
    pub metrics: Paired,
    /// TCP reads through 1 vs 64 connections.
    pub fanout: Fanout,
    /// Query latency during an inline vs a background refresh.
    pub stall: Stall,
}

/// Decides every gate: one message per violation, empty when all hold.
pub fn violations(r: &GatesReport) -> Vec<String> {
    let mut v = Vec::new();
    for (name, p, gate) in [
        ("kernel", &r.kernel, KERNEL_SPEEDUP_GATE),
        ("batching", &r.batching, BATCHING_GATE),
        ("metrics", &r.metrics, METRICS_GATE),
    ] {
        let m = p.median_ratio();
        if m.is_nan() || m < gate {
            v.push(format!(
                "{name}: median {} / {} is {m:.3}x over {} pairs (gate: >= {gate}x)",
                p.a,
                p.b,
                p.pairs.len()
            ));
        }
    }
    for c in &r.size_sweep {
        let us = c.us_per_object();
        if us > SWEEP_US_PER_OBJECT_GATE {
            v.push(format!(
                "size_sweep {}: {us:.2} µs/object per EM iteration \
                 (gate: {SWEEP_US_PER_OBJECT_GATE} µs)",
                c.dataset
            ));
        }
        let rss = c.rss_bytes_per_object().unwrap_or(0.0);
        if c.n_objects >= SWEEP_RSS_GATE_MIN_OBJECTS && rss > SWEEP_RSS_BYTES_PER_OBJECT_GATE {
            v.push(format!(
                "size_sweep {}: peak RSS {rss:.0} bytes/object \
                 (gate: {SWEEP_RSS_BYTES_PER_OBJECT_GATE} bytes)",
                c.dataset
            ));
        }
    }
    let (one, many) = (&r.fanout.one, &r.fanout.many);
    let allowance_ms = FANOUT_ALLOWANCE_MS_PER_CLIENT * many.clients as f64;
    if many.p99_ms > (FANOUT_P99_RATIO_GATE * one.p99_ms).max(allowance_ms) {
        v.push(format!(
            "fanout: open-loop p99 at N={} is {:.3} ms vs {:.3} ms at N={} \
             (gate: {FANOUT_P99_RATIO_GATE}x or {allowance_ms:.0} ms)",
            many.clients, many.p99_ms, one.p99_ms, one.clients
        ));
    }
    let stall = r.stall.reduction();
    if stall.is_nan() || stall < STALL_GATE {
        v.push(format!(
            "stall: inline p99 {:.3} ms is only {stall:.2}x the background p99 {:.3} ms \
             (gate: >= {STALL_GATE}x)",
            r.stall.inline.p99_ms, r.stall.background.p99_ms
        ));
    }
    v
}

/// Runs every gate once, fixtures built once each and dropped before the
/// size sweep reads its per-cell peak RSS. Quick mode stops the sweep at
/// the 100k presets.
pub fn run_gates(quick: bool) -> GatesReport {
    let sweep: Vec<ScaledSpec> = SCALED_REGISTRY
        .iter()
        .copied()
        .filter(|s| !quick || s.n_objects <= 100_000)
        .collect();
    run(quick, &sweep)
}

fn run(quick: bool, sweep: &[ScaledSpec]) -> GatesReport {
    let kernel = measure_kernel(quick);
    let (batching, metrics, fanout) = {
        let fixture = ServeFixture::build(quick);
        (
            measure_batching(quick, &fixture),
            measure_metrics(quick, &fixture),
            measure_fanout(quick, &fixture),
        )
    };
    let stall = {
        let fixture = RefreshFixture::build(quick);
        Stall {
            inline: measure_stall(quick, &fixture, false),
            background: measure_stall(quick, &fixture, true),
        }
    };
    let (threads, samples) = if quick { (2, 2) } else { (4, 5) };
    let size_sweep = run_size_sweep(sweep, threads, samples);
    GatesReport {
        mode: if quick { "quick" } else { "full" },
        kernel,
        size_sweep,
        batching,
        metrics,
        fanout,
        stall,
    }
}

/// The `bench_gates --quick` run minus the sweep, measured once per test
/// binary and shared by the quick-run test of every section. The 100k
/// presets belong to the release-mode smoke run; the sweep has its own
/// test on shrunken presets.
#[cfg(test)]
pub(crate) fn quick_report() -> &'static GatesReport {
    static REPORT: std::sync::OnceLock<GatesReport> = std::sync::OnceLock::new();
    REPORT.get_or_init(|| run(true, &[]))
}

/// Asserts that a quick-run comparison measured 3 positive, finite pairs.
#[cfg(test)]
pub(crate) fn assert_measured(p: &Paired) {
    assert_eq!(p.pairs.len(), 3, "{}", p.config);
    for &(a, b) in &p.pairs {
        assert!(
            a > 0.0 && a.is_finite() && b > 0.0 && b.is_finite(),
            "{p:?}"
        );
    }
}

/// Times `step()`: one untimed call, then the median of `samples` timed
/// ones, in milliseconds.
fn median_ms<R>(mut step: impl FnMut() -> R, samples: usize) -> f64 {
    std::hint::black_box(step());
    let mut s: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(step());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

/// A fixed random starting state `(Θ, β, γ)` for one EM step on `graph`.
fn em_start(
    graph: &HinGraph,
    attrs: &[AttributeId],
    seed: u64,
) -> (MembershipMatrix, Vec<ClusterComponents>, Vec<f64>) {
    let mut rng = genclus_stats::seeded_rng(seed);
    let theta = MembershipMatrix::random(graph.n_objects(), K, &mut rng);
    let comps = attrs
        .iter()
        .map(|&a| ClusterComponents::init(K, graph.attribute(a), &mut rng, 1e-9, 1e-6))
        .collect();
    (theta, comps, vec![1.0; graph.schema().n_relations()])
}

/// `kernel`: one EM step, optimized ([`EmEngine`]: cached log tables,
/// reusable scratch, persistent pool) against naive
/// ([`ReferenceEmKernel`]: `ln` per observation, fresh allocations, a
/// scoped spawn per step), on the paper's largest Fig. 11 network.
fn measure_kernel(quick: bool) -> Paired {
    let (n_temp, n_precip, n_obs, threads, samples) = if quick {
        (120, 80, 5, 2, 3)
    } else {
        (1000, 1000, 20, 4, 15)
    };
    let net = weather(n_temp, n_precip, n_obs);
    let attrs = [net.temp_attr, net.precip_attr];
    let (theta, comps, gamma) = em_start(&net.graph, &attrs, 1);
    let mut optimized = EmEngine::new(&net.graph, &attrs, K, threads, 1e-9, 1e-6);
    let naive = ReferenceEmKernel::new(&net.graph, &attrs, K, threads, 1e-9, 1e-6);
    let pairs = run_paired(
        pairs(quick),
        || median_ms(|| naive.step(&theta, &comps, &gamma), samples),
        || median_ms(|| optimized.step(&theta, &comps, &gamma), samples),
    );
    Paired {
        config: format!(
            "weather {} objects, nobs={n_obs}, {threads} threads",
            n_temp + n_precip
        ),
        a: "naive",
        b: "optimized",
        unit: "ms per EM iteration",
        pairs,
    }
}

/// `size_sweep`: the optimized kernel over `specs` (smallest first), one
/// cell per preset, resetting the peak-RSS counter between cells when the
/// kernel allows it.
fn run_size_sweep(specs: &[ScaledSpec], threads: usize, samples: usize) -> Vec<SizeSweepCell> {
    let mut cells = Vec::new();
    for spec in specs {
        let rss_reset = rss::reset_peak_rss();
        let build_start = Instant::now();
        let net = spec.build();
        let build_seconds = build_start.elapsed().as_secs_f64();
        let (theta, comps, gamma) = em_start(&net.graph, &net.attrs, 3);
        let mut engine = EmEngine::new(&net.graph, &net.attrs, K, threads, 1e-9, 1e-6);
        let ms_per_iter = median_ms(|| engine.step(&theta, &comps, &gamma), samples);
        cells.push(SizeSweepCell {
            dataset: spec.name,
            n_objects: net.graph.n_objects(),
            n_links: net.graph.n_links(),
            threads,
            build_seconds,
            ms_per_iter,
            peak_rss_bytes: rss::peak_rss_bytes(),
            rss_reset,
        });
    }
    cells
}

/// A weather network of the paper's generator (Setting 1, 5 neighbours).
fn weather(n_temp: usize, n_precip: usize, n_obs: usize) -> WeatherNetwork {
    generate(&WeatherConfig {
        n_temp,
        n_precip,
        k_neighbors: 5,
        n_obs,
        pattern: PatternSetting::Setting1,
        seed: 7,
    })
}

/// Deterministic request-stream generator (xorshift; no RNG dependency).
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// The serving fixture: one fitted weather network, snapshotted, plus the
/// mixed request stream the throughput gates replay.
struct ServeFixture {
    snapshot_bytes: Vec<u8>,
    n_temp: usize,
    /// Alternating fold-in (half with readings, half with every attribute
    /// missing) and top-k requests.
    mixed: Vec<String>,
}

impl ServeFixture {
    fn build(quick: bool) -> Self {
        let (n_temp, n_precip, n_obs, outer, queries) = if quick {
            (120, 40, 5, 2, 256)
        } else {
            (1000, 250, 20, 4, 4096)
        };
        let net = weather(n_temp, n_precip, n_obs);
        let fit_cfg = GenClusConfig::new(K, vec![net.temp_attr, net.precip_attr])
            .with_seed(11)
            .with_outer_iters(outer);
        let fit = GenClus::new(fit_cfg)
            .expect("valid config")
            .fit(&net.graph)
            .expect("fit succeeds");
        let mut next = xorshift(0x9e3779b97f4a7c15);
        let mixed = (0..queries)
            .map(|i| {
                let q = next() as usize % n_temp;
                if i % 2 == 1 {
                    return format!(
                        r#"{{"id":{i},"op":"top_k","object":"T{q}","k":10,"sim":"cosine","type":"temp_sensor"}}"#
                    );
                }
                let (b, c) = (next() as usize % n_temp, next() as usize % n_temp);
                let readings = if i % 4 == 0 {
                    format!(
                        r#","values":{{"temperature":[{}]}}"#,
                        (next() % 400) as f64 / 100.0
                    )
                } else {
                    String::new()
                };
                format!(
                    r#"{{"id":{i},"op":"fold_in","links":[["tt","T{q}",1.0],["tt","T{b}",1.0],["tt","T{c}",1.0]]{readings}}}"#
                )
            })
            .collect();
        Self {
            snapshot_bytes: genclus_serve::snapshot::to_bytes(&net.graph, &fit.model),
            n_temp,
            mixed,
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot::from_bytes(&self.snapshot_bytes).expect("fixture snapshot loads")
    }

    /// A one-worker engine with metrics enabled (the serving default) or
    /// disabled (no clock reads, no histogram writes).
    fn engine(&self, metrics: bool) -> QueryEngine {
        let registry = if metrics {
            ServeMetrics::new()
        } else {
            ServeMetrics::disabled()
        };
        QueryEngine::with_metrics(self.snapshot(), 1, Arc::new(registry))
    }
}

/// Sustained queries/sec of `lines` sent in batches of `batch_size`, after
/// one untimed warmup batch.
fn measure_qps(engine: &QueryEngine, lines: &[String], batch_size: usize) -> f64 {
    let _ = engine.handle_batch(&lines[..batch_size.min(lines.len())]);
    let start = Instant::now();
    for batch in lines.chunks(batch_size) {
        let responses = engine.handle_batch(batch);
        assert_eq!(responses.len(), batch.len());
    }
    lines.len() as f64 / start.elapsed().as_secs_f64()
}

/// `batching`: amortizing dispatch over a batch must never lose
/// throughput.
fn measure_batching(quick: bool, fixture: &ServeFixture) -> Paired {
    let engine = fixture.engine(true);
    let pairs = run_paired(
        pairs(quick),
        || measure_qps(&engine, &fixture.mixed, 256),
        || measure_qps(&engine, &fixture.mixed, 1),
    );
    Paired {
        config: format!(
            "mixed fold_in/top_k, {} queries, 1 worker",
            fixture.mixed.len()
        ),
        a: "batch-256",
        b: "batch-1",
        unit: "queries per second",
        pairs,
    }
}

/// `metrics`: two engines decoded from the same snapshot bytes, registry
/// enabled (one `Instant` pair plus one lock-free histogram record per
/// request) against disabled. `{"op":"metrics"}` is only cheap to promise
/// if this ratio stays ≈ 1.
fn measure_metrics(quick: bool, fixture: &ServeFixture) -> Paired {
    const BATCH: usize = 16;
    let (on, off) = (fixture.engine(true), fixture.engine(false));
    let pairs = run_paired(
        pairs(quick),
        || measure_qps(&on, &fixture.mixed, BATCH),
        || measure_qps(&off, &fixture.mixed, BATCH),
    );
    Paired {
        config: format!("mixed fold_in/top_k at batch {BATCH}, 1 worker"),
        a: "metrics-on",
        b: "metrics-off",
        unit: "queries per second",
        pairs,
    }
}

/// Summarizes open-loop latencies (seconds) into a cell.
fn fanout_cell(clients: usize, latencies: &[f64], wall_seconds: f64) -> FanoutCell {
    let h = latency_histogram(latencies);
    FanoutCell {
        clients,
        requests: latencies.len(),
        p50_ms: quantile_seconds(&h, 0.50) * 1e3,
        p99_ms: quantile_seconds(&h, 0.99) * 1e3,
        qps: latencies.len() as f64 / wall_seconds,
    }
}

/// `fanout`: the TCP front-end ([`NetServer`]) on loopback, open-loop.
/// Read requests (membership / top-k) arrive on a fixed global schedule
/// split across N connections; a short closed-loop calibration sets the
/// offered load at ~50% of the single-connection service rate, and both
/// cells (N = 1, N = 64) are driven at that same total rate, so the
/// comparison isolates what concurrency itself costs. Latency is charged
/// from the scheduled arrival: a client that falls behind keeps the
/// schedule, so queueing shows up in p99 instead of being coordinated
/// away. Each cell keeps its best (lowest-p99) of 3 alternating passes.
fn measure_fanout(quick: bool, fixture: &ServeFixture) -> Fanout {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let engine = RefreshableEngine::new(fixture.snapshot(), 1, RefreshPolicy::default());
    let server = NetServer::bind("127.0.0.1:0", engine, NetConfig::default())
        .expect("bind bench server on loopback");
    let addr = server.local_addr();
    let n_temp = fixture.n_temp;
    let read = |i: usize, q: usize| {
        if i.is_multiple_of(2) {
            format!(r#"{{"op":"membership","object":"T{q}"}}"#)
        } else {
            format!(
                r#"{{"op":"top_k","object":"T{q}","k":10,"sim":"cosine","type":"temp_sensor"}}"#
            )
        }
    };
    let connect = move || {
        let stream = TcpStream::connect(addr).expect("bench client connect");
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone().expect("clone bench stream"));
        (stream, reader)
    };
    let roundtrip = |stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str| {
        writeln!(stream, "{line}").expect("bench request write");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("bench response read");
        assert!(resp.contains("\"ok\":true"), "bench query failed: {resp}");
    };

    let mean_rtt = {
        let (mut stream, mut reader) = connect();
        let mut next = xorshift(0x9e3779b97f4a7c15);
        let mut request = |i| read(i, next() as usize % n_temp);
        for i in 0..8 {
            roundtrip(&mut stream, &mut reader, &request(i));
        }
        let calibration = 64;
        let start = Instant::now();
        for i in 0..calibration {
            roundtrip(&mut stream, &mut reader, &request(i));
        }
        start.elapsed().as_secs_f64() / calibration as f64
    };
    let interval = Duration::from_secs_f64((mean_rtt * 2.0).max(1e-5));

    let total_requests = if quick { 256 } else { 2048 };
    let run_cell = |clients: usize| -> FanoutCell {
        let per_client = total_requests / clients;
        let barrier = Arc::new(std::sync::Barrier::new(clients + 1));
        let handles: Vec<_> = (0..clients)
            .map(|who| {
                let barrier = Arc::clone(&barrier);
                // Per-client request streams, rendered off the clock.
                let mut next = xorshift(0x9e3779b97f4a7c15);
                let lines: Vec<String> = (0..per_client)
                    .map(|i| read(i + who, (next() as usize).wrapping_add(who * 7919) % n_temp))
                    .collect();
                std::thread::spawn(move || {
                    let (mut stream, mut reader) = connect();
                    barrier.wait();
                    let t0 = Instant::now();
                    let mut latencies = Vec::with_capacity(lines.len());
                    for (i, line) in lines.iter().enumerate() {
                        // Global arrival i*clients + who: the schedule
                        // interleaves all clients at the common rate.
                        let due = interval * (i * clients + who) as u32;
                        if let Some(wait) = due.checked_sub(t0.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        roundtrip(&mut stream, &mut reader, line);
                        latencies.push((t0.elapsed() - due).as_secs_f64());
                    }
                    latencies
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut latencies = Vec::with_capacity(total_requests);
        for h in handles {
            latencies.extend(h.join().expect("bench client thread"));
        }
        fanout_cell(clients, &latencies, start.elapsed().as_secs_f64())
    };

    let best = |a: FanoutCell, b: FanoutCell| if b.p99_ms < a.p99_ms { b } else { a };
    let mut one = run_cell(1);
    let mut many = run_cell(64);
    for _ in 1..if quick { 1 } else { 3 } {
        one = best(one, run_cell(1));
        many = best(many, run_cell(64));
    }
    server.shutdown();
    Fanout {
        offered_qps: 1.0 / interval.as_secs_f64(),
        one,
        many,
    }
}

/// One staged arrival, replayable through
/// [`RefreshableEngine::commit_with_links`] so the stall measurement grows
/// the engine exactly like the fixture grew the graph.
struct Arrival {
    name: String,
    obj_type: ObjectTypeId,
    req: FoldInRequest,
    /// The old→new back-link `(relation, old source, weight)`.
    in_link: (RelationId, ObjectId, f64),
}

/// A fitted weather network grown by ~10% new sensors, staged the way the
/// serving layer's refresh queue stages commits: the `stall` gate replays
/// the growth through a serving engine, and this module's warm < cold test
/// re-fits the grown graph.
pub struct RefreshFixture {
    /// The appended graph.
    pub graph: HinGraph,
    /// The served `(Θ, β, γ)` with fold-in rows covering the new objects.
    pub warm: GenClusModel,
    /// Hyperparameters of the base fit (and of both re-fits).
    pub base_cfg: GenClusConfig,
    /// Name of one appended temperature sensor.
    pub new_sensor: String,
    /// The base fit, serialized.
    snapshot_bytes: Vec<u8>,
    /// The staged growth, replayable through the serving engine.
    arrivals: Vec<Arrival>,
}

impl RefreshFixture {
    /// Fits the base network (1000 temperature + 250 precipitation
    /// sensors, nobs=5; 120 + 40 in quick mode) and stages ~10% growth
    /// like the serving layer's refresh queue: fold-in rows under the
    /// frozen model (staged rows addressable, so staged→staged links fold
    /// in), the topology in a `GraphDelta`. The growth covers every link
    /// class `append` merges: new→old (the classic fold-in links),
    /// **old→new** (each arrival is also linked *from* one of its existing
    /// targets, so the old source's out-link segment grows) and
    /// **staged→staged** (arrivals after the first link to an earlier
    /// arrival of the same ring).
    pub fn build(quick: bool) -> Self {
        let net = if quick {
            weather(120, 40, 5)
        } else {
            weather(1000, 250, 5)
        };
        let base_cfg = GenClusConfig::new(K, vec![net.temp_attr, net.precip_attr])
            .with_seed(11)
            .with_threads(1)
            .with_outer_iters(if quick { 3 } else { 5 });
        let fit = GenClus::new(base_cfg.clone())
            .expect("valid config")
            .fit(&net.graph)
            .expect("base fit succeeds");

        // Each new sensor belongs to a planted ring, links to existing
        // sensors of that ring, and carries observations near that ring's
        // pattern mean.
        let mut next = xorshift(0x243f6a8885a308d3);
        let n_temp = net.temp_sensors.len();
        let n_new_temp = n_temp / 10;
        let n_new_precip = net.precip_sensors.len() / 10;
        let means = PatternSetting::Setting1.means();
        // Existing temperature sensors by ground-truth ring. Every new
        // link targets a temperature sensor: `tt` from new temperature
        // sensors, `pt` from new precipitation sensors.
        let temp_by_ring: Vec<Vec<usize>> = (0..K)
            .map(|c| (0..n_temp).filter(|&i| net.labels[i] == c).collect())
            .collect();
        let schema = net.graph.schema();
        let temp_type = schema.object_type_by_name("temp_sensor").unwrap();
        let precip_type = schema.object_type_by_name("precip_sensor").unwrap();

        let mut delta = GraphDelta::new(&net.graph);
        let mut new_sensor = String::new();
        let mut arrivals = Vec::new();
        // Fold-in rows under the frozen model, built incrementally so later
        // arrivals can link to earlier staged ones.
        let mut staged_rows: Vec<Vec<f64>> = Vec::new();
        let mut staged_types: Vec<ObjectTypeId> = Vec::new();
        let mut staged_temp_by_ring: Vec<Vec<ObjectId>> = vec![Vec::new(); K];
        for i in 0..n_new_temp + n_new_precip {
            let is_temp = i < n_new_temp;
            let ring = next() as usize % K;
            let (rel, back_rel, obj_type, attr, mean, anchor, name) = if is_temp {
                (
                    net.relations.tt,
                    net.relations.tt,
                    temp_type,
                    net.temp_attr,
                    means[ring].0,
                    net.temp_sensors[0],
                    format!("NT{i}"),
                )
            } else {
                (
                    net.relations.pt,
                    net.relations.tp,
                    precip_type,
                    net.precip_attr,
                    means[ring].1,
                    net.precip_sensors[0],
                    format!("NP{}", i - n_new_temp),
                )
            };
            if new_sensor.is_empty() {
                new_sensor = name.clone();
            }
            let mut req = FoldInRequest::default();
            let pool = &temp_by_ring[ring];
            for _ in 0..3 {
                let target = net.temp_sensors[pool[next() as usize % pool.len()]];
                req.links.push((rel, target, 1.0));
            }
            if let Some(&earlier) = staged_temp_by_ring[ring].last() {
                req.links.push((rel, earlier, 1.0));
            }
            // The population's observation count, read from an anchor of
            // the same type (each sensor type carries only its attribute).
            let n_values = net.graph.attribute(attr).values(anchor).len().max(1);
            let values = (0..n_values)
                .map(|_| mean + ((next() % 400) as f64 / 1000.0 - 0.2))
                .collect();
            req.values.push((attr, values));

            let folded = FoldInEngine::new(&fit.model, &net.graph)
                .with_staged(&staged_rows, &staged_types)
                .assign(&req)
                .expect("fold-in succeeds");
            let v = delta.add_object(obj_type, name.clone());
            for &(r, target, w) in &req.links {
                delta
                    .add_link(v, target, r, w)
                    .expect("staged links are valid");
            }
            // Old→new: the first existing target also links to the arrival.
            let first_old_target = req.links[0].1;
            delta
                .add_link(first_old_target, v, back_rel, 1.0)
                .expect("old-source links are valid");
            for (a, vals) in &req.values {
                for &x in vals {
                    delta
                        .add_numeric(v, *a, x)
                        .expect("staged values are valid");
                }
            }
            arrivals.push(Arrival {
                name,
                obj_type,
                req,
                in_link: (back_rel, first_old_target, 1.0),
            });
            staged_rows.push(folded.theta);
            staged_types.push(obj_type);
            if is_temp {
                staged_temp_by_ring[ring].push(v);
            }
        }

        let mut rows: Vec<Vec<f64>> = (0..fit.model.theta.n_objects())
            .map(|i| fit.model.theta.row(i).to_vec())
            .collect();
        rows.extend(staged_rows);
        assert!(
            delta
                .staged_links()
                .any(|(src, ..)| src.index() < delta.base_objects()),
            "the grow workload must exercise old-source links"
        );
        let mut graph = net.graph.clone();
        graph.append(delta).expect("append succeeds");
        let warm = GenClusModel {
            theta: MembershipMatrix::from_rows(&rows, K),
            gamma: fit.model.gamma.clone(),
            components: fit.model.components.clone(),
            attributes: fit.model.attributes.clone(),
            theta_smoothing: fit.model.theta_smoothing,
        };
        Self {
            graph,
            warm,
            base_cfg,
            new_sensor,
            snapshot_bytes: genclus_serve::snapshot::to_bytes(&net.graph, &fit.model),
            arrivals,
        }
    }
}

/// `stall`: replays the fixture's staged growth through a
/// [`RefreshableEngine`] and measures query latency while the triggered
/// re-fit runs — inline (the serving loop blocks for the whole re-fit,
/// queued arrivals pay the wait) or background (reads keep answering from
/// the old engine until the swap). Arrivals are scheduled
/// `QUERY_INTERVAL_MS` apart and latency is charged from the scheduled
/// arrival, so a stalled loop pays the full queueing delay of every query
/// that arrived during the stall. The re-fit runs at a forced fixed depth
/// (`em_tol = 0`), giving both modes an identical refresh workload.
fn measure_stall(quick: bool, fixture: &RefreshFixture, background: bool) -> StallCell {
    let snap = Snapshot::from_bytes(&fixture.snapshot_bytes).expect("fixture snapshot loads");
    let policy = RefreshPolicy {
        outer_iters: if quick { 3 } else { 4 },
        em_iters: if quick { 15 } else { 60 },
        em_tol: 0.0,
        gamma_tol: 0.0,
        base_config: Some(fixture.base_cfg.clone()),
        background,
        ..RefreshPolicy::default()
    };
    let mut engine = RefreshableEngine::new(snap, 1, policy);
    for a in &fixture.arrivals {
        engine
            .commit_with_links(&a.name, a.obj_type, &a.req, &[a.in_link])
            .expect("arrival commits cleanly");
    }

    // A read mix over original sensors: mostly membership, some top-k.
    let queries: Vec<String> = (0..64)
        .map(|i| {
            if i % 4 == 3 {
                format!(r#"{{"op":"top_k","object":"T{i}","k":5,"type":"temp_sensor"}}"#)
            } else {
                format!(r#"{{"op":"membership","object":"T{i}"}}"#)
            }
        })
        .collect();
    let interval = Duration::from_micros((QUERY_INTERVAL_MS * 1000.0) as u64);
    let tail = Duration::from_millis(30);

    let start = Instant::now();
    let resp = engine.handle_line(r#"{"op":"refresh"}"#);
    assert!(
        resp.contains("\"ok\":true"),
        "refresh trigger failed: {resp}"
    );
    // Inline: the trigger blocked for the whole re-fit and the swap is
    // done. Background: a later poll observes the swap.
    let mut swap_at = (engine.refreshes() == 1).then_some(start.elapsed());
    let mut samples: Vec<(Duration, f64)> = Vec::new();
    let hard_cap = Duration::from_secs(30);
    for i in 0.. {
        let arrival = interval * (i as u32);
        let now = start.elapsed();
        if arrival > now {
            std::thread::sleep(arrival - now);
        }
        let resp = engine.handle_line(&queries[i % queries.len()]);
        // Timing error responses would make the gate measure nothing real.
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let done = start.elapsed();
        samples.push((arrival, done.saturating_sub(arrival).as_secs_f64()));
        if swap_at.is_none() && engine.refreshes() >= 1 {
            swap_at = Some(done);
        }
        if swap_at.is_some_and(|s| arrival > s + tail) || done > hard_cap {
            break;
        }
    }
    let window_end = swap_at.expect("the re-fit must land within the cap");
    let mut during: Vec<f64> = samples
        .iter()
        .filter(|(arrival, _)| *arrival <= window_end)
        .map(|&(_, s)| s)
        .collect();
    if during.is_empty() {
        // Degenerate quick-mode case: the re-fit beat the first arrival.
        during = samples.iter().take(1).map(|&(_, s)| s).collect();
    }
    let h = latency_histogram(&during);
    StallCell {
        refresh_wall_ms: window_end.as_secs_f64() * 1e3,
        queries_during_refresh: during.len(),
        p50_ms: quantile_seconds(&h, 0.50) * 1e3,
        p99_ms: quantile_seconds(&h, 0.99) * 1e3,
        max_ms: quantile_seconds(&h, 1.0) * 1e3,
    }
}

fn num(x: f64) -> Json {
    Json::Num(x)
}

fn count(n: usize) -> Json {
    Json::Num(n as f64)
}

impl Paired {
    fn to_json(&self, gate: f64) -> Json {
        let pairs = self
            .pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                Json::obj(vec![
                    ("first", Json::str(if i % 2 == 0 { self.a } else { self.b })),
                    (self.a, num(a)),
                    (self.b, num(b)),
                    ("ratio", num(a / b)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("config", Json::str(self.config.as_str())),
            ("unit", Json::str(self.unit)),
            ("ratio_of", Json::str(format!("{} / {}", self.a, self.b))),
            ("gate_min", num(gate)),
            ("median_ratio", num(self.median_ratio())),
            ("pairs", Json::Arr(pairs)),
        ])
    }
}

impl StallCell {
    fn to_json(&self, mode: &str) -> Json {
        Json::obj(vec![
            ("mode", Json::str(mode)),
            ("refresh_wall_ms", num(self.refresh_wall_ms)),
            ("queries_during_refresh", count(self.queries_during_refresh)),
            ("p50_ms", num(self.p50_ms)),
            ("p99_ms", num(self.p99_ms)),
            ("max_ms", num(self.max_ms)),
        ])
    }
}

impl GatesReport {
    /// The `BENCH_gates.json` document (schema in ROADMAP.md's *Gates*
    /// section).
    pub fn to_json(&self) -> Json {
        let sweep = self
            .size_sweep
            .iter()
            .map(|c| {
                let mb = c.peak_rss_bytes.map(|b| b as f64 / (1024.0 * 1024.0));
                Json::obj(vec![
                    ("dataset", Json::str(c.dataset)),
                    ("n_objects", count(c.n_objects)),
                    ("n_links", count(c.n_links)),
                    ("threads", count(c.threads)),
                    ("build_seconds", num(c.build_seconds)),
                    ("ms_per_iter", num(c.ms_per_iter)),
                    ("us_per_object", num(c.us_per_object())),
                    ("peak_rss_mb", mb.map_or(Json::Null, num)),
                    (
                        "rss_bytes_per_object",
                        c.rss_bytes_per_object().map_or(Json::Null, num),
                    ),
                    ("rss_reset", Json::Bool(c.rss_reset)),
                ])
            })
            .collect();
        let fanout_cell = |c: &FanoutCell| {
            Json::obj(vec![
                ("clients", count(c.clients)),
                ("requests", count(c.requests)),
                ("p50_ms", num(c.p50_ms)),
                ("p99_ms", num(c.p99_ms)),
                ("qps", num(c.qps)),
            ])
        };
        let f = &self.fanout;
        Json::obj(vec![
            ("schema_version", count(1)),
            ("bench", Json::str("gates")),
            ("mode", Json::str(self.mode)),
            ("k", count(K)),
            ("kernel", self.kernel.to_json(KERNEL_SPEEDUP_GATE)),
            (
                "size_sweep",
                Json::obj(vec![
                    ("us_per_object_max", num(SWEEP_US_PER_OBJECT_GATE)),
                    (
                        "rss_bytes_per_object_max",
                        num(SWEEP_RSS_BYTES_PER_OBJECT_GATE),
                    ),
                    ("rss_gate_min_objects", count(SWEEP_RSS_GATE_MIN_OBJECTS)),
                    ("cells", Json::Arr(sweep)),
                ]),
            ),
            ("batching", self.batching.to_json(BATCHING_GATE)),
            ("metrics", self.metrics.to_json(METRICS_GATE)),
            (
                "fanout",
                Json::obj(vec![
                    ("offered_qps", num(f.offered_qps)),
                    (
                        "cells",
                        Json::Arr(vec![fanout_cell(&f.one), fanout_cell(&f.many)]),
                    ),
                    ("p99_ratio", num(f.many.p99_ms / f.one.p99_ms.max(1e-9))),
                    ("gate_p99_ratio_max", num(FANOUT_P99_RATIO_GATE)),
                    (
                        "gate_allowance_ms",
                        num(FANOUT_ALLOWANCE_MS_PER_CLIENT * f.many.clients as f64),
                    ),
                ]),
            ),
            (
                "stall",
                Json::obj(vec![
                    ("query_interval_ms", num(QUERY_INTERVAL_MS)),
                    (
                        "cells",
                        Json::Arr(vec![
                            self.stall.inline.to_json("inline"),
                            self.stall.background.to_json("background"),
                        ]),
                    ),
                    ("reduction", num(self.stall.reduction())),
                    ("gate_min", num(STALL_GATE)),
                ]),
            ),
            (
                "violations",
                Json::Arr(violations(self).into_iter().map(Json::Str).collect()),
            ),
        ])
    }

    /// Writes the JSON document to `path` (atomically, creating the
    /// directory when missing).
    pub fn save(&self, path: &Path) -> Result<(), ServeError> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = self.to_json().render();
        text.push('\n');
        genclus_serve::snapshot::save_bytes_tagged(path, text.as_bytes(), ".tmp")
    }

    /// A terse console rendering: the measured value of every gate.
    pub fn render(&self) -> String {
        let mut out = format!("bench gates ({} mode)\n", self.mode);
        for (name, p) in [
            ("kernel", &self.kernel),
            ("batching", &self.batching),
            ("metrics", &self.metrics),
        ] {
            let ratios: Vec<String> = p.ratios().iter().map(|r| format!("{r:.3}")).collect();
            out.push_str(&format!(
                "  {name:10} {} / {} [{}]: median {:.3}x of {}\n",
                p.a,
                p.b,
                p.config,
                p.median_ratio(),
                ratios.join(" ")
            ));
        }
        for c in &self.size_sweep {
            out.push_str(&format!(
                "  size_sweep {:12} {:>7} objects: {:9.3} ms/iter, {:.3} µs/object, {:.0} B/object\n",
                c.dataset,
                c.n_objects,
                c.ms_per_iter,
                c.us_per_object(),
                c.rss_bytes_per_object().unwrap_or(f64::NAN),
            ));
        }
        let f = &self.fanout;
        out.push_str(&format!(
            "  fanout     p99 {:.3} ms at N={} vs {:.3} ms at N=1 ({:.0} q/s offered)\n",
            f.many.p99_ms, f.many.clients, f.one.p99_ms, f.offered_qps
        ));
        out.push_str(&format!(
            "  stall      p99 {:.3} ms inline vs {:.3} ms background: {:.1}x\n",
            self.stall.inline.p99_ms,
            self.stall.background.p99_ms,
            self.stall.reduction()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report with every gate exactly at its threshold.
    fn at_threshold() -> GatesReport {
        let paired = |a: f64, b: f64| Paired {
            config: "synthetic".into(),
            a: "a",
            b: "b",
            unit: "unit",
            // The median pair sits at the threshold; the others straddle it.
            pairs: vec![(a * 2.0, b), (a, b), (a, b * 2.0)],
        };
        let cell = |clients: usize, p99_ms: f64| FanoutCell {
            clients,
            requests: 2048,
            p50_ms: p99_ms / 2.0,
            p99_ms,
            qps: 1000.0,
        };
        let stall = |p99_ms: f64| StallCell {
            refresh_wall_ms: 100.0,
            queries_during_refresh: 200,
            p50_ms: p99_ms / 2.0,
            p99_ms,
            max_ms: p99_ms,
        };
        GatesReport {
            mode: "full",
            kernel: paired(3.0, 2.0),
            size_sweep: vec![SizeSweepCell {
                dataset: "weather-100k",
                n_objects: 200_000,
                n_links: 400_000,
                threads: 4,
                build_seconds: 1.0,
                // 1000 ms over 200k objects = 5.0 µs/object.
                ms_per_iter: 1000.0,
                peak_rss_bytes: Some(200_000 * 1024),
                rss_reset: true,
            }],
            batching: paired(100.0, 100.0),
            metrics: paired(97.0, 100.0),
            fanout: Fanout {
                offered_qps: 1000.0,
                one: cell(1, 10.0),
                many: cell(64, 160.0),
            },
            stall: Stall {
                inline: stall(10.0),
                background: stall(2.0),
            },
        }
    }

    #[test]
    fn every_gate_passes_at_its_threshold() {
        let r = at_threshold();
        assert_eq!(r.kernel.median_ratio(), KERNEL_SPEEDUP_GATE);
        assert_eq!(r.batching.median_ratio(), BATCHING_GATE);
        assert_eq!(r.metrics.median_ratio(), METRICS_GATE);
        assert_eq!(r.size_sweep[0].us_per_object(), SWEEP_US_PER_OBJECT_GATE);
        assert_eq!(
            r.size_sweep[0].rss_bytes_per_object(),
            Some(SWEEP_RSS_BYTES_PER_OBJECT_GATE)
        );
        assert_eq!(r.stall.reduction(), STALL_GATE);
        assert!(violations(&r).is_empty(), "{:?}", violations(&r));
    }

    #[test]
    fn every_gate_fails_just_past_its_threshold() {
        type Regression = fn(&mut GatesReport);
        let cases: [(&str, &str, Regression); 9] = [
            ("kernel", "1.490x", |r| r.kernel.pairs[1].0 = 2.98),
            ("size_sweep", "5.01 µs", |r| {
                r.size_sweep[0].ms_per_iter = 1002.0
            }),
            ("size_sweep", "1025 bytes", |r| {
                r.size_sweep[0].peak_rss_bytes = Some(200_000 * 1025)
            }),
            ("batching", "0.990x", |r| r.batching.pairs[1].0 = 99.0),
            ("metrics", "0.969x", |r| r.metrics.pairs[1].0 = 96.9),
            // No pairs at all is a failure, not a pass.
            ("metrics", "NaNx", |r| r.metrics.pairs.clear()),
            // 16 × the N=1 p99 (160 ms) is over the 128 ms allowance here…
            ("fanout", "160.100 ms", |r| r.fanout.many.p99_ms = 160.1),
            // … and under it with a fast N=1, where the allowance decides.
            ("fanout", "128.100 ms", |r| {
                r.fanout.one.p99_ms = 0.5;
                r.fanout.many.p99_ms = 128.1;
            }),
            ("stall", "4.99x", |r| r.stall.inline.p99_ms = 9.98),
        ];
        for (gate, value, regress) in cases {
            let mut r = at_threshold();
            regress(&mut r);
            let v = violations(&r);
            assert_eq!(v.len(), 1, "{gate}: {v:?}");
            assert!(
                v[0].starts_with(gate) && v[0].contains(value),
                "{gate}: {v:?}"
            );
        }
    }

    #[test]
    fn gates_read_the_median_pair_and_the_rss_floor() {
        let mut r = at_threshold();
        // One terrible pair out of three moves no median.
        r.kernel.pairs[2] = (1.0, 2.0);
        r.batching.pairs[2] = (1.0, 100.0);
        // Below the object floor the memory gate does not apply.
        r.size_sweep[0].n_objects = SWEEP_RSS_GATE_MIN_OBJECTS - 1;
        r.size_sweep[0].ms_per_iter = 1.0;
        r.size_sweep[0].peak_rss_bytes = Some(1 << 30);
        // At exactly the allowance with a fast N=1, fanout holds.
        r.fanout.one.p99_ms = 0.5;
        r.fanout.many.p99_ms = 128.0;
        assert!(violations(&r).is_empty(), "{:?}", violations(&r));
    }

    #[test]
    fn size_sweep_measures_time_and_memory_per_cell() {
        // Shrunken presets: the sweep machinery end to end (build → EM →
        // per-cell time and peak RSS) without release-scale networks.
        let specs: Vec<ScaledSpec> = SCALED_REGISTRY
            .iter()
            .take(2)
            .map(|s| s.with_objects(1_500))
            .collect();
        let cells = run_size_sweep(&specs, 1, 2);
        assert_eq!(cells.len(), 2);
        for (c, s) in cells.iter().zip(&specs) {
            assert_eq!(c.dataset, s.name);
            assert_eq!(c.n_objects, 1_500);
            assert_eq!(c.n_links, s.expected_links());
            assert!(c.ms_per_iter > 0.0 && c.ms_per_iter.is_finite());
            assert!(c.build_seconds >= 0.0);
            if cfg!(target_os = "linux") {
                let rss = c.peak_rss_bytes.expect("VmHWM available on Linux");
                assert!(rss > 1024 * 1024, "implausible peak: {rss}");
            }
        }
    }

    #[test]
    fn quick_run_artifact_parses_and_saves() {
        // The sections' values are checked by their own quick-run tests
        // (`perf`, `serve_perf`, `refresh_perf` at the crate root); this
        // one checks the document around them.
        let r = quick_report();
        assert_eq!(r.mode, "quick");
        let json = Json::parse(&r.to_json().render()).expect("the artifact parses");
        assert_eq!(json.get("bench").and_then(Json::as_str), Some("gates"));
        assert_eq!(json.get("mode").and_then(Json::as_str), Some("quick"));
        for key in [
            "kernel",
            "size_sweep",
            "batching",
            "metrics",
            "fanout",
            "stall",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        let v = json.get("violations").and_then(Json::as_arr).unwrap();
        assert_eq!(v.len(), violations(r).len());

        let path = std::env::temp_dir()
            .join(format!("genclus-bench-gates-{}", std::process::id()))
            .join("BENCH_gates.json");
        r.save(&path).expect("save");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(Json::parse(text.trim_end()).is_ok());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn every_benchmarked_response_is_ok() {
        // The throughput gates must measure successful queries; a stream
        // of errors would time the error path.
        let fixture = ServeFixture::build(true);
        let engine = fixture.engine(true);
        for line in &fixture.mixed {
            let resp = engine.handle_line(line);
            assert!(resp.contains("\"ok\":true"), "{line} → {resp}");
        }
    }

    #[test]
    fn warm_refit_takes_strictly_fewer_em_iterations_than_cold() {
        // The paper's iterative algorithm lets a grown network start from
        // the served strengths and clusters; at full fixture scale (1250
        // objects + 10%) that must save EM iterations outright.
        let fixture = RefreshFixture::build(false);
        let warm = GenClus::new(fixture.base_cfg.clone().with_warm_start(&fixture.warm))
            .expect("valid warm config")
            .fit_warm(&fixture.graph, &fixture.warm)
            .expect("warm re-fit succeeds");
        let cold = GenClus::new(fixture.base_cfg.clone())
            .expect("valid cold config")
            .fit(&fixture.graph)
            .expect("cold re-fit succeeds");
        let (w, c) = (
            warm.history.total_em_iterations(),
            cold.history.total_em_iterations(),
        );
        assert!(w < c, "warm {w} vs cold {c} EM iterations");

        // The refreshed model serves original and appended sensors alike.
        let bytes = genclus_serve::snapshot::to_bytes(&fixture.graph, &warm.model);
        let engine = QueryEngine::new(Snapshot::from_bytes(&bytes).unwrap(), 1);
        for object in ["T0", fixture.new_sensor.as_str()] {
            for line in [
                format!(r#"{{"op":"membership","object":"{object}"}}"#),
                format!(r#"{{"op":"top_k","object":"{object}","k":5,"type":"temp_sensor"}}"#),
            ] {
                let resp = engine.handle_line(&line);
                assert!(resp.contains("\"ok\":true"), "{line} → {resp}");
            }
        }
    }
}
