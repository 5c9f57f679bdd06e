//! The serving process's always-on metrics registry.
//!
//! One [`ServeMetrics`] instance is shared (via `Arc`) between the query
//! engine, the refresh layer, and the binary — and survives snapshot
//! swaps: a background refresh builds a brand-new
//! [`QueryEngine`](crate::engine::QueryEngine), but the replacement is
//! wired to the *same* registry, so counters stay cumulative across the
//! process lifetime, exactly what `{"op":"metrics"}` promises.
//!
//! What it holds:
//!
//! * per-op latency histograms (`membership`, `top_k`, `fold_in`,
//!   `stats`, `metrics`, `commit`, `refresh`, `refresh_status`, and an
//!   `other` catch-all for unknown/invalid requests);
//! * WAL observability — append+fsync latency, recovery/replay counters,
//!   truncations, the live record count, the last truncation error;
//! * refresh lifecycle — completed/failed counts, trigger→swap wall-time
//!   histogram, pending-window gauges, and the last [`RefreshSpan`];
//! * EM convergence — the registry is itself a
//!   [`TraceSink`], so a re-fit configured with
//!   `cfg.with_trace(metrics)` streams its per-outer-iteration events
//!   (iteration wall time, objective, Θ movement) in live, observable
//!   mid-refresh through the `metrics` op;
//! * TCP front-end connection counters ([`crate::net`]) —
//!   accepted/closed/active connections, admission-cap rejections,
//!   over-limit request lines, and contained per-connection write errors.
//!
//! The recording path is a couple of relaxed atomic adds plus one
//! `Instant::now()` pair per request — cheap enough to leave on
//! (`bench_gates` gates metrics-on mixed throughput ≥ 97% of metrics-off;
//! a [`ServeMetrics::disabled`] registry skips even the clock reads, and
//! exists for that A/B and for embedders who want zero overhead).
//!
//! # JSON schema (schema_version 2)
//!
//! [`ServeMetrics::to_fields`] renders one object with a byte-stable key
//! order (see `tests/metrics.rs`). Version 2 appended the `net` block
//! (TCP front-end connection counters); everything before it is
//! byte-identical to version 1:
//!
//! ```json
//! {"schema_version":2,"uptime_ms":…,
//!  "requests":{"total":…,"errors":…},
//!  "ops":{"membership":{"count":…,"p50_us":…,"p90_us":…,"p99_us":…,"max_us":…},…},
//!  "wal":{"records":…,"appends":…,"append_p50_us":…,"append_p90_us":…,
//!         "append_p99_us":…,"append_max_us":…,"replayed":…,"skipped":…,
//!         "torn_bytes":…,"truncations":…,"error":null},
//!  "refresh":{"completed":…,"failed":…,"in_flight":…,"pending_objects":…,
//!             "pending_links":…,"wall_p50_ms":…,"wall_p99_ms":…,"wall_max_ms":…,
//!             "last":{"mode":…,"trigger":…,"staged_objects":…,"staged_links":…,
//!                     "outer_iterations":…,"em_iterations":…,"refit_ms":…,
//!                     "wall_ms":…,"persisted":…,"ok":…,"error":null}},
//!  "em":{"outer_iterations":…,"inner_iterations":…,"outer_p50_ms":…,
//!        "outer_max_ms":…,"last_objective":…},
//!  "net":{"accepted":…,"closed":…,"active":…,"rejected":…,
//!         "over_limit":…,"write_errors":…}}
//! ```
//!
//! Latencies are microseconds for request-scale work and milliseconds for
//! refresh/EM-scale work, rounded to three decimals. `wal.records`,
//! `refresh.pending_*` and `em.last_objective` are gauges; everything
//! else is cumulative. The same content renders as Prometheus text
//! exposition via [`ServeMetrics::render_prom`].

use crate::json::Json;
use genclus_obs::{Counter, FloatGauge, Gauge, Histogram, HistogramSnapshot, TraceSink};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-op histogram labels, in render order. `other` absorbs unknown ops
/// and invalid JSON — errors are observable, not just successes.
// lint: region(metrics-schema)
const OPS: [&str; 9] = [
    "membership",
    "top_k",
    "fold_in",
    "stats",
    "metrics",
    "commit",
    "refresh",
    "refresh_status",
    "other",
];
// lint: end-region

/// One completed refresh attempt, as the `metrics` op reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshSpan {
    /// `"inline"` or `"background"`.
    pub mode: &'static str,
    /// What fired it: `"manual"`, `"objects"`, or `"links"`.
    pub trigger: &'static str,
    /// Window size handed to the re-fit.
    pub staged_objects: u64,
    pub staged_links: u64,
    /// Warm-EM iteration counts (0 on failure).
    pub outer_iterations: u64,
    pub em_iterations: u64,
    /// Wall time of the re-fit itself (append → fit → snapshot → engine).
    pub refit_seconds: f64,
    /// Trigger → swap wall time; in background mode this includes the
    /// hand-off and the poll delay, i.e. what the client experiences.
    pub wall_seconds: f64,
    pub persisted: bool,
    pub ok: bool,
    pub error: Option<String>,
}

/// The shared registry. All methods take `&self`; recording is lock-free
/// (the two `Mutex`es guard rare, cold writes: span completion and WAL
/// truncation failures).
pub struct ServeMetrics {
    enabled: bool,
    start: Instant,
    requests: Counter,
    errors: Counter,
    ops: Vec<Histogram>,
    wal_append: Histogram,
    wal_replayed: Counter,
    wal_skipped: Counter,
    wal_torn_bytes: Counter,
    wal_truncations: Counter,
    wal_records: Gauge,
    wal_error: Mutex<Option<String>>,
    refreshes: Counter,
    refresh_failures: Counter,
    refresh_wall: Histogram,
    refresh_in_flight: Gauge,
    pending_objects: Gauge,
    pending_links: Gauge,
    last_refresh: Mutex<Option<RefreshSpan>>,
    em_outer_iterations: Counter,
    em_inner_iterations: Counter,
    em_outer: Histogram,
    em_last_objective: FloatGauge,
    net_accepted: Counter,
    net_closed: Counter,
    net_rejected: Counter,
    net_over_limit: Counter,
    net_write_errors: Counter,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    pub fn new() -> Self {
        Self::build(true)
    }

    /// A registry that records nothing — not even the per-request clock
    /// reads. For the `bench_gates` overhead A/B and zero-overhead
    /// embedders; the render methods still work (everything zero).
    pub fn disabled() -> Self {
        Self::build(false)
    }

    fn build(enabled: bool) -> Self {
        Self {
            enabled,
            start: Instant::now(),
            requests: Counter::new(),
            errors: Counter::new(),
            ops: (0..OPS.len()).map(|_| Histogram::new()).collect(),
            wal_append: Histogram::new(),
            wal_replayed: Counter::new(),
            wal_skipped: Counter::new(),
            wal_torn_bytes: Counter::new(),
            wal_truncations: Counter::new(),
            wal_records: Gauge::new(),
            wal_error: Mutex::new(None),
            refreshes: Counter::new(),
            refresh_failures: Counter::new(),
            refresh_wall: Histogram::new(),
            refresh_in_flight: Gauge::new(),
            pending_objects: Gauge::new(),
            pending_links: Gauge::new(),
            last_refresh: Mutex::new(None),
            em_outer_iterations: Counter::new(),
            em_inner_iterations: Counter::new(),
            em_outer: Histogram::new(),
            em_last_objective: FloatGauge::new(),
            net_accepted: Counter::new(),
            net_closed: Counter::new(),
            net_rejected: Counter::new(),
            net_over_limit: Counter::new(),
            net_write_errors: Counter::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a latency measurement — `None` when disabled, so the hot
    /// path skips the clock read entirely.
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    fn op_index(op: &str) -> usize {
        OPS.iter().position(|&o| o == op).unwrap_or(OPS.len() - 1)
    }

    /// Records one finished request: latency into the op's histogram,
    /// plus the request/error totals. `elapsed` is measured from
    /// [`Self::timer`]; a `None` (disabled registry) records nothing.
    #[inline]
    pub fn record_op(&self, op: &str, elapsed: Option<Duration>, ok: bool) {
        let Some(elapsed) = elapsed else { return };
        self.ops[Self::op_index(op)].record_duration(elapsed);
        self.requests.inc();
        if !ok {
            self.errors.inc();
        }
    }

    /// Records one WAL append+fsync.
    #[inline]
    pub fn record_wal_append(&self, elapsed: Duration) {
        if self.enabled {
            self.wal_append.record_duration(elapsed);
        }
    }

    /// Folds a startup recovery report into the replay counters.
    pub fn record_wal_recovery(&self, replayed: u64, skipped: u64, torn_bytes: u64) {
        self.wal_replayed.add(replayed);
        self.wal_skipped.add(skipped);
        self.wal_torn_bytes.add(torn_bytes);
    }

    /// Records a WAL truncation attempt (the refresh-time rebase).
    pub fn record_wal_truncation(&self, error: Option<String>) {
        if error.is_none() {
            self.wal_truncations.inc();
        }
        // Poison recovery: the Mutex guards a plain Option, which is a
        // valid value even if another thread panicked mid-update, so a
        // poisoned lock must not cascade panics into the serve path.
        *self.wal_error.lock().unwrap_or_else(|p| p.into_inner()) = error;
    }

    pub fn set_wal_records(&self, n: u64) {
        self.wal_records.set(n);
    }

    /// Updates the staging-window gauges (after commits, swaps, replays).
    pub fn set_pending(&self, objects: u64, links: u64) {
        self.pending_objects.set(objects);
        self.pending_links.set(links);
    }

    pub fn set_refresh_in_flight(&self, in_flight: bool) {
        self.refresh_in_flight.set(in_flight as u64);
    }

    /// Records a completed refresh attempt (success or failure) as the
    /// new last span.
    pub fn record_refresh_span(&self, span: RefreshSpan) {
        if span.ok {
            self.refreshes.inc();
        } else {
            self.refresh_failures.inc();
        }
        self.refresh_wall
            .record_duration(Duration::from_secs_f64(span.wall_seconds.max(0.0)));
        *self.last_refresh.lock().unwrap_or_else(|p| p.into_inner()) = Some(span);
    }

    /// The last completed refresh attempt, if any.
    pub fn last_refresh_span(&self) -> Option<RefreshSpan> {
        self.last_refresh
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Records an accepted TCP connection. Connection events are cold
    /// (once per connection, not per request), so like
    /// [`Self::record_wal_recovery`] they record even on a disabled
    /// registry.
    pub fn record_conn_accepted(&self) {
        self.net_accepted.inc();
    }

    /// Records a connection reaching end-of-life (client EOF, contained
    /// write error, over-limit close, or server shutdown).
    pub fn record_conn_closed(&self) {
        self.net_closed.inc();
    }

    /// Records a connection turned away at the admission cap.
    pub fn record_conn_rejected(&self) {
        self.net_rejected.inc();
    }

    /// Records one over-limit request line (stdio or TCP).
    pub fn record_over_limit(&self) {
        self.net_over_limit.inc();
    }

    /// Records a per-connection write failure that was contained (the
    /// connection closed; the process kept serving).
    pub fn record_net_write_error(&self) {
        self.net_write_errors.inc();
    }

    /// Connections currently open (accepted − closed).
    pub fn active_connections(&self) -> u64 {
        self.net_accepted
            .get()
            .saturating_sub(self.net_closed.get())
    }

    fn round3(x: f64) -> f64 {
        (x * 1000.0).round() / 1000.0
    }

    fn us(ns: u64) -> Json {
        Json::Num(Self::round3(ns as f64 / 1_000.0))
    }

    fn ms(ns: u64) -> Json {
        Json::Num(Self::round3(ns as f64 / 1_000_000.0))
    }

    fn count(c: &Counter) -> Json {
        Json::Num(c.get() as f64)
    }

    // The string literals between these markers ARE the wire schema: the
    // metrics-key-order lint extracts them in source order and diffs the
    // sequence against crates/lint/src/metrics_keys.txt. Keep non-key
    // literals out of the regions.
    // lint: region(metrics-schema)
    fn hist_fields_us(h: &HistogramSnapshot) -> Vec<(&'static str, Json)> {
        vec![
            ("count", Json::Num(h.count() as f64)),
            ("p50_us", Self::us(h.quantile(0.50))),
            ("p90_us", Self::us(h.quantile(0.90))),
            ("p99_us", Self::us(h.quantile(0.99))),
            ("max_us", Self::us(h.max())),
        ]
    }

    fn span_json(span: &RefreshSpan) -> Json {
        Json::obj(vec![
            ("mode", Json::str(span.mode)),
            ("trigger", Json::str(span.trigger)),
            ("staged_objects", Json::Num(span.staged_objects as f64)),
            ("staged_links", Json::Num(span.staged_links as f64)),
            ("outer_iterations", Json::Num(span.outer_iterations as f64)),
            ("em_iterations", Json::Num(span.em_iterations as f64)),
            (
                "refit_ms",
                Json::Num(Self::round3(span.refit_seconds * 1_000.0)),
            ),
            (
                "wall_ms",
                Json::Num(Self::round3(span.wall_seconds * 1_000.0)),
            ),
            ("persisted", Json::Bool(span.persisted)),
            ("ok", Json::Bool(span.ok)),
            (
                "error",
                match &span.error {
                    Some(e) => Json::str(e.clone()),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// The full metrics body in its documented, byte-stable key order —
    /// the `{"op":"metrics"}` response and the `--metrics-dump` snapshot
    /// render exactly this.
    pub fn to_fields(&self) -> Vec<(&'static str, Json)> {
        let uptime_ms = Self::round3(self.start.elapsed().as_secs_f64() * 1_000.0);
        let ops = Json::Obj(
            OPS.iter()
                .zip(&self.ops)
                .map(|(&name, h)| {
                    (
                        name.to_string(),
                        Json::obj(Self::hist_fields_us(&h.snapshot())),
                    )
                })
                .collect(),
        );
        let wal_append = self.wal_append.snapshot();
        let wal = Json::obj(vec![
            ("records", Json::Num(self.wal_records.get() as f64)),
            ("appends", Json::Num(wal_append.count() as f64)),
            ("append_p50_us", Self::us(wal_append.quantile(0.50))),
            ("append_p90_us", Self::us(wal_append.quantile(0.90))),
            ("append_p99_us", Self::us(wal_append.quantile(0.99))),
            ("append_max_us", Self::us(wal_append.max())),
            ("replayed", Self::count(&self.wal_replayed)),
            ("skipped", Self::count(&self.wal_skipped)),
            ("torn_bytes", Self::count(&self.wal_torn_bytes)),
            ("truncations", Self::count(&self.wal_truncations)),
            (
                "error",
                match &*self.wal_error.lock().unwrap_or_else(|p| p.into_inner()) {
                    Some(e) => Json::str(e.clone()),
                    None => Json::Null,
                },
            ),
        ]);
        let wall = self.refresh_wall.snapshot();
        let refresh = Json::obj(vec![
            ("completed", Self::count(&self.refreshes)),
            ("failed", Self::count(&self.refresh_failures)),
            ("in_flight", Json::Bool(self.refresh_in_flight.get() != 0)),
            (
                "pending_objects",
                Json::Num(self.pending_objects.get() as f64),
            ),
            ("pending_links", Json::Num(self.pending_links.get() as f64)),
            ("wall_p50_ms", Self::ms(wall.quantile(0.50))),
            ("wall_p99_ms", Self::ms(wall.quantile(0.99))),
            ("wall_max_ms", Self::ms(wall.max())),
            (
                "last",
                match self.last_refresh_span() {
                    Some(span) => Self::span_json(&span),
                    None => Json::Null,
                },
            ),
        ]);
        let em_outer = self.em_outer.snapshot();
        let em = Json::obj(vec![
            ("outer_iterations", Self::count(&self.em_outer_iterations)),
            ("inner_iterations", Self::count(&self.em_inner_iterations)),
            ("outer_p50_ms", Self::ms(em_outer.quantile(0.50))),
            ("outer_max_ms", Self::ms(em_outer.max())),
            ("last_objective", Json::Num(self.em_last_objective.get())),
        ]);
        let net = Json::obj(vec![
            ("accepted", Self::count(&self.net_accepted)),
            ("closed", Self::count(&self.net_closed)),
            ("active", Json::Num(self.active_connections() as f64)),
            ("rejected", Self::count(&self.net_rejected)),
            ("over_limit", Self::count(&self.net_over_limit)),
            ("write_errors", Self::count(&self.net_write_errors)),
        ]);
        vec![
            ("schema_version", Json::Num(2.0)),
            ("uptime_ms", Json::Num(uptime_ms)),
            (
                "requests",
                Json::obj(vec![
                    ("total", Self::count(&self.requests)),
                    ("errors", Self::count(&self.errors)),
                ]),
            ),
            ("ops", ops),
            ("wal", wal),
            ("refresh", refresh),
            ("em", em),
            ("net", net),
        ]
    }
    // lint: end-region

    /// The metrics body as one compact JSON object (the dump format).
    pub fn to_json(&self) -> Json {
        Json::obj(self.to_fields())
    }

    /// Prometheus text exposition of the same state (`--metrics-format
    /// prom`). Quantiles use the summary convention.
    pub fn render_prom(&self) -> String {
        fn scalar(out: &mut String, name: &str, kind: &str, value: f64) {
            let _ = writeln!(out, "# TYPE {name} {kind}\n{name} {value}");
        }
        let mut out = String::new();
        scalar(
            &mut out,
            "genclus_uptime_seconds",
            "gauge",
            Self::round3(self.start.elapsed().as_secs_f64()),
        );
        scalar(
            &mut out,
            "genclus_requests_total",
            "counter",
            self.requests.get() as f64,
        );
        scalar(
            &mut out,
            "genclus_request_errors_total",
            "counter",
            self.errors.get() as f64,
        );
        let _ = writeln!(out, "# TYPE genclus_op_latency_us summary");
        for (&name, h) in OPS.iter().zip(&self.ops) {
            let snap = h.snapshot();
            for (q, label) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "genclus_op_latency_us{{op=\"{name}\",quantile=\"{label}\"}} {}",
                    Self::round3(snap.quantile(q) as f64 / 1_000.0)
                );
            }
            let _ = writeln!(
                out,
                "genclus_op_latency_us_count{{op=\"{name}\"}} {}",
                snap.count()
            );
        }
        let wal = self.wal_append.snapshot();
        let _ = writeln!(out, "# TYPE genclus_wal_append_us summary");
        for (q, label) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
            let _ = writeln!(
                out,
                "genclus_wal_append_us{{quantile=\"{label}\"}} {}",
                Self::round3(wal.quantile(q) as f64 / 1_000.0)
            );
        }
        let _ = writeln!(out, "genclus_wal_append_us_count {}", wal.count());
        scalar(
            &mut out,
            "genclus_wal_records",
            "gauge",
            self.wal_records.get() as f64,
        );
        scalar(
            &mut out,
            "genclus_wal_replayed_total",
            "counter",
            self.wal_replayed.get() as f64,
        );
        scalar(
            &mut out,
            "genclus_wal_skipped_total",
            "counter",
            self.wal_skipped.get() as f64,
        );
        scalar(
            &mut out,
            "genclus_wal_torn_bytes_total",
            "counter",
            self.wal_torn_bytes.get() as f64,
        );
        scalar(
            &mut out,
            "genclus_wal_truncations_total",
            "counter",
            self.wal_truncations.get() as f64,
        );
        scalar(
            &mut out,
            "genclus_refreshes_total",
            "counter",
            self.refreshes.get() as f64,
        );
        scalar(
            &mut out,
            "genclus_refresh_failures_total",
            "counter",
            self.refresh_failures.get() as f64,
        );
        scalar(
            &mut out,
            "genclus_refresh_in_flight",
            "gauge",
            self.refresh_in_flight.get() as f64,
        );
        scalar(
            &mut out,
            "genclus_pending_objects",
            "gauge",
            self.pending_objects.get() as f64,
        );
        scalar(
            &mut out,
            "genclus_pending_links",
            "gauge",
            self.pending_links.get() as f64,
        );
        let refresh_wall = self.refresh_wall.snapshot();
        scalar(
            &mut out,
            "genclus_refresh_wall_ms_max",
            "gauge",
            Self::round3(refresh_wall.max() as f64 / 1_000_000.0),
        );
        scalar(
            &mut out,
            "genclus_em_outer_iterations_total",
            "counter",
            self.em_outer_iterations.get() as f64,
        );
        scalar(
            &mut out,
            "genclus_em_inner_iterations_total",
            "counter",
            self.em_inner_iterations.get() as f64,
        );
        scalar(
            &mut out,
            "genclus_em_last_objective",
            "gauge",
            self.em_last_objective.get(),
        );
        scalar(
            &mut out,
            "genclus_net_connections_accepted_total",
            "counter",
            self.net_accepted.get() as f64,
        );
        scalar(
            &mut out,
            "genclus_net_connections_active",
            "gauge",
            self.active_connections() as f64,
        );
        scalar(
            &mut out,
            "genclus_net_connections_rejected_total",
            "counter",
            self.net_rejected.get() as f64,
        );
        scalar(
            &mut out,
            "genclus_net_over_limit_total",
            "counter",
            self.net_over_limit.get() as f64,
        );
        scalar(
            &mut out,
            "genclus_net_write_errors_total",
            "counter",
            self.net_write_errors.get() as f64,
        );
        out
    }
}

/// A refit configured with `cfg.with_trace(metrics)` streams its EM
/// convergence into the registry — one event per outer iteration.
impl TraceSink for ServeMetrics {
    fn event(&self, name: &'static str, fields: &[(&'static str, f64)]) {
        if name != "em_outer_iteration" || !self.enabled {
            return;
        }
        let field = |key: &str| fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        self.em_outer_iterations.inc();
        if let Some(inner) = field("em_iterations") {
            self.em_inner_iterations.add(inner as u64);
        }
        if let Some(seconds) = field("em_seconds") {
            self.em_outer
                .record_duration(Duration::from_secs_f64(seconds.max(0.0)));
        }
        if let Some(g1) = field("objective_g1") {
            self.em_last_objective.set(g1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_render_round_trip() {
        let m = ServeMetrics::new();
        let t = m.timer();
        assert!(t.is_some());
        m.record_op("membership", t.map(|t| t.elapsed()), true);
        m.record_op("nonsense", m.timer().map(|t| t.elapsed()), false);
        m.record_wal_append(Duration::from_micros(120));
        m.set_wal_records(3);
        m.record_wal_recovery(2, 1, 17);
        m.set_pending(4, 9);
        let body = m.to_json();
        assert_eq!(
            body.get("requests").unwrap().get("total").unwrap().as_f64(),
            Some(2.0)
        );
        assert_eq!(
            body.get("requests")
                .unwrap()
                .get("errors")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        let ops = body.get("ops").unwrap();
        assert_eq!(
            ops.get("membership")
                .unwrap()
                .get("count")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        // Unknown ops land in the catch-all.
        assert_eq!(
            ops.get("other").unwrap().get("count").unwrap().as_f64(),
            Some(1.0)
        );
        let wal = body.get("wal").unwrap();
        assert_eq!(wal.get("appends").unwrap().as_f64(), Some(1.0));
        assert_eq!(wal.get("replayed").unwrap().as_f64(), Some(2.0));
        assert_eq!(wal.get("skipped").unwrap().as_f64(), Some(1.0));
        assert_eq!(wal.get("torn_bytes").unwrap().as_f64(), Some(17.0));
        assert_eq!(wal.get("records").unwrap().as_f64(), Some(3.0));
        assert!(wal.get("append_p50_us").unwrap().as_f64().unwrap() > 0.0);
        let refresh = body.get("refresh").unwrap();
        assert_eq!(refresh.get("pending_objects").unwrap().as_f64(), Some(4.0));
        assert_eq!(refresh.get("last"), Some(&Json::Null));
        // The rendered line is valid JSON.
        assert!(Json::parse(&body.render()).is_ok());
        // And the prom rendering carries the headline series.
        let prom = m.render_prom();
        assert!(prom.contains("genclus_requests_total 2"));
        assert!(prom.contains("genclus_op_latency_us{op=\"membership\",quantile=\"0.5\"}"));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let m = ServeMetrics::disabled();
        assert!(m.timer().is_none());
        m.record_op("membership", m.timer().map(|t| t.elapsed()), true);
        m.record_wal_append(Duration::from_micros(50));
        let body = m.to_json();
        assert_eq!(
            body.get("requests").unwrap().get("total").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(
            body.get("wal").unwrap().get("appends").unwrap().as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn refresh_span_updates_counters_and_last() {
        let m = ServeMetrics::new();
        m.record_refresh_span(RefreshSpan {
            mode: "inline",
            trigger: "objects",
            staged_objects: 2,
            staged_links: 5,
            outer_iterations: 3,
            em_iterations: 12,
            refit_seconds: 0.050,
            wall_seconds: 0.060,
            persisted: true,
            ok: true,
            error: None,
        });
        m.record_refresh_span(RefreshSpan {
            mode: "background",
            trigger: "manual",
            staged_objects: 0,
            staged_links: 0,
            outer_iterations: 0,
            em_iterations: 0,
            refit_seconds: 0.001,
            wall_seconds: 0.001,
            persisted: false,
            ok: false,
            error: Some("boom".into()),
        });
        let body = m.to_json();
        let refresh = body.get("refresh").unwrap();
        assert_eq!(refresh.get("completed").unwrap().as_f64(), Some(1.0));
        assert_eq!(refresh.get("failed").unwrap().as_f64(), Some(1.0));
        let last = refresh.get("last").unwrap();
        assert_eq!(last.get("mode").unwrap().as_str(), Some("background"));
        assert_eq!(last.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(last.get("error").unwrap().as_str(), Some("boom"));
    }

    #[test]
    fn trace_events_feed_the_em_block() {
        let m = ServeMetrics::new();
        m.event(
            "em_outer_iteration",
            &[
                ("iteration", 1.0),
                ("em_iterations", 7.0),
                ("em_seconds", 0.004),
                ("objective_g1", -123.5),
            ],
        );
        m.event("unrelated", &[("x", 1.0)]);
        let em = m.to_json().get("em").cloned().unwrap();
        assert_eq!(em.get("outer_iterations").unwrap().as_f64(), Some(1.0));
        assert_eq!(em.get("inner_iterations").unwrap().as_f64(), Some(7.0));
        assert_eq!(em.get("last_objective").unwrap().as_f64(), Some(-123.5));
        assert!(em.get("outer_p50_ms").unwrap().as_f64().unwrap() > 0.0);
    }
}
