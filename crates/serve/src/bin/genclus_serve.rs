//! JSON-lines serving binary.
//!
//! ```text
//! genclus_serve --snapshot <path> [--listen <addr>] [--threads N] [--batch N]
//!               [--max-request-bytes N] [--max-connections N]
//!               [--refresh-after-objects N] [--refresh-after-links N]
//!               [--refresh-save <path>] [--refresh-sigma F]
//!               [--refresh-background] [--wal <path>]
//!               [--metrics-dump <path>] [--metrics-interval SECS]
//!               [--metrics-format json|prom] [--quiet]
//! ```
//!
//! Reads one JSON request per stdin line and writes one JSON response per
//! stdout line, in request order. Stdin/stdout is one session
//! ([`genclus_serve::session`]), the same loop a TCP connection runs: the
//! complete lines already read are coalesced into a batch of up to
//! `--batch` requests (default 64), executed concurrently across the
//! worker pool, and written with one flush. The session never waits for
//! a batch to fill, so an interactive client gets each answer at once. A
//! **blank line** is answered with nothing. EOF ends the session. See
//! [`genclus_serve::engine`] for the read-side request vocabulary and
//! [`genclus_serve::refresh`] for the grow/refresh side: fold-in requests
//! with a `"commit"` field stage new objects, `--refresh-after-objects` /
//! `--refresh-after-links` auto-trigger a warm-start re-fit (0 = manual
//! `{"op":"refresh"}` only), and `--refresh-save` persists each refreshed
//! snapshot atomically.
//!
//! # TCP serving: `--listen <addr>`
//!
//! `--listen 127.0.0.1:7878` (or `:0` for an ephemeral port — the bound
//! address is logged as `listening on <addr>`) serves the same JSON-lines
//! protocol over TCP to many concurrent clients
//! ([`genclus_serve::net`]): one session per connection, reads answered
//! lock-free from an atomically swappable snapshot handle each connection
//! pins per batch, and all mutations (commits with their WAL
//! append+fsync, refreshes) serialized through one mutation lane so
//! *ack ⇒ replayable* holds under concurrency. Batching and blank lines
//! follow the same rules on both transports; how a session ends differs
//! by design:
//!
//! * a write failure (EPIPE — the client vanished) closes **that**
//!   connection and the process keeps serving the rest. On stdio it ends
//!   the process, because there the lone client is gone: it quiesces
//!   like EOF and exits 0 on a broken pipe, 1 on any other write error;
//! * a request line over `--max-request-bytes` (default 1 MiB, both
//!   transports) is answered with a structured `BadRequest`; the TCP
//!   connection then closes, and the stdio session goes on. Either way
//!   the over-long line is discarded in bounded chunks — it is never
//!   buffered whole;
//! * beyond `--max-connections` (default 1024) concurrent connections,
//!   new arrivals get one structured error line and are closed.
//!
//! In `--listen` mode stdin only controls the server's lifetime: hold it
//! open (e.g. a fifo) to keep serving, close it to stop accepting, drain
//! connections, quiesce (in-flight re-fit, `--refresh-save`, WAL
//! truncation, final metrics dump), and exit 0.
//!
//! Re-fits always run on a dedicated worker thread (double-buffered
//! engines). `--refresh-background` lets the serving loop go on while one
//! runs: queries keep answering from the old snapshot for the entire
//! re-fit, the finished snapshot swaps in between requests, and commits
//! arriving mid-re-fit stage into the next refresh window.
//! `{"op":"refresh_status"}` reports in-flight state and the last outcome;
//! with `"wait":true` it blocks until the in-flight re-fit lands — the
//! quiesce point for scripts. At EOF the binary waits for any in-flight
//! re-fit (so `--refresh-save` always persists the last refresh) before
//! exiting. Without the flag the loop waits for each re-fit to land, so
//! `refresh` and a triggering commit answer with the outcome, stalling
//! the loop for the warm-EM wall time.
//!
//! `--wal <path>` opens a commit write-ahead log ([`genclus_serve::wal`]):
//! every accepted commit is appended and **fsynced before its ack is
//! written**, so the durability contract is *ack ⇒ replayable* — kill the
//! process at any point and a restart with the same `--wal` and snapshot
//! replays the log, rebuilding every acknowledged commit (links,
//! `in_links`, observations, and the fold-in `Θ` row bit-identically). A
//! refresh that persists via `--refresh-save` truncates the log
//! atomically down to the still-staged window; pair the two flags and the
//! log stays short. A torn final record (crash mid-append) is truncated
//! and reported at startup, never fatal; a log that belongs to a
//! different snapshot is a startup error. A client that never saw an ack
//! for a commit must treat it as unknown and retry — an "already staged"
//! rejection then means the commit survived after all.
//!
//! # Observability
//!
//! The engine keeps an always-on [`genclus_serve::metrics`] registry:
//! per-op latency histograms, WAL append/fsync timings, replay counters,
//! refresh lifecycle spans, and live warm-EM convergence. Three ways out:
//!
//! * `{"op":"metrics"}` — the cumulative registry as one JSON response
//!   (documented, byte-stable key order; see the [`genclus_serve::metrics`]
//!   module docs for the schema);
//! * `--metrics-dump <path>` — a background thread snapshots the registry
//!   to `path` every `--metrics-interval` seconds (default 10; atomic
//!   temp-file + rename), plus one final snapshot at exit — point a
//!   collector at the file;
//! * `--metrics-format prom` — the dump file renders as Prometheus text
//!   exposition instead of JSON. The wire `metrics` op is always JSON.
//!
//! Diagnostics go to stderr through one leveled logger; `--quiet` keeps
//! only errors (startup banner, recovery summaries, and truncation
//! warnings are suppressed). Responses on stdout are never filtered.
//!
//! Every mode leaves through one path: any in-flight re-fit lands (so
//! `--refresh-save` and the WAL truncation still happen), the final
//! metrics dump is written, and the process exits. If stdout closes under
//! the binary (`head`, a dying consumer — a broken pipe), that is an EOF,
//! not a crash, and the exit code is 0.
//!
//! Snapshots do not record the original fit's hyperparameters, so re-fits
//! run under paper defaults; `--refresh-sigma` overrides the `γ`-prior
//! std (§3.4) for models fitted with a non-default one, and deployments
//! with other non-default knobs should embed
//! [`genclus_serve::refresh::RefreshPolicy::base_config`] via the library
//! API instead of this binary.

use genclus_obs::log;
use genclus_serve::net::{NetConfig, NetServer};
use genclus_serve::session::serve_stdio;
use genclus_serve::snapshot;
use genclus_serve::{RefreshPolicy, RefreshableEngine, ServeMetrics, Snapshot};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: genclus_serve --snapshot <path> [--listen <addr>] [--threads N] [--batch N] \
         [--max-request-bytes N] [--max-connections N] \
         [--refresh-after-objects N] [--refresh-after-links N] [--refresh-save <path>] \
         [--refresh-sigma F] [--refresh-background] [--wal <path>] \
         [--metrics-dump <path>] [--metrics-interval SECS] [--metrics-format json|prom] \
         [--quiet]"
    );
    std::process::exit(2);
}

/// The next argument, parsed and accepted by `valid`; the usage text
/// otherwise.
fn value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    valid: impl Fn(&T) -> bool,
) -> T {
    args.next()
        .and_then(|s| s.parse().ok())
        .filter(valid)
        .unwrap_or_else(|| usage())
}

/// How `--metrics-dump` renders the registry.
#[derive(Clone, Copy, PartialEq)]
enum MetricsFormat {
    Json,
    Prom,
}

/// One atomic **and durable** snapshot of the registry to `path`, via the
/// shared fsync'd save helper (temp file synced before the rename, parent
/// directory after it) — `--metrics-dump` survives crash like every other
/// persisted artifact. `tmp_tag` keeps the periodic thread's temp file
/// distinct from the final-dump one — the two can race at exit, and
/// renames of *complete* files are safe in either order while a shared
/// temp path would not be.
fn dump_metrics(metrics: &ServeMetrics, path: &Path, format: MetricsFormat, tmp_tag: &str) {
    let body = match format {
        MetricsFormat::Json => {
            let mut s = metrics.to_json().render();
            s.push('\n');
            s
        }
        MetricsFormat::Prom => metrics.render_prom(),
    };
    if let Err(e) = snapshot::save_bytes_tagged(path, body.as_bytes(), tmp_tag) {
        log::warn(format!("metrics dump to {} failed: {e}", path.display()));
    }
}

/// The one way out, for every mode: drains in-flight work — an in-flight
/// background re-fit finishes (and persists + truncates the WAL, when
/// configured) rather than being torn down mid-write with the process —
/// writes the final metrics dump, and exits. The code is non-zero when
/// the session `failed` or the final re-fit failed, since there is no
/// later response line to surface it in.
fn shut_down(
    mut engine: RefreshableEngine,
    dump: &Option<(PathBuf, MetricsFormat)>,
    failed: bool,
) -> ! {
    let mut code = i32::from(failed);
    if engine.refresh_in_flight() {
        log::info("waiting for the in-flight background re-fit before exit");
        engine.finish();
        if let Some(Err(e)) = engine.last_refresh() {
            log::error(format!("final background re-fit failed: {e}"));
            code = 1;
        }
    }
    if let Some(e) = engine.wal_error() {
        log::warn(format!("the last commit-log truncation failed: {e}"));
    }
    if let Some((path, format)) = dump {
        dump_metrics(engine.engine().metrics(), path, *format, ".tmp-final");
    }
    std::process::exit(code);
}

fn main() {
    let mut snapshot_path: Option<PathBuf> = None;
    let mut wal_path: Option<PathBuf> = None;
    let mut listen: Option<String> = None;
    let mut threads = 1usize;
    let mut net = NetConfig::default();
    let mut policy = RefreshPolicy::default();
    let mut metrics_dump: Option<PathBuf> = None;
    let mut metrics_interval_secs = 10u64;
    let mut metrics_format = MetricsFormat::Json;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--snapshot" => snapshot_path = Some(value(&mut args, |_| true)),
            "--wal" => wal_path = Some(value(&mut args, |_| true)),
            "--listen" => listen = Some(value(&mut args, |_| true)),
            "--max-request-bytes" => net.max_request_bytes = value(&mut args, |&b| b >= 1),
            "--max-connections" => net.max_connections = value(&mut args, |&c| c >= 1),
            "--threads" => threads = value(&mut args, |&t| t >= 1),
            "--batch" => net.batch = value(&mut args, |&b| b >= 1),
            "--refresh-after-objects" => policy.max_pending_objects = value(&mut args, |_| true),
            "--refresh-after-links" => policy.max_pending_links = value(&mut args, |_| true),
            "--refresh-save" => policy.persist_path = Some(value(&mut args, |_| true)),
            "--refresh-background" => policy.background = true,
            "--refresh-sigma" => {
                let sigma: f64 = value(&mut args, |&s: &f64| s > 0.0 && s.is_finite());
                // K and the attribute subset are placeholders — the refresh
                // path realigns them with the served model before fitting.
                let mut cfg =
                    genclus_core::GenClusConfig::new(2, vec![genclus_hin::AttributeId(0)]);
                cfg.sigma = sigma;
                policy.base_config = Some(cfg);
            }
            "--metrics-dump" => metrics_dump = Some(value(&mut args, |_| true)),
            "--metrics-interval" => match args.next().and_then(|s| s.parse().ok()) {
                Some(secs) if secs >= 1 => metrics_interval_secs = secs,
                // A bare `usage()` here buried the real problem: 0 is not
                // a "dump on every iteration" request, it is a busy-spin
                // that rewrites the dump file continuously. Say so.
                Some(0) => {
                    eprintln!(
                        "genclus_serve: error: --metrics-interval must be at least 1 second \
                         (an interval of 0 would busy-spin the dump thread, rewriting the \
                         dump file continuously)"
                    );
                    std::process::exit(2);
                }
                _ => usage(),
            },
            "--metrics-format" => match args.next().as_deref() {
                Some("json") => metrics_format = MetricsFormat::Json,
                Some("prom") => metrics_format = MetricsFormat::Prom,
                _ => usage(),
            },
            "--quiet" => quiet = true,
            _ => usage(),
        }
    }
    let Some(path) = snapshot_path else { usage() };
    log::init(
        "genclus_serve",
        if quiet {
            log::Level::Error
        } else {
            log::Level::Info
        },
    );

    let snapshot = match Snapshot::load(&path) {
        Ok(s) => s,
        Err(e) => {
            log::error(format!("failed to load snapshot {}: {e}", path.display()));
            std::process::exit(1);
        }
    };
    log::info(format!(
        "{} objects, {} links, k={}, snapshot v{} ({} threads, batch {}, \
         refresh after {}/{} objects/links, {} re-fit{})",
        snapshot.graph().n_objects(),
        snapshot.graph().n_links(),
        snapshot.model().n_clusters(),
        snapshot.header().version,
        threads,
        net.batch,
        policy.max_pending_objects,
        policy.max_pending_links,
        if policy.background {
            "background"
        } else {
            "inline"
        },
        policy
            .persist_path
            .as_ref()
            .map(|p| format!(", persisting to {}", p.display()))
            .unwrap_or_default(),
    ));
    if policy.base_config.is_none() {
        log::info(
            "note: refreshes re-fit under paper-default hyperparameters \
             (snapshots do not record the original fit's σ/floors/Newton options); \
             pass --refresh-sigma or embed RefreshPolicy.base_config if the model \
             was fitted with non-default values",
        );
    }
    let mut engine = match &wal_path {
        Some(wal) => match RefreshableEngine::with_wal(snapshot, threads, policy, wal) {
            Ok((engine, report)) => {
                log::info(format!(
                    "commit WAL {}: replayed {} commit(s), skipped {} \
                     already-persisted, truncated {} torn tail byte(s){}",
                    wal.display(),
                    report.replayed,
                    report.skipped,
                    report.torn_bytes,
                    if report.rewritten {
                        "; log rebased onto the loaded snapshot"
                    } else {
                        ""
                    },
                ));
                engine
            }
            Err(e) => {
                log::error(format!(
                    "failed to recover commit WAL {}: {e}",
                    wal.display()
                ));
                std::process::exit(1);
            }
        },
        None => RefreshableEngine::new(snapshot, threads, policy),
    };

    // Periodic metrics snapshots: a detached thread sharing the registry
    // Arc (which outlives every snapshot swap). No shutdown signal needed
    // — the final dump below covers everything after the last tick, and
    // the thread dies with the process.
    let dump = metrics_dump.map(|p| (p, metrics_format));
    if let Some((path, format)) = &dump {
        let metrics: Arc<ServeMetrics> = engine.engine().metrics().clone();
        let path = path.clone();
        let format = *format;
        let interval = std::time::Duration::from_secs(metrics_interval_secs);
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            dump_metrics(&metrics, &path, format, ".tmp");
        });
    }

    // ---- TCP mode: stdin only controls the server's lifetime. ----
    if let Some(addr) = listen {
        let server = match NetServer::bind(addr.as_str(), engine, net) {
            Ok(s) => s,
            Err(e) => {
                log::error(format!("failed to bind {addr}: {e}"));
                std::process::exit(1);
            }
        };
        // Block until stdin closes (hold it open — a fifo, a pipe — to
        // keep serving; close it for a graceful stop). Bytes written to
        // stdin in this mode are ignored.
        if let Err(e) = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink()) {
            log::error(format!("stdin read failed: {e}"));
        }
        log::info("stdin closed; draining connections");
        shut_down(server.shutdown(), &dump, false);
    }

    let ended = serve_stdio(&mut engine, &net);
    shut_down(engine, &dump, ended.is_err());
}
