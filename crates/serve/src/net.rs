//! The multi-client TCP front-end: JSON-lines over `N` concurrent
//! connections.
//!
//! `genclus_serve --listen <addr>` wraps a [`RefreshableEngine`] in a
//! [`NetServer`]: one accept thread, one handler thread per connection
//! (connection handlers block on socket reads, so the fixed-size compute
//! [`WorkerPool`](genclus_core::pool::WorkerPool) is the wrong shape —
//! a blocked handler would starve compute), and the same wire protocol as
//! the stdio loop, one JSON response line per JSON request line, in
//! request order per connection.
//!
//! # Shared-read / exclusive-write
//!
//! The engine refactor behind this module splits the serving state in
//! two:
//!
//! * **Reads are lock-free against a published snapshot.** The
//!   [`QueryEngine`](crate::engine::QueryEngine) holds its read-only
//!   [`QueryCore`] in an `Arc`; [`Published`] is the swap point — an
//!   atomic generation counter plus a slot holding the current
//!   `Arc<QueryCore>`. Each connection keeps a [`PinnedCore`]: per
//!   request it loads the generation (one `Acquire` load — the steady
//!   state), and only when the generation moved does it take the slot
//!   lock once to re-clone the `Arc`. Readers therefore never contend
//!   with each other, and a snapshot swap costs each connection one
//!   mutex hit total, not one per request.
//! * **Mutations serialize through one lane.** Each line is parsed once
//!   into a [`Request`]; the variants that [`Request::takes_lane`] —
//!   `commit`ed fold-ins, `refresh`/`refresh_status`, and `stats`
//!   (read-only, but answered by the refresh layer so WAL fields stay
//!   visible) — go through a `Mutex<RefreshableEngine>`, the same
//!   single-writer discipline the stdio loop has implicitly. The WAL
//!   append+fsync happens inside the lane *before* the ack leaves it, so the
//!   *ack ⇒ replayable* contract of the durability layer holds verbatim
//!   under concurrency. After every lane call the (possibly refreshed)
//!   core is re-published **while the lane is still held**, which makes
//!   publishes monotone: the generation order equals the swap order.
//!
//! Consequences clients can rely on:
//!
//! * a connection that commits and then reads sees its own writes once
//!   the refresh lands (the read re-pins a generation at least as new as
//!   the one its ack published);
//! * `stats` checksums observed by any one connection are old\* then
//!   new\*, never interleaved — `stats` is answered by the lane, whose
//!   engine swaps atomically between requests;
//! * a finished background re-fit is published promptly even on an idle
//!   server: connection read timeouts double as housekeeping ticks that
//!   `try_lock` the lane, land the re-fit, and publish.
//!
//! # Admission, batching, limits
//!
//! * Request lines are read through the crate-wide
//!   [`CappedLineReader`] — a line over `--max-request-bytes` gets a
//!   structured `BadRequest` and then the connection closes (a peer that
//!   overflows the cap once is not negotiating in good faith; the stdio
//!   loop answers the error and keeps going).
//! * Pipelined requests already buffered on a connection are coalesced
//!   into one batch (up to the configured batch size) and answered with
//!   a single write+flush — the amortization `BENCH_serve.json` shows
//!   batch sizes are fastest at, without adding latency for lone
//!   requests.
//! * At `max_connections` concurrent connections, new arrivals get one
//!   structured error line and are closed (counted in `net.rejected`).
//! * A write error on one connection (EPIPE and friends) closes *that*
//!   connection — logged, counted in `net.write_errors`, every other
//!   connection keeps serving. Only the stdio stream retains the
//!   quiesce-and-exit semantics, because losing stdout means losing the
//!   only client.

use crate::engine::QueryCore;
use crate::json::Json;
use crate::lines::{CappedLineReader, LineEvent};
use crate::metrics::ServeMetrics;
use crate::refresh::RefreshableEngine;
use crate::request::{invalid_utf8_response, over_limit_response, respond, Body, Request};
use genclus_obs::log;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Front-end knobs; all have serving-grade defaults.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Max pipelined requests coalesced into one write per connection.
    pub batch: usize,
    /// Per-request-line byte cap (see
    /// [`crate::lines::DEFAULT_MAX_REQUEST_BYTES`]).
    pub max_request_bytes: usize,
    /// Admission cap on concurrent connections.
    pub max_connections: usize,
    /// Socket read timeout; doubles as the housekeeping/shutdown-check
    /// cadence, so it bounds how stale an idle server's published
    /// snapshot can be.
    pub tick: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            batch: 64,
            max_request_bytes: crate::lines::DEFAULT_MAX_REQUEST_BYTES,
            max_connections: 1024,
            tick: Duration::from_millis(100),
        }
    }
}

/// The atomically swappable read handle: the current `Arc<QueryCore>`
/// plus a generation counter that lets readers detect a swap with one
/// atomic load.
struct Published {
    gen: AtomicU64,
    slot: Mutex<Arc<QueryCore>>,
}

impl Published {
    fn new(core: Arc<QueryCore>) -> Self {
        Self {
            gen: AtomicU64::new(1),
            slot: Mutex::new(core),
        }
    }

    /// Publishes `core` if it differs from the current one. Publishers
    /// bump the generation under the slot lock, so generation order is
    /// publication order.
    fn publish(&self, core: &Arc<QueryCore>) {
        // Poison recovery (here and in the two pin paths below): the slot
        // only ever holds a complete Arc, so a poisoned lock still yields
        // a servable core — a panicked publisher must not take down every
        // connection that later pins.
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        if !Arc::ptr_eq(&slot, core) {
            *slot = Arc::clone(core);
            self.gen.fetch_add(1, Ordering::Release);
        }
    }
}

/// A connection's cached view of [`Published`]. The steady-state read
/// path is one `Acquire` load; the slot mutex is touched only on the
/// request right after a swap.
struct PinnedCore {
    core: Arc<QueryCore>,
    seen: u64,
}

impl PinnedCore {
    fn new(published: &Published) -> Self {
        let slot = published.slot.lock().unwrap_or_else(|p| p.into_inner());
        Self {
            core: Arc::clone(&slot),
            seen: published.gen.load(Ordering::Acquire),
        }
    }

    /// Re-pins to the latest published core iff the generation moved.
    fn refresh(&mut self, published: &Published) {
        if published.gen.load(Ordering::Acquire) != self.seen {
            let slot = published.slot.lock().unwrap_or_else(|p| p.into_inner());
            self.core = Arc::clone(&slot);
            // Re-read under the lock: publishers bump while holding it,
            // so this pairs the generation with exactly this core.
            self.seen = published.gen.load(Ordering::Acquire);
        }
    }
}

/// State shared by the accept loop and every connection handler.
struct Shared {
    lane: Mutex<RefreshableEngine>,
    published: Published,
    metrics: Arc<ServeMetrics>,
    cfg: NetConfig,
    shutdown: AtomicBool,
}

impl Shared {
    /// Opportunistic idle-tick work: land a finished background re-fit
    /// and publish the current core, but never block behind the lane —
    /// whoever holds it will publish on release.
    fn housekeep(&self) {
        if let Ok(mut lane) = self.lane.try_lock() {
            lane.poll_refresh();
            self.published.publish(&lane.engine().core_shared());
        }
    }

    /// Routes one request line: lane requests through the lane (landing
    /// a finished re-fit first, and publishing the possibly-swapped core
    /// before the lane is released), everything else against the
    /// connection's pinned core.
    fn handle_request(&self, pinned: &mut PinnedCore, line: &str) -> String {
        let started = self.metrics.timer();
        let parsed = Json::parse(line);
        let req = Request::decode(&parsed);
        if !req.takes_lane() {
            pinned.refresh(&self.published);
            return pinned.core.answer(&req, started);
        }
        match self.lane.lock() {
            Ok(mut lane) => {
                lane.poll_refresh();
                let response = lane.answer(&req, self.metrics.timer());
                self.published.publish(&lane.engine().core_shared());
                response
            }
            Err(_) => respond(
                None,
                "other",
                Err::<Body, _>("mutation lane poisoned by an earlier panic; restart the server"),
            )
            .record(&self.metrics, started),
        }
    }
}

/// A running TCP front-end. Dropping it *detaches* the server; call
/// [`Self::shutdown`] to stop accepting, drain connections, and recover
/// the engine (for the binary's quiesce path).
pub struct NetServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `engine` — returns once the listener is live.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        engine: RefreshableEngine,
        cfg: NetConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = engine.engine().metrics().clone();
        let published = Published::new(engine.engine().core_shared());
        let shared = Arc::new(Shared {
            lane: Mutex::new(engine),
            published,
            metrics,
            cfg,
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("genclus-accept".into())
            .spawn(move || accept_loop(&accept_shared, listener))?;
        log::info(format!("listening on {local_addr}"));
        Ok(Self {
            local_addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address — the actual port when bound with port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, waits for in-flight connections to drain (active
    /// streamers finish their current batches; idle connections notice
    /// within one tick), and returns the engine so the caller can
    /// quiesce it (drain the in-flight re-fit, final metrics dump).
    pub fn shutdown(mut self) -> RefreshableEngine {
        self.shared.shutdown.store(true, Ordering::Release);
        // The accept loop blocks in `accept`; a throwaway connection
        // wakes it to observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            match accept.join() {
                Ok(conns) => {
                    for conn in conns {
                        let _ = conn.join();
                    }
                }
                Err(_) => log::warn("accept thread panicked"),
            }
        }
        let shared = Arc::try_unwrap(self.shared)
            // lint: allow(no-panic-in-serve) -- shutdown-only invariant: every server thread was just joined, so a surviving Arc handle is a programming error and there is no engine to hand back
            .unwrap_or_else(|_| panic!("all server threads joined, no handles remain"));
        shared
            .lane
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Accepts until shutdown; returns the connection handles for draining.
fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) -> Vec<JoinHandle<()>> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                log::warn(format!("accept failed: {e}"));
                continue;
            }
        };
        conns.retain(|c| !c.is_finished());
        if conns.len() >= shared.cfg.max_connections {
            shared.metrics.record_conn_rejected();
            reject(stream, shared.cfg.max_connections);
            continue;
        }
        shared.metrics.record_conn_accepted();
        let conn_shared = Arc::clone(shared);
        match std::thread::Builder::new()
            .name("genclus-conn".into())
            .spawn(move || {
                serve_connection(&conn_shared, stream);
                conn_shared.metrics.record_conn_closed();
            }) {
            Ok(handle) => conns.push(handle),
            Err(e) => {
                log::warn(format!("spawning connection handler failed: {e}"));
                shared.metrics.record_conn_closed();
            }
        }
    }
    conns
}

/// One error line, best effort, then drop — what an over-capacity
/// arrival sees.
fn reject(mut stream: TcpStream, cap: usize) {
    let line = Json::obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::str(format!("server at connection capacity ({cap})")),
        ),
    ])
    .render();
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
}

/// The per-connection loop: read (bounded), batch, answer, contain.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".into());
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(shared.cfg.tick)).is_err() {
        return;
    }
    let reader_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            log::warn(format!("{peer}: cloning stream failed: {e}"));
            return;
        }
    };
    let mut reader = CappedLineReader::new(reader_half, shared.cfg.max_request_bytes);
    let mut writer = stream;
    let mut pinned = PinnedCore::new(&shared.published);
    let mut out = String::new();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let first = match reader.next_event() {
            LineEvent::Idle => {
                shared.housekeep();
                continue;
            }
            LineEvent::Eof => return,
            LineEvent::Err(e) => {
                log::warn(format!("{peer}: read failed: {e}"));
                return;
            }
            event => event,
        };
        // Coalesce whatever complete lines the peer already pipelined
        // into one batch → one write+flush.
        let mut events = vec![first];
        while events.len() < shared.cfg.batch {
            match reader.next_buffered() {
                Some(event) => events.push(event),
                None => break,
            }
        }
        out.clear();
        let mut close_after_write = false;
        for event in events {
            match event {
                LineEvent::Line(line) => {
                    out.push_str(&shared.handle_request(&mut pinned, &line));
                }
                LineEvent::OverLimit { discarded } => {
                    shared.metrics.record_over_limit();
                    out.push_str(&over_limit_response(
                        &shared.metrics,
                        discarded,
                        shared.cfg.max_request_bytes,
                    ));
                    close_after_write = true;
                }
                LineEvent::NotUtf8 => out.push_str(&invalid_utf8_response(&shared.metrics)),
                // Idle/Eof/Err never reach the batch (handled above and
                // never produced by `next_buffered`).
                LineEvent::Idle | LineEvent::Eof | LineEvent::Err(_) => {}
            }
            out.push('\n');
            if close_after_write {
                break;
            }
        }
        if let Err(e) = writer
            .write_all(out.as_bytes())
            .and_then(|()| writer.flush())
        {
            // THE containment point: one client's broken pipe is that
            // client's problem. Log, count, close this connection; the
            // process and every other connection keep serving.
            log::warn(format!("{peer}: write failed, closing: {e}"));
            shared.metrics.record_net_write_error();
            return;
        }
        if close_after_write {
            log::warn(format!("{peer}: over-limit request, closing"));
            return;
        }
    }
}
