//! The multi-client TCP front-end: JSON-lines over `N` concurrent
//! connections.
//!
//! `genclus_serve --listen <addr>` wraps a [`RefreshableEngine`] in a
//! [`NetServer`]: one accept thread, one handler thread per connection
//! (connection handlers block on socket reads, so the fixed-size compute
//! [`WorkerPool`](genclus_core::pool::WorkerPool) is the wrong shape —
//! a blocked handler would starve compute). Each connection is one
//! session ([`crate::session`]): the same loop, router and wire protocol
//! as the binary's stdio mode, one JSON response line per JSON request
//! line, in request order per connection.
//!
//! # Shared-read / exclusive-write
//!
//! The engine refactor behind this module splits the serving state in
//! two:
//!
//! * **Reads are lock-free against a published snapshot.** The
//!   [`QueryEngine`](crate::engine::QueryEngine) holds its read-only
//!   [`QueryCore`] in an `Arc`; the server's published slot is the swap
//!   point — an atomic generation counter plus a slot holding the current
//!   `Arc<QueryCore>`. Each connection pins a core: per batch it loads
//!   the generation (one `Acquire` load — the steady state), and only
//!   when the generation moved does it take the slot lock once to
//!   re-clone the `Arc`. Readers therefore never contend
//!   with each other, and a snapshot swap costs each connection one
//!   mutex hit total, not one per request.
//! * **Mutations serialize through one lane.** Each line is parsed once
//!   into a `Request`; the variants that `Request::takes_lane` —
//!   `commit`ed fold-ins, `refresh`/`refresh_status`, and `stats`
//!   (read-only, but answered by the refresh layer so WAL fields stay
//!   visible) — go through a `Mutex<RefreshableEngine>`, the same
//!   single writer a stdio session owns outright. The WAL
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
//! * Batching, the byte cap and blank lines follow the session rules:
//!   the complete lines a peer already pipelined are coalesced into one
//!   batch (up to the configured batch size) and answered with a single
//!   write+flush, and a blank line is answered with nothing.
//! * A line over `--max-request-bytes` gets a structured `BadRequest` and
//!   then the connection closes — a peer that overflows the cap once is
//!   not negotiating in good faith.
//! * At `max_connections` concurrent connections, new arrivals get one
//!   structured error line and are closed (counted in `net.rejected`).
//! * A write error on one connection (EPIPE and friends) closes *that*
//!   connection — logged, counted in `net.write_errors`, every other
//!   connection keeps serving. Only a stdio session quiesces the process
//!   on a write error, because losing stdout means losing the only
//!   client.

use crate::engine::QueryCore;
use crate::lines::CappedLineReader;
use crate::metrics::ServeMetrics;
use crate::refresh::RefreshableEngine;
use crate::request::{respond, Body, Request};
use crate::session::{self, End, Lane};
use genclus_obs::log;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// State shared by the accept loop and every connection handler.
struct Shared {
    lane: Mutex<RefreshableEngine>,
    /// The published read core: the atomically swappable
    /// `Arc<QueryCore>`, plus a generation counter that lets readers
    /// detect a swap with one atomic load.
    slot: Mutex<Arc<QueryCore>>,
    gen: AtomicU64,
    metrics: Arc<ServeMetrics>,
    cfg: NetConfig,
    shutdown: AtomicBool,
}

impl Shared {
    /// Publishes `lane`'s core if it differs from the current one.
    /// Publishers bump the generation under the slot lock, so generation
    /// order is publication order.
    fn publish(&self, lane: &RefreshableEngine) {
        // Poison recovery (here and in `pin`): the slot only ever holds a
        // complete Arc, so a poisoned lock still yields a servable core — a
        // panicked publisher must not take down every connection that later
        // pins.
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        let core = lane.engine().core_shared();
        if !Arc::ptr_eq(&slot, &core) {
            *slot = core;
            self.gen.fetch_add(1, Ordering::Release);
        }
    }

    /// The published core and its generation. Read under the slot lock:
    /// publishers bump the generation while holding it, so this pairs the
    /// generation with exactly this core.
    fn pin(&self) -> (Arc<QueryCore>, u64) {
        let slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        (Arc::clone(&slot), self.gen.load(Ordering::Acquire))
    }
}

/// One connection's lane: the core it answers reads from, pinned from
/// the published slot, and the shared mutation lane.
struct Conn<'a> {
    shared: &'a Shared,
    core: Arc<QueryCore>,
    /// The publish generation `core` was pinned at.
    seen: u64,
}

impl Lane for Conn<'_> {
    /// Re-pins to the latest published core iff the generation moved: the
    /// steady state is one `Acquire` load, and the slot mutex is touched
    /// only on the batch right after a swap.
    fn repin(&mut self) -> u64 {
        if self.shared.gen.load(Ordering::Acquire) != self.seen {
            (self.core, self.seen) = self.shared.pin();
        }
        self.seen
    }

    fn core(&self) -> &QueryCore {
        &self.core
    }

    /// Serially on the connection thread: the worker pool belongs to the
    /// engine behind the lane, and a read never waits on the lane.
    fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        items.iter().map(f).collect()
    }

    /// Through the lane, publishing the possibly-swapped core before the
    /// lane is released.
    fn answer(&mut self, req: &Request<'_>, started: Option<Instant>) -> String {
        match self.shared.lane.lock() {
            Ok(mut lane) => {
                let response = lane.answer(req, started);
                self.shared.publish(&lane);
                response
            }
            Err(_) => respond(
                None,
                "other",
                Err::<Body, _>("mutation lane poisoned by an earlier panic; restart the server"),
            )
            .record(&self.shared.metrics, started),
        }
    }

    fn open(&self) -> bool {
        !self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Lands a finished background re-fit and publishes the current core,
    /// but never blocks behind the lane — whoever holds it publishes on
    /// release.
    fn idle(&mut self) {
        if let Ok(mut lane) = self.shared.lane.try_lock() {
            lane.poll_refresh();
            self.shared.publish(&lane);
        }
    }
}

/// A running TCP front-end. Dropping it *detaches* the server; call
/// [`Self::shutdown`] to stop accepting, drain connections, and recover
/// the engine (for the binary's quiesce path).
pub struct NetServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
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
        let shared = Arc::new(Shared {
            slot: Mutex::new(engine.engine().core_shared()),
            gen: AtomicU64::new(1),
            lane: Mutex::new(engine),
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
            accept,
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
    pub fn shutdown(self) -> RefreshableEngine {
        self.shared.shutdown.store(true, Ordering::Release);
        // The accept loop blocks in `accept`; a throwaway connection
        // wakes it to observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        // The accept thread joins every connection thread before it ends.
        if self.accept.join().is_err() {
            log::warn("a server thread panicked");
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

/// Accepts until shutdown, one scoped thread per connection; returns once
/// every connection thread has ended.
fn accept_loop(shared: &Shared, listener: TcpListener) {
    std::thread::scope(|scope| {
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
            if shared.metrics.active_connections() >= shared.cfg.max_connections as u64 {
                shared.metrics.record_conn_rejected();
                reject(stream, shared);
                continue;
            }
            shared.metrics.record_conn_accepted();
            let spawned = std::thread::Builder::new()
                .name("genclus-conn".into())
                .spawn_scoped(scope, move || {
                    serve(shared, stream);
                    shared.metrics.record_conn_closed();
                });
            if let Err(e) = spawned {
                log::warn(format!("spawning connection handler failed: {e}"));
                shared.metrics.record_conn_closed();
            }
        }
    });
}

/// One error line, best effort, then drop — what an over-capacity
/// arrival sees.
fn reject(mut stream: TcpStream, shared: &Shared) {
    let message = format!(
        "server at connection capacity ({})",
        shared.cfg.max_connections
    );
    let line = respond(None, "other", Err::<Body, _>(message)).record(&shared.metrics, None);
    let _ = stream.write_all(format!("{line}\n").as_bytes());
}

/// One connection: a session until it ends, then close. Every end closes
/// only this connection; a write error (the client vanished) is counted.
fn serve(shared: &Shared, mut stream: TcpStream) {
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "<unknown>".into(), |a| a.to_string());
    let _ = stream.set_nodelay(true);
    let reader = match stream
        .set_read_timeout(Some(shared.cfg.tick))
        .and_then(|()| stream.try_clone())
    {
        Ok(reader) => reader,
        Err(e) => {
            log::warn(format!("{peer}: setting up the connection failed: {e}"));
            return;
        }
    };
    let mut reader = CappedLineReader::new(reader, shared.cfg.max_request_bytes);
    let (core, seen) = shared.pin();
    let mut conn = Conn { shared, core, seen };
    match session::run(
        &mut reader,
        &mut stream,
        &mut conn,
        &shared.metrics,
        &shared.cfg,
    ) {
        End::Eof | End::Shutdown => {}
        End::ReadError(e) => log::warn(format!("{peer}: read failed: {e}")),
        End::WriteError(e) => {
            log::warn(format!("{peer}: write failed, closing: {e}"));
            shared.metrics.record_net_write_error();
        }
        End::OverLimit => log::warn(format!("{peer}: over-limit request, closing")),
    }
}
